"""End-to-end tests of the command-line interface and its file formats."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scem_rd.config
from scem_rd import cli, numformat
from scem_rd.analysis import exact_constant_system
from scem_rd.cli import main
from scem_rd.config import (
    BUILTIN_PROBLEMS,
    PAPER_GRID,
    ConfigError,
    RunManifest,
    config_from_dict,
    dump_config,
    load_problem,
    parse_eps_list,
)
from scem_rd.expressions import compile_expression
from scem_rd.numformat import percent_cells
from scem_rd.scem import AssumptionViolation, HybridApproximation, OuterSolution


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def rows_by_x(path):
    header, rows = read_csv(path)
    return header, {float(r[0]): [float(v) for v in r[1:]] for r in rows}


def test_solve_example1_small_eps(tmp_path):
    code = main(["solve", "--problem", "example1", "--eps", "1e-4",
                 "--out", str(tmp_path)])
    assert code == 0
    header, table = rows_by_x(tmp_path / "example1_solve_eps0.0001.csv")
    assert header == ["x", "y_1", "y_2"]
    assert table[0.3][0] == pytest.approx(0.7, abs=1e-9)
    assert table[0.0] == [0.0, 0.0]
    assert table[1.0] == [0.0, 0.0]
    assert set(table) == {float(x) for x in PAPER_GRID}


@pytest.mark.parametrize("adapt", [[], ["--no-adapt"]], ids=["adaptive", "fixed"])
def test_solve_meets_a_large_boundary_datum(tmp_path, adapt):
    # |1e9 - y_out(0)| >= 2^27 used to leave a zero row in the finite-difference
    # bc Jacobian, and the solve failed with exit 3
    config = dict(BUILTIN_PROBLEMS["example1"].to_dict(), name="steep", bc_left=[1e9, 0])
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["solve", "--problem", str(path), "--eps", "1e-4", *adapt,
                 "--out", str(tmp_path)]) == 0
    _, table = rows_by_x(tmp_path / "steep_solve_eps0.0001.csv")
    assert table[0.0] == pytest.approx([1e9, 0.0], rel=1e-15, abs=1e-8)
    assert table[0.5] == pytest.approx([0.7, 0.9], abs=1e-9)


def test_solve_example2_table4_row(tmp_path):
    code = main(["solve", "--problem", "example2", "--eps", "1e-4",
                 "--out", str(tmp_path)])
    assert code == 0
    _, table = rows_by_x(tmp_path / "example2_solve_eps0.0001.csv")
    assert table[0.7][2] == pytest.approx(0.43, abs=1e-6)
    assert table[0.5][2] == pytest.approx(0.35, abs=1e-6)


def test_solve_zero_forcing_all_rows_zero(tmp_path):
    config = dict(BUILTIN_PROBLEMS["example1"].to_dict())
    config["name"] = "quiet"
    config["forcing"] = ["0", "0"]
    path = tmp_path / "quiet.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["solve", "--problem", str(path), "--eps", "0.01",
                 "--out", str(tmp_path)])
    assert code == 0
    _, table = rows_by_x(tmp_path / "quiet_solve_eps0.01.csv")
    assert all(v == 0.0 for vals in table.values() for v in vals)


def test_solve_output_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert main(["solve", "--problem", "example1", "--eps", "0.01,1",
                     "--out", str(tmp_path / sub)]) == 0
    for name in ("example1_solve_eps0.01.csv", "example1_solve_eps1.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_solve_fifteen_decimal_format(tmp_path):
    assert main(["solve", "--problem", "example1", "--eps", "1",
                 "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "example1_solve_eps1.csv")
    assert rows[-1][0] == "1.000000000000000"
    assert rows[-1][1] == "0.000000000000000"
    assert all(len(cell.split(".")[1]) == 15 for row in rows for cell in row)


def test_unknown_problem_exits_2(tmp_path, capsys):
    assert main(["solve", "--problem", "nope", "--eps", "1",
                 "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


DEEP_NEST = "(" * 600 + "x" + ")" * 600
LONG_CHAIN = "+".join(["1"] * 3000)


@pytest.mark.parametrize("forcing", ["1 +", DEEP_NEST, LONG_CHAIN],
                         ids=["dangling-plus", "deep-nest", "long-chain"])
def test_bad_expression_exits_2(tmp_path, capsys, forcing):
    config = dict(BUILTIN_PROBLEMS["example1"].to_dict())
    config["forcing"] = [forcing, "2"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["solve", "--problem", str(path), "--eps", "1",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("forcing", ["1 +", "1/x"], ids=["dangling-plus", "not-finite"])
def test_convergence_bad_expression_is_a_config_error(tmp_path, capsys, forcing):
    config = dict(BUILTIN_PROBLEMS["example1"].to_dict())
    config["forcing"] = [forcing, "2"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["convergence", "--problem", str(path), "--eps", "0.01",
                 "--n", "16,32", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not any(tmp_path.glob("*.csv"))



def test_whitespace_around_coefficients_changes_no_output(tmp_path):
    config = dict(BUILTIN_PROBLEMS["example1"].to_dict())
    config["coeff"] = [["4 ", "-2\t"], ["-1", "3"]]
    path = tmp_path / "spaced.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    for sub, problem in (("plain", "example1"), ("spaced", str(path))):
        assert main(["solve", "--problem", problem, "--eps", "2^-4,2^-12",
                     "--out", str(tmp_path / sub)]) == 0
    for tag in ("0.0625", "0.000244140625"):
        name = f"example1_solve_eps{tag}.csv"
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "spaced" / name).read_bytes())


def write_not_finite_config(tmp_path):
    config = dict(BUILTIN_PROBLEMS["example1"].to_dict())
    config["forcing"] = ["1/x", "2"]
    path = tmp_path / "not_finite.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["solve", "plotdata", "convergence"])
def test_not_finite_probe_raises_no_numpy_warning(tmp_path, capsys, command):
    problem = write_not_finite_config(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--problem", problem, "--eps", "0.01", "--n", "16,32",
                     "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["fresh", "existing"])
@pytest.mark.parametrize(
    "argv",
    [
        ["convergence", "--problem", "example1", "--n", "64"],
        ["solve", "--problem", "NOT_FINITE"],
        ["plotdata", "--problem", "NOT_FINITE"],
        ["convergence", "--problem", "NOT_FINITE", "--n", "16,32"],
    ],
    ids=["convergence-one-n", "solve-not-finite", "plotdata-not-finite",
         "convergence-not-finite"],
)
def test_config_error_leaves_out_untouched(tmp_path, capsys, argv, out):
    argv = [write_not_finite_config(tmp_path) if a == "NOT_FINITE" else a for a in argv]
    out_dir = tmp_path / "out"
    if out == "existing":
        out_dir.mkdir()
        (out_dir / "keep.txt").write_text("kept", encoding="utf-8")
    assert main(argv + ["--eps", "0.01", "--out", str(out_dir)]) == 2
    assert "config error" in capsys.readouterr().err
    if out == "existing":
        assert [p.name for p in out_dir.iterdir()] == ["keep.txt"]
        assert (out_dir / "keep.txt").read_text(encoding="utf-8") == "kept"
    else:
        assert not out_dir.exists()

@pytest.mark.parametrize("case", ["problem-is-directory", "problem-not-utf8",
                                  "out-under-a-file"])
def test_unreadable_problem_or_unusable_out_exits_2(tmp_path, capsys, monkeypatch, case):
    problem, out = "example1", tmp_path / "out"
    if case == "problem-is-directory":
        problem = str(tmp_path)
    elif case == "problem-not-utf8":
        (tmp_path / "bad.json").write_bytes(b"\xff\xfe{")
        problem = str(tmp_path / "bad.json")
    else:
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = tmp_path / "file" / "sub"
    monkeypatch.setattr(cli, "hybrid_solve", mock.Mock(side_effect=AssertionError("solved")))
    assert main(["convergence", "--problem", problem, "--eps", "0.5",
                 "--n", "16,32", "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, squatted", [
    ("solve", "example1_solve_eps0.5.csv"),
    ("plotdata", "example1_plot_eps0.5.csv"),
    ("convergence", "example1_convergence_y1.csv"),
])
def test_output_file_that_cannot_be_written_exits_2(tmp_path, capsys, command, squatted):
    # a directory on the file's name, not permissions: root may write anywhere
    (tmp_path / squatted).mkdir()
    assert main([command, "--problem", "example1", "--eps", "0.5", "--n", "16,32",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scem-rd: config error: cannot write")
    assert squatted in err


def test_solver_failure_exits_3_and_names_eps(tmp_path, capsys):
    config = dict(BUILTIN_PROBLEMS["example1"].to_dict())
    config["name"] = "undominated"
    config["coeff"] = [["1", "-2"], ["-1", "3"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["solve", "--problem", str(path), "--eps", "0.25",
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "solver failure" in err
    assert "eps=0.25" in err


def test_scalar_config_runs_every_command(tmp_path):
    config = {"name": "scalar", "n": 1, "coeff": [["2"]], "forcing": ["1"],
              "diffusion": ["eps"], "bc_left": [0.0], "bc_right": [0.0]}
    problem = tmp_path / "scalar.json"
    problem.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    for command in (["solve"], ["plotdata", "--grid", "201"], ["convergence", "--n", "16,32"]):
        assert main([*command, "--problem", str(problem), "--eps", "1e-2,1e-8,1e-300",
                     "--out", str(out)]) == 0
    for eps in ("0.01", "1e-08", "1e-300"):
        header, rows = read_csv(out / f"scalar_error_eps{eps}.csv")
        assert header == ["x", "e_1"] and len(rows) == 201
        assert max(abs(float(row[1])) for row in rows) <= 1e-8


def test_fixed_mesh_failure_at_subnormal_eps_prints_one_line(tmp_path, capsys):
    # h^2 overflows in the fixed-mesh Jacobian; that must print no numpy warning
    assert main(["convergence", "--problem", "example1", "--eps", "1e-320", "--n", "4,8",
                 "--no-adapt", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("scem-rd: solver failure: eps=9.99989e-321 (N=4)")
    assert err.count("\n") == 1


def test_dump_config_round_trip(tmp_path, capsys):
    assert main(["solve", "--problem", "example2", "--dump-config"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "echo.json"
    path.write_text(text, encoding="utf-8")
    assert load_problem(str(path)) == BUILTIN_PROBLEMS["example2"]
    # and the serialized form itself round-trips exactly
    assert dump_config(config_from_dict(json.loads(text))) == text


def test_convergence_table_layout_and_identity(tmp_path):
    code = main(["convergence", "--problem", "example1",
                 "--eps", "2^-1,2^-2", "--n", "16,32,64",
                 "--out", str(tmp_path), "--no-adapt"])
    assert code == 0
    header, rows = read_csv(tmp_path / "example1_convergence_y1.csv")
    assert header == ["eps", "N=16", "N=32", "N=64"]
    labels = [r[0] for r in rows]
    assert labels == ["0.5", "0.25", "D^N", "p^N"]
    d_row = [float(v) for v in rows[-2][1:]]
    p_row = rows[-1][1:]
    # emitted orders match orders recomputed from the emitted D columns
    for i in range(len(d_row) - 1):
        if d_row[i] > 1e-15 and d_row[i + 1] > 1e-15:
            assert float(p_row[i]) == pytest.approx(
                math.log2(d_row[i] / d_row[i + 1]), abs=1e-12
            )
    # per-eps cells never exceed the D^N row and the max is attained
    eps_rows = np.array([[float(v) for v in r[1:]] for r in rows[:2]])
    np.testing.assert_allclose(np.max(eps_rows, axis=0), d_row, rtol=0, atol=0)


def test_convergence_zero_problem_reports_undefined_orders(tmp_path):
    config = dict(BUILTIN_PROBLEMS["example1"].to_dict())
    config["name"] = "quiet"
    config["forcing"] = ["0", "0"]
    path = tmp_path / "quiet.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["convergence", "--problem", str(path), "--eps", "0.5",
                 "--n", "16,32", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "quiet_convergence_y1.csv")
    assert all(float(v) <= 1e-15 for v in rows[-2][1:])  # solver noise only
    assert rows[-1][1:] == ["undefined", "undefined"]


def test_convergence_needs_two_n_values(tmp_path):
    assert main(["convergence", "--problem", "example1", "--eps", "0.5",
                 "--n", "64", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--eps", "0.5", "--n", "0"],
        ["convergence", "--eps", "0.5", "--n", "0,0"],
        ["convergence", "--eps", "0.5", "--n=-4,-8"],
        ["solve", "--eps", "nan"],
        ["solve", "--eps", "inf"],
        ["convergence", "--eps", "0.5,nan", "--n", "16,32"],
        ["plotdata", "--eps", "inf"],
        ["solve", "--eps", "2^10000"],
        ["solve", "--eps=-2^0.5"],
        ["solve", "--eps", "0^-1"],
        ["solve", "--eps=-2^-2"],
        ["solve", "--eps=-2**-2"],
        ["solve", "--eps", "1^nan"],
        ["solve", "--eps", "1**nan"],
        ["solve", "--eps", "nan^0"],
        ["solve", "--eps", "inf^0"],
        ["solve", "--eps", "1^inf"],
    ],
    ids=["solve-n0", "convergence-n0", "convergence-negative-n", "solve-eps-nan",
         "solve-eps-inf", "convergence-eps-nan", "plotdata-eps-inf",
         "solve-eps-overflow", "solve-eps-complex", "solve-eps-zero-division",
         "solve-eps-signed-power", "solve-eps-signed-python-power", "solve-eps-one-nan-power",
         "solve-eps-one-nan-python-power", "solve-eps-nan-base", "solve-eps-inf-base",
         "solve-eps-inf-power"],
)
def test_bad_numeric_input_is_a_config_error(tmp_path, capsys, argv):
    argv = argv[:1] + ["--problem", "example1", "--out", str(tmp_path)] + argv[1:]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


def test_convergence_rejects_nondoubling_chain(tmp_path):
    assert main(["convergence", "--problem", "example1", "--eps", "0.5",
                 "--n", "16,48", "--out", str(tmp_path)]) == 2


def test_plotdata_files_and_plateaus(tmp_path):
    code = main(["plotdata", "--problem", "example1", "--eps", "1,0.01,0.0001",
                 "--grid", "2001", "--out", str(tmp_path)])
    assert code == 0
    for tag in ("1", "0.01", "0.0001"):
        assert (tmp_path / f"example1_plot_eps{tag}.csv").exists()
        assert (tmp_path / f"example1_error_eps{tag}.csv").exists()
    header, rows = read_csv(tmp_path / "example1_plot_eps0.0001.csv")
    xs = np.array([float(r[0]) for r in rows])
    y1 = np.array([float(r[1]) for r in rows])
    y2 = np.array([float(r[2]) for r in rows])
    interior = (xs > 0.2) & (xs < 0.8)
    assert np.max(np.abs(y1[interior] - 0.7)) <= 1e-6
    assert np.max(np.abs(y2[interior] - 0.9)) <= 1e-6
    # boundary rows are exact zeros in every emitted file
    assert rows[0][1:] == ["0.000000000000000"] * 2
    assert rows[-1][1:] == ["0.000000000000000"] * 2
    assert float(rows[-1][0]) == 1.0


@pytest.mark.parametrize("problem", ["example1", "example2"])
def test_zero_boundary_data_write_exact_zeros_at_every_paper_eps(problem, tmp_path):
    # full-image layers (2^-1..2^-9 adaptive, every eps on a fixed mesh)
    # meet both data exactly, as truncated ones meet theirs, so no boundary
    # cell reads -0.000000000000000
    eps = ",".join(f"2^-{k}" for k in range(1, 16))
    for adapt in ([], ["--no-adapt"]):
        out = tmp_path / "-".join(["run", *adapt])
        for command, *options in (["solve"], ["plotdata", "--grid", "101"]):
            assert main([command, "--problem", problem, "--eps", eps, *options, *adapt,
                         "--out", str(out)]) == 0
        for k in range(1, 16):
            for kind in ("solve", "plot"):
                header, rows = read_csv(out / f"{problem}_{kind}_eps{2.0**-k:.10g}.csv")
                zero = ["0.000000000000000"] * (len(header) - 1)
                assert (rows[0][1:], rows[-1][1:]) == (zero, zero), (adapt, kind, k)


@pytest.mark.parametrize("adapt", [[], ["--no-adapt"]], ids=["adaptive", "no-adapt"])
@pytest.mark.parametrize("problem", ["example1", "example2"])
def test_extreme_eps_exit_without_numpy_warnings(problem, adapt, tmp_path, capsys):
    # far outside the paper's range a solve succeeds or fails as a solver
    # failure (exit 3), never with an overflow warning on the way; an
    # adaptive solve ends at the roundoff floor where eps is far above 1,
    # and succeeds at every eps
    for eps in ("1e300", "1e20", "1e8", "1e-300", "5e-324"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve", "--problem", problem, "--eps", eps, *adapt,
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code in ((0,) if adapt == [] else (0, 3)), (eps, code, err)
        assert not caught and "Warning" not in err, (eps, code, err)


def test_boundary_datum_near_the_overflow_threshold_exits_without_numpy_warnings(
        tmp_path, capsys):
    # with 3e307 at x = 0 the roundoff floor's sum of end values and slopes
    # overflows: an infinite floor, which leaves the interval as it is, quietly
    config = dict(BUILTIN_PROBLEMS["example1"].to_dict(), name="huge", bc_left=[3e307, 0])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", "--problem", str(path), "--eps", "0.5,1e-3,1e-8",
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 0 and not caught and "Warning" not in err, (code, err)


@pytest.mark.parametrize("problem, eps", [
    ("example2", "1e8"), ("example2", "1e20"), ("example2", "1e300"), ("example1", "1e20"),
    ("example1", "1e300"),
])
def test_adaptive_solve_far_above_eps_1_ends_at_the_roundoff_floor(problem, eps, tmp_path):
    # the scaled residual of a stretched image of 1e-4 or shorter is rounding
    # noise that halving only raises, so the first pass is kept; before the
    # floor these ran out of mesh (exit 3). It agrees with the fixed mesh.
    tables = []
    for adapt in ([], ["--no-adapt"]):
        out = tmp_path / "-".join(["run", *adapt])
        assert main(["solve", "--problem", problem, "--eps", eps, *adapt,
                     "--out", str(out)]) == 0
        _, rows = read_csv(out / f"{problem}_solve_eps{float(eps):.10g}.csv")
        tables.append(np.array(rows, dtype=float))
    assert np.max(np.abs(tables[0] - tables[1])) <= 1e-13


def test_plotdata_eps1_has_no_layer(tmp_path):
    assert main(["plotdata", "--problem", "example1", "--eps", "1",
                 "--grid", "2001", "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "example1_plot_eps1.csv")
    data = np.array([[float(v) for v in r] for r in rows])
    slopes = np.abs(np.diff(data[:, 1:], axis=0) / np.diff(data[:, 0])[:, None])
    assert np.max(slopes) <= 2.0


def test_plotdata_no_oracle_for_nonconstant_forcing(tmp_path):
    assert main(["plotdata", "--problem", "example2", "--eps", "0.01",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "example2_plot_eps0.01.csv").exists()
    assert not (tmp_path / "example2_error_eps0.01.csv").exists()


def test_plotdata_no_oracle_for_coefficient_that_vanishes_on_a_coarse_probe(tmp_path):
    # A11 = 4 at x = 0, 0.1, ..., 1 but spans [3.58, 4.42] between them: an
    # x-dependent entry is never taken for a constant one
    nodes = "*".join(f"(x-{k / 10})" for k in range(11))
    coeff = [["4 + 100000*" + nodes, "-2"], ["-1", "3"]]
    config = dict(BUILTIN_PROBLEMS["example1"].to_dict(), name="wiggle", coeff=coeff)
    path = tmp_path / "wiggle.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["plotdata", "--problem", str(path), "--eps", "0.01", "--grid", "201",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "wiggle_plot_eps0.01.csv").exists()
    assert not (tmp_path / "wiggle_error_eps0.01.csv").exists()


def test_plotdata_no_oracle_for_complex_spectrum(tmp_path):
    # strictly dominant with non-positive off-diagonals, so the solve is
    # valid, but A's eigenvalues are complex and the closed form does not apply
    config = {
        "name": "rotor", "n": 3,
        "coeff": [["2", "-1", "0"], ["0", "2", "-1"], ["-1", "0", "2"]],
        "forcing": ["1", "1", "1"], "diffusion": ["eps"] * 3,
        "bc_left": [0.0] * 3, "bc_right": [0.0] * 3,
    }
    path = tmp_path / "rotor.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["plotdata", "--problem", str(path), "--eps", "0.01",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "rotor_plot_eps0.01.csv").exists()
    assert not (tmp_path / "rotor_error_eps0.01.csv").exists()


def test_plotdata_no_oracle_for_numeric_diffusion(tmp_path):
    # diffusion values that ignore --eps: an oracle at the CLI's eps would
    # describe another system, so no error file is written
    config = dict(BUILTIN_PROBLEMS["example1"].to_dict(), name="fixed", diffusion=[0.5, 0.5])
    path = tmp_path / "fixed.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["plotdata", "--problem", str(path), "--eps", "0.01",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fixed_plot_eps0.01.csv").exists()
    assert not (tmp_path / "fixed_error_eps0.01.csv").exists()


_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e16, -3e17, 1e300,
                     math.nan, math.inf, -math.inf]),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.sampled_from([2, 3]), cell=st.sampled_from(["f", "e"]))
def test_table_writer_matches_csv_writer(tmp_path, data, n, cell):
    rows = data.draw(st.lists(st.lists(_CELLS, min_size=n + 1, max_size=n + 1),
                              min_size=1, max_size=20))
    xs = [row[0] for row in rows]
    values = np.array([row[1:] for row in rows])
    header = ["x"] + [f"y_{i + 1}" for i in range(n)]
    # the reference: csv.writer over per-element f-strings
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([[f"{x:.15f}"] + [format(v, f".15{cell}") for v in row]
                      for x, row in zip(xs, values)])
    path = tmp_path / "table.csv"
    _write_table(path, np.array(xs), values, f"%.15{cell}")
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


def _write_table(path, xs, values, cell):
    """Write a table as solve and plotdata do: the header x,y_1..y_n, then
    the rows of ``numformat.format_table`` on x cells from ``format_column``."""
    with contextlib.ExitStack() as files:
        fh = cli._open_table(files, path, "y", values.shape[1])
        fh.write(numformat.format_table(numformat.format_column(xs, "%.15f"), values, cell))


def _percent_table(header, xstr, values, cell):
    """The reference rendering: every cell through ``%`` on its own."""
    lines = [",".join(header)]
    lines += [",".join([x] + [cell % v for v in row]) for x, row in zip(xstr, values.tolist())]
    return ("\n".join(lines) + "\n").encode()


_TINY = 2.2250738585072014e-308  # smallest normal double
_F_EDGE = 2.0 ** 63 / 1e15  # where |v| 10^15 leaves the int64 range of %.15f
_EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
          np.nextafter(_TINY, 0.0), _TINY, -_TINY, np.nextafter(_TINY, 1.0),
          np.nextafter(_F_EDGE, 0.0), _F_EDGE, np.nextafter(_F_EDGE, math.inf),
          2.0 ** 63, np.nextafter(2.0 ** 63, 0.0), 1.7976931348623157e308, 0.5, 2.5]


def _ten_neighbours(rng, size):
    """Powers of ten 10^-307..10^308 moved by up to 3 ulps, either sign."""
    v = np.array([float(f"1e{k}") for k in rng.integers(-307, 309, size)])
    for _ in range(3):
        step = rng.integers(-1, 2, size)
        v = np.where(step < 0, np.nextafter(v, 0.0), np.where(step > 0, np.nextafter(v, math.inf), v))
    return v * rng.choice([-1.0, 1.0], size)


def _formatter_values(rng, size):
    """A dense mix of the hard cases of exact rounding, in random order."""
    pools = [
        # k/2^16 for odd k: ties of %.15f, and of %.15e from 1 to 256
        rng.integers(-2 ** 24, 2 ** 24, size) / 65536.0,
        _ten_neighbours(rng, size),
        # every binade, subnormals included
        np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(-1074, 1025, size)),
        # solution- and error-like magnitudes
        rng.uniform(-10.0, 10.0, size) * 10.0 ** rng.uniform(-17.0, 1.0, size),
        rng.choice(np.array(_EDGES), size),
    ]
    return np.choose(rng.integers(0, len(pools), size), pools)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(200, 3000),
       n=st.sampled_from([2, 3]), cell=st.sampled_from(["%.15f", "%.15e"]),
       chunk=st.sampled_from([64, 1000, 4096]),
       extra=st.lists(st.one_of(st.floats(), st.sampled_from(_EDGES)), max_size=40))
def test_formatter_matches_percent_on_dense_arrays(tmp_path, seed, rows, n, cell, chunk, extra):
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        values = _formatter_values(rng, rows * n)
    values[rng.integers(0, values.size, len(extra))] = extra
    values = values.reshape(rows, n)
    xs = np.linspace(0.0, 1.0, rows)
    xstr = ["%.15f" % x for x in xs]
    header = ["x"] + [f"y_{i + 1}" for i in range(n)]
    path = tmp_path / "table.csv"
    with mock.patch.object(numformat, "CHUNK_ROWS", chunk):
        _write_table(path, xs, values, cell)
    got = path.read_bytes().split(b"\n")
    want = _percent_table(header, xstr, values, cell).split(b"\n")
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"row {i}: {values[i - 1].tolist()!r} in {cell}: {g!r} != {w!r}"


def _ulp_neighbours(v, reach=3):
    """Each of the values ``v`` and its neighbours up to ``reach`` ulps away."""
    out = [v]
    up = down = v
    for _ in range(reach):
        up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
        out += [up, down]
    return np.concatenate(out)


def _binade_values(scaled, count):
    """``count`` values spread over the binade holding each of ``scaled``,
    and the values within 3 ulps of it."""
    scaled = np.asarray(scaled, dtype=float)
    low = np.ldexp(1.0, np.frexp(scaled)[1] - 1)
    spread = 1.0 + np.arange(count) / count + 0.5 ** 40  # not only short binary fractions
    return np.concatenate([(low[:, None] * spread).ravel(), _ulp_neighbours(scaled)])


#: doubles within 2^-54 of a half at the 15th decimal place, either side
#: (m 2^-(g+15) for the m < 2^53 with m 5^15 = 2^(g-1) + j modulo 2^g, 0 < |j|
#: < 2^(g-54)): too near a half for the fast path, which leaves them to ``%``
_NEAR_TIES_F = [5.786485e-10, 3.0259465e-09, 4.1832435e-09, 3.30200035e-08,
                4.97529775e-08, 3.641119275e-07, 1.8865996445e-06]
#: a tie of %.15e whose power of ten (10^23) is not a double, and a value
#: within 2^-54 of a half of %.15e, whose power of ten is 10^27
_NEAR_TIES_E = [2.0 ** -24, 1.7897934635586405e-12]


def _regression_values(family, cell):
    """Deterministic hard cases of exact rounding, one family at a time."""
    if family == "binades":
        # %.15f rounds |v| 10^15, which crosses 2^52 (its last fraction bit),
        # 2^53 (the two-product error reaches 1) and 2^63 (the int64 limit);
        # %.15e rounds a 16-digit value, which crosses 2^52 and 2^53 in every decade
        if cell == "%.15f":
            return _binade_values([2.0 ** 52 / 1e15, 2.0 ** 53 / 1e15, 2.0 ** 63 / 1e15], 2048)
        decades = 10.0 ** np.arange(-307, 294, 7)
        return _binade_values(np.concatenate([2.0 ** 52 / 1e15 * decades,
                                              2.0 ** 53 / 1e15 * decades]), 64)
    if family == "ties":
        # k/2^16 for odd k ends in a 5 at the 16th place: a tie of %.15f; all
        # of them below 1/4, and a stride of them up to 9000
        odd = np.concatenate([np.arange(1, 2 ** 14, 2),
                              np.arange(1, 9000 * 2 ** 16, 2 * 14741)])
        # k/2^(17-d) for odd k in [10^(d-1), 10^d) has 17 significant digits,
        # the last a 5: a tie of %.15e
        ties_e = []
        for d in range(-2, 6):
            scale = 2.0 ** (17 - d)
            lo, hi = math.ceil(10.0 ** (d - 1) * scale), math.ceil(10.0 ** d * scale)
            ties_e.append(np.arange(lo | 1, hi, 2 * max(1, (hi - lo) // 3000)) / scale)
        for v in _NEAR_TIES_F:
            fraction = Fraction(v) * 10 ** 15 % 1
            assert 0 < abs(fraction - Fraction(1, 2)) < Fraction(1, 2 ** 54)
        return np.concatenate([odd / 65536.0, *ties_e, _NEAR_TIES_F, _NEAR_TIES_E])
    if family == "powers_of_ten":
        return _ulp_neighbours(np.array([float(f"1e{k}") for k in range(-307, 309)]))
    assert family == "zeros_and_subnormals"
    tiny = 2.2250738585072014e-308  # smallest normal double
    sub = np.ldexp(np.arange(1.0, 2001.0), -1074)
    return np.concatenate([[0.0, tiny], _ulp_neighbours(np.array([tiny])), sub,
                           np.nextafter(tiny, 0.0) - sub, sub * 2.0 ** 40])


@pytest.mark.parametrize("family", ["binades", "ties", "powers_of_ten", "zeros_and_subnormals"])
@pytest.mark.parametrize("cell", ["%.15f", "%.15e"])
def test_formatter_matches_percent_on_rounding_edges(family, cell):
    """Both signs of every value, in tables (x cells from format_column) and
    in one column, compared with ``%`` row by row."""
    values = _regression_values(family, cell)
    values = np.concatenate([values, -values])
    got = numformat.format_column(values, cell)
    got = [row[row != 0].tobytes() for row in got]
    want = [(cell % v).encode() for v in values.tolist()]
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, (f"{len(bad)} cells, first {values[bad[0]]!r}: "
                     f"{got[bad[0]]!r} != {want[bad[0]]!r}")
    xs = np.linspace(0.0, 1.0, values.size)
    table = np.stack([values, values[::-1]], axis=1)
    got = numformat.format_table(numformat.format_column(xs, "%.15f"), table, cell).split(b"\n")
    want = [(f"%.15f,{cell},{cell}" % (x, *row)).encode()
            for x, row in zip(xs.tolist(), table.tolist())] + [b""]
    assert len(got) == len(want)
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, f"{len(bad)} rows, first {bad[0]}: {got[bad[0]]!r} != {want[bad[0]]!r}"


def _three_digit_exponents():
    """Values whose ``%.15e`` has a three-digit exponent, neighbours of
    1e-99 and 1e100 included."""
    below, above = [1e-99], [1e100]
    for _ in range(3):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], math.inf))
    values = [1e-100, 1e-150, 1e150, 1e300, *below[1:], *above]
    assert all(abs(int(("%.15e" % v).split("e")[1])) >= 100 for v in values)
    return values


@pytest.mark.parametrize("cell, values", [
    ("%.15f", _NEAR_TIES_F + [k / 65536.0 for k in (1, 3, 4097, 65535, 2 ** 20 + 7)]),
    ("%.15e", _NEAR_TIES_E + _three_digit_exponents()),
])
def test_near_halves_and_three_digit_exponents_are_left_to_percent(cell, values, monkeypatch):
    values = np.array(values + [-v for v in values])
    formatted = []

    def counting_percent_cells(v, places, kind):
        formatted.extend(v.tolist())
        return percent_cells(v, places, kind)

    monkeypatch.setattr(numformat, "percent_cells", counting_percent_cells)
    got = numformat.format_column(values, cell)
    assert formatted == values.tolist()
    assert [row[row != 0].tobytes() for row in got] == [(cell % v).encode() for v in values.tolist()]
    formatted.clear()
    xs = np.linspace(0.0, 1.0, values.size)
    got = numformat.format_table(numformat.format_column(xs, "%.15f"), values[:, None], cell)
    assert formatted == values.tolist()
    assert got == b"".join((f"%.15f,{cell}\n" % (x, v)).encode()
                           for x, v in zip(xs.tolist(), values.tolist()))


@pytest.mark.parametrize("example", ["example1", "example2"])
def test_plotdata_files_equal_percent_rendering_without_fallback(tmp_path, monkeypatch, example):
    evaluated = []  # eval_many results of the run, in call order
    eval_many = HybridApproximation.eval_many

    def recording_eval_many(self, xs, outer_values=None):
        out = eval_many(self, xs, outer_values)
        evaluated.append(out)
        return out

    fallback_values = []

    def counting_percent_cells(v, places, kind):
        fallback_values.extend(v.tolist())
        return percent_cells(v, places, kind)

    monkeypatch.setattr(HybridApproximation, "eval_many", recording_eval_many)
    monkeypatch.setattr(numformat, "percent_cells", counting_percent_cells)
    eps_tokens = ["2^-1", "2^-8", "2^-15"]
    assert main(["plotdata", "--problem", example, "--eps", ",".join(eps_tokens),
                 "--grid", "2001", "--out", str(tmp_path)]) == 0
    xs = np.linspace(0.0, 1.0, 2001)
    xstr = ["%.15f" % x for x in xs]
    # example2's forcing is linear in x, so it has no oracle and no error files
    oracle_data = cli._constant_system_data(BUILTIN_PROBLEMS[example])
    assert (oracle_data is None) == (example == "example2")
    assert len(evaluated) == len(eps_tokens)
    for token, values in zip(eps_tokens, evaluated):
        eps = parse_eps_list(token)[0]
        tag = format(eps, ".10g")
        columns = range(1, values.shape[1] + 1)
        assert (tmp_path / f"{example}_plot_eps{tag}.csv").read_bytes() == \
            _percent_table(["x", *(f"y_{i}" for i in columns)], xstr, values, "%.15f")
        error_file = tmp_path / f"{example}_error_eps{tag}.csv"
        if oracle_data is None:
            assert not error_file.exists()
            continue
        err = np.abs(values - exact_constant_system(*oracle_data, eps)(xs))
        assert error_file.read_bytes() == \
            _percent_table(["x", *(f"e_{i}" for i in columns)], xstr, err, "%.15e")
    assert fallback_values == []


def test_plotdata_goes_through_the_grid_one_row_block_at_a_time(tmp_path, monkeypatch):
    block = numformat.CHUNK_ROWS
    assert cli.CHUNK_ROWS == block  # one row block for the writer and the formatter
    evaluated = []  # eval_many results of the run, in call order
    outer_used = []  # the outer values each eval_many call was given
    eval_many = HybridApproximation.eval_many

    def recording_eval_many(self, xs, outer_values=None):
        out = eval_many(self, xs, outer_values)
        evaluated.append(out)
        outer_used.append(outer_values)
        return out

    outer_sizes = []  # point counts of every OuterSolution.eval_many call
    outer_eval_many = OuterSolution.eval_many

    def counting_outer_eval_many(self, xs):
        outer_sizes.append(np.asarray(xs).size)
        return outer_eval_many(self, xs)

    formatted = []  # (x cells, value rows) of every format_table call
    format_table = numformat.format_table

    def counting_format_table(xcol, values, cell):
        formatted.append((len(xcol), len(values)))
        return format_table(xcol, values, cell)

    monkeypatch.setattr(HybridApproximation, "eval_many", recording_eval_many)
    monkeypatch.setattr(OuterSolution, "eval_many", counting_outer_eval_many)
    monkeypatch.setattr(cli, "format_table", counting_format_table)
    grid = 2 * block + 3
    eps_tokens = ["2^-1", "2^-15"]  # a full-image and a truncated solve
    assert main(["plotdata", "--problem", "example1", "--eps", ",".join(eps_tokens),
                 "--grid", str(grid), "--out", str(tmp_path)]) == 0
    # per eps: three blocks, each evaluated once and formatted for both files
    assert [len(values) for values in evaluated] == [block, block, 3] * len(eps_tokens)
    assert formatted == [(m, m) for m in (block, block, block, block, 3, 3)] * len(eps_tokens)
    # the outer values are filled in blocks too, once per run, and equal one
    # evaluation on the whole grid bit for bit
    assert sorted(size for size in outer_sizes if size != 2) == [3, block, block]
    xs = np.linspace(0.0, 1.0, grid)
    whole = outer_eval_many(OuterSolution(BUILTIN_PROBLEMS["example1"].build_system(0.5)), xs)
    for k in range(len(eps_tokens)):
        assert np.concatenate(outer_used[3 * k:3 * k + 3]).tobytes() == whole.tobytes()
    xstr = ["%.15f" % x for x in xs]
    A, f = cli._constant_system_data(BUILTIN_PROBLEMS["example1"])
    for k, token in enumerate(eps_tokens):
        values = np.concatenate(evaluated[3 * k:3 * k + 3])
        eps = parse_eps_list(token)[0]
        tag = format(eps, ".10g")
        err = np.abs(values - exact_constant_system(A, f, eps)(xs))
        assert (tmp_path / f"example1_plot_eps{tag}.csv").read_bytes() == \
            _percent_table(["x", "y_1", "y_2"], xstr, values, "%.15f")
        assert (tmp_path / f"example1_error_eps{tag}.csv").read_bytes() == \
            _percent_table(["x", "e_1", "e_2"], xstr, err, "%.15e")


def test_blockwise_outer_values_equal_one_whole_grid_evaluation(tmp_path, monkeypatch):
    # variable A and f, so every block's coefficient sampling and solves differ
    config = dict(BUILTIN_PROBLEMS["example1"].to_dict(), name="varcoef",
                  coeff=[["2+x", "-1"], ["-1", "3-x*x"]], forcing=["1+x", "1/(1+x)"])
    path = tmp_path / "varcoef.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    block = numformat.CHUNK_ROWS
    outer_sizes = []  # point counts of every OuterSolution.eval_many call
    outer_used = []  # the outer values each composite block was given
    evaluated = []  # the composite values of each block
    outer_eval_many = OuterSolution.eval_many
    eval_many = HybridApproximation.eval_many

    def counting_outer_eval_many(self, xs):
        outer_sizes.append(np.asarray(xs).size)
        return outer_eval_many(self, xs)

    def recording_eval_many(self, xs, outer_values=None):
        outer_used.append(outer_values)
        evaluated.append(eval_many(self, xs, outer_values))
        return evaluated[-1]

    monkeypatch.setattr(OuterSolution, "eval_many", counting_outer_eval_many)
    monkeypatch.setattr(HybridApproximation, "eval_many", recording_eval_many)
    grid = 2 * block + 3
    assert main(["plotdata", "--problem", str(path), "--eps", "2^-4", "--grid", str(grid),
                 "--out", str(tmp_path / "out")]) == 0
    assert max(outer_sizes) <= block
    xs = np.linspace(0.0, 1.0, grid)
    whole = outer_eval_many(OuterSolution(load_problem(str(path)).build_system(0.5)), xs)
    assert np.concatenate(outer_used).tobytes() == whole.tobytes()
    xstr = ["%.15f" % x for x in xs]
    assert (tmp_path / "out" / "varcoef_plot_eps0.0625.csv").read_bytes() == \
        _percent_table(["x", "y_1", "y_2"], xstr, np.concatenate(evaluated), "%.15f")


def test_cli_commands_leave_superlu_unloaded(tmp_path):
    # every command factors by band LU from numpy's LAPACK and never calls
    # splu, so no run loads scipy; the Gauss table is a literal, so none
    # loads numpy.polynomial. A coupled boundary condition is rejected
    # before it is factored, and loads nothing either.
    script = """
import sys
import numpy as np
import pytest
from scem_rd import collocation
from scem_rd.cli import main

def no_splu(J):
    raise AssertionError("splu called")

collocation.splu = no_splu
out = sys.argv[1]
for argv in (["convergence", "--n", "16,32", "--no-adapt"], ["convergence", "--n", "16,32"],
             ["solve", "--n", "64"], ["plotdata", "--grid", "101"]):
    assert main([argv[0], "--problem", "example1", "--eps", "2^-1,2^-15", *argv[1:],
                 "--out", out]) == 0
assert "scipy" not in sys.modules
assert "numpy.polynomial" not in sys.modules
bvp = collocation.FirstOrderBvp(
    dim=2, rhs=lambda t, U: np.stack([U[:, 1], 0.0 * U[:, 1]], axis=1),
    bc=lambda ua, ub: np.array([ua[0], ub[0] + ua[0] - 1.0]), interval=(0.0, 1.0))
with pytest.raises(ValueError, match="row 1 depends on both"):
    collocation.solve(bvp, collocation.SolverConfig(initial_mesh_points=5))
assert "scipy" not in sys.modules
"""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


#: x cells on both sides of 0 and 1, ties of %.15f, and values that only
#: ``%`` formats (non-finite, subnormal, beyond the int64 range of %.15f)
_X_EDGES = [0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 0.5,
            5e-16, 1.5e-15, np.nextafter(5e-16, 1.0), 2.0 ** -50, 3 * 2.0 ** -51,
            1e-15, 0.999999999999999, 0.9999999999999995, -1.0, 12345.678, *_EDGES]


@pytest.mark.parametrize("cell", ["%d", "%.15g", "%.0f", "%.18e", "%15f", "%.14f"])
def test_unsupported_cell_format_is_rejected(cell):
    with pytest.raises(ValueError, match="unsupported cell format"):
        numformat.format_column(np.array([0.5]), cell)


@pytest.mark.parametrize("xs", [
    np.linspace(0.0, 1.0, 2001),
    np.linspace(0.0, 1.0, 20001),
    np.array(PAPER_GRID),
    np.array(_X_EDGES),
    np.concatenate([np.linspace(0.0, 1.0, 5000), _X_EDGES]),  # wider cells in one block
    np.array([]),
], ids=["2001", "20001", "paper", "edges", "blocks", "empty"])
@pytest.mark.parametrize("cell", ["%.15f", "%.15e"])
def test_x_column_matches_percent(xs, cell):
    got = numformat.format_column(xs, cell)
    assert got.dtype == np.uint8 and got.shape[0] == xs.size
    assert [row[row != 0].tobytes() for row in got] == [(cell % x).encode() for x in xs.tolist()]
    if xs.size == 2001 and cell == "%.15f":
        assert got.shape[1] == 17  # no column that is a pad in every row
    # the matrix is the x column of a table; no rows give no bytes
    table = numformat.format_table(got, np.stack([xs, -xs], axis=1), cell)
    assert table == "".join(f"{cell},{cell},{cell}\n" % (x, x, -x) for x in xs.tolist()).encode()


@pytest.mark.parametrize("command", ["plotdata", "solve", "convergence"])
def test_outer_solution_is_evaluated_on_the_grid_once_per_run(tmp_path, monkeypatch, command):
    # equal numbers give equal fields, so start from an empty report memo
    monkeypatch.setattr(scem_rd.scem, "_reports", {})
    path = tmp_path / "example1.json"
    path.write_text(dump_config(BUILTIN_PROBLEMS["example1"]), encoding="utf-8")
    grid_sizes = []  # point counts of every OuterSolution.eval_many call
    checked = []  # systems passed to the assumption check
    eval_many = OuterSolution.eval_many
    validate = scem_rd.scem.validate_assumptions

    def counting_eval_many(self, xs):
        grid_sizes.append(np.asarray(xs).size)
        return eval_many(self, xs)

    def counting_validate(sys):
        checked.append(sys)
        return validate(sys)

    monkeypatch.setattr(OuterSolution, "eval_many", counting_eval_many)
    monkeypatch.setattr(scem_rd.scem, "validate_assumptions", counting_validate)
    grid_args, grids = {
        "plotdata": (["--grid", "2001"], [2001]),
        "solve": (["--grid", "2001"], [2001]),
        # the sweep also solves at 2 and 4 times the largest N
        "convergence": (["--n", "16,32"], [17, 33, 65, 129]),
    }[command]
    assert main([command, "--problem", str(path), "--eps", "2^-1,2^-8,2^-15",
                 *grid_args, "--out", str(tmp_path / "out")]) == 0
    # each layer problem queries both ends in one call; each grid, once
    assert sorted(size for size in grid_sizes if size != 2) == grids
    assert 2 in grid_sizes
    assert len(checked) == 1


def test_jobs_accepts_only_one(tmp_path):
    # --jobs stays for existing command lines: 1 changes no output byte
    for name, extra in (("plain", []), ("jobs1", ["--jobs", "1"])):
        assert main(["convergence", "--problem", "example2", "--eps", "2^-1,2^-8,2^-15",
                     "--n", "16,32", "--no-adapt", *extra,
                     "--out", str(tmp_path / name)]) == 0
    names = sorted(path.name for path in (tmp_path / "plain").iterdir())
    assert names == [f"example2_convergence_y{i}.csv" for i in (1, 2, 3)]
    assert sorted(path.name for path in (tmp_path / "jobs1").iterdir()) == names
    for name in names:
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "jobs1" / name).read_bytes())
    # any other count is a usage error, raised before --out is created
    with pytest.raises(SystemExit) as exc_info:
        main(["convergence", "--problem", "example2", "--eps", "0.5", "--n", "16,32",
              "--jobs", "2", "--out", str(tmp_path / "jobs2")])
    assert exc_info.value.code == 2
    assert not (tmp_path / "jobs2").exists()


def test_convergence_cell_with_a_singular_outer_grid_point_fails(tmp_path, capsys):
    # A(x) = [[1, -g], [-g, 1]] with g = 1 only at x = 1/16: off the 1001-point
    # assumption grid, so the check passes, but on every grid of the sweep
    g = "-1/(1+1000*(x-0.0625)*(x-0.0625))"
    config = dict(BUILTIN_PROBLEMS["example1"].to_dict(), coeff=[["1", g], [g, "1"]])
    path = tmp_path / "near_singular.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["convergence", "--problem", str(path), "--eps", "0.5,0.25",
                 "--n", "16,32", "--no-adapt", "--out", str(tmp_path / "out")]) == 3
    assert "numerically singular near x=0.0625" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "plotdata"])
def test_singular_outer_grid_point_is_a_solver_failure(tmp_path, capsys, command):
    # the config of the convergence test above; x = 1/16 is a point of the
    # 17-point evaluation grid
    g = "-1/(1+1000*(x-0.0625)*(x-0.0625))"
    config = dict(BUILTIN_PROBLEMS["example1"].to_dict(), coeff=[["1", g], [g, "1"]])
    path = tmp_path / "near_singular.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, "--problem", str(path), "--eps", "0.5,0.25", "--grid", "17",
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "solver failure: eps=0.5: " in err
    assert "numerically singular near x=0.0625" in err
    # on 65537 points x = 1/16 is point 4096, the first of the second row block
    grid = 16 * numformat.CHUNK_ROWS + 1
    out = tmp_path / "out2"
    assert main([command, "--problem", str(path), "--eps", "0.5,0.25", "--grid", str(grid),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "solver failure: eps=0.5: " in err
    assert "numerically singular near x=0.0625" in err
    assert list(out.iterdir()) == []
    # the failed grid keeps no half-filled outer values: the next cell fails too
    cell = cli._cell_solver(RunManifest(problem=load_problem(str(path)), eps_list=(0.5, 0.25),
                                        n_list=(), output_dir=out, eval_grid=grid))
    for eps in (0.5, 0.25):
        with pytest.raises(cli.SolverFailure, match=f"eps={eps}: .*singular near x=0.0625"):
            cell(eps, np.linspace(0.0, 1.0, grid))


@pytest.mark.parametrize("n_eps", [1, 2])
def test_failing_sweep_names_its_first_cell_once(tmp_path, capsys, monkeypatch, n_eps):
    config = dict(BUILTIN_PROBLEMS["example1"].to_dict(), coeff=[["1", "-2"], ["-1", "3"]])
    path = tmp_path / "undominated.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    solve = mock.Mock(side_effect=cli.hybrid_solve)
    monkeypatch.setattr(cli, "hybrid_solve", solve)
    eps = ",".join(["0.5", "0.25"][:n_eps])
    assert main(["convergence", "--problem", str(path), "--eps", eps,
                 "--n", "16,32", "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "solver failure: eps=0.5 (N=16): structural assumptions fail" in err
    assert err.count("eps=") == 1
    # the first cell in sweep order fails, and no later cell is attempted
    assert solve.call_count == 1
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command, kinds", [("solve", ["solve"]), ("plotdata", ["plot", "error"])],
                         ids=["solve", "plotdata"])
def test_failing_eps_keeps_the_files_before_it(tmp_path, capsys, monkeypatch, command, kinds):
    real_solve = cli.hybrid_solve
    solved = []

    def solve(sys, cfg):
        solved.append(sys.diffusion[0])
        if sys.diffusion[0] == 0.25:
            raise AssumptionViolation("forced")
        return real_solve(sys, cfg)

    monkeypatch.setattr(cli, "hybrid_solve", solve)
    out = tmp_path / "out"
    assert main([command, "--problem", "example1", "--eps", "0.5,0.25,0.125",
                 "--grid", "17", "--out", str(out)]) == 3
    assert "solver failure: eps=0.25: forced" in capsys.readouterr().err
    assert solved == [0.5, 0.25]  # the third eps is never solved
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"example1_{kind}_eps0.5.csv" for kind in kinds)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["convergence", "--n", "16,32", "--grid", "2001"], "convergence takes no --grid"),
        (["solve", "--n", "100000"],
         "--n 100000: initial_mesh_points 100001 exceeds max_mesh_points 100000"),
        (["convergence", "--n", "16384,32768"],
         "--n 16384,32768: initial_mesh_points 131073 exceeds max_mesh_points 100000"),
    ],
    ids=["convergence-grid", "solve-mesh-budget", "convergence-mesh-budget"],
)
def test_run_options_are_checked_before_out_is_created(tmp_path, capsys, monkeypatch,
                                                        argv, message):
    # the mesh budget is checked on the arguments; no mesh is allocated
    monkeypatch.setattr(cli, "hybrid_solve", mock.Mock(side_effect=AssertionError("solved")))
    out = tmp_path / "out"
    assert main([argv[0], "--problem", "example1", "--eps", "0.5", *argv[1:],
                 "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


_EXAMPLE1 = BUILTIN_PROBLEMS["example1"].to_dict()
_RUN = ["--eps", "0.5", "--out", "OUT"]


@pytest.mark.parametrize("options, config, message", [
    (_RUN + ["--grid", "abc"], None, "bad grid 'abc': expected a count or 'paper'"),
    (_RUN + ["--grid", "1"], None, "grid count must be at least 2"),
    (["--out", "OUT"], None, "--eps is required"),
    (["--eps", "0.5"], None, "--out is required"),
    (["--eps", ",", "--out", "OUT"], None, "eps list must be nonempty"),
    (["--eps", "0.1,abc", "--out", "OUT"], None, "bad eps token 'abc'"),
    (_RUN + ["--n", "64,abc"], None, "bad N list '64,abc'"),
    (_RUN, dict(_EXAMPLE1, forcing=["1", None]),
     "expected an expression string or number, got None"),
    (_RUN, {k: v for k, v in _EXAMPLE1.items() if k != "bc_left"},
     "config is missing field 'bc_left'"),
    (_RUN, "{", "invalid JSON"),
    (_RUN, [], "config must be a JSON object"),
    (_RUN, dict(_EXAMPLE1, n=0), "n must be at least 1"),
    (_RUN, dict(_EXAMPLE1, coeff=[["4", "-2"], ["-1"]]),
     "coeff must be an n x n array of expressions"),
], ids=["grid-word", "grid-one", "no-eps", "no-out", "eps-empty", "eps-word", "n-word",
        "null-entry", "missing-field", "invalid-json", "not-an-object", "n-zero", "not-square"])
def test_bad_option_or_config_exits_2_and_creates_no_out(tmp_path, capsys, options, config,
                                                         message):
    problem = "example1"
    if config is not None:
        problem = tmp_path / "problem.json"
        problem.write_text(config if isinstance(config, str) else json.dumps(config),
                           encoding="utf-8")
    out = tmp_path / "out"
    options = [str(out) if a == "OUT" else a for a in options]
    assert main(["solve", "--problem", str(problem), *options]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scem-rd: config error: ") and message in err
    assert not out.exists()


def test_grid_paper_and_number_entries_are_the_default_and_string_forms(tmp_path):
    # --grid paper is solve's default grid, and a JSON number in coeff or
    # forcing is read as its repr, so both runs write example1's bytes
    path = tmp_path / "example1.json"
    path.write_text(json.dumps(dict(_EXAMPLE1, coeff=[[4, -2], [-1, 3.0]], forcing=[1, 2.0])),
                    encoding="utf-8")
    for command, strings_grid, numbers_grid, n_files in (
        ("solve", [], ["--grid", "paper"], 2),
        ("plotdata", ["--grid", "101"], ["--grid", "101"], 4),  # with error files
    ):
        strings, numbers = tmp_path / command / "strings", tmp_path / command / "numbers"
        assert main([command, "--problem", "example1", "--eps", "2^-1,2^-12", *strings_grid,
                     "--out", str(strings)]) == 0
        assert main([command, "--problem", str(path), "--eps", "2^-1,2^-12", *numbers_grid,
                     "--out", str(numbers)]) == 0
        names = sorted(p.name for p in strings.iterdir())
        assert len(names) == n_files and names == sorted(p.name for p in numbers.iterdir())
        for name in names:
            assert (strings / name).read_bytes() == (numbers / name).read_bytes()


@pytest.mark.parametrize("command", ["solve", "plotdata"])
@pytest.mark.parametrize("target, name", [(RunManifest, "grid"), (cli, "format_column")],
                         ids=["grid", "x-column"])
def test_grid_that_does_not_fit_in_memory_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                            command, target, name):
    # the patch raises what numpy raises for a grid of 1e11 points; the grid
    # itself is small, so nothing large is ever allocated
    monkeypatch.setattr(target, name, mock.Mock(side_effect=MemoryError("Unable to allocate")))
    monkeypatch.setattr(cli, "hybrid_solve", mock.Mock(side_effect=AssertionError("solved")))
    out = tmp_path / "out"
    assert main([command, "--problem", "example1", "--eps", "0.5", "--grid", "101",
                 "--out", str(out)]) == 2
    assert "config error: --grid 101: too many points (Unable to allocate)" in \
        capsys.readouterr().err
    assert not out.exists()


def test_convergence_compiles_each_expression_once(tmp_path, monkeypatch):
    # a config loaded from a file is a fresh object, so nothing is cached yet
    path = tmp_path / "ex1.json"
    path.write_text(dump_config(BUILTIN_PROBLEMS["example1"]), encoding="utf-8")
    compiled = []

    def counting_compile(text):
        compiled.append(text)
        return compile_expression(text)

    monkeypatch.setattr(scem_rd.config, "compile_expression", counting_compile)
    assert main(["convergence", "--problem", str(path), "--eps", "0.5,0.25",
                 "--n", "16,32,64", "--no-adapt", "--out", str(tmp_path / "out")]) == 0
    n = BUILTIN_PROBLEMS["example1"].n
    assert len(compiled) == n * n + n  # not once more per (eps, N) cell


@pytest.mark.parametrize("command", ["solve", "plotdata", "convergence"])
@pytest.mark.parametrize("eps", ["1e-4,1.00000000001e-4,0.01,0.01", "2^-2,0.25"],
                         ids=["tag-collision", "duplicate"])
def test_colliding_eps_tags_are_a_config_error(tmp_path, capsys, monkeypatch, command, eps):
    monkeypatch.setattr(cli, "hybrid_solve", mock.Mock(side_effect=AssertionError("solved")))
    out = tmp_path / "out"
    assert main([command, "--problem", "example1", "--eps", eps, "--n", "16,32",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "repeated" in err
    assert not out.exists()


def test_convergence_full_sweep_example1(tmp_path):
    # the full published sweep; trends only, the backend differs from the
    # original so digit-for-digit agreement is not expected
    eps = ",".join(f"2^-{k}" for k in range(1, 16))
    code = main(["convergence", "--problem", "example1", "--eps", eps,
                 "--n", "64,128,256,512,1024", "--out", str(tmp_path),
                 "--no-adapt"])
    assert code == 0
    _, rows = read_csv(tmp_path / "example1_convergence_y1.csv")
    d_row = [float(v) for v in rows[-2][1:]]
    p_row = [float(v) for v in rows[-1][1:]]
    assert all(a > b for a, b in zip(d_row, d_row[1:]))  # D^N falls with N
    assert 3.5 <= p_row[-2] <= 4.5
    assert 3.5 <= p_row[-1] <= 4.5


def test_convergence_full_sweep_example2(tmp_path):
    eps = ",".join(f"2^-{k}" for k in range(1, 16))
    code = main(["convergence", "--problem", "example2", "--eps", eps,
                 "--n", "64,128,256,512,1024", "--out", str(tmp_path),
                 "--no-adapt"])
    assert code == 0
    _, rows = read_csv(tmp_path / "example2_convergence_y3.csv")
    d_row = [float(v) for v in rows[-2][1:]]
    assert d_row[-3] > d_row[-2] > d_row[-1]  # last three column maxima fall


def test_eps_token_forms():
    assert parse_eps_list("2^-4,0.5,1e-3,2**-2") == (0.0625, 0.5, 0.001, 0.25)


def test_config_validation_errors():
    base = BUILTIN_PROBLEMS["example1"].to_dict()
    bad = dict(base)
    bad["diffusion"] = ["eps", "nu"]
    with pytest.raises(ValueError):
        config_from_dict(bad)
    bad = dict(base)
    bad["forcing"] = ["1"]
    with pytest.raises(ValueError):
        config_from_dict(bad)
    for field, value in (
        ("diffusion", ["eps", 1.0]),  # partially perturbed
        ("diffusion", ["eps", 0.5]),
        ("diffusion", [0.5, 0.25]),
        ("diffusion", [math.nan, math.nan]),
        ("diffusion", [math.inf, math.inf]),
        ("bc_left", [0.0, math.nan]),
        ("bc_right", [math.inf, 0.0]),
        ("bc_right", [0.0, -math.inf]),
        ("bc_left", [True, False]),  # JSON booleans and strings are not numbers
        ("diffusion", [True, True]),
        ("bc_right", ["1", "0"]),
        ("bc_left", [10 ** 400, 0]),  # a JSON integer beyond the double range
        ("n", 2.7),
        ("n", 2.0),
        ("n", "2"),
        ("name", ""),
        ("name", "../escape"),
        ("name", ".hidden"),
        ("name", "sub/dir"),
        ("name", "sub\\dir"),
        ("name", "nul\0byte"),
    ):
        bad = dict(base)
        bad[field] = value
        with pytest.raises(ConfigError):
            config_from_dict(bad)
    good = dict(base)
    good["diffusion"] = [0.5, 0.5]
    good["bc_left"] = [1, 0]  # JSON integers are numbers
    assert config_from_dict(good).diffusion == (0.5, 0.5)
    assert config_from_dict(good).bc_left == (1.0, 0.0)


@pytest.mark.parametrize("command", ["solve", "plotdata", "convergence"])
@pytest.mark.parametrize("second", [1.0, 0.5])
def test_unequal_diffusion_config_exits_2(tmp_path, capsys, command, second):
    config = dict(BUILTIN_PROBLEMS["example1"].to_dict())
    config["diffusion"] = ["eps", second]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main([command, "--problem", str(path), "--eps", "0.01", "--n", "16,32",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not any(tmp_path.glob("*.csv"))


_MALFORMED = {
    "diffusion": st.sampled_from(["eps", 1.0, 0.5, 0, -1, math.nan, math.inf]),
    "bc": st.sampled_from([0, 1, math.nan, math.inf, -math.inf]),
    "n": st.sampled_from([2, 2.7]),
    "forcing": st.sampled_from(["1", "1 +", DEEP_NEST, LONG_CHAIN]),
    "name": st.sampled_from(["drawn", "", ".", "../escape", "sub/dir", "sub\\dir", "a\0b"]),
}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_config_never_exits_1(tmp_path, data):
    def pair(key):
        return [data.draw(_MALFORMED[key]) for _ in range(2)]

    config = dict(BUILTIN_PROBLEMS["example1"].to_dict())
    config.update(name=data.draw(_MALFORMED["name"]), n=data.draw(_MALFORMED["n"]),
                  diffusion=pair("diffusion"),
                  bc_left=pair("bc"), bc_right=pair("bc"), forcing=pair("forcing"))
    path = tmp_path / "drawn.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["solve", "--problem", str(path), "--eps", "0.01", "--out",
                 str(tmp_path / "out"), "--n", "16", "--grid", "3"]) in (0, 2, 3)
    # nothing is written outside --out, whatever the name
    assert {p.name for p in tmp_path.iterdir()} <= {"drawn.json", "out"}


@pytest.mark.parametrize("name", ["../escape", "sub/dir"])
def test_name_that_is_not_a_plain_file_name_exits_2(tmp_path, capsys, name):
    config = dict(BUILTIN_PROBLEMS["example1"].to_dict(), name=name)
    path = tmp_path / "bad_name.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["solve", "--problem", str(path), "--eps", "0.1", "--out", str(out)]) == 2
    assert "config error: name must be a plain file name" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad_name.json"]
