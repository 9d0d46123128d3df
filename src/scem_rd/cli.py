"""Command-line front end: solve, convergence, and plot-data sweeps.

Examples:

    scem-rd solve --problem example1 --eps 1,0.01,1e-4 --out results/
    scem-rd convergence --problem example1 --eps 2^-1,2^-2,2^-3 \\
        --n 64,128,256,512,1024 --out results/ --jobs 4
    scem-rd plotdata --problem example2 --eps 1,0.01,0.0001 --grid 2001 --out figs/

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys as _sys
from pathlib import Path

import numpy as np

from .analysis import GridFunction, convergence_table, exact_constant_system, map_cells
from .collocation import CollocationError, SolverConfig
from .config import (
    PAPER_GRID,
    ConfigError,
    ProblemConfig,
    RunManifest,
    dump_config,
    load_problem,
    parse_eps_list,
    parse_n_list,
)
from .numformat import format_table
from .scem import AssumptionViolation, SingularReducedMatrix, hybrid_solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

_SOLVER_ERRORS = (CollocationError, AssumptionViolation, SingularReducedMatrix)


class SolverFailure(Exception):
    """Wraps a solver error with the sweep cell that produced it."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scem-rd",
        description="Hybrid asymptotic-numerical solver for singularly "
        "perturbed reaction-diffusion systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "write solution tables, one CSV per eps"),
        ("convergence", "write double-mesh difference and order tables"),
        ("plotdata", "write dense solution (and error) data for figures"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--problem", required=True,
                       help="builtin name (example1, example2) or JSON config path")
        p.add_argument("--eps", default=None,
                       help="comma-separated eps values; 2^-K forms allowed")
        p.add_argument("--n", default=None,
                       help="comma-separated mesh-interval counts (doubling chain "
                            "for convergence; the largest is used for solve/plotdata)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--jobs", type=int, default=1, help="worker pool size")
        p.add_argument("--grid", default=None,
                       help="evaluation grid: a point count or 'paper' "
                            "(default: paper for solve, 2001 for plotdata)")
        p.add_argument("--no-adapt", action="store_true",
                       help="disable residual-driven mesh refinement")
        p.add_argument("--dump-config", action="store_true",
                       help="print the resolved problem config as JSON and exit")
    return parser


def _parse_grid(text: str | None, default):
    if text is None:
        return default
    if text.strip().lower() == "paper":
        return PAPER_GRID
    try:
        count = int(text)
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: expected a count or 'paper'") from exc
    if count < 2:
        raise ConfigError("grid count must be at least 2")
    return count


def _build_manifest(args, default_grid) -> RunManifest:
    problem = load_problem(args.problem)
    if args.eps is None:
        raise ConfigError("--eps is required")
    if args.out is None:
        raise ConfigError("--out is required")
    eps_list = parse_eps_list(args.eps)
    n_list = parse_n_list(args.n) if args.n else ()
    manifest = RunManifest(
        problem=problem,
        eps_list=eps_list,
        n_list=n_list,
        output_dir=Path(args.out),
        eval_grid=_parse_grid(args.grid, default_grid),
        adaptive=not args.no_adapt,
        jobs=args.jobs,
    )
    tags = [_eps_tag(eps) for eps in eps_list]
    repeated = sorted({tag for tag in tags if tags.count(tag) > 1})
    if repeated:
        # solve and plotdata name their files by tag, so each must be unique
        raise ConfigError("eps values must differ in their first 10 significant "
                          f"digits (the file tag); repeated: {', '.join(repeated)}")
    if args.command == "convergence" and len(n_list) < 2:
        raise ConfigError("convergence needs an N list with at least 2 entries")
    # Compile once, before --out is created, so a bad expression is a config
    # error that leaves no directory behind (convergence_table would record
    # it as a failed cell, and so as a solver failure).
    problem.build_system(eps_list[0])
    try:
        manifest.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {args.out!r}: {exc}") from exc
    return manifest


def _solver_config(manifest: RunManifest) -> SolverConfig:
    if manifest.n_list:
        points = manifest.n_list[-1] + 1
    else:
        points = 1000
    return SolverConfig(initial_mesh_points=points, adaptive=manifest.adaptive)


def _solve_cell(problem: ProblemConfig, eps: float, cfg: SolverConfig):
    try:
        return hybrid_solve(problem.build_system(eps), cfg)
    except _SOLVER_ERRORS as exc:
        raise SolverFailure(f"eps={eps:g}: {exc}") from exc


def _eps_tag(eps: float) -> str:
    return format(eps, ".10g")


def _write_csv(path: Path, header: list[str], lines) -> None:
    """Write ``header`` and the already formatted ``lines`` (each ending in a
    newline). Cells are numbers or plain words, so none needs CSV quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n" + "".join(lines))


def _write_table(path: Path, header: list[str], xstr, values: np.ndarray,
                 cell: str) -> None:
    """One line per grid point: its preformatted ``xstr`` cell (a list of
    str or a numpy ``S`` array), then its ``values`` row with each cell in
    the %-format ``cell`` (``%.<p>f`` or ``%.<p>e``). The file is
    byte-identical to ``%`` formatting: ``numformat.format_table`` rounds
    each value exactly and formats only the cells it certifies; a row with
    any other cell goes through ``%``. Rows are written in chunks."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for chunk in format_table(np.asarray(xstr, dtype="S"), values, cell):
            fh.write(chunk)


def _write_solutions(manifest: RunManifest, kind: str, oracle_data=None) -> int:
    """Per eps, write rows x,y_1..y_n (``%.15f``) at the evaluation grid to
    ``<problem>_<kind>_eps<eps>.csv``; with ``oracle_data`` (A, f) also the
    rows x,e_1..e_n of |hybrid - oracle| (``%.15e``) to
    ``<problem>_error_eps<eps>.csv``. The x cells are formatted once per
    run; :func:`_write_table` writes each file, exactly rounded and
    byte-identical to ``%``. The outer solution does not depend on eps, so
    it is evaluated on the grid once per run."""
    problem = manifest.problem
    xs = manifest.grid()
    xstr = np.array(["%.15f" % x for x in xs.tolist()], dtype="S")
    cfg = _solver_config(manifest)
    hybrids = map_cells(lambda eps: _solve_cell(problem, eps, cfg),
                        manifest.eps_list, manifest.jobs)
    outer_values = hybrids[0].outer.eval_many(xs)
    for eps, hybrid in zip(manifest.eps_list, hybrids):
        values = hybrid.eval_many(xs, outer_values)
        tag = _eps_tag(eps)
        _write_table(
            manifest.output_dir / f"{problem.name}_{kind}_eps{tag}.csv",
            ["x"] + [f"y_{i + 1}" for i in range(problem.n)], xstr, values, "%.15f",
        )
        if oracle_data is not None:
            err = np.abs(values - exact_constant_system(*oracle_data, eps)(xs))
            _write_table(
                manifest.output_dir / f"{problem.name}_error_eps{tag}.csv",
                ["x"] + [f"e_{i + 1}" for i in range(problem.n)], xstr, err, "%.15e",
            )
    return EXIT_OK


def cmd_solve(manifest: RunManifest) -> int:
    """Solution tables: per eps, rows x,y_1..y_n at the evaluation grid."""
    return _write_solutions(manifest, "solve")


def cmd_convergence(manifest: RunManifest) -> int:
    """Double-mesh tables: one CSV per component, eps rows by N columns,
    followed by the max-over-eps D^N row and the order p^N row.

    Only the layer solves depend on eps. The assumption check runs once per
    problem (``hybrid_solve`` keeps its report), and the outer solution is
    evaluated once per grid N, by the first cell on that grid to get there,
    and shared by the others. An evaluation that raises is recorded as that
    cell's failure, like a failed solve, and the next cell on N retries it."""
    problem = manifest.problem
    adaptive = manifest.adaptive
    outer_on_grid: dict[int, np.ndarray] = {}

    def solver(eps: float, n: int) -> GridFunction:
        cfg = SolverConfig(initial_mesh_points=n + 1, adaptive=adaptive)
        hybrid = _solve_cell(problem, eps, cfg)
        grid = np.linspace(0.0, 1.0, n + 1)
        outer_values = outer_on_grid.get(n)
        if outer_values is None:
            outer_values = outer_on_grid.setdefault(n, hybrid.outer.eval_many(grid))
        return GridFunction(grid=grid, values=hybrid.eval_many(grid, outer_values))

    report = convergence_table(solver, manifest.eps_list, manifest.n_list,
                               jobs=manifest.jobs)
    if report.failures:
        eps, n, msg = report.failures[0]
        raise SolverFailure(f"eps={eps:g} (N={n}): {msg}")

    header = ["eps"] + [f"N={n}" for n in manifest.n_list]
    for i in range(problem.n):
        rows = []
        for eps in manifest.eps_list:
            cells = report.per_eps[eps]
            rows.append([repr(eps)] + [
                repr(float(cells[n][i])) if n in cells else "" for n in manifest.n_list
            ])
        rows.append(["D^N"] + [repr(float(report.d_n[n][i])) for n in manifest.n_list])
        p_row = ["p^N"]
        for n in manifest.n_list:
            p = float(report.order[n][i]) if n in report.order else float("nan")
            p_row.append("undefined" if np.isnan(p) else repr(p))
        rows.append(p_row)
        _write_csv(
            manifest.output_dir / f"{problem.name}_convergence_y{i + 1}.csv",
            header, [",".join(row) + "\n" for row in rows],
        )
    return EXIT_OK


def _constant_system_data(problem: ProblemConfig):
    """Return (A, f) when the problem has constant coefficients, constant
    forcing, zero BCs, a single swept diffusion parameter and an A the
    closed-form oracle accepts; else None."""
    if any(v != 0.0 for v in problem.bc_left + problem.bc_right):
        return None
    if any(not isinstance(d, str) for d in problem.diffusion):
        return None
    sys = problem.build_system(0.5)
    probe = np.linspace(0.0, 1.0, 11)
    A = sys.coeff_matrix(probe)
    f = sys.forcing_vector(probe)
    if np.max(np.ptp(A, axis=0)) > 1e-14 or np.max(np.ptp(f, axis=0)) > 1e-14:
        return None
    try:
        exact_constant_system(A[0], f[0], 0.5)
    except ValueError:  # e.g. a complex spectrum: no closed form
        return None
    return A[0], f[0]


def cmd_plotdata(manifest: RunManifest) -> int:
    """Dense per-eps solution data, plus |hybrid - oracle| error files when
    the closed-form constant-coefficient oracle applies."""
    return _write_solutions(manifest, "plot", _constant_system_data(manifest.problem))


_COMMANDS = {
    "solve": (cmd_solve, PAPER_GRID),
    "convergence": (cmd_convergence, 2001),
    "plotdata": (cmd_plotdata, 2001),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    runner, default_grid = _COMMANDS[args.command]
    try:
        if args.dump_config:
            _sys.stdout.write(dump_config(load_problem(args.problem)))
            return EXIT_OK
        manifest = _build_manifest(args, default_grid)
        return runner(manifest)
    except ConfigError as exc:
        print(f"scem-rd: config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except SolverFailure as exc:
        print(f"scem-rd: solver failure: {exc}", file=_sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    _sys.exit(main())
