"""The paper's 80 output files, 6 variable-coefficient files and 12 layer
tables, byte for byte, against committed sha256 digests.

The paper files are what the paper's workloads emit for example1 and
example2 at eps = 2^-1..2^-15: the double-mesh tables (``convergence
--no-adapt``), the figure data (``plotdata --grid 20001``) and the solution
tables (``solve``). The variable-coefficient files are the adaptive
``solve`` and ``plotdata --grid 2001`` tables of the JSON config
``VARCOEF``, A = [[2+x, -1], [-1, 3-x*x]] and f = (1+x, 1/(1+x)), at eps =
1e-4, 1e-8 and 1e-12; they cover coefficients sampled through their
callables, which the constant-coefficient paper systems never are. The
layer tables are the adaptive composites of example1, example2 and
``VARCOEF`` at eps = 2^-4, 2^-9, 1e-8 and 1e-12 on a grid stretched into
both layers (``layer_grid``): the files above sample the layers at small
eps coarsely or not at all, so these are what pins the layer solves. The
last digits of every file depend on the numpy and LAPACK build, so
``paper_output_digests.json`` records the build its digests were made on,
and on any other build the test skips and names both builds.

The list is never rewritten by the test. A change that moves the outputs
on purpose rewrites it with

    PYTHONPATH=src python tests/test_paper_outputs.py --write

which names the files whose digest changed; the change records the
largest difference it measured in each.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from scem_rd.cli import main
from scem_rd.config import load_problem
from scem_rd.numformat import format_column, format_table
from scem_rd.scem import hybrid_solve

DIGESTS = Path(__file__).with_name("paper_output_digests.json")
PAPER_EPS = ",".join(f"2^-{k}" for k in range(1, 16))
RUNS = [
    ["convergence", "--n", "64,128,256,512,1024", "--no-adapt"],
    ["plotdata", "--grid", "20001"],
    ["solve"],
]
VARCOEF = {
    "name": "varcoef",
    "n": 2,
    "coeff": [["2+x", "-1"], ["-1", "3-x*x"]],
    "forcing": ["1+x", "1/(1+x)"],
    "diffusion": ["eps", "eps"],
    "bc_left": [1.0, -0.5],
    "bc_right": [0.25, 2.0],
}
VARCOEF_EPS = "1e-4,1e-8,1e-12"
VARCOEF_RUNS = [["solve"], ["plotdata", "--grid", "2001"]]
LAYER_EPS = (2.0**-4, 2.0**-9, 1e-8, 1e-12)


def _lapack(package) -> str:
    """The LAPACK a package was built with, as its build config names it."""
    try:
        lapack = package.__config__.CONFIG["Build Dependencies"]["lapack"]
        return f"{lapack['name']} {lapack['version']}"
    except (AttributeError, KeyError):  # older builds keep no such record
        return "unknown"


def _simd() -> str:
    """The CPU targets numpy dispatches to on this machine."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        return "unknown"
    return " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))


def build() -> dict[str, str]:
    """What the output bytes depend on besides the source."""
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "numpy_lapack": _lapack(np),
        "numpy_simd": _simd(),
        "scipy": scipy.__version__,
        "scipy_lapack": _lapack(scipy),
    }


def layer_grid(eps: float) -> np.ndarray:
    """Uniform 201 points plus stretched steps of 1/10 out to t = 40 from
    both ends, x = t sqrt(eps): 400 points in each layer at every eps."""
    t = np.linspace(0.0, 40.0, 401) * np.sqrt(eps)
    t = t[t <= 1.0]
    return np.unique(np.concatenate([np.linspace(0.0, 1.0, 201), t, 1.0 - t]))


def write_layer_tables(out: Path, varcoef: Path) -> None:
    """The adaptive composites of the layer tables, as ``x,y_1,..,y_n`` rows
    in ``%.15e``, to ``out/<problem>_layers_eps<eps>.csv``."""
    for config in (load_problem("example1"), load_problem("example2"), load_problem(str(varcoef))):
        for eps in LAYER_EPS:
            xs = layer_grid(eps)
            values = hybrid_solve(config.build_system(eps)).eval_many(xs)
            table = format_table(format_column(xs, "%.15e"), values, "%.15e")
            (out / f"{config.name}_layers_eps{eps:.10g}.csv").write_bytes(table)


def digests(work: Path) -> dict[str, str]:
    """Write the paper, variable-coefficient and layer files to ``work/out``
    and return the sha256 of each."""
    out = work / "out"
    config = work / "varcoef.json"
    config.write_text(json.dumps(VARCOEF), encoding="utf-8")
    for problem in ("example1", "example2"):
        for command, *options in RUNS:
            argv = [command, "--problem", problem, "--eps", PAPER_EPS, *options, "--out", str(out)]
            assert main(argv) == 0, argv
    for command, *options in VARCOEF_RUNS:
        argv = [command, "--problem", str(config), "--eps", VARCOEF_EPS, *options,
                "--out", str(out)]
        assert main(argv) == 0, argv
    write_layer_tables(out, config)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_paper_outputs_are_byte_identical(tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if recorded["build"] != build():
        pytest.skip(f"digests were made on {recorded['build']}, this is {build()}; "
                    "perfbench's value gates still check the tables")
    got = digests(tmp_path)
    assert len(got) == 98
    changed = sorted(name for name in got.keys() | recorded["files"].keys()
                     if got.get(name) != recorded["files"].get(name))
    assert not changed, f"{len(changed)} output files differ: {', '.join(changed)}"


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as out:
        files = digests(Path(out))
    old = json.loads(DIGESTS.read_text(encoding="utf-8"))["files"] if DIGESTS.exists() else {}
    changed = sorted(name for name in files.keys() | old.keys() if files.get(name) != old.get(name))
    DIGESTS.write_text(json.dumps({"build": build(), "files": files}, indent=1) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(files)} digests to {DIGESTS}; {len(changed)} changed:")
    for name in changed:
        print(f"  {name}" + ("" if name in files and name in old
                             else " (new)" if name in files else " (gone)"))
