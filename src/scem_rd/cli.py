"""Command-line front end: solve, convergence, and plot-data sweeps.

Examples:

    scem-rd solve --problem example1 --eps 1,0.01,1e-4 --out results/
    scem-rd convergence --problem example1 --eps 2^-1,2^-2,2^-3 \\
        --n 64,128,256,512,1024 --out results/
    scem-rd plotdata --problem example2 --eps 1,0.01,0.0001 --grid 2001 --out figs/

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import contextlib
import sys as _sys
from pathlib import Path

import numpy as np

from .analysis import GridFunction, convergence_table, exact_constant_system
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
from .numformat import CHUNK_ROWS, format_column, format_table
from .scem import AssumptionViolation, HybridApproximation, SingularReducedMatrix, hybrid_solve

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
        p.add_argument("--jobs", type=int, choices=[1],
                       help="kept for existing command lines; cells run one at a time")
        p.add_argument("--grid", default=None,
                       help="evaluation grid: a point count or 'paper' "
                            "(default: paper for solve, 2001 for plotdata; "
                            "convergence takes none)")
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
    )
    tags = [_eps_tag(eps) for eps in eps_list]
    repeated = sorted({tag for tag in tags if tags.count(tag) > 1})
    if repeated:
        # solve and plotdata name their files by tag, so each must be unique
        raise ConfigError("eps values must differ in their first 10 significant "
                          f"digits (the file tag); repeated: {', '.join(repeated)}")
    if args.command == "convergence":
        if len(n_list) < 2:
            raise ConfigError("convergence needs an N list with at least 2 entries")
        if args.grid is not None:
            raise ConfigError("convergence takes no --grid: each N is sampled "
                              "on its own uniform N+1-point grid")
    # the largest start mesh; the convergence sweep also solves at 4*max(N)
    points = 4 * n_list[-1] + 1 if args.command == "convergence" else _start_points(n_list)
    try:
        SolverConfig(initial_mesh_points=points)
    except ValueError as exc:
        raise ConfigError(f"--n {args.n}: {exc}") from exc
    # Compile once, before --out is created, so a bad expression is a config
    # error that leaves no directory behind (the first sweep cell would find
    # it only after --out exists).
    problem.build_system(eps_list[0])
    return manifest


def _make_output_dir(manifest: RunManifest) -> None:
    """Create --out; each command calls it once its other config errors are
    ruled out, so none of them leaves an empty directory behind."""
    try:
        manifest.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory "
                          f"{str(manifest.output_dir)!r}: {exc}") from exc


def _start_points(n_list: tuple[int, ...]) -> int:
    """Start mesh of the solves of a solve or plotdata run: N+1 nodes for the largest N, else 1000."""
    return n_list[-1] + 1 if n_list else 1000


def _cell_solver(manifest: RunManifest):
    """Return ``cell(eps, xs, n=None)``, the sweep cell of every command:
    the solve at ``eps`` from n+1 uniform nodes, or from
    :func:`_start_points` without n, and the outer values at ``xs``. Those
    do not depend on eps, so they are evaluated once per grid (a run's
    grids differ in size) by the first cell there, ``CHUNK_ROWS`` rows at
    a time, and kept only once every block has succeeded. Every solver
    error becomes a SolverFailure naming the cell's eps, and its N when n
    is given; it stops the run, so no later cell is solved."""
    problem, adaptive = manifest.problem, manifest.adaptive
    run_points = _start_points(manifest.n_list)
    outer_on_grid: dict[int, np.ndarray] = {}

    def cell(eps: float, xs: np.ndarray,
             n: int | None = None) -> tuple[HybridApproximation, np.ndarray]:
        points = run_points if n is None else n + 1
        try:
            hybrid = hybrid_solve(problem.build_system(eps),
                                  SolverConfig(initial_mesh_points=points, adaptive=adaptive))
            outer_values = outer_on_grid.get(xs.size)
            if outer_values is None:
                outer_values = np.empty((xs.size, problem.n))
                for start in range(0, xs.size, CHUNK_ROWS):
                    rows = slice(start, start + CHUNK_ROWS)
                    outer_values[rows] = hybrid.outer.eval_many(xs[rows])
                outer_on_grid[xs.size] = outer_values
            return hybrid, outer_values
        except _SOLVER_ERRORS as exc:
            where = f"eps={eps:g}" if n is None else f"eps={eps:g} (N={n})"
            raise SolverFailure(f"{where}: {exc}") from exc

    return cell


def _eps_tag(eps: float) -> str:
    return format(eps, ".10g")


def _open_output(path: Path):
    """Open ``path`` for binary writing; a path that cannot be opened (a
    directory squatting on the file name, say) is a config error."""
    try:
        return open(path, "wb")
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc}") from exc


def _write_csv(path: Path, header: list[str], lines) -> None:
    """Write ``header`` and the already formatted ``lines`` (each ending in a
    newline). Cells are numbers or plain words, so none needs CSV quoting."""
    with _open_output(path) as fh:
        fh.write((",".join(header) + "\n" + "".join(lines)).encode())


def _open_table(files: contextlib.ExitStack, path: Path, letter: str, n: int):
    """Open ``path`` on ``files`` and write the header x,<letter>_1..<letter>_n."""
    fh = files.enter_context(_open_output(path))
    fh.write((",".join(["x"] + [f"{letter}_{i + 1}" for i in range(n)]) + "\n").encode())
    return fh


def _write_solutions(manifest: RunManifest, kind: str, oracle_data=None) -> int:
    """Per eps, write rows x,y_1..y_n (``%.15f``) at the evaluation grid to
    ``<problem>_<kind>_eps<eps>.csv``; with ``oracle_data`` (A, f) also the
    rows x,e_1..e_n of |hybrid - oracle| (``%.15e``) to
    ``<problem>_error_eps<eps>.csv``. Every cell is exactly rounded, so the
    files are byte-identical to ``%`` formatting (``numformat``).

    The x cells and the outer values are computed once per run on the whole
    grid. Each eps is solved before its files are opened, so a failing eps
    leaves the files of the eps before it; then the grid goes through
    ``CHUNK_ROWS`` rows at a time (composite, error, formatted rows), so no
    per-eps array is as large as the grid."""
    problem = manifest.problem
    try:
        xs = manifest.grid()
        xcol = format_column(xs, "%.15f")
    except MemoryError as exc:
        raise ConfigError(f"--grid {manifest.eval_grid}: too many points ({exc})") from exc
    _make_output_dir(manifest)
    cell = _cell_solver(manifest)
    for eps in manifest.eps_list:
        hybrid, outer_values = cell(eps, xs)
        oracle = None if oracle_data is None else exact_constant_system(*oracle_data, eps)
        tag = _eps_tag(eps)
        with contextlib.ExitStack() as files:
            plot = _open_table(files, manifest.output_dir / f"{problem.name}_{kind}_eps{tag}.csv",
                               "y", problem.n)
            error = None if oracle is None else _open_table(
                files, manifest.output_dir / f"{problem.name}_error_eps{tag}.csv", "e", problem.n)
            for start in range(0, xs.size, CHUNK_ROWS):
                rows = slice(start, start + CHUNK_ROWS)
                values = hybrid.eval_many(xs[rows], outer_values[rows])
                plot.write(format_table(xcol[rows], values, "%.15f"))
                if error is not None:
                    err = np.abs(values - oracle(xs[rows]))
                    error.write(format_table(xcol[rows], err, "%.15e"))
    return EXIT_OK


def cmd_solve(manifest: RunManifest) -> int:
    """Solution tables: per eps, rows x,y_1..y_n at the evaluation grid."""
    return _write_solutions(manifest, "solve")


def cmd_convergence(manifest: RunManifest) -> int:
    """Double-mesh tables: one CSV per component, eps rows by N columns,
    followed by the max-over-eps D^N row and the order p^N row. Each
    (eps, N) cell samples its composite on the uniform N+1-point grid."""
    problem = manifest.problem
    _make_output_dir(manifest)
    cell = _cell_solver(manifest)

    def solver(eps: float, n: int) -> GridFunction:
        grid = np.linspace(0.0, 1.0, n + 1)
        hybrid, outer_values = cell(eps, grid, n)
        return GridFunction(grid=grid, values=hybrid.eval_many(grid, outer_values))

    report = convergence_table(solver, manifest.eps_list, manifest.n_list)
    header = ["eps"] + [f"N={n}" for n in manifest.n_list]
    for i in range(problem.n):
        rows = [[repr(eps)] + [repr(float(report.per_eps[eps][n][i])) for n in manifest.n_list]
                for eps in manifest.eps_list]
        rows.append(["D^N"] + [repr(float(report.d_n[n][i])) for n in manifest.n_list])
        orders = (float(report.order[n][i]) for n in manifest.n_list)
        rows.append(["p^N"] + ["undefined" if np.isnan(p) else repr(p) for p in orders])
        _write_csv(
            manifest.output_dir / f"{problem.name}_convergence_y{i + 1}.csv",
            header, [",".join(row) + "\n" for row in rows],
        )
    return EXIT_OK


def _constant_system_data(problem: ProblemConfig):
    """Return (A, f) when the problem has constant coefficients, constant
    forcing, zero BCs, a single swept diffusion parameter and an A the
    closed-form oracle accepts; else None. A and f are constant when no
    entry is a callable: an expression without x is stored as its value."""
    if any(v != 0.0 for v in problem.bc_left + problem.bc_right):
        return None
    if any(not isinstance(d, str) for d in problem.diffusion):
        return None
    sys = problem.build_system(0.5)
    if any(map(callable, [*sys.forcing, *(a for row in sys.coeff for a in row)])):
        return None
    A, f = np.array(sys.coeff), np.array(sys.forcing)
    try:
        exact_constant_system(A, f, 0.5)
    except ValueError:  # e.g. a complex spectrum: no closed form
        return None
    return A, f


def cmd_plotdata(manifest: RunManifest) -> int:
    """Dense per-eps solution data, plus |hybrid - oracle| error files when
    the closed-form constant-coefficient oracle applies."""
    return _write_solutions(manifest, "plot", _constant_system_data(manifest.problem))


_COMMANDS = {
    "solve": (cmd_solve, PAPER_GRID),
    "convergence": (cmd_convergence, None),
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
