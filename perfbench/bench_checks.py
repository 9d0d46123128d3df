"""Correctness gates, the operation ledger and the latency statistics.

Every operation the benchmark attempts (a hybrid solve, a CLI call, an
emitted-table comparison, a reference check) is entered in a
:class:`Ledger`; a solver exception or a failed gate makes it a failed
operation, so ``failed_frac`` counts it instead of dropping it.
"""

from __future__ import annotations

import csv
import hashlib
import math
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from scem_rd.analysis import exact_constant_system
from scem_rd.system import forcing_max_norm, stability_bound, validate_assumptions

#: composite boundary values must match the prescribed ones this closely
BOUNDARY_TOL = 1e-9
#: emitted D cells may differ from the seed-commit tables by this much
D_ATOL = 1e-10
#: emitted orders may differ from the seed-commit tables by this much
P_ATOL = 1e-3
#: D values at or below this are noise; their orders read "undefined"
ORDER_NOISE_FLOOR = 1e-15
#: multiples of sqrt(eps) from each end added to the error grid
LAYER_MULTIPLES = 40
#: candidate tail percentiles, highest last
TAIL_PERCENTILES = (50, 90, 99, 99.9)


class Ledger:
    """Counts attempted and failed operations and keeps the failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ten samples beyond it."""
    best = None
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0:
            best = p
    return best


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


class SpeedProbe:
    """A fixed computation whose time tracks how fast the machine runs now.

    On a shared machine the same code runs 10-25% slower or faster from
    one minute to the next, in CPU time as much as in wall time. The probe
    mixes what scem-rd spends its time on (a SuperLU factor and solve,
    small einsum products in a Python loop, float formatting) but none of
    scem-rd's code, so a change to the program does not change it. A time
    measured next to a probe burst that took p seconds is reported as
    time * REFERENCE_S / p: seconds on a machine where the probe takes
    REFERENCE_S. Measured beside an adaptive example1 solve for three
    minutes, the solve's time moved by +-18% and its ratio to the probe by
    +-3%.
    """

    #: probe time on the reference machine (2-core Xeon at 2.1 GHz)
    REFERENCE_S = 0.05

    def __init__(self) -> None:
        import scipy.sparse as sparse

        rng = np.random.default_rng(0)
        n = 30000
        self.matrix = sparse.diags(
            [rng.random(n - 1), 4.0 + rng.random(n), rng.random(n - 1), rng.random(n - 4)],
            [-1, 0, 1, 4], format="csc")
        self.rhs = rng.random(n)
        self.blocks = [rng.random((8, 4, 4)) for _ in range(50)]
        self.values = rng.random(10000)

    def factor(self, repeats: int = 9) -> float:
        """Run a burst; multiply a time measured next to it by the result."""
        from scipy.sparse.linalg import splu

        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            splu(self.matrix).solve(self.rhs)
            for _ in range(60):
                for block in self.blocks:
                    np.einsum("kij,kjl->kil", block, block)
            for v in self.values:
                f"{v:.15f}"
            times.append(perf_counter() - t0)
        return self.REFERENCE_S / median(times)


def per_solve_latency(reps: list[list[float]]) -> np.ndarray:
    """Each distinct solve's median latency over the repetitions.

    A repetition makes the same solves in the same order, so position i of
    every repetition is the same solve; a failed solve holds NaN, and so
    does every solve after a failure that ended its repetition early.
    Taking quantiles over these per-solve values, not over the pooled
    samples, keeps the sample the same whatever number of repetitions fit
    in a run.
    """
    table = np.full((len(reps), max(map(len, reps), default=0)), np.nan)
    for row, rep in zip(table, reps):
        row[:len(rep)] = rep
    valid = ~np.all(np.isnan(table), axis=0)
    return np.nanmedian(table[:, valid], axis=0)


# ---------------------------------------------------------------------------
# per-solve gates
# ---------------------------------------------------------------------------

def error_grid(eps: float) -> np.ndarray:
    """Uniform 201 points plus multiples of sqrt(eps) from both ends.

    A plain uniform grid misses the layers once sqrt(eps) is below its
    spacing, and then reads roundoff instead of the layer error.
    """
    k = np.arange(1, LAYER_MULTIPLES + 1) * math.sqrt(eps)
    k = k[k < 1.0]
    return np.unique(np.concatenate([np.linspace(0.0, 1.0, 201), k, 1.0 - k]))


def constant_oracle(sys):
    """Closed-form solution when the oracle applies, else None.

    It applies to constant A and f, zero boundary values and one shared
    diffusion value; of the benchmark's problems that is example1.
    """
    probe = np.linspace(0.0, 1.0, 11)
    A = sys.coeff_matrix(probe)
    f = sys.forcing_vector(probe)
    if (np.any(sys.left_bc != 0.0) or np.any(sys.right_bc != 0.0)
            or len(set(sys.diffusion)) != 1
            or np.max(np.ptp(A, axis=0)) > 0.0 or np.max(np.ptp(f, axis=0)) > 0.0):
        return None
    return exact_constant_system(A[0], f[0], sys.diffusion[0])


class SolveRecorder:
    """Times each hybrid solve and gates its result.

    Gate time is kept out of the latency and counted in ``excluded_s`` so
    the workload can take it out of its wall time. ``pause`` suspends the
    tracer while the gate runs.
    """

    def __init__(self, ledger: Ledger, pause=nullcontext) -> None:
        self.ledger = ledger
        self.pause = pause
        self.latencies: list[list[float]] = []  # per repetition, in call order
        self.digests: list[str] = []
        self.err_max = 0.0
        self.excluded_s = 0.0

    def wrap(self, hybrid_solve):
        def recorded(sys, *args, **kwargs):
            if not self.latencies:
                self.new_repetition()
            t0 = perf_counter()
            try:
                result = hybrid_solve(sys, *args, **kwargs)
            except Exception as exc:
                self.latencies[-1].append(float("nan"))
                self.ledger.record(False, f"hybrid_solve raised {type(exc).__name__}: {exc}")
                raise
            t1 = perf_counter()
            self.latencies[-1].append(t1 - t0)
            with self.pause():
                try:
                    problems = self.gate(sys, result)
                except Exception as exc:  # a gate that cannot run has failed
                    problems = [f"gate raised {type(exc).__name__}: {exc}"]
            self.ledger.record(not problems, "; ".join(problems))
            self.excluded_s += perf_counter() - t1
            return result

        return recorded

    def new_repetition(self) -> None:
        self.latencies.append([])

    def gate(self, sys, hybrid) -> list[str]:
        """Boundary exactness, stability ceiling and, where it applies, the oracle."""
        eps = min(sys.diffusion)
        xs = error_grid(eps)
        values = hybrid.eval_many(xs)
        self.digests.append(hashlib.sha256(values.tobytes()).hexdigest())
        problems = []
        bnd = max(float(np.max(np.abs(values[0] - sys.left_bc))),
                  float(np.max(np.abs(values[-1] - sys.right_bc))))
        if not bnd <= BOUNDARY_TOL:
            problems.append(f"eps={eps:g}: boundary mismatch {bnd:.3e}")
        ceiling = stability_bound(sys, validate_assumptions(sys), forcing_max_norm(sys))
        peak = float(np.max(np.abs(values)))
        if not peak <= ceiling:
            problems.append(f"eps={eps:g}: max |y| {peak:.6g} above stability bound {ceiling:.6g}")
        oracle = constant_oracle(sys)
        if oracle is not None:
            err = float(np.max(np.abs(values - oracle(xs))))
            if not math.isfinite(err):
                problems.append(f"eps={eps:g}: error against the oracle is {err}")
            self.err_max = max(self.err_max, err)
        return problems


# ---------------------------------------------------------------------------
# emitted files
# ---------------------------------------------------------------------------

def file_digests(directory: Path) -> dict[str, str]:
    """sha256 of every file in a directory, by name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir()) if p.is_file()
    }


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _number(cell: str) -> float:
    return float("nan") if cell == "undefined" else float(cell)


def compare_convergence_table(emitted: Path, reference: Path) -> list[str]:
    """Problems of an emitted convergence CSV against its reference.

    Cells match within an absolute tolerance, and each order p^N the table
    can check (its D^{2N} is emitted too) must equal log2(D^N / D^{2N}),
    or read "undefined" when either D is at the noise floor.
    """
    header, rows = _read_table(emitted)
    ref_header, ref_rows = _read_table(reference)
    name = emitted.name
    if header != ref_header or [r[0] for r in rows] != [r[0] for r in ref_rows]:
        return [f"{name}: layout differs from the reference"]
    problems = []
    for row, ref in zip(rows, ref_rows):
        atol = P_ATOL if row[0] == "p^N" else D_ATOL
        for col, (cell, ref_cell) in enumerate(zip(row[1:], ref[1:]), start=1):
            got, want = _number(cell), _number(ref_cell)
            same_nan = math.isnan(got) and math.isnan(want)
            if not (same_nan or abs(got - want) <= atol):
                problems.append(f"{name}: {row[0]} {header[col]} is {cell}, reference {ref_cell}")
    d_row = [float(c) for c in rows[-2][1:]]
    p_row = [_number(c) for c in rows[-1][1:]]
    for d, d2, p in zip(d_row, d_row[1:], p_row):
        if d > ORDER_NOISE_FLOOR and d2 > ORDER_NOISE_FLOOR:
            ok = abs(p - math.log2(d / d2)) <= 1e-12 * max(1.0, abs(p))
        else:
            ok = math.isnan(p)
        if not ok:
            problems.append(f"{name}: order {p} is not log2({d}/{d2})")
    return problems


def check_plot_files(plot: Path, error: Path, grid: int, err_limit: float) -> list[str]:
    """Problems of one eps of plotdata output: shape, boundary values and
    the oracle error the CLI wrote."""
    if not (plot.is_file() and error.is_file()):
        return [f"{plot.name}: plot or error file missing"]
    y = np.loadtxt(plot, delimiter=",", skiprows=1)
    e = np.loadtxt(error, delimiter=",", skiprows=1)
    if y.shape != (grid, 3) or e.shape != (grid, 3):
        return [f"{plot.name}: expected {grid} rows of x and two components"]
    problems = []
    if np.max(np.abs(y[[0, -1], 1:])) > BOUNDARY_TOL:
        problems.append(f"{plot.name}: boundary values are not zero")
    if not np.max(e[:, 1:]) <= err_limit:
        problems.append(f"{error.name}: max {np.max(e[:, 1:]):.3e} > {err_limit:.0e}")
    return problems
