"""The three workloads, their set-up, and the seeded variable-coefficient system.

Each workload is a closed loop from one client: every library or CLI
call waits for the previous one. ``setup`` does what a user pays before
the first result (load and compile the problems, write generated
configs); ``body`` is the timed part; ``check`` and ``finish`` run the
correctness gates outside the timing.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import numpy as np

import scem_rd.cli
import scem_rd.scem
from scem_rd.collocation import SolverConfig
from scem_rd.config import load_problem
from scem_rd.system import validate_assumptions

from bench_checks import (
    Ledger,
    check_plot_files,
    compare_convergence_table,
    error_grid,
    file_digests,
)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: the paper's eps sweep, 2^-1 .. 2^-15
PAPER_EPS = ",".join(f"2^-{k}" for k in range(1, 16))
PAPER_N = "64,128,256,512,1024"
DEEP_EPS = (1e-4, 1e-8, 1e-12)
FIGURE_GRID = 20001
#: |numeric - closed form| written by plotdata must stay below this
FIGURE_ERR_LIMIT = 1e-6
#: varcoef reference check: max |hybrid - solve_bvp| <= REF_C * eps at REF_EPS;
#: the ratio measured at the seed commit is at most 0.29 over seeds 1-30
REF_EPS = 1e-4
REF_C = 1.0
REF_TOL = 1e-9


class Workload:
    """One named workload; subclasses fill in setup, body and the gates."""

    name = ""

    def __init__(self, workdir: Path, seed: int, ledger: Ledger) -> None:
        self.workdir = workdir
        self.seed = seed
        self.ledger = ledger
        self.out_dir = workdir / self.name

    def setup(self) -> None:
        """Load and compile the problems; write any generated config."""

    def body(self, solve) -> None:
        """The timed calls. ``solve`` is the recorded hybrid_solve."""

    def prepare(self) -> None:
        """Empty the output directory before a repetition (untimed)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)

    def outputs(self) -> dict[str, str]:
        """Digests of the files the last repetition wrote."""
        return file_digests(self.out_dir)

    def check(self, first: bool) -> None:
        """Gates on the files of one repetition."""

    def finish(self) -> None:
        """Gates that run once, after every repetition."""

    def _cli(self, argv: list[str]) -> None:
        try:
            code = scem_rd.cli.main(argv)
        except Exception as exc:  # counted, and the loop goes on
            self.ledger.record(False, f"scem-rd {argv[0]} raised {type(exc).__name__}: {exc}")
            return
        self.ledger.record(code == 0, f"scem-rd {' '.join(argv)} exited with {code}")

    def _gate(self, what: str, check) -> None:
        try:
            problems = check()
        except Exception as exc:  # a gate that cannot run has failed
            problems = [f"{what}: {type(exc).__name__}: {exc}"]
        self.ledger.record(not problems, "; ".join(problems))


class PaperTables(Workload):
    """The paper's double-mesh tables for example1 and example2."""

    name = "paper_tables"
    problems = ("example1", "example2")

    def setup(self) -> None:
        for name in self.problems:
            load_problem(name).build_system(0.5)

    def body(self, solve) -> None:
        for name in self.problems:
            self._cli(["convergence", "--problem", name, "--eps", PAPER_EPS,
                       "--n", PAPER_N, "--no-adapt", "--jobs", "1",
                       "--out", str(self.out_dir)])

    def check(self, first: bool) -> None:
        references = sorted(REFERENCE_DIR.glob("*_convergence_y*.csv"))
        if not references:
            self.ledger.record(False, f"no reference tables in {REFERENCE_DIR}")
        for ref in references:
            self._gate(ref.name, lambda ref=ref: compare_convergence_table(
                self.out_dir / ref.name, ref))


class DeepEps(Workload):
    """Adaptive hybrid solves at eps = 1e-4, 1e-8, 1e-12 on example1 and varcoef<seed>."""

    name = "deep_eps"

    def setup(self) -> None:
        self.params = varcoef_params(self.seed)
        path = self.workdir / f"varcoef{self.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(varcoef_config(self.params, path.stem), indent=2))
        varcoef = load_problem(str(path))
        self.systems = [
            (problem.name, eps, problem.build_system(eps))
            for problem in (load_problem("example1"), varcoef)
            for eps in DEEP_EPS
        ]
        report = validate_assumptions(self.systems[-1][2])
        self.ledger.record(report.passed, f"{varcoef.name} fails the structural assumptions")
        self.reference_solution = None

    def body(self, solve) -> None:
        cfg = SolverConfig()
        for name, eps, sys in self.systems:
            try:
                hybrid = solve(sys, cfg)
            except Exception:  # the recorder has counted it
                continue
            if name.startswith("varcoef") and eps == REF_EPS:
                self.reference_solution = hybrid

    def finish(self) -> None:
        self._gate(f"varcoef{self.seed} reference", self._reference_check)

    def _reference_check(self) -> list[str]:
        if self.reference_solution is None:
            return ["no varcoef solution at the reference eps"]
        err = reference_error(self.params, self.reference_solution, REF_EPS)
        self.reference_ratio = err / REF_EPS
        if err <= REF_C * REF_EPS:
            return []
        return [f"varcoef{self.seed}: |hybrid - solve_bvp| = {err:.3e} > {REF_C} * eps"]


class Figures(Workload):
    """Dense figure data and oracle error files for example1."""

    name = "figures"

    def setup(self) -> None:
        load_problem("example1").build_system(0.5)

    def body(self, solve) -> None:
        self._cli(["plotdata", "--problem", "example1", "--eps", PAPER_EPS,
                   "--grid", str(FIGURE_GRID), "--out", str(self.out_dir)])

    def check(self, first: bool) -> None:
        if not first:  # later repetitions are held to the first one's digests
            return
        for k in range(1, 16):
            tag = format(2.0**-k, ".10g")
            plot = self.out_dir / f"example1_plot_eps{tag}.csv"
            error = self.out_dir / f"example1_error_eps{tag}.csv"
            self._gate(plot.name, lambda p=plot, e=error: check_plot_files(
                p, e, FIGURE_GRID, FIGURE_ERR_LIMIT))


WORKLOADS = {w.name: w for w in (PaperTables, DeepEps, Figures)}


# ---------------------------------------------------------------------------
# seeded variable-coefficient system and its independent reference
# ---------------------------------------------------------------------------

def varcoef_params(seed: int) -> dict:
    """Coefficients of a strictly dominant 2x2 M-matrix system, from the seed.

    Diagonals c + d x with c in [3, 3.5] and d in [-0.5, 0.5] stay >= 2.5,
    above the off-diagonal magnitudes b0 + b1 x^2 <= 1, so the structural
    assumptions hold with delta >= 1.5 for every seed. The ranges are
    narrow on purpose: the deep-eps solve cost depends on the system, and
    a run should measure the solver, not which system the seed drew.
    """
    rng = random.Random(seed)

    def draw(lo, hi):
        return round(rng.uniform(lo, hi), 3)

    return {
        "diag": [[draw(3.0, 3.5), draw(-0.5, 0.5)] for _ in range(2)],
        "off": [[draw(0.4, 0.6), draw(0.2, 0.4)] for _ in range(2)],
        "forcing": [[draw(1.0, 1.5), draw(-0.5, 0.5), draw(-0.5, 0.5)] for _ in range(2)],
    }


def _affine(c: float, d: float) -> str:
    return f"{c} {'-' if d < 0 else '+'} {abs(d)}*x"


def varcoef_config(params: dict, name: str) -> dict:
    """Expression-language config of the system with the swept eps."""
    (c0, d0), (c1, d1) = params["diag"]
    (a0, a1), (b0, b1) = params["off"]
    forcing = [
        f"{p0} {'-' if p1 < 0 else '+'} {abs(p1)}*x {'-' if p2 < 0 else '+'} {abs(p2)}*x*x"
        for p0, p1, p2 in params["forcing"]
    ]
    return {
        "name": name,
        "n": 2,
        "coeff": [[_affine(c0, d0), f"-({a0} + {a1}*x*x)"],
                  [f"-({b0} + {b1}*x*x)", _affine(c1, d1)]],
        "forcing": forcing,
        "diffusion": ["eps", "eps"],
        "bc_left": [0.0, 0.0],
        "bc_right": [0.0, 0.0],
    }


def _coefficients(params: dict, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A(x) as (2, 2, m) and f(x) as (2, m), straight from the parameters."""
    (c0, d0), (c1, d1) = params["diag"]
    (a0, a1), (b0, b1) = params["off"]
    A = np.array([[c0 + d0 * x, -(a0 + a1 * x * x)],
                  [-(b0 + b1 * x * x), c1 + d1 * x]])
    f = np.array([p0 + p1 * x + p2 * x * x for p0, p1, p2 in params["forcing"]])
    return A, f


def reference_error(params: dict, hybrid, eps: float) -> float:
    """max |hybrid - solve_bvp| on the layer-resolving error grid.

    The reference integrates -eps y'' + A(x) y = f(x), y(0) = y(1) = 0, as
    a first-order system with scipy's solve_bvp, from the coefficients
    themselves, not through the expression language.
    """
    from scipy.integrate import solve_bvp

    def fun(x, z):
        A, f = _coefficients(params, x)
        Ay = np.einsum("ijm,jm->im", A, z[:2])
        return np.vstack([z[2:], (Ay - f) / eps])

    def fun_jac(x, z):
        A, _ = _coefficients(params, x)
        J = np.zeros((4, 4, x.size))
        J[0, 2] = J[1, 3] = 1.0
        J[2:, :2] = A / eps
        return J

    def bc(za, zb):
        return np.concatenate([za[:2], zb[:2]])

    x0 = np.linspace(0.0, 1.0, 1001)
    z0 = np.zeros((4, x0.size))
    sol = solve_bvp(fun, bc, x0, z0, fun_jac=fun_jac, tol=REF_TOL, max_nodes=200000)
    if not sol.success:
        raise RuntimeError(f"solve_bvp failed: {sol.message}")
    xs = error_grid(eps)
    return float(np.max(np.abs(hybrid.eval_many(xs) - sol.sol(xs)[:2].T)))
