"""Hybrid asymptotic-numerical pipeline for layered reaction-diffusion systems.

The uniformly valid approximation is assembled in three steps:

1. Outer (reduced) solution: drop the diffusion terms and solve the
   pointwise algebraic system A(x) y = f(x).
2. Complementary layer corrections: near each endpoint, magnify the layer
   with the stretched coordinate (x / sqrt(eps) on the left, (x - 1) /
   sqrt(eps) on the right) and solve the homogeneous complementary system

       -Psi'' + A(x) Psi = 0

   over the full stretched image of [0, 1], with boundary data equal to
   the outer solution's boundary mismatch (prescribed value minus outer
   value) at both ends. Each correction is computed numerically by the
   Lobatto IIIa collocation engine after the usual first-order recast.
   Adaptive solves start from a piecewise-uniform Shishkin mesh of
   ``initial_mesh_points`` nodes, fine within 4 ln(N - 1) / sqrt(delta) of
   each end (delta from the assumption check bounds the eigenvalues of A from
   below, so the layers decay at least like exp(-sqrt(delta) t)); this
   keeps the refinement passes bounded as eps -> 0. Fixed-mesh solves
   (``adaptive=False``) and short stretched intervals stay uniform.
3. Composite: y(x) = y_out(x) + [Psi_L(x/sqrt(eps)) + Psi_R((x-1)/sqrt(eps))] / 2.

Because the two stretched problems are transplants of the same physical
problem, their composite contributions agree up to solver noise; the
average also makes the prescribed boundary values hold exactly by
construction (each correction's boundary datum cancels the mismatch).

All components must share one diffusion value; unequal values raise
ValueError. With some eps_i = 1 (partially perturbed) the reduced problem is
a boundary-value problem that step 1 misses by O(1), and distinct small
values nest layers of different widths.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .collocation import CollocationSolution, FirstOrderBvp, SolverConfig, evaluate, solve
from .system import ReactionDiffusionSystem, validate_assumptions

#: 2-norm condition-number ceiling beyond which the reduced matrix counts as
#: singular; the Varah bound certifies points below it, an SVD checks the rest
_SINGULAR_COND = 1e14
#: A tables kept per layer problem, oldest dropped first; one mesh needs
#: three (nodes, midpoints, residual quadrature points)
_TABLE_MEMO_SIZE = 4
#: Shishkin transition constant sigma in tau = sigma ln N / sqrt(beta): the
#: collocation order, so the layer is resolved to the method's accuracy
_SHISHKIN_SIGMA = 4.0


class SingularReducedMatrix(Exception):
    """A(x) is numerically singular at a queried point."""


class AssumptionViolation(Exception):
    """The system fails diagonal dominance or the off-diagonal sign condition."""


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


def _varah_certified(A: np.ndarray) -> np.ndarray:
    """Per point of a (m, n, n) stack, whether cond_2(A) <= _SINGULAR_COND is
    certain without an SVD.

    Varah (1975): with excess = min_i (2|a_ii| - sum_j |a_ij|) > 0 (strict
    row dominance), ||A^-1||_inf <= 1 / excess. Since cond_2 <= n cond_inf,
    n ||A||_inf <= _SINGULAR_COND * excess bounds cond_2 by the ceiling.
    NaN or inf entries are never certified.
    """
    absA = np.abs(A)
    row_sums = absA.sum(axis=2)
    excess = np.min(2.0 * np.diagonal(absA, axis1=1, axis2=2) - row_sums, axis=1)
    return (excess > 0.0) & (A.shape[-1] * row_sums.max(axis=1) <= _SINGULAR_COND * excess)


@dataclass(frozen=True)
class OuterSolution:
    """Reduced solution y_out(x) = A(x)^-1 f(x), evaluated lazily per query.

    Each query rejects a numerically singular A(x) (cond_2 > 1e14); the
    vectorised Varah bound clears strictly dominant points, and only the
    others get an SVD.
    """

    sys: ReactionDiffusionSystem

    def __call__(self, x) -> np.ndarray:
        scalar = np.isscalar(x) or np.ndim(x) == 0
        out = self.eval_many(np.atleast_1d(np.asarray(x, dtype=float)))
        return out[0] if scalar else out

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Pointwise solves on a grid; returns shape (len(xs), n)."""
        A = self.sys.coeff_matrix(xs)
        suspect = ~_varah_certified(A)
        if np.any(suspect):
            conds = np.linalg.cond(A[suspect])
            if np.any(conds > _SINGULAR_COND):
                worst = float(xs[suspect][int(np.argmax(conds))])
                raise SingularReducedMatrix(
                    f"reduced matrix numerically singular near x={worst:.6g}"
                )
        rhs = self.sys.forcing_vector(xs)
        return np.linalg.solve(A, rhs[:, :, None])[:, :, 0]


def solve_reduced(sys: ReactionDiffusionSystem) -> OuterSolution:
    """Reduced (zero-diffusion) solution of the system.

    Raises SingularReducedMatrix on evaluation if any queried A(x) has a
    2-norm condition number above 1e14. Strictly dominant A(x) are cleared
    by the Varah bound without an SVD, so under the structural assumptions
    an SVD runs only where the dominance margin is below n ||A||_inf / 1e14.
    """
    return OuterSolution(sys)


@dataclass(frozen=True)
class LayerProblem:
    """Complementary boundary-layer BVP in the stretched coordinate.

    ``bvp`` is the first-order recast (dimension 2n for n components) of
    -Psi'' + A(x) Psi = 0 on ``stretched_interval``, with A evaluated at
    the physical coordinate recovered from the stretched one. ``bc_values``
    rows are the Dirichlet data at the interval's two endpoints; the row
    attached to each physical endpoint is the boundary mismatch
    (prescribed minus outer) there, so the assembled composite meets the
    prescribed boundary condition.
    """

    side: Side
    stretched_interval: tuple[float, float]
    bvp: FirstOrderBvp
    bc_values: np.ndarray  # (2, n): data at interval left end, right end
    eps: float


def build_layer_problem(
    sys: ReactionDiffusionSystem,
    outer: OuterSolution,
    side: Side,
) -> LayerProblem:
    """Construct the left or right complementary layer problem.

    The stretched interval is [0, 1/sqrt(eps)] on the left and
    [-1/sqrt(eps), 0] on the right, covering the full image of the
    physical domain. Boundary data are the outer solution's mismatches at
    x = 0 and x = 1, mapped to the corresponding stretched endpoints.
    Raises ValueError unless every component has the same diffusion value.
    """
    if len(set(sys.diffusion)) != 1:
        raise ValueError("all components must share one diffusion value: a partially "
                         "perturbed system has a boundary-value reduced problem, and "
                         "distinct small values nest layers of different widths")
    eps = sys.diffusion[0]
    n = sys.n
    root = np.sqrt(eps)
    span = 1.0 / root

    # either way the interval's left end maps to x = 0 and its right to x = 1
    left_val = sys.left_bc - outer(0.0)
    right_val = sys.right_bc - outer(1.0)
    if side is Side.LEFT:
        interval = (0.0, span)

        def recover(tb):
            return root * tb
    else:
        interval = (-span, 0.0)

        def recover(tb):
            return 1.0 + root * tb

    # Newton evaluates rhs and rhs_jac on the same nodes and midpoints many
    # times per mesh, so A is tabulated once per abscissa array.
    tables: dict[bytes, np.ndarray] = {}

    def tabulated(ts: np.ndarray) -> np.ndarray:
        key = ts.tobytes()
        A = tables.get(key)
        if A is None:
            A = sys.coeff_matrix(np.clip(recover(ts), 0.0, 1.0))
            A.flags.writeable = False
            if len(tables) >= _TABLE_MEMO_SIZE:
                del tables[next(iter(tables))]
            tables[key] = A
        return A

    def rhs(ts, U):
        A = tabulated(ts)
        out = np.empty_like(U)
        out[:, :n] = U[:, n:]
        out[:, n:] = np.einsum("kij,kj->ki", A, U[:, :n])
        return out

    def rhs_jac(ts, U):
        J = np.zeros((ts.size, 2 * n, 2 * n))
        J[:, :n, n:] = np.eye(n)
        J[:, n:, :n] = tabulated(ts)
        return J

    def bc(ua, ub):
        return np.concatenate([ua[:n] - left_val, ub[:n] - right_val])

    return LayerProblem(
        side=side,
        stretched_interval=interval,
        bvp=FirstOrderBvp(
            dim=2 * n, rhs=rhs, bc=bc, interval=interval, rhs_jac=rhs_jac,
        ),
        bc_values=np.array([left_val, right_val]),
        eps=eps,
    )


@dataclass(frozen=True)
class HybridApproximation:
    """Uniformly valid composite: outer plus averaged layer corrections."""

    outer: OuterSolution
    left_layer: CollocationSolution
    right_layer: CollocationSolution
    epsilon: float

    def eval(self, x) -> np.ndarray:
        """Composite values at scalar or 1-D x in [0, 1]."""
        scalar = np.isscalar(x) or np.ndim(x) == 0
        out = self.eval_many(np.atleast_1d(np.asarray(x, dtype=float)))
        return out[0] if scalar else out

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        root = np.sqrt(self.epsilon)
        out = self.outer.eval_many(xs)
        n = out.shape[1]
        left_vals = evaluate(self.left_layer, xs / root)[:, :n]
        right_vals = evaluate(self.right_layer, (xs - 1.0) / root)[:, :n]
        out += 0.5 * (left_vals + right_vals)
        return out


def assemble_composite(
    outer: OuterSolution,
    left: CollocationSolution,
    right: CollocationSolution,
    eps: float,
) -> HybridApproximation:
    """Combine outer and layer solutions into the composite evaluator.

    Each layer solution carries Psi and Psi' for all n components.
    Evaluation maps each physical x into both stretched domains; a
    mismatched eps makes the mapped coordinate fall outside a layer
    interval, which evaluation rejects.
    """
    if not left.dim == right.dim == 2 * outer.sys.n:
        raise ValueError("layer solutions must have dimension 2n for n components")
    return HybridApproximation(
        outer=outer, left_layer=left, right_layer=right, epsilon=float(eps),
    )


def _layer_start_mesh(
    interval: tuple[float, float], cfg: SolverConfig, beta: float
) -> np.ndarray | None:
    """Piecewise-uniform Shishkin start for a layer solve; None means uniform.

    Of the N - 1 intervals (N = ``cfg.initial_mesh_points``), a quarter go
    on each of [a, a + tau] and [b - tau, b] and the rest on the middle, where
    tau = 4 ln(N - 1) / sqrt(beta): a layer decaying like exp(-sqrt(beta) t)
    is below (N - 1)^-4, the method's order, past the transition. The
    uniform start is kept when beta <= 0 (no decay bound), when the layer
    regions would cover half the interval anyway, and when float spacing
    would make the pieces not strictly increasing (span 1e15 at eps 1e-30).
    """
    a, b = interval
    n = cfg.initial_mesh_points - 1
    q = n // 4
    if beta <= 0.0 or q == 0:
        return None
    tau = _SHISHKIN_SIGMA * np.log(n) / np.sqrt(beta)
    if tau >= (b - a) / 4.0:
        return None
    mesh = np.concatenate([
        np.linspace(a, a + tau, q + 1),
        np.linspace(a + tau, b - tau, n - 2 * q + 1)[1:-1],
        np.linspace(b - tau, b, q + 1),
    ])
    return mesh if np.all(np.diff(mesh) > 0.0) else None


def hybrid_solve(
    sys: ReactionDiffusionSystem,
    cfg: SolverConfig | None = None,
    on_violation: str = "raise",
) -> HybridApproximation:
    """Full pipeline: validate, reduce, solve both layers, assemble.

    ``on_violation`` controls what happens when the structural assumptions
    fail on the 1001-point check grid: "raise" (default) raises
    AssumptionViolation, "warn" proceeds with a warning. Adaptive layer
    solves start from a Shishkin mesh with beta = the check's delta, which
    bounds the eigenvalues of A from below (Gershgorin) only when the
    assumptions hold; otherwise they start uniform.
    """
    if on_violation not in ("raise", "warn"):
        raise ValueError("on_violation must be 'raise' or 'warn'")
    report = validate_assumptions(sys)
    if not report.passed:
        msg = (
            f"structural assumptions fail (dominant={report.diagonally_dominant}, "
            f"offdiag_nonpositive={report.offdiag_nonpositive}, delta={report.delta:.6g})"
        )
        if on_violation == "raise":
            raise AssumptionViolation(msg)
        warnings.warn(msg, stacklevel=2)

    outer = solve_reduced(sys)
    left = build_layer_problem(sys, outer, Side.LEFT)
    right = build_layer_problem(sys, outer, Side.RIGHT)
    cfg = cfg or SolverConfig()
    beta = report.delta if cfg.adaptive and report.passed else 0.0
    left_sol = solve(left.bvp, cfg, _layer_start_mesh(left.stretched_interval, cfg, beta))
    right_sol = solve(right.bvp, cfg, _layer_start_mesh(right.stretched_interval, cfg, beta))
    return assemble_composite(outer, left_sol, right_sol, left.eps)
