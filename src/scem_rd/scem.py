"""Hybrid asymptotic-numerical pipeline for layered reaction-diffusion systems.

A system must pass the structural assumption check (strict diagonal
dominance, non-positive off-diagonals; AssumptionViolation otherwise).
The uniformly valid approximation is then assembled in three steps:

1. Outer (reduced) solution: drop the diffusion terms and solve the
   pointwise algebraic system A(x) y = f(x).
2. Complementary layer corrections: near each end, magnify the layer with
   its distance from that end, s = |x - end| / sqrt(eps), and solve the
   homogeneous complementary system

       -Psi'' + A(x) Psi = 0

   on [0, L] by the Lobatto IIIa collocation engine. The equation does not
   change under s -> -s, so both ends pose the same kind of problem.
   Adaptive solves truncate the domain when the stretched image
   1/sqrt(eps) is at least T = 42 / sqrt(delta): the assumption check's
   delta bounds the eigenvalues of A from below, so a layer decays at
   least like exp(-sqrt(delta) s), below exp(-42) ~ 6e-19 past T. Each
   end's layer is then solved on [0, T] with the outer solution's boundary
   mismatch (prescribed minus outer) at s = 0 and Psi = 0 at the cut, so
   the cost does not grow as eps -> 0. Fixed-mesh solves and shorter
   images solve one problem from x = 0 on the full image [0, L],
   L = 1/sqrt(eps), with the mismatches at both ends; it carries both
   layers. Every solve starts by the one rule of :func:`hybrid_solve`.
3. Composite: y(x) = y_out(x) plus each layer correction Psi(s) where the
   distance s from its end lies in [0, L]. The composite holds a tuple of
   layers, the k-th measured from x = k: when truncated, the x = 0 layer at
   x / sqrt(eps) for x <= T sqrt(eps) and the x = 1 layer at
   (1 - x) / sqrt(eps) for x >= 1 - T sqrt(eps); on the full image, the one
   layer at x / sqrt(eps) on all of [0, 1]. Each boundary datum cancels its
   mismatch, so the prescribed boundary values hold exactly by
   construction.

All components must share one diffusion value; unequal values raise
ValueError. With some eps_i = 1 (partially perturbed) the reduced problem is
a boundary-value problem that step 1 misses by O(1), and distinct small
values nest layers of different widths.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .analysis import check_domain, scalar_or_1d
from .collocation import CollocationSolution, FirstOrderBvp, SolverConfig, evaluate, solve
from .system import AssumptionReport, ReactionDiffusionSystem, validate_assumptions

#: 2-norm condition-number ceiling beyond which the reduced matrix counts as
#: singular; the Varah bound certifies points below it, an SVD checks the rest
_SINGULAR_COND = 1e14
#: A tables kept per layer problem, oldest dropped first; one mesh needs
#: three (nodes, midpoints, residual quadrature points)
_TABLE_MEMO_SIZE = 4
#: truncated layer length in decay lengths 1 / sqrt(delta): past it a layer
#: is below exp(-42) ~ 6e-19 of its boundary value
_TRUNCATION = 42.0
#: node count of an adaptive layer's graded start mesh by the number of
#: domain ends it reaches, when ``initial_mesh_points`` is None
_GRADED_POINTS = {1: 400, 2: 500}


class SingularReducedMatrix(Exception):
    """A(x) is numerically singular at a queried point."""


class AssumptionViolation(Exception):
    """The system fails diagonal dominance or the off-diagonal sign condition."""


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
    others get an SVD. Queries outside [0, 1], NaN included, raise
    ValueError.
    """

    sys: ReactionDiffusionSystem

    def __call__(self, x) -> np.ndarray:
        return scalar_or_1d(self.eval_many, x)

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Pointwise solves on a 1-D grid; returns shape (len(xs), n)."""
        xs = check_domain(xs, "outer solution")
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
    """Complementary boundary-layer BVP in the distance from one end.

    ``bvp`` is the first-order recast (dimension 2n for n components) of
    -Psi'' + A(x) Psi = 0 on [0, L] in s = |x - end| / sqrt(eps), with A
    evaluated at x = end + sqrt(eps) s for end 0 and end - sqrt(eps) s for
    end 1. ``bc_values`` rows are the Dirichlet data at s = 0 and s = L:
    the boundary mismatch (prescribed minus outer) at ``end``, so the
    assembled composite meets the prescribed boundary condition there, and
    at s = L the other end's mismatch on the full image or zero at the cut
    of a truncated interval.
    """

    end: float
    bvp: FirstOrderBvp
    bc_values: np.ndarray  # (2, n): data at s = 0 and s = L


def build_layer_problem(
    sys: ReactionDiffusionSystem,
    end: float,
    length: float | None = None,
    outer_ends: np.ndarray | None = None,
) -> LayerProblem:
    """Construct the complementary layer problem at x = ``end`` (0 or 1).

    The interval is the full image [0, 1/sqrt(eps)] of the physical domain,
    with the outer solution's mismatches at ``end`` and at the other end as
    data. A ``length`` T truncates it to [0, T]: the mismatch at ``end``,
    and Psi = 0 at the cut. ``outer_ends`` is y_out at x = 0 and 1, shape
    (2, n); it does not depend on eps, and ``solve_reduced(sys)`` gives it
    when omitted.
    The problem carries the constant Jacobian of its Dirichlet conditions
    as ``bc_jac``. Raises ValueError unless ``end`` is 0 or 1 (not a bool),
    every component has the same diffusion value and 0 < T <= 1/sqrt(eps).
    """
    # bool is a number, but True is no end
    if isinstance(end, (bool, np.bool_)) or end not in (0.0, 1.0):
        raise ValueError(f"layer end {end!r} is not 0 or 1")
    if len(set(sys.diffusion)) != 1:
        raise ValueError("all components must share one diffusion value: a partially "
                         "perturbed system has a boundary-value reduced problem, and "
                         "distinct small values nest layers of different widths")
    end = float(end)
    n = sys.n
    root = np.sqrt(sys.diffusion[0])
    span = 1.0 / root
    if length is not None and not 0.0 < length <= span:
        raise ValueError(f"truncated length {length!r} is not in (0, 1/sqrt(eps) = {span!r}]")

    # data at s = 0 (this end) and s = L (the other end, or zero at a cut)
    if outer_ends is None:
        outer_ends = solve_reduced(sys).eval_many(np.array([0.0, 1.0]))
    order = [int(end), 1 - int(end)]
    data = np.array([sys.left_bc, sys.right_bc])[order] - outer_ends[order]
    if length is not None:
        data[1] = 0.0
    data.flags.writeable = False
    near_val, far_val = data
    step = -root if end else root

    # Each pass evaluates rhs and rhs_jac on the same nodes and midpoints
    # several times, so A is tabulated once per abscissa array.
    tables: dict[bytes, np.ndarray] = {}

    def tabulated(ts: np.ndarray) -> np.ndarray:
        key = ts.tobytes()
        A = tables.get(key)
        if A is None:
            A = sys.coeff_matrix(np.clip(end + step * ts, 0.0, 1.0))
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
        return np.concatenate([ua[:n] - near_val, ub[:n] - far_val])

    # d bc / d ua and d bc / d ub: Psi(0) in the first n rows, Psi(L) in the last n
    bc_blocks = np.zeros((2, 2 * n, 2 * n))
    bc_blocks[0, :n, :n] = bc_blocks[1, n:, :n] = np.eye(n)
    bc_blocks.flags.writeable = False

    def bc_jac(ua, ub):
        return bc_blocks

    interval = (0.0, span if length is None else length)
    return LayerProblem(
        end=end,
        bvp=FirstOrderBvp(
            dim=2 * n, rhs=rhs, bc=bc, interval=interval, rhs_jac=rhs_jac, linear=True,
            bc_jac=bc_jac,
        ),
        bc_values=data,
    )


@dataclass(frozen=True)
class HybridApproximation:
    """Uniformly valid composite: outer plus layer corrections.

    ``layers[k]`` is posed in the distance s = |x - k| / sqrt(eps) from
    x = k, and its correction is added where s lies in the layer's interval
    [0, L] and is zero elsewhere; eps is the outer system's shared
    diffusion value. Truncated layers are two, both on [0, T]. On the full
    stretched image one layer from x = 0 covers [0, 1/sqrt(eps)] with both
    boundary mismatches. Raises ValueError unless there are one or two
    layers, each of dimension 2n for n components with its interval in the
    stretched image, and a lone layer covers all of it.
    """

    outer: OuterSolution
    layers: tuple[CollocationSolution, ...]

    def __post_init__(self) -> None:
        eps = self.outer.sys.diffusion[0]
        span = 1.0 / np.sqrt(eps)
        if len(self.layers) not in (1, 2):
            raise ValueError(f"a composite has one or two layers, not {len(self.layers)}")
        for k, layer in enumerate(self.layers):
            if layer.dim != 2 * self.outer.sys.n:
                raise ValueError("layer solutions must have dimension 2n for n components")
            reach = layer.mesh.b
            if reach > span or (len(self.layers) == 1 and reach != span):
                raise ValueError(f"layer at x = {k} interval [0, {reach!r}] does not fit "
                                 f"the stretched image of eps = {eps!r}")

    def eval(self, x) -> np.ndarray:
        """Composite values at scalar or 1-D x in [0, 1]."""
        return scalar_or_1d(self.eval_many, x)

    def eval_many(self, xs: np.ndarray, outer_values: np.ndarray | None = None) -> np.ndarray:
        """Composite values on a 1-D grid, shape (len(xs), n). ``outer_values``,
        if given, is ``self.outer.eval_many(xs)`` (not modified); it does not
        depend on eps, so composites of one problem can share it. Raises
        ValueError unless xs is 1-D, every x lies in [0, 1] and
        ``outer_values`` has shape (len(xs), n)."""
        xs = check_domain(xs, "composite")
        n = self.outer.sys.n
        if outer_values is None:
            out = self.outer.eval_many(xs)
        elif np.shape(outer_values) == (len(xs), n):
            out = np.array(outer_values, dtype=float)
        else:
            raise ValueError(f"outer_values has shape {np.shape(outer_values)}, "
                             f"not (len(xs), n) = {(len(xs), n)}")
        root = np.sqrt(self.outer.sys.diffusion[0])
        for end, layer in enumerate(self.layers):
            s = np.abs(xs - end) / root
            near = s <= layer.mesh.b
            psi = evaluate(layer, s[near], n)  # Psi, not Psi'
            for j in range(n):  # a column at a time: masked rows of n are slow
                column = out[:, j]
                column[near] += psi[:, j]
        return out


def hybrid_solve(
    sys: ReactionDiffusionSystem,
    cfg: SolverConfig | None = None,
) -> HybridApproximation:
    """Full pipeline: validate, reduce, solve the layers, assemble.

    Raises AssumptionViolation when the structural assumptions fail on the
    1001-point check grid. The check's delta then bounds the eigenvalues of
    A from below (Gershgorin), and an adaptive solve whose stretched image
    1/sqrt(eps) is at least T = 42 / sqrt(delta) solves one layer problem
    at each end, measured from that end on [0, T]. Otherwise, and on a
    fixed mesh, one problem from x = 0 covers the full image and carries
    both boundary mismatches, and the result has that one layer.

    One rule starts every layer solve. Let ``sides`` be the number of
    ends of [0, 1] that the layer's interval reaches: 1 when truncated, 2
    on the full image. An adaptive solve starts from the graded mesh of
    :func:`_graded_mesh` on those sides, of ``cfg.initial_mesh_points``
    nodes or, when None, 400 for one side and 500 for two. A fixed-mesh
    solve starts, and stays, on the uniform mesh of
    :func:`scem_rd.collocation.solve` (1000 nodes when None). Every layer
    then meets its Dirichlet data exactly at the ``sides`` ends it reaches
    (:func:`_meeting_datum`).

    The check depends only on ``sys.coeff``, and the outer solution's
    values at x = 0 and 1 only on ``sys.coeff`` and ``sys.forcing``. Both
    are kept on the system and shared by every system that
    ``dataclasses.replace`` makes from it: the eps sweep of one problem
    (``ProblemConfig.build_system``) computes them once. A failing check
    or end value raises on every call.
    """
    report, outer_ends = _report_and_ends(sys)
    cfg = cfg or SolverConfig()
    sigma = np.sqrt(report.delta)
    # unequal diffusion values are raised by build_layer_problem
    span = 1.0 / np.sqrt(sys.diffusion[0])
    cut = _TRUNCATION / sigma
    if cfg.adaptive and cut <= span:  # a layer at each end, cut at T
        sides, length, rate = 1, cut, _TRUNCATION / 4.0
    else:  # one layer on the full image
        sides, length, rate = 2, span, sigma * span / 8.0
    ends = (0.0, 1.0) if sides == 1 else (0.0,)
    # build both problems before either solve: interleaving them shifts when
    # the cyclic garbage collector runs, and measured ~8% slower at deep eps
    problems = [build_layer_problem(sys, end, length if sides == 1 else None, outer_ends)
                for end in ends]
    start = None
    if cfg.adaptive:
        points = cfg.initial_mesh_points or _GRADED_POINTS[sides]
        start = _graded_mesh(length, rate, points, sides)
    return HybridApproximation(solve_reduced(sys), tuple(
        _meeting_datum(solve(p.bvp, cfg, start=start), p.bc_values[:sides]) for p in problems))


def _meeting_datum(layer: CollocationSolution, data: np.ndarray) -> CollocationSolution:
    """The layer with Psi(0) set to its Dirichlet datum ``data[0]`` and,
    when ``data`` has a second row, Psi(L) to ``data[1]``. The band LU
    meets them only to rounding, of either sign; set exactly, a zero datum
    gives a composite of exactly 0 at its end. A full-image layer meets
    both of its data; a truncated one only the first, as the cut's Psi = 0
    is no boundary of the domain."""
    values = layer.node_values.copy()
    values[[0, -1][:len(data)], :data.shape[1]] = data
    return dataclasses.replace(layer, node_values=values)


def _graded_mesh(length: float, rate: float, points: int, sides: int) -> np.ndarray:
    """Bakhvalov-graded start mesh of ``points`` nodes on [0, L], L =
    ``length``, graded towards s = 0 (``sides`` 1) or both ends (2).

    Equidistributing the h^4 error of the slowest mode exp(-sigma s) gives
    h(s) ~ exp(sigma s / 4) (Bakhvalov 1969; Roos & Linss, Computing 63,
    1999): on the graded stretch [0, M], M = L / sides, the nodes are
    s_i = -(M / r) ln(1 - c_i q), q = 1 - exp(-r), at the rate r = sigma M
    / 4 and the shares c_i = sides i / (points - 1). A truncated layer has
    T = _TRUNCATION / sigma, so its rate is _TRUNCATION / 4 for every
    system. On two sides the other half is the mirror image s_(N-i) =
    L - s_i, with s = L/2 in the middle when the count is odd. The nodes
    are 0 and L exactly at the ends.
    """
    reach = length / sides
    share = np.arange(points if sides == 1 else points // 2) * (sides / (points - 1))
    nodes = np.log1p(share * np.expm1(-rate)) * (-reach / rate)
    if sides == 1:
        nodes[-1] = length
        return nodes
    return np.concatenate([nodes, [reach] * (points % 2), length - nodes[::-1]])


def _report_and_ends(sys: ReactionDiffusionSystem) -> tuple[AssumptionReport, np.ndarray]:
    """The assumption report of a system that passes the check, and y_out
    at x = 0 and 1, kept on ``sys`` for the very coefficient and forcing
    objects they were computed on; raises AssumptionViolation when the
    check fails. The end values are kept only once computed, so a failing
    evaluation raises again."""
    kept = sys._kept  # [coeff, forcing, report, ends (None until computed)]
    if not kept or kept[0] is not sys.coeff or kept[1] is not sys.forcing:
        kept[:] = [sys.coeff, sys.forcing, validate_assumptions(sys), None]
    report = kept[2]
    if not report.passed:
        raise AssumptionViolation(
            f"structural assumptions fail (dominant={report.diagonally_dominant}, "
            f"offdiag_nonpositive={report.offdiag_nonpositive}, delta={report.delta:.6g})"
        )
    if kept[3] is None:
        kept[3] = solve_reduced(sys).eval_many(np.array([0.0, 1.0]))
        kept[3].flags.writeable = False
    return report, kept[3]
