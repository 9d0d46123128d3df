"""Two-point BVP solver: three-stage Lobatto IIIa collocation.

Solves first-order systems u' = rhs(t, u) on [a, b] with separated boundary
conditions bc(u(a), u(b)) = 0: each component depends on u(a) or on u(b),
not on both. The discretization is the three-stage Lobatto IIIa implicit
Runge-Kutta formula (abscissae 0, 1/2, 1), which is equivalent to
collocation with C^1 piecewise cubics and carries classical order 4.
Eliminating the interior stage leaves, per subinterval of width h,

    y_mid    = (y_k + y_{k+1}) / 2 - (h/8) * (f_{k+1} - f_k),
    y_{k+1}  = y_k + (h/6) * (f_k + 4 f(t_mid, y_mid) + f_{k+1}),

so the unknowns are the mesh-node values only. The resulting nonlinear
system (all interval closures plus the boundary residual) is solved by a
damped Newton iteration that factors the Jacobian at every iterate; for a
problem flagged linear it stops after the first full step, from zero: one
assembly, one factorization and one back-solve. The Jacobian is banded:
the u(a) rows go above the block-bidiagonal interval closures and the u(b)
rows below them (the de Boor-Weiss SOLVEBLOK layout), and LAPACK band LU
factors it: dgbtrf and dgbtrs of the LAPACK that numpy's linalg extension
links, called through ctypes, so scipy is not imported. A condition
coupling u(a) with u(b) would add a corner outside the band; it raises
ValueError at the first Jacobian assembly. Adaptive solves refine the mesh
by halving subintervals whose scaled ODE residual exceeds both the
tolerance and the floor that rounding leaves it at. That residual is a
5-point Gauss quadrature of the collocation cubic's defect (the Gauss
table is a literal, so numpy.polynomial is not imported); the Hermite
basis and its derivative are tabulated once at the Gauss points, so the
cubic at every quadrature point of every subinterval is one matrix
product. A fixed-mesh solve refines nothing, so it does not
estimate the residual; :func:`estimate_residual` computes it on demand.
The returned solution carries the collocation cubic as a continuous
interpolant.
"""

from __future__ import annotations

import ctypes
import itertools
import logging
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .analysis import scalar_or_1d

_log = logging.getLogger("scem_rd")


def _check_band(ab, kl: int, ku: int) -> None:
    """Raise ValueError unless ab is a writeable, Fortran-contiguous 2-D
    float64 band with room for kl sub-, ku superdiagonals and kl fill rows."""
    if not (isinstance(ab, np.ndarray) and ab.ndim == 2 and ab.dtype == np.float64
            and ab.flags.f_contiguous and ab.flags.writeable):
        raise ValueError("band must be a writeable, Fortran-contiguous 2-D float64 array")
    if not (0 <= kl and 0 <= ku and 2 * kl + ku + 1 <= ab.shape[0]):
        raise ValueError(f"a band of {ab.shape[0]} rows cannot hold kl = {kl}, ku = {ku}")


def _band_lu():
    """dgbtrf and dgbtrs from the LAPACK that numpy's linalg extension links
    (scipy-openblas, 64-bit integers); from scipy.linalg where numpy carries
    no such symbols (numpy built on MKL, Accelerate or a system LAPACK).

    The two wrappers take and return what scipy's do, for one right-hand
    side, except that the pivots are LAPACK's 1-based ones; each back-solve
    takes the pivots of its own factorization. Integer arguments are passed as addresses into
    one int64 scratch array per call, which keeps the ctypes call cheap.
    """
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
        getrf, getrs = lib.scipy_dgbtrf_64_, lib.scipy_dgbtrs_64_
    except (OSError, AttributeError):  # no such library or symbol
        from scipy.linalg.lapack import dgbtrf, dgbtrs

        return dgbtrf, dgbtrs
    getrf.argtypes = [ctypes.c_void_p] * 8
    getrs.argtypes = [ctypes.c_void_p] * 11 + [ctypes.c_size_t]  # + len(TRANS)
    getrf.restype = getrs.restype = None
    no_trans = ctypes.create_string_buffer(b"N")

    def dgbtrf(ab, kl, ku, overwrite_ab=False):
        """LU of the band ab -> (lu, piv, info); ab is the LU when overwritten."""
        _check_band(ab, kl, ku)
        lu = ab if overwrite_ab else ab.copy(order="F")
        ldab, n = lu.shape
        ints = np.empty(5 + n, dtype=np.int64)
        ints[:5] = n, kl, ku, ldab, 0
        p = ints.ctypes.data  # M = N, KL, KU, LDAB, INFO, then the pivots
        getrf(p, p, p + 8, p + 16, lu.ctypes.data, p + 24, p + 40, p + 32)
        return lu, ints[5:], int(ints[4])

    def dgbtrs(lu, kl, ku, rhs, piv):
        """Solve with dgbtrf's (lu, piv) -> (x, info); rhs is not changed.
        LAPACK swaps rows by the values in piv, so it must be dgbtrf's."""
        _check_band(lu, kl, ku)
        ldab, n = lu.shape
        if not (isinstance(rhs, np.ndarray) and rhs.dtype == np.float64
                and rhs.shape == (n,)):
            raise ValueError(f"right-hand side must be {n} float64 values")
        if not (isinstance(piv, np.ndarray) and piv.dtype == np.int64 and piv.shape == (n,)
                and piv.flags.c_contiguous):
            raise ValueError(f"pivots must be dgbtrf's {n} int64 pivots")
        x = rhs.copy()
        ints = np.array([n, kl, ku, 1, ldab, max(n, 1), 0], dtype=np.int64)
        p = ints.ctypes.data  # N, KL, KU, NRHS, LDAB, LDB, INFO
        getrs(ctypes.addressof(no_trans), p, p + 8, p + 16, p + 24, lu.ctypes.data, p + 32,
              piv.ctypes.data, x.ctypes.data, p + 40, p + 48, 1)
        return x, int(ints[6])

    return dgbtrf, dgbtrs


dgbtrf, dgbtrs = _band_lu()


class CollocationError(Exception):
    """Base class for solver failures."""


class NewtonDivergence(CollocationError):
    """Newton iteration failed to contract; bad problem or initial guess."""


class MeshOverflow(CollocationError):
    """Residual tolerance unreachable within the mesh-point budget."""


@dataclass(frozen=True)
class FirstOrderBvp:
    """A first-order two-point boundary value problem u' = rhs(t, u).

    Attributes:
        dim: number of unknowns.
        rhs: right-hand side, called on whole arrays: it maps an (m,)
            array of times and the (m, dim) states there to the (m, dim)
            derivatives. It is never called point by point.
        bc: boundary residual bc(u(a), u(b)), zero at a solution, exactly
            dim components, each depending on only one endpoint
            (separated conditions), so that Newton's Jacobian is banded.
            A component depending on both raises ValueError, and one
            depending on neither NewtonDivergence, at the first Jacobian
            assembly.
        interval: (a, b) with a < b. For boundary-layer problems this is
            the stretched domain.
        rhs_jac: optional analytic Jacobian d rhs / d u, called like rhs
            and returning (m, dim, dim). Finite differences of rhs are
            used when absent.
        linear: states that rhs and bc are affine in u, so that
            :func:`solve` takes one Newton step a pass.
        bc_jac: optional analytic Jacobians of bc, the counterpart of
            rhs_jac: bc_jac(u(a), u(b)) returns the pair (d bc / d u(a),
            d bc / d u(b)), each (dim, dim). Their zero pattern is checked
            as bc's finite differences are: a row nonzero in both raises
            ValueError. When absent, each Jacobian pass calls bc 2 dim
            times for forward differences.
    """

    dim: int
    rhs: Callable
    bc: Callable[[np.ndarray, np.ndarray], np.ndarray]
    interval: tuple[float, float]
    rhs_jac: Callable | None = None
    linear: bool = False
    bc_jac: Callable | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be positive")
        a, b = self.interval
        if not a < b:
            raise ValueError("interval must satisfy a < b")


@dataclass(frozen=True)
class Mesh:
    """Strictly increasing mesh nodes spanning the problem interval."""

    nodes: np.ndarray

    def __post_init__(self) -> None:
        if self.nodes.ndim != 1 or self.nodes.size < 2:
            raise ValueError("mesh needs at least two nodes")
        if not np.all(np.diff(self.nodes) > 0.0):  # NaN fails too
            raise ValueError("mesh nodes must be strictly increasing")

    @property
    def b(self) -> float:
        return float(self.nodes[-1])


_NEWTON_TOL = 1e-10  # a pass ends at a step this small, relative to 1 + |Y|
_MAX_NEWTON = 50  # Newton steps a pass may take
_MAX_MESH_POINTS = 100000  # nodes a mesh may have, at the start and after refinement


@dataclass(frozen=True)
class SolverConfig:
    """Residual tolerance and start mesh for :func:`solve`.

    ``initial_mesh_points`` is the node count of the first pass, at most
    the budget of 100000 nodes; None leaves it to the caller that builds a
    start mesh, and gives :func:`solve`'s uniform start 1000 nodes, which
    :func:`solve` checks. ``adaptive`` False runs a single pass on the
    initial mesh and does not estimate its residual, which only drives
    refinement (no MeshOverflow possible); useful for convergence studies.
    """

    residual_tol: float = 1e-6
    initial_mesh_points: int | None = None
    adaptive: bool = True

    def __post_init__(self) -> None:
        if not self.residual_tol > 0.0:  # NaN fails too
            raise ValueError("tolerances must be positive")
        points = self.initial_mesh_points
        if points is None:
            return
        # bool is an Integral, but True is no count
        if not (isinstance(points, numbers.Integral) and not isinstance(points, bool)
                and points >= 2):
            raise ValueError(f"initial_mesh_points must be an integer of at least 2, "
                             f"not {points!r}")
        if points > _MAX_MESH_POINTS:
            raise ValueError(f"initial_mesh_points {points} exceeds "
                             f"max_mesh_points {_MAX_MESH_POINTS}")


@dataclass(frozen=True)
class CollocationSolution:
    """Converged collocation solution with its continuous interpolant.

    :func:`evaluate` evaluates the per-subinterval collocation cubic; it
    reproduces ``node_values`` exactly at the mesh nodes and is C^1 across
    them. ``max_residual`` is the largest scaled ODE residual over all
    subintervals at termination of an adaptive solve (above the tolerance
    when refinement ended at the roundoff floor), and None after a
    fixed-mesh solve, which does not estimate it; there
    ``np.max(estimate_residual(bvp, sol))`` gives the same value.
    ``newton_iterations`` counts Newton steps summed over all refinement
    passes; a linear problem takes one a pass.
    """

    mesh: Mesh
    node_values: np.ndarray  # (N+1, dim)
    node_slopes: np.ndarray  # (N+1, dim), rhs at the nodes
    max_residual: float | None
    newton_iterations: int

    @property
    def dim(self) -> int:
        return self.node_values.shape[1]


# ---------------------------------------------------------------------------
# cubic Hermite basis (the collocation polynomial in value/slope form)
# ---------------------------------------------------------------------------

def _hermite_basis(tau, deriv=False):
    """The weights of (y0, y1, h s0, h s1) in the Hermite cubic at local tau
    in [0, 1], or in h times its derivative; each is shaped like tau."""
    t2 = tau * tau
    t3 = t2 * tau
    if not deriv:
        a, b = 3.0 * t2, 2.0 * t3
        return 1.0 - a + b, a - b, tau - 2.0 * t2 + t3, t3 - t2
    a, b = 6.0 * t2, 6.0 * tau
    return a - b, b - a, 1.0 - 4.0 * tau + 3.0 * t2, 3.0 * t2 - 2.0 * tau


def _hermite(y0, y1, s0, s1, h, tau):
    """Evaluate the Hermite cubic at local tau in [0, 1]:
    ``y0 w0 + y1 w1 + (h s0) w2 + (h s1) w3``, summed left to right with the
    weights of :func:`_hermite_basis`. h and tau are (m,), and y0/y1/s0/s1
    are (dim, m): component-major, so every product runs along the m points.
    """
    w0, w1, w2, w3 = _hermite_basis(tau)
    out = y0 * w0
    out += y1 * w1
    hs = h * s0
    hs *= w2
    out += hs
    np.multiply(h, s1, out=hs)
    hs *= w3
    out += hs
    return out


def _interp_arrays(
    nodes: np.ndarray,
    values: np.ndarray,
    slopes: np.ndarray,
    ts: np.ndarray,
) -> np.ndarray:
    a, b = nodes[0], nodes[-1]
    slack = 1e-10 * max(1.0, abs(b - a))
    # NaN fails too
    if not (ts.min(initial=np.inf) >= a - slack and ts.max(initial=-np.inf) <= b + slack):
        raise ValueError(f"evaluation point outside [{a}, {b}]")
    ts = np.clip(ts, a, b)
    k = np.searchsorted(nodes, ts, side="right")
    k -= 1
    np.clip(k, 0, nodes.size - 2, out=k)
    k1 = k + 1
    left = nodes.take(k)
    h = nodes.take(k1)
    h -= left
    ts -= left
    ts /= h  # tau
    values, slopes = np.ascontiguousarray(values.T), np.ascontiguousarray(slopes.T)
    out = _hermite(values.take(k, axis=1), values.take(k1, axis=1),
                   slopes.take(k, axis=1), slopes.take(k1, axis=1), h, ts)
    return out.T.copy()  # (m, dim) in C order


def evaluate(sol: CollocationSolution, points: float | Sequence[float] | np.ndarray,
             components: int | None = None) -> np.ndarray:
    """Interpolant values at scalar or 1-D points, shape (len(points), dim),
    one row for a scalar; or of the first ``components`` components only,
    shape (len(points), components), each component's cubic interpolated on
    its own.

    Between nodes this is the collocation cubic itself, so accuracy is
    fourth order everywhere, not just at the mesh nodes. Raises ValueError
    for points of two or more dimensions or outside the solution interval,
    and unless ``components`` is None or an integer from 1 to ``sol.dim``.
    """
    # bool is an Integral, but True is no count
    if components is not None and not (
            isinstance(components, numbers.Integral) and not isinstance(components, bool)
            and 1 <= components <= sol.dim):
        raise ValueError(f"components must be None or an integer from 1 to {sol.dim}, "
                         f"not {components!r}")
    cols = slice(components)
    values, slopes = sol.node_values[:, cols], sol.node_slopes[:, cols]
    return scalar_or_1d(lambda ts: _interp_arrays(sol.mesh.nodes, values, slopes, ts), points)


# ---------------------------------------------------------------------------
# rhs / Jacobian evaluation helpers
# ---------------------------------------------------------------------------

def _rhs_all(bvp: FirstOrderBvp, ts: np.ndarray, U: np.ndarray) -> np.ndarray:
    """rhs at many points; ts (m,), U (m, dim) -> (m, dim)."""
    return np.asarray(bvp.rhs(ts, U), dtype=float).reshape(U.shape)


def _fd_jacobian(fun, U: np.ndarray, F: np.ndarray) -> np.ndarray:
    """One-sided differences d fun_i / d U_j over the last axis of U, F = fun(U),
    with step sqrt(machine eps) * (1 + |U_j|): one call of fun per column j."""
    out = np.empty(F.shape + U.shape[-1:])
    step = np.sqrt(np.finfo(float).eps)
    for j in range(U.shape[-1]):
        dU = U.copy()
        dj = step * (1.0 + np.abs(U[..., j]))
        dU[..., j] += dj
        out[..., j] = (fun(dU) - F) / dj[..., None]
    return out


def _jac_all(bvp: FirstOrderBvp, ts: np.ndarray, U: np.ndarray, F: np.ndarray) -> np.ndarray:
    """d rhs / d u at many points; returns (m, dim, dim).

    Uses the analytic Jacobian when provided, otherwise one-sided finite
    differences reusing the already-computed rhs values F.
    """
    if bvp.rhs_jac is not None:
        m, dim = U.shape
        return np.asarray(bvp.rhs_jac(ts, U), dtype=float).reshape(m, dim, dim)
    return _fd_jacobian(lambda V: _rhs_all(bvp, ts, V), U, F)


def _bc_jacobians(bvp: FirstOrderBvp, ua: np.ndarray, ub: np.ndarray, r0: np.ndarray):
    """Jacobians of bc with respect to both endpoints: the analytic bc_jac
    when provided, otherwise finite differences over the stacked [ua, ub]."""
    dim = bvp.dim
    if bvp.bc_jac is not None:
        return tuple(np.asarray(B, dtype=float).reshape(dim, dim) for B in bvp.bc_jac(ua, ub))
    B = _fd_jacobian(lambda w: np.asarray(bvp.bc(w[:dim], w[dim:]), dtype=float),
                     np.concatenate([ua, ub]), r0)
    return B[:, :dim], B[:, dim:]


# ---------------------------------------------------------------------------
# collocation residual and Newton iteration
# ---------------------------------------------------------------------------

def _collocation_system(bvp: FirstOrderBvp, nodes: np.ndarray, Y: np.ndarray):
    """Residual of the Lobatto IIIa equations plus boundary conditions.

    Returns (F_flat, data) where data carries the pieces the Jacobian
    assembly reuses.
    """
    h = np.diff(nodes)
    t_mid = nodes[:-1] + 0.5 * h
    f_nodes = _rhs_all(bvp, nodes, Y)
    y_mid = 0.5 * (Y[:-1] + Y[1:]) - (h / 8.0)[:, None] * (f_nodes[1:] - f_nodes[:-1])
    f_mid = _rhs_all(bvp, t_mid, y_mid)
    phi = Y[1:] - Y[:-1] - (h / 6.0)[:, None] * (f_nodes[:-1] + 4.0 * f_mid + f_nodes[1:])
    bc_res = np.asarray(bvp.bc(Y[0].copy(), Y[-1].copy()), dtype=float).reshape(bvp.dim)
    F = np.concatenate([bc_res, phi.ravel()])
    return F, (h, t_mid, f_nodes, y_mid, f_mid, bc_res)


def _jacobian_blocks(bvp: FirstOrderBvp, nodes: np.ndarray, Y: np.ndarray, data):
    """Interval closure blocks L, R (n_int, dim, dim) and bc blocks Ba, Bb.

    Closure k depends on node k through L[k] and on node k+1 through R[k].
    """
    h, t_mid, f_nodes, y_mid, f_mid, bc_res = data
    eye = np.eye(bvp.dim)

    J_nodes = _jac_all(bvp, nodes, Y, f_nodes)
    J_mid = _jac_all(bvp, t_mid, y_mid, f_mid)

    h6 = (h / 6.0)[:, None, None]
    h3 = (h / 3.0)[:, None, None]
    h212 = (h * h / 12.0)[:, None, None]
    L = -eye[None] - h6 * J_nodes[:-1] - h3 * J_mid - h212 * (J_mid @ J_nodes[:-1])
    R = eye[None] - h6 * J_nodes[1:] - h3 * J_mid + h212 * (J_mid @ J_nodes[1:])

    Ba, Bb = _bc_jacobians(bvp, Y[0], Y[-1], bc_res)
    return L, R, Ba, Bb


def splu(J):
    """SuperLU factorization of the sparse matrix J; scipy.sparse is
    imported on the first call. Nothing in this package calls it: the
    engine factors by band LU only. The name stays for perfbench's tracer,
    which patches it, and goes in ROADMAP item 1 part B, after part A2, as
    does the CLI's ``--jobs``."""
    from scipy.sparse.linalg import splu as superlu

    return superlu(J)


def _newton_step(bvp: FirstOrderBvp, nodes: np.ndarray, Y: np.ndarray, F: np.ndarray, data):
    """The Newton step d, shaped like Y, that solves J d = -F for the
    collocation Jacobian J at Y: one LAPACK band LU and one back-solve.

    Every bc row must depend on exactly one endpoint, as its zero pattern
    in (Ba, Bb) shows. A row on both raises ValueError, before any
    factorization; a row on neither raises NewtonDivergence, since J is
    then singular. Rows are ordered u(a)-only bc rows, interval closures,
    u(b)-only bc rows; the matrix is then banded with kl = pa + dim - 1
    sub- and ku = max(dim - 1, 2 dim - 1 - pa) superdiagonals, pa being
    the number of u(a) rows. Entry (r, c) sits at ab[kl + ku + r - c, c].
    """
    L, R, Ba, Bb = _jacobian_blocks(bvp, nodes, Y, data)
    on_a = np.any(Ba != 0.0, axis=1)
    on_b = np.any(Bb != 0.0, axis=1)
    if not np.all(on_a | on_b):
        raise NewtonDivergence(
            "collocation Jacobian is singular: a boundary condition depends "
            "on neither endpoint"
        )
    coupled = np.flatnonzero(on_a & on_b)
    if coupled.size:
        raise ValueError(f"boundary condition row {coupled[0]} depends on both u(a) and "
                         "u(b); only separated conditions are supported")
    n_int, dim, _ = L.shape
    pa = int(np.count_nonzero(on_a))
    kl = pa + dim - 1
    ku = max(dim - 1, 2 * dim - 1 - pa)
    ab = np.zeros((2 * kl + ku + 1, (n_int + 1) * dim), order="F")
    # V[k, j] is band column k * dim + j (a view). Closure k fills its rows
    # d - j .. d - j + dim - 1 from L, closure k - 1 the dim rows above from R.
    V = ab.T.reshape(n_int + 1, dim, -1)
    d = kl + ku + pa
    for j in range(dim):
        V[:-1, j, d - j : d - j + dim] = L[:, :, j]
        V[1:, j, d - dim - j : d - j] = R[:, :, j]
    r, c = np.indices((pa, dim))
    ab[kl + ku + r - c, c] = Ba[on_a]
    r, c = np.indices((dim - pa, dim))
    ab[kl + ku + pa + r - c, n_int * dim + c] = Bb[~on_a]

    lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
    if info > 0:
        raise NewtonDivergence(f"collocation Jacobian is singular: zero pivot {info}")
    rhs = -np.concatenate([F[:dim][on_a], F[dim:], F[:dim][~on_a]])
    step, _ = dgbtrs(lu, kl, ku, rhs, piv)
    return step.reshape(Y.shape)


@np.errstate(over="ignore", invalid="ignore")
def _newton(bvp: FirstOrderBvp, nodes: np.ndarray, Y: np.ndarray):
    """Damped Newton on the collocation equations. Returns (Y, iterations).

    Each iteration takes its step d from one :func:`_newton_step` at the
    current iterate. One full Newton step solves linear equations, so for a
    ``linear`` problem the first step gives the result, Y + d, with no line
    search; NewtonDivergence is raised when it is not finite. Otherwise a
    step below ``_NEWTON_TOL`` gives Y + d, and a larger one is tried in
    full and then halved, up to ten times, until the residual norm
    decreases. An overflow raises no warning: it leaves a non-finite
    residual, which the line search rejects.
    """
    F, data = _collocation_system(bvp, nodes, Y)
    for it in range(1, _MAX_NEWTON + 1):
        d = _newton_step(bvp, nodes, Y, F, data)
        if bvp.linear:
            Y = Y + d
            if not np.all(np.isfinite(Y)):
                raise NewtonDivergence("linear collocation solve is not finite")
            return Y, it
        if _step_size(d, Y) <= _NEWTON_TOL:
            return Y + d, it
        alpha = 1.0
        for _ in range(11):  # full step plus up to 10 halvings
            Y_try = Y + alpha * d
            F_try, data_try = _collocation_system(bvp, nodes, Y_try)
            if _decreases(F_try, F, alpha):
                break
            alpha *= 0.5
        else:
            raise NewtonDivergence(
                f"no residual decrease after 10 step halvings (iteration {it})"
            )
        Y, F, data = Y_try, F_try, data_try
    raise NewtonDivergence(f"Newton did not converge in {_MAX_NEWTON} iterations")


def _step_size(d: np.ndarray, Y: np.ndarray) -> float:
    return float(np.max(np.abs(d) / (1.0 + np.abs(Y))))


def _decreases(F_try: np.ndarray, F: np.ndarray, alpha: float) -> bool:
    """Armijo-type sufficient decrease of the residual norm, ||F_try|| <=
    (1 - 1e-4 alpha) ||F||, or roundoff level."""
    norm_try = float(np.linalg.norm(F_try))
    floor = 1e-13 * np.sqrt(F.size)
    return norm_try <= (1.0 - 1e-4 * alpha) * float(np.linalg.norm(F)) or norm_try <= floor


# ---------------------------------------------------------------------------
# residual estimation and adaptive refinement
# ---------------------------------------------------------------------------

#: 5-point Gauss-Legendre abscissae and weights on [-1, 1], bitwise
#: numpy.polynomial.legendre.leggauss(5)
_GAUSS_X = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                     0.5384693101056831, 0.906179845938664])
_GAUSS_W = np.array([0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                     0.4786286704993663, 0.23692688505618928])
_GAUSS_TAU = 0.5 * (_GAUSS_X + 1.0)  # Gauss points mapped to [0, 1]
# (5, 4): weights of (y0, y1, h s0, h s1) at the Gauss points, giving the
# cubic and its derivative times h (the Hermite basis of _hermite_basis)
_GAUSS_VALUE, _GAUSS_SLOPE = (
    np.stack(_hermite_basis(_GAUSS_TAU, deriv), axis=1) for deriv in (False, True)
)


@np.errstate(over="ignore", invalid="ignore")
def _residual_per_interval(
    bvp: FirstOrderBvp,
    nodes: np.ndarray,
    values: np.ndarray,
    slopes: np.ndarray,
) -> np.ndarray:
    """:func:`estimate_residual` on arrays. Each subinterval's defects are
    scaled by 2^-e, e from frexp of their maximum (0 for NaN and inf), with
    ``np.ldexp``: exact, and no factor is formed that could overflow."""
    # max_i |Sp_i - fq_i| / (1 + |fq_i|) in place, in the plain formula's operation
    # order (bitwise equal); np.max over the short component axis is ~15x slower
    h = np.diff(nodes)
    n_int, dim = h.size, bvp.dim
    coef = np.empty((4, n_int, dim))
    coef[0], coef[1] = values[:-1], values[1:]
    np.multiply(h[:, None], slopes[:-1], out=coef[2])
    np.multiply(h[:, None], slopes[1:], out=coef[3])
    coef = coef.reshape(4, -1)
    S = (_GAUSS_VALUE @ coef).reshape(5, n_int, dim)
    d = (_GAUSS_SLOPE @ coef).reshape(5, n_int, dim)
    d /= h[:, None]
    tq = nodes[:-1] + _GAUSS_TAU[:, None] * h  # (5, N)
    fq = _rhs_all(bvp, tq.ravel(), S.reshape(-1, dim)).reshape(S.shape)
    d -= fq
    np.abs(d, out=d)
    d /= np.add(1.0, np.abs(fq))
    g = d[:, :, 0].copy()  # (5, N); np.maximum, unlike fmax, keeps a NaN
    for j in range(1, dim):
        np.maximum(g, d[:, :, j], out=g)
    e = np.frexp(np.max(g, axis=0))[1]
    np.ldexp(g, -e, out=g)
    wg = (_GAUSS_W / 2.0)[:, None] * g
    wg *= g
    return np.ldexp(np.sqrt(np.sum(wg, axis=0)), e)


def estimate_residual(bvp: FirstOrderBvp, sol: CollocationSolution) -> np.ndarray:
    """Scaled ODE residual per subinterval, by 5-point Gauss quadrature.

    Each entry is the root-mean-square over the subinterval of the
    componentwise-scaled defect max_i |u'_i(t) - rhs_i(t, u(t))| / (1 +
    |rhs_i|); the maximum over subintervals is the ``max_residual`` of an
    adaptive solve. A fixed-mesh solve leaves ``max_residual`` None, and
    this call is how to get its residual. The cubic u and its derivative
    at the Gauss points come from the Hermite basis tabulated there,
    applied to the node values and slopes. The maximum over components is
    taken one component at a time. Each subinterval's mean is taken of its
    defects scaled exactly by the power of two that puts the largest in
    [1/2, 1), and scaled back: every finite defect gives a finite estimate,
    and a tiny one a nonzero estimate. A non-finite defect at a Gauss point
    makes that subinterval's estimate non-finite (NaN propagates), which an
    adaptive :func:`solve` rejects with NewtonDivergence.
    """
    return _residual_per_interval(bvp, sol.mesh.nodes, sol.node_values, sol.node_slopes)


#: the least power of two that keeps the rounding residuals measured under
#: the floor: on a fine mesh they reach 0.98 of it for example1 at eps 2^-4
#: and 0.35 for example2; with 8, example1 at eps 1e-8 and residual_tol
#: 1e-12 takes 8 passes a layer instead of 6
_FLOOR_FACTOR = 16.0


@np.errstate(over="ignore", invalid="ignore")
def _roundoff_floor(nodes: np.ndarray, values: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Per subinterval, the scaled residual that rounding alone can leave.

    The band LU is backward stable, so each interval closure holds only to
    about u (|y0| + |y1| + h (|s0| + |s1|)), u the machine epsilon, and the
    cubic's derivative is off by that over h; the residual divides it by
    1 + |rhs|, taken here at its smaller end value. The floor is the
    largest such ratio over the components, times ``_FLOOR_FACTOR``; one
    that overflows gives an infinite floor, and no warning.
    """
    h = np.diff(nodes)[:, None]
    y, s = np.abs(values), np.abs(slopes)
    ratio = (y[:-1] + y[1:] + h * (s[:-1] + s[1:])) / (h * (1.0 + np.minimum(s[:-1], s[1:])))
    return _FLOOR_FACTOR * np.finfo(float).eps * np.max(ratio, axis=1)


#: node count of a uniform start when ``initial_mesh_points`` is None
_UNIFORM_POINTS = 1000


def solve(bvp: FirstOrderBvp, cfg: SolverConfig | None = None,
          start: np.ndarray | None = None) -> CollocationSolution:
    """Solve the BVP by Lobatto IIIa collocation with residual refinement.

    The first pass runs on the nodes of ``start``, or without it on
    ``cfg.initial_mesh_points`` uniform points (1000 when None). A start
    mesh must be strictly increasing, begin and end exactly at
    ``bvp.interval`` and have at most the budget of 100000 nodes (so must
    the uniform one), or ValueError is raised. Newton solves the
    collocation equations on the current mesh to the step tolerance, from
    ones on the first mesh; a ``linear`` problem takes one step from zero
    on every mesh. With ``cfg.adaptive`` False that single pass is the
    result, and its residual is not estimated (``max_residual`` None).
    Otherwise subintervals whose scaled residual exceeds both
    ``cfg.residual_tol`` and its :func:`_roundoff_floor` are halved and a
    Newton pass repeats from the interpolated previous solution; a pass
    with no such subinterval is the result, its residual above the
    tolerance only at the floor. The floor is computed only on passes above
    the tolerance. Each pass and its path, and an end at the floor, are
    logged at debug level on the "scem_rd" logger. Raises ValueError when a boundary
    condition couples u(a) with u(b), NewtonDivergence when one depends on
    neither, the iteration fails to contract, the linear step is not
    finite or (adaptive mode only) the residual estimate is not finite, and
    MeshOverflow when the subintervals above their floor need more nodes
    than the budget (adaptive mode only).
    """
    cfg = cfg or SolverConfig()
    if start is None:
        nodes = np.linspace(*bvp.interval, cfg.initial_mesh_points or _UNIFORM_POINTS)
    else:
        nodes = Mesh(np.array(start, dtype=float)).nodes
        a, b = bvp.interval
        if nodes[0] != a or nodes[-1] != b:
            raise ValueError(f"start mesh spans [{float(nodes[0])!r}, {float(nodes[-1])!r}], "
                             f"not the interval [{a!r}, {b!r}]")
    if nodes.size > _MAX_MESH_POINTS:
        raise ValueError(f"start mesh of {nodes.size} nodes exceeds max_mesh_points "
                         f"{_MAX_MESH_POINTS}")
    Y = np.zeros((nodes.size, bvp.dim)) if bvp.linear else np.ones((nodes.size, bvp.dim))

    total_newton = 0
    for n_pass in itertools.count(1):
        Y, iters = _newton(bvp, nodes, Y)
        total_newton += iters
        path = "linear solve (1 factorization)" if bvp.linear else f"{iters} Newton iterations"
        slopes = _rhs_all(bvp, nodes, Y)
        if cfg.adaptive:
            res = _residual_per_interval(bvp, nodes, Y, slopes)
            max_res = float(np.max(res))
            if not np.isfinite(max_res):  # no interval would be marked for halving
                raise NewtonDivergence("residual estimate is not finite")
            outcome = f"max residual {max_res:.3e}"
        else:
            max_res = None
            outcome = "residual not estimated (fixed mesh)"
        _log.debug("pass %d: %d nodes, %s, %s", n_pass, nodes.size, path, outcome)
        if max_res is not None and max_res > cfg.residual_tol:
            floor = _roundoff_floor(nodes, Y, slopes)
            bad = res > np.maximum(floor, cfg.residual_tol)
            if not bad.any():
                _log.debug("pass %d: residual above %.3e only at its roundoff floor "
                           "(largest floor %.3e)", n_pass, cfg.residual_tol, np.max(floor))
        if max_res is None or max_res <= cfg.residual_tol or not bad.any():
            return CollocationSolution(
                mesh=Mesh(nodes),
                node_values=Y,
                node_slopes=slopes,
                max_residual=max_res,
                newton_iterations=total_newton,
            )
        mids = nodes[:-1][bad] + 0.5 * np.diff(nodes)[bad]
        new_nodes = np.sort(np.concatenate([nodes, mids]))
        if new_nodes.size > _MAX_MESH_POINTS:
            raise MeshOverflow(
                f"residual {max_res:.3e} > {cfg.residual_tol:.3e} still needs "
                f"refinement but {new_nodes.size} points would exceed the "
                f"budget of {_MAX_MESH_POINTS}"
            )
        Y = (np.zeros((new_nodes.size, bvp.dim)) if bvp.linear
             else _interp_arrays(nodes, Y, slopes, new_nodes))
        nodes = new_nodes
