"""Error estimation and convergence-order machinery.

Implements the double-mesh principle: solve on N and 2N uniform grids,
take per-component maxima of the differences at shared nodes,

    D[eps, i, N] = max_j |Y_i^{2N}(x_j) - Y_i^N(x_j)|,
    D[i, N]      = max over eps,
    p[i, N]      = log2(D[i, N] / D[i, 2N]),

plus the maximum norm used throughout and a closed-form oracle for
constant-coefficient systems with zero boundary values (the workhorse of
the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: double-mesh differences at or below this level are double-precision
#: noise; convergence orders computed from them are reported as undefined
ORDER_NOISE_FLOOR = 1e-15


def scalar_or_1d(eval_many: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """``eval_many`` at a scalar x, as one row, or at 1-D x, as one row per
    point; raises ValueError for x of two or more dimensions."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"x must be a scalar or 1-D, not of shape {xs.shape}")
    out = eval_many(np.atleast_1d(xs))
    return out[0] if xs.ndim == 0 else out


def check_domain(xs, what: str) -> np.ndarray:
    """Return xs as a float array; raise ValueError unless it is 1-D and
    every x lies in [0, 1] (NaN fails too)."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError(f"{what} takes 1-D x, not of shape {xs.shape}")
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError(f"{what} evaluated outside the domain [0, 1]")
    return xs


@dataclass(frozen=True)
class GridFunction:
    """Componentwise values of a vector function on a strictly increasing grid."""

    grid: np.ndarray
    values: np.ndarray  # shape (len(grid), n_components)

    def __post_init__(self) -> None:
        if self.grid.ndim != 1 or self.values.ndim != 2:
            raise ValueError("grid must be 1-D and values 2-D")
        if self.values.shape[0] != self.grid.size:
            raise ValueError("values must have one row per grid point")
        if self.grid.size and not np.all(np.diff(self.grid) > 0.0):
            raise ValueError("grid must be strictly increasing")


def max_norm(g: GridFunction) -> np.ndarray:
    """Per-component maximum norm max_j |values[j, i]| over the grid."""
    if g.grid.size == 0:
        raise ValueError("cannot take the max norm of an empty grid function")
    return np.max(np.abs(g.values), axis=0)


def double_mesh_diff(coarse: GridFunction, fine: GridFunction) -> np.ndarray:
    """Per-component max |fine - coarse| at the coarse nodes.

    ``fine`` must be the uniform refinement-by-two of ``coarse``: 2N+1
    points whose even-indexed nodes coincide with the coarse grid.
    """
    if fine.grid.size != 2 * (coarse.grid.size - 1) + 1:
        raise ValueError("fine grid is not a refinement-by-two of the coarse grid")
    scale = max(1.0, float(np.max(np.abs(coarse.grid))))
    if not np.max(np.abs(fine.grid[::2] - coarse.grid)) <= 1e-12 * scale:  # NaN fails too
        raise ValueError("fine grid nodes do not contain the coarse nodes")
    return np.max(np.abs(fine.values[::2] - coarse.values), axis=0)


@dataclass
class ErrorReport:
    """Double-mesh differences and convergence orders over an eps x N sweep.

    ``per_eps[eps][N]`` holds the per-component D for that cell;
    ``d_n[N]`` the per-component max over eps; ``order[N]`` the
    per-component p = log2(d_n[N] / d_n[2N]), NaN where either D is at or
    below the noise floor.
    """

    eps_list: tuple[float, ...]
    n_list: tuple[int, ...]
    per_eps: dict[float, dict[int, np.ndarray]] = field(default_factory=dict)
    d_n: dict[int, np.ndarray] = field(default_factory=dict)
    order: dict[int, np.ndarray] = field(default_factory=dict)


def check_doubling(n_list, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless n_list is a nonempty chain N, 2N, 4N, ... with N >= 1."""
    if not n_list:
        raise error("n_list must be nonempty")
    if n_list[0] < 1:
        raise error(f"mesh-interval counts must be at least 1, got {n_list[0]}")
    for a, b in zip(n_list, n_list[1:]):
        if b != 2 * a:
            raise error(f"n_list must double at each step, got {a} -> {b}")


def convergence_order(d: float, d2: float) -> float:
    """Convergence order log2(d / d2), NaN when either difference is at or
    below the noise floor."""
    if d > ORDER_NOISE_FLOOR and d2 > ORDER_NOISE_FLOOR:
        return float(np.log2(d / d2))
    return math.nan


def convergence_table(
    solver: Callable[[float, int], GridFunction],
    eps_list: list[float] | tuple[float, ...],
    n_list: list[int] | tuple[int, ...],
) -> ErrorReport:
    """Run the double-mesh sweep solver(eps, N) over eps_list x n_list.

    ``solver`` must return the approximation sampled on the uniform grid of
    N+1 points. D^N needs the 2N solution and p^N needs D^{2N}, so the
    sweep internally also solves at 2*max(N) and 4*max(N); the reported
    columns remain exactly ``n_list``. Cells run in sweep order (eps-major),
    and the first that raises stops the sweep with its exception; an empty
    eps_list, a repeated eps or a bad n_list raises ValueError before any
    solve. Only one eps row of solutions is held: an eps's D values are
    taken, and its grid functions dropped, before the next eps's first cell.
    """
    eps_list = tuple(float(e) for e in eps_list)
    n_list = tuple(int(n) for n in n_list)
    if not eps_list:
        raise ValueError("eps_list must be nonempty")
    if len(set(eps_list)) != len(eps_list):
        raise ValueError(f"eps_list repeats an eps: {eps_list}")
    check_doubling(n_list)

    solve_ns = n_list + (2 * n_list[-1], 4 * n_list[-1])
    diff_ns = solve_ns[:-1]
    report = ErrorReport(eps_list=eps_list, n_list=n_list)
    for eps in eps_list:
        cells = {n: solver(eps, n) for n in solve_ns}
        report.per_eps[eps] = {n: double_mesh_diff(cells[n], cells[2 * n]) for n in diff_ns}
        del cells
    for n in diff_ns:
        report.d_n[n] = np.max(np.stack([row[n] for row in report.per_eps.values()]), axis=0)
    for n in n_list:
        report.order[n] = np.array(
            [convergence_order(d, d2) for d, d2 in zip(report.d_n[n], report.d_n[2 * n])]
        )
    return report


def exact_constant_system(
    A: np.ndarray,
    f: np.ndarray,
    eps: float,
) -> Callable[[float | np.ndarray], np.ndarray]:
    """Closed-form solution of -eps y'' + A y = f with zero boundary values.

    Requires constant A diagonalizable with real positive eigenvalues.
    Diagonalizing A = P diag(lam) P^-1 decouples the system; each scalar
    problem -eps z'' + lam z = g has

        z(x) = (g/lam) * (1 - cosh(s (x - 1/2)) / cosh(s / 2)),  s = sqrt(lam/eps),

    evaluated here in an exponential form that cannot overflow for small
    eps. Returns a callable mapping x (scalar or 1-D array) in [0, 1] to
    the solution; array input yields shape (len(x), n). x outside [0, 1],
    NaN included, raises ValueError.
    """
    A = np.asarray(A, dtype=float)
    f = np.asarray(f, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or f.shape != (A.shape[0],):
        raise ValueError("A must be square and f a matching vector")
    if not eps > 0.0:
        raise ValueError("eps must be positive")

    lam, P = np.linalg.eig(A)
    if np.max(np.abs(lam.imag)) > 1e-12 * np.max(np.abs(lam.real)):
        raise ValueError("A must have a real spectrum")
    lam = lam.real
    P = P.real
    if np.any(lam <= 0.0):
        raise ValueError("A must have positive eigenvalues")
    if np.linalg.cond(P) > 1e12:
        raise ValueError("A is too close to non-diagonalizable")
    g = np.linalg.solve(P, f)
    with np.errstate(over="ignore"):  # lam / eps passes the largest float below ~1e-308
        s = np.sqrt(lam / eps)
    s = np.where(np.isfinite(s), s, np.sqrt(lam) / np.sqrt(eps))

    def solution_many(xa):
        xa = check_domain(xa, "closed-form solution")
        # cosh(s(x-1/2))/cosh(s/2) = (exp(s(x-1)) + exp(-s x)) / (1 + exp(-s));
        # every exponent is <= 0 on [0, 1], so no overflow for any eps
        e = np.exp(s[None, :] * (xa[:, None] - 1.0)) + np.exp(-s[None, :] * xa[:, None])
        ratio = e / (1.0 + np.exp(-s))[None, :]
        z = (g / lam)[None, :] * (1.0 - ratio)
        return z @ P.T

    return lambda x: scalar_or_1d(solution_many, x)

