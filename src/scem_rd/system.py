"""Continuous problem definition for coupled reaction-diffusion systems.

A system is n >= 1 second-order equations on [0, 1],

    -eps_i * y_i'' + sum_j a_ij(x) y_j = f_i(x),    y_i(0), y_i(1) prescribed,

with small positive diffusion parameters eps_i. Each entry a_ij and f_i is
a float, the same value at every x, or a callable of x. This module holds
the problem container plus runtime verifiers for the structural conditions
(strict diagonal dominance, non-positive off-diagonal coupling) that make
the problem stable and monotone, and the a-posteriori maximum-principle
and stability-bound checks built on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .analysis import GridFunction

#: a coefficient or forcing entry: a number, or a deterministic callable of x
Field = Union[float, Callable[[float], float]]


def _sample(fn: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """``fn`` at every x: through its own vectorization when it takes and
    returns a whole array, else one call per point."""
    try:
        out = np.asarray(fn(xs), dtype=float)
        if out.shape == xs.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(x)) for x in xs])


def _sample_fields(fields: Sequence[Field], xs: np.ndarray) -> np.ndarray:
    """Every field at every x, shape (len(xs), len(fields)): the numbers in
    one broadcast c + 0.0 * x, each callable by itself."""
    consts = np.array([0.0 if callable(f) else f for f in fields])
    out = consts + 0.0 * xs[:, None]
    for k, f in enumerate(fields):
        if callable(f):
            out[:, k] = _sample(f, xs)
    return out


@dataclass(frozen=True)
class ReactionDiffusionSystem:
    """A singularly perturbed reaction-diffusion two-point BVP on [0, 1].

    Attributes:
        coeff: n x n reaction matrix A(x). Each entry is a float, the
            same value at every x, or a callable of x.
        forcing: length-n forcing vector f(x), entries as in ``coeff``.
        diffusion: per-component positive, finite diffusion parameters.
            ``hybrid_solve`` needs them all equal: every component then
            carries a boundary layer of the same width.
        left_bc, right_bc: prescribed boundary values y(0), y(1).
    """

    coeff: tuple[tuple[Field, ...], ...]
    forcing: tuple[Field, ...]
    diffusion: tuple[float, ...]
    left_bc: np.ndarray
    right_bc: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.forcing)
        if n < 1:
            raise ValueError("system must have at least 1 component")
        if len(self.coeff) != n or any(len(row) != n for row in self.coeff):
            raise ValueError("coeff must be an n x n grid matching forcing length")
        if len(self.diffusion) != n:
            raise ValueError("diffusion must have one entry per component")
        if not all(0.0 < d < np.inf for d in self.diffusion):
            raise ValueError("diffusion parameters must be positive and finite")
        if self.left_bc.shape != (n,) or self.right_bc.shape != (n,):
            raise ValueError("boundary vectors must have length n")
        if not (np.all(np.isfinite(self.left_bc)) and np.all(np.isfinite(self.right_bc))):
            raise ValueError("boundary values must be finite")

    @property
    def n(self) -> int:
        return len(self.forcing)

    def coeff_matrix(self, xs: np.ndarray) -> np.ndarray:
        """Sample A(x) on a grid; returns shape (len(xs), n, n)."""
        xs = np.asarray(xs, dtype=float).ravel()
        fields = [a for row in self.coeff for a in row]
        return _sample_fields(fields, xs).reshape(xs.size, self.n, self.n)

    def forcing_vector(self, xs: np.ndarray) -> np.ndarray:
        """Sample f(x) on a grid; returns shape (len(xs), n)."""
        return _sample_fields(self.forcing, np.asarray(xs, dtype=float).ravel())


def _field(value: Field) -> Field:
    return value if callable(value) else float(value)


def make_system(
    coeff: Sequence[Sequence[Field]],
    forcing: Sequence[Field],
    diffusion: Sequence[float],
    left_bc: Sequence[float] | None = None,
    right_bc: Sequence[float] | None = None,
) -> ReactionDiffusionSystem:
    """Build a system from numbers and/or callables of x, with zero default
    BCs. A number is stored as a float and a callable as given; floats
    compare by value, so systems built from equal numbers (2 and 2.0, or
    0.0 and -0.0) have equal fields and share ``hybrid_solve``'s memo."""
    n = len(forcing)
    lb = np.zeros(n) if left_bc is None else np.asarray(left_bc, dtype=float)
    rb = np.zeros(n) if right_bc is None else np.asarray(right_bc, dtype=float)
    return ReactionDiffusionSystem(
        coeff=tuple(tuple(_field(a) for a in row) for row in coeff),
        forcing=tuple(_field(f) for f in forcing),
        diffusion=tuple(float(d) for d in diffusion),
        left_bc=lb,
        right_bc=rb,
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Result of checking the structural conditions on a sample grid.

    ``delta`` is the minimum over the grid of the per-row coefficient sums
    min_i sum_j a_ij(x); with strict dominance and non-positive
    off-diagonals it is necessarily positive and feeds the stability bound.
    """

    diagonally_dominant: bool
    offdiag_nonpositive: bool
    delta: float
    sample_count: int

    @property
    def passed(self) -> bool:
        return self.diagonally_dominant and self.offdiag_nonpositive


def validate_assumptions(sys: ReactionDiffusionSystem, samples: int = 1001) -> AssumptionReport:
    """Check strict diagonal dominance and off-diagonal sign on a uniform grid.

    Both conditions are pointwise; they are tested at ``samples`` equally
    spaced points including the endpoints. Validation outcome is returned
    as data, never raised.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    xs = np.linspace(0.0, 1.0, samples)
    A = sys.coeff_matrix(xs)  # (samples, n, n)
    diag = np.einsum("kii->ki", A)
    abs_off = np.sum(np.abs(A), axis=2) - np.abs(diag)
    dominant = bool(np.all(diag > abs_off))

    off = A.copy()
    np.einsum("kii->ki", off)[...] = 0.0
    nonpositive = bool(np.all(off <= 0.0))

    row_sums = np.sum(A, axis=2)
    delta = float(np.min(row_sums))
    return AssumptionReport(
        diagonally_dominant=dominant,
        offdiag_nonpositive=nonpositive,
        delta=delta,
        sample_count=samples,
    )


def forcing_max_norm(sys: ReactionDiffusionSystem, samples: int = 1001) -> float:
    """Max norm of the forcing over a uniform sample grid: max_i sup |f_i|."""
    xs = np.linspace(0.0, 1.0, samples)
    return float(np.max(np.abs(sys.forcing_vector(xs))))


def stability_bound(
    sys: ReactionDiffusionSystem,
    report: AssumptionReport,
    sample_f_norm: float,
) -> float:
    """A-priori ceiling on the solution max norm.

    Returns (1/delta) * ||f|| + ||y(0)|| + ||y(1)|| in max norms. Any
    computed solution exceeding this is wrong; used as a sanity check on
    solver output.
    """
    if report.delta <= 0.0:
        raise ValueError("stability bound requires delta > 0")
    return (
        sample_f_norm / report.delta
        + float(np.max(np.abs(sys.left_bc)))
        + float(np.max(np.abs(sys.right_bc)))
    )


def check_max_principle(
    sys: ReactionDiffusionSystem,
    candidate: GridFunction,
    tol: float,
) -> bool:
    """Discrete maximum-principle check for a grid function.

    If the candidate's boundary values are >= -tol and the discrete
    operator value -eps_i y_i'' + (A y)_i (second derivative by central
    differences on the candidate's own grid) is >= -tol at every interior
    grid point, the candidate must be >= -tol everywhere. Returns True
    vacuously when the hypothesis fails.
    """
    grid = candidate.grid
    vals = candidate.values
    if grid.size < 3:
        raise ValueError("candidate grid needs at least 3 points")

    if np.any(vals[0] < -tol) or np.any(vals[-1] < -tol):
        return True  # hypothesis fails at the boundary

    # nonuniform 3-point second difference at interior points
    hm = grid[1:-1] - grid[:-2]
    hp = grid[2:] - grid[1:-1]
    d2 = 2.0 * (
        vals[:-2] / (hm * (hm + hp))[:, None]
        - vals[1:-1] / (hm * hp)[:, None]
        + vals[2:] / (hp * (hm + hp))[:, None]
    )
    A = sys.coeff_matrix(grid[1:-1])
    eps = np.asarray(sys.diffusion)
    op = -eps[None, :] * d2 + np.einsum("kij,kj->ki", A, vals[1:-1])
    if np.any(op < -tol):
        return True  # hypothesis fails in the interior

    return bool(np.all(vals >= -tol))
