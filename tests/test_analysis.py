"""Tests for norms, double-mesh differences, orders, and the oracle."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from scem_rd.analysis import (
    GridFunction,
    check_doubling,
    convergence_table,
    double_mesh_diff,
    exact_constant_system,
    max_norm,
)
from scem_rd.collocation import SolverConfig
from scem_rd.problems import example1
from scem_rd.scem import hybrid_solve

A1 = np.array([[4.0, -2.0], [-1.0, 3.0]])
F1 = np.array([1.0, 2.0])


def uniform_gf(n_points, fn):
    xs = np.linspace(0.0, 1.0, n_points)
    return GridFunction(grid=xs, values=fn(xs))


def hybrid_gf(eps, n, adaptive=True):
    cfg = SolverConfig(initial_mesh_points=n + 1, adaptive=adaptive)
    hybrid = hybrid_solve(example1(eps), cfg)
    xs = np.linspace(0.0, 1.0, n + 1)
    return GridFunction(grid=xs, values=hybrid.eval_many(xs))


# ---------------------------------------------------------------------------
# max norm
# ---------------------------------------------------------------------------

def test_max_norm_zero():
    g = uniform_gf(11, lambda xs: np.zeros((xs.size, 3)))
    assert np.all(max_norm(g) == 0.0)


def test_max_norm_single_point():
    g = GridFunction(grid=np.array([0.5]), values=np.array([[-3.0, 2.0]]))
    np.testing.assert_array_equal(max_norm(g), [3.0, 2.0])


def test_max_norm_of_eps1_hybrid():
    g = hybrid_gf(1.0, 1000)
    # the peak sits at x = 0.5 for the symmetric system
    assert max_norm(g)[0] == pytest.approx(0.117696173594857, abs=1e-9)


def test_max_norm_empty_rejected():
    g = GridFunction(grid=np.array([]), values=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        max_norm(g)


# ---------------------------------------------------------------------------
# double-mesh differences
# ---------------------------------------------------------------------------

def test_double_mesh_identical_function_is_zero():
    fn = lambda xs: np.stack([np.sin(xs), np.cos(xs)], axis=1)  # noqa: E731
    assert np.all(double_mesh_diff(uniform_gf(65, fn), uniform_gf(129, fn)) == 0.0)


def test_double_mesh_exact_sampling_is_zero():
    fn = lambda xs: (xs**2)[:, None]  # noqa: E731
    assert np.all(double_mesh_diff(uniform_gf(33, fn), uniform_gf(65, fn)) == 0.0)


def test_double_mesh_grid_mismatch_rejected():
    fn = lambda xs: xs[:, None]  # noqa: E731
    with pytest.raises(ValueError):
        double_mesh_diff(uniform_gf(33, fn), uniform_gf(97, fn))
    shifted = GridFunction(grid=np.linspace(0.1, 1.1, 65),
                           values=np.zeros((65, 1)))
    with pytest.raises(ValueError):
        double_mesh_diff(uniform_gf(33, fn), shifted)


@pytest.mark.parametrize("bad", [[0.0, 0.5, 0.5], [0.0, 0.7, 0.5], [0.0, math.nan, 1.0]],
                         ids=["repeated", "decreasing", "nan"])
def test_grid_must_be_strictly_increasing(bad):
    with pytest.raises(ValueError, match="strictly increasing"):
        GridFunction(grid=np.array(bad), values=np.zeros((3, 1)))


@pytest.mark.parametrize("grid, values, message", [
    (np.zeros((3, 1)), np.zeros((3, 1)), "grid must be 1-D and values 2-D"),
    (np.zeros(3), np.zeros(3), "grid must be 1-D and values 2-D"),
    (np.linspace(0.0, 1.0, 3), np.zeros((4, 1)), "values must have one row per grid point"),
], ids=["2d-grid", "1d-values", "row-count"])
def test_grid_function_rejects_bad_shapes(grid, values, message):
    with pytest.raises(ValueError, match=message):
        GridFunction(grid=grid, values=values)


def test_double_mesh_example1_magnitude():
    # adaptive layers, eps = 2^-1, N = 64 vs 128: order of magnitude 1e-9
    # or below (table-value match is one order of magnitude, backend differs)
    d = double_mesh_diff(hybrid_gf(0.5, 64), hybrid_gf(0.5, 128))
    assert np.max(d) <= 1e-8
    assert np.max(d) > 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=1000))
def test_double_mesh_sign_symmetry(n_half, seed):
    rng = np.random.default_rng(seed)
    coarse = GridFunction(grid=np.linspace(0, 1, n_half + 1),
                          values=rng.normal(size=(n_half + 1, 2)))
    fine = GridFunction(grid=np.linspace(0, 1, 2 * n_half + 1),
                        values=rng.normal(size=(2 * n_half + 1, 2)))
    flipped = double_mesh_diff(
        GridFunction(grid=coarse.grid, values=-coarse.values),
        GridFunction(grid=fine.grid, values=-fine.values),
    )
    np.testing.assert_array_equal(double_mesh_diff(coarse, fine), flipped)


# ---------------------------------------------------------------------------
# convergence tables
# ---------------------------------------------------------------------------

def test_orders_near_four_for_smooth_problem():
    def solver(eps, n):
        return hybrid_gf(eps, n, adaptive=False)

    report = convergence_table(solver, [1.0], [32, 64])
    for n in (32, 64):
        assert np.all(report.order[n] >= 3.5)
        assert np.all(report.order[n] <= 4.5)


def test_exact_solver_gives_undefined_orders():
    def solver(eps, n):
        return uniform_gf(n + 1, lambda xs: np.stack([xs, xs**2], axis=1))

    report = convergence_table(solver, [0.5], [16, 32])
    for n in (16, 32):
        assert np.all(report.d_n[n] == 0.0)
        assert np.all(np.isnan(report.order[n]))


def test_orders_match_d_values_identity():
    def solver(eps, n):
        return hybrid_gf(eps, n, adaptive=False)

    report = convergence_table(solver, [0.5, 0.25], [16, 32])
    for n in (16, 32):
        implied = np.log2(report.d_n[n] / report.d_n[2 * n])
        np.testing.assert_allclose(report.order[n], implied, rtol=0, atol=1e-12)
    # d_n really is the max over eps
    for n, d in report.d_n.items():
        stacked = np.stack([report.per_eps[e][n] for e in report.eps_list])
        np.testing.assert_array_equal(d, np.max(stacked, axis=0))


def test_example1_sweep_trends():
    eps_list = [2.0**-k for k in range(1, 6)]

    def solver(eps, n):
        return hybrid_gf(eps, n, adaptive=False)

    report = convergence_table(solver, eps_list, [32, 64, 128])
    d = [float(np.max(report.d_n[n])) for n in (32, 64, 128)]
    assert d[0] > d[1] > d[2]
    assert 3.5 <= float(report.order[128][0]) <= 4.5


# the failing cells, in no particular order; the first n_failing of them fail
_FAILING_CELLS = [(0.25, 64), (0.5, 1024), (0.25, 512), (0.25, 1024)]
_SWEEP_ORDER = [(eps, n) for eps in (0.5, 0.25) for n in (64, 128, 256, 512, 1024)]


# the name is kept for its test ids: the sweep stops at its first failing cell
@pytest.mark.parametrize("n_failing, first", [(1, (0.25, 64)), (4, (0.5, 1024))],
                         ids=["1", "4"])
def test_first_failing_cell_raises_after_every_cell_ran(n_failing, first):
    # with 4 failing cells, (0.5, 1024) comes first in sweep order (eps-major),
    # though (0.25, 64) is the smaller N
    calls = []

    def solver(eps, n):
        calls.append((eps, n))
        if (eps, n) in _FAILING_CELLS[:n_failing]:
            raise RuntimeError(f"boom at eps={eps} N={n}")
        return uniform_gf(n + 1, lambda xs: xs[:, None])

    with pytest.raises(RuntimeError, match=f"boom at eps={first[0]} N={first[1]}$"):
        convergence_table(solver, [0.5, 0.25], [64, 128, 256])
    # the sweep solves at 2 and 4 times the largest N too, in sweep order,
    # and no cell after the first failing one
    assert calls == _SWEEP_ORDER[:_SWEEP_ORDER.index(first) + 1]


def test_interrupt_stops_the_sweep_at_once():
    calls = []

    def solver(eps, n):
        calls.append((eps, n))
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        convergence_table(solver, [0.5, 0.25], [16, 32])
    assert calls == [(0.5, 16)]


def test_sweep_holds_one_eps_row_of_solutions():
    eps_list = [0.5, 0.25, 0.125]
    calls = []
    alive = {}  # eps -> weak references to the grid functions of its cells

    def solver(eps, n):
        if n == 16:
            # an eps's first cell: no grid function of an earlier eps is left
            assert [e for e, refs in alive.items() if any(ref() for ref in refs)] == []
        else:
            # within a row, every cell solved so far is still held
            assert all(ref() for ref in alive[eps])
        calls.append((eps, n))
        g = uniform_gf(n + 1, lambda xs: np.sin(xs / eps)[:, None])
        alive.setdefault(eps, []).append(weakref.ref(g))
        return g

    report = convergence_table(solver, eps_list, [16, 32])
    assert calls == [(eps, n) for eps in eps_list for n in (16, 32, 64, 128)]
    assert all(sorted(report.per_eps[eps]) == [16, 32, 64] for eps in eps_list)


def test_nondoubling_chain_rejected():
    with pytest.raises(ValueError):
        convergence_table(lambda e, n: None, [0.5], [16, 24])


def test_empty_chain_rejected():
    with pytest.raises(ValueError, match="n_list must be nonempty"):
        check_doubling(())


def test_empty_eps_list_rejected_before_any_solve():
    def solver(eps, n):
        raise AssertionError("solved with an empty eps_list")

    with pytest.raises(ValueError, match="eps_list must be nonempty"):
        convergence_table(solver, [], [16, 32])


def test_repeated_eps_rejected_before_any_solve():
    def solver(eps, n):
        raise AssertionError("solved with a repeated eps")

    with pytest.raises(ValueError, match="repeats an eps"):
        convergence_table(solver, [0.1, 0.1], [4, 8])
    with pytest.raises(ValueError, match="repeats an eps"):
        convergence_table(solver, [0.5, 0.25, 0.5], [4, 8])


# ---------------------------------------------------------------------------
# constant-coefficient oracle
# ---------------------------------------------------------------------------

def test_oracle_boundary_values_exact():
    oracle = exact_constant_system(A1, F1, 0.01)
    assert np.max(np.abs(oracle(np.array([0.0, 1.0])))) <= 1e-14


def test_oracle_interior_tends_to_reduced_solution():
    oracle = exact_constant_system(A1, F1, 1e-8)
    np.testing.assert_allclose(oracle(0.5), [0.7, 0.9], atol=1e-12)


def test_oracle_scalar_against_brute_force_fd():
    # -0.01 z'' + z = 1, zero BCs, dense second-order finite differences
    eps, m = 0.01, 100001
    xs = np.linspace(0.0, 1.0, m)
    h = xs[1] - xs[0]
    bands = np.zeros((3, m - 2))
    bands[0, 1:] = -eps / h**2
    bands[1, :] = 2.0 * eps / h**2 + 1.0
    bands[2, :-1] = -eps / h**2
    z = solve_banded((1, 1), bands, np.ones(m - 2))
    fd_mid = z[(m - 2) // 2]
    oracle = exact_constant_system(np.array([[1.0]]), np.array([1.0]), eps)
    mid = float(oracle(0.5)[0])
    assert mid == pytest.approx(fd_mid, abs=1e-6)
    assert mid == pytest.approx(1.0 - 1.0 / np.cosh(5.0), abs=1e-12)


def test_oracle_satisfies_ode_pointwise():
    # away from the layers, on a grid where the second-difference
    # truncation and its 1/h^2 roundoff amplification both sit below the
    # tolerance (a finer grid would be roundoff-dominated in float64)
    eps = 0.01
    oracle = exact_constant_system(A1, F1, eps)
    xs = np.linspace(0.25, 0.75, 1001)
    y = oracle(xs)
    h = xs[1] - xs[0]
    d2 = (y[:-2] - 2.0 * y[1:-1] + y[2:]) / h**2
    res = -eps * d2 + y[1:-1] @ A1.T - F1[None, :]
    assert np.max(np.abs(res)) <= 1e-6 * np.max(np.abs(F1))


def test_oracle_no_overflow_for_tiny_eps():
    oracle = exact_constant_system(A1, F1, 1e-12)
    vals = oracle(np.linspace(0.0, 1.0, 101))
    assert np.all(np.isfinite(vals))


@pytest.mark.parametrize("eps", [1e-308, 1e-310, 5e-324])
def test_oracle_is_finite_where_lam_over_eps_overflows(eps):
    # example1's eigenvalue 5 over eps passes the largest float below ~2.8e-308;
    # the oracle must stay finite, exact at both ends, and raise no warning
    vals = exact_constant_system(A1, F1, eps)(np.array([0.0, 1e-100, 0.5, 1.0]))
    assert np.array_equal(vals[[0, 3]], np.zeros((2, 2)))
    np.testing.assert_allclose(vals[1:3], [[0.7, 0.9]] * 2, atol=1e-15)


@pytest.mark.parametrize("x", [-1.0, 2.0, math.nan, -1e-300, 1.0 + 2.0**-52, math.inf])
def test_oracle_takes_x_in_the_unit_interval_only(x):
    # the same rule as the composite: x outside [0, 1], NaN included, raises
    oracle = exact_constant_system(A1, F1, 0.01)
    hybrid = hybrid_solve(example1(0.01), SolverConfig())
    for fn in (oracle, hybrid.eval):
        with pytest.raises(ValueError, match="outside the domain"):
            fn(x)
        with pytest.raises(ValueError, match="outside the domain"):
            fn(np.array([0.5, x]))


def test_oracle_rejects_bad_spectrum():
    with pytest.raises(ValueError):
        exact_constant_system(np.array([[0.0, 1.0], [1.0, 0.0]]), F1, 0.01)
    with pytest.raises(ValueError):
        exact_constant_system(np.array([[1.0, 2.0], [0.0, 1.0]]), F1, 0.01)
    for eps in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="eps must be positive"):
            exact_constant_system(A1, F1, eps)


@pytest.mark.parametrize("A, f", [(A1[:1], F1), (A1, np.ones(3)), (A1.ravel(), F1)],
                         ids=["not-square", "f-length", "A-1d"])
def test_oracle_rejects_bad_shapes(A, f):
    with pytest.raises(ValueError, match="A must be square and f a matching vector"):
        exact_constant_system(A, f, 0.01)


def test_hybrid_error_stays_small_uniformly_in_eps():
    # uniform-in-eps accuracy of the composite against the closed form;
    # the error is backend noise (the composite is exact in exact
    # arithmetic for this constant-coefficient system)
    for k in (4, 8, 12):
        eps = 2.0**-k
        hybrid = hybrid_solve(example1(eps), SolverConfig())
        oracle = exact_constant_system(A1, F1, eps)
        xs = np.linspace(0.0, 1.0, 2001)
        assert np.max(np.abs(hybrid.eval_many(xs) - oracle(xs))) <= 1e-6
