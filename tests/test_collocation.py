"""Tests for the Lobatto IIIa collocation engine."""

import ctypes
import dataclasses
import logging
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_bvp
from scipy.linalg import expm, lapack

import scem_rd.collocation as collocation
from scem_rd.collocation import (
    FirstOrderBvp,
    Mesh,
    MeshOverflow,
    NewtonDivergence,
    SolverConfig,
    estimate_residual,
    evaluate,
    solve,
)
from scem_rd.problems import example1, example2
from scem_rd.scem import build_layer_problem


def exponential_bvp():
    return FirstOrderBvp(
        dim=1,
        rhs=lambda t, u: u,
        bc=lambda ua, ub: np.array([ua[0] - 1.0]),
        interval=(0.0, 1.0),
    )


def linear_ramp_bvp():
    # u'' = 0 with u(0) = 0, u(1) = 1: solution u(t) = t
    return FirstOrderBvp(
        dim=2,
        rhs=lambda t, u: np.column_stack([u[:, 1], np.zeros_like(t)]),
        bc=lambda ua, ub: np.array([ua[0], ub[0] - 1.0]),
        interval=(0.0, 1.0),
    )


def scalar_layer_bvp(eps):
    # -eps u'' + u = 1, u(0) = u(1) = 0
    return FirstOrderBvp(
        dim=2,
        rhs=lambda t, u: np.column_stack([u[:, 1], (u[:, 0] - 1.0) / eps]),
        bc=lambda ua, ub: np.array([ua[0], ub[0]]),
        interval=(0.0, 1.0),
    )


def scalar_layer_exact(eps, xs):
    s = 1.0 / np.sqrt(eps)
    return 1.0 - (np.exp(s * (xs - 1.0)) + np.exp(-s * xs)) / (1.0 + np.exp(-s))


def test_exponential_growth():
    sol = solve(exponential_bvp())
    assert abs(evaluate(sol, 1.0)[0] - np.e) <= 1e-8
    assert sol.max_residual <= 1e-6


def test_exponential_between_nodes():
    sol = solve(exponential_bvp(), SolverConfig(initial_mesh_points=101))
    assert abs(evaluate(sol, 0.5)[0] - np.exp(0.5)) <= 1e-8


def test_linear_solution_exact():
    sol = solve(linear_ramp_bvp(), SolverConfig(initial_mesh_points=5))
    assert abs(evaluate(sol, 0.37)[0] - 0.37) <= 1e-14
    assert abs(evaluate(sol, 1.0)[0] - 1.0) <= 1e-14


def test_linear_problem_needs_two_newton_iterations():
    sol = solve(linear_ramp_bvp(), SolverConfig(initial_mesh_points=5))
    assert sol.newton_iterations == 2  # one solve step, one confirmation


def test_layer_problem_matches_closed_form():
    eps = 0.01
    sol = solve(scalar_layer_bvp(eps), SolverConfig(initial_mesh_points=51))
    xs = np.linspace(0.0, 1.0, 1001)
    err = np.max(np.abs(evaluate(sol, xs)[:, 0] - scalar_layer_exact(eps, xs)))
    assert err <= 1e-6


def test_evaluate_at_nodes_reproduces_node_values():
    sol = solve(scalar_layer_bvp(0.01), SolverConfig(initial_mesh_points=51))
    got = evaluate(sol, sol.mesh.nodes)
    np.testing.assert_array_equal(got, sol.node_values)


def test_evaluate_first_components_equals_the_column_slice():
    sol = solve(scalar_layer_bvp(0.01), SolverConfig(initial_mesh_points=51))
    xs = np.concatenate([np.linspace(0.0, 1.0, 1001), sol.mesh.nodes])
    for components in (1, np.int64(1), 2):
        got = evaluate(sol, xs, components)
        assert got.shape == (xs.size, components)
        assert np.array_equal(got, evaluate(sol, xs)[:, :components])


def _plain_hermite(nodes, values, slopes, ts):
    """The Hermite cubic of each interval, as one broadcast formula per point."""
    a, b = nodes[0], nodes[-1]
    ts = np.clip(ts, a, b)
    k = np.clip(np.searchsorted(nodes, ts, side="right") - 1, 0, nodes.size - 2)
    h = (nodes[k + 1] - nodes[k])[:, None]
    tau = ((ts - nodes[k]) / h[:, 0])[:, None]
    y0, y1, s0, s1 = values[k], values[k + 1], slopes[k], slopes[k + 1]
    t2 = tau * tau
    t3 = t2 * tau
    return (y0 * (1.0 - 3.0 * t2 + 2.0 * t3) + y1 * (3.0 * t2 - 2.0 * t3)
            + h * s0 * (tau - 2.0 * t2 + t3) + h * s1 * (t3 - t2))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_evaluation_is_bitwise_the_plain_hermite_formula(seed):
    rng = np.random.default_rng(seed)
    nodes = np.unique(np.concatenate([[-1.5, 2.5], rng.uniform(-1.5, 2.5, 300)]))  # non-uniform
    shape = (nodes.size, 4)
    sol = collocation.CollocationSolution(
        mesh=Mesh(nodes), node_values=rng.normal(size=shape),
        node_slopes=rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, (nodes.size, 1)),
        max_residual=None, newton_iterations=1)
    a, b = nodes[0], nodes[-1]
    slack = 1e-10 * (b - a)
    ts = np.concatenate([nodes, [a, b, a - 0.5 * slack, b + 0.5 * slack, a - slack, b + slack],
                         nodes[1:-1] + 1e-14, rng.uniform(a, b, 2000)])
    rng.shuffle(ts)

    def same(got, want):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    want = _plain_hermite(nodes, sol.node_values, sol.node_slopes, ts)
    same(evaluate(sol, ts), want)
    same(evaluate(sol, ts, 2), _plain_hermite(nodes, sol.node_values[:, :2],
                                              sol.node_slopes[:, :2], ts))
    same(evaluate(sol, list(ts)), want)
    same(evaluate(sol, ts[7]), want[7])


def test_dim_must_be_positive():
    with pytest.raises(ValueError, match="dim must be positive"):
        FirstOrderBvp(dim=0, rhs=lambda t, U: U, bc=lambda ua, ub: ua, interval=(0.0, 1.0))


def test_newton_started_at_the_solution_stops_after_one_factorization():
    # u' = 0, u(0) = 1, not flagged linear: Newton starts from the ones
    # vector, so the first step after the first factorization is zero
    bvp = FirstOrderBvp(dim=1, rhs=lambda t, U: np.zeros_like(U),
                        bc=lambda ua, ub: ua - 1.0, interval=(0.0, 1.0))
    sol = solve(bvp, SolverConfig(initial_mesh_points=5, adaptive=False))
    assert sol.newton_iterations == 1
    assert np.array_equal(sol.node_values, np.ones((5, 1)))


def test_evaluate_rejects_outside_points():
    sol = solve(linear_ramp_bvp(), SolverConfig(initial_mesh_points=5))
    with pytest.raises(ValueError):
        evaluate(sol, [1.5])
    with pytest.raises(ValueError):
        evaluate(sol, [-0.2])
    with pytest.raises(ValueError):
        evaluate(sol, [np.nan])


def test_interpolant_is_c1_at_shared_nodes():
    sol = solve(scalar_layer_bvp(0.04), SolverConfig(initial_mesh_points=21))
    interior = sol.mesh.nodes[1:-1]
    at_nodes = evaluate(sol, interior)
    np.testing.assert_array_equal(at_nodes, sol.node_values[1:-1])
    # the difference quotient from either side tends to the stored slope;
    # its truncation error is about dt |u''| / 2, and |u''| <= 1 / eps^1.5
    dt = 1e-7
    left = (at_nodes - evaluate(sol, interior - dt)) / dt
    right = (evaluate(sol, interior + dt) - at_nodes) / dt
    np.testing.assert_allclose(left, sol.node_slopes[1:-1], rtol=0, atol=1e-4)
    np.testing.assert_allclose(right, sol.node_slopes[1:-1], rtol=0, atol=1e-4)


def test_residual_zero_for_cubic_solution():
    # u = t^3 - t: u' = 3t^2 - 1, u'' = 6t; collocation is exact on cubics
    bvp = FirstOrderBvp(
        dim=2,
        rhs=lambda t, u: np.column_stack([u[:, 1], 6.0 * t]),
        bc=lambda ua, ub: np.array([ua[0], ub[0]]),
        interval=(0.0, 1.0),
    )
    sol = solve(bvp, SolverConfig(initial_mesh_points=5, adaptive=False))
    res = estimate_residual(bvp, sol)
    assert np.max(res) <= 1e-12
    xs = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(evaluate(sol, xs)[:, 0] - (xs**3 - xs))) <= 1e-10


def test_residual_below_tolerance_after_convergence():
    bvp = scalar_layer_bvp(0.01)
    cfg = SolverConfig(initial_mesh_points=51, residual_tol=1e-6)
    sol = solve(bvp, cfg)
    res = estimate_residual(bvp, sol)
    assert np.max(res) <= cfg.residual_tol
    assert np.max(res) == pytest.approx(sol.max_residual, rel=1e-12)


def test_residual_large_on_coarse_mesh():
    bvp = scalar_layer_bvp(0.01)
    sol = solve(bvp, SolverConfig(initial_mesh_points=3, adaptive=False))
    assert np.max(estimate_residual(bvp, sol)) > 1e-6


def test_fourth_order_convergence():
    # smooth problem with known solution sin(pi t)
    def rhs(t, u):
        return np.column_stack([u[:, 1], u[:, 0] - (1.0 + np.pi**2) * np.sin(np.pi * t)])

    errors = []
    for n in (8, 16, 32):
        bvp = FirstOrderBvp(
            dim=2, rhs=rhs,
            bc=lambda ua, ub: np.array([ua[0], ub[0]]),
            interval=(0.0, 1.0),
        )
        sol = solve(bvp, SolverConfig(initial_mesh_points=n + 1, adaptive=False))
        errors.append(
            np.max(np.abs(sol.node_values[:, 0] - np.sin(np.pi * sol.mesh.nodes)))
        )
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_refined_mesh_contains_initial_nodes():
    bvp = scalar_layer_bvp(1e-4)
    initial = np.linspace(0.0, 1.0, 21)
    sol = solve(bvp, SolverConfig(initial_mesh_points=21))
    assert sol.mesh.nodes.size > 21  # refinement actually happened
    for node in initial:
        assert np.min(np.abs(sol.mesh.nodes - node)) <= 1e-14


def test_newton_divergence_on_iteration_budget(monkeypatch):
    # genuinely nonlinear problem with a one-iteration budget
    monkeypatch.setattr(collocation, "_MAX_NEWTON", 1)
    bvp = FirstOrderBvp(
        dim=1,
        rhs=lambda t, u: u * u,
        bc=lambda ua, ub: np.array([ua[0] - 0.5]),
        interval=(0.0, 1.0),
    )
    with pytest.raises(NewtonDivergence):
        solve(bvp, SolverConfig(initial_mesh_points=11))


def test_nonlinear_problem_converges():
    # u' = u^2, u(0) = 0.5: solution 1/(2 - t)
    bvp = FirstOrderBvp(
        dim=1,
        rhs=lambda t, u: u * u,
        bc=lambda ua, ub: np.array([ua[0] - 0.5]),
        interval=(0.0, 1.0),
    )
    sol = solve(bvp, SolverConfig(initial_mesh_points=51))
    assert abs(evaluate(sol, 1.0)[0] - 1.0) <= 1e-8


# u'' = g(u) with u(0), u(1): Troesch's problem at lambda = 3 and 5, an
# exponential and a cubic nonlinearity; each stalled the chord iteration
SECOND_ORDER_NONLINEAR = {
    "troesch-3": (lambda u: 3.0 * np.sinh(3.0 * u), 0.0, 1.0),
    "troesch-5": (lambda u: 5.0 * np.sinh(5.0 * u), 0.0, 1.0),
    "exp-20": (lambda u: 20.0 * np.exp(u), 0.0, 0.0),
    "cubic-50": (lambda u: 50.0 * u**3, 1.0, 2.0),
}


@pytest.mark.parametrize("name", SECOND_ORDER_NONLINEAR)
def test_nonlinear_second_order_problems_match_solve_bvp(name):
    g, left, right = SECOND_ORDER_NONLINEAR[name]
    bvp = FirstOrderBvp(
        dim=2,
        rhs=lambda t, u: np.column_stack([u[:, 1], g(u[:, 0])]),
        bc=lambda ua, ub: np.array([ua[0] - left, ub[0] - right]),
        interval=(0.0, 1.0),
    )
    sol = solve(bvp, SolverConfig(initial_mesh_points=50))
    xs = np.linspace(0.0, 1.0, 201)
    ref = solve_bvp(lambda t, y: np.vstack([y[1], g(y[0])]),
                    lambda ya, yb: np.array([ya[0] - left, yb[0] - right]),
                    xs, np.ones((2, xs.size)), tol=1e-8, max_nodes=10000)
    assert ref.success
    assert np.max(np.abs(evaluate(sol, xs)[:, 0] - ref.sol(xs)[0])) <= 1e-6


def test_damped_newton_halves_the_step_until_the_residual_falls(monkeypatch):
    # bc arctan(10 u(a)) = 0 from u = 1: the full Newton step overshoots
    # to u = -13.8, where the residual is no smaller
    bvp = FirstOrderBvp(
        dim=1,
        rhs=lambda t, u: np.zeros_like(u),
        bc=lambda ua, ub: np.arctan(10.0 * ua),
        interval=(0.0, 1.0),
    )
    alphas = []
    decreases = collocation._decreases

    def recording(F_try, F, alpha, **kwargs):
        alphas.append(alpha)
        return decreases(F_try, F, alpha, **kwargs)

    monkeypatch.setattr(collocation, "_decreases", recording)
    sol = solve(bvp, SolverConfig(initial_mesh_points=50))
    assert min(alphas) < 1.0
    assert np.max(np.abs(sol.node_values)) <= 1e-12
    monkeypatch.setattr(collocation, "_decreases", lambda *args, **kwargs: False)
    with pytest.raises(NewtonDivergence, match="no residual decrease after 10 step halvings"):
        solve(bvp, SolverConfig(initial_mesh_points=50))


def test_mesh_overflow_when_budget_too_small(monkeypatch):
    monkeypatch.setattr(collocation, "_MAX_MESH_POINTS", 40)
    bvp = scalar_layer_bvp(1e-6)
    with pytest.raises(MeshOverflow):
        solve(bvp, SolverConfig(initial_mesh_points=11))


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValueError):
        Mesh(np.array([1.0]))
    m = Mesh(np.array([0.0, 0.25, 1.0]))
    assert m.b == 1.0 and np.array_equal(m.nodes, [0.0, 0.25, 1.0])


def _shifted_ramp_bvp():
    return dataclasses.replace(linear_ramp_bvp(), interval=(-0.5, 2.0),
                               bc=lambda ua, ub: np.array([ua[0] + 0.5, ub[0] - 2.0]))


def test_first_pass_runs_on_the_uniform_initial_mesh():
    # without a start mesh: cfg.initial_mesh_points uniform nodes over
    # bvp.interval, 1000 when None
    bvp = _shifted_ramp_bvp()
    for points, size in ((2, 2), (7, 7), (1000, 1000), (None, 1000)):
        sol = solve(bvp, SolverConfig(initial_mesh_points=points, adaptive=False))
        assert np.array_equal(sol.mesh.nodes, np.linspace(-0.5, 2.0, size))
        assert np.max(np.abs(sol.node_values[:, 0] - sol.mesh.nodes)) <= 1e-12
        adaptive = solve(bvp, SolverConfig(initial_mesh_points=points))
        assert np.array_equal(adaptive.mesh.nodes, sol.mesh.nodes)  # exact: no refinement


@pytest.mark.parametrize("adaptive", [True, False])
def test_first_pass_runs_on_a_given_start_mesh(adaptive):
    # a start mesh replaces the uniform one, whatever initial_mesh_points says;
    # the caller's array is copied, not kept
    bvp = _shifted_ramp_bvp()
    start = np.array([-0.5, -0.4999, 0.0, 1.75, 2.0])
    cfg = SolverConfig(initial_mesh_points=7, adaptive=adaptive)
    sol = solve(bvp, cfg, start=start)
    assert np.array_equal(sol.mesh.nodes, start) and sol.mesh.nodes is not start
    assert np.max(np.abs(sol.node_values[:, 0] - start)) <= 1e-12
    assert np.array_equal(solve(bvp, cfg, start=list(start)).mesh.nodes, start)


@pytest.mark.parametrize("start, match", [
    ([-0.5, 1.0, 0.5, 2.0], "strictly increasing"),
    ([-0.5, 1.0, 1.0, 2.0], "strictly increasing"),
    ([-0.5, np.nan, 2.0], "strictly increasing"),
    ([-0.5], "at least two nodes"),
    ([[-0.5, 2.0]], "at least two nodes"),
    ([-0.4, 1.0, 2.0], r"spans \[-0.4, 2.0\], not the interval \[-0.5, 2.0\]"),
    ([-0.5, 1.0, 2.0 + 2.0**-51], "not the interval"),
    ([-0.5, 1.0], "not the interval"),
])
def test_start_mesh_must_increase_and_span_the_interval(start, match):
    with pytest.raises(ValueError, match=match):
        solve(_shifted_ramp_bvp(), SolverConfig(), start=np.array(start))


def test_start_mesh_must_fit_max_mesh_points(monkeypatch):
    # the count that is used is checked: a given start mesh, or the uniform
    # 1000 nodes that initial_mesh_points None stands for
    monkeypatch.setattr(collocation, "_MAX_MESH_POINTS", 400)
    bvp = _shifted_ramp_bvp()
    cfg = SolverConfig()
    assert solve(bvp, cfg, start=np.linspace(-0.5, 2.0, 400)).mesh.nodes.size == 400
    with pytest.raises(ValueError, match="start mesh of 401 nodes exceeds max_mesh_points 400"):
        solve(bvp, cfg, start=np.linspace(-0.5, 2.0, 401))
    with pytest.raises(ValueError, match="start mesh of 1000 nodes exceeds max_mesh_points 400"):
        solve(bvp, cfg)


def test_refinement_passes_are_logged_at_debug_level(caplog):
    caplog.set_level(logging.DEBUG, logger="scem_rd")
    sol = solve(scalar_layer_bvp(1e-4), SolverConfig(initial_mesh_points=21))
    passes = [r.getMessage() for r in caplog.records if r.name == "scem_rd"]
    assert len(passes) == sol.newton_iterations // 2 > 1  # linear: 2 iterations a pass
    assert passes[0].startswith("pass 1: 21 nodes, 2 Newton iterations")
    assert passes[-1].startswith(f"pass {len(passes)}: {sol.mesh.nodes.size} nodes")
    assert f"max residual {sol.max_residual:.3e}" in passes[-1]


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(residual_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(initial_mesh_points=1)
    with pytest.raises(ValueError):
        FirstOrderBvp(dim=1, rhs=lambda t, u: u, bc=lambda a, b: a, interval=(1.0, 0.0))


@pytest.mark.parametrize("value", [float("nan"), 2.5, 0, 1.0, True])
@pytest.mark.parametrize("field", ["max_newton", "max_mesh_points", "initial_mesh_points"])
def test_limits_must_be_integers(field, value):
    # the Newton cap and the node budget are constants, not fields: a config
    # cannot set them to anything, so no NaN budget can disable MeshOverflow
    if field != "initial_mesh_points":
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
            SolverConfig(**{field: value})
        return
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SolverConfig(**{field: value})


def test_start_mesh_must_fit_the_budget(monkeypatch):
    monkeypatch.setattr(collocation, "_MAX_MESH_POINTS", 100)
    SolverConfig(initial_mesh_points=100)
    with pytest.raises(ValueError, match="initial_mesh_points 101 exceeds max_mesh_points 100"):
        SolverConfig(initial_mesh_points=101)


def test_solver_config_holds_the_three_values_callers_set():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "residual_tol", "initial_mesh_points", "adaptive"]


@pytest.mark.parametrize("field", ["residual_tol", "newton_tol"])
def test_nan_tolerance_rejected(field):
    # a NaN residual_tol would mark no interval for refinement, so an
    # unmet tolerance would repeat the same pass forever; Newton's
    # tolerance is a constant that no config sets
    if field == "newton_tol":
        with pytest.raises(TypeError, match="unexpected keyword argument 'newton_tol'"):
            SolverConfig(newton_tol=float("nan"))
        return
    with pytest.raises(ValueError, match="tolerances must be positive"):
        SolverConfig(**{field: float("nan")})


@settings(max_examples=20, deadline=None)
@given(
    c=st.tuples(*[st.floats(min_value=-2.0, max_value=2.0) for _ in range(4)]),
)
def test_polynomial_exactness_property(c):
    # any cubic u(t) = c0 + c1 t + c2 t^2 + c3 t^3 is reproduced on any mesh
    c0, c1, c2, c3 = c

    def u(t):
        return c0 + c1 * t + c2 * t * t + c3 * t**3

    def rhs(t, w):
        return np.column_stack([w[:, 1], 2.0 * c2 + 6.0 * c3 * t])

    bvp = FirstOrderBvp(
        dim=2, rhs=rhs,
        bc=lambda ua, ub: np.array([ua[0] - u(0.0), ub[0] - u(1.0)]),
        interval=(0.0, 1.0),
    )
    sol = solve(bvp, SolverConfig(initial_mesh_points=5, adaptive=False))
    xs = np.linspace(0.0, 1.0, 37)
    assert np.max(np.abs(evaluate(sol, xs)[:, 0] - u(xs))) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(min_value=1, max_value=4),
)
def test_band_layout_for_every_bc_row_split(data, dim):
    # u' = M u with the first pa components fixed at a, the rest at b;
    # pa = 0 and pa = dim are the extreme band widths
    pa = data.draw(st.integers(min_value=0, max_value=dim))
    entries = st.floats(min_value=-0.5, max_value=0.5)
    M = np.array(data.draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim)))
    M = M.reshape(dim, dim)
    c = np.array(data.draw(st.lists(
        st.floats(min_value=-1.0, max_value=1.0), min_size=dim, max_size=dim)))
    B = np.vstack([np.eye(dim)[:pa], expm(M)[pa:]])  # bc rows acting on u(a)
    assume(np.linalg.cond(B) < 1e6)
    ua = np.linalg.solve(B, c)

    bvp = FirstOrderBvp(
        dim=dim,
        rhs=lambda t, U: U @ M.T,
        bc=lambda ua, ub: np.concatenate([ua[:pa], ub[pa:]]) - c,
        interval=(0.0, 1.0),
        rhs_jac=lambda t, U: np.broadcast_to(M, (len(t), dim, dim)),
    )
    sol = solve(bvp, SolverConfig(initial_mesh_points=201, adaptive=False))
    want = np.array([expm(M * t) @ ua for t in sol.mesh.nodes])
    assert np.max(np.abs(sol.node_values - want)) <= 1e-8


def test_coupled_bc_is_rejected_before_factoring(monkeypatch):
    # row 1 couples u(b) with u(a): its pattern comes from finite differences
    # of bc, or from an analytic bc_jac, and either way nothing is factored
    monkeypatch.setattr(collocation, "dgbtrf", mock.Mock(side_effect=AssertionError("factored")))
    coupled = dataclasses.replace(
        linear_ramp_bvp(), bc=lambda ua, ub: np.array([ua[0], ub[0] + ua[0] - 1.0]))
    bc_jac = mock.Mock(return_value=(np.array([[1.0, 0.0], [1.0, 0.0]]),
                                     np.array([[0.0, 0.0], [1.0, 0.0]])))
    for bvp in (coupled, dataclasses.replace(coupled, bc_jac=bc_jac)):
        for linear in (False, True):
            with pytest.raises(ValueError, match=r"boundary condition row 1 depends on both "
                                                 r"u\(a\) and u\(b\)"):
                solve(dataclasses.replace(bvp, linear=linear), SolverConfig(initial_mesh_points=5))
    assert bc_jac.call_count == 2
    assert collocation.dgbtrf.call_count == 0


def test_band_lu_loaded_by_file_is_bitwise_scipy_linalg_lapack():
    # a fresh process: collocation takes the routines from numpy's LAPACK
    # without importing scipy, which is imported only afterwards, to compare
    # with; scipy's pivots are 0-based, LAPACK's 1-based
    script = """
import sys
import numpy as np
from scem_rd import collocation
from scem_rd.problems import example1, example2
from scem_rd.scem import build_layer_problem

assert "scipy" not in sys.modules
loaded = collocation.dgbtrf, collocation.dgbtrs
systems = []  # [ab, kl, ku, rhs] of each factorization and its back-solve

def recording_dgbtrf(ab, kl, ku, **kwargs):
    systems.append([ab.copy(order="F"), kl, ku])
    return loaded[0](ab, kl, ku, **kwargs)

def recording_dgbtrs(lu, kl, ku, rhs, piv):
    systems[-1].append(rhs.copy())
    return loaded[1](lu, kl, ku, rhs, piv)

collocation.dgbtrf, collocation.dgbtrs = recording_dgbtrf, recording_dgbtrs
for make in (example1, example2):
    system = make(2.0**-8)
    bvp = build_layer_problem(system, 0.0).bvp
    collocation.solve(bvp, collocation.SolverConfig(initial_mesh_points=1025, adaptive=False))
assert "scipy" not in sys.modules
from scipy.linalg import lapack

assert [(kl, ku) for _, kl, ku, _ in systems] == [(5, 5), (8, 8)]
for ab, kl, ku, rhs in systems:
    results = []
    for getrf, getrs in (loaded, (lapack.dgbtrf, lapack.dgbtrs)):
        lu, piv, info = getrf(ab.copy(order="F"), kl, ku)
        x, solve_info = getrs(lu, kl, ku, rhs, piv)
        results.append((lu, piv, info, x, solve_info))
    (lu, piv, info, x, solve_info), want = results
    assert info == solve_info == 0
    assert np.array_equal(piv, want[1] + 1)
    for got, expected in zip((lu, info, x, solve_info), want[:1] + want[2:]):
        assert np.array_equal(got, expected)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(collocation.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("failure", ["missing-symbol", "cdll-oserror"])
def test_band_lu_loader_falls_back_to_the_public_import(monkeypatch, failure):
    # stand-ins on scipy.linalg.lapack show which path the loader took
    public = mock.Mock(name="dgbtrf"), mock.Mock(name="dgbtrs")
    monkeypatch.setattr(lapack, "dgbtrf", public[0])
    monkeypatch.setattr(lapack, "dgbtrs", public[1])
    if failure == "missing-symbol":  # numpy on a LAPACK without scipy_dgbtrf_64_
        library = mock.Mock(spec=["scipy_dgbtrs_64_"])
        monkeypatch.setattr(ctypes, "CDLL", mock.Mock(return_value=library))
    else:
        monkeypatch.setattr(ctypes, "CDLL", mock.Mock(side_effect=OSError("cannot load")))
    dgbtrf, dgbtrs = collocation._band_lu()
    assert dgbtrf is public[0] and dgbtrs is public[1]


def test_gauss_table_is_bitwise_leggauss():
    x, w = np.polynomial.legendre.leggauss(5)
    assert x.tobytes() == collocation._GAUSS_X.tobytes()
    assert w.tobytes() == collocation._GAUSS_W.tobytes()


def test_band_lu_solves_a_small_band_and_keeps_its_inputs():
    # a diagonally dominant band with kl = 2, ku = 1 on 7 columns; entry
    # (r, c) sits at ab[kl + ku + r - c, c], below kl rows of fill
    kl, ku, n = 2, 1, 7
    rng = np.random.default_rng(7)
    dense = np.triu(np.tril(rng.uniform(-1.0, 1.0, (n, n)), ku), -kl) + 4.0 * np.eye(n)
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    for r, c in zip(*np.nonzero(dense)):
        ab[kl + ku + r - c, c] = dense[r, c]
    rhs = rng.uniform(-1.0, 1.0, n)
    band, right = ab.copy(order="F"), rhs.copy()
    lu, piv, info = collocation.dgbtrf(ab, kl, ku)
    x, solve_info = collocation.dgbtrs(lu, kl, ku, rhs, piv)
    assert info == solve_info == 0
    assert np.array_equal(ab, band) and np.array_equal(rhs, right)
    np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=0, atol=1e-14)


def ctypes_band_lu(monkeypatch):
    """The ctypes wrappers bound to stand-in LAPACK routines that record
    every call."""
    library = mock.Mock(spec=["scipy_dgbtrf_64_", "scipy_dgbtrs_64_"])
    monkeypatch.setattr(ctypes, "CDLL", mock.Mock(return_value=library))
    return (*collocation._band_lu(), library)


@pytest.mark.parametrize("band", [
    pytest.param(np.zeros((16, 8)), id="c-ordered"),
    pytest.param(np.zeros((16, 8), dtype=np.float32, order="F"), id="float32"),
    pytest.param(np.zeros((15, 8), order="F"), id="too-few-rows"),
])
def test_band_wrappers_reject_a_bad_band_before_calling_lapack(monkeypatch, band):
    dgbtrf, dgbtrs, library = ctypes_band_lu(monkeypatch)
    with pytest.raises(ValueError):
        dgbtrf(band, 5, 5, overwrite_ab=1)
    with pytest.raises(ValueError):
        dgbtrs(band, 5, 5, np.zeros(8), np.ones(8, dtype=np.int64))
    assert library.scipy_dgbtrf_64_.call_count == library.scipy_dgbtrs_64_.call_count == 0


@pytest.mark.parametrize("rhs, piv", [
    pytest.param(np.zeros(8, dtype=np.float32), np.ones(8, dtype=np.int64), id="float32-rhs"),
    pytest.param(np.zeros(7), np.ones(8, dtype=np.int64), id="short-rhs"),
    pytest.param(np.zeros((8, 1)), np.ones(8, dtype=np.int64), id="2d-rhs"),
    pytest.param(np.zeros(8), np.ones(8, dtype=np.int32), id="int32-pivots"),
])
def test_band_solve_rejects_a_bad_right_hand_side_or_pivots(monkeypatch, rhs, piv):
    _, dgbtrs, library = ctypes_band_lu(monkeypatch)
    with pytest.raises(ValueError):
        dgbtrs(np.zeros((16, 8), order="F"), 5, 5, rhs, piv)
    assert library.scipy_dgbtrs_64_.call_count == 0


SINGULAR_BCS = {
    "bc-row-on-neither-endpoint": lambda ua, ub: np.array([ua[0], 0.0 * ub[0]]),
    "zero-band-pivot": lambda ua, ub: np.array([ua[1], ub[1]]),  # u[0] undetermined
}


@pytest.mark.parametrize("bc, linear", [
    pytest.param(bc, linear, id=name + ("-linear" if linear else ""))
    for linear in (False, True) for name, bc in SINGULAR_BCS.items()
])
def test_singular_jacobian_raises_newton_divergence(bc, linear):
    bvp = dataclasses.replace(linear_ramp_bvp(), bc=bc, linear=linear)
    with pytest.raises(NewtonDivergence, match="collocation Jacobian is singular"):
        solve(bvp, SolverConfig(initial_mesh_points=5))


def test_linear_layer_problem_factors_once_per_pass(monkeypatch, caplog):
    # one assembly, one factorization and one back-solve a pass, so no
    # line-search trial and no chord step, on a refined and a fixed mesh
    caplog.set_level(logging.DEBUG, logger="scem_rd")
    layer = build_layer_problem(example1(1e-6), 0.0)
    dim = layer.bvp.dim
    calls = {}

    def counting(name, size):
        fun = getattr(collocation, name)
        calls[name] = []

        def wrapper(*args, **kwargs):
            calls[name].append(size(*args))
            return fun(*args, **kwargs)

        monkeypatch.setattr(collocation, name, wrapper)

    counting("_collocation_system", lambda bvp, nodes, Y: nodes.size)
    counting("dgbtrf", lambda ab, *args: ab.shape[1] // dim)
    counting("dgbtrs", lambda lu, kl, ku, rhs, piv: rhs.size // dim)
    for cfg in (SolverConfig(), SolverConfig(initial_mesh_points=257, adaptive=False)):
        caplog.clear()
        for seen in calls.values():
            seen.clear()
        sol = solve(layer.bvp, cfg)
        logged = [r.getMessage() for r in caplog.records if r.name == "scem_rd"]
        passes = [int(line.split()[2]) for line in logged]  # "pass k: N nodes, ..."
        if cfg.adaptive:
            assert len(passes) > 1  # refinement happened
        else:
            assert passes == [257]
        assert calls == dict.fromkeys(calls, passes)
        assert sol.newton_iterations == len(passes)  # one linear step a pass
        paths = [line.split(", ")[1] for line in logged]
        assert paths == ["linear solve (1 factorization)"] * len(passes)


@pytest.mark.parametrize("cfg", [SolverConfig(initial_mesh_points=257, adaptive=False),
                                 SolverConfig(initial_mesh_points=21)],
                         ids=["fixed-mesh", "adaptive"])
def test_linear_path_agrees_with_newton_on_the_layer_problem(cfg):
    sys = example2(1e-4)
    bvp = build_layer_problem(sys, 0.0).bvp
    assert bvp.linear
    linear = solve(bvp, cfg)
    newton = solve(dataclasses.replace(bvp, linear=False), cfg)
    assert np.array_equal(linear.mesh.nodes, newton.mesh.nodes)
    np.testing.assert_allclose(linear.node_values, newton.node_values, rtol=0, atol=1e-12)
    assert newton.newton_iterations > linear.newton_iterations


def test_non_finite_linear_step_raises_newton_divergence():
    # u'' = 0, exact from zero in one step, except that rhs is NaN at one
    # midpoint of the uniform mesh, where the Newton line search would fail
    def rhs(t, u):
        out = np.column_stack([u[:, 1], np.zeros_like(t)])
        out[np.isclose(t, 0.45), 1] = np.nan
        return out

    bvp = dataclasses.replace(linear_ramp_bvp(), rhs=rhs, linear=True)
    cfg = SolverConfig(initial_mesh_points=11, adaptive=False)
    with pytest.raises(NewtonDivergence, match="not finite"):
        solve(bvp, cfg)
    with pytest.raises(NewtonDivergence):
        solve(dataclasses.replace(bvp, linear=False), cfg)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg", [SolverConfig(initial_mesh_points=21, adaptive=False),
                                 SolverConfig(initial_mesh_points=21)],
                         ids=["fixed-mesh", "adaptive"])
def test_overflowing_newton_pass_raises_newton_divergence_quietly(cfg):
    # u'' = e^u, u(0) = 0, u(1) = 800: the first full step from ones heads for
    # u = 800 t, past where e^u overflows
    bvp = FirstOrderBvp(
        dim=2,
        rhs=lambda t, u: np.column_stack([u[:, 1], np.exp(u[:, 0])]),
        bc=lambda ua, ub: np.array([ua[0], ub[0] - 800.0]),
        interval=(0.0, 1.0),
    )
    with pytest.raises(NewtonDivergence, match="no residual decrease after 10 step halvings"):
        solve(bvp, cfg)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps", [1e200, 1e300])
def test_residual_estimate_overflows_quietly(eps):
    bvp = build_layer_problem(example2(eps), 0.0).bvp
    sol = solve(bvp, SolverConfig(adaptive=False))
    res = estimate_residual(bvp, sol)
    assert res.shape == (999,) and np.all(res == np.inf)


@pytest.mark.parametrize("linear", [False, True], ids=["newton", "linear"])
def test_non_finite_residual_estimate_raises_newton_divergence(monkeypatch, linear):
    # u'' = 0 with rhs NaN only where the residual quadrature looks (Gauss
    # points in (0.4, 0.5), not nodes or midpoints): each pass converges, and
    # a NaN estimate marks no interval for halving, so the same mesh would
    # be solved again and again
    def rhs(t, u):
        out = np.column_stack([u[:, 1], np.zeros_like(t)])
        gauss = (t > 0.4) & (t < 0.5) & ~np.isclose(t, 0.45)
        out[gauss, 1] = np.nan
        return out

    calls = []
    residual = collocation._residual_per_interval

    def bounded_residual(*args):
        calls.append(1)
        assert len(calls) <= 3, "the same mesh is solved again and again"
        return residual(*args)

    monkeypatch.setattr(collocation, "_residual_per_interval", bounded_residual)
    bvp = dataclasses.replace(linear_ramp_bvp(), rhs=rhs, linear=linear)
    with pytest.raises(NewtonDivergence, match="residual estimate is not finite"):
        solve(bvp, SolverConfig(initial_mesh_points=11))
    assert len(calls) == 1


def example1_layer_bvp(eps):
    sys = example1(eps)
    return build_layer_problem(sys, 0.0).bvp


@pytest.fixture
def residual_calls(monkeypatch):
    """Node counts of the meshes the residual quadrature runs on."""
    calls = []
    residual = collocation._residual_per_interval

    def counting_residual(bvp, nodes, *args):
        calls.append(nodes.size)
        return residual(bvp, nodes, *args)

    monkeypatch.setattr(collocation, "_residual_per_interval", counting_residual)
    return calls


@pytest.mark.parametrize("n", [64, 1024])
def test_fixed_mesh_solve_skips_residual_quadrature(residual_calls, n):
    sol = solve(example1_layer_bvp(2.0**-10),
                SolverConfig(initial_mesh_points=n + 1, adaptive=False))
    assert residual_calls == []
    assert sol.max_residual is None
    assert sol.mesh.nodes.size == n + 1


def test_one_pass_adaptive_solve_equals_fixed_mesh_solve(residual_calls):
    # on 257 uniform nodes the first pass already meets residual_tol (6.1e-8)
    bvp = example1_layer_bvp(2.0**-4)
    fixed = solve(bvp, SolverConfig(initial_mesh_points=257, adaptive=False))
    adaptive = solve(bvp, SolverConfig(initial_mesh_points=257))
    assert residual_calls == [257]  # one pass
    assert np.array_equal(adaptive.mesh.nodes, fixed.mesh.nodes)
    assert np.array_equal(adaptive.node_values, fixed.node_values)
    assert np.array_equal(adaptive.node_slopes, fixed.node_slopes)
    assert adaptive.newton_iterations == fixed.newton_iterations
    assert adaptive.max_residual <= SolverConfig().residual_tol
    assert np.max(estimate_residual(bvp, fixed)) == adaptive.max_residual


def test_fixed_mesh_pass_logs_that_no_residual_was_estimated(caplog):
    caplog.set_level(logging.DEBUG, logger="scem_rd")
    solve(scalar_layer_bvp(1e-4), SolverConfig(initial_mesh_points=21, adaptive=False))
    passes = [r.getMessage() for r in caplog.records if r.name == "scem_rd"]
    assert passes == [
        "pass 1: 21 nodes, 2 Newton iterations, "
        "residual not estimated (fixed mesh)"
    ]


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)


def broadcast_hermite_residual(bvp, nodes, values, slopes):
    """The residual quadrature written out with broadcast Hermite formulas on
    (N, 5, dim) arrays: the reference for the tabulated-basis kernel."""
    h = np.diff(nodes)
    tau = 0.5 * (_GAUSS_X + 1.0)
    tq = nodes[:-1, None] + h[:, None] * tau[None, :]
    y0, y1 = values[:-1, None, :], values[1:, None, :]
    s0, s1 = slopes[:-1, None, :], slopes[1:, None, :]
    hh = h[:, None, None]
    t = tau[None, :, None]
    t2 = t * t
    t3 = t2 * t
    S = (y0 * (1.0 - 3.0 * t2 + 2.0 * t3) + y1 * (3.0 * t2 - 2.0 * t3)
         + hh * s0 * (t - 2.0 * t2 + t3) + hh * s1 * (t3 - t2))
    Sp = (y0 * (6.0 * t2 - 6.0 * t) + y1 * (6.0 * t - 6.0 * t2)
          + hh * s0 * (1.0 - 4.0 * t + 3.0 * t2) + hh * s1 * (3.0 * t2 - 2.0 * t)) / hh
    fq = bvp.rhs(tq.ravel(), S.reshape(-1, bvp.dim)).reshape(S.shape)
    g = np.max(np.abs(Sp - fq) / (1.0 + np.abs(fq)), axis=2)
    return np.sqrt(np.sum((_GAUSS_W / 2.0)[None, :] * g * g, axis=1))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(min_value=1, max_value=4),
       n_nodes=st.integers(min_value=2, max_value=60))
def test_residual_kernel_matches_broadcast_hermite(data, dim, n_nodes):
    # Spacing >= 2^-10 and |values|, |slopes| <= 10 bound every Hermite term
    # of S' by 30/h + 20 < 3.1e4, so reordering the 4-term sums moves the
    # residual by a few ulps of that: 1e-10 leaves a margin of about 10.
    gaps = data.draw(st.lists(st.floats(min_value=2.0**-10, max_value=1.0),
                              min_size=n_nodes - 1, max_size=n_nodes - 1))
    nodes = np.concatenate([[0.0], np.cumsum(gaps)])
    assume(np.all(np.diff(nodes) > 0.0))
    bounded = st.floats(min_value=-10.0, max_value=10.0)
    values, slopes = (
        np.array(data.draw(st.lists(bounded, min_size=n_nodes * dim,
                                    max_size=n_nodes * dim))).reshape(n_nodes, dim)
        for _ in range(2)
    )
    bvp = FirstOrderBvp(dim=dim, rhs=lambda t, U: np.sin(U[:, ::-1]) + t[:, None],
                        bc=lambda ua, ub: ua, interval=(nodes[0], nodes[-1]))
    got = collocation._residual_per_interval(bvp, nodes, values, slopes)
    want = broadcast_hermite_residual(bvp, nodes, values, slopes)
    assert got.shape == (n_nodes - 1,)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def plain_residual(bvp, nodes, values, slopes):
    """The residual quadrature in its plain form (np.stack, np.max over the
    component axis, w * g * g): the bitwise reference for the in-place
    kernel, which keeps its operation order."""
    h = np.diff(nodes)
    n_int, dim = h.size, bvp.dim
    coef = np.stack([
        values[:-1], values[1:], h[:, None] * slopes[:-1], h[:, None] * slopes[1:],
    ]).reshape(4, n_int * dim)
    S = (collocation._GAUSS_VALUE @ coef).reshape(5, n_int, dim)
    Sp = (collocation._GAUSS_SLOPE @ coef).reshape(5, n_int, dim) / h[:, None]
    tq = nodes[:-1] + collocation._GAUSS_TAU[:, None] * h
    fq = bvp.rhs(tq.ravel(), S.reshape(-1, dim)).reshape(S.shape)
    g = np.max(np.abs(Sp - fq) / (1.0 + np.abs(fq)), axis=2)
    return np.sqrt(np.sum((_GAUSS_W / 2.0)[:, None] * g * g, axis=0))


@pytest.mark.parametrize("dim", range(1, 7))
def test_residual_kernel_is_bitwise_the_plain_formula(dim):
    rng = np.random.default_rng(dim)
    mix = rng.normal(size=(dim, dim))
    bvp = FirstOrderBvp(dim=dim, rhs=lambda t, U: np.sin(U @ mix) * np.exp(t)[:, None],
                        bc=lambda ua, ub: ua, interval=(0.0, 5.0))
    for n in (2, 3, 40, 999):
        nodes = np.sort(np.concatenate([[0.0, 5.0], rng.uniform(0.0, 5.0, n - 2)]))
        values, slopes = rng.normal(size=(2, n, dim)) * 10.0 ** rng.uniform(-4, 4, (2, 1, dim))
        got = collocation._residual_per_interval(bvp, nodes, values, slopes)
        assert np.array_equal(got, plain_residual(bvp, nodes, values, slopes))


def test_residual_kernel_is_bitwise_the_plain_formula_on_a_layer_problem():
    sys = example2(1e-8)
    bvp = build_layer_problem(sys, 0.0).bvp
    assert bvp.dim == 6
    sol = solve(bvp, SolverConfig(initial_mesh_points=41, adaptive=False))
    args = (bvp, sol.mesh.nodes, sol.node_values, sol.node_slopes)
    assert np.array_equal(collocation._residual_per_interval(*args), plain_residual(*args))


def test_residual_kernel_keeps_a_nan_component():
    bvp = FirstOrderBvp(dim=3, rhs=lambda t, U: U[:, ::-1] + t[:, None],
                        bc=lambda ua, ub: ua, interval=(0.0, 1.0))
    nodes = np.linspace(0.0, 1.0, 11)
    values, slopes = np.random.default_rng(0).normal(size=(2, 11, 3))
    slopes[4, 2] = np.nan  # enters the cubics of intervals 3 and 4 only
    got = collocation._residual_per_interval(bvp, nodes, values, slopes)
    want = plain_residual(bvp, nodes, values, slopes)
    assert np.array_equal(np.isnan(got), np.isin(np.arange(10), [3, 4]))
    assert np.array_equal(got, want, equal_nan=True)


def einsum_blocks(bvp, nodes, Y, data):
    """Interval closure blocks with the block products taken by einsum."""
    h, t_mid, f_nodes, y_mid, f_mid, _ = data
    Jk = bvp.rhs_jac(nodes, Y)
    Jm = bvp.rhs_jac(t_mid, y_mid)
    eye = np.eye(bvp.dim)[None]
    h6, h3, h212 = (x[:, None, None] for x in (h / 6.0, h / 3.0, h * h / 12.0))
    L = -eye - h6 * Jk[:-1] - h3 * Jm - h212 * np.einsum("kij,kjl->kil", Jm, Jk[:-1])
    R = eye - h6 * Jk[1:] - h3 * Jm + h212 * np.einsum("kij,kjl->kil", Jm, Jk[1:])
    return L, R


def jacobian_blocks_and_reference(bvp, nodes):
    Y = np.cos(np.outer(nodes, np.arange(1, bvp.dim + 1)))
    _, data = collocation._collocation_system(bvp, nodes, Y)
    L, R, _, _ = collocation._jacobian_blocks(bvp, nodes, Y, data)
    return (L, R), einsum_blocks(bvp, nodes, Y, data)


@pytest.mark.parametrize("dim", [1, 3, 4])
def test_jacobian_blocks_match_einsum_for_dense_jacobian(dim):
    rng = np.random.default_rng(dim)
    freq, phase = rng.normal(size=(2, dim, dim))
    bvp = FirstOrderBvp(
        dim=dim, rhs=lambda t, U: U, bc=lambda ua, ub: ua, interval=(0.0, 3.0),
        rhs_jac=lambda t, U: np.cos(t[:, None, None] * freq + phase) * (1.0 + U[:, :, None]),
    )
    nodes = np.sort(np.concatenate([[0.0, 3.0], rng.uniform(0.0, 3.0, 200)]))
    for got, want in zip(*jacobian_blocks_and_reference(bvp, nodes)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("make", [example1, example2], ids=["example1", "example2"])
def test_jacobian_blocks_bitwise_for_layer_problem(make):
    # the layer Jacobian [[0, I], [A, 0]]: every product has one nonzero term
    sys = make(1e-4)
    layer = build_layer_problem(sys, 1.0)
    nodes = np.linspace(*layer.bvp.interval, 301)
    for got, want in zip(*jacobian_blocks_and_reference(layer.bvp, nodes)):
        assert np.array_equal(got, want)


def loop_jacobian(bvp, ts, U, F):
    """d rhs / d u by one forward difference per column, written as a loop."""
    m, dim = U.shape
    out = np.empty((m, dim, dim))
    step = np.sqrt(np.finfo(float).eps)
    for j in range(dim):
        dU = U.copy()
        dj = step * (1.0 + np.abs(U[:, j]))
        dU[:, j] += dj
        out[:, :, j] = (collocation._rhs_all(bvp, ts, dU) - F) / dj[:, None]
    return out


def loop_bc_jacobians(bvp, ua, ub, r0):
    """d bc / d ua and d bc / d ub, one endpoint column at a time."""
    dim = bvp.dim
    Ba = np.empty((dim, dim))
    Bb = np.empty((dim, dim))
    step = np.sqrt(np.finfo(float).eps)
    for j in range(dim):
        dj = step * (1.0 + abs(ua[j]))
        ua_p = ua.copy()
        ua_p[j] += dj
        Ba[:, j] = (np.asarray(bvp.bc(ua_p, ub), dtype=float) - r0) / dj
        dj = step * (1.0 + abs(ub[j]))
        ub_p = ub.copy()
        ub_p[j] += dj
        Bb[:, j] = (np.asarray(bvp.bc(ua, ub_p), dtype=float) - r0) / dj
    return Ba, Bb


def loop_blocks(bvp, nodes, Y, data):
    h, t_mid, f_nodes, y_mid, f_mid, bc_res = data
    Jk = loop_jacobian(bvp, nodes, Y, f_nodes)
    Jm = loop_jacobian(bvp, t_mid, y_mid, f_mid)
    eye = np.eye(bvp.dim)[None]
    h6, h3, h212 = (x[:, None, None] for x in (h / 6.0, h / 3.0, h * h / 12.0))
    L = -eye - h6 * Jk[:-1] - h3 * Jm - h212 * (Jm @ Jk[:-1])
    R = eye - h6 * Jk[1:] - h3 * Jm + h212 * (Jm @ Jk[1:])
    return (L, R, *loop_bc_jacobians(bvp, Y[0].copy(), Y[-1].copy(), bc_res))


def nonlinear_bvp(dim):
    rng = np.random.default_rng(dim)
    M, C = rng.normal(size=(2, dim, dim))
    return FirstOrderBvp(
        dim=dim, rhs=lambda t, U: np.sin(U @ M + t[:, None]) * (1.0 + U * U),
        bc=lambda ua, ub: np.tanh(C @ ua) + ub**3 - 0.5, interval=(0.0, 2.0),
    )


def example2_layer_without_jacobian():
    sys = example2(2.0**-8)
    layer = build_layer_problem(sys, 1.0)
    return dataclasses.replace(layer.bvp, rhs_jac=None, bc_jac=None)


@pytest.mark.parametrize(
    "make", [lambda: nonlinear_bvp(1), lambda: nonlinear_bvp(3), lambda: nonlinear_bvp(4),
             example2_layer_without_jacobian],
    ids=["nonlinear-1", "nonlinear-3", "nonlinear-4", "example2-layer"],
)
def test_finite_difference_blocks_are_bitwise_the_column_loops(make):
    bvp = make()
    calls = []
    counted = dataclasses.replace(bvp, bc=lambda ua, ub: calls.append(1) or bvp.bc(ua, ub))
    nodes = np.linspace(*bvp.interval, 257)
    Y = 0.7 * np.cos(np.outer(nodes, np.arange(1, bvp.dim + 1)))
    _, data = collocation._collocation_system(bvp, nodes, Y)
    got = collocation._jacobian_blocks(counted, nodes, Y, data)
    assert len(calls) == 2 * bvp.dim
    for g, want in zip(got, loop_blocks(bvp, nodes, Y, data)):
        assert g.shape == want.shape
        assert np.array_equal(g, want)
