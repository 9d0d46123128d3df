"""Tests for the hybrid pipeline: reduced solve, layer problems, composite."""

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_bvp

import scem_rd.scem as scem
from scem_rd import collocation
from scem_rd.analysis import GridFunction, exact_constant_system, max_norm
from scem_rd.collocation import SolverConfig, evaluate, solve
from scem_rd.config import BUILTIN_PROBLEMS, config_from_dict
from scem_rd.problems import example1, example2
from scem_rd.scem import (
    AssumptionViolation,
    HybridApproximation,
    SingularReducedMatrix,
    build_layer_problem,
    hybrid_solve,
    solve_reduced,
)
from scem_rd.system import (
    check_max_principle,
    forcing_max_norm,
    make_system,
    stability_bound,
    validate_assumptions,
)

CFG = SolverConfig(initial_mesh_points=400)


def test_reduced_example1_is_constant():
    outer = solve_reduced(example1(0.01))
    xs = np.linspace(0.0, 1.0, 1001)
    dev = np.max(np.abs(outer.eval_many(xs) - np.array([0.7, 0.9])))
    assert dev <= 1e-12


def test_reduced_zero_forcing():
    sys = make_system([[4.0, -2.0], [-1.0, 3.0]], [0.0, 0.0], [0.01, 0.01])
    outer = solve_reduced(sys)
    assert np.max(np.abs(outer.eval_many(np.linspace(0, 1, 11)))) == 0.0


def test_reduced_example2_linear_profile():
    outer = solve_reduced(example2(0.01))
    assert np.allclose(outer(0.5), [0.3, 0.55, 0.35], atol=1e-12)
    xs = np.linspace(0.0, 1.0, 101)
    want = np.stack([0.2 * xs + 0.2, 0.2 * xs + 0.45, 0.4 * xs + 0.15], axis=1)
    assert np.max(np.abs(outer.eval_many(xs) - want)) <= 1e-12


def test_reduced_singular_matrix_rejected():
    sys = make_system([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0], [0.01, 0.01])
    outer = solve_reduced(sys)
    with pytest.raises(SingularReducedMatrix):
        outer(0.5)


class _TabulatedSystem:
    """Stand-in system whose A at the k-th query point is ``mats[k]``."""

    def __init__(self, mats):
        self.mats = mats

    def coeff_matrix(self, xs):
        return self.mats

    def forcing_vector(self, xs):
        return np.ones(self.mats.shape[:2])


@st.composite
def _reduced_matrix(draw, n):
    kind = draw(st.sampled_from(["dominant", "general", "near_singular"]))
    if kind == "near_singular":  # [[1, 1], [1, 1 + delta]] in the leading block
        A = np.eye(n)
        A[:2, :2] = [[1.0, 1.0], [1.0, 1.0 + 10.0 ** draw(st.floats(-18.0, -8.0))]]
        return A
    entries = st.floats(-10.0, 10.0, allow_nan=False)
    A = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    if kind == "dominant":  # row margins from 1e-17 (SVD fallback) up to 10
        margins = [10.0 ** draw(st.floats(-17.0, 1.0)) for _ in range(n)]
        off = np.abs(A).sum(axis=1) - np.abs(np.diag(A))
        np.fill_diagonal(A, np.where(np.diag(A) < 0, -1.0, 1.0) * (off + margins))
    return A


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.sampled_from([2, 3]), size=st.integers(1, 6))
def test_singular_decision_matches_svd_condition_number(data, n, size):
    mats = np.array([data.draw(_reduced_matrix(n)) for _ in range(size)])
    outer = scem.OuterSolution(_TabulatedSystem(mats))
    xs = np.linspace(0.0, 1.0, size)
    if np.any(np.linalg.cond(mats) > 1e14):
        with pytest.raises(SingularReducedMatrix):
            outer.eval_many(xs)
    else:
        assert outer.eval_many(xs).shape == (size, n)


@pytest.mark.parametrize("build", [example1, example2], ids=["example1", "example2"])
def test_dominant_reduced_matrix_needs_no_svd(monkeypatch, build):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.cond called on a strictly dominant A")

    monkeypatch.setattr(np.linalg, "cond", no_svd)
    outer = solve_reduced(build(1e-4))
    assert outer.eval_many(np.linspace(0.0, 1.0, 2001)).shape[0] == 2001


# ---------------------------------------------------------------------------
# layer problems
# ---------------------------------------------------------------------------

def test_left_layer_problem_shape():
    sys = example1(0.01)
    lp = build_layer_problem(sys, 0.0)
    assert lp.end == 0.0
    assert lp.bvp.interval == (0.0, 10.0)
    assert lp.bvp.dim == 4
    np.testing.assert_allclose(lp.bc_values, [[-0.7, -0.9], [-0.7, -0.9]], atol=1e-12)


def test_right_layer_problem_shape():
    # measured from x = 1: the same interval as the left problem
    sys = example1(0.01)
    lp = build_layer_problem(sys, 1.0)
    assert lp.end == 1.0
    assert lp.bvp.interval == (0.0, 10.0)
    np.testing.assert_allclose(lp.bc_values, [[-0.7, -0.9], [-0.7, -0.9]], atol=1e-12)


# True == 1.0 and False == 0.0, but a bool is no end
@pytest.mark.parametrize("end", [0.5, -1.0, 2.0, float("nan"), True, False, np.True_])
def test_layer_end_must_be_zero_or_one(end):
    sys = example1(0.01)
    with pytest.raises(ValueError, match="is not 0 or 1"):
        build_layer_problem(sys, end)


def test_zero_data_layer_solution_vanishes():
    sys = make_system([[4.0, -2.0], [-1.0, 3.0]], [0.0, 0.0], [0.01, 0.01])
    lp = build_layer_problem(sys, 0.0)
    np.testing.assert_allclose(lp.bc_values, 0.0, atol=1e-15)
    sol = solve(lp.bvp, CFG)
    assert np.max(np.abs(sol.node_values)) <= 1e-12


def test_right_layer_mirrors_left():
    # both full-image problems describe the same x, at s = x/sqrt(eps) from
    # x = 0 and at 1/sqrt(eps) - s from x = 1, so Psi_1(s) = Psi_0(1/sqrt(eps) - s);
    # a variable A and asymmetric data make a wrong map of A(x) show
    eps = 0.01
    config = _deep_eps_problem("variable_a", "asymmetric")
    sys = config.build_system(eps)
    cfg = SolverConfig(initial_mesh_points=1001, adaptive=False)
    near, far = (build_layer_problem(sys, end) for end in (0.0, 1.0))
    np.testing.assert_array_equal(far.bc_values, near.bc_values[::-1])
    psi0, psi1 = solve(near.bvp, cfg), solve(far.bvp, cfg)
    s = psi1.mesh.nodes
    mirrored = evaluate(psi0, 1.0 / np.sqrt(eps) - s)[:, :2]
    assert np.max(np.abs(psi1.node_values[:, :2] - mirrored)) <= 1e-12


# nested layers, and a partially perturbed system whose reduced problem is a BVP
UNEQUAL_DIFFUSION = pytest.mark.parametrize(
    "diffusion", [[0.01, 0.02], [0.01, 1.0]], ids=["nested", "partial"]
)


@UNEQUAL_DIFFUSION
def test_two_distinct_small_parameters_rejected(diffusion):
    sys = make_system([[4.0, -2.0], [-1.0, 3.0]], [1.0, 2.0], diffusion)
    with pytest.raises(ValueError):
        build_layer_problem(sys, 0.0)


@UNEQUAL_DIFFUSION
def test_hybrid_solve_rejects_unequal_diffusion(diffusion):
    sys = make_system([[4.0, -2.0], [-1.0, 3.0]], [1.0, 2.0], diffusion)
    with pytest.raises(ValueError, match="share one diffusion value"):
        hybrid_solve(sys, CFG)


def test_all_unit_diffusion_is_allowed():
    # equal diffusion of 1: stretched domain is [0, 1] itself
    sys = example1(1.0)
    lp = build_layer_problem(sys, 0.0)
    assert lp.bvp.interval == (0.0, 1.0)
    assert lp.bvp.dim == 4


# ---------------------------------------------------------------------------
# composite
# ---------------------------------------------------------------------------

def test_composite_reproduces_table_values():
    hybrid = hybrid_solve(example1(0.01), SolverConfig())
    y = hybrid.eval(0.5)
    assert y[0] == pytest.approx(0.698588175505725, abs=1e-6)
    assert y[1] == pytest.approx(0.898582598753880, abs=1e-6)

    hybrid4 = hybrid_solve(example1(1e-4), SolverConfig())
    assert hybrid4.eval(0.5)[0] == pytest.approx(0.7, abs=1e-9)
    assert hybrid4.eval(0.3)[0] == pytest.approx(0.7, abs=1e-9)


def test_composite_boundary_cancellation():
    hybrid = hybrid_solve(example1(0.01), CFG)
    assert np.max(np.abs(hybrid.eval(0.0))) <= 1e-10
    assert np.max(np.abs(hybrid.eval(1.0))) <= 1e-10


def test_composite_mismatched_eps_rejected():
    hybrid = hybrid_solve(example1(0.01), CFG)  # one layer on [0, 10]
    for eps in (0.0025, 0.04):  # stretched images 20 and 5
        with pytest.raises(ValueError, match="stretched image"):
            HybridApproximation(solve_reduced(example1(eps)), hybrid.layers)
    with pytest.raises(ValueError, match="dimension 2n"):
        HybridApproximation(solve_reduced(example2(0.01)), hybrid.layers)


def test_composite_checks_every_layer_and_their_count():
    # at eps = 1e-3 the stretched image is 31.62 and both layers are truncated
    # to T = 29.7; an x = 1 layer on [0, 40] reaches past the image
    hybrid = hybrid_solve(example1(1e-3), CFG)
    assert [layer.mesh.b for layer in hybrid.layers] == [T_EXAMPLE1, T_EXAMPLE1]
    long = solve(build_layer_problem(example1(1e-4), 1.0, 40.0).bvp, CFG)
    with pytest.raises(ValueError, match="layer at x = 1 interval"):
        HybridApproximation(hybrid.outer, (hybrid.layers[0], long))
    for layers in ((), (*hybrid.layers, hybrid.layers[0])):
        with pytest.raises(ValueError, match="one or two layers"):
            HybridApproximation(hybrid.outer, layers)


@pytest.mark.parametrize("x", [-0.05, 1.5, -np.inf, np.nan])
def test_composite_rejects_points_outside_the_domain(x):
    # a layer measured by |x - end| would otherwise mirror x = -0.05 onto 0.05
    hybrid = hybrid_solve(example1(0.01), CFG)
    with pytest.raises(ValueError, match="outside the domain"):
        hybrid.eval(x)
    with pytest.raises(ValueError, match="outside the domain"):
        hybrid.eval_many(np.array([0.0, x, 1.0]))


@pytest.mark.parametrize("x", [1.5, -3.0, np.nan])
def test_outer_solution_rejects_points_outside_the_domain(x):
    outer = solve_reduced(example1(0.01))
    with pytest.raises(ValueError, match="outside the domain"):
        outer(x)
    with pytest.raises(ValueError, match="outside the domain"):
        outer.eval_many(np.array([0.5, x]))


@pytest.mark.parametrize("entry", ["evaluate", "outer", "eval", "oracle"])
def test_pointwise_entry_points_take_a_scalar_or_1d_x_only(entry):
    hybrid = hybrid_solve(example1(0.01), CFG)
    fn = {"evaluate": lambda x: evaluate(hybrid.layers[0], x),
          "outer": hybrid.outer, "eval": hybrid.eval,
          "oracle": exact_constant_system(np.array([[4.0, -2.0], [-1.0, 3.0]]),
                                          np.array([1.0, 2.0]), 0.01)}[entry]
    xs = np.linspace(0.0, 0.75, 4)
    rows = fn(xs)
    assert rows.ndim == 2 and rows.shape[0] == 4
    for x, row in zip(xs, rows):  # the oracle's matmul may round a lone row apart
        np.testing.assert_allclose(fn(x), row, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="scalar or 1-D"):
        fn(xs.reshape(2, 2))


def test_evaluate_at_a_scalar_is_its_one_point_row_bitwise():
    layer = hybrid_solve(example1(0.01), CFG).layers[0]
    got = evaluate(layer, 0.5)
    assert got.shape == (layer.dim,)
    assert got.tobytes() == evaluate(layer, [0.5])[0].tobytes()


@pytest.mark.parametrize("components", [-1, 0, 5, 7, 2.5, True, "2"])
def test_evaluate_takes_only_a_component_count_from_1_to_dim(components):
    layer = hybrid_solve(example1(0.01), CFG).layers[0]  # dim 4
    with pytest.raises(ValueError, match="components must be None or an integer from 1 to 4"):
        evaluate(layer, [0.5], components)


@pytest.mark.parametrize("entry", ["outer", "composite"])
def test_eval_many_takes_1d_x_only(entry):
    hybrid = hybrid_solve(example1(0.01), CFG)
    eval_many = {"outer": hybrid.outer.eval_many, "composite": hybrid.eval_many}[entry]
    xs = np.linspace(0.0, 0.75, 4)
    for bad in (xs.reshape(2, 2), xs[:, None], np.float64(0.5)):
        with pytest.raises(ValueError, match="takes 1-D x"):
            eval_many(bad)


@pytest.mark.parametrize("entry", ["outer", "composite"])
def test_eval_many_takes_a_list_or_tuple_as_its_array(entry):
    hybrid = hybrid_solve(example1(0.01), CFG)
    eval_many = {"outer": hybrid.outer.eval_many, "composite": hybrid.eval_many}[entry]
    xs = [0.0, 0.003, 0.5, 0.999, 1.0]
    want = eval_many(np.array(xs))
    for points in (xs, tuple(xs)):
        got = eval_many(points)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="takes 1-D x"):
        eval_many([[0.5]])


def test_composite_checks_shared_outer_values():
    hybrid = hybrid_solve(example1(0.01), CFG)
    xs = np.linspace(0.0, 1.0, 11)
    outer_values = hybrid.outer.eval_many(xs)
    assert np.array_equal(hybrid.eval_many(xs, outer_values), hybrid.eval_many(xs))
    # the composite keeps its own domain check when handed the outer values
    with pytest.raises(ValueError, match="outside the domain"):
        hybrid.eval_many(np.append(xs, 1.5), np.vstack([outer_values, [0.7, 0.9]]))
    for bad in (outer_values[:-1], outer_values[:, :1], outer_values.T,
                outer_values.ravel(), np.zeros((11, 3))):
        with pytest.raises(ValueError, match="shape"):
            hybrid.eval_many(xs, bad)


def test_zero_problem_composite_vanishes():
    sys = make_system([[4.0, -2.0], [-1.0, 3.0]], [0.0, 0.0], [0.01, 0.01])
    hybrid = hybrid_solve(sys, CFG)
    xs = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(hybrid.eval_many(xs))) <= 1e-12


def test_hybrid_close_to_analytic_solution():
    eps = 2.0**-4
    hybrid = hybrid_solve(example1(eps), SolverConfig())
    oracle = exact_constant_system(np.array([[4.0, -2.0], [-1.0, 3.0]]),
                                   np.array([1.0, 2.0]), eps)
    xs = np.linspace(0.0, 1.0, 2001)
    assert np.max(np.abs(hybrid.eval_many(xs) - oracle(xs))) <= 1e-4


def _example1_coefficients(x):
    one = np.ones_like(x)
    return np.array([[4.0 * one, -2.0 * one], [-one, 3.0 * one]]), np.array([one, 2.0 * one])


def _variable_coefficients(x):
    one = np.ones_like(x)
    return (np.array([[8.0 + x, -one], [-one, 9.0 - x * x]]),
            np.array([1.0 + x, 1.0 / (1.0 + x)]))


#: A = [[8 + x, -1], [-1, 9 - x^2]] has delta = 7, so T = 42/sqrt(7) = 15.9:
#: eps = 1e-2 keeps the full image and 1e-3 truncates; unlike example1 its
#: composite has a real O(eps) error
VARIABLE_A_REFERENCE = {
    "name": "variable_a_reference",
    "n": 2,
    "coeff": [["8 + x", "-1"], ["-1", "9 - x*x"]],
    "forcing": ["1 + x", "1/(1 + x)"],
    "diffusion": ["eps", "eps"],
    "bc_left": [0.0, 0.0],
    "bc_right": [0.0, 0.0],
}


#: config, reference coefficients and C of the error bound max(1e-6, C eps)
REFERENCE_SYSTEMS = {
    "example1": (BUILTIN_PROBLEMS["example1"], _example1_coefficients, 0.0),  # exact composite
    "variable_a": (config_from_dict(VARIABLE_A_REFERENCE), _variable_coefficients, 0.05),
}


@pytest.mark.parametrize("eps, name", [(1e-2, "example1"), (1e-3, "example1"),
                                       (1e-2, "variable_a"), (1e-3, "variable_a")],
                         ids=["0.01", "0.001", "variable_a-0.01", "variable_a-0.001"])
def test_nonzero_asymmetric_boundary_values_match_solve_bvp(eps, name):
    # unequal, nonzero data at both ends, against scipy's solve_bvp on the
    # unreduced first-order system
    config, coefficients, c_eps = REFERENCE_SYSTEMS[name]
    left, right = np.array([1.0, -0.5]), np.array([0.25, 2.0])
    config = dataclasses.replace(config, bc_left=tuple(left), bc_right=tuple(right))
    hybrid = hybrid_solve(config.build_system(eps), SolverConfig())
    ends = hybrid.eval_many(np.array([0.0, 1.0]))
    assert np.max(np.abs(ends - [left, right])) <= 1e-9

    def unreduced(x, z):
        A, f = coefficients(x)
        return np.vstack([z[2:], (np.einsum("ijm,jm->im", A, z[:2]) - f) / eps])

    ref = solve_bvp(
        unreduced,
        lambda za, zb: np.concatenate([za[:2] - left, zb[:2] - right]),
        np.linspace(0.0, 1.0, 1001), np.zeros((4, 1001)), tol=1e-9, max_nodes=200000,
    )
    assert ref.success
    layer = np.linspace(0.0, min(20.0 * np.sqrt(eps), 1.0), 401)
    xs = np.unique(np.concatenate([np.linspace(0.0, 1.0, 2001), layer, 1.0 - layer]))
    err = np.max(np.abs(hybrid.eval_many(xs) - ref.sol(xs)[:2].T))
    assert err <= max(1e-6, c_eps * eps)


def _counting_validate(monkeypatch) -> list:
    """Route hybrid_solve's assumption checks through a recorder, starting
    from an empty report memo; returns the list of checked systems."""
    checked = []
    monkeypatch.setattr(scem, "_reports", {})

    def counting(sys):
        checked.append(sys)
        return validate_assumptions(sys)

    monkeypatch.setattr(scem, "validate_assumptions", counting)
    return checked


def test_assumption_violation_raises(monkeypatch):
    checked = _counting_validate(monkeypatch)
    bad = make_system([[1.0, -2.0], [-1.0, 3.0]], [0.0, 0.0], [0.01, 0.01])
    for _ in range(2):  # the kept report fails the repeat too
        with pytest.raises(AssumptionViolation):
            hybrid_solve(bad, CFG)
    assert len(checked) == 1


def test_assumption_reports_are_kept_per_coefficient_field(monkeypatch):
    checked = _counting_validate(monkeypatch)
    # delta = min row sum sets the truncated layer length 42 / sqrt(delta)
    fields = {
        2.0: make_system([[4.0, -2.0], [-1.0, 3.0]], [1.0, 2.0], [1e-8, 1e-8]),
        8.0: make_system([[9.0, -1.0], [-1.0, 9.0]], [1.0, 2.0], [1e-8, 1e-8]),
    }
    for eps in (1e-8, 1e-10):
        for delta, sys in fields.items():
            hybrid = hybrid_solve(dataclasses.replace(sys, diffusion=(eps, eps)))
            assert hybrid.layers[0].mesh.b == pytest.approx(42.0 / np.sqrt(delta), rel=1e-15)
    assert [sys.coeff for sys in checked] == [sys.coeff for sys in fields.values()]


def test_separately_built_systems_with_equal_numbers_share_one_report(monkeypatch):
    checked = _counting_validate(monkeypatch)
    for eps in (1e-4, 1e-8, 1e-12):
        hybrid_solve(make_system([[4, -2], [-1, 3]], [1, 2], [eps, eps]))
    assert len(checked) == 1
    assert len(scem._reports) == 1


def test_equal_numbers_share_one_report_and_neighbouring_ones_do_not(monkeypatch):
    checked = _counting_validate(monkeypatch)
    for coeff, forcing in (([[4, -2], [-1, 3]], [1, 2]),
                           ([[4.0, -2.0], [-1.0, 3.0]], [1.0, 2.0]),
                           ([[4.0, -2.0], [-1.0, 3.0]], [1.0, np.nextafter(2.0, 3.0)])):
        hybrid_solve(make_system(coeff, forcing, [0.01, 0.01]), CFG)
    assert len(checked) == 2
    assert len(scem._reports) == 2


@pytest.mark.parametrize("eps", [1e-2, 1e-8])
def test_signed_zero_entries_share_one_report_and_one_composite(monkeypatch, eps):
    checked = _counting_validate(monkeypatch)
    xs = np.linspace(0.0, 1.0, 1001)

    def composite(zero):
        sys = make_system([[4.0, zero], [zero, 3.0]], [zero, 2.0], [eps, eps],
                          [zero, 0.5], [1.0, zero])
        return hybrid_solve(sys, CFG).eval_many(xs).tobytes()

    shared = [composite(0.0), composite(-0.0)]  # the second hits the first's entry
    assert len(checked) == 1
    assert len(scem._reports) == 1
    monkeypatch.setattr(scem, "_reports", {})
    assert shared == [composite(-0.0)] * 2


class _UnhashableConstant:
    """A coefficient callable with value equality, and so no hash."""

    def __init__(self, value):
        self.value = value

    def __call__(self, x):
        return self.value + 0.0 * np.asarray(x)

    def __eq__(self, other):
        return isinstance(other, _UnhashableConstant) and other.value == self.value


def test_unhashable_coefficients_are_checked_on_every_call(monkeypatch):
    checked = _counting_validate(monkeypatch)
    sys = make_system([[_UnhashableConstant(4.0), -2.0], [-1.0, 3.0]], [1.0, 2.0],
                      [0.01, 0.01])
    with pytest.raises(TypeError):
        hash(sys.coeff)
    plain = make_system([[4.0, -2.0], [-1.0, 3.0]], [1.0, 2.0], [0.01, 0.01])
    xs = np.linspace(0.0, 1.0, 101)
    want = hybrid_solve(plain, CFG).eval_many(xs)
    for _ in range(2):
        assert np.array_equal(hybrid_solve(sys, CFG).eval_many(xs), want)
    assert len(checked) == 3


def test_outer_end_values_are_kept_per_field(monkeypatch):
    monkeypatch.setattr(scem, "_reports", {})  # equal numbers share an entry
    evaluated = []
    eval_many = scem.OuterSolution.eval_many

    def recording(self, xs):
        evaluated.append(xs.tolist())
        return eval_many(self, xs)

    monkeypatch.setattr(scem.OuterSolution, "eval_many", recording)
    sys = make_system([[4.0, -2.0], [-1.0, 3.0]], [1.0, 2.0], [0.01, 0.01])
    cfg = SolverConfig(initial_mesh_points=65, adaptive=False)
    for eps in (0.01, 0.001, 0.0001):
        hybrid_solve(dataclasses.replace(sys, diffusion=(eps, eps)), cfg)
    assert evaluated == [[0.0, 1.0]]
    # another forcing on the same coefficients has other end values
    other = dataclasses.replace(sys, forcing=(3.0, 4.0))
    hybrid = hybrid_solve(other, cfg)
    assert evaluated == [[0.0, 1.0]] * 2
    ends = hybrid.eval_many(np.array([0.0, 1.0]))
    assert np.max(np.abs(ends)) <= 1e-12  # the prescribed zeros, not 1.7 - 0.7, 1.9 - 0.9


def test_singular_end_value_raises_on_every_call(monkeypatch):
    checked = _counting_validate(monkeypatch)
    near = 1.0 - 1e-15  # strictly dominant, but cond_2 ~ 2e15 at every x
    sys = make_system([[1.0, -near], [-near, 1.0]], [1.0, 1.0], [0.01, 0.01])
    for _ in range(2):
        with pytest.raises(SingularReducedMatrix):
            hybrid_solve(sys, CFG)
    assert len(checked) == 1


# ---------------------------------------------------------------------------
# boundary-condition Jacobian
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("end, length", [(0.0, None), (1.0, None), (0.0, 10.0), (1.0, 10.0)],
                         ids=["left-full", "right-full", "left-cut", "right-cut"])
@pytest.mark.parametrize("bc", ["zero", "asymmetric"])
@pytest.mark.parametrize("name", ["example1", "example2", "variable_a"])
def test_layer_bc_jacobian_is_bitwise_the_finite_differences(name, bc, end, length):
    # at u = 0, where a linear pass takes the Jacobians, each forward
    # difference of a datum d is exactly 0 or 1 while |d| < 2^27
    sys = _deep_eps_problem(name, bc).build_system(1e-4)
    bvp = build_layer_problem(sys, end, length).bvp
    zero = np.zeros(bvp.dim)
    differenced = collocation._bc_jacobians(dataclasses.replace(bvp, bc_jac=None), zero, zero,
                                            bvp.bc(zero, zero))
    analytic = collocation._bc_jacobians(bvp, zero, zero, bvp.bc(zero, zero))
    for got, want in zip(analytic, differenced):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "fixed"])
@pytest.mark.parametrize("datum", [1.34e8, 1e9, 1e12, -3e15])
def test_large_boundary_data_are_met(datum, adaptive):
    # a forward difference with step 2^-26 at u = 0 is lost in (2^-26 - d) + d
    # once |d| >= 2^27, which left a zero bc row; the analytic bc Jacobian has none
    sys = make_system([[4, -2], [-1, 3]], [1, 2], [1e-4] * 2, left_bc=[datum, 0])
    hybrid = hybrid_solve(sys, SolverConfig(adaptive=adaptive))
    assert np.max(np.abs(hybrid.eval(0.0) - [datum, 0.0])) <= 1e-15 * abs(datum)
    assert np.max(np.abs(hybrid.eval(1.0))) <= 1e-9
    assert np.max(np.abs(hybrid.eval(0.5) - [0.7, 0.9])) <= 1e-9


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_boundary_exactness_across_eps():
    for k in (1, 5, 9, 13):
        hybrid = hybrid_solve(example1(2.0**-k), SolverConfig())
        assert np.max(np.abs(hybrid.eval(0.0))) <= 1e-9
        assert np.max(np.abs(hybrid.eval(1.0))) <= 1e-9


def test_symmetry_of_example1_composite():
    xs = np.linspace(0.0, 1.0, 1001)
    for eps in (2.0**-2, 2.0**-8):
        hybrid = hybrid_solve(example1(eps), SolverConfig())
        vals = hybrid.eval_many(xs)
        assert np.max(np.abs(vals - vals[::-1])) <= 1e-9


def test_outer_consistency_as_eps_shrinks():
    outer_mid = np.array([0.7, 0.9])
    floor = 1e-12
    prev = None
    for k in range(4, 15):
        hybrid = hybrid_solve(example1(2.0**-k), SolverConfig())
        dist = float(np.max(np.abs(hybrid.eval(0.5) - outer_mid)))
        if prev is not None and prev > floor:
            assert dist < prev
        prev = dist
    assert prev <= floor  # has converged onto the outer solution


def test_interior_residual_shrinks_with_eps():
    # needs a curved outer solution, so the forcing gets an x^2 term;
    # the interior defect of the composite is then eps * |y_out''|
    def variant(eps):
        return make_system(
            [[4.0, -2.0], [-1.0, 3.0]],
            [lambda x: 1.0 + x * x, 2.0],
            [eps, eps],
        )

    A = np.array([[4.0, -2.0], [-1.0, 3.0]])

    def interior_residual(eps):
        hybrid = hybrid_solve(variant(eps), SolverConfig())
        xbar = np.linspace(0.0, 1.0 / np.sqrt(eps), 4001)
        grid = xbar * np.sqrt(eps)
        y = hybrid.eval_many(grid)
        hm = grid[1:-1] - grid[:-2]
        hp = grid[2:] - grid[1:-1]
        d2 = 2.0 * (
            y[:-2] / (hm * (hm + hp))[:, None]
            - y[1:-1] / (hm * hp)[:, None]
            + y[2:] / (hp * (hm + hp))[:, None]
        )
        f = np.stack([1.0 + grid[1:-1] ** 2, 2.0 + 0.0 * grid[1:-1]], axis=1)
        return float(np.max(np.abs(-eps * d2 + y[1:-1] @ A.T - f)))

    res = [interior_residual(2.0**-k) for k in (2, 4, 6)]
    assert res[1] < 0.5 * res[0]
    assert res[2] < 0.5 * res[1]


def test_layer_locality_for_small_eps():
    hybrid = hybrid_solve(example1(1e-4), SolverConfig())
    xs = np.linspace(0.1, 0.9, 401)
    assert np.max(np.abs(hybrid.eval_many(xs)[:, 0] - 0.7)) <= 1e-5


# ---------------------------------------------------------------------------
# layer domains and deep eps
# ---------------------------------------------------------------------------

#: example1's truncated layer length 42 / sqrt(delta), delta = 2
T_EXAMPLE1 = 42.0 / np.sqrt(2.0)
#: the variable-coefficient system of the deep-eps tests
VARIABLE_A = {
    "name": "variable_a",
    "n": 2,
    "coeff": [["2 + x", "-1"], ["-1", "3 - x*x"]],
    "forcing": ["1 + x", "1/(1 + x)"],
    "diffusion": ["eps", "eps"],
    "bc_left": [0.0, 0.0],
    "bc_right": [0.0, 0.0],
}


def _capture_layer_intervals(monkeypatch):
    """Record the interval of each layer problem hybrid_solve solves."""
    intervals = []

    def recording_solve(bvp, cfg=None, **kwargs):
        intervals.append(bvp.interval)
        return solve(bvp, cfg, **kwargs)

    monkeypatch.setattr(scem, "solve", recording_solve)
    return intervals


def _layer_grid(eps):
    """Uniform 2001 points plus 40 multiples of sqrt(eps) from both ends."""
    k = np.arange(1, 41) * np.sqrt(eps)
    k = k[k < 1.0]
    return np.unique(np.concatenate([np.linspace(0.0, 1.0, 2001), k, 1.0 - k]))


def _stretched_grid(eps):
    """Uniform 2001 points plus stretched steps of 1/200 out to t = 40 from
    both ends, which resolves the layer cubics between their nodes."""
    t = np.linspace(0.0, 40.0, 8001) * np.sqrt(eps)
    t = t[t <= 1.0]
    return np.unique(np.concatenate([np.linspace(0.0, 1.0, 2001), t, 1.0 - t]))


def _example1_oracle(eps):
    return exact_constant_system(np.array([[4.0, -2.0], [-1.0, 3.0]]),
                                 np.array([1.0, 2.0]), eps)


def _graded_nodes(length, sigma, points):
    """The solver's graded start, checked against s_i = -(4/sigma) ln(1 -
    (i/N) q), q = 1 - exp(-sigma T/4), i = 0..N, N = points - 1, computed
    with sigma; near T, 1 - (i/N) q is about exp(-10.5), so the two agree
    to 1e-10 relative there. The first node is 0 and the last T, exactly."""
    q = -np.expm1(-sigma * length / 4.0)
    nodes = -(4.0 / sigma) * np.log1p(-np.arange(points) / (points - 1) * q)
    got = scem._graded_mesh(length, scem._TRUNCATION / 4.0, points, 1)
    np.testing.assert_allclose(got, nodes, rtol=1e-10, atol=0.0)
    assert got[0] == 0.0 and got[-1] == length and np.all(np.diff(got) > 0.0)
    return got


@pytest.mark.parametrize("points", [None, 2, 64, 1001])
@pytest.mark.parametrize("name", ["example1", "example2", "variable_a"])
def test_truncated_layers_start_on_the_graded_mesh(name, points, monkeypatch):
    # None gives 400 graded nodes and an explicit count that many; with
    # sigma T / 4 = 10.5 for every system, no sigma enters the nodes
    starts = []

    def recording_solve(bvp, cfg=None, **kwargs):
        starts.append((bvp.interval, kwargs["start"]))
        return solve(bvp, cfg, **kwargs)

    monkeypatch.setattr(scem, "solve", recording_solve)
    sys = _deep_eps_problem(name, "zero").build_system(1e-8)
    delta = validate_assumptions(sys).delta
    length = 42.0 / np.sqrt(delta)
    nodes = _graded_nodes(length, np.sqrt(delta), 400 if points is None else points)
    hybrid = hybrid_solve(sys, SolverConfig(initial_mesh_points=points))
    assert [interval for interval, _ in starts] == [(0.0, length)] * 2
    assert all(np.array_equal(start, nodes) for _, start in starts)
    if points is None:  # one pass: the start is the final mesh
        assert all(np.array_equal(layer.mesh.nodes, nodes) for layer in hybrid.layers)


@pytest.mark.parametrize("cfg, eps, size", [
    (SolverConfig(adaptive=False), 1e-8, 1000),
    (SolverConfig(adaptive=False, initial_mesh_points=257), 1e-8, 257),
], ids=["no-adapt", "no-adapt-257"])
def test_full_image_layers_start_uniform(cfg, eps, size):
    # fixed-mesh solves keep the uniform start bit for bit; a fixed mesh is
    # one pass, so the start is the final mesh
    hybrid = hybrid_solve(example1(eps), cfg)
    assert len(hybrid.layers) == 1
    span = 1.0 / np.sqrt(eps)
    assert np.array_equal(hybrid.layers[0].mesh.nodes, np.linspace(0.0, span, size))


def _mirrored_nodes(length, sigma, points):
    """The solver's two-sided start, checked against the graded profile of
    [0, L/2] at rate sigma (L/2) / 4, s_i = -(M/r) ln(1 - (2i/(N-1)) q),
    M = L/2, r = sigma M / 4, q = 1 - exp(-r), for i < N/2, computed with
    log and exp; the rest must be its mirror image L - s_i bit for bit, and
    the middle node of an odd count L/2."""
    half, rate = length / 2.0, sigma * length / 8.0
    first = np.arange(points // 2)
    want = -(half / rate) * np.log(1.0 - 2.0 * first / (points - 1) * (1.0 - np.exp(-rate)))
    got = scem._graded_mesh(length, rate, points, 2)
    np.testing.assert_allclose(got[first], want, rtol=1e-12, atol=0.0)
    assert np.array_equal(got[::-1][first], length - got[first])
    assert got.size == points and got[0] == 0.0 and got[-1] == length
    assert points % 2 == 0 or got[points // 2] == half
    return got


@pytest.mark.parametrize("cfg, eps, size", [
    (SolverConfig(), 2.0**-8, 500),
    (SolverConfig(initial_mesh_points=257, residual_tol=1.0), 2.0**-8, 257),
], ids=["full-image", "full-image-257"])
def test_adaptive_full_image_layers_start_mirrored(cfg, eps, size):
    # an adaptive solve on the full image starts from the two-sided graded
    # mesh, 500 nodes or the given count; each takes one pass here (257
    # nodes only at a loose residual_tol), so the start is the final mesh
    hybrid = hybrid_solve(example1(eps), cfg)
    assert len(hybrid.layers) == 1
    nodes = _mirrored_nodes(1.0 / np.sqrt(eps), np.sqrt(2.0), size)
    assert np.array_equal(hybrid.layers[0].mesh.nodes, nodes)
    assert hybrid.layers[0].newton_iterations == 1


@st.composite
def _images(draw):
    """A decay rate sigma and a full image L from 1e-150 (eps = 1e300, where
    the rate sigma L / 8 is about 1e-151) up to just below T = 42 / sigma."""
    sigma = draw(st.floats(1e-3, 1e3))
    return sigma, draw(st.floats(1e-150, 42.0 / sigma, exclude_max=True))


@settings(max_examples=200, deadline=None)
@given(image=_images(), points=st.integers(2, 3000), sides=st.sampled_from([1, 2]))
@example(image=(np.sqrt(2.0), 1e-150), points=500, sides=2)
@example(image=(np.sqrt(2.0), np.nextafter(42.0 / np.sqrt(2.0), 0.0)), points=3, sides=2)
@example(image=(np.sqrt(2.0), np.nextafter(42.0 / np.sqrt(2.0), 0.0)), points=3, sides=1)
def test_mirrored_mesh_is_finite_increasing_and_mirror_built(image, points, sides):
    # the rate sigma (L / sides) / 4 of the graded stretch; on one side it
    # reaches the truncated layers' 10.5 as L reaches T
    sigma, length = image
    with np.errstate(all="raise"):
        nodes = scem._graded_mesh(length, sigma * length / (4.0 * sides), points, sides)
    assert nodes.size == points and np.all(np.isfinite(nodes))
    assert np.all(np.diff(nodes) > 0.0)
    assert nodes[0] == 0.0 and not np.signbit(nodes[0]) and nodes[-1] == length
    if sides == 1:
        return
    first = np.arange(points // 2)
    assert np.array_equal(nodes[::-1][first], length - nodes[first])
    assert points % 2 == 0 or nodes[points // 2] == length / 2.0


def test_fixed_mesh_layer_solves_start_uniform(monkeypatch):
    # a fixed mesh solves one layer problem on the full stretched image
    intervals = _capture_layer_intervals(monkeypatch)
    cfg = SolverConfig(initial_mesh_points=201, adaptive=False)
    hybrid = hybrid_solve(example1(1e-8), cfg)
    assert intervals == [(0.0, 1e4)]
    assert len(hybrid.layers) == 1
    assert np.array_equal(hybrid.layers[0].mesh.nodes, np.linspace(0.0, 1e4, 201))


def test_fixed_mesh_layer_solves_estimate_no_residual(monkeypatch):
    # 1/sqrt(eps) = 32 exceeds T = 29.7, but a fixed mesh never truncates
    intervals = _capture_layer_intervals(monkeypatch)
    hybrid = hybrid_solve(example1(2.0**-10), SolverConfig(initial_mesh_points=65,
                                                           adaptive=False))
    assert intervals == [(0.0, 32.0)]
    assert hybrid.layers[0].max_residual is None


@pytest.mark.parametrize("eps", [2.0**-6, 1e-8])
def test_fixed_mesh_layers_meet_their_data(eps):
    # a fixed-mesh layer takes its data at both ends bit for bit, as an
    # adaptive full-image one does, so the composite meets the asymmetric
    # boundary values to an ulp
    config = _deep_eps_problem("variable_a", "asymmetric")
    sys = config.build_system(eps)
    hybrid = hybrid_solve(sys, SolverConfig(initial_mesh_points=257, adaptive=False))
    data = build_layer_problem(sys, 0.0).bc_values
    assert hybrid.layers[0].node_values[[0, -1], :2].tobytes() == data.tobytes()
    ends = hybrid.eval_many(np.array([0.0, 1.0]))
    want = np.array([config.bc_left, config.bc_right])
    assert np.all(np.abs(ends - want) <= np.spacing(want))


def test_short_stretched_interval_starts_on_the_mirrored_mesh(monkeypatch):
    # the stretched image 1/sqrt(eps) = 16 is shorter than T = 29.7, so one
    # layer problem covers the full image, solved from the mirrored start;
    # only the two boundary values differ from that solve, set to their data
    intervals = _capture_layer_intervals(monkeypatch)
    sys = example1(2.0**-8)
    hybrid = hybrid_solve(sys, SolverConfig())
    assert intervals == [(0.0, 16.0)]
    assert len(hybrid.layers) == 1
    problem = build_layer_problem(sys, 0.0)
    start = _mirrored_nodes(16.0, np.sqrt(2.0), 500)
    mirrored = solve(problem.bvp, SolverConfig(), start=start)
    got = hybrid.layers[0]
    assert np.array_equal(got.mesh.nodes, mirrored.mesh.nodes)
    assert np.array_equal(got.node_slopes, mirrored.node_slopes)
    assert np.array_equal(got.node_values[1:-1], mirrored.node_values[1:-1])
    assert np.array_equal(got.node_values[[0, -1], 2:], mirrored.node_values[[0, -1], 2:])
    assert np.array_equal(got.node_values[[0, -1], :2], problem.bc_values)
    np.testing.assert_allclose(mirrored.node_values[[0, -1], :2], problem.bc_values,
                               rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("eps", [2.0**-6, 2.0**-12])
def test_full_image_layer_serves_both_ends(eps, monkeypatch):
    # the full-image problem from x = 1 is the one from x = 0 mirrored,
    # Psi_1(s) = Psi_0(1/sqrt(eps) - s), so the one solve from x = 0 carries
    # the x = 1 layer too; checked on a variable-A system with asymmetric data
    config = _deep_eps_problem("variable_a", "asymmetric")
    sys = config.build_system(eps)
    cfg = SolverConfig(initial_mesh_points=1025, adaptive=False)
    intervals = _capture_layer_intervals(monkeypatch)
    hybrid = hybrid_solve(sys, cfg)
    span = 1.0 / np.sqrt(eps)
    assert intervals == [(0.0, span)]
    right = solve(build_layer_problem(sys, 1.0).bvp, cfg)
    s = right.mesh.nodes
    mirrored = evaluate(hybrid.layers[0], span - s)[:, :2]
    assert np.max(np.abs(right.node_values[:, :2] - mirrored)) <= 1e-12
    ends = hybrid.eval_many(np.array([0.0, 1.0]))
    assert np.max(np.abs(ends - [config.bc_left, config.bc_right])) <= 1e-9


def test_deep_eps_layers_are_solved_on_truncated_domains(monkeypatch):
    intervals = _capture_layer_intervals(monkeypatch)
    sys = example1(1e-8)
    hybrid = hybrid_solve(sys, SolverConfig())
    assert intervals == [(0.0, T_EXAMPLE1), (0.0, T_EXAMPLE1)]
    # one pass on the graded start: the linear problem takes one linear step
    for layer in hybrid.layers:
        assert np.array_equal(layer.mesh.nodes, _graded_nodes(T_EXAMPLE1, np.sqrt(2.0), 400))
        assert layer.newton_iterations == 1
        assert np.max(np.abs(layer.node_values[-1, :2])) <= 1e-15
    # each layer carries the mismatch at its own end and vanishes at the cut;
    # with constant A and symmetric data the two problems are the same one
    for end in (0.0, 1.0):
        layer = build_layer_problem(sys, end, T_EXAMPLE1)
        np.testing.assert_allclose(layer.bc_values, [[-0.7, -0.9], [0.0, 0.0]], atol=1e-12)
    assert np.array_equal(hybrid.layers[1].node_values, hybrid.layers[0].node_values)
    # each correction is zero off its support, |x| > T sqrt(eps) = 0.003 from
    # its end, so there the composite is the outer solution itself
    xs = np.linspace(0.005, 0.995, 101)
    assert np.array_equal(hybrid.eval_many(xs), hybrid.outer.eval_many(xs))


@pytest.mark.parametrize("points", [5, 65, 1025])
@pytest.mark.parametrize("eps", [1e-300, 1e-320, 5e-324])
def test_fixed_mesh_at_tiny_eps_fails_cleanly(eps, points):
    # the full image is 1e150 long or more, and h^2 overflows in the Jacobian
    # at subnormal eps: that must end as NewtonDivergence, not a numpy warning
    cfg = SolverConfig(initial_mesh_points=points, adaptive=False)
    for make in (example1, example2):
        with pytest.raises(collocation.NewtonDivergence):
            hybrid_solve(make(eps), cfg)


def test_truncated_layer_length_must_fit_the_stretched_image():
    sys = example1(2.0**-8)  # stretched image 16
    assert build_layer_problem(sys, 1.0, 16.0).bvp.interval == (0.0, 16.0)
    for length in (16.5, 0.0, -1.0):
        with pytest.raises(ValueError):
            build_layer_problem(sys, 0.0, length)


def test_truncated_layer_problems_do_not_depend_on_eps(monkeypatch):
    # with constant A the truncated problems are the same at every eps, down
    # to 1e-300, where the full stretched image would be 1e150 long
    base = hybrid_solve(example1(1e-8), SolverConfig())
    intervals = _capture_layer_intervals(monkeypatch)
    for eps in (1e-30, 1e-300):
        hybrid = hybrid_solve(example1(eps), SolverConfig())
        assert intervals[-2:] == [(0.0, T_EXAMPLE1), (0.0, T_EXAMPLE1)]
        for got, want in zip(hybrid.layers, base.layers, strict=True):
            assert np.array_equal(got.mesh.nodes, want.mesh.nodes)
            assert np.array_equal(got.node_values, want.node_values)


@pytest.mark.parametrize("eps", [2.0**-9, 2.0**-10], ids=["full", "truncated"])
def test_error_is_bounded_across_the_truncation_switch(eps, monkeypatch):
    # 1/sqrt(eps) = 22.6 and 32 sit on either side of T = 29.7
    intervals = _capture_layer_intervals(monkeypatch)
    hybrid = hybrid_solve(example1(eps), SolverConfig())
    assert len(intervals) == (2 if eps < 2.0**-9 else 1)
    grid = _stretched_grid(eps)
    assert np.max(np.abs(hybrid.eval_many(grid) - _example1_oracle(eps)(grid))) <= 1e-8
    xs = np.linspace(0.0, 1.0, 1001)
    vals = hybrid.eval_many(xs)
    assert np.max(np.abs(vals - vals[::-1])) <= 1e-9


#: adaptive error ceilings over eps = 2^-1..2^-10 on the stretched grid, for
#: example1 and example2 with their zero data and variable_a with asymmetric
#: data; the worst errors are 1.9e-10, 4.4e-10 and 1.4e-9 (at 2^-9 or
#: 2^-10), and the 1000-node uniform full-image start they replace gave
#: 3.3e-9, 7.9e-9 and 2.4e-8
ADAPTIVE_ERROR_CEILING = {"example1": 3e-10, "example2": 7e-10, "variable_a": 2.5e-9}


@pytest.mark.parametrize("name", ["example1", "example2", "variable_a"])
def test_adaptive_error_is_bounded_at_the_paper_eps(name):
    # example1 against its closed form, the others against a fixed uniform
    # mesh of 12001 nodes on the full image, within 2e-12 of one of 24001
    config = _deep_eps_problem(name, "asymmetric" if name == "variable_a" else "zero")
    worst = 0.0
    for k in range(1, 11):
        eps = 2.0**-k
        sys = config.build_system(eps)
        hybrid = hybrid_solve(sys, SolverConfig())
        if len(hybrid.layers) == 1:  # the full image: one pass on the start
            assert hybrid.layers[0].newton_iterations == 1, k
            assert hybrid.layers[0].mesh.nodes.size == 500, k
        grid = _stretched_grid(eps)
        if name == "example1":
            want = _example1_oracle(eps)(grid)
        else:
            fine = SolverConfig(initial_mesh_points=12001, adaptive=False)
            want = hybrid_solve(sys, fine).eval_many(grid)
        worst = max(worst, np.max(np.abs(hybrid.eval_many(grid) - want)))
    assert worst <= ADAPTIVE_ERROR_CEILING[name]


SCALAR = {"name": "scalar", "n": 1, "coeff": [["2"]], "forcing": ["1"],
          "diffusion": ["eps"], "bc_left": [0.0], "bc_right": [0.0]}


@pytest.mark.parametrize("eps", [1e-2, 1e-8, 1e-300])
def test_scalar_problem_matches_its_closed_form(eps):
    # -eps y'' + 2 y = 1, y(0) = y(1) = 0, from the library and from a config
    exact = exact_constant_system(np.array([[2.0]]), np.array([1.0]), eps)
    grid = _stretched_grid(eps)
    for sys in (make_system([[2.0]], [1.0], [eps]), config_from_dict(SCALAR).build_system(eps)):
        hybrid = hybrid_solve(sys, SolverConfig())
        assert np.max(np.abs(hybrid.eval_many(grid) - exact(grid))) <= 1e-8


def _deep_eps_problem(name, bc):
    config = (config_from_dict(VARIABLE_A) if name == "variable_a"
              else BUILTIN_PROBLEMS[name])
    if bc == "zero":
        return config
    n = config.n
    left = tuple(1.0 - 0.75 * i for i in range(n))
    right = tuple(0.25 + i for i in range(n))
    return dataclasses.replace(config, bc_left=left, bc_right=right)


@pytest.mark.parametrize("bc", ["zero", "asymmetric"])
@pytest.mark.parametrize("name", ["example1", "example2", "variable_a"])
@pytest.mark.parametrize("eps", [1e-20, 1e-30, 1e-100, 1e-300])
def test_deep_eps_solves_are_bounded_and_exact_at_the_boundary(eps, name, bc, monkeypatch):
    config = _deep_eps_problem(name, bc)
    intervals = _capture_layer_intervals(monkeypatch)
    hybrid = hybrid_solve(config.build_system(eps), SolverConfig())
    assert len(intervals) == 2  # truncated
    for layer in hybrid.layers:
        assert layer.newton_iterations <= 2  # linear: 1 a pass, so <= 2 passes
        assert layer.mesh.nodes.size <= 1100
    ends = hybrid.eval_many(np.array([0.0, 1.0]))
    assert np.max(np.abs(ends - [config.bc_left, config.bc_right])) <= 1e-9
    if name == "example1" and bc == "zero":
        grid = _stretched_grid(eps)
        assert np.max(np.abs(hybrid.eval_many(grid) - _example1_oracle(eps)(grid))) <= 1e-8


@pytest.mark.parametrize("eps", [1e-8, 1e-10, 1e-12, 1e-300])
def test_deep_eps_invariants_and_bounded_passes(eps):
    sys = example1(eps)
    hybrid = hybrid_solve(sys, SolverConfig())
    # linear layer problems: 1 linear step a pass, so <= 3 passes
    assert hybrid.layers[0].newton_iterations <= 3
    assert hybrid.layers[1].newton_iterations <= 3

    assert np.max(np.abs(hybrid.eval(0.0))) <= 1e-9
    assert np.max(np.abs(hybrid.eval(1.0))) <= 1e-9
    xs = np.linspace(0.0, 1.0, 1001)
    vals = hybrid.eval_many(xs)
    assert np.max(np.abs(vals - vals[::-1])) <= 1e-9

    grid = _layer_grid(eps)
    candidate = GridFunction(grid=grid, values=hybrid.eval_many(grid))
    assert check_max_principle(sys, candidate, tol=1e-3)
    ceiling = stability_bound(sys, validate_assumptions(sys), forcing_max_norm(sys))
    assert np.max(max_norm(candidate)) <= ceiling
    exact = _example1_oracle(eps)
    assert np.max(np.abs(candidate.values - exact(grid))) <= 1e-6


def test_example2_and_variable_a_deep_eps_layer_solves_take_one_pass():
    # the graded start resolves the fast modes near s = 0, so the default
    # residual_tol accepts the first pass: one linear step on 400 nodes
    for name in ("example2", "variable_a"):
        config = _deep_eps_problem(name, "zero")
        for eps in (1e-4, 1e-8, 1e-12, 1e-300):
            hybrid = hybrid_solve(config.build_system(eps), SolverConfig())
            assert len(hybrid.layers) == 2, (name, eps)
            for layer in hybrid.layers:
                assert layer.newton_iterations == 1, (name, eps)
                assert layer.mesh.nodes.size == 400, (name, eps)


@pytest.mark.parametrize("eps", [2.0**-4, 1e-8])
def test_unreachable_residual_tol_ends_at_the_roundoff_floor(eps, caplog):
    # 1e-12 is below the scaled residual that rounding leaves on a fine
    # mesh; halving only raises it there, and without the floor both eps ran
    # out of mesh after 18-19 passes (MeshOverflow)
    caplog.set_level(logging.DEBUG, logger="scem_rd")
    hybrid = hybrid_solve(example1(eps), SolverConfig(residual_tol=1e-12))
    lines = [r.getMessage() for r in caplog.records if r.name == "scem_rd"]
    passes = [line for line in lines if " nodes, " in line]
    floors = [line for line in lines if "roundoff floor" in line]
    assert len(floors) == len(hybrid.layers)
    assert len(passes) <= 8 * len(hybrid.layers)
    for layer in hybrid.layers:
        assert 1e-12 < layer.max_residual <= 1e-11
        assert layer.mesh.nodes.size <= 10000


def test_one_pass_solves_compute_no_roundoff_floor(monkeypatch):
    # the floor is only computed on a pass that needs refinement
    monkeypatch.setattr(collocation, "_roundoff_floor",
                        lambda *args: pytest.fail("floor computed on a one-pass solve"))
    for make in (example1, example2):
        for eps in (2.0**-4, 1e-8):
            hybrid = hybrid_solve(make(eps), SolverConfig())
            assert all(layer.newton_iterations == 1 for layer in hybrid.layers)


@pytest.mark.parametrize("name", ["example1", "example2", "variable_a"])
def test_truncated_layers_meet_their_datum_exactly(name):
    # the band LU meets a Dirichlet datum only to rounding, of either sign;
    # each truncated layer starts at its datum, so zero data give exact zeros
    config = _deep_eps_problem(name, "zero")
    for eps in (1e-4, 1e-8, 1e-300):
        sys = config.build_system(eps)
        hybrid = hybrid_solve(sys, SolverConfig())
        for end, layer in enumerate(hybrid.layers):
            datum = build_layer_problem(sys, end, layer.mesh.b).bc_values[0]
            assert np.array_equal(layer.node_values[0, :config.n], datum)
        ends = hybrid.eval_many(np.array([0.0, 1.0]))
        assert np.array_equal(ends, np.zeros((2, config.n))) and not np.any(np.signbit(ends))


@pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12, 1e-300])
def test_example1_deep_eps_composite_is_near_its_closed_form(eps):
    # the composite is exact in exact arithmetic, so this is the collocation
    # error of the truncated layers alone: 8.1e-11 on the graded start, the
    # same at every eps; a uniform start of 1000 nodes gave 9.8e-9
    hybrid = hybrid_solve(example1(eps), SolverConfig())
    grid = _stretched_grid(eps)
    assert np.max(np.abs(hybrid.eval_many(grid) - _example1_oracle(eps)(grid))) <= 1e-9


@pytest.mark.parametrize("eps", [2.0**-6, 1e-8], ids=["full_image", "truncated"])
def test_composite_is_the_same_per_block(eps):
    # the CLI evaluates the composite one row block at a time, so every block
    # must give the rows of the whole-grid evaluation bit for bit, also where
    # it splits inside a layer or at a truncated layer's cut s = T
    hybrid = hybrid_solve(_deep_eps_problem("variable_a", "asymmetric").build_system(eps),
                          SolverConfig())
    assert (len(hybrid.layers) == 1) == (eps == 2.0**-6)
    reach = hybrid.layers[0].mesh.b * np.sqrt(eps)  # x of s = L from x = 0
    xs = np.unique(np.concatenate([np.linspace(0.0, 1.0, 20001), [reach, 1.0 - reach]]))
    outer_values = hybrid.outer.eval_many(xs)
    whole = hybrid.eval_many(xs, outer_values)
    cut, far = np.searchsorted(xs, [min(reach, 0.5), max(1.0 - reach, 0.5)])
    blocks = [(0, cut // 2), (cut // 2, cut), (cut, cut + 1), (cut - 5, cut + 5),
              (cut + 1, far), (far - 3, far + 3), (far, xs.size), (17, 2065),
              (0, xs.size)]
    for a, b in blocks:
        assert np.array_equal(hybrid.eval_many(xs[a:b], outer_values[a:b]), whole[a:b]), (a, b)
