"""Tests for the problem container and structural-condition verifiers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scem_rd.analysis import GridFunction
from scem_rd.config import config_from_dict
from scem_rd.expressions import compile_expression
from scem_rd.problems import example1, example2
from scem_rd.system import (
    check_max_principle,
    forcing_max_norm,
    make_system,
    stability_bound,
    validate_assumptions,
)


def test_scalar_only_callable_is_sampled_point_by_point():
    # math.cos rejects an array, so sample falls back to one call per point
    xs = np.linspace(0.0, 1.0, 11)
    scalar = make_system([[lambda x: 2.0 + math.cos(x), -1.0], [-1.0, 3.0]], [1.0, 1.0], [0.1, 0.1])
    vector = make_system([[lambda x: 2.0 + np.cos(x), -1.0], [-1.0, 3.0]], [1.0, 1.0], [0.1, 0.1])
    assert np.array_equal(scalar.coeff_matrix(xs), vector.coeff_matrix(xs))


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------

#: finite x of both signs and zeros of both signs, then NaN and infinities
SAMPLE_XS = np.array([0.0, -0.0, 1e-300, 0.25, 1.0, -3.0, 1e10, np.nan, np.inf, -np.inf])


def _same(got, want):
    """Equal bit for bit, except that a NaN may carry either sign or payload."""
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


@pytest.mark.parametrize("text, constant", [
    ("3", 3.0), ("-1", -1.0), ("1/3", 1.0 / 3.0), ("2*3 - 6", 0.0), ("--1", 1.0),
    ("(0)", 0.0), ("-0", None), ("0 * -1", None), ("1/0", None), ("1e999", None),
    ("x", None), ("0 * x", None), ("x - x + 2", None),
])
def test_expressions_without_x_are_marked_constant(text, constant):
    assert compile_expression(text).constant == constant


@pytest.mark.parametrize("coeff, forcing", [
    ([["3", "-1"], ["1/3", "2*3 - 6"]], ["--1", "-0"]),
    ([["2 + x", "-1"], ["-0", "3 - x*x"]], ["1/(1 + x)", "x - x"]),
    ([["x", "-1e-300"], ["0 * -1", "4"]], ["0", "x*x*x"]),
], ids=["constant", "mixed", "mixed-signed-zeros"])
def test_config_fields_sample_bitwise_as_the_interpreter(coeff, forcing):
    config = config_from_dict({"name": "fields", "n": 2, "coeff": coeff, "forcing": forcing,
                               "diffusion": ["eps", "eps"], "bc_left": [0, 0],
                               "bc_right": [0, 0]})
    sys = config.build_system(0.5)
    with np.errstate(invalid="ignore"):  # 0 * inf in c + 0 * x
        want_a = np.array([[compile_expression(e)(SAMPLE_XS) for e in row] for row in coeff])
        want_f = np.array([compile_expression(e)(SAMPLE_XS) for e in forcing])
        assert _same(sys.coeff_matrix(SAMPLE_XS), np.moveaxis(want_a, -1, 0))
        assert _same(sys.forcing_vector(SAMPLE_XS), want_f.T)


@pytest.mark.parametrize("text, by_hand", [
    ("3", lambda x: 3.0 + 0.0 * x),
    ("-0", lambda x: -(0.0 + 0.0 * x)),
    ("0 * x", lambda x: (0.0 + 0.0 * x) * x),
    ("x - x + 2", lambda x: x - x + (2.0 + 0.0 * x)),
    ("1/(1 + x)", lambda x: (1.0 + 0.0 * x) / ((1.0 + 0.0 * x) + x)),
])
def test_expressions_sample_as_numpy_by_hand_at_non_finite_x(text, by_hand):
    # each number is c + 0.0 * x, so NaN and infinite x reach every term
    with np.errstate(all="ignore"):
        assert _same(compile_expression(text)(SAMPLE_XS), by_hand(SAMPLE_XS))


def test_numbers_given_to_make_system_sample_bitwise_as_their_callables():
    coeff = [[4, -0.0], [lambda x: np.sin(x) - 2.0, 1e-300]]
    forcing = [-0.0, lambda x: x * x]
    sys = make_system(coeff, forcing, [0.1, 0.1])
    assert [type(a) for row in sys.coeff for a in row] == [float, float, type(coeff[1][0]), float]
    assert sys.forcing[1] is forcing[1]

    def as_callable(v):
        return v if callable(v) else lambda x: float(v) + 0.0 * np.asarray(x)

    plain = make_system([[as_callable(a) for a in row] for row in coeff],
                        [as_callable(f) for f in forcing], [0.1, 0.1])
    with np.errstate(invalid="ignore"):
        assert _same(sys.coeff_matrix(SAMPLE_XS), plain.coeff_matrix(SAMPLE_XS))
        assert _same(sys.forcing_vector(SAMPLE_XS), plain.forcing_vector(SAMPLE_XS))
    # the c + 0.0 * x of a number turns -0.0 into +0.0 at finite x >= 0
    assert not np.signbit(sys.coeff_matrix(np.array([0.5]))[0, 0, 1])


def test_negative_zero_entry_samples_to_negative_zero_at_negative_x():
    xs = np.array([-1.0, -0.0])  # -0.0 + 0.0 * x keeps the sign of -0.0 here
    sys = make_system([[4.0, -0.0], [-1.0, 3.0]], [-0.0, 0.0], [0.1, 0.1])
    assert np.all(np.signbit(sys.coeff_matrix(xs)[:, 0, 1]))
    assert np.all(np.signbit(sys.forcing_vector(xs)[:, 0]))
    assert not np.any(np.signbit(sys.forcing_vector(xs)[:, 1]))


def test_example1_assumptions():
    report = validate_assumptions(example1(0.01))
    assert report.diagonally_dominant
    assert report.offdiag_nonpositive
    assert report.delta == pytest.approx(2.0, abs=1e-14)  # row sums 2 and 2
    assert report.sample_count == 1001


def test_identity_matrix_passes():
    sys = make_system([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], [0.1, 0.1])
    report = validate_assumptions(sys, samples=11)
    assert report.diagonally_dominant
    assert report.offdiag_nonpositive  # zeros count as <= 0
    assert report.delta == pytest.approx(1.0, abs=1e-14)


def test_example2_assumptions():
    report = validate_assumptions(example2(0.01))
    assert report.passed
    # row sums 1, 1, 2
    assert report.delta == pytest.approx(1.0, abs=1e-14)


def test_dominance_failure_detected():
    sys = make_system([[1.0, -2.0], [-1.0, 3.0]], [1.0, 1.0], [0.1, 0.1])
    report = validate_assumptions(sys, samples=5)
    assert not report.diagonally_dominant
    assert not report.passed


def test_positive_offdiagonal_detected():
    sys = make_system([[3.0, 2.0], [1.0, 3.0]], [1.0, 1.0], [0.1, 0.1])
    report = validate_assumptions(sys, samples=5)
    assert not report.offdiag_nonpositive


def test_failure_persists_on_superset_grid():
    # dominance violated exactly at x = 0.5, which both grids contain
    def a11(x):
        return 2.0 - 1.5 * np.exp(-(((x - 0.5) / 0.01) ** 2))

    sys = make_system([[a11, -1.0], [-1.0, 3.0]], [1.0, 1.0], [0.1, 0.1])
    assert not validate_assumptions(sys, samples=3).diagonally_dominant
    assert not validate_assumptions(sys, samples=5).diagonally_dominant
    assert not validate_assumptions(sys, samples=1001).diagonally_dominant


def test_samples_must_be_at_least_two():
    with pytest.raises(ValueError):
        validate_assumptions(example1(0.01), samples=1)


@settings(max_examples=25, deadline=None)
@given(
    off=st.floats(min_value=0.0, max_value=0.9),
    diag=st.floats(min_value=1.0, max_value=5.0),
)
def test_passing_report_implies_positive_delta(off, diag):
    # strict dominance with nonpositive off-diagonals forces delta > 0
    sys = make_system(
        [[diag, -off * diag], [-off * diag, diag]], [1.0, 1.0], [0.1, 0.1]
    )
    report = validate_assumptions(sys, samples=21)
    if report.passed:
        assert report.delta > 0.0


def test_stability_bound_example1():
    sys = example1(0.01)
    report = validate_assumptions(sys)
    f_norm = forcing_max_norm(sys)
    assert f_norm == pytest.approx(2.0, abs=1e-14)
    assert stability_bound(sys, report, f_norm) == pytest.approx(1.0, abs=1e-14)


def test_stability_bound_zero_data():
    sys = make_system([[2.0, -1.0], [-1.0, 2.0]], [0.0, 0.0], [0.1, 0.1])
    report = validate_assumptions(sys)
    assert stability_bound(sys, report, forcing_max_norm(sys)) == 0.0


def test_stability_bound_example2():
    sys = example2(0.01)
    report = validate_assumptions(sys)
    f_norm = forcing_max_norm(sys)  # max of |0|, |1|, |x| on [0,1]
    assert f_norm == pytest.approx(1.0, abs=1e-14)
    assert stability_bound(sys, report, f_norm) == pytest.approx(1.0, abs=1e-14)


def test_stability_bound_rejects_nonpositive_delta():
    sys = make_system([[1.0, -2.0], [-2.0, 1.0]], [1.0, 1.0], [0.1, 0.1])
    report = validate_assumptions(sys)
    assert report.delta < 0.0
    with pytest.raises(ValueError):
        stability_bound(sys, report, 1.0)


def test_bound_is_finite_and_nonnegative_when_assumptions_pass():
    for sys in (example1(0.5), example2(0.25)):
        report = validate_assumptions(sys)
        assert report.passed and report.delta > 0.0
        bound = stability_bound(sys, report, forcing_max_norm(sys))
        assert np.isfinite(bound) and bound >= 0.0


# ---------------------------------------------------------------------------
# maximum principle
# ---------------------------------------------------------------------------

def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def test_zero_candidate_is_nonnegative():
    sys = example1(0.01)
    xs = np.linspace(0.0, 1.0, 101)
    cand = GridFunction(grid=xs, values=np.zeros((101, 2)))
    assert check_max_principle(sys, cand, tol=1e-12)


def test_hybrid_solution_is_nonnegative():
    from scem_rd.collocation import SolverConfig
    from scem_rd.scem import hybrid_solve

    sys = example1(0.25)
    hybrid = hybrid_solve(sys, SolverConfig(initial_mesh_points=400))
    xs = np.linspace(0.0, 1.0, 2001)
    cand = GridFunction(grid=xs, values=hybrid.eval_many(xs))
    assert check_max_principle(sys, cand, tol=1e-3)


def test_negative_dip_is_flagged():
    # A genuine counterexample must live in the tolerance gap: depth 0.1
    # exceeds tol while the operator deficit depth*delta = 0.04 stays
    # within it (delta = 0.4 here). The plateau has gentle flanks so the
    # diffusion term cannot break the hypothesis.
    sys = make_system([[1.0, -0.6], [-0.6, 1.0]], [0.0, 0.0], [1e-4, 1e-4])
    assert validate_assumptions(sys).passed
    xs = np.linspace(0.0, 1.0, 2001)
    dip = _smoothstep((xs - 0.1) / 0.2) - _smoothstep((xs - 0.7) / 0.2)
    vals = np.stack([-0.1 * dip, -0.1 * dip], axis=1)
    assert check_max_principle(sys, GridFunction(grid=xs, values=vals), tol=0.05) is False
    # the unperturbed candidate passes
    zeros = GridFunction(grid=xs, values=np.zeros_like(vals))
    assert check_max_principle(sys, zeros, tol=0.05) is True


def test_vacuously_true_when_hypothesis_fails():
    sys = example1(0.01)
    xs = np.linspace(0.0, 1.0, 101)
    vals = np.full((101, 2), -5.0)  # boundary already violates the premise
    assert check_max_principle(sys, GridFunction(grid=xs, values=vals), tol=1e-6)


def test_vacuously_true_when_interior_hypothesis_fails():
    # y = -x(1-x) in both components: zero at the boundary, negative inside,
    # and -eps y'' + A y = -2 eps - 2 x(1-x) < 0 there, so the premise fails
    sys = example1(0.01)
    xs = np.linspace(0.0, 1.0, 101)
    vals = np.repeat((-xs * (1.0 - xs))[:, None], 2, axis=1)
    assert check_max_principle(sys, GridFunction(grid=xs, values=vals), tol=1e-6) is True


def test_grid_too_small_rejected():
    sys = example1(0.01)
    cand = GridFunction(grid=np.array([0.0, 1.0]), values=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        check_max_principle(sys, cand, tol=1e-6)


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------

def test_system_rejects_bad_shapes():
    with pytest.raises(ValueError):
        make_system([], [], [])  # n = 0
    with pytest.raises(ValueError):
        make_system([[1.0, 0.0]], [1.0, 1.0], [0.1, 0.1])  # ragged coeff
    with pytest.raises(ValueError):
        make_system([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], [0.1, -0.1])
    with pytest.raises(ValueError):
        make_system([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], [0.1])
    eye = [[1.0, 0.0], [0.0, 1.0]]
    for diffusion in ([np.nan, np.nan], [np.inf, np.inf], [0.1, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            make_system(eye, [1.0, 1.0], diffusion)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            make_system(eye, [1.0, 1.0], [0.1, 0.1], left_bc=[0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            make_system(eye, [1.0, 1.0], [0.1, 0.1], right_bc=[bad, 0.0])
    for side in ("left_bc", "right_bc"):
        with pytest.raises(ValueError, match="boundary vectors must have length n"):
            make_system(eye, [1.0, 1.0], [0.1, 0.1], **{side: [0.0, 0.0, 0.0]})
