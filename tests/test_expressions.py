"""Tests of the coefficient expression language against a numpy reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scem_rd.expressions import MAX_TOKENS, ExpressionError, compile_expression

XS = np.array([-2.5, -1.0, -0.0, 0.0, 1e-300, 0.25, 1.0, 3.0, 1e10])

# number literals in every form the grammar accepts
_NUMBERS = st.sampled_from(["0", "3", "1.", ".5", "2e-3", "1.5E+2", "7.25", "4e0"])
_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _tree(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.tuples(st.sampled_from(sorted(_OPS)), kids, kids),
            st.tuples(st.just("sign"), st.text("+-", min_size=1, max_size=4), kids),
        ),
        max_leaves=12,
    )


TREES = _tree(st.one_of(st.tuples(st.just("num"), _NUMBERS), st.just(("x",))))


def reference(tree, xs):
    """Evaluate a drawn tree with numpy directly."""
    kind = tree[0]
    if kind == "num":
        return np.full_like(xs, float(tree[1]))
    if kind == "x":
        return xs.copy()
    if kind == "sign":
        value = reference(tree[2], xs)
        return -value if tree[1].count("-") % 2 else value
    return _OPS[kind](reference(tree[1], xs), reference(tree[2], xs))


def render(tree, draw):
    """Text for a tree with the fewest parentheses the grammar needs, plus
    random extra parentheses and whitespace, at either end too."""
    def space():
        return draw(st.sampled_from(["", " ", "  ", "\t", "\n"]))

    kind = tree[0]
    if kind == "num":
        text, level = tree[1], 3
    elif kind == "x":
        text, level = "x", 3
    elif kind == "sign":
        child, child_level = render(tree[2], draw)
        if child_level < 3:  # a sign applies to an atom only
            child = f"({child})"
        text, level = space().join(tree[1]) + space() + child, 3
    else:
        level = _PRECEDENCE[kind]
        left, left_level = render(tree[1], draw)
        right, right_level = render(tree[2], draw)
        if left_level < level:
            left = f"({left})"
        if right_level <= level:  # left-associative: a - (b - c) keeps its parentheses
            right = f"({right})"
        text = left + space() + kind + space() + right
    if draw(st.booleans()) and draw(st.booleans()):
        text, level = f"({space()}{text}{space()})", 3
    return space() + text + space(), level


@settings(max_examples=300, deadline=None)
@given(tree=TREES, data=st.data())
def test_compiled_expression_matches_numpy_bitwise(tree, data):
    text, _ = render(tree, data.draw)
    with np.errstate(all="ignore"):
        got = compile_expression(text)(XS)
        want = reference(tree, XS)
    assert got.shape == XS.shape
    assert got.tobytes() == want.tobytes(), text


@pytest.mark.parametrize("text", [
    "", " ", "2x", "x**2", "(x", "x)", "1..2", "y", "*x",
    # accepted by Python's grammar but not by the language
    "(x)(x)", "x (2)", "()", "x*()", "_0", "1j", "0x10", "1_0", "x.real", "x[0]", "inf",
])
def test_malformed_expressions_are_rejected(text):
    with pytest.raises(ExpressionError):
        compile_expression(text)


def test_token_limit_bounds_recursion():
    # the longest accepted nest and sum still parse and evaluate
    nest = "(" * 99 + "x" + ")" * 99
    chain = "+".join(["1"] * 100)
    assert compile_expression(nest)(XS).tobytes() == XS.tobytes()
    assert np.all(compile_expression(chain)(XS) == 100.0)
    for text in ("(" * 100 + "x" + ")" * 100, "+".join(["1"] * 101)):
        with pytest.raises(ExpressionError, match=f"longer than {MAX_TOKENS} tokens"):
            compile_expression(text)
