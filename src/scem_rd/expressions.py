"""Tiny arithmetic expression language for problem-config coefficients.

Grammar (whitespace is allowed anywhere between tokens and at either end):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+')* atom
    atom   := NUMBER | 'x' | '(' expr ')'

This is a subset of Python's expression grammar with the same precedence
and associativity, so ``ast.parse`` builds the tree and a whitelist of node
types restricts it to the grammar above. Just enough to express constants
and polynomials in x; compiled to a numpy-vectorized callable. At most
``MAX_TOKENS`` tokens are accepted, which bounds how deep parsing and
evaluation recurse.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from typing import Callable

import numpy as np

#: longest expression accepted: at most 100 nested parentheses or 199 nested
#: signs, well inside the default recursion limit of 1000
MAX_TOKENS = 200

_TOKEN = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)|(x)|([()+\-*/]))")

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


class ExpressionError(ValueError):
    """Malformed coefficient expression."""


def _tokenize(text: str) -> list[str | float]:
    """Split text into tokens; numbers come back as their float values."""
    tokens = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ExpressionError(f"unexpected character {text[pos:]!r} in {text!r}")
        tok = match.group(match.lastindex)
        tokens.append(float(tok) if match.lastindex == 1 else tok)
        pos = match.end()
    return tokens


def _whitelisted(node: ast.expr, leaves: dict[str, tuple], source: str):
    """The evaluation tree of an ast, which may hold only the grammar's nodes."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return (_BINOPS[type(node.op)], _whitelisted(node.left, leaves, source),
                _whitelisted(node.right, leaves, source))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = _whitelisted(node.operand, leaves, source)
        return ("neg", operand) if isinstance(node.op, ast.USub) else operand
    if isinstance(node, ast.Name) and node.id in leaves:
        return leaves[node.id]
    raise ExpressionError(f"malformed expression {source!r}")


def _eval_node(node, x):
    op = node[0]
    if op == "num":
        return node[1] + 0.0 * x
    if op == "x":
        return x
    if op == "neg":
        return -_eval_node(node[1], x)
    return op(_eval_node(node[1], x), _eval_node(node[2], x))


def _constant_value(tree) -> float | None:
    """The value c of an x-free tree when its evaluator equals c + 0.0 * x:
    c at every finite x, and NaN at NaN or infinite x. That holds unless c
    is not finite (kept on the evaluator, warnings included) or is -0.0,
    which c + 0.0 * x turns into +0.0; both give None."""
    with np.errstate(all="ignore"):
        c = float(_eval_node(tree, np.float64(0.0)))
    if not math.isfinite(c) or (c == 0.0 and math.copysign(1.0, c) < 0.0):
        return None
    return c


def compile_expression(text: str) -> Callable[[np.ndarray], np.ndarray]:
    """Parse an expression in x and return a vectorized evaluator. Its
    ``constant`` attribute is the value of an expression without x (see
    :func:`_constant_value`), and None otherwise."""
    text = str(text)
    tokens = _tokenize(text)
    if len(tokens) > MAX_TOKENS:
        raise ExpressionError(f"expression longer than {MAX_TOKENS} tokens: {text[:40]!r}...")
    # each number enters ast.parse as a placeholder name bound to its value,
    # so Python reads no literal of its own and folds no constant
    names = [f"_{i}" if isinstance(tok, float) else tok for i, tok in enumerate(tokens)]
    leaves = {name: ("num", tok) for name, tok in zip(names, tokens) if isinstance(tok, float)}
    leaves["x"] = ("x",)
    try:
        body = ast.parse(" ".join(names), mode="eval").body
    except SyntaxError as exc:
        raise ExpressionError(f"malformed expression {text!r}") from exc
    tree = _whitelisted(body, leaves, text)

    def evaluator(x):
        return _eval_node(tree, np.asarray(x, dtype=float))

    evaluator.constant = None if "x" in tokens else _constant_value(tree)
    return evaluator
