"""Tiny arithmetic expression language for problem-config coefficients.

Grammar (whitespace is allowed anywhere between tokens and at either end):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+')* atom
    atom   := NUMBER | 'x' | '(' expr ')'

This is a subset of Python's expression grammar with the same precedence
and associativity, so ``ast.parse`` builds the tree, every node of which
must be one of the grammar's types. Python's compiler then compiles the
checked tree once, and the evaluator runs that code with x bound to a
float array, so constants and polynomials in x evaluate numpy-vectorized.
At most ``MAX_TOKENS`` tokens are accepted, which bounds how deep parsing
and compiling recurse.
"""

from __future__ import annotations

import ast
import math
import re
from typing import Callable

import numpy as np

#: longest expression accepted: at most 100 nested parentheses or 199 nested
#: signs, which keeps the parser's and compiler's recursion well inside
#: Python's default limit of 1000
MAX_TOKENS = 200

_TOKEN = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)|(x)|([()+\-*/]))")

#: the node types of the grammar's trees; a Name must also be x or a number
_NODES = (ast.Expression, ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div,
          ast.UnaryOp, ast.UAdd, ast.USub, ast.Load, ast.Name)


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


def _constant_value(evaluator) -> float | None:
    """The value c of an x-free evaluator when it equals c + 0.0 * x: c at
    every finite x, and NaN at NaN or infinite x. That holds unless c is
    not finite (kept on the evaluator, warnings included) or is -0.0,
    which c + 0.0 * x turns into +0.0; both give None."""
    with np.errstate(all="ignore"):
        c = float(evaluator(np.float64(0.0)))
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
    numbers = {name: tok for name, tok in zip(names, tokens) if isinstance(tok, float)}
    try:
        tree = ast.parse(" ".join(names), mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"malformed expression {text!r}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _NODES) or (
                isinstance(node, ast.Name) and node.id != "x" and node.id not in numbers):
            raise ExpressionError(f"malformed expression {text!r}")
    code = compile(tree, "<expression>", "eval")

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        scope = {name: value + 0.0 * x for name, value in numbers.items()}
        scope["x"] = x
        return eval(code, {"__builtins__": {}}, scope)

    evaluator.constant = None if "x" in tokens else _constant_value(evaluator)
    return evaluator
