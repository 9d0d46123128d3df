"""Tiny arithmetic expression language for problem-config coefficients.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+')* atom
    atom   := NUMBER | 'x' | '(' expr ')'

Just enough to express constants and polynomials in x; compiled to a
numpy-vectorized callable. At most ``MAX_TOKENS`` tokens are accepted, which
bounds how deep parsing and evaluation recurse.
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

#: longest expression accepted: at most 100 nested parentheses, about 400
#: parser frames, well inside the default recursion limit of 1000
MAX_TOKENS = 200

_TOKEN = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)|(x)|([()+\-*/]))")


class ExpressionError(ValueError):
    """Malformed coefficient expression."""


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ExpressionError(f"unexpected character {text[pos:]!r} in {text!r}")
        tokens.append(match.group(match.lastindex))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExpressionError(f"unexpected end of expression in {self.source!r}")
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            node = (op, node, rhs)
        return node

    def unary(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        node = self.atom()
        return node if sign == 1 else ("neg", node)

    def atom(self):
        tok = self.take()
        if tok == "(":
            node = self.expr()
            if self.take() != ")":
                raise ExpressionError(f"missing ')' in {self.source!r}")
            return node
        if tok == "x":
            return ("x",)
        if tok in ("+", "-", "*", "/", ")"):
            raise ExpressionError(f"misplaced {tok!r} in {self.source!r}")
        return ("num", float(tok))


def _eval_node(node, x):
    op = node[0]
    if op == "num":
        return node[1] + 0.0 * x
    if op == "x":
        return x
    if op == "neg":
        return -_eval_node(node[1], x)
    a = _eval_node(node[1], x)
    b = _eval_node(node[2], x)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b


def compile_expression(text: str) -> Callable[[np.ndarray], np.ndarray]:
    """Parse an expression in x and return a vectorized evaluator."""
    tokens = _tokenize(str(text))
    if len(tokens) > MAX_TOKENS:
        raise ExpressionError(f"expression longer than {MAX_TOKENS} tokens: {text[:40]!r}...")
    parser = _Parser(tokens, str(text))
    tree = parser.expr()
    if parser.peek() is not None:
        raise ExpressionError(f"trailing tokens after expression in {text!r}")

    def evaluator(x):
        return _eval_node(tree, np.asarray(x, dtype=float))

    return evaluator
