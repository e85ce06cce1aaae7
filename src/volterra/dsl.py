"""Interconnection-expression language over named series.

Grammar (whitespace insensitive)::

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := atom ('<|' atom)*
    atom   := identifier | '(' expr ')'

``<|`` is series composition (left associative, binds tightest; safe to
chain because composition is associative), ``*`` the pointwise product,
``+`` the sum.  ``x <| y`` feeds y's output into x.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .algebra import compose_series, product_series, sum_series
from .errors import ParseError, ResolutionError
from .kernels import DEFAULT_MAX_ORDER, VolterraSeries

__all__ = ["ExprNode", "Name", "Sum", "Product", "Compose", "parse", "pretty", "build"]


class ExprNode:
    """Base class for expression-tree nodes."""


@dataclass(frozen=True)
class Name(ExprNode):
    value: str


@dataclass(frozen=True)
class Sum(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class Product(ExprNode):
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class Compose(ExprNode):
    outer: ExprNode
    inner: ExprNode


# The three monoidal products, loosest binding first: (token, node class,
# series operation).  The operations name their function at call time, so a
# wrapper rebound over it in this module (as perfbench's tracer does) sees the call.
_OPERATORS = (
    ("+", Sum, lambda left, right, max_order: sum_series(left, right)),
    ("*", Product, lambda left, right, max_order: product_series(left, right, max_order)),
    ("<|", Compose, lambda left, right, max_order: compose_series(left, right, max_order)),
)
# binding level of each operator, keyed by its token and by its node class
_LEVEL = {key: level for level, (token, cls, _) in enumerate(_OPERATORS) for key in (token, cls)}
_PUNCTUATION = tuple(token for token, _, _ in _OPERATORS) + ("(", ")")
_FOLLOWS_OPERAND = frozenset(f"'{token}'" for token, _, _ in _OPERATORS)


def _tokenize(text: str):
    """(kind, value, offset) triples; kind "bad" marks a character that the
    parser reports against what it expected there."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        start = i
        if text[i].isspace():
            i += 1
            continue
        kind = next((p for p in _PUNCTUATION if text.startswith(p, i)), None)
        if kind is not None:
            i += len(kind)
        elif text[i].isalpha() or text[i] == "_":
            kind = "name"
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
        else:
            kind = "bad"
            i += 1
        tokens.append((kind, text[start:i], start))
    tokens.append(("end", "", n))
    return tokens


def parse(text: str) -> ExprNode:
    """Parse an interconnection expression; raises ParseError with offset."""
    tokens = _tokenize(text)
    pos = 0

    def fail(expected):
        _, value, offset = tokens[pos]
        raise ParseError(
            f"expected {' or '.join(sorted(expected))} at offset {offset}, found {value or 'end of input'!r}",
            offset,
            expected,
        )

    def atom():
        nonlocal pos
        kind, value, _ = tokens[pos]
        if kind == "name":
            pos += 1
            return Name(value)
        if kind != "(":
            fail({"identifier", "'('"})
        pos += 1
        node = expr(0)
        if tokens[pos][0] != ")":
            fail(_FOLLOWS_OPERAND | {"')'"})
        pos += 1
        return node

    def expr(min_level):
        # precedence climbing: an operator binding at least min_level joins the
        # node so far to an operand of the operators binding tighter than itself
        nonlocal pos
        node = atom()
        while (level := _LEVEL.get(tokens[pos][0], -1)) >= min_level:
            pos += 1
            node = _OPERATORS[level][1](node, expr(level + 1))
        return node

    node = expr(0)
    if tokens[pos][0] != "end":
        fail(_FOLLOWS_OPERAND | {"end"})
    return node


def _split(node: ExprNode):
    """(binding level, left operand, right operand) of an operator node."""
    level = _LEVEL.get(type(node))
    if level is None:
        raise TypeError(f"not an expression node: {node!r}")
    return (level, *(getattr(node, f.name) for f in fields(node)))


def pretty(node: ExprNode) -> str:
    """Minimal-parenthesis rendering; parse(pretty(node)) == node."""

    def render(n: ExprNode, level: int) -> str:
        if isinstance(n, Name):
            return n.value
        own, left, right = _split(n)
        text = f"{render(left, own)} {_OPERATORS[own][0]} {render(right, own + 1)}"
        return f"({text})" if own < level else text

    return render(node, 0)


def build(
    node: ExprNode,
    bindings: dict[str, VolterraSeries],
    max_order: int | None = DEFAULT_MAX_ORDER,
) -> VolterraSeries:
    """Evaluate an expression tree against named series."""
    if isinstance(node, Name):
        try:
            return bindings[node.value]
        except KeyError:
            raise ResolutionError(f"name {node.value!r} is not bound to a series") from None
    level, left, right = _split(node)
    operation = _OPERATORS[level][2]
    return operation(build(left, bindings, max_order), build(right, bindings, max_order), max_order)
