"""Distance-function DSL: parser, canonical printer, JSON tree form.

Grammar::

    expr := "abs(" num "," num ")"
          | "min(" expr {"," expr} ")"
          | "max(" expr {"," expr} ")"
          | "gm("  expr {"," expr} ")"
          | "scale(" num "," expr ")"

A number is at most one leading minus, then an integer or ``p/q`` (an
exact rational), a decimal with an optional ``e``/``E`` exponent (the exact
value of its binary double), or one of the tokens ``sqrt2``, ``sqrt3``,
``invsqrt2``, ``golden``, ``invgolden`` (golden - 1) and ``sqrt2m1``, in
ASCII.  The same grammar reads JSON string numbers and every number the
CLI takes.  ``parse(print(tree))`` reproduces the tree exactly for any tree
whose coefficients are token-representable (all parser output is).

The equivalent JSON form uses node kinds ``abs|min|max|gm|scale``::

    {"kind": "min", "children": [{"kind": "abs", "a": "1", "b": "0"}, ...]}
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .errors import ArityError, ParseError
from .exact import GOLDEN, INV_SQRT2, SQRT2, SQRT3, Quad
from .starbody import Abs, Expr, GeoMean, Max, Min, Scale

_TOKENS = {"sqrt2": SQRT2, "sqrt3": SQRT3, "invsqrt2": INV_SQRT2,
           "golden": GOLDEN, "invgolden": GOLDEN - 1, "sqrt2m1": SQRT2 - 1}
# groups: the minus, a token, an integer or p/q, a decimal
_NUMERAL = re.compile(
    r"(-?)(?:(" + "|".join(_TOKENS) + r")|([0-9]+(?:/[0-9]+)?)"
    r"|((?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?))")
_COMBINATORS = {"min": Min, "max": Max, "gm": GeoMean}
_COMBINATOR_NAMES = {cls: name for name, cls in _COMBINATORS.items()}
_KINDS = ("abs", *_COMBINATORS, "scale")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _linecol(self, pos):
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1)
        return line, col

    def error(self, message, expected=()):
        line, col = self._linecol(self.pos)
        raise ParseError(message, line, col, expected)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            got = repr(self.text[self.pos]) if self.pos < len(self.text) else "end of input"
            self.error(f"expected {ch!r}, got {got}", expected=(ch,))
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] in "._/+-"):
            self.pos += 1
        return self.text[start:self.pos]


def _parse_number(tok: str, sc: _Scanner) -> Quad:
    if not tok:
        sc.error("expected a number", expected=("number",))
    m = _NUMERAL.fullmatch(tok)
    try:
        if m is None:
            raise ValueError(tok)
        neg, token, exact, decimal = m.groups()
        val = _TOKENS[token] if token else Quad(
            Fraction(exact) if exact else Fraction(float(decimal)))
        float(val)  # a number must be finite as a double
    except (ValueError, ZeroDivisionError, OverflowError):
        sc.pos -= len(tok)
        sc.error(f"bad number {tok!r}", expected=("number",))
    return -val if neg else val


def parse_number(text: str) -> Quad:
    """Parse one number of the grammar above: an integer, ``p/q``, a
    decimal (the exact value of its double) or a token, with an optional
    leading minus."""
    sc = _Scanner(text)
    val = _parse_number(sc.word(), sc)
    if not sc.eof():
        sc.error("trailing input after number")
    return val


def _parse_expr(sc: _Scanner) -> Expr:
    head = sc.word()
    if head not in _KINDS:
        sc.pos -= len(head)
        sc.error(f"expected one of {_KINDS}, got {head!r}" if head
                 else "expected an expression", expected=_KINDS)
    sc.expect("(")
    if head == "abs":
        a = _parse_number(sc.word(), sc)
        sc.expect(",")
        b = _parse_number(sc.word(), sc)
        sc.expect(")")
        return Abs(a, b)
    if head == "scale":
        c = _parse_number(sc.word(), sc)
        sc.expect(",")
        child = _parse_expr(sc)
        sc.expect(")")
        return Scale(c, child)
    children = []
    if sc.peek() == ")":
        sc.expect(")")
        raise ArityError(f"{head}() needs at least one child")
    children.append(_parse_expr(sc))
    while sc.peek() == ",":
        sc.expect(",")
        children.append(_parse_expr(sc))
    sc.expect(")")
    return _COMBINATORS[head](*children)


def parse_distance_function(text: str) -> Expr:
    """Parse DSL text to an expression tree (position-annotated errors)."""
    sc = _Scanner(text)
    expr = _parse_expr(sc)
    if not sc.eof():
        sc.error("trailing input after expression")
    return expr


def _print_number(q: Quad) -> str:
    if q.sign() < 0:
        return "-" + _print_number(-q)
    if q.is_rational:
        fr = q.to_fraction()
        return str(fr.numerator) if fr.denominator == 1 else f"{fr}"
    for name, val in _TOKENS.items():
        if q == val:
            return name
    return repr(float(q))  # lossy fallback for non-token surds


def print_distance_function(expr: Expr) -> str:
    """Canonical printer; inverse of the parser on token-representable trees."""
    if isinstance(expr, Abs):
        return f"abs({_print_number(expr.form.a)},{_print_number(expr.form.b)})"
    if isinstance(expr, Scale):
        return f"scale({_print_number(expr.factor)},{print_distance_function(expr.child)})"
    kind = _COMBINATOR_NAMES[type(expr)]
    inner = ",".join(print_distance_function(c) for c in expr.children)
    return f"{kind}({inner})"


# ---------------------------------------------------------------------------
# JSON tree form
# ---------------------------------------------------------------------------


def _num_from_json(v) -> Quad:
    if isinstance(v, str):
        return parse_number(v)
    if isinstance(v, (int, float)) and abs(v) <= sys.float_info.max:
        return Quad(Fraction(v))
    raise ParseError(f"bad JSON number {v!r}")


def tree_from_json(obj) -> Expr:
    """Build an expression from the JSON node form."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("JSON node must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "abs":
        return Abs(_num_from_json(obj["a"]), _num_from_json(obj["b"]))
    if kind == "scale":
        return Scale(_num_from_json(obj["factor"]), tree_from_json(obj["child"]))
    if isinstance(kind, str) and kind in _COMBINATORS:
        children = obj.get("children", [])
        if not children:
            raise ArityError(f"{kind} node needs at least one child")
        return _COMBINATORS[kind](*[tree_from_json(c) for c in children])
    raise ParseError(f"unknown node kind {kind!r}")


def tree_to_json(expr: Expr):
    if isinstance(expr, Abs):
        return {"kind": "abs", "a": _print_number(expr.form.a),
                "b": _print_number(expr.form.b)}
    if isinstance(expr, Scale):
        return {"kind": "scale", "factor": _print_number(expr.factor),
                "child": tree_to_json(expr.child)}
    return {"kind": _COMBINATOR_NAMES[type(expr)],
            "children": [tree_to_json(c) for c in expr.children]}


def load_distance_function(text: str) -> Expr:
    """Auto-detect DSL vs JSON input."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return tree_from_json(json.loads(stripped))
    return parse_distance_function(text)
