import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import starkit as sk
from starkit.dsl import (load_distance_function, parse_distance_function,
                         parse_number, print_distance_function, tree_from_json,
                         tree_to_json)
from starkit.errors import ArityError, ParseError
from starkit.exact import GOLDEN, INV_SQRT2, SQRT2, SQRT3, Quad

from conftest import random_dsl


def test_parse_height():
    f = parse_distance_function("max(abs(1,0),abs(0,1))")
    assert f == sk.height()


def test_parse_union_jack_evaluates_to_zero_on_diagonal():
    f = parse_distance_function(
        "min(gm(abs(1,0),abs(0,1)),"
        "gm(abs(invsqrt2,invsqrt2),abs(invsqrt2,-invsqrt2)))")
    assert f == sk.union_jack()
    assert f.evaluate((1.0, 1.0)) == 0.0


def test_parse_error_unbalanced():
    with pytest.raises(ParseError) as e:
        parse_distance_function("gm(abs(1,0)")
    assert e.value.column == 11


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_distance_function("min(abs(1,0),\nbogus(1))")
    assert e.value.line == 2
    assert "abs" in e.value.expected


def test_parse_error_empty_combinator():
    with pytest.raises(ArityError):
        parse_distance_function("min()")


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse_distance_function("abs(1,0) abs(0,1)")


def test_parse_numbers():
    f = parse_distance_function("scale(3/2,abs(-sqrt2,0.25))")
    assert f.factor.to_fraction() == Fraction(3, 2)
    a, b = f.child.form.a, f.child.form.b
    assert float(a) == pytest.approx(-(2 ** 0.5))
    assert b.to_fraction() == Fraction(1, 4)


def test_exponent_case_does_not_change_the_number():
    trees = [parse_distance_function(f"abs({t},1)")
             for t in ("1E-3", "1e-3", "0.001")]
    assert trees[0] == trees[1] == trees[2]
    # a decimal is the exact value of its binary double
    assert trees[0].form.a == Quad(Fraction(0.001))
    rect = sk.fundamental_rectangle(sk.extract_skeleton(trees[0]))
    assert rect.r_hat == Fraction(0.001).denominator


@pytest.mark.parametrize("tok", ["1e400", "-1e400", "1E400", "nan", "inf",
                                 "-inf", "1" + "0" * 400, "-1" + "0" * 400,
                                 "1" + "0" * 400 + "/3"])
def test_non_finite_number_is_a_parse_error(tok):
    with pytest.raises(ParseError):
        parse_distance_function(f"abs({tok},1)")
    with pytest.raises(ParseError):
        parse_number(tok)
    if "/" not in tok:
        a = int(tok) if tok.lstrip("-").isdigit() else float(tok)
        with pytest.raises(ParseError):
            tree_from_json({"kind": "abs", "a": a, "b": 1})


def test_parse_number_reads_one_number():
    assert parse_number("-1/3") == Quad(Fraction(-1, 3))
    assert parse_number(" sqrt2 ") == SQRT2
    assert parse_number("-invsqrt2") == -SQRT2 / 2
    assert parse_number("0.37") == Quad(Fraction(0.37))
    assert parse_number("3") == Quad(3)
    for bad in ("", "1 2", "1/0", "sqrt5"):
        with pytest.raises(ParseError):
            parse_number(bad)


_DIGITS = "0123456789"
_TOKEN_VALUES = {"sqrt2": SQRT2, "sqrt3": SQRT3, "invsqrt2": INV_SQRT2,
                 "golden": GOLDEN, "invgolden": GOLDEN - 1,
                 "sqrt2m1": SQRT2 - 1}
_MANTISSAS = st.one_of(
    st.tuples(st.text(_DIGITS, min_size=1, max_size=6),
              st.text(_DIGITS, max_size=6)).map(lambda t: f"{t[0]}.{t[1]}"),
    st.text(_DIGITS, min_size=1, max_size=6).map(lambda s: "." + s),
    st.text(_DIGITS, min_size=1, max_size=6))
_EXPONENTS = st.one_of(st.just(""), st.tuples(
    st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
    st.integers(0, 300)).map(lambda t: "".join(map(str, t))))
# (numeral, its value computed apart from the parser)
_NUMERALS = st.one_of(
    st.text(_DIGITS, min_size=1, max_size=20).map(lambda s: (s, Fraction(s))),
    st.tuples(st.text(_DIGITS, min_size=1, max_size=12),
              st.integers(1, 10 ** 9)).map(
        lambda t: (f"{t[0]}/{t[1]}", Fraction(int(t[0]), t[1]))),
    st.tuples(_MANTISSAS, _EXPONENTS).map("".join)
    .filter(lambda s: not s.isdigit()).map(lambda s: (s, Fraction(float(s)))),
    st.sampled_from(sorted(_TOKEN_VALUES)).map(
        lambda s: (s, _TOKEN_VALUES[s])))


@given(_NUMERALS, st.booleans())
def test_parse_number_follows_the_stated_grammar(numeral, negative):
    text, value = numeral
    value = Quad(value) if isinstance(value, Fraction) else value
    if negative:
        text, value = "-" + text, -value
    assert parse_number(text) == value
    bad = ["+" + text, "--" + text]
    # an underscore between two digits and a non-ASCII digit are Python's
    # grammar, not this one
    bad += [re.sub(pattern, repl, text, count=1)
            for pattern, repl in ((r"(?<=[0-9])(?=[0-9])", "_"),
                                  (r"[0-9]", lambda m: chr(0x660 + int(m[0]))))
            if re.search(pattern, text)]
    for tok in bad:
        with pytest.raises(ParseError):
            parse_number(tok)


def test_whitespace_tolerated():
    f = parse_distance_function(" max( abs( 1 , 0 ) ,\n abs(0,1) ) ")
    assert f == sk.height()


def test_round_trip_corpus():
    rng = random.Random(1234)
    for _ in range(500):
        text = random_dsl(rng)
        try:
            tree = parse_distance_function(text)
        except sk.DegenerateExpr:
            continue
        printed = print_distance_function(tree)
        assert parse_distance_function(printed) == tree


@pytest.mark.parametrize("f", [
    sk.union_jack(),
    parse_distance_function("scale(3/2,gm(abs(-sqrt2,1),abs(1,0)))")],
    ids=["union_jack", "scale"])
def test_json_round_trip(f):
    blob = json.dumps(tree_to_json(f))
    assert tree_from_json(json.loads(blob)) == f


def test_json_numbers_accepted():
    f = tree_from_json({"kind": "abs", "a": 1, "b": 0.5})
    assert f.form.b.to_fraction() == Fraction(1, 2)


def test_load_auto_detects():
    assert load_distance_function("max(abs(1,0),abs(0,1))") == sk.height()
    blob = json.dumps(tree_to_json(sk.height()))
    assert load_distance_function(blob) == sk.height()


def test_json_bad_kind():
    with pytest.raises(ParseError):
        tree_from_json({"kind": "pow", "a": 1})
    with pytest.raises(ParseError):   # a JSON list kind is no table key
        tree_from_json({"kind": ["min"], "children": []})
    with pytest.raises(ArityError):
        tree_from_json({"kind": "min", "children": []})
