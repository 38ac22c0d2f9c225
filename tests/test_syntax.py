"""Parser and pretty-printer round trips."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from revexp import Choice, NIL, Par, Prefix, parse, render
from revexp.errors import ParseError, WellFormednessError
from revexp.syntax import parse_proof_term, render_proof
from revexp.terms import Act, Dot, ParL, ParR, PlusL, PlusR, Syn


def test_parse_examples():
    assert parse("a.0 + b.0") == Choice(Prefix("a", False, NIL), Prefix("b", False, NIL))
    assert parse("a!.b.0") == Prefix("a", True, Prefix("b", False, NIL))


def test_parse_rejects_illformed():
    with pytest.raises(WellFormednessError, match="both sides"):
        parse("a!.0 + b!.0")
    parse("a!.0 + b!.0", allow_illformed=True)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("a.0 +")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse("a..0")
    with pytest.raises(ParseError, match="tau"):
        parse("a.0 |[tau]| b.0")


def test_tau_is_an_ordinary_action_outside_sync_sets():
    p = parse("tau.0 + a.0")
    assert render(p) == "tau.0 + a.0"


def test_precedence_and_parentheses():
    # prefix > choice > parallel
    p = parse("a.0 + b.0 |[]| c.0")
    assert isinstance(p, Par)
    assert isinstance(p.left, Choice)
    q = parse("a.(b.0 + c.0)")
    assert isinstance(q, Prefix) and isinstance(q.cont, Choice)
    assert render(q) == "a.(b.0 + c.0)"
    assert render(parse("(a.0 |[]| b.0) + c.0")) == "(a.0 |[]| b.0) + c.0"


def test_left_associative_parse_preserves_shape():
    p = parse("a.0 + b.0 + c.0")
    assert p == Choice(Choice(parse("a.0"), parse("b.0")), parse("c.0"))
    q = parse("a.0 + (b.0 + c.0)")
    assert render(q) == "a.0 + (b.0 + c.0)"
    assert parse(render(q)) == q


def test_render_examples():
    assert render(Prefix("a", True, NIL)) == "a!.0"
    assert render(parse("c.0 |[c]| c.0")) == "c.0 |[c]| c.0"
    assert render(parse("a!.0"), unicode=True) == "a†.0"


names = st.sampled_from(["a", "b", "c", "tau", "go_1"])
sync_names = st.sampled_from(["a", "b", "c", "go_1"])


def processes(depth=3):
    base = st.just(NIL) | st.builds(Prefix, names, st.booleans(), st.just(NIL))
    return st.recursive(
        base,
        lambda sub: st.one_of(
            st.builds(Prefix, names, st.booleans(), sub),
            st.builds(Choice, sub, sub),
            st.builds(
                lambda s, l, r: Par(tuple(s), l, r),
                st.lists(sync_names, max_size=2), sub, sub,
            ),
        ),
        max_leaves=8,
    )


@given(processes())
def test_parse_render_round_trip(p):
    assert parse(render(p), allow_illformed=True) == p


def proof_terms():
    return st.recursive(
        st.builds(Act, names),
        lambda sub: st.one_of(
            st.builds(Dot, sub), st.builds(PlusL, sub), st.builds(PlusR, sub),
            st.builds(ParL, sub), st.builds(ParR, sub), st.builds(Syn, sub, sub),
        ),
        max_leaves=6,
    )


@given(proof_terms())
def test_proof_term_round_trip(t):
    assert parse_proof_term(render_proof(t)) == t


@pytest.mark.parametrize("src, position, message", [
    ("a b", "1:3", "trailing input in proof term: ['b']"),
    ("|l  |r  x y", "1:11", "trailing input in proof term: ['y']"),
    ("|r <a, b", "1:9", "expected '>' closing synchronization proof"),
    ("<a b>", "1:4", "expected ',' in synchronization proof"),
    ("  |l", "1:5", "unexpected end of proof term"),
    ("<a, >", "1:5", "unexpected token '>' in proof term"),
    (".a $", "1:4", "bad proof term near '$'"),
])
def test_proof_term_errors_give_the_character_column(src, position, message):
    with pytest.raises(ParseError) as err:
        parse_proof_term(src)
    assert str(err.value) == f"{position}: {message}"
    with pytest.raises(ParseError) as err:
        parse_proof_term(src, 7)
    assert (err.value.line, err.value.column) == (7, int(position.split(":")[1]))
