"""Normal forms, normalizers, canonical representatives, and the deciders."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from revexp import (
    Theory,
    Variant,
    canonical,
    check,
    encode,
    expansion_law_f,
    format_trace,
    is_fnf,
    is_frnf,
    is_rnf,
    normalize_f,
    normalize_fr,
    normalize_r,
    parse,
    prove_eq,
    render,
)
from revexp import axioms, encoding
from revexp.axioms import structural_key, theory_encoding
from revexp.encoding import least_trace
from revexp.errors import NotNormalizedError, NotReachableError
from revexp.generate import enumerate_processes
from revexp.semantics import forward_steps
from revexp.terms import PAST, BrsPrefix, Choice, NIL, Par, Prefix, is_initial, to_initial

from test_bisim import _walked_to
from test_byte_identity import _derivation, _products
from test_walked_digests import SHAPES

P = parse


# --- normal form predicates --------------------------------------------------

def test_is_fnf():
    assert is_fnf(P("0"))
    assert is_fnf(P("a!.0"))
    assert is_fnf(P("b!.a.0 + c.0", allow_illformed=True)) is False
    assert is_fnf(P("a!.(b.0 + c.0)"))
    assert not is_fnf(P("a.0 |[]| b.0"))
    assert not is_fnf(P("a!.b!.0"))
    assert not is_fnf(P("a.0 + 0"))  # a 0 summand next to others


def test_is_rnf():
    assert is_rnf(NIL)
    assert is_rnf(encode(P("a!.b!.0")))
    assert not is_rnf(encode(P("a.0")))


def test_is_frnf():
    assert is_frnf(encode(P("a.b.0 + b.a.0")))
    assert is_frnf(normalize_fr(encode(P("a!.b.0 + c.0"))))
    assert not is_frnf(Choice(encode(P("a.0")), NIL))


def test_the_normalizers_refuse_two_executed_summands():
    two = Choice(encode(P("a!.0")), encode(P("b!.0")))
    for normalize in (normalize_r, normalize_fr):
        with pytest.raises(NotNormalizedError):
            normalize(two)
    assert not is_frnf(two)


# --- the interleaving expansion ------------------------------------------------

def test_expansion_of_nil_pair():
    assert render(expansion_law_f(NIL, NIL, ())) == "0 + 0 + 0"


def test_expansion_single_step():
    out = expansion_law_f(P("a.0"), P("b.0"), ())
    assert render(out) == "a.(0 |[]| b.0) + b.(a.0 |[]| 0) + 0"


def test_expansion_keeps_the_executed_head():
    out = expansion_law_f(P("a!.b.0"), P("c.0"), ())
    assert isinstance(out, Prefix) and out.executed and out.action == "a"
    assert render(normalize_f(out)) == "a!.(b.c.0 + c.b.0)"


def test_expansion_requires_normal_forms():
    with pytest.raises(NotNormalizedError):
        expansion_law_f(P("a.0 |[]| b.0"), P("0"), ())


def test_expansion_is_forward_bisimilar_to_the_composition():
    for left, right, sync in [("a.0", "b.0", ()), ("a!.b.0", "c.0", ()),
                              ("c.0", "c.0 + d.0", ("c",))]:
        p1, p2 = P(left), P(right)
        from revexp.terms import Par
        composed = Par(tuple(sync), p1, p2)
        expanded = expansion_law_f(normalize_f(p1), normalize_f(p2), sync)
        assert check(composed, expanded, Variant.FBPS).equivalent


# --- normalize_f ---------------------------------------------------------------

@pytest.mark.parametrize("src,expected", [
    ("a!.b!.c.0", "b!.c.0"),
    ("a.0 |[]| b.0", "a.b.0 + b.a.0"),
    ("a!.b.0 + c.0", "a!.b.0"),
    ("0 |[]| 0", "0"),
    ("c.0 |[c]| c.0", "c.0"),
])
def test_normalize_f(src, expected):
    result = normalize_f(P(src))
    assert render(result) == expected
    assert is_fnf(result)


def test_normalize_f_output_is_equivalent_to_input():
    for p in list(enumerate_processes(3, ("a", "b")))[:500]:
        q = normalize_f(p)
        assert is_fnf(q)
        assert is_initial(q) == is_initial(p)
        assert check(p, q, Variant.FBPS).equivalent, render(p)


def test_normalize_f_records_a_trace():
    trace = []
    normalize_f(P("a!.b!.0 + c.0"), trace)
    axioms = [step.axiom for step in trace]
    assert "A_F,6" in axioms and "A_F,7" in axioms
    assert format_trace(trace).startswith("1.")


# --- normalize_r ----------------------------------------------------------------

def test_normalize_r():
    assert normalize_r(encode(P("a.b.0"))) == NIL
    u = encode(P("a!.b!.0"))
    assert normalize_r(u) == u
    assert render(normalize_r(encode(P("a!.b.0 + c.0")))) == "<a!,{a}>.0"


def test_normalize_r_preserves_the_undo_chain():
    for src in ("a!.b!.0", "a!.0 |[]| b!.0", "b!.(a.0 + a.0)"):
        p = P(src)
        u = encode(p)
        chain = normalize_r(u)
        assert is_rnf(chain)
        from revexp import check_brs
        assert check_brs(u, chain, Variant.RB).equivalent


# --- normalize_fr ---------------------------------------------------------------

def test_normalize_fr():
    assert normalize_fr(encode(P("a.0 + 0"))) == encode(P("a.0"))
    u = encode(P("a!.0 |[]| b.0"))
    assert normalize_fr(u) == u  # already in normal form
    assert is_frnf(normalize_fr(encode(P("c.0 |[c]| c.0"))))


def test_normalize_fr_moves_the_executed_branch_first():
    u = encode(P("c.0 + a!.0"))
    n = normalize_fr(u)
    assert is_frnf(n)
    assert render(n) == "<a!,{a}>.0 + <c,{c}>.0"


# --- canonical -------------------------------------------------------------------

def test_canonical_f_forgets_the_past_identity():
    assert canonical(P("a!.b.0"), Theory.F) == canonical(P("c!.b.0"), Theory.F)
    c = canonical(P("a!.b.0"), Theory.F)
    assert isinstance(c, Prefix) and c.action == PAST


def test_canonical_f_deduplicates_initial_summands():
    x = P("a.0 + a.0")
    assert canonical(x, Theory.F) == canonical(P("a.0"), Theory.F)


def test_canonical_f_sorts_summands():
    assert canonical(P("b.0 + a.0"), Theory.F) == canonical(P("a.0 + b.0"), Theory.F)


def test_canonical_requires_normal_form():
    with pytest.raises(NotNormalizedError):
        canonical(P("a.0 |[]| b.0"), Theory.F)
    with pytest.raises(NotNormalizedError):
        canonical(encode(P("a.b.0")), Theory.R)


def test_canonical_fr_absorbs_the_rollback_branch():
    u = normalize_fr(encode(P("a!.b.0 + a.b.0")))
    c = canonical(u, Theory.FR)
    assert c == normalize_fr(encode(P("a!.b.0")))


def test_canonical_is_idempotent():
    for src in ("a!.b.0 + c.0", "a.0 + a.0", "b.a.0 + a.b.0"):
        c = canonical(normalize_f(P(src)), Theory.F)
        assert canonical(c, Theory.F) == c
        u = canonical(normalize_fr(encode(P(src))), Theory.FR)
        assert canonical(u, Theory.FR) == u


# --- prove_eq ---------------------------------------------------------------------

def test_prove_eq_examples():
    assert prove_eq(P("a.0 |[]| b.0"), P("a.b.0 + b.a.0"), Theory.F)
    assert not prove_eq(P("a.0 |[]| b.0"), P("a.b.0 + b.a.0"), Theory.FR)
    assert prove_eq(P("a!.b.0"), P("c!.b.0"), Theory.F)
    p = P("a.0 |[a]| (a.0 + b.0)")
    for theory in Theory:
        assert prove_eq(p, p, theory)


def test_prove_eq_r_examples():
    # all initial processes collapse going backward
    assert prove_eq(P("a.b.0"), P("c.0 + d.0"), Theory.R)
    assert prove_eq(P("a!.0 |[]| b!.0"), P("b!.0 |[]| a!.0"), Theory.R)
    assert not prove_eq(P("a!.0"), P("b!.0"), Theory.R)


def test_prove_eq_agrees_with_the_checkers_on_a_sample():
    terms = list(enumerate_processes(2, ("a", "b")))
    pairs = [(terms[i], terms[j]) for i in range(0, len(terms), 5)
             for j in range(0, len(terms), 9)]
    for p1, p2 in pairs:
        assert prove_eq(p1, p2, Theory.F) == check(p1, p2, Variant.FBPS).equivalent
        assert prove_eq(p1, p2, Theory.R) == check(p1, p2, Variant.RB).equivalent
        assert prove_eq(p1, p2, Theory.FR) == check(p1, p2, Variant.FRB).equivalent


def test_a_history_takes_no_undo_step_that_no_run_takes():
    # the first undo step of p leads to a state that no run reaches and that
    # has nothing to undo; p's histories go round it
    p = P("(a!.b!.0 |[]| a!.0) |[a,b]| (a!.0 |[]| b!.a!.0)")
    for theory in Theory:
        assert prove_eq(p, p, theory)
    assert prove_eq(p, P("a!.b!.a!.0"), Theory.R)
    assert check(p, P("a!.b!.a!.0"), Variant.RB).equivalent


# --- the forward theory decides by keys over the product ---------------------

def _assert_f_partitions_agree(terms):
    """Two of ``terms`` have one key exactly when their canonical forward
    normal forms are equal."""
    memo: dict = {}
    table: dict = {}
    keys = [axioms._f_key(p, memo, table) for p in terms]
    by_key: dict = {}
    by_form: dict = {}
    for p, key in zip(terms, keys):
        form = canonical(normalize_f(p), Theory.F)
        assert by_key.setdefault(id(key), form) is form, render(p)
        assert by_form.setdefault(form, key) is key, render(p)


def test_the_forward_key_partitions_as_the_canonical_forms_at_size_4():
    _assert_f_partitions_agree(list(enumerate_processes(4, ("a", "b"))))


def _mirrored(p):
    """``p`` with the operands of every parallel composition swapped."""
    if isinstance(p, Par):
        return Par(p.sync, _mirrored(p.right), _mirrored(p.left))
    return p


def _nested_products():
    """Products of two or three four-state components over {a, b, c}, in
    either nesting, each parallel composition under {}, one action or two,
    walked up to six steps."""
    component = st.builds(lambda text, letters: P(text.format(*letters)),
                          st.sampled_from([text for shape in SHAPES for text in shape]),
                          st.lists(st.sampled_from("abc"), min_size=3, max_size=3))
    sync = st.sampled_from(["", "a", "b", "c", "ab", "ac", "bc"])
    par = lambda s, l, r: Par(tuple(s), l, r)
    two = st.builds(par, sync, component, component)
    tree = st.one_of(two, st.builds(par, sync, two, component),
                     st.builds(par, sync, component, two))
    return st.builds(_walked_to, tree, st.lists(st.integers(0, 10**6), max_size=6))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_nested_products())
def test_the_forward_key_partitions_as_the_canonical_forms_on_walked_products(p):
    # the mirror is forward equal to p; the successors mostly are not
    terms = [p, _mirrored(p), to_initial(p)]
    terms += [q for _, q in forward_steps(p)]
    _assert_f_partitions_agree(terms)


def test_untraced_f_proofs_build_nothing(monkeypatch):
    terms = list(enumerate_processes(3, ("a", "b")))[::7]
    pairs = list(zip(terms, terms[1:])) + [(p, p) for p in terms[::5]]
    expected = [prove_eq(p, q, Theory.F) for p, q in pairs]
    five = " |[]| ".join(["(a.b.0 + c.0)"] * 5)

    def refuse(*args):
        raise AssertionError("an untraced forward proof built a normal form")
    monkeypatch.setattr(axioms, "_expansion_f", refuse)
    monkeypatch.setattr(axioms, "normalize_f", refuse)
    monkeypatch.setattr(axioms, "_canon_f", refuse)
    assert [prove_eq(p, q, Theory.F) for p, q in pairs] == expected
    assert prove_eq(P(five), P(five.replace("a.b.0 + c.0", "c.0 + a.b.0")), Theory.F)
    assert not prove_eq(P(five), P(five.replace("c.0", "b.0")), Theory.F)


def test_prove_eq_f_trace_is_the_derivation_of_each_side():
    products = _products()
    for p, q in zip(products, products[1:]):
        trace = []
        prove_eq(p, q, Theory.F, trace)
        assert trace == [
            step for x in (p, q) for step in _derivation(normalize_f, Theory.F, x)
        ]


# --- the reverse theory decides by least observation traces ------------------

def _spine(u) -> tuple:
    """The executed prefixes of a reverse normal form, last first, each as
    its action and sorted ready set: the form a least trace takes."""
    steps = ()
    while isinstance(u, BrsPrefix):
        steps = ((u.action, tuple(sorted(u.ready))),) + steps
        u = u.cont
    return steps


def test_the_reverse_normal_form_is_the_least_trace_at_size_4():
    for p in enumerate_processes(4, ("a", "b")):
        assert _spine(normalize_r(theory_encoding(p, Theory.R))) == least_trace(p), render(p)


def _walked_products():
    """Left-nested products of two or three four-state components over
    {a, b, c}, each parallel composition under {} or one action, walked up
    to six steps."""
    def build(components, syncs, picks):
        p = components[0]
        for q, sync in zip(components[1:], syncs):
            p = Par(tuple(sync), p, q)
        return _walked_to(p, picks)
    component = st.builds(lambda shape, letters: P(shape[0].format(*letters)),
                          st.sampled_from(SHAPES),
                          st.lists(st.sampled_from("abc"), min_size=3, max_size=3))
    return st.builds(build, st.lists(component, min_size=2, max_size=3),
                     st.lists(st.sampled_from(["", "a", "b", "c"]), min_size=2, max_size=2),
                     st.lists(st.integers(0, 10**6), max_size=6))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_walked_products())
# executed actions in both operands of a |[]|, with tied histories
@example(P("(a!.b.0 + c.0) |[]| a!.(b.0 + c.0)"))
@example(P("(a!.b!.0 + c.0) |[]| (c!.0 + a.b.0) |[]| a!.(b.0 + c.0)"))
@example(P("(a!.b!.0 |[]| a!.0) |[a,b]| (a!.0 |[]| b!.a!.0)"))
def test_the_reverse_normal_form_is_the_least_trace_on_walked_products(p):
    assert _spine(normalize_r(theory_encoding(p, Theory.R))) == least_trace(p)


def test_untraced_reverse_proofs_encode_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("the reverse theory encoded a process")
    monkeypatch.setattr(encoding, "_encode", refuse)
    assert prove_eq(P("a!.0 |[]| b!.0"), P("b!.0 |[]| a!.0"), Theory.R)
    assert not prove_eq(P("a!.0"), P("b!.0"), Theory.R)
    assert prove_eq(P("a.b.0 |[]| c.0"), P("c.0 + d.0"), Theory.R)
    p = P("(a!.b!.0 |[]| a!.0) |[a,b]| (a!.0 |[]| b!.a!.0)")
    assert prove_eq(p, P("a!.b!.a!.0"), Theory.R)
    with pytest.raises(NotReachableError, match=r"^a!\.0 \|\[a\]\| 0 is not reachable$"):
        prove_eq(P("a.0"), P("a!.0 |[a]| 0"), Theory.R)


# --- the forward-reverse theory decides by canonical keys --------------------

def _fr_keys(p, table):
    """For each order ``p`` may be encoded under, the key of the encoding
    and the structural key of its canonical normal form, built."""
    out = []
    for order in axioms._orders(p, 512):
        u = encoding.encode_reachable(p, order)
        out.append((axioms._fr_key(u, {}, table),
                    structural_key(canonical(normalize_fr(u), Theory.FR))))
    return out


def _assert_keys_agree(pairs):
    """The keys equal the structural keys, are one object exactly when
    those are equal, and sort as those do."""
    for key, built in pairs:
        assert key == built
    for (k1, s1), (k2, s2) in zip(pairs, pairs[1:]):
        assert (k1 is k2) == (s1 == s2)
        assert (k1 < k2) == (s1 < s2) and (k2 < k1) == (s2 < s1)


def test_the_canonical_key_is_the_canonical_forms_key_at_size_4():
    table: dict = {}
    pairs = [pair for p in enumerate_processes(4, ("a", "b")) for pair in _fr_keys(p, table)]
    _assert_keys_agree(pairs)
    n = len(pairs)
    assert (sorted(range(n), key=lambda i: pairs[i][0])
            == sorted(range(n), key=lambda i: pairs[i][1]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_walked_products())
# executed actions in both operands of a |[]|, with tied histories
@example(P("(a!.b.0 + c.0) |[]| a!.(b.0 + c.0)"))
@example(P("(a!.b!.0 + c.0) |[]| (c!.0 + a.b.0) |[]| a!.(b.0 + c.0)"))
@example(P("(a!.b!.0 |[]| a!.0) |[a,b]| (a!.0 |[]| b!.a!.0)"))
@example(P("a!.0 |[]| b!.a!.a.0"))
def test_the_canonical_key_is_the_canonical_forms_key_on_walked_products(p):
    pairs = _fr_keys(p, {})
    _assert_keys_agree(pairs)
    # the tie choice keeps the first least form
    least = min(range(len(pairs)), key=lambda i: pairs[i][1])
    order = list(axioms._orders(p, 512))[least]
    assert render(theory_encoding(p, Theory.FR)) == render(encoding.encode_reachable(p, order))


def test_untraced_fr_proofs_canonicalize_nothing(monkeypatch):
    terms = list(enumerate_processes(3, ("a", "b")))[::7]
    pairs = list(zip(terms, terms[1:])) + [(p, p) for p in terms[::5]]
    expected = [prove_eq(p, q, Theory.FR) for p, q in pairs]
    five = " |[]| ".join(["(a.b.0 + c.0)"] * 5)

    def refuse(*args):
        raise AssertionError("an untraced forward-reverse proof built a normal form")
    monkeypatch.setattr(axioms, "_canon_fr", refuse)
    monkeypatch.setattr(axioms, "normalize_fr", refuse)
    monkeypatch.setattr(BrsPrefix, "__eq__", refuse)
    monkeypatch.setattr(Choice, "__eq__", refuse)
    assert [prove_eq(p, q, Theory.FR) for p, q in pairs] == expected
    assert prove_eq(P(five), P(five.replace("a.b.0 + c.0", "c.0 + a.b.0")), Theory.FR)
    assert not prove_eq(P(five), P(five.replace("c.0", "b.0")), Theory.FR)
