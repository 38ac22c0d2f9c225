"""Ready-set encoding, parallel expansion, orders, and correspondence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from revexp import (
    Act,
    HistoryOrder,
    ParL,
    ParR,
    Variant,
    check,
    check_brs,
    encode,
    parse,
    render,
    render_proof,
    verify_correspondence,
)
from revexp import axioms, encoding
from revexp.axioms import Theory, canonical, normalize_fr, structural_key, theory_encoding
from revexp.encoding import (
    _order_blind,
    brs_preserved_shape,
    canonical_history,
    encode_reachable,
    last_executed,
    minimal_trace_histories,
)
from revexp.errors import NotReachableError, OrderUndefinedError
from revexp.generate import enumerate_processes
from revexp.semantics import forward_steps
from revexp.terms import (
    BrsPrefix, Choice, NIL, Par, Prefix, act, brs, is_initial, to_initial, upd,
)
from test_byte_identity import _products
from test_semantics import _initial_processes, _names

P = parse


# --- encode ------------------------------------------------------------------

GOLDEN = [
    ("a.b.0 + b.a.0", "<a,{a}>.<b,{b}>.0 + <b,{b}>.<a,{a}>.0"),
    ("a!.b!.0", "<a!,{a}>.<b!,{b}>.0"),
    ("a.0 |[]| b.0", "<a,{a}>.<b,{a,b}>.0 + <b,{b}>.<a,{b,a}>.0"),
    ("a!.0 |[]| b.0", "<a!,{a}>.<b,{a,b}>.0 + <b,{b}>.<a,{b,a}>.0"),
    ("a!.0 |[]| b!.0", "<a!,{a}>.<b!,{a,b}>.0 + <b,{b}>.<a,{b,a}>.0"),
    ("a!.c!.0 |[c]| c!.b.0", "<a!,{a}>.<c!,{c}>.<b,{b}>.0"),
    (
        "(a.0 + c.0) |[]| (b.0 + d.0)",
        "<a,{a}>.(<b,{a,b}>.0 + <d,{a,d}>.0) + <c,{c}>.(<b,{c,b}>.0 + <d,{c,d}>.0)"
        " + <b,{b}>.(<a,{b,a}>.0 + <c,{b,c}>.0) + <d,{d}>.(<a,{d,a}>.0 + <c,{d,c}>.0)",
    ),
    (
        "(a.0 + c.0) |[]| (b!.0 + d.0)",
        "<b!,{b}>.(<a,{b,a}>.0 + <c,{b,c}>.0) + <d,{d}>.(<a,{d,a}>.0 + <c,{d,c}>.0)"
        " + <a,{a}>.(<b,{a,b}>.0 + <d,{a,d}>.0) + <c,{c}>.(<b,{c,b}>.0 + <d,{c,d}>.0)",
    ),
    (
        "(a.0 |[]| b.0) |[]| c.0",
        "<a,{a}>.(<b,{a,b}>.<c,{a,b,c}>.0 + <c,{a,c}>.<b,{a,c,b}>.0)"
        " + <b,{b}>.(<a,{b,a}>.<c,{b,a,c}>.0 + <c,{b,c}>.<a,{b,c,a}>.0)"
        " + <c,{c}>.(<a,{c,a}>.<b,{c,a,b}>.0 + <b,{c,b}>.<a,{c,b,a}>.0)",
    ),
    (
        "(a.0 |[]| c.0) + (b.0 |[]| d.0)",
        "<a,{a}>.<c,{a,c}>.0 + <c,{c}>.<a,{c,a}>.0"
        " + (<b,{b}>.<d,{b,d}>.0 + <d,{d}>.<b,{d,b}>.0)",
    ),
]


@pytest.mark.parametrize("src,expected", GOLDEN)
def test_encoding_goldens(src, expected):
    assert render(encode(P(src))) == expected


def test_encode_requires_reachability():
    with pytest.raises(NotReachableError):
        encode(P("a!.0 |[a]| 0"))


def test_encode_prefix_compositionality():
    from revexp.terms import Prefix
    # an unexecuted prefix turns into the same prefix carrying its own action
    for p in list(enumerate_processes(3, ("a", "b")))[:400]:
        if not is_initial(p):
            continue
        u = encode(p)
        prefixed = encode(Prefix("e", False, p))
        assert prefixed == BrsPrefix("e", False, frozenset("e"), u)


def test_encode_executed_prefix_compositionality():
    from revexp.terms import Prefix
    # the ready set of an executed prefix reflects the state right after it
    # fired, with the deeper flags not yet set (as in the worked examples:
    # the first prefix of the encoding of a!.b!.0 carries {a}, not {b})
    for src in ("a.0", "b!.c.0", "a.0 |[]| b.0"):
        p = P(src)
        u = encode(Prefix("e", True, p))
        assert isinstance(u, BrsPrefix) and u.executed and u.action == "e"
        assert u.ready == frozenset("e")
        assert u.cont == encode(p)


def test_encode_choice_compositionality():
    for left, right in [("a.b.0", "c.0"), ("a!.b.0", "c.0"), ("a.0 |[]| b.0", "c.c.0")]:
        l, r = P(left), P(right)
        combined = encode(Choice(l, r))
        assert combined == Choice(encode(l), encode(r))


def test_encode_preserves_initiality():
    for p in list(enumerate_processes(3, ("a", "b")))[:600]:
        assert is_initial(encode(p)) == is_initial(p)


def test_brs_preservation_and_its_documented_failure():
    for p in list(enumerate_processes(3, ("a", "b")))[:600]:
        if brs_preserved_shape(p):
            assert brs(encode(p)) == brs(p), render(p)
    # the documented counterexample under the a-first serialization
    p = P("a!.0 |[]| b!.0")
    assert not brs_preserved_shape(p)
    assert brs(p) == frozenset({"a", "b"})
    assert brs(encode(p)) == frozenset({"b"})


def test_last_executed():
    assert last_executed(encode(P("a!.b!.0"))) == "b"
    assert last_executed(encode(P("a!.b.0 + c.0"))) == "a"
    assert last_executed(encode(P("a.0"))) is None


# --- the expansion of a parallel composition ---------------------------------

def test_expand_parallel_nil():
    assert encode(P("0 |[]| 0")) == NIL


def test_expand_parallel_under_a_prefix():
    u = encode(P("c!.(a.0 |[]| b.0)")).cont
    assert render(u) == "<a,{a}>.<b,{a,b}>.0 + <b,{b}>.<a,{b,a}>.0"


@pytest.mark.parametrize("src,message", [
    ("a!.0 |[a]| a.0", "executed synchronizing action without a synchronized partner"),
    ("a.0 |[a]| a!.0", "executed synchronizing action without a synchronized partner"),
    ("a!.0 |[a,b]| b!.0", "both operands executed different synchronizing actions"),
])
def test_expand_refuses_an_unreachable_pair_of_heads(src, message):
    # encode_reachable skips the reachability check, so the expansion
    # itself meets the unreachable heads
    with pytest.raises(NotReachableError) as refused:
        encode_reachable(P(src))
    assert str(refused.value) == message


def test_expand_keeps_the_sides_of_one_shared_operand_encoding():
    # an initial product keeps its encoding on the node, so both operands
    # are one encoding; the moves of each side still carry that side's proof
    p = P("(a.0 |[]| b.0) |[]| (a.0 |[]| b.0)")
    assert encode_reachable(p.left) is encode_reachable(p.right)
    proofs = [render_proof(s.proof) for s in encoding._summands(encode(p))]
    assert proofs == ["|l |l a", "|l |r b", "|r |l a", "|r |r b"]


# --- operand states ------------------------------------------------------------
#
# The encoder reads each emitted prefix's environment off its operands'
# states instead of marking the root environment.  Re-derive every prefix's
# environment the way that marking does, by ``upd`` along the path from
# ``to_initial(p)``, and compare.

def _assert_states_are_marked_environments(p, u) -> int:
    """Check every path of the encoding ``u`` of ``p``; returns the number
    of (prefix, environment) pairs checked."""
    seen: dict = {}
    stack = [(u, to_initial(p))]
    while stack:
        v, env = stack.pop()
        if (id(v), id(env)) in seen:
            continue
        seen[id(v), id(env)] = (v, env)
        if isinstance(v, Choice):
            stack += [(v.left, env), (v.right, env)]
        elif isinstance(v, BrsPrefix):
            env = upd(env, v.proof)
            assert v.state is env
            assert v.ready == env.backward_ready
            stack.append((v.cont, env))
    return sum(isinstance(v, BrsPrefix) for v, _ in seen.values())


def test_operand_states_on_the_size_3_family():
    for p in enumerate_processes(3, ("a", "b")):
        for order in (None, HistoryOrder(canonical_history(p))):
            _assert_states_are_marked_environments(p, encode(p, order))


def test_operand_states_on_the_k3_products():
    products = _products()
    assert len(products) == 54
    for p in products:
        assert _assert_states_are_marked_environments(p, encode(p)) > 0


def _nested_products():
    """A parallel composition under a prefix or a choice (a non-empty
    operator path), at the top or inside a parallel operand."""
    par = st.builds(lambda sync, l, r: Par(tuple(sync), l, r),
                    st.lists(st.sampled_from(["a", "b"]), max_size=1),
                    _initial_processes(), _initial_processes())
    nested = st.one_of(st.builds(Prefix, _names, st.just(False), par),
                       st.builds(Choice, par, _initial_processes()),
                       st.builds(Choice, _initial_processes(), par))
    return nested | st.builds(Par, st.just(()), nested, _initial_processes())


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_nested_products(), st.lists(st.integers(0, 10**6), max_size=4))
def test_operand_states_on_random_nested_products(p, picks):
    for pick in picks:
        steps = forward_steps(p)
        if not steps:
            break
        p = steps[pick % len(steps)][1]
    for order in (None, HistoryOrder(canonical_history(p))):
        _assert_states_are_marked_environments(p, encode(p, order))


# --- order-blind processes -----------------------------------------------------
#
# When no parallel composition has executed actions in both operands, the
# encoding reads no order, and the deciders encode once without a history
# instead of searching histories.  Check both claims against a history that
# fails when read and against the history path the deciders skip.

class _Unreadable(HistoryOrder):
    def __init__(self):
        super().__init__(())

    def leq(self, t1, t2):
        raise AssertionError("the order was read")

    def project(self, prefix):
        return self


def _history_path(p):
    """R and FR theory encodings of ``p`` made the way the deciders make
    them for a process whose encoding reads the order."""
    r = encode_reachable(p, HistoryOrder(canonical_history(p)))
    best = None
    for hist in minimal_trace_histories(p):
        u = encode_reachable(p, HistoryOrder(hist))
        key = structural_key(canonical(normalize_fr(u), Theory.FR))
        if best is None or key < best[0]:
            best = (key, u)
    return r, best[1]


def _assert_order_blind_shortcut(p) -> bool:
    """Check the claims above if ``p`` is order-blind, and return whether
    it is.  A ``p`` that is not must read the order, unless a
    synchronization decides the serialization first."""
    if not _order_blind(p):
        try:
            encode_reachable(p, _Unreadable())
        except AssertionError:
            return False
        assert any(par.sync for par in _pars(p))
        return False
    encode_reachable(p, _Unreadable())
    for theory, expected in zip((Theory.R, Theory.FR), _history_path(p)):
        got = theory_encoding(p, theory)
        assert render(got) == render(expected)
        assert structural_key(got) == structural_key(expected)
    return True


def _pars(p):
    if isinstance(p, Par):
        return [p] + _pars(p.left) + _pars(p.right)
    if isinstance(p, Prefix):
        return _pars(p.cont)
    if isinstance(p, Choice):
        return _pars(p.left) + _pars(p.right)
    return []


def test_order_blind_shortcut_on_the_size_3_family():
    family = list(enumerate_processes(3, ("a", "b")))
    blind = sum(_assert_order_blind_shortcut(p) for p in family)
    assert 0 < blind < len(family)


def test_order_blind_shortcut_on_the_k3_products():
    products = _products()
    # each walked product has executed actions in two of its three operands
    assert [_assert_order_blind_shortcut(p) for p in products] == [True, False] * 27
    for p in products:
        for _, q in forward_steps(p):
            _assert_order_blind_shortcut(q)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_nested_products(), st.lists(st.integers(0, 10**6), max_size=4))
def test_order_blind_shortcut_on_random_nested_products(p, picks):
    for pick in picks:
        steps = forward_steps(p)
        if not steps:
            break
        p = steps[pick % len(steps)][1]
    _assert_order_blind_shortcut(p)


# --- serialization orders ------------------------------------------------------

def test_history_order():
    hist = (ParR(ParR(Act("b"))), ParR(ParL(Act("a"))))
    order = HistoryOrder(hist)
    assert order.leq(hist[0], hist[1])
    assert not order.leq(hist[1], hist[0])
    with pytest.raises(OrderUndefinedError):
        order.leq(Act("c"), hist[0])
    projected = order.project((ParR,))
    assert projected.leq(ParR(Act("b")), ParL(Act("a")))
    assert not projected.leq(ParL(Act("a")), ParR(Act("b")))


def test_history_order_resolves_synchronization_components():
    from revexp.terms import Syn
    hist = (Syn(Act("a"), ParL(Act("a"))),)
    order = HistoryOrder(hist)
    assert order.leq(ParL(Act("a")), Syn(Act("a"), ParL(Act("a"))))


def test_canonical_history_is_a_valid_history():
    for p in list(enumerate_processes(3, ("a", "b")))[:300]:
        hist = canonical_history(p)
        state = to_initial(p)
        from revexp.terms import upd
        for theta in hist:
            state = upd(state, theta)
        assert state == p


def test_minimal_trace_histories_share_observations():
    p = P("a!.b.0 |[]| a!.0")
    hists = minimal_trace_histories(p)
    assert len(hists) == 2  # the two independent executed actions tie
    assert canonical_history(p) in hists


# --- correspondence ------------------------------------------------------------

@pytest.mark.parametrize("src,edges", [
    ("a.0", 1),
    ("a.0 |[]| b.0", 4),
    ("c.0 |[c]| c.0", 1),
])
def test_verify_correspondence_examples(src, edges):
    report = verify_correspondence(P(src))
    assert report.ok
    assert report.edges_checked == edges


def test_verify_correspondence_mixed_cases():
    for src in ("a.0 |[a]| (a.0 |[]| b.0)", "(a.0 + c.0) |[c]| (b.0 + c.0)",
                "a.(b.0 |[b]| b.c.0)", "a.0 |[]| b.a.a.0"):
        assert verify_correspondence(P(src)).ok


def test_verify_correspondence_sees_a_target_swapped_under_its_label(monkeypatch):
    # a.a.0 is the first seed of the size-3 {a,b} family whose walk fires one
    # label, a / {a}, from two states; hand the second firing the first one's
    # target, so only the targets' keys differ
    steps = encoding.brs_forward_steps
    firsts: dict = {}
    swaps = []

    def swapped(u):
        out = []
        for (theta, ready), target in steps(u):
            first = firsts.setdefault((act(theta), frozenset(ready)), target)
            if first is not target:
                swaps.append(target)
            out.append(((theta, ready), first))
        return out

    p = P("a.a.0")
    assert verify_correspondence(p).ok
    monkeypatch.setattr(encoding, "brs_forward_steps", swapped)
    assert [v.detail for v in verify_correspondence(p).violations] == [
        "unmatched proved transition: a / {a}",
        "unmatched encoded transition: a / {a}",
    ]
    assert len(swaps) == 1
    # a key that identifies every target would miss the swap
    monkeypatch.setattr(axioms, "_fr_key", lambda u, memo, table: ())
    firsts.clear()
    assert verify_correspondence(p).ok


def test_verify_correspondence_requires_initial():
    with pytest.raises(NotReachableError):
        verify_correspondence(P("a!.0"))


def test_corollary_on_encodings_sample():
    # equivalence of originals versus equivalence of their encodings
    terms = [p for p in enumerate_processes(2, ("a", "b"))]
    from revexp.axioms import Theory, theory_encoding
    for i in range(0, len(terms), 7):
        for j in range(0, len(terms), 11):
            p1, p2 = terms[i], terms[j]
            got = check_brs(
                theory_encoding(p1, Theory.FR), theory_encoding(p2, Theory.FR),
                Variant.FRB,
            ).equivalent
            assert got == check(p1, p2, Variant.FRB).equivalent
