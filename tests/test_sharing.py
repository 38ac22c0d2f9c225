"""Hash-consed terms, the shared encoding DAG, and the lifetime of caches."""

from __future__ import annotations

import gc
import hashlib
import sys
import weakref

import pytest

import revexp
from revexp import (
    NIL,
    Choice,
    Par,
    Prefix,
    Theory,
    Variant,
    brs,
    build_lts,
    build_union,
    check,
    encode,
    is_initial,
    parse,
    prove_eq,
    render,
    to_initial,
    upd,
)
from revexp.axioms import theory_encoding
from revexp.encoding import _summands
from revexp.errors import NotReachableError
from revexp.syntax import render_proof
from revexp.terms import BrsPrefix, ParL
from test_encoding import _assert_states_are_marked_environments

REFERENCE_K4 = " |[]| ".join(["(a.b.0 + c.0)"] * 4)


def test_equal_plain_terms_are_one_node():
    assert Prefix("a", False, NIL) is Prefix("a", False, NIL)
    assert parse("a!.b.0 |[c]| (c.0 + d.0)") is parse("a!.b.0 |[c]| (c.0 + d.0)")
    assert Par(("b", "a", "b"), NIL, NIL) is Par(("a", "b"), NIL, NIL)
    p = parse("a.0 |[]| b.0")
    stepped = upd(p, ParL(revexp.Act("a")))
    assert stepped is parse("a!.0 |[]| b.0")
    assert to_initial(stepped) is p


def test_ready_set_terms_compare_structurally():
    u1 = BrsPrefix("a", True, frozenset("ab"), NIL, proof=revexp.Act("a"))
    u2 = BrsPrefix("a", True, frozenset("ab"), NIL, proof=ParL(revexp.Act("a")))
    assert u1 is not u2 and u1 == u2 and hash(u1) == hash(u2)
    assert Choice(u1, NIL) == Choice(u2, NIL)
    assert u1 != BrsPrefix("a", True, frozenset("a"), NIL)


def test_cached_attributes_on_a_deep_chain():
    chain = NIL
    for _ in range(5000):
        chain = Prefix("a", True, chain)
    assert not is_initial(chain)
    assert brs(chain) == frozenset("a")
    assert isinstance(hash(chain), int)
    composed = Par((), chain, Choice(Prefix("b", False, NIL), NIL))
    assert not is_initial(composed)
    assert brs(composed) == frozenset("a")


def _tree_and_distinct(u) -> tuple[int, int]:
    """Nodes of ``u`` unfolded into a tree, and its distinct subterms (ready
    sets as sets), counted over the DAG."""
    table: dict = {}
    return _tree_size_and_class(u, {}, table)[0], len(table)


def _tree_size_and_class(v, sizes: dict, table: dict) -> tuple[int, int]:
    # a module-level walk: a nested recursive one would hold ``sizes``, and
    # with it the encoding and its cached operand encodings, in a reference
    # cycle until the next collection
    got = sizes.get(id(v))
    if got is not None:
        return got[:2]
    if isinstance(v, BrsPrefix):
        size, child = _tree_size_and_class(v.cont, sizes, table)
        key = ("p", v.action, v.executed, v.ready, child)
        size += 1
    elif isinstance(v, Choice):
        left, lid = _tree_size_and_class(v.left, sizes, table)
        right, rid = _tree_size_and_class(v.right, sizes, table)
        key, size = ("+", lid, rid), 1 + left + right
    else:
        key, size = ("0",), 1
    got = sizes[id(v)] = (size, table.setdefault(key, len(table)), v)
    return got[:2]


def _objects(u) -> set:
    """The ids of the distinct objects of ``u``."""
    nodes = set()
    stack = [u]
    while stack:
        v = stack.pop()
        if id(v) not in nodes:
            nodes.add(id(v))
            stack.extend(getattr(v, name) for name in ("cont", "left", "right")
                         if hasattr(v, name))
    return nodes


def test_the_encoding_is_a_shared_dag_of_the_same_tree():
    u = encode(parse(REFERENCE_K4))
    assert _tree_and_distinct(u) == (28967, 248)
    assert len(_objects(u)) < 28967 // 5


def test_branches_that_differ_only_in_marking_order_share_one_expansion():
    assert len(_objects(encode(parse(REFERENCE_K4)))) == 1297


def test_an_expansion_steps_operand_states_without_marking_the_root(monkeypatch):
    # upd marks one environment per source prefix; the expansion of the
    # products reuses the states its operand encodings recorded.  An
    # initial product keeps its encoding, so the count holds only when no
    # product in the term is encoded yet: the term is built by no other
    # test, and after a collection none of its products may keep one
    p = parse(" |[]| ".join(["(d.e.0 + f.0)"] * 4))
    gc.collect()
    products, stack = [], [p]
    while stack:
        q = stack.pop()
        if isinstance(q, Par):
            products.append(q)
            stack += [q.left, q.right]
    assert len(products) == 3
    assert [q for q in products if q._enc is not None] == []
    calls = _counted_upd(monkeypatch)
    encode(p)
    assert len(calls) == 12


# --- encodings and reachability answers kept on their nodes --------------------

def _counted_upd(monkeypatch) -> list:
    calls = []

    def counted(env, t):
        calls.append(t)
        return upd(env, t)

    monkeypatch.setattr(revexp.encoding, "upd", counted)
    return calls


def test_an_initial_product_is_encoded_once(monkeypatch):
    p = parse("(a.b.0 + c.0) |[]| (c.0 + b.0) |[c]| c.a.0")
    u = encode(p)
    calls = _counted_upd(monkeypatch)
    assert encode(p) is u
    assert theory_encoding(p, Theory.R) is u
    assert theory_encoding(p, Theory.FR) is u
    assert calls == []


def test_only_initial_products_keep_their_encoding():
    p = parse("(a.0 |[]| b.0) |[]| c!.0")
    results = [encode(p)] + [theory_encoding(p, theory) for theory in (Theory.R, Theory.FR)]
    assert all(u == results[0] for u in results)
    assert p._enc is None
    assert p.left._enc is not None  # an initial operand product is kept
    for state in (u.state for u in _summands(results[0])):
        assert state._enc is None


def test_an_initial_products_encoding_forms_no_cycle():
    # with the cycle collector off, only reference counting can free the
    # product, so its cached encoding must not refer back to it
    gc.disable()
    try:
        p = parse("(u.v.0 |[]| w.0) |[]| (u.v.0 |[]| w.0)")
        u = encode(p)
        assert p._enc is u and p.left._enc is not None
        ref = weakref.ref(p)
        del p, u
        assert ref() is None
    finally:
        gc.enable()


def _encoding_text(u) -> str:
    """``render(u)``, then every prefix's proof and state, in a fixed walk
    of the unfolded tree."""
    lines = [render(u)]
    stack = [u]
    while stack:
        v = stack.pop()
        if isinstance(v, Choice):
            stack += [v.right, v.left]
        elif isinstance(v, BrsPrefix):
            lines.append(f"{render_proof(v.proof)} {render(v.state)}")
            stack.append(v.cont)
    return "\n".join(lines)


def test_identical_operands_share_one_encoding_and_keep_their_sides():
    # both operands are one node, so the expansion reads one operand
    # encoding on both sides; a move on the right must still get a right proof
    p = parse("(a.0 |[]| b.0) |[]| (a.0 |[]| b.0)")
    u = encode(p)
    assert p.left is p.right
    text = _encoding_text(u)
    assert text.count("\n") == 64
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ae679438046e2d617dd810c34a7550f456520d32b7adc678ba9f8fc7c5fdcca2")
    assert _assert_states_are_marked_environments(p, u) > 0


def test_a_shared_suffix_displays_its_ready_set_by_its_path():
    u = encode(parse("a.0 |[]| b.0 |[]| c.0"))
    ab, ba = u.left.left.cont.left, u.left.right.cont.left
    assert (ab.action, ab.cont.action, ba.action, ba.cont.action) == ("b", "c", "a", "c")
    assert ab.cont is ba.cont
    assert render(u) == (
        "<a,{a}>.(<b,{a,b}>.<c,{a,b,c}>.0 + <c,{a,c}>.<b,{a,c,b}>.0)"
        " + <b,{b}>.(<a,{b,a}>.<c,{b,a,c}>.0 + <c,{b,c}>.<a,{b,c,a}>.0)"
        " + <c,{c}>.(<a,{c,a}>.<b,{c,a,b}>.0 + <b,{c,b}>.<a,{c,b,a}>.0)"
    )
    # on its own, the suffix reads its ready set alphabetically
    assert render(ab.cont) == "<c,{a,b,c}>.0"


def _module_cache_sizes() -> dict:
    """Entries of every container and function cache bound at module level
    in the package."""
    sizes = {}
    for name, module in list(sys.modules.items()):
        if name != "revexp" and not name.startswith("revexp."):
            continue
        for attr, value in vars(module).items():
            if attr.startswith("__"):
                continue
            if isinstance(value, (dict, set, list)):
                sizes[f"{name}.{attr}"] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[f"{name}.{attr}"] = value.cache_info().currsize
    return sizes


def test_no_module_level_cache_outlives_a_query():
    # the reference, and a renaming of it that no other test builds, so that
    # a cache filled by an earlier test cannot hide its growth here
    pairs = [(REFERENCE_K4, " |[]| ".join(["(c.0 + a.b.0)"] * 4)),
             (REFERENCE_K4.replace("a", "x").replace("b", "y").replace("c", "z"),
              " |[]| ".join(["(z.0 + x.y.0)"] * 4))]
    gc.collect()
    before = _module_cache_sizes()
    for p_text, q_text in pairs:
        p, q = parse(p_text), parse(q_text)
        results = [encode(p)] + [prove_eq(p, q, theory) for theory in Theory]
        assert results[1:] == [True, True, True]
        systems = [build_lts(p), build_union([[p], [q]])]
        assert [lts.num_states for lts in systems] == [256, 512]
    del p, q, results, systems
    gc.collect()
    after = _module_cache_sizes()
    grown = {name: (before.get(name, 0), size) for name, size in after.items()
             if size > before.get(name, 0)}
    assert grown == {}


@pytest.mark.parametrize("text", ["a!.0 |[a]| 0", "a!.0 + b!.0",
                                  "(a!.0 + b.0) |[a,b]| (a.0 + b!.0)"])
def test_unreachable_input_is_refused_everywhere(text):
    p = parse(text, allow_illformed=True)
    fine = parse("a.0")
    for variant in Variant:
        with pytest.raises(NotReachableError):
            check(p, fine, variant)
        with pytest.raises(NotReachableError):
            check(fine, p, variant)
    with pytest.raises(NotReachableError):
        encode(p)
    for theory in (Theory.R, Theory.FR):
        with pytest.raises(NotReachableError):
            theory_encoding(p, theory)
    for theory in Theory:
        with pytest.raises(NotReachableError):
            prove_eq(p, fine, theory)
        with pytest.raises(NotReachableError):
            prove_eq(fine, p, theory)
