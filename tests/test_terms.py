"""Syntactic predicates, ready sets, and term measures."""

from __future__ import annotations

import pytest

from revexp import (
    Act,
    Dot,
    ParL,
    PlusL,
    Syn,
    act,
    brs,
    frs,
    is_initial,
    is_reachable,
    is_wellformed,
    parse,
    size,
    to_initial,
    upd,
)
from revexp.errors import ActUndefinedError
from revexp.generate import enumerate_processes
from revexp import semantics
from revexp.semantics import build_lts, forward_steps, undo_steps
from revexp.syntax import render


def P(src):
    return parse(src, allow_illformed=True)


# --- is_initial ------------------------------------------------------------

@pytest.mark.parametrize("src,expected", [
    ("0", True),
    ("a!.b.0", False),
    ("a.0 |[]| b.0", True),
])
def test_is_initial(src, expected):
    assert is_initial(P(src)) is expected


# --- is_wellformed ---------------------------------------------------------

@pytest.mark.parametrize("src,expected", [
    ("a!.b.0", True),
    ("b.a!.0", False),       # executed action after an unexecuted one
    ("a!.0 + b!.0", False),  # executed actions on both sides of a choice
    ("a!.b.0 + c.d.0", True),
])
def test_is_wellformed(src, expected):
    assert is_wellformed(P(src)) is expected


def test_initial_implies_wellformed():
    for p in enumerate_processes(3, ("a", "b")):
        if is_initial(p):
            assert is_wellformed(p)


# --- is_reachable ----------------------------------------------------------

def test_unmatched_synchronization_is_unreachable():
    assert not is_reachable(P("a!.0 |[a]| 0"))


def test_initial_wellformed_processes_are_reachable():
    assert is_reachable(P("a.0 |[a]| 0"))
    assert is_reachable(P("a.b.0 + c.0"))


def test_reachability_by_replay():
    assert is_reachable(P("a!.0 |[]| b!.0"))


def test_reachability_walks_back_instead_of_searching_forward(monkeypatch):
    # two steps into a product of nine components, whose closure has 4 ** 9
    # states: walking back makes a few dozen nodes and steps, a forward search
    # from the initial version millions of nodes
    p = P(" |[]| ".join(["(a.b.0 + c.0)"] * 9))
    for _ in range(2):
        p = forward_steps(p)[0][1]
    assert render(p).startswith("a!.b!.0 + c.0 |[]| a.b.0 + c.0")
    _bound_steps(monkeypatch, 200)
    _bound_nodes(monkeypatch, 200)
    assert is_reachable(p)


def test_an_unreachable_interleaving_is_refused_without_its_whole_cone(monkeypatch):
    # the synchronized part of each component has nothing to undo, so no
    # run reaches it; the product's undo cone still has 3 ** 9 states, and
    # a search over it makes tens of thousands of nodes, though it steps
    # only a dozen leaf terms
    part = "((a!.0 + b.0) |[a,b]| (a.0 + b!.0)) |[]| (a!.b!.0 + c.0)"
    p = P(" |[]| ".join([f"({part})"] * 9))
    assert p.wellformed
    _bound_steps(monkeypatch, 200)
    _bound_nodes(monkeypatch, 200)
    assert not is_reachable(p)


def test_an_unreachable_interleaving_under_a_prefix_or_a_choice_is_refused_alone(monkeypatch):
    # an executed prefix is reachable exactly when its continuation is, and a
    # fired choice when its non-initial side is; searched whole, the undo
    # cone of z!.(...) at eight components takes 32,811 calls
    part = "((a!.0 + b.0) |[a,b]| (a.0 + b!.0)) |[]| (a!.b!.0 + c.0)"
    inner = " |[]| ".join([f"({part})"] * 8)
    calls = _bound_steps(monkeypatch, 200)
    for src in (f"z!.({inner})", f"c.0 + z!.({inner})", f"z!.y!.({inner}) + c.0"):
        p = P(src)
        assert p.wellformed
        calls.clear()
        assert not is_reachable(p)
        assert len(calls) == 4, src  # two leaves of two terms each
    assert is_reachable(P("z!.c!.(a!.0 |[a]| a!.0) + d.0"))


def _bound_steps(monkeypatch, limit):
    """Make ``semantics._steps`` fail once called more than ``limit`` times;
    returns the list that records its calls."""
    calls = []
    steps = semantics._steps

    def bounded(*args):
        calls.append(None)
        if len(calls) > limit:
            raise AssertionError(f"is_reachable stepped more than {limit} terms")
        return steps(*args)

    monkeypatch.setattr(semantics, "_steps", bounded)
    return calls


def _bound_nodes(monkeypatch, limit):
    """Make ``semantics._Nodes`` fail once it has made more than ``limit``
    nodes, one for each state its search meets; returns the list that
    records them."""
    made = []
    add = semantics._Nodes._add

    def bounded(self, *args):
        made.append(None)
        if len(made) > limit:
            raise AssertionError(f"is_reachable made more than {limit} nodes")
        return add(self, *args)

    monkeypatch.setattr(semantics._Nodes, "_add", bounded)
    return made


def test_reachability_backtracks_past_an_undo_step_no_run_takes():
    # synchronization carries no keys: the first undo step pairs the two
    # plain a!.0, which no run fires together, and lands on a well-formed
    # state that no run reaches and that has nothing to undo
    p = P("(a!.b!.0 |[]| a!.0) |[a,b]| (a!.0 |[]| b!.a!.0)")
    (_, dead), *_ = undo_steps(p)
    assert render(dead) == "a!.b!.0 |[]| a.0 |[a,b]| (a.0 |[]| b!.a!.0)"
    assert dead.wellformed and undo_steps(dead) == []
    assert build_lts(to_initial(dead)).index.get(dead) is None
    assert not is_reachable(dead)
    assert build_lts(to_initial(p)).index.get(p) is not None
    assert is_reachable(p)

# --- frs / brs -------------------------------------------------------------

@pytest.mark.parametrize("src,expected", [
    ("a.0 + b.0", {"a", "b"}),
    ("a.0 |[a]| 0", set()),
    ("a!.b.0", {"b"}),
])
def test_frs(src, expected):
    assert frs(P(src)) == frozenset(expected)


@pytest.mark.parametrize("src,expected", [
    ("a!.0 |[]| b!.0", {"a", "b"}),
    ("a!.b.0 + b.a.0", {"a"}),
    ("a.b.0 + b.a.0", set()),
    ("a!.b!.0", {"b"}),
    ("a!.0", {"a"}),
    ("b!.0 |[]| a!.0", {"a", "b"}),
    ("a!.0 |[]| a!.0", {"a"}),
])
def test_brs(src, expected):
    assert brs(P(src)) == frozenset(expected)


def test_ready_sets_agree_with_the_semantics():
    # frs and brs coincide with the outgoing and incoming labels of every
    # state of the built systems
    for root in (P("a.b.0 + b.a.0"), P("a.0 |[a]| (a.0 + b.0)"), P("c.0 |[c]| c.0")):
        lts = build_lts(root)
        for sid in range(lts.num_states):
            term = lts.terms[sid]
            out_acts = {act(lts.transitions[i].proof) for i in lts.outgoing[sid]}
            in_acts = {act(lts.transitions[i].proof) for i in lts.incoming_ids[sid]}
            assert frs(term) == frozenset(out_acts)
            assert brs(term) == frozenset(in_acts)


def test_brs_empty_iff_initial_on_reachable_terms():
    for p in enumerate_processes(3, ("a", "b")):
        assert (brs(p) == frozenset()) == is_initial(p)


# --- to_initial ------------------------------------------------------------

def test_to_initial():
    assert to_initial(P("a!.b.0")) == P("a.b.0")
    assert to_initial(P("a!.0 |[]| b!.0")) == P("a.0 |[]| b.0")
    p = P("a.b.0 + c.0")
    assert to_initial(p) == p


def test_to_initial_idempotent():
    for p in enumerate_processes(2, ("a", "b")):
        q = to_initial(p)
        assert is_initial(q)
        assert to_initial(q) == q


# --- act / upd -------------------------------------------------------------

def test_act():
    assert act(ParL(PlusL(Act("a")))) == "a"
    assert act(Syn(Dot(Act("c")), Act("c"))) == "c"
    with pytest.raises(ActUndefinedError):
        act(Syn(Act("a"), Act("b")))


def test_upd():
    assert upd(P("a.0"), Act("a")) == P("a!.0")
    assert upd(P("a.0"), Act("b")) == P("a.0")
    assert upd(P("a.0 |[]| b.0"), ParL(Act("a"))) == P("a!.0 |[]| b.0")
    # a synchronization updates both sides
    assert upd(P("c.0 |[c]| c.0"), Syn(Act("c"), Act("c"))) == P("c!.0 |[c]| c!.0")


# --- size ------------------------------------------------------------------

@pytest.mark.parametrize("src,expected", [
    ("0", 0),
    ("a.b.0 + c.0", 2),
    ("a.0 |[]| b.0", 2),
])
def test_size(src, expected):
    assert size(P(src)) == expected


def test_size_bounds_trace_length():
    for p in enumerate_processes(3, ("a", "b")):
        if not is_initial(p):
            continue
        lts = build_lts(p)
        # longest forward path: the transition relation is acyclic because
        # every step adds an executed flag
        depth = [0] * lts.num_states
        order = sorted(range(lts.num_states),
                       key=lambda s: render(lts.terms[s]).count("!"))
        for sid in order:
            for i in lts.outgoing[sid]:
                t = lts.transitions[i]
                depth[t.target] = max(depth[t.target], depth[t.source] + 1)
        assert max(depth) <= size(p)
