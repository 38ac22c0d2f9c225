"""Proved transition rules, system construction, and export."""

from __future__ import annotations

import json
import re
from collections import Counter

import pytest

from revexp import (
    Act,
    BrsPrefix,
    BrsTransition,
    NIL,
    Dot,
    ParL,
    ParR,
    PlusL,
    PlusR,
    Syn,
    Transition,
    brs_forward_steps,
    build_brs_lts,
    build_lts,
    encode,
    export,
    forward_steps,
    incoming,
    parse,
    render,
)
from revexp import semantics
from revexp.bisim import Variant
from revexp.errors import StateBudgetError, UnknownStateError
from revexp.generate import seed_terms
from revexp.selfcheck import brs_class_ids
from revexp.semantics import build_union, undo_steps
from revexp.syntax import render_proof
from revexp.terms import Choice, Par, act, to_initial


def test_forward_steps_duplicate_choice():
    steps = forward_steps(parse("a.0 + a.0"))
    assert [(render_proof(t), render(q)) for t, q in steps] == [
        ("+l a", "a!.0 + a.0"),
        ("+r a", "a.0 + a!.0"),
    ]


def test_forward_steps_blocked_synchronization():
    assert forward_steps(parse("a.0 |[a]| 0")) == []


def test_forward_steps_synchronization():
    steps = forward_steps(parse("c.0 |[c]| c.0"))
    assert len(steps) == 1
    theta, target = steps[0]
    assert theta == Syn(Act("c"), Act("c"))
    assert render(target) == "c!.0 |[c]| c!.0"


def test_forward_steps_propagate_under_executed_prefix():
    steps = forward_steps(parse("a!.b.0"))
    assert [(render_proof(t), render(q)) for t, q in steps] == [(".b", "a!.b!.0")]


def test_non_selected_choice_side_cannot_move():
    # only the side selected in the past keeps moving
    steps = forward_steps(parse("a!.b.0 + c.d.0"))
    assert [render_proof(t) for t, _ in steps] == ["+l .b"]


def test_brs_forward_steps():
    u = encode(parse("a.b.0"))
    (label, ready), target = brs_forward_steps(u)[0]
    assert label == Act("a") and ready == ("a",)
    ((label2, ready2), _t2), = brs_forward_steps(target)
    assert label2 == Dot(Act("b")) and ready2 == ("b",)
    assert brs_forward_steps(NIL) == []


def test_brs_step_labels_show_the_ready_set_as_render_does():
    u = BrsPrefix("b", True, frozenset("b"), BrsPrefix("a", False, frozenset("ab"), NIL))
    assert render(u) == "<b!,{b}>.<a,{b,a}>.0"
    ((label, ready), _), = brs_forward_steps(u)
    assert label == Dot(Act("a"))
    assert ready == ("b", "a")
    # on an encoding: after b fires, a fires under it with {b,a}
    u = encode(parse("a.0 |[]| b.0"))
    (_, fired), = [s for s in brs_forward_steps(u) if s[0][1] == ("b",)]
    assert render(fired) == "<a,{a}>.<b,{a,b}>.0 + <b!,{b}>.<a,{b,a}>.0"
    ((label, ready), _), = brs_forward_steps(fired)
    assert label == PlusR(Dot(Act("a"))) and ready == ("b", "a")


def test_build_lts_counts():
    assert build_lts(parse("a.0")).num_states == 2
    diamond = build_lts(parse("a.0 |[]| b.0"))
    assert diamond.num_states == 4 and len(diamond.transitions) == 4
    tree = build_lts(parse("a.b.0 + b.a.0"))
    assert tree.num_states == 5 and len(tree.transitions) == 4


def test_build_brs_lts_counts():
    assert build_brs_lts(encode(parse("a.0"))).num_states == 2
    assert build_brs_lts(NIL).num_states == 1
    # the two second-step states differ only in their ready sets
    lts = build_brs_lts(encode(parse("a.0 |[]| b.0")))
    assert lts.num_states == 5


def test_state_budget():
    with pytest.raises(StateBudgetError):
        build_lts(parse("a.0 |[]| b.0 |[]| c.0"), max_states=3)


def test_build_is_deterministic():
    a = build_lts(parse("a.0 |[a]| (a.0 + b.0)"))
    b = build_lts(parse("a.0 |[a]| (a.0 + b.0)"))
    assert a.renders == b.renders
    assert a.transitions == b.transitions


def test_transitions_read_as_a_sequence_of_records():
    a, b = Act("a"), Act("b")
    diamond = build_lts(parse("a.0 |[]| b.0"))
    proved = [Transition(0, ParL(a), "a", 1), Transition(0, ParR(b), "b", 2),
              Transition(1, ParR(b), "b", 3), Transition(2, ParL(a), "a", 3)]
    encoded = build_brs_lts(encode(parse("a.0 |[]| b.0")))
    ready_set = [BrsTransition(0, PlusL(a), ("a",), "a", 1),
                 BrsTransition(0, PlusR(b), ("b",), "b", 2),
                 BrsTransition(1, PlusL(Dot(b)), ("a", "b"), "b", 3),
                 BrsTransition(2, PlusR(Dot(a)), ("b", "a"), "a", 4)]
    for lts, records in ((diamond, proved), (encoded, ready_set)):
        view = lts.transitions
        assert len(view) == len(records)
        assert view == records and records == view and view != records[:-1]
        assert list(view) == [view[i] for i in range(len(view))] == records
        assert view[-1] == records[-1] and view[1:3] == records[1:3]
        assert view[::-1] == records[::-1]
        with pytest.raises(IndexError):
            view[len(view)]
        with pytest.raises(TypeError):
            view[0] = records[0]
        # the records are read off the columns
        assert [(t.source, t.action, t.target) for t in view] == list(
            zip(lts.source, lts.action, lts.target))


def test_state_of_finds_a_state_from_its_text():
    for seed in seed_terms(3, ("a", "b")):
        lts = build_lts(seed)
        for sid, term in enumerate(lts.terms):
            assert lts.state_of(parse(render(term))) == sid


def test_state_of_an_unknown_state_names_it():
    lts = build_lts(parse("a.0 |[]| b.0"))
    with pytest.raises(UnknownStateError,
                       match=re.escape("c!.0 is not a state of this system")):
        lts.state_of(parse("c!.0"))


def test_states_are_rendered_when_first_read(monkeypatch):
    rendered = []
    monkeypatch.setattr(semantics, "render",
                        lambda p: rendered.append(p) or render(p))
    lts = build_lts(parse("a.0 |[]| b.0"))
    assert rendered == []
    assert lts.renders[1] == lts.renders[1] == "a!.0 |[]| b.0"
    assert rendered == [lts.terms[1]]


REFERENCE_K5 = " |[]| ".join(["(a.b.0 + c.0)"] * 5)
SYNCED_K5 = " |[a]| ".join(
    ["(a.b.0 + c.a.0)", "(a.c.0 + b.a.0)"] * 2 + ["(a.b.0 + c.a.0)"]
)


def _reference_system(roots):
    """States and (source, proof, target) edges, breadth first over the
    uncached ``forward_steps``."""
    index, states, edges = {}, [], []
    for root in roots:
        if root not in index:
            index[root] = len(states)
            states.append(root)
    sid = 0
    while sid < len(states):
        for theta, target in forward_steps(states[sid]):
            if target not in index:
                index[target] = len(states)
                states.append(target)
            edges.append((sid, theta, index[target]))
        sid += 1
    return states, edges


def _edges(lts):
    return [(t.source, t.label, t.target) for t in lts.transitions]


@pytest.mark.parametrize("text", [REFERENCE_K5, SYNCED_K5])
def test_memoized_build_gives_the_reference_system(text):
    p = parse(text)
    states, edges = _reference_system([p])
    lts = build_lts(p)
    assert lts.terms == states and _edges(lts) == edges
    assert len(states) > 200


def test_memoized_union_gives_the_reference_system():
    roots = [parse(REFERENCE_K5), parse(SYNCED_K5), parse(REFERENCE_K5)]
    states, edges = _reference_system(roots)
    union = build_union([roots])
    assert union.terms == states and _edges(union) == edges


def test_a_build_computes_each_subterm_once(monkeypatch):
    # without a memo, (a.b.0 + c.0) x 5 makes about 20 calls per state
    calls = []
    steps = semantics._steps

    def counted(p, back, memo=None):
        calls.append(p)
        return steps(p, back, memo)

    monkeypatch.setattr(semantics, "_steps", counted)
    lts = build_lts(parse(REFERENCE_K5))
    assert lts.num_states == 1024
    assert len(calls) < 4 * lts.num_states


def _copied(u):
    """A copy of ``u`` built node by node, sharing no ready-set node."""
    if isinstance(u, BrsPrefix):
        return BrsPrefix(u.action, u.executed, u.ready, _copied(u.cont), proof=u.proof)
    if isinstance(u, Choice):
        return Choice(_copied(u.left), _copied(u.right))
    return u


def test_union_shares_structurally_equal_ready_set_states():
    for text in ("a.0 |[]| b.0", "a!.0 |[]| b.c.0"):
        u = encode(parse(text))
        v = _copied(u)
        assert u == v and u is not v and render(u) == render(v)
        union = build_union([[to_initial(u)], [to_initial(v)]], "brs")
        assert union.num_states == build_brs_lts(to_initial(u)).num_states
        assert union.state_of(v) == union.state_of(u)
        for variant in (Variant.RB, Variant.FRB):
            first, second = brs_class_ids([u, v], variant)
            assert first == second


def test_incoming():
    diamond = build_lts(parse("a.0 |[]| b.0"))
    assert incoming(diamond, diamond.root) == []
    bottom = diamond.state_of(parse("a!.0 |[]| b!.0"))
    labels = {act(t.label) for t in incoming(diamond, bottom)}
    assert labels == {"a", "b"}
    tree = build_lts(parse("a.b.0 + b.a.0"))
    left_bottom = tree.state_of(parse("a!.b!.0 + b.a.0"))
    assert [act(t.label) for t in incoming(tree, left_bottom)] == ["b"]
    with pytest.raises(UnknownStateError):
        incoming(diamond, 99)


def test_loop_property_everywhere():
    for seed in seed_terms(3, ("a", "b")):
        lts = build_lts(seed)
        for sid in range(lts.num_states):
            assert lts.initial[sid] == (not lts.incoming_ids[sid])


def test_sequential_systems_are_trees():
    for seed in seed_terms(3, ("a", "b")):
        if any(isinstance(q, Par) for q in _subterms(seed)):
            continue
        lts = build_lts(seed)
        assert len(lts.transitions) == lts.num_states - 1
        for sid in range(lts.num_states):
            assert len(lts.incoming_ids[sid]) == (0 if lts.initial[sid] else 1)


def _subterms(p):
    yield p
    for attr in ("cont", "left", "right"):
        child = getattr(p, attr, None)
        if child is not None:
            yield from _subterms(child)


def test_undo_steps_are_the_incoming_transitions():
    p = parse("a!.0 |[]| b!.0")
    edges = undo_steps(p)
    assert {act(t) for t, _ in edges} == {"a", "b"}
    lts = build_lts(parse("a.0 |[]| b.0"))
    sid = lts.state_of(p)
    assert len(edges) == len(incoming(lts, sid))
    # every state of every size-3 seed, and a two-action synchronization set
    roots = seed_terms(3, ("a", "b")) + [parse("(a.b.0 + c.0) |[a,b]| (a.b.0 |[]| c.0)")]
    for root in roots:
        lts = build_lts(root)
        for sid, state in enumerate(lts.terms):
            backward = Counter(
                (render_proof(t), render(q)) for t, q in undo_steps(state)
            )
            into = Counter(
                (render_proof(t.label), lts.renders[t.source]) for t in incoming(lts, sid)
            )
            assert backward == into, lts.renders[sid]


def test_undo_steps_of_an_illformed_term_is_empty():
    assert undo_steps(parse("a.b!.0 |[]| c!.0", allow_illformed=True)) == []


def test_export_dot():
    lts = build_lts(parse("0"))
    dot = export(lts, "dot")
    assert dot.startswith("digraph lts {")
    assert dot.count("->") == 0
    diamond = export(build_lts(parse("a.0 |[]| b.0")), "dot")
    assert diamond.count("->") == 4
    assert diamond.count("n0 [") == 1


def test_export_json_round_trip():
    lts = build_lts(parse("a.0 |[]| b.0"))
    data = json.loads(export(lts, "json"))
    assert data["root"] == 0
    assert len(data["states"]) == lts.num_states
    assert len(data["transitions"]) == len(lts.transitions)
    assert all(parse(s["term"], allow_illformed=True) for s in data["states"])
    brs_lts = build_brs_lts(encode(parse("a.0 |[]| b.0")))
    data2 = json.loads(export(brs_lts, "json"))
    assert all("ready" in t for t in data2["transitions"])
    with pytest.raises(ValueError):
        export(lts, "xml")
