"""Proved transition rules, system construction, and export."""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from revexp import (
    Act,
    BrsPrefix,
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
    parse,
    render,
)
from revexp import semantics
from revexp.bisim import Variant, _union, check, check_brs, refine
from revexp.errors import StateBudgetError
from revexp.generate import enumerate_processes, seed_terms
from revexp.selfcheck import class_ids
from revexp.semantics import build_union, undo_steps
from revexp.syntax import render_proof
from revexp.terms import Choice, Par, Prefix, act, to_initial


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
    # a ready-set observation sorts the fired ready set
    ready_set = [Transition(0, PlusL(a), ("a", ("a",)), 1),
                 Transition(0, PlusR(b), ("b", ("b",)), 2),
                 Transition(1, PlusL(Dot(b)), ("b", ("a", "b")), 3),
                 Transition(2, PlusR(Dot(a)), ("a", ("a", "b")), 4)]
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
        assert [(t.source, t.proof, t.obs, t.target) for t in view] == list(
            zip(lts.source, lts.proof, lts.obs, lts.target))


def test_state_of_finds_a_state_from_its_text():
    for seed in seed_terms(3, ("a", "b")):
        lts = build_lts(seed)
        for sid, term in enumerate(lts.terms):
            assert lts.index[parse(render(term))] == sid


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


def _reference_system(groups, max_states=None, steps=forward_steps):
    """States and (source, label, target) edges, group by group and breadth
    first over the uncached ``steps``; like a build, it raises
    :class:`StateBudgetError` when a group would add a state past
    ``max_states`` states."""
    index, states, edges = {}, [], []
    sid = 0
    for group in groups:
        first = len(states)
        for root in group:
            if root not in index:
                index[root] = len(states)
                states.append(root)
        while sid < len(states):
            for label, target in steps(states[sid]):
                if target not in index:
                    if max_states is not None and len(states) - first >= max_states:
                        raise StateBudgetError(
                            f"state budget of {max_states} states exceeded")
                    index[target] = len(states)
                    states.append(target)
                edges.append((sid, label, index[target]))
            sid += 1
    return states, edges


def _edges(lts):
    return [(t.source, t.proof, t.target) for t in lts.transitions]


@pytest.mark.parametrize("text", [REFERENCE_K5, SYNCED_K5])
def test_memoized_build_gives_the_reference_system(text):
    p = parse(text)
    states, edges = _reference_system([[p]])
    lts = build_lts(p)
    assert lts.terms == states and _edges(lts) == edges
    assert len(states) > 200


def test_memoized_union_gives_the_reference_system():
    roots = [parse(REFERENCE_K5), parse(SYNCED_K5), parse(REFERENCE_K5)]
    states, edges = _reference_system([roots])
    union = build_union([roots])
    assert union.terms == states and _edges(union) == edges


def _raised(build):
    try:
        build()
    except StateBudgetError as exc:
        return str(exc)
    return None


def _assert_builds_the_reference(groups, kind="proved"):
    """The system of ``build_union(groups)``, of kind ``kind``, against the
    reference: terms, columns, adjacency, initiality, the ``index`` of every
    state, and which budgets raise :class:`StateBudgetError`."""
    steps = forward_steps if kind == "proved" else brs_forward_steps
    states, edges = _reference_system(groups, steps=steps)
    lts = build_union(groups)
    assert lts.kind == kind
    assert lts.num_states == len(lts.terms) == len(states)
    # ``index`` before any term is read
    assert [lts.index[s] for s in states] == list(range(len(states)))
    assert list(lts.terms) == states
    if kind == "proved":  # hash-consed: the very same objects
        assert all(t is s for t, s in zip(lts.terms, states))
    assert lts.source == [src for src, _, _ in edges]
    assert lts.target == [dst for _, _, dst in edges]
    if kind == "proved":
        assert lts.proof == [label for _, label, _ in edges]
        assert lts.obs == [act(label) for _, label, _ in edges]
    else:  # a label is the proof and the fired ready set as displayed
        assert lts.proof == [proof for _, (proof, _), _ in edges]
        assert lts.obs == [(act(proof), tuple(sorted(ready)))
                           for _, (proof, ready), _ in edges]
    outgoing, incoming_ids = [[] for _ in states], [[] for _ in states]
    for i, (src, _, dst) in enumerate(edges):
        outgoing[src].append(i)
        incoming_ids[dst].append(i)
    assert lts.outgoing == outgoing and lts.incoming_ids == incoming_ids
    assert lts.initial == [s.initial for s in states]
    # and again once they have been read
    assert [lts.index[s] for s in states] == list(range(len(states)))
    for cap in range(1, len(states) + 2):
        assert _raised(lambda: build_union(groups, max_states=cap)) == _raised(
            lambda: _reference_system(groups, cap, steps))
    return states


def _walked(p, count):
    """``count`` states of ``p``'s system, spread over its numbering."""
    states, _ = _reference_system([[p]])
    return [states[(i * 7 + 3) % len(states)] for i in range(count)]


@pytest.mark.parametrize("text", [
    "a.(b.0 |[]| c.0) + d.0",  # parallel under a prefix and a choice
    "(b.0 |[b]| b.c.0) + a.(a.0 |[a]| (a.b.0 + c.0))",
    "a.0 |[]| (b.0 |[]| (c.0 |[]| a.d.0))",  # right-nested
    "(a.b.0 |[]| c.0) |[]| (d.0 |[]| a.c.0)",  # balanced
    # a different synchronization set at each level, two of them 2-action
    "((a.b.0 + c.0) |[a]| (a.c.0 + b.a.0)) |[a,b]| ((a.b.0 |[c]| c.b.0) |[b,c]| b.a.c.0)",
    "(a.0 |[a]| a.0) |[]| ((a.b.0 + b.a.0) |[a,b]| (b.a.0 + a.b.0))",
])
def test_the_product_build_gives_the_reference_system(text):
    p = parse(text)
    states = _assert_builds_the_reference([[p]])
    assert any(isinstance(q, Par) for s in states for q in _subterms(s))
    walked = _walked(p, 4)
    assert not all(q.initial for q in walked)
    _assert_builds_the_reference([[q] for q in walked])  # non-initial roots
    # a multi-root group whose roots share states, and a later group with
    # the same initial version, which adds the states not yet met
    _assert_builds_the_reference([walked[:3], [p, walked[3]], [to_initial(walked[0])]])


def test_the_product_build_gives_the_reference_union():
    k3 = parse(" |[]| ".join(["(a.b.0 + c.0)"] * 3))
    synced = parse("(a.b.0 + c.a.0) |[a]| (a.c.0 + b.a.0) |[a]| (a.b.0 + c.a.0)")
    roots = _walked(k3, 3) + _walked(synced, 3) + [parse("a.(b.0 |[]| c.0) + d.0")]
    _assert_builds_the_reference([roots])
    _assert_builds_the_reference([[q] for q in roots] + [[k3, synced]])


def test_a_ready_set_build_gives_the_reference_system():
    for text in ("a.0 |[]| b.0", "(a.b.0 + c.0) |[a]| a.c.0", "a!.0 |[]| b.c.0"):
        u = encode(parse(text))
        _assert_builds_the_reference([[to_initial(u)]], "brs")
        _assert_builds_the_reference([[to_initial(u)], [u]], "brs")


_names = st.sampled_from(["a", "b", "c", "tau"])


def _initial_processes():
    return st.recursive(
        st.just(NIL) | st.builds(Prefix, _names, st.just(False), st.just(NIL)),
        lambda sub: st.one_of(
            st.builds(Prefix, _names, st.just(False), sub),
            st.builds(Choice, sub, sub),
            st.builds(lambda sync, l, r: Par(tuple(sync), l, r),
                      st.lists(st.sampled_from(["a", "b", "c"]), max_size=2), sub, sub),
        ),
        max_leaves=7,
    )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_initial_processes(), _initial_processes(), st.integers(0, 10**6))
def test_the_product_build_gives_the_reference_on_random_terms(p, q, pick):
    states = _assert_builds_the_reference([[p]])
    walked = states[pick % len(states)]
    _assert_builds_the_reference([[walked, q], [p], [to_initial(q)]])


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


def _count_par_terms(monkeypatch) -> list:
    made = []
    new = Par.__new__

    def counted(cls, sync, left, right):
        made.append(new(cls, sync, left, right))
        return made[-1]

    monkeypatch.setattr(Par, "__new__", counted)
    return made


def _par_subterms(p) -> set[int]:
    return {id(q) for q in _subterms(p) if isinstance(q, Par)}


def test_a_check_makes_only_the_state_terms_it_renders(monkeypatch):
    p, q = parse(REFERENCE_K5), parse(SYNCED_K5)
    made = _count_par_terms(monkeypatch)
    lts = build_lts(p)
    assert len(lts.terms) == lts.num_states == 1024 and made == []
    for variant in Variant:  # both are initial, so only RB equates them
        before = len(made)
        verdict = check(p, q, variant)
        by_check = made[before:]
        if variant is Variant.RB:
            assert verdict.equivalent and by_check == []
            continue
        ce = verdict.counterexample
        shown = _par_subterms(parse(ce.left)) | _par_subterms(parse(ce.right))
        assert {id(t) for t in by_check} <= shown


def test_reading_the_witness_builds_the_reference_blocks(monkeypatch):
    p = parse(REFERENCE_K5)
    q = parse(" |[]| ".join(["(c.0 + a.b.0)"] * 5))
    made = _count_par_terms(monkeypatch)
    verdict = check(p, q, Variant.FB)
    assert verdict.equivalent and made == []
    states, _ = _reference_system([[p], [q]])
    union, _, _ = _union(p, q, semantics.DEFAULT_STATE_CAP)
    blocks, _ = refine(union, Variant.FB)
    grouped: dict = {}
    for sid, bid in enumerate(blocks):
        grouped.setdefault(bid, set()).add(render(states[sid]))
    assert verdict.witness == tuple(tuple(sorted(grouped[b])) for b in sorted(grouped))
    assert len(verdict.witness) > 1


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
        union = build_union([[to_initial(u)], [to_initial(v)]])
        assert union.num_states == build_brs_lts(to_initial(u)).num_states
        assert union.index[v] == union.index[u]
        for variant in (Variant.RB, Variant.FRB):
            first, second = class_ids([u, v], variant)
            assert first == second


def test_a_union_is_ready_set_exactly_when_a_root_is():
    plain = [parse("a.0 |[]| b.0"), parse("a!.0 + b.0"), NIL]
    ready = [encode(p) for p in plain[:2]]
    for groups, kind in (([plain], "proved"), ([[p] for p in plain], "proved"),
                         ([[ready[0]]], "brs"), ([plain, [ready[1]]], "brs"),
                         ([[NIL], ready], "brs")):
        lts = build_union(groups)
        assert lts.kind == kind
        # each term is keyed by its own family, plain ones by identity
        assert [lts.index[t] for t in lts.terms] == list(range(lts.num_states))


# the encodings of 0 and 0 + 0 have no prefix, so they are plain terms; their
# check_brs verdicts against the encodings of these terms, and the class ids
# of all five, are those a structurally keyed ready-set build gives
_PREFIX_FREE = ("0", "0 + 0", "a.0", "a!.0", "a.0 + 0")
_PREFIX_FREE_VERDICTS = {Variant.RB: [True, True, True, False, True],
                         Variant.FRB: [True, True, False, False, False]}
_PREFIX_FREE_CLASSES = {Variant.RB: [0, 0, 0, 1, 0], Variant.FRB: [0, 0, 1, 2, 1]}


def test_prefix_free_encodings_keep_their_verdicts():
    us = [encode(parse(text)) for text in _PREFIX_FREE]
    assert [u.plain for u in us] == [True, True, False, False, False]
    for u in us[:2]:
        lts = build_brs_lts(u)
        assert (lts.kind, lts.num_states, lts.source) == ("proved", 1, [])
    for variant in (Variant.RB, Variant.FRB):
        for u in us[:2]:
            verdicts = [check_brs(u, w, variant) for w in us]
            assert [v.equivalent for v in verdicts] == _PREFIX_FREE_VERDICTS[variant]
            assert verdicts[0].witness == (tuple(sorted({"0", render(u)})),)
            ce = verdicts[3].counterexample
            assert (ce.left, ce.direction, ce.observation) == (render(u), "backward", "a / {a}")
        assert class_ids(us, variant) == _PREFIX_FREE_CLASSES[variant]
        assert class_ids(us[:2], variant) == [0, 0]


def test_incoming():
    diamond = build_lts(parse("a.0 |[]| b.0"))
    assert diamond.incoming_ids[0] == []
    bottom = diamond.index[parse("a!.0 |[]| b!.0")]
    labels = {act(diamond.proof[i]) for i in diamond.incoming_ids[bottom]}
    assert labels == {"a", "b"}
    tree = build_lts(parse("a.b.0 + b.a.0"))
    left_bottom = tree.index[parse("a!.b!.0 + b.a.0")]
    assert [act(tree.proof[i]) for i in tree.incoming_ids[left_bottom]] == ["b"]


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
    sid = lts.index[p]
    assert len(edges) == len(lts.incoming_ids[sid])
    # every state of every size-3 seed, and a two-action synchronization set
    roots = seed_terms(3, ("a", "b")) + [parse("(a.b.0 + c.0) |[a,b]| (a.b.0 |[]| c.0)")]
    for root in roots:
        lts = build_lts(root)
        for sid, state in enumerate(lts.terms):
            backward = Counter(
                (render_proof(t), render(q)) for t, q in undo_steps(state)
            )
            into = Counter(
                (render_proof(lts.proof[i]), lts.renders[lts.source[i]])
                for i in lts.incoming_ids[sid]
            )
            assert backward == into, lts.renders[sid]


def test_undo_steps_of_ready_set_states_are_their_incoming_transitions():
    # ready-set processes step by the plain rules, so the loop property holds
    # for them too: an executed prefix is undone, an unexecuted one is not
    for seed in seed_terms(3, ("a", "b")):
        lts = build_brs_lts(encode(seed))
        for sid, state in enumerate(lts.terms):
            into = Counter((lts.proof[i], lts.terms[lts.source[i]])
                           for i in lts.incoming_ids[sid])
            assert Counter(undo_steps(state)) == into, lts.renders[sid]


def test_the_encoding_of_every_size_3_term_is_reachable():
    assert all(semantics.is_reachable(encode(p))
               for p in enumerate_processes(3, ("a", "b")))


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
