"""The bounded process family used by the differential suites."""

from __future__ import annotations

import itertools

import pytest

from revexp import render
from revexp.errors import StateBudgetError
from revexp.generate import enumerate_processes, seed_terms
from revexp.semantics import build_lts
from revexp.terms import Choice, NIL, Nil, Par, Prefix, height, size


def test_zero_budget_yields_the_terminated_process_only():
    assert [render(p) for p in enumerate_processes(0, ("a",))] == ["0"]


def test_depth_one_includes_executed_states():
    rendered = {render(p) for p in enumerate_processes(1, ("a",))}
    assert {"a.0", "a!.0"} <= rendered


def test_stream_is_deterministic_and_deduplicated():
    first = [render(p) for p in enumerate_processes(2, ("a", "b"))]
    second = [render(p) for p in enumerate_processes(2, ("a", "b"))]
    assert first == second
    assert len(first) == len(set(first))


def test_all_outputs_are_reachable_states_of_seeds():
    from revexp import is_reachable, is_wellformed
    stream = list(enumerate_processes(2, ("a", "b")))
    for p in stream:
        assert size(p) <= 2  # firing actions never changes the measure
        assert is_wellformed(p)
    for p in stream[::9]:
        assert is_reachable(p)


def _brute_force_seeds(max_size, alphabet):
    """Independent reconstruction of the documented seed family."""
    def chains(h):
        out = [NIL]
        level = [NIL]
        for _ in range(h):
            level = [Prefix(a, False, c) for a in alphabet for c in level]
            out.extend(level)
        return out

    def ops():
        out = [lambda l, r: Choice(l, r), lambda l, r: Par((), l, r)]
        out.extend(lambda l, r, a=a: Par((a,), l, r) for a in alphabet)
        return out

    found = set()
    for chain in chains(max_size):
        found.add(render(chain))
    for wrap_len in range(max_size):
        oper_h = max_size - 1 - wrap_len
        if oper_h < 0:
            break
        operands = [c for c in chains(max_size - 1) if height(c) <= oper_h]
        wraps = [c for c in chains(wrap_len) if height(c) == wrap_len]
        for op, left, right, wrap in itertools.product(ops(), operands, operands, wraps):
            term = op(left, right)
            while not isinstance(wrap, Nil):
                term = Prefix(wrap.action, False, term)
                wrap = wrap.cont
            if size(term) <= max_size and height(term) <= max_size:
                found.add(render(term))
    if max_size >= 3:
        leaves = chains(1)
        for op1, op2, a, b, c in itertools.product(ops(), ops(), leaves, leaves, leaves):
            for term in (op1(op2(a, b), c), op1(a, op2(b, c))):
                if size(term) <= max_size and height(term) <= max_size:
                    found.add(render(term))
    return found


def test_seed_family_matches_an_independent_count():
    for max_size, alphabet in ((2, ("a", "b")), (3, ("a",))):
        expected = _brute_force_seeds(max_size, alphabet)
        got = {render(s) for s in seed_terms(max_size, alphabet)}
        assert got == expected


def test_enumeration_is_the_union_of_seed_state_spaces():
    seeds = seed_terms(2, ("a", "b"))
    expected = set()
    for s in seeds:
        lts = build_lts(s)
        expected.update(lts.renders)
    got = {render(p) for p in enumerate_processes(2, ("a", "b"))}
    assert got == expected


def _per_seed_reference(max_size, alphabet):
    """Each seed's system built alone, its states kept unless an earlier
    seed reached them; with the most states one seed added."""
    seen, out, most = set(), [], 0
    for seed in seed_terms(max_size, alphabet):
        added = [t for t in build_lts(seed).terms if t not in seen]
        seen.update(added)
        out.extend(added)
        most = max(most, len(added))
    return out, most


@pytest.mark.parametrize("max_size", [3, 4])
def test_enumeration_matches_per_seed_builds(max_size):
    expected, most = _per_seed_reference(max_size, ("a", "b"))
    got = list(enumerate_processes(max_size, ("a", "b")))
    assert len(got) == len(expected) and all(g is e for g, e in zip(got, expected))
    # the budget bounds the states each seed adds
    assert list(enumerate_processes(max_size, ("a", "b"), most)) == expected
    with pytest.raises(StateBudgetError):
        enumerate_processes(max_size, ("a", "b"), most - 1)
