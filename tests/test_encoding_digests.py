"""Byte identity of the encoder's output on non-initial products.

The digest below was recorded while ``encoding._expand`` still dispatched
on which operand has an executed head, in four top-level cases.  It covers
the rendered encoding of every reachable ``x |[L]| y`` with ``L`` one of
``{a}`` and ``{a,b}``, where ``x`` and ``y`` range over every 16th
non-initial choice of the size-3 ``{a,b}`` family (35 states), under the
default order and under each of up to four least-trace histories.  Both
heads executed and synchronizing, one head only, rollback redo of either
head, and the order of every summand group all show up here.
"""

from __future__ import annotations

from revexp import enumerate_processes, render
from revexp.encoding import HistoryOrder, encode_reachable, minimal_trace_histories
from revexp.semantics import is_reachable
from revexp.terms import Choice, Par

from test_decider_digests import _digest

EXPECTED = "03ecd7131bc28e5d17593284be00545753279984394e82635bb5e0af66e5289b"


def _products() -> list:
    family = enumerate_processes(3, ("a", "b"))
    states = [p for p in family if type(p) is Choice and not p.initial][::16]
    return [p for sync in (("a",), ("a", "b"))
            for x in states for y in states
            for p in (Par(sync, x, y),) if is_reachable(p)]


def test_encodings_of_non_initial_products_are_byte_identical():
    texts = []
    for p in _products():
        texts.append(render(encode_reachable(p)))
        texts += [render(encode_reachable(p, HistoryOrder(history)))
                  for history in minimal_trace_histories(p, 4)]
    assert len(texts) == 2380
    assert _digest(texts) == EXPECTED
