"""Byte identity of the minimal-trace histories.

The digest below covers ``minimal_trace_histories`` under caps 1, 2 and
512: each history as its rendered proofs, or the refusal's text when the
call raises.  The inputs are the size-3 family over {a, b}; each of its
terms with one more prefix marked, which gives well-formed terms that no
run reaches and ill-formed ones; walked k=3 and k=4 products; and a
reachable synchronization whose first undo step leads to a state that no
run reaches.  Any change to which histories tie, their order or the cap's
cut shows up here.
"""

from __future__ import annotations

import random

from revexp import enumerate_processes, parse, render, render_proof
from revexp.encoding import minimal_trace_histories
from revexp.errors import NotReachableError

from test_bisim import _marked
from test_decider_digests import _digest
from test_walked_digests import _products, _walked

EXPECTED = (
    "aa23e3da7be2b2642c2aa37658b07286d7e66d108036d8af293665506f0fc669")

CAPS = (1, 2, 512)


def _inputs() -> list:
    family = list(enumerate_processes(3, ("a", "b")))
    terms = list(family)
    for t in family:
        # a term has as many prefixes as its text has dots
        terms += dict.fromkeys(_marked(t, pick) for pick in range(render(t).count(".")))
    rng = random.Random(22)
    for k in (3, 4):
        for synced in (False, True):
            for _ in range(12):
                p, permuted = _products(rng, k, synced)
                terms += [_walked(rng, p, 2 * k), _walked(rng, permuted, 2 * k)]
    terms.append(parse("(a!.b!.0 |[]| a!.0) |[a,b]| (a!.0 |[]| b!.a!.0)"))
    return terms


def _text(p, cap: int) -> str:
    try:
        histories = minimal_trace_histories(p, cap)
    except NotReachableError as exc:
        return str(exc)
    return " | ".join(" ".join(map(render_proof, hist)) for hist in histories)


def test_minimal_trace_histories_are_byte_identical():
    assert _digest(_text(p, cap) for p in _inputs() for cap in CAPS) == EXPECTED
