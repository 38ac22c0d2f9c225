"""Byte identity of encodings, theory encodings and derivation traces.

The digests below were recorded from the tree-unfolding implementation.
They cover every size-4 term over ``{a,b}`` and the k=3 interleaved
products of the three four-state component shapes (initial, and with the
first and last component each one step in), so any change to an encoding's
text, a ready-set display order, or the order or paths of a logged axiom
shows up here, not only in the verdicts.
"""

from __future__ import annotations

import hashlib
import itertools

from revexp import encode, enumerate_processes, parse, render
from revexp.axioms import (
    Theory,
    canonical,
    format_trace,
    normalize_f,
    normalize_fr,
    prove_eq,
    theory_encoding,
)

# the component shapes x.y.0 + z.0, x.(y.0 + z.0), x.0 + y.z.0, initial and
# with their first prefix executed
SHAPES = (
    ("a.b.0 + c.0", "a!.b.0 + c.0"),
    ("a.(b.0 + c.0)", "a!.(b.0 + c.0)"),
    ("a.0 + b.c.0", "a!.0 + b.c.0"),
)

EXPECTED = {
    "encode":
        "e4858258170dc4fda791139b91034a0086b181ef052a88ae6c06771e9e16ec69",
    "R":
        "65c6f5d2285cae81a62c1a426ea714ca81c12a3be93b6ecd71897831373e72f9",
    "FR":
        "632d64a3964c752cdc27e24b89aa8b253473383ce4f4062798e0e27cf5dd8a2a",
    "F trace":
        "1cf66102993f2a0b8f2ea51ddf2178d3815194da45c27330c94e7d9199a20883",
    "FR trace":
        "c13d2dfd3e66dc9a88c7f16eb877dfb4c042c7fc82e7792b992ab523bb137e9d",
}


def _products() -> list:
    out = []
    for combo in itertools.product(SHAPES, repeat=3):
        initial = [shape[0] for shape in combo]
        walked = [combo[0][1], combo[1][0], combo[2][1]]
        for parts in (initial, walked):
            out.append(parse(" |[]| ".join(f"({text})" for text in parts)))
    return out


def _derivation(normal_form, theory, x) -> list:
    trace = []
    canonical(normal_form(x, trace), theory, trace)
    return trace


def digests(terms) -> dict:
    hashes = {name: hashlib.sha256() for name in EXPECTED}
    for p in terms:
        fr = theory_encoding(p, Theory.FR)
        texts = {
            "encode": render(encode(p)),
            "R": render(theory_encoding(p, Theory.R)),
            "FR": render(fr),
            "F trace": format_trace(_derivation(normalize_f, Theory.F, p)),
            "FR trace": format_trace(_derivation(normalize_fr, Theory.FR, fr)),
        }
        for name, text in texts.items():
            hashes[name].update(text.encode())
            hashes[name].update(b"\n")
    return {name: h.hexdigest() for name, h in hashes.items()}


def test_outputs_are_byte_identical():
    terms = list(enumerate_processes(4, ("a", "b"))) + _products()
    assert len(terms) == 7005 + 54
    assert digests(terms) == EXPECTED


def test_prove_eq_fr_trace_is_the_derivation_of_each_side():
    products = _products()
    for p, q in zip(products, products[1:]):
        trace = []
        prove_eq(p, q, Theory.FR, trace)
        assert trace == [
            step for x in (p, q)
            for step in _derivation(normalize_fr, Theory.FR, theory_encoding(x, Theory.FR))
        ]
