"""Byte identity of the deciders' outputs.

The digests below were recorded before the transition systems keyed their
states by node.  They cover the verdicts, witness blocks (in order) and
counterexample fields of ``check`` under all four variants and of
``check_brs`` under RB and FRB, the JSON and DOT exports of every size-3
seed's system and of its ready-set encoding's system, and the class ids
that ``class_ids`` gives the size-3 family and its encodings.  Any
change to a state's text, a state's number, the order of a witness or the
wording of a counterexample shows up here.
"""

from __future__ import annotations

import hashlib
import random

from revexp import encode, enumerate_processes, export
from revexp.axioms import Theory, theory_encoding
from revexp.bisim import Variant, check, check_brs
from revexp.generate import seed_terms
from revexp.selfcheck import class_ids
from revexp.semantics import build_brs_lts, build_lts

from test_byte_identity import _products

ALPHABET = ("a", "b")

EXPECTED = {
    "check":
        "e7e69b470cf97f779793a3f16aabe0c971d1061e4d5cc1d4ec9278b0760284f2",
    "check_brs":
        "4f53a01fb320a37a23539954987ff0dbcb32e7b3115f9c9dd974b01ce5543399",
    "export":
        "faeed1b67b5a08bb915e6fa75d2ec88631329c756bb7538c5dfe4b00e5aa7735",
    "class_ids":
        "7cdb836ee6c4886fe5ba101aad6843de8223500280a5bd0c269fbf24fba90b5f",
}


def _sample_pairs(terms, count: int, seed: int) -> list:
    rng = random.Random(seed)
    return [(rng.choice(terms), rng.choice(terms)) for _ in range(count)]


def _verdict_text(verdict) -> str:
    if verdict.equivalent:
        blocks = "\n".join(" , ".join(block) for block in verdict.witness)
        return f"equivalent {verdict.variant.name}\n{blocks}"
    ce = verdict.counterexample
    return (f"not equivalent {verdict.variant.name}\n{ce.left}\n{ce.right}\n"
            f"{ce.direction}\n{ce.observation}\n{ce.detail}")


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def digests() -> dict:
    products = _products()
    family = list(enumerate_processes(3, ALPHABET))
    pairs = list(zip(products, products[1:])) + _sample_pairs(family, 150, 29)
    check_texts = [
        _verdict_text(check(p, q, variant))
        for p, q in pairs for variant in Variant
    ]
    brs_texts = []
    for p, q in _sample_pairs(family, 60, 31):
        for variant, theory in ((Variant.RB, Theory.R), (Variant.FRB, Theory.FR)):
            u, v = theory_encoding(p, theory), theory_encoding(q, theory)
            brs_texts.append(_verdict_text(check_brs(u, v, variant)))
    export_texts = []
    for seed in seed_terms(3, ALPHABET):
        for lts in (build_lts(seed), build_brs_lts(encode(seed))):
            export_texts.append(export(lts, "json"))
            export_texts.append(export(lts, "dot"))
    id_texts = [
        f"{variant.name} {class_ids(family, variant)}" for variant in Variant
    ]
    for variant, theory in ((Variant.RB, Theory.R), (Variant.FRB, Theory.FR)):
        encodings = [theory_encoding(p, theory) for p in family]
        id_texts.append(f"brs {variant.name} {class_ids(encodings, variant)}")
    return {
        "check": _digest(check_texts),
        "check_brs": _digest(brs_texts),
        "export": _digest(export_texts),
        "class_ids": _digest(id_texts),
    }


def test_decider_outputs_are_byte_identical():
    assert digests() == EXPECTED
