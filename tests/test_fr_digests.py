"""Byte identity of the forward-reverse theory's decisions.

The digests below were recorded while ``prove_eq`` still decided the
forward-reverse theory by building both sides' normal forms and comparing
them as trees.  They cover its verdict on each consecutive pair of the
terms of ``test_byte_identity.py`` (every size-4 term over ``{a,b}``, then
the 54 k=3 products), and the whole output of
``revexp prove --theory fr --trace`` on each consecutive pair of the
products: the verdict and the derivation of each side's canonical form.
"""

from __future__ import annotations

from revexp import enumerate_processes, render
from revexp.axioms import Theory, prove_eq
from revexp.cli import main

from test_byte_identity import _products
from test_decider_digests import _digest

EXPECTED = {
    "verdicts":
        "39e40e29ad0f8ebf361a17045ada6a7d07936b9a84bc44b263b17a239118fb34",
    "trace":
        "ed3d07eb27825fb9ac0b906f1f4f46e934a83eb07d1974270d4c2df7e27a8e81",
}


def test_fr_verdicts_are_byte_identical():
    terms = list(enumerate_processes(4, ("a", "b"))) + _products()
    verdicts = [str(prove_eq(p, q, Theory.FR)) for p, q in zip(terms, terms[1:])]
    assert _digest(verdicts) == EXPECTED["verdicts"]


def test_prove_fr_trace_text_is_byte_identical(capsys):
    products = _products()
    texts = []
    for p, q in zip(products, products[1:]):
        code = main(["prove", "--theory", "fr", "--trace", render(p), render(q)])
        texts.append(f"{code}\n{capsys.readouterr().out}")
    assert _digest(texts) == EXPECTED["trace"]
