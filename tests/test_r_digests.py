"""Byte identity of the reverse theory's decisions.

The digests below were recorded while ``prove_eq`` still decided the
reverse theory by normalizing both sides' theory encodings.  They cover
its verdict on each consecutive pair of the terms of
``test_byte_identity.py`` (every size-4 term over ``{a,b}``, then the 54
k=3 products), and the whole output of ``revexp prove --theory r --trace``
on each consecutive pair of the products: the verdict and the derivation
of each side's normal form.
"""

from __future__ import annotations

from revexp import enumerate_processes, render
from revexp.axioms import Theory, prove_eq
from revexp.cli import main

from test_byte_identity import _products
from test_decider_digests import _digest

EXPECTED = {
    "verdicts":
        "e1372a6e1c511069aac022b1a3bf1b6687963bb576559d8a4b3a456717c8a2ae",
    "trace":
        "8d2f3b5bbdc986aa496c2f1447bf03e668c31b8b4b474c2ad8df24857178c34c",
}


def test_r_verdicts_are_byte_identical():
    terms = list(enumerate_processes(4, ("a", "b"))) + _products()
    verdicts = [str(prove_eq(p, q, Theory.R)) for p, q in zip(terms, terms[1:])]
    assert _digest(verdicts) == EXPECTED["verdicts"]


def test_prove_r_trace_text_is_byte_identical(capsys):
    products = _products()
    texts = []
    for p, q in zip(products, products[1:]):
        code = main(["prove", "--theory", "r", "--trace", render(p), render(q)])
        texts.append(f"{code}\n{capsys.readouterr().out}")
    assert _digest(texts) == EXPECTED["trace"]
