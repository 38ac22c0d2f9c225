"""Byte identity of the forward theory's decisions.

The digests below were recorded while ``prove_eq`` still decided the
forward theory by building both sides' normal and canonical forms and
comparing them.  They cover its verdict on each consecutive pair of the
terms of ``test_byte_identity.py`` (every size-4 term over ``{a,b}``, then
the 54 k=3 products), and the whole output of
``revexp prove --theory f --trace`` on each consecutive pair of the
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
        "6b84a617a3e2551153dc915d7c30bdf1d08007dc5b62efe4a9da5068672d07fc",
    "trace":
        "4613bab9762b91b68154270e80c8ad56654da4b22ddac1b4ac40aa892bfc4e4f",
}


def test_f_verdicts_are_byte_identical():
    terms = list(enumerate_processes(4, ("a", "b"))) + _products()
    verdicts = [str(prove_eq(p, q, Theory.F)) for p, q in zip(terms, terms[1:])]
    assert _digest(verdicts) == EXPECTED["verdicts"]


def test_prove_f_trace_text_is_byte_identical(capsys):
    products = _products()
    texts = []
    for p, q in zip(products, products[1:]):
        code = main(["prove", "--theory", "f", "--trace", render(p), render(q)])
        texts.append(f"{code}\n{capsys.readouterr().out}")
    assert _digest(texts) == EXPECTED["trace"]
