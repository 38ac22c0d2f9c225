"""Byte identity of the forward-reverse theory on walked products.

The digests below cover the forward-reverse verdict of ``prove_eq`` on 300
seeded pairs of k=3 and k=4 products of the four-state component shapes,
interleaved or synchronized on one or two actions, each side walked up to
four steps, and the partition that ``theory_key`` makes of all 600 sides
in one set of tables (each side's class is the first side whose key is the
same object).  A walk of one step leaves a process in which no parallel
composition has executed actions in both operands; longer walks mostly
leave processes whose encoding reads a serialization order, so both kinds
of side occur.  ``test_fr_digests.py`` covers only initial products and
terms of size 4.
"""

from __future__ import annotations

import random

from revexp import parse
from revexp.axioms import Theory, prove_eq, theory_key

from test_decider_digests import _digest
from test_walked_digests import SHAPES, _walked

EXPECTED = {
    "verdicts":
        "5077d67e9e3a9251bbe1f8ba7dccd9162acc66f990ee5640d6d4a0811b6ce359",
    "classes":
        "7d6d16360f1bf9dff960216427e8faf94146da90a7cf90daa0c215d8db26424c",
}

SYNCS = ((), ("a",), ("b",), ("a", "c"), ("b", "c"))


def _product(rng: random.Random, k: int, sync: tuple) -> tuple:
    """A seeded product of ``k`` components, each offering every action of
    ``sync``, and its permutation: the components in reverse order with
    their choices swapped."""
    components = []
    for _ in range(k):
        letters = [rng.choice("abc") for _ in range(3)]
        for action in sync:
            letters[rng.randrange(3)] = action
        components.append([text.format(*letters) for text in rng.choice(SHAPES)])
    op = f" |[{','.join(sync)}]| "
    return (parse(op.join(f"({c[0]})" for c in components)),
            parse(op.join(f"({c[1]})" for c in reversed(components))))


def pairs() -> list:
    """For each product, a walk of it with a walk of its permutation,
    another walk of itself, and a walk of the next product."""
    rng = random.Random(34)
    out = []
    for k, n in ((3, 12), (4, 8)):
        for sync in SYNCS:
            products = [_product(rng, k, sync) for _ in range(n)]
            for (p, permuted), (other, _) in zip(products, products[1:] + products[:1]):
                x = _walked(rng, p, 4)
                out += [(x, _walked(rng, permuted, 4)), (x, _walked(rng, p, 4)),
                        (_walked(rng, p, 4), _walked(rng, other, 4))]
    return out


def test_fr_verdicts_on_walked_products_are_byte_identical():
    verdicts = [str(prove_eq(p, q, Theory.FR)) for p, q in pairs()]
    assert _digest(verdicts) == EXPECTED["verdicts"]


def test_fr_keys_of_walked_products_partition_as_recorded():
    tables: dict = {}
    first: dict = {}
    classes = [str(first.setdefault(id(theory_key(x, Theory.FR, tables)), i))
               for i, x in enumerate(x for pair in pairs() for x in pair)]
    assert _digest(classes) == EXPECTED["classes"]
