"""Byte identity of ``check`` on walked products.

The digest below covers the verdict, witness blocks (in order) and
counterexample fields of ``check`` under all four variants, on seeded k=3
and k=4 products of the four-state component shapes, interleaved and
synchronized on one action, each walked up to 2k steps.  A walked state of
a product reaches, and can be undone to, only part of its system, so these
pairs tell a decision on the whole union from one on part of it, where the
size-3 family of ``test_decider_digests.py`` hardly can.
"""

from __future__ import annotations

import random

from revexp import parse
from revexp.bisim import Variant, check
from revexp.semantics import forward_steps

from test_decider_digests import _digest, _verdict_text

EXPECTED = (
    "93191d16a043604004f3a4ef92c93731350c1b4dc748c885f851d9b6d28478d2")

# the component shapes x.y.0 + z.0, x.(y.0 + z.0), x.0 + y.z.0, and each
# with its choice operands swapped
SHAPES = (
    ("{0}.{1}.0 + {2}.0", "{2}.0 + {0}.{1}.0"),
    ("{0}.({1}.0 + {2}.0)", "{0}.({2}.0 + {1}.0)"),
    ("{0}.0 + {1}.{2}.0", "{1}.{2}.0 + {0}.0"),
)


def _products(rng: random.Random, k: int, synced: bool) -> tuple:
    """A seeded product of ``k`` components and its permutation: the
    components in reverse order with their choices swapped."""
    sync = rng.choice("abc") if synced else ""
    components = []
    for _ in range(k):
        letters = [rng.choice("abc") for _ in range(3)]
        if sync:  # every component offers the synchronized action
            letters[rng.randrange(3)] = sync
        components.append([text.format(*letters) for text in rng.choice(SHAPES)])
    op = f" |[{sync}]| "
    return (parse(op.join(f"({c[0]})" for c in components)),
            parse(op.join(f"({c[1]})" for c in reversed(components))))


def _walked(rng: random.Random, p, most: int):
    for _ in range(rng.randint(0, most)):
        steps = forward_steps(p)
        if not steps:
            break
        p = rng.choice(steps)[1]
    return p


def pairs() -> list:
    """Each product paired with its permutation, and a walk of it with
    another walk of itself, a walk of its permutation and a walk of the
    next product."""
    rng = random.Random(16)
    out = []
    for k in (3, 4):
        for synced in (False, True):
            products = [_products(rng, k, synced) for _ in range(12)]
            for (p, permuted), (other, _) in zip(products, products[1:] + products[:1]):
                x = _walked(rng, p, 2 * k)
                out += [(p, permuted), (x, _walked(rng, p, 2 * k)),
                        (x, _walked(rng, permuted, 2 * k)),
                        (x, _walked(rng, other, 2 * k))]
    return out


def test_check_on_walked_products_is_byte_identical():
    texts = [_verdict_text(check(p, q, variant))
             for p, q in pairs() for variant in Variant]
    assert _digest(texts) == EXPECTED
