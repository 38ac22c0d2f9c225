"""Seeded query inputs with expected verdicts known from their construction.

Nothing here imports ``revexp``.  Terms are nested tuples:

* ``("0",)``
* ``("pre", action, executed, cont)``
* ``("+", left, right)``
* ``("|", sync, left, right)`` with ``sync`` a sorted tuple of actions

The small forward semantics below is the calculus's transition rule for
prefix, choice and CSP-style parallel composition, written independently of
the package so that walks, mutations and expected verdicts do not depend on
the code under test.

A pair ``(p, q)`` is built from ``p`` in one of three ways, and the way fixes
its expected verdicts:

* ``permute``: components reordered and choice operands swapped.  Choice and
  parallel composition with one synchronization set are commutative and
  associative, so ``p`` and ``q`` are equivalent under every variant and
  every theory.
* ``mutate-fwd``: one prefix that ``p`` can fire alone is renamed to a fresh
  action.  The fresh action is in the forward ready set of ``q`` only, so
  the pair is inequivalent under FB, FB:ps and FRB, and (by soundness) not
  provably equal in F and FR.
* ``mutate-bwd``: one executed prefix that ``p`` can undo alone is renamed to
  a fresh action.  The fresh action is in the backward ready set of ``q``
  only, so the pair is inequivalent under RB and FRB and not provably equal
  in R and FR.

Verdicts the construction does not fix are ``None`` and are not checked.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass

VARIANTS = ("FB", "FBPS", "RB", "FRB")
THEORIES = ("F", "R", "FR")
# theory -> the bisimilarity it is complete for
MATCHING_VARIANT = {"F": "FBPS", "R": "RB", "FR": "FRB"}

NIL = ("0",)


# --- the calculus, independently ------------------------------------------

def is_initial(t) -> bool:
    kind = t[0]
    if kind == "0":
        return True
    if kind == "pre":
        return not t[2] and is_initial(t[3])
    return is_initial(t[-2]) and is_initial(t[-1])


def steps(t) -> list:
    """Forward moves of ``t`` as ``(action, successor)`` pairs."""
    kind = t[0]
    if kind == "0":
        return []
    if kind == "pre":
        _, a, executed, cont = t
        if not executed:
            return [(a, ("pre", a, True, cont))] if is_initial(cont) else []
        return [(b, ("pre", a, True, c)) for b, c in steps(cont)]
    if kind == "+":
        _, left, right = t
        out = []
        if is_initial(right):
            out += [(b, ("+", l, right)) for b, l in steps(left)]
        if is_initial(left):
            out += [(b, ("+", left, r)) for b, r in steps(right)]
        return out
    _, sync, left, right = t
    ls, rs = steps(left), steps(right)
    out = [(b, ("|", sync, l, right)) for b, l in ls if b not in sync]
    out += [(b, ("|", sync, left, r)) for b, r in rs if b not in sync]
    out += [(b, ("|", sync, l, r)) for b, l in ls if b in sync
            for b2, r in rs if b2 == b]
    return out


def solo_enabled(t, blocked=frozenset(), path=()) -> list:
    """Paths of unexecuted prefixes that fire alone, not in any sync set above."""
    kind = t[0]
    if kind == "0":
        return []
    if kind == "pre":
        if t[2]:
            return solo_enabled(t[3], blocked, path + (3,))
        ok = t[1] not in blocked and is_initial(t[3])
        return [path] if ok else []
    if kind == "+":
        out = []
        if is_initial(t[2]):
            out += solo_enabled(t[1], blocked, path + (1,))
        if is_initial(t[1]):
            out += solo_enabled(t[2], blocked, path + (2,))
        return out
    inner = blocked | frozenset(t[1])
    return solo_enabled(t[2], inner, path + (2,)) + solo_enabled(t[3], inner, path + (3,))


def solo_undoable(t, blocked=frozenset(), path=()) -> list:
    """Paths of executed prefixes, last in their thread, undone alone."""
    kind = t[0]
    if kind == "0":
        return []
    if kind == "pre":
        if not t[2]:
            return []
        if is_initial(t[3]):
            return [path] if t[1] not in blocked else []
        return solo_undoable(t[3], blocked, path + (3,))
    if kind == "+":
        side = 1 if not is_initial(t[1]) else 2
        return solo_undoable(t[side], blocked, path + (side,))
    inner = blocked | frozenset(t[1])
    return solo_undoable(t[2], inner, path + (2,)) + solo_undoable(t[3], inner, path + (3,))


def rename(t, path, action):
    if not path:
        return ("pre", action, t[2], t[3])
    i = path[0]
    return t[:i] + (rename(t[i], path[1:], action),) + t[i + 1:]


def swap_all(t):
    """Swap the operands of every choice and every parallel composition."""
    kind = t[0]
    if kind == "0":
        return t
    if kind == "pre":
        return ("pre", t[1], t[2], swap_all(t[3]))
    if kind == "+":
        return ("+", swap_all(t[2]), swap_all(t[1]))
    return ("|", t[1], swap_all(t[3]), swap_all(t[2]))


def render(t) -> str:
    """Text in the package's concrete syntax, parenthesizing compound operands."""
    kind = t[0]
    if kind == "0":
        return "0"
    if kind == "pre":
        return f"{t[1]}{'!' if t[2] else ''}.{_atom(t[3])}"
    if kind == "+":
        return f"{_atom(t[1])} + {_atom(t[2])}"
    return f"{_atom(t[2])} |[{','.join(t[1])}]| {_atom(t[3])}"


def _atom(t) -> str:
    text = render(t)
    return f"({text})" if t[0] in ("+", "|") else text


_TOKEN = re.compile(r"\s*(\|\[[a-z0-9_,]*\]\||[a-z][a-z0-9_]*|[0().+!])")


def parse(text: str):
    """Read a term in the package's concrete syntax (inverse of :func:`render`)."""
    tokens = []
    pos = 0
    while pos < len(text.rstrip()):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read {text!r} at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    term, pos = _parse_par(tokens, 0)
    if tokens[pos]:
        raise ValueError(f"trailing input in {text!r}")
    return term


def _parse_par(tokens, pos):
    left, pos = _parse_choice(tokens, pos)
    while tokens[pos].startswith("|["):
        sync = tuple(sorted(set(a for a in tokens[pos][2:-2].split(",") if a)))
        right, pos = _parse_choice(tokens, pos + 1)
        left = ("|", sync, left, right)
    return left, pos


def _parse_choice(tokens, pos):
    left, pos = _parse_prefix(tokens, pos)
    while tokens[pos] == "+":
        right, pos = _parse_prefix(tokens, pos + 1)
        left = ("+", left, right)
    return left, pos


def _parse_prefix(tokens, pos):
    tok = tokens[pos]
    if tok == "0":
        return NIL, pos + 1
    if tok == "(":
        inner, pos = _parse_par(tokens, pos + 1)
        if tokens[pos] != ")":
            raise ValueError("expected ')'")
        return inner, pos + 1
    executed = tokens[pos + 1] == "!"
    pos += 2 if executed else 1
    if tokens[pos] != ".":
        raise ValueError("expected '.'")
    cont, pos = _parse_prefix(tokens, pos + 1)
    return ("pre", tok, executed, cont), pos


def product(components, sync):
    """Left-nested parallel composition of ``components`` over one sync set."""
    out = components[0]
    for c in components[1:]:
        out = ("|", tuple(sync), out, c)
    return out


def components_of(t) -> list:
    """Leaves of a left-nested product, in order."""
    if t[0] == "|":
        return components_of(t[2]) + [t[3]]
    return [t]


def walk(t, n: int, rng: random.Random):
    """Up to ``n`` seeded forward steps from ``t``."""
    for _ in range(n):
        moves = steps(t)
        if not moves:
            break
        t = rng.choice(moves)[1]
    return t


# --- pairs with known answers ----------------------------------------------

@dataclass(frozen=True)
class Pair:
    p: str
    q: str
    kind: str  # permute | mutate-fwd | mutate-bwd
    expected: tuple  # ((name, bool | None), ...) over VARIANTS + THEORIES

    def expect(self, name: str):
        return dict(self.expected)[name]


def expected_for(kind: str) -> tuple:
    if kind == "permute":
        verdicts = {name: True for name in VARIANTS + THEORIES}
    elif kind == "mutate-fwd":
        verdicts = {"FB": False, "FBPS": False, "RB": None, "FRB": False}
    elif kind == "mutate-bwd":
        verdicts = {"FB": None, "FBPS": None, "RB": False, "FRB": False}
    else:
        raise ValueError(f"unknown pair kind {kind!r}")
    for theory, variant in MATCHING_VARIANT.items():
        verdicts.setdefault(theory, verdicts[variant] if verdicts[variant] is False else None)
    return tuple((name, verdicts[name]) for name in VARIANTS + THEORIES)


def mutate(t, kind: str, fresh: str, rng: random.Random):
    """``t`` with one visible prefix renamed to ``fresh``; ``None`` if none is visible."""
    paths = solo_enabled(t) if kind == "mutate-fwd" else solo_undoable(t)
    if not paths:
        return None
    return rename(t, rng.choice(paths), fresh)


def make_pair(p, kind: str, fresh: str, rng: random.Random, permute=None) -> Pair:
    """Pair ``p`` with a permuted or mutated copy; falls back to permute."""
    q = None
    if kind != "permute":
        q = mutate(p, kind, fresh, rng)
    if q is None:
        kind = "permute"
        q = permute(p, rng) if permute else swap_all(p)
    return Pair(render(p), render(q), kind, expected_for(kind))


def permute_product(t, rng: random.Random):
    """Reorder the components of a product and swap the choices inside them."""
    comps = components_of(t)
    sync = t[1] if t[0] == "|" else ()
    order = list(range(len(comps)))
    if len(order) > 1:
        while order == sorted(order):
            rng.shuffle(order)
    return product([swap_all(comps[i]) for i in order], sync)


# --- product families -------------------------------------------------------

ALPHABET = ("a", "b", "c")
FRESH = "d"

# sequential shapes with four states each: x.y.0 + z.0, x.(y.0 + z.0),
# x.0 + y.z.0
SHAPES = (
    lambda x, y, z: ("+", ("pre", x, False, ("pre", y, False, NIL)), ("pre", z, False, NIL)),
    lambda x, y, z: ("pre", x, False, ("+", ("pre", y, False, NIL), ("pre", z, False, NIL))),
    lambda x, y, z: ("+", ("pre", x, False, NIL), ("pre", y, False, ("pre", z, False, NIL))),
)


def reference_product(k: int):
    """``(a.b.0 + c.0)`` composed ``k`` times by pure interleaving."""
    return product([SHAPES[0]("a", "b", "c")] * k, ())


def random_component(rng: random.Random, must: str | None = None, shape: int | None = None):
    """A seeded four-state component; ``must`` fills one seeded slot.

    ``shape`` picks the shape by its index in ``SHAPES`` instead of the seed.
    """
    shape = SHAPES[rng.randrange(len(SHAPES)) if shape is None else shape]
    letters = [rng.choice(ALPHABET) for _ in range(3)]
    if must is not None:
        letters[rng.randrange(3)] = must
    return shape(*letters)


def product_pair(rng: random.Random, k: int, synced: bool, max_walk: int,
                 shapes: tuple | None = None) -> Pair:
    """A seeded product, walked to a seeded state, paired by a seeded kind.

    A synchronized product uses one action that every component offers.
    ``shapes`` fixes the shape of each component; otherwise they are seeded.
    """
    sync = (rng.choice(ALPHABET),) if synced else ()
    shapes = shapes or (None,) * k
    p = product([random_component(rng, sync[0] if sync else None, shape)
                 for shape in shapes], sync)
    p = walk(p, rng.randint(0, max_walk), rng)
    kind = rng.choice(("permute", "mutate-fwd", "mutate-bwd"))
    return make_pair(p, kind, FRESH, rng, permute=permute_product)


def fingerprint(items) -> str:
    """Digest of the generated input texts, in run order."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
