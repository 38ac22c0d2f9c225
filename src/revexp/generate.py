"""Deterministic process enumeration for differential test suites.

The stream is produced in two stages.  First a family of *seed* terms is
generated; seeds are initial, have bounded height and bounded trace length
(the ``size`` measure), and use a documented structural repertoire chosen to
exercise every operator without a combinatorial explosion:

* every prefix chain of height up to the bound;
* every term of shape ``chain* (A op B)`` where a chain of prefixes (height
  permitting) sits above one binary operator applied to two prefix chains;
* every two-operator nesting ``op1(op2(A, B), C)`` / ``op1(A, op2(B, C))``
  whose leaf chains have height at most one;

with ``op`` ranging over choice and parallel composition with an empty or
singleton synchronization set drawn from the alphabet.  Second, one proved
transition system closes the seeds one after another, and its states are
yielded in construction order, so the stream contains reachable
non-initial processes as well, each once.
"""

from __future__ import annotations

from collections.abc import Iterator

from .semantics import DEFAULT_STATE_CAP, build_union
from .terms import NIL, Choice, Nil, Par, Prefix, Process, height, size


def _chains(max_height: int, alphabet: tuple[str, ...]) -> list[Process]:
    levels: list[list[Process]] = [[NIL]]
    for _ in range(max_height):
        levels.append([
            Prefix(a, False, p) for a in alphabet for p in levels[-1]
        ])
    out: list[Process] = []
    for level in levels:
        out.extend(level)
    return out


def _operators(alphabet: tuple[str, ...]):
    ops = [lambda l, r: Choice(l, r)]
    ops.append(lambda l, r: Par((), l, r))
    for a in alphabet:
        ops.append(lambda l, r, a=a: Par((a,), l, r))
    return ops


def seed_terms(max_size: int, alphabet) -> list[Process]:
    """The deterministic seed family described in the module docstring."""
    alphabet = tuple(alphabet)
    seeds: list[Process] = []
    seen: set[Process] = set()

    def add(term: Process) -> None:
        if size(term) > max_size or height(term) > max_size:
            return
        if term not in seen:
            seen.add(term)
            seeds.append(term)

    for chain in _chains(max_size, alphabet):
        add(chain)

    ops = _operators(alphabet)
    inner = _chains(max(max_size - 1, 0), alphabet)
    for wrap_len in range(0, max(max_size, 1)):
        operand_height = max_size - 1 - wrap_len
        if operand_height < 0:
            break
        operands = [c for c in inner if height(c) <= operand_height]
        wraps = _chains(wrap_len, alphabet) if wrap_len else [NIL]
        wraps = [w for w in wraps if height(w) == wrap_len]
        for op in ops:
            for left in operands:
                for right in operands:
                    core = op(left, right)
                    for wrap in wraps:
                        add(_wrap(wrap, core))

    if max_size >= 3:
        leaves = _chains(1, alphabet)
        for op1 in ops:
            for op2 in ops:
                for a in leaves:
                    for b in leaves:
                        for c in leaves:
                            add(op1(op2(a, b), c))
                            add(op1(a, op2(b, c)))
    return seeds


def _wrap(chain: Process, core: Process) -> Process:
    if isinstance(chain, Nil):
        return core
    return Prefix(chain.action, False, _wrap(chain.cont, core))


def enumerate_processes(max_size: int, alphabet,
                        max_states: int = DEFAULT_STATE_CAP) -> Iterator[Process]:
    """All reachable states of all seeds, deduplicated, in deterministic order.

    They are the states of one :func:`~revexp.semantics.build_union` with a
    group per seed: each seed's states in construction order, less those an
    earlier seed reached.  ``max_states`` bounds the states each seed adds.
    """
    groups = [[seed] for seed in seed_terms(max_size, alphabet)]
    return iter(build_union(groups, max_states).terms)
