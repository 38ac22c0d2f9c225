"""Decision procedures for the four equivalences, with witnesses.

All four are decided by partition refinement over one system holding both
processes' states: the union that closes the two initial versions root by
root, in which a state both reach is one state.  Refining it is sound
because every incoming transition of a reachable state originates from a
reachable state.  Each transition is observed through the system's ``obs``
column: its action, or for a ready-set system its action with its sorted
fired ready set.  Signatures are deduplicated per state: matching in the
transfer clauses is existential per observation, so the multiplicity of
equally labeled transitions must not split blocks.

Refinement keeps the rounds of the signature loop (each round splits every
block by its states' signatures under the last partition) but runs them as
a worklist over stable block ids: a round recomputes only the signatures
that the last round's splits can have changed.  A check stops at the first
round that separates its pair, and that round's two signatures explain the
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import NotReachableError, WitnessCheckError
from .semantics import DEFAULT_STATE_CAP, Lts, build_union
from .syntax import render
from .terms import (
    BrsProcess,
    Process,
    brs,
    frs,
    is_wellformed,
    to_initial,
)


class Variant(Enum):
    FB = "fb"
    FBPS = "fbps"
    RB = "rb"
    FRB = "frb"

    @property
    def forward(self) -> bool:
        return self in (Variant.FB, Variant.FBPS, Variant.FRB)

    @property
    def backward(self) -> bool:
        return self in (Variant.RB, Variant.FRB)

    @property
    def past_sensitive(self) -> bool:
        return self is Variant.FBPS


@dataclass(frozen=True)
class Counterexample:
    left: str
    right: str
    direction: str  # "forward" | "backward" | "initiality"
    observation: str
    detail: str


class Verdict:
    """The answer of :func:`check` or :func:`check_brs`.

    ``witness`` is, for an equivalent verdict, the stable partition of both
    systems' states: one tuple of sorted rendered states per block, in block
    order; it is ``None`` for a non-equivalent verdict.  A decider's verdict
    keeps the union system and its blocks, and the first read of
    ``witness`` checks them with :func:`verify_partition` and renders them;
    a partition that fails the check raises :class:`WitnessCheckError`.
    Verdicts are immutable by contract and compare by their four fields.
    """

    __slots__ = ("equivalent", "variant", "counterexample", "_witness", "_partition")

    def __init__(self, equivalent: bool, variant: Variant,
                 witness: tuple[tuple[str, ...], ...] | None = None,
                 counterexample: Counterexample | None = None):
        self.equivalent = equivalent
        self.variant = variant
        self.counterexample = counterexample
        self._witness = witness
        self._partition: tuple[Lts, list[int]] | None = None

    @classmethod
    def _from_partition(cls, variant: Variant, lts: Lts, blocks: list[int]) -> Verdict:
        verdict = cls(True, variant)
        verdict._partition = (lts, blocks)
        return verdict

    @property
    def witness(self) -> tuple[tuple[str, ...], ...] | None:
        if self._partition is not None:
            lts, blocks = self._partition
            problem = verify_partition(lts, blocks, self.variant)
            if problem is not None:
                raise WitnessCheckError(f"witness is not a bisimulation: {problem}")
            self._witness = _witness(lts, blocks)
            self._partition = None
        return self._witness

    def _fields(self) -> tuple:
        return (self.equivalent, self.variant, self.witness, self.counterexample)

    def __eq__(self, other):
        if not isinstance(other, Verdict):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"Verdict(equivalent={self.equivalent!r}, variant={self.variant!r}, "
                f"witness={self.witness!r}, counterexample={self.counterexample!r})")


def _signature_of(lts: Lts, blocks: list[int], variant: Variant):
    """The function giving a state's (observation, block) sets under ``blocks``.

    One set per observed direction: the forward set pairs each outgoing
    observation with its target's block, the backward set each incoming
    observation with its source's block; observations are read from
    ``lts.obs``.  ``blocks`` is read at each call, so the caller may update
    it in place.
    """
    obs, src, dst = lts.obs, lts.source, lts.target
    out, inc = lts.outgoing, lts.incoming_ids
    if variant.forward and variant.backward:
        def signature(s: int) -> tuple:
            return (frozenset([(obs[i], blocks[dst[i]]) for i in out[s]]),
                    frozenset([(obs[i], blocks[src[i]]) for i in inc[s]]))
    else:
        edges, end = (out, dst) if variant.forward else (inc, src)

        def signature(s: int) -> tuple:
            return (frozenset([(obs[i], blocks[end[i]]) for i in edges[s]]),)
    return signature


def refine(lts: Lts, variant: Variant, watch: tuple[int, int] | None = None):
    """Coarsest stable partition; optionally reports the step splitting ``watch``.

    Returns ``(blocks, split)`` where ``blocks`` maps state id to block id.
    The partitions P0, P1, ... are those of the round-based loop: P0 is the
    seed (all states together, or split by initiality for FB:ps), and
    P(k+1) splits each block of Pk by its states' signatures under Pk.

    The rounds run as a worklist.  Block ids stay stable: a block that
    splits keeps its id for one part and gives the others fresh ids.  A
    state's signature can change only when a state it points to (forward)
    or is pointed to by (backward) moved to a fresh id in the last round,
    so a round recomputes the signatures of those dirty states alone.  The
    clean members of a block share its last signature, so each touched
    block compares its dirty states against one clean member, whose part
    keeps the id.  The first round computes every signature.

    With ``watch``, ``split`` is ``None`` or ``(sig_left, sig_right)``, the
    two signatures under the partition of the first round that separates
    the pair, and ``refine`` returns that round's partition at once: a
    non-equivalent verdict needs no stable partition.  ``split`` is
    ``((), ())`` when the seed separates the pair.  Its signatures carry
    stable ids, not the ids of a round loop, but the counterexample is the
    same: :func:`_describe_split` reads which observations differ, never
    the ids, and any renaming of blocks keeps which observations those are.

    Blocks are numbered by their first state at the end, as the round loop
    numbers them; when no round splits, the seed comes back unchanged.
    """
    n = lts.num_states
    if variant.past_sensitive:
        seed = [1 if lts.initial[s] else 0 for s in range(n)]
    else:
        seed = [0] * n
    if watch is not None and seed[watch[0]] != seed[watch[1]]:
        return seed, ((), ())  # separated by the initiality seed itself
    src, dst = lts.source, lts.target
    outgoing, incoming = lts.outgoing, lts.incoming_ids
    blocks = list(seed)
    signature = _signature_of(lts, blocks, variant)
    members = {b: {s for s in range(n) if blocks[s] == b} for b in set(blocks)}
    # whose signature reads a state's block: its sources for the forward
    # set, its targets for the backward set
    readers = ([(incoming, src)] if variant.forward else []) + (
        [(outgoing, dst)] if variant.backward else [])
    next_id = max(blocks, default=-1) + 1
    is_dirty = bytearray(n)
    dirty = range(n)
    split = None
    while dirty:
        touched: dict[int, list[int]] = {}
        for s in dirty:
            is_dirty[s] = 1
            touched.setdefault(blocks[s], []).append(s)
        moves = []  # (fresh id, states) parts leaving their block this round
        for bid, states in touched.items():
            group = members[bid]
            parts: dict = {}
            kept = None  # the part that keeps the id
            if len(states) < len(group):
                clean = next(s for s in group if not is_dirty[s])
                kept = parts[signature(clean)] = []
            for s in states:
                sig = signature(s)
                part = parts.get(sig)
                if part is None:
                    parts[sig] = [s]
                else:
                    part.append(s)
            if len(parts) == 1:
                continue
            if kept is None:
                kept = max(parts.values(), key=len)
            for part in parts.values():
                if part is not kept:
                    moves.append((next_id, part))
                    next_id += 1
        for s in dirty:
            is_dirty[s] = 0
        if watch is not None:  # under the partition this round splits
            watched = (signature(watch[0]), signature(watch[1]))
        moved = []
        for nid, part in moves:
            members[blocks[part[0]]].difference_update(part)
            members[nid] = set(part)
            for s in part:
                blocks[s] = nid
            moved.extend(part)
        if watch is not None and blocks[watch[0]] != blocks[watch[1]]:
            split = watched
            break
        dirty = {end[i] for edges, end in readers for s in moved for i in edges[s]}
    if blocks == seed:
        return seed, split
    ids: dict[int, int] = {}
    return [ids.setdefault(b, len(ids)) for b in blocks], split


def _describe_split(lts: Lts, variant: Variant, s1: int, s2: int, split) -> Counterexample:
    """The counterexample for a pair that ``split`` (from :func:`refine`) separates.

    Only observations are read: the direction whose sets differ and the
    least differing observation.  Block ids serve only to tell the sets
    apart, so any consistent numbering of the blocks gives the same text.
    """
    left, right = lts.renders[s1], lts.renders[s2]
    if split == ((), ()):
        return Counterexample(
            left, right, "initiality",
            "", "one process is initial and the other is not",
        )
    sig1, sig2 = split
    directions = (["forward"] if variant.forward else []) + (
        ["backward"] if variant.backward else []
    )
    for k, direction in enumerate(directions):
        part1, part2 = set(sig1[k]), set(sig2[k])
        if part1 == part2:
            continue
        diff = part1 ^ part2
        obs, _ = min(diff, key=repr)
        obs_text = obs if isinstance(obs, str) else f"{obs[0]} / {{{','.join(obs[1])}}}"
        only_left = (obs in {o for o, _ in part1}) != (obs in {o for o, _ in part2})
        if only_left:
            detail = f"a {direction} transition labeled {obs_text!r} exists on one side only"
        else:
            detail = (
                f"{direction} transitions labeled {obs_text!r} reach inequivalent states"
            )
        return Counterexample(left, right, direction, obs_text, detail)
    return Counterexample(left, right, directions[-1], "", "signatures differ")


def _witness(lts: Lts, blocks: list[int]) -> tuple[tuple[str, ...], ...]:
    grouped: dict[int, list[str]] = {}
    for sid, bid in enumerate(blocks):
        grouped.setdefault(bid, []).append(lts.renders[sid])
    return tuple(tuple(sorted(set(members))) for _, members in sorted(grouped.items()))


def _union(x1, x2, max_states: int) -> tuple[Lts, int, int]:
    """The system a check decides on, and the states of ``x1`` and ``x2``.

    The union closes the initial version of ``x1``, then that of ``x2``,
    each with its own budget of ``max_states`` states.  Two distinct
    initial versions have disjoint closures, so the states of ``x2``'s
    system follow those of ``x1``'s in their own order; equal ones share
    one closure.
    """
    union = build_union([[to_initial(x1)], [to_initial(x2)]], max_states)
    sids = [union.index.get(x) for x in (x1, x2)]
    for x, sid in zip((x1, x2), sids):
        if sid is None:
            raise NotReachableError(f"{render(x)} is not reachable")
    return union, sids[0], sids[1]


def _check_on(x1, x2, variant: Variant, max_states: int) -> Verdict:
    union, s1, s2 = _union(x1, x2, max_states)
    blocks, split = refine(union, variant, watch=(s1, s2))
    if blocks[s1] == blocks[s2]:
        return Verdict._from_partition(variant, union, blocks)
    return Verdict(
        False, variant,
        counterexample=_describe_split(union, variant, s1, s2, split),
    )


def check(p1: Process, p2: Process, variant: Variant,
          max_states: int = DEFAULT_STATE_CAP) -> Verdict:
    """Decide whether two reachable processes are equivalent under ``variant``.

    ``max_states`` bounds the states of each process's system.
    """
    return _check_on(p1, p2, variant, max_states)


def check_brs(u1: BrsProcess, u2: BrsProcess, variant: Variant,
              max_states: int = DEFAULT_STATE_CAP) -> Verdict:
    """Decide reverse or forward-reverse equivalence over ready-set processes."""
    if not variant.backward:
        raise ValueError("ready-set systems are compared under RB or FRB only")
    return _check_on(u1, u2, variant, max_states)


def necessary_check(p1: Process, p2: Process, variant: Variant) -> bool:
    """Fast refutation filter: equality of the variant's ready sets."""
    if not (is_wellformed(p1) and is_wellformed(p2)):
        raise NotReachableError("necessary_check requires well-formed processes")
    ok = True
    if variant.forward:
        ok = ok and frs(p1) == frs(p2)
    if variant.backward:
        ok = ok and brs(p1) == brs(p2)
    return ok


def verify_partition(lts: Lts, blocks: list[int], variant: Variant) -> str | None:
    """Replay the transfer clauses over a partition; ``None`` when it holds.

    Used to machine-check witnesses: for every ordered pair of states in a
    block, each (observation, target block) of one must occur on the other,
    in every direction the variant observes.
    """
    members: dict[int, list[int]] = {}
    for sid, bid in enumerate(blocks):
        members.setdefault(bid, []).append(sid)
    signature = _signature_of(lts, blocks, variant)
    for bid, states in members.items():
        first = signature(states[0])
        for s in states:
            if signature(s) != first:
                return (
                    f"states {lts.renders[states[0]]} and {lts.renders[s]} share a "
                    f"block but have different signatures"
                )
        if variant.past_sensitive:
            flags = {lts.initial[s] for s in states}
            if len(flags) > 1:
                return f"block {bid} mixes initial and non-initial states"
    return None
