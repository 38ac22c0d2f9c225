"""Decision procedures for the four equivalences, with witnesses.

All four are decided by partition refinement over one system holding both
processes' states: the union that closes the two initial versions root by
root, in which a state both reach is one state.  Refining it is sound
because every incoming transition of a reachable state originates from a
reachable state.  Under FB, FB:ps and FRB, :func:`check` first quotients
each sequential leaf of a product (an operand of a parallel composition
with no parallel composition inside) by the variant's bisimilarity and
decides on the product of the quotients, which keeps every round
partition of the union (Graf & Steffen's compositional minimisation; see
:func:`_check_on`).  Each transition is observed through the system's
``obs`` column: its action, or for a ready-set system its action with its
sorted fired ready set.  Signatures are deduplicated per state: matching
in the transfer clauses is existential per observation, so the
multiplicity of equally labeled transitions must not split blocks.

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

from .errors import NotReachableError, StateBudgetError, WitnessCheckError
from .semantics import (
    DEFAULT_STATE_CAP,
    Lts,
    Renders,
    _build,
    build_lts,
    build_union,
    undo_steps,
)
from .syntax import render
from .terms import (
    BrsProcess,
    Choice,
    Par,
    Prefix,
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
    keeps a function giving the union system and its stable blocks, and the
    first read of ``witness`` calls it, checks the blocks with
    :func:`verify_partition` and renders them; a partition that fails the
    check raises :class:`WitnessCheckError`.  When :func:`check` quotiented
    the leaves, that first read builds the unquotiented union, which can
    exceed the budget the quotient kept to and raise
    :class:`StateBudgetError`.
    Verdicts are immutable by contract and compare by their four fields,
    so ``==``, ``hash`` and ``repr`` read ``witness`` and can raise the
    same errors.
    """

    __slots__ = ("equivalent", "variant", "counterexample", "_witness", "_partition")

    def __init__(self, equivalent: bool, variant: Variant,
                 witness: tuple[tuple[str, ...], ...] | None = None,
                 counterexample: Counterexample | None = None):
        self.equivalent = equivalent
        self.variant = variant
        self.counterexample = counterexample
        self._witness = witness
        self._partition = None

    @classmethod
    def _from_partition(cls, variant: Variant, partition) -> Verdict:
        verdict = cls(True, variant)
        verdict._partition = partition
        return verdict

    @property
    def witness(self) -> tuple[tuple[str, ...], ...] | None:
        if self._partition is not None:
            lts, blocks = self._partition()
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


def _describe_split(left: str, right: str, variant: Variant, split) -> Counterexample:
    """The counterexample for the pair, rendered ``left`` and ``right``,
    that ``split`` (from :func:`refine`) separates.

    Only observations are read: the direction whose sets differ and the
    least differing observation.  Block ids serve only to tell the sets
    apart, so any consistent numbering of the blocks gives the same text.
    """
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


def _leaves(p):
    """The non-parallel operands of the parallel compositions in ``p``."""
    if type(p) is Par:
        for side in (p.left, p.right):
            if type(side) is Par:
                yield from _leaves(side)
            else:
                yield side


def _sequential(p) -> bool:
    """Whether ``p`` has no parallel composition.  Its system then has one
    state per prefix and one more, so building it costs no more than the
    term's size."""
    while type(p) is Prefix:
        p = p.cont
    if type(p) is Choice:
        return _sequential(p.left) and _sequential(p.right)
    return type(p) is not Par


def _leaf_classes(roots: list, variant: Variant, max_states: int) -> dict:
    """Each sequential leaf of ``roots`` quotiented by ``variant``'s
    bisimilarity.

    A leaf's system is built and refined once.  Each class is represented
    by its first state, so an initial leaf represents its own class, and
    its steps are the images of all its states' transitions, one per
    observation and target class.  A leaf whose quotient is not smaller,
    whose system exceeds ``max_states``, or that is itself a root keeps its
    states.  So does a leaf with a parallel composition inside: its system
    can be exponential in its size while a synchronization set keeps the
    product from reaching most of it.  Returns the map from each state of
    a quotiented leaf to its class, a pair of its representative and its
    steps, that :func:`~revexp.semantics._build` takes.
    """
    classes: dict = {}
    done = set(roots)
    for leaf in (leaf for root in roots for leaf in _leaves(root)):
        if leaf in done or not _sequential(leaf):
            continue
        done.add(leaf)
        try:
            lts = build_lts(leaf, max_states)
        except StateBudgetError:
            continue
        blocks, _ = refine(lts, variant)
        first: dict[int, int] = {}
        for sid, bid in enumerate(blocks):
            first.setdefault(bid, sid)
        if len(first) == lts.num_states:
            continue
        terms = list(lts.terms)
        members = {bid: (terms[sid], []) for bid, sid in first.items()}
        seen = set()
        for source, theta, o, target in zip(lts.source, lts.proof, lts.obs, lts.target):
            image = (blocks[source], o, blocks[target])
            if image not in seen:
                seen.add(image)
                members[image[0]][1].append((theta, o, members[image[2]][0]))
        classes.update((t, members[bid]) for t, bid in zip(terms, blocks))
    return classes


def _reached(p) -> bool:
    """Whether ``p`` is reachable, by a greedy undo walk.

    Every incoming transition of a reachable state comes from a reachable
    state, and a reachable state that is not initial has one, so any path
    of undo steps from a reachable ``p`` ends in its initial version; none
    does from an unreachable one.
    """
    while not p.initial:
        steps = undo_steps(p)
        if not steps:
            return False
        p = steps[0][1]
    return True


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


def _stable(x1, x2, variant: Variant, max_states: int) -> tuple[Lts, list[int]]:
    """The union of ``x1`` and ``x2`` and its stable partition."""
    union, _, _ = _union(x1, x2, max_states)
    return union, refine(union, variant)[0]


def _check_on(x1, x2, variant: Variant, max_states: int) -> Verdict:
    """Decide on the union of ``x1`` and ``x2``, with each sequential leaf
    quotiented by a forward variant's bisimilarity when that makes it
    smaller.

    Under FB, FB:ps and FRB a leaf's classes agree on forward observations,
    so the quotient's closure is the image of the union's, and the map to
    it is a functional bisimulation: it keeps every round partition, and so
    the separating round and its signatures' observations.  An RB class
    agrees only on incoming observations, so RB decides on the union
    itself.  The quotient cannot tell which states are reachable, nor name
    a state's term, so a root's reachability comes from an undo walk, a
    counterexample is rendered from ``x1`` and ``x2``, and a witness from
    the union, built when first read.
    """
    roots = [to_initial(x1), to_initial(x2)]
    classes = _leaf_classes(roots, variant, max_states) if variant.forward else {}
    if not classes:
        system, s1, s2 = _union(x1, x2, max_states)
    else:
        system = _build([[root] for root in roots], max_states, classes)
        for x in (x1, x2):
            if not _reached(x):
                raise NotReachableError(f"{render(x)} is not reachable")
        s1, s2 = system.index[x1], system.index[x2]
    blocks, split = refine(system, variant, watch=(s1, s2))
    if blocks[s1] == blocks[s2]:
        if classes:
            return Verdict._from_partition(
                variant, lambda: _stable(x1, x2, variant, max_states))
        return Verdict._from_partition(variant, lambda: (system, blocks))
    left, right = Renders((x1, x2))  # as the union's own renders read them
    return Verdict(False, variant,
                   counterexample=_describe_split(left, right, variant, split))


def check(p1: Process, p2: Process, variant: Variant,
          max_states: int = DEFAULT_STATE_CAP) -> Verdict:
    """Decide whether two reachable processes are equivalent under ``variant``.

    ``max_states`` bounds the states the check builds for each process:
    the states of its leaf-quotiented system when the check quotients (see
    :func:`_check_on`; a leaf whose own system exceeds the budget is not
    quotiented), otherwise those of its system.  An equivalent verdict's
    witness is read off the unquotiented union, which its first read
    builds under the same budget when the check quotiented.
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
