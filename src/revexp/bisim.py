"""Decision procedures for the four equivalences, with witnesses.

Under a one-block seed a state's signature is its ready sets: the actions
it can fire, and those it can undo to a reachable state, which the walk
that refuses an unreachable process gives
(:func:`~revexp.semantics.require_reachable`).  So a pair whose
signatures under the seed differ is answered by :func:`check` from the
two processes alone, before anything is built, and the state budget
bounds nothing for it.  Any other pair is decided by partition refinement
on the states its variant's signatures read.
A backward signature reads only incoming transitions, so :func:`check`
and :func:`check_brs` decide RB on the undo cone of their two processes,
the reachable states that can reach either; a forward one reads only
outgoing transitions, so FB and FB:ps are decided on the two processes'
forward closure.  FRB reads both, and is decided on the union that closes
the two initial versions root by root, in which a state both reach is one
state.  Every incoming transition of a reachable state
originates from a reachable state, so refining the union is sound, and
its round partitions restricted to a cone or a closure are that system's
own.  Under FB, FB:ps and FRB, :func:`check` also quotients each
sequential leaf of a product (an operand of a parallel composition with
no parallel composition inside) by the variant's bisimilarity and decides
on the product of the quotients, which keeps every round partition too
(Graf & Steffen's compositional minimisation; see :func:`check`).  An
equivalent verdict's witness is the stable partition of the union.  Each
transition is observed through the system's ``obs`` column: its action,
or for a ready-set system its action with its sorted fired ready set.
Signatures are deduplicated per state: matching in the transfer clauses
is existential per observation, so the multiplicity of equally labeled
transitions must not split blocks.

Every forward step executes a prefix, so the forward steps of a system
form a DAG, and refinement finds the stable partition in a few sweeps over
it: one sweep in topological order (as
:func:`~revexp.semantics._forward_order` gives it) gives the coarsest
refinement that is stable in one direction, and sweeps alternate between
the variant's directions until neither splits a block (Dovier, Piazza &
Policriti 2004).  A pair that the stable partition separates is explained
by the rounds of the signature loop (each round splits every block by its
states' signatures under the last partition), run from the seed to the
first round that separates the pair; the pair's two signatures under the
round before explain the verdict.  Every watched pair is swept first:
:func:`check` has already answered a pair that round 1 separates, before
building anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import cycle

from .errors import NotReachableError, StateBudgetError, WitnessCheckError
from .semantics import (
    DEFAULT_STATE_CAP,
    Lts,
    _build,
    _forward_order,
    _undo_cone,
    build_lts,
    build_union,
    require_reachable,
)
from .syntax import render
from .terms import (
    BrsProcess,
    Choice,
    Par,
    Prefix,
    Process,
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
    check raises :class:`WitnessCheckError`.  When a decider decided
    on an undo cone, a forward closure or a quotient, that first read
    builds the union, which can exceed the budget the check kept to and
    raise :class:`StateBudgetError`.
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


def _sweep(lts: Lts, blocks: list[int], order: list[int], forward: bool):
    """One sweep over ``order``: the coarsest refinement of ``blocks``
    that is stable in one direction, and its number of blocks.

    A forward sweep reads outgoing steps in reverse topological order, a
    backward one incoming steps in topological order, so the ends of a
    state's steps have their new ids before the state, which gets the id
    of its block under ``blocks`` and its (observation, new id) set.
    """
    edges, end = (lts.outgoing, lts.target) if forward else (lts.incoming_ids, lts.source)
    obs = lts.obs
    new = [0] * len(blocks)
    ids: dict = {}
    for s in order:
        new[s] = ids.setdefault(
            (blocks[s], frozenset([(obs[i], new[end[i]]) for i in edges[s]])), len(ids))
    return new, len(ids)


def refine(lts: Lts, variant: Variant, watch: tuple[int, int] | None = None):
    """Coarsest stable partition; optionally reports the step splitting ``watch``.

    Returns ``(blocks, split)`` where ``blocks`` maps state id to block id.
    The seed is all states together, or split by initiality for FB:ps.

    The forward steps form a DAG (see
    :func:`~revexp.semantics._forward_order`), so the coarsest refinement
    of a partition that is stable in one direction takes one sweep
    (:func:`_sweep`; Dovier, Piazza & Policriti 2004).  Sweeps alternate
    between the variant's directions from the seed.  A sweep's result is
    stable in its direction, and coarser than or equal to the stable
    partition; once a sweep after one in the other direction splits
    nothing, the partition is stable both ways.  FB, FB:ps and RB take one
    sweep.

    With ``watch``, ``split`` is ``None`` when the pair shares a block of
    the stable partition.  Otherwise ``refine`` returns what
    :func:`_rounds` gives: the partition of the first round that separates
    the pair with ``split = (sig_left, sig_right)``, the pair's signatures
    under the round before, or the seed with ``split = ((), ())`` when the
    seed separates the pair.  A watched pair is swept like any other:
    :func:`check` answers a pair that round 1 separates before it builds
    anything, so only :func:`check_brs` brings such a pair here.

    Blocks are numbered by their first state; when nothing splits, the
    seed comes back unchanged.
    """
    n = lts.num_states
    if variant.past_sensitive:
        seed = [1 if lts.initial[s] else 0 for s in range(n)]
    else:
        seed = [0] * n
    order = _forward_order(lts)
    orders = {True: order[::-1], False: order}
    directions = [forward for forward, on in ((True, variant.forward),
                                              (False, variant.backward)) if on]
    blocks = seed
    count = seeded = len(set(seed))
    stable_ways = 0  # the directions the last sweeps found blocks stable in
    for forward in cycle(directions):
        blocks, last = _sweep(lts, blocks, orders[forward], forward)
        stable_ways = stable_ways + 1 if last == count else 1
        count = last
        if stable_ways == len(directions):
            break
    if watch is not None and blocks[watch[0]] != blocks[watch[1]]:
        return _rounds(lts, variant, seed, watch)
    if count == seeded:
        return seed, None
    ids: dict[int, int] = {}
    return [ids.setdefault(b, len(ids)) for b in blocks], None


def _rounds(lts: Lts, variant: Variant, seed: list[int], watch: tuple[int, int]):
    """The round-based refinement from ``seed`` to the first round that
    separates the pair ``watch``, which the stable partition separates.

    The partitions P0, P1, ... are those of the round-based loop: P0 is
    the seed, and P(k+1) keys each state by its block of Pk and its
    signature under Pk, its blocks numbered by their first state.
    Returns that round's partition and ``(sig_left, sig_right)``, the
    pair's two signatures under the round before, or the seed and
    ``((), ())`` when the seed separates the pair.
    """
    if seed[watch[0]] != seed[watch[1]]:
        return seed, ((), ())  # separated by the initiality seed itself
    blocks = seed
    while True:
        signature = _signature_of(lts, blocks, variant)
        ids: dict = {}
        # the signatures are not kept in a list: holding every state's makes
        # the cyclic garbage collector walk them all, which doubled a round
        new = [ids.setdefault((b, signature(s)), len(ids)) for s, b in enumerate(blocks)]
        if new[watch[0]] != new[watch[1]]:
            return new, (signature(watch[0]), signature(watch[1]))
        blocks = new


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
    # the pair shares a block of the round before, so its signatures
    # differ in some direction
    direction, part1, part2 = next(
        (direction, a, b)
        for direction, a, b in zip(directions, map(set, sig1), map(set, sig2)) if a != b)
    obs, _ = min(part1 ^ part2, key=repr)
    obs_text = obs if isinstance(obs, str) else f"{obs[0]} / {{{','.join(obs[1])}}}"
    only_left = (obs in {o for o, _ in part1}) != (obs in {o for o, _ in part2})
    if only_left:
        detail = f"a {direction} transition labeled {obs_text!r} exists on one side only"
    else:
        detail = (
            f"{direction} transitions labeled {obs_text!r} reach inequivalent states"
        )
    return Counterexample(left, right, direction, obs_text, detail)


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


def _union(x1, x2, max_states: int) -> tuple[Lts, int, int]:
    """The union that FRB and every witness read, and
    the states of ``x1`` and ``x2`` in it.

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


def _seed_split(p1: Process, p2: Process, variant: Variant, undone: list[frozenset[str]]):
    """The signatures of the reachable ``p1`` and ``p2`` under a one-block
    seed, up to the first direction in which they differ, or ``None`` when
    they agree.  ``undone`` holds their backward ready sets, as
    :func:`~revexp.semantics.require_reachable` gives them.

    Such a signature reads only a state's own steps, with every end in
    block 0: the forward part is its ready set :func:`~revexp.terms.frs`,
    the backward part the actions of its undo steps that land on a
    reachable state, which are those of its incoming transitions.  So
    these are the pair's signatures under the seed of any system that
    holds both.  Under FB:ps they are the signatures of a pair that agrees
    on initiality, as every forward step fires a prefix and reaches a
    non-initial state, of block 0.
    """
    sig1, sig2 = (), ()
    sets = ([(frs(p1), frs(p2))] if variant.forward else []) + ([undone] if variant.backward else [])
    for ready1, ready2 in sets:
        sig1 += (frozenset((a, 0) for a in ready1),)
        sig2 += (frozenset((a, 0) for a in ready2),)
        if sig1[-1] != sig2[-1]:
            return sig1, sig2
    return None


def check(p1: Process, p2: Process, variant: Variant,
          max_states: int = DEFAULT_STATE_CAP) -> Verdict:
    """Decide whether two reachable processes are equivalent under ``variant``.

    Both processes must be reachable.  One walk of each
    (:func:`~revexp.semantics.require_reachable`) refuses an unreachable
    process with :class:`NotReachableError`, before anything is built and
    so before a budget is exceeded, and gives its backward ready set.  A
    pair whose signatures under the seed differ is answered next, before
    anything is built: under FB:ps by the two processes' initiality, then
    by their ready sets (:func:`_seed_split`), which are those signatures
    in any system that holds both, so the counterexample is the one
    :func:`refine` gives there.  No system is decided on, so
    ``max_states`` (the CLI's ``REVEXP_STATE_CAP``) bounds nothing for
    such a pair.

    Any other pair is decided on a system.  RB is decided on the undo cone
    of ``p1`` and ``p2``: a backward signature reads only incoming
    transitions, and in the union each leaves from a reachable state that
    can reach its target.  FB and FB:ps are decided on the
    forward closure of ``p1`` and ``p2``, as a forward signature reads
    only outgoing transitions and the FB:ps seed a state's own initiality.
    So the union's round partitions, restricted to the cone or closure,
    are the cone's or closure's own, and the separating round and its
    signatures' observations are the same.  FRB reads both directions and
    is decided on the union.

    Under FB, FB:ps and FRB each sequential leaf is quotiented by the
    variant's bisimilarity when that makes it smaller.  A leaf's classes
    agree on forward observations, so the quotient's closure is the image
    of the unquotiented one, and the map to it is a functional
    bisimulation: it keeps every round partition too.  A leaf whose own
    system exceeds the budget is not quotiented.

    ``max_states`` bounds the states each process adds to the system
    decided on.  Neither a cone, a closure nor a quotient names every
    state of the union, so a counterexample is rendered from ``p1`` and
    ``p2``, and an equivalent verdict's witness is read off the union,
    which its first read builds under the same budget unless the check
    decided on that union.
    """
    undone = [require_reachable(p) for p in (p1, p2)]
    if variant.past_sensitive and p1.initial != p2.initial:
        split = ((), ())
    else:
        split = _seed_split(p1, p2, variant, undone)
    if split is not None:
        return Verdict(False, variant, counterexample=_describe_split(
            render(p1), render(p2), variant, split))
    return _decide(p1, p2, variant, max_states)


def check_brs(u1: BrsProcess, u2: BrsProcess, variant: Variant,
              max_states: int = DEFAULT_STATE_CAP) -> Verdict:
    """Decide reverse or forward-reverse equivalence over ready-set processes.

    As :func:`check` decides a pair that round 1 keeps together: an
    unreachable process is refused before anything is built, RB is decided
    on the undo cone and FRB on the union.  A pair that round 1 separates
    is refined too, so its counterexample is the one :func:`_rounds` gives.
    """
    if not variant.backward:
        raise ValueError("ready-set systems are compared under RB or FRB only")
    for u in (u1, u2):
        require_reachable(u)
    return _decide(u1, u2, variant, max_states)


def _decide(x1, x2, variant: Variant, max_states: int) -> Verdict:
    """Decide the reachable ``x1`` and ``x2`` on the system that
    ``variant`` reads, watching their states, as :func:`check` describes."""
    roots = [to_initial(x1), to_initial(x2)]
    witness = partial(_stable, x1, x2, variant, max_states)
    if variant is Variant.RB:
        system = _undo_cone([[x1], [x2]], max_states)
    else:
        starts = roots if variant.backward else [x1, x2]
        groups = [[p] for p in starts]
        classes = _leaf_classes(roots, variant, max_states)
        if classes:
            system = _build(groups, max_states, classes)
        else:
            system = build_union(groups, max_states)
            if starts == roots:  # the union itself
                witness = None
    s1, s2 = system.index[x1], system.index[x2]
    blocks, split = refine(system, variant, watch=(s1, s2))
    if blocks[s1] == blocks[s2]:
        return Verdict._from_partition(variant, witness or (lambda: (system, blocks)))
    return Verdict(False, variant, counterexample=_describe_split(
        render(x1), render(x2), variant, split))


def necessary_check(p1: Process, p2: Process, variant: Variant) -> bool:
    """Fast refutation filter: whether round 1 from a one-block seed keeps
    the pair together, which is equality of the variant's ready sets (see
    :func:`_seed_split`).  Under FB:ps it reads the forward ready sets and
    not initiality.  Only reachable processes have a round 1 to agree with,
    so an unreachable one is refused as :func:`check` refuses it."""
    if not (is_wellformed(p1) and is_wellformed(p2)):
        raise NotReachableError("necessary_check requires well-formed processes")
    undone = [require_reachable(p) for p in (p1, p2)]
    return _seed_split(p1, p2, variant, undone) is None


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
