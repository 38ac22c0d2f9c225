"""Proved transition relations and finite labeled transition systems.

A single symmetric transition relation realizes the loop property: a forward
transition from ``P`` to ``P'`` is also the backward (incoming) transition of
``P'``.  Every forward step flips exactly one executed flag, so the reachable
state space of any term is finite and :func:`build_lts` terminates.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import NotReachableError, StateBudgetError, UnknownStateError
from .syntax import render, render_proof
from .terms import (
    Act,
    BrsPrefix,
    BrsProcess,
    Choice,
    Dot,
    Nil,
    Par,
    ParL,
    ParR,
    PlusL,
    PlusR,
    Prefix,
    Process,
    ProofTerm,
    Syn,
    act,
    display_order,
    is_initial,
    is_wellformed,
    to_initial,
    touch,
)

DEFAULT_STATE_CAP = 10**6


def forward_steps(p: Process) -> list[tuple[ProofTerm, Process]]:
    """All proved transitions of ``p``, in a fixed derivation order.

    An unexecuted prefix fires only over an initial continuation and becomes
    executed; an executed prefix propagates inner moves under a dot marker;
    a choice side moves only while the other side is initial; parallel sides
    move independently outside the synchronization set and jointly on equal
    actions inside it.  Order: prefix rules, then left choice, right choice,
    left par, right par, synchronizations (left-major).
    """
    return [(theta, q) for theta, _, q in _steps(p, False)]


def undo_steps(p: Process) -> list[tuple[ProofTerm, Process]]:
    """The incoming transitions of ``p``, viewed backward.

    By the loop property these are the forward rules read from target to
    source: an executed prefix over an initial continuation is undone, and
    every other rule is the forward one.  Each pair is a proof and the
    predecessor it leaves from, in the derivation order of
    :func:`forward_steps`.  An ill-formed process has none.
    """
    if not p.wellformed:
        return []
    return [(theta, q) for theta, _, q in _steps(p, True)]


def _steps(p: Process, back: bool,
           memo: dict | None = None) -> list[tuple[ProofTerm, str, Process]]:
    """Forward steps of ``p``, or its backward steps when ``back`` is set.

    Each step is a triple of proof, action and other endpoint; the action
    is read off the prefix that fires, so no caller walks the proof for it.
    Only the prefix rule depends on the direction: a forward step fires an
    unexecuted prefix, a backward step undoes an executed one, in both cases
    over an initial continuation; otherwise an executed prefix propagates
    the moves of its continuation.

    ``memo``, when given, maps each node already visited in this direction
    to its steps, so a subterm shared by many states computes its moves
    once.  Plain nodes are hash-consed, so the key is the node's identity.
    Memoized lists are shared: callers must not mutate them.
    """
    if memo is not None:
        steps = memo.get(p)
        if steps is not None:
            return steps
    if isinstance(p, Nil):
        steps = []
    elif isinstance(p, Prefix):
        if p.executed == back and p.cont.initial:
            steps = [(Act(p.action), p.action, Prefix(p.action, not back, p.cont))]
        elif not p.executed:
            steps = []
        else:
            steps = [
                (Dot(theta), a, Prefix(p.action, True, cont))
                for theta, a, cont in _steps(p.cont, back, memo)
            ]
    elif isinstance(p, Choice):
        steps = []
        if p.right.initial:
            steps.extend(
                (PlusL(theta), a, Choice(left, p.right))
                for theta, a, left in _steps(p.left, back, memo)
            )
        if p.left.initial:
            steps.extend(
                (PlusR(theta), a, Choice(p.left, right))
                for theta, a, right in _steps(p.right, back, memo)
            )
    else:
        sync = p.sync
        lsteps = _steps(p.left, back, memo)
        rsteps = _steps(p.right, back, memo)
        steps = [
            (ParL(theta), a, Par(sync, left, p.right))
            for theta, a, left in lsteps
            if a not in sync
        ]
        steps.extend(
            (ParR(theta), a, Par(sync, p.left, right))
            for theta, a, right in rsteps
            if a not in sync
        )
        if sync:
            for theta1, a, left in lsteps:
                if a not in sync:
                    continue
                for theta2, a2, right in rsteps:
                    if a2 == a:
                        steps.append((Syn(theta1, theta2), a, Par(sync, left, right)))
    if memo is not None:
        memo[p] = steps
    return steps


def brs_forward_steps(
    u: BrsProcess,
) -> list[tuple[tuple[ProofTerm, tuple[str, ...]], BrsProcess]]:
    """Transitions of a ready-set process; labels carry the fired ready set,
    in the order :func:`~revexp.syntax.render` of ``u`` displays it."""
    return _brs_steps(u, ())


def _brs_steps(u: BrsProcess, recency: tuple[str, ...]):
    if isinstance(u, Nil):
        return []
    if isinstance(u, BrsPrefix):
        recency = touch(recency, u.action)
        if not u.executed:
            if is_initial(u.cont):
                fired = BrsPrefix(u.action, True, u.ready, u.cont, proof=u.proof)
                return [((Act(u.action), display_order(u.ready, recency)), fired)]
            return []
        return [
            ((Dot(theta), ready), BrsPrefix(u.action, True, u.ready, cont, proof=u.proof))
            for (theta, ready), cont in _brs_steps(u.cont, recency)
        ]
    steps: list[tuple[tuple[ProofTerm, tuple[str, ...]], BrsProcess]] = []
    if is_initial(u.right):
        steps.extend(
            ((PlusL(theta), ready), Choice(left, u.right))
            for (theta, ready), left in _brs_steps(u.left, recency)
        )
    if is_initial(u.left):
        steps.extend(
            ((PlusR(theta), ready), Choice(u.left, right))
            for (theta, ready), right in _brs_steps(u.right, recency)
        )
    return steps


def is_reachable(p: Process, cap: int = DEFAULT_STATE_CAP) -> bool:
    """Replay forward steps from the initial version of ``p`` until it shows up.

    Terms are hash-consed, so states are compared by identity; the seen
    table maps ``id`` to the node, which keeps the ids unique.
    """
    if not is_wellformed(p):
        return False
    start = to_initial(p)
    if start is p:
        return True
    seen = {id(start): start}
    frontier = [start]
    while frontier:
        q = frontier.pop()
        for _, _, nxt in _steps(q, False):
            if nxt is p:
                return True
            if id(nxt) in seen:
                continue
            if len(seen) >= cap:
                raise StateBudgetError(f"state budget of {cap} states exceeded")
            seen[id(nxt)] = nxt
            frontier.append(nxt)
    return False


@dataclass(frozen=True, slots=True)
class Transition:
    """A proved transition; ``action`` is the action of ``label``."""

    source: int
    label: ProofTerm
    action: str
    target: int


@dataclass(frozen=True, slots=True)
class BrsTransition:
    """A ready-set transition; ``action`` is the action of ``proof``."""

    source: int
    proof: ProofTerm
    ready: tuple[str, ...]
    action: str
    target: int


class Renders(Sequence):
    """The text of every state of a system, each rendered on first read."""

    __slots__ = ("_terms", "_texts")

    def __init__(self, terms: list):
        self._terms = terms
        self._texts: list[str | None] = [None] * len(terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __getitem__(self, sid: int) -> str:
        text = self._texts[sid]
        if text is None:
            text = self._texts[sid] = render(self._terms[sid])
        return text

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


class Transitions(Sequence):
    """Every transition of a system as a record, each built when it is read.

    A proved system gives :class:`Transition` records, a ready-set system
    :class:`BrsTransition` records; the system itself keeps only columns.
    """

    __slots__ = ("_lts",)

    def __init__(self, lts: Lts):
        self._lts = lts

    def __len__(self) -> int:
        return len(self._lts.source)

    def __getitem__(self, i: int | slice):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        lts = self._lts
        if lts.kind == "proved":
            return Transition(lts.source[i], lts.label[i], lts.action[i], lts.target[i])
        proof, ready = lts.label[i]
        return BrsTransition(lts.source[i], proof, ready, lts.action[i], lts.target[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


@dataclass
class Lts:
    """Finite proved transition system with interned states.

    ``kind`` is ``"proved"`` for plain processes and ``"brs"`` for ready-set
    processes.  ``index`` maps each state to its number by the node's hash
    and ``==``: identity for hash-consed plain processes, structural
    equality (which ignores proofs) for ready-set processes.  States
    are numbered breadth first, one group of roots after another (see
    :func:`build_union`), so construction is deterministic.  ``renders``
    holds the states' texts, rendered when first read.

    Transitions are stored as columns indexed by transition id: ``source``,
    ``target``, ``action`` and ``label``, which holds the proof of a proved
    transition and the pair of proof and fired ready set of a ready-set
    one.  ``outgoing`` and ``incoming_ids`` list each state's transition
    ids.  ``transitions`` views the columns as a read-only sequence of
    records, built only when read.
    """

    kind: str
    root: int
    terms: list
    initial: list[bool]
    source: list[int] = field(repr=False)
    target: list[int] = field(repr=False)
    action: list[str] = field(repr=False)
    label: list = field(repr=False)
    outgoing: list[list[int]] = field(repr=False)
    incoming_ids: list[list[int]] = field(repr=False)
    index: dict = field(default_factory=dict, repr=False)
    renders: Renders = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.renders = Renders(self.terms)

    @property
    def transitions(self) -> Transitions:
        return Transitions(self)

    @property
    def num_states(self) -> int:
        return len(self.terms)

    def state_of(self, term) -> int:
        sid = self.index.get(term)
        if sid is None:
            raise UnknownStateError(f"{render(term)} is not a state of this system")
        return sid


def _build(kind: str, groups: list[list], max_states: int) -> Lts:
    """Close each group of roots under forward steps, one group after another.

    A group's roots are numbered first, then its new states breadth first;
    the next group starts only once the last is closed, and a state already
    met in an earlier group is that group's state.  ``max_states`` bounds
    the states each group adds.

    A proved build memoizes the steps of every node it meets, for this
    build only; ready-set steps are not memoized, because the order in which
    a subterm's labels display its ready sets depends on the path above it.
    """
    if kind == "proved":
        memo: dict = {}

        def step_fn(p):
            return _steps(p, False, memo)
    elif kind == "brs":
        def step_fn(u):
            return [(label, act(label[0]), target)
                    for label, target in brs_forward_steps(u)]
    else:
        raise ValueError(f"unknown system kind {kind!r}")
    terms = []
    index: dict = {}
    source: list[int] = []
    target_ids: list[int] = []
    actions: list[str] = []
    labels: list = []
    outgoing: list[list[int]] = []
    incoming_ids: list[list[int]] = []
    sid = 0
    for group in groups:
        first = len(terms)
        for root in group:
            if not is_wellformed(root):
                raise NotReachableError(f"{render(root)} is not well-formed")
            if root in index:
                continue
            index[root] = len(terms)
            terms.append(root)
            outgoing.append([])
            incoming_ids.append([])
        while sid < len(terms):
            out = outgoing[sid]
            for label, a, target in step_fn(terms[sid]):
                tid = index.get(target)
                if tid is None:
                    if len(terms) - first >= max_states:
                        raise StateBudgetError(
                            f"state budget of {max_states} states exceeded"
                        )
                    tid = len(terms)
                    index[target] = tid
                    terms.append(target)
                    outgoing.append([])
                    incoming_ids.append([])
                tr_id = len(source)
                source.append(sid)
                target_ids.append(tid)
                actions.append(a)
                labels.append(label)
                out.append(tr_id)
                incoming_ids[tid].append(tr_id)
            sid += 1
    initial = [t.initial for t in terms]
    return Lts(kind, 0, terms, initial, source, target_ids, actions, labels,
               outgoing, incoming_ids, index)


def build_lts(root: Process, max_states: int = DEFAULT_STATE_CAP) -> Lts:
    """Close ``root`` under forward steps.  Callers normally pass an initial term."""
    return _build("proved", [[root]], max_states)


def build_brs_lts(root: BrsProcess, max_states: int = DEFAULT_STATE_CAP) -> Lts:
    return _build("brs", [[root]], max_states)


def build_union(groups: list[list], kind: str = "proved",
                max_states: int = DEFAULT_STATE_CAP) -> Lts:
    """One system closing each group of roots in turn, with shared interning.

    States are numbered group by group: a group's roots, then the states
    they reach that no earlier group reached, breadth first.  A state
    reached from two groups is one state.  So when ``r1`` and ``r2`` reach
    no common state, the union of ``[[r1], [r2]]`` holds the states of
    ``build_lts(r1)`` and then those of ``build_lts(r2)``, each in its own
    order; one group ``[roots]`` numbers all the roots first.
    ``max_states`` bounds the states each group adds.
    """
    return _build(kind, groups, max_states)


def incoming(lts: Lts, sid: int):
    """All transitions whose target is ``sid`` (the state's backward moves)."""
    if not 0 <= sid < lts.num_states:
        raise UnknownStateError(f"no state {sid} in a {lts.num_states}-state system")
    return [lts.transitions[i] for i in lts.incoming_ids[sid]]


def _edge_label(lts: Lts, t) -> str:
    if lts.kind == "proved":
        return render_proof(t.label)
    return f"{render_proof(t.proof)} / {{{','.join(t.ready)}}}"


def export(lts: Lts, fmt: str = "dot") -> str:
    """Serialize as a DOT digraph or as the JSON interchange schema."""
    if fmt == "dot":
        lines = ["digraph lts {"]
        for sid in range(lts.num_states):
            shape = ", shape=doublecircle" if sid == lts.root else ""
            lines.append(f'  n{sid} [label="{lts.renders[sid]}"{shape}];')
        for t in lts.transitions:
            src = t.source
            dst = t.target
            lines.append(f'  n{src} -> n{dst} [label="{_edge_label(lts, t)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        states = [
            {"id": sid, "term": lts.renders[sid], "initial": lts.initial[sid]}
            for sid in range(lts.num_states)
        ]
        transitions = []
        for t in lts.transitions:
            entry = {"src": t.source, "dst": t.target}
            if lts.kind == "proved":
                entry["proof"] = render_proof(t.label)
            else:
                entry["proof"] = render_proof(t.proof)
                entry["ready"] = list(t.ready)
            transitions.append(entry)
        return json.dumps(
            {"root": lts.root, "states": states, "transitions": transitions},
            indent=2,
        )
    raise ValueError(f"unknown export format {fmt!r}")
