"""Proved transition relations and finite labeled transition systems.

A single symmetric transition relation realizes the loop property: a forward
transition from ``P`` to ``P'`` is also the backward (incoming) transition of
``P'``.  Every forward step flips exactly one executed flag, so the reachable
state space of any term is finite and :func:`build_lts` terminates.
Ready-set processes step by the same rules; a step's observation is its
action, extended with the fired prefix's ready set on a ready-set process.

A proof label ``ParL``, ``ParR`` or ``Syn`` names the operand that moved, so
the system of ``P |[S]| Q`` is the synchronized product of the systems of
``P`` and ``Q``.  A build uses that: it numbers the non-parallel subterms it
meets and the pairs of operand states of each parallel position, steps a
pair by combining its operands' steps, and builds a state's term only when
it is read (:class:`_Nodes`, :func:`_build`).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import NotReachableError, StateBudgetError, UnknownStateError
from .syntax import fired_ready, render, render_proof
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
    ProcessLike,
    ProofTerm,
    Syn,
    is_wellformed,
    to_initial,
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


def _steps(p: ProcessLike, back: bool,
           memo: dict | None = None) -> list[tuple[ProofTerm, object, ProcessLike]]:
    """Forward steps of ``p``, or its backward steps when ``back`` is set.

    Each step is a triple of proof, observation and other endpoint.  The
    observation is what bisimilarity compares, made once here: the action
    of the prefix that fires, or for a ready-set prefix the action with the
    prefix's sorted ready set.  Only the prefix rule depends on the
    direction: a forward step fires an unexecuted prefix, a backward step
    undoes an executed one, in both cases over an initial continuation;
    otherwise an executed prefix propagates the moves of its continuation.
    Ready-set processes are only stepped forward.

    ``memo``, when given, maps each node already visited in this direction
    to its steps, so a subterm shared by many states computes its moves
    once.  Plain nodes are hash-consed, so the key is the node's identity;
    ready-set nodes are compared structurally.  Memoized lists are shared:
    callers must not mutate them.
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
    elif isinstance(p, BrsPrefix):
        if p.executed:
            steps = [
                (Dot(theta), o, BrsPrefix(p.action, True, p.ready, cont, p.proof, p.state))
                for theta, o, cont in _steps(p.cont, back, memo)
            ]
        elif p.cont.initial:
            steps = [(Act(p.action), (p.action, tuple(sorted(p.ready))),
                      BrsPrefix(p.action, True, p.ready, p.cont, p.proof, p.state))]
        else:
            steps = []
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
    return [((theta, fired_ready(u, theta)), q) for theta, _, q in _steps(u, False)]


def is_reachable(p: Process, cap: int = DEFAULT_STATE_CAP) -> bool:
    """Replay forward steps from the initial version of ``p`` until it shows up.

    Terms are hash-consed, so states are compared by identity; the seen
    table maps ``id`` to the node, which keeps the ids unique.  The answer
    of a finished search is kept on ``p``, and a later call returns it
    whatever its ``cap``; a search that exceeds ``cap`` raises
    :class:`StateBudgetError` and keeps nothing.
    """
    if not is_wellformed(p):
        return False
    start = to_initial(p)
    if start is p:
        return True
    if p._reach is None:
        p._reach = _replay_to(p, start, cap)
    return p._reach


def _replay_to(p: Process, start: Process, cap: int) -> bool:
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
    """A transition: its proof and observation (see :class:`Lts`)."""

    source: int
    proof: ProofTerm
    obs: object
    target: int


class _View(Sequence):
    """A read-only sequence whose items are made when read; it compares
    equal to any sequence with the same items."""

    __slots__ = ()

    def __getitem__(self, i: int | slice):
        if isinstance(i, slice):
            return [self._item(j) for j in range(*i.indices(len(self)))]
        return self._item(i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


class Renders(_View):
    """The text of every state of a system, each rendered on first read."""

    __slots__ = ("_terms", "_texts")

    def __init__(self, terms: Sequence):
        self._terms = terms
        self._texts: list[str | None] = [None] * len(terms)

    def __len__(self) -> int:
        return len(self._terms)

    def _item(self, sid: int) -> str:
        text = self._texts[sid]
        if text is None:
            text = self._texts[sid] = render(self._terms[sid])
        return text


class Transitions(_View):
    """Every transition of a system as a :class:`Transition` record, each
    built when it is read; the system itself keeps only columns."""

    __slots__ = ("_lts",)

    def __init__(self, lts: Lts):
        self._lts = lts

    def __len__(self) -> int:
        return len(self._lts.source)

    def _item(self, i: int) -> Transition:
        lts = self._lts
        return Transition(lts.source[i], lts.proof[i], lts.obs[i], lts.target[i])


class _Nodes:
    """The operand states of one build, numbered as they are met.

    A node is a leaf, a non-parallel term, or a pair of nodes under a
    synchronization set, a parallel position.  A leaf is keyed by its
    term: by identity for plain terms, which are hash-consed, and
    structurally for ready-set terms.  A pair is keyed by its parts
    ``(sync, left node, right node)``.  So equal terms are one node.  A
    parallel term the nodes keep (a root, or a term built or found) is
    also keyed by its identity and found again with one table probe; any
    other term is found with one probe per parallel operator and leaf,
    without building or hashing it.

    A node's steps have their targets as nodes: a leaf's come from
    :func:`_steps`, memoized for this build only, a pair's combine its
    operands' steps in the order of :func:`forward_steps` (left moves,
    right moves, then synchronizations, left-major), so no successor term
    is built.  An operand's steps are
    kept, as every pair of its states asks for them; a state's are
    computed once, when the build closes it, and not kept.  Each
    wrapped proof is made once, keyed by the identity of the proofs it
    wraps, which it keeps alive.  A pair's term is built on first read.
    ``sid`` gives each node's state id, ``None`` for a node that is only
    an operand.

    ``classes`` quotients leaves: it maps each state of a quotiented leaf
    to its class, a pair of the class's representative and the class's
    steps, whose targets are representatives too.  A representative takes
    its class's steps in place of its own, so only representatives become
    nodes, and a parallel term is found through its leaves' classes.  Only
    :func:`~revexp.bisim.check` passes a map that is not empty.
    """

    __slots__ = ("memo", "classes", "ids", "parts", "terms", "initial", "steps",
                 "sid", "par_l", "par_r", "syn")

    def __init__(self, classes: dict):
        self.memo: dict = {}  # the steps of each leaf term, and of its subterms
        self.classes = classes  # a quotiented leaf state -> (representative, steps)
        self.ids: dict = {}  # leaf key, pair parts or a kept term's id -> node
        self.parts: list[tuple | None] = []  # a pair's parts; None for a leaf
        self.terms: list = []  # a leaf's term; a pair's once built
        self.initial: list[bool] = []
        self.steps: dict[int, list] = {}  # the kept steps of operands
        self.sid: list[int | None] = []
        self.par_l: dict[int, ParL] = {}
        self.par_r: dict[int, ParR] = {}
        self.syn: dict[tuple[int, int], Syn] = {}

    def _add(self, key, parts, term, initial: bool) -> int:
        x = self.ids[key] = len(self.parts)
        self.parts.append(parts)
        self.terms.append(term)
        self.initial.append(initial)
        self.sid.append(None)
        return x

    def intern(self, p) -> int:
        """The node of ``p``, added with the nodes it is made of if missing.

        The nodes keep ``p``, so a parallel ``p`` is also keyed by its
        identity, as plain leaves are, and finding it again takes one probe.
        """
        key = id(p) if p.plain else p
        x = self.ids.get(key)
        if x is not None:
            return x
        if type(p) is not Par:
            return self._add(key, None, p, p.initial)
        l, r = self.intern(p.left), self.intern(p.right)
        parts = (p.sync, l, r)
        x = self.ids.get(parts)
        if x is None:
            x = self._add(parts, parts, p, self.initial[l] and self.initial[r])
        else:
            self.terms[x] = p
        self.ids[key] = x
        return x

    def find_pair(self, p: Par) -> int | None:
        """The node of the parallel term ``p``, found through its operands'
        nodes, or ``None``.  Pairs are plain, so the nodes key the terms
        they keep by identity; a term found is kept and keyed so, unless its
        node keeps one already (in a quotient a node stands for many terms)."""
        ids = self.ids
        l, r = p.left, p.right
        lx, rx = ids.get(id(l)), ids.get(id(r))
        if lx is None:
            lx = self.find_pair(l) if type(l) is Par else self._class_of(l)
        if rx is None:
            rx = self.find_pair(r) if type(r) is Par else self._class_of(r)
        x = ids.get((p.sync, lx, rx))  # no key holds None
        if x is not None and self.terms[x] is None:
            self.terms[x] = p
            ids[id(p)] = x
        return x

    def _class_of(self, p) -> int | None:
        """The node of the class of the leaf ``p``, or ``None``."""
        cls = self.classes.get(p)
        return None if cls is None else self.ids.get(id(cls[0]))

    def term(self, x: int):
        p = self.terms[x]
        if p is None:  # a pair: a plain term, so keyed by id
            sync, l, r = self.parts[x]
            p = self.terms[x] = Par(sync, self.term(l), self.term(r))
            self.ids[id(p)] = x
        return p

    def steps_of(self, x: int) -> list:
        steps = self.steps.get(x)
        if steps is not None:
            return steps
        parts = self.parts[x]
        if parts is not None:
            return self._pair_steps(*parts)
        ids, add = self.ids, self._add
        p = self.terms[x]
        cls = self.classes.get(p) if self.classes else None
        moves = _steps(p, False, self.memo) if cls is None else cls[1]
        steps = []
        for theta, o, q in moves:
            key = id(q) if q.plain else q
            y = ids.get(key)
            steps.append((theta, o, add(key, None, q, q.initial) if y is None else y))
        return steps

    def _operand_steps(self, x: int) -> list:
        steps = self.steps.get(x)
        if steps is None:
            steps = self.steps[x] = self.steps_of(x)
        return steps

    def _pair_steps(self, sync: tuple[str, ...], l: int, r: int) -> list:
        kept = self.steps
        lsteps, rsteps = kept.get(l), kept.get(r)
        if lsteps is None:
            lsteps = self._operand_steps(l)
        if rsteps is None:
            rsteps = self._operand_steps(r)
        ids, add, initial = self.ids, self._add, self.initial
        par_l, par_r = self.par_l, self.par_r
        steps = []
        for theta, a, l2 in lsteps:
            if a not in sync:
                label = par_l.get(id(theta))
                if label is None:
                    label = par_l[id(theta)] = ParL(theta)
                parts = (sync, l2, r)
                y = ids.get(parts)
                if y is None:
                    y = add(parts, parts, None, initial[l2] and initial[r])
                steps.append((label, a, y))
        for theta, a, r2 in rsteps:
            if a not in sync:
                label = par_r.get(id(theta))
                if label is None:
                    label = par_r[id(theta)] = ParR(theta)
                parts = (sync, l, r2)
                y = ids.get(parts)
                if y is None:
                    y = add(parts, parts, None, initial[l] and initial[r2])
                steps.append((label, a, y))
        if sync:
            syn = self.syn
            for theta1, a, l2 in lsteps:
                if a not in sync:
                    continue
                for theta2, a2, r2 in rsteps:
                    if a2 != a:
                        continue
                    label = syn.get((id(theta1), id(theta2)))
                    if label is None:
                        label = syn[id(theta1), id(theta2)] = Syn(theta1, theta2)
                    parts = (sync, l2, r2)
                    y = ids.get(parts)
                    if y is None:
                        y = add(parts, parts, None, initial[l2] and initial[r2])
                    steps.append((label, a, y))
        return steps

    def close(self) -> None:
        """Drop what only stepping needs, once the system is built."""
        self.memo = self.initial = self.steps = None
        self.par_l = self.par_r = self.syn = None


class Terms(_View):
    """The term of every state of a system, each built on first read."""

    __slots__ = ("_nodes", "_ids")

    def __init__(self, nodes: _Nodes, ids: list[int]):
        self._nodes = nodes
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def _item(self, sid: int):
        return self._nodes.term(self._ids[sid])

    def __iter__(self):
        return map(self._nodes.term, self._ids)


class StateIndex:
    """State ids by term.  A term is found through the nodes of its build,
    so no state's term is built or hashed to find it."""

    __slots__ = ("_nodes",)

    def __init__(self, nodes: _Nodes):
        self._nodes = nodes

    def __getitem__(self, term) -> int:
        nodes = self._nodes
        x = nodes.ids.get(id(term) if term.plain else term)
        if x is None and type(term) is Par:
            x = nodes.find_pair(term)
        sid = None if x is None else nodes.sid[x]
        if sid is None:
            raise KeyError(term)
        return sid

    def get(self, term, default=None):
        try:
            return self[term]
        except KeyError:
            return default

    def __contains__(self, term) -> bool:
        return self.get(term) is not None


@dataclass
class Lts:
    """Finite proved transition system.

    ``kind`` is ``"brs"`` when a root is a ready-set process and
    ``"proved"`` otherwise.  States are numbered breadth first, one group of
    roots after another (see :func:`build_union`), so construction is
    deterministic; state 0 is the first root.
    ``terms`` is a read-only sequence of the states' terms and ``renders``
    of their texts, each built when first read; ``len(terms)`` builds
    none.  ``index`` maps a term to its state id (``x in index``,
    ``index[x]``, ``index.get(x)``): plain processes are compared by
    identity, ready-set processes structurally (ignoring proofs).
    ``initial`` flags the initial states.

    Transitions are stored as columns indexed by transition id: ``source``,
    ``target``, ``proof`` and ``obs``, the observation bisimilarity
    compares: the action of a proved transition, and the pair of action
    and sorted fired ready set of a ready-set one.  ``outgoing`` and
    ``incoming_ids`` list each state's transition ids.  ``transitions``
    views the columns as a read-only sequence of :class:`Transition`
    records, built only when read.
    """

    kind: str
    terms: Terms
    initial: list[bool]
    source: list[int] = field(repr=False)
    target: list[int] = field(repr=False)
    proof: list[ProofTerm] = field(repr=False)
    obs: list = field(repr=False)
    outgoing: list[list[int]] = field(repr=False)
    incoming_ids: list[list[int]] = field(repr=False)
    index: StateIndex = field(repr=False)
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


def _build(groups: list[list], max_states: int, classes: dict) -> Lts:
    """Close each group of roots under forward steps, one group after another.

    A group's roots are numbered first, then its new states breadth first;
    the next group starts only once the last is closed, and a state already
    met in an earlier group is that group's state.  ``max_states`` bounds
    the states each group adds.

    A system is built in the integer nodes of :class:`_Nodes`: a leaf's
    steps come from :func:`_steps`, memoized for this build only, and a
    parallel position's from its operands' steps, so a proved system is
    the product of its operands' systems and no successor term is built.
    A ready-set process has no parallel positions, so its states are
    leaves.  A system is a ready-set one when any root is not plain.

    ``classes`` maps each state of a quotiented leaf to its class (see
    :class:`_Nodes`), and a build given a non-empty map is the product of
    the quotiented leaves: its states are the images of the states the
    roots reach.  Every public build passes an empty map.
    """
    nodes = _Nodes(classes)
    sid_of, steps_of = nodes.sid, nodes.steps_of
    node_of: list[int] = []  # state id -> node
    source: list[int] = []
    target_ids: list[int] = []
    proofs: list[ProofTerm] = []
    observations: list = []
    outgoing: list[list[int]] = []
    incoming_ids: list[list[int]] = []
    sid = 0
    for group in groups:
        first = len(node_of)
        for root in group:
            if not is_wellformed(root):
                raise NotReachableError(f"{render(root)} is not well-formed")
            x = nodes.intern(root)
            if sid_of[x] is None:
                sid_of[x] = len(node_of)
                node_of.append(x)
                outgoing.append([])
                incoming_ids.append([])
        while sid < len(node_of):
            out = outgoing[sid]
            for theta, o, y in steps_of(node_of[sid]):
                tid = sid_of[y]
                if tid is None:
                    if len(node_of) - first >= max_states:
                        raise StateBudgetError(
                            f"state budget of {max_states} states exceeded"
                        )
                    tid = sid_of[y] = len(node_of)
                    node_of.append(y)
                    outgoing.append([])
                    incoming_ids.append([])
                tr_id = len(source)
                source.append(sid)
                target_ids.append(tid)
                proofs.append(theta)
                observations.append(o)
                out.append(tr_id)
                incoming_ids[tid].append(tr_id)
            sid += 1
    initial = [nodes.initial[x] for x in node_of]
    nodes.close()
    kind = "proved" if all(root.plain for group in groups for root in group) else "brs"
    return Lts(kind, Terms(nodes, node_of), initial, source, target_ids, proofs,
               observations, outgoing, incoming_ids, StateIndex(nodes))


def build_lts(root: Process, max_states: int = DEFAULT_STATE_CAP) -> Lts:
    """Close ``root`` under forward steps.  Callers normally pass an initial term."""
    return _build([[root]], max_states, {})


def build_brs_lts(root: BrsProcess, max_states: int = DEFAULT_STATE_CAP) -> Lts:
    return _build([[root]], max_states, {})


def build_union(groups: list[list], max_states: int = DEFAULT_STATE_CAP) -> Lts:
    """One system closing each group of roots in turn, over shared nodes.

    States are numbered group by group: a group's roots, then the states
    they reach that no earlier group reached, breadth first.  A state
    reached from two groups is one state.  So when ``r1`` and ``r2`` reach
    no common state, the union of ``[[r1], [r2]]`` holds the states of
    ``build_lts(r1)`` and then those of ``build_lts(r2)``, each in its own
    order; one group ``[roots]`` numbers all the roots first.
    ``max_states`` bounds the states each group adds.  All groups share
    one set of nodes (see :func:`_build`), so an operand state that two
    roots have in common is stepped once.
    """
    return _build(groups, max_states, {})


def incoming(lts: Lts, sid: int):
    """All transitions whose target is ``sid`` (the state's backward moves)."""
    if not 0 <= sid < lts.num_states:
        raise UnknownStateError(f"no state {sid} in a {lts.num_states}-state system")
    return [lts.transitions[i] for i in lts.incoming_ids[sid]]


def export(lts: Lts, fmt: str = "dot") -> str:
    """Serialize as a DOT digraph or as the JSON interchange schema.

    A ready-set transition also shows its fired ready set, in the order the
    source state displays it.
    """
    def ready(t: Transition) -> tuple[str, ...] | None:
        if lts.kind == "proved":
            return None
        return fired_ready(lts.terms[t.source], t.proof)

    if fmt == "dot":
        lines = ["digraph lts {"]
        for sid in range(lts.num_states):
            shape = ", shape=doublecircle" if sid == 0 else ""
            lines.append(f'  n{sid} [label="{lts.renders[sid]}"{shape}];')
        for t in lts.transitions:
            label, fired = render_proof(t.proof), ready(t)
            if fired is not None:
                label += f" / {{{','.join(fired)}}}"
            lines.append(f'  n{t.source} -> n{t.target} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        states = [
            {"id": sid, "term": lts.renders[sid], "initial": lts.initial[sid]}
            for sid in range(lts.num_states)
        ]
        transitions = []
        for t in lts.transitions:
            entry = {"src": t.source, "dst": t.target, "proof": render_proof(t.proof)}
            fired = ready(t)
            if fired is not None:
                entry["ready"] = list(fired)
            transitions.append(entry)
        return json.dumps(
            {"root": 0, "states": states, "transitions": transitions},
            indent=2,
        )
    raise ValueError(f"unknown export format {fmt!r}")
