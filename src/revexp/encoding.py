"""The encoding into sequential ready-set processes.

The encoder rewrites a reachable process into a sequential term whose
prefixes carry the backward ready set of the state reached by firing them.
It threads an *environment*: the whole root process with every executed flag
that has not yet been serialized into the output erased.  Each emitted prefix
steps the environment by the action occurrence it stands for and reads its
ready set there, so ready sets of nested parallel contexts come out right.
A source prefix is marked in the environment with ``upd``; a parallel
expansion steps the operand states instead: each operand prefix records the
state it reaches (``BrsPrefix.state``), and the expansion puts the moved
operands' states back under the parallel operator.  The order in which a
ready set is displayed is not part of the output: renderers derive it from
the prefixes above it (the actions marked along the branch), so branches
that differ only in that order share one subterm.

Parallel composition is eliminated by :func:`_expand`.  When both
operands have executed actions that did not synchronize, the expansion must
serialize them into a single chain (executed actions cannot sit on both
sides of a choice).  A history decides which comes first, or, without
one, the left operand's head does.  The history is an explicit parameter
(:class:`HistoryOrder`): verification walks supply the genuine execution
history, static entry points supply none, and the equational deciders
encode under the histories of the least observation trace
(:func:`minimal_trace_histories`), so that equivalent operand arrangements
serialize compatibly: the reverse theory takes the first of them, the
forward-reverse theory the one whose canonical key is least.  The order
is read at that point only: a process in which no parallel composition
has executed actions in both operands encodes the same with every history
and without one, so the deciders skip the history search for it, and an
initial parallel composition keeps its encoding on the node
(:func:`encode_reachable`).  The untraced forward-reverse decider
encodes no parallel composition: under each least-trace history it folds
a product's key from its operands' keys (:func:`~revexp.axioms._fr_par`)
and encodes only the processes that are not parallel compositions, each
under the history projected into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotNormalizedError, NotReachableError, OrderUndefinedError
from .semantics import (
    DEFAULT_STATE_CAP,
    _forward_order,
    _undo_cone,
    brs_forward_steps,
    forward_steps,
    require_reachable,
)
from .syntax import render, render_proof
from .terms import (
    NIL,
    Act,
    addressed_occurrences,
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
    ProofPath,
    ProofTerm,
    Syn,
    act,
    brs,
    compose,
    is_initial,
    to_initial,
    upd,
)


# --- serialization orders --------------------------------------------------

class HistoryOrder:
    """Order induced by an actual execution trace, oldest first.

    A proof term ranks at the instant of the history entry that executed the
    occurrences it addresses, so a component of a synchronization ranks at
    the synchronization's own step.
    """

    def __init__(self, history: tuple[ProofTerm, ...], prefix: ProofPath = ()):
        self.history = tuple(history)
        self.prefix = tuple(prefix)
        self._entries = [addressed_occurrences(t) for t in self.history]

    def _index(self, t: ProofTerm) -> int:
        full = compose(self.prefix, t)
        addrs = addressed_occurrences(full)
        for i, entry in enumerate(self._entries):
            if addrs <= entry:
                return i
        raise OrderUndefinedError(
            f"proof term {render_proof(full)} does not occur in the history"
        )

    def leq(self, t1: ProofTerm, t2: ProofTerm) -> bool:
        return self._index(t1) <= self._index(t2)

    def project(self, prefix: ProofPath) -> "HistoryOrder":
        """The order seen from inside an operator context ``prefix``."""
        return HistoryOrder(self.history, self.prefix + tuple(prefix))


def canonical_history(p: Process) -> tuple[ProofTerm, ...]:
    """A deterministic execution history consistent with the flags of ``p``.

    Chooses, among all ways of undoing the executed actions of ``p`` back to
    its initial version, the one whose sequence of observations (action and
    backward ready set of the state each step leaves) is lexicographically
    least, breaking exact observation ties by the rendered proofs, newest
    first.  The observation sequence read backward is precisely the executed
    spine the serialization produces, so equivalent processes pick
    compatible histories regardless of which side of a parallel composition
    their actions sit on.  Every executed occurrence of ``p`` is covered:
    each undo removes one flag (a synchronized pair removes two under one
    joint proof).  It is the first of :func:`minimal_trace_histories`.
    """
    return minimal_trace_histories(p, 1)[0]


def minimal_trace_histories(p: Process, cap: int = 512) -> tuple[tuple[ProofTerm, ...], ...]:
    """All histories of ``p`` whose observation trace is the minimal one.

    When independent executed actions carry identical observations, several
    serializations share the minimal trace; deciders that depend on the full
    encoding structure canonicalize over this tie set.  The histories come
    ordered by their rendered proofs, newest first; at most ``cap`` are
    returned.  They are read off the walk of :func:`least_trace`.
    """
    return tuple(_least_walk(p, cap)[1])


def least_trace(p: Process) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """The least observation trace of ``p``, newest step first.

    A history of ``p`` read backward is a chain of undo steps to its
    initial version; its observation trace lists, for each step, the
    action undone and the sorted backward ready set of the state the step
    leaves.  This is the least such trace.  Read oldest first, it is the
    executed spine of the reverse normal form of ``p``'s theory encoding
    (see ``notes/decisions.md``), so the reverse theory compares these.

    The histories are the runs that reach ``p``, read backward, so the
    trace is read off the undo cone of ``p``
    (:func:`~revexp.semantics._undo_cone`, built under
    ``DEFAULT_STATE_CAP``), which holds only states that a run reaches.
    An unreachable ``p`` raises :class:`NotReachableError`.
    """
    return _least_walk(p, None)[0]


def _least_walk(p: Process, cap: int | None):
    """:func:`least_trace` of ``p`` and, unless ``cap`` is ``None``, up to
    ``cap`` of its :func:`minimal_trace_histories`.  The cone's states are
    visited in forward order, so the least trace and the histories of a
    state extend those of the states its tied undo steps lead to."""
    if not p.wellformed:
        raise NotReachableError(f"{render(p)} is not reachable")
    cone = _undo_cone([[p]], DEFAULT_STATE_CAP)
    # a run reaches the root when it is initial or undoes into the cone
    if not (cone.initial[0] or cone.incoming_ids[0]):
        raise NotReachableError(f"{render(p)} is not reachable")
    terms, before, proof, action = cone.terms, cone.source, cone.proof, cone.obs
    # state -> its least observation trace, newest first; its histories
    least: list = [None] * cone.num_states
    histories: list = [None] * cone.num_states
    for s in _forward_order(cone):
        if cone.initial[s]:
            least[s], histories[s] = (), [()]
            continue
        undos = cone.incoming_ids[s]
        obs = tuple(sorted(brs(terms[s])))
        traces = [((action[i], obs),) + least[before[i]] for i in undos]
        trace = least[s] = min(traces)
        if cap is None:
            continue
        tied = sorted((i for i, tr in zip(undos, traces) if tr == trace),
                      key=lambda i: render_proof(proof[i]))
        got = histories[s] = []
        for i in tied:
            got += [hist + (proof[i],) for hist in histories[before[i]][:cap - len(got)]]
            if len(got) >= cap:
                break
    return least[0], histories[0]


# --- the encoding ----------------------------------------------------------
#
# An expansion depends only on its operands and its environment: the branch
# that leads to it fixes how its ready sets are displayed, which renderers
# read off the path.  So two branches that reach the same operands and
# environment, in whatever order they marked their actions, share one
# subterm, and the expansion is memoized on exactly that.  The result is a
# shared DAG; walk it with a memo, not as a tree.

def encode(p: Process, order: HistoryOrder | None = None) -> BrsProcess:
    """Sequential ready-set form of a reachable process, serialized by the
    history ``order`` or, when it is ``None``, left head first (see
    :func:`_expand`)."""
    require_reachable(p)
    return encode_reachable(p, order)


def encode_reachable(p: Process, order: HistoryOrder | None = None) -> BrsProcess:
    """:func:`encode` for a process already known to be reachable.

    The encoding of an initial parallel composition reads no order, so it
    is made once and kept on the node: every later call, with a history
    or without, returns the same object.  Other encodings are made afresh.
    """
    if type(p) is Par and p.initial:
        if p._enc is None:
            p._enc = _encode(p, (), p, order)
        return p._enc
    return _encode(p, (), to_initial(p), order)


def _order_blind(p: Process) -> bool:
    """True when no parallel composition in ``p`` has executed actions in
    both operands, so the encoding of ``p`` reads no order (see
    :func:`_expand`) and every history gives the same encoding."""
    if p.initial:
        return True
    if isinstance(p, Prefix):
        return _order_blind(p.cont)
    if isinstance(p, Choice):
        return _order_blind(p.left) and _order_blind(p.right)
    return ((p.left.initial or p.right.initial)
            and _order_blind(p.left) and _order_blind(p.right))


def _encode(p: Process, sigma: ProofPath, env: Process,
            order: HistoryOrder | None) -> BrsProcess:
    if isinstance(p, Nil):
        return NIL
    if isinstance(p, Prefix):
        phi = compose(sigma, Act(p.action))
        env2 = upd(env, phi)
        cont = _encode(p.cont, sigma + (Dot,), env2, order)
        return BrsPrefix(p.action, p.executed, env2.backward_ready, cont, phi, env2)
    if isinstance(p, Choice):
        return Choice(
            _encode(p.left, sigma + (PlusL,), env, order),
            _encode(p.right, sigma + (PlusR,), env, order),
        )
    u1 = encode_reachable(p.left, order and order.project(sigma + (ParL,)))
    u2 = encode_reachable(p.right, order and order.project(sigma + (ParR,)))
    return _expand(u1, u2, sigma, env, order, {})


def _summands(u: ProcessLike) -> list:
    """The leaves of a choice tree, left to right, 0 included."""
    out = []
    todo = [u]
    while todo:
        x = todo.pop()
        if type(x) is Choice:
            todo.append(x.right)
            todo.append(x.left)
        else:
            out.append(x)
    return out


def _split(u: ProcessLike) -> tuple[ProcessLike | None, list, bool]:
    """``(head, rest, dropped)``: the one summand of ``u`` that is executed
    or sits over a non-initial continuation (``None`` if there is none), the
    initial summands other than 0, left to right, and whether a 0 sat inside
    a choice.  This is how the expansion laws and the normal forms read a
    choice; a second non-initial summand raises :class:`NotNormalizedError`."""
    leaves = _summands(u)
    head = None
    rest = []
    for s in leaves:
        if s.initial:
            if s is not NIL:
                rest.append(s)
        elif head is None:
            head = s
        else:
            raise NotNormalizedError("two non-initial summands in one choice")
    return head, rest, len(leaves) > 1 and len(rest) + (head is not None) < len(leaves)


def _decompose(u: BrsProcess, memo: dict) -> tuple[BrsPrefix | None, list[BrsPrefix]]:
    """:func:`_split` of an expansion operand fragment; ``memo`` keeps the
    split by the id of ``u`` (the value keeps ``u``)."""
    got = memo.get(id(u))
    if got is not None:
        return got[0], got[1]
    head, rest, _ = _split(u)
    memo[id(u)] = (head, rest, u)
    return head, rest


def _sum(summands: list) -> ProcessLike:
    """The left-nested choice of ``summands``; 0 when there are none."""
    if not summands:
        return NIL
    out = summands[0]
    for s in summands[1:]:
        out = Choice(out, s)
    return out


def _at(env: Process, sigma: ProofPath) -> Process:
    """The subterm of ``env`` at the operator path ``sigma`` (which matches)."""
    for m in sigma:
        env = env.cont if m is Dot else env.left if m is PlusL else env.right
    return env


def _put(env: Process, sigma: ProofPath, q: Process) -> Process:
    """``env`` with its subterm at the operator path ``sigma`` (which
    matches) replaced by ``q``."""
    if not sigma:
        return q
    head, rest = sigma[0], sigma[1:]
    if head is Dot:
        return env.moved(env.executed, _put(env.cont, rest, q))
    if head is PlusL:
        return Choice(_put(env.left, rest, q), env.right)
    return Choice(env.left, _put(env.right, rest, q))


def _expand(u1: BrsProcess, u2: BrsProcess, sigma: ProofPath, env: Process,
            order: HistoryOrder | None, memo: dict) -> BrsProcess:
    """Expansion of ``u1 || u2`` under ``env``, whose parallel composition
    at ``sigma`` holds the operand states ``u1`` and ``u2`` start from.

    The summands come in the order of one case analysis on the operands'
    executed heads (``notes/decisions.md``, "The parallel expansion, case
    by case"): the refusals of an unreachable pair; the summand that stays
    executed; when both operands have a head, the redo after rollback of
    each head that did not stay alone; the moves of the initial
    alternatives, left before right unless only the right operand has an
    executed head; the synchronizations.

    Each emitted prefix steps the operand states: a moving summand's
    ``state`` replaces its operand, and the new composition is put back at
    ``sigma`` (for an empty ``sigma``, it is the new environment).  ``memo``
    is shared by one expansion and maps operands and environment to the
    result, each operand fragment to its split, and each summand that fires
    alone, by side, to its proof (the values keep the nodes alive, so their
    ids stay unique).  The order is read only where both operands have an
    executed head and neither head synchronizes; without a history, the
    left head stays executed."""
    key = (id(u1), id(u2), id(env))
    hit = memo.get(key)
    if hit is not None:
        return hit[0]
    head1, alts1 = _decompose(u1, memo)
    head2, alts2 = _decompose(u2, memo)
    par = _at(env, sigma)
    sync = par.sync
    out: list[BrsProcess] = []

    def moved(side, s: BrsPrefix):
        # the proof of the operand summand s firing alone, made once per
        # summand and side (both operands may be one shared encoding)
        got = memo.get((side, id(s)))
        if got is None:
            got = memo[side, id(s)] = (compose(sigma, side(s.proof)), s)
        return got[0]

    def emit(s1: BrsPrefix | None, s2: BrsPrefix | None, executed: bool,
             left: BrsProcess, right: BrsProcess) -> None:
        # fire the left summand s1, the right summand s2, or both in sync
        if s2 is None:
            proof, step = moved(ParL, s1), Par(sync, s1.state, par.right)
        elif s1 is None:
            proof, step = moved(ParR, s2), Par(sync, par.left, s2.state)
        else:
            proof = compose(sigma, Syn(s1.proof, s2.proof))
            step = Par(sync, s1.state, s2.state)
        env2 = _put(env, sigma, step)
        cont = _expand(left, right, sigma, env2, order, memo)
        out.append(BrsPrefix((s2 if s1 is None else s1).action, executed,
                             env2.backward_ready, cont, proof, env2))

    # 1. the refusals
    in1 = head1 is not None and head1.action in sync
    in2 = head2 is not None and head2.action in sync
    if (in1 and head2 is None) or (in2 and head1 is None):
        raise NotReachableError(
            "executed synchronizing action without a synchronized partner"
        )
    if in1 and in2 and head1.action != head2.action:
        raise NotReachableError(
            "both operands executed different synchronizing actions"
        )
    # 2. the summand that stays executed
    redo1 = redo2 = head1 is not None and head2 is not None
    if in1 and in2:
        emit(head1, head2, True, head1.cont, head2.cont)
    elif head1 is not None and not in1 and (
            head2 is None or in2 or order is None
            or order.leq(moved(ParL, head1), moved(ParR, head2))):
        emit(head1, None, True, head1.cont, u2)
        redo1 = False
    elif head2 is not None:
        emit(None, head2, True, u1, head2.cont)
        redo2 = False
    # 3. the redo after rollback of each head that did not stay alone; a
    # synchronizing head is re-offered against the same-action
    # alternatives of the other operand
    init1, init2 = to_initial(u1), to_initial(u2)
    if redo1:
        if not in1:
            emit(head1, None, False, to_initial(head1.cont), init2)
        else:
            for s in alts2:
                if s.action == head1.action:
                    emit(head1, s, False, to_initial(head1.cont), s.cont)
    if redo2:
        if not in2:
            emit(None, head2, False, init1, to_initial(head2.cont))
        else:
            for s in alts1:
                if s.action == head2.action:
                    emit(s, head2, False, s.cont, to_initial(head2.cont))
    # 4. the moves of the initial alternatives
    right_first = head1 is None and head2 is not None
    for left in ((False, True) if right_first else (True, False)):
        for s in alts1 if left else alts2:
            if s.action not in sync:
                if left:
                    emit(s, None, False, s.cont, init2)
                else:
                    emit(None, s, False, init1, s.cont)
    # 5. the synchronizations
    for s1 in alts1:
        if s1.action in sync:
            for s2 in alts2:
                if s2.action == s1.action:
                    emit(s1, s2, False, s1.cont, s2.cont)
    result = _sum(out)
    memo[key] = (result, u1, u2, env)
    return result


# --- correctness checks ----------------------------------------------------

@dataclass(frozen=True)
class Violation:
    process: str
    history: tuple[str, ...]
    detail: str


@dataclass
class CorrespondenceReport:
    states_checked: int = 0
    edges_checked: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_correspondence(p0: Process) -> CorrespondenceReport:
    """Check transition correspondence between a process and its encoding.

    Walks every forward path from the initial process ``p0``, keeping the
    genuine execution history as the serialization order.  At every visited
    state the proved transitions and the transitions of the encoding must
    match bijectively on (action, ready set of the target) and the encoded
    targets must be the encodings under the extended history.  Targets are
    compared as the forward-reverse theory compares encodings, by the keys
    of their canonical normal forms (:func:`~revexp.axioms._fr_key`): up to
    summand order, duplicates, and the absorption of an initial branch
    equal to the rollback of the executed one.  The walk stops at the tenth
    violation.
    """
    # a local import: axioms imports this module
    from .axioms import _fr_key

    if not is_initial(p0):
        raise NotReachableError("correspondence walks start from an initial process")
    report = CorrespondenceReport()
    # one key table for the walk, so equal keys are one object
    memo: dict = {}
    table: dict = {}
    seen: set[tuple[Process, tuple[ProofTerm, ...]]] = set()
    stack: list[tuple[Process, tuple[ProofTerm, ...]]] = [(p0, ())]
    while stack:
        p, hist = stack.pop()
        if (p, hist) in seen:
            continue
        seen.add((p, hist))
        report.states_checked += 1
        encoded = encode_reachable(p, HistoryOrder(hist))
        steps = forward_steps(p)
        expected = [
            (act(theta), brs(target),
             _fr_key(encode_reachable(target, HistoryOrder(hist + (theta,))), memo, table))
            for theta, target in steps
        ]
        actual = [
            (act(theta), frozenset(ready), _fr_key(target, memo, table))
            for (theta, ready), target in brs_forward_steps(encoded)
        ]
        report.edges_checked += len(steps)
        missing = _multiset_diff(expected, actual)
        extra = _multiset_diff(actual, expected)
        for label, kind in ((missing, "unmatched proved transition"),
                            (extra, "unmatched encoded transition")):
            for action, ready, _target in label:
                report.violations.append(Violation(
                    render(p), tuple(render_proof(t) for t in hist),
                    f"{kind}: {action} / {{{','.join(sorted(ready))}}}",
                ))
                if len(report.violations) >= 10:
                    return report
        stack.extend((target, hist + (theta,)) for theta, target in steps)
    return report


def _multiset_diff(xs, ys):
    remaining = list(ys)
    out = []
    for x in xs:
        if x in remaining:
            remaining.remove(x)
        else:
            out.append(x)
    return out


# --- preservation helpers --------------------------------------------------

def last_executed(u: BrsProcess) -> str | None:
    """Action of the most recently executed prefix of a ready-set process."""
    head = _split(u)[0]
    if head is None:
        return None
    inner = last_executed(head.cont)
    return inner if inner is not None else head.action


def brs_preserved_shape(p: Process) -> bool:
    """Side condition under which the encoding preserves backward ready sets.

    Fails exactly when some parallel subterm has both operands non-initial
    with different last executed actions, neither in the synchronization set.
    """
    if isinstance(p, (Nil,)):
        return True
    if isinstance(p, Prefix):
        return brs_preserved_shape(p.cont)
    if isinstance(p, Choice):
        return brs_preserved_shape(p.left) and brs_preserved_shape(p.right)
    if not (brs_preserved_shape(p.left) and brs_preserved_shape(p.right)):
        return False
    if is_initial(p.left) or is_initial(p.right):
        return True
    b1 = last_executed(encode_reachable(p.left))
    b2 = last_executed(encode_reachable(p.right))
    if b1 == b2:
        return True
    return b1 in p.sync or b2 in p.sync
