"""Axiom systems, normal forms, and equality decision by canonicalization.

Three theories are decided here.  The forward theory works on plain
processes and eliminates parallel composition through an interleaving
expansion law; its normal form is an optional executed prefix over a sum of
unexecuted prefixes with initial normal continuations.  The reverse and
forward-reverse theories are equations between ready-set encodings; their
normal forms are, respectively, a chain of executed prefixes and an optional
executed branch next to a sum of unexecuted branches.

Equality is decided by normal forms and their canonical representatives
(sorted, deduplicated, absorbed) rather than by proof search; the
normalizers record the axiom instances they apply as a derivation trace.
The forward theory is decided by keys of the two canonical forms, which
one memoized pass reads off the processes (:func:`_f_key`), keying a
parallel composition by its operands' summands instead of building its
expansion.  The reverse normal form of a theory encoding is its executed
spine, which is the process's least observation trace (see
``notes/decisions.md``), so the reverse theory is decided by comparing
those traces, and no encoding is built unless a derivation is asked for.
The forward-reverse theory is decided by the structural keys of the two
canonical forms, which one memoized pass reads off the encodings
(:func:`_fr_key`).  Keys are hash-consed so that equal keys are the same
object, and no normal or canonical form is built unless a derivation is
asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .encoding import (
    HistoryOrder,
    _order_blind,
    _split,
    _sum,
    _summands,
    encode_reachable,
    least_trace,
    minimal_trace_histories,
)
from .errors import NotNormalizedError, NotReachableError
from .semantics import require_reachable
from .syntax import _PREC_PAR, _render, render
from .terms import (
    MARKERS,
    NIL,
    BrsPrefix,
    BrsProcess,
    Choice,
    Nil,
    PAST,
    Par,
    ParL,
    ParR,
    PlusL,
    PlusR,
    Prefix,
    Process,
    is_wellformed,
    to_initial,
)


class Theory(Enum):
    F = "f"
    R = "r"
    FR = "fr"


@dataclass(frozen=True)
class TraceStep:
    axiom: str
    path: str

    def __str__(self) -> str:
        return f"{self.axiom} @ {self.path or 'root'}"


Trace = list


def format_trace(trace: Trace) -> str:
    return "\n".join(f"{i + 1}. {step}" for i, step in enumerate(trace))


# --- one rewrite pass over a term DAG ----------------------------------------
#
# Terms are shared DAGs (plain processes are hash-consed, encodings share
# their expanded subterms), so each pass below computes its result once per
# node, by identity, within one call.  When a trace is wanted, each node's
# derivation is kept relative to the node: a list of axiom names applied at
# the node and ``(label, derivation)`` pairs for the steps of a subterm
# reached through the path label ``label`` (``None``: the node rewritten in
# place).  A shared node's derivation is spliced into every caller and
# replayed under the caller's path at the end, so the trace is the one a
# walk of the unfolded tree would log.

class _Pass:
    """One call of a memoized rewrite ``step(pass, node, log)``."""

    def __init__(self, step, trace: Trace | None):
        self.step = step
        self.tracing = trace is not None
        # id(node) -> (result, derivation, node); holding the node keeps its id unique
        self.memo: dict = {}
        # the render memo of syntax._render, for steps that order by text
        self.texts: dict = {}

    def __call__(self, x, log: list | None, label: str | None):
        """Result for ``x``; its derivation goes to ``log`` under ``label``."""
        entry = self.memo.get(id(x))
        if entry is None:
            steps = [] if self.tracing else None
            entry = (self.step(self, x, steps), steps, x)
            self.memo[id(x)] = entry
        if log is not None and entry[1]:
            log.append((label, entry[1]))
        return entry[0]

    def run(self, x, trace: Trace | None):
        log = [] if self.tracing else None
        result = self(x, log, None)
        if log:
            _replay(log, (), trace)
        return result


def _replay(derivation: list, path: tuple[str, ...], trace: Trace) -> None:
    for item in derivation:
        if type(item) is str:
            trace.append(TraceStep(item, " ".join(path)))
        else:
            label, steps = item
            _replay(steps, path if label is None else path + (label,), trace)


def _log(log: list | None, axiom: str) -> None:
    if log is not None:
        log.append(axiom)


# --- forward normal form ---------------------------------------------------

def is_fnf(p: Process) -> bool:
    """Optional executed prefix over a sum of unexecuted prefixes whose
    continuations are initial and again in this form."""
    memo: dict = {}  # id(continuation) -> (verdict, continuation)
    if isinstance(p, Prefix) and p.executed:
        return p.cont.initial and _is_fnf_cont(p.cont, memo)
    return _is_fnf_sum(p, True, memo)


def _is_fnf_sum(p: Process, top: bool, memo: dict) -> bool:
    if isinstance(p, Nil):
        return top  # the empty sum; never a summand next to others
    if isinstance(p, Choice):
        return _is_fnf_sum(p.left, False, memo) and _is_fnf_sum(p.right, False, memo)
    if isinstance(p, Prefix) and not p.executed:
        return p.cont.initial and _is_fnf_cont(p.cont, memo)
    return False


def _is_fnf_cont(p: Process, memo: dict) -> bool:
    got = memo.get(id(p))
    if got is None:
        got = memo[id(p)] = (_is_fnf_sum(p, True, memo), p)
    return got[0]


def _fnf_parts(p: Process) -> tuple[str | None, list[Prefix]]:
    head, rest, _ = _split(p)
    if head is None:
        return None, rest
    return head.action, _split(head.cont)[1]


def expansion_law_f(p1: Process, p2: Process, sync) -> Process:
    """One expansion step of ``p1 || p2`` for operands in forward normal form.

    Produces the literal three-group sum (left moves outside the
    synchronization set, right moves, synchronizations), each group being 0
    when empty, under an executed prefix when either operand has one.
    """
    if not is_fnf(p1) or not is_fnf(p2):
        raise NotNormalizedError("expansion requires both operands in F-nf")
    return _expansion_f(p1, p2, sync)


def _expansion_f(p1: Process, p2: Process, sync) -> Process:
    head1, sums1 = _fnf_parts(p1)
    head2, sums2 = _fnf_parts(p2)
    body1 = _sum(sums1)
    body2 = _sum(sums2)
    g1 = [
        Prefix(s.action, False, Par(sync, s.cont, body2))
        for s in sums1 if s.action not in sync
    ]
    g2 = [
        Prefix(s.action, False, Par(sync, body1, s.cont))
        for s in sums2 if s.action not in sync
    ]
    g3 = [
        Prefix(s1.action, False, Par(sync, s1.cont, s2.cont))
        for s1 in sums1 if s1.action in sync
        for s2 in sums2 if s2.action == s1.action
    ]
    body = Choice(Choice(_sum(g1), _sum(g2)), _sum(g3))
    head = head1 if head1 is not None else head2
    return Prefix(head, True, body) if head is not None else body


def normalize_f(p: Process, trace: Trace | None = None) -> Process:
    """Forward normal form of a process, derivably equal to it.

    Collapses an executed prefix over a non-initial continuation, discards
    initial alternatives next to non-initial ones, eliminates 0 summands,
    and expands parallel compositions recursively.
    """
    if not is_wellformed(p):
        raise NotReachableError(f"{render(p)} is not well-formed")
    return _Pass(_normalize_f, trace).run(p, trace)


def _normalize_f(rw: _Pass, p: Process, log: list | None) -> Process:
    if isinstance(p, Nil):
        return p
    if isinstance(p, Prefix):
        q = rw(p.cont, log, f"{p.action}.")
        if not p.executed:
            return p.moved(False, q)
        if q.initial:
            return p.moved(True, q)
        _log(log, "A_F,6")
        return q
    if isinstance(p, Choice):
        q1 = rw(p.left, log, MARKERS[PlusL])
        q2 = rw(p.right, log, MARKERS[PlusR])
        init1, init2 = q1.initial, q2.initial
        if init1 and init2:
            if isinstance(q1, Nil):
                if not isinstance(q2, Nil):
                    _log(log, "A_F,2")
                _log(log, "A_F,3")
                return q2
            if isinstance(q2, Nil):
                _log(log, "A_F,3")
                return q1
            return Choice(q1, q2)
        if not init1:
            _log(log, "A_F,7")
            return q1
        _log(log, "A_F,2")
        _log(log, "A_F,7")
        return q2
    q1 = rw(p.left, log, MARKERS[ParL])
    q2 = rw(p.right, log, MARKERS[ParR])
    _log(log, "A_F,8")
    # both operands are normal forms already
    return rw(_expansion_f(q1, q2, p.sync), log, None)


# --- reverse and forward-reverse normal forms ------------------------------

def is_rnf(u: BrsProcess) -> bool:
    """0 or a chain of executed prefixes ending in 0."""
    if isinstance(u, Nil):
        return True
    return isinstance(u, BrsPrefix) and u.executed and is_rnf(u.cont)


def is_frnf(u: BrsProcess) -> bool:
    """Optional executed branch, then a sum of unexecuted prefixes with
    initial continuations in the same form (up to association)."""
    return _is_frnf(u, {})


def _is_frnf(u: BrsProcess, memo: dict) -> bool:
    got = memo.get(id(u))
    if got is None:
        got = memo[id(u)] = (_is_frnf_node(u, memo), u)
    return got[0]


def _is_frnf_node(u: BrsProcess, memo: dict) -> bool:
    try:
        head, rest, dropped = _split(u)
    except NotNormalizedError:
        return False
    if dropped:
        return False
    if head is not None:
        if not head.executed or _summands(u)[0] is not head:
            return False
        rest = [head, *rest]
    return all(_is_frnf(s.cont, memo) for s in rest)


def _copy_prefix(s: BrsPrefix, cont: BrsProcess) -> BrsPrefix:
    """``s`` over ``cont``; ``s`` itself when ``cont`` is its continuation."""
    if cont is s.cont:
        return s
    return s.moved(s.executed, cont)


def normalize_r(u: BrsProcess, trace: Trace | None = None) -> BrsProcess:
    """Reverse normal form of an encoding: only the executed spine survives."""
    return _Pass(_normalize_r, trace).run(u, trace)


def _normalize_r(rw: _Pass, u: BrsProcess, log: list | None) -> BrsProcess:
    head, rest, _ = _split(u)
    if head is None:
        if not isinstance(u, Nil):
            _log(log, "A_R,3")
        return NIL
    if rest:
        _log(log, "A_R,4")
    return _copy_prefix(head, rw(head.cont, log, f"{head.action}!."))


def normalize_fr(u: BrsProcess, trace: Trace | None = None) -> BrsProcess:
    """Forward-reverse normal form: drop 0 summands, executed branch first."""
    return _Pass(_normalize_fr, trace).run(u, trace)


def _normalize_fr(rw: _Pass, u: BrsProcess, log: list | None) -> BrsProcess:
    if isinstance(u, Nil):
        return u
    head, rest, dropped = _split(u)
    if dropped:
        _log(log, "A_FR,3")
    parts: list[BrsProcess] = []
    if head is not None:
        if _summands(u)[0] is not head:
            _log(log, "A_FR,2")
        parts.append(_copy_prefix(head, rw(head.cont, log, f"{head.action}!.")))
    parts.extend(
        _copy_prefix(s, rw(s.cont, log, f"{s.action}.")) for s in rest
    )
    return _sum(parts)


# --- canonical representatives --------------------------------------------

def canonical(x, theory: Theory, trace: Trace | None = None):
    """Canonical representative of a term already in the theory's normal form.

    Summands are recursively canonicalized, sorted, and deduplicated; the
    forward theory additionally forgets the identity of the leading executed
    action, and the forward-reverse theory absorbs an initial branch equal
    to the rollback of the executed one.
    """
    if theory is Theory.F:
        if not is_fnf(x):
            raise NotNormalizedError("canonical(F) requires forward normal form")
        return _Pass(_canon_f, trace).run(x, trace)
    if theory is Theory.R:
        if not is_rnf(x):
            raise NotNormalizedError("canonical(R) requires reverse normal form")
        return x
    if not is_frnf(x):
        raise NotNormalizedError("canonical(FR) requires forward-reverse normal form")
    return _Pass(_canon_fr, trace).run(x, trace)


def _canon_f(rw: _Pass, p: Process, log: list | None) -> Process:
    head, sums = _fnf_parts(p)
    canon = [s.moved(False, rw(s.cont, log, f"{s.action}.")) for s in sums]
    keyed = sorted({_render(s, _PREC_PAR, False, (), rw.texts): s for s in canon}.items())
    if len(keyed) < len(canon):
        _log(log, "A_F,4")
    body = _sum([s for _, s in keyed])
    if head is None:
        return body
    if head != PAST:
        _log(log, "A_F,5")
    return Prefix(PAST, True, body)


def _brs_key(u: BrsProcess):
    """Structural sort key (ready sets compared as sets), kept on the node
    once computed."""
    key = u._key
    if key is None:
        if isinstance(u, BrsPrefix):
            key = (1, u.action, u.executed, tuple(sorted(u.ready)), _brs_key(u.cont))
        else:
            key = (2, _brs_key(u.left), _brs_key(u.right))
        u._key = key
    return key


def structural_key(u: BrsProcess):
    """Hashable identity of a ready-set term, for grouping decider outputs."""
    return _brs_key(u)


def _canon_fr(rw: _Pass, u: BrsProcess, log: list | None) -> BrsProcess:
    if isinstance(u, Nil):
        return u
    head, rest, _ = _split(u)
    canon_rest = [_copy_prefix(s, rw(s.cont, log, f"{s.action}.")) for s in rest]
    parts: list[BrsProcess] = []
    if head is not None:
        canon_head = _copy_prefix(head, rw(head.cont, log, f"{head.action}!."))
        # the rollback loses its executed-branch-first ordering, so resort it;
        # that re-sorting is not part of the derivation
        rollback = rw(to_initial(canon_head), None, None)
        kept = [s for s in canon_rest if s != rollback]
        if len(kept) < len(canon_rest):
            _log(log, "A_FR,4")
        canon_rest = kept
        parts.append(canon_head)
    deduped: list[BrsProcess] = []
    for s in sorted(canon_rest, key=_brs_key):
        if any(s == seen for seen in deduped):
            _log(log, "A_FR,4")
        else:
            deduped.append(s)
    parts.extend(deduped)
    return _sum(parts)


# --- forward canonical keys --------------------------------------------------
#
# The canonical forward form of a process's normal form is fixed by whether
# it has an executed head (whose action it forgets) and by the set of its
# summands, each an action over the canonical form of an initial
# continuation.  Both can be read off the process node by node, and those
# of a parallel composition off its operands' summand sets, without
# building the expansion (``notes/decisions.md``).  A key is ``(head,
# summands)``, a summand ``(action, summands of the continuation)``.  Keys
# are hash-consed in a ``table`` that lives for one decision: a summand set
# maps to the one equal frozenset, ``(head, id(summands))`` to the one key
# with those parts, and ``(sync, id(summands1), id(summands2))`` to the
# summand set of the product.  So equal keys are the same object, and
# comparing two summand sets compares their continuations by identity.

def _f_key(p: Process, memo: dict, table: dict):
    """``canonical(normalize_f(p), Theory.F)``, as a key of ``table``;
    ``memo`` keeps each node's key by id (the value keeps the node)."""
    got = memo.get(id(p))
    if got is not None:
        return got[0]
    if isinstance(p, Prefix):
        cont = _f_key(p.cont, memo, table)
        if not p.executed:
            key = _f_form(False, {(p.action, cont[1])}, table)
        elif p.cont.initial:
            key = _f_form(True, cont[1], table)
        else:
            key = cont  # A_F,6
    elif isinstance(p, Choice):
        if not p.left.initial:
            key = _f_key(p.left, memo, table)  # A_F,7
        elif not p.right.initial:
            key = _f_key(p.right, memo, table)  # A_F,7
        else:
            key = _f_form(False, _f_key(p.left, memo, table)[1]
                          | _f_key(p.right, memo, table)[1], table)
    elif isinstance(p, Par):
        head1, s1 = _f_key(p.left, memo, table)
        head2, s2 = _f_key(p.right, memo, table)
        key = _f_form(head1 or head2, _f_par(p.sync, s1, s2, table), table)
    else:
        key = _f_form(False, (), table)
    memo[id(p)] = (key, p)
    return key


def _f_form(head: bool, summands, table: dict):
    summands = _f_set(summands, table)
    entry = (head, id(summands))
    got = table.get(entry)
    if got is None:
        got = table[entry] = (head, summands)
    return got


def _f_set(summands, table: dict) -> frozenset:
    summands = frozenset(summands)
    return table.setdefault(summands, summands)


def _f_par(sync: tuple, s1: frozenset, s2: frozenset, table: dict) -> frozenset:
    """Summand set of the canonical form of ``x |[sync]| y``, for ``x`` and
    ``y`` with the summand sets ``s1`` and ``s2``: the three groups of
    :func:`expansion_law_f`, each summand over the product of its operands'
    continuations."""
    entry = (sync, id(s1), id(s2))
    got = table.get(entry)
    if got is None:
        out = [(a, _f_par(sync, c1, s2, table)) for a, c1 in s1 if a not in sync]
        out += [(a, _f_par(sync, s1, c2, table)) for a, c2 in s2 if a not in sync]
        out += [(a, _f_par(sync, c1, c2, table))
                for a, c1 in s1 if a in sync for b, c2 in s2 if b == a]
        got = table[entry] = _f_set(out, table)
    return got


# --- forward-reverse canonical keys -----------------------------------------
#
# The forward-reverse theory compares canonical forms by their structural
# keys, and the key of an encoding's canonical form can be read off the
# encoding node by node, without building the normal form or the canonical
# form (``notes/decisions.md``).  Keys are hash-consed in a ``table`` that
# lives for one decision: ``(1, action, executed, ready, id(child))`` and
# ``(2, id(left), id(right))`` map to the one key tuple with those parts,
# and ``(0, id(key))`` to the key of its rollback.  So equal keys are the
# same object, and comparing two keys never walks a shared part twice.

def _fr_key(u: BrsProcess, memo: dict, table: dict):
    """``structural_key(canonical(normalize_fr(u), Theory.FR))``, as a key
    of ``table``; ``memo`` keeps each node's key by id (the value keeps the
    node)."""
    got = memo.get(id(u))
    if got is not None:
        return got[0]
    head, rest, _ = _split(u)
    parts = [_summand_key(s, memo, table) for s in rest]
    first = None
    if head is not None:
        first = _summand_key(head, memo, table)
        rollback = _rollback_key(first, table)
        parts = [k for k in parts if k is not rollback]
    key = _sum_key(first, parts, table)
    memo[id(u)] = (key, u)
    return key


def _summand_key(s: BrsPrefix, memo: dict, table: dict):
    return _prefix_key(s.action, s.executed, tuple(sorted(s.ready)),
                       _fr_key(s.cont, memo, table), table)


def _prefix_key(action: str, executed: bool, ready: tuple, cont, table: dict):
    entry = (1, action, executed, ready, id(cont))
    key = table.get(entry)
    if key is None:
        key = table[entry] = (1, action, executed, ready, cont)
    return key


def _sum_key(first, parts: list, table: dict):
    """Key of the left-nested choice of ``first`` (unless ``None``), then of
    ``parts`` sorted, each once; the key of 0 when there is no summand."""
    key = first
    last = None
    for part in sorted(parts):
        if part is last:
            continue
        last = part
        if key is None:
            key = part
            continue
        entry = (2, id(key), id(part))
        got = table.get(entry)
        if got is None:
            got = table[entry] = (2, key, part)
        key = got
    return NIL._key if key is None else key


def _rollback_key(key, table: dict):
    """Key of the canonical form of ``to_initial`` of the canonical form
    keyed ``key``: every prefix unexecuted, and every sum sorted and
    deduplicated again."""
    if key[0] == 0:
        return key
    entry = (0, id(key))
    got = table.get(entry)
    if got is None:
        parts = []
        todo = [key]
        while todo:
            k = todo.pop()
            if k[0] == 2:
                todo += k[1:]
            else:
                parts.append(_prefix_key(k[1], False, k[3], _rollback_key(k[4], table), table))
        got = table[entry] = _sum_key(None, parts, table)
    return got


# --- the deciders ----------------------------------------------------------

def theory_encoding(p: Process, theory: Theory) -> BrsProcess:
    """The encoding the reverse-sensitive deciders compare.

    The serialization order is the canonical history of the process; for the
    forward-reverse theory, when several histories share the minimal
    observation trace (independent executed actions with identical
    observations), the one whose canonical normal form is least is chosen,
    so that symmetric arrangements of the same behavior pick compatible
    serializations.  That choice reads the forms' keys (:func:`_fr_encoding`);
    a process with a single order is encoded under it and not keyed.
    """
    if theory is Theory.R:
        return encode_reachable(p, next(_orders(p, 1)))
    orders = list(_orders(p, 512))
    if len(orders) == 1:
        return encode_reachable(p, orders[0])
    return _fr_encoding(p, {}, orders)[1]


def _orders(p: Process, cap: int):
    """The orders the theories may encode ``p`` under: the default one when
    every order gives the same encoding, else one per least-trace history,
    at most ``cap`` (:func:`~revexp.encoding.minimal_trace_histories`).  An
    unreachable ``p`` is refused at the first order."""
    require_reachable(p)
    if _order_blind(p):
        yield None
    else:
        for hist in minimal_trace_histories(p, cap):
            yield HistoryOrder(hist)


def _fr_encoding(p: Process, table: dict, orders=None):
    """``(key, u)``: the encoding ``u`` of ``p`` under the first of its
    :func:`_orders` (or of ``orders``, when given) whose canonical normal
    form is least, and that form's key in ``table`` (:func:`_fr_key`);
    neither form is built."""
    best = None
    for order in _orders(p, 512) if orders is None else orders:
        u = encode_reachable(p, order)
        key = _fr_key(u, {}, table)
        if best is None or key < best[0]:
            best = (key, u)
    return best


def prove_eq(p1: Process, p2: Process, theory: Theory,
             trace: Trace | None = None) -> bool:
    """Equality in the chosen axiom system, decided via normal forms.

    The forward theory works on the processes themselves, the
    forward-reverse theory on the two sides' theory encodings (see
    :func:`theory_encoding`).  Each compares the keys of the two canonical
    normal forms, read off the processes by :func:`_f_key` or off the
    encodings by :func:`_fr_key` in one table, so equal forms have the same
    key object; the reverse normal form of a theory encoding is the side's
    least observation trace (:func:`~revexp.encoding.least_trace`), so the
    reverse theory compares those and builds no encoding.  None builds a
    normal form, except to log each side's derivation into ``trace``.
    """
    if theory is Theory.F:
        for p in (p1, p2):
            require_reachable(p)
        memo: dict = {}
        table: dict = {}
        k1, k2 = _f_key(p1, memo, table), _f_key(p2, memo, table)
        if trace is not None:
            for p in (p1, p2):
                # the normalizer's output is in normal form, so it is not checked again
                _Pass(_canon_f, trace).run(normalize_f(p, trace), trace)
        return k1 is k2
    if theory is Theory.FR:
        table: dict = {}
        (k1, u1), (k2, u2) = (_fr_encoding(p, table) for p in (p1, p2))
        if trace is not None:
            for u in (u1, u2):
                # the normalizer's output is in normal form, so it is not checked again
                _Pass(_canon_fr, trace).run(normalize_fr(u, trace), trace)
        return k1 is k2
    t1, t2 = least_trace(p1), least_trace(p2)
    if trace is not None:
        for p in (p1, p2):
            normalize_r(theory_encoding(p, theory), trace)
    return t1 == t2
