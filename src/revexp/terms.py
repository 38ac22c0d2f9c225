"""Process and proof-term syntax with the structural predicates and measures.

Two term families live here.  Plain processes are built from the terminated
process, action prefixes (optionally flagged as already executed), binary
choice, and CSP-style parallel composition with a synchronization set.
Ready-set processes are the sequential target of the encoding: the parallel
operator is gone and every prefix additionally carries the set of actions
that label the incoming transitions of the state the prefix leads to.

``Nil`` and ``Choice`` are shared by both families; a tree is a plain process
when its prefixes are ``Prefix`` nodes and a ready-set process when they are
``BrsPrefix`` nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union
from weakref import KeyedRef

from .errors import ActUndefinedError

TAU = "tau"

# The reserved placeholder used when the identity of a past action is
# irrelevant; it is not parsable from user input.
PAST = "#past"


# --- process nodes -----------------------------------------------------------
#
# Every node carries, computed from its children when it is built, its hash,
# whether it is initial, whether it is well-formed, and its backward ready
# set, so these read in O(1) at any depth.  Plain-process nodes (``Nil``,
# ``Prefix``, ``Par``, and ``Choice`` over plain operands) are hash-consed:
# equal plain processes are the same object, so ``==`` on them is identity
# and ``upd``, ``to_initial`` and ``forward_steps`` return shared nodes.
# Three slots are filled on first use: ``_rollback`` keeps ``to_initial`` of a
# non-initial node, ``_key`` the structural key of a ready-set node
# (``axioms.structural_key``), so a shared subterm is keyed once, and
# ``_enc`` the encoding of an initial parallel composition
# (``encoding.encode_reachable``), which reads no serialization order.
# None of them refers back to its node, so a node's caches die with it, by
# reference counting.

_EMPTY: frozenset[str] = frozenset()

# The intern table: constructor arguments, children by identity, to a weak
# reference.  Children are interned too, so identity stands for structural
# equality; a live entry keeps its children alive, so their ids stay
# unique.  The table never keeps a node alive: a node's entry goes when the
# node dies.
_interned: dict = {}


def _forget(ref, table=_interned) -> None:
    if table.get(ref.key) is ref:
        del table[ref.key]


class _Node:
    """Term node.  Nodes are immutable by contract: the constructors fill
    their slots and nothing assigns to them afterwards (a frozen-attribute
    guard would cost more than the rest of building a node)."""

    __slots__ = ()

    def __hash__(self) -> int:
        return self._hash


class Nil(_Node):
    __slots__ = ()
    __match_args__ = ()
    plain = True
    initial = True
    wellformed = True
    backward_ready = _EMPTY
    _hash = hash(())
    _key = (0,)

    def __new__(cls):
        return NIL

    def __repr__(self) -> str:
        return "Nil()"


class Prefix(_Node):
    __slots__ = ("action", "executed", "cont", "initial", "wellformed",
                 "backward_ready", "_hash", "_rollback", "__weakref__")
    __match_args__ = ("action", "executed", "cont")
    plain = True

    def __new__(cls, action: str, executed: bool, cont: "Process"):
        key = (cls, action, executed, id(cont))
        ref = _interned.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(cls)
        node.action = action
        node.executed = executed
        node.cont = cont
        _fill_prefix(node, action, executed, cont)
        node._hash = hash((action, executed, cont._hash))
        _interned[key] = KeyedRef(node, _forget, key)
        return node

    def moved(self, executed: bool, cont: "Process") -> "Prefix":
        """This prefix with the flag ``executed`` over ``cont``."""
        return Prefix(self.action, executed, cont)

    def __repr__(self) -> str:
        return f"Prefix(action={self.action!r}, executed={self.executed!r}, cont={self.cont!r})"


def _fill_prefix(node, action: str, executed: bool, cont) -> None:
    """The cached slots shared by ``Prefix`` and ``BrsPrefix``."""
    ci = cont.initial
    if executed:
        node.initial = False
        node.wellformed = cont.wellformed
        node.backward_ready = frozenset((action,)) if ci else cont.backward_ready
    else:
        node.initial = ci
        node.wellformed = ci
        node.backward_ready = _EMPTY
    node._rollback = None


class Choice(_Node):
    """Binary choice, of plain processes or of ready-set processes.

    A choice of two plain processes is hash-consed; one over ready-set
    operands is not, and compares structurally.
    """

    __slots__ = ("left", "right", "plain", "initial", "wellformed",
                 "backward_ready", "_hash", "_rollback", "_key", "__weakref__")
    __match_args__ = ("left", "right")

    def __new__(cls, left: "ProcessLike", right: "ProcessLike"):
        plain = left.plain and right.plain
        if plain:
            key = (cls, id(left), id(right))
            ref = _interned.get(key)
            if ref is not None:
                node = ref()
                if node is not None:
                    return node
        node = object.__new__(cls)
        li, ri = left.initial, right.initial
        node.left = left
        node.right = right
        node.plain = plain
        node.initial = li and ri
        node.wellformed = (left.wellformed and ri) or (li and right.wellformed)
        node.backward_ready = right.backward_ready if li else left.backward_ready
        node._hash = hash((left._hash, right._hash))
        node._rollback = None
        node._key = None
        if plain:
            _interned[key] = KeyedRef(node, _forget, key)
        return node

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Choice:
            return NotImplemented
        return (self._hash == other._hash and self.left == other.left
                and self.right == other.right)

    __hash__ = _Node.__hash__

    def __repr__(self) -> str:
        return f"Choice(left={self.left!r}, right={self.right!r})"


class Par(_Node):
    __slots__ = ("sync", "left", "right", "initial", "wellformed",
                 "backward_ready", "_hash", "_rollback", "_enc", "__weakref__")
    __match_args__ = ("sync", "left", "right")
    plain = True

    def __new__(cls, sync, left: "Process", right: "Process"):
        if type(sync) is not tuple or len(sync) > 1:
            sync = tuple(sorted(set(sync)))
        key = (cls, sync, id(left), id(right))
        ref = _interned.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if TAU in sync:
            raise ValueError("tau cannot belong to a synchronization set")
        node = object.__new__(cls)
        node.sync = sync
        node.left = left
        node.right = right
        node.initial = left.initial and right.initial
        node.wellformed = left.wellformed and right.wellformed
        node.backward_ready = par_ready(sync, left.backward_ready, right.backward_ready)
        node._hash = hash((sync, left._hash, right._hash))
        node._rollback = None
        node._enc = None
        _interned[key] = KeyedRef(node, _forget, key)
        return node

    def __repr__(self) -> str:
        return f"Par(sync={self.sync!r}, left={self.left!r}, right={self.right!r})"


def par_ready(sync: tuple, bl: frozenset[str], br: frozenset[str]) -> frozenset[str]:
    """The backward ready set of ``x |[sync]| y`` for operands with the
    backward ready sets ``bl`` and ``br``: a synchronized action only when
    both operands last fired it."""
    if not sync:
        return bl | br if bl and br else bl or br
    s = frozenset(sync)
    return (bl - s) | (br - s) | (bl & br & s)


class BrsPrefix(_Node):
    """Prefix of a ready-set process: action, executed flag, ready set.

    ``proof`` records which action occurrence of the source process this
    prefix stands for, and ``state`` the plain process that firing it
    reaches, seen from the root the encoder started from (its ready set is
    ``ready``).  Both are attached by the encoder and excluded from
    equality, so ready-set prefixes are not hash-consed.  The order in which
    a ready set is displayed is not stored: it depends on the prefixes above
    this one (see :func:`display_order`), so renderers read it off the path.
    """

    __slots__ = ("action", "executed", "ready", "cont", "proof", "state",
                 "initial", "wellformed", "backward_ready", "_hash", "_rollback",
                 "_key")
    __match_args__ = ("action", "executed", "ready", "cont")
    plain = False

    def __init__(self, action: str, executed: bool, ready: frozenset[str],
                 cont: "BrsProcess", proof: "ProofTerm | None" = None,
                 state: "Process | None" = None):
        self.action = action
        self.executed = executed
        self.ready = ready
        self.cont = cont
        self.proof = proof
        self.state = state
        _fill_prefix(self, action, executed, cont)
        self._hash = hash((action, executed, ready, cont._hash))
        self._key = None

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not BrsPrefix:
            return NotImplemented
        return (self._hash == other._hash and self.action == other.action
                and self.executed == other.executed and self.ready == other.ready
                and self.cont == other.cont)

    __hash__ = _Node.__hash__

    def moved(self, executed: bool, cont: "BrsProcess") -> "BrsPrefix":
        """This prefix flagged ``executed`` over ``cont``, ready set, proof and state kept."""
        return BrsPrefix(self.action, executed, self.ready, cont, self.proof, self.state)

    def __repr__(self) -> str:
        return (f"BrsPrefix(action={self.action!r}, executed={self.executed!r}, "
                f"ready={self.ready!r}, cont={self.cont!r})")


def touch(recency: tuple[str, ...], action: str) -> tuple[str, ...]:
    """The recency order after ``action`` is marked: it becomes the newest.

    A recency order lists the distinct actions of the ready-set prefixes on
    a path, from the root down, by their last occurrence, oldest first.
    """
    if recency and recency[-1] == action:
        return recency
    if action in recency:
        i = recency.index(action)
        recency = recency[:i] + recency[i + 1:]
    return recency + (action,)


def display_order(ready: frozenset[str], recency: tuple[str, ...]) -> tuple[str, ...]:
    """How a ready set reads at a prefix whose path (itself included) has
    the recency order ``recency``: actions never marked on the path first,
    alphabetically, then the marked ones, oldest first."""
    return tuple(sorted(a for a in ready if a not in recency)) + tuple(
        a for a in recency if a in ready
    )


Process = Union[Nil, Prefix, Choice, Par]
BrsProcess = Union[Nil, BrsPrefix, Choice]
ProcessLike = Union[Process, BrsProcess]

NIL = object.__new__(Nil)


# --- proof terms -----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Act:
    name: str


@dataclass(frozen=True, slots=True)
class Dot:
    inner: "ProofTerm"


@dataclass(frozen=True, slots=True)
class PlusL:
    inner: "ProofTerm"


@dataclass(frozen=True, slots=True)
class PlusR:
    inner: "ProofTerm"


@dataclass(frozen=True, slots=True)
class ParL:
    inner: "ProofTerm"


@dataclass(frozen=True, slots=True)
class ParR:
    inner: "ProofTerm"


@dataclass(frozen=True, slots=True)
class Syn:
    left: "ProofTerm"
    right: "ProofTerm"


ProofTerm = Union[Act, Dot, PlusL, PlusR, ParL, ParR, Syn]

# Markers usable in operator paths (sequences of unary proof-term wrappers),
# each with the text that writes it in a proof and names it in a syntax path.
Marker = type
ProofPath = tuple[Marker, ...]
MARKERS: dict[Marker, str] = {Dot: ".", PlusL: "+l", PlusR: "+r", ParL: "|l", ParR: "|r"}


def compose(path: ProofPath, t: ProofTerm) -> ProofTerm:
    """Wrap ``t`` in the markers of ``path``, outermost marker first."""
    for m in reversed(path):
        t = m(t)
    return t


def act(t: ProofTerm) -> str:
    """Extract the action of a proof term.

    Defined on synchronization pairs only when both components carry the
    same action; otherwise raises :class:`ActUndefinedError`.
    """
    if isinstance(t, Act):
        return t.name
    if type(t) in MARKERS:
        return act(t.inner)
    a1 = act(t.left)
    a2 = act(t.right)
    if a1 != a2:
        raise ActUndefinedError(f"synchronization pairs actions {a1!r} and {a2!r}")
    return a1


# --- predicates ------------------------------------------------------------

def is_initial(p: ProcessLike) -> bool:
    """True when no prefix of ``p`` is flagged as executed."""
    return p.initial


def is_wellformed(p: ProcessLike) -> bool:
    """The inductive well-formedness predicate.

    An unexecuted prefix must be followed by an initial process, an executed
    prefix by a well-formed one, and at most one side of a choice may be
    non-initial.  Parallel composition requires both sides well-formed.
    """
    return p.wellformed


def to_initial(p: ProcessLike) -> ProcessLike:
    """Erase every executed flag of ``p``.

    An initial term is returned as it is; otherwise the result is computed
    once and kept on the node, so repeated calls return the same object.
    """
    if p.initial:
        return p
    q = p._rollback
    if q is not None:
        return q
    if isinstance(p, (Prefix, BrsPrefix)):
        q = p.moved(False, to_initial(p.cont))
    elif isinstance(p, Choice):
        q = Choice(to_initial(p.left), to_initial(p.right))
    else:
        q = Par(p.sync, to_initial(p.left), to_initial(p.right))
    p._rollback = q
    return q


# --- ready sets ------------------------------------------------------------

def frs(p: ProcessLike) -> frozenset[str]:
    """Forward ready set: the actions ``p`` can immediately execute."""
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, (Prefix, BrsPrefix)):
        if p.executed:
            return frs(p.cont)
        return frozenset((p.action,))
    if isinstance(p, Choice):
        li, ri = is_initial(p.left), is_initial(p.right)
        if li and ri:
            return frs(p.left) | frs(p.right)
        return frs(p.left) if not li else frs(p.right)
    bar = lambda s: s - frozenset(p.sync)
    fl, fr_ = frs(p.left), frs(p.right)
    return bar(fl) | bar(fr_) | (fl & fr_ & frozenset(p.sync))


def brs(p: ProcessLike) -> frozenset[str]:
    """Backward ready set: the actions whose execution led to ``p``."""
    return p.backward_ready


# --- measures and updates --------------------------------------------------

def size(p: Process) -> int:
    """Upper bound on the length of any forward trace from ``p``.

    Prefixes count one each, a choice contributes the larger branch, and a
    parallel composition the sum of its sides.
    """
    if isinstance(p, Nil):
        return 0
    if isinstance(p, (Prefix, BrsPrefix)):
        return 1 + size(p.cont)
    if isinstance(p, Choice):
        return max(size(p.left), size(p.right))
    return size(p.left) + size(p.right)


def height(p: ProcessLike) -> int:
    if isinstance(p, Nil):
        return 0
    if isinstance(p, (Prefix, BrsPrefix)):
        return 1 + height(p.cont)
    return 1 + max(height(p.left), height(p.right))


def upd(e: Process, t: ProofTerm) -> Process:
    """Mark the single action occurrence addressed by ``t`` as executed.

    Total: whenever the proof term does not match the structure of ``e`` the
    corresponding subterm is returned unchanged.  A synchronization pair
    updates both sides of a parallel composition.
    """
    if isinstance(e, Nil):
        return e
    if isinstance(e, Prefix):
        if not e.executed:
            if isinstance(t, Act) and t.name == e.action:
                return e.moved(True, e.cont)
            return e
        if isinstance(t, Dot):
            return e.moved(True, upd(e.cont, t.inner))
        return e
    if isinstance(e, Choice):
        if isinstance(t, PlusL):
            return Choice(upd(e.left, t.inner), e.right)
        if isinstance(t, PlusR):
            return Choice(e.left, upd(e.right, t.inner))
        return e
    if isinstance(t, ParL):
        return Par(e.sync, upd(e.left, t.inner), e.right)
    if isinstance(t, ParR):
        return Par(e.sync, e.left, upd(e.right, t.inner))
    if isinstance(t, Syn):
        return Par(e.sync, upd(e.left, t.left), upd(e.right, t.right))
    return e


def addressed_occurrences(t: ProofTerm) -> frozenset[tuple[str, ...]]:
    """Syntax paths of the action occurrences a proof term addresses.

    Mirrors the navigation of ``upd``: one path for a plain action, both
    sides for a synchronization pair.
    """
    if isinstance(t, Act):
        return frozenset({()})
    if isinstance(t, Syn):
        return addressed_occurrences(ParL(t.left)) | addressed_occurrences(ParR(t.right))
    return frozenset((MARKERS[type(t)],) + p for p in addressed_occurrences(t.inner))
