"""Concrete syntax: parser and pretty-printers.

Grammar::

    P   ::= "0" | ACT "." P | ACT "!" "." P | P "+" P | P PAR P
    PAR ::= "|[" (ACT ("," ACT)*)? "]|"
    ACT ::= [a-z][a-z0-9_]*

Prefix binds tighter than "+", which binds tighter than parallel
composition.  "+" and parallel are parsed left-associatively but the AST
keeps the shape that was written, so ``parse(render(p)) == p``.  ``!`` marks
an executed action; ``tau`` is a legal action name but is rejected inside
``|[...]|``.
"""

from __future__ import annotations

import re

from .errors import ParseError, WellFormednessError
from .terms import (
    NIL,
    Act,
    BrsPrefix,
    Choice,
    Dot,
    MARKERS,
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
    TAU,
    display_order,
    is_initial,
    is_wellformed,
    touch,
)

# the ACT rule of the grammar
ACTION_RE = re.compile(r"[a-z][a-z0-9_]*")

_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<act>{ACTION_RE.pattern})
  | (?P<nil>0)
  | (?P<parl>\|\[)
  | (?P<parr>\]\|)
  | (?P<op>[().+,!])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token("op" if kind == "op" else kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    # par (loosest) > choice > prefix
    def parse_par(self) -> Process:
        left = self.parse_choice()
        while self.peek().kind == "parl":
            sync = self.parse_sync()
            right = self.parse_choice()
            left = Par(sync, left, right)
        return left

    def parse_sync(self) -> tuple[str, ...]:
        self.next()  # |[
        names: list[str] = []
        if self.peek().kind == "act":
            while True:
                tok = self.next()
                if tok.text == TAU:
                    raise ParseError("tau cannot occur in a synchronization set", tok.line, tok.col)
                names.append(tok.text)
                if self.peek().text == ",":
                    self.next()
                else:
                    break
        if self.peek().kind != "parr":
            raise self.error("expected ']|' closing the synchronization set")
        self.next()
        return tuple(names)  # Par sorts and deduplicates it

    def parse_choice(self) -> Process:
        left = self.parse_prefix()
        while self.peek().text == "+":
            self.next()
            right = self.parse_prefix()
            left = Choice(left, right)
        return left

    def parse_prefix(self) -> Process:
        tok = self.peek()
        if tok.kind == "nil":
            self.next()
            return NIL
        if tok.text == "(":
            self.next()
            inner = self.parse_par()
            self.expect(")")
            return inner
        if tok.kind == "act":
            self.next()
            executed = False
            if self.peek().text == "!":
                self.next()
                executed = True
            self.expect(".")
            cont = self.parse_prefix()
            return Prefix(tok.text, executed, cont)
        raise self.error(f"expected a process term, found {tok.text or 'end of input'!r}")


def parse(src: str, allow_illformed: bool = False) -> Process:
    """Parse a process term; rejects ill-formed terms unless told otherwise."""
    parser = _Parser(_tokenize(src))
    term = parser.parse_par()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.col)
    if not allow_illformed and not is_wellformed(term):
        raise WellFormednessError(_wf_diagnosis(term))
    return term


def _wf_diagnosis(p: ProcessLike, path: str = "") -> str:
    """Name the innermost violated well-formedness clause."""
    where = f" at {path}" if path else ""
    if isinstance(p, Prefix) and not p.executed and not is_initial(p.cont):
        if is_wellformed(p.cont):
            return f"executed action follows an unexecuted one{where}"
        return _wf_diagnosis(p.cont, path + f"{p.action}.")
    if isinstance(p, (Prefix,)) and p.executed and not is_wellformed(p.cont):
        return _wf_diagnosis(p.cont, path + f"{p.action}!.")
    if isinstance(p, Choice):
        li, ri = is_initial(p.left), is_initial(p.right)
        if not li and not ri:
            return f"executed action on both sides of +{where}"
        if not is_wellformed(p.left):
            return _wf_diagnosis(p.left, path + MARKERS[PlusL] + " ")
        if not is_wellformed(p.right):
            return _wf_diagnosis(p.right, path + MARKERS[PlusR] + " ")
    if isinstance(p, Par):
        if not is_wellformed(p.left):
            return _wf_diagnosis(p.left, path + MARKERS[ParL] + " ")
        if not is_wellformed(p.right):
            return _wf_diagnosis(p.right, path + MARKERS[ParR] + " ")
    return f"term is not well-formed{where}"


# --- rendering -------------------------------------------------------------

_PREC_PAR = 0
_PREC_CHOICE = 1
_PREC_PREFIX = 2


def render(p: ProcessLike, unicode: bool = False) -> str:
    """Minimal-parentheses canonical text form; inverse of :func:`parse`.

    A ready set is displayed in the order its prefix's path from ``p`` gives
    it (:func:`~revexp.terms.display_order`), so a subterm rendered on its
    own orders its ready sets by its own path, which may differ from how
    they read inside the whole term.
    """
    return _render(p, _PREC_PAR, unicode, ())


def _mark(executed: bool, unicode: bool) -> str:
    if not executed:
        return ""
    return "†" if unicode else "!"


def _render(p: ProcessLike, level: int, uni: bool, recency: tuple[str, ...],
            memo: dict | None = None) -> str:
    """Text of ``p`` at precedence ``level``.  ``memo``, when given, keeps
    the text of each plain node by ``(id, level)`` with the node (which
    keeps its id unique); it serves one value of ``uni``."""
    if isinstance(p, Nil):
        return "0"
    if memo is not None and p.plain:
        hit = memo.get((id(p), level))
        if hit is not None:
            return hit[0]
    if isinstance(p, Prefix):
        text = f"{p.action}{_mark(p.executed, uni)}.{_render(p.cont, _PREC_PREFIX, uni, recency, memo)}"
    elif isinstance(p, BrsPrefix):
        recency = touch(recency, p.action)
        ready = ",".join(display_order(p.ready, recency))
        l, r = ("⟨", "⟩") if uni else ("<", ">")
        text = f"{l}{p.action}{_mark(p.executed, uni)},{{{ready}}}{r}.{_render(p.cont, _PREC_PREFIX, uni, recency, memo)}"
    elif isinstance(p, Choice):
        text = (f"{_render(p.left, _PREC_CHOICE, uni, recency, memo)} + "
                f"{_render(p.right, _PREC_PREFIX, uni, recency, memo)}")
        if level > _PREC_CHOICE:
            text = f"({text})"
    else:
        text = (f"{_render(p.left, _PREC_PAR, uni, recency, memo)} |[{','.join(p.sync)}]| "
                f"{_render(p.right, _PREC_CHOICE, uni, recency, memo)}")
        if level > _PREC_PAR:
            text = f"({text})"
    if memo is not None and p.plain:
        memo[(id(p), level)] = (text, p)
    return text


def fired_ready(u: ProcessLike, theta: ProofTerm) -> tuple[str, ...]:
    """The ready set of the prefix of the ready-set process ``u`` that
    ``theta`` fires, in the order :func:`render` of ``u`` displays it: the
    proof is walked down ``u``, touching each prefix it passes."""
    recency: tuple[str, ...] = ()
    while not isinstance(theta, Act):
        if isinstance(theta, Dot):
            recency = touch(recency, u.action)
            u = u.cont
        else:
            u = u.left if isinstance(theta, PlusL) else u.right
        theta = theta.inner
    return display_order(u.ready, touch(recency, u.action))


def render_proof(t: ProofTerm) -> str:
    if isinstance(t, Act):
        return t.name
    if isinstance(t, Syn):
        return f"<{render_proof(t.left)}, {render_proof(t.right)}>"
    mark = MARKERS[type(t)]
    # a dot prefixes its inner proof; a two-letter marker is a word
    return f"{mark}{'' if mark == '.' else ' '}{render_proof(t.inner)}"


_MARKER_OF = {text: marker for marker, text in MARKERS.items()}
_PROOF_TOKEN_RE = re.compile(
    "({})\\s*".format("|".join([*map(re.escape, MARKERS.values()), ACTION_RE.pattern, "[<>,]"])))


def _proof_tokens(src: str, line: int) -> list[_Token]:
    """The tokens of a proof term written on ``line``, each at its column in
    ``src``, then an end token."""
    tokens = []
    pos = len(src) - len(src.lstrip())
    while pos < len(src):
        m = _PROOF_TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"bad proof term near {src[pos:]!r}", line, pos + 1)
        tokens.append(_Token("proof", m.group(1), line, pos + 1))
        pos = m.end()
    return tokens + [_Token("eof", "", line, len(src) + 1)]


def _parse_proof(parser: _Parser) -> ProofTerm:
    tok = parser.next()
    if tok.kind == "eof":
        raise ParseError("unexpected end of proof term", tok.line, tok.col)
    marker = _MARKER_OF.get(tok.text)
    if marker is not None:
        return marker(_parse_proof(parser))
    if tok.text == "<":
        left = _parse_proof(parser)
        if parser.peek().text != ",":
            raise parser.error("expected ',' in synchronization proof")
        parser.next()
        right = _parse_proof(parser)
        if parser.peek().text != ">":
            raise parser.error("expected '>' closing synchronization proof")
        parser.next()
        return Syn(left, right)
    if ACTION_RE.fullmatch(tok.text):
        return Act(tok.text)
    raise ParseError(f"unexpected token {tok.text!r} in proof term", tok.line, tok.col)


def parse_proof_term(src: str, line: int = 1) -> ProofTerm:
    """Parse a proof term; an error gives ``line`` and the column in ``src``."""
    parser = _Parser(_proof_tokens(src, line))
    term = _parse_proof(parser)
    tok = parser.peek()
    if tok.kind != "eof":
        rest = [t.text for t in parser.tokens[parser.pos:-1]]
        raise ParseError(f"trailing input in proof term: {rest!r}", tok.line, tok.col)
    return term
