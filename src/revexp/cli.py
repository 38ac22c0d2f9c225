"""Command-line interface.

Exit codes: 0 when the command succeeds (and, for verdict-producing
commands, the answer is "equivalent"), 1 when the answer is "not
equivalent" or a self-test fails, 2 on any error.  ``REVEXP_STATE_CAP``, a
positive integer, overrides the default state budget for system
construction.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import selfcheck
from .axioms import (
    Theory,
    expansion_law_f,
    format_trace,
    normalize_f,
    normalize_fr,
    normalize_r,
    prove_eq,
)
from .bisim import Variant, check
from .encoding import HistoryOrder, encode
from .errors import RevexpError
from .generate import enumerate_processes
from .semantics import (
    DEFAULT_STATE_CAP,
    build_brs_lts,
    build_lts,
    export,
    forward_steps,
    require_reachable,
)
from .syntax import ACTION_RE, parse, parse_proof_term, render, render_proof
from .terms import TAU, Par, Process, to_initial

_VARIANTS = {v.value: v for v in Variant}
_THEORIES = {t.value: t for t in Theory}


def _state_cap() -> int:
    value = os.environ.get("REVEXP_STATE_CAP")
    if not value:
        return DEFAULT_STATE_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"REVEXP_STATE_CAP must be a positive integer, not {value!r}")
    return cap


def _actions(text: str, option: str) -> tuple[str, ...]:
    """The comma-separated entries of ``option``, each an action name the
    parser accepts other than tau (alphabets also make synchronization sets)."""
    names = tuple(a for a in text.split(",") if a)
    for name in names:
        if not ACTION_RE.fullmatch(name):
            raise ValueError(f"{option} entry {name!r} is not an action name "
                             "([a-z][a-z0-9_]*)")
        if name == TAU:
            raise ValueError(f"{option} entry 'tau' is not allowed (tau cannot synchronize)")
    return names


def _max_size(value: int) -> int:
    if value < 0:
        raise ValueError(f"--max-size must be a non-negative integer, not {value}")
    return value


def _order_from_spec(spec: str, p: Process) -> HistoryOrder | None:
    """The order ``--order`` names for encoding ``p``: none (the left head
    first) for ``lex``; for ``file:<path>``, the history the file lists,
    one proof term a line, which must replay from the initial version of
    ``p`` to ``p``."""
    if spec == "lex":
        return None
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        with open(path, encoding="utf-8") as handle:
            entries = [
                (number, parse_proof_term(line.rstrip(), number))
                for number, line in enumerate(handle, 1)
                if line.strip()
            ]
        require_reachable(p)
        state = to_initial(p)
        for number, theta in entries:
            target = dict(forward_steps(state)).get(theta)
            if target is None:
                raise ValueError(f"{number}: {render_proof(theta)} is not a step of "
                                 f"{render(state)}")
            state = target
        if state != p:
            raise ValueError(f"the order file ends at {render(state)}, not at {render(p)}")
        return HistoryOrder(tuple(theta for _, theta in entries))
    raise ValueError(f"unknown order {spec!r}; use 'lex' or 'file:<path>'")


def _cmd_check(args) -> int:
    p1 = parse(args.p1)
    p2 = parse(args.p2)
    verdict = check(p1, p2, _VARIANTS[args.variant], _state_cap())
    if verdict.equivalent:
        # read (and so check) the witness before printing the answer
        blocks = verdict.witness if args.witness else ()
        print("equivalent")
        for block in blocks:
            print("  { " + " , ".join(block) + " }")
        return 0
    ce = verdict.counterexample
    print("not equivalent")
    print(f"  {ce.left}  vs  {ce.right}")
    print(f"  direction: {ce.direction}; {ce.detail}")
    return 1


def _cmd_lts(args) -> int:
    p = parse(args.process)
    if args.brs:
        lts = build_brs_lts(encode(p), _state_cap())
    else:
        require_reachable(p)
        lts = build_lts(to_initial(p), _state_cap())
    print(export(lts, args.format))
    return 0


def _cmd_encode(args) -> int:
    p = parse(args.process)
    order = _order_from_spec(args.order, p)
    print(render(encode(p, order), unicode=args.unicode))
    return 0


def _cmd_normalize(args) -> int:
    p = parse(args.process)
    theory = _THEORIES[args.theory]
    if theory is Theory.F:
        require_reachable(p)
        result = normalize_f(p)
    elif theory is Theory.R:
        result = normalize_r(encode(p))
    else:
        result = normalize_fr(encode(p))
    print(render(result, unicode=args.unicode))
    return 0


def _cmd_prove(args) -> int:
    p1 = parse(args.p1)
    p2 = parse(args.p2)
    trace = [] if args.trace else None
    equal = prove_eq(p1, p2, _THEORIES[args.theory], trace)
    print("equal" if equal else "not equal")
    if args.trace and trace:
        print(format_trace(trace))
    return 0 if equal else 1


def _cmd_expand(args) -> int:
    p1 = parse(args.p1)
    p2 = parse(args.p2)
    sync = _actions(args.sync, "--sync")
    for p in (p1, p2):
        require_reachable(p)
    require_reachable(Par(sync, p1, p2))
    expanded = expansion_law_f(normalize_f(p1), normalize_f(p2), sync)
    print(render(normalize_f(expanded), unicode=args.unicode))
    return 0


def _cmd_enumerate(args) -> int:
    max_size = _max_size(args.max_size)
    alphabet = _actions(args.alphabet, "--alphabet")
    count = 0
    for p in enumerate_processes(max_size, alphabet, _state_cap()):
        count += 1
        if not args.count_only:
            print(render(p))
    if args.count_only:
        print(count)
    return 0


def _cmd_selftest(args) -> int:
    max_size = _max_size(args.max_size)
    alphabet = _actions(args.alphabet, "--alphabet")
    reports = selfcheck.run_selftest(max_size, alphabet, _state_cap())
    ok = True
    for report in reports:
        print(report.line())
        ok = ok and report.ok
    return 0 if ok else 1


def _add_unicode_flag(sub) -> None:
    """For the commands that print a term."""
    sub.add_argument("--unicode", action="store_true",
                     help="render executed actions with a dagger")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revexp",
        description="Workbench for concurrent reversible processes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("check", help="decide a bisimilarity between two processes")
    sub.add_argument("--variant", choices=sorted(_VARIANTS), required=True)
    sub.add_argument("p1")
    sub.add_argument("p2")
    sub.add_argument("--witness", action="store_true",
                     help="print the witness partition when equivalent")
    sub.set_defaults(fn=_cmd_check)

    sub = subs.add_parser("lts", help="build and export a transition system")
    sub.add_argument("process")
    sub.add_argument("--format", choices=("dot", "json"), default="dot")
    sub.add_argument("--brs", action="store_true",
                     help="build the system of the ready-set encoding instead")
    sub.set_defaults(fn=_cmd_lts)

    sub = subs.add_parser("encode", help="ready-set encoding of a process")
    sub.add_argument("process")
    sub.add_argument("--order", default="lex",
                     help="serialization order: 'lex' or 'file:<path>' with one proof term per line")
    _add_unicode_flag(sub)
    sub.set_defaults(fn=_cmd_encode)

    sub = subs.add_parser("normalize", help="normal form in one of the three theories")
    sub.add_argument("--theory", choices=sorted(_THEORIES), required=True)
    sub.add_argument("process")
    _add_unicode_flag(sub)
    sub.set_defaults(fn=_cmd_normalize)

    sub = subs.add_parser("prove", help="equality in one of the three axiom systems")
    sub.add_argument("--theory", choices=sorted(_THEORIES), required=True)
    sub.add_argument("p1")
    sub.add_argument("p2")
    sub.add_argument("--trace", action="store_true",
                     help="print the axiom applications used")
    sub.set_defaults(fn=_cmd_prove)

    sub = subs.add_parser(
        "expand",
        help="interleaving expansion of a parallel composition of two processes",
    )
    sub.add_argument("p1")
    sub.add_argument("p2")
    sub.add_argument("--sync", default="",
                     help="comma-separated synchronization set")
    _add_unicode_flag(sub)
    sub.set_defaults(fn=_cmd_expand)

    sub = subs.add_parser("enumerate", help="stream the bounded process family")
    sub.add_argument("--max-size", type=int, required=True)
    sub.add_argument("--alphabet", required=True)
    sub.add_argument("--count-only", action="store_true")
    sub.set_defaults(fn=_cmd_enumerate)

    sub = subs.add_parser("selftest", help="run the differential oracle suites")
    sub.add_argument("--max-size", type=int, required=True)
    sub.add_argument("--alphabet", default="a,b")
    sub.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RevexpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: term nested too deeply for this tool", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
