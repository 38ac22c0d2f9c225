"""Differential suites tying the deciders to each other.

The completeness results make the axiom systems and the bisimilarity
checkers interchangeable oracles: on every pair of enumerated processes the
forward theory must agree with past-sensitive forward bisimilarity, the
reverse theory with reverse bisimilarity, and the forward-reverse theory
with forward-reverse bisimilarity; and the ready-set encoding must preserve
the two reverse-sensitive equivalences.  Comparing all pairs is done by
comparing partitions: bisimilarity classes come from one refinement over
the union system of every enumerated term, decider classes from the keys
the theories decide by (:func:`~revexp.axioms.theory_key`: the keys of the
canonical normal forms for the forward and forward-reverse theories, and
least observation traces for the reverse theory), and the two partitions
coincide exactly when the verdicts agree on every pair.  A pairwise spot
check against the public two-process entry points guards the partition
shortcut itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .axioms import Theory, prove_eq, theory_encoding, theory_key
from .bisim import Variant, _sequential, check, check_brs, refine
from .encoding import brs_preserved_shape, encode, verify_correspondence
from .errors import NotReachableError
from .generate import enumerate_processes, seed_terms
from .semantics import DEFAULT_STATE_CAP, build_lts, build_union, require_reachable
from .syntax import render
from .terms import Process, ProcessLike, brs, frs, is_initial, to_initial


@dataclass
class SuiteReport:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = "" if self.ok else f"; first: {self.failures[0]}"
        return f"{status} {self.name}: {self.checked} checks, {len(self.failures)} failures{extra}"


def class_ids(terms: list[ProcessLike], variant: Variant,
              max_states: int = DEFAULT_STATE_CAP) -> list[int]:
    """Bisimilarity class of each term, plain or ready-set, from one
    refinement over their union.  The union holds exactly the well-formed
    terms reachable from their initial versions, so a term it lacks raises
    :class:`~revexp.errors.NotReachableError`."""
    union = build_union([[to_initial(t) for t in terms]], max_states)
    blocks, _ = refine(union, variant)
    try:
        return [blocks[union.index[t]] for t in terms]
    except KeyError as missing:
        raise NotReachableError(f"{render(missing.args[0])} is not reachable") from None


def _partitions_agree(name: str, terms: list[Process],
                      left: list, right: list) -> SuiteReport:
    """Whether two labelings of ``terms`` induce the same partition."""
    report = SuiteReport(name)
    by_left: dict = {}
    by_right: dict = {}
    n = len(terms)
    report.checked = n * (n - 1) // 2
    for term, l, r in zip(terms, left, right):
        for key, value, table in ((l, r, by_left), (r, l, by_right)):
            prev = table.get(key)
            if prev is None:
                table[key] = (value, term)
            elif prev[0] != value:
                report.failures.append(
                    f"{render(term)} vs {render(prev[1])}: one side identifies "
                    f"them, the other does not"
                )
    return report


def _spot_check(report: SuiteReport, terms, class_of, pair_fn,
                samples: int, seed: int) -> None:
    """Validate the partition shortcut against the pairwise entry point."""
    rng = random.Random(seed)
    n = len(terms)
    if n < 2:
        return
    for _ in range(samples):
        i, j = rng.randrange(n), rng.randrange(n)
        expected = class_of[i] == class_of[j]
        got = pair_fn(terms[i], terms[j])
        report.checked += 1
        if got != expected:
            report.failures.append(
                f"pairwise check on {render(terms[i])} vs {render(terms[j])} "
                f"disagrees with the partition"
            )


def completeness_suite(max_size: int, alphabet,
                       max_states: int = DEFAULT_STATE_CAP) -> list[SuiteReport]:
    """Axiom-system verdicts against bisimilarity verdicts, all pairs, with
    60 pairs spot-checked by ``prove_eq`` and 20 by ``check``."""
    terms = list(enumerate_processes(max_size, alphabet, max_states))
    tables: dict = {}
    reports = []

    pairs = [
        ("completeness F vs FB:ps", Theory.F, Variant.FBPS),
        ("completeness R vs RB", Theory.R, Variant.RB),
        ("completeness FR vs FRB", Theory.FR, Variant.FRB),
    ]
    for name, theory, variant in pairs:
        keys = [theory_key(p, theory, tables) for p in terms]
        ids = class_ids(terms, variant, max_states)
        report = _partitions_agree(name, terms, ids, keys)
        _spot_check(
            report, terms, ids,
            lambda p, q, t=theory: prove_eq(p, q, t),
            60, 7,
        )
        _spot_check(
            report, terms, ids,
            lambda p, q, v=variant: check(p, q, v, max_states).equivalent,
            20, 8,
        )
        reports.append(report)
    return reports


def corollary_suite(max_size: int, alphabet,
                    max_states: int = DEFAULT_STATE_CAP) -> list[SuiteReport]:
    """Equivalence of processes versus equivalence of their encodings, with
    up to 60 pairs spot-checked by ``check_brs``."""
    terms = list(enumerate_processes(max_size, alphabet, max_states))
    reports = []
    for variant in (Variant.RB, Variant.FRB):
        theory = Theory.R if variant is Variant.RB else Theory.FR
        encodings = [theory_encoding(p, theory) for p in terms]
        ids = class_ids(terms, variant, max_states)
        enc_ids = class_ids(encodings, variant, max_states)
        report = _partitions_agree(
            f"encoding preserves {variant.name}", terms, ids, enc_ids
        )
        rng = random.Random(11)
        n = len(terms)
        for _ in range(min(60, n * n)):
            i, j = rng.randrange(n), rng.randrange(n)
            got = check_brs(encodings[i], encodings[j], variant, max_states).equivalent
            report.checked += 1
            if got != (ids[i] == ids[j]):
                report.failures.append(
                    f"check_brs on encodings of {render(terms[i])} vs "
                    f"{render(terms[j])} disagrees with the original verdict"
                )
        reports.append(report)
    return reports


def correspondence_suite(max_size: int, alphabet) -> SuiteReport:
    """Transition correspondence on every enumerated initial process; stops
    at the fifth failure."""
    report = SuiteReport("transition correspondence")
    for seed in seed_terms(max_size, alphabet):
        result = verify_correspondence(seed)
        report.checked += result.edges_checked
        for violation in result.violations:
            report.failures.append(
                f"{violation.process} after {list(violation.history)}: {violation.detail}"
            )
            if len(report.failures) >= 5:
                return report
    return report


def necessary_condition_suite(max_size: int, alphabet,
                              max_states: int = DEFAULT_STATE_CAP) -> SuiteReport:
    """No equivalent pair may differ on the variant's ready sets, ``frs``
    forward and :func:`~revexp.semantics.require_reachable` backward."""
    report = SuiteReport("ready sets are necessary conditions")
    terms = list(enumerate_processes(max_size, alphabet, max_states))
    ready = [(frs(term), require_reachable(term)) for term in terms]
    for variant in Variant:
        ids = class_ids(terms, variant, max_states)
        classes: dict[int, tuple] = {}
        for term, (forward, backward), cid in zip(terms, ready, ids):
            sets = (
                forward if variant.forward else None,
                backward if variant.backward else None,
            )
            report.checked += 1
            prev = classes.get(cid)
            if prev is None:
                classes[cid] = (sets, term)
            elif prev[0] != sets:
                report.failures.append(
                    f"{variant.name}: {render(term)} and {render(prev[1])} are "
                    f"equivalent but their ready sets differ"
                )
    return report


def preservation_suite(max_size: int, alphabet,
                       max_states: int = DEFAULT_STATE_CAP) -> SuiteReport:
    """Initiality always preserved; ready sets preserved under the side condition."""
    report = SuiteReport("encoding preserves initiality and ready sets")
    for p in enumerate_processes(max_size, alphabet, max_states):
        u = encode(p)
        report.checked += 1
        if is_initial(u) != is_initial(p):
            report.failures.append(f"initiality not preserved on {render(p)}")
            continue
        if brs_preserved_shape(p) and brs(u) != brs(p):
            report.failures.append(f"backward ready set not preserved on {render(p)}")
    return report


def loop_and_tree_suite(max_size: int, alphabet,
                        max_states: int = DEFAULT_STATE_CAP) -> SuiteReport:
    """Non-initial states have incoming transitions; sequential systems are trees."""
    report = SuiteReport("loop and tree properties")
    for seed in seed_terms(max_size, alphabet):
        lts = build_lts(seed, max_states)
        sequential = _sequential(seed)
        for sid in range(lts.num_states):
            report.checked += 1
            has_incoming = bool(lts.incoming_ids[sid])
            if lts.initial[sid] == has_incoming:
                report.failures.append(
                    f"{lts.renders[sid]}: initiality and incoming transitions disagree"
                )
            elif sequential and not lts.initial[sid] and len(lts.incoming_ids[sid]) != 1:
                report.failures.append(
                    f"{lts.renders[sid]}: sequential state with several incoming transitions"
                )
        if sequential and len(lts.transitions) != lts.num_states - 1:
            report.failures.append(f"{render(seed)}: sequential system is not a tree")
    return report


def run_selftest(max_size: int, alphabet,
                 max_states: int = DEFAULT_STATE_CAP) -> list[SuiteReport]:
    """Every suite of ``revexp selftest``; ``max_states`` is the state
    budget of each system the suites build."""
    reports = []
    reports.extend(completeness_suite(max_size, alphabet, max_states=max_states))
    reports.extend(corollary_suite(max_size, alphabet, max_states=max_states))
    reports.append(correspondence_suite(min(max_size, 3), alphabet))
    reports.append(necessary_condition_suite(max_size, alphabet, max_states))
    reports.append(preservation_suite(max_size, alphabet, max_states))
    reports.append(loop_and_tree_suite(max_size, alphabet, max_states))
    return reports
