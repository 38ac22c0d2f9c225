"""Acceptance criteria, one test per criterion, each printing a verdict line.

Three entries are expected to fail and are asserted as stated anyway; the
analysis lives in the project notes:

* criterion 1's reverse-bisimilarity entry: two initial processes have no
  incoming transitions, so they are reverse bisimilar by definition (the
  source text works this example and also identifies a1.P with a2.P); the
  stated verdict contradicts both that and criterion 5 on the same pair;
* criteria 4 and 5 for the reverse (and at this size forward-reverse)
  theories: a handful of enumerated pairs with concurrent pasts are
  distinguished by the backward game yet their executed actions serialize
  identically under every consistent history, so no encoding-based decider
  can separate them; the agreement is asserted at the stated 100% and the
  failures are counted precisely.
"""

from __future__ import annotations

import re
import time

from revexp import Variant, brs, check, encode, parse, render
from revexp.axioms import (
    Theory,
    canonical,
    normalize_fr,
    normalize_r,
    structural_key,
    theory_encoding,
)
from revexp.encoding import brs_preserved_shape, verify_correspondence
from revexp.generate import enumerate_processes, seed_terms
from revexp import selfcheck
from revexp.semantics import undo_steps
from revexp.terms import act

P = parse


def _ws(text: str) -> str:
    return re.sub(r"\s+", "", text)


def _verdict(n: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


def test_criterion_1_figure_verdicts():
    t0 = time.time()
    par, choice = P("a.0 |[]| b.0"), P("a.b.0 + b.a.0")
    results = {
        "FB": check(par, choice, Variant.FB).equivalent,
        "RB": check(par, choice, Variant.RB).equivalent,
        "FRB": check(par, choice, Variant.FRB).equivalent,
        "FBps": check(par, choice, Variant.FBPS).equivalent,
    }
    elapsed = time.time() - t0
    expected = {"FB": True, "RB": False, "FRB": False, "FBps": True}
    ok = results == expected and elapsed < 1.0
    line = _verdict(1, ok, f"verdict table {results}, {elapsed:.2f}s")
    assert elapsed < 1.0
    assert results["FB"] is True
    assert results["FRB"] is False
    assert results["FBps"] is True
    assert results["RB"] is False, (
        f"{line}; the RB entry cannot hold: initial processes have no "
        "incoming transitions, hence are reverse bisimilar by definition "
        "(see notes/decisions.md)"
    )


GOLDEN = [
    ("a.b.0 + b.a.0", "<a,{a}>.<b,{b}>.0 + <b,{b}>.<a,{a}>.0"),
    ("a!.b!.0", "<a!,{a}>.<b!,{b}>.0"),
    ("a.0 |[]| b.0", "<a,{a}>.<b,{a,b}>.0 + <b,{b}>.<a,{b,a}>.0"),
    ("a!.0 |[]| b.0", "<a!,{a}>.<b,{a,b}>.0 + <b,{b}>.<a,{b,a}>.0"),
    ("a!.0 |[]| b!.0", "<a!,{a}>.<b!,{a,b}>.0 + <b,{b}>.<a,{b,a}>.0"),
    (
        "(a.0 + c.0) |[]| (b.0 + d.0)",
        "<a,{a}>.(<b,{a,b}>.0 + <d,{a,d}>.0) + <c,{c}>.(<b,{c,b}>.0 + <d,{c,d}>.0)"
        " + <b,{b}>.(<a,{b,a}>.0 + <c,{b,c}>.0) + <d,{d}>.(<a,{d,a}>.0 + <c,{d,c}>.0)",
    ),
    ("a!.c!.0 |[c]| c!.b.0", "<a!,{a}>.<c!,{c}>.<b,{b}>.0"),
]


def test_criterion_2_golden_encodings():
    mismatches = []
    for src, want in GOLDEN:
        got = render(encode(P(src)))
        if _ws(got) != _ws(want):
            mismatches.append((src, got, want))
    _verdict(2, not mismatches, f"{len(GOLDEN)} golden encodings byte-matched")
    assert not mismatches, mismatches


def test_criterion_3_transition_correspondence():
    t0 = time.time()
    seeds = seed_terms(3, ("a", "b", "c"))
    edges = 0
    violations = []
    for seed in seeds:
        report = verify_correspondence(seed)
        edges += report.edges_checked
        violations.extend(report.violations)
    elapsed = time.time() - t0
    _verdict(3, not violations and elapsed < 60,
             f"{len(seeds)} initial processes, {edges} edges, "
             f"{len(violations)} violations, {elapsed:.1f}s")
    assert elapsed < 60
    assert not violations, violations[:5]


def test_criterion_4_corollary_agreement():
    reports = selfcheck.corollary_suite(3, ("a", "b"))
    pairs = min(r.checked for r in reports)
    ok = all(r.ok for r in reports)
    _verdict(4, ok, f"{pairs} pairs per variant; " + "; ".join(r.line() for r in reports))
    assert pairs >= 500
    assert ok, (
        "the reverse-bisimilarity corollary fails on backward-branching "
        "pairs whose serializations collide (see notes/decisions.md): "
        + "; ".join(r.failures[0] for r in reports if not r.ok)
    )


def test_criterion_5_completeness_oracles():
    t0 = time.time()
    reports = selfcheck.completeness_suite(5, ("a", "b"))
    elapsed = time.time() - t0
    ok = all(r.ok for r in reports) and elapsed < 300
    _verdict(5, ok, f"{elapsed:.1f}s; " + "; ".join(r.line() for r in reports))
    assert elapsed < 300
    for report in reports:
        assert report.ok, (
            f"{report.name}: {len(report.failures)} of {report.checked} pairs "
            "disagree; the encoding-based deciders cannot separate terms whose "
            "concurrent pasts serialize identically (see notes/decisions.md); "
            f"first: {report.failures[0]}"
        )



def test_the_known_failures_are_failures_of_encoding_reflection():
    """The analysis that criteria 4 and 5 cite, checked at size 4: the R and
    FR theories decide the theory encodings exactly, and the pairs where a
    theory and bisimilarity on terms disagree are the pairs where terms and
    their encodings disagree (notes/decisions.md)."""
    terms = list(enumerate_processes(4, ("a", "b")))
    for variant, theory, failing in ((Variant.RB, Theory.R, 68),
                                     (Variant.FRB, Theory.FR, 2)):
        encodings = [theory_encoding(p, theory) for p in terms]
        if theory is Theory.R:
            keys = [structural_key(normalize_r(u)) for u in encodings]
        else:
            keys = [structural_key(canonical(normalize_fr(u), theory)) for u in encodings]
        term_ids = selfcheck.class_ids(terms, variant)
        encoding_ids = selfcheck.class_ids(encodings, variant)

        def disagreements(left, right):
            return selfcheck._partitions_agree(theory.name, terms, left, right).failures

        assert disagreements(encoding_ids, keys) == []
        reflection = disagreements(term_ids, encoding_ids)
        assert disagreements(term_ids, keys) == reflection
        assert len(reflection) == failing


def _backward_ready_traces(p, memo: dict) -> frozenset:
    """Every complete undo sequence from ``p`` to its initial version, each
    step recorded as its action and the backward ready set it leaves."""
    traces = memo.get(p)
    if traces is None:
        if p.initial:
            traces = frozenset([()])
        else:
            traces = frozenset(((act(theta), brs(q)),) + rest
                               for theta, q in undo_steps(p)
                               for rest in _backward_ready_traces(q, memo))
        memo[p] = traces
    return traces


def test_the_encoding_with_backward_ready_traces_gives_the_classes():
    """What the encoding loses, named at size 4 (notes/decisions.md): the
    class of a term's theory encoding together with its backward ready
    traces gives its RB and FRB class, with no exception.  A check only;
    no theory, suite or criterion uses it."""
    terms = list(enumerate_processes(4, ("a", "b")))
    memo: dict = {}
    traces = [_backward_ready_traces(p, memo) for p in terms]
    for variant, theory in ((Variant.RB, Theory.R), (Variant.FRB, Theory.FR)):
        encoding_ids = selfcheck.class_ids([theory_encoding(p, theory) for p in terms],
                                           variant)
        labels = list(zip(encoding_ids, traces))
        term_ids = selfcheck.class_ids(terms, variant)
        report = selfcheck._partitions_agree(theory.name, terms, term_ids, labels)
        assert report.failures == []

def test_criterion_6_congruence():
    report = selfcheck.congruence_suite(3, ("a", "b"), samples=200)
    _verdict(6, report.ok, report.line())
    assert report.checked == 200
    assert report.ok, report.failures[:5]


def test_criterion_7_necessary_conditions():
    report = selfcheck.necessary_condition_suite(3, ("a", "b"))
    _verdict(7, report.ok, report.line())
    assert report.ok, report.failures[:5]


def test_criterion_8_preservation():
    report = selfcheck.preservation_suite(3, ("a", "b"))
    pair = P("a!.0 |[]| b!.0")
    exhibits = (
        not brs_preserved_shape(pair)
        and brs(pair) == frozenset({"a", "b"})
        and brs(encode(pair)) == frozenset({"b"})
    )
    ok = report.ok and exhibits
    _verdict(8, ok, f"{report.line()}; documented mismatch exhibited: {exhibits}")
    assert report.ok, report.failures[:5]
    assert exhibits


def test_criterion_9_loop_and_tree():
    reports = [
        selfcheck.loop_and_tree_suite(3, ("a", "b")),
        selfcheck.loop_and_tree_suite(2, ("a", "b", "c")),
    ]
    ok = all(r.ok for r in reports)
    _verdict(9, ok, "; ".join(r.line() for r in reports))
    for report in reports:
        assert report.ok, report.failures[:5]
