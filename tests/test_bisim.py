"""The four equivalences, their witnesses, and the refinement kernel."""

from __future__ import annotations

import dataclasses
import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from revexp import (
    Variant,
    build_lts,
    check,
    check_brs,
    encode,
    necessary_check,
    parse,
    prove_eq,
    render,
    render_proof,
)
from revexp import bisim, selfcheck, semantics
from revexp.bisim import Verdict, refine, verify_partition
from revexp.axioms import Theory, theory_encoding
from revexp.errors import NotReachableError, RevexpError, StateBudgetError, WitnessCheckError
from revexp.generate import enumerate_processes, seed_terms
from revexp.selfcheck import class_ids
from revexp.semantics import brs_forward_steps, build_brs_lts, build_union
from revexp import is_reachable
from revexp.terms import NIL, BrsPrefix, Choice, Par, Prefix, act, brs, is_initial, to_initial

from test_byte_identity import _products
import test_walked_digests as walked


P = parse
ALL = (Variant.FB, Variant.FBPS, Variant.RB, Variant.FRB)


def _check_union(p, q):
    """The union of the closures of the initial versions of ``p`` and
    ``q``, and the states of ``p`` and ``q`` in it."""
    return bisim._union(p, q, semantics.DEFAULT_STATE_CAP)


def test_duplicate_choice_identified_by_everything():
    for v in ALL:
        assert check(P("a.0 + a.0"), P("a.0"), v).equivalent


def test_interleaving_vs_true_concurrency():
    par, choice = P("a.0 |[]| b.0"), P("a.b.0 + b.a.0")
    assert check(par, choice, Variant.FB).equivalent
    assert check(par, choice, Variant.FBPS).equivalent
    assert not check(par, choice, Variant.FRB).equivalent
    # the fully executed states have distinct backward ready sets
    assert not check(P("a!.0 |[]| b!.0"), P("a!.b!.0 + b.a.0"), Variant.RB).equivalent
    assert not check(P("a!.0 |[]| b!.0"), P("a!.b!.0 + b.a.0"), Variant.FRB).equivalent
    # with matching incoming labels everywhere, two initial processes are
    # reverse bisimilar: every initial process has no incoming transitions
    assert check(par, choice, Variant.RB).equivalent


def test_past_sensitivity():
    assert check(P("a!.b.0"), P("b.0"), Variant.FB).equivalent
    assert not check(P("a!.b.0"), P("b.0"), Variant.FBPS).equivalent


def test_identity_of_the_past_is_forgotten_forward_only():
    p1, p2 = P("a!.c.0"), P("b!.c.0")
    assert check(p1, p2, Variant.FBPS).equivalent
    assert not check(p1, p2, Variant.RB).equivalent
    q1, q2 = P("a.c.0"), P("b.c.0")
    assert check(q1, q2, Variant.RB).equivalent
    assert not check(q1, q2, Variant.FBPS).equivalent


def test_not_reachable_error():
    with pytest.raises(NotReachableError):
        check(P("a!.0 |[a]| 0"), P("a.0"), Variant.FB)


def test_check_brs():
    u1 = encode(P("a.b.0 + b.a.0"))
    u2 = encode(P("a.0 |[]| b.0"))
    assert not check_brs(u1, u2, Variant.FRB).equivalent
    assert check_brs(u1, u1, Variant.FRB).equivalent
    # both systems have empty incoming sets everywhere that matters
    assert check_brs(encode(P("a.0")), encode(P("b.0")), Variant.RB).equivalent
    with pytest.raises(ValueError):
        check_brs(u1, u2, Variant.FB)


def test_check_brs_searches_no_undo_target_under_rb(monkeypatch):
    # a ready-set process has no parallel composition, so every state a
    # reachable one is undone to is reachable, and its undo cone searches none
    family = list(enumerate_processes(3, ("a", "b")))
    rng = random.Random(31)
    pairs = [[theory_encoding(rng.choice(family), Theory.R) for _ in range(2)]
             for _ in range(200)]
    searches = []
    search = semantics._Nodes.undoes_to_initial

    def counted(nodes, x):
        searches.append(x)
        return search(nodes, x)

    monkeypatch.setattr(semantics._Nodes, "undoes_to_initial", counted)
    for u, v in pairs:
        check_brs(u, v, Variant.RB)
    assert searches == []
    # a plain synchronized product still searches the states it is undone to
    p = P("(a!.b!.0 |[]| a!.0) |[a,b]| (a!.0 |[]| b!.a!.0)")
    assert check(p, p, Variant.RB).equivalent and searches


def test_check_brs_refuses_an_illformed_root_before_building():
    # as check refuses: the walk that decides reachability runs first, so no
    # budget is exceeded, however small
    illformed = BrsPrefix("a", False, frozenset("a"), encode(P("b!.0")))
    for variant in (Variant.RB, Variant.FRB):
        for pair in ((illformed, encode(P("a.0"))), (encode(P("a.0")), illformed)):
            with pytest.raises(NotReachableError, match="is not reachable"):
                check_brs(*pair, variant, max_states=1)


def test_necessary_check():
    assert not necessary_check(P("a!.0 |[]| b!.0"), P("a!.b!.0 + b.a.0"), Variant.RB)
    p = P("a.0 |[a]| (a.0 + b.0)")
    assert necessary_check(p, p, Variant.FRB)
    assert not necessary_check(P("a.0"), P("b.0"), Variant.FB)


def _block_count(lts, variant) -> int:
    blocks, _ = refine(lts, variant)
    return len(set(blocks))


def test_largest_bisimulation_on_the_diamond():
    lts = build_lts(P("a.0 |[]| b.0"))
    # brute force over all relations: the two intermediate states offer
    # different actions, so every state sits alone
    assert _block_count(lts, Variant.FB) == _brute_force_class_count(lts, Variant.FB)
    assert _block_count(lts, Variant.FB) == 4
    # with equal actions the intermediate states collapse
    auto = build_lts(P("a.0 |[]| a.0"))
    assert _block_count(auto, Variant.FB) == _brute_force_class_count(auto, Variant.FB)
    assert _block_count(auto, Variant.FB) == 3


def _brute_force_class_count(lts, variant):
    from revexp.terms import act as act_of
    n = lts.num_states
    related = [[True] * n for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if not related[i][j]:
                    continue
                def matches(edges_i, edges_j, endpoint):
                    for ti in edges_i:
                        t1 = lts.transitions[ti]
                        if not any(
                            act_of(lts.transitions[tj].proof) == act_of(t1.proof)
                            and related[getattr(t1, endpoint)][
                                getattr(lts.transitions[tj], endpoint)]
                            for tj in edges_j
                        ):
                            return False
                    return True
                ok = True
                if variant.forward:
                    ok = (matches(lts.outgoing[i], lts.outgoing[j], "target")
                          and matches(lts.outgoing[j], lts.outgoing[i], "target"))
                if ok and variant.backward:
                    ok = (matches(lts.incoming_ids[i], lts.incoming_ids[j], "source")
                          and matches(lts.incoming_ids[j], lts.incoming_ids[i], "source"))
                if not ok:
                    related[i][j] = False
                    changed = True
    classes = {tuple(row) for row in related}
    return len(classes)


def test_refinement_is_idempotent():
    lts = build_lts(P("a.0 |[a]| (a.0 + b.0)"))
    for v in ALL:
        blocks, _ = refine(lts, v)
        again, _ = refine(lts, v)
        assert blocks == again
        assert verify_partition(lts, blocks, v) is None


def test_discrete_lts_partitions():
    lts = build_lts(P("0"))
    assert _block_count(lts, Variant.FB) == 1
    union = build_union([[P("0")], [P("a!.0")]])
    blocks, _ = refine(union, Variant.FBPS)
    # the initiality flag splits even transition-free states
    assert blocks[0] != blocks[union.index[P("a!.0")]]
    assert len(set(blocks)) == 2


def test_witness_partitions_are_stable():
    pairs = [
        (P("a.0 + a.0"), P("a.0"), Variant.FRB),
        (P("a.0 |[]| b.0"), P("a.b.0 + b.a.0"), Variant.FB),
        (P("a!.c.0"), P("b!.c.0"), Variant.FBPS),
    ]
    for p1, p2, v in pairs:
        verdict = check(p1, p2, v)
        assert verdict.equivalent and verdict.witness is not None
        union, _, _ = _check_union(p1, p2)
        blocks, _ = refine(union, v)
        assert verify_partition(union, blocks, v) is None


def _joined(first, second) -> tuple:
    """Terms, transitions and adjacency of ``first`` followed by ``second``,
    whose state and transition ids are moved past those of ``first``."""
    off, n = first.num_states, len(first.transitions)
    transitions = list(first.transitions) + [
        dataclasses.replace(t, source=t.source + off, target=t.target + off)
        for t in second.transitions
    ]
    outgoing = first.outgoing + [[i + n for i in ids] for ids in second.outgoing]
    incoming = first.incoming_ids + [[i + n for i in ids] for ids in second.incoming_ids]
    return list(first.terms) + list(second.terms), transitions, outgoing, incoming


def _assert_one_system_after_the_other(x, y, build) -> bool:
    """The check union of ``x`` and ``y`` against the two systems joined;
    returns whether the two share their initial version."""
    union, s_x, s_y = bisim._union(x, y, semantics.DEFAULT_STATE_CAP)
    r_x, r_y = to_initial(x), to_initial(y)
    shared = r_x == r_y
    if shared:  # one closure, not two copies of it
        single = build(r_x)
        expected = (single.terms, list(single.transitions), single.outgoing,
                    single.incoming_ids)
    else:
        expected = _joined(build(r_x), build(r_y))
    assert (union.terms, list(union.transitions), union.outgoing,
            union.incoming_ids) == expected
    assert union.initial == [t.initial for t in union.terms]
    assert union.terms[s_x] == x and union.terms[s_y] == y
    return shared


def test_the_check_union_is_one_system_after_the_other():
    products = _products()
    shared = [_assert_one_system_after_the_other(p, q, build_lts)
              for p, q in zip(products, products[1:] + products[:1])]
    # each product is followed by a walked state of its own system half the time
    assert shared.count(True) == 27
    rng = random.Random(8)
    terms = list(enumerate_processes(3, ("a", "b")))
    pairs = [tuple(rng.sample(terms, 2)) for _ in range(40)]
    for p in rng.sample(terms, 20):
        pairs.append((p, rng.choice(build_lts(to_initial(p)).terms)))
    shared = [_assert_one_system_after_the_other(p, q, build_lts)
              for p, q in pairs]
    assert shared.count(True) >= 20 and shared.count(False) >= 20
    for p, q in pairs[::4]:
        u, v = theory_encoding(p, Theory.FR), theory_encoding(q, Theory.FR)
        _assert_one_system_after_the_other(u, v, build_brs_lts)


def test_the_state_budget_is_per_process():
    # 3, 4, 4 states, each ready to fire a and b
    small, p, q = P("a.0 + b.0"), P("a.0 |[]| b.0"), P("a.b.0 + b.0")
    union, _, _ = bisim._union(p, q, 4)
    assert union.num_states == 8
    for v in ALL:
        check(p, q, v, max_states=4)
        check(small, q, v, max_states=4)
    for pair in ((p, q), (small, q), (q, small)):
        with pytest.raises(StateBudgetError, match="state budget of 3 states exceeded"):
            check(*pair, Variant.FB, max_states=3)
    # ready to fire {a, b} against {a, c}, or {a}: round 1 answers, building nothing
    c = P("a.b.0 + c.0")
    for pair in ((p, c), (P("a.0"), c), (c, P("a.0"))):
        assert not check(*pair, Variant.FB, max_states=3).equivalent


def test_a_check_builds_no_transition_records(monkeypatch):
    made = []
    record = semantics.Transition
    monkeypatch.setattr(semantics, "Transition",
                        lambda *args: made.append(args) or record(*args))
    p, q = P("a.0 |[]| b.0"), P("a.b.0 + b.a.0")
    verdicts = [check(p, q, v) for v in ALL]
    verdicts += [check_brs(encode(p), encode(x), v)
                 for x in (p, q) for v in (Variant.RB, Variant.FRB)]
    for verdict in verdicts:
        assert (verdict.witness is None) != (verdict.counterexample is None)
    assert made == []
    # reading a transition still builds its record
    assert build_lts(p).transitions[0].obs == "a" and len(made) == 1


def _count_renders(monkeypatch) -> list:
    """The terms rendered from now on, by a system's renders or by a
    counterexample."""
    rendered = []
    for module in (semantics, bisim):
        monkeypatch.setattr(module, "render",
                            lambda p: rendered.append(p) or render(p))
    return rendered


def test_the_witness_is_rendered_when_first_read(monkeypatch):
    rendered = _count_renders(monkeypatch)
    # 4 + 5 states
    verdict = check(P("a.0 |[]| b.0"), P("a.b.0 + b.a.0"), Variant.FB)
    assert verdict.equivalent and rendered == []
    witness = verdict.witness
    assert verdict.witness == witness and len(witness) == 4
    assert len(rendered) == 9


def test_a_counterexample_renders_only_its_two_states(monkeypatch):
    rendered = _count_renders(monkeypatch)
    verdict = check(P("a.0 |[]| b.0"), P("a.b.0 + b.a.0"), Variant.FRB)
    ce = verdict.counterexample
    assert not verdict.equivalent and verdict.witness is None
    assert [render(p) for p in rendered] == [ce.left, ce.right]


def test_reading_an_unstable_witness_raises(monkeypatch):
    monkeypatch.setattr(bisim, "refine",
                        lambda lts, variant, watch=None: ([0] * lts.num_states, None))
    verdict = check(P("a.b.0"), P("a.c.0"), Variant.FB)
    assert verdict.equivalent
    with pytest.raises(WitnessCheckError, match="share a block but have different"):
        verdict.witness
    # a pair that round 1 separates is answered before refine
    assert not check(P("a.0"), P("b.0"), Variant.FB).equivalent


def test_a_verdict_built_by_hand_keeps_its_fields():
    witness = (("a.0",),)
    verdict = Verdict(True, Variant.FB, witness=witness)
    assert verdict.witness is witness and verdict.counterexample is None
    assert verdict == Verdict(True, Variant.FB, witness)
    assert Verdict(False, Variant.RB).witness is None


def test_verify_partition_rejects_unstable_partitions():
    diamond = build_lts(P("a.0 |[]| b.0"))
    assert verify_partition(diamond, [0] * diamond.num_states, Variant.FB) == (
        "states a.0 |[]| b.0 and a!.0 |[]| b.0 share a block but have "
        "different signatures"
    )
    union = build_union([[P("0")], [P("a!.0")]])
    assert verify_partition(union, [0, 0], Variant.FB) is None
    assert verify_partition(union, [0, 0], Variant.FBPS) == (
        "block 0 mixes initial and non-initial states"
    )


def test_counterexample_reporting():
    verdict = check(P("a!.0 |[]| b!.0"), P("a!.b!.0 + b.a.0"), Variant.RB)
    assert not verdict.equivalent
    ce = verdict.counterexample
    assert ce is not None and ce.direction == "backward"
    verdict = check(P("a.0"), P("b.0"), Variant.FB)
    assert verdict.counterexample.direction == "forward"
    verdict = check(P("a!.b.0"), P("b.0"), Variant.FBPS)
    assert verdict.counterexample.direction == "initiality"


def test_verdicts_form_equivalences():
    terms = [p for p in enumerate_processes(2, ("a", "b"))][:14]
    for v in (Variant.FBPS, Variant.RB):
        verdicts = {
            (i, j): check(terms[i], terms[j], v).equivalent
            for i, j in itertools.product(range(len(terms)), repeat=2)
        }
        for i, j, k in itertools.product(range(len(terms)), repeat=3):
            assert verdicts[(i, i)]
            assert verdicts[(i, j)] == verdicts[(j, i)]
            if verdicts[(i, j)] and verdicts[(j, k)]:
                assert verdicts[(i, k)]


def test_frb_refines_fbps_and_rb():
    terms = list(enumerate_processes(2, ("a", "b")))
    frb = class_ids(terms, Variant.FRB)
    fbps = class_ids(terms, Variant.FBPS)
    rb = class_ids(terms, Variant.RB)
    index = {}
    for i, cid in enumerate(frb):
        j = index.setdefault(cid, i)
        assert fbps[j] == fbps[i] and rb[j] == rb[i]


def test_parallel_contexts_preserve_verdicts():
    rng = random.Random(5)
    terms = list(enumerate_processes(2, ("a", "b")))
    contexts = [q for q in terms if is_initial(q)]
    done = 0
    while done < 40:
        p1, p2 = rng.choice(terms), rng.choice(terms)
        v = rng.choice(ALL)
        if not check(p1, p2, v).equivalent:
            continue
        q = rng.choice(contexts)
        sync = rng.choice([(), ("a",), ("b",)])
        c1, c2 = Par(sync, p1, q), Par(sync, p2, q)
        if not (is_reachable(c1) and is_reachable(c2)):
            continue
        assert check(c1, c2, v).equivalent, (render(c1), render(c2), v)
        done += 1


def _round_loop(lts, variant):
    """The round-based refinement, kept as the reference for ``refine``:
    every round recomputes every state's signature, with observations read
    off the proofs.  Returns the partitions P0, P1, ...
    up to the stable one, and every state's signatures under each.  A
    ready-set observation pairs the action with the sorted ready set that
    ``brs_forward_steps`` gives the step."""
    n = lts.num_states
    if variant.past_sensitive:
        blocks = [1 if lts.initial[s] else 0 for s in range(n)]
    else:
        blocks = [0] * n
    if lts.kind == "proved":
        obs = [act(t.proof) for t in lts.transitions]
    else:
        obs = []
        for t in lts.transitions:
            ready = next(r for (theta, r), _ in brs_forward_steps(lts.terms[t.source])
                         if theta == t.proof)
            obs.append((act(t.proof), tuple(sorted(set(ready)))))
    rounds, history = [blocks], []
    while True:
        sigs = []
        for out, inc in zip(lts.outgoing, lts.incoming_ids):
            parts = []
            if variant.forward:
                parts.append(tuple(sorted(
                    {(obs[i], blocks[lts.transitions[i].target]) for i in out})))
            if variant.backward:
                parts.append(tuple(sorted(
                    {(obs[i], blocks[lts.transitions[i].source]) for i in inc})))
            sigs.append(tuple(parts))
        history.append(sigs)
        ids: dict = {}
        new_blocks = [ids.setdefault(key, len(ids)) for key in zip(blocks, sigs)]
        if len(ids) == len(set(blocks)):
            return rounds, history
        blocks = new_blocks
        rounds.append(blocks)


def _assert_refine_matches(lts, variant, watched):
    """``refine`` against the round loop, unwatched and on each watched pair."""
    rounds, history = _round_loop(lts, variant)
    stable = rounds[-1]
    assert refine(lts, variant) == (stable, None)
    for left, right in watched:
        blocks, split = refine(lts, variant, watch=(left, right))
        if stable[left] == stable[right]:
            assert (blocks, split) == (stable, None)
            continue
        # a separated pair stops at the first round that separates it
        first = next(k for k, p in enumerate(rounds) if p[left] != p[right])
        if first == 0:
            assert (blocks, split) == (rounds[0], ((), ()))
            continue
        ids: dict = {}
        assert blocks == [ids.setdefault(b, len(ids)) for b in rounds[first]]
        sigs = history[first - 1]
        texts = lts.renders[left], lts.renders[right]
        assert (bisim._describe_split(*texts, variant, split)
                == bisim._describe_split(*texts, variant, (sigs[left], sigs[right])))


def test_refine_matches_the_round_loop():
    seeds = list(seed_terms(3, ("a", "b")))
    union = build_union([seeds])
    roots = [union.index[s] for s in seeds]
    for v in ALL:
        _assert_refine_matches(union, v, zip(roots[::45], roots[7::45]))
    products = _products()
    assert len(products) == 54
    for p, q in zip(products, products[1:] + products[:1]):
        union, s_p, s_q = _check_union(p, q)
        pairs = [(s_p, s_q), (0, union.index[to_initial(q)])]
        for v in ALL:
            _assert_refine_matches(union, v, pairs)
    for v, theory in ((Variant.RB, Theory.R), (Variant.FRB, Theory.FR)):
        encodings = [to_initial(theory_encoding(s, theory)) for s in seeds]
        brs_union = build_union([encodings])
        roots = [brs_union.index[u] for u in encodings]
        _assert_refine_matches(brs_union, v, zip(roots[::45], roots[7::45]))


def test_a_seed_that_no_round_splits_keeps_its_block_order():
    # the initiality seed numbers initial states 1; renumbering by first
    # state would put the a.0 block first
    assert check(P("a.0"), P("a.0"), Variant.FBPS).witness == (("a!.0",), ("a.0",))


def test_a_separated_pair_stops_at_its_separating_round():
    p, q = P("c.0 + a.a.a.0"), P("d.0 + a.a.a.0")
    union, s_p, s_q = _check_union(p, q)
    stable, _ = refine(union, Variant.FB)
    blocks, split = refine(union, Variant.FB, watch=(s_p, s_q))
    # round 1 separates the roots by their actions; the a-chains take two more
    assert blocks[s_p] != blocks[s_q] and split is not None
    assert len(set(blocks)) == 4 < len(set(stable)) == 5
    assert check(p, q, Variant.FB).counterexample == bisim.Counterexample(
        "c.0 + a.a.a.0", "d.0 + a.a.a.0", "forward", "c",
        "a forward transition labeled 'c' exists on one side only",
    )


def test_refine_sweeps_before_the_rounds(monkeypatch):
    # every watched pair runs the variant's sweeps, and a pair that the
    # stable partition separates then runs the rounds from the seed: one
    # that round 5 separates, and one that round 1 separates (as under
    # check_brs; check answers those before building)
    directions = _sweeps(monkeypatch)
    leaves = ["(a.b.0 + c.0)"] * 3
    # the roots differ in the action after four a's, the walked chains in
    # the one before them
    forward = [P(" |[]| ".join(leaves + [chain])) for chain in ("a.a.a.a.b.0", "a.a.a.a.c.0")]
    backward = [_walked_to(P(" |[]| ".join([chain] + leaves)), [0] * 5)
                for chain in ("b.a.a.a.a.0", "c.a.a.a.a.0")]
    # initial processes are reverse bisimilar, so RB's round-1 pair is walked
    early = [P("c.0 + a.a.a.0"), P("d.0 + a.a.a.0")]
    early_rb = [_walked_to(P(chain), [0]) for chain in ("b.a.0", "c.a.0")]
    for v in ALL:
        swept = {d for d, on in ((True, v.forward), (False, v.backward)) if on}
        for (p, q), separating in (((backward if v is Variant.RB else forward), 5),
                                   ((early_rb if v is Variant.RB else early), 1)):
            union, s_p, s_q = _check_union(p, q)
            rounds, _ = _round_loop(union, v)
            first = next(k for k, blocks in enumerate(rounds) if blocks[s_p] != blocks[s_q])
            assert first == separating, v
            directions.clear()
            assert refine(union, v, watch=(s_p, s_q))[1] is not None
            assert set(directions) == swept, v
            _assert_refine_matches(union, v, [(s_p, s_q)])


def test_check_watches_only_pairs_that_round_1_keeps_together(monkeypatch):
    # check answers a pair that the seed or round 1 separates before it
    # builds anything, so every pair it has refine watch shares a seed
    # block and has equal signatures under the seed
    watched = Counter()
    original = bisim.refine

    def refine_watched(lts, variant, watch=None):
        if watch is not None:
            seed = [int(variant.past_sensitive and lts.initial[s])
                    for s in range(lts.num_states)]
            signature = bisim._signature_of(lts, seed, variant)
            left, right = watch
            assert seed[left] == seed[right], variant
            assert signature(left) == signature(right), variant
            watched[variant] += 1
        return original(lts, variant, watch)

    monkeypatch.setattr(bisim, "refine", refine_watched)
    rng = random.Random(25)
    pairs = []
    for k in (4, 5):
        for synced in (False, True):
            for _ in range(6):
                p, permuted = walked._products(rng, k, synced)
                x = walked._walked(rng, p, 2 * k)
                pairs += [(p, permuted), (x, walked._walked(rng, p, 2 * k)),
                          (x, walked._walked(rng, permuted, 2 * k))]
    family = list(enumerate_processes(3, ("a", "b")))
    pairs += [(rng.choice(family), rng.choice(family)) for _ in range(1000)]
    for p, q in pairs:
        for v in ALL:
            check(p, q, v)
    assert all(watched[v] > 0 for v in ALL), watched


def _sweeps(monkeypatch) -> list:
    """The direction of each sweep refinement makes, ``True`` for forward."""
    directions = []
    sweep = bisim._sweep

    def counted(lts, blocks, order, forward):
        directions.append(forward)
        return sweep(lts, blocks, order, forward)

    monkeypatch.setattr(bisim, "_sweep", counted)
    return directions


def test_one_sweep_per_direction_and_one_more_for_frb(monkeypatch):
    # one sweep stabilizes one direction; FRB's backward sweep splits the
    # forward-stable partition, and a second forward sweep splits nothing
    directions = _sweeps(monkeypatch)
    p = P(" |[]| ".join(["(a.b.0 + c.0)"] * 5))
    q = P(" |[]| ".join(["(c.0 + a.b.0)"] * 5))
    union, s_p, s_q = _check_union(p, q)
    expected = {Variant.FB: [True], Variant.FBPS: [True], Variant.RB: [False],
                Variant.FRB: [True, False, True]}
    for v in ALL:
        for watch in (None, (s_p, s_q)):
            directions.clear()
            assert refine(union, v, watch)[1] is None
            assert directions == expected[v], (v, watch)


def test_a_forward_cycle_is_refused():
    # a.a.0's second step turned back to the first state (a cycle of two)
    # or to its own source (a loop); every forward step of a term executes
    # a prefix, so no system built from terms has either
    lts = build_lts(P("a.a.0"))
    for targets in ([1, 0], [1, 1]):
        looped = dataclasses.replace(
            lts, target=targets,
            incoming_ids=[[i for i, t in enumerate(targets) if t == s] for s in range(3)])
        for v in ALL:
            with pytest.raises(ValueError, match="refinement needs acyclic forward steps"):
                refine(looped, v)


# --- leaf quotients -------------------------------------------------------------
#
# Under FB, FB:ps and FRB, ``check`` decides on a union whose leaves are
# quotiented by the variant's bisimilarity.  Its answers must be those of the
# unquotiented decision: the union, refinement watching the pair, and the
# separating round's counterexample.

def _unquotiented(p, q, variant):
    union, s1, s2 = bisim._union(p, q, semantics.DEFAULT_STATE_CAP)
    blocks, split = refine(union, variant, watch=(s1, s2))
    if blocks[s1] == blocks[s2]:
        return True, bisim._witness(union, blocks), None
    return False, None, bisim._describe_split(
        union.renders[s1], union.renders[s2], variant, split)


def _answer(decide, *args):
    try:
        return decide(*args)
    except RevexpError as error:
        return type(error), str(error)


def _checked(p, q, variant):
    verdict = check(p, q, variant)
    return verdict.equivalent, verdict.witness, verdict.counterexample


_two = st.sampled_from(["a", "b"])


def _pars(operands):
    return st.builds(lambda sync, l, r: Par(tuple(sync), l, r),
                     st.lists(_two, max_size=2), operands, operands)


def _leaf_terms():
    """Sequential terms over {a, b}, whose repeated branches the variants'
    bisimilarities merge, and now and then a prefixed product."""
    sequential = st.recursive(
        st.sampled_from([NIL, P("a.0"), P("b.0")]),
        lambda sub: st.builds(Prefix, _two, st.just(False), sub)
        | st.builds(Choice, sub, sub)
        | sub.map(lambda x: Choice(x, x)),
        max_leaves=4,
    )
    return sequential | st.builds(Prefix, _two, st.just(False), _pars(sequential))


def _random_products():
    """Products with nested synchronization sets."""
    return st.recursive(_leaf_terms(), _pars, max_leaves=4)


def _walked_to(p, picks):
    for pick in picks:
        steps = semantics.forward_steps(p)
        if not steps:
            break
        p = steps[pick % len(steps)][1]
    return p


def _marked(p, pick):
    """``p`` with one of its unexecuted prefixes flagged executed, which
    mostly gives an unreachable or ill-formed term."""
    prefixes = []

    def collect(x):
        if isinstance(x, Prefix):
            if not x.executed:
                prefixes.append(x)
            collect(x.cont)
        elif isinstance(x, (Choice, Par)):
            collect(x.left)
            collect(x.right)

    def rebuild(x, target):
        if x is target:
            return Prefix(x.action, True, x.cont)
        if isinstance(x, Prefix):
            return Prefix(x.action, x.executed, rebuild(x.cont, target))
        if isinstance(x, Choice):
            return Choice(rebuild(x.left, target), rebuild(x.right, target))
        if isinstance(x, Par):
            return Par(x.sync, rebuild(x.left, target), rebuild(x.right, target))
        return x

    collect(p)
    return rebuild(p, prefixes[pick % len(prefixes)]) if prefixes else p


def _desynced(p, pick):
    """``p`` with one operand of a synchronized product stepped alone by a
    synchronized action, which mostly gives a well-formed term that no run
    reaches."""
    out = []

    def visit(x, put):
        if isinstance(x, Prefix):
            visit(x.cont, lambda y: put(Prefix(x.action, x.executed, y)))
        elif isinstance(x, Choice):
            visit(x.left, lambda y: put(Choice(y, x.right)))
            visit(x.right, lambda y: put(Choice(x.left, y)))
        elif isinstance(x, Par):
            for theta, y in semantics.forward_steps(x.left):
                if act(theta) in x.sync:
                    out.append(put(Par(x.sync, y, x.right)))
            for theta, y in semantics.forward_steps(x.right):
                if act(theta) in x.sync:
                    out.append(put(Par(x.sync, x.left, y)))
            visit(x.left, lambda y: put(Par(x.sync, y, x.right)))
            visit(x.right, lambda y: put(Par(x.sync, x.left, y)))

    visit(p, lambda y: y)
    out = [q for q in out if q.wellformed]
    return out[pick % len(out)] if out else p


_roots = st.tuples(_random_products(), st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
                   st.integers(0, 5), st.integers(0, 10**6))


def _root(spec):
    """A walked state, or about one time in six each a marked one and a
    desynchronized one."""
    p, picks, which, mark = spec
    p = _walked_to(p, picks)
    if which == 4:
        return _marked(p, mark)
    return _desynced(p, mark) if which == 5 else p


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_roots, _roots)
def test_check_answers_as_the_unquotiented_decision(left, right):
    p, q = _root(left), _root(right)
    for v in ALL:
        assert _answer(_checked, p, q, v) == _answer(_unquotiented, p, q, v), v


def _deep_products():
    """Left-nested products of three to five leaves, each parallel
    composition with its own synchronization set."""
    def nest(leaves, syncs):
        p = leaves[0]
        for leaf, sync in zip(leaves[1:], syncs):
            p = Par(tuple(sync), p, leaf)
        return p
    return st.builds(nest, st.lists(_leaf_terms(), min_size=3, max_size=5),
                     st.lists(st.lists(_two, max_size=2), min_size=4, max_size=4))


_deep_roots = st.tuples(_deep_products(), st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
                        st.integers(0, 5), st.integers(0, 10**6))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_deep_roots, _deep_roots)
def test_check_answers_as_the_unquotiented_decision_on_deep_walks(left, right):
    # a state walked far into a product reaches, and is undone to, a small
    # part of the union: the cones and closures check decides on
    p, q = _root(left), _root(right)
    for v in ALL:
        assert _answer(_checked, p, q, v) == _answer(_unquotiented, p, q, v), v


def _decided_systems(p, q, variant) -> list:
    """The undo cone of ``p`` and ``q``, their closure with the leaves
    quotiented by ``variant`` (that of their initial versions when it reads
    backward), and the union, each with the states of ``p`` and ``q``."""
    cap = semantics.DEFAULT_STATE_CAP
    roots = [to_initial(p), to_initial(q)]
    starts = roots if variant.backward else [p, q]
    systems = (semantics._undo_cone([[p], [q]], cap),
               semantics._build([[x] for x in starts], cap,
                                bisim._leaf_classes(roots, variant, cap)),
               bisim._union(p, q, cap)[0])
    return [(lts, lts.index[p], lts.index[q]) for lts in systems]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(st.tuples(_roots, _roots), st.tuples(_deep_roots, _deep_roots)))
def test_refine_matches_the_round_loop_on_the_systems_checks_decide_on(specs):
    # an unreachable root stands for its initial version
    p, q = (x if is_reachable(x) else to_initial(x) for x in map(_root, specs))
    for v in ALL:
        for lts, s_p, s_q in _decided_systems(p, q, v):
            _assert_refine_matches(lts, v, [(s_p, s_q)])


def _proved_f(p, q):
    return prove_eq(p, q, Theory.F)


def _fbps_verdict(p, q):
    return check(p, q, Variant.FBPS).equivalent


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_roots, _roots)
def test_the_f_theory_agrees_with_fbps(left, right):
    # the F theory is complete for FB:ps; its normal forms decide without
    # building or refining any system
    p, q = _root(left), _root(right)
    proved, decided = _answer(_proved_f, p, q), _answer(_fbps_verdict, p, q)
    if isinstance(proved, tuple):
        assert isinstance(decided, tuple) and decided[0] is proved[0]
    else:
        assert proved == decided


def test_an_unreachable_root_raises_before_the_budget():
    # the union of either pair exceeds the budget of 2 states; the marked
    # root is found unreachable first, whichever side it is on
    x = P("(a!.0 + b.0) |[a,b]| (a.0 + b!.0)")
    other = P("a.0 |[]| b.0")
    for pair in ((x, other), (other, x)):
        with pytest.raises(StateBudgetError):
            build_union([[to_initial(p)] for p in pair], 2)
    message = f"{render(x)} is not reachable"
    for v in ALL:
        for pair in ((x, other), (other, x)):
            with pytest.raises(NotReachableError) as raised:
                check(*pair, v, max_states=2)
            assert str(raised.value) == message, v


def _decided_on(monkeypatch) -> list:
    """The number of states of each system a check refines, watching its pair."""
    sizes = []
    refine_on = bisim.refine

    def counted(lts, variant, watch=None):
        if watch is not None:
            sizes.append(lts.num_states)
        return refine_on(lts, variant, watch)

    monkeypatch.setattr(bisim, "refine", counted)
    return sizes


def _closed(lts, starts, edges, end) -> int:
    """The number of states of ``lts`` met from ``starts`` along ``edges``."""
    seen, frontier = set(starts), list(starts)
    while frontier:
        for i in edges[frontier.pop()]:
            if end[i] not in seen:
                seen.add(end[i])
                frontier.append(end[i])
    return len(seen)


def test_each_check_decides_on_the_states_its_variant_reads(monkeypatch):
    sizes = _decided_on(monkeypatch)
    p = P(" |[]| ".join(["(a.b.0 + c.0)"] * 5))
    q = P(" |[]| ".join(["(c.0 + a.b.0)"] * 5))
    # two initial processes can be undone to nothing but themselves
    assert check(p, q, Variant.RB).equivalent and sizes == [2]
    # the leaves of x1 undo to 3, 2 and 2 states and those of x2 to 2, 2
    # and 3, so the cones hold 12 + 12 of the union's 2,048 states; both
    # can undo b and c
    x1 = _walked_to(p, [0, 0, 1, 7])
    x2 = _walked_to(q, [0, 0, 1, 5])
    union, s1, s2 = _check_union(x1, x2)
    cone = _closed(union, [s1, s2], union.incoming_ids, union.source)
    sizes.clear()
    check(x1, x2, Variant.RB)
    assert sizes == [cone] == [12 + 12] and union.num_states == 2 * 4 ** 5
    # chains keep every leaf state under FB, so nothing is quotiented; the
    # closures of y1 and y2, both ready to fire a alone, hold 1 * 4 * 4 and
    # 4 * 1 * 4 states, 4 of them shared, of the 64 their common initial
    # version reaches
    r = P(" |[]| ".join(["a.b.c.0"] * 3))
    y1, y2 = _walked_to(r, [0, 0, 0]), _walked_to(r, [1, 1, 1])
    union, s1, s2 = _check_union(y1, y2)
    closure = _closed(union, [s1, s2], union.outgoing, union.target)
    sizes.clear()
    check(y1, y2, Variant.FB)
    assert sizes == [closure] == [16 + 16 - 4] and union.num_states == 64
    # undoing {b, c} against {a, c}: round 1 answers, deciding on nothing
    sizes.clear()
    assert not check(x1, _walked_to(q, [0, 0, 1]), Variant.RB, max_states=1).equivalent
    assert sizes == []


def _moves(lts, ids, end) -> Counter:
    """The transitions ``ids`` of ``lts`` as (observation, proof, term at
    ``end``), ``end`` being the column of their other endpoint."""
    return Counter((lts.obs[i], render_proof(lts.proof[i]), lts.terms[end[i]])
                   for i in ids)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(st.tuples(_roots, _roots), st.tuples(_deep_roots, _deep_roots))
       .map(lambda specs: tuple(map(_root, specs))))
@example((P("(a!.b!.0 |[]| a!.0) |[a,b]| (a!.0 |[]| b!.a!.0)"), P("a!.b!.a!.0")))
def test_the_undo_cone_is_the_union_read_backward(pair):
    # an unreachable root stands for its initial version; the example's
    # first undo step pairs two prefixes no run fires together
    p, q = (x if is_reachable(x) else to_initial(x) for x in pair)
    union, s1, s2 = _check_union(p, q)
    cone = semantics._undo_cone([[p], [q]], semantics.DEFAULT_STATE_CAP)
    sids = [union.index[t] for t in cone.terms]
    assert len(set(sids)) == len(sids)
    # each cone state has the union's incoming transitions, so the cone is
    # closed under them: it holds the states that can reach p or q, no more
    for c, u in enumerate(sids):
        assert (_moves(cone, cone.incoming_ids[c], cone.source)
                == _moves(union, union.incoming_ids[u], union.source))
        assert _moves(cone, cone.outgoing[c], cone.target) == Counter({
            move: n for move, n in _moves(union, union.outgoing[u], union.target).items()
            if move[2] in cone.index})
    assert len(sids) == _closed(union, [s1, s2], union.incoming_ids, union.source)


def test_an_unreachable_root_is_not_found_through_its_class():
    # both executed choice states of a.0 + b.0 are one FB class, so the
    # root's image is reachable in the quotient while the root is not
    x = P("(a!.0 + b.0) |[a,b]| (a.0 + b!.0)")
    message = f"{render(x)} is not reachable"
    for v in ALL:
        assert _answer(_unquotiented, x, P("a.0"), v) == (NotReachableError, message)
        with pytest.raises(NotReachableError) as raised:
            check(x, P("a.0"), v)
        assert str(raised.value) == message


def test_class_ids_refuses_an_unreachable_term_as_check_does():
    for text in ("a!.0 |[a]| b.0", "a!.0 |[a]| b!.0"):
        x = P(text)
        for v in ALL:
            with pytest.raises(NotReachableError) as refused:
                class_ids([P("a.0"), x], v)
            with pytest.raises(NotReachableError) as expected:
                check(x, P("a.0"), v)
            assert str(refused.value) == str(expected.value) == f"{text} is not reachable"


def _built_states(monkeypatch) -> list:
    sizes = []
    build = bisim._build

    def counted(groups, max_states, classes):
        lts = build(groups, max_states, classes)
        sizes.append(lts.num_states)
        return lts

    monkeypatch.setattr(bisim, "_build", counted)
    return sizes


def test_forward_variants_decide_on_the_leaf_quotients(monkeypatch):
    # four states per leaf; FB and FB:ps merge the two terminal ones, FRB
    # keeps them apart by their incoming actions
    p = P(" |[]| ".join(["(a.b.0 + c.0)"] * 5))
    q = P(" |[]| ".join(["(c.0 + a.b.0)"] * 5))
    sizes = _built_states(monkeypatch)
    for v in ALL:
        sizes.clear()
        verdict = check(p, q, v)
        assert verdict.equivalent
        if v in (Variant.FB, Variant.FBPS):
            assert sizes == [2 * 3 ** 5], v  # the two roots reach no common state
        else:
            assert sizes == [], v
        assert verdict.witness == _unquotiented(p, q, v)[1]


def test_a_budget_that_fits_the_quotient_but_not_the_union():
    # 3 ** 5 = 243 quotient states per process, 4 ** 5 = 1,024 union states
    p = P(" |[]| ".join(["(a.b.0 + c.0)"] * 5))
    q = P(" |[]| ".join(["(c.0 + a.b.0)"] * 5))
    budget = "state budget of 300 states exceeded"
    # RB decides on the roots' undo cone, the two roots themselves
    for v in (Variant.FB, Variant.FBPS, Variant.RB):
        verdict = check(p, q, v, max_states=300)
        assert verdict.equivalent and verdict.counterexample is None
        for read in (lambda: verdict.witness, lambda: verdict == verdict,
                     lambda: hash(verdict), lambda: repr(verdict)):
            with pytest.raises(StateBudgetError, match=budget):
                read()
    for v in (Variant.FRB,):  # no leaf shrinks under FRB
        with pytest.raises(StateBudgetError, match=budget):
            check(p, q, v, max_states=300)


def test_roots_and_leaves_with_a_product_inside_keep_their_states(monkeypatch):
    sizes = _built_states(monkeypatch)
    leaf, q = P("a.0 + a.0"), P("(a.0 + a.0) |[]| 0")
    # the one leaf that shrinks is also a root, so nothing is quotiented
    assert check(q, leaf, Variant.FB).equivalent and sizes == []
    # 244 leaf states, of which the synchronization lets the product reach one
    inner = " |[]| ".join(["(b.0 + b.0)"] * 5)
    blocked = P(f"a.({inner}) |[a]| 0")
    assert check(blocked, P("0 |[a]| 0"), Variant.FB).equivalent and sizes == []
    r, s = P("(a.0 + a.0) |[]| (b.0 + b.0)"), P("(a.0 + a.0) |[]| b.c.0")
    assert check(r, s, Variant.FB).counterexample == _unquotiented(r, s, Variant.FB)[2]
    assert sizes == [2 * 2 + 2 * 3]  # 3 states per choice leaf, 2 classes; b.c.0 keeps its 3
    # ready to fire {a, b} against {a}: round 1 answers, building nothing
    sizes.clear()
    assert check(r, q, Variant.FB, max_states=1).counterexample == _unquotiented(
        r, q, Variant.FB)[2]
    assert sizes == []


def _in_closure(x) -> bool:
    """Whether ``x`` is a state of the closure of its initial version: a
    reachability answer that does not walk back."""
    return build_lts(to_initial(x)).index.get(x) is not None


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.one_of(_roots, _deep_roots))
def test_the_undo_walk_decides_reachability(spec):
    x = _root(spec)
    assert is_reachable(x) == _in_closure(x), render(x)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(_roots, _deep_roots))
def test_the_loop_property_on_random_terms(spec):
    # the undo cone and the histories read undo steps for incoming
    # transitions: a forward step read from its target is an undo step,
    # and an undo step is a forward step from a well-formed state, for
    # reachable and unreachable well-formed states alike
    x = _root(spec)
    if not x.wellformed:
        return
    for theta, y in semantics.forward_steps(x):
        assert (theta, x) in semantics.undo_steps(y), (render(x), render_proof(theta))
    for theta, z in semantics.undo_steps(x):
        assert z.wellformed, (render(x), render(z))
        assert (theta, x) in semantics.forward_steps(z), (render(x), render_proof(theta))


def test_the_undo_walk_decides_reachability_on_the_size_3_family():
    # the family's terms are reachable; marking one more prefix gives
    # hundreds of well-formed unreachable ones
    family = list(enumerate_processes(3, ("a", "b")))
    terms = set(family) | {_marked(t, pick) for t in family for pick in range(3)}
    # reachable, though its first undo step leads nowhere (see test_terms)
    terms.add(P("(a!.b!.0 |[]| a!.0) |[a,b]| (a!.0 |[]| b!.a!.0)"))
    unreachable = 0
    for t in terms:
        reached = is_reachable(t)
        assert reached == _in_closure(t), render(t)
        unreachable += not reached and t.wellformed
    assert unreachable > 100


def test_rb_reads_no_undo_step_that_no_run_takes():
    # the first undo step of the walked synchronization leads to a state no
    # run reaches; the union holds no such state, so neither does the cone
    # RB decides on, and the walked state is RB-equivalent to a!.b!.a!.0
    lefts = build_lts(P("(a.b.0 |[]| a.0) |[a,b]| (a.0 |[]| b.a.0)")).terms
    rights = build_lts(P("a.b.a.0")).terms
    for p, q in itertools.product(lefts, rights):
        for v in ALL:
            assert _checked(p, q, v) == _unquotiented(p, q, v), (render(p), render(q), v)
    walked = P("(a!.b!.0 |[]| a!.0) |[a,b]| (a!.0 |[]| b!.a!.0)")
    assert walked in lefts
    assert check(walked, P("a!.b!.a!.0"), Variant.RB).equivalent


# --- round 1 from the two processes ---------------------------------------------
#
# ``check`` answers a pair whose signatures under a one-block seed differ
# before it builds anything, from the two processes' ready sets.  Its answers
# must be those of the built decision, and the backward ready set it reads
# must be that of the incoming transitions, which ``brs`` is not always.

_KEYLESS = P("(a!.c!.0 |[]| a!.0) |[a,c]| (c!.a!.d!.0 |[]| a!.0)")
# the same, with c synchronized one level up: the left operand alone can
# undo a, the product cannot, though a is not in its synchronization set
_KEYLESS_ABOVE = P("((a!.c!.0 |[]| a!.0) |[a]| (e!.a!.d!.0 |[]| a!.0)) |[c,e]| c!.e!.0")


def test_an_undo_step_no_run_takes_is_not_in_the_backward_ready_set():
    # brs reads a from the two plain a!.0, but undoing them together needs
    # the a of a!.c!.0 fired with the a after c (or e), which follows it;
    # the one run to each state reads a, c, (e,) a, d
    for x, chain in ((_KEYLESS, P("a!.c!.a!.d!.0")),
                     (_KEYLESS_ABOVE, P("a!.c!.e!.a!.d!.0"))):
        assert brs(x) == {"a", "d"} and semantics._undo_ready(x) == {"d"}
        assert [(a, is_reachable(q)) for _, a, q in semantics._steps(x, True)] == [
            ("d", True), ("a", False)]
        for v in ALL:
            assert _checked(x, chain, v) == _unquotiented(x, chain, v), v
        assert check(x, chain, Variant.RB).equivalent
        assert necessary_check(x, chain, Variant.RB)
    assert semantics._undo_ready(_KEYLESS_ABOVE.left) == {"a", "c", "d"}


def _synced_products():
    """Products of two to four leaves, every parallel composition with
    the same synchronization set."""
    def nest(leaves, sync):
        p = leaves[0]
        for leaf in leaves[1:]:
            p = Par(sync, p, leaf)
        return p
    return st.builds(nest, st.lists(_leaf_terms(), min_size=2, max_size=4),
                     st.sampled_from([("a",), ("b",), ("a", "b")]))


_synced_roots = st.tuples(_synced_products(), st.lists(st.integers(0, 10**6), min_size=1,
                                                        max_size=8),
                          st.just(0), st.just(0))


# synchronized products walked, then marked or desynchronized (see _root)
_unsynced_roots = st.tuples(_synced_products(), st.lists(st.integers(0, 10**6), min_size=1,
                                                          max_size=8),
                            st.integers(4, 5), st.integers(0, 10**6))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.one_of(_roots, _deep_roots, _synced_roots, _unsynced_roots))
@example((_KEYLESS, [], 0, 0))
@example((_KEYLESS_ABOVE, [], 0, 0))
@example((P("(a!.b!.0 |[]| a!.0) |[a,b]| (a!.0 |[]| b!.a!.0)"), [], 0, 0))
@example((P("a!.b!.0 |[]| a.0 |[a,b]| (a.0 |[]| b!.a!.0)"), [], 0, 0))
@example((P("c!.0 |[]| (a!.0 |[a]| b.0)"), [], 0, 0))
def test_the_backward_ready_set_is_that_of_the_reachable_undo_steps(spec):
    # one walk gives the set and the refusal; reachability is read off the
    # closure, which does not walk back
    x = _root(spec)
    if not x.wellformed:
        return
    undone = {a for _, a, q in semantics._steps(x, True) if is_reachable(q)}
    if _in_closure(x):
        assert semantics.require_reachable(x) == undone, render(x)
    else:
        # the target of an undo step of x is unreachable too, by the loop property
        assert semantics._undo_ready(x) == set() and undone == set(), render(x)
        assert not is_reachable(x), render(x)
        with pytest.raises(NotReachableError, match="is not reachable"):
            semantics.require_reachable(x)


def test_the_necessary_condition_suite_reads_the_incoming_actions(monkeypatch):
    # brs widens the backward ready sets of the two keyless states, which are
    # RB-equivalent to their chains
    terms = [_KEYLESS, P("a!.c!.a!.d!.0"), _KEYLESS_ABOVE, P("a!.c!.e!.a!.d!.0")]
    monkeypatch.setattr(selfcheck, "enumerate_processes", lambda *args: terms)
    report = selfcheck.necessary_condition_suite(0, ())
    assert (report.checked, report.failures) == (4 * len(ALL), [])


def test_necessary_check_refuses_an_unreachable_process_as_check_does():
    dead = P("a!.b!.0 |[]| a.0 |[a,b]| (a.0 |[]| b!.a!.0)")
    for x, y in ((dead, P("a!.0")), (P("a!.0"), dead)):
        for v in ALL:
            with pytest.raises(NotReachableError) as refused:
                necessary_check(x, y, v)
            with pytest.raises(NotReachableError) as expected:
                check(x, y, v)
            assert str(refused.value) == str(expected.value) == f"{render(dead)} is not reachable"
    with pytest.raises(NotReachableError, match="requires well-formed processes"):
        necessary_check(parse("a!.0 + b!.0", allow_illformed=True), dead, Variant.RB)


def _round_1_agrees(union, s1, s2, variant) -> bool:
    """Whether the union's round 1 from a one-block seed keeps the pair
    together."""
    signature = bisim._signature_of(union, [0] * union.num_states, variant)
    return signature(s1) == signature(s2)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(st.tuples(_roots, _roots), st.tuples(_deep_roots, _deep_roots),
                 st.tuples(_synced_roots, _synced_roots))
       .map(lambda specs: tuple(map(_root, specs))))
@example((P("(a!.b!.0 |[]| a!.0) |[a,b]| (a!.0 |[]| b!.a!.0)"), P("a!.b!.a!.0")))
@example((_KEYLESS, P("a!.c!.a!.d!.0")))
@example((_KEYLESS, P("d!.0")))
@example((_KEYLESS_ABOVE, P("a!.c!.e!.a!.d!.0")))
def test_check_answers_round_1_as_the_built_decision(pair):
    p, q = pair
    for v in ALL:
        assert _answer(_checked, p, q, v) == _answer(_unquotiented, p, q, v), v
    if is_reachable(p) and is_reachable(q):
        union, s1, s2 = _check_union(p, q)
        for v in ALL:
            assert necessary_check(p, q, v) == _round_1_agrees(union, s1, s2, v), v


def test_a_pair_that_round_1_separates_builds_nothing(monkeypatch):
    cases = [
        (P("a.0"), P("b.0"), Variant.FB),
        (P("a.0"), P("b!.a.0"), Variant.FBPS),  # one initial, both ready for a
        (P("a.b.0"), P("a.c.0 |[]| b.0"), Variant.FBPS),
        (P("a!.0 |[]| b.0"), P("b!.0"), Variant.RB),
        (P("a!.c.0"), P("b!.c.0"), Variant.FRB),  # apart only backward
        (P("a.0 |[]| b.0"), P("a.b.0 + c.0"), Variant.FRB),
    ]
    expected = [_unquotiented(p, q, v)[2] for p, q, v in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("built or refined a system")

    for name in ("_build", "_undo_cone", "build_union", "refine"):
        monkeypatch.setattr(bisim, name, refuse)
    for (p, q, v), ce in zip(cases, expected):
        verdict = check(p, q, v, max_states=1)
        assert not verdict.equivalent and verdict.counterexample == ce, v
    assert [ce.direction for ce in expected] == [
        "forward", "initiality", "forward", "backward", "backward", "forward"]
