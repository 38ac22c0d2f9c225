"""The four equivalences, their witnesses, and the refinement kernel."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from revexp import (
    Variant,
    build_lts,
    check,
    check_brs,
    encode,
    necessary_check,
    parse,
    render,
)
from revexp import bisim, semantics
from revexp.bisim import Verdict, refine, verify_partition
from revexp.axioms import Theory, theory_encoding
from revexp.errors import NotReachableError, RevexpError, StateBudgetError, WitnessCheckError
from revexp.generate import enumerate_processes, seed_terms
from revexp.selfcheck import class_ids
from revexp.semantics import brs_forward_steps, build_brs_lts, build_union
from revexp import is_reachable
from revexp.terms import NIL, Choice, Par, Prefix, act, is_initial, to_initial

from test_byte_identity import _products


P = parse
ALL = (Variant.FB, Variant.FBPS, Variant.RB, Variant.FRB)


def _check_union(p, q):
    """The system ``check(p, q, ...)`` decides on, and the states of ``p``
    and ``q`` in it."""
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
    assert blocks[0] != blocks[union.state_of(P("a!.0"))]
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
    small, p, q = P("a.0"), P("a.0 |[]| b.0"), P("a.b.0 + c.0")  # 2, 4, 4 states
    union, _, _ = bisim._union(p, q, 4)
    assert union.num_states == 8
    for v in ALL:
        check(p, q, v, max_states=4)
        check(small, q, v, max_states=4)
    for pair in ((p, q), (small, q), (q, small)):
        with pytest.raises(StateBudgetError, match="state budget of 3 states exceeded"):
            check(*pair, Variant.FB, max_states=3)


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
    rendered = []
    monkeypatch.setattr(semantics, "render",
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
    verdict = check(P("a.0"), P("b.0"), Variant.FB)
    assert verdict.equivalent
    with pytest.raises(WitnessCheckError, match="share a block but have different"):
        verdict.witness


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
    """The round-based refinement ``refine`` runs as a worklist, kept as the
    reference: every round recomputes every state's signature, with
    observations read off the proofs.  Returns the partitions P0, P1, ...
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
        pairs = [(s_p, s_q), (0, union.state_of(to_initial(q)))]
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


def test_refine_recomputes_fewer_signatures_than_the_round_loop(monkeypatch):
    # the round loop computes every signature in every round, 4-6 per state here
    computed = []
    signature_of = bisim._signature_of

    def counted(*args):
        signature = signature_of(*args)
        return lambda s: computed.append(s) or signature(s)

    monkeypatch.setattr(bisim, "_signature_of", counted)
    p = P(" |[]| ".join(["(a.b.0 + c.0)"] * 5))
    q = P(" |[]| ".join(["(c.0 + a.b.0)"] * 5))
    union, _, _ = _check_union(p, q)
    for v in ALL:
        rounds, _ = _round_loop(union, v)
        computed.clear()
        refine(union, v)
        assert len(computed) < len(rounds) * union.num_states


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


_roots = st.tuples(_random_products(), st.lists(st.integers(0, 10**6), max_size=6),
                   st.integers(0, 4), st.integers(0, 10**6))


def _root(spec):
    """A walked state, or about one time in five a marked one."""
    p, picks, which, mark = spec
    p = _walked_to(p, picks)
    return _marked(p, mark) if which == 4 else p


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_roots, _roots)
def test_check_answers_as_the_unquotiented_decision(left, right):
    p, q = _root(left), _root(right)
    for v in ALL:
        assert _answer(_checked, p, q, v) == _answer(_unquotiented, p, q, v), v


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
    for v in (Variant.FB, Variant.FBPS):
        verdict = check(p, q, v, max_states=300)
        assert verdict.equivalent and verdict.counterexample is None
        for read in (lambda: verdict.witness, lambda: verdict == verdict,
                     lambda: hash(verdict), lambda: repr(verdict)):
            with pytest.raises(StateBudgetError, match=budget):
                read()
    for v in (Variant.RB, Variant.FRB):  # no leaf shrinks under these
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
    r = P("(a.0 + a.0) |[]| (b.0 + b.0)")
    assert check(r, q, Variant.FB).counterexample == _unquotiented(r, q, Variant.FB)[2]
    assert sizes == [2 * 2 + 2]  # 3 states per choice leaf, 2 classes; 0 keeps its one


def test_the_undo_walk_decides_reachability():
    terms = [t for t in enumerate_processes(3, ("a", "b")) if not is_initial(t)]
    assert terms
    for t in terms:
        assert bisim._reached(t) == is_reachable(t), render(t)
