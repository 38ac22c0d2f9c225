"""The three workloads: seeded inputs, the timed closed loop, verdict checks.

Every workload is a closed loop with one client: the next query starts when
the previous one returns.  Only the work a user of ``revexp`` waits for is
timed; checking verdicts against their known answers and the cross-decider
oracle run between queries, outside the timed region.  Between queries the
loop also times the reference kernel of ``calibrate.py``, so that every
timed figure can be scaled to the reference host's speed.
"""

from __future__ import annotations

import itertools
import random
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import inputs as gen
from calibrate import Speed


class QueryTimeout(BaseException):
    """Raised by the wall-clock guard; a BaseException so no handler in the
    code under test swallows it."""


@contextmanager
def wall_limit(seconds: float):
    """Interrupt the enclosed block after ``seconds`` of wall-clock time."""
    def on_alarm(signum, frame):
        raise QueryTimeout

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Inputs:
    items: list  # what the loop runs, in order
    sizes: dict  # input sizes, for the report
    fingerprint: str
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    # (query key, seconds, perf_counter at the end) per timed call; the key
    # is None for timed work that is not a query (a whole-family refinement)
    timed: list = field(default_factory=list)
    ops: int = 0  # throughput unit: queries, or terms keyed
    wrong: int = 0
    errors: int = 0
    timeouts: int = 0
    disagreements: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)  # first few failure descriptions
    units: int = 0  # loop units completed (pairs, or passes)
    speed: Speed = field(default_factory=Speed)
    spent: float = 0.0  # timed seconds so far, scaled by the latest samples

    @property
    def attempted(self) -> int:
        return sum(1 for key, _, _ in self.timed if key is not None)

    @property
    def failed(self) -> int:
        return self.wrong + self.errors + self.timeouts

    def record(self, key, seconds: float) -> None:
        self.timed.append((key, seconds, time.perf_counter()))
        self.spent += seconds * self.speed.recent_factor()

    def _seconds(self, scaled: bool) -> list:
        """``(key, seconds)`` per timed call, scaled to the reference host."""
        if not scaled:
            return [(key, s) for key, s, _ in self.timed]
        return [(key, s * self.speed.factor(end - s / 2)) for key, s, end in self.timed]

    def busy(self, scaled: bool = True) -> float:
        """Timed seconds."""
        return sum(s for _, s in self._seconds(scaled))

    def latency_samples(self, scaled: bool = True) -> list:
        """One latency per query: the median of its attempts when repeated."""
        by_key: dict = {}
        for key, seconds in self._seconds(scaled):
            if key is not None:
                by_key.setdefault(key, []).append(seconds)
        return [statistics.median(v) for v in by_key.values()]

    def note(self, text: str) -> None:
        if len(self.notes) < 5:
            self.notes.append(text)

    def disagree(self, name: str) -> None:
        self.disagreements[name] = self.disagreements.get(name, 0) + 1


RAW_CAP = 1.3  # wall time after which no unit starts, in multiples of the budget


def _more(out: Outcome, start: float, seconds: float, max_units: int | None) -> bool:
    """Whether to start another loop unit: at least one, then whole units
    for about ``seconds`` of timed work on the reference host (stop when
    less than half a mean unit is left).

    Counting the budget in scaled seconds keeps the work of a run the same
    when the host's speed drifts; ``RAW_CAP`` times ``seconds`` of wall time
    ends the loop on a host much slower than the reference.
    """
    if out.units == 0:
        return True
    if max_units is not None and out.units >= max_units:
        return False
    if time.perf_counter() - start >= RAW_CAP * seconds:
        return False
    return out.spent + out.spent / out.units / 2 < seconds


def _guarded(out: Outcome, limit: float, what: str, fn, *args):
    """Run ``fn`` under the wall-clock guard; record a timeout or an error.

    Returns ``(ok, result, seconds)``.
    """
    start = time.perf_counter()
    try:
        with wall_limit(limit):
            result = fn(*args)
    except QueryTimeout:
        out.timeouts += 1
        out.note(f"timeout after {limit} s: {what}")
        return False, None, time.perf_counter() - start
    except Exception as exc:  # the loop must keep running; the error is counted
        out.errors += 1
        out.note(f"{type(exc).__name__}: {exc}: {what}")
        return False, None, time.perf_counter() - start
    return True, result, time.perf_counter() - start


def _judge(out: Outcome, pair: gen.Pair, verdicts: dict) -> None:
    for name, got in verdicts.items():
        want = pair.expect(name)
        if want is not None and got != want:
            out.wrong += 1
            out.note(f"{name} said {got}, expected {want} ({pair.kind}): {pair.p}  vs  {pair.q}")


class PairWorkload:
    """Shared loop of the two workloads whose queries are pairs of texts.

    Each loop unit takes the next pair and runs one query per group in
    ``queries``; a group names the verdicts its query returns.
    """

    name = ""
    limit_s = 60.0
    oracle_pairs = 0
    queries: tuple = ()

    def run(self, rx, inputs: Inputs, seconds: float, max_units: int | None = None,
            oracle: bool = True) -> Outcome:
        out = Outcome()
        items = inputs.items
        seen: dict[int, dict] = {}
        start = time.perf_counter()
        while _more(out, start, seconds, max_units):
            i = out.units
            pair = items[i % len(items)]
            verdicts = {}
            for names in self.queries:
                out.speed.tick()
                ok, got, took = _guarded(out, self.limit_s, pair.p, self.query, rx, pair, names)
                out.record((i, names), took)
                if ok:
                    out.ops += 1
                    verdicts.update(got)
            _judge(out, pair, verdicts)
            if i < self.oracle_pairs:
                seen[i] = verdicts
            out.units += 1
        out.speed.sample()
        if oracle:
            # a fixed set of pairs, so that the count repeats whatever the speed
            for n, pair in enumerate(items[:self.oracle_pairs]):
                verdicts = seen.get(n, {})
                for names in self.queries:
                    if names[0] not in verdicts:
                        ok, got, _ = _guarded(Outcome(), self.limit_s, pair.p,
                                              self.query, rx, pair, names)
                        verdicts.update(got if ok else {})
                if all(names[0] in verdicts for names in self.queries):
                    self.oracle(rx, pair, verdicts, out)
        return out

    def warm_up(self, rx, inputs: Inputs) -> None:
        pair = gen.product_pair(random.Random(0), 2, False, max_walk=2)
        for names in self.queries:
            self.query(rx, pair, names)


class InterleaveProve(PairWorkload):
    name = "interleave-prove"
    limit_s = 60.0
    oracle_pairs = 24
    trace_units = 40
    queries = (gen.THEORIES,)  # one query: encode, then all three theories

    def make_inputs(self, rx, seed: int, smoke: bool = False) -> Inputs:
        rng = random.Random(seed)
        # cycle: three interleaved products, then one synchronized product;
        # walks stop after two steps, past which a few tie-heavy states make
        # the cost of a run depend on the seed.  The component shapes, which
        # set most of a query's cost, run through every combination in a
        # fixed order, so that every seed's runs see the same mix of them.
        # k=4 products are left out: one takes seconds, longer than the
        # kernel samples around a call can scale steadily; the traced run
        # counts the encoding nodes of the k=4 reference instead.
        k = 2 if smoke else 3
        shapes = list(itertools.product(range(len(gen.SHAPES)), repeat=k))
        items = [gen.product_pair(rng, k, n % 4 == 3, max_walk=2,
                                  shapes=shapes[n % len(shapes)])
                 for n in range(40 if smoke else 600)]
        sizes = {"pairs": len(items),
                 "components": f"{k} four-state components over {{a,b,c}}"}
        return Inputs(items, sizes, gen.fingerprint(items))

    def query(self, rx, pair: gen.Pair, names) -> dict:
        p, q = rx.syntax.parse(pair.p), rx.syntax.parse(pair.q)
        rx.encoding.encode(p)
        return {theory: rx.axioms.prove_eq(p, q, rx.axioms.Theory[theory])
                for theory in names}

    def oracle(self, rx, pair: gen.Pair, verdicts: dict, out: Outcome) -> None:
        p, q = rx.syntax.parse(pair.p), rx.syntax.parse(pair.q)
        for theory, variant in gen.MATCHING_VARIANT.items():
            ok, verdict, _ = _guarded(out, self.limit_s, f"oracle {variant}: {pair.p}",
                                      rx.bisim.check, p, q, rx.bisim.Variant[variant])
            if ok and verdict.equivalent != verdicts[theory]:
                out.disagree(theory)


class CheckLarge(PairWorkload):
    name = "check-large"
    limit_s = 30.0
    oracle_pairs = 9
    trace_units = 6
    # one query per variant, as `revexp check --variant` answers one
    queries = tuple((variant,) for variant in gen.VARIANTS)

    def make_inputs(self, rx, seed: int, smoke: bool = False) -> Inputs:
        rng = random.Random(seed)
        k = 3 if smoke else 5
        items = []
        # cycle: two interleaved products (4^k states), one synchronized
        for n in range(30 if smoke else 120):
            items.append(gen.product_pair(rng, k, n % 3 == 2, max_walk=k))
        sizes = {"pairs": len(items), "k": k,
                 "states": f"{4 ** k} per interleaved product"}
        return Inputs(items, sizes, gen.fingerprint(items))

    def query(self, rx, pair: gen.Pair, names) -> dict:
        p, q = rx.syntax.parse(pair.p), rx.syntax.parse(pair.q)
        return {variant: rx.bisim.check(p, q, rx.bisim.Variant[variant]).equivalent
                for variant in names}

    def oracle(self, rx, pair: gen.Pair, verdicts: dict, out: Outcome) -> None:
        """Implications between the variants, and the ready-set filter."""
        for finer, coarser in (("FBPS", "FB"), ("FRB", "FB"), ("FRB", "RB")):
            if verdicts[finer] and not verdicts[coarser]:
                out.disagree(f"{finer}=>{coarser}")
        p, q = rx.syntax.parse(pair.p), rx.syntax.parse(pair.q)
        for variant in gen.VARIANTS:
            v = rx.bisim.Variant[variant]
            if verdicts[variant] and not rx.bisim.necessary_check(p, q, v):
                out.disagree(f"{variant} vs ready sets")


class SelftestS4:
    """The completeness pipeline of ``revexp selftest`` on one enumerated family."""

    name = "selftest-s4"
    trace_units = 1
    limit_s = 10.0  # per term keyed or pair spot-checked
    batch_limit_s = 120.0  # per refinement over the whole family
    # partition disagreements per theory, as the completeness suite reports
    # them today (criteria 4 and 5 record the same figures)
    KNOWN_DISAGREEMENTS = {
        (4, ("a", "b")): {"F": 0, "R": 68, "FR": 2},
        (3, ("a", "b")): {"F": 0, "R": 6, "FR": 0},
    }
    SPOT_PAIRS = 12

    def make_inputs(self, rx, seed: int, smoke: bool = False) -> Inputs:
        size, alphabet = (3 if smoke else 4), ("a", "b")
        texts = [rx.syntax.render(p)
                 for p in rx.generate.enumerate_processes(size, alphabet)]
        rng = random.Random(seed)
        order = list(range(len(texts)))
        rng.shuffle(order)
        spots = []
        for _ in range(self.SPOT_PAIRS):
            p = gen.parse(texts[rng.randrange(len(texts))])
            kind = rng.choice(("permute", "mutate-fwd", "mutate-bwd"))
            spots.append(gen.make_pair(p, kind, "c", rng))
        sizes = {"terms": len(texts), "size": size, "alphabet": ",".join(alphabet),
                 "spot_pairs": len(spots)}
        fp = gen.fingerprint([texts[i] for i in order] + spots)
        return Inputs(texts, sizes, fp, extra={
            "order": order, "spots": spots,
            "expected": dict(self.KNOWN_DISAGREEMENTS[(size, alphabet)]),
        })

    def warm_up(self, rx, inputs: Inputs) -> None:
        for text in inputs.items[:20]:
            self.keys(rx, text)
        self.spot(rx, inputs.extra["spots"][0])

    def keys(self, rx, text: str):
        ax = rx.axioms
        p = rx.syntax.parse(text)
        key_f = rx.syntax.render(ax.canonical(ax.normalize_f(p), ax.Theory.F))
        key_r = ax.structural_key(ax.normalize_r(ax.theory_encoding(p, ax.Theory.R)))
        key_fr = ax.structural_key(ax.canonical(
            ax.normalize_fr(ax.theory_encoding(p, ax.Theory.FR)), ax.Theory.FR))
        return p, (key_f, key_r, key_fr)

    def class_ids(self, rx, terms):
        return [rx.selfcheck.class_ids(terms, rx.bisim.Variant[gen.MATCHING_VARIANT[t]])
                for t in gen.THEORIES]

    def spot(self, rx, pair: gen.Pair) -> dict:
        p, q = rx.syntax.parse(pair.p), rx.syntax.parse(pair.q)
        verdicts = {t: rx.axioms.prove_eq(p, q, rx.axioms.Theory[t]) for t in gen.THEORIES}
        for t in gen.THEORIES:
            v = gen.MATCHING_VARIANT[t]
            verdicts[v] = rx.bisim.check(p, q, rx.bisim.Variant[v]).equivalent
        return verdicts

    def run(self, rx, inputs: Inputs, seconds: float, max_units: int | None = None,
            oracle: bool = True) -> Outcome:
        out = Outcome()
        texts, order = inputs.items, inputs.extra["order"]
        start = time.perf_counter()
        while _more(out, start, seconds, max_units):
            self._one_pass(rx, inputs, texts, order, out)
            out.units += 1
        out.speed.sample()
        return out

    def _one_pass(self, rx, inputs, texts, order, out: Outcome) -> None:
        terms: list = [None] * len(texts)
        keys: list = [None] * len(texts)
        for i in order:
            out.speed.tick()
            ok, result, took = _guarded(out, self.limit_s, texts[i], self.keys, rx, texts[i])
            out.record(i, took)
            if ok:
                terms[i], keys[i] = result
                out.ops += 1
        if any(t is None for t in terms):
            return  # a term failed; the partitions cannot be compared
        out.speed.sample()
        ok, ids, took = _guarded(out, self.batch_limit_s, "class_ids", self.class_ids, rx, terms)
        out.record(None, took)
        if ok:
            counts = {t: partition_disagreements(texts, ids[n], [k[n] for k in keys])
                      for n, t in enumerate(gen.THEORIES)}
            if counts != inputs.extra["expected"]:
                out.wrong += 1
                out.note(f"partition disagreements {counts}, expected {inputs.extra['expected']}")
            per_pass = dict(counts)
        else:
            per_pass = {}
        for n, pair in enumerate(inputs.extra["spots"]):
            out.speed.tick()
            ok, verdicts, took = _guarded(out, self.limit_s, pair.p, self.spot, rx, pair)
            out.record(("spot", n), took)
            if ok:
                _judge(out, pair, verdicts)
                for t, v in gen.MATCHING_VARIANT.items():
                    if verdicts[t] != verdicts[v]:
                        per_pass[f"spot {t}"] = per_pass.get(f"spot {t}", 0) + 1
        # every pass runs the same inputs, so every pass must count the same
        if out.units and per_pass != out.disagreements:
            out.wrong += 1
            out.note(f"disagreements changed between passes: {per_pass}")
        out.disagreements = per_pass


def partition_disagreements(texts, left, right) -> int:
    """Terms on which two labelings disagree, counted as the suite counts them.

    Walking the terms in enumeration order, a term counts once for each side
    whose label it shares with an earlier term that the other side labels
    differently.
    """
    by_left: dict = {}
    by_right: dict = {}
    failures = 0
    for text, l, r in zip(texts, left, right):
        for key, value, table in ((l, r, by_left), (r, l, by_right)):
            prev = table.setdefault(key, value)
            if prev != value:
                failures += 1
    return failures


WORKLOADS = {w.name: w for w in (SelftestS4(), InterleaveProve(), CheckLarge())}
