"""Self-tests of the benchmark, on tiny inputs.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import calibrate
import inputs as gen
import run
from workloads import WORKLOADS, Outcome, _guarded

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_the_spec(workload, trace, section):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_workload_names_match_the_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_fingerprint(workload):
    rx = run.import_fresh()
    w = WORKLOADS[workload]
    first = w.make_inputs(rx, 5, smoke=True).fingerprint
    assert w.make_inputs(rx, 5, smoke=True).fingerprint == first
    assert w.make_inputs(rx, 6, smoke=True).fingerprint != first


def _flip_first_known(pair: gen.Pair, names) -> gen.Pair:
    expected = list(pair.expected)
    for n, (name, want) in enumerate(expected):
        if name in names and want is not None:
            expected[n] = (name, not want)
            return dataclasses.replace(pair, expected=tuple(expected))
    raise AssertionError("a pair with no known verdict")


@pytest.mark.parametrize("workload,names", [("interleave-prove", gen.THEORIES),
                                            ("check-large", gen.VARIANTS)])
def test_wrong_expected_verdict_is_a_failure(workload, names):
    rx = run.import_fresh()
    w = WORKLOADS[workload]
    inputs = w.make_inputs(rx, 5, smoke=True)
    assert w.run(rx, inputs, 0, max_units=1, oracle=False).failed == 0
    inputs.items[0] = _flip_first_known(inputs.items[0], names)
    out = w.run(rx, inputs, 0, max_units=1, oracle=False)
    assert out.wrong == 1 and out.failed == 1


def test_wrong_expected_disagreement_count_is_a_failure():
    rx = run.import_fresh()
    w = WORKLOADS["selftest-s4"]
    inputs = w.make_inputs(rx, 5, smoke=True)
    inputs.extra["expected"]["R"] += 1
    out = w.run(rx, inputs, 0, max_units=1)
    assert out.wrong == 1 and out.failed == 1


def test_slow_query_is_a_timeout():
    out = Outcome()
    start = time.perf_counter()
    ok, _, _ = _guarded(out, 0.05, "sleep", time.sleep, 5)
    assert not ok and out.timeouts == 1 and out.failed == 1
    assert time.perf_counter() - start < 1


def _at(t, path):
    for i in path:
        t = t[i]
    return t


def _unflag(t, path):
    if not path:
        return ("pre", t[1], False, t[3])
    i = path[0]
    return t[:i] + (_unflag(t[i], path[1:]),) + t[i + 1:]


def _canon(t):
    """Choice operands sorted, so that choice swaps compare equal."""
    if t[0] == "pre":
        return ("pre", t[1], t[2], _canon(t[3]))
    if t[0] == "+":
        return ("+",) + tuple(sorted((_canon(t[1]), _canon(t[2])), key=repr))
    if t[0] == "|":
        return ("|", t[1], _canon(t[2]), _canon(t[3]))
    return t


def test_pairs_are_built_as_their_kind_claims():
    rng = random.Random(1)
    kinds = set()
    for _ in range(300):
        pair = gen.product_pair(rng, 3, rng.random() < 0.5, max_walk=3)
        kinds.add(pair.kind)
        p, q = gen.parse(pair.p), gen.parse(pair.q)
        assert gen.FRESH not in pair.p
        if pair.kind == "permute":
            assert sorted(map(repr, map(_canon, gen.components_of(p)))) == \
                sorted(map(repr, map(_canon, gen.components_of(q))))
        elif pair.kind == "mutate-fwd":
            assert any(a == gen.FRESH for a, _ in gen.steps(q))
        else:
            undone = [path for path in gen.solo_undoable(q) if _at(q, path)[1] == gen.FRESH]
            assert undone
            assert (gen.FRESH, q) in gen.steps(_unflag(q, undone[0]))
    assert kinds == {"permute", "mutate-fwd", "mutate-bwd"}


def test_tail_has_ten_samples_beyond_it():
    value, pct, beyond = run.tail(list(range(100)))
    assert (value, beyond) == (89, 10) and pct == 90.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 0)


def test_speed_scales_by_the_nearest_samples():
    speed = calibrate.Speed()
    nominal = calibrate.NOMINAL_S
    speed.at = [float(n) for n in range(40)]
    speed.took = [nominal] * 20 + [2 * nominal] * 20  # the host halves its speed
    assert speed.factor(3.5) == 1.0
    assert speed.factor(35.5) == 0.5
    assert speed.recent_factor() == 0.5


def test_reference_kernel_does_fixed_work():
    assert calibrate.kernel() == calibrate.kernel() > 0
