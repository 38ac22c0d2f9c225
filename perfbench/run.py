"""Benchmark for the revexp workbench: one workload per run, one JSON result.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload interleave-prove --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs a fixed
prefix of the same inputs with every public layer function wrapped, prints
the per-layer metrics, then runs the same prefix unwrapped and reports the
difference as the tracing overhead; spans are written to
``perfbench/out/<workload>.spans.csv.gz``.  The last line of standard output
is a JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the same figures for a reader.

Every end-to-end time is scaled to the speed of a reference host, measured
by the fixed kernel of ``calibrate.py`` around each timed call (see there);
the unscaled figures are printed as report lines.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import inputs as gen  # noqa: E402
from calibrate import NOMINAL_S, Speed  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
SETUP_SAMPLES = 4  # kernel samples before and after each set-up
MODULES = ("syntax", "terms", "generate", "semantics", "bisim", "encoding",
           "axioms", "selfcheck")

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "syntax.parse_s": "s",
    "syntax.render_s": "s",
    "syntax.render_calls": "count",
    "syntax.renders_per_state": "ratio",
    "terms.is_initial_calls": "count",
    "terms.brs_calls": "count",
    "generate.enumerate_s": "s",
    "generate.terms": "count",
    "semantics.build_s": "s",
    "semantics.states": "count",
    "semantics.transitions": "count",
    "semantics.undo_steps_s": "s",
    "semantics.undo_steps_calls": "count",
    "semantics.is_reachable_s": "s",
    "bisim.refine_s": "s",
    "bisim.refine_calls": "count",
    "bisim.blocks": "count",
    "bisim.check_self_s": "s",
    "encoding.encode_s": "s",
    "encoding.history_s": "s",
    "encoding.tie_histories": "count",
    "encoding.nodes_tree": "count",
    "encoding.nodes_distinct": "count",
    "encoding.share_ratio": "ratio",
    "axioms.normalize_s": "s",
    "axioms.canonical_s": "s",
    "axioms.structural_key_s": "s",
    "axioms.theory_encoding_self_s": "s",
    "axioms.prove_eq_self_s": "s",
    "selfcheck.class_ids_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "benchmark.self_s": "s",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.units": "count",
    "trace.spans": "count",
}


def import_fresh():
    """Import ``revexp`` and its layer modules anew (set-up is timed with it)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "revexp" or n.startswith("revexp.")]:
        del sys.modules[name]
    rx = importlib.import_module("revexp")
    for module in MODULES:
        importlib.import_module(f"revexp.{module}")
    return rx


def setup(workload, seed: int, smoke: bool, tracer: Tracer | None = None):
    start = time.perf_counter()
    rx = import_fresh()
    if tracer is not None:
        tracer.install(rx)
        tracer.enabled = True
    inputs = workload.make_inputs(rx, seed, smoke)
    if tracer is not None:
        tracer.enabled = False
    workload.warm_up(rx, inputs)
    return rx, inputs, time.perf_counter() - start


def tail(latencies: list) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples beyond)``; with fewer than eleven
    samples it is the maximum, with fewer beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 11, 0) if n >= 11 else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def encoding_nodes(rx, text: str) -> tuple[int, int]:
    """Tree nodes of the encoding of ``text``, and its distinct subterms."""
    table: dict = {}
    tree = 0

    def intern(u) -> int:
        nonlocal tree
        tree += 1
        if hasattr(u, "ready"):
            key = ("p", u.action, u.executed, u.ready, intern(u.cont))
        elif hasattr(u, "left"):
            key = ("+", intern(u.left), intern(u.right))
        else:
            key = ("0",)
        return table.setdefault(key, len(table))

    intern(rx.encoding.encode(rx.syntax.parse(text)))
    return tree, len(table)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scaled_setup(workload, seed: int, smoke: bool):
    """One set-up, and its time scaled by kernel samples taken around it."""
    speed = Speed()
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    rx, inputs, took = setup(workload, seed, smoke)
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    return rx, inputs, took, took * NOMINAL_S / speed.median_s()


def measure(workload, seed: int, seconds: float, smoke: bool):
    """End-to-end metrics, untraced."""
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        rx, inputs, took, scaled = scaled_setup(workload, seed, smoke)
        raw_setups.append(took)
        setups.append(scaled)
    out = workload.run(rx, inputs, seconds)
    figures = {}
    for scaled in (True, False):
        samples = out.latency_samples(scaled)
        busy = out.busy(scaled)
        figures[scaled] = (samples, busy, *tail(samples))
    samples, busy, value, pct, beyond = figures[True]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": out.ops / busy if busy else 0.0,
        "latency_p50_ms": 1000 * statistics.median(samples),
        "latency_tail_ms": 1000 * value,
        "peak_rss_mb": peak_rss_mb(),
    }
    raw_samples, raw_busy, raw_tail = figures[False][:3]
    fail_ratio = out.failed / out.attempted
    lines = [
        f"unscaled: setup_s {statistics.median(raw_setups):.6g} s, throughput_ops_s "
        f"{out.ops / raw_busy if raw_busy else 0.0:.6g} 1/s, latency_p50_ms "
        f"{1000 * statistics.median(raw_samples):.6g} ms, latency_tail_ms "
        f"{1000 * raw_tail:.6g} ms",
        f"reference kernel: median {1000 * out.speed.median_s():.4g} ms over "
        f"{len(out.speed.took)} samples, nominal {1000 * NOMINAL_S:.4g} ms",
        f"latency_tail_ms is p{pct:.2f} of {len(samples)} samples, {beyond} beyond it",
        f"fail_ratio {fail_ratio:.6g} ratio ({out.wrong} wrong, {out.errors} errors, "
        f"{out.timeouts} timeouts of {out.attempted} attempted)",
        f"disagreements {sum(out.disagreements.values())} count "
        f"{json.dumps(out.disagreements, sort_keys=True)}",
    ]
    return inputs, out, metrics, lines


def trace(workload, seed: int, seconds: float, smoke: bool):
    """Per-layer metrics from a traced run, and the tracing overhead."""
    tracer = Tracer()
    rx, inputs, _ = setup(workload, seed, smoke, tracer)
    tracer.enabled = True
    start = time.perf_counter()
    out = workload.run(rx, inputs, seconds, max_units=workload.trace_units, oracle=False)
    # wall time without the reference kernel's samples, which no layer runs
    traced = time.perf_counter() - start - sum(out.speed.took)
    tracer.enabled = False
    tracer.uninstall()
    start = time.perf_counter()
    replay = workload.run(rx, inputs, math.inf, max_units=out.units, oracle=False)
    untraced = time.perf_counter() - start - sum(replay.speed.took)
    reference = gen.render(gen.reference_product(3 if smoke else 4))
    nodes_tree, nodes_distinct = encoding_nodes(rx, reference)
    spans = tracer.write_spans(HERE / "out" / f"{workload.name}.spans.csv.gz")

    layers = tracer.layer_seconds()
    calls, facts = tracer.calls, tracer.facts
    states = facts["semantics.states"]
    metrics = tracer.group_seconds()
    metrics.update({
        "syntax.render_calls": calls["syntax.render"],
        "syntax.renders_per_state": calls["syntax.render"] / states if states else 0.0,
        "terms.is_initial_calls": calls["terms.is_initial"],
        "terms.brs_calls": calls["terms.brs"],
        "generate.terms": facts["generate.terms"],
        "semantics.states": states,
        "semantics.transitions": facts["semantics.transitions"],
        "semantics.undo_steps_calls": calls["semantics.undo_steps"],
        "bisim.refine_calls": calls["bisim.refine"],
        "bisim.blocks": facts["bisim.blocks"],
        "encoding.tie_histories": facts["encoding.tie_histories"],
        "encoding.nodes_tree": nodes_tree,
        "encoding.nodes_distinct": nodes_distinct,
        "encoding.share_ratio": nodes_tree / nodes_distinct,
        **{f"{layer}.self_s": seconds_ for layer, seconds_ in layers.items()},
        "benchmark.self_s": traced - sum(layers.values()),
        "trace.traced_s": traced,
        "trace.untraced_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.units": out.units,
        "trace.spans": spans,
    })
    lines = [
        f"traced {out.units} loop units: {traced:.3f} s traced, {untraced:.3f} s "
        f"untraced, overhead {traced - untraced:.3f} s",
        f"encoding nodes of {reference}: {nodes_tree} tree, {nodes_distinct} distinct",
    ]
    out.wrong += replay.wrong
    out.errors += replay.errors
    out.timeouts += replay.timeouts
    return inputs, out, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "revexp" / "__init__.py").is_file():
        print(f"perfbench: no revexp sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = trace if args.trace else measure
    inputs, out, metrics, lines = run(workload, args.seed, args.seconds, args.smoke)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(f"workload {workload.name} seed {args.seed} fingerprint {inputs.fingerprint}")
    print(f"inputs {json.dumps(inputs.sizes, sort_keys=True)}")
    print("loop closed, 1 client")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for line in lines:
        print(line)
    for note in out.notes:
        print(f"failure: {note}")
    correct = out.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
