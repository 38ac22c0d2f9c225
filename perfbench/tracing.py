"""In-memory spans and counters around the public functions of ``revexp``.

The tracer replaces each listed function in every ``revexp`` module that
binds it (``revexp.bisim.build_lts`` as well as ``revexp.semantics.build_lts``),
so calls between modules are seen, and restores the originals on
``uninstall``.  Three kinds of probe:

* span: a record ``(name, start, end, parent)``; its self time is its
  duration minus the time of the spans and timed leaves it encloses.  A
  function that recurses through its own module binding stays one span.
* timed leaf: call count and time, charged to the enclosing span's children;
  used for ``render`` and ``undo_steps``, which run too often to keep a
  record per call.
* counted leaf: call count only (``is_initial``, ``brs``).

Per-call facts (states of a built system, blocks of a refinement, histories
returned) are read after the span has closed, and their cost is charged to
the enclosing span's children, not to its self time.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

SPAN, TIMED, COUNTED = "span", "timed", "counted"

# (module, function, probe, metric group); the group names the per-layer
# metric the function's self time is added to
PROBES = (
    ("syntax", "parse", SPAN, "syntax.parse_s"),
    ("syntax", "render", TIMED, "syntax.render_s"),
    ("terms", "is_initial", COUNTED, None),
    ("terms", "brs", COUNTED, None),
    ("generate", "enumerate_processes", SPAN, "generate.enumerate_s"),
    ("semantics", "build_lts", SPAN, "semantics.build_s"),
    ("semantics", "build_brs_lts", SPAN, "semantics.build_s"),
    ("semantics", "build_union", SPAN, "semantics.build_s"),
    ("semantics", "is_reachable", SPAN, "semantics.is_reachable_s"),
    ("semantics", "undo_steps", TIMED, "semantics.undo_steps_s"),
    ("bisim", "refine", SPAN, "bisim.refine_s"),
    ("bisim", "check", SPAN, "bisim.check_self_s"),
    ("encoding", "encode", SPAN, "encoding.encode_s"),
    ("encoding", "canonical_history", SPAN, "encoding.history_s"),
    ("encoding", "minimal_trace_histories", SPAN, "encoding.history_s"),
    ("axioms", "normalize_f", SPAN, "axioms.normalize_s"),
    ("axioms", "normalize_r", SPAN, "axioms.normalize_s"),
    ("axioms", "normalize_fr", SPAN, "axioms.normalize_s"),
    ("axioms", "canonical", SPAN, "axioms.canonical_s"),
    ("axioms", "structural_key", SPAN, "axioms.structural_key_s"),
    ("axioms", "theory_encoding", SPAN, "axioms.theory_encoding_self_s"),
    ("axioms", "prove_eq", SPAN, "axioms.prove_eq_self_s"),
    ("selfcheck", "class_ids", SPAN, "selfcheck.class_ids_s"),
)

LAYERS = ("syntax", "generate", "semantics", "bisim", "encoding", "axioms", "selfcheck")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.self_ns: Counter = Counter()  # by function name
        self.calls: Counter = Counter()  # by function name
        self.facts: Counter = Counter()  # counts read from results
        self._stack: list[list] = []  # [name id, child ns, span index]
        self._patched: list[tuple] = []

    # --- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for module_name, fn_name, probe, _ in PROBES:
            original = getattr(getattr(package, module_name), fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, probe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn, probe: str):
        nid = len(self.names)
        self.names.append(name)
        if probe == COUNTED:
            return self._counted(name, fn)
        if probe == TIMED:
            return self._timed(name, fn)
        return self._span(name, nid, fn)

    def _counted(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            if self.enabled:
                calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _timed(self, name, fn):
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.calls[name] += 1
                self.self_ns[name] += elapsed
                if self._stack:
                    self._stack[-1][1] += elapsed
        return timed

    def _span(self, name, nid, fn):
        clock = time.perf_counter_ns
        materialize = name == "generate.enumerate_processes"  # a generator

        def span(*args, **kwargs):
            stack = self._stack
            if not self.enabled or (stack and stack[-1][0] == nid):
                return fn(*args, **kwargs)
            index = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][2] if stack else -1)
            frame = [nid, 0, index]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                end = clock()
                stack.pop()
                self.span_end[index] = end
                self.calls[name] += 1
                self.self_ns[name] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if stack:
                fact_start = clock()
                self._record_facts(name, result)
                stack[-1][1] += clock() - fact_start
            else:
                self._record_facts(name, result)
            return iter(result) if materialize else result
        return span

    def _record_facts(self, name: str, result) -> None:
        if name.startswith("semantics.build_"):
            self.facts["semantics.states"] += len(result.terms)
            self.facts["semantics.transitions"] += len(result.transitions)
        elif name == "bisim.refine":
            self.facts["bisim.blocks"] += len(set(result[0]))
        elif name == "encoding.minimal_trace_histories":
            self.facts["encoding.tie_histories"] += len(result)
        elif name == "generate.enumerate_processes":
            self.facts["generate.terms"] += len(result)

    # --- results -----------------------------------------------------------

    def group_seconds(self) -> dict[str, float]:
        """Self seconds per metric group of :data:`PROBES`."""
        out: Counter = Counter()
        for module_name, fn_name, _, group in PROBES:
            if group is not None:
                out[group] += self.self_ns[f"{module_name}.{fn_name}"] / 1e9
        return dict(out)

    def layer_seconds(self) -> dict[str, float]:
        """Self seconds per package module."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            out[name.split(".")[0]] += ns / 1e9
        return out

    def write_spans(self, path) -> int:
        """Write every span as ``name,parent,start_ns,end_ns`` (gzip CSV)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index,name,parent,start_ns,end_ns\n")
            for i in range(len(self.span_name)):
                out.write(f"{i},{self.names[self.span_name[i]]},{self.span_parent[i]},"
                          f"{self.span_start[i]},{self.span_end[i]}\n")
        return len(self.span_name)
