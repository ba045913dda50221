"""Spans around the library's public functions, for traced benchmark runs.

Wrappers are installed on every module attribute through which the library
calls a function, and on the class attributes of the few classes whose
construction or tracing is timed.  Nothing is installed for untraced runs,
and ``uninstall`` puts every original back.

A span is ``[name, start_ns, end_ns, parent, instance, pass]``; spans are
kept in memory and written out once at the end of a run.  Counts that only
a return value can give (states enumerated, reduction steps, hits) go into
per-pass counters next to the spans.
"""

import functools
import json
import time
from importlib import import_module

MODULES = (
    "eulergenus", "eulergenus.digraph", "eulergenus.embedding",
    "eulergenus.surgery", "eulergenus.interlace", "eulergenus.touch",
    "eulergenus.reduce", "eulergenus.oracle", "eulergenus.generate",
    "eulergenus.render", "eulergenus.cli",
)

# (defining module, function, span name)
FUNCTIONS = (
    ("embedding", "verify_embedding", "embedding.verify"),
    ("surgery", "merge_three_at_vertex", "surgery.merge_three"),
    ("surgery", "merge_interlaced", "surgery.merge_interlaced"),
    ("surgery", "split_swap", "surgery.split_swap"),
    ("surgery", "blow_up", "surgery.blow_up"),
    ("interlace", "find_vertex_on_three_antifaces", "interlace.find_three"),
    ("interlace", "check_three_neighbor_corollary", "interlace.check"),
    ("interlace", "check_big_moderate", "interlace.check"),
    ("interlace", "check_diamond_corollary", "interlace.check"),
    ("interlace", "three_neighbor_search", "interlace.search"),
    ("interlace", "diamond_search", "interlace.search"),
    ("touch", "build_touch_graph", "touch.build"),
    ("touch", "classify", "touch.classify"),
    ("digraph", "density_profile", "digraph.density_profile"),
    ("digraph", "underlying_simple_graph", "digraph.usg"),
    ("digraph", "euler_circuit", "digraph.decompose"),
    ("reduce", "reduce_embedding", "reduce"),
    ("reduce", "reduce_to_upper_embedding", "reduce"),
    ("oracle", "enumerate_relative_embeddings", "oracle"),
    ("render", "embedding_svg", "render"),
    ("generate", "gen_rotational_tournament", "generate"),
    ("generate", "gen_kn_minus_pm", "generate"),
    ("generate", "gen_sts", "generate"),
    ("generate", "gen_random_dense_eulerian", "generate"),
)

# (defining module, class, method, span name)
METHODS = (
    ("embedding", "OrientedDirectedEmbedding", "__init__", "embedding.construct"),
    ("embedding", "OrientedDirectedEmbedding", "_trace", "embedding.trace"),
    ("interlace", "TypeTable", "__init__", "interlace.type_table"),
    ("digraph", "CircuitDecomposition", "__init__", "digraph.decompose"),
)

REDUCE_CASES = ("1", "2.1.1", "2.1.2", "2.1.3", "2.1.4", "2.2", "3.1", "3.2.1", "3.2.2")


class Recorder:
    """In-memory span log plus per-pass counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.instance = None
        self.pass_id = "setup"

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        span = [name, time.perf_counter_ns(), 0, parent, self.instance, self.pass_id]
        self.spans.append(span)
        return span

    def close(self, span):
        span[2] = time.perf_counter_ns()
        self.stack.pop()

    def add(self, key, amount=1):
        counts = self.counts.setdefault(self.pass_id, {})
        counts[key] = counts.get(key, 0) + amount

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _observe_reduce(recorder, result, exc):
    trace = getattr(exc, "trace", None) if exc is not None else result[1]
    if isinstance(exc, import_module("eulergenus.errors").NoProgressError):
        recorder.add("reduce.dead_ends")
    if trace is None:
        return
    recorder.add("reduce.steps", len(trace.steps))
    for step in trace.steps:
        recorder.add(f"reduce.case.{step.case}")


def _observe_hit(key):
    def observe(recorder, result, exc):
        if exc is None and result is not None:
            recorder.add(key)
    return observe


def _observe_oracle(recorder, result, exc):
    if exc is None:
        recorder.add("oracle.states", result.states)


OBSERVERS = {
    "reduce": _observe_reduce,
    "interlace.find_three": _observe_hit("interlace.find_three.hits"),
    "interlace.check": _observe_hit("interlace.check.hits"),
    "oracle": _observe_oracle,
}


def _span_wrapper(recorder, name, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            recorder.close(span)
            if observe is not None:
                observe(recorder, None, exc)
            raise
        recorder.close(span)
        if observe is not None:
            observe(recorder, result, None)
        return result

    return traced


def _trace_wrapper(recorder, fn):
    """Face tracing: cached hits pass straight through and are not counted."""

    @functools.wraps(fn)
    def traced(self):
        if self._faces is not None:
            return fn(self)
        recorder.add("embedding.trace_arcs", 2 * self.digraph.m)
        span = recorder.open("embedding.trace")
        try:
            return fn(self)
        finally:
            recorder.close(span)

    return traced


def targets():
    """Every (owner, attribute, original, span name) a traced run wraps."""
    modules = [import_module(name) for name in MODULES]
    found = []
    for home, attr, name in FUNCTIONS:
        original = getattr(import_module(f"eulergenus.{home}"), attr)
        for module in modules:
            if getattr(module, attr, None) is original:
                found.append((module, attr, original, name))
    for home, cls_name, attr, name in METHODS:
        cls = getattr(import_module(f"eulergenus.{home}"), cls_name)
        found.append((cls, attr, cls.__dict__[attr], name))
    return found


def install(recorder):
    """Wrap every target; returns the list that ``uninstall`` restores."""
    installed = []
    for owner, attr, original, name in targets():
        if name == "embedding.trace":
            wrapper = _trace_wrapper(recorder, original)
        else:
            wrapper = _span_wrapper(recorder, name, original)
        wrapper.bench_span = name
        setattr(owner, attr, wrapper)
        installed.append((owner, attr, original))
    return installed


def uninstall(installed):
    for owner, attr, original in reversed(installed):
        setattr(owner, attr, original)


def wrapped_attributes():
    """Names of library attributes that currently carry a wrapper."""
    found = []
    for name in MODULES:
        module = import_module(name)
        for attr, value in vars(module).items():
            if hasattr(value, "bench_span"):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__.startswith("eulergenus"):
                for method, fn in vars(value).items():
                    if hasattr(fn, "bench_span"):
                        found.append(f"{name}.{attr}.{method}")
    return sorted(set(found))


def phase_totals(recorder, pass_id):
    """Calls, inclusive and self nanoseconds per span name for one phase,
    plus the share of reduce time that reduce's own and its descendants'
    self times account for."""
    spans = recorder.spans
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    totals = {}
    under_reduce = [False] * len(spans)
    accounted_ns = 0
    for i, (name, start, end, parent, _, phase) in enumerate(spans):
        if phase != pass_id:
            continue
        duration = end - start
        own = duration - child_ns[i]
        entry = totals.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += own
        under_reduce[i] = name == "reduce" or (parent >= 0 and under_reduce[parent])
        if under_reduce[i]:
            accounted_ns += own
    counts = dict(recorder.counts.get(pass_id, {}))
    for name, (calls, incl, own) in totals.items():
        counts[f"{name}#calls"] = calls
        counts[f"{name}#ns"] = incl
        counts[f"{name}#self_ns"] = own
    counts["reduce#accounted_ns"] = accounted_ns
    return counts


def layer_metrics(raw, overhead_s):
    """Per-layer metric values from combined raw totals."""

    def calls(name):
        return raw.get(f"{name}#calls", 0)

    def seconds(name):
        return raw.get(f"{name}#ns", 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "embedding.trace_calls": (calls("embedding.trace"), "count"),
        "embedding.trace_arcs": (raw.get("embedding.trace_arcs", 0), "count"),
        "embedding.trace_s": (seconds("embedding.trace"), "s"),
        "embedding.construct_calls": (calls("embedding.construct"), "count"),
        "embedding.construct_s": (seconds("embedding.construct"), "s"),
        "embedding.verify_s": (seconds("embedding.verify"), "s"),
    }
    for op in ("merge_three", "merge_interlaced", "split_swap", "blow_up"):
        out[f"surgery.{op}.calls"] = (calls(f"surgery.{op}"), "count")
        out[f"surgery.{op}.s"] = (seconds(f"surgery.{op}"), "s")
    for part in ("find_three", "type_table", "check", "search"):
        out[f"interlace.{part}.calls"] = (calls(f"interlace.{part}"), "count")
        out[f"interlace.{part}.s"] = (seconds(f"interlace.{part}"), "s")
    for part in ("find_three", "check"):
        hits = raw.get(f"interlace.{part}.hits", 0)
        out[f"interlace.{part}.hit_ratio"] = (ratio(hits, calls(f"interlace.{part}")), "ratio")
    for part in ("build", "classify"):
        out[f"touch.{part}.calls"] = (calls(f"touch.{part}"), "count")
        out[f"touch.{part}.s"] = (seconds(f"touch.{part}"), "s")
    out["digraph.density_profile.calls"] = (calls("digraph.density_profile"), "count")
    out["digraph.usg.calls"] = (calls("digraph.usg"), "count")
    out["digraph.decompose_s"] = (seconds("digraph.decompose"), "s")
    reduce_s = seconds("reduce")
    steps = raw.get("reduce.steps", 0)
    out["reduce.calls"] = (calls("reduce"), "count")
    out["reduce.s"] = (reduce_s, "s")
    out["reduce.self_s"] = (raw.get("reduce#self_ns", 0) / 1e9, "s")
    out["reduce.steps"] = (steps, "count")
    out["reduce.steps_per_s"] = (ratio(steps, reduce_s), "1/s")
    out["reduce.dead_ends"] = (raw.get("reduce.dead_ends", 0), "count")
    out["reduce.accounted_share"] = (
        ratio(raw.get("reduce#accounted_ns", 0), raw.get("reduce#ns", 0)), "ratio")
    for case in REDUCE_CASES:
        out[f"reduce.case.{case}"] = (raw.get(f"reduce.case.{case}", 0), "count")
    oracle_s = seconds("oracle")
    states = raw.get("oracle.states", 0)
    out["oracle.calls"] = (calls("oracle"), "count")
    out["oracle.s"] = (oracle_s, "s")
    out["oracle.states"] = (states, "count")
    out["oracle.states_per_s"] = (ratio(states, oracle_s), "1/s")
    for command in ("gen", "embed", "verify", "faces", "render"):
        out[f"cli.{command}_s"] = (seconds(f"cli.{command}"), "s")
    out["render.s"] = (seconds("render"), "s")
    out["generate.s"] = (seconds("generate"), "s")
    out["tracing.overhead_s"] = (overhead_s, "s")
    return out
