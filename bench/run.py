"""Layered benchmark for eulergenus.

    python3 bench/run.py --workload reduce-stressed --seed 1 --seconds 25 --trace 0

Run from the repository root.  The library is imported from ``src/`` next
to this directory.  One process, one thread, closed loop: each instance is
handed to the library only after the previous one returned.

After set-up, the run repeats passes over the workload's fixed instance set
until ``--seconds`` have elapsed (at least one pass; with ``--trace 1`` at
least one untraced and one traced pass, alternating).  Every output is
checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a fuller report: environment, every end-to-end metric
with its unit and sample count, failure messages and the output digest.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from types import SimpleNamespace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# Set-up is repeated at least this often and for at least this long; its
# median is reported.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5
LIB_MODULES = ("digraph", "embedding", "errors", "surgery", "interlace", "touch",
               "reduce", "oracle", "generate", "render", "cli")

sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def import_library():
    """Import eulergenus afresh from this checkout's src/; returns (lib, seconds)."""
    init = os.path.join(SRC, "eulergenus", "__init__.py")
    if not os.path.isfile(init):
        raise SetupError(f"no library source at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n.split(".")[0] == "eulergenus"]:
        del sys.modules[name]
    start = time.perf_counter()
    import eulergenus
    from importlib import import_module
    modules = {name: import_module(f"eulergenus.{name}") for name in LIB_MODULES}
    elapsed = time.perf_counter() - start
    if os.path.realpath(eulergenus.__file__) != os.path.realpath(init):
        raise SetupError(f"imported eulergenus from {eulergenus.__file__}, not {init}")
    return SimpleNamespace(**modules), elapsed


def environment():
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def run_pass(lib, workload, instances, recorder, pass_id):
    """One closed-loop pass; returns wall seconds, per-instance seconds,
    outcomes and the pass digest."""
    if recorder is not None:
        recorder.pass_id = pass_id
    digest = hashlib.sha256()
    times = []
    outcomes = []
    pass_start = time.perf_counter()
    for index, inst in enumerate(instances):
        if recorder is not None:
            recorder.instance = index
        stop = []
        start = time.perf_counter()
        try:
            outcome = workload.solve(lib, inst, lambda: stop.append(time.perf_counter()),
                                     recorder)
        except Exception as exc:  # any unexpected exception fails the instance
            outcome = Outcome(f"{type(exc).__name__}: {exc}")
        end = stop[0] if stop else time.perf_counter()
        times.append(end - start)
        outcomes.append(outcome)
        digest.update(inst.label.encode())
        digest.update(outcome.digest_bytes if outcome.failure is None
                      else outcome.failure.encode())
    return time.perf_counter() - pass_start, times, outcomes, digest.hexdigest()


def run(workload_name, seed, seconds, trace, limit=None):
    """Run one benchmark; returns (report, result) dicts.

    ``limit`` keeps only the first instances of each pass, for the
    self-test's tiny slice.
    """
    workload = WORKLOADS[workload_name]
    workdir = os.path.join(WORK, f"{workload_name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    recorder = tracing.Recorder() if trace else None
    try:
        setups = []
        while not setups or not trace and (
                len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS):
            lib, import_s = import_library()
            installed = tracing.install(recorder) if trace else []
            start = time.perf_counter()
            try:
                instances = workload.build(lib, random.Random(seed), workdir)
            finally:
                tracing.uninstall(installed)
            setups.append(import_s + time.perf_counter() - start)
        if limit is not None:
            instances = instances[:limit]

        untraced, traced, traced_ids = [], [], []
        outcomes = []
        digests = set()
        timed_start = time.perf_counter()
        while True:
            use_trace = trace and len(untraced) > len(traced)
            pass_id = len(untraced) + len(traced)
            if use_trace:
                traced_ids.append(pass_id)
            installed = tracing.install(recorder) if use_trace else []
            try:
                wall, times, pass_outcomes, digest = run_pass(
                    lib, workload, instances, recorder if use_trace else None, pass_id)
            finally:
                tracing.uninstall(installed)
            (traced if use_trace else untraced).append((wall, times))
            outcomes.extend(pass_outcomes)
            digests.add(digest)
            done = time.perf_counter() - timed_start >= seconds
            if done and (not trace or traced):
                break
        if recorder is not None:
            os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
            recorder.write(os.path.join(ROOT, ".bench_out",
                                        f"spans-{workload_name}-seed{seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    attempted = len(outcomes)
    failures = [o.failure for o in outcomes if o.failure is not None]
    failed = len(failures)
    # Means across passes: the machine's speed drifts between a fast and a
    # slow mode, and a median of a few passes jumps between the modes.
    samples = [statistics.fmean(times) for times in zip(*(t for _, t in untraced))]
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.fmean(w for w, _ in untraced), "s"),
        "solve_ms_p50": (1000 * statistics.median(samples), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "optimal_share": (
            sum(o.optimal for o in outcomes) / max(attempted - failed, 1), "ratio"),
    }
    report_metrics = dict(end_to_end)
    report_metrics["failed_share"] = (failed / attempted, "ratio")
    report_metrics["dead_end_share"] = (sum(o.dead_end for o in outcomes) / attempted, "ratio")
    if len(instances) >= 100:
        report_metrics["solve_ms_p90"] = (
            1000 * statistics.quantiles(samples, n=10, method="inclusive")[-1], "ms")

    if trace:
        raw = tracing.phase_totals(recorder, "setup")
        per_pass = [tracing.phase_totals(recorder, i) for i in traced_ids]
        keys = set().union(*per_pass)
        for key in keys:
            raw[key] = raw.get(key, 0) + statistics.median(t.get(key, 0) for t in per_pass)
        overhead = (statistics.median(w for w, _ in traced)
                    - statistics.median(w for w, _ in untraced))
        metrics = tracing.layer_metrics(raw, overhead)
    else:
        metrics = end_to_end

    correct = failed == 0 and len(digests) == 1
    report = {
        "report": workload_name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "instances": len(instances),
        "pass_walls_s": {"untraced": [w for w, _ in untraced], "traced": [w for w, _ in traced]},
        "setup_repeats": len(setups),
        "samples": len(samples),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in report_metrics.items()},
        "digest": sorted(digests)[0] if len(digests) == 1 else sorted(digests),
        "failures": failures[:10],
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
