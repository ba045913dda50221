"""Self-test of the benchmark on a tiny seeded slice of every workload.

    python3 bench/selftest.py

Checks that the printed metric names and units match BENCHMARK.json, that
two runs with the same seed give identical digests, that an untraced run
leaves every library attribute unwrapped while a traced run wraps them and
restores them afterwards, and that on reduce-stressed the self times under
``reduce`` account for all of ``reduce.s``.  Exits 1 on the first failure.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402

SEED = 7
SLICE = 3


def metric_units(result):
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(run.WORKLOADS):
        raise SystemExit(f"workloads {names} differ from {sorted(run.WORKLOADS)}")

    seen = {"untraced": [], "traced": []}
    original_pass = run.run_pass

    def checking_pass(lib, workload, instances, recorder, pass_id):
        key = "untraced" if recorder is None else "traced"
        seen[key].append(tracing.wrapped_attributes())
        return original_pass(lib, workload, instances, recorder, pass_id)

    run.run_pass = checking_pass
    failures = []
    try:
        for name in names:
            first, plain = run.run(name, SEED, 0, False, limit=SLICE)
            second, _ = run.run(name, SEED, 0, False, limit=SLICE)
            _, traced = run.run(name, SEED, 0, True, limit=SLICE)
            for label, result in (("untraced", plain), ("traced", traced)):
                if not result["correct"] or result["failed"]:
                    failures.append(f"{name}: {label} run not correct: {result}")
            if metric_units(plain) != end_to_end:
                failures.append(f"{name}: end-to-end metrics {metric_units(plain)}")
            if metric_units(traced) != per_layer:
                failures.append(f"{name}: per-layer metrics differ from BENCHMARK.json")
            if first["digest"] != second["digest"] or not isinstance(first["digest"], str):
                failures.append(f"{name}: digests {first['digest']} and {second['digest']}")
            layers = traced["metrics"]
            if name == "reduce-stressed":
                share = layers["reduce.accounted_share"]["value"]
                if abs(share - 1.0) > 1e-9:
                    failures.append(f"{name}: reduce self times account for {share} of reduce.s")
            print(f"{name}: digest {first['digest'][:16]}, "
                  f"{len(layers)} per-layer metrics", flush=True)
    finally:
        run.run_pass = original_pass

    wrapped = [names for names in seen["untraced"] if names]
    if wrapped:
        failures.append(f"untraced passes saw wrappers: {wrapped[0]}")
    if not seen["traced"] or not all(seen["traced"]):
        failures.append("traced passes ran without wrappers")
    left = tracing.wrapped_attributes()
    if left:
        failures.append(f"wrappers left installed: {left}")
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
