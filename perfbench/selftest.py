"""Self-test of the benchmark: every workload, very briefly.

    python3 perfbench/selftest.py

Runs a shortened copy of each workload (at most seven epochs) on the
inputs of its first two run seeds (see workloads.shortened and
workloads.selftest_inputs) and checks that:

- the metric names run.py prints are exactly those BENCHMARK.json lists;
- every repetition's outputs match the stored reference digests;
- two traced runs report the same counts, exactly, and pass the
  workload's non-zero and zero-on-bypass checks;
- the self times of a traced repetition, train.self_s and the other run
  spans included, sum to its traced wall time.

Prints one line per check and exits non-zero if any fails.
"""

import json
import math
import sys
from pathlib import Path

import run

run.load_caco()

import layers  # noqa: E402  (needs caco on the path)
import workloads  # noqa: E402

BENCHMARK = run.ROOT / "BENCHMARK.json"
SEED = workloads.SELFTEST_SEED

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {message}", flush=True)
    if not condition:
        failures.append(message)


def counts_of(metrics: dict) -> dict:
    return {name: value for name, (value, unit) in metrics.items() if unit == "count"}


def brief_runner(workload) -> run.Runner:
    runner = run.Runner(workload, SEED)
    runner.inputs = workloads.selftest_inputs(workload)
    return runner


def test_workload(workload, listed: dict) -> None:
    name = workload.name
    runner = brief_runner(workload)
    try:
        metrics, _ = run.end_to_end(runner, 0)
    finally:
        runner.close()
    check(runner.failed == 0 and bool(metrics), f"{name}: untraced repetitions pass the oracle")
    check(runner.oracle.checks["reference"] == runner.attempted,
          f"{name}: every repetition was checked against a stored reference {runner.oracle.checks}")
    check(set(metrics) == listed["end_to_end"], f"{name}: end-to-end metrics match BENCHMARK.json")

    layer_counts = []
    for attempt in (1, 2):
        runner = brief_runner(workload)
        try:
            metrics, _, problems = run.per_layer(runner, 0)
        finally:
            runner.close()
        check(not problems and runner.failed == 0, f"{name}: traced run {attempt} passes {problems}")
        layer_counts.append(counts_of(metrics))
    check(set(metrics) == listed["per_layer"], f"{name}: per-layer metrics match BENCHMARK.json")
    check(layer_counts[0] == layer_counts[1], f"{name}: counts repeat exactly across two runs")

    tracer = layers.Tracer()
    runner = brief_runner(workload)
    try:
        rep = runner.rep(runner.inputs[0], tracer)
    finally:
        runner.close()
    total = math.fsum(tracer.self_s.values())
    check(rep is not None and math.isclose(total, tracer.traced_s, rel_tol=1e-9),
          f"{name}: self times sum to the traced wall time ({total:.6f} s vs {tracer.traced_s:.6f} s)")


def main() -> int:
    spec = json.loads(BENCHMARK.read_text())
    listed = {key: {m["name"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
          "workloads match BENCHMARK.json")
    for workload in workloads.WORKLOADS.values():
        test_workload(workloads.shortened(workload), listed)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
