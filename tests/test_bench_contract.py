"""The benchmark's view of caco: every name it wraps resolves, and every layer moves.

perfbench/ measures caco from outside by wrapping its public names, so a
refactor of caco can leave a wrapper that no longer sees any call. This
imports perfbench/layers.py and perfbench/workloads.py as they are, runs
one traced repetition of each shortened workload, and checks the
workload's own lists: every metric it is meant to move reads non-zero,
and every layer it must bypass reads zero. The output oracle is not run
here; the benchmark's self-test does that against its stored references.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402


def test_every_wrapped_name_resolves():
    layers.check_wraps()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_workload_moves_and_bypasses_its_layers(name, tmp_path):
    workload = workloads.shortened(workloads.WORKLOADS[name])
    seeds = workloads.selftest_inputs(workload)[0]
    tracer = layers.Tracer()
    with tracer.installed(), tracer.span("workload"):
        workloads.run_rep(workload, seeds, tmp_path / "out", tracer.span)
    metrics = tracer.metrics()
    assert [m for m in workload.nonzero if not metrics[m]] == []
    assert {m: metrics[m] for m in workload.zero if metrics[m]} == {}
