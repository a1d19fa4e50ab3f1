"""caco benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 25 --trace 0

Runs the workload in-process through caco's public entry points, from the
caco sources of the checkout this file sits in. It repeats the workload's
inputs in order until --seconds have passed, and at least until every
input has run once and the first twice. Every repetition's outputs are
checked by the oracle (oracle.py). The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: medians over repetitions of the
wall time and of source samples stepped per second of training, the
median of set-ups repeated between repetitions (all three scaled to a
reference machine speed, see CALIBRATION_REFERENCE_S), peak RSS, the mean
final target accuracy over the inputs, and the share of repetitions whose
outputs passed. Failed repetitions make the result incorrect but are left
out of the other metrics, so ok_frac shows how many failed.

--trace 1 reports per-layer self times and counts (layers.py) of the
first input, alternating untraced and traced repetitions of it; the
difference of their median wall times is the tracing overhead. Counts
must repeat exactly between traced repetitions, and every layer a
workload is meant to move (or bypass) must read non-zero (or zero).

The lines before the last describe the environment and the samples.
"""

import os

# One BLAS thread for every run: the thread count alone moves a 60-epoch
# `full` run by a fifth. This must happen before numpy is first imported.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _variable in BLAS_VARIABLES:
    os.environ[_variable] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
SETUPS_PER_REP = 3  # set-ups are spread over the run, as the repetitions are
MIN_TRACED_REPS = 2

# The speed of a shared VM drifts by up to 40% over tens of seconds. So the
# end-to-end times of each repetition are scaled by CALIBRATION_REFERENCE_S
# over the time of a fixed kernel that does not use caco, measured just
# before it: they read as seconds on a machine where the kernel takes
# 12 ms. The unscaled medians are printed on the samples line.
CALIBRATION_REFERENCE_S = 0.012


def load_caco():
    """Import caco from this checkout's src/, or exit non-zero."""
    package = ROOT / "src" / "caco"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no caco sources at {package}")
    sys.path.insert(0, str(package.parent))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import caco

    if Path(caco.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported caco from {caco.__file__}, not from {package}")


def git_commit() -> str:
    """The checked-out commit; 'unknown' outside a clone or without git."""
    # The ceiling keeps git from reporting a repository that merely encloses the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
    }


def calibration_s() -> float:
    """Fastest of three timings of a fixed pure-Python and small-numpy kernel."""
    import numpy as np

    rng = np.random.default_rng(0)
    x, w = rng.normal(size=(32, 64)), rng.normal(size=(64, 64))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(300):
            h = np.maximum(x @ w, 0.0)
            h /= np.linalg.norm(h, axis=1, keepdims=True)
        best = min(best, time.perf_counter() - start)
    return best


def remove_work_dir(path: Path) -> None:
    """Remove one run's scratch directory, and the parent once it is empty."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run's directory is still there


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count, for the lines before the result."""
    if len(values) < 2:
        return {"median": values[0] if values else None, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    """Repetitions of one workload and seed, with their failures."""

    def __init__(self, workload, seed: int):
        from oracle import Oracle

        self.workload = workload
        self.inputs = workload.inputs(seed)
        self.oracle = Oracle(workload.signature)
        self.out = WORK / f"{workload.name}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0

    def rep(self, seeds, tracer=None):
        """One checked repetition; None if it raised or its outputs failed the oracle."""
        import oracle
        import workloads

        self.attempted += 1
        try:
            oracle.clear(self.out)
            if tracer is None:
                rep = workloads.run_rep(self.workload, seeds, self.out)
            else:
                with tracer.installed(), tracer.span("workload"):
                    rep = workloads.run_rep(self.workload, seeds, self.out, tracer.span)
            self.oracle.check(seeds, oracle.digest(self.out))
            return rep
        except Exception:  # a failed repetition is counted and reported, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def close(self):
        remove_work_dir(self.out)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    import workloads

    wl, inputs = runner.workload, runner.inputs
    deadline = time.perf_counter() + seconds
    walls, rates, setups, raw_walls, raw_setups, scales, accuracy = [], [], [], [], [], [], {}
    i = 0
    while i <= len(inputs) or time.perf_counter() < deadline:
        seeds = inputs[i % len(inputs)]
        scale = CALIBRATION_REFERENCE_S / calibration_s()
        scales.append(scale)
        rep = runner.rep(seeds)
        if rep is not None:
            raw_walls.append(rep.wall_s)
            walls.append(rep.wall_s * scale)
            rates.append(rep.samples / (rep.train_s * scale))
            accuracy.setdefault(seeds, statistics.fmean(rep.accuracies))
        for _ in range(SETUPS_PER_REP):
            raw_setups.append(workloads.setup_once(wl, seeds[0]))
            setups.append(raw_setups[-1] * scale)
        i += 1
    # A failed repetition leaves `correct` false; the metrics still come
    # from those that passed, so ok_frac shows how many did.
    metrics = {"ok_frac": ((runner.attempted - runner.failed) / runner.attempted, "fraction")}
    if walls:
        metrics.update({
            "wall_s": (statistics.median(walls), "s"),
            "train_samples_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "target_accuracy": (statistics.fmean(accuracy.values()), "fraction"),
        })
    details = {"wall_s": summary(walls), "train_samples_per_s": summary(rates),
               "setup_s": summary(setups), "unscaled_wall_s": summary(raw_walls),
               "unscaled_setup_s": summary(raw_setups), "scale": summary(scales),
               "inputs": len(inputs), "inputs_passed": len(accuracy)}
    return metrics, details


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict, list[str]]:
    import layers

    layers.check_wraps()
    seeds = runner.inputs[0]
    deadline = time.perf_counter() + seconds
    plain, traced, problems = [], [], []
    while len(traced) < MIN_TRACED_REPS or time.perf_counter() < deadline:
        # alternate which side runs first, so drift does not favour one
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_trace in order:
            tracer = layers.Tracer() if with_trace else None
            rep = runner.rep(seeds, tracer)
            if rep is None:
                continue
            if with_trace:
                traced.append((tracer.traced_s, tracer.metrics()))
            else:
                plain.append(rep.wall_s)
        if runner.failed and not traced:
            break  # every traced repetition would fail the same way
    if not traced or not plain:
        return {}, {}, ["no repetition completed"]

    counts = [{k: v for k, v in m.items() if layers.METRICS[k] == "count"} for _, m in traced]
    if any(c != counts[0] for c in counts):
        problems.append("counts differ between traced repetitions")
    metrics = {
        name: (statistics.median(m[name] for _, m in traced), unit)
        for name, unit in layers.METRICS.items()
    }
    traced_wall = statistics.median(t for t, _ in traced)
    plain_wall = statistics.median(plain)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")

    for name in runner.workload.nonzero:
        if not metrics[name][0]:
            problems.append(f"{name} is zero on {runner.workload.name}")
    for name in runner.workload.zero:
        if metrics[name][0]:
            problems.append(f"{name} is {metrics[name][0]} on {runner.workload.name}, expected 0")
    details = {"traced_reps": len(traced), "untraced_reps": len(plain),
               "traced_wall_s": summary([t for t, _ in traced]), "untraced_wall_s": summary(plain)}
    return metrics, details, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_caco()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    runner = Runner(workloads.WORKLOADS[args.workload], args.seed)
    try:
        if args.trace:
            metrics, details, problems = per_layer(runner, args.seconds)
        else:
            metrics, details = end_to_end(runner, args.seconds)
            problems = [] if "wall_s" in metrics else ["no input completed"]
    finally:
        runner.close()

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"env": environment()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "oracle": runner.oracle.checks, "samples": details}))
    correct = not problems and runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
