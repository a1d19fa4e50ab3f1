"""The benchmark's workloads and one repetition of each.

Every workload runs the default spec (configs/default.spec) through caco's
public entry points, shortened by an epoch override. A benchmark seed
names RUN_SEEDS consecutive caco root seeds; a workload splits them into
inputs, one input per repetition: one seed for a single training run, a
seed list for an ablation sweep. Every run seed therefore trains the same
data in every workload, and the mean accuracy over all of them is steady
across benchmark seeds although one run's accuracy is not.
"""

from __future__ import annotations

import dataclasses
import io
import json
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import caco.cli
from caco.cli import load_spec
from caco.data import build_domain_pair
from caco.model import save_checkpoint
from caco.train import train_caco, train_source_only

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "configs" / "default.spec"

# caco root seeds per benchmark seed; the mean accuracy over 16 runs
# spreads about a quarter as much between benchmark seeds as one run does.
RUN_SEEDS = 16

_DICTIONARY = (
    "dictionary.enqueue_s", "dictionary.keys_written", "dictionary.keys_written_source",
    "dictionary.keys_written_target", "dictionary.snapshot_s", "dictionary.keys_copied",
    "dictionary.keys_read", "dictionary.keys_copied_per_read", "dictionary.dump_jsonl_s",
)
_LABELS = ("labels.assign_pseudo_label_s", "labels.assign_pseudo_label_calls", "labels.key_label_s")
_TRAINING = (
    "autodiff.backward_s", "autodiff.backward_calls", "model.encode_query_s", "model.classify_s",
    "model.predict_s", "model.predict_rows", "model.save_checkpoint_s", "losses.supervised_loss_s",
    "data.build_domain_pair_s", "train.sgd_step_s", "train.evaluate_s", "train.self_s",
    "train.steps", "train.step_ms.p50", "train.step_ms.p99",
)
_CONTRAST = ("model.encode_key_s", "model.momentum_update_s", "dictionary.dump_jsonl_s")
_CLI = ("cli.self_s", "cli.runs")


@dataclass(frozen=True)
class Workload:
    """A spec override set, how it is run, and what its trace must show.

    ``nonzero`` lists the per-layer metrics this workload is meant to move,
    so a wrapper that stops seeing its calls shows up as a zero; ``zero``
    lists those the workload must bypass.
    """

    name: str
    overrides: tuple[str, ...]
    seeds_per_input: int = 1  # more than one: a `caco ablate` sweep over the list
    nonzero: tuple[str, ...] = ()
    zero: tuple[str, ...] = ()

    @property
    def sweep(self) -> bool:
        return self.seeds_per_input > 1

    @property
    def signature(self) -> str:
        """What determines the outputs of an input; reference digests are filed under it."""
        return json.dumps({"sweep": self.sweep, "overrides": list(self.overrides)})

    def inputs(self, seed: int) -> list[tuple[int, ...]]:
        """The run-seed tuples one benchmark seed stands for, in repetition order."""
        if seed < 0:
            raise ValueError(f"benchmark seeds are non-negative, got {seed}")
        first = 1 + seed * RUN_SEEDS
        seeds = list(range(first, first + RUN_SEEDS))
        k = self.seeds_per_input
        return [tuple(seeds[i:i + k]) for i in range(0, len(seeds), k)]


WORKLOADS = {
    w.name: w
    for w in (
        # Read-heavy: each warm step reads all M*C = 400 keys for 8 written.
        Workload(
            "train_full",
            ("train.variant=full", "train.epochs=10"),
            nonzero=_TRAINING + _CONTRAST + (
                "dictionary.snapshot_s", "dictionary.keys_copied", "dictionary.keys_read",
                "dictionary.keys_copied_per_read", "losses.cat_nce_s", "losses.cat_nce_calls",
            ) + _LABELS,
            zero=_CLI,
        ),
        # The control: dictionary, labels and cat_nce are bypassed entirely.
        Workload(
            "train_baseline",
            ("train.variant=baseline", "train.epochs=10"),
            nonzero=_TRAINING,
            zero=_DICTIONARY + _LABELS + ("losses.cat_nce_s", "losses.cat_nce_calls") + _CLI,
        ),
        # Write-heavy: every key is a target key, so each one is pseudo-labelled,
        # given an entropy and a temperature, and enqueued.
        Workload(
            "keys_write_heavy",
            ("train.variant=T", "train.key_batch_size=32", "train.queue_size=16", "train.epochs=10"),
            nonzero=_TRAINING + _CONTRAST + _LABELS + (
                "dictionary.enqueue_s", "dictionary.keys_written", "dictionary.keys_written_target",
                "losses.prediction_entropy_s", "losses.key_temperature_s",
                "data.sample_key_batch_s", "data.sample_query_batch_s",
            ),
            zero=_CLI,
        ),
        # Run plumbing and output writers: 8 runs per repetition through cli.main.
        Workload(
            "ablate_sweep",
            ("train.epochs=6",),
            seeds_per_input=2,
            nonzero=_TRAINING + _CONTRAST + _CLI,
        ),
    )
}


SELFTEST_SEED = 0
SELFTEST_RUN_SEEDS = 2


def shortened(workload: Workload) -> Workload:
    """A brief copy for the self-test: at most seven epochs.

    Seven epochs still reach the contrastive phase, which starts after the
    five warm-up epochs of the default spec.
    """
    overrides = tuple(
        "train.epochs=7" if item.startswith("train.epochs=") and int(item.split("=")[1]) > 7 else item
        for item in workload.overrides
    )
    return dataclasses.replace(workload, overrides=overrides)


def selftest_inputs(workload: Workload) -> list[tuple[int, ...]]:
    """The self-test's inputs: those of SELFTEST_SEED that cover its first SELFTEST_RUN_SEEDS run seeds."""
    return workload.inputs(SELFTEST_SEED)[:SELFTEST_RUN_SEEDS // workload.seeds_per_input]


@dataclass
class Rep:
    """One repetition: its timings and the work it did."""

    wall_s: float
    train_s: float
    samples: int
    accuracies: list[float]


class _TrainClock:
    """Time and work of the training calls one `caco ablate` makes."""

    def __init__(self):
        self.seconds = 0.0
        self.samples = 0
        self.accuracies: list[float] = []

    def _timed(self, fn):
        def timed(config, pair, *args, **kwargs):
            start = time.perf_counter()
            model, metrics = fn(config, pair, *args, **kwargs)
            self.seconds += time.perf_counter() - start
            self.samples += len(metrics.records) * len(pair.source)
            self.accuracies.append(metrics.final_accuracy)
            return model, metrics
        return timed

    @contextmanager
    def installed(self):
        originals = {n: getattr(caco.cli, n) for n in ("train_caco", "train_source_only")}
        try:
            for name, fn in originals.items():
                setattr(caco.cli, name, self._timed(fn))
            yield self
        finally:
            for name, fn in originals.items():
                setattr(caco.cli, name, fn)


def _no_span(name):
    return nullcontext()


def _train_once(workload: Workload, seed: int, out: Path, span) -> tuple[float, int, float]:
    """One training run written out as `caco train` writes it, minus summary.csv."""
    out.mkdir(parents=True, exist_ok=True)
    spec = load_spec(str(SPEC), list(workload.overrides))
    with span("data.build_domain_pair"):
        pair = build_domain_pair(spec.data, seed)
    config = dataclasses.replace(spec.train, seed=seed)
    with open(out / "keys.jsonl", "w") as keys_fp:
        start = time.perf_counter()
        with span("train"):
            if config.variant == "baseline":
                model, metrics = train_source_only(config, pair)
            else:
                model, metrics = train_caco(config, pair, keys_dump_fp=keys_fp)
        train_s = time.perf_counter() - start
    with open(out / "metrics.jsonl", "w") as fh:
        metrics.write_jsonl(fh)
    with span("model.save_checkpoint"):
        save_checkpoint(out / "model.ckpt", model)
    return train_s, len(metrics.records) * len(pair.source), metrics.final_accuracy


def _ablate_once(workload: Workload, seeds: tuple[int, ...], out: Path, span) -> _TrainClock:
    argv = ["ablate", "--spec", str(SPEC), "--out", str(out),
            "--seeds", ",".join(str(s) for s in seeds)]
    for item in workload.overrides:
        argv += ["--set", item]
    clock = _TrainClock()
    with clock.installed(), redirect_stdout(io.StringIO()), span("cli"):
        status = caco.cli.main(argv)
    if status != 0:
        raise RuntimeError(f"caco ablate exited with status {status}")
    return clock


def run_rep(workload: Workload, seeds: tuple[int, ...], out: Path, span=_no_span) -> Rep:
    """Run one input of the workload, writing its outputs into the empty directory ``out``.

    ``span(name)`` is entered around the benchmark's own calls into caco's layers.
    """
    start = time.perf_counter()
    if workload.sweep:
        clock = _ablate_once(workload, seeds, out, span)
        train_s, samples, accuracies = clock.seconds, clock.samples, clock.accuracies
    else:
        (seed,) = seeds
        train_s, samples, accuracy = _train_once(workload, seed, out, span)
        accuracies = [accuracy]
    wall_s = time.perf_counter() - start
    return Rep(wall_s, train_s, samples, accuracies)


def setup_once(workload: Workload, seed: int) -> float:
    """Spec load, build_domain_pair and model init: a zero-epoch training call."""
    start = time.perf_counter()
    spec = load_spec(str(SPEC), list(workload.overrides) + ["train.epochs=0"])
    pair = build_domain_pair(spec.data, seed)
    config = dataclasses.replace(spec.train, seed=seed)
    if config.variant == "baseline":
        train_source_only(config, pair)
    else:
        train_caco(config, pair)
    return time.perf_counter() - start
