"""Per-layer self time and counts, measured from outside caco.

The tracer replaces caco's public functions with timing wrappers in the
namespace that makes the call: ``caco.train.encode``, not
``caco.model.encode``, because train.py imports names directly; methods are
wrapped on their class. The benchmark adds spans around its own calls into
caco. Spans nest on a stack; a span's self time is its duration minus
that of the spans it encloses, so the self times of one repetition sum to
its wall time. Totals are kept per span name, never as a list of spans,
because a repetition makes tens of thousands of calls.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class WrapError(Exception):
    """A name the tracer wraps no longer resolves in caco."""


def _predict_rows(tracer, args, result):
    tracer.counts["model.predict_rows"] += args[1].shape[0]


def _keys_written(tracer, args, result):
    domain = args[4]
    tracer.counts["dictionary.keys_written"] += 1
    tracer.counts[f"dictionary.keys_written_{domain}"] += 1


def _keys_copied(tracer, args, result):
    tracer.counts["dictionary.keys_copied"] += len(result)


def _keys_read(tracer, args, result):
    tracer.counts["dictionary.keys_read"] += len(args[2])


def _cli_run(tracer, args, result):
    tracer.counts["cli.runs"] += 1


# (module, attribute or Class.method, span name, hook run after each call)
WRAPS = (
    ("caco.train", "backward", "autodiff.backward", None),
    ("caco.train", "encode", "model.encode_query", None),
    ("caco.train", "embed", "model.encode_key", None),
    ("caco.train", "classify", "model.classify", None),
    ("caco.train", "classifier_logits", "model.classify", None),
    ("caco.train", "momentum_update", "model.momentum_update", None),
    ("caco.model", "CacoModel.predict_indices", "model.predict", _predict_rows),
    ("caco.cli", "save_checkpoint", "model.save_checkpoint", None),
    ("caco.dictionary", "CategoricalDictionary.enqueue", "dictionary.enqueue", _keys_written),
    ("caco.dictionary", "CategoricalDictionary.snapshot", "dictionary.snapshot", _keys_copied),
    ("caco.dictionary", "CategoricalDictionary.dump_jsonl", "dictionary.dump_jsonl", None),
    ("caco.train", "assign_pseudo_label", "labels.assign_pseudo_label", None),
    ("caco.labels", "assign_pseudo_label", "labels.assign_pseudo_label", None),
    ("caco.train", "key_label", "labels.key_label", None),
    ("caco.train", "cat_nce", "losses.cat_nce", _keys_read),
    ("caco.train", "supervised_loss", "losses.supervised_loss", None),
    ("caco.train", "prediction_entropy", "losses.prediction_entropy", None),
    ("caco.train", "key_temperature", "losses.key_temperature", None),
    ("caco.cli", "build_domain_pair", "data.build_domain_pair", None),
    ("caco.train", "sample_key_batch", "data.sample_key_batch", None),
    ("caco.train", "sample_query_batch", "data.sample_query_batch", None),
    ("caco.train", "_Sgd.step", "train.sgd_step", None),
    ("caco.train", "evaluate", "train.evaluate", None),
    ("caco.cli", "train_caco", "train", _cli_run),
    ("caco.cli", "train_source_only", "train", _cli_run),
)

# A training step runs from the first of these calls after an SGD step to
# the next one, or to the epoch's evaluation; the evaluation and the epoch
# bookkeeping around it are not part of any step.
STEP_STARTS = ("data.sample_key_batch", "model.encode_query")

# Spans that stand for a whole run rather than one layer's call; their
# self time is what the run does between the layer calls it encloses.
RUN_SPANS = ("train", "cli", "workload")

LAYER_SPANS = tuple(dict.fromkeys(name for *_, name, _ in WRAPS if name not in RUN_SPANS))

COUNTS = (
    "autodiff.backward_calls", "model.predict_rows", "dictionary.keys_written",
    "dictionary.keys_written_source", "dictionary.keys_written_target",
    "dictionary.keys_copied", "dictionary.keys_read", "labels.assign_pseudo_label_calls",
    "losses.cat_nce_calls", "train.steps", "cli.runs",
)

# every per-layer metric a traced repetition yields, with its unit
METRICS = (
    {f"{name}_s": "s" for name in LAYER_SPANS}
    | {f"{name}.self_s": "s" for name in RUN_SPANS}
    | {name: "count" for name in COUNTS}
    | {"dictionary.keys_copied_per_read": "ratio", "train.step_ms.p50": "ms",
       "train.step_ms.p99": "ms"}
)


def _resolve(module_name: str, path: str):
    """The object holding the attribute, the attribute name and its raw value."""
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        return owner, attr, vars(owner)[attr]
    except (ImportError, AttributeError, KeyError) as exc:
        raise WrapError(f"{module_name}.{path} no longer resolves: {exc!r}") from exc


def check_wraps() -> None:
    """Raise WrapError unless every wrapped name still resolves to a callable."""
    for module_name, path, _, _ in WRAPS:
        _, _, value = _resolve(module_name, path)
        if not callable(value):
            raise WrapError(f"{module_name}.{path} is not callable")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Tracer:
    """Self time, call counts and step durations of one traced repetition."""

    def __init__(self):
        self._stack: list[list[float]] = [[0.0]]  # bottom frame: time of root spans
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.step_ms: list[float] = []
        self._step_start: float | None = None
        self._after_sgd = True

    def _enter(self, name: str) -> float:
        self._stack.append([0.0])
        start = time.perf_counter()
        if name in STEP_STARTS and self._after_sgd:
            self._close_step(start)
            self._step_start, self._after_sgd = start, False
        elif name == "train.evaluate":
            self._close_step(start)
        elif name == "train":
            self._step_start, self._after_sgd = None, True
        return start

    def _close_step(self, now: float) -> None:
        if self._step_start is not None:
            self.step_ms.append((now - self._step_start) * 1e3)
            self._step_start = None

    def _exit(self, name: str, start: float) -> None:
        end = time.perf_counter()
        children = self._stack.pop()[0]
        elapsed = end - start
        self.self_s[name] += elapsed - children
        self._stack[-1][0] += elapsed
        self.calls[name] += 1
        if name == "train.sgd_step":
            self._after_sgd = True

    @contextmanager
    def span(self, name: str):
        start = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, start)

    def _wrap(self, fn, name: str, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, start)
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPS for the duration of the block."""
        originals = [_resolve(module_name, path) for module_name, path, _, _ in WRAPS]
        try:
            for (owner, attr, fn), (_, _, name, hook) in zip(originals, WRAPS):
                setattr(owner, attr, self._wrap(fn, name, hook))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    @property
    def traced_s(self) -> float:
        """Total duration of the root spans."""
        return self._stack[0][0]

    def metrics(self) -> dict[str, float]:
        out = {f"{name}_s": self.self_s[name] for name in LAYER_SPANS}
        out |= {f"{name}.self_s": self.self_s[name] for name in RUN_SPANS}
        counts = self.counts | Counter({
            "autodiff.backward_calls": self.calls["autodiff.backward"],
            "labels.assign_pseudo_label_calls": self.calls["labels.assign_pseudo_label"],
            "losses.cat_nce_calls": self.calls["losses.cat_nce"],
            "train.steps": self.calls["train.sgd_step"],
        })
        out |= {name: counts[name] for name in COUNTS}
        read = counts["dictionary.keys_read"]
        out["dictionary.keys_copied_per_read"] = counts["dictionary.keys_copied"] / read if read else 0.0
        steps = self.step_ms or [0.0]
        out["train.step_ms.p50"] = percentile(steps, 50)
        out["train.step_ms.p99"] = percentile(steps, 99)
        return out
