"""One training loop for the source-only baseline and the category-contrast variants.

The baseline is the zero-contrast case: it trains the query encoder and the
classifier on the supervised loss alone, and never touches the key encoder
or the dictionary. Each contrastive epoch starts by labelling every target
row once: spherical k-means over key-encoder embeddings, seeded at the
source class means, read back as one 1-based label array over the target
rows. Each contrastive step: compute the supervised loss on a source batch,
refresh the dictionary with momentum-encoded keys (ground-truth labels for
source keys, their rows' epoch labels for target keys, entropy-scaled
temperatures), and, once every queue is full, add the category contrastive
loss on a target query batch under the same row labels.
Only the query encoder and the classifier receive gradients; the key
encoder is bootstrapped from the query encoder when warm-up ends and
moves by EMA after every contrastive step, never during warm-up.

Runs are bit-reproducible: all randomness flows from named child streams
of the config seed, and gradient accumulation order is fixed by the tape.
"""

from __future__ import annotations

import copy
import json
import math
import time
from dataclasses import asdict, astuple, dataclass, field, replace
from typing import IO, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .data import (
    KEY_VARIANTS,
    DomainPair,
    check_integers,
    key_batch_rows,
    sample_key_batch,
    sample_query_batch,
)
from .dictionary import CategoricalDictionary
from .errors import ContractError, DimensionError, DivergenceError, NonFiniteError, ParameterError
from .labels import SOURCE, TARGET, assign_pseudo_label, key_label, prototype_memberships
from .losses import cat_nce, key_temperature, prediction_entropy, supervised_loss
from .model import (
    CacoModel,
    MlpSpec,
    classifier_logits,
    classify,
    embed,
    encode,
    init_classifier,
    momentum_update,
    new_encoder_pair,
)
from .seeding import child_rng, child_seed

VARIANTS = ("baseline", *KEY_VARIANTS)


@dataclass
class TrainConfig:
    variant: str = "full"
    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 0.003
    momentum: float = 0.0  # SGD; nonzero values amplify contrastive oscillation here
    weight_decay: float = 0.01
    lr_decay_power: float = 0.9  # polynomial annealing; 0 keeps the rate constant
    # EMA coefficient of the key encoder. Its horizon 1/(1-m) = 200 steps spans
    # about four turnovers of the default queue (100 keys per category, 2 per
    # step), the ratio MoCo's 0.999 gives its 65536-key queue at batch 256.
    encoder_momentum: float = 0.995
    tau_base: float = 0.07
    queue_size: int = 100
    catnce_weight: float = 1.0
    key_batch_size: int = 8  # keys enqueued per step
    warmup_epochs: int = 5  # supervised-only epochs before key enqueueing starts
    hidden: tuple[int, ...] = (64, 64)
    embed_dim: int = 16
    seed: int = 1

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ParameterError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not isinstance(self.hidden, tuple):
            raise ParameterError(f"hidden must be a tuple of widths, got {self.hidden!r}")
        names = ("epochs", "batch_size", "queue_size", "key_batch_size", "warmup_epochs",
                 "embed_dim", "seed")
        check_integers({name: getattr(self, name) for name in names}
                       | {f"hidden[{i}]": width for i, width in enumerate(self.hidden)})
        if self.epochs < 0:
            raise ParameterError("epochs must be non-negative")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be positive")
        for name in ("learning_rate", "momentum", "weight_decay", "lr_decay_power",
                     "tau_base", "catnce_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0 or self.tau_base <= 0:
            raise ParameterError("rates and temperatures must be positive")
        for name in ("weight_decay", "lr_decay_power", "catnce_weight"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative")
        if not 0.0 <= self.encoder_momentum <= 1.0:
            raise ParameterError("encoder_momentum must lie in [0, 1]")
        if self.queue_size < 1:
            raise ParameterError("queue_size must be positive")
        if self.warmup_epochs < 0:
            raise ParameterError("warmup_epochs must be non-negative")
        if self.key_batch_size < 1:
            raise ParameterError("key_batch_size must be positive")
        if not self.hidden or min(self.hidden) < 1:
            raise ParameterError(f"hidden must list one or more positive widths, got {self.hidden}")
        if self.embed_dim < 2:
            raise ParameterError(f"embed_dim must be at least 2, got {self.embed_dim}")
        if self.variant in KEY_VARIANTS:
            key_batch_rows(self.key_batch_size, self.variant)


@dataclass(frozen=True)
class EpochRecord:
    """One line of metrics.jsonl.

    ``pseudo_label_churn`` is the fraction of target rows whose classifier
    argmax changed since the previous epoch (None in the first epoch). It is
    not the churn of the epoch labels that contrastive training uses.
    """

    epoch: int
    loss_sup: float
    loss_catnce: float | None
    target_accuracy: float
    target_mean_class_accuracy: float
    pseudo_label_churn: float | None
    dictionary_warm: bool


@dataclass
class RunMetrics:
    variant: str
    seed: int
    records: list[EpochRecord] = field(default_factory=list)
    warm_epoch: int | None = None
    wall_clock_s: float = 0.0

    @property
    def final_accuracy(self) -> float | None:
        return self.records[-1].target_accuracy if self.records else None

    def jsonl_lines(self) -> list[str]:
        """Per-epoch records; deliberately timestamp-free so runs diff cleanly."""
        return [json.dumps(asdict(r), sort_keys=True) for r in self.records]

    def write_jsonl(self, fp: IO[str]) -> None:
        for line in self.jsonl_lines():
            fp.write(line)
            fp.write("\n")


@dataclass
class EvalResult:
    accuracy: float
    per_class: dict[int, float]
    mean_class_accuracy: float
    predicted: np.ndarray  # 1-based argmax category per sample, in sample order


def evaluate(model: CacoModel, x: np.ndarray, y) -> EvalResult:
    """Accuracy and unweighted mean per-class accuracy of (n, D) rows against 1-based labels."""
    truth = np.asarray(y)
    if truth.shape != (np.shape(x)[0],):
        raise DimensionError(f"{np.shape(x)[0]} rows for labels of shape {truth.shape}")
    if truth.shape[0] == 0:
        raise ContractError("evaluate needs at least one row")
    predicted = model.predict_indices(x)
    accuracy = float((predicted == truth).mean())
    per_class: dict[int, float] = {}
    for c in range(1, model.num_categories + 1):
        mask = truth == c
        if mask.any():
            per_class[c] = float((predicted[mask] == c).mean())
    mean_acc = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return EvalResult(accuracy, per_class, mean_acc, predicted)


def pseudo_label_churn(labels_t: Sequence[int], labels_prev: Sequence[int]) -> float:
    """Fraction of rows whose 1-based category index changed between two passes.

    Training records it for the classifier's argmax over the target rows in
    consecutive epochs, not for the epoch labels that training uses.
    """
    if len(labels_t) != len(labels_prev):
        raise ContractError(
            f"label lists differ in length: {len(labels_t)} vs {len(labels_prev)}"
        )
    if not len(labels_t):
        raise ContractError("pseudo_label_churn needs at least one row")
    return float(np.mean(np.asarray(labels_t) != np.asarray(labels_prev)))


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------


class _Sgd:
    """SGD with momentum, L2 weight decay and optional polynomial lr annealing.

    The parameters live in one flat buffer: each p.data is rebound to a
    view of it, so a step is four whole-buffer expressions, the same
    element-wise ones a per-parameter loop would run. A parameter
    without a gradient counts as one of zeros.
    """

    def __init__(self, params: list[Tensor], config: "TrainConfig", total_steps: int):
        self.params = params
        self.base_lr = config.learning_rate
        self.momentum = config.momentum
        self.weight_decay = config.weight_decay
        self.decay_power = config.lr_decay_power
        self.total_steps = max(1, total_steps)
        self.steps_done = 0
        self.flat = np.concatenate([p.data.ravel() for p in params] or [np.zeros(0)])
        self.bind()
        self.velocity = np.zeros_like(self.flat)

    def __setstate__(self, state: dict) -> None:
        # a copy's parameters view the copy's buffer, not copies of the original's views
        self.__dict__.update(state)
        self.bind()

    def bind(self) -> None:
        offset = 0
        for p in self.params:
            p.data = self.flat[offset:offset + p.data.size].reshape(p.data.shape)
            offset += p.data.size

    def _lr(self) -> float:
        remaining = 1.0 - self.steps_done / self.total_steps
        return self.base_lr * max(remaining, 1e-3) ** self.decay_power

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        lr = self._lr()
        v = self.velocity
        v *= self.momentum
        if self.params:
            v += np.concatenate([grads[p].ravel() if p in grads
                                 else np.zeros(p.data.size) for p in self.params])
        if self.weight_decay:
            v += self.weight_decay * self.flat
        self.flat -= lr * v
        self.steps_done += 1


def _init_model(config: TrainConfig, pair: DomainPair) -> CacoModel:
    dim = pair.source_x.shape[1]
    spec = MlpSpec((dim, *config.hidden, config.embed_dim))
    encoders = new_encoder_pair(
        spec, child_seed(config.seed, "encoder_init"), config.encoder_momentum
    )
    classifier = init_classifier(
        config.embed_dim, pair.num_categories, child_seed(config.seed, "classifier_init")
    )
    return CacoModel(spec, pair.num_categories, config.seed, encoders, classifier)


def _source_epoch_batches(pair: DomainPair, batch_size: int, rng) -> list[np.ndarray]:
    perm = rng.permutation(pair.source_x.shape[0])
    return [perm[i:i + batch_size] for i in range(0, len(perm), batch_size)]


class _QueryCycler:
    """Without-replacement batches of target row indices, re-permuting whenever exhausted."""

    def __init__(self, pair: DomainPair, batch_size: int, rng):
        self.batch_size = min(batch_size, pair.target_x.shape[0])
        self.rng = rng
        self.buffer = np.zeros(0, dtype=np.intp)

    def next(self, pair: DomainPair) -> np.ndarray:
        if self.buffer.shape[0] < self.batch_size:
            fresh = sample_query_batch(pair, pair.target_x.shape[0], self.rng)
            self.buffer = np.concatenate([self.buffer, fresh])
        batch, self.buffer = (
            self.buffer[: self.batch_size],
            self.buffer[self.batch_size:],
        )
        return batch


@dataclass
class _Run:
    """Everything train_caco's loop changes. A share point is a deep copy of a run.

    The position is ``step`` steps into ``epoch``. At step 0 the epoch has
    not started, and the loop bootstraps, labels and draws batches for it;
    past it, a restored run resumes with the epoch's own batches and row
    labels. ``elapsed_s`` is the time the run took to reach a point it is
    stored at, including the time of any point it restored.
    """

    model: CacoModel
    optimizer: _Sgd
    dictionary: CategoricalDictionary
    rng_source: np.random.Generator
    rng_keys: np.random.Generator
    queries: _QueryCycler  # it holds the query stream
    records: list[EpochRecord] = field(default_factory=list)
    warm_epoch: int | None = None
    epoch: int = 1
    step: int = 0
    batches: list[np.ndarray] = field(default_factory=list)
    row_labels: np.ndarray | None = None
    sup_losses: list[float] = field(default_factory=list)
    cat_losses: list[float] = field(default_factory=list)
    prev_pseudo: np.ndarray | None = None
    elapsed_s: float = 0.0


def _new_run(config: TrainConfig, pair: DomainPair) -> _Run:
    model = _init_model(config, pair)
    trainable = model.encoders.query.tensors() + [model.classifier.weight, model.classifier.bias]
    steps_per_epoch = -(-pair.source_x.shape[0] // config.batch_size)
    return _Run(
        model, _Sgd(trainable, config, config.epochs * steps_per_epoch),
        CategoricalDictionary(pair.num_categories, config.queue_size),
        child_rng(config.seed, "source_batches"), child_rng(config.seed, "key_batches"),
        _QueryCycler(pair, config.batch_size, child_rng(config.seed, "query_batches")),
    )


def _end_epoch(run: _Run, pair: DomainPair) -> None:
    """Record the epoch's metrics line and move the run to the start of the next epoch."""
    result = evaluate(run.model, pair.target_x, pair.evaluation_labels())
    run.records.append(EpochRecord(
        epoch=run.epoch,
        loss_sup=float(np.mean(run.sup_losses)) if run.sup_losses else 0.0,
        loss_catnce=float(np.mean(run.cat_losses)) if run.cat_losses else None,
        target_accuracy=result.accuracy,
        target_mean_class_accuracy=result.mean_class_accuracy,
        pseudo_label_churn=None if run.prev_pseudo is None
        else pseudo_label_churn(result.predicted, run.prev_pseudo),
        dictionary_warm=run.dictionary.is_warm(),
    ))
    run.prev_pseudo = result.predicted
    run.epoch, run.step, run.batches, run.sup_losses, run.cat_losses = run.epoch + 1, 0, [], [], []


# ---------------------------------------------------------------------------
# Training entry points
# ---------------------------------------------------------------------------


def check_key_batch_fits(config: TrainConfig, pair: DomainPair) -> None:
    """ParameterError if a contrastive run's key batch draws more rows than the pair holds."""
    if config.variant == "baseline":
        return
    # cold dictionaries fill from n source rows, then the variant draws its own mix
    n_keys = config.key_batch_size
    if (n_keys > pair.source_x.shape[0] or
            key_batch_rows(n_keys, config.variant)[1] > pair.target_x.shape[0]):
        raise ParameterError(
            f"a key batch of {n_keys} draws more rows than the pair holds "
            f"({pair.source_x.shape[0]} source, {pair.target_x.shape[0]} target)"
        )


def train_source_only(
    config: TrainConfig, pair: DomainPair, *, warmups: dict | None = None
) -> tuple[CacoModel, RunMetrics]:
    """Supervised training on source data only: train_caco's zero-contrast case."""
    if config.variant != "baseline":
        raise ContractError(f"source-only training expects variant 'baseline', got {config.variant!r}")
    return train_caco(config, pair, warmups=warmups)


def train_caco(
    config: TrainConfig,
    pair: DomainPair,
    *,
    keys_dump_fp: IO[str] | None = None,
    warmups: dict | None = None,
) -> tuple[CacoModel, RunMetrics]:
    """Training for every variant; S / T / full add a key dictionary and its contrast.

    Per step: supervised loss on a source batch, then an SGD step on the
    query encoder and classifier. That is all the baseline does. The other
    variants add, per contrastive epoch: label every target row once from
    the key encoder (assign_pseudo_label over prototype_memberships, one
    1-based array); a target row keeps that label as a query and as a key
    until the next epoch. And per step, before the
    supervised loss: encode a key batch with the key encoder and enqueue it
    (keys drawn from source with true labels until the dictionary warms,
    then per variant); once warm, add the weighted category contrastive
    loss on a target query batch; after the SGD step, an EMA step on the
    key encoder. Warm-up leaves the key encoder at its init. A step whose loss is not finite raises
    DivergenceError before its backward pass; so does an encoder output
    whose norm is not finite (NonFiniteError), with the step in which it
    showed: step 1 for the epoch labelling, the last step for the epoch's
    evaluation. A key batch larger than a pool it draws from raises
    ParameterError before epoch 1.

    ``warmups`` is a dict the caller owns, shared by the runs it passes to.
    Runs on the same pair whose configs differ in nothing but the variant
    train the same steps up to two share points, where the first run to
    pass one stores its complete state and the others restore the latest
    point open to them and go on from there, with the same output bytes as
    a fresh run. The end of warm-up is open to every variant. The end of
    the step on which the dictionary warms is open to S, T and full: until
    then all three draw source keys, and the next step's key draw is the
    first that reads the variant. A point is a private deep copy of the
    storing run's _Run, and every restore copies it again. A restored run's
    wall_clock_s includes the time the stored run took to reach the point.
    """
    config.validate()
    check_key_batch_fits(config, pair)
    contrastive = config.variant != "baseline"
    num_cat = pair.num_categories
    started = time.monotonic()

    share_key = stored = None
    if warmups is not None:
        share_key = pair, astuple(replace(config, variant=""))
        # the latest share point open to the run; only S, T and full fill a dictionary
        for point in ("cold_fill", "warmup") if contrastive else ("warmup",):
            stored = warmups.get((*share_key, point))
            if stored is not None:
                break
    if stored is None:
        run = _new_run(config, pair)
    else:
        run = copy.deepcopy(stored)
        started -= run.elapsed_s  # the time of the steps this run restored, too

    def share(point: str) -> None:
        """Store a copy of the run as share point `point` of its key, unless one is stored."""
        if share_key is None or (*share_key, point) in warmups:
            return
        run.elapsed_s = time.monotonic() - started
        warmups[(*share_key, point)] = copy.deepcopy(run)

    try:
        while run.epoch <= config.epochs:
            enqueueing = contrastive and run.epoch > config.warmup_epochs
            if run.step == 0:
                if enqueueing:
                    if run.epoch == config.warmup_epochs + 1:
                        # contrastive phase begins: bootstrap the key encoder from the
                        # trained query encoder, exactly as at initialization
                        run.model.encoders.key = run.model.encoders.query.copy(requires_grad=False)
                    key_enc = run.model.encoders.key
                    run.row_labels = assign_pseudo_label(prototype_memberships(
                        embed(key_enc, pair.source_x), pair.source_y,
                        embed(key_enc, pair.target_x), num_cat,
                    ))
                run.batches = _source_epoch_batches(pair, config.batch_size, run.rng_source)
            for idx in run.batches[run.step:]:
                run.step += 1
                warms = False
                if enqueueing:
                    # keys first: cold dictionaries fill from ground-truth source samples
                    filling = not run.dictionary.is_warm()
                    src, tgt = sample_key_batch(
                        pair, config.key_batch_size, "S" if filling else config.variant,
                        run.rng_keys,
                    )
                    key_emb = embed(run.model.encoders.key,
                                    np.concatenate([pair.source_x[src], pair.target_x[tgt]]))
                    labels = key_label(pair.source_y[src], run.row_labels[tgt], num_cat)
                    entropies = prediction_entropy(classify(run.model.classifier, key_emb))
                    taus = key_temperature(config.tau_base, entropies, num_cat)
                    domains = [SOURCE] * len(src) + [TARGET] * len(tgt)
                    for vec, label, tau, domain in zip(key_emb, labels, taus, domains):
                        run.dictionary.enqueue(vec, label, tau, domain)
                    warms = filling and run.dictionary.is_warm()
                    if warms:
                        run.warm_epoch = run.epoch

                with Tape() as tape:
                    emb = encode(run.model.encoders.query, pair.source_x[idx])
                    sup = supervised_loss(
                        classifier_logits(run.model.classifier, emb), pair.source_y[idx]
                    )
                    total = sup
                    if run.dictionary.is_warm() and config.catnce_weight != 0.0:
                        q_idx = run.queries.next(pair)
                        q_emb = encode(run.model.encoders.query, pair.target_x[q_idx])
                        cat = cat_nce(q_emb, run.row_labels[q_idx], run.dictionary.snapshot())
                        total = ad.add(total, ad.scale(cat, config.catnce_weight))
                        run.cat_losses.append(cat.item())
                if not np.isfinite(total.data):
                    raise DivergenceError(run.epoch, run.step, f"loss {total.item()}")
                run.optimizer.step(backward(total, tape))
                if enqueueing:
                    momentum_update(run.model.encoders)
                run.sup_losses.append(sup.item())
                if warms:
                    share("cold_fill")

            _end_epoch(run, pair)
            if run.epoch == config.warmup_epochs + 1:
                share("warmup")
    except NonFiniteError as exc:
        # an encoder whose outputs overflowed: the run diverged, wherever it
        # showed first; at step 0, in the epoch labelling that readies step 1
        raise DivergenceError(run.epoch, run.step or 1, str(exc)) from exc

    metrics = RunMetrics(config.variant, config.seed, run.records, run.warm_epoch,
                         time.monotonic() - started)
    if keys_dump_fp is not None:
        run.dictionary.dump_jsonl(keys_dump_fp)
    return run.model, metrics
