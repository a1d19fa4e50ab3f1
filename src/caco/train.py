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
from .data import KEY_VARIANTS, DomainPair, key_batch_rows, sample_key_batch, sample_query_batch
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
    key_batch_size: int = 8  # keys enqueued per step; 0 means batch_size
    warmup_epochs: int = 5  # supervised-only epochs before key enqueueing starts
    hidden: tuple[int, ...] = (64, 64)
    embed_dim: int = 16
    seed: int = 1

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ParameterError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
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
        if self.key_batch_size < 0:
            raise ParameterError("key_batch_size must be non-negative")
        if not self.hidden or min(self.hidden) < 1:
            raise ParameterError(f"hidden must list one or more positive widths, got {self.hidden}")
        if self.embed_dim < 2:
            raise ParameterError(f"embed_dim must be at least 2, got {self.embed_dim}")
        if self.variant in KEY_VARIANTS:
            key_batch_rows(self.key_batch_size or self.batch_size, self.variant)


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
    missing_classes: list[int]
    predicted: np.ndarray  # 1-based argmax category per sample, in sample order

    @property
    def has_missing_classes(self) -> bool:
        return bool(self.missing_classes)


def evaluate(model: CacoModel, x: np.ndarray, y) -> EvalResult:
    """Accuracy and unweighted mean per-class accuracy of (n, D) rows against 1-based labels."""
    truth = np.asarray(y)
    if truth.shape[0] == 0:
        raise ContractError("evaluate needs at least one row")
    if truth.shape != (np.shape(x)[0],):
        raise DimensionError(f"{np.shape(x)[0]} rows for labels of shape {truth.shape}")
    predicted = model.predict_indices(x)
    accuracy = float((predicted == truth).mean())
    per_class: dict[int, float] = {}
    missing: list[int] = []
    for c in range(1, model.num_categories + 1):
        mask = truth == c
        if mask.any():
            per_class[c] = float((predicted[mask] == c).mean())
        else:
            missing.append(c)
    mean_acc = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return EvalResult(accuracy, per_class, mean_acc, missing, predicted)


def pseudo_label_churn(labels_t: Sequence[int], labels_prev: Sequence[int]) -> float:
    """Fraction of rows whose 1-based category index changed between two passes.

    Training records it for the classifier's argmax over the target rows in
    consecutive epochs, not for the epoch labels that training uses.
    """
    if len(labels_t) != len(labels_prev):
        raise ContractError(
            f"label lists differ in length: {len(labels_t)} vs {len(labels_prev)}"
        )
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

    def bind(self) -> None:
        offset = 0
        for p in self.params:
            p.data = self.flat[offset:offset + p.data.size].reshape(p.data.shape)
            offset += p.data.size

    def _lr(self) -> float:
        remaining = 1.0 - self.steps_done / self.total_steps
        return self.base_lr * max(remaining, 1e-3) ** self.decay_power

    def step(self, grads: dict[int, Tensor]) -> None:
        lr = self._lr()
        v = self.velocity
        v *= self.momentum
        if self.params:
            v += np.concatenate([grads[p.id].data.ravel() if p.id in grads
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
        self.pair = pair
        self.batch_size = min(batch_size, pair.target_x.shape[0])
        self.rng = rng
        self.buffer = np.zeros(0, dtype=np.intp)

    def next(self) -> np.ndarray:
        if self.buffer.shape[0] < self.batch_size:
            fresh = sample_query_batch(self.pair, self.pair.target_x.shape[0], self.rng)
            self.buffer = np.concatenate([self.buffer, fresh])
        batch, self.buffer = (
            self.buffer[: self.batch_size],
            self.buffer[self.batch_size:],
        )
        return batch


def _epoch_record(
    model: CacoModel,
    pair: DomainPair,
    epoch: int,
    sup_losses: list[float],
    cat_losses: list[float],
    prev_pseudo: np.ndarray | None,
    warm: bool,
) -> tuple[EpochRecord, np.ndarray]:
    result = evaluate(model, pair.target_x, pair.evaluation_labels())
    churn = None if prev_pseudo is None else pseudo_label_churn(result.predicted, prev_pseudo)
    record = EpochRecord(
        epoch=epoch,
        loss_sup=float(np.mean(sup_losses)) if sup_losses else 0.0,
        loss_catnce=float(np.mean(cat_losses)) if cat_losses else None,
        target_accuracy=result.accuracy,
        target_mean_class_accuracy=result.mean_class_accuracy,
        pseudo_label_churn=churn,
        dictionary_warm=warm,
    )
    return record, result.predicted


@dataclass(frozen=True)
class _SharePoint:
    """A run's state at a step boundary, as train_caco stores and restores it.

    The position is ``step`` steps into ``epoch``. At step 0 the epoch has
    not started, and a restoring run bootstraps, labels and draws batches as
    a fresh run would; past it, it resumes with the epoch's own batches and
    row labels. ``state`` is a private deep copy of what the loop changes, by
    name; each restore copies it again. Neither copy copies the DomainPair.
    """

    epoch: int
    step: int
    state: dict
    elapsed_s: float


# ---------------------------------------------------------------------------
# Training entry points
# ---------------------------------------------------------------------------


def check_key_batch_fits(config: TrainConfig, pair: DomainPair) -> None:
    """ParameterError if a contrastive run's key batch draws more rows than the pair holds."""
    if config.variant == "baseline":
        return
    # cold dictionaries fill from n source rows, then the variant draws its own mix
    n_keys = config.key_batch_size or config.batch_size
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
    storing run's state, and every restore copies it again. A restored run's
    wall_clock_s includes the time the stored run took to reach the point.
    """
    config.validate()
    check_key_batch_fits(config, pair)
    contrastive = config.variant != "baseline"
    n_keys = config.key_batch_size or config.batch_size
    started = time.monotonic()
    model = _init_model(config, pair)
    trainable = model.encoders.query.tensors() + [model.classifier.weight, model.classifier.bias]
    steps_per_epoch = -(-pair.source_x.shape[0] // config.batch_size)
    optimizer = _Sgd(trainable, config, config.epochs * steps_per_epoch)
    rng_source = child_rng(config.seed, "source_batches")
    rng_keys = child_rng(config.seed, "key_batches")

    dictionary = CategoricalDictionary(pair.num_categories, config.queue_size)
    queries = _QueryCycler(pair, config.batch_size, child_rng(config.seed, "query_batches"))
    metrics = RunMetrics(config.variant, config.seed)
    num_cat = pair.num_categories
    # the position: `step` steps into `epoch`, 0 before the epoch starts
    epoch, step, reused_s = 1, 0, 0.0
    batches: list[np.ndarray] = []
    row_labels: np.ndarray | None = None
    sup_losses: list[float] = []
    cat_losses: list[float] = []
    prev_pseudo: np.ndarray | None = None

    def state() -> dict:
        """Every object the loop changes (the cycler holds the query stream), in restore order."""
        return dict(model=model, optimizer=optimizer, dictionary=dictionary, rng_source=rng_source,
                    rng_keys=rng_keys, queries=queries, records=metrics.records,
                    warm_epoch=metrics.warm_epoch, batches=batches, row_labels=row_labels,
                    sup_losses=sup_losses, cat_losses=cat_losses, prev_pseudo=prev_pseudo)

    share_key = stored = None
    if warmups is not None:
        share_key = pair, astuple(replace(config, variant=""))
        # the latest share point open to the run; only S, T and full fill a dictionary
        for point in ("cold_fill", "warmup") if contrastive else ("warmup",):
            stored = warmups.get((*share_key, point))
            if stored is not None:
                break

    def share(point: str, at_epoch: int) -> None:
        """Store the run's state as share point `point` of its key, unless one is stored."""
        if share_key is None or (*share_key, point) in warmups:
            return
        warmups[(*share_key, point)] = _SharePoint(
            at_epoch, step, copy.deepcopy(state(), {id(pair): pair}),
            time.monotonic() - started + reused_s,  # the time of the steps this run restored, too
        )

    if stored is not None:
        epoch, step, reused_s = stored.epoch, stored.step, stored.elapsed_s
        (model, optimizer, dictionary, rng_source, rng_keys, queries, metrics.records,
         metrics.warm_epoch, batches, row_labels, sup_losses, cat_losses,
         prev_pseudo) = copy.deepcopy(stored.state, {id(pair): pair}).values()
        optimizer.bind()  # the copied parameters view the copied buffer again

    try:
        for epoch in range(epoch, config.epochs + 1):
            enqueueing = contrastive and epoch > config.warmup_epochs
            if step == 0 and enqueueing:
                if epoch == config.warmup_epochs + 1:
                    # contrastive phase begins: bootstrap the key encoder from the
                    # trained query encoder, exactly as at initialization
                    for tq, tk in zip(model.encoders.query.tensors(), model.encoders.key.tensors()):
                        tk.data = tq.data.copy()
                key_enc = model.encoders.key
                row_labels = assign_pseudo_label(prototype_memberships(
                    embed(key_enc, pair.source_x), pair.source_y,
                    embed(key_enc, pair.target_x), num_cat,
                ))
            if step == 0:
                batches = _source_epoch_batches(pair, config.batch_size, rng_source)
            for step, idx in enumerate(batches[step:], step + 1):
                warms = False
                if enqueueing:
                    # keys first: cold dictionaries fill from ground-truth source samples
                    filling = not dictionary.is_warm()
                    src, tgt = sample_key_batch(
                        pair, n_keys, "S" if filling else config.variant, rng_keys
                    )
                    key_emb = embed(
                        model.encoders.key, np.concatenate([pair.source_x[src], pair.target_x[tgt]])
                    )
                    labels = key_label(pair.source_y[src], row_labels[tgt], num_cat)
                    entropies = prediction_entropy(classify(model.classifier, key_emb))
                    taus = key_temperature(config.tau_base, entropies, num_cat)
                    domains = [SOURCE] * len(src) + [TARGET] * len(tgt)
                    for vec, label, tau, domain in zip(key_emb, labels, taus, domains):
                        dictionary.enqueue(vec, label, tau, domain)
                    warms = filling and dictionary.is_warm()
                    if warms:
                        metrics.warm_epoch = epoch

                with Tape() as tape:
                    emb = encode(model.encoders.query, Tensor(pair.source_x[idx]))
                    sup = supervised_loss(
                        classifier_logits(model.classifier, emb), pair.source_y[idx]
                    )
                    total = sup
                    if dictionary.is_warm() and config.catnce_weight != 0.0:
                        q_idx = queries.next()
                        q_emb = encode(model.encoders.query, Tensor(pair.target_x[q_idx]))
                        cat = cat_nce(q_emb, row_labels[q_idx], dictionary.snapshot())
                        total = ad.add(total, ad.scale(cat, config.catnce_weight))
                        cat_losses.append(cat.item())
                if not np.isfinite(total.data):
                    raise DivergenceError(epoch, step, f"loss {total.item()}")
                optimizer.step(backward(total, tape))
                if enqueueing:
                    momentum_update(model.encoders)
                sup_losses.append(sup.item())
                if warms:
                    share("cold_fill", epoch)

            record, prev_pseudo = _epoch_record(
                model, pair, epoch, sup_losses, cat_losses, prev_pseudo, dictionary.is_warm()
            )
            metrics.records.append(record)
            step, batches, sup_losses, cat_losses = 0, [], [], []
            if epoch == config.warmup_epochs:
                share("warmup", epoch + 1)
    except NonFiniteError as exc:
        # an encoder whose outputs overflowed: the run diverged, wherever it
        # showed first; at step 0, in the epoch labelling that readies step 1
        raise DivergenceError(epoch, step or 1, str(exc)) from exc

    metrics.wall_clock_s = time.monotonic() - started + reused_s
    if keys_dump_fp is not None:
        dictionary.dump_jsonl(keys_dump_fp)
    return model, metrics
