"""Training-loop contracts: determinism, gradient isolation, gating, evaluation."""

import dataclasses
import io
import itertools
import pickle
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caco.data import DataConfig, DomainPair, build_domain_pair, shift_domain
from caco.dictionary import CategoricalDictionary
from caco.errors import (
    ContractError, DegenerateEmbeddingError, DimensionError, DivergenceError, NonFiniteError,
    ParameterError,
)
from caco.labels import SOURCE, TARGET
from caco.model import (
    CacoModel, Classifier, MlpSpec, EncoderPair, MlpParams, load_checkpoint, save_checkpoint,
)
from caco.autodiff import ROW_BLOCK, Tensor
from caco.train import (
    VARIANTS,
    EpochRecord,
    EvalResult,
    RunMetrics,
    TrainConfig,
    evaluate,
    train_caco,
    train_source_only,
)

from conftest import tape_length

TINY_DATA = DataConfig(num_categories=3, dim=4, separation=3.0, n_per_class=40, angle=0.3)


def tiny_config(**kw) -> TrainConfig:
    base = dict(
        variant="full",
        epochs=3,
        batch_size=16,
        learning_rate=0.01,
        queue_size=5,
        warmup_epochs=0,
        hidden=(16,),
        embed_dim=4,
        seed=3,
    )
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def tiny_pair():
    return build_domain_pair(TINY_DATA, 3)


def params_bytes(model: CacoModel) -> bytes:
    chunks = [t.data.tobytes() for t in model.encoders.query.tensors()]
    chunks += [model.classifier.weight.data.tobytes(), model.classifier.bias.data.tobytes()]
    return b"".join(chunks)


def test_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(variant="bogus").validate()
    with pytest.raises(ParameterError):
        TrainConfig(epochs=-1).validate()
    with pytest.raises(ParameterError):
        TrainConfig(encoder_momentum=1.5).validate()
    with pytest.raises(ParameterError):
        TrainConfig(learning_rate=0.0).validate()
    with pytest.raises(ParameterError, match="seed"):
        TrainConfig(seed=-1).validate()
    # the full variant splits its key batch evenly, so an odd one must fail
    # here, not after warm-up; a key batch takes at least one key
    with pytest.raises(ParameterError):
        TrainConfig(variant="full", key_batch_size=7).validate()
    with pytest.raises(ParameterError, match="key_batch_size"):
        TrainConfig(variant="T", key_batch_size=0).validate()
    TrainConfig(variant="T", key_batch_size=7).validate()
    TrainConfig(variant="full", key_batch_size=8, batch_size=33).validate()
    TrainConfig(variant="T", batch_size=1, queue_size=1, key_batch_size=1).validate()
    # a non-finite rate, temperature or weight fails here, not mid-run as a divergence;
    # a bool or a string is no real either, and would train as 1.0 or fail mid-run
    for name in ("learning_rate", "weight_decay", "lr_decay_power", "tau_base", "catnce_weight",
                 "encoder_momentum"):
        for value in (float("nan"), float("inf"), float("-inf"), True, "0.1"):
            with pytest.raises(ParameterError, match=name):
                TrainConfig(**{name: value}).validate()
    with pytest.raises(ParameterError, match="catnce_weight"):
        TrainConfig(catnce_weight=-0.5).validate()
    TrainConfig(catnce_weight=0.0).validate()
    # encoder shapes fail here, not when train_caco builds the encoders
    for hidden in ((), (0,), (16, -1)):
        with pytest.raises(ParameterError, match="hidden"):
            TrainConfig(hidden=hidden).validate()
    with pytest.raises(ParameterError, match="embed_dim"):
        TrainConfig(embed_dim=1).validate()
    TrainConfig(hidden=(1,), embed_dim=2).validate()


def test_training_entry_points_validate_their_config_before_any_step(tiny_pair, monkeypatch):
    # a caller other than the cli gets the config's own error, before the first
    # update: unchecked, a baseline run trains on, and a full run fails only at
    # its first key write, after warm-up
    import caco.train as train_mod

    steps = []
    monkeypatch.setattr(train_mod._Sgd, "step", lambda self, grads: steps.append(grads))
    for train, variant in ((train_caco, "baseline"), (train_source_only, "baseline"),
                           (train_caco, "full")):
        config = tiny_config(variant=variant, tau_base=float("nan"), epochs=2, warmup_epochs=1)
        with pytest.raises(ParameterError, match="^tau_base must be finite and real, got nan$"):
            train(config, tiny_pair)
        assert not steps


def test_tau_base_whose_key_temperatures_overflow_is_rejected():
    # key temperatures reach twice tau_base: 9e307 would fail at the first key write
    for value in (9e307, 1e308, float(np.finfo(float).max), 10**308):
        with pytest.raises(ParameterError, match="tau_base"):
            TrainConfig(tau_base=value).validate()
    for value in (4e307, float(np.finfo(float).max) / 2):
        TrainConfig(tau_base=value).validate()


@pytest.mark.parametrize("field, value", [
    ("epochs", 2.5),
    ("batch_size", 8.5),
    ("key_batch_size", 3.0),
    ("queue_size", 4.5),
    ("warmup_epochs", 1.5),
    ("embed_dim", 4.0),
    ("seed", True),
    ("hidden", (16.7, 8)),
    ("hidden", (16, False)),
    ("hidden", 16),
])
def test_config_rejects_a_non_integer_in_an_integer_field(field, value):
    # each once trained (queue_size 4.5 as 4 slots) or failed with a TypeError
    config = tiny_config(variant="T", **{field: value})
    with pytest.raises(ParameterError, match=field):
        config.validate()


def test_config_takes_numpy_integers():
    tiny_config(epochs=np.int64(2), queue_size=np.int32(5), hidden=(np.int64(16), 8)).validate()


@pytest.mark.parametrize("momentum, seed", [(0.995, 3), (1, 3), (np.float32(0.9), np.int64(4))])
def test_a_validated_config_saves_a_checkpoint_that_loads(tiny_pair, tmp_path, momentum, seed):
    # encoder_momentum=True once passed validate and wrote a header that load_checkpoint
    # rejected; a numpy float momentum or numpy integer seed failed in json.dumps
    config = tiny_config(epochs=1, encoder_momentum=momentum, seed=seed)
    config.validate()
    model, _ = train_caco(config, tiny_pair)
    save_checkpoint(tmp_path / "model.ckpt", model)
    loaded = load_checkpoint(tmp_path / "model.ckpt")
    assert (loaded.encoders.momentum, loaded.seed) == (float(momentum), seed)
    assert params_bytes(loaded) == params_bytes(model)


@pytest.mark.parametrize("variant, source_rows, target_rows, n_keys", [
    ("S", 120, 120, 122),     # the cold fill draws n source rows
    ("T", 120, 120, 122),
    ("full", 120, 120, 122),
    ("T", 120, 10, 12),       # warm T draws n target rows
    ("full", 120, 10, 22),    # warm full draws n/2 target rows
])
def test_oversized_key_batch_raises_before_training(tiny_pair, monkeypatch, variant,
                                                    source_rows, target_rows, n_keys):
    pair = DomainPair(tiny_pair.source_x[:source_rows], tiny_pair.source_y[:source_rows],
                      tiny_pair.target_x[:target_rows], tiny_pair.num_categories,
                      tiny_pair.evaluation_labels()[:target_rows])
    import caco.train as train_mod

    evaluated = []
    monkeypatch.setattr(train_mod, "evaluate", lambda *a: evaluated.append(a))
    with pytest.raises(ParameterError, match="key batch"):
        train_caco(tiny_config(variant=variant, key_batch_size=n_keys, warmup_epochs=2), pair)
    assert evaluated == []
    # one key fewer per draw fits, and so does any key batch for the baseline
    train_caco(tiny_config(variant=variant, key_batch_size=n_keys - 2, epochs=0), pair)
    train_caco(tiny_config(variant="baseline", key_batch_size=n_keys, epochs=0), pair)


def test_category_without_source_rows_raises_before_training(tiny_pair, monkeypatch):
    # every contrastive epoch seeds one prototype per category from the source rows
    keep = tiny_pair.source_y != 3
    pair = DomainPair(tiny_pair.source_x[keep], tiny_pair.source_y[keep], tiny_pair.target_x,
                      tiny_pair.num_categories, tiny_pair.evaluation_labels())
    import caco.train as train_mod

    evaluated = []
    monkeypatch.setattr(train_mod, "evaluate", lambda *a: evaluated.append(a))
    with pytest.raises(ContractError, match=r"no source rows .* categories \[3\]"):
        train_caco(tiny_config(variant="S", warmup_epochs=2), pair)
    # a domain without rows fails every variant: the baseline would train 0 steps an epoch,
    # and no epoch could be evaluated on an empty target
    p = tiny_pair
    empty = {"source_x": DomainPair(p.source_x[:0], p.source_y[:0], p.target_x,
                                    p.num_categories, p.evaluation_labels()),
             "target_x": DomainPair(p.source_x, p.source_y, p.target_x[:0],
                                    p.num_categories, p.evaluation_labels()[:0])}
    for name, bad in empty.items():
        for variant in VARIANTS:
            with pytest.raises(ContractError, match=rf"the pair's {name} block has no rows"):
                train_caco(tiny_config(variant=variant), bad)
    assert evaluated == []
    monkeypatch.undo()
    _, metrics = train_caco(tiny_config(variant="baseline", warmup_epochs=2), pair)
    assert len(metrics.records) == tiny_config().epochs


def test_variant_routing(tiny_pair):
    with pytest.raises(ContractError):
        train_source_only(tiny_config(variant="full"), tiny_pair)
    # the baseline is train_caco's zero-contrast case, whichever entry point runs it
    model_a, ma = train_source_only(tiny_config(variant="baseline"), tiny_pair)
    model_b, mb = train_caco(tiny_config(variant="baseline"), tiny_pair)
    assert params_bytes(model_a) == params_bytes(model_b)
    assert ma.jsonl_lines() == mb.jsonl_lines()


def test_metrics_bit_identical_across_runs(tiny_pair):
    cfg = tiny_config()
    _, m1 = train_caco(cfg, tiny_pair)
    _, m2 = train_caco(tiny_config(), tiny_pair)
    assert m1.jsonl_lines() == m2.jsonl_lines()
    _, b1 = train_source_only(tiny_config(variant="baseline"), tiny_pair)
    _, b2 = train_source_only(tiny_config(variant="baseline"), tiny_pair)
    assert b1.jsonl_lines() == b2.jsonl_lines()


def test_lambda_zero_matches_source_only_bitwise(tiny_pair):
    model_base, mb = train_source_only(tiny_config(variant="baseline"), tiny_pair)
    model_zero, mz = train_caco(tiny_config(variant="full", catnce_weight=0.0), tiny_pair)
    assert params_bytes(model_base) == params_bytes(model_zero)
    base_sup = [r.loss_sup for r in mb.records]
    zero_sup = [r.loss_sup for r in mz.records]
    assert base_sup == zero_sup
    assert all(r.loss_catnce is None for r in mz.records)


def test_zero_encoder_momentum_tracks_query(tiny_pair):
    model, _ = train_caco(tiny_config(encoder_momentum=0.0), tiny_pair)
    for tq, tk in zip(model.encoders.query.tensors(), model.encoders.key.tensors()):
        np.testing.assert_array_equal(tq.data, tk.data)


def _initial_key_encoder(cfg: TrainConfig):
    from caco.model import new_encoder_pair
    from caco.seeding import child_seed

    spec = MlpSpec((TINY_DATA.dim, *cfg.hidden, cfg.embed_dim))
    return new_encoder_pair(spec, child_seed(cfg.seed, "encoder_init"), cfg.encoder_momentum).key


@pytest.mark.parametrize("variant", ["baseline", "S", "T", "full"])
def test_only_contrastive_variants_move_the_key_encoder(tiny_pair, variant):
    # the key encoder stays at its init through warm-up, for every variant:
    # the bootstrap at its end would discard any EMA step taken before it;
    # a run that leaves warm-up moves it for S, T and full, never for the baseline
    init = _initial_key_encoder(tiny_config(variant=variant))
    for epochs, moves in ((2, False), (3, variant != "baseline")):
        cfg = tiny_config(variant=variant, epochs=epochs, warmup_epochs=2)
        model, _ = train_caco(cfg, tiny_pair)
        moved = [
            not np.array_equal(ti.data, tk.data)
            for ti, tk in zip(init.tensors(), model.encoders.key.tensors())
        ]
        assert all(moved) if moves else not any(moved)


def test_unit_encoder_momentum_freezes_key_encoder(tiny_pair):
    # with momentum 1 any change to the key encoder could only come from a
    # gradient leak, so bitwise equality with the init is the isolation check
    cfg = tiny_config(encoder_momentum=1.0, warmup_epochs=0)
    init = _initial_key_encoder(cfg)
    model, _ = train_caco(cfg, tiny_pair)
    for ti, tk in zip(init.tensors(), model.encoders.key.tensors()):
        np.testing.assert_array_equal(ti.data, tk.data)


def test_catnce_gated_until_dictionary_warm(tiny_pair):
    # a queue size too large to ever fill keeps the loss out of the objective
    huge = tiny_config(queue_size=10_000)
    model_gated, mg = train_caco(huge, tiny_pair)
    assert all(r.loss_catnce is None for r in mg.records)
    assert all(not r.dictionary_warm for r in mg.records)
    assert mg.warm_epoch is None
    model_base, _ = train_source_only(tiny_config(variant="baseline"), tiny_pair)
    assert params_bytes(model_gated) == params_bytes(model_base)


def test_warm_epoch_recorded(tiny_pair):
    _, metrics = train_caco(tiny_config(), tiny_pair)
    assert metrics.warm_epoch == 1
    assert metrics.records[-1].dictionary_warm
    assert any(r.loss_catnce is not None for r in metrics.records)


def test_warmup_epochs_delay_enqueueing(tiny_pair):
    _, metrics = train_caco(tiny_config(epochs=4, warmup_epochs=2), tiny_pair)
    assert metrics.warm_epoch == 3
    assert [r.loss_catnce is None for r in metrics.records] == [True, True, False, False]


def test_source_domain_fraction_of_enqueued_keys(monkeypatch):
    # law of large numbers over the even per-batch split of the full variant
    pair = build_domain_pair(TINY_DATA, 5)
    counts = {SOURCE: 0, TARGET: 0}
    real_enqueue = CategoricalDictionary.enqueue

    def enqueue(self, vector, category, temperature, domain):
        counts[domain] += 1
        return real_enqueue(self, vector, category, temperature, domain)

    monkeypatch.setattr(CategoricalDictionary, "enqueue", enqueue)
    train_caco(tiny_config(epochs=6, queue_size=4, seed=6), pair)
    frac = counts["source"] / (counts["source"] + counts["target"])
    assert abs(frac - 0.5) <= 0.05


def test_training_never_touches_evaluation_labels(tiny_pair):
    calls = {"count": 0}
    orig = DomainPair.evaluation_labels

    def spy(self):
        calls["count"] += 1
        return orig(self)

    DomainPair.evaluation_labels = spy
    try:
        cfg = tiny_config(epochs=2)
        train_caco(cfg, tiny_pair)
    finally:
        DomainPair.evaluation_labels = orig
    # exactly one evaluation per epoch; the step code never reads labels
    assert calls["count"] == 2


class _LabelLog:
    """Spies on train_caco: every target row label, by the epoch labelling it came from.

    Events are ("labelling", None), ("evaluate", None), ("key", (row, label))
    and ("query", (row, label)), in call order.
    """

    def __init__(self, monkeypatch):
        import caco.train as train_mod

        self.events: list[tuple[str, object]] = []
        self.memberships: list[np.ndarray] = []
        self._target_keys: list[np.ndarray] = []
        self._query_rows: list[int] = []
        real = {name: getattr(train_mod, name) for name in (
            "prototype_memberships", "sample_key_batch", "key_label", "cat_nce", "evaluate",
        )}
        real_next = train_mod._next_queries

        def memberships(*args, **kwargs):
            result = real["prototype_memberships"](*args, **kwargs)
            self.memberships.append(result)
            self.events.append(("labelling", None))
            return result

        def key_batch(*args, **kwargs):
            source, target = real["sample_key_batch"](*args, **kwargs)
            self._target_keys.append(target)
            return source, target

        def key_label(*args, **kwargs):
            labels = real["key_label"](*args, **kwargs)
            rows = self._target_keys.pop(0)  # the batch's target keys come last
            for row, label in zip(rows, labels[len(labels) - len(rows):]):
                self.events.append(("key", (int(row), int(label))))
            return labels

        def next_queries(run, pair, n):
            rows = real_next(run, pair, n)
            self._query_rows.extend(int(i) for i in rows)
            return rows

        def query_labels(queries, labels, dictionary):
            for label in labels:
                self.events.append(("query", (self._query_rows.pop(0), int(label))))
            return real["cat_nce"](queries, labels, dictionary)

        def evaluate(*args, **kwargs):
            self.events.append(("evaluate", None))
            return real["evaluate"](*args, **kwargs)

        monkeypatch.setattr(train_mod, "prototype_memberships", memberships)
        monkeypatch.setattr(train_mod, "sample_key_batch", key_batch)
        monkeypatch.setattr(train_mod, "key_label", key_label)
        monkeypatch.setattr(train_mod, "cat_nce", query_labels)
        monkeypatch.setattr(train_mod, "evaluate", evaluate)
        monkeypatch.setattr(train_mod, "_next_queries", next_queries)

    def by_labelling(self) -> list[list[tuple[str, int, int]]]:
        """(kind, row, label) of the target labels made under each epoch labelling."""
        out: list[list[tuple[str, int, int]]] = []
        for kind, payload in self.events:
            if kind == "labelling":
                out.append([])
            elif kind in ("key", "query"):
                out[-1].append((kind, *payload))
        return out


def test_target_row_label_is_shared_by_query_and_key_within_an_epoch(tiny_pair, monkeypatch):
    log = _LabelLog(monkeypatch)
    train_caco(tiny_config(epochs=4), tiny_pair)
    shared = 0
    for memberships, labelled in zip(log.memberships, log.by_labelling()):
        epoch_label = np.argmax(memberships, axis=1) + 1
        kinds_by_row: dict[int, set[str]] = {}
        for kind, row, label in labelled:
            # the epoch's labelling, never the row's own current prediction
            assert label == epoch_label[row]
            kinds_by_row.setdefault(row, set()).add(kind)
        shared += sum(kinds == {"key", "query"} for kinds in kinds_by_row.values())
    assert shared > 0  # rows drawn both ways in one epoch, so the check above bites


def test_target_labels_change_only_at_epoch_starts(tiny_pair, monkeypatch):
    log = _LabelLog(monkeypatch)
    train_caco(tiny_config(epochs=5, warmup_epochs=2), tiny_pair)
    kinds = [kind for kind, _ in log.events]
    epochs = " ".join(k for k in kinds if k in ("labelling", "evaluate"))
    # no labelling during warm-up, then exactly one at the start of each
    # contrastive epoch, before any target row of that epoch is labelled
    assert epochs == "evaluate evaluate labelling evaluate labelling evaluate labelling evaluate"
    for i, kind in enumerate(kinds):
        if kind in ("key", "query"):
            assert "labelling" in kinds[:i]
            previous = max(j for j in range(i) if kinds[j] in ("labelling", "evaluate"))
            assert kinds[previous] == "labelling"
    assert len(log.by_labelling()) == 3
    assert all(labelled for labelled in log.by_labelling())


def test_non_finite_loss_raises_divergence_before_backward(monkeypatch):
    # the default model at a learning rate of 1e4 overflows during warm-up
    import caco.train as train_mod

    real_backward = train_mod.backward
    backward_losses = []

    def backward(loss, tape):
        backward_losses.append(loss.item())
        return real_backward(loss, tape)

    monkeypatch.setattr(train_mod, "backward", backward)
    pair = build_domain_pair(DataConfig(n_per_class=100), 1)
    with pytest.raises(DivergenceError) as info, np.errstate(all="ignore"):
        train_caco(TrainConfig(learning_rate=1e4, epochs=7), pair)
    err = info.value
    assert 1 <= err.epoch <= 7 and err.step >= 1
    assert f"epoch {err.epoch}, step {err.step}" in str(err)
    assert backward_losses and np.isfinite(backward_losses).all()


def test_non_finite_contrast_loss_raises_divergence_naming_step_and_loss(tiny_pair, monkeypatch):
    # keys divided by a subnormal base temperature overflow, so the contrast loss is NaN
    import caco.train as train_mod

    real_backward, passes = train_mod.backward, []

    def backward(loss, tape):
        passes.append(loss.item())
        return real_backward(loss, tape)

    monkeypatch.setattr(train_mod, "backward", backward)
    with pytest.raises(DivergenceError) as info, np.errstate(over="ignore", invalid="ignore"):
        train_caco(tiny_config(variant="S", tau_base=1e-320), tiny_pair)
    err = info.value
    assert (err.epoch, err.step) == (1, len(passes) + 1)  # no backward pass on the NaN
    assert str(err) == f"training diverged at epoch 1, step {err.step}: loss nan"
    assert err.__cause__ is None  # the loss check, not an encoder output


def test_non_finite_embedding_raises_divergence_with_its_step(tiny_pair, monkeypatch):
    # the query encoder's output overflows in the third step of the second epoch
    import caco.train as train_mod

    real_encode = train_mod.encode
    steps = []

    def encode(params, x):
        steps.append(None)
        if len(steps) == -(-tiny_pair.source_x.shape[0] // 16) + 3:  # 16 rows a batch
            x = Tensor(np.full(x.shape, 1e300))
        return real_encode(params, x)

    monkeypatch.setattr(train_mod, "encode", encode)
    with pytest.raises(DivergenceError, match="epoch 2, step 3: .*not finite") as info, \
            np.errstate(over="ignore"):
        train_caco(tiny_config(variant="baseline", catnce_weight=0.0), tiny_pair)
    assert (info.value.epoch, info.value.step) == (2, 3)
    assert isinstance(info.value.__cause__, NonFiniteError)


def test_overflow_in_a_later_block_of_the_labelling_pass_is_divergence():
    # the key encoder's first labelling pass (init biases are zero) meets a zero
    # target row in its first block and an overflowing one in its last; that is
    # an overflow of the whole pass, as encode would report it
    data = build_domain_pair(dataclasses.replace(TINY_DATA, n_per_class=100), 3)
    target = data.target_x.copy()
    assert target.shape[0] > 2 * ROW_BLOCK
    target[0], target[-1] = 0.0, 1e300
    pair = DomainPair(data.source_x, data.source_y, target, data.num_categories,
                      data.evaluation_labels())
    with pytest.raises(DivergenceError, match="epoch 1, step 1: .*not finite") as info, \
            np.errstate(over="ignore", invalid="ignore"):
        train_caco(tiny_config(variant="full"), pair)
    assert isinstance(info.value.__cause__, NonFiniteError)


@pytest.mark.parametrize("variant", ["baseline", "full"])
def test_nan_query_weight_raises_divergence(tiny_pair, monkeypatch, variant):
    # a NaN hidden unit must not pass the rectifier as 0.0 and let the run go on
    import caco.train as train_mod

    real_new = train_mod.new_encoder_pair

    def new_encoder_pair(*args):
        encoders = real_new(*args)
        encoders.query.weights[0].data[:, 0] = np.nan
        return encoders

    monkeypatch.setattr(train_mod, "new_encoder_pair", new_encoder_pair)
    with pytest.raises(DivergenceError, match="epoch 1, step 1: .*not finite") as info:
        train_caco(tiny_config(variant=variant), tiny_pair)
    assert isinstance(info.value.__cause__, NonFiniteError)


def test_collapsed_embedding_names_its_epoch_and_step(tiny_pair, monkeypatch):
    # a one-unit hidden layer rectifies some row to all zeros in the first step
    config = TrainConfig(hidden=(1,), embed_dim=2, epochs=3, warmup_epochs=1)
    with pytest.raises(DegenerateEmbeddingError,
                       match="^an encoder embedded a row.* as zero at epoch 1, step 1$") as info:
        train_caco(config, build_domain_pair(DataConfig(n_per_class=20), 1))
    assert isinstance(info.value.__cause__, DegenerateEmbeddingError)
    # in the epoch labelling, before step 1, the step named is 1, as for a divergence
    import caco.train as train_mod

    monkeypatch.setattr(train_mod, "embed", lambda params, x: np.zeros((len(x), 4)))
    with pytest.raises(DegenerateEmbeddingError, match="as zero at epoch 2, step 1$"):
        train_caco(tiny_config(warmup_epochs=1), tiny_pair)


def test_tape_records_per_step(tiny_pair, monkeypatch):
    # one record per encoder pass and per loss. A step holds the encoder, the
    # classifier and the mean NLL (3); a warm full step adds the target encode,
    # the category NCE and the weighted sum (6). With the weight and the sum
    # as two records the same steps held 3 and 7, with one record per layer
    # 6 and 13, and unfused 15 and 32.
    import caco.train as train_mod

    real_backward = train_mod.backward
    records = []

    def backward(loss, tape):
        records.append(tape_length(tape))
        return real_backward(loss, tape)

    monkeypatch.setattr(train_mod, "backward", backward)
    train_caco(tiny_config(variant="baseline", hidden=(16, 16), epochs=1), tiny_pair)
    assert set(records) == {3}
    records.clear()
    train_caco(tiny_config(hidden=(16, 16), queue_size=2, epochs=2), tiny_pair)
    assert records[0] == 3 and records[-1] == 6 and set(records) == {3, 6}


def test_categories_come_from_the_label_space():
    # labels declare three categories, but no source row has the third
    rng = np.random.default_rng(0)
    source_x = np.concatenate([rng.normal(size=(20, 4)) + 3.0 * c for c in (1, 2)])
    source_y = np.repeat([1, 2], 20)
    target_x, target_y = shift_domain(source_x, source_y, 0.3)
    pair = DomainPair(source_x, source_y, target_x, 3, target_y)
    assert pair.num_categories == 3
    assert set(pair.evaluation_labels().tolist()) == {1, 2}  # no third-category rows either
    with pytest.raises(ContractError, match=r"categories \[3\]"):
        train_caco(tiny_config(), pair)


def test_lr_decay_power_schedule():
    from caco.train import _Sgd

    def rates(power, total=20):
        param = Tensor(np.zeros(1), True)
        sgd = _Sgd([param], tiny_config(learning_rate=0.03, lr_decay_power=power), total)
        out = []
        for _ in range(total + 1):
            out.append(sgd._lr())
            sgd.step({param: np.zeros(1)})
        return out

    assert rates(0.0) == [0.03] * 21  # power 0 keeps the rate constant, bit for bit
    decayed = rates(0.9)
    assert decayed[0] == 0.03
    assert all(a > b for a, b in zip(decayed, decayed[1:-1]))
    assert decayed[-1] == 0.03 * 1e-3 ** 0.9  # the floor once every step is done


def _per_parameter_sgd_step(params, grads, lr, weight_decay):
    """One step of SGD as a loop over parameters, the form the flat buffer replaces."""
    for p in params:
        v = grads[p].copy()
        if weight_decay:
            v += weight_decay * p.data
        p.data -= lr * v


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_flat_sgd_matches_a_per_parameter_loop_bit_for_bit(weight_decay):
    from caco.train import _Sgd

    rng = np.random.default_rng(7)
    shapes = [(4, 16), (16,), (16, 4), (4,), (4, 3), (3,)]
    values = [rng.normal(size=shape) for shape in shapes]
    flat_params = [Tensor(v.copy(), True) for v in values]
    loop_params = [Tensor(v.copy(), True) for v in values]
    config = tiny_config(learning_rate=0.03, weight_decay=weight_decay)
    sgd = _Sgd(flat_params, config, total_steps=20)
    for step in range(20):
        lr = sgd._lr()
        grads = [rng.normal(size=shape) * 10.0 ** rng.integers(-6, 2) for shape in shapes]
        sgd.step(dict(zip(flat_params, grads)))
        _per_parameter_sgd_step(loop_params, dict(zip(loop_params, grads)), lr, weight_decay)
        for a, b in zip(flat_params, loop_params):
            assert a.data.tobytes() == b.data.tobytes(), f"step {step + 1}"


def test_trained_parameters_stay_views_of_the_sgd_buffer(tiny_pair, monkeypatch):
    import caco.train as train_mod

    made = []

    class Spy(train_mod._Sgd):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(train_mod, "_Sgd", Spy)
    model, _ = train_caco(tiny_config(epochs=2), tiny_pair)
    (sgd,) = made
    trainable = model.encoders.query.tensors() + [model.classifier.weight, model.classifier.bias]
    assert sgd.flat.size == sum(t.data.size for t in trainable)
    for t in trainable:
        assert np.shares_memory(t.data, sgd.flat)
    # and the buffer holds what the tensors read, in parameter order
    np.testing.assert_array_equal(np.concatenate([t.data.ravel() for t in trainable]), sgd.flat)
    for t in model.encoders.key.tensors():
        assert not np.shares_memory(t.data, sgd.flat)


def run_outputs(config, pair, warmups=None):
    """Every output byte of a run: parameters of both encoders and the classifier,
    metrics lines, the keys dump, and the warm epoch."""
    keys = io.StringIO()
    if config.variant == "baseline":
        model, metrics = train_source_only(config, pair, warmups=warmups)
    else:
        model, metrics = train_caco(config, pair, keys_dump_fp=keys, warmups=warmups)
    key_bytes = b"".join(t.data.tobytes() for t in model.encoders.key.tensors())
    return (params_bytes(model) + key_bytes, tuple(metrics.jsonl_lines()), keys.getvalue(),
            metrics.warm_epoch)


def counting_epochs(monkeypatch):
    """A list that gains one entry per evaluated epoch."""
    import caco.train as train_mod

    evaluated = []
    real = train_mod.evaluate
    monkeypatch.setattr(train_mod, "evaluate",
                        lambda *a, **kw: evaluated.append(1) or real(*a, **kw))
    return evaluated


def counting_calls(monkeypatch, *names):
    """A dict that counts train_caco's calls to each of the named functions."""
    import caco.train as train_mod

    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(train_mod, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(train_mod, name, counted)
    return calls


def test_a_run_takes_no_undeclared_field(tiny_pair):
    # a misspelt or stale field would otherwise ride along in every share point
    import caco.train as train_mod

    run = train_mod._new_run(tiny_config(), tiny_pair)
    with pytest.raises(AttributeError):
        run.prev_pseudo = None  # the old name of prev_predicted
    run.prev_predicted = None


@pytest.mark.parametrize("variant, calls", [("baseline", 24 + 3), ("full", 8 + 2 * 16 + 3)])
def test_a_step_asks_warmness_once_before_and_once_after_its_key_write(
        tiny_pair, monkeypatch, variant, calls):
    # 3 epochs of 8 steps, 1 of them warm-up; each epoch's record asks once more
    counted = []
    real = CategoricalDictionary.is_warm
    monkeypatch.setattr(CategoricalDictionary, "is_warm",
                        lambda self: counted.append(None) or real(self))
    train_caco(tiny_config(variant=variant, warmup_epochs=1), tiny_pair)
    assert len(counted) == calls


def share_point(warmups, point):
    """The one record stored in `warmups` at the named share point."""
    (record,) = [record for (*_, name), record in warmups.items() if name == point]
    return record


@pytest.mark.parametrize("warmup_epochs, epochs, shared", [
    (2, 4, True), (4, 4, True), (5, 4, False),
], ids=["warmup_then_contrast", "warmup_is_every_epoch", "warmup_outlasts_run"])
def test_shared_warmup_gives_the_bytes_of_fresh_runs(tiny_pair, monkeypatch,
                                                     warmup_epochs, epochs, shared):
    configs = [tiny_config(variant=v, warmup_epochs=warmup_epochs, epochs=epochs, queue_size=2)
               for v in VARIANTS]
    fresh = [run_outputs(c, tiny_pair) for c in configs]
    evaluated = counting_epochs(monkeypatch)
    warmups = {}
    assert [run_outputs(c, tiny_pair, warmups) for c in configs] == fresh
    # the baseline trains the warm-up; S, T and full only the epochs after it
    trained = epochs + 3 * (epochs - warmup_epochs) if shared else 4 * epochs
    assert len(evaluated) == trained
    # the warm-up's share point, and the cold fill's once the dictionary warms
    points = {"warmup", "cold_fill"} if warmup_epochs < epochs else {"warmup"}
    assert {point for *_, point in warmups} == (points if shared else set())
    if warmup_epochs < epochs:
        assert fresh[-1][1][-1] != fresh[0][1][-1]  # the contrastive epochs differ


def test_warmup_dict_shares_only_between_variants(tiny_pair, monkeypatch):
    # runs that differ in anything but the variant keep their own warm-ups
    configs = [tiny_config(variant="S", warmup_epochs=2, learning_rate=lr) for lr in (0.01, 0.02)]
    configs.append(dataclasses.replace(configs[0], seed=4))
    fresh = [run_outputs(c, tiny_pair) for c in configs]
    evaluated = counting_epochs(monkeypatch)
    warmups = {}
    assert [run_outputs(c, tiny_pair, warmups) for c in configs] == fresh
    assert len(evaluated) == 3 * 3 and len({key[:2] for key in warmups}) == 3
    other_pair = build_domain_pair(TINY_DATA, 3)  # equal arrays, another pair
    assert run_outputs(configs[0], other_pair, warmups) == fresh[0]
    assert len(evaluated) == 4 * 3 and len({key[:2] for key in warmups}) == 4


def test_shared_warmup_state_is_private_and_timed(tiny_pair):
    warmups = {}
    _, first = train_source_only(tiny_config(variant="baseline", warmup_epochs=2), tiny_pair,
                                 warmups=warmups)
    stored = share_point(warmups, "warmup")
    before = pickle.dumps(stored)
    _, reused = train_caco(tiny_config(variant="T", warmup_epochs=2), tiny_pair, warmups=warmups)
    assert reused.records[:2] == first.records[:2] == stored.records
    # the restored run trained its own copy: the stored run is unchanged
    assert pickle.dumps(stored) == before
    # a restored run's time includes the warm-up it did not train itself
    assert reused.wall_clock_s >= stored.elapsed_s > 0.0


def test_restored_runs_key_gradients_by_their_own_parameters(tiny_pair, monkeypatch):
    # gradients are keyed by tensor identity, so after a restore they must key
    # the restored copies that the optimizer steps, not the stored point's
    import caco.train as train_mod

    steps = []
    real = train_mod._Sgd.step

    def step(self, grads):
        steps.append((self, set(grads)))
        return real(self, grads)

    monkeypatch.setattr(train_mod._Sgd, "step", step)
    warmups = {}
    train_source_only(tiny_config(variant="baseline", warmup_epochs=2), tiny_pair, warmups=warmups)
    stored = set(share_point(warmups, "warmup").optimizer.params)
    steps.clear()
    model, _ = train_caco(tiny_config(variant="T", warmup_epochs=2), tiny_pair, warmups=warmups)
    (optimizer,) = {id(sgd): sgd for sgd, _ in steps}.values()
    params = set(optimizer.params)
    assert params == set(model.encoders.query.tensors() + [model.classifier.weight,
                                                             model.classifier.bias])
    assert len(steps) == 8  # epoch 3 only: the first two were restored
    for _, keys in steps:
        assert keys == params and keys.isdisjoint(stored)


# Until every queue is full, S, T and full all draw source keys and train the
# same steps. On tiny_pair an epoch is 8 steps of 8 source keys each; a case
# is its config, the epoch the dictionary warms in, and whether a step
# follows the warm step, so that the variants' outputs differ.
COLD_FILL_CASES = {
    "warms_mid_epoch": (dict(warmup_epochs=1, epochs=3, queue_size=5), 2, True),  # step 3
    "warms_on_an_epochs_last_step": (dict(warmup_epochs=1, epochs=3, queue_size=13), 2, True),
    "warms_on_the_runs_last_step": (dict(warmup_epochs=1, epochs=2, queue_size=13), 2, False),
    "warms_in_a_later_epoch": (dict(warmup_epochs=1, epochs=4, queue_size=30), 3, True),  # step 5
    "never_warms": (dict(warmup_epochs=1, epochs=3, queue_size=1000), None, False),
    "no_warmup": (dict(warmup_epochs=0, epochs=3, queue_size=5), 1, True),
    "no_contrast": (dict(warmup_epochs=1, epochs=3, queue_size=5, catnce_weight=0.0), 2, True),
    "plain_sgd": (dict(warmup_epochs=1, epochs=3, queue_size=5, weight_decay=0.0,
                       lr_decay_power=0.0), 2, True),  # no decay term, constant rate
}
SHARE_ORDERS = {"ablate": VARIANTS, "T_S_full": ("T", "S", "full"), "full_T_S": ("full", "T", "S"),
                "baseline_last": ("full", "S", "baseline", "T")}


@pytest.mark.parametrize("order", SHARE_ORDERS)
@pytest.mark.parametrize("case", COLD_FILL_CASES)
def test_runs_sharing_a_cold_dictionary_fill_give_the_bytes_of_fresh_runs(tiny_pair, case, order):
    settings, warm_epoch, differ = COLD_FILL_CASES[case]
    configs = [tiny_config(variant=v, **settings) for v in SHARE_ORDERS[order]]
    fresh = [run_outputs(c, tiny_pair) for c in configs]
    contrastive = [out for c, out in zip(configs, fresh) if c.variant != "baseline"]
    assert {out[3] for out in contrastive} == {warm_epoch}
    assert len({out[:3] for out in contrastive}) == (3 if differ else 1)
    warmups = {}
    assert [run_outputs(c, tiny_pair, warmups) for c in configs] == fresh


def test_t_and_full_skip_the_steps_they_share_with_s(tiny_pair, monkeypatch):
    # the dictionary warms on the 13th contrastive step, step 5 of epoch 3
    settings, _, _ = COLD_FILL_CASES["warms_in_a_later_epoch"]
    import caco.train as train_mod

    # a clock that ticks once per reading, so that no run can take zero time
    ticks = itertools.count()
    monkeypatch.setattr(train_mod, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    configs = [tiny_config(variant=v, **settings) for v in (*VARIANTS, "T")]
    fresh = [run_outputs(c, tiny_pair) for c in configs]
    calls = counting_calls(monkeypatch, "sample_key_batch", "backward")
    # the pair of every query batch drawn
    cycler_pairs = []
    real_next = train_mod._next_queries
    monkeypatch.setattr(train_mod, "_next_queries",
                        lambda run, pair, n: cycler_pairs.append(pair) or real_next(run, pair, n))
    warmups, counts = {}, []
    for config, outputs in zip(configs, fresh):
        # the second T restores the same record as the first, to the same bytes
        assert run_outputs(config, tiny_pair, warmups) == outputs
        counts.append(tuple(calls.values()))
        calls.update(dict.fromkeys(calls, 0))
        if config.variant == "S":
            stored_bytes = pickle.dumps(share_point(warmups, "cold_fill"))
            cycler_pairs.clear()
    # key draws and backward passes: the baseline trains 4 epochs of 8 steps,
    # S the 24 after warm-up, T and full the 11 after the warm step
    assert counts == [(0, 32), (24, 24), (11, 11), (11, 11), (11, 11)]
    cold = share_point(warmups, "cold_fill")
    assert (cold.epoch, cold.step, cold.optimizer.steps_done, cold.dictionary.is_warm()) == \
        (3, 5, 21, True)
    # three restores later, the stored state is what S stored; the restored
    # runs drew their query batches from the caller's pair, not from a copy
    assert pickle.dumps(cold) == stored_bytes
    assert len(cycler_pairs) == 3 * 11 and all(p is tiny_pair for p in cycler_pairs)
    # a restored run's time includes the steps it restored: S's time counts the
    # baseline's warm-up, and T's and full's count that and S's cold fill
    assert cold.elapsed_s > share_point(warmups, "warmup").elapsed_s > 0
    for variant in ("T", "full"):
        _, metrics = train_caco(tiny_config(variant=variant, **settings), tiny_pair, warmups=warmups)
        assert metrics.wall_clock_s > cold.elapsed_s


# (key_batch_size, queue_size) on tiny_pair at seed 3, with the contrastive
# epoch and step on which the source-key fill warms the dictionary (None: never
# within 4 epochs); the draw depends on nothing else in the config
KEY_FILLS = {
    "mid_epoch": (8, 5, (1, 3)),
    "mid_epoch_small_keys": (2, 2, (1, 7)),
    "on_an_epochs_last_step": (8, 13, (1, 8)),
    "on_an_epochs_last_step_small_keys": (2, 3, (1, 8)),
    "in_a_later_epoch": (8, 30, (2, 5)),
    "in_a_later_epoch_on_its_last_step": (4, 16, (2, 8)),
    "never": (8, 1000, None),
}


def evaluations_with_sharing(order, warmup_epochs, epochs, warm_epoch):
    """The epochs a run sequence evaluates when every run restores the latest open point."""
    stored, total = set(), 0
    for variant in order:
        if variant != "baseline" and "cold_fill" in stored:
            total += epochs - warm_epoch + 1  # the point is inside the warm epoch
        elif "warmup" in stored:
            total += epochs - warmup_epochs
        else:
            total += epochs
        if 1 <= warmup_epochs <= epochs:
            stored.add("warmup")
        if variant != "baseline" and warm_epoch is not None:
            stored.add("cold_fill")
    return total


@settings(max_examples=100, deadline=None)
@given(
    epochs=st.integers(0, 4),
    warmup_epochs=st.integers(0, 4),
    fill=st.sampled_from(sorted(KEY_FILLS)),
    weight_decay=st.sampled_from((0.0, 0.01)),
    lr_decay_power=st.sampled_from((0.0, 0.9)),
    catnce_weight=st.sampled_from((0.0, 0.5, 1.0)),
    order=st.permutations(VARIANTS),
)
def test_share_points_give_the_outputs_of_fresh_runs(tiny_pair, epochs, warmup_epochs, fill,
                                                     order, **knobs):
    import caco.train as train_mod

    key_batch_size, queue_size, warm_at = KEY_FILLS[fill]
    configs = [tiny_config(variant=v, epochs=epochs, warmup_epochs=warmup_epochs,
                           key_batch_size=key_batch_size, queue_size=queue_size, **knobs)
               for v in order]
    with pytest.MonkeyPatch.context() as monkeypatch:
        # a clock that reads the number of epochs evaluated so far: every run,
        # fresh or restored, must then report wall_clock_s == epochs
        evaluated = []
        real = train_mod.evaluate
        monkeypatch.setattr(train_mod, "evaluate",
                            lambda *a, **kw: evaluated.append(1) or real(*a, **kw))
        monkeypatch.setattr(train_mod, "time",
                            types.SimpleNamespace(monotonic=lambda: float(len(evaluated))))

        def outputs(config, warmups=None):
            keys = io.StringIO()
            model, metrics = train_caco(config, tiny_pair, keys_dump_fp=keys, warmups=warmups)
            key_bytes = b"".join(t.data.tobytes() for t in model.encoders.key.tensors())
            return (params_bytes(model) + key_bytes, tuple(metrics.jsonl_lines()),
                    keys.getvalue(), metrics.warm_epoch, metrics.wall_clock_s)

        fresh = [outputs(c) for c in configs]
        warm_epoch = None
        if warm_at is not None and warmup_epochs + warm_at[0] <= epochs:
            warm_epoch = warmup_epochs + warm_at[0]
        assert {out[3] for c, out in zip(configs, fresh) if c.variant != "baseline"} == {warm_epoch}
        assert {out[4] for out in fresh} == {float(epochs)}
        evaluated.clear()
        warmups = {}
        assert [outputs(c, warmups) for c in configs] == fresh
        # the restores happened: the shared runs skipped the epochs before each point
        assert len(evaluated) == evaluations_with_sharing(order, warmup_epochs, epochs, warm_epoch)


def test_epoch_zero_runs_produce_empty_metrics(tiny_pair):
    model, metrics = train_caco(tiny_config(epochs=0), tiny_pair)
    assert metrics.records == []
    assert metrics.final_accuracy is None
    assert isinstance(model, CacoModel)
    # with records, it is the last record's accuracy
    records = [EpochRecord(epoch, 0.5, None, accuracy, accuracy, None, False)
               for epoch, accuracy in ((1, 0.25), (2, 0.75), (3, 0.5))]
    assert RunMetrics("baseline", 1, records).final_accuracy == 0.5


def test_baseline_zero_shift_matches_source_accuracy():
    # identical source/target distributions: accuracies agree within 3 points
    gaps = []
    for seed in range(1, 6):
        pair = build_domain_pair(
            DataConfig(num_categories=3, dim=4, separation=3.0, n_per_class=80, angle=0.0),
            seed,
        )
        cfg = tiny_config(variant="baseline", epochs=20, batch_size=32,
                          learning_rate=0.1, seed=seed)
        model, metrics = train_source_only(cfg, pair)
        source_acc = evaluate(model, pair.source_x, pair.source_y).accuracy
        assert metrics.final_accuracy > 0.8  # converged, not chance-level
        gaps.append(abs(metrics.final_accuracy - source_acc))
    assert np.mean(gaps) <= 0.03


def test_baseline_separable_limit_reaches_full_accuracy():
    pair = build_domain_pair(
        DataConfig(num_categories=3, dim=4, separation=50.0, n_per_class=60, angle=0.0),
        7,
    )
    _, metrics = train_source_only(
        tiny_config(variant="baseline", epochs=8, learning_rate=0.1, seed=7), pair
    )
    assert metrics.final_accuracy >= 0.99


# ---------------------------------------------------------------------------
# evaluate / churn
# ---------------------------------------------------------------------------


def _stub_model(predictions: dict[tuple, int], num_categories: int) -> CacoModel:
    class Stub(CacoModel):
        def predict_indices(self, x):
            return np.array([predictions[tuple(row)] for row in x])

    spec = MlpSpec((2, 4, 2))
    params = MlpParams([Tensor(np.zeros((2, 2)))], [Tensor(np.zeros(2))])
    return Stub(spec, num_categories, 0, EncoderPair(params, params, 0.5),
                Classifier(Tensor(np.zeros((2, num_categories))), Tensor(np.zeros(num_categories))))


def _rows(rows):
    """(x, y) arrays of ((features), 1-based label) pairs."""
    return np.array([x for x, _ in rows], dtype=float), np.array([c for _, c in rows])


def test_evaluate_perfect_predictor():
    rows = [((0.0, 1.0), 1), ((1.0, 0.0), 2), ((2.0, 0.0), 2)]
    model = _stub_model({(0.0, 1.0): 1, (1.0, 0.0): 2, (2.0, 0.0): 2}, 2)
    result = evaluate(model, *_rows(rows))
    assert result.accuracy == 1.0
    assert result.mean_class_accuracy == 1.0


def test_evaluate_constant_predictor_on_balanced_data():
    rows = [((float(i), 0.0), c) for c in (1, 2, 3, 4) for i in range(5)]
    model = _stub_model({(float(i), 0.0): 1 for i in range(5)}, 4)
    result = evaluate(model, *_rows(rows))
    assert result.accuracy == 0.25
    assert result.mean_class_accuracy == 0.25


def test_evaluate_hand_built_confusion_case():
    # 10 samples, hand-counted: class1 3/4 right, class2 2/3, class3 0/3
    truth = [1, 1, 1, 1, 2, 2, 2, 3, 3, 3]
    pred = [1, 1, 1, 2, 2, 2, 1, 1, 1, 2]
    rows = [((float(i), 0.0), c) for i, c in enumerate(truth)]
    model = _stub_model({(float(i), 0.0): p for i, p in enumerate(pred)}, 3)
    result = evaluate(model, *_rows(rows))
    assert result.accuracy == pytest.approx(5 / 10)
    assert result.mean_class_accuracy == pytest.approx((3 / 4 + 2 / 3 + 0.0) / 3)


def test_evaluate_missing_class_flagged():
    rows = [((0.0, 0.0), 1), ((1.0, 0.0), 1)]
    model = _stub_model({(0.0, 0.0): 1, (1.0, 0.0): 1}, 3)
    result = evaluate(model, *_rows(rows))
    # classes 2 and 3 have no rows: they are left out of the mean, not scored 0
    assert result.mean_class_accuracy == 1.0


def test_evaluate_empty_rejected(tiny_pair):
    model, _ = train_caco(tiny_config(epochs=0), tiny_pair)
    with pytest.raises(ContractError):
        evaluate(model, np.zeros((0, TINY_DATA.dim)), np.zeros(0, dtype=int))
    with pytest.raises(DimensionError):
        evaluate(model, tiny_pair.target_x, tiny_pair.evaluation_labels()[1:])
    with pytest.raises(DimensionError):  # a scalar label, read as no labels at all
        evaluate(model, tiny_pair.target_x, 3)
    for x in (np.float64(1.0), tiny_pair.target_x[0]):  # a 0-d input, and one row as a 1-d vector
        with pytest.raises(DimensionError, match="evaluate needs"):
            evaluate(model, x, np.array([1]))


def test_evaluate_rejects_labels_outside_the_label_rule():
    # out-of-range, bool, float and str labels each scored as if they were labels
    rows = [((float(i), 0.0), 1) for i in range(4)]
    model = _stub_model({(float(i), 0.0): 1 for i in range(4)}, 5)
    x, _ = _rows(rows)
    for bad in ([0, 9, -1, 5], [True, True, False, True], [1.5, 2.0, 3.0, 4.0],
                ["1", "2", "3", "4"]):
        with pytest.raises(ContractError, match="integer labels"):
            evaluate(model, x, np.array(bad))


def test_churn_is_the_changed_fraction_of_consecutive_evaluations(tiny_pair, monkeypatch):
    # the one evaluate() per epoch feeds both the accuracies and the churn
    import caco.train as train_mod

    predicted = []
    real_evaluate = train_mod.evaluate

    def evaluate(*args):
        result = real_evaluate(*args)
        predicted.append(result.predicted.copy())
        return result

    monkeypatch.setattr(train_mod, "evaluate", evaluate)
    _, metrics = train_caco(tiny_config(epochs=5, warmup_epochs=1), tiny_pair)
    churns = [r.pseudo_label_churn for r in metrics.records]
    assert len(predicted) == len(churns) == 5 and churns[0] is None
    for t in range(1, 5):
        assert churns[t] == float(np.mean(predicted[t] != predicted[t - 1]))
    assert any(churns[1:])  # some prediction changed, so the equality above bites


def test_mean_class_accuracy_matches_a_per_class_loop():
    # seeded cases with uneven counts and absent categories, against a loop over categories
    rng = np.random.default_rng(20)
    for _ in range(200):
        num_categories = int(rng.integers(2, 8))
        n = int(rng.integers(1, 60))
        present = rng.choice(np.arange(1, num_categories + 1),
                             size=int(rng.integers(1, num_categories + 1)), replace=False)
        truth = rng.choice(present, size=n, p=rng.dirichlet(np.ones(present.size)))
        pred = rng.integers(1, num_categories + 1, size=n)
        model = _stub_model({(float(i), 0.0): int(p) for i, p in enumerate(pred)}, num_categories)
        x = np.array([(float(i), 0.0) for i in range(n)])
        rates = [float((pred[truth == c] == c).mean())
                 for c in range(1, num_categories + 1) if (truth == c).any()]
        assert evaluate(model, x, truth).mean_class_accuracy == float(np.mean(rates))
