"""CLI surface: spec parsing, subcommands, output files, determinism."""

import csv
import dataclasses
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caco.cli import SUMMARY_FIELDS, ExperimentSpec, load_spec, main, parse_spec_text
from caco.data import DataConfig, build_domain_pair
from caco.errors import ContractError
from caco.model import load_checkpoint
from caco.train import VARIANTS, TrainConfig

FAST = [
    "data.num_categories=3",
    "data.dim=4",
    "data.n_per_class=30",
    "data.angle=0.3",
    "train.epochs=2",
    "train.batch_size=16",
    "train.queue_size=4",
    "train.warmup_epochs=0",
    "train.hidden=24",
    "train.embed_dim=4",
]


def fast_args(*extra):
    out = []
    for item in FAST + list(extra):
        out.extend(["--set", item])
    return out


def test_parse_spec_text_round_trip():
    spec = parse_spec_text(
        """
        # comment
        seed = 9
        data.num_categories = 5
        data.separation = 2.5   # trailing comment
        train.variant = T
        train.hidden = 32,16
        """
    )
    assert spec.seed == 9
    assert spec.data.num_categories == 5
    assert spec.data.separation == 2.5
    assert spec.train.variant == "T"
    assert spec.train.hidden == (32, 16)


def _config_values(cls):
    """Random values for every spec field of a config class, by the type of its default."""
    kinds = {
        int: st.integers(-10**9, 10**9),
        float: st.floats(allow_nan=False, allow_infinity=False),
        str: st.sampled_from(VARIANTS),
    }
    fields = {}
    for f in dataclasses.fields(cls):
        if f.name == "seed":
            continue  # a top-level key, not train.seed
        default = getattr(cls(), f.name)
        if isinstance(default, tuple):
            fields[f.name] = st.lists(kinds[type(default[0])], max_size=3).map(tuple)
        else:
            fields[f.name] = kinds[type(default)]
    return st.fixed_dictionaries(fields)


def _render(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_render(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@settings(max_examples=100, deadline=None)
@given(_config_values(DataConfig), _config_values(TrainConfig), st.integers(-10**9, 10**9))
def test_spec_text_and_overrides_parse_to_the_same_spec(data, train, seed):
    expected = ExperimentSpec(DataConfig(**data), TrainConfig(**train), seed=seed)
    items = [("seed", seed)] + [(f"data.{k}", v) for k, v in data.items()] \
        + [(f"train.{k}", v) for k, v in train.items()]
    text = "\n".join(f"{key} = {_render(value)}" for key, value in items)
    assert parse_spec_text(text) == expected
    assert load_spec(None, [f"{key}={_render(value)}" for key, value in items]) == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.spec"
        path.write_text(text)
        assert load_spec(str(path), []) == expected


def test_parse_spec_rejects_unknown_keys():
    with pytest.raises(ContractError):
        parse_spec_text("data.bogus = 1")
    with pytest.raises(ContractError):
        parse_spec_text("train.seed = 4")  # seed is top-level only
    with pytest.raises(ContractError):
        parse_spec_text("just a line")


@pytest.mark.parametrize("item", [
    "just a line", "data.bogus = 1", "bogus = 1", "train.seed = 4", "train.epochs = many",
    "train.hidden = 8,wide", "seed = 1.5",
])
def test_malformed_items_fail_alike_from_spec_file_and_set(tmp_path, item):
    path = tmp_path / "bad.spec"
    path.write_text(f"# header\n{item}\n")
    with pytest.raises(ContractError, match="^line 2: ") as from_file:
        load_spec(str(path), [])
    with pytest.raises(ContractError, match="^--set: ") as from_set:
        load_spec(None, [item.replace(" ", "")])
    assert type(from_file.value) is type(from_set.value)
    assert main(["train", "--set", item.replace(" ", ""), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_load_spec_applies_overrides(tmp_path):
    path = tmp_path / "exp.spec"
    path.write_text("seed = 3\ntrain.epochs = 7\n")
    spec = load_spec(str(path), ["train.epochs=9", "data.dim=6"])
    assert spec.seed == 3
    assert spec.train.epochs == 9
    assert spec.data.dim == 6


def test_shipped_default_spec_parses():
    spec = load_spec(str(Path(__file__).parent.parent / "configs" / "default.spec"), [])
    assert spec.data.num_categories == 4
    assert spec.data.dim == 8
    assert spec.data.separation == 3.0
    assert spec.data.angle == pytest.approx(np.pi / 4)
    assert spec.train.queue_size == 100
    assert spec.train.tau_base == 0.07
    assert spec.train.encoder_momentum == 0.995


def test_unknown_override_key_exits_nonzero(tmp_path, capsys):
    rc = main(["train", "--set", "train.nope=1", "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_diverging_run_exits_nonzero_by_name(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["train", "--out", str(out), "--set", "train.learning_rate=1e4",
            "--set", "train.epochs=7", "--set", "data.n_per_class=100"]
    with np.errstate(all="ignore"):
        assert main(argv) == 1
    assert "training diverged at epoch" in capsys.readouterr().err
    assert not out.exists()  # a failed run leaves no directory behind


def test_overflowing_encoder_exits_as_divergence(tmp_path, capsys):
    # no warm-up: the encoders' outputs overflow before any loss does, and
    # the run is named diverged, not by the first check the overflow trips
    argv = ["train", "--spec", str(Path(__file__).resolve().parents[1] / "configs" / "default.spec"),
            "--out", str(tmp_path)]
    for item in ("train.warmup_epochs=0", "train.learning_rate=1e4",
                 "data.n_per_class=100", "train.epochs=7"):
        argv += ["--set", item]
    with np.errstate(all="ignore"):
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert re.search(r"training diverged at epoch \d+, step \d+: .*norm is not finite", err)
    assert not (tmp_path / "metrics.jsonl").exists()


def test_train_writes_run_files(tmp_path):
    out = tmp_path / "run"
    rc = main(["train", "--out", str(out)] + fast_args())
    assert rc == 0
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert {"epoch", "loss_sup", "loss_catnce", "target_accuracy",
            "target_mean_class_accuracy", "pseudo_label_churn",
            "dictionary_warm"} <= set(record)
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["variant"] == "full"
    model = load_checkpoint(out / "model.ckpt")
    assert model.num_categories == 3
    keys = [json.loads(l) for l in (out / "keys.jsonl").read_text().splitlines()]
    assert len(keys) == 3 * 4  # warm dictionary dumped at end of training
    assert {k["category"] for k in keys} == {1, 2, 3}


def test_train_epochs_zero_emits_header_only(tmp_path):
    out = tmp_path / "noop"
    rc = main(["train", "--out", str(out)] + fast_args("train.epochs=0"))
    assert rc == 0
    assert (out / "metrics.jsonl").read_text() == ""
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 1 and summary[0].startswith("variant,")


def test_cli_runs_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--out", str(out1)] + fast_args()) == 0
    assert main(["train", "--out", str(out2)] + fast_args()) == 0
    assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
    assert (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()
    assert (out1 / "keys.jsonl").read_bytes() == (out2 / "keys.jsonl").read_bytes()


def test_train_multiple_seeds_use_subdirectories(tmp_path):
    out = tmp_path / "multi"
    rc = main(["train", "--out", str(out), "--seeds", "4,5"] + fast_args())
    assert rc == 0
    assert (out / "seed_4" / "metrics.jsonl").exists()
    assert (out / "seed_5" / "model.ckpt").exists()
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["seed"] for r in rows] == ["4", "5"]


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("seeds, message", [
    (",", "no seed"),
    ("1,x", "'x' is not an integer seed"),
    ("1,01", "seed 1 is listed twice"),
])
def test_bad_seed_lists_exit_before_any_run(tmp_path, capsys, command, seeds, message):
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--seeds", seeds] + fast_args()) == 1
    assert f"error: --seeds: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("item, message", [
    ("--set=data.dim=1", "dim must be at least 2"),
    ("--set=seed=-3", "seed must be non-negative, got -3"),
    ("--seeds=-1", "seed must be non-negative, got -1"),
    ("--set=train.learning_rate=nan", "learning_rate must be finite"),
    # an odd key batch is invalid for the full variant only, which ablate runs last
    ("--set=train.key_batch_size=7", "odd key batch of 7"),
    ("--set=train.hidden=", "hidden must list one or more positive widths, got ()"),
    ("--set=train.hidden=0", "hidden must list one or more positive widths, got (0,)"),
    ("--set=train.embed_dim=1", "embed_dim must be at least 2, got 1"),
])
def test_invalid_configs_exit_before_any_run_directory(tmp_path, capsys, command, item, message):
    out = tmp_path / "out"
    assert main([command, "--out", str(out)] + fast_args() + [item]) == 1
    err = capsys.readouterr().err
    assert "error: " in err and message in err and "diverged" not in err
    assert not out.exists()


def test_ablate_comparison_csv_shape(tmp_path):
    out = tmp_path / "ablation"
    rc = main(["ablate", "--out", str(out), "--seeds", "1,2"] + fast_args())
    assert rc == 0
    with open(out / "comparison.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 2
    assert [r["variant"] for r in rows] == ["baseline"] * 2 + ["S"] * 2 + ["T"] * 2 + ["full"] * 2
    assert (out / "baseline" / "seed_1" / "metrics.jsonl").exists()
    assert (out / "full" / "seed_2" / "model.ckpt").exists()


def _summary_rows(path, every_column=False):
    with open(path) as fh:
        return [{k: v for k, v in row.items() if every_column or k != "wall_clock_s"}
                for row in csv.DictReader(fh)]


def test_ablate_run_directories_equal_train_runs(tmp_path):
    out = tmp_path / "ablation"
    assert main(["ablate", "--out", str(out), "--seeds", "1,2"] + fast_args()) == 0
    for variant in VARIANTS:
        for seed in (1, 2):
            run = out / variant / f"seed_{seed}"
            alone = tmp_path / f"{variant}_{seed}"
            assert main(["train", "--out", str(alone), "--seeds", str(seed),
                         "--set", f"train.variant={variant}"] + fast_args()) == 0
            assert sorted(p.name for p in run.iterdir()) == sorted(p.name for p in alone.iterdir())
            for name in ("model.ckpt", "metrics.jsonl", "keys.jsonl"):
                assert (run / name).read_bytes() == (alone / name).read_bytes(), (run, name)
            assert _summary_rows(run / "summary.csv") == _summary_rows(alone / "summary.csv")


GOLDEN_SPEC = Path(__file__).resolve().parents[1] / "configs" / "default.spec"
GOLDEN_SHORT = ("data.n_per_class=100", "train.epochs=7", "train.queue_size=10")


# test_ablate_run_directories_equal_train_runs is the case without a warm-up
@pytest.mark.parametrize("extra, seeds, shared", [
    ((), "1,2", True),                        # the golden spec: five warm-up epochs of seven
    (("train.epochs=5",), "1", True),         # the run ends with its warm-up
    (("train.epochs=3",), "1", False),        # the run ends inside its warm-up
    (("train.epochs=0",), "1", False),
], ids=["golden", "warmup_is_every_epoch", "warmup_outlasts_run", "zero_epochs"])
def test_ablate_runs_share_warmups_and_equal_train_runs(tmp_path, monkeypatch, extra, seeds, shared):
    import caco.train

    evaluated = []
    real = caco.train.evaluate
    monkeypatch.setattr(caco.train, "evaluate", lambda *a: evaluated.append(1) or real(*a))
    spec = ["--spec", str(GOLDEN_SPEC)]
    for item in GOLDEN_SHORT + extra:
        spec += ["--set", item]
    out = tmp_path / "ablation"
    assert main(["ablate", "--out", str(out), "--seeds", seeds] + spec) == 0
    config = load_spec(str(GOLDEN_SPEC), list(GOLDEN_SHORT + extra)).train
    seed_list = seeds.split(",")
    unshared = len(VARIANTS) * config.epochs
    # each seed's baseline trains the warm-up once; S, T and full restore it
    assert len(evaluated) == len(seed_list) * (
        unshared - 3 * config.warmup_epochs if shared else unshared)
    for variant in VARIANTS:
        for seed in seed_list:
            run = out / variant / f"seed_{seed}"
            alone = tmp_path / f"{variant}_{seed}"
            assert main(["train", "--out", str(alone), "--seeds", seed,
                         "--set", f"train.variant={variant}"] + spec) == 0
            for name in ("model.ckpt", "metrics.jsonl", "keys.jsonl"):
                assert (run / name).read_bytes() == (alone / name).read_bytes(), (run, name)
            assert _summary_rows(run / "summary.csv") == _summary_rows(alone / "summary.csv")


def test_oversized_key_batch_exits_before_any_run_directory(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["train", "--out", str(out), "--set", "train.key_batch_size=5000",
            "--set", "train.epochs=1"]
    assert main(argv) == 1
    assert "error: a key batch of 5000 draws more rows than the pair holds" in capsys.readouterr().err
    assert not out.exists()


def test_zero_epoch_runs_fill_comparison_but_not_summary(tmp_path):
    out = tmp_path / "ablation"
    assert main(["ablate", "--out", str(out), "--seeds", "1,2"] + fast_args("train.epochs=0")) == 0
    rows = _summary_rows(out / "comparison.csv", every_column=True)
    assert [(r["variant"], r["seed"], r["epochs"]) for r in rows] == [
        (v, s, "0") for v in VARIANTS for s in ("1", "2")]
    assert {r["target_accuracy"] for r in rows} == {""}
    multi = tmp_path / "multi"
    assert main(["train", "--out", str(multi), "--seeds", "4,5"] + fast_args("train.epochs=0")) == 0
    assert (multi / "summary.csv").read_text().splitlines() == [",".join(SUMMARY_FIELDS)]
    assert (multi / "seed_4" / "summary.csv").read_text() == (multi / "summary.csv").read_text()


def test_export_embeddings_builds_each_pair_once(tmp_path, monkeypatch):
    import caco.cli

    built = []

    def counting(config, seed):
        built.append(seed)
        return build_domain_pair(config, seed)

    monkeypatch.setattr(caco.cli, "build_domain_pair", counting)
    out = tmp_path / "embed"
    assert main(["export-embeddings", "--out", str(out), "--seeds", "1,2"] + fast_args()) == 0
    assert built == [1, 2]
    assert all((out / f"seed_{s}" / "embeddings.csv").exists() for s in (1, 2))


def test_gradcheck_passes_on_defaults(capsys):
    rc = main(["gradcheck", "--instances", "5"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in captured
    worst = max(
        float(line.rsplit("=", 1)[1].split()[0])
        for line in captured.splitlines() if "max_relative_error=" in line
    )
    assert worst <= 1e-4


@pytest.mark.parametrize("flag, value, message", [
    ("--instances", "0", "instances must be at least 1, got 0"),
    ("--seed", "-1", "seed must be non-negative, got -1"),
])
def test_gradcheck_rejects_invalid_arguments_by_name(capsys, flag, value, message):
    # --instances 0 used to check no instance in three suites and print PASS
    assert main(["gradcheck", flag, value]) == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err and "PASS" not in captured.out


def test_export_embeddings(tmp_path):
    out = tmp_path / "embed"
    rc = main(["export-embeddings", "--out", str(out)] + fast_args())
    assert rc == 0
    with open(out / "embeddings.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 3 * 30  # source + target
    assert {r["domain"] for r in rows} == {"source", "target"}
    assert set(rows[0]) == {"e1", "e2", "e3", "e4", "y", "domain"}
    vec = np.array([float(rows[0][f"e{i}"]) for i in range(1, 5)])
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9
