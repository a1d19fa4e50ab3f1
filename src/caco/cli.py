"""Experiment runner.

Usage:
    caco train --spec configs/default.spec --out runs/full
    caco ablate --spec configs/default.spec --out runs/ablation --seeds 1,2,3,4,5
    caco gradcheck
    caco export-embeddings --spec configs/default.spec --out runs/embed

Spec files are flat key = value text with one dotted namespace level
(data.* and train.*) plus top-level seed and out; '#' starts a comment.
Every value can be overridden on the command line with --set key=value;
spec lines and --set items go through the same parser.

train, ablate and export-embeddings share one run loop. It trains each
(variant, seed) of the command into its own run directory: OUT for one
seed, OUT/seed_N for several, and OUT/<variant>/seed_N under ablate, which
runs every variant. Each run directory holds metrics.jsonl, keys.jsonl,
model.ckpt and summary.csv. On top of that, train with several seeds
writes OUT/summary.csv (finished runs only), ablate writes
OUT/comparison.csv (one row per variant and seed) and export-embeddings
writes embeddings.csv into each run directory. All outputs are
reproducible byte-for-byte from (spec, overrides, seeds), except the
wall_clock_s column of the two CSVs. The runs of one seed train the steps
they have in common once, with the bytes of fresh runs. Under ablate the
baseline trains the supervised warm-up that all four variants share. S
restores it and goes on until its dictionary's queues are all full; up to
there T and full, which fill cold queues from source keys too, train the
same steps, so they restore S's state at that point.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import sys
from pathlib import Path

from .data import DataConfig, DomainPair, build_domain_pair
from .errors import CacoError, ContractError, ParameterError
from .gradcheck import DEFAULT_TOLERANCE, run_all
from .model import CacoModel, embed, save_checkpoint
from .train import (
    VARIANTS,
    RunMetrics,
    TrainConfig,
    check_key_batch_fits,
    train_caco,
    train_source_only,
)


@dataclasses.dataclass
class ExperimentSpec:
    data: DataConfig
    train: TrainConfig
    seed: int = 1
    out: str = ""  # empty: the command's own default directory


# ---------------------------------------------------------------------------
# Spec files and overrides
# ---------------------------------------------------------------------------


def _coerce(raw: str, current):
    """raw converted to the type of the field's current value: a tuple of its kind, or a scalar."""
    if isinstance(current, tuple):
        kind = type(current[0]) if current else float
        return tuple(kind(p) for p in raw.split(",") if p.strip())
    return type(current)(raw)


def _apply_item(spec: ExperimentSpec, item: str, where: str) -> None:
    """Set one `key = value` item, a spec-file line or a --set value, on spec."""
    key, eq, raw = (part.strip() for part in item.partition("="))
    if not eq:
        raise ContractError(f"{where}: expected key = value, got {item!r}")
    if key in ("seed", "out"):
        target, name = spec, key
    else:
        scope, _, name = key.partition(".")
        target = {"data": spec.data, "train": spec.train}.get(scope)
        names = {f.name for f in dataclasses.fields(target)} - {"seed"} if target else set()
        if name not in names:  # seed is a top-level key only
            raise ContractError(f"{where}: unknown spec key {key!r}")
    try:
        setattr(target, name, _coerce(raw, getattr(target, name)))
    except ValueError as exc:
        raise ContractError(f"{where}: bad value for {key}: {raw!r}") from exc


def parse_spec_text(text: str, spec: ExperimentSpec | None = None) -> ExperimentSpec:
    spec = spec or ExperimentSpec(DataConfig(), TrainConfig())
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if line:
            _apply_item(spec, line, f"line {lineno}")
    return spec


def load_spec(path: str | None, overrides: list[str]) -> ExperimentSpec:
    spec = ExperimentSpec(DataConfig(), TrainConfig())
    if path is not None:
        spec = parse_spec_text(Path(path).read_text(), spec)
    for item in overrides:
        _apply_item(spec, item, "--set")
    return spec


# ---------------------------------------------------------------------------
# Run plumbing
# ---------------------------------------------------------------------------

SUMMARY_FIELDS = ("variant", "seed", "epochs", "warm_epoch", "target_accuracy",
                  "mean_class_accuracy", "loss_sup", "loss_catnce", "wall_clock_s")


def _write_summary(path: Path, runs: list[RunMetrics], every_run: bool = False) -> None:
    """Header plus one row per run: finished runs only, or every run (zero-epoch ones too)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_FIELDS)
        for m in runs:
            if m.records or every_run:
                last = m.records[-1] if m.records else None
                final = [getattr(last, name, None) for name in (
                    "target_accuracy", "target_mean_class_accuracy", "loss_sup", "loss_catnce")]
                writer.writerow([m.variant, m.seed, len(m.records), m.warm_epoch,
                                 *final, round(m.wall_clock_s, 3)])


def _run_one(config: TrainConfig, pair: DomainPair, out_dir: Path, warmups: dict):
    """Train one run, then write its run directory; returns (model, metrics).

    The keys are dumped into memory first, so a run that fails makes no directory.
    """
    keys = io.StringIO()  # the baseline's stays empty
    if config.variant == "baseline":
        model, metrics = train_source_only(config, pair, warmups=warmups)
    else:
        model, metrics = train_caco(config, pair, keys_dump_fp=keys, warmups=warmups)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "keys.jsonl").write_text(keys.getvalue())
    with open(out_dir / "metrics.jsonl", "w") as fh:
        metrics.write_jsonl(fh)
    _write_summary(out_dir / "summary.csv", [metrics])
    save_checkpoint(out_dir / "model.ckpt", model)
    return model, metrics


def _seed_list(text: str) -> list[int]:
    """The seeds of a --seeds value; ParameterError for none, a non-integer or a repeat."""
    seeds: list[int] = []
    for item in filter(None, (part.strip() for part in text.split(","))):
        try:
            seed = int(item)
        except ValueError:
            raise ParameterError(f"--seeds: {item!r} is not an integer seed") from None
        if seed in seeds:
            raise ParameterError(f"--seeds: seed {seed} is listed twice")
        seeds.append(seed)
    if not seeds:
        raise ParameterError(f"--seeds: no seed in {text!r}")
    return seeds


def _run_all(args, default_out: str, report, variants: tuple[str, ...] = ()):
    """The run loop: every variant (the spec's own by default) and seed, in that order.

    Validates the data config, builds each seed's pair once and checks
    every run's training config against its pair, all before the first run
    directory is made. The runs of one seed share the steps they have in
    common: the end of warm-up, and for S, T and full the end of the cold
    dictionary fill (train_caco's ``warmups``, one dict per command). Calls
    report(run_dir, pair, model, metrics) after each run; returns the
    output directory and every run's metrics.
    """
    spec = load_spec(args.spec, args.set or [])
    out = Path(args.out or spec.out or default_out)
    seeds = [spec.seed] if args.seeds is None else _seed_list(args.seeds)
    spec.data.validate()
    configs = [dataclasses.replace(spec.train, variant=variant, seed=seed)
               for variant in variants or (spec.train.variant,) for seed in seeds]
    for config in configs:
        config.validate()
    pairs = {seed: build_domain_pair(spec.data, seed) for seed in seeds}
    for config in configs:
        check_key_batch_fits(config, pairs[config.seed])
    warmups: dict = {}
    finished = []
    for config in configs:
        run_dir = out / config.variant / f"seed_{config.seed}" if variants else (
            out / f"seed_{config.seed}" if len(seeds) > 1 else out)
        pair = pairs[config.seed]
        model, metrics = _run_one(config, pair, run_dir, warmups)
        report(run_dir, pair, model, metrics)
        finished.append(metrics)
    return out, finished


def _export_embeddings(path: Path, model: CacoModel, pair: DomainPair) -> None:
    """Final query-encoder embeddings with labels and domain tags, for plotting."""
    dim = model.mlp_spec.embed_dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"e{i + 1}" for i in range(dim)] + ["y", "domain"])
        for domain, x, y in (("source", pair.source_x, pair.source_y),
                             ("target", pair.target_x, pair.evaluation_labels())):
            for row, label in zip(embed(model.encoders.query, x), y.tolist()):
                writer.writerow([repr(float(v)) for v in row] + [label, domain])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_train(args) -> int:
    def report(run_dir, pair, model, metrics):
        acc = metrics.final_accuracy
        print(f"{metrics.variant} seed={metrics.seed} epochs={len(metrics.records)} "
              f"target_accuracy={'n/a' if acc is None else f'{acc:.4f}'}")

    out, runs = _run_all(args, "runs/train", report)
    if len(runs) > 1:
        _write_summary(out / "summary.csv", runs)
    return 0


def _cmd_ablate(args) -> int:
    def report(run_dir, pair, model, metrics):
        print(f"{metrics.variant} seed={metrics.seed} target_accuracy={metrics.final_accuracy}")

    out, runs = _run_all(args, "runs/ablation", report, VARIANTS)
    _write_summary(out / "comparison.csv", runs, every_run=True)
    print(f"wrote {out / 'comparison.csv'} ({len(runs)} rows)")
    return 0


def _cmd_export_embeddings(args) -> int:
    def report(run_dir, pair, model, metrics):
        _export_embeddings(run_dir / "embeddings.csv", model, pair)
        print(f"wrote {run_dir / 'embeddings.csv'}")

    _run_all(args, "runs/export", report)
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_all(instances=args.instances, seed=args.seed)
    worst = max(results.values())
    for name, err in results.items():
        print(f"{name}: max_relative_error={err:.3e}")
    status = "PASS" if worst <= DEFAULT_TOLERANCE else "FAIL"
    print(f"overall: max_relative_error={worst:.3e} tolerance={DEFAULT_TOLERANCE:.0e} {status}")
    return 0 if worst <= DEFAULT_TOLERANCE else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="caco", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", help="path to a key = value spec file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a spec value (repeatable)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seeds", help="comma-separated seed list")
        return p

    for name, func, text in (
        ("train", _cmd_train, "run one training configuration"),
        ("ablate", _cmd_ablate, "baseline, S, T and full over a seed list"),
        ("export-embeddings", _cmd_export_embeddings, "train, then dump embeddings as CSV"),
    ):
        common(sub.add_parser(name, help=text)).set_defaults(func=func)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_grad.add_argument("--instances", type=int, default=50)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CacoError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
