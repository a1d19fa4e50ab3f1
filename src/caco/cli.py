"""Experiment runner.

Usage:
    caco train --spec configs/default.spec --out runs/full
    caco ablate --spec configs/default.spec --out runs/ablation --seeds 1,2,3,4,5
    caco gradcheck
    caco export-embeddings --spec configs/default.spec --out runs/embed

Spec files are flat key = value text with one dotted namespace level
(data.* and train.*) plus top-level seed and out; '#' starts a comment.
Every value can be overridden on the command line with --set key=value.
All outputs are reproducible byte-for-byte from (spec, overrides, seeds),
except the wall_clock_s column of summary.csv.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

from .data import DataConfig, DomainPair, build_domain_pair
from .errors import CacoError, ContractError
from .gradcheck import DEFAULT_TOLERANCE, run_all
from .model import CacoModel, embed, save_checkpoint
from .train import (
    RunMetrics,
    TrainConfig,
    train_caco,
    train_source_only,
    write_summary_csv,
)

ABLATION_VARIANTS = ("baseline", "S", "T", "full")


@dataclasses.dataclass
class ExperimentSpec:
    data: DataConfig
    train: TrainConfig
    seed: int = 1
    out: str | None = None


# ---------------------------------------------------------------------------
# Spec files and overrides
# ---------------------------------------------------------------------------


def _coerce(raw: str, current):
    if isinstance(current, bool):
        return raw.strip().lower() in ("1", "true", "yes")
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        parts = [p for p in raw.split(",") if p.strip()]
        kind = type(current[0]) if current else float
        return tuple(kind(p) for p in parts)
    return raw.strip()


def _assign(spec: ExperimentSpec, key: str, raw: str) -> None:
    scope, _, field = key.partition(".")
    if scope == "seed" and not field:
        spec.seed = int(raw)
        return
    if scope == "out" and not field:
        spec.out = raw.strip()
        return
    target = {"data": spec.data, "train": spec.train}.get(scope)
    if target is None or not field:
        raise ContractError(f"unknown spec key {key!r}")
    names = {f.name for f in dataclasses.fields(target)}
    if field not in names or field == "seed":
        raise ContractError(f"unknown spec key {key!r}")
    setattr(target, field, _coerce(raw, getattr(target, field)))


def parse_spec_text(text: str, spec: ExperimentSpec | None = None) -> ExperimentSpec:
    spec = spec or ExperimentSpec(DataConfig(), TrainConfig())
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        _assign(spec, key, raw)
    return spec


def load_spec(path: str | None, overrides: list[str]) -> ExperimentSpec:
    spec = ExperimentSpec(DataConfig(), TrainConfig())
    if path is not None:
        spec = parse_spec_text(Path(path).read_text(), spec)
    for item in overrides:
        if "=" not in item:
            raise ContractError(f"override must look like key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        _assign(spec, key, raw)
    return spec


# ---------------------------------------------------------------------------
# Run plumbing
# ---------------------------------------------------------------------------


def _run_one(spec: ExperimentSpec, seed: int, out_dir: Path) -> tuple[CacoModel, RunMetrics]:
    out_dir.mkdir(parents=True, exist_ok=True)
    pair = build_domain_pair(spec.data, seed)
    config = dataclasses.replace(spec.train, seed=seed)
    if config.variant == "baseline":
        model, metrics = train_source_only(config, pair)
        (out_dir / "keys.jsonl").write_text("")
    else:
        with open(out_dir / "keys.jsonl", "w") as fh:
            model, metrics = train_caco(config, pair, keys_dump_fp=fh)
    with open(out_dir / "metrics.jsonl", "w") as fh:
        metrics.write_jsonl(fh)
    write_summary_csv(out_dir / "summary.csv", [metrics])
    save_checkpoint(out_dir / "model.ckpt", model)
    return model, metrics


def _parse_seeds(arg: str | None, default_seed: int) -> list[int]:
    if not arg:
        return [default_seed]
    return [int(s) for s in arg.split(",") if s.strip()]


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
    spec = load_spec(args.spec, args.set or [])
    out = Path(args.out or spec.out or "runs/train")
    seeds = _parse_seeds(args.seeds, spec.seed)
    all_metrics = []
    for seed in seeds:
        run_dir = out if len(seeds) == 1 else out / f"seed_{seed}"
        _, metrics = _run_one(spec, seed, run_dir)
        all_metrics.append(metrics)
        acc = metrics.final_accuracy
        print(f"{spec.train.variant} seed={seed} epochs={len(metrics.records)} "
              f"target_accuracy={'n/a' if acc is None else f'{acc:.4f}'}")
    if len(seeds) > 1:
        out.mkdir(parents=True, exist_ok=True)
        write_summary_csv(out / "summary.csv", all_metrics)
    return 0


def _cmd_ablate(args) -> int:
    spec = load_spec(args.spec, args.set or [])
    out = Path(args.out or spec.out or "runs/ablation")
    out.mkdir(parents=True, exist_ok=True)
    seeds = _parse_seeds(args.seeds, spec.seed)
    rows = []
    for variant in ABLATION_VARIANTS:
        for seed in seeds:
            run_spec = dataclasses.replace(
                spec, train=dataclasses.replace(spec.train, variant=variant)
            )
            _, metrics = _run_one(run_spec, seed, out / variant / f"seed_{seed}")
            row = metrics.summary_row()
            rows.append(row)
            print(f"{variant} seed={seed} target_accuracy={row['target_accuracy']}")
    with open(out / "comparison.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RunMetrics.SUMMARY_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out / 'comparison.csv'} ({len(rows)} rows)")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_all(instances=args.instances, seed=args.seed)
    worst = max(results.values())
    for name, err in results.items():
        print(f"{name}: max_relative_error={err:.3e}")
    status = "PASS" if worst <= DEFAULT_TOLERANCE else "FAIL"
    print(f"overall: max_relative_error={worst:.3e} tolerance={DEFAULT_TOLERANCE:.0e} {status}")
    return 0 if worst <= DEFAULT_TOLERANCE else 1


def _cmd_export_embeddings(args) -> int:
    spec = load_spec(args.spec, args.set or [])
    out = Path(args.out or spec.out or "runs/export")
    seeds = _parse_seeds(args.seeds, spec.seed)
    for seed in seeds:
        run_dir = out if len(seeds) == 1 else out / f"seed_{seed}"
        model, _ = _run_one(spec, seed, run_dir)
        pair = build_domain_pair(spec.data, seed)
        _export_embeddings(run_dir / "embeddings.csv", model, pair)
        print(f"wrote {run_dir / 'embeddings.csv'}")
    return 0


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

    p_train = sub.add_parser("train", help="run one training configuration")
    common(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_ablate = sub.add_parser("ablate", help="baseline, S, T and full over a seed list")
    common(p_ablate)
    p_ablate.set_defaults(func=_cmd_ablate)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_grad.add_argument("--instances", type=int, default=50)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_exp = sub.add_parser("export-embeddings", help="train, then dump embeddings as CSV")
    common(p_exp)
    p_exp.set_defaults(func=_cmd_export_embeddings)
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
