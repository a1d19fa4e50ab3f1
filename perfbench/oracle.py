"""Output oracle: a digest of what a repetition wrote, checked against references.

The digest covers, for every run directory under the output directory:
the model.ckpt bytes, the fields every keys.jsonl record has today and the
per-epoch fields metrics.jsonl has today; for a sweep also comparison.csv
without its wall_clock_s column. Fields added later are ignored, so a
change may add some; a field that goes missing fails the check.

reference.json maps a workload signature and an input (its run seeds) to
the digest the code produced when the references were made. An input
without a reference is checked against an earlier repetition of itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

KEY_FIELDS = ("category", "domain", "age", "temperature", "vector")
EPOCH_FIELDS = (
    "epoch", "loss_sup", "loss_catnce", "target_accuracy", "target_mean_class_accuracy",
    "pseudo_label_churn", "dictionary_warm",
)
COMPARISON_FIELDS = (
    "variant", "seed", "epochs", "warm_epoch", "target_accuracy", "mean_class_accuracy",
    "loss_sup", "loss_catnce",
)


class OutputMismatch(Exception):
    """A repetition's outputs differ from the reference or from an earlier repetition."""


def clear(out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)


def _jsonl_fields(path: Path, fields: tuple[str, ...]) -> bytes:
    lines = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        lines.append(json.dumps({f: record[f] for f in fields}, sort_keys=True))
    return "\n".join(lines).encode()


def _csv_fields(path: Path, fields: tuple[str, ...]) -> bytes:
    with open(path, newline="") as fh:
        rows = [[row[f] for f in fields] for row in csv.DictReader(fh)]
    return json.dumps(rows).encode()


def digest(out: Path) -> str:
    """Digest of every run directory (one holding model.ckpt) under ``out``."""
    h = hashlib.sha256()

    def part(label: str, data: bytes) -> None:
        h.update(f"{label}:{len(data)}:".encode())
        h.update(data)

    run_dirs = sorted(p.parent for p in out.rglob("model.ckpt"))
    if not run_dirs:
        raise OutputMismatch(f"no model.ckpt under {out}")
    for run_dir in run_dirs:
        rel = run_dir.relative_to(out).as_posix()
        part(f"{rel}/model.ckpt", (run_dir / "model.ckpt").read_bytes())
        part(f"{rel}/keys.jsonl", _jsonl_fields(run_dir / "keys.jsonl", KEY_FIELDS))
        part(f"{rel}/metrics.jsonl", _jsonl_fields(run_dir / "metrics.jsonl", EPOCH_FIELDS))
    comparison = out / "comparison.csv"
    if comparison.exists():
        part("comparison.csv", _csv_fields(comparison, COMPARISON_FIELDS))
    return h.hexdigest()[:32]


def input_key(seeds: tuple[int, ...]) -> str:
    return ",".join(str(s) for s in seeds)


def load_references() -> dict[str, dict[str, str]]:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


class Oracle:
    """Checks each repetition's digest; counts how each check was made."""

    def __init__(self, signature: str):
        self.expected = load_references().get(signature, {})
        self.seen: dict[str, str] = {}
        self.checks = {"reference": 0, "repeat": 0, "first": 0}

    def check(self, seeds: tuple[int, ...], found: str) -> None:
        key = input_key(seeds)
        if key in self.expected:
            self.checks["reference"] += 1
            want, against = self.expected[key], "the reference"
        elif key in self.seen:
            self.checks["repeat"] += 1
            want, against = self.seen[key], "an earlier repetition"
        else:
            self.checks["first"] += 1
            want = against = None
        self.seen.setdefault(key, found)
        if want is not None and found != want:
            raise OutputMismatch(f"input {key}: digest {found} differs from {against} ({want})")
