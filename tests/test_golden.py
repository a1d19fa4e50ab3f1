"""Golden hashes: the run files of a short default-spec run, byte for byte.

A refactor of the training path must leave these bytes alone. A change
that moves them on purpose is a behaviour change: it re-records the
hashes below and says why.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import pytest

from caco.cli import main

SPEC = Path(__file__).resolve().parents[1] / "configs" / "default.spec"
OVERRIDES = ("data.n_per_class=100", "train.epochs=7", "train.queue_size=10")
FILES = ("metrics.jsonl", "keys.jsonl", "model.ckpt")

# the OpenBLAS core type the hashes were recorded under; another core's
# kernels round some matrix products differently
GOLDEN_CORE = "SkylakeX"

GOLDEN = {
    "baseline": {
        "metrics.jsonl": "869c94328bb40d01d3eee9523c1333f1debe8f8471b66bd661c36d6cf3d64758",
        "keys.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "model.ckpt": "babbec64d94598c21dee5239a3449d5cfca1596c0a75051ac46b0c38d2991f25",
    },
    "S": {
        "metrics.jsonl": "8057bfbac3e53b8d9e9640a15f80d0d7f6d2f58457a66b7b850d653c663a7720",
        "keys.jsonl": "07e5049298a9ede05d3e46b02573a100f19075fc2949a251be55f24d977250e7",
        "model.ckpt": "068c869f7d1fc75dbfd76fb4111c8558e1a6d13f3ffe5b51ab3557c1d4726278",
    },
    "T": {
        "metrics.jsonl": "10c54d2a9e311d5a723b1fa2d8c12629060734d0e36d6c7ce4b38876050d9703",
        "keys.jsonl": "268c0ed413d07ba4567c6feb054cfa15eaa5cc0e747d9ff26050ed5b4ce1e165",
        "model.ckpt": "a04100e74db9c50815275fa4b7af2d43ea6ff1901f3fe74cf7ec5aafb7131ac3",
    },
    "full": {
        "metrics.jsonl": "3f8084084d14e01ed858d15c933ca368d66a9395dde30e197744b3407555d65a",
        "keys.jsonl": "223cf107ff1077f33d8666f4110ebba5773c9a14851db05c590f8b3cd10a0bf8",
        "model.ckpt": "8422479ddd610ae064e828681a366feb1e171828679ff5fc08b462993e7dd0c9",
    },
}


def _openblas_core() -> str:
    """The core type of the OpenBLAS loaded in this process, or "unknown"."""
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    try:
        corename = ctypes.CDLL(paths[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):  # no OpenBLAS, or not scipy-openblas's
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _train(out: Path, variant: str) -> None:
    argv = ["train", "--spec", str(SPEC), "--out", str(out), "--set", f"train.variant={variant}"]
    for item in OVERRIDES:
        argv += ["--set", item]
    assert main(argv) == 0


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_run_files_match_golden_hashes(tmp_path, variant):
    _train(tmp_path, variant)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in FILES}
    assert got == GOLDEN[variant], (
        f"hashes recorded under core {GOLDEN_CORE}; this process runs core {_openblas_core()}")


def test_golden_full_run_reaches_the_contrastive_loss(tmp_path):
    # seven epochs pass the five warm-up epochs, so cat_nce is in the hashed bytes
    _train(tmp_path, "full")
    last = json.loads((tmp_path / "metrics.jsonl").read_text().splitlines()[-1])
    assert last["loss_catnce"] is not None
