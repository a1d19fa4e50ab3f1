"""Python and C calls per training step, counted exactly under sys.setprofile.

Trains one variant on configs/default.spec (data.angle = pi/6, seed 1) for
N = 8 epochs and again for N - 1, each run under a profile function, and
reports the difference per step of epoch N: its Python calls (generator
resumptions count, as each fires a call event) and its C calls, each with
its top 15 callees. The epoch's labelling and evaluation are spread over
its steps. An unprofiled (N - 1)-epoch run goes first, so that caches the
process fills once (abc's subclass checks, say) are full before anything
is counted; the counts then repeat exactly from run to run, unlike wall
time.

    PYTHONPATH=src python tools/warm_step_calls.py [--variant full]

Uses only the standard library and caco; any profile function already set
is restored afterwards.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from collections import Counter
from pathlib import Path

from caco.cli import load_spec
from caco.data import build_domain_pair
from caco.train import train_caco

DEFAULT_SPEC = Path(__file__).resolve().parents[1] / "configs" / "default.spec"
ANGLE = math.pi / 6
SEED = 1
EPOCHS = 8
TOP = 15


def profiled_calls(config, pair) -> tuple[Counter, Counter]:
    """Python and C calls of one train_caco run, each by callee."""
    python, c = Counter(), Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            python[f"{Path(code.co_filename).stem}.{code.co_qualname}"] += 1
        elif event == "c_call":
            module = getattr(arg, "__module__", None)
            name = getattr(arg, "__qualname__", repr(arg))
            c[f"{module}.{name}" if module else name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        train_caco(config, pair)
    finally:
        sys.setprofile(previous)
    return python, c


def step_calls(spec_path=DEFAULT_SPEC, variant: str = "full", epochs: int = EPOCHS,
               overrides: tuple[str, ...] = ()) -> tuple[int, Counter, Counter]:
    """(steps, Python calls, C calls) of the last of ``epochs`` epochs, by callee.

    The calls are an ``epochs``-epoch run's minus an (epochs - 1)-epoch run's,
    both counted after an unprofiled (epochs - 1)-epoch run.
    """
    spec = load_spec(str(spec_path), [f"data.angle={ANGLE!r}", *overrides])
    pair = build_domain_pair(spec.data, SEED)
    config = dataclasses.replace(spec.train, variant=variant, seed=SEED)
    shorter = dataclasses.replace(config, epochs=epochs - 1)
    train_caco(shorter, pair)
    python_before, c_before = profiled_calls(shorter, pair)
    python, c = profiled_calls(dataclasses.replace(config, epochs=epochs), pair)
    python.subtract(python_before)
    c.subtract(c_before)
    steps = -(-pair.source_x.shape[0] // config.batch_size)
    return steps, python, c


def _report(kind: str, calls: Counter, steps: int) -> None:
    print(f"{kind} calls per step: {calls.total() / steps:.1f}")
    for name, n in sorted(calls.items(), key=lambda item: (-item[1], item[0]))[:TOP]:
        print(f"  {n / steps:8.1f}  {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--variant", default="full")
    args = parser.parse_args(argv)
    steps, python, c = step_calls(variant=args.variant)
    print(f"variant {args.variant}, epoch {EPOCHS} of {DEFAULT_SPEC.name} "
          f"at angle pi/6, seed {SEED}: {steps} steps")
    _report("python", python, steps)
    _report("c", c, steps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
