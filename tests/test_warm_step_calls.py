"""tools/warm_step_calls.py: exact call counts per step, the same on every run."""

import importlib.util
import sys
from pathlib import Path

from test_golden import OVERRIDES, SPEC

TOOL = Path(__file__).resolve().parents[1] / "tools" / "warm_step_calls.py"


def _tool():
    spec = importlib.util.spec_from_file_location("warm_step_calls", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_are_positive_repeat_exactly_and_restore_the_profile_function():
    tool = _tool()

    def outer(frame, event, arg):
        return None

    before = sys.getprofile()
    sys.setprofile(outer)
    try:
        # the golden spec, 2 epochs against 1
        first = tool.step_calls(SPEC, "full", 2, OVERRIDES)
        second = tool.step_calls(SPEC, "full", 2, OVERRIDES)
        found = sys.getprofile()
    finally:
        sys.setprofile(before)
    assert found is outer
    steps, python, c = first
    assert steps == 13 and python.total() > 0 and c.total() > 0
    assert second == first
