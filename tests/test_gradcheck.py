"""The finite-difference suites themselves stay under tolerance."""

import numpy as np
import pytest

from caco.cli import main
from caco.errors import ParameterError
from caco.gradcheck import (
    _worst,
    draw_cat_nce,
    draw_encoder_path,
    draw_info_nce,
    draw_supervised_loss,
    run_all,
)


def test_each_suite_under_tolerance():
    rng = np.random.default_rng(0)
    assert _worst(draw_supervised_loss, 10, rng) <= 1e-4
    assert _worst(draw_info_nce, 10, rng) <= 1e-4
    assert _worst(draw_cat_nce, 10, rng) <= 1e-4
    assert _worst(draw_encoder_path, 3, rng) <= 1e-4


def test_run_all_reports_every_suite():
    results = run_all(instances=5, seed=1)
    assert set(results) == {"supervised_loss", "info_nce", "cat_nce", "encoder_path"}
    assert all(err <= 1e-4 for err in results.values())


def test_run_all_deterministic_per_seed():
    assert run_all(instances=5, seed=2) == run_all(instances=5, seed=2)


@pytest.mark.parametrize("kwargs, name", [
    ({"instances": 1.5}, "instances"),
    ({"seed": True}, "seed"),
])
def test_run_all_rejects_bad_arguments_by_name(kwargs, name):
    with pytest.raises(ParameterError, match=name):
        run_all(**kwargs)


def test_cli_gradcheck_output_is_pinned(capsys):
    # every suite's draws and arithmetic at the default seed and instance count
    assert main(["gradcheck"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "supervised_loss: max_relative_error=6.077e-11",
        "info_nce: max_relative_error=2.303e-09",
        "cat_nce: max_relative_error=5.676e-10",
        "encoder_path: max_relative_error=1.121e-08",
        "overall: max_relative_error=1.121e-08 tolerance=1e-04 PASS",
    ]


def test_encoder_path_redraws_degenerate_instances(monkeypatch):
    import caco.gradcheck as gc
    from caco.errors import DegenerateEmbeddingError

    real, calls = gc.gradient_error, []

    def silenced_first(loss_of, *arrays):
        calls.append(len(arrays))
        if len(calls) == 1:
            raise DegenerateEmbeddingError("every unit silenced")
        return real(loss_of, *arrays)

    monkeypatch.setattr(gc, "gradient_error", silenced_first)
    assert _worst(draw_encoder_path, 2, np.random.default_rng(0)) <= 1e-4
    assert calls == [6, 6, 6]  # one redraw, then two instances over all six parameter arrays
