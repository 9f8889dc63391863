"""Smoke test of the benchmark harness on the quadratic suite (about 1 s).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import oed.algorithms  # noqa: E402
import oed.runner  # noqa: E402
from oed.bench import suite_configs  # noqa: E402
from oed.config import ProblemConfig  # noqa: E402
from oed.gp import GPState  # noqa: E402
from oed.models import ModelHandle  # noqa: E402

import harness  # noqa: E402
from tracer import _model_classes  # noqa: E402

# Every layer the benchmark reports must be seen on the quadratic suite.
NONZERO = [
    "models.jacobian.s", "models.jacobian.calls", "models.jacobian.points",
    "designs.phi_scan.s", "designs.phi_scan.calls", "designs.phi_scan.rows",
    "designs.fisher.s", "designs.criterion.s",
    "weights.s", "weights.calls", "weights.candidates", "weights.iterations",
    "gp.alpha_cv.s", "gp.alpha_cv.calls", "gp.lml.s", "gp.lml.calls",
    "gp.lml.train_points", "gp.fit.s", "gp.fit.calls",
    "acquisition.s", "acquisition.calls", "acquisition.posterior_calls",
    "algorithms.self_s", "algorithms.iterations", "report.s", "report.bytes",
    "config.s", "trace.spans",
]


@pytest.fixture()
def configs():
    runs = suite_configs("quadratic", 0)
    for _, config in runs:
        # VDM stays within the 2e-3 agreement check; ADA-GPR does one GP
        # and acquisition round.
        config.max_iterations = {"vdm": 1000, "adagpr": 1}.get(
            config.algorithm, config.max_iterations)
    return runs


def _patchable():
    owners = [oed.algorithms, oed.runner, ProblemConfig, GPState,
              *_model_classes(ModelHandle)]
    return {owner: dict(vars(owner)) for owner in owners}


def test_traced_pass_sees_every_layer_and_unwraps(configs, tmp_path):
    before = _patchable()
    spans = tmp_path / "spans.jsonl"
    runs, metrics, errors, _ = harness.traced(
        configs, "quadratic", 0.0, tmp_path, spans, {"workload": "smoke"})

    assert errors == []
    assert [r.error for r in runs] == [None] * len(runs)
    missing = [name for name in NONZERO if not metrics[name][0] > 0]
    assert missing == []
    assert 0.0 <= metrics["acquisition.hit_ratio"][0] <= 1.0
    lines = spans.read_text().splitlines()
    assert json.loads(lines[0])["workload"] == "smoke"
    assert len(lines) - 1 == metrics["trace.spans"][0]
    assert _patchable() == before


def test_untraced_measure_reports_end_to_end_metrics(configs, tmp_path):
    runs, figures, _ = harness.measure(configs, "quadratic", 0.0, tmp_path)
    metrics = harness.end_to_end(runs, figures, setup_s=1.0)

    assert [r.error for r in runs] == [None] * len(runs)
    assert metrics["ok_share"][0] == 1.0
    assert metrics["jacobian_evals"][0] > 0
    assert 0.0 < metrics["d_eff"][0] <= 1.0 + 1e-9
    assert 0.0 < metrics["cert_eff"][0] <= 1.0 + 1e-9


@pytest.mark.parametrize("corrupt", [
    lambda design: design.replace(",", ";"),
    lambda design: design.rsplit(",", 1)[0] + ",2\n",
])
def test_report_check_rejects_corrupt_design(configs, tmp_path, corrupt):
    ybt = next(c for _, c in configs if c.algorithm == "ybt")
    _, paths = oed.runner.run_and_emit(ybt, tmp_path)
    harness._read_report(paths)
    paths["design"].write_text(corrupt(paths["design"].read_text()))
    with pytest.raises(harness.CheckFailed):
        harness._read_report(paths)
