"""The benchmark's tracer (``perfbench/spans.py``) still fits the package.

The tracer patches module attributes by name and counts bootstrap
replicates as the estimator calls made inside each ``bootstrap_se`` call,
less the first, which estimates the full sample. A refactor that renames a
traced attribute or changes how often an estimator is called breaks the
benchmark; these tests make it break the suite too. ``spans.py`` is loaded
from its file and not changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from seasondid.cli import EXIT_OK, main

from test_cli import workspace  # noqa: F401  (fixture: simulated data, reps 25, two tasks)

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
REPS = 25  # RUN_CFG in test_cli


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "command,manifest", [("run", "manifest.json"), ("pretrend", "pretrend_manifest.json")]
)
def test_traced_replicates_match_the_cli_output(spans, workspace, command, manifest):  # noqa: F811
    _, _, run_cfg, out = workspace
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        for owner, attribute, _ in tracer._patches:
            assert getattr(owner, attribute).__name__ == "traced", (owner, attribute)
        assert main([command, "--config", str(run_cfg)]) == EXIT_OK
    finally:
        tracer.restore()

    statuses = [s["status"] for s in json.loads((out / manifest).read_text())["tasks"]]
    assert statuses == ["ok", "ok"]
    metrics = spans.layer_metrics(tracer.spans, 1.0, spans.task_seconds(tracer.spans))
    assert metrics["did.replicates"] == REPS * len(statuses)
    assert metrics["did.replicate_failures"] == 0
    assert metrics["pipeline.tasks"] == len(statuses)
