"""The benchmark's tracer (``perfbench/spans.py``) still fits the package.

The tracer patches module attributes by name and counts bootstrap
replicates as the estimator calls made inside each ``bootstrap_se`` call,
less the first, which estimates the full sample, and failed replicates as
those calls that raised. It counts labelled and transformed rows as the
``len()`` of what ``label_panel`` and the two transforms return, and OLS
fits as the calls of ``did.fit_ols``, each pruning its design once: one
call per stack, the tasks of a unit of groups that share a bin design. A
refactor that renames a traced attribute, changes how often an estimator
is called or what those results count breaks the benchmark; these tests
make it break the suite too. ``spans.py`` is loaded from its file and not
changed.

The benchmark also reaches the package outside the tracer:
``perfbench/run.py`` clears and reads the caches of ``panel.label_week`` and
``panel.season_start_week``, and ``perfbench/child.py`` times the setup
calls of ``seasondid.cli`` by replacing ``read_prices``, ``expand_tasks``
and ``ProtectionCalendar``, the last with a namespace that holds only
``from_csv``. The last test does the same.
"""

import csv
import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

import oracles
from seasondid import IsoWeek, Outcome, PanelStore, PriceObservation, Quality
from seasondid.calendar import ProtectionCalendar
import seasondid.cli as cli
import seasondid.pipeline as pipeline
from seasondid import panel
from seasondid.cli import EXIT_OK, main
from seasondid.config import RunConfig, expand_tasks
from seasondid.ingest import read_prices

from test_cli import RUN_CFG, SIM_CFG, market_panel
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


# Weeks missing at random leave some (cell, season) groups thin: at this
# simulation seed both tasks succeed and a few of their IPW bootstrap
# replicates separate.
SPARSE_SIM_CFG = SIM_CFG + "missing_week_prob = 0.1\n"
SPARSE_SIM_SEED = "3"


def test_traced_replicate_failures_match_the_returned_estimates(spans, tmp_path, monkeypatch):
    data, out = tmp_path / "data", tmp_path / "out"
    sim_cfg, run_cfg = tmp_path / "sim.cfg", tmp_path / "run.cfg"
    sim_cfg.write_text(SPARSE_SIM_CFG)
    assert main(["simulate", "--config", str(sim_cfg), "--out", str(data),
                 "--seed", SPARSE_SIM_SEED]) == EXIT_OK
    run_cfg.write_text(RUN_CFG.format(prices=data / "prices.csv",
                                      calendar=data / "calendar.csv", out=out))
    returned = []

    def recording(*args, **kwargs):
        estimate = bootstrap_se(*args, **kwargs)
        returned.append(estimate)
        return estimate

    bootstrap_se = pipeline.bootstrap_se
    monkeypatch.setattr(pipeline, "bootstrap_se", recording)  # the tracer wraps the recorder
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert main(["run", "--config", str(run_cfg)]) == EXIT_OK
    finally:
        tracer.restore()

    statuses = [s["status"] for s in json.loads((out / "manifest.json").read_text())["tasks"]]
    assert statuses == ["ok", "ok"] and len(returned) == len(statuses)
    failures = sum(estimate.bootstrap_failures for estimate in returned)
    assert failures > 0, "the sparse panel no longer makes replicates fail"
    metrics = spans.layer_metrics(tracer.spans, 1.0, spans.task_seconds(tracer.spans))
    assert metrics["did.replicates"] == REPS * len(returned)
    assert metrics["did.replicate_failures"] == failures


def oracle_row_counts(run_cfg) -> tuple[int, int]:
    """Rows the row-level oracle labels and transforms for the batch, once
    per series spec and window product (and outcome), as a task group does
    for its markets when, as here, every task of a treated market is in one
    group: (labelled rows, transformed rows)."""
    config = RunConfig.from_file(run_cfg)
    with open(config.prices, newline="") as handle:
        observations = [
            PriceObservation(r["product"], Quality(r["quality"]), r["country"],
                             r["region"] or None, IsoWeek(int(r["year"]), int(r["iso_week"])),
                             float(r["price"]))
            for r in csv.DictReader(handle)
        ]
    calendar = ProtectionCalendar.from_csv(config.calendar)
    labeled, transformed = {}, {}
    for task in expand_tasks(config, store=PanelStore(observations)):
        for spec in (task.treated, task.control):
            key = (spec, task.treated.product)
            if key not in labeled:
                raw = oracles.rows_matching(observations, spec.product, spec.quality,
                                            spec.country, spec.region)
                labeled[key] = oracles.label_panel(raw, calendar, task.treated.product)
            transform = (oracles.standardize_prices if task.outcome is Outcome.LEVEL
                         else oracles.compute_volatility)
            transformed.setdefault(key + (task.outcome,), transform(labeled[key]))
    return sum(map(len, labeled.values())), sum(map(len, transformed.values()))


def test_labelling_and_transforms_run_inside_the_prepare_calls(spans, tmp_path):
    # Two products, each with two control countries: two task groups of four.
    run_cfg = market_panel(tmp_path, ["beet", "kale"], ["AT", "DE"])
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert main(["run", "--config", str(run_cfg), "--workers", "1"]) == EXIT_OK
    finally:
        tracer.restore()

    by_id = {span.id: span for span in tracer.spans}

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span.name

    inner = [s for s in tracer.spans if s.layer in ("panel", "transforms")]
    assert {s.name for s in inner} >= {"panel.label_panel", "transforms.standardize_prices",
                                       "transforms.compute_volatility"}
    for span in inner:
        assert "pipeline.prepare_outcome_rows" in ancestors(span), span.name
    config = RunConfig.from_file(run_cfg)
    tasks = sorted(expand_tasks(config, store=read_prices(config.prices)[0]),
                   key=lambda t: t.key())
    groups = cli._task_groups(tasks, 1)
    assert (len(tasks), len(groups)) == (8, 2)
    metrics = spans.layer_metrics(tracer.spans, 1.0, spans.task_seconds(tracer.spans))
    assert metrics["ingest.rows_matching_calls"] == len(groups)


@pytest.mark.parametrize("command", ["run", "pretrend"])
def test_traced_row_counts_match_the_oracle(spans, workspace, command):  # noqa: F811
    _, _, run_cfg, _ = workspace
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert main([command, "--config", str(run_cfg)]) == EXIT_OK
    finally:
        tracer.restore()
    metrics = spans.layer_metrics(tracer.spans, 1.0, spans.task_seconds(tracer.spans))
    rows_labeled, rows_out = oracle_row_counts(run_cfg)
    assert rows_labeled > 0 and rows_out > 0
    assert (metrics["panel.rows_labeled"], metrics["transforms.rows_out"]) == (
        rows_labeled, rows_out
    )


def traced_ols_run(spans, run_cfg, out) -> tuple[int, dict]:
    """(OLS rows, traced metrics) of a one-worker ``run`` with ``methods =
    ipw,ols``."""
    run_cfg.write_text(run_cfg.read_text() + "methods = ipw,ols\n")
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert main(["run", "--config", str(run_cfg), "--workers", "1"]) == EXIT_OK
    finally:
        tracer.restore()
    with (out / "effects.csv").open(newline="") as handle:
        ols_rows = sum(row["method"] == "ols" for row in csv.DictReader(handle))
    return ols_rows, spans.layer_metrics(tracer.spans, 1.0, spans.task_seconds(tracer.spans))


def test_traced_ols_fits_match_the_ols_rows(spans, workspace, tmp_path):  # noqa: F811
    # the workspace's two tasks, one per outcome, share a bin design: one stack
    _, _, run_cfg, out = workspace
    ols_rows, metrics = traced_ols_run(spans, run_cfg, out)
    assert ols_rows == 2
    assert metrics["glm.fit_ols_calls"] == metrics["glm.prune_design_calls"] == 1
    # two groups of four tasks, two per outcome, whose samples all occupy
    # every bin: one unit, so one stack per bin design, of all eight tasks
    panel = tmp_path / "panel"
    panel.mkdir()
    ols_rows, metrics = traced_ols_run(spans, market_panel(panel, ["beet", "kale"],
                                                           ["AT", "DE"]), panel / "out")
    assert ols_rows == 8
    assert metrics["glm.fit_ols_calls"] == metrics["glm.prune_design_calls"] == 1
    assert metrics["pipeline.tasks"] == 8


@pytest.mark.parametrize("command", ["run", "pretrend"])
def test_the_benchmark_hooks_outside_the_tracer(workspace, monkeypatch, command):  # noqa: F811
    _, _, run_cfg, _ = workspace
    for cached in (panel.label_week, panel.season_start_week):
        cached.cache_clear()
        info = cached.cache_info()
        assert (info.hits, info.misses) == (0, 0)
    calls = []

    def timed(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(cli, "read_prices", timed("read_prices", cli.read_prices))
    monkeypatch.setattr(cli, "expand_tasks", timed("expand_tasks", cli.expand_tasks))
    from_csv = timed("from_csv", cli.ProtectionCalendar.from_csv)
    monkeypatch.setattr(cli, "ProtectionCalendar", types.SimpleNamespace(from_csv=from_csv))
    assert main([command, "--config", str(run_cfg)]) == EXIT_OK
    assert sorted(calls) == ["expand_tasks", "from_csv", "read_prices"]
