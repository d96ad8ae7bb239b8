"""Command-line interface: end-to-end flows, exit codes, determinism."""

import csv
import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seasondid import EstimationTask, Outcome, Quality, SeriesKey, pipeline
from seasondid.cli import (
    DESCRIBE_COLUMNS,
    EFFECTS_COLUMNS,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TASK_FAILURE,
    HETEROGENEITY_COLUMNS,
    PRETREND_COLUMNS,
    _task_groups,
    main,
)
from seasondid.calendar import ProtectionCalendar
from seasondid.config import RunConfig, expand_tasks
from seasondid.errors import SeasonDidError
from seasondid.ingest import read_prices, write_calendar, write_prices
from seasondid.pipeline import prepare_outcome_rows, task_seed
from seasondid.simgen import SimConfig, generate_panel

SIM_CFG = """\
n_seasons = 3
weeks_per_season = 24
protected_start = 6
protected_end = 16
true_atet = 18
noise_sd = 2
seed = 1
"""

RUN_CFG = """\
prices = {prices}
calendar = {calendar}
outcomes = level,volatility
reps = 25
seed = 9
output_dir = {out}
"""


# (config line, flags, refusal): each setting out of its range; only the
# commands that estimate read these settings, and they check them all
OUT_OF_RANGE = [
    ("trim = 1.5\n", [], "trim must be in (0, 1], got 1.5"),
    ("workers = 0\n", [], "workers must be >= 1, got 0"),
    ("methods = none\n", [], "methods must be a non-empty subset of ipw,ols, got ('none',)"),
    ("reps = 1\n", [], "a bootstrap needs reps between 2 and 2**32, got 1"),
    ("seed = -1\n", [], "seed must be a non-negative integer, got -1"),
    ("min_cell = 0\n", [], "min_cell must be >= 1, got 0"),
    ("", ["--reps", str(2**32 + 1)], "a bootstrap needs reps between 2 and 2**32, got 4294967297"),
]


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy 2 loads numpy.random on first use; a main process that never
    # bootstraps (or hands every task to workers) should not carry it
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, seasondid.cli; print([m for m in sys.modules if 'numpy.random' in m])"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return tuple(rows[0]), rows[1:]


@pytest.fixture
def workspace(tmp_path):
    """Simulated data plus a ready-to-run batch config."""
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(SIM_CFG)
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(sim_cfg), "--out", str(data),
                 "--seed", "5"]) == EXIT_OK
    out = tmp_path / "out"
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(RUN_CFG.format(prices=data / "prices.csv",
                                      calendar=data / "calendar.csv", out=out))
    return tmp_path, data, run_cfg, out


def write_run_cfg(workspace_paths, extra="", name="alt.cfg", out_name="alt_out"):
    tmp_path, data, _, _ = workspace_paths
    out = tmp_path / out_name
    cfg = tmp_path / name
    cfg.write_text(
        RUN_CFG.format(prices=data / "prices.csv", calendar=data / "calendar.csv",
                       out=out) + extra
    )
    return cfg, out


def market_panel(tmp_path, products, countries, **sim) -> Path:
    """Simulated prices and calendar under ``tmp_path`` of each product's
    treated market and one control market per country, with ``sim``'s
    ``SimConfig`` settings; returns a run config of all their tasks."""
    observations, windows = [], {}
    for product in products:
        for country in countries:
            config = SimConfig(n_seasons=3, weeks_per_season=20, protected_start=5,
                               protected_end=14, seed=len(observations), product=product,
                               control_country=country, **sim)
            treated, control, calendar = generate_panel(config)
            observations += control + (treated if country == countries[0] else [])
        window = calendar.window_for(product)
        windows[product] = (str(window.start), str(window.end))
    write_prices(tmp_path / "prices.csv", observations)
    write_calendar(tmp_path / "calendar.csv", windows)
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(RUN_CFG.format(prices=tmp_path / "prices.csv",
                                      calendar=tmp_path / "calendar.csv", out=tmp_path / "out"))
    return run_cfg


def seedless_cfg(workspace_paths, extra=""):
    """A config of the workspace's files that sets no seed."""
    tmp_path, data, _, _ = workspace_paths
    out = tmp_path / "seedless_out"
    cfg = tmp_path / "seedless.cfg"
    cfg.write_text(f"prices = {data / 'prices.csv'}\ncalendar = {data / 'calendar.csv'}\n"
                   f"output_dir = {out}\n{extra}")
    return cfg, out


def test_a_run_leaves_numpy_ma_and_numpy_random_unloaded(workspace):
    # numpy 2 imports numpy.ma on the first plain np.unique (np.quantile and
    # np.union1d make one), about 10 ms in each process, pool workers included,
    # and numpy.random (11-13 ms) on first use, which only a rejected
    # bootstrap draw makes. "Newly" keeps the check valid on numpy 1, which
    # imports both with numpy. The config bootstraps at one worker.
    _, _, run_cfg, _ = workspace
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "from seasondid.cli import main\n"
        "for command in ('run', 'pretrend', 'describe'):\n"
        "    assert main([command, '--config', sys.argv[1]]) == 0, command\n"
        "new = set(sys.modules) - before\n"
        "print(sorted(m for m in new if m.startswith(('numpy.ma', 'numpy.random'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(run_cfg)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip().splitlines()[-1] == "[]"


def grouping_task(treated: int, control: int, outcome: Outcome) -> EstimationTask:
    return EstimationTask(
        treated=SeriesKey(f"crop{treated}", Quality.CONVENTIONAL, "CH"),
        control=SeriesKey(f"crop{treated}", Quality.CONVENTIONAL, f"C{control}"),
        outcome=outcome,
        bootstrap_reps=0,
    )


class TestTaskGroups:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sets(st.tuples(st.integers(0, 4), st.integers(0, 12), st.sampled_from(Outcome))),
        st.integers(1, 4),
    )
    def test_groups_cut_the_key_order_at_treated_series(self, specs, workers):
        tasks = sorted((grouping_task(*spec) for spec in specs), key=lambda t: t.key())
        groups = _task_groups(tasks, workers)
        assert [task for group in groups for task in group] == tasks
        cap = -(-len(tasks) // workers)
        for group in groups:
            assert 1 <= len(group) <= cap
            assert len({task.treated for task in group}) == 1
        # a group ends at a new treated series or at the cap, nowhere else
        for before, after in zip(groups, groups[1:]):
            assert before[-1].treated != after[0].treated or len(before) == cap

    def test_one_treated_series_spreads_over_every_worker(self):
        tasks = sorted((grouping_task(0, c, Outcome.LEVEL) for c in range(10)),
                       key=lambda t: t.key())
        groups = _task_groups(tasks, 2)
        assert len(groups) >= 2
        assert all(len(group) <= 5 for group in groups)


def unit_panel(tmp_path) -> Path:
    """A run config, with ``ipw,ols``, of three task groups in key order:
    beet, whose FR control has six weeks, too few for a sample; kale, which
    has no calendar entry; and leek. Noise makes every task's estimates its own."""
    run_cfg = market_panel(tmp_path, ["beet", "kale", "leek"], ["AT", "DE"], noise_sd=2.0)
    prices = tmp_path / "prices.csv"
    lines = prices.read_text().splitlines()
    extra = [f"FR,{line[3:]}" for line in lines if line.startswith("DE,beet,")][:6]
    prices.write_text("\n".join(lines + extra) + "\n")
    calendar = tmp_path / "calendar.csv"
    calendar.write_text("".join(line for line in calendar.read_text().splitlines(True)
                                if not line.startswith("kale,")))
    run_cfg.write_text(run_cfg.read_text() + "methods = ipw,ols\n")
    return run_cfg


class TestUnits:
    """At one worker a ``run`` with ``ols`` fits the OLS DiDs of consecutive
    task groups as one unit, taken until their samples hold a row budget
    (``pipeline.UNIT_ROWS``)."""

    def test_outputs_do_not_depend_on_the_units(self, tmp_path, monkeypatch):
        run_cfg = unit_panel(tmp_path)
        out = tmp_path / "out"
        stacks = []
        estimate_ols_did = pipeline.estimate_ols_did
        monkeypatch.setattr(pipeline, "estimate_ols_did",
                            lambda samples: stacks.append(len(samples)) or estimate_ols_did(samples))
        outputs = []
        # one group per unit, every group in one unit, and one group per pool item
        for budget, workers in ((1, "1"), (2**40, "1"), (1, "2")):
            monkeypatch.setattr(pipeline, "UNIT_ROWS", budget)
            assert main(["run", "--config", str(run_cfg), "--workers", workers]) == (
                EXIT_TASK_FAILURE)
            manifest = (out / "manifest.json").read_bytes()
            manifest = manifest.replace(f'"workers": {workers}'.encode(), b'"workers": 0')
            outputs.append(((out / "effects.csv").read_bytes(), manifest))
        assert outputs[0] == outputs[1] == outputs[2]
        # beet's samples of AT and DE in both outcomes, then leek's
        assert stacks == [4, 4, 8]  # pool workers append to their own copies
        statuses = {s["task"]: s["status"] for s in json.loads(outputs[0][1])["tasks"]}
        assert len(statuses) == 14
        assert sorted(key for key, status in statuses.items() if status == "ok") == [
            f"{product}|conventional|CH||{product}|{country}||{outcome}"
            for product in ("beet", "leek") for country in ("AT", "DE")
            for outcome in ("level", "volatility")
        ]
        assert sum(s.startswith("infeasible: ") for s in statuses.values()) == 2
        assert sum(s.startswith("failed: CalendarMissError") for s in statuses.values()) == 4

    def test_no_more_than_one_unit_of_samples_is_alive(self, tmp_path, monkeypatch):
        # with a budget of one row each group is a unit; gc is off, so what
        # is not freed at once is seen
        run_cfg = unit_panel(tmp_path)
        samples, alive = [], []
        build_sample = pipeline.build_sample

        def building(task, *rows):
            sample = build_sample(task, *rows)
            samples.append((task.treated.product, weakref.ref(sample)))
            alive.append({product for product, ref in samples if ref() is not None})
            return sample

        monkeypatch.setattr(pipeline, "build_sample", building)
        monkeypatch.setattr(pipeline, "UNIT_ROWS", 1)
        gc.disable()
        try:
            assert main(["run", "--config", str(run_cfg), "--workers", "1"]) == (
                EXIT_TASK_FAILURE)
        finally:
            gc.enable()
        assert {product for product, _ in samples} == {"beet", "leek"}
        assert all(len(products) == 1 for products in alive), alive


class TestSimulate:
    def test_writes_panel_calendar_and_manifest(self, workspace):
        _, data, _, _ = workspace
        assert (data / "prices.csv").exists()
        assert (data / "calendar.csv").exists()
        manifest = json.loads((data / "sim_manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["seed"] == 5  # CLI override beat the file
        assert manifest["config"]["true_atet"] == 18.0
        assert manifest["true_effect"] == 18.0
        assert manifest["n_treated"] == 3 * 24

    def test_panel_passes_ingest(self, workspace, capsys):
        _, data, _, _ = workspace
        code = main(["ingest", "--prices", str(data / "prices.csv"),
                     "--calendar", str(data / "calendar.csv")])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert f"price rows read:    {2 * 3 * 24}" in printed
        assert "calendar products:  1" in printed

    def test_missing_config_file_is_a_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["product", "treated_country", "control_country"])
    def test_an_empty_name_is_refused_before_anything_is_written(self, tmp_path, capsys, key):
        # an empty name would write a prices.csv that ingest refuses
        sim_cfg = tmp_path / "sim.cfg"
        sim_cfg.write_text(SIM_CFG + f"{key} =\n")
        out = tmp_path / "data"
        assert main(["simulate", "--config", str(sim_cfg), "--out", str(out)]) == EXIT_CONFIG
        assert f"config key '{key}' is empty" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_estimates_land_near_the_injected_effect(self, workspace):
        _, _, run_cfg, out = workspace
        assert main(["run", "--config", str(run_cfg)]) == EXIT_OK
        header, rows = read_csv(out / "effects.csv")
        assert header == EFFECTS_COLUMNS
        assert [r[3] for r in rows] == ["level", "volatility"]
        level = rows[0]
        assert level[0] == "simulated-vegetable"
        assert level[4] == "ipw"
        assert abs(float(level[5]) - 18.0) < 3.0
        assert float(level[6]) > 0.0          # bootstrap se
        assert level[12] == "0"               # nothing trimmed
        assert level[13] == "25"
        assert int(level[14]) > 0             # per-task derived seed
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert [s["status"] for s in manifest["tasks"]] == ["ok", "ok"]

    @pytest.mark.parametrize(
        "command,table", [("run", "effects.csv"), ("pretrend", "pretrends.csv")]
    )
    def test_reruns_and_worker_counts_are_byte_identical(self, workspace, command, table):
        _, _, run_cfg, out = workspace
        assert main([command, "--config", str(run_cfg)]) == EXIT_OK
        first = (out / table).read_bytes()
        assert main([command, "--config", str(run_cfg)]) == EXIT_OK
        assert (out / table).read_bytes() == first
        assert main([command, "--config", str(run_cfg), "--workers", "2"]) == EXIT_OK
        assert (out / table).read_bytes() == first

    def test_seed_override_changes_the_bootstrap(self, workspace):
        _, _, run_cfg, out = workspace
        assert main(["run", "--config", str(run_cfg)]) == EXIT_OK
        base_rows = read_csv(out / "effects.csv")[1]
        assert main(["run", "--config", str(run_cfg), "--seed", "10"]) == EXIT_OK
        other_rows = read_csv(out / "effects.csv")[1]
        assert [r[5] for r in base_rows] == [r[5] for r in other_rows]  # same points
        assert [r[6] for r in base_rows] != [r[6] for r in other_rows]  # new draws

    def test_only_bootstrapped_rows_carry_a_seed(self, workspace):
        cfg, out = write_run_cfg(workspace, extra="methods = ipw,ols\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        _, rows = read_csv(out / "effects.csv")
        keys = [s["task"] for s in json.loads((out / "manifest.json").read_text())["tasks"]]
        assert [(r[3], r[4]) for r in rows] == [
            ("level", "ipw"), ("level", "ols"), ("volatility", "ipw"), ("volatility", "ols"),
        ]
        assert [r[14] for r in rows[0::2]] == [str(task_seed(9, key)) for key in keys]
        assert [(r[13], r[14]) for r in rows[1::2]] == [("0", "0"), ("0", "0")]

    @pytest.mark.parametrize("command", ["run", "pretrend"])
    @pytest.mark.parametrize("extra,flags,refusal", OUT_OF_RANGE)
    def test_an_out_of_range_setting_stops_the_run_before_ingest(
        self, workspace, monkeypatch, capsys, command, extra, flags, refusal
    ):
        import seasondid.cli as cli

        def no_ingest(*args, **kwargs):
            raise AssertionError("read_prices was called")

        monkeypatch.setattr(cli, "read_prices", no_ingest)
        cfg, out = seedless_cfg(workspace, extra)
        assert main([command, "--config", str(cfg), *flags]) == EXIT_CONFIG
        assert f"error: {refusal}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_an_ols_only_run_needs_no_seed(self, workspace):
        cfg, out = seedless_cfg(workspace, "methods = ols\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        _, rows = read_csv(out / "effects.csv")
        assert [(r[4], r[13], r[14]) for r in rows] == [("ols", "0", "0")] * 2
        assert json.loads((out / "manifest.json").read_text())["seed"] is None

    @pytest.mark.parametrize(
        "command,extra,flags",
        [
            ("run", "", []),  # ipw, 200 replicates by default
            ("run", "methods = ols,ipw\n", []),
            ("run", "reps = 0\n", ["--reps", "100"]),
            ("pretrend", "methods = ols\n", []),  # the placebo bootstraps anyway
        ],
    )
    def test_a_bootstrap_without_a_seed_stops_before_ingest(
        self, workspace, monkeypatch, capsys, command, extra, flags
    ):
        import seasondid.cli as cli

        def no_ingest(*args, **kwargs):
            raise AssertionError("read_prices was called")

        monkeypatch.setattr(cli, "read_prices", no_ingest)
        cfg, out = seedless_cfg(workspace, extra)
        assert main([command, "--config", str(cfg), *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "a seed is mandatory for any run involving the bootstrap" in err
        assert not out.exists()

    def test_zero_reps_runs_ipw_without_a_bootstrap(self, workspace):
        _, _, run_cfg, out = workspace
        assert main(["run", "--config", str(run_cfg), "--reps", "0"]) == EXIT_OK
        _, rows = read_csv(out / "effects.csv")
        assert [(r[4], r[13]) for r in rows] == [("ipw", "0"), ("ipw", "0")]
        assert abs(float(rows[0][5]) - 18.0) < 3.0

    def test_trim_treated_trims_the_treated_side_at_any_worker_count(self, tmp_path):
        # a tenth of the weeks missing leaves some seasons with more treated-
        # protected rows than a comparison cell has: shares above 0.55 there
        sim_cfg = tmp_path / "sim.cfg"
        sim_cfg.write_text(SIM_CFG + "missing_week_prob = 0.1\n")
        data = tmp_path / "data"
        assert main(["simulate", "--config", str(sim_cfg), "--out", str(data),
                     "--seed", "5"]) == EXIT_OK
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            RUN_CFG.replace("level,volatility", "level").format(
                prices=data / "prices.csv", calendar=data / "calendar.csv", out=out)
            + "trim = 0.55\ntrim_treated = yes\n"
        )
        effects = []
        for workers in ("1", "2"):
            assert main(["run", "--config", str(cfg), "--workers", workers]) == EXIT_OK
            effects.append((out / "effects.csv").read_bytes())
            header, rows = read_csv(out / "effects.csv")
            ipw = [dict(zip(header, row)) for row in rows if row[4] == "ipw"]
            assert ipw and any(int(row["trimmed"]) > 0 for row in ipw), rows
            assert all(int(row["trimmed"]) < int(row["n11"]) for row in ipw)
        assert effects[0] == effects[1]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["trim_treated"] is True

    def test_stacked_fits_do_not_depend_on_the_worker_count(self, tmp_path):
        # one treated market with four controls: one group of eight tasks at
        # one worker, two of four at two, so each outcome's OLS fits are
        # stacked four, then two, at a time
        run_cfg = market_panel(tmp_path, ["beet"], ["AT", "DE", "FR", "IT"])
        run_cfg.write_text(run_cfg.read_text() + "methods = ipw,ols\n")
        config = RunConfig.from_file(run_cfg)
        tasks = sorted(expand_tasks(config, store=read_prices(config.prices)[0]),
                       key=lambda t: t.key())
        assert [len(group) for group in _task_groups(tasks, 1)] == [8]
        assert [len(group) for group in _task_groups(tasks, 2)] == [4, 4]
        outputs = []
        for workers in ("1", "2"):
            assert main(["run", "--config", str(run_cfg), "--workers", workers]) == EXIT_OK
            manifest = (config.output_dir / "manifest.json").read_bytes()
            # the manifest's config echoes the worker count; the rest is equal
            manifest = manifest.replace(f'"workers": {workers}'.encode(), b'"workers": 0')
            outputs.append(((config.output_dir / "effects.csv").read_bytes(), manifest))
            _, rows = read_csv(config.output_dir / "effects.csv")
            assert sorted(row[4] for row in rows) == ["ipw"] * 8 + ["ols"] * 8
        assert outputs[0] == outputs[1]

    def test_failures_stay_per_task_inside_one_group(self, workspace):
        # One treated market with an estimable control (DE), one without price
        # data (AT) and one whose weeks all fall years later (FR), and a
        # product (okra) that has no calendar entry. ISO years 28 apart have
        # the same weeks.
        tmp_path, data, _, _ = workspace
        lines = (data / "prices.csv").read_text().splitlines()
        header, rows = lines[0], [line.split(",") for line in lines[1:]]
        extra = [[*r[:4], str(int(r[4]) + 28), *r[5:]] for r in rows if r[0] == "DE"]
        extra = [["FR", *r[1:]] for r in extra] + [[r[0], "okra", *r[2:]] for r in rows]
        (data / "prices.csv").write_text(
            "\n".join([header] + [",".join(r) for r in rows + extra]) + "\n"
        )
        cfg, out = write_run_cfg(workspace, extra="".join(
            f"task = {spec}\n" for spec in (
                "simulated-vegetable:conventional:DE", "simulated-vegetable:conventional:AT",
                "simulated-vegetable:conventional:FR", "okra:conventional:DE",
            )
        ))
        config = RunConfig.from_file(cfg)
        store, _ = read_prices(config.prices)
        calendar = ProtectionCalendar.from_csv(config.calendar)
        expected = {}
        for task in expand_tasks(config, store=store):
            try:
                prepare_outcome_rows(task, store, calendar)  # a group of one
                expected[task.key()] = "ok"
            except SeasonDidError as exc:
                expected[task.key()] = f"failed: {type(exc).__name__}: {exc}"
        kinds = {status if status == "ok" else status.split(": ")[1] for status in expected.values()}
        assert kinds == {"ok", "ConfigError", "CalendarMissError", "EmptyOverlapError"}
        outputs = []
        for workers in ("1", "2", "3"):
            assert main(["run", "--config", str(cfg), "--workers", workers]) == EXIT_TASK_FAILURE
            manifest = (out / "manifest.json").read_bytes()
            statuses = json.loads(manifest)["tasks"]
            assert {s["task"]: s["status"] for s in statuses} == expected
            # the manifest's config echoes the worker count; the rest is equal
            manifest = manifest.replace(f'"workers": {workers}'.encode(), b'"workers": 0')
            outputs.append(((out / "effects.csv").read_bytes(), manifest))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_infeasible_tasks_are_reported_not_failed(self, workspace):
        cfg, out = write_run_cfg(workspace, extra="min_cell = 500\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        header, rows = read_csv(out / "effects.csv")
        assert rows == []
        manifest = json.loads((out / "manifest.json").read_text())
        for status in manifest["tasks"]:
            assert status["status"].startswith("infeasible: small_cell")

    def test_an_empty_treated_country_is_refused_before_ingest(self, workspace, capsys):
        cfg, out = write_run_cfg(
            workspace, extra="treated_country =\ntask = simulated-vegetable:conventional:DE\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
        assert "config key 'treated_country' is empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "pretrend"])
    def test_a_control_in_the_treated_country_is_refused_before_ingest(
        self, workspace, capsys, command
    ):
        _, data, _, _ = workspace
        cfg, out = write_run_cfg(workspace, extra="task = simulated-vegetable:conventional:CH\n")
        (data / "prices.csv").unlink()  # never read
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        assert ("the control series simulated-vegetable[conventional]@CH must be in another "
                "country than the treated series simulated-vegetable[conventional]@CH"
                ) in capsys.readouterr().err
        assert not out.exists()

    def test_unestimable_task_fails_the_run(self, workspace):
        cfg, out = write_run_cfg(
            workspace, extra="task = simulated-vegetable:conventional:XX\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_TASK_FAILURE
        manifest = json.loads((out / "manifest.json").read_text())
        statuses = [s["status"] for s in manifest["tasks"]]
        assert all(s.startswith("failed: ConfigError") for s in statuses)
        assert read_csv(out / "effects.csv")[1] == []

    def test_bad_price_rows_fail_unless_skipped(self, workspace):
        tmp_path, data, run_cfg, out = workspace
        prices = data / "prices.csv"
        prices.write_text(prices.read_text() + "CH,simulated-vegetable,conventional,,2015,7,oops\n")
        assert main(["run", "--config", str(run_cfg)]) == EXIT_CONFIG
        assert main(["run", "--config", str(run_cfg), "--skip-bad-rows"]) == EXIT_OK

    @pytest.mark.parametrize("command", ["run", "pretrend", "describe"])
    @pytest.mark.parametrize("year", [2, 9999])
    def test_a_year_whose_weeks_cannot_be_labelled_is_a_config_error(
        self, workspace, capsys, command, year
    ):
        # labelling a week of year y dates the windows of years y - 2 .. y + 1
        _, data, run_cfg, _ = workspace
        prices = data / "prices.csv"
        line = len(prices.read_text().splitlines()) + 1
        prices.write_text(
            prices.read_text() + f"CH,simulated-vegetable,conventional,,{year},20,5.0\n"
        )
        assert main([command, "--config", str(run_cfg)]) == EXIT_CONFIG
        assert f"prices.csv:{line}: year {year} is outside 3..9998" in capsys.readouterr().err

    @pytest.mark.parametrize("first_year", [3, 9996])
    def test_panels_at_the_ends_of_the_labelled_years_run(self, workspace, first_year):
        _, data, run_cfg, _ = workspace
        prices = data / "prices.csv"
        header, rows = read_csv(prices)
        shift = first_year - min(int(row[4]) for row in rows)
        with prices.open("w", newline="") as handle:
            csv.writer(handle).writerows(
                [header] + [[*row[:4], int(row[4]) + shift, *row[5:]] for row in rows]
            )
        for command in ("run", "pretrend", "describe"):
            assert main([command, "--config", str(run_cfg)]) == EXIT_OK, command

    @pytest.mark.parametrize("command", ["run", "pretrend", "describe"])
    def test_a_latin1_price_file_is_a_config_error_naming_it(self, workspace, capsys, command):
        _, data, run_cfg, _ = workspace
        prices = data / "prices.csv"
        prices.write_bytes(prices.read_bytes()
                           + "CH,simulated-vegetable,conventional,Zürich,2015,7,5.0\n"
                           .encode("latin-1"))
        assert main([command, "--config", str(run_cfg)]) == EXIT_CONFIG
        assert "error: prices.csv: not UTF-8 text" in capsys.readouterr().err

    def test_unknown_config_key_is_a_config_error(self, workspace, capsys):
        tmp_path, _, _, _ = workspace
        bad = tmp_path / "bad.cfg"
        bad.write_text("prices = a\ncalendar = b\nseed = 1\nturbo = on\n")
        assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
        assert "turbo" in capsys.readouterr().err


class TestPretrend:
    def test_placebo_table_for_every_task(self, workspace):
        _, _, run_cfg, out = workspace
        assert main(["pretrend", "--config", str(run_cfg)]) == EXIT_OK
        header, rows = read_csv(out / "pretrends.csv")
        assert header == PRETREND_COLUMNS
        assert [r[3] for r in rows] == ["level", "volatility"]
        level = rows[0]
        assert abs(float(level[4])) < 2.0     # no divergence injected
        assert level[11] == "3"               # seasons_used
        assert level[12] == "25"
        manifest = json.loads((out / "pretrend_manifest.json").read_text())
        assert all(s["status"] == "ok" for s in manifest["tasks"])

    def test_min_cell_applies_to_the_placebo_cells(self, workspace):
        # three seasons of two pseudo-post and two pre weeks: six rows a cell
        for min_cell, status in ((6, "ok"), (7, "infeasible: small_cell(D=1,T=1)")):
            cfg, out = write_run_cfg(workspace, extra=f"min_cell = {min_cell}\n",
                                     out_name=f"out_{min_cell}")
            assert main(["pretrend", "--config", str(cfg)]) == EXIT_OK
            manifest = json.loads((out / "pretrend_manifest.json").read_text())
            assert [s["status"] for s in manifest["tasks"]] == [status] * 2

    @pytest.mark.parametrize("reps", ["0", "1"])
    def test_pretrend_requires_replicates(self, workspace, capsys, reps):
        _, _, run_cfg, _ = workspace
        assert main(["pretrend", "--config", str(run_cfg), "--reps", reps]) == EXIT_CONFIG
        assert (f"a bootstrap needs reps between 2 and 2**32, got {reps}"
                in capsys.readouterr().err)

    def test_placebo_seed_differs_from_the_effect_seed(self, workspace):
        _, _, run_cfg, out = workspace
        assert main(["run", "--config", str(run_cfg)]) == EXIT_OK
        assert main(["pretrend", "--config", str(run_cfg)]) == EXIT_OK
        effect_seeds = {r[14] for r in read_csv(out / "effects.csv")[1]}
        placebo_seeds = {r[13] for r in read_csv(out / "pretrends.csv")[1]}
        assert effect_seeds.isdisjoint(placebo_seeds)


class TestDescribe:
    def test_summaries_per_country_phase_and_outcome(self, workspace):
        _, _, run_cfg, out = workspace
        assert main(["describe", "--config", str(run_cfg)]) == EXIT_OK
        header, rows = read_csv(out / "descriptives.csv")
        assert header == DESCRIBE_COLUMNS
        cells = {(r[0], r[1], r[2]) for r in rows}
        assert len(rows) == 8  # 2 countries x 2 phases x 2 outcomes
        assert ("CH", "protected", "level") in cells
        by_key = {(r[0], r[1], r[2]): r for r in rows}
        treated_gap = (float(by_key[("CH", "protected", "level")][3])
                       - float(by_key[("CH", "unprotected", "level")][3]))
        control_gap = (float(by_key[("DE", "protected", "level")][3])
                       - float(by_key[("DE", "unprotected", "level")][3]))
        assert treated_gap > 10.0
        assert abs(control_gap) < 3.0
        assert all(int(r[7]) == 3 for r in rows)  # one unit per season

    def test_a_config_without_a_seed_is_described(self, workspace):
        cfg, out = seedless_cfg(workspace)
        assert main(["describe", "--config", str(cfg)]) == EXIT_OK
        assert len(read_csv(out / "descriptives.csv")[1]) == 8

    @pytest.mark.parametrize("extra", [extra for extra, flags, _ in OUT_OF_RANGE if not flags])
    def test_settings_only_estimation_reads_are_not_checked(self, workspace, extra):
        cfg, out = seedless_cfg(workspace, extra)
        assert main(["describe", "--config", str(cfg)]) == EXIT_OK
        assert len(read_csv(out / "descriptives.csv")[1]) == 8

    def test_estimation_flags_are_rejected(self, workspace, capsys):
        _, _, run_cfg, _ = workspace
        with pytest.raises(SystemExit) as excinfo:
            main(["describe", "--config", str(run_cfg), "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestHeterogeneity:
    def effects_fixture(self, tmp_path, n=20, drop_attribute=None, countries=("DE", "IT", "FR")):
        effects = tmp_path / "effects.csv"
        attributes = tmp_path / "attributes.csv"
        with effects.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(EFFECTS_COLUMNS)
            for i in range(n):
                quality = "conventional" if i % 2 == 0 else "organic"
                writer.writerow([
                    f"veg{i}", quality, countries[(i // 2) % len(countries)], "level", "ipw",
                    repr(10.0 + 3.0 * (i % 7) - 0.5 * i), "1.0", "0.5",
                    "10", "10", "10", "10", "0", "25", str(100 + i),
                ])
            # rows of another method must be ignored
            writer.writerow(["veg0", "conventional", "DE", "level", "ols",
                             "999.0", "1.0", "0.5", "10", "10", "10", "10",
                             "0", "0", "0"])
        with attributes.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("product", "quality", "comparison", "harvested_once",
                             "storability_weeks", "market_share_pct",
                             "days_protection"))
            for i in range(n):
                quality = "conventional" if i % 2 == 0 else "organic"
                if drop_attribute == i:
                    continue
                writer.writerow([
                    f"veg{i}", quality, countries[(i // 2) % len(countries)], (i // 5) % 2,
                    2 + i % 5, 1 + (3 * i) % 17, 40 + (i * i) % 31,
                ])
        return effects, attributes

    def test_regression_table_from_effects_and_attributes(self, tmp_path):
        effects, attributes = self.effects_fixture(tmp_path)
        out = tmp_path / "het"
        code = main(["heterogeneity", "--effects", str(effects),
                     "--attributes", str(attributes), "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out / "heterogeneity.csv")
        assert header == HETEROGENEITY_COLUMNS
        subsamples = {(r[0], r[1]) for r in rows}
        assert subsamples == {("level", "pooled"), ("level", "conventional"),
                              ("level", "organic")}
        pooled = [r for r in rows if r[1] == "pooled"]
        assert [r[2] for r in pooled] == [
            "const", "conventional", "country_FR", "country_IT", "harvested_once",
            "storability_weeks", "market_share_pct", "days_protection",
        ]
        assert all(r[6] == "20" for r in pooled)  # the ols row was ignored

    @pytest.mark.parametrize("countries,dummies", [
        (("DE", "IT", "FR", "AT"), ["country_DE", "country_FR", "country_IT"]),
        (("FR",), []),
    ])
    def test_country_dummies_come_from_the_rows(self, tmp_path, countries, dummies):
        # the first country in sorted order is the reference level
        effects, attributes = self.effects_fixture(tmp_path, countries=countries)
        out = tmp_path / "het"
        code = main(["heterogeneity", "--effects", str(effects),
                     "--attributes", str(attributes), "--out", str(out)])
        assert code == EXIT_OK
        _, rows = read_csv(out / "heterogeneity.csv")
        for subsample in ("pooled", "conventional", "organic"):
            terms = [r[2] for r in rows if r[1] == subsample]
            assert [t for t in terms if t.startswith("country_")] == dummies
            assert len(terms) == 5 + len(dummies) + (subsample == "pooled")

    @pytest.mark.parametrize("column,value,needle", [
        (1, "premium", "unknown quality 'premium'"),
        (3, "levels", "'levels' is not a valid Outcome"),
        (5, "steep", "could not convert string to float: 'steep'"),
        (5, "nan", "atet must be a finite number, got nan"),
        (5, "-inf", "atet must be a finite number, got -inf"),
    ])
    def test_bad_effects_rows_are_named_by_line(self, tmp_path, capsys, column, value, needle):
        effects, attributes = self.effects_fixture(tmp_path)
        lines = effects.read_text().splitlines()
        cells = lines[3].split(",")
        cells[column] = value
        lines[3] = ",".join(cells)
        effects.write_text("\n".join(lines) + "\n")
        out = tmp_path / "h"
        code = main(["heterogeneity", "--effects", str(effects),
                     "--attributes", str(attributes), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert f"effects.csv:4: {needle}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_attribute_rows_are_named(self, tmp_path, capsys):
        effects, attributes = self.effects_fixture(tmp_path, drop_attribute=3)
        code = main(["heterogeneity", "--effects", str(effects),
                     "--attributes", str(attributes), "--out", str(tmp_path / "h")])
        assert code == EXIT_CONFIG
        assert "veg3" in capsys.readouterr().err

    def test_a_repeated_attribute_row_names_both_lines(self, tmp_path, capsys):
        effects, attributes = self.effects_fixture(tmp_path)
        lines = attributes.read_text().splitlines()
        attributes.write_text("\n".join(lines + [lines[1]]) + "\n")
        out = tmp_path / "h"
        code = main(["heterogeneity", "--effects", str(effects),
                     "--attributes", str(attributes), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert ("attributes.csv:22: duplicate attribute row for veg0/conventional/DE "
                "(first seen on line 2)") in capsys.readouterr().err
        assert not out.exists()

    def test_region_specific_control_rows_of_one_key_are_all_regressed(self, tmp_path):
        # two task lines that differ only in the control region write two
        # rows with the same (product, quality, control country, outcome, method)
        effects, attributes = self.effects_fixture(tmp_path)
        lines = effects.read_text().splitlines()
        cells = lines[1].split(",")
        cells[5] = "13.0"
        effects.write_text("\n".join(lines + [",".join(cells)]) + "\n")
        out = tmp_path / "het"
        code = main(["heterogeneity", "--effects", str(effects),
                     "--attributes", str(attributes), "--out", str(out)])
        assert code == EXIT_OK
        _, rows = read_csv(out / "heterogeneity.csv")
        assert {r[6] for r in rows if r[1] == "pooled"} == {"21"}

    def test_effects_header_is_checked(self, tmp_path, capsys):
        _, attributes = self.effects_fixture(tmp_path)
        effects = tmp_path / "bad_effects.csv"
        effects.write_text("product,atet\nveg,1.0\n")
        code = main(["heterogeneity", "--effects", str(effects),
                     "--attributes", str(attributes), "--out", str(tmp_path / "h")])
        assert code == EXIT_CONFIG
        assert "bad_effects.csv:1: expected header" in capsys.readouterr().err

    def test_too_few_rows_for_the_design_is_a_hard_failure(self, tmp_path):
        effects, attributes = self.effects_fixture(tmp_path, n=6)
        code = main(["heterogeneity", "--effects", str(effects),
                     "--attributes", str(attributes), "--out", str(tmp_path / "h")])
        assert code == EXIT_TASK_FAILURE


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "seasondid" in capsys.readouterr().out

    def test_unknown_subcommand_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == 2
