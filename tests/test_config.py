"""Run/generator configuration parsing and task expansion."""

import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seasondid import Outcome, PanelStore, Quality, SeriesKey
from seasondid.config import (
    RunConfig,
    TaskSpec,
    expand_tasks,
    parse_config_text,
    sim_config_from_file,
)
from seasondid.did import (
    CovariateSpec, EstimationTask, bootstrap_se, cell_means_did, estimate_ipw_did)
from seasondid.errors import ConfigError, SeasonDidError
from seasondid.simgen import SimConfig

from helpers import basic_task, no_covariate_sample, price_row, week

MINIMAL = "prices = p.csv\ncalendar = c.csv\nseed = 7\n"


def config_from(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return RunConfig.from_file(path)


class TestConfigFileText:
    def test_a_file_that_is_not_utf8_is_a_config_error_naming_it(self, tmp_path):
        run = tmp_path / "run.cfg"
        run.write_bytes(MINIMAL.encode() + "treated_country = Zürich\n".encode("latin-1"))
        with pytest.raises(ConfigError, match=r"^run\.cfg: not UTF-8 text"):
            RunConfig.from_file(run)
        sim = tmp_path / "sim.cfg"
        sim.write_bytes(b"# \xff\nseed = 1\n")
        with pytest.raises(ConfigError, match=r"^sim\.cfg: not UTF-8 text"):
            sim_config_from_file(sim)

    def test_utf8_text_is_read_whatever_the_locale(self, tmp_path):
        run = tmp_path / "run.cfg"
        run.write_bytes(MINIMAL.encode() + "treated_country = Zürich\n".encode("utf-8"))
        assert RunConfig.from_file(run).treated_country == "Zürich"

    @pytest.mark.parametrize("key", ["prices", "calendar", "output_dir"])
    def test_a_nul_byte_in_a_path_is_refused(self, tmp_path, key):
        paths = {"prices": "p.csv", "calendar": "c.csv", "output_dir": "out"}
        paths[key] = "a\0b"
        text = "".join(f"{name} = {value}\n" for name, value in paths.items()) + "seed = 7\n"
        with pytest.raises(ConfigError, match=f"config key '{key}' contains a NUL byte"):
            config_from(tmp_path, text)


class TestParseConfigText:
    def test_basic_lines_comments_and_blanks(self):
        values = parse_config_text(
            "# comment\n"
            "\n"
            "Alpha = one\n"
            "  beta=two  \n"
            "alpha = three\n"
            "gamma = a=b\n"
        )
        assert values == {"alpha": ["one", "three"], "beta": ["two"], "gamma": ["a=b"]}

    def test_missing_equals_reports_the_line(self):
        with pytest.raises(ConfigError, match=r"run\.cfg:3"):
            parse_config_text("a = 1\n# fine\nbroken line\n", source="run.cfg")

    def test_empty_key_is_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("= value\n")


class TestRunConfig:
    def test_defaults(self, tmp_path):
        config = config_from(tmp_path, MINIMAL)
        assert config.prices.name == "p.csv"
        assert config.calendar.name == "c.csv"
        assert config.treated_country == "CH"
        assert config.outcomes == (Outcome.LEVEL, Outcome.VOLATILITY)
        assert config.methods == ("ipw",)
        assert config.covariates is CovariateSpec.SEASONAL
        assert config.trim == 0.95
        assert config.trim_treated is False
        assert config.reps == 200
        assert config.seed == 7
        assert config.min_cell == 4
        assert config.workers == 1
        assert str(config.output_dir) == "."
        assert config.tasks == "all"
        assert config.skip_bad_rows is False

    def test_explicit_settings(self, tmp_path):
        config = config_from(
            tmp_path,
            "prices = data/p.csv\n"
            "calendar = data/c.csv\n"
            "treated_country = AT\n"
            "outcomes = volatility\n"
            "methods = ipw, ols\n"
            "covariates = none\n"
            "trim = 0.99\n"
            "trim_treated = yes\n"
            "reps = 0\n"
            "min_cell = 2\n"
            "workers = 3\n"
            "output_dir = out\n"
            "skip_bad_rows = true\n"
            "task = tomato : conventional : DE\n"
            "task = leek:organic:IT:porro:north\n",
        )
        assert config.outcomes == (Outcome.VOLATILITY,)
        assert config.methods == ("ipw", "ols")
        assert config.covariates is CovariateSpec.NONE
        assert config.trim == 0.99
        assert config.trim_treated is True
        assert config.reps == 0
        assert config.seed is None  # reps 0 needs no seed
        assert config.workers == 3
        assert config.skip_bad_rows is True
        assert config.tasks == (
            TaskSpec("tomato", SeriesKey("tomato", Quality.CONVENTIONAL, "DE")),
            TaskSpec("leek", SeriesKey("porro", Quality.ORGANIC, "IT", "north")),
        )

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("calendar = c.csv\nseed = 1\n", "both 'prices' and 'calendar'"),
            (MINIMAL + "mystery = 1\n", "mystery"),
            (MINIMAL + "attributes = a.csv\n", r"unknown config keys: \['attributes'\]"),
            (MINIMAL + "outcomes = levels\n", "invalid outcomes"),
            (MINIMAL + "outcomes = ,\n", "empty"),
            (MINIMAL + "treated_country =\n", "config key 'treated_country' is empty"),
            (MINIMAL + "covariates = none_at_all\n", "invalid covariates"),
            (MINIMAL + "covariates = seasonal_plus_biweekly_fe\n", "invalid covariates"),
            (MINIMAL + "trim = nope\n", "expects a number"),
            (MINIMAL + "reps = many\n", "expects an integer"),
            (MINIMAL + "skip_bad_rows = maybe\n", "expects a boolean"),
            (MINIMAL + "trim = 0.9\ntrim = 0.95\n", "given 2 times"),
            (MINIMAL + "tasks = all\ntask = a:organic:DE\n", "not both"),
            (MINIMAL + "tasks = some\n", "must be 'all'"),
            (MINIMAL + "outcomes = level,level\n", "'outcomes' lists 'level' more than once"),
            (MINIMAL + "outcomes = volatility, VOLATILITY\n", "'outcomes' lists 'volatility'"),
            (MINIMAL + "methods = ols,ipw,ols\n", "'methods' lists 'ols' more than once"),
            (
                MINIMAL + "task = tomato:organic:DE\ntask = tomato : organic : DE : tomato\n",
                "'task' lists 'tomato:organic:DE:tomato' more than once",
            ),
        ],
    )
    def test_invalid_configs(self, tmp_path, text, needle):
        with pytest.raises(ConfigError, match=needle):
            config_from(tmp_path, text)

    @pytest.mark.parametrize(
        "text,needle",
        [
            (MINIMAL + "methods = gmm\n",
             r"methods must be a non-empty subset of ipw,ols, got \('gmm',\)"),
            (MINIMAL + "trim = 0\n", r"trim must be in \(0, 1\], got 0.0"),
            (MINIMAL + "reps = -1\n", r"a bootstrap needs reps between 2 and 2\*\*32, got -1"),
            (MINIMAL + "reps = 1\n", r"a bootstrap needs reps between 2 and 2\*\*32, got 1"),
            (MINIMAL + f"reps = {2**32 + 1}\n", r"reps between 2 and 2\*\*32, got 4294967297"),
            (MINIMAL + "workers = 0\n", "workers must be >= 1, got 0"),
            (MINIMAL + "min_cell = 0\n", "min_cell must be >= 1, got 0"),
            ("prices = p.csv\ncalendar = c.csv\nseed = -4\n",
             "seed must be a non-negative integer, got -4"),
            (
                MINIMAL + "task = tomato:organic:DE\ntask = tomato:organic:CH\n",
                r"the control series tomato\[organic\]@CH must be in another country than "
                r"the treated series tomato\[organic\]@CH",
            ),
            (
                MINIMAL + "treated_country = DE\ntask = tomato:organic:DE:leek:north\n",
                r"the control series leek\[organic\]@DE/north must be in another country "
                r"than the treated series tomato\[organic\]@DE",
            ),
        ],
    )
    def test_out_of_range_settings_are_refused_by_validate(self, tmp_path, text, needle):
        config = config_from(tmp_path, text)  # parsing leaves the ranges alone
        with pytest.raises(ConfigError, match=needle):
            config.validate()

    def test_reps_zero_needs_no_seed(self, tmp_path):
        config = config_from(tmp_path, "prices = p.csv\ncalendar = c.csv\nreps = 0\n")
        assert config.seed is None

    def test_the_seed_is_left_to_the_commands_that_bootstrap(self, tmp_path):
        # ``describe`` reads this config too; ``run`` and ``pretrend`` refuse
        # a bootstrap without a seed themselves (see test_cli)
        config = config_from(tmp_path, "prices = p.csv\ncalendar = c.csv\n")
        assert (config.reps, config.seed) == (200, None)
        assert config.override(reps=100).seed is None

    def test_override_applies_flags_that_validate_then_checks(self, tmp_path):
        config = config_from(tmp_path, MINIMAL)
        updated = config.override(seed=9, trim=0.99, reps=10, workers=2,
                                  skip_bad_rows=True)
        assert (updated.seed, updated.trim, updated.reps, updated.workers) == (
            9, 0.99, 10, 2)
        assert updated.skip_bad_rows is True
        assert config.seed == 7  # original untouched
        updated.validate()
        with pytest.raises(ConfigError, match=r"trim must be in \(0, 1\], got 1.5"):
            config.override(trim=1.5).validate()

    def test_manifest_echoes_every_setting(self, tmp_path):
        config = config_from(tmp_path, MINIMAL + "task = tomato:organic:DE\n")
        manifest = config.manifest_dict()
        assert manifest["prices"] == "p.csv"
        assert manifest["outcomes"] == ["level", "volatility"]
        assert manifest["covariates"] == "seasonal_fe"
        assert manifest["seed"] == 7
        assert manifest["tasks"] == ["tomato:organic:DE:tomato"]
        assert set(manifest) == {
            "prices", "calendar", "treated_country", "outcomes",
            "methods", "covariates", "trim", "trim_treated",
            "reps", "seed", "min_cell", "workers", "output_dir", "tasks",
            "skip_bad_rows",
        }


class _Reached(Exception):
    """Raised by an estimator that ``bootstrap_se`` reached past its checks."""


def _reached(table):
    raise _Reached


def refusal(call, *args, **kwargs) -> str | None:
    """The text of the ConfigError that ``call`` raises, or None when it gets
    past its checks (whatever else it then raises)."""
    try:
        call(*args, **kwargs)
    except ConfigError as exc:
        return str(exc)
    except (SeasonDidError, _Reached):
        pass
    return None


def is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def run_config_refusal(**settings) -> str | None:
    config = RunConfig(prices=Path("p.csv"), calendar=Path("c.csv"), **settings)
    return refusal(config.validate)


# one row in each cell, so every estimate gets past the checks
ONE_ROW_PER_CELL = no_covariate_sample([1.0, 2.0, 3.0, 5.0], [1, 1, 0, 0], [1, 0, 1, 0])
NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 1, 2, 2**32, 2**32 + 1, -1, -2**32,
                     True, False]),
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestOneTextPerRule:
    """A setting out of its range is refused with one text by the config and
    by every library entry point that checks it; a value one accepts, all do."""

    @settings(max_examples=150, deadline=None)
    @given(NUMBERS)
    def test_trim(self, trim):
        texts = {
            run_config_refusal(trim=trim),
            refusal(basic_task, trim_threshold=trim),
            refusal(estimate_ipw_did, ONE_ROW_PER_CELL.cell_table(), trim),
        }
        assert len(texts) == 1
        assert (texts == {None}) == (0 < trim <= 1)

    @settings(max_examples=150, deadline=None)
    @given(NUMBERS)
    def test_reps(self, reps):
        texts = {run_config_refusal(reps=reps), refusal(basic_task, bootstrap_reps=reps)}
        bootstrap = refusal(bootstrap_se, ONE_ROW_PER_CELL, _reached, reps, 0)
        if is_integer(reps) and reps == 0:  # no bootstrap: a run takes it, a bootstrap does not
            assert texts == {None} and bootstrap is not None
        else:
            assert texts == {bootstrap}
            assert (bootstrap is None) == (is_integer(reps) and 2 <= reps <= 2**32)

    @settings(max_examples=150, deadline=None)
    @given(NUMBERS)
    def test_min_cell(self, min_cell):
        texts = {run_config_refusal(min_cell=min_cell), refusal(basic_task, min_cell=min_cell)}
        assert len(texts) == 1
        assert (texts == {None}) == (is_integer(min_cell) and min_cell >= 1)

    @settings(max_examples=150, deadline=None)
    @given(NUMBERS)
    def test_seed(self, seed):
        texts = {
            run_config_refusal(seed=seed),
            refusal(bootstrap_se, ONE_ROW_PER_CELL, _reached, 2, seed),
            refusal(SimConfig, seed=seed),
        }
        assert len(texts) == 1
        assert (texts == {None}) == (is_integer(seed) and seed >= 0)

    @pytest.mark.parametrize("reps", [2.5, 3.0, np.float64(3), True, np.int64(3)])
    def test_a_count_of_replicates_must_be_an_integer(self, reps):
        # a float count used to pass every check and fail in the replicate loop
        refused = None if isinstance(reps, np.integer) else (
            f"a bootstrap needs reps between 2 and 2**32, got {reps}")
        assert run_config_refusal(reps=reps) == refused
        assert refusal(basic_task, bootstrap_reps=reps) == refused
        if refused is None:
            bootstrap_se(ONE_ROW_PER_CELL, cell_means_did, reps, 0)
        else:
            with pytest.raises(ConfigError, match=re.escape(refused)):
                bootstrap_se(ONE_ROW_PER_CELL, cell_means_did, reps, 0)

    @pytest.mark.parametrize("min_cell", [2.5, 2.0, True, np.int64(2)])
    def test_a_minimum_cell_size_must_be_an_integer(self, min_cell):
        refused = None if isinstance(min_cell, np.integer) else (
            f"min_cell must be >= 1, got {min_cell}")
        assert run_config_refusal(min_cell=min_cell) == refused
        assert refusal(basic_task, min_cell=min_cell) == refused

    @pytest.mark.parametrize(
        "treated_country,country,control_product,region",
        itertools.product(["CH", "DE"], ["CH", "DE"], ["tomato", "leek"], ["", "north"]),
    )
    def test_control_country(self, treated_country, country, control_product, region):
        spec = TaskSpec.parse(f"tomato:organic:{country}:{control_product}:{region}")
        task_line = run_config_refusal(treated_country=treated_country, tasks=(spec,))
        treated = SeriesKey("tomato", Quality.ORGANIC, treated_country)
        task = refusal(EstimationTask, treated, spec.control, Outcome.LEVEL)
        assert task_line == task
        assert (task is None) == (treated_country != country)


class TestTaskSpec:
    def test_three_to_five_fields(self):
        assert TaskSpec.parse("tomato:organic:DE") == TaskSpec(
            "tomato", SeriesKey("tomato", Quality.ORGANIC, "DE"))
        assert TaskSpec.parse("tomato:organic:DE:pomodoro") == TaskSpec(
            "tomato", SeriesKey("pomodoro", Quality.ORGANIC, "DE"))
        assert TaskSpec.parse("tomato:organic:DE:pomodoro:south") == TaskSpec(
            "tomato", SeriesKey("pomodoro", Quality.ORGANIC, "DE", "south"))
        # empty optional fields fall back to their defaults
        assert TaskSpec.parse("tomato:organic:DE::south") == TaskSpec(
            "tomato", SeriesKey("tomato", Quality.ORGANIC, "DE", "south"))

    @pytest.mark.parametrize(
        "text,echo",
        [
            ("tomato:organic:DE", "tomato:organic:DE:tomato"),
            (" tomato : Organic : DE ", "tomato:organic:DE:tomato"),
            ("leek:organic:IT:porro:north", "leek:organic:IT:porro:north"),
            ("tomato:conventional:DE::south", "tomato:conventional:DE:tomato:south"),
            ("tomato:organic:DE:pomodoro:", "tomato:organic:DE:pomodoro"),
        ],
    )
    def test_text_round_trips_through_the_manifest_echo(self, text, echo):
        assert str(TaskSpec.parse(text)) == echo
        assert TaskSpec.parse(echo) == TaskSpec.parse(text)

    @pytest.mark.parametrize(
        "text", ["tomato:organic", "a:b:c:d:e:f", ":organic:DE", "tomato::DE",
                 "tomato:premium:DE"],
    )
    def test_malformed_lines(self, text):
        with pytest.raises(ConfigError):
            TaskSpec.parse(text)


class TestSimConfigFile:
    def test_typed_fields_parse(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(
            "n_seasons = 3\n"
            "weeks_per_season = 20\n"
            "protected_start = 5\n"
            "protected_end = 12\n"
            "base_price_treated = 300.5\n"
            "noise_sd = 2.5\n"
            "true_atet = -7\n"
            "seed = 11\n"
            "shared_season_shocks = no\n"
            "midweek_boundaries = true\n"
            "quality = Organic\n"
            "product = leek\n"
            "common_trend = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,"
            " 11, 12, 13, 14, 15, 16, 17, 18, 19, 20\n"
        )
        cfg = sim_config_from_file(path)
        assert cfg.n_seasons == 3
        assert cfg.weeks_per_season == 20
        assert cfg.base_price_treated == 300.5
        assert cfg.noise_sd == 2.5
        assert cfg.true_atet == -7.0
        assert cfg.seed == 11
        assert cfg.shared_season_shocks is False
        assert cfg.midweek_boundaries is True
        assert cfg.quality is Quality.ORGANIC
        assert cfg.product == "leek"
        assert cfg.common_trend == tuple(float(v) for v in range(1, 21))

    def test_seed_override_wins(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("seed = 11\n")
        assert sim_config_from_file(path).seed == 11
        assert sim_config_from_file(path, seed_override=99).seed == 99

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("mystery = 1\n", "unknown generator config keys"),
            ("seed = 1\nseed = 2\n", "given 2 times"),
            ("midweek_boundaries = perhaps\n", "expects a boolean"),
            ("common_trend = 1, fast\n", "comma-separated numbers"),
            ("weeks_per_season = 3\n", "weeks_per_season"),
            ("product =\n", "config key 'product' is empty"),
            ("treated_country =\n", "config key 'treated_country' is empty"),
            ("control_country =  \n", "config key 'control_country' is empty"),
        ],
    )
    def test_invalid_files(self, tmp_path, text, needle):
        path = tmp_path / "sim.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=needle):
            sim_config_from_file(path)


class TestExpandTasks:
    def run_config(self, tmp_path, extra=""):
        return config_from(tmp_path, MINIMAL + extra)

    def test_explicit_tasks_cross_outcomes(self, tmp_path):
        config = self.run_config(
            tmp_path, "task = tomato:conventional:DE\ntask = leek:organic:IT\n")
        tasks = expand_tasks(config)
        assert len(tasks) == 4  # 2 pairs x 2 outcomes
        first = tasks[0]
        assert first.treated.product == "tomato"
        assert first.treated.country == "CH"
        assert first.control.country == "DE"
        assert first.outcome is Outcome.LEVEL
        assert first.covariates is CovariateSpec.SEASONAL
        assert first.trim_threshold == 0.95
        assert first.bootstrap_reps == 200
        assert first.seed is None
        assert {t.outcome for t in tasks} == {Outcome.LEVEL, Outcome.VOLATILITY}

    def test_control_product_and_region_flow_through(self, tmp_path):
        config = self.run_config(
            tmp_path, "outcomes = level\ntask = tomato:organic:IT:pomodoro:south\n")
        (task,) = expand_tasks(config)
        assert task.control.product == "pomodoro"
        assert task.control.region == "south"
        assert task.control.quality is Quality.ORGANIC

    def test_all_pairs_from_the_panel(self, tmp_path):
        config = self.run_config(tmp_path, "outcomes = level\n")
        store = PanelStore([
            price_row("tomato", "CH", week(2016, 20), 5.0),
            price_row("tomato", "CH", week(2016, 20), 5.0, quality=Quality.ORGANIC),
            price_row("tomato", "DE", week(2016, 20), 4.0),
            price_row("tomato", "IT", week(2016, 20), 4.0),
            price_row("tomato", "DE", week(2016, 20), 4.0, quality=Quality.ORGANIC),
            price_row("leek", "CH", week(2016, 20), 2.0),     # no control market
            price_row("carrot", "DE", week(2016, 20), 2.0),   # no treated series
        ])
        tasks = expand_tasks(config, store=store)
        labels = [
            (t.treated.product, t.treated.quality.value, t.control.country)
            for t in tasks
        ]
        assert labels == [
            ("tomato", "conventional", "DE"),
            ("tomato", "conventional", "IT"),
            ("tomato", "organic", "DE"),
        ]

    def test_all_needs_a_store_and_a_match(self, tmp_path):
        config = self.run_config(tmp_path)
        with pytest.raises(ConfigError, match="requires the ingested panel"):
            expand_tasks(config)
        lonely = PanelStore([price_row("tomato", "CH", week(2016, 20), 5.0)])
        with pytest.raises(ConfigError, match="task list is empty"):
            expand_tasks(config, store=lonely)
