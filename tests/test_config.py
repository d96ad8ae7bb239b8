"""Run/generator configuration parsing and task expansion."""

import pytest

from seasondid import Outcome, PanelStore, Quality
from seasondid.config import (
    RunConfig,
    TaskSpec,
    expand_tasks,
    parse_config_text,
    sim_config_from_file,
)
from seasondid.did import CovariateSpec
from seasondid.errors import ConfigError

from conftest import price_row, week

MINIMAL = "prices = p.csv\ncalendar = c.csv\nseed = 7\n"


def config_from(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return RunConfig.from_file(path)


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
            TaskSpec("tomato", Quality.CONVENTIONAL, "DE", "tomato", None),
            TaskSpec("leek", Quality.ORGANIC, "IT", "porro", "north"),
        )

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("calendar = c.csv\nseed = 1\n", "both 'prices' and 'calendar'"),
            (MINIMAL + "mystery = 1\n", "mystery"),
            (MINIMAL + "attributes = a.csv\n", r"unknown config keys: \['attributes'\]"),
            (MINIMAL + "outcomes = levels\n", "invalid outcomes"),
            (MINIMAL + "outcomes = ,\n", "empty"),
            (MINIMAL + "methods = gmm\n", "subset of ipw,ols"),
            (MINIMAL + "covariates = none_at_all\n", "invalid covariates"),
            (MINIMAL + "covariates = seasonal_plus_biweekly_fe\n", "invalid covariates"),
            (MINIMAL + "trim = 0\n", "trim must be in"),
            (MINIMAL + "trim = nope\n", "expects a number"),
            (MINIMAL + "reps = -1\n", "reps must be"),
            (MINIMAL + "reps = 1\n", r"reps must be 0 or between 2 and 2\*\*32 .*, got 1"),
            (MINIMAL + f"reps = {2**32 + 1}\n", r"reps must be 0 or between 2 and 2\*\*32"),
            (MINIMAL + "reps = many\n", "expects an integer"),
            (MINIMAL + "workers = 0\n", "workers"),
            (MINIMAL + "min_cell = 0\n", "min_cell"),
            ("prices = p.csv\ncalendar = c.csv\nseed = -4\n", "non-negative"),
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
            ("prices = p.csv\ncalendar = c.csv\n", "seed is mandatory"),
        ],
    )
    def test_invalid_configs(self, tmp_path, text, needle):
        with pytest.raises(ConfigError, match=needle):
            config_from(tmp_path, text)

    def test_reps_zero_needs_no_seed(self, tmp_path):
        config = config_from(tmp_path, "prices = p.csv\ncalendar = c.csv\nreps = 0\n")
        assert config.seed is None

    def test_override_revalidates(self, tmp_path):
        config = config_from(tmp_path, MINIMAL)
        updated = config.override(seed=9, trim=0.99, reps=10, workers=2,
                                  skip_bad_rows=True)
        assert (updated.seed, updated.trim, updated.reps, updated.workers) == (
            9, 0.99, 10, 2)
        assert updated.skip_bad_rows is True
        assert config.seed == 7  # original untouched
        with pytest.raises(ConfigError):
            config.override(trim=1.5)
        no_seed = config_from(tmp_path, "prices = p.csv\ncalendar = c.csv\nreps = 0\n")
        with pytest.raises(ConfigError, match="seed is mandatory"):
            no_seed.override(reps=100)

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


class TestTaskSpec:
    def test_three_to_five_fields(self):
        assert TaskSpec.parse("tomato:organic:DE") == TaskSpec(
            "tomato", Quality.ORGANIC, "DE", "tomato", None)
        assert TaskSpec.parse("tomato:organic:DE:pomodoro") == TaskSpec(
            "tomato", Quality.ORGANIC, "DE", "pomodoro", None)
        assert TaskSpec.parse("tomato:organic:DE:pomodoro:south") == TaskSpec(
            "tomato", Quality.ORGANIC, "DE", "pomodoro", "south")
        # empty optional fields fall back to their defaults
        assert TaskSpec.parse("tomato:organic:DE::south") == TaskSpec(
            "tomato", Quality.ORGANIC, "DE", "tomato", "south")

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
