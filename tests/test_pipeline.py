"""prepare_outcome_rows and build_sample: the columnar pipeline gives the
row-level oracle's rows and samples bit for bit, rows shared across tasks
equal per-task rows, and failures stay per task."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from seasondid import (
    CovariateSpec,
    EstimationTask,
    IsoWeek,
    MonthDay,
    Outcome,
    PanelStore,
    ProtectionCalendar,
    ProtectionWindow,
    Quality,
    SeriesKey,
)
from seasondid import pipeline
from seasondid.cli import EXIT_OK, main
from seasondid.did import build_sample
from seasondid.errors import (
    CalendarMissError,
    ConfigError,
    EmptyOverlapError,
    InfeasibleSampleError,
    SeparationError,
)
from seasondid.ingest import write_calendar, write_prices
from seasondid.pipeline import TaskGroup, prepare_outcome_rows
from seasondid.simgen import SimConfig, generate_panel

from helpers import oracle_records, price_row, records, shift, window

PRODUCTS = ("tomato", "leek")
COUNTRIES = ("CH", "DE", "FR")
REGIONS = ("north", "south")
FIRST_WEEK = IsoWeek(2015, 1)
ERRORS = (ConfigError, CalendarMissError, EmptyOverlapError, InfeasibleSampleError)


def outcome_of(fn, *args):
    """What ``fn`` returns, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except ERRORS as exc:
        return type(exc), str(exc)


def columnar_rows(task, store, observations, calendar, group=None):
    return tuple(map(records, prepare_outcome_rows(task, store, calendar, group)))


def oracle_rows(task, store, observations, calendar):
    return tuple(map(oracle_records, oracles.prepare_outcome_rows(task, observations, calendar)))


def columnar_sample(task, store, observations, calendar):
    return build_sample(task, *prepare_outcome_rows(task, store, calendar))


def oracle_sample(task, store, observations, calendar):
    return oracles.build_sample(task, *oracles.prepare_outcome_rows(task, observations, calendar))


# ---------------------------------------------------------------------------
# random panels


@st.composite
def panels(draw):
    """(calendar, layout, n_weeks, missing share, tasks) of a small panel.

    Protection windows start and end on random days, so most edges fall
    mid-week. Each (product, country) market is either one pooled series or
    one series per region; weeks go missing at random. Tasks pair a CH
    series with a control series whose product may differ from the treated
    one, and may name a region or a market that has no data.
    """
    entries = {}
    for product in PRODUCTS:
        start = MonthDay(draw(st.integers(3, 5)), draw(st.integers(1, 28)))
        end = MonthDay(draw(st.integers(7, 9)), draw(st.integers(1, 28)))
        entries[product] = ProtectionWindow(start, end)
    calendar = ProtectionCalendar(entries)
    layout = {
        (product, country): draw(st.sampled_from([(None,), REGIONS]))
        for product in PRODUCTS
        for country in COUNTRIES
        if draw(st.integers(0, 9)) > 0
    }
    n_weeks = draw(st.integers(60, 130))
    missing = draw(st.sampled_from([0.0, 0.1, 0.4]))
    task = st.builds(
        lambda treated, control_product, country, region, outcome: EstimationTask(
            treated=SeriesKey(treated, Quality.CONVENTIONAL, "CH"),
            control=SeriesKey(control_product, Quality.CONVENTIONAL, country, region),
            outcome=outcome,
            bootstrap_reps=0,
        ),
        st.sampled_from(PRODUCTS),
        st.sampled_from(PRODUCTS),
        st.sampled_from(COUNTRIES[1:]),
        st.sampled_from((None,) + REGIONS),
        st.sampled_from(list(Outcome)),
    )
    tasks = draw(st.lists(task, min_size=1, max_size=12))
    return calendar, layout, n_weeks, missing, tasks


def random_panel(layout, n_weeks, missing, seed):
    """(store, observations) of a random panel: rows in random order."""
    rng = np.random.default_rng(seed)
    rows = []
    for (product, country), regions in sorted(layout.items()):
        for region in regions:
            for i in range(n_weeks):
                if rng.random() >= missing:
                    price = float(rng.uniform(20.0, 200.0))
                    rows.append(price_row(product, country, shift(FIRST_WEEK, i), price,
                                          region=region))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    return PanelStore(rows), rows


class TestSharedRowsEqualPerTaskRows:
    @settings(max_examples=60, deadline=None)
    @given(panels(), st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
    def test_shuffled_groups_on_two_stores(self, panel, random, seed):
        calendar, layout, n_weeks, missing, tasks = panel
        # Two stores with the same series and different prices, one after the
        # other in this process: neither may get the other's rows.
        panels_ = [random_panel(layout, n_weeks, missing, seed + i) for i in range(2)]
        for store, observations in panels_:
            groups = {}
            for task in tasks:
                groups.setdefault(task.treated, []).append(task)
            order = list(groups.values())
            random.shuffle(order)
            for group_tasks in order:
                group = TaskGroup(group_tasks, store, calendar)
                runs = group_tasks * 2  # repeats read the group's blocks again
                random.shuffle(runs)
                for task in runs:
                    args = (task, store, observations, calendar)
                    got = outcome_of(columnar_rows, *args, group)
                    assert got == outcome_of(oracle_rows, *args)


# ---------------------------------------------------------------------------
# one task group as one block


CONTROL_COUNTRIES = ("AT", "DE", "FR", "IT")
# Where a market's weeks start, and at most how many there are: with the
# treated market, after its last week, or with a first or a last week in a
# year whose weeks cannot be labelled (dates end in ISO week 9999-W52),
# which the store refuses.
UNLABELLED = ("year 2", "year 9999")
STARTS = {
    "overlap": (FIRST_WEEK, 130),
    "disjoint": (shift(FIRST_WEEK, 200), 130),
    "year 2": (IsoWeek(2, 30), 130),
    "year 9999": (IsoWeek(9998, 30), 60),
}


@st.composite
def task_groups(draw):
    """(calendar, markets, n_weeks, missing share, tasks) of one task group.

    The tasks share a CH treated market, whose product may have no calendar
    entry (okra), and pair it with 1-6 control markets in both outcomes.
    ``markets`` maps each (product, country) with data to its regions and
    where its weeks start; a control may name a region or market without
    data."""
    calendar = ProtectionCalendar({
        product: ProtectionWindow(MonthDay(draw(st.integers(3, 5)), draw(st.integers(1, 28))),
                                  MonthDay(draw(st.integers(7, 9)), draw(st.integers(1, 28))))
        for product in PRODUCTS
    })
    products = PRODUCTS + ("okra",)
    treated = SeriesKey(draw(st.sampled_from(products)), Quality.CONVENTIONAL, "CH",
                        draw(st.sampled_from((None, None, "north"))))
    controls = draw(st.lists(
        st.builds(SeriesKey, st.sampled_from(products), st.just(Quality.CONVENTIONAL),
                  st.sampled_from(CONTROL_COUNTRIES), st.sampled_from((None,) + REGIONS)),
        min_size=1, max_size=6, unique=True,
    ))
    markets = {}
    for key in [treated, *controls]:
        # the treated market has data, mostly in labelled years
        if (key.product, key.country) not in markets and (
            key is treated or draw(st.integers(0, 5)) > 0
        ):
            regions = draw(st.sampled_from([(None,), REGIONS]))
            starts = ["overlap"] * (6 if key is treated else 3) + list(STARTS)
            markets[key.product, key.country] = regions, draw(st.sampled_from(starts))
    n_weeks = draw(st.integers(60, 130))
    missing = draw(st.sampled_from([0.0, 0.1, 0.4]))
    tasks = [
        EstimationTask(treated=treated, control=control, outcome=outcome, bootstrap_reps=0)
        for control in controls
        for outcome in Outcome
    ]
    return calendar, markets, n_weeks, missing, draw(st.permutations(tasks))


def group_panel(markets, n_weeks, missing, seed):
    """The observations of the markets, in random order."""
    rng = np.random.default_rng(seed)
    rows = []
    for (product, country), (regions, start) in sorted(markets.items()):
        first, most = STARTS[start]
        for region in regions:
            rows += [
                price_row(product, country, shift(first, i), float(rng.uniform(20.0, 200.0)),
                          region=region)
                for i in range(min(n_weeks, most))
                if rng.random() >= missing
            ]
    return [rows[i] for i in rng.permutation(len(rows))]


def columns(rows) -> tuple:
    """Each row's series and the bytes of its week, value, phase and season."""
    return (
        [rows.keys[code] for code in rows.series.tolist()],
        *(getattr(rows, name).tobytes() for name in ("week", "value", "phase", "season")),
    )


def oracle_columns(rows) -> tuple:
    """``columns`` of the row-level oracle's outcome rows."""
    return (
        [row.series for row in rows],
        np.array([row.week.ordinal for row in rows], dtype=np.int64).tobytes(),
        np.array([row.value for row in rows], dtype=float).tobytes(),
        np.array([row.phase.code for row in rows], dtype=np.int8).tobytes(),
        np.array([row.season.index for row in rows], dtype=np.int64).tobytes(),
    )


class TestGroupBlocksEqualTheRowLevelOracle:
    @settings(max_examples=150, deadline=None)
    @given(task_groups(), st.integers(0, 2**32 - 1))
    def test_every_task_of_a_group(self, group_, seed):
        calendar, markets, n_weeks, missing, tasks = group_
        observations = group_panel(markets, n_weeks, missing, seed)
        unlabelled = [market for market, (_, start) in markets.items() if start in UNLABELLED]
        if unlabelled:
            # the store refuses them when it is built; the other markets run
            refusal = oracles.store_refusal(oracles.columns_of(observations))
            assert refusal.startswith("year ")
            assert outcome_of(PanelStore, observations) == (ConfigError, refusal)
            observations = [obs for obs in observations
                            if (obs.product, obs.country) not in unlabelled]
        store = PanelStore(observations)
        group = TaskGroup(tasks, store, calendar)
        for task in tasks:
            got = outcome_of(
                lambda: tuple(map(columns, prepare_outcome_rows(task, store, calendar, group)))
            )
            want = outcome_of(
                lambda: tuple(map(oracle_columns,
                                  oracles.prepare_outcome_rows(task, observations, calendar)))
            )
            assert got == want, task

    def test_a_group_needs_one_treated_market(self):
        tasks = [
            EstimationTask(treated=SeriesKey(product, Quality.CONVENTIONAL, "CH"),
                           control=SeriesKey(product, Quality.CONVENTIONAL, "DE"),
                           outcome=Outcome.LEVEL, bootstrap_reps=0)
            for product in PRODUCTS
        ]
        with pytest.raises(ValueError, match="share one treated market"):
            TaskGroup(tasks, PanelStore(), ProtectionCalendar({}))


def same_sample(got, want) -> bool:
    """Bitwise-equal samples, or the same error."""
    if isinstance(got, tuple) or isinstance(want, tuple):
        return got == want
    return all(
        getattr(got, name).dtype == getattr(want, name).dtype
        and getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for name in ("y", "d", "t", "stratum")
    )


class TestSamplesEqualTheRowLevelOracle:
    @settings(max_examples=60, deadline=None)
    @given(panels(), st.integers(0, 2**32 - 1), st.sampled_from(list(CovariateSpec)),
           st.integers(1, 6))
    def test_both_outcomes(self, panel, seed, covariates, min_cell):
        calendar, layout, n_weeks, missing, tasks = panel
        store, observations = random_panel(layout, n_weeks, missing, seed)
        for task in tasks:
            for outcome in Outcome:
                task = replace(task, outcome=outcome, covariates=covariates, min_cell=min_cell)
                args = (task, store, observations, calendar)
                got = outcome_of(columnar_sample, *args)
                want = outcome_of(oracle_sample, *args)
                assert same_sample(got, want), (task, got, want)


# ---------------------------------------------------------------------------
# reuse in a batch and failures per task


def test_cli_run_labels_each_row_once_on_the_one_window(tmp_path, monkeypatch):
    treated = []
    controls = []
    for country in ("AT", "DE", "FR"):
        config = SimConfig(n_seasons=3, weeks_per_season=20, protected_start=5,
                           protected_end=14, noise_sd=1.0, seed=3, control_country=country)
        treated, control, calendar = generate_panel(config)
        controls.extend(control)
    write_prices(tmp_path / "prices.csv", treated + controls)
    sim_window = calendar.window_for(config.product)
    write_calendar(tmp_path / "calendar.csv",
                   {config.product: (str(sim_window.start), str(sim_window.end))})
    (tmp_path / "run.cfg").write_text(
        f"prices = {tmp_path / 'prices.csv'}\n"
        f"calendar = {tmp_path / 'calendar.csv'}\n"
        "outcomes = level,volatility\n"
        "methods = ipw,ols\n"
        "reps = 0\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    labelled = []
    label_panel = pipeline.label_panel

    def recording_label_panel(rows, calendar, window_product=None):
        labelled.extend((rows.keys[code].country, week, window_product)
                        for code, week in zip(rows.series.tolist(), rows.week.tolist()))
        return label_panel(rows, calendar, window_product=window_product)

    monkeypatch.setattr(pipeline, "label_panel", recording_label_panel)
    assert main(["run", "--config", str(tmp_path / "run.cfg"), "--workers", "1"]) == EXIT_OK
    # 3 controls x 2 outcomes = 6 tasks: every row of CH, AT, DE and FR is
    # labelled exactly once, on the treated product's window.
    rows = [(obs.country, obs.week.ordinal, config.product) for obs in treated + controls]
    assert {country for country, _, _ in rows} == {"CH", "AT", "DE", "FR"}
    assert sorted(labelled) == sorted(rows)


class TestFailuresStayPerTask:
    """Each failure keeps the per-task exception type and message, on every
    task that reaches it: a failed call leaves nothing for the next one."""

    @staticmethod
    def panel(overlap=True):
        """(store, observations)"""
        weeks = [shift(FIRST_WEEK, i) for i in range(60)]
        control_weeks = weeks if overlap else [shift(FIRST_WEEK, 60 + i) for i in range(60)]
        rows = [price_row("tomato", "CH", w, 100.0 + i) for i, w in enumerate(weeks)]
        rows += [price_row("tomato", "DE", w, 80.0 + i % 7) for i, w in enumerate(control_weeks)]
        rows += [price_row("okra", "CH", w, 90.0 + i % 5) for i, w in enumerate(weeks)]
        rows += [price_row("okra", "DE", w, 70.0 + i % 3) for i, w in enumerate(weeks)]
        return PanelStore(rows), rows

    @pytest.mark.parametrize(
        "treated,control,overlap,error,needle",
        [
            ("leek", "DE", True, ConfigError, "no price data for treated series"),
            ("tomato", "FR", True, ConfigError, "no price data for control series"),
            ("okra", "DE", True, CalendarMissError, "no protection-calendar entry"),
            # Both series are checked for data before either is labelled.
            ("okra", "FR", True, ConfigError, "no price data for control series"),
            ("tomato", "DE", False, EmptyOverlapError, "no control observation falls"),
        ],
    )
    def test_every_task_raises(self, treated, control, overlap, error, needle):
        store, observations = self.panel(overlap)
        calendar = ProtectionCalendar({"tomato": window("05-10", "08-31"),
                                       "leek": window("04-01", "06-30")})
        tasks = [
            EstimationTask(
                treated=SeriesKey(treated, Quality.CONVENTIONAL, "CH"),
                control=SeriesKey(treated, Quality.CONVENTIONAL, control),
                outcome=outcome,
                bootstrap_reps=0,
            )
            for outcome in Outcome
        ]
        for task in tasks * 2:
            with pytest.raises(error, match=needle) as raised:
                prepare_outcome_rows(task, store, calendar)
            with pytest.raises(error) as expected:
                oracles.prepare_outcome_rows(task, observations, calendar)
            assert str(raised.value) == str(expected.value)


def test_missing_seed_is_reported_before_estimation():
    # The control series lacks a whole season, so the IPW propensities
    # separate; a bootstrap task without a seed must name the seed, not that.
    cfg = SimConfig(n_seasons=3, seed=4)
    treated, control, calendar = generate_panel(cfg)
    control = [obs for obs in control if obs.week.year != 2016]
    store = PanelStore(treated + control)
    task = EstimationTask(
        treated=SeriesKey(cfg.product, cfg.quality, cfg.treated_country),
        control=SeriesKey(cfg.product, cfg.quality, cfg.control_country),
        outcome=Outcome.LEVEL,
        bootstrap_reps=20,
        seed=None,
    )
    with pytest.raises(ConfigError, match="a seed is required"):
        pipeline.run_task(task, store, calendar)
    with pytest.raises(SeparationError):
        pipeline.run_task(replace(task, seed=1), store, calendar)
    # OLS draws nothing, so it needs no seed
    (ols,) = pipeline.run_task(task, store, calendar, methods=("ols",)).estimates
    assert ols.seed is None
