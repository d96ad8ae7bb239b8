"""prepare_outcome_rows: rows shared across tasks equal per-task rows, and
failures stay per task."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seasondid import (
    EstimationTask,
    IsoWeek,
    MonthDay,
    Outcome,
    PanelStore,
    ProtectionCalendar,
    ProtectionWindow,
    Quality,
    SeriesSpec,
)
from seasondid import pipeline
from seasondid.cli import EXIT_OK, main
from seasondid.errors import CalendarMissError, ConfigError, EmptyOverlapError, SeparationError
from seasondid.ingest import write_calendar, write_prices
from seasondid.panel import (
    LabeledObservation,
    SeasonId,
    apply_boundary_exclusion,
    assign_season_week,
    label_week,
)
from seasondid.pipeline import prepare_outcome_rows
from seasondid.simgen import SimConfig, generate_panel
from seasondid.transforms import (
    compute_volatility,
    restrict_to_production_weeks,
    standardize_prices,
)

from conftest import price_row, window

PRODUCTS = ("tomato", "leek")
COUNTRIES = ("CH", "DE", "FR")
REGIONS = ("north", "south")
FIRST_WEEK = IsoWeek(2015, 1)


# ---------------------------------------------------------------------------
# reference: every task selects, labels and transforms its own rows


def reference_rows_matching(store, spec):
    rows = []
    for key in store.series():
        if (key.product, key.quality, key.country) != (spec.product, spec.quality, spec.country):
            continue
        if spec.region is not None and key.region != spec.region:
            continue
        rows.extend(store.rows_for(key))
    return rows


def reference_label_panel(observations, calendar, window_product):
    window_ = calendar.window_for(window_product)
    return [
        LabeledObservation(
            obs=obs,
            phase=label_week(window_, obs.week),
            season=SeasonId(window_product, assign_season_week(window_, obs.week)),
        )
        for obs in observations
    ]


def reference_prepare_outcome_rows(task, store, calendar):
    treated_raw = reference_rows_matching(store, task.treated)
    control_raw = reference_rows_matching(store, task.control)
    if not treated_raw:
        raise ConfigError(f"no price data for treated series {task.treated}")
    if not control_raw:
        raise ConfigError(f"no price data for control series {task.control}")

    window_product = task.treated.product
    treated_labeled = reference_label_panel(treated_raw, calendar, window_product)
    control_labeled = reference_label_panel(control_raw, calendar, window_product)

    if task.outcome is Outcome.LEVEL:
        treated_rows = apply_boundary_exclusion(standardize_prices(treated_labeled))
        control_rows = apply_boundary_exclusion(standardize_prices(control_labeled))
    else:
        treated_rows = compute_volatility(treated_labeled)
        control_rows = compute_volatility(control_labeled)

    control_rows = restrict_to_production_weeks(
        control_rows,
        treated_rows,
        product_map={task.control.product: task.treated.product},
    )
    return treated_rows, control_rows


def outcome_of(fn, task, store, calendar):
    """Rows, or the type and message of the error ``fn`` raised."""
    try:
        return fn(task, store, calendar)
    except (ConfigError, CalendarMissError, EmptyOverlapError) as exc:
        return type(exc), str(exc)


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
            treated=SeriesSpec(treated, Quality.CONVENTIONAL, "CH"),
            control=SeriesSpec(control_product, Quality.CONVENTIONAL, country, region),
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


def random_store(layout, n_weeks, missing, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for (product, country), regions in sorted(layout.items()):
        for region in regions:
            for i in range(n_weeks):
                if rng.random() >= missing:
                    price = float(rng.uniform(20.0, 200.0))
                    rows.append(price_row(product, country, FIRST_WEEK.offset(i), price,
                                          region=region))
    return PanelStore(rows)


class TestSharedRowsEqualPerTaskRows:
    @settings(max_examples=60, deadline=None)
    @given(panels(), st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
    def test_shuffled_tasks_on_two_stores(self, panel, random, seed):
        calendar, layout, n_weeks, missing, tasks = panel
        # Two stores with the same series and different prices, one after the
        # other in this process: neither may get the other's rows.
        stores = [random_store(layout, n_weeks, missing, seed + i) for i in range(2)]
        for store in stores:
            order = tasks * 2  # repeats hit the memo
            random.shuffle(order)
            for task in order:
                got = outcome_of(prepare_outcome_rows, task, store, calendar)
                want = outcome_of(reference_prepare_outcome_rows, task, store, calendar)
                assert got == want


# ---------------------------------------------------------------------------
# reuse in a batch and failures per task


def test_cli_run_labels_each_series_once_per_window_product(tmp_path, monkeypatch):
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
    calls = []
    label_panel = pipeline.label_panel

    def counting_label_panel(observations, calendar, window_product=None):
        calls.append((observations[0].country, window_product))
        return label_panel(observations, calendar, window_product=window_product)

    monkeypatch.setattr(pipeline, "label_panel", counting_label_panel)
    assert main(["run", "--config", str(tmp_path / "run.cfg"), "--workers", "1"]) == EXIT_OK
    # 3 controls x 2 outcomes = 6 tasks over 4 series, all on the one window.
    product = config.product
    assert sorted(calls) == [(c, product) for c in ("AT", "CH", "DE", "FR")]


class TestFailuresStayPerTask:
    """Each failure keeps the per-task exception type and message, on every
    task that reaches it: a failed call leaves nothing for the next one."""

    @staticmethod
    def panel(overlap=True):
        weeks = [FIRST_WEEK.offset(i) for i in range(60)]
        control_weeks = weeks if overlap else [FIRST_WEEK.offset(60 + i) for i in range(60)]
        rows = [price_row("tomato", "CH", w, 100.0 + i) for i, w in enumerate(weeks)]
        rows += [price_row("tomato", "DE", w, 80.0 + i % 7) for i, w in enumerate(control_weeks)]
        rows += [price_row("okra", "CH", w, 90.0 + i % 5) for i, w in enumerate(weeks)]
        rows += [price_row("okra", "DE", w, 70.0 + i % 3) for i, w in enumerate(weeks)]
        return PanelStore(rows)

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
        store = self.panel(overlap)
        calendar = ProtectionCalendar({"tomato": window("05-10", "08-31"),
                                       "leek": window("04-01", "06-30")})
        tasks = [
            EstimationTask(
                treated=SeriesSpec(treated, Quality.CONVENTIONAL, "CH"),
                control=SeriesSpec(treated, Quality.CONVENTIONAL, control),
                outcome=outcome,
                bootstrap_reps=0,
            )
            for outcome in Outcome
        ]
        for task in tasks * 2:
            with pytest.raises(error, match=needle) as raised:
                prepare_outcome_rows(task, store, calendar)
            with pytest.raises(error) as expected:
                reference_prepare_outcome_rows(task, store, calendar)
            assert str(raised.value) == str(expected.value)


def test_missing_seed_is_reported_before_estimation():
    # The control series lacks a whole season, so the IPW propensities
    # separate; a bootstrap task without a seed must name the seed, not that.
    cfg = SimConfig(n_seasons=3, seed=4)
    treated, control, calendar = generate_panel(cfg)
    control = [obs for obs in control if obs.week.year != 2016]
    store = PanelStore(treated + control)
    task = EstimationTask(
        treated=SeriesSpec(cfg.product, cfg.quality, cfg.treated_country),
        control=SeriesSpec(cfg.product, cfg.quality, cfg.control_country),
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
