"""Workload definitions and the seeded input generator.

Every input is made by ``seasondid.simgen``: one ``generate_panel`` call per
series, with a seed derived from the workload seed and the series identity.
The treated series of a (product, quality, region) is drawn once, and each
control country from its own seed, so a subset of products generates exactly
the rows those products have in the full panel. The program under test only
ever sees the written ``prices.csv``, ``calendar.csv`` and run config.

seasondid is imported inside the functions that use it, so that the
benchmark can first check that it runs from a checkout holding the sources.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

TREATED_COUNTRY = "CH"
QUALITIES = ("conventional", "organic")
OUTCOMES = ("level", "volatility")


@dataclass(frozen=True)
class Panel:
    """Shape of a generated panel: every product is observed in both
    qualities, in the treated country and each control country, per region."""

    n_products: int
    control_countries: tuple[str, ...]
    regions: tuple[str | None, ...]
    n_seasons: int
    weeks_per_season: int
    # The last product is drawn with this missing-week probability.
    sparse_missing_prob: float = 0.0

    def products(self, only: tuple[int, ...] | None = None) -> list[tuple[int, str]]:
        indexes = range(self.n_products) if only is None else only
        return [(i, f"crop{i:02d}") for i in indexes]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "run" or "pretrend"
    panel: Panel
    reps: int
    workers: int
    # Products of the reference slice, checked against a committed table.
    reference_products: tuple[int, ...]


BOOT_PANEL = Panel(
    n_products=4,
    control_countries=("AT", "DE", "IT"),
    regions=(None,),
    n_seasons=6,
    weeks_per_season=30,
    sparse_missing_prob=0.3,
)
# The boot-ipw panel without its sparse product: which sparse tasks have the
# four pre-protection weeks the placebo needs depends on the seed, and with
# it the amount of bootstrap work.
PLACEBO_PANEL = replace(BOOT_PANEL, sparse_missing_prob=0.0)
WIDE_PANEL = Panel(
    n_products=20,
    control_countries=("AT", "DE", "FR", "IT"),
    regions=("north", "centre", "south"),
    n_seasons=3,
    weeks_per_season=30,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="boot-ipw",
            why=(
                "IPW batch with a stratified bootstrap on a process pool: fit_logistic "
                "and prune_design dominate, the store is pickled per task, and one "
                "sparse product makes replicates and tasks fail"
            ),
            command="run",
            panel=BOOT_PANEL,
            reps=60,
            workers=2,
            reference_products=(3,),
        ),
        Workload(
            name="wide-panel",
            why=(
                "wide panel with regions and no bootstrap: ingest, labelling and "
                "transforms do the work and IRLS little, so an estimator-only change "
                "should leave it unchanged"
            ),
            command="run",
            panel=WIDE_PANEL,
            reps=0,
            workers=1,
            reference_products=(0,),
        ),
        Workload(
            name="pretrend-means",
            why=(
                "pretrend placebo on the boot-ipw panel without its sparse product: the "
                "same bootstrap with the cell-means estimator and no GLM, run serially"
            ),
            command="pretrend",
            panel=PLACEBO_PANEL,
            reps=400,
            workers=1,
            reference_products=(0,),
        ),
    )
}


def series_seed(seed: int, *parts: object) -> int:
    """Generator seed of one series: stable across runs and Python versions."""
    text = "|".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def _sim_config(panel: Panel, index: int, product: str, quality: str):
    from seasondid.panel import Quality
    from seasondid.simgen import SimConfig

    protected_start = 6 + index % 4
    return SimConfig(
        n_seasons=panel.n_seasons,
        weeks_per_season=panel.weeks_per_season,
        protected_start=protected_start,
        protected_end=protected_start + 12,
        base_price_treated=120.0 + 10.0 * index,
        base_price_control=90.0 + 7.0 * index,
        season_shock_sd=1.5,
        noise_sd=2.0,
        true_atet=4.0 + index % 5,
        missing_week_prob=(
            panel.sparse_missing_prob if index == panel.n_products - 1 else 0.0
        ),
        product=product,
        quality=Quality(quality),
        treated_country=TREATED_COUNTRY,
        control_country=panel.control_countries[0],
    )


def generate_inputs(
    panel: Panel,
    seed: int,
    out_dir: Path,
    only_products: tuple[int, ...] | None = None,
) -> int:
    """Write ``prices.csv`` and ``calendar.csv`` for ``panel`` under
    ``out_dir``; returns the number of price rows written."""
    from seasondid.ingest import write_calendar, write_prices
    from seasondid.simgen import build_calendar, generate_panel

    observations = []
    windows: dict[str, tuple[str, str]] = {}
    for index, product in panel.products(only_products):
        for quality in QUALITIES:
            base = _sim_config(panel, index, product, quality)
            window = build_calendar(base).window_for(product)
            windows[product] = (str(window.start), str(window.end))
            for region in panel.regions:
                treated_seed = series_seed(seed, product, quality, TREATED_COUNTRY, region)
                treated, _, _ = generate_panel(replace(base, seed=treated_seed))
                observations += [_with_region(o, region) for o in treated]
                for country in panel.control_countries:
                    control_seed = series_seed(seed, product, quality, country, region)
                    _, control, _ = generate_panel(
                        replace(base, seed=control_seed, control_country=country)
                    )
                    observations += [_with_region(o, region) for o in control]
    out_dir.mkdir(parents=True, exist_ok=True)
    write_prices(out_dir / "prices.csv", observations)
    write_calendar(out_dir / "calendar.csv", windows)
    return len(observations)


def _with_region(obs, region: str | None):
    return obs if region is None else replace(obs, region=region)


def write_run_config(
    workload: Workload,
    path: Path,
    data_dir: Path,
    output_dir: Path,
    seed: int,
    workers: int,
) -> None:
    """Write the ``key = value`` run config the CLI reads."""
    lines = [
        f"prices = {data_dir / 'prices.csv'}",
        f"calendar = {data_dir / 'calendar.csv'}",
        f"treated_country = {TREATED_COUNTRY}",
        f"outcomes = {','.join(OUTCOMES)}",
        "methods = ipw,ols",
        "covariates = seasonal_fe",
        f"reps = {workload.reps}",
        f"seed = {seed}",
        f"workers = {workers}",
        f"output_dir = {output_dir}",
        "tasks = all",
    ]
    path.write_text("\n".join(lines) + "\n")
