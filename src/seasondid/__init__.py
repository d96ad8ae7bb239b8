"""seasondid: panel estimation of seasonal protection effects on weekly
producer prices.

The pipeline: ingest weekly price panels and a per-product protection
calendar, label weeks (Protected / Unprotected / Boundary) and seasons,
transform to standardized levels or week-to-week volatility, and estimate
the treated-cell effect by inverse-probability-weighted
difference-in-differences with stratified bootstrap inference. A synthetic
generator with a known injected effect closes the loop for validation.
"""

from .calendar import MonthDay, ProtectionCalendar, ProtectionWindow
from .did import (
    CellTable,
    CovariateSpec,
    DidSample,
    EffectEstimate,
    EstimationTask,
    bootstrap_se,
    build_sample,
    cell_means_did,
    estimate_ipw_did,
    estimate_ols_did,
    propensity_report,
    two_sided_normal_p,
)
from .diagnostics import (
    BiweekEffect,
    EffectAttributeRow,
    HeterogeneityResult,
    PhaseSummary,
    PlaceboResult,
    describe_distribution,
    heterogeneity_regression,
    join_effect_attributes,
    offset_weeks,
    pretrend_placebo,
    rolling_biweekly_effects,
)
from .errors import (
    BootstrapDegenerateError,
    CalendarError,
    CalendarMissError,
    ConfigError,
    ConvergenceError,
    DegenerateOutcomeError,
    EmptyOverlapError,
    GlmError,
    InfeasibleSampleError,
    IngestError,
    RankError,
    SeasonDidError,
    SeparationError,
    TrimExhaustionError,
)
from .glm import DesignMatrix, FitResult, fit_logistic, fit_ols, prune_design
from .ingest import (
    AttributeRecord,
    IngestReport,
    PanelStore,
    read_attributes,
    read_prices,
    write_calendar,
    write_prices,
)
from .panel import (
    PHASES,
    Outcome,
    PanelRows,
    PhaseLabel,
    PriceObservation,
    Quality,
    SeriesKey,
    apply_boundary_exclusion,
    label_panel,
    label_week,
    season_start_week,
    week_phases,
    week_seasons,
)
from .pipeline import TaskGroup, TaskResult, prepare_outcome_rows, run_task, task_seed
from .simgen import SimConfig, build_calendar, generate_panel, true_effect
from .transforms import (
    compute_volatility,
    restrict_to_production_weeks,
    standardize_prices,
)
from .weeks import IsoWeek

__version__ = "0.1.0"
