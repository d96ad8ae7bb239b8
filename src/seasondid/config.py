"""Plain-text configuration: ``key = value`` lines, ``#`` comments.

Repeated ``task`` keys accumulate, but a task, outcome or method named twice
is rejected. Unknown keys are rejected so typos fail loudly. The same format configures batch runs and the synthetic generator.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .did import METHODS, CovariateSpec, EstimationTask, SeriesSpec, check_reps
from .errors import ConfigError
from .panel import Outcome, Quality
from .simgen import SimConfig

_TRUE = ("true", "1", "yes", "on")
_FALSE = ("false", "0", "no", "off")


def parse_config_text(text: str, source: str = "<config>") -> dict[str, list[str]]:
    """Parse key=value lines into {key: [values in file order]}."""
    values: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        values.setdefault(key, []).append(value)
    return values


def _single(values: dict[str, list[str]], key: str, default: str | None) -> str | None:
    if key not in values:
        return default
    entries = values[key]
    if len(entries) > 1:
        raise ConfigError(f"config key {key!r} given {len(entries)} times")
    return entries[0]


def _reject_repeats(items: tuple, key: str) -> None:
    """A repeated entry would repeat both the work and the output rows."""
    seen = set()
    for item in items:
        if item in seen:
            raise ConfigError(f"config key {key!r} lists {str(item)!r} more than once")
        seen.add(item)


def _parse_bool(text: str, key: str) -> bool:
    lowered = text.lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ConfigError(f"config key {key!r} expects a boolean, got {text!r}")


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"config key {key!r} expects an integer, got {text!r}") from None


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"config key {key!r} expects a number, got {text!r}") from None


@dataclass(frozen=True)
class TaskSpec:
    """One explicit task line: product:quality:control_country with optional
    :control_product and :control_region suffixes."""

    product: str
    quality: Quality
    control_country: str
    control_product: str
    control_region: str | None

    @classmethod
    def parse(cls, text: str) -> "TaskSpec":
        parts = [p.strip() for p in text.split(":")]
        if not 3 <= len(parts) <= 5 or not all(parts[:3]):
            raise ConfigError(
                "task must be 'product:quality:control_country"
                f"[:control_product[:control_region]]', got {text!r}"
            )
        product, quality_text, control_country = parts[:3]
        control_product = parts[3] if len(parts) > 3 and parts[3] else product
        control_region = parts[4] if len(parts) > 4 and parts[4] else None
        return cls(
            product=product,
            quality=Quality.parse(quality_text),
            control_country=control_country,
            control_product=control_product,
            control_region=control_region,
        )

    def __str__(self) -> str:
        parts = (
            self.product, self.quality.value, self.control_country, self.control_product,
            self.control_region,
        )
        return ":".join(filter(None, parts))


@dataclass(frozen=True)
class RunConfig:
    """Everything a batch run needs; every field is echoed to the manifest."""

    prices: Path
    calendar: Path
    treated_country: str
    outcomes: tuple[Outcome, ...]
    methods: tuple[str, ...]
    covariates: CovariateSpec
    trim: float
    trim_treated: bool
    reps: int
    seed: int | None
    min_cell: int
    workers: int
    output_dir: Path
    tasks: str | tuple[TaskSpec, ...]
    skip_bad_rows: bool

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        values = parse_config_text(path.read_text(), source=path.name)
        unknown = sorted(set(values) - _RUN_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")

        prices = _single(values, "prices", None)
        calendar = _single(values, "calendar", None)
        if not prices or not calendar:
            raise ConfigError("config must set both 'prices' and 'calendar'")

        outcome_text = _single(values, "outcomes", "level,volatility")
        try:
            outcomes = tuple(
                Outcome(part.strip().lower()) for part in outcome_text.split(",") if part.strip()
            )
        except ValueError:
            raise ConfigError(f"invalid outcomes {outcome_text!r}") from None
        if not outcomes:
            raise ConfigError("config key 'outcomes' is empty")
        _reject_repeats(outcomes, "outcomes")

        methods = tuple(
            part.strip().lower()
            for part in _single(values, "methods", "ipw").split(",")
            if part.strip()
        )
        _reject_repeats(methods, "methods")
        covariates_text = _single(values, "covariates", CovariateSpec.SEASONAL.value)
        try:
            covariates = CovariateSpec(covariates_text)
        except ValueError:
            raise ConfigError(
                f"invalid covariates {covariates_text!r}; expected one of "
                f"{[c.value for c in CovariateSpec]}"
            ) from None

        seed_text = _single(values, "seed", None)
        tasks_mode = _single(values, "tasks", None)
        task_lines = values.get("task", [])
        if tasks_mode is not None and task_lines:
            raise ConfigError("give either 'tasks = all' or explicit 'task' lines, not both")
        if tasks_mode is not None:
            if tasks_mode.lower() != "all":
                raise ConfigError(f"config key 'tasks' must be 'all', got {tasks_mode!r}")
            tasks: str | tuple[TaskSpec, ...] = "all"
        elif task_lines:
            tasks = tuple(TaskSpec.parse(line) for line in task_lines)
            _reject_repeats(tasks, "task")
        else:
            tasks = "all"

        config = cls(
            prices=Path(prices),
            calendar=Path(calendar),
            treated_country=_single(values, "treated_country", "CH"),
            outcomes=outcomes,
            methods=methods,
            covariates=covariates,
            trim=_parse_float(_single(values, "trim", "0.95"), "trim"),
            trim_treated=_parse_bool(_single(values, "trim_treated", "false"), "trim_treated"),
            reps=_parse_int(_single(values, "reps", "200"), "reps"),
            seed=_parse_int(seed_text, "seed") if seed_text is not None else None,
            min_cell=_parse_int(_single(values, "min_cell", "4"), "min_cell"),
            workers=_parse_int(_single(values, "workers", "1"), "workers"),
            output_dir=Path(_single(values, "output_dir", ".")),
            tasks=tasks,
            skip_bad_rows=_parse_bool(
                _single(values, "skip_bad_rows", "false"), "skip_bad_rows"
            ),
        )
        config.validate()
        return config

    def validate(self) -> None:
        if not 0.0 < self.trim <= 1.0:
            raise ConfigError(f"trim must be in (0, 1], got {self.trim}")
        check_reps(self.reps)
        if self.reps > 0 and self.seed is None:
            raise ConfigError("a seed is mandatory for any run involving the bootstrap")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.min_cell < 1:
            raise ConfigError(f"min_cell must be >= 1, got {self.min_cell}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown or not self.methods:
            raise ConfigError(
                f"methods must be a subset of {','.join(METHODS)}; got {self.methods!r}"
            )

    def override(
        self,
        seed: int | None = None,
        trim: float | None = None,
        reps: int | None = None,
        workers: int | None = None,
        skip_bad_rows: bool | None = None,
    ) -> "RunConfig":
        """Apply command-line overrides and re-validate."""
        from dataclasses import replace

        updated = replace(
            self,
            seed=self.seed if seed is None else seed,
            trim=self.trim if trim is None else trim,
            reps=self.reps if reps is None else reps,
            workers=self.workers if workers is None else workers,
            skip_bad_rows=self.skip_bad_rows if skip_bad_rows is None else skip_bad_rows,
        )
        updated.validate()
        return updated

    def manifest_dict(self) -> dict:
        """Every effective setting, defaults included, as JSON-ready values."""
        task_value = "all" if self.tasks == "all" else [str(spec) for spec in self.tasks]
        return {
            "prices": str(self.prices),
            "calendar": str(self.calendar),
            "treated_country": self.treated_country,
            "outcomes": [o.value for o in self.outcomes],
            "methods": list(self.methods),
            "covariates": self.covariates.value,
            "trim": self.trim,
            "trim_treated": self.trim_treated,
            "reps": self.reps,
            "seed": self.seed,
            "min_cell": self.min_cell,
            "workers": self.workers,
            "output_dir": str(self.output_dir),
            "tasks": task_value,
            "skip_bad_rows": self.skip_bad_rows,
        }


_RUN_KEYS = {f.name for f in fields(RunConfig)} | {"task"}


def _parse_numbers(text: str, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"{key} expects comma-separated numbers") from None


# A generator setting is parsed by the type of its SimConfig default.
_SIM_PARSERS = {
    bool: _parse_bool,
    int: _parse_int,
    float: _parse_float,
    str: lambda text, key: text,
    Quality: lambda text, key: Quality.parse(text),
    tuple: _parse_numbers,
}


def sim_config_from_file(path: str | Path, seed_override: int | None = None) -> SimConfig:
    """Build a :class:`SimConfig` from a key=value file."""
    path = Path(path)
    values = parse_config_text(path.read_text(), source=path.name)
    defaults = {f.name: f.default for f in fields(SimConfig)}
    unknown = sorted(set(values) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown generator config keys: {unknown}")
    kwargs: dict = {}
    for key, entries in values.items():
        if len(entries) > 1:
            raise ConfigError(f"config key {key!r} given {len(entries)} times")
        kwargs[key] = _SIM_PARSERS[type(defaults[key])](entries[0], key)
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return SimConfig(**kwargs)


def expand_tasks(config: RunConfig, store=None) -> list[EstimationTask]:
    """Materialize the task list: one task per (pair, outcome).

    With ``tasks = all``, every (product, quality) present for the treated
    country is paired with every control country carrying the same product
    and quality (regions pooled).
    """
    pairs: list[TaskSpec] = []
    if config.tasks == "all":
        if store is None:
            raise ConfigError("expanding 'tasks = all' requires the ingested panel")
        treated_pairs = set()
        control_markets: dict[tuple[str, Quality], set[str]] = {}
        for key in store.series():
            if key.country == config.treated_country:
                treated_pairs.add((key.product, key.quality))
            else:
                control_markets.setdefault((key.product, key.quality), set()).add(key.country)
        for product, quality in sorted(treated_pairs, key=lambda p: (p[0], p[1].value)):
            for country in sorted(control_markets.get((product, quality), ())):
                pairs.append(
                    TaskSpec(
                        product=product,
                        quality=quality,
                        control_country=country,
                        control_product=product,
                        control_region=None,
                    )
                )
    else:
        pairs = list(config.tasks)

    tasks = []
    for spec in pairs:
        for outcome in config.outcomes:
            task = EstimationTask(
                treated=SeriesSpec(spec.product, spec.quality, config.treated_country),
                control=SeriesSpec(
                    spec.control_product, spec.quality, spec.control_country,
                    spec.control_region,
                ),
                outcome=outcome,
                covariates=config.covariates,
                trim_threshold=config.trim,
                bootstrap_reps=config.reps,
                seed=None,  # filled per task from the master seed
                min_cell=config.min_cell,
                trim_treated=config.trim_treated,
            )
            tasks.append(task)
    if not tasks:
        raise ConfigError("task list is empty; nothing to estimate")
    return tasks
