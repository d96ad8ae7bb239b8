"""Plain-text configuration: ``key = value`` lines, ``#`` comments.

The same format configures batch runs and the synthetic generator. Each key
sets the field of its name: a ``RunConfig`` field carries its default and
its parser, and a ``SimConfig`` field is parsed by the type of its default.
Unknown keys and keys given twice are rejected so typos fail loudly, except
``task`` lines, which accumulate; a task, outcome or method named twice is
rejected.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

from .did import METHODS, CovariateSpec, EstimationTask, check_reps
from .errors import ConfigError, utf8_text
from .panel import Outcome, Quality, SeriesKey
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


def _config_values(path: str | Path) -> dict[str, list[str]]:
    """The key=value lines of a UTF-8 config file."""
    path = Path(path)
    with utf8_text(path, ConfigError):
        text = path.read_text(encoding="utf-8")
    return parse_config_text(text, source=path.name)


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
    """One explicit task line, product:quality:control_country with optional
    :control_product and :control_region suffixes: the treated product and
    the control market, whose quality is the task's."""

    product: str
    control: SeriesKey

    @classmethod
    def parse(cls, text: str) -> "TaskSpec":
        parts = [p.strip() for p in text.split(":")]
        if not 3 <= len(parts) <= 5 or not all(parts[:3]):
            raise ConfigError(
                "task must be 'product:quality:control_country"
                f"[:control_product[:control_region]]', got {text!r}"
            )
        product, quality, country, control_product, region = parts + [""] * (5 - len(parts))
        return cls(
            product, SeriesKey(control_product or product, Quality.parse(quality), country,
                               region or None)
        )

    def __str__(self) -> str:
        control = self.control
        parts = (self.product, control.quality.value, control.country, control.product,
                 control.region)
        return ":".join(filter(None, parts))


def _parse_text(text: str, key: str) -> str:
    if not text:
        raise ConfigError(f"config key {key!r} is empty")
    return text


def _parse_path(text: str, key: str) -> Path:
    if "\0" in text:
        raise ConfigError(f"config key {key!r} contains a NUL byte")
    return Path(text)


def _parse_outcomes(text: str, key: str) -> tuple[Outcome, ...]:
    try:
        outcomes = tuple(
            Outcome(part.strip().lower()) for part in text.split(",") if part.strip()
        )
    except ValueError:
        raise ConfigError(f"invalid {key} {text!r}") from None
    if not outcomes:
        raise ConfigError(f"config key {key!r} is empty")
    _reject_repeats(outcomes, key)
    return outcomes


def _parse_methods(text: str, key: str) -> tuple[str, ...]:
    methods = tuple(part.strip().lower() for part in text.split(",") if part.strip())
    _reject_repeats(methods, key)
    return methods


def _parse_covariates(text: str, key: str) -> CovariateSpec:
    try:
        return CovariateSpec(text)
    except ValueError:
        raise ConfigError(
            f"invalid {key} {text!r}; expected one of {[c.value for c in CovariateSpec]}"
        ) from None


def _parse_all(text: str, key: str) -> str:
    if text.lower() != "all":
        raise ConfigError(f"config key {key!r} must be 'all', got {text!r}")
    return "all"


def _setting(parse: Callable[[str, str], object], default=MISSING):
    """A field set by the config key of its name, whose text ``parse`` reads."""
    return field(default=default, metadata={"parse": parse})


def _parse_fields(values: dict[str, list[str]], parsers: dict[str, Callable], what: str) -> dict:
    """``{key: parsers[key](value, key)}`` for each key of ``values``; an
    unknown key or a key given more than once is refused."""
    unknown = sorted(set(values) - set(parsers))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    parsed = {}
    for key, entries in values.items():
        if len(entries) > 1:
            raise ConfigError(f"config key {key!r} given {len(entries)} times")
        parsed[key] = parsers[key](entries[0], key)
    return parsed


def _json_value(value):
    """A setting as JSON: tuples as lists, enums as their values, paths and
    task specs as their text."""
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (Path, TaskSpec)):
        return str(value)
    return value


@dataclass(frozen=True)
class RunConfig:
    """Everything a batch run needs; every field is echoed to the manifest."""

    prices: Path = _setting(_parse_path)
    calendar: Path = _setting(_parse_path)
    treated_country: str = _setting(_parse_text, "CH")
    outcomes: tuple[Outcome, ...] = _setting(_parse_outcomes, (Outcome.LEVEL, Outcome.VOLATILITY))
    methods: tuple[str, ...] = _setting(_parse_methods, ("ipw",))
    covariates: CovariateSpec = _setting(_parse_covariates, CovariateSpec.SEASONAL)
    trim: float = _setting(_parse_float, 0.95)
    trim_treated: bool = _setting(_parse_bool, False)
    reps: int = _setting(_parse_int, 200)
    seed: int | None = _setting(_parse_int, None)
    min_cell: int = _setting(_parse_int, 4)
    workers: int = _setting(_parse_int, 1)
    output_dir: Path = _setting(_parse_path, Path("."))
    # ``tasks = all``, or the ``task`` lines, the one key that may repeat
    tasks: str | tuple[TaskSpec, ...] = _setting(_parse_all, "all")
    skip_bad_rows: bool = _setting(_parse_bool, False)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        values = _config_values(path)
        task_lines = values.pop("task", [])
        settings = fields(cls)
        parsed = _parse_fields(values, {f.name: f.metadata["parse"] for f in settings}, "config")
        if not all(values.get(f.name, [""])[0] for f in settings if f.default is MISSING):
            raise ConfigError("config must set both 'prices' and 'calendar'")
        if task_lines:
            if "tasks" in parsed:
                raise ConfigError("give either 'tasks = all' or explicit 'task' lines, not both")
            parsed["tasks"] = tuple(TaskSpec.parse(line) for line in task_lines)
            _reject_repeats(parsed["tasks"], "task")
        config = cls(**parsed)
        config.validate()
        return config

    def validate(self) -> None:
        if not 0.0 < self.trim <= 1.0:
            raise ConfigError(f"trim must be in (0, 1], got {self.trim}")
        check_reps(self.reps)
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.min_cell < 1:
            raise ConfigError(f"min_cell must be >= 1, got {self.min_cell}")
        for spec in () if self.tasks == "all" else self.tasks:
            if spec.control.country == self.treated_country:
                raise ConfigError(f"task {str(spec)!r} has its control in the treated country "
                                  f"{self.treated_country}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown or not self.methods:
            raise ConfigError(
                f"methods must be a subset of {','.join(METHODS)}; got {self.methods!r}"
            )

    def override(self, **settings) -> "RunConfig":
        """Apply command-line overrides, where not ``None``, and re-validate."""
        updated = replace(self, **{k: v for k, v in settings.items() if v is not None})
        updated.validate()
        return updated

    def manifest_dict(self) -> dict:
        """Every effective setting, defaults included, as JSON-ready values."""
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


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
    str: _parse_text,
    Quality: lambda text, key: Quality.parse(text),
    tuple: _parse_numbers,
}


def sim_config_from_file(path: str | Path, seed_override: int | None = None) -> SimConfig:
    """Build a :class:`SimConfig` from a key=value file."""
    values = _config_values(path)
    parsers = {f.name: _SIM_PARSERS[type(f.default)] for f in fields(SimConfig)}
    settings = _parse_fields(values, parsers, "generator config")
    if seed_override is not None:
        settings["seed"] = seed_override
    return SimConfig(**settings)


def expand_tasks(config: RunConfig, store=None) -> list[EstimationTask]:
    """Materialize the task list: one task per (pair, outcome).

    With ``tasks = all``, every (product, quality) present for the treated
    country is paired with every control country carrying the same product
    and quality (regions pooled).
    """
    if config.tasks != "all":
        pairs = list(config.tasks)
    elif store is None:
        raise ConfigError("expanding 'tasks = all' requires the ingested panel")
    else:
        # series come in (product, quality, country, region) order
        markets = dict.fromkeys((k.product, k.quality, k.country) for k in store.series())
        treated = {(product, quality) for product, quality, country in markets
                   if country == config.treated_country}
        pairs = [TaskSpec(product, SeriesKey(product, quality, country))
                 for product, quality, country in markets
                 if country != config.treated_country and (product, quality) in treated]

    tasks = [
        EstimationTask(
            treated=SeriesKey(spec.product, spec.control.quality, config.treated_country),
            control=spec.control,
            outcome=outcome,
            covariates=config.covariates,
            trim_threshold=config.trim,
            bootstrap_reps=config.reps,
            seed=None,  # filled per task from the master seed
            min_cell=config.min_cell,
            trim_treated=config.trim_treated,
        )
        for spec in pairs
        for outcome in config.outcomes
    ]
    if not tasks:
        raise ConfigError("task list is empty; nothing to estimate")
    return tasks
