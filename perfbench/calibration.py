"""Machine-speed calibration: a fixed job timed next to every CLI run.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x over minutes, for every kind of code alike, so the raw wall time of
one run says as much about the host as about the program. The timed runs
therefore run this job before each CLI run and after the last one, and scale
each CLI run's times by ``REFERENCE_S`` over the mean of the two job times
around it: a scaled time is the time the run would have taken on a host
where this job takes ``REFERENCE_S``. A change to seasondid moves scaled
times as it moves raw ones; a change of host speed moves both the run and
the job beside it, and cancels.

A run at two workers keeps two cores busy, and the host can slow one core
and not the other, so the job runs as one copy per worker at once, each in a
process of its own, and its time is the mean over the copies.

The job does the kinds of work seasondid's tasks do, in rough proportion:
it parses and groups CSV-like rows in Python, and fits small logistic
regressions by IRLS in numpy. It does not use seasondid, so
no change to the program moves it. Editing it rescales every figure: do
not, except in a change that re-measures the baseline.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import Executor

import numpy

REFERENCE_S = 1.5
ROUNDS = 12
FITS = 250

_ROWS = [
    f"crop{i % 20:02d},{('AT', 'CH', 'DE', 'IT')[i % 4]},{i % 52},{100 + i % 97}.{i % 10}"
    for i in range(24_000)
]
_rng = numpy.random.default_rng(20201203)
_X = _rng.standard_normal((600, 12))
_Y = (_rng.random(600) < 0.4).astype(float)


def _group_rows() -> float:
    rows = []
    for line in _ROWS:
        product, country, week, price = line.split(",")
        rows.append(
            {"product": product, "country": country, "week": int(week), "price": float(price)}
        )
    rows.sort(key=lambda r: (r["product"], r["country"], r["week"]))
    groups: dict[tuple[str, str, int], list[float]] = {}
    for row in rows:
        groups.setdefault((row["product"], row["country"], row["week"] // 4), []).append(
            row["price"]
        )
    return sum(sum(prices) / len(prices) for prices in groups.values())


def _fit_logistic() -> float:
    total = 0.0
    ridge = 1e-6 * numpy.eye(_X.shape[1])
    for _ in range(FITS):
        beta = numpy.zeros(_X.shape[1])
        for _ in range(6):
            mu = 1.0 / (1.0 + numpy.exp(-(_X @ beta)))
            weights = mu * (1.0 - mu)
            hessian = (_X * weights[:, None]).T @ _X + ridge
            beta = beta + numpy.linalg.solve(hessian, _X.T @ (_Y - mu))
        total += beta[0]
    return total


def _timed_pass(_copy: int) -> float:
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _group_rows()
        _fit_logistic()
    return time.perf_counter() - start


def calibrate(pool: Executor, copies: int) -> float:
    """Mean wall seconds of one pass of the fixed job, run as ``copies``
    passes at once in ``pool``: as many as the run it scales has busy
    processes, so that the job sees the cores that run saw."""
    return statistics.fmean(pool.map(_timed_pass, range(copies)))


def speed_factors(job_seconds: list[float]) -> list[float]:
    """Scale factor of each of ``len(job_seconds) - 1`` runs, run ``i`` having
    run between job passes ``i`` and ``i + 1``."""
    return [
        REFERENCE_S / statistics.fmean(pair)
        for pair in zip(job_seconds, job_seconds[1:])
    ]
