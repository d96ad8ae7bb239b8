import copy
import json

import pytest

from checks import compare_reference, compare_runs, read_output, reference_table, status_class

HEADER = "product,quality,control_country,outcome,method,atet,se,p,n11,n10,n01,n00,trimmed,reps,seed"
ROWS = [
    "crop00,conventional,AT,level,ipw,3.25,0.5,1e-10,68,104,68,104,0,60,11",
    "crop00,conventional,AT,level,ols,3.5,0.4,2e-16,68,104,68,104,0,0,11",
]
STATUSES = [
    {"task": "crop00|conventional|CH||crop00|AT||level", "status": "ok"},
    {"task": "crop03|conventional|CH||crop03|AT||volatility",
     "status": "failed: SeparationError: coefficients diverged beyond |30.0|: ['season_2017']"},
]


def _write(directory, rows=ROWS, statuses=STATUSES):
    directory.mkdir()
    (directory / "effects.csv").write_text("\n".join([HEADER, *rows]) + "\n")
    (directory / "manifest.json").write_text(json.dumps({"tasks": statuses}))
    return read_output("run", directory)


@pytest.fixture
def output(tmp_path):
    return _write(tmp_path / "base")


@pytest.fixture
def reference(output):
    return json.loads(json.dumps(reference_table("run", output)))


def test_status_class_keeps_the_kind_and_exception_type():
    assert status_class("ok") == "ok"
    assert status_class("failed: BootstrapDegenerateError: 7 of 60 failed") == (
        "failed:BootstrapDegenerateError"
    )
    assert status_class("infeasible: pretrend_no_complete_season") == (
        "infeasible:pretrend_no_complete_season"
    )


def test_reference_accepts_its_own_run_and_tiny_float_noise(output, reference):
    assert compare_reference("run", output, reference) == []
    nudged = copy.deepcopy(reference)
    key = "crop00|conventional|AT|level|ipw"
    nudged["rows"][key]["atet"] = repr(3.25 * (1 + 1e-12))
    assert compare_reference("run", output, nudged) == []


def test_reference_rejects_a_perturbed_atet(output, reference):
    key = "crop00|conventional|AT|level|ipw"
    reference["rows"][key]["atet"] = repr(3.25 + 1e-6)
    problems = compare_reference("run", output, reference)
    assert len(problems) == 1 and "atet" in problems[0]


def test_reference_rejects_a_changed_count(output, reference):
    reference["rows"]["crop00|conventional|AT|level|ols"]["n11"] = "67"
    assert len(compare_reference("run", output, reference)) == 1


def test_reference_rejects_a_changed_task_status(tmp_path, reference):
    statuses = copy.deepcopy(STATUSES)
    statuses[1]["status"] = "failed: BootstrapDegenerateError: 30 of 60 replicates failed"
    changed = _write(tmp_path / "changed", statuses=statuses)
    problems = compare_reference("run", changed, reference)
    assert len(problems) == 1 and "BootstrapDegenerateError" in problems[0]
    statuses[1]["status"] = "ok"
    assert compare_reference("run", _write(tmp_path / "ok", statuses=statuses), reference)


def test_reference_rejects_a_missing_row(tmp_path, reference):
    shorter = _write(tmp_path / "shorter", rows=ROWS[:1])
    assert compare_reference("run", shorter, reference) == [
        "row crop00|conventional|AT|level|ols: missing"
    ]


def test_rerun_check_wants_identical_bytes(tmp_path, output):
    assert compare_runs(output, _write(tmp_path / "same")) == []
    last_digit = [ROWS[0].replace("3.25", "3.2500000000000004"), ROWS[1]]
    assert compare_runs(output, _write(tmp_path / "other", rows=last_digit))
    reordered = _write(tmp_path / "reordered", rows=ROWS[::-1])
    assert compare_runs(output, reordered) == [
        "tables differ in bytes but not in parsed rows"
    ]
