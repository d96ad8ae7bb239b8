import json
from pathlib import Path

import run
from workloads import WORKLOADS

SPEC = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())


def test_workloads_match_the_generator():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_metrics_match_what_the_benchmark_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == run.PER_LAYER


def test_every_workload_has_a_reference_table():
    for name, workload in WORKLOADS.items():
        table = json.loads((run.REFERENCE_DIR / f"{name}.json").read_text())
        assert table["seed"] == run.REFERENCE_SEED
        assert table["products"] == list(workload.reference_products)
        assert table["tasks"]
