"""tools/pairs.py on two directory copies of this tree: one pair of short
benchmark runs, recorded with the comparison of both sides' outputs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_pair_on_two_copies_of_the_tree(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", ".work")
    for copy in ("one", "two"):
        for part in ("src", "perfbench"):
            shutil.copytree(ROOT / part, tmp_path / copy / part, ignore=ignore)
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / copy)
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pairs.py"), "--parent", str(tmp_path / "one"),
         "--change", str(tmp_path / "two"), "--workload", "boot-ipw", "--seeds", "11",
         "--pairs", "1", "--seconds", "1", "--out", str(out), "--work", str(tmp_path / "work")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    record = json.loads(out.read_text())
    assert record["all_correct"] and record["outputs_equal"]
    trees = record["trees"]
    assert trees["parent"]["src_lines"] == trees["change"]["src_lines"] > 0
    assert len(trees["parent"]["dir"]) == len(trees["change"]["dir"])
    assert set(record["machine"]) == {"machine", "nproc", "python", "numpy"}
    result = record["workloads"]["boot-ipw"]["11"]
    assert [(run["pair"], run["side"], run["correct"]) for run in result["runs"]] == [
        (0, "parent", True), (0, "change", True)
    ]
    assert result["outputs"] == {
        f"workers_{n}": {"exit_code": True, "effects.csv": True, "manifest.json": True}
        for n in (1, 2)
    }
    metrics = result["metrics"]
    assert {"setup_s", "run_wall_s", "tasks_per_s", "peak_rss_mb", "run_cpu_s"} <= set(metrics)
    for name, metric in metrics.items():
        assert metric["pairs"] == 1 and metric["better"] in ("lower", "higher")
        for side in ("parent", "change"):
            assert metric[side]["q1"] <= metric[side]["median"] <= metric[side]["q3"]
    print("run_wall_s: change won", metrics["run_wall_s"]["wins"], "of 1 pair")
