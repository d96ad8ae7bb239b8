"""
The batch pipeline end to end
=============================

The command-line entry point strings everything together: simulate a panel
with a known effect, validate and ingest it, estimate every product-quality-
country task, run the placebo diagnostic, and regress the estimated effects
on product attributes. This script drives the same entry point in-process.
"""

import atexit
import csv
import json
import shutil
import tempfile
from pathlib import Path

from seasondid.cli import main

root = Path(tempfile.mkdtemp(prefix="seasondid-demo-"))
atexit.register(shutil.rmtree, root, ignore_errors=True)
print(f"working in {root} (removed on exit)\n")

# 1. Simulate: a 4-season panel with a true effect of 16 index points.
(root / "sim.cfg").write_text(
    "n_seasons = 4\n"
    "weeks_per_season = 30\n"
    "protected_start = 8\n"
    "protected_end = 22\n"
    "true_atet = 16\n"
    "noise_sd = 3\n"
    "season_shock_sd = 2\n"
    "seed = 34\n"
)
data = root / "data"
assert main(["simulate", "--config", str(root / "sim.cfg"), "--out", str(data)]) == 0

# 2. Ingest: header and row validation, duplicate detection, series report.
assert main(["ingest", "--prices", str(data / "prices.csv"),
             "--calendar", str(data / "calendar.csv")]) == 0

# 3. Run: every task from the panel, both outcomes, seeded bootstrap.
out = root / "out"
(root / "run.cfg").write_text(
    f"prices = {data / 'prices.csv'}\n"
    f"calendar = {data / 'calendar.csv'}\n"
    "outcomes = level,volatility\n"
    "reps = 300\n"
    "seed = 17\n"
    f"output_dir = {out}\n"
)
assert main(["run", "--config", str(root / "run.cfg")]) == 0
with open(out / "effects.csv", newline="") as handle:
    for record in csv.DictReader(handle):
        print(f"  {record['outcome']:<11} ATET {float(record['atet']):8.4f} "
              f"(se {float(record['se']):.4f}, p = {float(record['p']):.4f})")
manifest = json.loads((out / "manifest.json").read_text())
print(f"  statuses: {[entry['status'] for entry in manifest['tasks']]}\n")

# 4. Pre-trend placebo for the same tasks.
assert main(["pretrend", "--config", str(root / "run.cfg")]) == 0
with open(out / "pretrends.csv", newline="") as handle:
    for record in csv.DictReader(handle):
        print(f"  placebo {record['outcome']:<11} "
              f"ATET {float(record['atet']):+.4f} (p = {float(record['p']):.3f})")
print()

# 5. Heterogeneity: regress estimated effects on product attributes and on
# dummies for the control countries in the table (DE, the first in sorted
# order, is the reference level). A single simulated product cannot support
# the regression, so this step uses the committed reference tables instead.
fixtures = Path(__file__).parent.parent / "tests" / "data"
het = root / "het"
assert main(["heterogeneity",
             "--effects", str(fixtures / "reference_effects.csv"),
             "--attributes", str(fixtures / "reference_attributes.csv"),
             "--out", str(het)]) == 0
with open(het / "heterogeneity.csv", newline="") as handle:
    for record in csv.DictReader(handle):
        if record["subsample"] == "pooled" and record["outcome"] == "level":
            print(f"  level/pooled {record['term']:<20} "
                  f"{float(record['coefficient']):+9.4f} "
                  f"(se {float(record['se']):.4f})")
