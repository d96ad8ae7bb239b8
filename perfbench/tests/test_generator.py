import csv

from workloads import WORKLOADS, generate_inputs


def _generate(tmp_path, name, seed, only=None):
    out = tmp_path / name
    rows = generate_inputs(WORKLOADS["boot-ipw"].panel, seed, out, only)
    return rows, (out / "prices.csv").read_bytes(), (out / "calendar.csv").read_bytes()


def test_same_seed_gives_identical_bytes(tmp_path):
    assert _generate(tmp_path, "a", 5) == _generate(tmp_path, "b", 5)


def test_other_seed_gives_other_prices_on_the_same_shape(tmp_path):
    rows_a, prices_a, calendar_a = _generate(tmp_path, "a", 5)
    _, prices_b, calendar_b = _generate(tmp_path, "b", 6)
    assert prices_a != prices_b
    assert calendar_a == calendar_b
    assert rows_a > 0


def test_a_product_subset_reproduces_the_full_panel_rows(tmp_path):
    _, full, _ = _generate(tmp_path, "full", 9)
    _, subset, _ = _generate(tmp_path, "subset", 9, only=(1, 3))
    full_rows = list(csv.reader(full.decode().splitlines()))
    subset_rows = list(csv.reader(subset.decode().splitlines()))
    assert subset_rows[0] == full_rows[0]
    wanted = {"crop01", "crop03"}
    assert subset_rows[1:] == [row for row in full_rows[1:] if row[1] in wanted]


def test_only_the_last_product_is_sparse(tmp_path):
    panel = WORKLOADS["boot-ipw"].panel
    generate_inputs(panel, 2, tmp_path)
    with (tmp_path / "prices.csv").open(newline="") as handle:
        counts = {}
        for row in csv.DictReader(handle):
            counts[row["product"]] = counts.get(row["product"], 0) + 1
    full = len(panel.control_countries) + 1
    full *= 2 * panel.n_seasons * panel.weeks_per_season  # two qualities
    last = f"crop{panel.n_products - 1:02d}"
    assert all(n == full for product, n in counts.items() if product != last)
    assert counts[last] < 0.8 * full
