"""The columnar price reader against the row reader it must agree with.

``read_prices`` first tries ``ingest._read_price_columns``, which reads
the file's bytes a chunk of whole lines at a time, finds the cells from
the positions of the delimiters and parses a chunk's prices in one call,
and falls back to ``ingest._read_price_rows`` on any irregularity. Every
file here is read both ways: the stores (columns, dtypes and series
order), the reports and every ``IngestError`` text must be the same. The
columnar reader leaves repeated weeks and zero or overflowing prices to
``PanelStore``'s gate, tested here too, and each price must have the bits
``float`` gives its text.
"""

import csv
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from seasondid import IsoWeek, PanelStore, PriceObservation, Quality, SeriesKey, ingest, read_prices
from seasondid.cli import EXIT_CONFIG, main
from seasondid.errors import ConfigError, IngestError
from seasondid.ingest import PRICE_HEADER

HEADER_LINE = ",".join(PRICE_HEADER)
COUNTRIES = ("CH", "DE", "IT", "AT")
PRODUCTS = ("tomato", "leek", "crop07")
QUALITIES = ("conventional", "organic", "Organic", "CONVENTIONAL")
REGIONS = ("", "north", "basel")
WEEKS = [(year, week) for year in (2015, 2016) for week in (1, 2, 20, 52)] + [(2015, 53)]
# what str.strip() removes from an ASCII cell; csv.reader keeps it in the cell
PADDING = " \t\x0b\x0c\x1c\x1d\x1e\x1f"
ROW_READER = ingest._read_price_rows


def outcome(read, path, skip_bad_rows):
    """What one reader makes of a file: its error text, or its store's
    columns in insertion order, its series order and its report."""
    try:
        store, report = read(path, skip_bad_rows)
    except IngestError as exc:
        return str(exc)
    columns = [
        (key, weeks.dtype, weeks.tobytes(), prices.dtype, prices.tobytes())
        for key, (weeks, prices) in store._columns.items()
    ]
    return columns, store.series(), report, list(report.kept_by_country.items())


def assert_same_as_row_reader(path, fault=None):
    for skip_bad_rows in (False, True):
        expected = outcome(ROW_READER, path, skip_bad_rows)
        assert outcome(read_prices, path, skip_bad_rows) == expected, fault


def columnar(path):
    """The columnar reader's result, or None where it leaves the file to
    the row reader."""
    with path.open("rb") as handle:
        return ingest._read_price_columns(handle)


def write(path, lines, ends, final_newline=True):
    """Write the header and ``lines``, each ended by its entry of ``ends``."""
    text = "".join(line + end for line, end in zip([HEADER_LINE] + lines, ends))
    if not final_newline:
        text = text.rstrip("\r\n")
    path.write_bytes(text.encode("utf-8"))
    return path


decimals = st.one_of(
    st.integers(1, 10**6).map(str),
    st.tuples(st.integers(0, 999), st.integers(0, 10**17)).map(
        lambda p: f"{p[0]}.{p[1]}" if p != (0, 0) else "1.0"
    ),
    st.sampled_from(["007.50", "0.001", "123.45678901234567890123", "1" + "0" * 300]),
)


@st.composite
def clean_files(draw):
    """Data lines that every row check passes, and the ends of all lines."""
    keys = draw(st.lists(
        st.tuples(st.sampled_from(COUNTRIES), st.sampled_from(PRODUCTS),
                  st.sampled_from(QUALITIES), st.sampled_from(REGIONS)),
        min_size=1, max_size=4, unique_by=lambda k: (k[0], k[1], k[2].lower(), k[3]),
    ))
    rows = []
    for key in keys:
        for year, week in draw(st.lists(st.sampled_from(WEEKS), min_size=1, max_size=6,
                                        unique=True)):
            # padding around a key or week cell is stripped on both paths
            cells = [draw(st.sampled_from([c, f" {c}", f"{c} "])) if c else c for c in key]
            cells += [str(year), draw(st.sampled_from([str(week), f"{week:02d}", f" {week}"]))]
            rows.append(",".join(cells + [draw(decimals)]))
    rows = draw(st.permutations(rows))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(rows) + 1,
                         max_size=len(rows) + 1))
    return rows, ends


def replace_cell(line, index, text):
    cells = line.split(",")
    cells[index] = text
    return ",".join(cells)


def faults(data, rows, ends):
    """(name, lines, ends) of each fault kind, injected at a drawn line."""
    at = data.draw(st.integers(0, len(rows) - 1), label="line")
    line = rows[at]
    cell = data.draw(st.integers(0, 6), label="cell")
    digit_cell = data.draw(st.sampled_from([4, 5, 6]), label="digit cell")
    digit = data.draw(st.sampled_from(["²", "٣"]), label="digit")
    key_cell = data.draw(st.integers(0, 3), label="key cell")
    pad = data.draw(st.text(PADDING, min_size=1, max_size=2), label="padding")
    price = line.split(",")[6]

    def swap(new_line):
        return rows[:at] + [new_line] + rows[at + 1:], ends

    yield "extra field", *swap(line + ",x")
    yield "missing field", *swap(line.rsplit(",", 1)[0])
    yield "quoted cell", *swap(replace_cell(line, cell, f'"{line.split(",")[cell]}"'))
    yield "quoted comma", *swap(replace_cell(line, 1, '"to,mato"'))
    yield "blank line", rows[:at] + [""] + rows[at:], ends + ["\n"]
    yield "whitespace line", rows[:at] + ["  "] + rows[at:], ends + ["\r\n"]
    yield "padded cell", *swap(replace_cell(line, cell, pad + line.split(",")[cell] + pad))
    yield "non-decimal digit", *swap(
        replace_cell(line, digit_cell, line.split(",")[digit_cell] + digit))
    for bad in ("abc", "-1", "1e3", "inf", "1.", ".5", "", "1_0", "+2"):
        yield f"bad price {bad!r}", *swap(replace_cell(line, 6, bad))
    for zero in ("0", "0.000"):
        yield f"zero price {zero!r}", *swap(replace_cell(line, 6, zero))
    yield "overflowing price", *swap(replace_cell(line, 6, "9" * 400 + ".5"))
    yield "bad quality", *swap(replace_cell(line, 2, "premium"))
    yield "bad week", *swap(replace_cell(line, 5, "54"))
    yield "empty country", *swap(replace_cell(line, 0, " "))
    yield "duplicate", rows + [replace_cell(line, 6, price + "1")], ends + ["\n"]
    yield "padded duplicate", rows + [" " + line], ends + ["\n"]
    yield "lone \\r", rows, ends[:at + 1] + ["\r"] + ends[at + 2:]
    text = line.split(",")[cell]
    yield "\\r in a cell", *swap(replace_cell(line, cell, text[:1] + "\r" + text[1:]))
    text = line.split(",")[key_cell]
    nul = data.draw(st.integers(0, len(text)), label="NUL at")
    yield "NUL in a key cell", *swap(replace_cell(line, key_cell, text[:nul] + "\0" + text[nul:]))


class TestParity:
    @settings(max_examples=150, deadline=None)
    @given(clean_files(), st.booleans(), st.sampled_from([1, 60, 300, ingest._CHUNK_BYTES]),
           st.data())
    def test_every_file_reads_as_on_the_row_reader(self, tmp_path_factory, clean,
                                                   final_newline, chunk, data):
        rows, ends = clean
        path = tmp_path_factory.mktemp("parity") / "prices.csv"
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            write(path, rows, ends, final_newline)
            assert columnar(path) is not None
            assert_same_as_row_reader(path)
            for fault, fault_rows, fault_ends in faults(data, rows, ends):
                write(path, fault_rows, fault_ends)
                assert_same_as_row_reader(path, fault)


class TestRouting:
    @pytest.fixture
    def no_row_reader(self, monkeypatch):
        def refuse(path, skip_bad_rows):
            raise AssertionError("the row reader read the file")

        monkeypatch.setattr(ingest, "_read_price_rows", refuse)

    def test_lone_carriage_returns_go_to_the_row_reader(self, tmp_path):
        rows = ["CH,tomato,conventional,,2016,19,4.0", "CH,tomato,conventional,,2016,20,5.0"]
        for ends in (["\r"] * 3, ["\n", "\r", "\n"], ["\r\n", "\r\n", "\r"]):
            path = write(tmp_path / "prices.csv", rows, ends)
            assert columnar(path) is None
            assert_same_as_row_reader(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_a_last_line_ending_in_a_lone_carriage_return(self, tmp_path, end):
        # csv.reader ends that line at its \r: a \n added at the end of the
        # file would make it a \r\n, which the columnar reader takes
        rows = [f"CH,tomato,conventional,,2016,{week},4.0" for week in range(1, 40)]
        with mock.patch.object(ingest, "_CHUNK_BYTES", 100):
            path = write(tmp_path / "prices.csv", rows, [end] * len(rows) + ["\r"])
            assert columnar(path) is None
            assert_same_as_row_reader(path)
            path = write(tmp_path / "prices.csv", rows, [end] * len(rows) + ["\r\n"])
            assert columnar(path) is not None

    @pytest.mark.parametrize("line", ["CH,tomato,organic,\0,2016,2,5.0",
                                      "DE,tomato,organic,,2016,1\0,5.0"])
    def test_a_nul_byte_ending_a_cell(self, tmp_path, line):
        # the columnar reader compares cells with zero bytes past their end
        path = write(tmp_path / "prices.csv", ["CH,tomato,organic,,2016,1,4.0", line], ["\n"] * 3)
        assert columnar(path) is None
        assert_same_as_row_reader(path)

    def test_keys_wider_than_the_gather_read_as_columns(self, tmp_path):
        # two keys equal in their first _GATHER bytes are still two series
        wide = "x" * ingest._GATHER
        rows = [f"CH,{product},organic,north,2016,{week},{week}.5"
                for product, weeks in ((wide + "a", (1, 2, 3)), (wide + "b", (1, 2, 3)),
                                       ("leek", (1, 2)), (wide + "a", (4, 5)))
                for week in weeks]
        path = write(tmp_path / "prices.csv", rows, ["\n"] * (len(rows) + 1))
        store, _ = columnar(path)
        assert [(key.product, len(store._columns[key][0])) for key in store.series()] == [
            ("leek", 2), (wide + "a", 5), (wide + "b", 3)]
        assert_same_as_row_reader(path)

    def test_a_key_as_wide_as_the_gather_after_a_wider_one(self, tmp_path):
        # the narrower key is the wider one's first _GATHER bytes
        prefix = "CH,tomato,organic,"
        region = "r" * (ingest._GATHER + 1 - len(prefix))
        rows = [f"{prefix}{region},2016,1,4.0", f"{prefix}{region[:-1]},2016,1,5.0"]
        path = write(tmp_path / "prices.csv", rows, ["\n"] * 3)
        store, _ = columnar(path)
        assert sorted(len(key.region) for key in store.series()) == [len(region) - 1, len(region)]
        assert_same_as_row_reader(path)

    @pytest.mark.parametrize("header_end", ["\n", "\r"])
    def test_a_file_without_a_newline_is_left_after_its_longest_line(self, tmp_path, header_end):
        # lone \r line ends: the columnar reader stops once the text read
        # since the last \n is longer than any line it takes
        rows = [f"CH,crop{product},organic,,2016,{week},4.0"
                for product in range(10) for week in range(1, 53)]
        path = write(tmp_path / "prices.csv", rows, [header_end] + ["\r"] * len(rows))
        limit = csv.field_size_limit(100)
        try:
            with mock.patch.object(ingest, "_CHUNK_BYTES", 100), path.open("rb") as handle:
                assert ingest._read_price_columns(handle) is None
                assert handle.tell() < 1000 < path.stat().st_size
            assert_same_as_row_reader(path)
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_a_file_without_a_final_newline_is_read_once(self, tmp_path, end, no_row_reader):
        rows = ["CH,tomato,conventional,,2016,19,4.0", "DE,tomato,organic,,2016,20,5.5"]
        path = write(tmp_path / "prices.csv", rows, [end] * 3, final_newline=False)
        assert outcome(read_prices, path, False) == outcome(ROW_READER, path, False)

    @pytest.mark.parametrize("text", [HEADER_LINE, HEADER_LINE + "\n", HEADER_LINE + "\r\n"])
    def test_a_header_only_file_is_read_once(self, tmp_path, text, no_row_reader):
        path = tmp_path / "prices.csv"
        path.write_text(text, newline="")
        store, report = read_prices(path)
        assert (len(store), report.rows_read, report.kept_by_country) == (0, 0, {})

    @pytest.mark.parametrize("header", ["", "\ufeff" + HEADER_LINE + "\n",
                                        " country, product,quality,region,year,iso_week,price\n",
                                        HEADER_LINE + "\r"])
    def test_a_header_the_columnar_reader_does_not_know(self, tmp_path, header):
        path = tmp_path / "prices.csv"
        for text in (header, header + "CH,tomato,conventional,,2016,19,4.0\n"):
            path.write_text(text, newline="")
            assert columnar(path) is None
            assert_same_as_row_reader(path)

    @pytest.mark.parametrize("fault", ["CH,tomato,conventional,,2016,30,0",
                                       "CH,crop00,organic,north,2015,2,7.0",
                                       "CH,tomato,conventional,,2016,30,\"7.0\"",
                                       "CH,tomato,conventional,,2016,30,7.0 "])
    def test_a_fault_in_the_last_chunk_only(self, tmp_path, fault):
        rows = [f"{country},crop{product:02d},organic,north,2015,{week},{week}.25"
                for country in COUNTRIES for product in range(24) for week in range(1, 54)]
        path = write(tmp_path / "prices.csv", rows + [fault], ["\r\n"] * (len(rows) + 2))
        assert path.stat().st_size > 2 * ingest._CHUNK_BYTES
        assert columnar(path) is None
        assert_same_as_row_reader(path)
        path = write(tmp_path / "prices.csv", rows, ["\r\n"] * (len(rows) + 1))
        assert columnar(path) is not None
        assert_same_as_row_reader(path)

    def test_a_cell_beyond_the_csv_field_limit(self, tmp_path):
        country = "C" * (csv.field_size_limit() + 1)
        path = write(tmp_path / "prices.csv", [f"{country},tomato,organic,,2016,19,4.0"],
                     ["\n"] * 2)
        assert columnar(path) is None
        with pytest.raises(IngestError, match="prices.csv:2: field larger than field limit"):
            read_prices(path)
        calendar = tmp_path / "calendar.csv"
        calendar.write_text("product,start_md,end_md\ntomato,05-10,08-31\n")
        assert main(["ingest", "--prices", str(path), "--calendar", str(calendar)]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# prices parsed in one call

DIGITS = "0123456789"
# halfway cases between two floats, long mantissas and a 73-byte cell
HARD_PRICES = ("9007199254740993", "9007199254740995", "9007199254740993.00000000000000000001",
               "1.00000000000000011102230246251565404236316680908203125",
               "1.00000000000000011102230246251565404236316680908203126",
               "123.45678901234567890123", "0.30000000000000004", "1." + "0" * 70 + "1")
price_texts = st.one_of(
    st.floats(1e-4, 1e16, exclude_max=True).map(repr),  # repr has no exponent in this range
    st.tuples(st.text(DIGITS, min_size=1, max_size=30), st.text(DIGITS, max_size=30)).map(
        lambda p: f"{p[0]}.{p[1]}" if p[1] else p[0]),
    st.sampled_from(HARD_PRICES),
).filter(lambda text: float(text) > 0)


class TestPrices:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(price_texts, min_size=1, max_size=60))
    def test_each_price_has_the_bits_of_float(self, tmp_path_factory, texts):
        first = IsoWeek(2016, 1).ordinal
        weeks = [IsoWeek.from_ordinal(first + i) for i in range(len(texts))]
        lines = [f"CH,tomato,organic,,{week.year},{week.week},{text}"
                 for week, text in zip(weeks, texts)]
        path = write(tmp_path_factory.mktemp("bits") / "prices.csv", lines,
                     ["\n"] * (len(lines) + 1))
        with mock.patch.object(ingest, "_read_price_rows",
                               side_effect=AssertionError("the row reader read the file")):
            store, _ = read_prices(path)
        assert store.rows().value.tobytes() == np.array([float(t) for t in texts]).tobytes()

    def test_a_long_price_cell_is_read_in_the_memory_of_its_chunk(self, tmp_path):
        # a gather of every row as wide as the widest cell would take about 240 MB
        rows = [f"{country},crop{product:02d},organic,,2016,{week},{week}.25"
                for country in COUNTRIES for product in range(10) for week in range(1, 51)]
        rows.append("CH,tomato,organic,,2016,1,1." + "0" * 120000)
        path = write(tmp_path / "prices.csv", rows, ["\n"] * (len(rows) + 1))
        assert columnar(path) is not None
        assert_same_as_row_reader(path)
        tracemalloc.start()
        try:
            read_prices(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# the store's gate

GATE_KEYS = [SeriesKey(product, quality, country, region)
             for product in ("tomato", "leek") for quality in Quality
             for country in ("CH", "DE") for region in (None, "north")]
GATE_FIRST_WEEK = IsoWeek(2016, 1).ordinal
BAD_PRICES = (0.0, -1.5, math.inf, -math.inf, math.nan)


@st.composite
def gated_columns(draw):
    """{series: (week ordinals, prices)} of 1-4 series with weeks in any
    order, and 0-2 faults: a repeated week, a price that is not positive
    and finite, or a week of year 2 or 9999."""
    keys = draw(st.lists(st.sampled_from(GATE_KEYS), min_size=1, max_size=4, unique=True))
    prices = st.floats(0.5, 500.0)
    columns = {}
    for key in keys:
        weeks = draw(st.lists(st.integers(GATE_FIRST_WEEK, GATE_FIRST_WEEK + 60),
                              max_size=8, unique=True))
        columns[key] = (weeks, draw(st.lists(prices, min_size=len(weeks),
                                             max_size=len(weeks))))
    for _ in range(draw(st.integers(0, 2))):
        weeks, values = columns[draw(st.sampled_from(keys))]
        fault = draw(st.sampled_from(["repeat", "price", "year"]))
        at = draw(st.integers(0, len(weeks) - 1)) if weeks else None
        if fault == "repeat" and weeks:
            weeks.insert(draw(st.integers(0, len(weeks))), weeks[at])
            values.append(draw(prices))
        elif fault == "price" and weeks:
            values[at] = draw(st.sampled_from(BAD_PRICES))
        elif fault == "year":
            weeks.append(IsoWeek(draw(st.sampled_from([2, 9999])),
                                 draw(st.integers(1, 52))).ordinal)
            values.append(draw(prices))
    return columns


def gate_outcome(build, *args):
    """The store's (series, weeks and prices of each), or its ConfigError text."""
    try:
        store = build(*args)
    except ConfigError as exc:
        return str(exc)
    return [(key, *(column.tolist() for column in store._columns[key]))
            for key in store.series()]


class TestStoreGate:
    @settings(max_examples=200, deadline=None)
    @given(gated_columns(), st.randoms(use_true_random=False))
    def test_a_store_is_refused_by_name_or_holds_sorted_series(self, tmp_path_factory,
                                                               columns, random):
        refusal = oracles.store_refusal(columns)
        got = gate_outcome(PanelStore.from_columns, columns)
        if refusal is not None:
            assert got == refusal
        else:
            assert [key for key, *_ in got] == sorted(columns, key=oracles.store_order)
            for key, weeks, prices in got:
                rows = sorted(zip(*columns[key]), key=lambda row: row[0])
                assert weeks == [week for week, _ in rows]
                assert prices == [price for _, price in rows]
                assert all(a < b for a, b in zip(weeks, weeks[1:]))
        lines = [
            f"{key.country},{key.product},{key.quality},{key.region or ''},"
            f"{IsoWeek.from_ordinal(week).year},{IsoWeek.from_ordinal(week).week},{price!r}"
            for key, (weeks, prices) in columns.items() for week, price in zip(weeks, prices)
        ]
        random.shuffle(lines)
        if all(price > 0 and math.isfinite(price) for _, prices in columns.values()
               for price in prices):
            observations = [
                PriceObservation(key.product, key.quality, key.country, key.region,
                                 IsoWeek.from_ordinal(week), price)
                for key, (weeks, prices) in columns.items()
                for week, price in zip(weeks, prices)
            ]
            random.shuffle(observations)
            # a series that no observation names is no series of this store
            kept = [item for item in got if item[1]] if refusal is None else got
            assert gate_outcome(PanelStore, observations) == kept
        path = write(tmp_path_factory.mktemp("gate") / "prices.csv", lines,
                     ["\n"] * (len(lines) + 1))
        assert (columnar(path) is None) == (refusal is not None)
        assert_same_as_row_reader(path, refusal)
