"""Price-panel, attribute, and calendar file I/O."""

import csv

import pytest

from seasondid import (
    PanelStore,
    ProtectionCalendar,
    Quality,
    SeriesKey,
    read_attributes,
    read_prices,
    write_calendar,
    write_prices,
)
from seasondid.diagnostics import join_effect_attributes
from seasondid.errors import CalendarError, ConfigError, IngestError
from seasondid.ingest import ATTRIBUTE_HEADER, EFFECTS_COLUMNS, PRICE_HEADER

from helpers import price_row, records, week

HEADER_LINE = ",".join(PRICE_HEADER)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def price_file(tmp_path, rows, name="prices.csv"):
    return write_lines(tmp_path / name, [HEADER_LINE] + rows)


class TestReadPrices:
    def test_round_trip_preserves_every_field(self, tmp_path):
        rows = [
            price_row("CH", "tomato", week(2016, 20), 123.456789012345),
            price_row("DE", "tomato", week(2016, 20), 97.25, quality=Quality.ORGANIC),
            price_row("CH", "leek", week(2015, 53), 10.0, region="basel"),
        ]
        # price_row takes (product, country, ...): rebuild in store order
        rows = [
            price_row("tomato", "CH", week(2016, 20), 123.456789012345),
            price_row("tomato", "DE", week(2016, 20), 97.25, quality=Quality.ORGANIC),
            price_row("leek", "CH", week(2015, 53), 10.0, region="basel"),
        ]
        path = tmp_path / "panel.csv"
        write_prices(path, rows)
        store, report = read_prices(path)
        assert report.rows_read == report.rows_kept == 3
        assert report.rows_skipped == 0
        assert report.kept_by_country == {"CH": 2, "DE": 1}
        for row in rows:
            key = SeriesKey(row.product, row.quality, row.country, row.region)
            match = store.rows_matching(key)
            # float survives the repr round trip exactly
            assert records(match) == [(key, row.week, row.price)]

    def test_header_must_match_exactly(self, tmp_path):
        path = write_lines(tmp_path / "bad.csv",
                           ["country,product,quality,region,year,week,price"])
        with pytest.raises(IngestError) as excinfo:
            read_prices(path)
        assert "bad.csv:1" in str(excinfo.value)
        assert "iso_week" in str(excinfo.value)

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(IngestError, match="empty"):
            read_prices(path)

    def test_header_only_file_is_an_empty_panel(self, tmp_path):
        store, report = read_prices(price_file(tmp_path, []))
        assert len(store) == 0
        assert report.rows_read == 0

    @pytest.mark.parametrize(
        "row,needle",
        [
            ("CH,tomato,conventional,,2016,20", "expected 7 fields, got 6"),
            (",tomato,conventional,,2016,20,5.0", "empty country"),
            ("CH,,conventional,,2016,20,5.0", "empty product"),
            ("CH,tomato,premium,,2016,20,5.0", "unknown quality"),
            ("CH,tomato,conventional,,16,twenty,5.0", "must be integers"),
            # a digit that int() does not read
            ("CH,tomato,conventional,,2016,2\u00b2,5.0", "must be integers"),
            ("CH,tomato,conventional,,2016,54,5.0", "2016"),
            ("CH,tomato,conventional,,2016,20,1,5", "expected 7 fields"),
            ("CH,tomato,conventional,,2016,20,-3", "positive decimal"),
            ("CH,tomato,conventional,,2016,20,0", "positive decimal"),
            ("CH,tomato,conventional,,2016,20,1e3", "positive decimal"),
            ("CH,tomato,conventional,,2016,20,.5", "positive decimal"),
            ("CH,tomato,conventional,,2016,20,", "positive decimal"),
            ("CH,tomato,conventional,,2016,20," + "9" * 400, "overflows a float"),
        ],
    )
    def test_bad_rows_are_rejected_with_positions(self, tmp_path, row, needle):
        path = price_file(tmp_path, ["CH,tomato,conventional,,2016,19,4.0", row])
        with pytest.raises(IngestError) as excinfo:
            read_prices(path)
        message = str(excinfo.value)
        assert "prices.csv:3" in message
        assert needle in message

    def test_duplicates_name_both_lines(self, tmp_path):
        path = price_file(tmp_path, [
            "CH,tomato,conventional,,2016,20,5.0",
            "CH,tomato,conventional,,2016,21,6.0",
            "CH,tomato,conventional,,2016,20,7.0",
        ])
        with pytest.raises(IngestError) as excinfo:
            read_prices(path)
        message = str(excinfo.value)
        assert "prices.csv:4" in message
        assert "first seen on line 2" in message

    def test_regions_make_distinct_keys(self, tmp_path):
        path = price_file(tmp_path, [
            "CH,tomato,conventional,,2016,20,5.0",
            "CH,tomato,conventional,geneva,2016,20,6.0",
            "CH,tomato,organic,,2016,20,7.0",
        ])
        store, report = read_prices(path)
        assert report.rows_kept == 3

    def test_skip_bad_rows_keeps_the_good_ones(self, tmp_path):
        path = price_file(tmp_path, [
            "CH,tomato,conventional,,2016,20,5.0",
            "CH,tomato,conventional,,2016,99,9.0",
            "DE,tomato,conventional,,2016,20,abc",
            "DE,tomato,conventional,,2016,21,4.0",
        ])
        store, report = read_prices(path, skip_bad_rows=True)
        assert report.rows_read == 4
        assert report.rows_kept == 2
        assert report.rows_skipped == 2
        assert len(report.problems) == 2
        assert report.kept_by_country == {"CH": 1, "DE": 1}

    def test_skip_bad_rows_counts_an_overflowing_price(self, tmp_path):
        path = price_file(tmp_path, [
            "CH,tomato,conventional,,2016,20,5.0",
            "CH,tomato,conventional,,2016,21," + "9" * 400,
        ])
        store, report = read_prices(path, skip_bad_rows=True)
        assert (report.rows_kept, report.rows_skipped) == (1, 1)
        assert report.problems[0].startswith("prices.csv:3: price 99999")
        assert len(store) == 1

    def test_error_listing_is_truncated(self, tmp_path):
        bad = [f"CH,tomato,conventional,,2016,20,bad{i}" for i in range(60)]
        path = price_file(tmp_path, bad)
        with pytest.raises(IngestError) as excinfo:
            read_prices(path)
        message = str(excinfo.value)
        assert "60 invalid rows" in message
        assert "... and 10 more" in message

    @pytest.mark.parametrize("skip_bad_rows", [False, True])
    @pytest.mark.parametrize("good_rows", [0, 2000])  # the bad byte in the first or a later chunk
    def test_a_file_that_is_not_utf8_is_an_ingest_error_naming_it(
        self, tmp_path, good_rows, skip_bad_rows
    ):
        lines = [HEADER_LINE] + [f"CH,tomato,conventional,,2016,{n % 50 + 1},5.0"
                                 for n in range(good_rows)]
        path = tmp_path / "prices.csv"
        path.write_bytes("\n".join(lines + ["DE,tomato,conventional,Zürich,2016,20,4.0\n"])
                         .encode("latin-1"))
        with pytest.raises(IngestError, match=r"^prices\.csv: not UTF-8 text"):
            read_prices(path, skip_bad_rows=skip_bad_rows)

    def test_utf8_text_round_trips_whatever_the_locale(self, tmp_path):
        path = tmp_path / "prices.csv"
        write_prices(path, [price_row("tomato", "CH", week(2016, 20), 5.0, region="Zürich")])
        assert "Zürich".encode("utf-8") in path.read_bytes()
        store, _ = read_prices(path)
        assert [key.region for key in store.series()] == ["Zürich"]

    def test_blank_lines_are_ignored(self, tmp_path):
        path = write_lines(tmp_path / "prices.csv", [
            HEADER_LINE,
            "CH,tomato,conventional,,2016,20,5.0",
            "",
            "DE,tomato,conventional,,2016,20,4.0",
        ])
        store, report = read_prices(path)
        assert report.rows_read == 2


class TestIngestEdgeCases:
    """Behaviour the per-text checks of the reader must keep."""

    def test_padded_cells_give_the_same_store(self, tmp_path):
        plain = price_file(tmp_path, [
            "CH,tomato,conventional,,2016,20,5.0",
            "DE,tomato,organic,north,2016,21,4.5",
        ], name="plain.csv")
        padded = price_file(tmp_path, [
            " CH , tomato , Conventional ,  , 2016 , 20 , 5.0 ",
            "DE ,tomato, ORGANIC,north ,2016, 21,4.5",
        ], name="padded.csv")
        (plain_store, plain_report), (padded_store, padded_report) = map(read_prices,
                                                                         (plain, padded))
        assert padded_store.series() == plain_store.series()
        assert records(padded_store.rows()) == records(plain_store.rows())
        assert padded_report == plain_report

    @pytest.mark.parametrize("first,second", [(53, 53), (53, 52)])
    def test_week_validity_depends_on_the_year(self, tmp_path, first, second):
        # 2015 has 53 ISO weeks and 2016 has 52: the same week text is valid
        # on one line and not on the next
        path = price_file(tmp_path, [
            f"CH,tomato,conventional,,2015,{first},5.0",
            f"CH,tomato,conventional,,2016,{second},6.0",
            "CH,tomato,conventional,,2016,53,7.0",
            "CH,tomato,conventional,,2015,53,8.0",
        ])
        store, report = read_prices(path, skip_bad_rows=True)
        problems = [p for p in report.problems if "invalid ISO week 2016-W53" in p]
        assert [p.split(":")[1] for p in problems] == (["3", "4"] if second == 53 else ["4"])
        kept = [(str(w), v) for _, w, v in records(store.rows())]
        assert kept == [("2015-W53", 5.0)] + ([("2016-W52", 6.0)] if second == 52 else [])
        assert report.problems[-1].startswith("prices.csv:5: duplicate observation")
        assert report.problems[-1].endswith("2015-W53 (first seen on line 2)")

    @pytest.mark.parametrize("year", [2, 3, 9998, 9999])
    def test_only_years_whose_weeks_can_be_labelled_are_read(self, tmp_path, year):
        # a week of year y is labelled from the windows of years y - 2 .. y + 1
        path = price_file(tmp_path, [
            "CH,tomato,conventional,,2016,20,5.0",
            f"CH,tomato,conventional,,{year},20,6.0",
        ])
        if year in (3, 9998):
            assert read_prices(path)[1].rows_kept == 2
            return
        with pytest.raises(IngestError) as excinfo:
            read_prices(path)
        assert f"prices.csv:3: year {year} is outside 3..9998" in str(excinfo.value)

    def test_a_rejected_row_is_not_the_first_seen_line(self, tmp_path):
        path = price_file(tmp_path, [
            "CH,tomato,conventional,,2016,20,abc",
            "CH,tomato,conventional,,2016,20,5.0",
            "CH,tomato,conventional,,2016,20,6.0",
        ])
        store, report = read_prices(path, skip_bad_rows=True)
        assert [p.split(":")[1] for p in report.problems] == ["2", "4"]
        assert "first seen on line 3" in report.problems[1]
        assert [v for *_, v in records(store.rows())] == [5.0]

    @pytest.mark.parametrize(
        "row,first_fault",
        [
            (",,conventional,,2016,20,5.0", "empty country"),
            (",tomato,premium,,2016,99,-1", "empty country"),
            ("CH,,premium,,2016,20,5.0", "empty product"),
            ("CH,tomato,premium,,2016,99,5.0", "unknown quality 'premium'"),
            ("CH,tomato,conventional,,2016,x,-1", "year and iso_week must be integers"),
            ("CH,tomato,conventional,,9999,54,-1", "year 9999 is outside 3..9998"),
            ("CH,tomato,conventional,,2016,54,-1", "invalid ISO week 2016-W54"),
            ("CH,tomato,conventional,,2016,19,-1", "price must be a positive decimal"),
            ("CH,tomato,conventional,,2016,19,9.0,", "expected 7 fields, got 8"),
        ],
        ids=["country+product", "country+quality+week+price", "product+quality",
             "quality+week", "week-text+price", "year+week+price", "week-number+price",
             "price+duplicate", "fields+duplicate"],
    )
    def test_a_row_with_two_faults_reports_the_first(self, tmp_path, row, first_fault):
        path = price_file(tmp_path, ["CH,tomato,conventional,,2016,19,4.0", row])
        _, report = read_prices(path, skip_bad_rows=True)
        (problem,) = report.problems
        assert problem.startswith(f"prices.csv:3: {first_fault}")


class TestPanelStore:
    def build(self):
        return PanelStore([
            price_row("tomato", "CH", week(2016, 21), 5.0),
            price_row("tomato", "CH", week(2016, 20), 4.0),
            price_row("tomato", "CH", week(2016, 22), 6.0, region="geneva"),
            price_row("tomato", "DE", week(2016, 20), 3.0),
            price_row("leek", "CH", week(2016, 20), 2.0, quality=Quality.ORGANIC),
        ])

    def test_series_listing_is_sorted_and_complete(self):
        store = self.build()
        assert len(store) == 5
        assert store.countries() == ["CH", "DE"]
        assert store.products() == ["leek", "tomato"]
        assert len(store.series()) == 4

    def test_rows_are_sorted_by_week(self):
        store = self.build()
        key = SeriesKey("tomato", Quality.CONVENTIONAL, "CH")  # no region
        rows = store.rows([key])
        assert rows.week.tolist() == sorted(rows.week.tolist())
        assert rows.value.tolist() == [4.0, 5.0]  # prices travel with their weeks

    def test_a_repeated_series_week_is_refused(self):
        with pytest.raises(ConfigError) as excinfo:
            PanelStore([
                price_row("tomato", "CH", week(2016, 20), 5.0),
                price_row("tomato", "CH", week(2016, 21), 5.5),
                price_row("tomato", "CH", week(2016, 20), 6.0),
            ])
        assert str(excinfo.value) == "duplicate observation for tomato/conventional/CH/- 2016-W20"
        # the same week in another region is another series
        store = PanelStore([
            price_row("tomato", "CH", week(2016, 20), 5.0),
            price_row("tomato", "CH", week(2016, 20), 6.0, region="geneva"),
        ])
        assert len(store) == 2

    def test_region_none_pools_all_regions(self):
        store = self.build()
        pooled = store.rows_matching(SeriesKey("tomato", Quality.CONVENTIONAL, "CH"))
        assert len(pooled) == 3
        geneva = store.rows_matching(SeriesKey("tomato", Quality.CONVENTIONAL, "CH", "geneva"))
        assert len(geneva) == 1
        assert geneva.keys[geneva.series[0]].region == "geneva"

    def test_quality_is_part_of_the_match(self):
        store = self.build()
        assert len(store.rows_matching(SeriesKey("leek", Quality.CONVENTIONAL, "CH"))) == 0
        assert len(store.rows_matching(SeriesKey("leek", Quality.ORGANIC, "CH"))) == 1

    def test_several_keys_give_each_market_in_turn(self):
        store = self.build()
        keys = [
            SeriesKey("tomato", Quality.CONVENTIONAL, "CH", "geneva"),
            SeriesKey("leek", Quality.ORGANIC, "CH"),
            SeriesKey("okra", Quality.ORGANIC, "CH"),
            SeriesKey("tomato", Quality.CONVENTIONAL, "CH"),
        ]
        block = store.rows_matching(*keys)
        assert records(block) == [r for key in keys for r in records(store.rows_matching(key))]
        assert [len(store.market_series(key)) for key in keys] == [1, 1, 0, 2]
        assert len(store.rows_matching()) == 0

    @pytest.mark.parametrize("empty_series", [False, True])
    def test_has_rows_answers_as_rows_matching_does(self, empty_series):
        store = self.build()
        if empty_series:
            # a series the store indexes but holds no row of
            columns = {}
            for key in store.series():
                rows = store.rows([key])
                columns[key] = (rows.week, rows.value)
            columns[SeriesKey("okra", Quality.ORGANIC, "CH", "geneva")] = ([], [])
            store = PanelStore.from_columns(columns)
        for product in ("tomato", "leek", "okra"):
            for quality in Quality:
                for country in ("CH", "DE", "FR"):
                    for region in (None, "geneva", "bern"):
                        key = SeriesKey(product, quality, country, region)
                        assert store.has_rows(key) == bool(store.rows_matching(key)), key


class TestAttributes:
    GOOD = [
        ",".join(ATTRIBUTE_HEADER),
        "tomato,conventional,DE,0,3,12.5,120",
        "leek,organic,FR,1,8.5,0.4,90",
    ]

    def test_valid_file_parses_every_field(self, tmp_path):
        path = write_lines(tmp_path / "attrs.csv", self.GOOD)
        records = read_attributes(path)
        assert len(records) == 2
        first = records[0]
        assert first.product == "tomato"
        assert first.quality is Quality.CONVENTIONAL
        assert first.comparison == "DE"
        assert first.harvested_once == 0
        assert first.storability_weeks == 3.0
        assert first.market_share_pct == 12.5
        assert first.days_protection == 120.0
        assert records[1].harvested_once == 1

    @pytest.mark.parametrize(
        "row,needle",
        [
            ("tomato,conventional,DE,2,3,12.5,120", "harvested_once"),
            ("tomato,conventional,DE,0,soft,12.5,120", "soft"),
            ("tomato,premium,DE,0,3,12.5,120", "unknown quality"),
            ("tomato,conventional,DE,0,3,12.5", "expected 7 fields"),
            ("tomato,conventional,DE,0,nan,12.5,120", "storability_weeks must be a finite"),
            ("tomato,conventional,DE,0,3,inf,120", "market_share_pct must be a finite"),
            ("tomato,conventional,DE,0,3,12.5,-Infinity", "days_protection must be a finite"),
        ],
    )
    def test_bad_rows_are_rejected_with_positions(self, tmp_path, row, needle):
        path = write_lines(tmp_path / "attrs.csv", self.GOOD + [row])
        with pytest.raises(IngestError) as excinfo:
            read_attributes(path)
        message = str(excinfo.value)
        assert "attrs.csv:4" in message
        assert needle in message

    def test_a_file_that_is_not_utf8_is_an_ingest_error_naming_it(self, tmp_path):
        path = tmp_path / "attrs.csv"
        path.write_bytes("\n".join(self.GOOD + ["kale,organic,Zürich,0,3,1,90\n"])
                         .encode("latin-1"))
        with pytest.raises(IngestError, match=r"^attrs\.csv: not UTF-8 text"):
            read_attributes(path)

    def test_wrong_header_and_empty_files(self, tmp_path):
        path = write_lines(tmp_path / "attrs.csv", ["product,quality"])
        with pytest.raises(IngestError, match="attrs.csv:1"):
            read_attributes(path)
        empty = tmp_path / "none.csv"
        empty.write_text("")
        with pytest.raises(IngestError, match="empty"):
            read_attributes(empty)
        header_only = write_lines(tmp_path / "blank.csv", [",".join(ATTRIBUTE_HEADER)])
        with pytest.raises(IngestError, match="no attribute rows"):
            read_attributes(header_only)


class TestWriteCalendar:
    def test_round_trips_through_the_reader(self, tmp_path):
        path = tmp_path / "calendar.csv"
        write_calendar(path, {"tomato": ("05-10", "08-31"), "leek": ("02-01", "04-15")})
        calendar = ProtectionCalendar.from_csv(path)
        assert calendar.products() == ["leek", "tomato"]
        window = calendar.window_for("tomato")
        assert str(window.start) == "05-10"
        assert str(window.end) == "08-31"


class TestOneReaderForEveryTable:
    """Every input table is read by ``errors.read_table``, so each states a
    problem of the file or of its rows with the same text."""

    ATTRIBUTE_ROW = "tomato,conventional,DE,0,3,12.5,120"
    # (file name, header, a good row, the i-th bad row and its problem, the
    # duplicate text of the good row repeated (None: rows may repeat), error)
    TABLES = {
        "calendar": ("calendar.csv", ("product", "start_md", "end_md"), "tomato,05-10,08-31",
                     lambda i: (f"crop{i},13-40,11-15", "invalid month-day 13-40"),
                     "duplicate product 'tomato'", CalendarError),
        "attributes": ("attributes.csv", ATTRIBUTE_HEADER, ATTRIBUTE_ROW,
                       lambda i: (f"crop{i},conventional,DE,2,3,12.5,120",
                                  "harvested_once must be 0 or 1, got '2'"),
                       "duplicate attribute row for tomato/conventional/DE", IngestError),
        # the quoted first cell sends the file to the row reader
        "prices": ("prices.csv", PRICE_HEADER, '"CH",tomato,conventional,,2016,20,5.0',
                   lambda i: (f"CH,crop{i},conventional,,2016,20,x{i}",
                              f"price must be a positive decimal with '.' separator, "
                              f"got 'x{i}'"),
                   "duplicate observation for tomato/conventional/CH/- 2016-W20", IngestError),
        "effects": ("effects.csv", EFFECTS_COLUMNS,
                    "tomato,conventional,DE,level,ipw,1.5,1,0.5,10,10,10,10,0,25,100",
                    lambda i: (f"crop{i},conventional,DE,level,ipw,x{i},1,0.5,10,10,10,10,0,25,1",
                               f"could not convert string to float: 'x{i}'"),
                    None, IngestError),
    }

    @pytest.fixture(params=sorted(TABLES))
    def table(self, request, tmp_path):
        name, header, good, bad, repeated, error = self.TABLES[request.param]
        path = tmp_path / name
        attributes = write_lines(tmp_path / "attrs.csv",
                                 [",".join(ATTRIBUTE_HEADER), self.ATTRIBUTE_ROW])
        read = {
            "calendar": ProtectionCalendar.from_csv,
            "attributes": read_attributes,
            "prices": read_prices,
            "effects": lambda p: join_effect_attributes(p, attributes, "ipw"),
        }[request.param]

        def read_back(lines=None, data=None):
            """What reading these lines (or bytes) gives: its records, or the
            text of its error."""
            if data is None:
                write_lines(path, lines)
            else:
                path.write_bytes(data)
            try:
                return read(path)
            except error as exc:
                return str(exc)

        return name, [",".join(header), good], bad, repeated, read_back

    def test_an_empty_file_and_a_wrong_header(self, table):
        name, (header, good), _, _, read_back = table
        assert read_back(data=b"") == f"{name}: file is empty"
        assert read_back(["a,b", good]) == f"{name}:1: expected header {header!r}, got 'a,b'"

    def test_a_wrong_field_count(self, table):
        name, lines, *_, read_back = table
        fields = len(lines[0].split(","))
        assert read_back(lines + ["a,b"]) == (
            f"1 invalid rows in {name}:\n{name}:3: expected {fields} fields, got 2")

    def test_a_cell_over_the_csv_field_limit(self, table):
        name, lines, *_, read_back = table
        cell = "p" * (csv.field_size_limit() + 1)
        assert read_back(lines + [cell + lines[1][lines[1].index(","):]]) == (
            f"{name}:3: field larger than field limit ({csv.field_size_limit()})")

    def test_bytes_that_are_not_utf8(self, table):
        name, lines, *_, read_back = table
        data = "\n".join(lines + ["Zürich" + lines[1][lines[1].index(","):]]).encode("latin-1")
        assert read_back(data=data) == f"{name}: not UTF-8 text (invalid start byte 0xfc)"

    def test_sixty_bad_rows_list_the_first_fifty(self, table):
        name, lines, bad, _, read_back = table
        rows, problems = zip(*map(bad, range(60)))
        shown = [f"{name}:{line}: {problem}" for line, problem in enumerate(problems[:50], 3)]
        assert read_back(lines + list(rows)).split("\n") == (
            [f"60 invalid rows in {name}:"] + shown + ["... and 10 more"])

    def test_a_repeated_key_names_both_lines(self, table):
        name, lines, _, repeated, read_back = table
        if repeated is None:  # effects rows may repeat their key
            assert len(read_back(lines + [lines[1]])) == 2
        else:
            assert read_back(lines + [lines[1]]) == (
                f"1 invalid rows in {name}:\n{name}:3: {repeated} (first seen on line 2)")
