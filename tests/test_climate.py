import math

import numpy as np
import pytest

from densum.analysis import lag_windows
from densum.cli import main
from densum.climate import (
    ClimateRow,
    climate_prepare,
    fetch_climate,
    load_climate_csv,
    merge_series,
    parse_gistemp_monthly,
    parse_gml_monthly,
    parse_index_csv,
    write_climate_csv,
)


def make_rows(start_year=1979, n_months=528, with_index=False):
    """A gap-free synthetic monthly record with seasonal + trend structure."""
    rows = []
    for i in range(n_months):
        year = start_year + (i // 12)
        month = i % 12 + 1
        temp = 0.3 * math.sin(2 * math.pi * i / 12.0) + 0.001 * i + 0.05 * (-1) ** i
        rows.append(
            ClimateRow(
                year=year,
                month=month,
                temp_anomaly=temp,
                co2=336.0 + 0.1 * i,
                index=(50.0 + 0.05 * i) if with_index else None,
            )
        )
    return rows


class TestClimateRow:
    @pytest.mark.parametrize("month", [0, 13, -1])
    def test_month_bounds(self, month):
        with pytest.raises(ValueError, match="month"):
            ClimateRow(year=2000, month=month, temp_anomaly=0.1, co2=380.0)

    def test_index_defaults_to_none(self):
        row = ClimateRow(year=2000, month=6, temp_anomaly=0.1, co2=380.0)
        assert row.index is None


class TestMonthlyFrame:
    def test_shape_and_columns(self):
        frame = climate_prepare(make_rows(), unit="monthly")
        assert frame.n == 527
        assert frame.columns == (
            "intercept", "temp_lag1", "log_co2_lag1", "spring", "summer", "autumn"
        )
        assert frame.design.shape == (527, 6)
        np.testing.assert_array_equal(frame.design[:, 0], 1.0)

    def test_lag_alignment(self):
        rows = make_rows()
        frame = climate_prepare(rows, unit="monthly")
        assert frame.response[0] == rows[1].temp_anomaly
        assert frame.design[0, 1] == rows[0].temp_anomaly
        assert frame.design[0, 2] == pytest.approx(math.log(rows[0].co2), rel=1e-15)
        assert frame.response[-1] == rows[-1].temp_anomaly
        assert frame.design[-1, 1] == rows[-2].temp_anomaly

    def test_season_dummies_follow_the_response_month(self):
        rows = make_rows()
        frame = climate_prepare(rows, unit="monthly")
        dummies = {"spring": 3, "summer": 4, "autumn": 5}
        by_season = {
            "winter": (12, 1, 2), "spring": (3, 4, 5),
            "summer": (6, 7, 8), "autumn": (9, 10, 11),
        }
        for i in (0, 2, 5, 8, 10, 11, 100, 357, 526):
            month = rows[i + 1].month  # the response month of design row i
            for name, col in dummies.items():
                expected = 1.0 if month in by_season[name] else 0.0
                assert frame.design[i, col] == expected
        # winter is the reference: each row carries at most one dummy
        assert frame.design[:, 3:].sum(axis=1).max() == 1.0
        assert frame.design[:, 3:].sum() == pytest.approx(527 * 3 / 4, abs=2)

    def test_index_column_when_present(self):
        rows = make_rows(with_index=True)
        frame = climate_prepare(rows, unit="monthly")
        assert frame.columns == (
            "intercept", "temp_lag1", "log_co2_lag1", "log_index_lag1",
            "spring", "summer", "autumn",
        )
        assert frame.design[0, 3] == pytest.approx(math.log(rows[0].index), rel=1e-15)

    def test_input_order_does_not_matter(self):
        rows = make_rows(n_months=60)
        shuffled = rows[17:] + rows[:17]
        a = climate_prepare(rows, unit="monthly")
        b = climate_prepare(shuffled, unit="monthly")
        np.testing.assert_array_equal(a.design, b.design)
        np.testing.assert_array_equal(a.response, b.response)

    def test_year_rollover_is_contiguous(self):
        rows = [
            ClimateRow(year=1999, month=11, temp_anomaly=0.1, co2=368.0),
            ClimateRow(year=1999, month=12, temp_anomaly=0.2, co2=368.1),
            ClimateRow(year=2000, month=1, temp_anomaly=0.3, co2=368.2),
        ]
        frame = climate_prepare(rows, unit="monthly")
        assert frame.n == 2

    def test_gap_is_located_precisely(self):
        rows = [r for r in make_rows(n_months=240) if (r.year, r.month) != (1990, 7)]
        with pytest.raises(
            ValueError, match=r"gap in dates after 1990-06: expected 1990-07, got 1990-08"
        ):
            climate_prepare(rows, unit="monthly")

    def test_needs_three_rows(self):
        with pytest.raises(ValueError, match="three rows"):
            climate_prepare(make_rows(n_months=2), unit="monthly")

    def test_nonpositive_co2_rejected(self):
        rows = make_rows(n_months=12)
        bad = rows[:5] + [
            ClimateRow(year=rows[5].year, month=rows[5].month,
                       temp_anomaly=rows[5].temp_anomaly, co2=0.0)
        ] + rows[6:]
        with pytest.raises(ValueError, match="co2 must be positive"):
            climate_prepare(bad, unit="monthly")

    def test_nonpositive_index_rejected(self):
        rows = make_rows(n_months=12, with_index=True)
        bad = rows[:5] + [
            ClimateRow(year=rows[5].year, month=rows[5].month,
                       temp_anomaly=rows[5].temp_anomaly, co2=rows[5].co2, index=-3.0)
        ] + rows[6:]
        with pytest.raises(ValueError, match="index must be positive"):
            climate_prepare(bad, unit="monthly")

    def test_unknown_unit(self):
        with pytest.raises(ValueError, match="unit"):
            climate_prepare(make_rows(n_months=12), unit="weekly")


class TestYearlyFrame:
    def test_shape_and_values(self):
        rows = make_rows()  # 1979..2022, 44 full years
        frame = climate_prepare(rows, unit="yearly")
        assert frame.n == 43
        assert frame.columns == ("intercept", "temp_lag1", "log_co2_lag1")
        temp_1979 = np.mean([r.temp_anomaly for r in rows if r.year == 1979])
        temp_1980 = np.mean([r.temp_anomaly for r in rows if r.year == 1980])
        co2_1979 = np.mean([r.co2 for r in rows if r.year == 1979])
        assert frame.response[0] == pytest.approx(temp_1980, rel=1e-14)
        assert frame.design[0, 1] == pytest.approx(temp_1979, rel=1e-14)
        assert frame.design[0, 2] == pytest.approx(math.log(co2_1979), rel=1e-14)

    def test_no_season_columns(self):
        frame = climate_prepare(make_rows(n_months=120), unit="yearly")
        assert "spring" not in frame.columns
        assert frame.design.shape[1] == 3


class TestCsvRoundTrip:
    def test_with_index(self, tmp_path):
        rows = [
            ClimateRow(2001, 1, 0.12, 370.25, 101.5),
            ClimateRow(2001, 2, -0.05, 370.5, 102.0),
            ClimateRow(2001, 3, 0.3, 371.0, 102.25),
        ]
        path = tmp_path / "c.csv"
        write_climate_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header == "date,temp_anomaly,co2,index"
        assert load_climate_csv(path) == rows

    def test_without_index(self, tmp_path):
        rows = [ClimateRow(2001, m, 0.25 * m, 370.0 + m) for m in (1, 2, 3)]
        path = tmp_path / "c.csv"
        write_climate_csv(rows, path)
        assert "index" not in path.read_text().splitlines()[0]
        assert load_climate_csv(path) == rows

    def test_partial_index_is_dropped(self, tmp_path):
        rows = [
            ClimateRow(2001, 1, 0.1, 370.0, 100.0),
            ClimateRow(2001, 2, 0.2, 370.5, None),
        ]
        path = tmp_path / "c.csv"
        write_climate_csv(rows, path)
        loaded = load_climate_csv(path)
        assert all(r.index is None for r in loaded)

    def test_writer_sorts_by_date(self, tmp_path):
        rows = [ClimateRow(2001, 3, 0.3, 371.0), ClimateRow(2001, 1, 0.1, 370.0)]
        path = tmp_path / "c.csv"
        write_climate_csv(rows, path)
        loaded = load_climate_csv(path)
        assert [(r.year, r.month) for r in loaded] == [(2001, 1), (2001, 3)]

    def test_missing_date_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("temp_anomaly,co2\n0.1,370\n")
        with pytest.raises(ValueError, match="'date' column"):
            load_climate_csv(path)

    def test_bad_row_is_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,temp_anomaly,co2\n2001-01,0.1,370\n2001-02,oops,371\n")
        with pytest.raises(ValueError, match="line 3: cannot parse climate row"):
            load_climate_csv(path)

    @pytest.mark.parametrize(
        "content, message",
        [
            ("date,temp_anomaly,co2\n2001-01,0.1,370\n2001-02,nan,371\n",
             "line 3: .*column 'temp_anomaly' is not finite"),
            ("date,temp_anomaly,co2\n2001-01,0.1,370\n2001-02,0.2,inf\n",
             "line 3: .*column 'co2' is not finite"),
            ("date,temp_anomaly,co2,index\n2001-01,0.1,370,-inf\n",
             "line 2: .*column 'index' is not finite"),
            ("date,temp_anomaly,co2\n2001-01,0.1,370\n\n2001-02,0.2,NaN\n",
             "line 4: .*column 'co2' is not finite"),
            ("date,temp_anomaly,co2\n2001-01,0.1,370\n2001-02,0.2\n",
             "line 3: cannot parse climate row"),
        ],
        ids=["nan-temp", "inf-co2", "inf-index", "after-blank-line", "short-row"],
    )
    def test_non_finite_or_short_row_is_located(self, tmp_path, content, message):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(ValueError, match=message):
            load_climate_csv(path)

    @pytest.mark.parametrize("date", ["2001-002", "02001-02", " 2001-02", "2001-+2", "２００１-02"])
    def test_dates_follow_the_one_rule_of_fetch_and_the_index(self, tmp_path, date):
        path = tmp_path / "c.csv"
        path.write_text(f"date,temp_anomaly,co2\n2001-01,0.1,370\n{date},0.2,371\n")
        with pytest.raises(ValueError, match=r"^line 3: cannot parse climate row \(date must be "
                                             r"YYYY-M or YYYY-MM \(month 1-12\)"):
            load_climate_csv(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path, marked = tmp_path / "c.csv", tmp_path / "bom.csv"
        write_climate_csv(make_rows(n_months=3), path)
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_climate_csv(marked) == load_climate_csv(path)

    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    def test_cli_reads_a_marked_file_and_locates_a_non_finite_cell(
        self, tmp_path, capsys, command
    ):
        path = tmp_path / "c.csv"
        write_climate_csv(make_rows(n_months=60), path)
        text = path.read_text()
        argv = [command, "--climate", "monthly"]
        argv += ["--coefficient", "log_co2_lag1"] if command == "diagnose" else []
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert main(argv[:1] + [str(path)] + argv[1:]) == 0
        lines = text.splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + ",nan"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(argv[:1] + [str(path)] + argv[1:]) == 1
        err = capsys.readouterr().err
        assert "error: line 6: " in err and "column 'co2' is not finite" in err


GISTEMP_SAMPLE = """Land-Ocean: Global Means
Year,Jan,Feb,Mar,Apr,May,Jun,Jul,Aug,Sep,Oct,Nov,Dec,J-D,D-N,DJF,MAM,JJA,SON
1979,0.10,0.05,0.20,0.12,0.08,0.11,0.04,0.13,0.21,0.19,0.25,0.44,.14,***,***,.13,.09,.22
1980,0.30,0.41,0.28,0.33,***,0.25,0.24,0.19,0.20,0.13,0.29,0.21,.26,.28,.38,.31,.23,.21
Year,Jan,Feb,Mar,Apr,May,Jun,Jul,Aug,Sep,Oct,Nov,Dec,J-D,D-N,DJF,MAM,JJA,SON
"""

GML_SAMPLE = """# CO2 expressed as a mole fraction in dry air
# year month decimal average average_unc trend trend_unc
1979 1 1979.042 336.56 0.11 335.92 0.09
1979 2 1979.125 337.29 0.09 336.26 0.09
1979 3 1979.208 -9.99 -9.99 336.51 0.10
1980 1 1980.042 338.45 0.10 337.82 0.09
"""

SHORT_INDEX_ROW = "date,value\n2000-01,1.0\n2000-02\n"


class TestRawParsers:
    def test_gistemp_wide_format(self):
        temp = parse_gistemp_monthly(GISTEMP_SAMPLE)
        assert temp[(1979, 1)] == 0.10
        assert temp[(1979, 12)] == 0.44
        assert temp[(1980, 2)] == 0.41
        assert (1980, 5) not in temp  # *** cell skipped
        assert len(temp) == 23

    def test_gistemp_needs_a_header(self):
        with pytest.raises(ValueError, match="'Year' header"):
            parse_gistemp_monthly("some,other,file\n1,2,3\n")

    def test_gistemp_missing_month_column(self):
        text = "Year,Jan,Feb\n1979,0.1,0.2\n"
        with pytest.raises(ValueError, match="missing column Mar"):
            parse_gistemp_monthly(text)

    def test_gistemp_bad_value(self):
        text = GISTEMP_SAMPLE.replace("0.05", "x.y")
        with pytest.raises(ValueError, match="bad anomaly value"):
            parse_gistemp_monthly(text)

    def test_gml_format_and_sentinels(self):
        co2 = parse_gml_monthly(GML_SAMPLE)
        assert co2[(1979, 1)] == 336.56
        assert co2[(1980, 1)] == 338.45
        assert (1979, 3) not in co2  # negative sentinel skipped
        assert len(co2) == 3

    def test_gml_short_line(self):
        with pytest.raises(ValueError, match="at least 4 columns"):
            parse_gml_monthly("1979 1 1979.042\n")

    @pytest.mark.parametrize("month", [13, 0])
    def test_gml_refuses_a_month_outside_1_to_12(self, month):
        # merge_series once dropped such rows without a word
        with pytest.raises(ValueError, match=rf"^line 2: month must be 1-12, got {month}$"):
            parse_gml_monthly(f"2000 1 2000.04 369.5 0\n2000 {month} 2000.9 370.1 0\n")

    def test_gml_no_data(self):
        with pytest.raises(ValueError, match="no data rows"):
            parse_gml_monthly("# only comments\n# here\n")

    def test_index_csv(self):
        out = parse_index_csv("date,value\n1979-01,100.5\n1979-02,101\n")
        assert out == {(1979, 1): 100.5, (1979, 2): 101.0}

    def test_index_csv_bad_row(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_index_csv("date,value\n1979-01,100.5\nnot-a-date,7\n")

    @pytest.mark.parametrize("month", ["13", "0"])
    def test_index_csv_refuses_a_month_outside_1_to_12(self, month):
        # merge_series once dropped such rows without a word
        with pytest.raises(ValueError, match=r"^line 3: cannot parse index row \(date must be "
                                             rf"YYYY-M or YYYY-MM \(month 1-12\), got '2000-{month}'\)$"):
            parse_index_csv(f"date,value\n2000-01,1.0\n2000-{month},2.0\n")

    def test_index_csv_empty(self):
        with pytest.raises(ValueError, match="no data rows"):
            parse_index_csv("date,value\n")

    @pytest.mark.parametrize("text, line", [(SHORT_INDEX_ROW, 3),
                                            ("date,value\n2000-01,1.0\n\n\n2000-02,oops\n", 5)],
                             ids=["short-row", "after-blank-lines"])
    def test_index_csv_error_names_the_file_line(self, text, line):
        with pytest.raises(ValueError, match=f"^line {line}: cannot parse index row"):
            parse_index_csv(text)

    def test_fetch_climate_reports_a_short_index_row(self, tmp_path, monkeypatch, capsys):
        texts = {"temp": GISTEMP_SAMPLE, "co2": GML_SAMPLE, "index": SHORT_INDEX_ROW}
        monkeypatch.setattr("densum.climate.fetch_text", texts.get)
        out = tmp_path / "c.csv"
        assert main(["fetch-climate", "--temp-url", "temp", "--co2-url", "co2",
                     "--index-url", "index", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: line 3: cannot parse index row (")
        assert captured.err.count("\n") == 1


class TestMergeSeries:
    def setup_method(self):
        self.temp = {(1979, m): 0.1 * m for m in range(1, 13)}
        self.co2 = {(1979, m): 336.0 + m for m in range(3, 13)}
        self.co2.update({(1980, 1): 349.0, (1980, 2): 350.0})

    def test_inner_join(self):
        rows = merge_series(self.temp, self.co2)
        assert [(r.year, r.month) for r in rows] == [(1979, m) for m in range(3, 13)]
        assert rows[0].temp_anomaly == pytest.approx(0.3)
        assert rows[0].co2 == pytest.approx(339.0)
        assert rows[0].index is None

    def test_window_is_inclusive_on_both_ends(self):
        rows = merge_series(self.temp, self.co2, start=(1979, 4), end=(1979, 6))
        assert [(r.year, r.month) for r in rows] == [(1979, 4), (1979, 5), (1979, 6)]

    def test_index_restricts_the_join(self):
        index = {(1979, 5): 99.0, (1979, 6): 100.0}
        rows = merge_series(self.temp, self.co2, index=index)
        assert [(r.year, r.month) for r in rows] == [(1979, 5), (1979, 6)]
        assert rows[0].index == 99.0

    def test_no_overlap(self):
        with pytest.raises(ValueError, match="do not overlap"):
            merge_series(self.temp, self.co2, start=(1985, 1))


class TestLagWindows:
    @pytest.mark.parametrize(
        "n, expected", [(527, (27, 263)), (43, (16, 21)), (10, (10, 4)), (100, (20, 49))]
    )
    def test_values(self, n, expected):
        assert lag_windows(n) == expected


class TestOfflinePipeline:
    @pytest.fixture
    def source_urls(self, tmp_path):
        gistemp_lines = [
            "Land-Ocean: Global Means",
            "Year," + ",".join(
                ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
                 "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
            ),
        ]
        for year in range(1979, 1991):
            cells = [f"{0.2 * math.sin(year + m):.2f}" for m in range(12)]
            gistemp_lines.append(f"{year}," + ",".join(cells))
        temp_path = tmp_path / "gistemp.csv"
        temp_path.write_text("\n".join(gistemp_lines) + "\n")

        gml_lines = ["# header comment"]
        i = 0
        for year in range(1979, 1991):
            for month in range(1, 13):
                gml_lines.append(f"{year} {month} {year + month / 12:.3f} {336.0 + 0.1 * i:.2f} 0.1")
                i += 1
        co2_path = tmp_path / "co2.txt"
        co2_path.write_text("\n".join(gml_lines) + "\n")
        return f"file://{temp_path}", f"file://{co2_path}"

    def test_fetch_climate_from_local_files(self, source_urls):
        temp_url, co2_url = source_urls
        rows = fetch_climate(temp_url, co2_url, start=(1979, 1), end=(1990, 12))
        assert len(rows) == 144
        assert (rows[0].year, rows[0].month) == (1979, 1)
        assert (rows[-1].year, rows[-1].month) == (1990, 12)

    def test_fetch_then_fit_pipeline(self, source_urls, tmp_path, capsys):
        temp_url, co2_url = source_urls
        out_csv = tmp_path / "climate.csv"
        rc = main(["fetch-climate", "--temp-url", temp_url, "--co2-url", co2_url,
                   "--start", "1979-1", "--end", "1990-12", "--out", str(out_csv)])
        assert rc == 0
        assert "wrote 144 monthly rows" in capsys.readouterr().out

        report_path = tmp_path / "report.json"
        rc = main(["fit", str(out_csv), "--climate", "monthly", "--out", str(report_path)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "temp_lag1" in stdout and "log_co2_lag1" in stdout
        assert report_path.exists()

        rc = main(["diagnose", str(out_csv), "--climate", "monthly",
                   "--coefficient", "temp_lag1"])
        assert rc == 0
        assert "weighted residuals: temp_lag1" in capsys.readouterr().out
