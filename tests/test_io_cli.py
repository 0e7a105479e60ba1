import argparse
import dataclasses
import gc
import io
import json
import re

import pytest

from dynindex import (
    ComparisonSpec,
    CsvError,
    Dataset,
    EngineSpec,
    FixedPointConfig,
    FullHistory,
    IngestWarning,
    RollingWindow,
    SynthConfig,
    emit_csv,
    evaluate,
    format_csv,
    ingest_csv,
    synth,
    write_report,
)
from dynindex import cli
from dynindex.cli import (
    EX_DATA, EX_ENGINE, EX_IO, EX_MISMATCH, EX_NOT_FOUND, EX_OK, EX_USAGE, main,
)
from dynindex.engines import ENGINE_FAMILIES
from helpers import random_market, small_fixed

SF_CSV = """period,item,price,quantity
0,A,1.0,1.0
0,B,1.0,1.0
1,A,2.0,1.0
1,B,1.0,1.0
"""

# The same data with the item id in the last column, where a line end
# left on the line would end up in the id.
ITEM_LAST_CSV = """period,price,quantity,item
0,1.0,1.0,A
0,1.0,1.0,B
1,2.0,1.0,A
1,1.0,1.0,B
"""


# B dies and C is born, so the universe is not fixed.
CHURN_CSV = """period,item,price,quantity
0,A,1.0,1.0
0,B,2.0,1.0
1,A,1.2,1.0
1,C,3.0,1.0
"""


# CHURN_CSV with a third period in which C leaves and B comes back.
THREE_PERIOD_CSV = CHURN_CSV + """2,A,1.5,2.0
2,B,2.4,3.0
"""

# Both columns are finite, the unit value 1e308 / 1e-10 is not.
OVERFLOWING_UNIT_VALUE_CSV = """period,item,expenditure,quantity
0,b,1.0,1.0
0,a,1e308,1e-10
"""


# Each row's expenditure is finite, each period's total is not.
OVERFLOWING_TOTAL_CSV = """period,item,price,quantity
0,a,1e300,1e8
0,b,1e300,1e8
"""


class TestIngest:
    def test_round_trip_small_fixed(self):
        assert ingest_csv(io.StringIO(SF_CSV)) == small_fixed()

    def test_total_past_the_float_range_is_rejected(self):
        with pytest.raises(CsvError, match=r"validation failed: total-out-of-range \(period 0\)$"):
            ingest_csv(io.StringIO(OVERFLOWING_TOTAL_CSV))

    def test_duplicate_names_line(self):
        text = SF_CSV + "0,A,3.0,1.0\n"
        with pytest.raises(CsvError, match="line 6.*first at line 2"):
            ingest_csv(io.StringIO(text))

    def test_expenditure_column(self):
        text = "period,item,expenditure,quantity\n0,A,3.0,2.0\n1,A,4.0,2.0\n"
        ds = ingest_csv(io.StringIO(text))
        assert ds.observation(0, "A").price == 1.5

    def test_zero_quantity_dropped_with_warning(self):
        text = SF_CSV + "1,C,5.0,0\n0,C,5.0,0.0\n"
        with pytest.warns(IngestWarning, match="2 zero-quantity"):
            ds = ingest_csv(io.StringIO(text))
        assert ds == small_fixed()

    def test_both_value_columns_rejected(self):
        text = "period,item,price,expenditure,quantity\n0,A,1,1,1\n"
        with pytest.raises(CsvError, match="both price and expenditure"):
            ingest_csv(io.StringIO(text))

    def test_unknown_header_rejected(self):
        with pytest.raises(CsvError):
            ingest_csv(io.StringIO("period,item,cost,quantity\n0,A,1,1\n"))

    def test_malformed_number_names_line(self):
        text = "period,item,price,quantity\n0,A,one,1\n"
        with pytest.raises(CsvError, match="line 2"):
            ingest_csv(io.StringIO(text))

    def test_period_gap_rejected(self):
        text = "period,item,price,quantity\n0,A,1,1\n2,A,1,1\n"
        with pytest.raises(CsvError, match="period-gap"):
            ingest_csv(io.StringIO(text))

    def test_non_positive_price_rejected(self):
        text = "period,item,price,quantity\n0,A,-1,1\n"
        with pytest.raises(CsvError, match="non-positive-price"):
            ingest_csv(io.StringIO(text))

    def test_from_path(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(SF_CSV)
        assert ingest_csv(path) == small_fixed()

    @pytest.mark.parametrize("lf_text", [SF_CSV, ITEM_LAST_CSV], ids=["item-second", "item-last"])
    def test_crlf_lines_ingest_like_lf_lines(self, tmp_path, lf_text):
        assert ingest_csv(io.StringIO(lf_text)) == small_fixed()
        text = lf_text.replace("\n", "\r\n")
        path = tmp_path / "crlf.csv"
        path.write_bytes(text.encode("utf-8"))
        assert ingest_csv(io.StringIO(text)) == small_fixed()
        assert ingest_csv(path) == small_fixed()

    def test_a_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with EF BB BF
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + SF_CSV.encode("utf-8"))
        assert ingest_csv(path) == small_fixed()
        assert ingest_csv(io.StringIO("\ufeff" + SF_CSV)) == small_fixed()
        twice = re.escape("line 1: unexpected header ['\\ufeffperiod'")
        with pytest.raises(CsvError, match=twice):  # one mark is read past, not two
            ingest_csv(io.StringIO("\ufeff\ufeff" + SF_CSV))
        out = io.StringIO()
        emit_csv(ingest_csv(path), out)
        assert out.getvalue() == SF_CSV  # and emit writes none

    def test_bare_cr_lines_from_a_path(self, tmp_path):
        path = tmp_path / "cr.csv"
        path.write_bytes(SF_CSV.replace("\n", "\r").encode("utf-8"))
        assert ingest_csv(path) == small_fixed()

    def test_crlf_duplicate_keeps_line_numbers(self):
        text = (SF_CSV + "0,A,3.0,1.0\n").replace("\n", "\r\n")
        with pytest.raises(CsvError, match="line 6.*first at line 2"):
            ingest_csv(io.StringIO(text))

    def test_duplicate_of_a_dropped_zero_quantity_row_names_it(self):
        text = SF_CSV + "1,C,5.0,0\n1,C,5.0,1.0\n"
        with pytest.raises(CsvError, match=r"line 7: duplicate \(period, item\) \(1, C\); first at line 6"):
            ingest_csv(io.StringIO(text))

    def test_zero_quantity_duplicate_of_a_kept_row_names_it(self):
        text = SF_CSV + "1,B,5.0,0\n"
        with pytest.raises(CsvError, match=r"line 6: duplicate \(period, item\) \(1, B\); first at line 5"):
            ingest_csv(io.StringIO(text))

    def test_streams_an_iteration_only_source(self):
        class LinesOnly:
            """A non-seekable source that can only be iterated, like a pipe."""

            def __init__(self, text):
                self.lines = iter(text.splitlines(keepends=True))

            def __iter__(self):
                return self.lines

            def read(self, *args):
                raise AssertionError("ingest must not read the whole input")

        assert ingest_csv(LinesOnly(SF_CSV)) == small_fixed()
        text = SF_CSV + "1,C,1.0,1.0\n1,A,3.0,1.0\n"
        with pytest.raises(CsvError, match="line 7.*first at line 4"):
            ingest_csv(LinesOnly(text))

    def test_period_of_only_zero_quantity_rows_is_left_out(self):
        text = SF_CSV + "2,A,1.0,0\n2,B,1.0,0\n"
        with pytest.warns(IngestWarning, match="2 zero-quantity"):
            ds = ingest_csv(io.StringIO(text))
        assert ds.period_indices() == (0, 1)

    def test_warning_points_at_the_caller(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text(SF_CSV + "1,C,5.0,0\n")
        for source in (io.StringIO(path.read_text()), path):
            with pytest.warns(IngestWarning) as record:
                ingest_csv(source)
            assert record[0].filename == __file__

    def test_item_ids_are_shared_across_periods(self):
        text = "period,item,price,quantity\n0,apple,1,1\n0,pear,1,1\n1,apple,2,1\n1,pear,1,1\n"
        ds = ingest_csv(io.StringIO(text))
        first, second = (list(ds.period_data(t).items) for t in (0, 1))
        assert first == second == ["apple", "pear"]
        assert all(a is b for a, b in zip(first, second))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,C,1.0", "line 6: expected 4 fields, got 3"),
            ("0,,1.0,1.0", "line 6: empty item id"),
            ("x,C,1.0,1.0", "line 6: bad period 'x'"),
            ("0,C,one,x", "line 6: bad price 'one'"),
            ("0,C,inf,x", "line 6: non-finite price 'inf'"),
            ("0,C,1.0,x", "line 6: bad quantity 'x'"),
            ("0,C,1.0,nan", "line 6: non-finite quantity 'nan'"),
        ],
    )
    def test_row_errors_name_the_first_failing_check(self, row, message):
        with pytest.raises(CsvError) as error:
            ingest_csv(io.StringIO(SF_CSV + row + "\n"))
        assert str(error.value) == message

    def test_unit_value_past_the_float_range_names_line(self):
        with pytest.raises(CsvError) as error:
            ingest_csv(io.StringIO(OVERFLOWING_UNIT_VALUE_CSV))
        assert str(error.value) == "line 3: unit value 1e+308/1e-10 is past the float range"
        assert error.value.line == 3

    def test_empty_input_is_rejected(self):
        with pytest.raises(CsvError) as error:
            ingest_csv(io.StringIO(""))
        assert str(error.value) == "empty input"

    def test_blank_lines_are_skipped_and_still_numbered(self):
        text = SF_CSV.replace("0,B,", "\n0,B,")
        assert ingest_csv(io.StringIO(text)) == small_fixed()
        with pytest.raises(CsvError, match="^line 7: bad price 'x'$"):
            ingest_csv(io.StringIO(text + "0,C,x,1.0\n"))

    def test_only_zero_quantity_rows_is_no_usable_rows(self):
        text = "period,item,price,quantity\n0,A,1.0,0\n1,A,2.0,0.0\n"
        with pytest.raises(CsvError) as error, pytest.warns(IngestWarning, match="2 zero"):
            ingest_csv(io.StringIO(text))
        assert str(error.value) == "no usable rows"

    @pytest.mark.parametrize(
        "header, message",
        [
            ("period,item,price,quantity,quantity",
             "line 1: repeated column names in header "
             "['period', 'item', 'price', 'quantity', 'quantity']"),
            ("period,item,price,quantity,store",
             "line 1: unexpected header ['period', 'item', 'price', 'quantity', 'store']; "
             "want columns ['item', 'period', 'price', 'quantity']"),
        ],
        ids=["repeated", "extra-column"],
    )
    def test_header_errors_name_the_header(self, header, message):
        with pytest.raises(CsvError) as error:
            ingest_csv(io.StringIO(header + "\n0,A,1.0,1.0,1.0\n"))
        assert str(error.value) == message

    def test_period_strings_parse_alike(self):
        text = "period,item,price,quantity\n0,a,1,1\n1,a,2,1\n00,b,1,1\n 1,b,3,1\n"
        assert ingest_csv(io.StringIO(text)) == Dataset.build(
            {0: {"a": (1, 1), "b": (1, 1)}, 1: {"a": (2, 1), "b": (3, 1)}})


class TestEmit:
    def test_round_trip_exact(self):
        ds = random_market(31, periods=4, items=7, churn=0.3)
        assert ingest_csv(io.StringIO(format_csv(ds))) == ds

    def test_round_trip_expenditure(self):
        ds = small_fixed()
        text = format_csv(ds, "expenditure")
        assert ingest_csv(io.StringIO(text)) == ds

    def test_round_trip_of_ids_with_other_line_separators(self, tmp_path):
        # Only \n and \r end a line; form feed, NEL and U+2028 stay in the id.
        ds = Dataset.build({0: {"a\x0cb": (1.0, 1.0), "c\x85d": (2.0, 1.0), "e\u2028f": (3.0, 1.0)}})
        assert ingest_csv(io.StringIO(format_csv(ds))) == ds
        path = tmp_path / "out.csv"
        emit_csv(ds, path)
        assert ingest_csv(path) == ds

    def test_comma_in_item_rejected(self):
        ds = Dataset.build({0: {"a,b": (1.0, 1.0)}})
        with pytest.raises(CsvError, match="unquoted"):
            format_csv(ds)

    def test_emit_to_path(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(small_fixed(), path)
        assert ingest_csv(path) == small_fixed()

    @pytest.mark.parametrize("value_column", ["price", "expenditure"])
    def test_emit_writes_the_formatted_text(self, value_column):
        ds = random_market(32, periods=4, items=7, churn=0.3)
        out = io.StringIO()
        emit_csv(ds, out, value_column)
        assert out.getvalue() == format_csv(ds, value_column)

    @pytest.mark.parametrize("items, message", [
        ({0: {"a": (1.0, 1.0)}, 1: {"a": (1.0, 1.0), "b\nc": (1.0, 1.0)}},
         "item id 'b\\nc' cannot be written unquoted"),
        # ingest_csv refuses an empty id and reads 1 and "1" as one id
        ({0: {"": (1.0, 1.0), "a": (2.0, 1.0)}, 1: {"a": (2.5, 1.0)}},
         "an empty item id cannot be written"),
        ({0: {1: (1.0, 1.0), "1": (2.0, 1.0)}, 1: {1: (1.5, 1.0)}},
         "item ids of period 0 are written alike as '1'"),
    ], ids=["newline", "empty", "int-and-str"])
    def test_unwritable_item_leaves_no_file(self, tmp_path, items, message):
        ds = Dataset.build(items)
        path = tmp_path / "out.csv"
        with pytest.raises(CsvError) as error:
            emit_csv(ds, path)
        assert str(error.value) == message
        assert not path.exists()
        out = io.StringIO()
        with pytest.raises(CsvError, match=f"^{re.escape(message)}$"):
            emit_csv(ds, out)
        assert out.getvalue() == ""

    def test_unknown_value_column_is_rejected_and_leaves_no_file(self, tmp_path):
        with pytest.raises(CsvError) as error:
            format_csv(small_fixed(), "cost")
        assert str(error.value) == "unknown value column 'cost'"
        path = tmp_path / "out.csv"
        with pytest.raises(CsvError, match="^unknown value column 'cost'$"):
            emit_csv(small_fixed(), path, "cost")
        assert not path.exists()

    def test_first_unwritable_item_in_written_order_is_named(self):
        ds = Dataset.build({0: {"z,": (1.0, 1.0), "a": (1.0, 1.0)},
                            1: {"b,": (1.0, 1.0), "z,": (1.0, 1.0)}})
        with pytest.raises(CsvError, match="'z,' cannot"):
            format_csv(ds)


class TestReports:
    def test_reproducible_bytes(self):
        payload = {"command": "compute", "value": 1.5}
        a = io.StringIO()
        b = io.StringIO()
        write_report(a, payload)
        write_report(b, payload)
        assert a.getvalue() == b.getvalue()
        assert "generated_at" not in a.getvalue()

    def test_timestamp_is_the_only_difference(self):
        payload = {"command": "compute", "value": 1.5}
        a = io.StringIO()
        b = io.StringIO()
        write_report(a, payload, timestamp="2026-01-01T00:00:00Z")
        write_report(b, payload, timestamp="2026-01-02T00:00:00Z")
        strip = lambda text: [l for l in text.splitlines() if "generated_at" not in l]
        assert strip(a.getvalue()) == strip(b.getvalue())


class TestSynth:
    def test_deterministic(self):
        config = SynthConfig(periods=5, initial_items=10, churn_rate=0.3, seed=4)
        assert synth(config).dataset == synth(config).dataset

    def test_zero_churn_zero_drift_is_constant(self):
        config = SynthConfig(
            periods=4, initial_items=5, churn_rate=0.0, drift_sd=0.0, quantity_sd=0.0, seed=1
        )
        ds = synth(config).dataset
        first = ds.period_data(0).items
        for t in range(1, 4):
            assert dict(ds.period_data(t).items) == dict(first)
        from dynindex import ComparisonSpec, mgk_index

        assert mgk_index(ds, ComparisonSpec(0, 3)).value == pytest.approx(1.0, abs=1e-12)

    def test_realized_churn_near_target(self):
        result = synth(SynthConfig(periods=6, initial_items=20, churn_rate=0.3, seed=2))
        for realized in result.realized_churn:
            assert abs(realized - 0.3) <= 0.1

    def test_lifecycle_decline_pulls_prices_down(self):
        result = synth(
            SynthConfig(
                periods=6,
                initial_items=30,
                churn_rate=0.0,
                drift_mean=0.0,
                drift_sd=0.0,
                lifecycle_decline=0.1,
                seed=3,
            )
        )
        assert result.mean_log_price_change == pytest.approx(-0.1, abs=1e-12)

    @pytest.mark.parametrize("changes, message", [
        ({"churn_rate": 1.0}, r"churn_rate must lie in \[0, 1\), got 1\.0"),
        ({"churn_rate": -0.1}, r"churn_rate must lie in \[0, 1\), got -0\.1"),
        ({"periods": 0}, "periods and initial_items must be at least 1"),
        ({"initial_items": 0}, "periods and initial_items must be at least 1"),
        ({"drift_sd": -1.0}, "dispersions must be non-negative"),
        ({"quantity_sd": -1.0}, "dispersions must be non-negative"),
    ])
    def test_validates_config(self, changes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SynthConfig(**changes)


class TestCli:
    def _write_small_fixed(self, tmp_path):
        path = tmp_path / "sf.csv"
        path.write_text(SF_CSV)
        return str(path)

    def test_compute_mgk(self, tmp_path, capsys):
        code = main(["compute", "--input", self._write_small_fixed(tmp_path),
                     "--engine", "mgk", "--base", "0", "--current", "1"])
        assert code == EX_OK
        assert capsys.readouterr().out.strip() == "1.5"

    def test_compute_leaves_no_parser_for_a_full_collection(self, tmp_path, capsys):
        # The parser is in reference cycles; held through the command,
        # ingest's closing young collection would move it to the oldest
        # generation, which only a full collection walks.
        def old_parsers():
            return sum(isinstance(o, argparse.ArgumentParser)
                       for o in gc.get_objects(generation=2))

        gc.collect()
        before = old_parsers()
        code = main(["compute", "--input", self._write_small_fixed(tmp_path),
                     "--engine", "mgk", "--base", "0", "--current", "1"])
        assert code == EX_OK
        assert old_parsers() == before

    def test_compute_reads_a_file_with_a_byte_order_mark(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + SF_CSV.encode("utf-8"))
        code = main(["compute", "--input", str(path), "--engine", "mgk", "--base", "0",
                     "--current", "1"])
        assert code == EX_OK
        assert capsys.readouterr().out.strip() == "1.5"

    def test_compute_fixed_basket_prints_value_ratio_for_value_family(self, tmp_path, capsys):
        path = self._write_small_fixed(tmp_path)
        values = set()
        for engine in ("mgk", "gk", "guv"):
            main(["compute", "--input", path, "--engine", engine,
                  "--base", "0", "--current", "1"])
            values.add(capsys.readouterr().out.splitlines()[0])
        assert values == {"1.5"}

    def test_compute_series_and_json(self, tmp_path, capsys):
        path = self._write_small_fixed(tmp_path)
        out = tmp_path / "report.json"
        code = main(["compute", "--input", path, "--engine", "gk", "--base", "0",
                     "--current", "1", "--series", "--json", str(out)])
        assert code == EX_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "1.5"
        assert lines[1].startswith("0 ")
        report = json.loads(out.read_text())
        assert report["value"] == pytest.approx(1.5, abs=1e-9)
        assert report["fixed_point"]["converged"] is True
        assert report["fixed_point"]["method"] == "direct"
        assert report["tool"]["name"] == "dynindex"

    def test_compute_json_reports_rqp_components(self, tmp_path, capsys):
        path, out = tmp_path / "churn.csv", tmp_path / "rqp.json"
        path.write_text(CHURN_CSV)
        code = main(["compute", "--input", str(path), "--engine", "rqp", "--alpha", "0.25",
                     "--base", "0", "--current", "1", "--json", str(out)])
        assert code == EX_OK
        report = json.loads(out.read_text())
        components = report["components"]
        assert components.keys() == {"rq", "guv", "alpha"} and components["alpha"] == 0.25
        assert components["rq"] != components["guv"]
        assert report["value"] == pytest.approx(
            components["rq"] ** 0.75 * components["guv"] ** 0.25, rel=1e-15)

    def test_compute_engine_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "churn.csv"
        path.write_text(CHURN_CSV)
        code = main(["compute", "--input", str(path), "-e", "tornqvist",
                     "--base", "0", "--current", "1"])
        assert code == EX_ENGINE
        assert capsys.readouterr().err.startswith("engine error: ")

    def test_compute_unconverged_fixed_point_warns_and_exits_70(self, tmp_path, capsys,
                                                               monkeypatch):
        # the engine runs for real; only its stopping rule allows one sweep
        made = cli._engine_from_args
        monkeypatch.setattr(cli, "_engine_from_args", lambda args: dataclasses.replace(
            made(args), fixed_point=FixedPointConfig(max_iterations=1)))
        path, out = tmp_path / "market.csv", tmp_path / "report.json"
        path.write_text(THREE_PERIOD_CSV)
        code = main(["compute", "--input", str(path), "-e", "guv", "--reference-price", "tpd",
                     "--policy", "full-history", "--base", "0", "--current", "2",
                     "--json", str(out)])
        assert code == EX_ENGINE
        captured = capsys.readouterr()
        assert float(captured.out) > 0
        assert re.fullmatch(r"warning: fixed point not converged \(residual \S+\)\n",
                            captured.err)
        report = json.loads(out.read_text())
        assert report["fixed_point"]["converged"] is False
        assert report["fixed_point"]["iterations"] == 1
        assert f"{report['value']:.12g}\n" == captured.out

    def test_compute_json_into_a_missing_directory_is_an_io_error(self, tmp_path, capsys):
        code = main(["compute", "--input", self._write_small_fixed(tmp_path), "-e", "mgk",
                     "--base", "0", "--current", "1",
                     "--json", str(tmp_path / "missing" / "report.json")])
        assert code == EX_IO
        assert capsys.readouterr().err.startswith("i/o error: ")

    @pytest.mark.parametrize("window", [2, 3])
    def test_compute_rolling_window_prints_the_in_process_value(self, tmp_path, capsys, window):
        path = str(tmp_path / "market.csv")
        assert main(["synth", "--periods", "4", "--items", "6", "--churn", "0.3",
                     "--seed", "2", "--out", path]) == EX_OK
        capsys.readouterr()
        code = main(["compute", "--input", path, "-e", "mgk", "--base", "2", "--current", "3",
                     "--policy", "rolling", "--window", str(window)])
        assert code == EX_OK
        expected = evaluate(ingest_csv(path), ComparisonSpec(2, 3, RollingWindow(window)),
                            EngineSpec("mgk")).value
        assert capsys.readouterr().out == f"{expected:.12g}\n"

    def test_compute_rejects_bad_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("period,item,price,quantity\n0,A,zero,1\n")
        code = main(["compute", "--input", str(path), "--engine", "mgk",
                     "--base", "0", "--current", "1"])
        assert code == EX_DATA

    def test_compute_on_a_unit_value_past_the_float_range_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "overflow.csv"
        path.write_text(OVERFLOWING_UNIT_VALUE_CSV)
        code = main(["compute", "--input", str(path), "--engine", "mgk",
                     "--base", "0", "--current", "1"])
        assert code == EX_DATA
        assert capsys.readouterr().err == (
            "data error: line 3: unit value 1e+308/1e-10 is past the float range\n")

    def test_usage_error_exit_code(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--engine", "mgk"])
        assert exc.value.code == EX_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "-e", "rq", "--birth-markup", "0.5"],
            ["compute", "-e", "rqp", "--alpha", "2"],
            ["compute", "-e", "mgk", "--alpha", "2"],
            ["matrix", "--trials", "0"],
            ["counterexample", "--test", "T1", "--budget", "0"],
            ["synth", "--periods", "0"],
            ["synth", "--churn", "2"],
        ],
        ids=["rq-birth-markup", "rqp-alpha", "mgk-alpha", "matrix-trials",
             "counterexample-budget", "synth-periods", "synth-churn"],
    )
    def test_out_of_range_option_is_usage_error(self, tmp_path, capsys, argv):
        if argv[0] == "compute":
            argv = argv + ["--input", self._write_small_fixed(tmp_path),
                           "--base", "0", "--current", "1"]
        assert main(argv) == EX_USAGE
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["matrix", "--batch", "0"], "responsiveness_batch"),
            (["matrix", "--batch", "-3"], "responsiveness_batch"),
            (["matrix", "--rows", ","], "engines"),
            (["matrix", "--rows", "nope"], "engines"),
        ],
        ids=["batch-0", "batch-negative", "rows-empty", "rows-unknown"],
    )
    def test_matrix_empty_batch_or_rows_is_usage_error(self, capsys, argv, named):
        assert main(argv + ["--trials", "1"]) == EX_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {named} must")

    def test_compute_unknown_period_is_usage_error(self, tmp_path, capsys):
        code = main(["compute", "--input", self._write_small_fixed(tmp_path), "--engine", "mgk",
                     "--base", "0", "--current", "9"])
        assert code == EX_USAGE
        assert capsys.readouterr().err == "usage error: period 9 is not in the dataset\n"

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["closed-forms"],
            ["matrix", "--trials", "1"],
            ["counterexample", "--test", "T1"],
            ["counterexample", "--test", "transitivity"],
        ],
        ids=["closed-forms", "matrix", "counterexample", "counterexample-transitivity"],
    )
    def test_tolerance_not_positive_and_finite_is_usage_error(self, capsys, argv, tolerance):
        assert main(argv + ["--tolerance", tolerance]) == EX_USAGE
        assert capsys.readouterr().err.startswith("usage error: tolerance")

    @pytest.mark.parametrize("family", ENGINE_FAMILIES)
    def test_compute_every_family_on_fixed_universe(self, tmp_path, capsys, family):
        path = str(tmp_path / "market.csv")
        assert main(["synth", "--periods", "3", "--items", "5", "--churn", "0",
                     "--seed", "4", "--out", path]) == EX_OK
        capsys.readouterr()
        code = main(["compute", "--input", path, "--engine", family, "--base", "0",
                     "--current", "2", "--policy", "full-history"])
        assert code == EX_OK
        assert float(capsys.readouterr().out) > 0

    def test_compute_on_a_total_past_the_float_range_is_a_data_error(self, tmp_path, capsys):
        # ingest refuses the total, so compute reports a data error, not an engine error
        path = tmp_path / "overflow.csv"
        path.write_text(OVERFLOWING_TOTAL_CSV + "1,a,1e300,1e8\n1,b,1e300,1e8\n")
        code = main(["compute", "--input", str(path), "--engine", "mgk", "--base", "0",
                     "--current", "1"])
        assert code == EX_DATA
        assert capsys.readouterr().err.startswith("data error: ")

    def test_matrix_expect_table1_needs_table1_rows(self, capsys):
        code = main(["matrix", "--rows", "rq", "--trials", "5", "--expect-table1"])
        assert code == EX_USAGE
        assert "['rq']" in capsys.readouterr().err

    def test_matrix_expect_table1(self, capsys):
        code = main(["matrix", "--trials", "50", "--seed", "0", "--expect-table1"])
        assert code == EX_OK
        out = capsys.readouterr().out
        assert "all cells match the expected summary" in out

    def test_matrix_expect_table1_mismatch_exit_code(self, capsys):
        # with tolerance 10 every non-responsiveness trial passes, so the expected No cells read Yes
        code = main(["matrix", "--trials", "2", "--seed", "0", "--tolerance", "10",
                     "--expect-table1"])
        assert code == EX_MISMATCH
        err = capsys.readouterr().err.splitlines()
        assert all(line.startswith("mismatch: ") for line in err)
        assert "mismatch: GUV (MGK) / Identity / if R_M: expected No, got Yes" in err

    def test_matrix_json(self, tmp_path, capsys):
        out = tmp_path / "matrix.json"
        code = main(["matrix", "--trials", "2", "--seed", "0", "--json", str(out)])
        assert code == EX_OK
        report = json.loads(out.read_text())
        assert "GEKS" in report["cells"]

    def test_closed_forms_reports_finding(self, tmp_path, capsys):
        report = tmp_path / "closed.json"
        code = main(["closed-forms", "--seed", "0", "--json", str(report)])
        out = capsys.readouterr().out
        assert code == EX_OK
        assert out.count("PASS") == 5
        assert out.count("FAIL") == 0
        # the refuted sqrt(V) claim stays visible in the MGK witness
        checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
        witness = checks["mgk-rental-sqrt-value-ratio"]["witness"]
        assert witness["sqrt_value_ratio_log_gap"] > 1e-3

    def test_synth_round_trip(self, tmp_path, capsys):
        out = tmp_path / "market.csv"
        code = main(["synth", "--periods", "3", "--items", "5", "--seed", "9",
                     "--out", str(out)])
        assert code == EX_OK
        ds = ingest_csv(out)
        assert len(ds.periods) == 3
        assert "realized_churn" in capsys.readouterr().err

    def test_synth_to_stdout_writes_the_same_csv(self, tmp_path, capsys):
        argv = ["synth", "--periods", "3", "--items", "5", "--seed", "9"]
        out = tmp_path / "market.csv"
        assert main(argv + ["--out", str(out)]) == EX_OK
        capsys.readouterr()
        assert main(argv) == EX_OK
        assert capsys.readouterr().out == out.read_text()

    def test_counterexample_transitivity(self, capsys):
        code = main(["counterexample", "--test", "transitivity", "--budget", "20",
                     "--seed", "0"])
        assert code == EX_OK
        witness = json.loads(capsys.readouterr().out)
        assert witness["gap"] > 1e-6

    def test_counterexample_transitivity_not_found(self, capsys):
        # one item and no churn: every GEKS chain of one item is transitive
        code = main(["counterexample", "--test", "transitivity", "--items", "1", "--churn", "0",
                     "--budget", "3", "--seed", "0"])
        assert code == EX_NOT_FOUND
        assert capsys.readouterr().out == "no witness found within 3 datasets\n"

    def test_counterexample_not_found(self, capsys):
        code = main(["counterexample", "--test", "T2", "--engine", "mgk",
                     "--policy", "bilateral", "--periods", "2", "--budget", "20",
                     "--seed", "0"])
        assert code == EX_NOT_FOUND

    def test_counterexample_geks_identity(self, capsys):
        code = main(["counterexample", "--test", "T1", "--engine", "geks",
                     "--budget", "20", "--seed", "0"])
        assert code == EX_OK
        witness = json.loads(capsys.readouterr().out)
        assert witness["test"] == "T1"

    def test_seed_env_var_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("DYNINDEX_SEED", "abc")
        assert main(["closed-forms"]) == EX_USAGE
        captured = capsys.readouterr()
        assert captured.err == "usage error: DYNINDEX_SEED must be an integer, got 'abc'\n"
        assert captured.out == ""

    def test_seed_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DYNINDEX_SEED", "7")
        code = main(["counterexample", "--test", "transitivity", "--budget", "20"])
        assert code == EX_OK


# The compute flags each engine reads, written out independently of the
# engine registry; every other (engine, flag) pair is refused.
COMPUTE_READS = {
    "gk": set(), "mgk": set(), "tornqvist": set(), "tpd": set(),
    "guv": {"--reference-price"},
    "wgm": {"--reference-price"},
    "geks": {"--inner"},
    "rq": {"--quantity-scheme", "--birth-markup", "--death-markup"},
    "rqp": {"--alpha", "--quantity-scheme", "--birth-markup", "--death-markup",
            "--reference-price"},
}
# Each engine flag at its default value.
FLAG_DEFAULTS = {"--reference-price": "lehr", "--quantity-scheme": "mean", "--alpha": "0.5",
                 "--birth-markup": "1.05", "--death-markup": "1.05", "--inner": "mgk"}


class TestEngineFlags:
    @staticmethod
    def _compute(tmp_path, capsys, *argv):
        path = tmp_path / "market.csv"
        path.write_text(THREE_PERIOD_CSV)
        code = main(["compute", "--input", str(path), "--base", "0", "--current", "2", *argv])
        return code, capsys.readouterr()

    def test_the_table_reads_eleven_of_fifty_four_pairs(self):
        assert sorted(COMPUTE_READS) == sorted(ENGINE_FAMILIES)
        assert list(FLAG_DEFAULTS) == list(cli._ENGINE_FLAGS)
        assert sum(map(len, COMPUTE_READS.values())) == 11
        assert len(ENGINE_FAMILIES) * len(FLAG_DEFAULTS) == 54

    @pytest.mark.parametrize("flag", FLAG_DEFAULTS)
    @pytest.mark.parametrize("family", ENGINE_FAMILIES)
    def test_a_flag_is_refused_unless_its_engine_reads_it(self, tmp_path, capsys, family, flag):
        # the default value is refused too: the flag was given
        argv = ["-e", family, "--policy", "full-history"]
        code, captured = self._compute(tmp_path, capsys, *argv, flag, FLAG_DEFAULTS[flag])
        if flag in COMPUTE_READS[family]:
            # given at its default, a flag the engine reads leaves the output as it was
            plain_code, plain = self._compute(tmp_path, capsys, *argv)
            assert (code, captured.out) == (plain_code, plain.out)
        else:
            assert code == EX_USAGE
            assert captured.err == f"usage error: {flag} is not read by engine {family}\n"

    @pytest.mark.parametrize("policy", [[], ["--policy", "bilateral"],
                                        ["--policy", "full-history"]],
                             ids=["default", "bilateral", "full-history"])
    def test_window_needs_the_rolling_policy(self, tmp_path, capsys, policy):
        code, captured = self._compute(tmp_path, capsys, "-e", "mgk", "--window", "13", *policy)
        assert code == EX_USAGE
        assert captured.err == "usage error: --window is read only by --policy rolling\n"

    def test_rolling_report_records_the_window(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _ = self._compute(tmp_path, capsys, "-e", "mgk", "--policy", "rolling",
                                "--window", "3", "--json", str(out))
        assert code == EX_OK
        assert json.loads(out.read_text())["config"] == {
            "engine": "mgk", "base": 0, "current": 2, "policy": "rolling", "window": 3}

    def test_reports_of_two_reference_prices_differ_in_config(self, tmp_path, capsys):
        configs, values = [], []
        for extra in ([], ["--reference-price", "fixed-base"]):
            out = tmp_path / "report.json"
            code, _ = self._compute(tmp_path, capsys, "-e", "guv", "--policy", "full-history",
                                    *extra, "--json", str(out))
            assert code == EX_OK
            report = json.loads(out.read_text())
            configs.append(report["config"])
            values.append(report["value"])
        assert values[0] != values[1]
        assert [c.pop("engine") for c in configs] == ["guv", "guv(reference_price=fixed-base)"]
        assert configs[0] == configs[1]

    def test_geks_over_wgm_legs_runs(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, captured = self._compute(tmp_path, capsys, "-e", "geks", "--inner", "wgm",
                                       "--policy", "full-history", "--json", str(out))
        assert code == EX_OK
        engine = EngineSpec("geks", inner=EngineSpec("wgm"))
        expected = evaluate(ingest_csv(io.StringIO(THREE_PERIOD_CSV)),
                            ComparisonSpec(0, 2, FullHistory()), engine).value
        assert captured.out == f"{expected:.12g}\n"
        assert json.loads(out.read_text())["config"]["engine"] == "geks(wgm)"

    def test_help_states_each_flags_default_and_readers(self, capsys):
        with pytest.raises(SystemExit):
            main(["compute", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for flag, default in FLAG_DEFAULTS.items():
            readers = ", ".join(f for f in ENGINE_FAMILIES if flag in COMPUTE_READS[f])
            assert f"default {default}; read by {readers}" in help_text, flag
        assert "default 13; read by --policy rolling" in help_text

    @pytest.mark.parametrize("engine", ["mgk", "rqp"])
    def test_counterexample_refuses_inner_unless_geks_or_transitivity(self, capsys, engine):
        code = main(["counterexample", "--test", "T1", "--engine", engine, "--inner", "mgk"])
        assert code == EX_USAGE
        assert capsys.readouterr().err == (
            "usage error: --inner is read only by --engine geks and --test transitivity\n")

    @pytest.mark.parametrize("flag, value", [
        ("--engine", "mgk"), ("--periods", "3"), ("--policy", "full-history"),
        ("--setting", "both")])
    def test_counterexample_transitivity_refuses_scenario_flags(self, capsys, flag, value):
        # refused even at its default value, which the search would not read either
        code = main(["counterexample", "--test", "transitivity", flag, value])
        assert code == EX_USAGE
        assert capsys.readouterr().err == (
            f"usage error: {flag} is not read by --test transitivity\n")

    def test_counterexample_transitivity_default_witness(self, capsys):
        # with no scenario flag given the search takes their defaults, and prints this witness
        code = main(["counterexample", "--test", "transitivity", "--budget", "20", "--seed", "0"])
        assert code == EX_OK
        assert capsys.readouterr().out == (
            '{"chained": 0.7640250001646333, "full_window": 0.7655755847482433, '
            '"gap": 0.0020274379207807502, "seed": 13983774088827213383}\n')

    def test_counterexample_help_states_the_scenario_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["counterexample", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for default in ("mgk", "3", "full-history", "both"):
            assert f"default {default}; not read by --test transitivity" in help_text

    def test_counterexample_geks_reads_inner(self, capsys):
        code = main(["counterexample", "--test", "T1", "--engine", "geks", "--inner", "wgm",
                     "--budget", "5", "--seed", "0"])
        assert code == EX_OK
        assert json.loads(capsys.readouterr().out)["engine"] == "geks(wgm)"
