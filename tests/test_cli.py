import csv
import json
from pathlib import Path

import numpy as np
import pytest

from clusterloss.cli import build_parser, main
from clusterloss.fixtures import curve_path, quotes_path, schedule_path
from clusterloss.loss_engine import IntensitySchedule


def run(args):
    return main([str(a) for a in args])


def write_zero_schedule(tmp_path: Path) -> Path:
    doc = {"model": "gpcl", "amplitudes": [1], "knots_years": [5.0],
           "cumulated": [[0.0]]}
    path = tmp_path / "zero_schedule.json"
    path.write_text(json.dumps(doc))
    return path


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestDistCommand:
    def test_zero_schedule_is_point_mass(self, tmp_path):
        sched = write_zero_schedule(tmp_path)
        code = run(["dist", "--schedule", sched, "--times", "1,2",
                    "--pool-size", "10", "--out", tmp_path])
        assert code == 0
        rows = read_csv(tmp_path / "dist_1y.csv")
        assert len(rows) == 11
        assert float(rows[0]["probability"]) == 1.0
        assert sum(float(r["probability"]) for r in rows) == pytest.approx(1.0)
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["command"] == "dist"
        assert "config_hash" in meta and "schedule_hash" in meta["config"]

    def test_reference_cluster_schedule_has_top_mode_mass(self, tmp_path):
        code = run(["dist", "--schedule", schedule_path("gpcl"),
                    "--times", "10", "--out", tmp_path])
        assert code == 0
        rows = read_csv(tmp_path / "dist_10y.csv")
        probs = np.array([float(r["probability"]) for r in rows])
        assert len(probs) == 126
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        # whole-pool cluster mode leaves a visible atom at the top state
        assert probs[125] > probs[124] * 50
        assert probs[125] > 1e-3

    def test_simulate_flag_adds_mc_columns(self, tmp_path):
        sched = write_zero_schedule(tmp_path)
        code = run(["dist", "--schedule", sched, "--times", "1",
                    "--pool-size", "10", "--paths", "50", "--seed", "9",
                    "--simulate", "--out", tmp_path])
        assert code == 0
        rows = read_csv(tmp_path / "dist_1y.csv")
        assert set(rows[0]) == {"count", "probability", "mc_frequency", "mc_std_err"}
        assert float(rows[0]["mc_frequency"]) == 1.0

    def test_simulate_without_paths_is_input_error(self, tmp_path, capsys):
        sched = write_zero_schedule(tmp_path)
        code = run(["dist", "--schedule", sched, "--times", "1", "--pool-size", "10",
                    "--paths", "0", "--simulate", "--out", tmp_path / "out"])
        assert code == 2
        assert "--paths" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_is_input_error(self, tmp_path, capsys):
        sched = write_zero_schedule(tmp_path)
        code = run(["dist", "--schedule", sched, "--times", "1", "--pool-size", "10",
                    "--simulate", "--seed", "-1", "--out", tmp_path / "out"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_simulate_with_clusters_larger_than_pool(self, tmp_path):
        # the iTraxx gpcl schedule has 80- and 125-name clusters
        code = run(["dist", "--schedule", schedule_path("gpcl"), "--pool-size", "60",
                    "--times", "10", "--simulate", "--paths", "3000", "--out", tmp_path])
        assert code == 0
        rows = read_csv(tmp_path / "dist_10y.csv")
        assert len(rows) == 61
        assert sum(float(r["mc_frequency"]) for r in rows) == pytest.approx(1.0)

    @pytest.mark.parametrize("times", ["nan", "inf", "1,nan"])
    def test_non_finite_times_are_input_errors(self, tmp_path, capsys, times):
        code = run(["dist", "--schedule", schedule_path("gpcl"), "--times", times,
                    "--out", tmp_path / "out"])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--pool-size", "0")])
    def test_invalid_pool_is_input_error(self, tmp_path, capsys, flag, value):
        code = run(["dist", "--schedule", schedule_path("gpcl"), flag, value,
                    "--out", tmp_path / "out"])
        assert code == 2
        assert "invalid pool" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_schedule_file_is_input_error(self, tmp_path, capsys):
        code = run(["dist", "--schedule", tmp_path / "absent.json", "--out", tmp_path])
        assert code == 2
        assert "absent.json" in capsys.readouterr().err

    def test_invalid_schedule_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": "gpcl"}')
        code = run(["dist", "--schedule", bad, "--out", tmp_path])
        assert code == 2
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize("times", ["5,5.0000001", "5,5"])
    def test_times_sharing_a_file_name_are_input_errors(self, tmp_path, capsys, times):
        code = run(["dist", "--schedule", schedule_path("gpl"), "--times", times,
                    "--out", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert "dist_5y.csv" in err and err.count("5.0") == 2  # names both times
        assert not (tmp_path / "out").exists()

    def test_dist_csv_round_trips_probabilities(self, tmp_path):
        code = run(["dist", "--schedule", schedule_path("gpl"), "--times", "5",
                    "--out", tmp_path])
        assert code == 0
        rows = read_csv(tmp_path / "dist_5y.csv")
        probs = np.array([float(r["probability"]) for r in rows])
        from clusterloss.loss_engine import PoolSpec, loss_distribution
        with open(schedule_path("gpl")) as fh:
            schedule = IntensitySchedule.from_json(fh.read())
        exact = loss_distribution(PoolSpec(), schedule, 5.0)
        np.testing.assert_array_equal(probs, exact.probs)


MALFORMED_SCHEDULES = {
    "fractional amplitude": ({"amplitudes": [1, 2.5]}, "amplitudes"),
    "amplitudes as text": ({"amplitudes": "12"}, "amplitudes"),
    "value as text": ({"amplitudes": [1], "cumulated": ["0.1"]}, "cumulated"),
}


class TestMalformedSchedule:
    @pytest.mark.parametrize("command", ["dist", "intensity-curve", "price"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_SCHEDULES))
    def test_is_input_error_naming_the_field(self, tmp_path, capsys, command, case):
        change, field = MALFORMED_SCHEDULES[case]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": "gpcl", "amplitudes": [1, 2], "knots_years": [5.0],
                                   "cumulated": [[0.1], [0.2]], **change}))
        market = ["--curve", curve_path(), "--quotes", quotes_path()] if command == "price" else []
        code = run([command, "--schedule", bad, *market, "--out", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.json" in err and field in err
        assert not (tmp_path / "out").exists()


class TestIntensityCurveCommand:
    def test_ratio_table_properties(self, tmp_path):
        code = run(["intensity-curve", "--schedule", schedule_path("gpcl"),
                    "--out", tmp_path])
        assert code == 0
        rows = read_csv(tmp_path / "intensity_ratios.csv")
        assert len(rows) == 126
        first = rows[0]
        for strategy in ("repeated", "s0", "s1", "s2"):
            assert float(first[strategy]) == 1.0
        fractions = np.array([float(r["count_fraction"]) for r in rows])
        s1 = np.array([float(r["s1"]) for r in rows])
        np.testing.assert_allclose(s1, 1.0 - fractions, atol=1e-12)
        for strategy in ("repeated", "s0", "s1", "s2"):
            column = np.array([float(r[strategy]) for r in rows])
            assert np.all(np.diff(column) <= 1e-12)
        assert float(rows[-1]["s2"]) == 0.0

    @pytest.mark.parametrize("at_time", ["nan", "inf", "-1"])
    def test_invalid_time_is_input_error(self, tmp_path, capsys, at_time):
        code = run(["intensity-curve", "--schedule", schedule_path("gpcl"),
                    f"--at-time={at_time}", "--out", tmp_path / "out"])
        assert code == 2
        assert "--at-time" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_works_for_capped_model_schedules(self, tmp_path):
        code = run(["intensity-curve", "--schedule", schedule_path("gpl"),
                    "--out", tmp_path])
        assert code == 0


class TestPriceCommand:
    def test_reference_schedule_report(self, tmp_path):
        code = run(["price", "--curve", curve_path(), "--quotes", quotes_path(),
                    "--schedule", schedule_path("gpl"), "--out", tmp_path])
        assert code == 0
        report = json.loads((tmp_path / "pricing_report.json").read_text())
        assert len(report["instruments"]) == 25
        for entry in report["instruments"]:
            assert {"label", "model_value", "market_mid", "bid_ask_width",
                    "epsilon"} <= set(entry)
        assert report["objective"] == pytest.approx(
            sum(e["epsilon"] ** 2 for e in report["instruments"]), rel=1e-12)

    def test_empty_panel_gives_empty_report(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("pool,maturity,attach,detach,quote_bp,bid_ask_bp,is_upfront\n")
        code = run(["price", "--curve", curve_path(), "--quotes", empty,
                    "--schedule", schedule_path("gpl"), "--out", tmp_path])
        assert code == 0
        report = json.loads((tmp_path / "pricing_report.json").read_text())
        assert report["instruments"] == []

    def test_missing_curve_is_input_error(self, tmp_path, capsys):
        code = run(["price", "--curve", tmp_path / "no_curve.csv",
                    "--quotes", quotes_path(), "--schedule", schedule_path("gpl"),
                    "--out", tmp_path])
        assert code == 2
        assert "no_curve.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["1e300", "-1e300"])
    @pytest.mark.parametrize("command", ["price", "calibrate"])
    def test_absurd_curve_is_input_error(self, tmp_path, capsys, command, rate):
        # finite rates that drive the discount factors to zero or infinity
        # would price every spread as 0/0 or inf/inf
        curve = tmp_path / "curve.csv"
        rows = Path(curve_path()).read_text().splitlines()
        curve.write_text("\n".join([rows[0]] + [f"{r.split(',')[0]},{rate}" for r in rows[1:]])
                         + "\n")
        out = tmp_path / "out"
        inputs = ["--schedule", schedule_path("gpl")] if command == "price" else ["--model", "gpl"]
        code = run([command, "--curve", curve, "--quotes", quotes_path(), *inputs, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert "discount factors up to the maturity 21-Dec-09" in err
        assert not out.exists()

    def test_model_matching_schedule_is_accepted(self, tmp_path):
        code = run(["price", "--model", "gpcl", "--curve", curve_path(),
                    "--quotes", quotes_path(), "--schedule", schedule_path("gpcl"),
                    "--out", tmp_path])
        assert code == 0
        report = json.loads((tmp_path / "pricing_report.json").read_text())
        assert len(report["instruments"]) == 25

    def test_model_differing_from_schedule_is_input_error(self, tmp_path, capsys):
        code = run(["price", "--model", "gpl", "--curve", curve_path(),
                    "--quotes", quotes_path(), "--schedule", schedule_path("gpcl"),
                    "--out", tmp_path])
        assert code == 2
        err = capsys.readouterr().err
        assert "gpl" in err and "gpcl" in err
        assert not (tmp_path / "pricing_report.json").exists()

    def test_non_finite_quote_is_input_error(self, tmp_path, capsys):
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(
            "pool,maturity,attach,detach,quote_bp,bid_ask_bp,is_upfront\n"
            "X,20-Dec-11,,,40,0.5,0\n"
            "X,20-Dec-11,3,6,nan,1,0\n")
        code = run(["price", "--curve", curve_path(), "--quotes", quotes,
                    "--schedule", schedule_path("gpl"), "--out", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert "quotes.csv" in err and "line 3" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row", ["X,20-Dec-11,0,3,1500,25,y", "X,20-Dec-11,,,40,0.5,1"])
    @pytest.mark.parametrize("command", ["price", "calibrate"])
    def test_bad_upfront_flag_is_input_error(self, tmp_path, capsys, command, row):
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(
            "pool,maturity,attach,detach,quote_bp,bid_ask_bp,is_upfront\n"
            "X,20-Dec-11,3,6,120,2,0\n" + row + "\n")
        out = tmp_path / "out"
        inputs = ["--schedule", schedule_path("gpl")] if command == "price" else ["--model", "gpl"]
        code = run([command, "--curve", curve_path(), "--quotes", quotes, *inputs, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert "quotes.csv" in err and "line 3" in err and "upfront" in err
        assert not out.exists()

    @pytest.mark.parametrize("row, message", [
        ("X,20-Dec-11,6,9,-35,2,0", "line 3: running tranche spread must be positive"),
        ("X,20-Dec-11,6,9,0,2,0", "line 3: running tranche spread must be positive"),
        ("X,20-Dec-11,3,6,100,2,0", "lines 2 and 3 both quote the 3-6 tranche at 20-Dec-11")])
    @pytest.mark.parametrize("command", ["price", "calibrate"])
    def test_unpriceable_quote_is_input_error(self, tmp_path, capsys, command, row, message):
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(
            "pool,maturity,attach,detach,quote_bp,bid_ask_bp,is_upfront\n"
            "X,20-Dec-11,3,6,120,2,0\n" + row + "\n")
        out = tmp_path / "out"
        inputs = ["--schedule", schedule_path("gpl")] if command == "price" else ["--model", "gpl"]
        code = run([command, "--curve", curve_path(), "--quotes", quotes, *inputs, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert "quotes.csv" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--recovery", "1.5")])
    def test_invalid_pool_is_input_error(self, tmp_path, capsys, flag, value):
        code = run(["price", "--curve", curve_path(), "--quotes", quotes_path(),
                    "--schedule", schedule_path("gpl"), flag, value, "--out", tmp_path / "out"])
        assert code == 2
        assert "invalid pool" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("step", ["nan", "inf", "0", "-30", "0.5"])
    def test_invalid_grid_step_is_input_error(self, tmp_path, capsys, step):
        code = run(["price", "--curve", curve_path(), "--quotes", quotes_path(),
                    "--schedule", schedule_path("gpl"), "--grid-step", step,
                    "--out", tmp_path / "out"])
        assert code == 2
        assert "--grid-step" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCalibrateCommand:
    def test_tiny_panel_calibration_outputs(self, tmp_path):
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(
            "pool,maturity,attach,detach,quote_bp,bid_ask_bp,is_upfront\n"
            "X,20-Dec-11,,,40,0.5,0\n")
        code = run(["calibrate", "--model", "gpl", "--curve", curve_path(),
                    "--quotes", quotes, "--pool-size", "20", "--max-modes", "1",
                    "--jobs", "1", "--out", tmp_path])
        assert code == 0
        doc = json.loads((tmp_path / "calibration.json").read_text())
        assert doc["model"] == "gpl"
        assert doc["amplitudes"] == [1]
        assert abs(doc["errors"][0]["epsilon"]) < 0.1
        schedule = IntensitySchedule.from_dict(doc)
        assert schedule.model == "gpl"
        table = read_csv(tmp_path / "epsilon_table.csv")
        assert table[0]["instrument"] == "index"

    def test_missing_quotes_is_input_error(self, tmp_path, capsys):
        code = run(["calibrate", "--model", "gpl", "--curve", curve_path(),
                    "--quotes", tmp_path / "nope.csv", "--out", tmp_path])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--grid-step", "nan"), ("--grid-step", "inf"),
                                             ("--grid-step", "0"), ("--grid-step", "0.5"),
                                             ("--max-modes", "0"),
                                             ("--max-modes", "-1"), ("--threshold", "nan"),
                                             ("--threshold", "inf"), ("--jobs", "0"),
                                             ("--jobs", "-2")])
    def test_invalid_option_is_input_error(self, tmp_path, capsys, flag, value):
        code = run(["calibrate", "--model", "gpl", "--curve", curve_path(),
                    "--quotes", quotes_path(), flag, value, "--out", tmp_path / "out"])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_quote_is_input_error(self, tmp_path, capsys):
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(
            "pool,maturity,attach,detach,quote_bp,bid_ask_bp,is_upfront\n"
            "X,20-Dec-11,,,40,nan,0\n")
        code = run(["calibrate", "--model", "gpl", "--curve", curve_path(),
                    "--quotes", quotes, "--out", tmp_path / "out"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_panel_is_numerical_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("pool,maturity,attach,detach,quote_bp,bid_ask_bp,is_upfront\n")
        code = run(["calibrate", "--model", "gpl", "--curve", curve_path(),
                    "--quotes", empty, "--out", tmp_path])
        assert code == 1


class TestDeterminism:
    def test_same_config_same_outputs(self, tmp_path):
        sched = write_zero_schedule(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run(["dist", "--schedule", sched, "--times", "1",
                        "--pool-size", "6", "--seed", "3", "--simulate",
                        "--paths", "40", "--out", out]) == 0
        csv_a = (out_a / "dist_1y.csv").read_text()
        csv_b = (out_b / "dist_1y.csv").read_text()
        assert csv_a == csv_b


class TestOptions:
    REQUIRED = {"calibrate": ["--model", "gpl", "--curve", "c.csv", "--quotes", "q.csv"],
                "price": ["--curve", "c.csv", "--quotes", "q.csv", "--schedule", "s.json"],
                "dist": ["--schedule", "s.json"],
                "intensity-curve": ["--schedule", "s.json"]}

    @pytest.mark.parametrize("command, option", [
        ("price", "--strict"), ("dist", "--strict"), ("intensity-curve", "--strict"),
        ("dist", "--recovery"), ("dist", "--valuation-date"),
        ("intensity-curve", "--recovery"), ("intensity-curve", "--valuation-date"),
        ("intensity-curve", "--seed"), ("price", "--seed"), ("calibrate", "--seed")])
    def test_option_the_command_does_not_read_is_rejected(self, capsys, command, option):
        value = [] if option == "--strict" else ["1"]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, *self.REQUIRED[command], option, *value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
