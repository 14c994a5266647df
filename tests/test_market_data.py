import contextlib
import datetime as dt
import io
import json
import math
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterloss import cli
from clusterloss.fixtures import curve_path, quotes_path, schedule_path
from clusterloss.market_data import (
    DiscountCurve,
    IndexQuote,
    MarketDataError,
    TrancheQuote,
    load_curve,
    load_quotes,
    parse_date,
    quarterly_payment_dates,
    year_fraction,
)

from reference_engines import PaymentSchedule

VAL = dt.date(2006, 10, 2)


class TestCurveLoading:
    def test_parses_pillar_row(self):
        curve = load_curve(io.StringIO("date,zero_rate\n20-Dec-06, 3.41%\n"), VAL)
        assert curve.pillar_dates == (dt.date(2006, 12, 20),)
        assert curve.zero_rates == (0.0341,)

    def test_decimal_rates_accepted(self):
        curve = load_curve(io.StringIO("date,zero_rate\n20-Dec-06,0.0341\n"), VAL)
        assert curve.zero_rates == (0.0341,)

    def test_empty_file_reports_no_pillars(self):
        with pytest.raises(MarketDataError, match="no pillars"):
            load_curve(io.StringIO("date,zero_rate\n"), VAL)

    def test_out_of_order_dates_rejected(self):
        text = "date,zero_rate\n20-Mar-07,3.5%\n20-Dec-06,3.4%\n"
        with pytest.raises(MarketDataError, match="increasing"):
            load_curve(io.StringIO(text), VAL)

    def test_malformed_row_names_line(self):
        text = "date,zero_rate\n20-Dec-06,3.41%\nnot-a-date,1%\n"
        with pytest.raises(MarketDataError, match="line 3"):
            load_curve(io.StringIO(text), VAL)

    def test_fixture_curve_has_41_pillars(self, curve):
        assert len(curve.pillar_dates) == 41
        assert curve.pillar_dates[0] == dt.date(2006, 12, 20)
        assert curve.zero_rates[-1] == 0.0388


class TestPathSources:
    """A path object loads like its text, a text handle like its file."""

    def test_curve_from_path_object(self, curve):
        assert load_curve(pathlib.Path(curve_path()), VAL) == curve

    @pytest.mark.parametrize("index", ["itraxx", "cdx"])
    def test_quotes_from_path_object(self, index):
        expected = load_quotes(quotes_path(index), VAL)
        assert load_quotes(pathlib.Path(quotes_path(index)), VAL) == expected
        with open(quotes_path(index), newline="") as fh:
            assert load_quotes(fh, VAL) == expected


class TestDiscountFactor:
    def test_at_time_zero(self, curve):
        assert curve.discount_factor(0.0) == 1.0

    def test_at_first_pillar(self, curve):
        t = year_fraction(VAL, dt.date(2006, 12, 20))
        assert curve.discount_factor(t) == pytest.approx(math.exp(-0.0341 * t), abs=1e-15)

    def test_midpoint_matches_hand_interpolation(self, curve):
        # halfway between the 20-Dec-06 (3.41%) and 20-Mar-07 (3.57%) pillars
        t = 0.5 * (79 + 169) / 365.0
        assert curve.discount_factor(t) == pytest.approx(
            math.exp(-0.0349 * t), abs=1e-15)

    def test_flat_extrapolation(self, curve):
        t_long = year_fraction(VAL, dt.date(2016, 12, 20)) + 3.0
        assert curve.zero_rate(t_long) == 0.0388
        assert curve.zero_rate(0.01) == 0.0341

    def test_negative_time_rejected(self, curve):
        for t in (-0.1, math.nan, [1.0, math.nan]):  # a nan is no time either
            with pytest.raises(MarketDataError, match="negative time"):
                curve.discount_factor(t)

    def test_vectorised_evaluation(self, curve):
        out = curve.discount_factor(np.array([0.0, 1.0, 5.0]))
        assert out.shape == (3,)
        assert out[0] == 1.0

    def test_non_increasing_on_fixture_curve(self, curve):
        # holds for curves with non-negative forward rates, as here
        grid = np.linspace(0.0, 12.0, 600)
        dfs = curve.discount_factor(grid)
        assert np.all(np.diff(dfs) <= 1e-15)

    def test_single_pillar_curve_is_flat(self):
        curve = DiscountCurve(VAL, (dt.date(2007, 10, 2),), (0.05,))
        assert curve.zero_rate(0.1) == 0.05
        assert curve.zero_rate(9.9) == 0.05


class TestQuotePanel:
    def test_spread_quote_parsed(self, itraxx_panel):
        q = [q for q in itraxx_panel.tranche_quotes
             if q.attachment == 0.03 and q.maturity == dt.date(2011, 12, 20)][0]
        assert q.quote == 75.00
        assert q.bid_ask_width == 1.0
        assert not q.is_upfront

    def test_equity_row_is_upfront_fraction(self, itraxx_panel):
        q = [q for q in itraxx_panel.tranche_quotes
             if q.attachment == 0.0 and q.maturity == dt.date(2011, 12, 20)][0]
        assert q.is_upfront
        assert q.quote == pytest.approx(0.1975)
        assert q.bid_ask_width == pytest.approx(0.0025)
        assert q.running_premium_if_upfront == 0.05

    def test_cdx_senior_quote(self, cdx_panel):
        q = [q for q in cdx_panel.tranche_quotes
             if q.attachment == 0.15 and q.maturity == dt.date(2016, 12, 20)][0]
        assert q.quote == 15.50
        assert q.bid_ask_width == 0.9

    def test_index_rows(self, itraxx_panel):
        assert len(itraxx_panel.index_quotes) == 4
        assert {q.spread_bp for q in itraxx_panel.index_quotes} == {18, 30, 40, 51}

    def test_attach_must_be_below_detach(self):
        text = ("pool,maturity,attach,detach,quote_bp,bid_ask_bp,is_upfront\n"
                "X,20-Dec-11,6,3,10,1,0\n")
        with pytest.raises(MarketDataError, match="line 2"):
            load_quotes(io.StringIO(text), VAL)

    def test_missing_width_rejected(self):
        text = ("pool,maturity,attach,detach,quote_bp,bid_ask_bp,is_upfront\n"
                "X,20-Dec-11,3,6,10,,0\n")
        with pytest.raises(MarketDataError, match="line 2"):
            load_quotes(io.StringIO(text), VAL)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_quotes_rejected(self, value):
        maturity = dt.date(2011, 12, 20)
        with pytest.raises(MarketDataError, match="finite"):
            IndexQuote(maturity, spread_bp=value, bid_ask_width_bp=0.5)
        with pytest.raises(MarketDataError, match="finite"):
            IndexQuote(maturity, spread_bp=30.0, bid_ask_width_bp=value)
        with pytest.raises(MarketDataError, match="finite"):
            TrancheQuote(0.03, 0.06, maturity, quote=value, bid_ask_width=0.5)
        with pytest.raises(MarketDataError, match="finite"):
            TrancheQuote(0.03, 0.06, maturity, quote=10.0, bid_ask_width=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.01])
    def test_bad_running_premium_rejected(self, value):
        with pytest.raises(MarketDataError, match="running premium"):
            TrancheQuote(0.0, 0.03, dt.date(2011, 12, 20), quote=0.2, bid_ask_width=0.0025,
                         is_upfront=True, running_premium_if_upfront=value)

    @pytest.mark.parametrize("row", ["X,20-Dec-11,3,6,nan,1,0", "X,20-Dec-11,3,6,10,inf,0",
                                     "X,20-Dec-11,,,nan,0.5,0", "X,20-Dec-11,0,3,nan,50,1"])
    def test_non_finite_quote_rows_name_their_line(self, row):
        text = ("pool,maturity,attach,detach,quote_bp,bid_ask_bp,is_upfront\n"
                "X,20-Dec-11,,,40,0.5,0\n" + row + "\n")
        with pytest.raises(MarketDataError, match="line 3.*finite"):
            load_quotes(io.StringIO(text), VAL)

    @pytest.mark.parametrize("flag, upfront", [("", False), ("0", False), ("No", False),
                                               ("FALSE", False), ("1", True),
                                               ("True", True), ("YES", True)])
    def test_upfront_flags_accepted(self, flag, upfront):
        text = ("pool,maturity,attach,detach,quote_bp,bid_ask_bp,is_upfront\n"
                f"X,20-Dec-11,,,40,0.5,{'0' if upfront else flag}\n"
                f"X,20-Dec-11,0,3,1500,25,{flag}\n")
        panel = load_quotes(io.StringIO(text), VAL)
        q = panel.tranche_quotes[0]
        assert q.is_upfront is upfront
        assert q.quote == pytest.approx(0.15 if upfront else 1500.0)

    @pytest.mark.parametrize("flag", ["y", "Y", "on", "2", "-1", "t"])
    def test_unknown_upfront_flag_names_its_line(self, flag):
        text = ("pool,maturity,attach,detach,quote_bp,bid_ask_bp,is_upfront\n"
                "X,20-Dec-11,,,40,0.5,0\n"
                f"X,20-Dec-11,0,3,1500,25,{flag}\n")
        with pytest.raises(MarketDataError, match=f"line 3: is_upfront .*{flag!r}"):
            load_quotes(io.StringIO(text), VAL)

    @pytest.mark.parametrize("flag", ["1", "true", "Yes"])
    def test_upfront_index_row_rejected(self, flag):
        text = ("pool,maturity,attach,detach,quote_bp,bid_ask_bp,is_upfront\n"
                "X,20-Dec-11,0,3,1500,25,1\n"
                f"X,20-Dec-11,,,40,0.5,{flag}\n")
        with pytest.raises(MarketDataError, match="line 3: an index quote cannot be upfront"):
            load_quotes(io.StringIO(text), VAL)

    def test_maturity_after_valuation_required(self):
        text = ("pool,maturity,attach,detach,quote_bp,bid_ask_bp,is_upfront\n"
                "X,20-Dec-05,3,6,10,1,0\n")
        with pytest.raises(MarketDataError):
            load_quotes(io.StringIO(text), VAL)

    @pytest.mark.parametrize("pool_name", ["itraxx", "cdx"])
    def test_csv_round_trip_is_byte_exact(self, pool_name, request):
        panel = request.getfixturevalue(f"{pool_name}_panel")
        emitted = panel.to_csv()
        reloaded = load_quotes(io.StringIO(emitted), VAL)
        assert reloaded.to_csv() == emitted
        assert reloaded == panel

    def test_json_audit_document(self, itraxx_panel):
        doc = json.loads(itraxx_panel.to_json())
        assert len(doc["index_quotes"]) == 4
        assert len(doc["tranche_quotes"]) == 21
        assert doc["valuation_date"] == "2006-10-02"


class TestPaymentSchedule:
    def test_quarterly_dates_match_rolled_grid(self):
        dates = quarterly_payment_dates(VAL, dt.date(2009, 12, 21))
        assert dates[0] == dt.date(2006, 12, 20)
        assert dt.date(2008, 9, 22) in dates   # 20-Sep-08 is a Saturday
        assert dt.date(2009, 9, 21) in dates   # 20-Sep-09 is a Sunday
        assert dates[-1] == dt.date(2009, 12, 21)
        assert len(dates) == 13

    def test_year_fractions_sum_to_total_maturity(self):
        for maturity in (dt.date(2011, 12, 20), dt.date(2016, 12, 20)):
            schedule = PaymentSchedule.quarterly(VAL, maturity)
            total = (maturity - VAL).days / 365.0
            assert abs(schedule.year_fractions.sum() - total) < 1e-12
            assert schedule.maturity_time == pytest.approx(total, abs=1e-15)

    def test_all_year_fractions_positive(self):
        schedule = PaymentSchedule.quarterly(VAL, dt.date(2016, 12, 20))
        assert np.all(schedule.year_fractions > 0)

    def test_off_grid_maturity_appended(self):
        schedule = PaymentSchedule.quarterly(VAL, dt.date(2010, 1, 15))
        assert schedule.dates[-1] == dt.date(2010, 1, 15)

    def test_non_increasing_times_rejected(self):
        with pytest.raises(MarketDataError):
            PaymentSchedule.from_times([0.5, 0.5])
        with pytest.raises(MarketDataError):
            PaymentSchedule.from_times([])

    @pytest.mark.parametrize("times", [[0.25, math.nan], [math.nan], [0.25, math.inf]])
    def test_non_finite_times_rejected(self, times):
        with pytest.raises(MarketDataError, match="finite"):
            PaymentSchedule.from_times(times)

    @given(st.integers(min_value=30, max_value=4000))
    @settings(max_examples=40, deadline=None)
    def test_generated_schedules_telescope(self, days):
        maturity = VAL + dt.timedelta(days=days)
        schedule = PaymentSchedule.quarterly(VAL, maturity)
        assert abs(schedule.year_fractions.sum() - days / 365.0) < 1e-12


def test_parse_date_variants():
    assert parse_date("20-Dec-06") == dt.date(2006, 12, 20)
    assert parse_date("2-Oct-2006") == dt.date(2006, 10, 2)
    with pytest.raises(MarketDataError):
        parse_date("2006-12-20")


# spellings of a nan or an infinity that float() reads, 1e999 overflowing
_NON_FINITE = ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999", "-1e999"]
_CURVE_ROWS = ["date,zero_rate", "20-Dec-07,3.41%", "20-Dec-11,0.0380"]
_QUOTE_ROWS = ["pool,maturity,attach,detach,quote_bp,bid_ask_bp,is_upfront",
               "X,20-Dec-11,,,40,0.5,0", "X,20-Dec-11,3,6,120,2,0",
               "X,20-Dec-11,0,3,1975,25,1"]
# the words each column's error names it by
_QUOTE_FIELDS = {2: "attach", 3: "detach", 4: "spread|quote", 5: "bid-ask width"}


@st.composite
def non_finite_curve(draw):
    """Curve CSV lines with a non-finite rate on one line; its field's name."""
    lines = list(_CURVE_ROWS)
    k = draw(st.integers(1, len(lines) - 1))
    rate = draw(st.sampled_from(_NON_FINITE)) + draw(st.sampled_from(["", "%"]))
    lines[k] = f"{lines[k].split(',')[0]},{rate}"
    return lines, "zero rate"


@st.composite
def non_finite_quotes(draw):
    """Quote CSV lines with a non-finite number in one numeric field of one
    row (an index row has no attach or detach); that field's name."""
    lines = list(_QUOTE_ROWS)
    k = draw(st.integers(1, len(lines) - 1))
    cells = lines[k].split(",")
    column = draw(st.sampled_from(sorted(c for c in _QUOTE_FIELDS if cells[c] or c > 3)))
    cells[column] = draw(st.sampled_from(_NON_FINITE))
    lines[k] = ",".join(cells)
    return lines, f"line {k + 1}: .*({_QUOTE_FIELDS[column]})"


class TestNonFiniteFields:
    """A nan or an infinity in any numeric field is an error naming the field."""

    @given(field=st.sampled_from(["spread_bp", "bid_ask_width_bp"]),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_index_quote(self, field, bad):
        fields = {"spread_bp": 30.0, "bid_ask_width_bp": 0.5, field: bad}
        name = "index spread" if field == "spread_bp" else "bid-ask width"
        with pytest.raises(MarketDataError, match=name):
            IndexQuote(dt.date(2011, 12, 20), **fields)

    @given(field=st.sampled_from(["attachment", "detachment", "quote", "bid_ask_width",
                                  "running_premium_if_upfront"]),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]),
           is_upfront=st.booleans())
    def test_tranche_quote(self, field, bad, is_upfront):
        fields = {"attachment": 0.0, "detachment": 0.03, "quote": 0.2, "bid_ask_width": 0.0025,
                  "running_premium_if_upfront": 0.05, field: bad}
        name = {"attachment": "attachment", "detachment": "detachment",
                "quote": "tranche quote", "bid_ask_width": "bid-ask width",
                "running_premium_if_upfront": "running premium"}[field]
        with pytest.raises(MarketDataError, match=name):
            TrancheQuote(maturity=dt.date(2011, 12, 20), is_upfront=is_upfront, **fields)

    @given(rates=st.lists(st.floats(-0.05, 0.2), min_size=1, max_size=4), data=st.data())
    def test_discount_curve(self, rates, data):
        rates[data.draw(st.integers(0, len(rates) - 1))] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
        dates = tuple(dt.date(2007 + i, 12, 20) for i in range(len(rates)))
        with pytest.raises(MarketDataError, match="zero rates must be finite"):
            DiscountCurve(VAL, dates, tuple(rates))

    @given(case=non_finite_curve())
    def test_load_curve(self, case):
        lines, name = case
        with pytest.raises(MarketDataError, match=name):
            load_curve(io.StringIO("\n".join(lines) + "\n"), VAL)

    @given(case=non_finite_quotes())
    def test_load_quotes(self, case):
        lines, name = case
        with pytest.raises(MarketDataError, match=name):
            load_quotes(io.StringIO("\n".join(lines) + "\n"), VAL)

    @settings(max_examples=30, deadline=None)
    @given(case=st.one_of(non_finite_curve().map(lambda c: ("curve",) + c),
                          non_finite_quotes().map(lambda c: ("quotes",) + c)))
    def test_cli_exits_2_and_writes_nothing(self, case):
        what, lines, name = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            files = {"curve": tmp / "curve.csv", "quotes": tmp / "quotes.csv"}
            files["curve"].write_text("\n".join(_CURVE_ROWS) + "\n")
            files["quotes"].write_text("\n".join(_QUOTE_ROWS) + "\n")
            files[what].write_text("\n".join(lines) + "\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["price", "--curve", str(files["curve"]),
                                 "--quotes", str(files["quotes"]),
                                 "--schedule", schedule_path("gpl"), "--out", str(tmp / "out")])
            assert code == 2
            assert re.search(f"invalid {what} .*{name}", err.getvalue())
            assert not (tmp / "out").exists()
