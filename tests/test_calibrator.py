import concurrent.futures
import datetime as dt
import logging
import math
import multiprocessing
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterloss.calibrator import (
    _MAX_INCREMENT,
    CalibrationError,
    fit_intensities,
    _scan_candidate,
    _scan_tasks,
    greedy_calibrate,
)
from clusterloss.fixtures import FIXTURE_VALUATION_DATE, quotes_path, schedule_path
from clusterloss import calibrator as calibrator_module
from clusterloss import loss_engine
from clusterloss import pricer as pricer_module
from clusterloss.loss_engine import (
    GPL,
    GPCL,
    IntensitySchedule,
    PoolSpec,
    distribution_term_structure,
)
from clusterloss.market_data import (
    DiscountCurve,
    IndexQuote,
    MarketDataError,
    QuotePanel,
    TrancheQuote,
    load_quotes,
)
from clusterloss.pricer import PanelPricer, PricingError, TrancheDef

from reference_engines import (
    PaymentSchedule,
    ReferenceGrid,
    default_leg,
    free_damped_step,
    free_stepping,
    index_spread,
    tranche_premium_leg,
)

VAL = dt.date(2006, 10, 2)
MAT_2Y = dt.date(2008, 12, 22)
MAT_4Y = dt.date(2010, 12, 20)


def make_schedule(model, amplitudes, knots, cumulated):
    return IntensitySchedule(model=model, amplitudes=tuple(amplitudes),
                             knots=tuple(knots),
                             cumulated=tuple(tuple(row) for row in cumulated))


def flat_curve(rate=0.035):
    return DiscountCurve(VAL, (dt.date(2030, 1, 1),), (rate,))


class TestWeightedError:
    """``PanelPricer.errors`` is the one quote-error formula: on a panel whose
    mids are the model's values less known multiples of each width, the
    errors are those multiples."""

    GPL_TRUE = make_schedule(GPL, (1, 5), (2.2246575342465754, 4.219178082191781),
                             [(0.25, 0.55), (0.02, 0.05)])
    # index, running and upfront widths; the 15-100 tranche's spreads are
    # 0.18 and 0.78 bp, so a running width of 0.005 bp keeps its mids
    # positive (a running quote must be) under shifts of up to 20 widths
    WIDTHS = (0.25, 0.005, 0.0005)

    def errors(self, shifts):
        pool, curve = PoolSpec(names=24), flat_curve()
        panel = synthetic_panel(pool, curve, self.GPL_TRUE, self.WIDTHS, shifts=shifts)
        return PanelPricer(panel, curve, pool).errors(self.GPL_TRUE)

    def test_zero_at_mid(self):
        assert np.all(self.errors(0.0) == 0.0)

    def test_one_width_above_mid(self):
        np.testing.assert_allclose(self.errors(1.0), 1.0, rtol=0, atol=1e-9)

    def test_sign_preserved(self):
        shifts = np.array([-1.925, 2.0, -0.5, 3.0, -3.0, 0.75, -2.5, 1.5])
        eps = self.errors(shifts)
        np.testing.assert_allclose(eps, shifts, rtol=0, atol=1e-9)
        assert np.array_equal(np.sign(eps), np.sign(shifts))

    def test_accepts_quote_objects(self):
        # index spreads, running tranche spreads and upfronts each divide by
        # their own quote's width, in the quote's own units
        shifts = np.arange(1.0, 9.0)
        pool, curve = PoolSpec(names=24), flat_curve()
        panel = synthetic_panel(pool, curve, self.GPL_TRUE, self.WIDTHS, shifts=shifts)
        pricer = PanelPricer(panel, curve, pool)
        widths = dict(zip(("index", "running", "upfront"), self.WIDTHS))
        for ins, width, eps, shift in zip(pricer.instruments, pricer.widths,
                                          pricer.errors(self.GPL_TRUE), shifts):
            kind = ins.kind if ins.kind == "index" else (
                "upfront" if ins.is_upfront else "running")
            assert width == widths[kind]
            assert eps == pytest.approx(shift, abs=1e-9)

    def test_zero_width_rejected(self):
        for quote in (IndexQuote, TrancheQuote):
            with pytest.raises(MarketDataError, match="bid-ask width"):
                _quote_with_width(quote, 0.0)

    @pytest.mark.parametrize("width", [float("nan"), float("inf")])
    def test_non_finite_width_rejected(self, width):
        for quote in (IndexQuote, TrancheQuote):
            with pytest.raises(MarketDataError, match="finite"):
                _quote_with_width(quote, width)

    @given(st.floats(min_value=-20, max_value=20))
    @settings(max_examples=25, deadline=None)
    def test_antisymmetric_around_mid(self, d):
        up, down = self.errors(d), self.errors(-d)
        np.testing.assert_allclose(up, d, rtol=0, atol=1e-9)
        np.testing.assert_allclose(up, -down, rtol=0, atol=1e-9)


def _quote_with_width(quote, width):
    if quote is IndexQuote:
        return IndexQuote(MAT_4Y, 30.0, width)
    return TrancheQuote(0.0, 0.03, MAT_4Y, 0.1975, width, is_upfront=True)


def synthetic_panel(pool, curve, schedule, widths=(0.25, 0.5, 0.0005), shifts=0.0):
    """Panel whose mids are the model's own prices for ``schedule``, less
    ``shifts`` (a number, or one per instrument in pricer order) times each
    instrument's width."""
    index_w, tranche_w, upfront_w = widths
    maturities = [MAT_2Y, MAT_4Y]
    skeleton = QuotePanel(
        pool_name="synthetic", valuation_date=VAL,
        index_quotes=tuple(IndexQuote(m, 1.0, index_w) for m in maturities),
        tranche_quotes=tuple(
            [TrancheQuote(0.0, 0.05, m, 0.01, upfront_w, is_upfront=True)
             for m in maturities]
            + [TrancheQuote(0.05, 0.15, m, 10.0, tranche_w) for m in maturities]
            + [TrancheQuote(0.15, 1.0, m, 10.0, tranche_w) for m in maturities]))
    pricer = PanelPricer(skeleton, curve, pool)
    values = pricer.model_values(schedule)
    shifts = np.broadcast_to(shifts, values.shape)
    index_quotes, tranche_quotes = [], []
    for ins, v, shift in zip(pricer.instruments, values, shifts):
        if ins.kind == "index":
            index_quotes.append(IndexQuote(ins.maturity, float(v - shift * index_w), index_w))
        else:
            width = upfront_w if ins.is_upfront else tranche_w
            tranche_quotes.append(TrancheQuote(
                ins.attachment, ins.detachment, ins.maturity, float(v - shift * width),
                width, is_upfront=ins.is_upfront))
    return QuotePanel("synthetic", VAL, tuple(index_quotes), tuple(tranche_quotes))


class TestObjective:
    def test_schedule_reproducing_mids_scores_zero(self):
        pool = PoolSpec(names=24)
        curve = flat_curve()
        true = make_schedule(GPL, (1, 5),
                             (2.2246575342465754, 4.219178082191781),
                             [(0.25, 0.55), (0.02, 0.05)])
        panel = synthetic_panel(pool, curve, true)
        f, eps = PanelPricer(panel, curve, pool).objective(true)
        assert f == pytest.approx(0.0, abs=1e-18)
        assert np.all(eps == 0.0)

    def test_objective_is_sum_of_squared_errors(self, pool, curve, itraxx_panel,
                                                gpl_schedule):
        f, eps = PanelPricer(itraxx_panel, curve, pool).objective(gpl_schedule)
        assert f == pytest.approx(float(eps @ eps), abs=1e-12)
        assert len(eps) == 25

    def test_intensity_bump_raises_expected_tranched_loss(self, pool, gpl_schedule):
        from clusterloss.loss_engine import loss_distribution
        from clusterloss.pricer import TrancheDef, expected_tranched_loss
        bumped_rows = [list(r) for r in gpl_schedule.cumulated]
        for k in range(1, len(bumped_rows[0])):
            bumped_rows[0][k] += 0.05  # raise the single-name mode from knot 2 on
        bumped = gpl_schedule.with_cumulated(bumped_rows)
        t = gpl_schedule.knots[1]
        tranche = TrancheDef(0.0, 0.03)
        low = expected_tranched_loss(loss_distribution(pool, gpl_schedule, t), tranche, pool)
        high = expected_tranched_loss(loss_distribution(pool, bumped, t), tranche, pool)
        assert high > low

    def test_empty_panel_rejected(self, pool, curve):
        empty = QuotePanel("x", VAL, (), ())
        with pytest.raises(PricingError):
            PanelPricer(empty, curve, pool)


class TestPanelPricerLegs:
    @pytest.mark.parametrize("index", ["itraxx", "cdx"])
    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_model_values_match_leg_by_leg_pricing(self, pool, curve, index, model):
        panel = load_quotes(quotes_path(index), FIXTURE_VALUATION_DATE)
        with open(schedule_path(model, index)) as fh:
            schedule = IntensitySchedule.from_json(fh.read())
        pricer = PanelPricer(panel, curve, pool)
        # the kernel's distributions, priced leg by leg
        grid = ReferenceGrid(pool, pricer.grid_times, loss_engine.distribution_term_structure(
            pool, schedule, pricer.grid_times))
        expected = []
        for ins in pricer.instruments:
            payments = PaymentSchedule.quarterly(FIXTURE_VALUATION_DATE, ins.maturity)
            if ins.kind == "index":
                expected.append(1e4 * index_spread(grid, curve, payments))
                continue
            tranche = TrancheDef(ins.attachment, ins.detachment)
            protection = default_leg(grid, tranche, curve, payments.maturity_time)
            annuity = tranche_premium_leg(grid, tranche, curve, payments)
            expected.append(protection - ins.running * annuity if ins.is_upfront
                            else 1e4 * protection / annuity)
        assert any(ins.is_upfront for ins in pricer.instruments)
        np.testing.assert_allclose(pricer.model_values(schedule), expected,
                                   rtol=1e-12, atol=0.0)


def _load(model, index="itraxx"):
    with open(schedule_path(model, index)) as fh:
        return IntensitySchedule.from_json(fh.read())


def _bumped(schedule, j, k, rel):
    """Mode j's cumulated value at knot k raised by ``rel`` of itself, later
    knots lifted where they would fall below it."""
    rows = [list(r) for r in schedule.cumulated]
    rows[j][k] += rel * max(rows[j][k], 1e-3)
    for kk in range(k + 1, len(rows[j])):
        rows[j][kk] = max(rows[j][kk], rows[j][k])
    return schedule.with_cumulated(rows)


def _with_zero_mode(schedule):
    """The schedule plus a mode with no intensity, as the greedy scan's
    zero-initialised candidates are."""
    amplitude = next(a for a in range(2, 125) if a not in schedule.amplitudes)
    pairs = sorted(zip(schedule.amplitudes, schedule.cumulated))
    pairs.append((amplitude, (0.0,) * len(schedule.knots)))
    pairs.sort()
    return make_schedule(schedule.model, [a for a, _ in pairs], schedule.knots,
                         [row for _, row in pairs])


class TestKnotPrefixMemo:
    """The kernel keeps a bounded cache of its per-knot-interval results,
    shared by every pricer; a cache hit must give the bits of a fresh solve."""

    @pytest.fixture
    def spy(self, monkeypatch):
        """Every kernel call the pricer makes, with the knot intervals it
        actually solved (cache misses: a hit, including an interval's lookup
        of the one before it, solves nothing). On teardown each call's rows
        (projected onto the payout columns) are checked against a fresh
        solve, made on an empty cache."""
        calls = {"calls": 0, "solved": 0}
        made = []
        original = pricer_module.distribution_term_structure
        info = loss_engine._interval_rows.cache_info

        def counting(pool, schedule, times, *columns):
            misses = info().misses
            out = original(pool, schedule, times, *columns)
            calls["solved"] += info().misses - misses
            calls["calls"] += 1
            made.append((pool, schedule, times, columns, out))
            return out

        monkeypatch.setattr(pricer_module, "distribution_term_structure", counting)
        yield calls
        for pool, schedule, times, columns, out in made:
            loss_engine._interval_rows.cache_clear()
            np.testing.assert_array_equal(out, original(pool, schedule, times, *columns))

    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_memo_hits_are_bit_identical(self, spy, pool, curve, itraxx_panel, model):
        base = _load(model)
        pricer = PanelPricer(itraxx_panel, curve, pool)
        pricer.model_values(base)
        n_knots = len(base.knots)
        assert spy["solved"] == n_knots
        pricer.model_values(_with_zero_mode(base))
        assert spy["solved"] == n_knots  # served whole by the memo
        bumps = [_bumped(base, j, k, 0.02)
                 for j in range(base.n_modes) for k in range(n_knots)]
        lifting = _bumped(base, 0, 0, 50.0)  # lifts every later knot of mode 0
        assert lifting.cumulated[0][1] > base.cumulated[0][1]
        for schedule in bumps + [lifting]:
            pricer.model_values(schedule)
        # a bump at knot k leaves the k intervals before it to the memo
        assert spy["solved"] == 2 * n_knots + base.n_modes * sum(
            n_knots - k for k in range(n_knots))
        pricer.model_values(base)
        assert spy["calls"] == len(bumps) + 4

    def test_mode_flat_over_one_interval(self, spy, pool, curve, itraxx_panel):
        base = _load(GPCL)
        rows = [list(r) for r in base.cumulated]
        rows[0][2] = rows[0][1]  # mode 0 flat over the third interval
        flat = base.with_cumulated(rows)
        pricer = PanelPricer(itraxx_panel, curve, pool)
        pricer.model_values(base)
        pricer.model_values(flat)
        assert spy["solved"] == len(base.knots) + 2

    def test_entry_count_never_exceeds_the_bound(self, pool, curve, itraxx_panel):
        pricer = PanelPricer(itraxx_panel, curve, pool)
        info = loss_engine._interval_rows.cache_info
        assert info().maxsize == loss_engine._MEMO_ENTRIES
        sizes = []
        base = _load(GPCL)
        for n in range(3 * loss_engine._MEMO_ENTRIES):
            pricer.model_values(base.with_cumulated(
                np.asarray(base.cumulated) * (1.0 + 1e-3 * n)))
            sizes.append(info().currsize)
        assert max(sizes) == loss_engine._MEMO_ENTRIES
        assert info().currsize == loss_engine._MEMO_ENTRIES

    def test_pickled_and_shared_pricers_agree(self, pool, curve, itraxx_panel):
        base = _load(GPCL)
        schedules = [base] + [_bumped(base, j, k, 0.03)
                              for j in range(base.n_modes) for k in range(len(base.knots))]
        pricer = PanelPricer(itraxx_panel, curve, pool)
        expected = []
        for s in schedules:  # fresh solves: a fresh pricer on an empty cache
            loss_engine._interval_rows.cache_clear()
            expected.append(PanelPricer(itraxx_panel, curve, pool).model_values(s))
        for s in schedules[:5]:
            pricer.model_values(s)
        restored = pickle.loads(pickle.dumps(pricer))
        for s, values in zip(schedules, expected):
            np.testing.assert_array_equal(restored.model_values(s), values)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads interleave inside cache lookups
        try:
            with concurrent.futures.ThreadPoolExecutor(4) as threads:
                for _ in range(3):
                    shared = list(threads.map(pricer.model_values, schedules, timeout=300))
                    for got, values in zip(shared, expected):
                        np.testing.assert_array_equal(got, values)
        finally:
            sys.setswitchinterval(interval)
        assert loss_engine._interval_rows.cache_info().currsize <= loss_engine._MEMO_ENTRIES

    def test_evicted_prefix_is_solved_again(self, pool, gpcl_schedule, monkeypatch):
        # an interval whose predecessors have left the cache solves them
        # again for its start state, with the bits of the first solve
        solve, made = loss_engine._interval_rows, []

        def recording(*args):
            made.append(args)
            return solve(*args)

        monkeypatch.setattr(loss_engine, "_interval_rows", recording)
        distribution_term_structure(pool, gpcl_schedule, np.linspace(0.0, 12.0, 49))
        last = next(args for args in made if args[4] == 12.0)  # the last interval's
        first = solve(*last)
        solve.cache_clear()
        again = solve(*last)
        assert solve.cache_info().misses == len(gpcl_schedule.knots)
        np.testing.assert_array_equal(again[0], first[0])
        np.testing.assert_array_equal(again[1], first[1])


def _rows_through_each_maturity(pricer):
    """Grid rows the legs of each maturity read: through that maturity."""
    return [int(np.searchsorted(pricer.grid_times, knot + 1e-12)) for knot in pricer.knots]


class TestSubsetErrors:
    """Quotes of the k-th maturity depend only on the first k knot intervals.
    The forward-difference Jacobian's zero rows and the greedy scan's shared
    start rest on this: a grid prefix through a maturity has the full grid's
    rows, and a bump at a later knot leaves the errors of the subset of
    quotes maturing before it unchanged, bit for bit."""

    @pytest.mark.parametrize("index", ["itraxx", "cdx"])
    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_subset_rows_are_the_full_rows(self, pool, curve, itraxx_panel, cdx_panel,
                                           model, index):
        # a prefix grid ends on a knot, so its intervals are the full grid's
        # leading ones: the same rows, and the same cache keys
        schedule = _load(model, index)
        pricer = PanelPricer(itraxx_panel if index == "itraxx" else cdx_panel, curve, pool)
        grid, cache = pricer.grid_times, loss_engine._interval_rows
        full = distribution_term_structure(pool, schedule, grid)
        for n in _rows_through_each_maturity(pricer):
            cache.cache_clear()
            np.testing.assert_array_equal(
                distribution_term_structure(pool, schedule, grid[:n]), full[:n])
            np.testing.assert_array_equal(distribution_term_structure(pool, schedule, grid), full)
            assert cache.cache_info().misses == len(schedule.knots)

    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_each_maturity_matches_the_full_errors(self, pool, curve, itraxx_panel, model):
        # the errors of the quotes maturing before a bumped knot are the
        # unbumped ones, bit for bit; at and after it, some quote moves
        base = _load(model)
        pricer = PanelPricer(itraxx_panel, curve, pool)
        full_errors = pricer.errors(base)
        maturity_index = np.searchsorted(
            pricer.knots, [ins.maturity_time - 1e-9 for ins in pricer.instruments])
        for j in range(base.n_modes):
            for k in range(len(base.knots)):
                errors = pricer.errors(_bumped(base, j, k, 0.02))
                before = maturity_index < k
                np.testing.assert_array_equal(errors[before], full_errors[before])
                assert np.any(errors[~before] != full_errors[~before])

    def test_solves_only_through_the_latest_maturity(self, pool, curve, itraxx_panel):
        pricer = PanelPricer(itraxx_panel, curve, pool)
        schedule, info = _load(GPL), loss_engine._interval_rows.cache_info
        for k, n in enumerate(_rows_through_each_maturity(pricer)):
            loss_engine._interval_rows.cache_clear()
            distribution_term_structure(pool, schedule, pricer.grid_times[:n])
            assert info().misses == k + 1
            # the pricer's full grid then solves only the intervals after it
            pricer.errors(schedule)
            assert info().misses == len(pricer.knots)

    @pytest.mark.parametrize("shift", [0.1, 0.001])
    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_subset_then_full_matches_a_fresh_pricer(self, pool, curve, itraxx_panel,
                                                     model, shift):
        # knots just after the maturities: a prefix grid's last interval ends
        # inside a knot interval, where the full grid's does not; 0.1 y on
        # holds grid times, 0.001 y on holds none
        base = _load(model)
        schedule = make_schedule(model, base.amplitudes, [t + shift for t in base.knots],
                                 base.cumulated)
        pricer = PanelPricer(itraxx_panel, curve, pool)
        for n in _rows_through_each_maturity(pricer):
            distribution_term_structure(pool, schedule, pricer.grid_times[:n])
            np.testing.assert_array_equal(
                pricer.errors(schedule),
                PanelPricer(itraxx_panel, curve, pool).errors(schedule))
        loss_engine._interval_rows.cache_clear()
        np.testing.assert_array_equal(pricer.errors(schedule),
                                      PanelPricer(itraxx_panel, curve, pool).errors(schedule))


class TestFitIntensities:
    def test_single_quote_single_mode_fit_matches_bisection(self):
        # one index quote, one amplitude: the spread is monotone in the
        # cumulated intensity, so bisection provides an independent oracle
        pool = PoolSpec(names=20)
        curve = flat_curve()
        target_bp, width = 40.0, 0.5
        panel = QuotePanel("x", VAL, (IndexQuote(MAT_4Y, target_bp, width),), ())
        pricer = PanelPricer(panel, curve, pool)

        def spread_for(lam):
            sched = make_schedule(GPL, (1,), pricer.knots, [(lam,)])
            return pricer.model_values(sched)[0]

        lo, hi = 0.0, 5.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if spread_for(mid) < target_bp:
                lo = mid
            else:
                hi = mid
        bisected = 0.5 * (lo + hi)

        fit = fit_intensities(pricer, GPL, (1,), np.array([0.1]), max_evaluations=600)
        assert abs(fit.errors[0]) < 0.05
        fitted = fit.schedule.cumulated[0][0]
        assert fitted == pytest.approx(bisected, rel=5e-3)
        # a fit that reprices its one quote has converged
        assert fit.converged and fit.warning is None
        _assert_first_order(pricer, fit, (1,))

    def test_refit_from_solution_is_fixed_point(self):
        pool = PoolSpec(names=20)
        curve = flat_curve()
        panel = QuotePanel("x", VAL, (IndexQuote(MAT_4Y, 40.0, 0.5),), ())
        pricer = PanelPricer(panel, curve, pool)
        first = fit_intensities(pricer, GPL, (1,), np.array([0.1]), max_evaluations=600)
        again = fit_intensities(pricer, GPL, (1,), first.increments.ravel(),
                                max_evaluations=600)
        assert again.objective <= first.objective + 1e-15
        assert abs(again.objective - first.objective) < 1e-8

    def test_budget_exhaustion_warns(self, pool, curve, itraxx_panel):
        pricer = PanelPricer(itraxx_panel, curve, pool)
        fit = fit_intensities(pricer, GPL, (1,), np.full(4, 0.1), max_evaluations=10)
        assert not fit.converged
        assert "budget" in fit.warning
        # one evaluation for the start leaves four, too few for a Jacobian's
        # four columns plus a trial point: the start comes back
        x0 = np.full(4, 0.1)
        small = fit_intensities(pricer, GPL, (1,), x0, max_evaluations=5)
        assert (small.n_evaluations, small.converged) == (1, False)
        assert "budget" in small.warning
        np.testing.assert_array_equal(small.increments.ravel(), x0)
        np.testing.assert_array_equal(small.errors, pricer.errors(small.schedule))
        # a known start charged its four columns: four evaluations pay for
        # no step
        start = (small.errors, pricer.jacobian(small.schedule, (1,)).reshape(-1, 4), 4)
        known = fit_intensities(pricer, GPL, (1,), x0, max_evaluations=4, start=start)
        assert (known.n_evaluations, known.converged) == (0, False)
        assert "budget" in known.warning
        np.testing.assert_array_equal(known.increments.ravel(), x0)

    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_each_priced_point_is_built_once(self, pool, curve, itraxx_panel, model,
                                             monkeypatch):
        # a fit builds one schedule per point it prices, and differentiates
        # and returns schedules it priced, not copies built again
        built, priced, differentiated = [], [], []
        make = calibrator_module._schedule_from_increments
        errors, jacobian = PanelPricer.errors, PanelPricer.jacobian

        def building(*args):
            built.append(make(*args))
            return built[-1]

        def recording_errors(self, schedule):
            priced.append(schedule)
            return errors(self, schedule)

        def recording_jacobian(self, schedule, amplitudes):
            differentiated.append(schedule)
            return jacobian(self, schedule, amplitudes)

        monkeypatch.setattr(calibrator_module, "_schedule_from_increments", building)
        monkeypatch.setattr(PanelPricer, "errors", recording_errors)
        monkeypatch.setattr(PanelPricer, "jacobian", recording_jacobian)
        pricer = PanelPricer(itraxx_panel, curve, pool)
        fit = fit_intensities(pricer, model, (1, 12), np.full(8, 0.05), max_evaluations=60)
        assert len(differentiated) >= 2  # a trial was accepted and differentiated
        assert len(built) == len(priced) and all(b is p for b, p in zip(built, priced))
        assert all(any(d is p for p in priced) for d in differentiated + [fit.schedule])

    def test_no_fit_exceeds_its_budget(self, pool, curve, itraxx_panel, monkeypatch):
        # every pricing of the errors costs one evaluation, every Jacobian
        # its column count
        calls = []
        errors, jacobian = PanelPricer.errors, PanelPricer.jacobian

        def counting_errors(self, schedule):
            calls.append(("errors", schedule.amplitudes, 1))
            return errors(self, schedule)

        def counting_jacobian(self, schedule, amplitudes):
            out = jacobian(self, schedule, amplitudes)
            calls.append(("jacobian", tuple(amplitudes), out[0].size))
            return out

        monkeypatch.setattr(PanelPricer, "errors", counting_errors)
        monkeypatch.setattr(PanelPricer, "jacobian", counting_jacobian)
        pricer = PanelPricer(itraxx_panel, curve, pool)
        # from 0.05, (1, 3, 15) spends its last evaluation of budget 53 on a
        # trial point that the solver rejects, and would try another
        for amplitudes, start in (((1,), 0.05), ((1, 12), 0.05), ((1, 12), 0.01),
                                  ((1, 3, 15), 0.05)):
            x0 = np.full(4 * len(amplitudes), start)
            for budget in (1, 5, 6, 9, 10, 12, 37, 40, 53, 150):
                calls.clear()
                fit = fit_intensities(pricer, GPCL, amplitudes, x0, max_evaluations=budget)
                assert sum(charge for _, _, charge in calls) == fit.n_evaluations <= budget
                assert fit.converged or "budget" in fit.warning
        # a greedy run counts every evaluation of its fits and its scans; a
        # scan's one tangent pass over every amplitude is charged as the
        # incumbent's columns plus each candidate's new ones, and the final
        # report prices the result once more
        names = 16
        panel = synthetic_panel_single(PoolSpec(names=names), flat_curve(), make_schedule(
            GPL, (1, 4), (2.2246575342465754,), [(0.30,), (0.05,)]))
        calls.clear()
        result = greedy_calibrate(panel, flat_curve(), PoolSpec(names=names), GPL, max_modes=3,
                                  objective_threshold=0.0, scan_budget=7, refine_budget=40,
                                  polish_budget=30, n_jobs=1)
        assert len(result.iterations) == 3
        scans = [amplitudes for kind, amplitudes, _ in calls
                 if kind == "jacobian" and len(amplitudes) == names]
        assert len(scans) == 2
        # each scan ranks every unused amplitude and fits the best few; the
        # others cost no pricing
        assert [it["ranked"] for it in result.iterations[1:]] == [names - 1, names - 2]
        assert calibrator_module._SCAN_FITS < names - 2
        assert [len(it["candidates"]) for it in result.iterations[1:]] == [
            calibrator_module._SCAN_FITS] * 2
        fits = sum(charge for kind, amplitudes, charge in calls if len(amplitudes) < names)
        # n_knots = 1: the incumbents have one and two columns, and each of
        # the names - 1 and names - 2 candidates one, fitted or not
        assert fits - 1 + (1 + names - 1) + (2 + names - 2) == result.n_evaluations

    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_scan_start_is_each_candidates_own(self, pool, curve, itraxx_panel, model):
        # at a candidate's warm start (its new mode at zero) the shared errors
        # are the candidate's own, bit for bit, and its slice of the shared
        # tangent pass is its own Jacobian
        pricer = PanelPricer(itraxx_panel, curve, pool)
        amplitudes = [1, 30]
        incumbent = fit_intensities(pricer, model, amplitudes, np.full(8, 0.05),
                                    max_evaluations=30)
        candidates = (2, 17, 31, 125)
        tasks, spent = _scan_tasks(pricer, model, amplitudes, incumbent, candidates, 20)
        assert spent == 8
        # tasks come best score first
        for task, expected in zip(sorted(tasks, key=lambda task: task[4]), candidates):
            carried, _, new_amplitudes, x0, candidate, budget, (e, jac, charge) = task
            assert candidate == expected and budget == 20 and charge == 4
            assert carried is pricer  # the task carries the calibration's pricer
            assert new_amplitudes == tuple(sorted(amplitudes + [candidate]))
            assert not x0.reshape(3, 4)[new_amplitudes.index(candidate)].any()
            schedule = IntensitySchedule(model, new_amplitudes, pricer.knots,
                                         np.cumsum(x0.reshape(3, 4), axis=1))
            np.testing.assert_array_equal(e, pricer.errors(schedule))
            own = pricer.jacobian(schedule, new_amplitudes).reshape(len(e), -1)
            np.testing.assert_allclose(jac, own, rtol=1e-12, atol=1e-12 * np.abs(own).max())
            # so the candidate's fit from the shared start is its fit from
            # scratch, which pays for the start and the shared columns itself
            shared = fit_intensities(pricer, model, new_amplitudes, x0,
                                     max_evaluations=budget, start=(e, jac, charge))
            scratch = fit_intensities(pricer, model, new_amplitudes, x0,
                                      max_evaluations=budget + spent + 1)
            assert scratch.n_evaluations == shared.n_evaluations + spent + 1
            np.testing.assert_allclose(shared.increments, scratch.increments, rtol=1e-9,
                                       atol=1e-9 * np.abs(scratch.increments).max())
            assert shared.objective == pytest.approx(scratch.objective, rel=1e-9)

    def test_saturating_mode_stops_at_the_increment_bound(self, pool, curve, itraxx_panel,
                                                          monkeypatch):
        # gpcl amplitude 125 fires only while every name survives, so over
        # the last interval its errors barely move with its intensity: its
        # Jacobian column is near zero, and a damped Gauss-Newton step along
        # it runs towards a million
        rises = []
        errors = PanelPricer.errors

        def spy(self, schedule):
            rises.append(np.diff(schedule.cumulated, axis=1, prepend=0.0).max())
            return errors(self, schedule)

        monkeypatch.setattr(PanelPricer, "errors", spy)
        pricer = PanelPricer(itraxx_panel, curve, pool)
        x0 = np.array([0.0, 3.3, 2.45, 3.99, 0.007, 0.0, 0.339, 0.01])
        fit = fit_intensities(pricer, GPCL, (1, 125), x0, max_evaluations=400)
        assert max(rises) == pytest.approx(_MAX_INCREMENT, rel=1e-12)
        assert fit.increments.max() == _MAX_INCREMENT
        assert fit.objective < pricer.objective(fit_intensities(
            pricer, GPCL, (1, 125), x0, max_evaluations=1).schedule)[0]

    @pytest.mark.parametrize("model, bound", [(GPCL, 17.4), (GPL, 15.9)])
    def test_cold_start_at_the_shipped_amplitudes(self, pool, curve, itraxx_panel, model,
                                                  bound):
        # from flat increments of 0.05, far from the shipped fits; a solver
        # that keeps increments stuck at a bound stops above 2e5 on gpcl
        pricer = PanelPricer(itraxx_panel, curve, pool)
        amplitudes = _load(model).amplitudes
        fit = fit_intensities(pricer, model, amplitudes, np.full(4 * len(amplitudes), 0.05),
                              max_evaluations=3000)
        assert fit.converged and fit.objective <= bound
        _assert_first_order(pricer, fit, amplitudes)

    def test_mode_at_zero_rises_from_a_stalled_start(self, pool, curve, itraxx_panel):
        # the five-mode gpl fit of a greedy calibration of the iTraxx panel
        # (f = 57.126), plus amplitude 3 at zero: the gradient of f along
        # amplitude 3's first two increments is negative, so it must rise
        pricer = PanelPricer(itraxx_panel, curve, pool)
        schedule = IntensitySchedule(GPL, (1, 3, 5, 11, 19, 79), pricer.knots, np.insert(
            STALLED_GPL_CUMULATED, 1, 0.0, axis=0))
        assert pricer.objective(schedule)[0] == pytest.approx(57.126, abs=1e-3)
        x0 = np.diff(schedule.cumulated, axis=1, prepend=0.0)
        fit = fit_intensities(pricer, GPL, schedule.amplitudes, x0, max_evaluations=3000)
        assert fit.converged and fit.objective <= 27.5
        assert fit.increments[1, :2].min() > 0.0
        _assert_first_order(pricer, fit, schedule.amplitudes)

    def test_fit_that_cannot_lower_f_stops_and_says_why(self, pool, curve, itraxx_panel,
                                                        monkeypatch):
        # with a first-order test no fit can pass, a fit runs until no
        # damped step lowers f beyond its rounding, well within its budget
        pricer = PanelPricer(itraxx_panel, curve, pool)
        converged = fit_intensities(pricer, GPL, (1, 5), np.full(8, 0.1), max_evaluations=3000)
        assert converged.converged
        monkeypatch.setattr(calibrator_module, "_GRADIENT_TOL", 0.0)
        fit = fit_intensities(pricer, GPL, (1, 5), np.full(8, 0.1), max_evaluations=3000)
        assert not fit.converged and "no damped step lowers the objective" in fit.warning
        assert fit.n_evaluations < 3000
        assert fit.objective <= converged.objective
        np.testing.assert_array_equal(fit.errors, pricer.errors(fit.schedule))

    def test_converged_fits_meet_the_first_order_test(self, pool, curve, itraxx_panel,
                                                      monkeypatch):
        # every fit of two greedy calibrations, step 1, scans, refines and
        # polish: a fit that says it converged is first-order stationary, and
        # one that does not says why it stopped
        fits, fit = [], calibrator_module.fit_intensities

        def recording(pricer, model, amplitudes, x0, **kwargs):
            fits.append((pricer, fit(pricer, model, amplitudes, x0, **kwargs), amplitudes))
            return fits[-1][1]

        monkeypatch.setattr(calibrator_module, "fit_intensities", recording)
        for model in (GPCL, GPL):
            greedy_calibrate(itraxx_panel, curve, pool, model, max_modes=3, scan_budget=12,
                             refine_budget=400, polish_budget=400, n_jobs=1)
        converged = [(pricer, f, a) for pricer, f, a in fits if f.converged]
        assert len(converged) >= 6
        for pricer, f, amplitudes in converged:
            _assert_first_order(pricer, f, amplitudes)
        for _, f, _ in fits:
            assert (f.warning is None) == f.converged
            assert f.converged or "budget" in f.warning or "no damped step" in f.warning

    def test_wrong_parameter_count_rejected(self, pool, curve, itraxx_panel):
        pricer = PanelPricer(itraxx_panel, curve, pool)
        with pytest.raises(CalibrationError):
            fit_intensities(pricer, GPL, (1, 3), np.array([0.1, 0.1]))

    @pytest.mark.parametrize("bad", [0, 2.5, True])
    def test_evaluation_budget_not_a_count_rejected(self, pool, curve, itraxx_panel, bad):
        pricer = PanelPricer(itraxx_panel, curve, pool)
        with pytest.raises(CalibrationError, match="max_evaluations must be an integer"):
            fit_intensities(pricer, GPL, (1,), np.full(4, 0.1), max_evaluations=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, pool, curve, itraxx_panel, bad):
        # checked before the start is clipped into the box, where an infinity
        # would become a bound and a nan would reach the kernel
        pricer = PanelPricer(itraxx_panel, curve, pool)
        with pytest.raises(CalibrationError, match="x0 must be finite"):
            fit_intensities(pricer, GPL, (1,), np.array([0.1, bad, 0.1, 0.1]))

    @pytest.mark.parametrize("bad", [1.7, 2.0, True, "2"])
    def test_non_integer_amplitudes_rejected(self, pool, curve, itraxx_panel, bad):
        # int() would fit 1.7 as amplitude 1
        pricer = PanelPricer(itraxx_panel, curve, pool)
        with pytest.raises(CalibrationError, match=f"must be integers, got {bad!r}"):
            fit_intensities(pricer, GPL, (1, bad), np.full(8, 0.1))


# cumulated intensities at the four iTraxx knots of amplitudes 1, 5, 11, 19
# and 79: a greedy gpl calibration of the iTraxx panel (criterion 6's
# settings) that stalled at f = 57.126, with amplitude 3 left at zero
STALLED_GPL_CUMULATED = np.array([
    [0.985200286303101, 2.388908422733552, 4.1389242324224815, 5.986277753213519],
    [0.006247559673285714, 0.09131599845231617, 0.1729940405869579, 0.6472828167902052],
    [1.262177448353619e-29, 0.00957438742045481, 0.015706834144588094, 0.015706834144588094],
    [3.804023833007412e-15, 0.007362760874120113, 0.020825634929265452, 0.023277561470038278],
    [0.0020429073268486394, 0.002065592423657126, 0.006479783342855358, 0.016348929350224528]])


def _assert_first_order(pricer, fit, amplitudes):
    """The first-order conditions of min |e|^2 over the box [0, 1e4], from
    the pricer's own Jacobian at the fit: along every increment, the
    gradient of f = |e|^2 is at most 1e-6 of 2 |J_j| max(|e|, 1) (of its
    largest possible value, 2 |J_j| |e|, while |e| > 1), except that at a
    bound it may point out of the box."""
    jac = pricer.jacobian(fit.schedule, amplitudes).reshape(len(fit.errors), -1)
    gradient, x = 2.0 * jac.T @ fit.errors, fit.increments.ravel()
    gradient[x <= 0.0] = np.minimum(gradient[x <= 0.0], 0.0)
    gradient[x >= _MAX_INCREMENT] = np.maximum(gradient[x >= _MAX_INCREMENT], 0.0)
    # the fit tests a Jacobian that may come from another tangent pass,
    # equal to about 1e-12
    bound = 1e-6 * 2.0 * max(np.linalg.norm(fit.errors), 1.0) * np.linalg.norm(jac, axis=0)
    assert np.all(np.abs(gradient) <= bound * (1.0 + 1e-9)), (gradient, bound)


class TestGreedyCalibrate:
    def test_recovers_synthetic_two_mode_schedule(self):
        pool = PoolSpec(names=24)
        curve = flat_curve()
        knots = (2.2246575342465754, 4.219178082191781)
        true = make_schedule(GPL, (1, 5), knots, [(0.25, 0.55), (0.02, 0.05)])
        panel = synthetic_panel(pool, curve, true)
        result = greedy_calibrate(panel, curve, pool, GPL, max_modes=3,
                                  objective_threshold=0.02, scan_budget=500,
                                  refine_budget=2500, polish_budget=2000,
                                  seed=11, n_jobs=2)
        assert result.objective < 0.02
        assert result.schedule.amplitudes == (1, 5)
        fitted = np.asarray(result.schedule.cumulated)
        np.testing.assert_allclose(fitted, np.asarray(true.cumulated), rtol=0.01)

    def test_single_mode_run_has_no_scan(self):
        pool = PoolSpec(names=20)
        curve = flat_curve()
        panel = QuotePanel("x", VAL, (IndexQuote(MAT_4Y, 40.0, 0.5),), ())
        result = greedy_calibrate(panel, curve, pool, GPL, max_modes=1,
                                  refine_budget=500, polish_budget=0, seed=1,
                                  n_jobs=1)
        assert len(result.iterations) == 1
        assert result.schedule.amplitudes == (1,)
        assert result.objective < 0.1

    def test_deterministic_given_seed(self):
        pool = PoolSpec(names=16)
        curve = flat_curve()
        knots = (2.2246575342465754,)
        true = make_schedule(GPL, (1, 4), knots, [(0.30,), (0.05,)])
        panel = synthetic_panel_single(pool, curve, true)
        # the search draws no random numbers: another seed is only recorded
        runs = [greedy_calibrate(panel, curve, pool, GPL, max_modes=2,
                                 scan_budget=100, refine_budget=500,
                                 polish_budget=400, seed=seed, n_jobs=j)
                for j, seed in ((1, 5), (2, 5), (1, 6))]
        for run in runs[1:]:
            assert run.schedule == runs[0].schedule
            assert run.objective == runs[0].objective
            assert run.iterations == runs[0].iterations
        assert [run.seed for run in runs] == [5, 5, 6]

    def test_objective_non_increasing_across_steps(self):
        pool = PoolSpec(names=16)
        curve = flat_curve()
        knots = (2.2246575342465754,)
        true = make_schedule(GPL, (1, 4), knots, [(0.30,), (0.05,)])
        panel = synthetic_panel_single(pool, curve, true)
        result = greedy_calibrate(panel, curve, pool, GPL, max_modes=3,
                                  scan_budget=100, refine_budget=500,
                                  polish_budget=0, seed=5, n_jobs=2)
        objectives = [it["objective"] for it in result.iterations]
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_result_document_round_trips(self):
        pool = PoolSpec(names=16)
        curve = flat_curve()
        panel = QuotePanel("x", VAL, (IndexQuote(MAT_4Y, 25.0, 0.5),), ())
        result = greedy_calibrate(panel, curve, pool, GPL, max_modes=1,
                                  refine_budget=300, polish_budget=0, seed=2,
                                  n_jobs=1)
        import json
        doc = json.loads(result.to_json())
        assert doc["model"] == "gpl"
        reloaded = IntensitySchedule.from_dict(doc)
        assert reloaded == result.schedule
        assert doc["seed"] == 2
        assert "settings" in doc and doc["settings"]["max_modes"] == 1

    # the benchmark's budgets on the unjittered shipped panels, seed 7,
    # serially: the amplitudes chosen, the evaluations charged and the
    # objective each calibration ends on
    PINNED = {("itraxx", GPL): ((1, 11), 702, 1291.8084884095256),
              ("itraxx", GPCL): ((1, 12), 702, 1679.7439069084398),
              ("cdx", GPL): ((1, 36), 638, 440.73643064215537),
              ("cdx", GPCL): ((1, 37), 652, 438.5367085722679)}

    @pytest.mark.parametrize("index, model", sorted(PINNED))
    def test_benchmark_budget_calibrations_are_pinned(self, request, pool, curve, index,
                                                      model):
        panel = request.getfixturevalue(f"{index}_panel")
        result = greedy_calibrate(panel, curve, pool, model, max_modes=2, scan_budget=12,
                                  refine_budget=200, polish_budget=200, seed=7, n_jobs=1)
        amplitudes, evaluations, objective = self.PINNED[index, model]
        assert result.schedule.amplitudes == amplitudes
        assert result.n_evaluations == evaluations
        assert result.objective == pytest.approx(objective, rel=1e-12, abs=0.0)

    def test_scan_pool_built_once_per_calibration(self, monkeypatch):
        pools = []

        class InProcessPool:
            """Stands in for multiprocessing.Pool and records its use."""

            def __init__(self, processes):
                self.processes = processes
                self.maps, self.chunksizes = 0, []
                self.terminated = False
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.terminate()

            def map(self, func, tasks, chunksize=None):
                self.maps += 1
                self.chunksizes.append(chunksize)
                return [func(task) for task in tasks]

            def terminate(self):
                self.terminated = True

            def join(self):
                assert self.terminated

        monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        pool = PoolSpec(names=16)
        curve = flat_curve()
        true = make_schedule(GPL, (1, 4), (2.2246575342465754,), [(0.30,), (0.05,)])
        panel = synthetic_panel_single(pool, curve, true)
        result = greedy_calibrate(panel, curve, pool, GPL, max_modes=3,
                                  objective_threshold=0.0, scan_budget=30,
                                  refine_budget=300, polish_budget=0, seed=5, n_jobs=2)
        assert len(result.iterations) == 3  # two greedy steps, each with a scan
        assert len(pools) == 1
        assert pools[0].maps == 2
        # one task per worker at a time, and no more workers than tasks
        assert pools[0].chunksizes == [1, 1]
        assert pools[0].processes == 2
        assert pools[0].terminated
        # with more workers asked for than there are tasks
        pools.clear()
        greedy_calibrate(panel, curve, pool, GPL, max_modes=2, objective_threshold=0.0,
                         scan_budget=30, refine_budget=300, polish_budget=0, n_jobs=64)
        assert pools[0].processes == min(calibrator_module._SCAN_FITS, 15)

    def test_serial_scans_in_threads_match_sequential_runs(self, pool, curve, itraxx_panel,
                                                           cdx_panel):
        panels = (itraxx_panel, cdx_panel)

        def calibrate(panel):
            return greedy_calibrate(panel, curve, pool, GPL, max_modes=2, scan_budget=12,
                                    refine_budget=60, polish_budget=0, seed=3, n_jobs=1)

        sequential = [calibrate(panel) for panel in panels]
        with concurrent.futures.ThreadPoolExecutor(2) as threads:
            threaded = list(threads.map(calibrate, panels))
        for alone, together in zip(sequential, threaded):
            assert len(alone.iterations) == 2  # one greedy step with a scan
            assert together.iterations == alone.iterations
            assert together.objective == alone.objective

    @pytest.mark.parametrize("budget, bad", [
        ("max_modes", 0), ("max_modes", 2.5), ("max_modes", True),
        ("scan_budget", 0), ("scan_budget", -3), ("scan_budget", 12.0),
        ("refine_budget", 0), ("refine_budget", "200"),
        ("polish_budget", -5), ("polish_budget", 0.5)])
    def test_budget_that_is_no_count_rejected_up_front(self, curve, monkeypatch, budget, bad):
        # the check comes before any pricing, with the parameter's name
        def no_pricer(*args):
            raise AssertionError("pricer built before the budgets were checked")

        monkeypatch.setattr(calibrator_module, "PanelPricer", no_pricer)
        panel = QuotePanel("x", VAL, (IndexQuote(MAT_4Y, 25.0, 0.5),), ())
        with pytest.raises(CalibrationError, match=f"{budget} must be an integer of at least"):
            greedy_calibrate(panel, curve, PoolSpec(names=10), GPL, n_jobs=1, **{budget: bad})

    def test_steps_logged_at_info(self, caplog):
        pool = PoolSpec(names=16)
        curve = flat_curve()
        true = make_schedule(GPL, (1, 4), (2.2246575342465754,), [(0.30,), (0.05,)])
        panel = synthetic_panel_single(pool, curve, true)
        settings = dict(max_modes=3, objective_threshold=0.0, scan_budget=7,
                        refine_budget=40, polish_budget=0, n_jobs=1)
        # silent by default
        result = greedy_calibrate(panel, curve, pool, GPL, **settings)
        assert not caplog.records
        caplog.set_level(logging.INFO, logger="clusterloss.calibrator")
        assert greedy_calibrate(panel, curve, pool, GPL, **settings).iterations == \
            result.iterations
        messages = [r.getMessage() for r in caplog.records]
        assert [r.name for r in caplog.records] == ["clusterloss.calibrator"] * 3
        assert messages[0].startswith("step 1: fitted amplitude 1; objective ")
        for it, message in zip(result.iterations[1:], messages[1:]):
            assert message.startswith(
                f"step {it['step']}: ranked {it['ranked']} candidates, fitted "
                f"{len(it['candidates'])}; chose amplitude {it['chosen']} (score rank ")
            assert f"; objective {it['objective']:.6g}; " in message
            assert message.endswith(" s") and " evaluations; " in message

    @pytest.mark.parametrize("n_jobs", [0, -1, 2.5, True])
    def test_worker_count_below_one_rejected(self, curve, n_jobs):
        panel = QuotePanel("x", VAL, (IndexQuote(MAT_4Y, 25.0, 0.5),), ())
        with pytest.raises(CalibrationError, match="n_jobs must be an integer of at least 1"):
            greedy_calibrate(panel, curve, PoolSpec(names=10), GPL, n_jobs=n_jobs)

    def test_unknown_model_rejected(self, curve):
        panel = QuotePanel("x", VAL, (IndexQuote(MAT_4Y, 25.0, 0.5),), ())
        with pytest.raises(CalibrationError):
            greedy_calibrate(panel, curve, PoolSpec(names=10), "itl")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("setting", ["objective_threshold"])
    def test_non_finite_settings_rejected(self, curve, setting, bad):
        # a nan threshold would stop after step 1
        panel = QuotePanel("x", VAL, (IndexQuote(MAT_4Y, 25.0, 0.5),), ())
        with pytest.raises(CalibrationError, match=setting):
            greedy_calibrate(panel, curve, PoolSpec(names=10), GPL, **{setting: bad})


class TestRankedScan:
    """A scan scores every unused amplitude on the shared tangent pass and
    fits only the best ``_SCAN_FITS``. On the shipped iTraxx panel at the
    benchmark's budgets, the full scan's winner is among them, so the
    ranked scan's result is the full scan's, bit for bit."""

    BUDGETS = dict(max_modes=2, scan_budget=12, refine_budget=200, polish_budget=200,
                   n_jobs=1)

    def _calibrate(self, monkeypatch, panel, curve, pool, model, fits):
        monkeypatch.setattr(calibrator_module, "_SCAN_FITS", fits)
        scanned = {}

        def recording(task):
            out = _scan_candidate(task)
            scanned[out[0]] = out
            return out

        monkeypatch.setattr(calibrator_module, "_scan_candidate", recording)
        return greedy_calibrate(panel, curve, pool, model, **self.BUDGETS), scanned

    @pytest.mark.parametrize("model", [GPCL, GPL])
    def test_score_is_the_fits_first_step(self, monkeypatch, pool, curve, itraxx_panel,
                                          model):
        # the scan steps the candidates' stacked starts with the fit's own
        # solver: each candidate's trial in the scan is its fit's first trial,
        # bit for bit. Tasks come in the order of |e + J d|^2 for that trial
        # d, ties going to the lower amplitude; the candidates left unfitted
        # are charged their columns all the same
        pricer = PanelPricer(itraxx_panel, curve, pool)
        amplitudes, candidates = [1, 30], (2, 3, 17, 31, 60, 125)
        incumbent = fit_intensities(pricer, model, amplitudes, np.full(8, 0.05),
                                    max_evaluations=30)
        trials, damped_steps = [], calibrator_module._damped_steps

        def recording(*args):
            trials.append(damped_steps(*args))
            return trials[-1]

        monkeypatch.setattr(calibrator_module, "_damped_steps", recording)
        monkeypatch.setattr(calibrator_module, "_SCAN_FITS", len(candidates))
        tasks, spent = _scan_tasks(pricer, model, amplitudes, incumbent, candidates, 20)
        assert spent == 8 and len(tasks) == len(candidates)
        (scanned,) = trials
        assert scanned.shape == (len(candidates), 12)
        scores = {}
        for task in tasks:
            _, _, new_amplitudes, x0, candidate, budget, start = task
            trials.clear()
            fit_intensities(pricer, model, new_amplitudes, x0, max_evaluations=budget,
                            start=start)
            trial = scanned[candidates.index(candidate)]
            np.testing.assert_array_equal(trials[0][0], trial)
            r = start[0] + start[1] @ (trial - x0)
            scores[candidate] = r @ r
        assert [task[4] for task in tasks] == sorted(candidates,
                                                     key=lambda c: (scores[c], c))
        monkeypatch.setattr(calibrator_module, "_SCAN_FITS", 4)
        fitted, spent = _scan_tasks(pricer, model, amplitudes, incumbent, candidates, 20)
        assert [task[4] for task in fitted] == [task[4] for task in tasks[:4]]
        assert spent == 8 + 2 * 4

    @pytest.mark.parametrize("panel_name", ["itraxx", "cdx"])
    @pytest.mark.parametrize("model", [GPCL, GPL])
    def test_stacked_scores_are_the_loops(self, request, pool, curve, model, panel_name):
        # the candidates' first steps, solved together by the stacked
        # _stepping and _damped_steps, against each solved alone on the
        # sub-system of its free increments (the reference), at an
        # incumbent where some candidates' steps stop on a bound
        pricer = PanelPricer(request.getfixturevalue(f"{panel_name}_panel"), curve, pool)
        amplitudes = [1, 30]
        incumbent = fit_intensities(pricer, model, amplitudes, np.full(8, 0.05),
                                    max_evaluations=30)
        candidates = [a for a in range(1, pool.names + 1) if a not in amplitudes]
        shared = pricer.jacobian(incumbent.schedule, range(1, pool.names + 1))
        e, starts, want, stopped = incumbent.errors, [], [], 0
        for candidate in candidates:
            # the candidate's own fit's columns, in amplitude order
            new_amplitudes = sorted(amplitudes + [candidate])
            j = shared[:, [a - 1 for a in new_amplitudes]].reshape(len(e), -1)
            x0 = np.insert(incumbent.increments, new_amplitudes.index(candidate), 0.0,
                           axis=0).ravel()
            starts.append((x0, j))
            stepping = free_stepping(x0, e, j)
            trial = x0 if stepping is None else free_damped_step(
                x0, e, j, stepping[0], calibrator_module._DAMPING * stepping[1])
            if stepping is not None:
                free = ~stepping[0]
                stopped += np.any(free & ((trial == 0.0) | (trial == _MAX_INCREMENT)))
            want.append((e + j @ (trial - x0)) @ (e + j @ (trial - x0)))
        x, jac = np.stack([x0 for x0, _ in starts]), np.stack([j for _, j in starts])
        gram, gradient, held, going, scale = calibrator_module._stepping(x, e, jac)
        trials = calibrator_module._damped_steps(x, gradient, gram,
                                                 calibrator_module._DAMPING * scale,
                                                 held | ~going[:, None])
        got = ((e + (jac @ (trials - x)[..., None])[..., 0]) ** 2).sum(axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert stopped > 0

    @pytest.mark.parametrize("model", [GPCL, GPL])
    def test_only_the_gpcl_scan_takes_the_adjoint(self, monkeypatch, pool, curve,
                                                  itraxx_panel, model):
        # the scan's all-amplitude gpcl Jacobian takes the adjoint pass; the
        # fits' Jacobians, of at most 8 tangent columns, and every gpl
        # request keep the forward passes
        passes = []
        for name in ("_series_adjoints", "_series_tangents", "_commuting_tangents"):
            original = getattr(loss_engine, name)

            def spy(*args, name=name, original=original):
                passes.append((name, len(args[4])))
                return original(*args)

            monkeypatch.setattr(loss_engine, name, spy)
        greedy_calibrate(itraxx_panel, curve, pool, model, **self.BUDGETS)
        scans = [p for p in passes if p[1] == pool.names]
        if model == GPL:
            assert {name for name, _ in passes} == {"_commuting_tangents"}
            assert scans == [("_commuting_tangents", pool.names)]
        else:
            assert scans == [("_series_adjoints", pool.names)]
            assert {p for p in passes if p[1] < pool.names} == {
                ("_commuting_tangents", 1), ("_series_tangents", 2)}

    @pytest.mark.parametrize("model", [GPCL, GPL])
    def test_ranked_scan_is_the_full_scan(self, monkeypatch, pool, curve, itraxx_panel, model):
        fits = calibrator_module._SCAN_FITS
        ranked, ranked_fits = self._calibrate(monkeypatch, itraxx_panel, curve, pool, model,
                                              fits)
        full, full_fits = self._calibrate(monkeypatch, itraxx_panel, curve, pool, model,
                                          pool.names)
        assert ranked.schedule == full.schedule
        np.testing.assert_array_equal(ranked.errors, full.errors)
        assert ranked.objective == full.objective
        assert ranked.warnings == full.warnings
        (first, step), (full_first, full_step) = ranked.iterations, full.iterations
        assert first == full_first
        assert step["ranked"] == full_step["ranked"] == pool.names - 1
        assert len(step["candidates"]) == fits
        assert len(full_step["candidates"]) == pool.names - 1
        assert (step["chosen"], step["objective"]) == (full_step["chosen"],
                                                       full_step["objective"])
        assert step["candidates"] == [c for c in full_step["candidates"]
                                      if c[0] in ranked_fits]
        # each fitted candidate's fit is its fit in the full scan
        assert len(ranked_fits) == fits
        for candidate, (_, objective, increments, evaluations) in ranked_fits.items():
            _, full_objective, full_increments, full_evaluations = full_fits[candidate]
            assert (objective, evaluations) == (full_objective, full_evaluations)
            np.testing.assert_array_equal(increments, full_increments)
        # the full scan charges the unfitted candidates' pricings besides;
        # both charge each candidate's columns of the shared tangent pass
        columns = len(full.schedule.knots)
        assert full.n_evaluations - ranked.n_evaluations == sum(
            full_fits[c][3] - columns for c in full_fits if c not in ranked_fits)


def synthetic_panel_single(pool, curve, schedule):
    """Single-maturity synthetic panel (index + three tranches)."""
    skeleton = QuotePanel(
        pool_name="synthetic", valuation_date=VAL,
        index_quotes=(IndexQuote(MAT_2Y, 1.0, 0.25),),
        tranche_quotes=(
            TrancheQuote(0.0, 0.05, MAT_2Y, 0.01, 0.0005, is_upfront=True),
            TrancheQuote(0.05, 0.15, MAT_2Y, 10.0, 0.5),
            TrancheQuote(0.15, 1.0, MAT_2Y, 10.0, 0.5)))
    pricer = PanelPricer(skeleton, curve, pool)
    values = pricer.model_values(schedule)
    index_quotes, tranche_quotes = [], []
    for ins, v in zip(pricer.instruments, values):
        if ins.kind == "index":
            index_quotes.append(IndexQuote(ins.maturity, float(v), 0.25))
        else:
            tranche_quotes.append(TrancheQuote(
                ins.attachment, ins.detachment, ins.maturity, float(v),
                0.0005 if ins.is_upfront else 0.5, is_upfront=ins.is_upfront))
    return QuotePanel("synthetic", VAL, tuple(index_quotes), tuple(tranche_quotes))
