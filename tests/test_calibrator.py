import concurrent.futures
import datetime as dt
import multiprocessing
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterloss.calibrator import (
    CalibrationError,
    PanelPricer,
    fit_intensities,
    greedy_calibrate,
    objective,
    weighted_error,
)
from clusterloss.fixtures import FIXTURE_VALUATION_DATE, quotes_path, schedule_path
from clusterloss import loss_engine
from clusterloss import pricer as pricer_module
from clusterloss.loss_engine import GPL, GPCL, IntensitySchedule, PoolSpec
from clusterloss.market_data import (
    DiscountCurve,
    IndexQuote,
    PaymentSchedule,
    QuotePanel,
    TrancheQuote,
    load_quotes,
)
from clusterloss.pricer import (
    LossGrid,
    TrancheDef,
    default_leg,
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
    def test_zero_at_mid(self):
        assert weighted_error(30.0, (30.0, 0.5)) == 0.0

    def test_one_width_above_mid(self):
        assert weighted_error(30.5, (30.0, 0.5)) == pytest.approx(1.0)

    def test_sign_preserved(self):
        assert weighted_error(466.3, (474.0, 4.0)) == pytest.approx(-1.925)

    def test_accepts_quote_objects(self):
        idx = IndexQuote(MAT_4Y, 30.0, 0.5)
        assert weighted_error(31.0, idx) == pytest.approx(2.0)
        trq = TrancheQuote(0.0, 0.03, MAT_4Y, 0.1975, 0.0025, is_upfront=True)
        assert weighted_error(0.2000, trq) == pytest.approx(1.0)

    def test_zero_width_rejected(self):
        with pytest.raises(CalibrationError):
            weighted_error(1.0, (1.0, 0.0))

    @pytest.mark.parametrize("width", [float("nan"), float("inf")])
    def test_non_finite_width_rejected(self, width):
        with pytest.raises(CalibrationError, match="finite"):
            weighted_error(1.0, (1.0, width))

    @given(st.floats(min_value=-50, max_value=50),
           st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_antisymmetric_around_mid(self, d, width):
        mid = 100.0
        up = weighted_error(mid + d, (mid, width))
        down = weighted_error(mid - d, (mid, width))
        assert up == pytest.approx(-down, abs=1e-12)


def synthetic_panel(pool, curve, schedule, widths=(0.25, 0.5, 0.0005)):
    """Panel whose mids are the model's own prices for ``schedule``."""
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
    index_quotes, tranche_quotes = [], []
    for ins, v in zip(pricer.instruments, values):
        if ins.kind == "index":
            index_quotes.append(IndexQuote(ins.maturity, float(v), index_w))
        else:
            tranche_quotes.append(TrancheQuote(
                ins.attachment, ins.detachment, ins.maturity, float(v),
                upfront_w if ins.is_upfront else tranche_w,
                is_upfront=ins.is_upfront))
    return QuotePanel("synthetic", VAL, tuple(index_quotes), tuple(tranche_quotes))


class TestObjective:
    def test_schedule_reproducing_mids_scores_zero(self):
        pool = PoolSpec(names=24)
        curve = flat_curve()
        true = make_schedule(GPL, (1, 5),
                             (2.2246575342465754, 4.219178082191781),
                             [(0.25, 0.55), (0.02, 0.05)])
        panel = synthetic_panel(pool, curve, true)
        f, eps = objective(true, panel, curve, pool)
        assert f == pytest.approx(0.0, abs=1e-18)
        assert np.all(eps == 0.0)

    def test_objective_is_sum_of_squared_errors(self, pool, curve, itraxx_panel,
                                                gpl_schedule):
        f, eps = objective(gpl_schedule, itraxx_panel, curve, pool)
        assert f == pytest.approx(float(eps @ eps), abs=1e-12)
        assert len(eps) == 25

    def test_intensity_bump_raises_expected_tranched_loss(self, pool, gpl_schedule):
        from clusterloss.loss_engine import gpl_distribution
        from clusterloss.pricer import TrancheDef, expected_tranched_loss
        bumped_rows = [list(r) for r in gpl_schedule.cumulated]
        for k in range(1, len(bumped_rows[0])):
            bumped_rows[0][k] += 0.05  # raise the single-name mode from knot 2 on
        bumped = gpl_schedule.with_cumulated(bumped_rows)
        t = gpl_schedule.knots[1]
        tranche = TrancheDef(0.0, 0.03)
        low = expected_tranched_loss(gpl_distribution(pool, gpl_schedule, t), tranche, pool)
        high = expected_tranched_loss(gpl_distribution(pool, bumped, t), tranche, pool)
        assert high > low

    def test_empty_panel_rejected(self, pool, curve):
        empty = QuotePanel("x", VAL, (), ())
        with pytest.raises(CalibrationError):
            PanelPricer(empty, curve, pool)


class TestPanelPricerLegs:
    @pytest.mark.parametrize("index", ["itraxx", "cdx"])
    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_model_values_match_leg_by_leg_pricing(self, pool, curve, index, model):
        panel = load_quotes(quotes_path(index), FIXTURE_VALUATION_DATE)
        with open(schedule_path(model, index)) as fh:
            schedule = IntensitySchedule.from_json(fh.read())
        pricer = PanelPricer(panel, curve, pool)
        grid = LossGrid.compute(pool, schedule, pricer.grid_times)
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
    """Each PanelPricer keeps a bounded memo of the kernel's per-knot-interval
    results; a memo hit must give the bits of a fresh solve."""

    @pytest.fixture
    def spy(self, monkeypatch):
        """Every kernel call the pricer makes, checked against the kernel
        without a memo; counts the knot intervals actually solved."""
        calls = {"calls": 0, "solved": 0}
        original = pricer_module.distribution_term_structure
        solve = loss_engine._interval_rows

        def counting(*args, **kwargs):
            calls["solved"] += 1
            return solve(*args, **kwargs)

        def checked(pool, schedule, times, memo=None):
            assert memo is not None
            out = original(pool, schedule, times, memo=memo)
            solved = calls["solved"]
            np.testing.assert_array_equal(out, original(pool, schedule, times))
            calls["solved"] = solved
            calls["calls"] += 1
            return out

        monkeypatch.setattr(pricer_module, "distribution_term_structure", checked)
        monkeypatch.setattr(loss_engine, "_interval_rows", counting)
        return calls

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

    def test_entry_count_never_exceeds_the_bound(self, pool, curve, itraxx_panel,
                                                 monkeypatch):
        pricer = PanelPricer(itraxx_panel, curve, pool)
        sizes = []
        put = loss_engine.KnotMemo.put

        def recording(memo, key, value):
            put(memo, key, value)
            sizes.append(len(memo))

        monkeypatch.setattr(loss_engine.KnotMemo, "put", recording)
        base = _load(GPCL)
        for n in range(3 * loss_engine._MEMO_ENTRIES):
            pricer.model_values(base.with_cumulated(
                np.asarray(base.cumulated) * (1.0 + 1e-3 * n)))
        assert max(sizes) == loss_engine._MEMO_ENTRIES
        assert len(pricer._memo) == loss_engine._MEMO_ENTRIES

    def test_pickled_and_shared_pricers_agree(self, pool, curve, itraxx_panel):
        base = _load(GPCL)
        schedules = [base] + [_bumped(base, j, k, 0.03)
                              for j in range(base.n_modes) for k in range(len(base.knots))]
        pricer = PanelPricer(itraxx_panel, curve, pool)
        expected = [PanelPricer(itraxx_panel, curve, pool).model_values(s) for s in schedules]
        for s in schedules[:5]:
            pricer.model_values(s)  # a copy must not carry the memo over
        restored = pickle.loads(pickle.dumps(pricer))
        assert len(restored._memo) == 0
        for s, values in zip(schedules, expected):
            np.testing.assert_array_equal(restored.model_values(s), values)
        with concurrent.futures.ThreadPoolExecutor(4) as threads:
            for _ in range(3):
                shared = list(threads.map(pricer.model_values, schedules))
                for got, values in zip(shared, expected):
                    np.testing.assert_array_equal(got, values)


class TestSubsetErrors:
    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_each_maturity_matches_the_full_errors(self, pool, curve, itraxx_panel, model):
        schedule = _load(model)
        pricer = PanelPricer(itraxx_panel, curve, pool)
        fresh = PanelPricer(itraxx_panel, curve, pool)
        full_values, full_errors = fresh.model_values(schedule), fresh.errors(schedule)
        masks = pricer.maturity_masks + [pricer.maturity_masks[0] | pricer.maturity_masks[2]]
        for mask in masks:
            values = pricer.model_values(schedule, subset=mask)
            np.testing.assert_allclose(values, full_values[mask], rtol=1e-13, atol=0.0)
            # an error is model minus mid over the width, so near zero it
            # keeps the quote's absolute rounding: 1e-13 widths at least
            got = pricer.errors(schedule, subset=mask)
            assert got.shape == (mask.sum(),)
            np.testing.assert_allclose(got, full_errors[mask], rtol=1e-13, atol=1e-13)

    def test_solves_only_through_the_latest_maturity(self, pool, curve, itraxx_panel,
                                                     monkeypatch):
        seen = []
        original = pricer_module.distribution_term_structure

        def recording(pool, schedule, times, memo=None):
            seen.append(times[-1])
            return original(pool, schedule, times, memo=memo)

        monkeypatch.setattr(pricer_module, "distribution_term_structure", recording)
        pricer = PanelPricer(itraxx_panel, curve, pool)
        for knot, mask in zip(pricer.knots, pricer.maturity_masks):
            pricer.errors(_load(GPL), subset=mask)
            assert seen[-1] == pytest.approx(knot, abs=1e-12)

    @pytest.mark.parametrize("shift", [0.1, 0.001])
    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_subset_then_full_matches_a_fresh_pricer(self, pool, curve, itraxx_panel,
                                                     model, shift):
        # knots just after the maturities: a subset's last interval ends
        # inside a knot interval, where the full grid's does not; 0.1 y on
        # holds grid times, 0.001 y on holds none
        base = _load(model)
        schedule = make_schedule(model, base.amplitudes, [t + shift for t in base.knots],
                                 base.cumulated)
        pricer = PanelPricer(itraxx_panel, curve, pool)
        for mask in pricer.maturity_masks:
            pricer.errors(schedule, subset=mask)
            np.testing.assert_array_equal(
                pricer.errors(schedule),
                PanelPricer(itraxx_panel, curve, pool).errors(schedule))

    def test_mask_of_wrong_length_rejected(self, pool, curve, itraxx_panel):
        pricer = PanelPricer(itraxx_panel, curve, pool)
        with pytest.raises(CalibrationError):
            pricer.model_values(_load(GPL), subset=np.ones(3, dtype=bool))


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

        fit = fit_intensities(pricer, GPL, (1,), np.array([0.1]),
                              max_evaluations=600, seed=3)
        assert abs(fit.errors[0]) < 0.05
        fitted = fit.schedule.cumulated[0][0]
        assert fitted == pytest.approx(bisected, rel=5e-3)

    def test_refit_from_solution_is_fixed_point(self):
        pool = PoolSpec(names=20)
        curve = flat_curve()
        panel = QuotePanel("x", VAL, (IndexQuote(MAT_4Y, 40.0, 0.5),), ())
        pricer = PanelPricer(panel, curve, pool)
        first = fit_intensities(pricer, GPL, (1,), np.array([0.1]),
                                max_evaluations=600, seed=3)
        again = fit_intensities(pricer, GPL, (1,), first.increments.ravel(),
                                max_evaluations=600, seed=4)
        assert again.objective <= first.objective + 1e-15
        assert abs(again.objective - first.objective) < 1e-8

    def test_budget_exhaustion_warns(self, pool, curve, itraxx_panel):
        pricer = PanelPricer(itraxx_panel, curve, pool)
        fit = fit_intensities(pricer, GPL, (1,), np.full(4, 0.1),
                              max_evaluations=10, seed=0)
        assert not fit.converged
        assert "budget" in fit.warning

    def test_wrong_parameter_count_rejected(self, pool, curve, itraxx_panel):
        pricer = PanelPricer(itraxx_panel, curve, pool)
        with pytest.raises(CalibrationError):
            fit_intensities(pricer, GPL, (1, 3), np.array([0.1, 0.1]))


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
        runs = [greedy_calibrate(panel, curve, pool, GPL, max_modes=2,
                                 scan_budget=100, refine_budget=500,
                                 polish_budget=400, seed=5, n_jobs=j)
                for j in (1, 2)]
        assert runs[0].schedule == runs[1].schedule
        assert runs[0].objective == runs[1].objective

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

    def test_scan_pool_built_once_per_calibration(self, monkeypatch):
        pools = []

        class InProcessPool:
            """Stands in for multiprocessing.Pool and records its use."""

            def __init__(self, processes, initializer, initargs):
                self.maps = 0
                self.terminated = False
                pools.append(self)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.terminate()

            def map(self, func, tasks, chunksize=1):
                self.maps += 1
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
        assert pools[0].terminated

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

    def test_unknown_model_rejected(self, curve):
        panel = QuotePanel("x", VAL, (IndexQuote(MAT_4Y, 25.0, 0.5),), ())
        with pytest.raises(CalibrationError):
            greedy_calibrate(panel, curve, PoolSpec(names=10), "itl")


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
