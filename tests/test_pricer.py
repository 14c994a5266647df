import dataclasses
import datetime as dt
import math
import pickle

import numpy as np
import pytest
from scipy.integrate import quad

from clusterloss.loss_engine import (
    GPL,
    GPCL,
    IntensitySchedule,
    LossDistribution,
    LossEngineError,
    PoolSpec,
    distribution_term_structure,
)
from clusterloss import loss_engine
from clusterloss import pricer as pricer_module
from clusterloss.fixtures import schedule_path
from clusterloss.market_data import (
    DAYS_PER_YEAR,
    DiscountCurve,
    IndexQuote,
    MarketDataError,
    QuotePanel,
    TrancheQuote,
    quarterly_payment_dates,
    year_fraction,
)
from clusterloss.pricer import (
    PanelPricer,
    PricingError,
    TrancheDef,
    expected_tranched_loss,
    tranched_loss,
)

from reference_engines import (
    LegValues,
    PaymentSchedule,
    ReferenceGrid,
    default_leg,
    index_spread,
    pricing_times,
    tranche_legs,
    tranche_premium_leg,
    tranche_spread_or_upfront,
)

VAL = dt.date(2006, 10, 2)


def make_schedule(model, amplitudes, knots, cumulated):
    return IntensitySchedule(model=model, amplitudes=tuple(amplitudes),
                             knots=tuple(knots),
                             cumulated=tuple(tuple(row) for row in cumulated))


def flat_curve(rate):
    return DiscountCurve(VAL, (dt.date(2030, 1, 1),), (rate,))


def kernel_grid(pool, schedule, times):
    """The kernel's term structure as a grid for the reference legs."""
    return ReferenceGrid(pool, times, distribution_term_structure(pool, schedule, times))


def point_mass(count, names, t=1.0):
    probs = np.zeros(names + 1)
    probs[count] = 1.0
    return LossDistribution(time=t, probs=probs)


class TestTranchedLoss:
    def test_zero_below_attachment(self):
        tranche = TrancheDef(0.03, 0.06)
        assert tranched_loss(0.0, tranche) == 0.0
        assert tranched_loss(0.03, tranche) == 0.0

    def test_midpoint_is_half(self):
        tranche = TrancheDef(0.03, 0.06)
        assert tranched_loss(0.045, tranche) == pytest.approx(0.5)

    def test_linear_interpolation(self):
        assert tranched_loss(0.04, TrancheDef(0.03, 0.06)) == pytest.approx(1 / 3)

    def test_saturates_above_detachment(self):
        tranche = TrancheDef(0.03, 0.06)
        assert tranched_loss(0.06, tranche) == 1.0
        assert tranched_loss(0.9, tranche) == 1.0

    def test_domain_validation(self):
        tranche = TrancheDef(0.0, 0.5)
        with pytest.raises(PricingError):
            tranched_loss(-0.01, tranche)
        with pytest.raises(PricingError):
            tranched_loss(1.01, tranche)
        with pytest.raises(PricingError, match=r"\[0, 1\]"):
            tranched_loss(math.nan, tranche)
        with pytest.raises(PricingError):
            tranched_loss(np.array([0.01, math.nan]), tranche)

    def test_monotone_and_lipschitz(self):
        tranche = TrancheDef(0.1, 0.3)
        grid = np.linspace(0.0, 1.0, 201)
        values = tranched_loss(grid, tranche)
        diffs = np.diff(values)
        assert np.all(diffs >= 0.0)
        assert np.max(diffs) <= (grid[1] - grid[0]) / tranche.thickness + 1e-12

    def test_tranche_validation(self):
        with pytest.raises(PricingError):
            TrancheDef(0.5, 0.5)
        with pytest.raises(PricingError):
            TrancheDef(0.6, 0.3)


class TestExpectedTranchedLoss:
    def test_no_defaults_no_loss(self, pool):
        assert expected_tranched_loss(point_mass(0, 125), TrancheDef(0, 0.03), pool) == 0.0

    def test_full_default_senior_tranche(self, pool):
        # total loss is 60% of notional; the 22-100 tranche absorbs 38/78 of it
        value = expected_tranched_loss(point_mass(125, 125), TrancheDef(0.22, 1.0), pool)
        assert value == pytest.approx((0.6 - 0.22) / 0.78)

    def test_tranche_additivity(self, pool, gpcl_schedule):
        from clusterloss.loss_engine import loss_distribution
        edges = (0.0, 0.03, 0.06, 0.09, 0.12, 0.22, 1.0)
        for t in (2.0, 7.0):
            dist = loss_distribution(pool, gpcl_schedule, t)
            total = sum((b - a) * expected_tranched_loss(dist, TrancheDef(a, b), pool)
                        for a, b in zip(edges, edges[1:]))
            pool_loss = 0.6 * dist.expected_count() / 125
            assert total == pytest.approx(pool_loss, abs=1e-10)

    def test_monotone_in_maturity(self, pool, gpl_schedule):
        from clusterloss.loss_engine import loss_distribution
        tranche = TrancheDef(0.03, 0.06)
        values = [expected_tranched_loss(loss_distribution(pool, gpl_schedule, t),
                                         tranche, pool)
                  for t in (1.0, 3.0, 6.0, 10.0)]
        assert values == sorted(values)

    def test_support_mismatch_rejected(self, pool):
        with pytest.raises(PricingError):
            expected_tranched_loss(point_mass(3, 10), TrancheDef(0, 0.5), pool)


class TestLegIntegrals:
    def test_zero_schedule_has_zero_default_leg(self, curve):
        pool = PoolSpec(names=10)
        sched = make_schedule(GPCL, (1,), (5.0,), [(0.0,)])
        pay = PaymentSchedule.from_times(np.arange(0.25, 5.01, 0.25))
        grid = kernel_grid(pool, sched, pricing_times(pay))
        assert default_leg(grid, TrancheDef(0, 0.03), curve, 5.0) == 0.0

    def test_flat_unit_discount_telescopes_to_terminal_loss(self):
        pool = PoolSpec(names=10)
        sched = make_schedule(GPCL, (1, 2), (3.0,), [(1.0,), (0.4,)])
        pay = PaymentSchedule.from_times(np.arange(0.25, 3.01, 0.25))
        grid = kernel_grid(pool, sched, pricing_times(pay))
        tranche = TrancheDef(0.0, 0.4)
        leg = default_leg(grid, tranche, flat_curve(0.0), 3.0)
        terminal = grid.expected_tranched_losses(tranche)[grid.index_of(3.0)]
        assert leg == pytest.approx(terminal, abs=1e-14)

    def test_grid_refinement_self_check(self, pool, gpcl_schedule, curve):
        # halving the refinement step moves the 10y default leg by < 0.1%
        pay = PaymentSchedule.quarterly(VAL, dt.date(2016, 12, 20))
        tranche = TrancheDef(0.03, 0.06)
        legs = {}
        for step in (30.0, 15.0):
            grid = kernel_grid(pool, gpcl_schedule, pricing_times(pay, step))
            legs[step] = default_leg(grid, tranche, curve, pay.maturity_time)
        assert abs(legs[15.0] - legs[30.0]) / legs[30.0] < 1e-3

    def test_premium_leg_without_losses_is_riskless_annuity(self, curve):
        pool = PoolSpec(names=10)
        sched = make_schedule(GPCL, (1,), (5.0,), [(0.0,)])
        pay = PaymentSchedule.from_times(np.arange(0.25, 5.01, 0.25))
        grid = kernel_grid(pool, sched, pricing_times(pay))
        leg = tranche_premium_leg(grid, TrancheDef(0, 0.03), curve, pay)
        riskless = float(np.sum(pay.year_fractions
                                * curve.discount_factor(np.asarray(pay.times))))
        assert leg == pytest.approx(riskless, abs=1e-12)

    def test_certain_wipeout_gives_zero_annuity(self, curve):
        pool = PoolSpec(names=4)
        probs = np.zeros((3, 5))
        probs[:, 4] = 1.0  # all names gone from the first instant
        grid = ReferenceGrid(pool, np.array([0.0, 0.5, 1.0]), probs)
        pay = PaymentSchedule.from_times([0.5, 1.0])
        annuity = tranche_premium_leg(grid, TrancheDef(0.0, 0.3), curve, pay)
        assert annuity == pytest.approx(0.0)
        legs = LegValues(default_leg_pv=0.1, premium_leg_pv_per_unit_spread=annuity)
        with pytest.raises(PricingError):
            tranche_spread_or_upfront(legs)


class TestQuoting:
    def test_zero_default_leg_means_zero_spread(self):
        legs = LegValues(0.0, 4.0)
        assert tranche_spread_or_upfront(legs) == 0.0

    def test_breakeven_division(self):
        legs = LegValues(0.03, 4.0)
        assert tranche_spread_or_upfront(legs) * 1e4 == pytest.approx(75.0)

    def test_equity_upfront_convention(self):
        legs = LegValues(0.55, 2.0)
        assert tranche_spread_or_upfront(legs, is_upfront=True) == pytest.approx(
            0.55 - 0.05 * 2.0)

    def test_upfront_pv_reduces_running_spread(self):
        legs = LegValues(0.05, 4.0, upfront_pv=0.01)
        assert tranche_spread_or_upfront(legs) == pytest.approx(0.01)

    def test_leg_values_validated(self):
        with pytest.raises(PricingError):
            LegValues(-0.1, 1.0)


class ScaledCurve:
    """Discount curve scaled by a constant factor (for invariance checks)."""

    def __init__(self, base, factor):
        self.base = base
        self.factor = factor

    def discount_factor(self, t):
        return self.factor * self.base.discount_factor(t)


class TestSpreadInvariance:
    def test_breakeven_invariant_under_curve_scaling(self, pool, gpl_schedule, curve):
        pay = PaymentSchedule.quarterly(VAL, dt.date(2011, 12, 20))
        grid = kernel_grid(pool, gpl_schedule, pricing_times(pay))
        tranche = TrancheDef(0.03, 0.06)
        base_legs = tranche_legs(grid, tranche, curve, pay)
        scaled_legs = tranche_legs(grid, tranche, ScaledCurve(curve, 1.37), pay)
        s0 = tranche_spread_or_upfront(base_legs)
        s1 = tranche_spread_or_upfront(scaled_legs)
        assert abs(s1 - s0) < 1e-12
        i0 = index_spread(grid, curve, pay)
        i1 = index_spread(grid, ScaledCurve(curve, 1.37), pay)
        assert abs(i1 - i0) < 1e-12


class TestIndexSpread:
    def test_zero_schedule_prices_at_zero(self, curve):
        pool = PoolSpec(names=10)
        sched = make_schedule(GPL, (1,), (5.0,), [(0.0,)])
        pay = PaymentSchedule.from_times(np.arange(0.25, 5.01, 0.25))
        grid = kernel_grid(pool, sched, pricing_times(pay))
        assert index_spread(grid, curve, pay) == 0.0

    def test_single_name_pool_recovers_par_cds_spread(self):
        # one name, zero recovery, constant hazard: quarterly par spread
        # lam * integral D(t) exp(-lam t) dt / sum_i delta_i D(T_i) exp(-lam T_i)
        lam, rate, maturity = 0.02, 0.03, 5.0
        pool = PoolSpec(names=1, recovery=0.0)
        sched = make_schedule(GPL, (1,), (maturity,), [(lam * maturity,)])
        pay = PaymentSchedule.from_times(np.arange(0.25, maturity + 1e-9, 0.25))
        grid = kernel_grid(pool, sched, pricing_times(pay, grid_step_days=7.0))
        model = index_spread(grid, flat_curve(rate), pay)

        numerator = quad(lambda t: lam * math.exp(-(lam + rate) * t), 0, maturity,
                         epsabs=1e-14)[0]
        denominator = sum(0.25 * math.exp(-(rate + lam) * t) for t in pay.times)
        closed_form = numerator / denominator
        assert model == pytest.approx(closed_form, rel=2e-4)

    def test_capped_poisson_is_true_default_indicator_here(self):
        # sanity for the single-name setup: P(count=1) = 1 - exp(-lam t)
        lam = 0.02
        pool = PoolSpec(names=1, recovery=0.0)
        sched = make_schedule(GPL, (1,), (5.0,), [(lam * 5.0,)])
        from clusterloss.loss_engine import loss_distribution
        dist = loss_distribution(pool, sched, 2.0)
        assert dist.probs[1] == pytest.approx(1 - math.exp(-lam * 2.0), abs=1e-12)


class TestLossGrid:
    """The grid of distributions the reference legs read, and the pricing times."""

    def test_index_of_missing_time(self, pool, gpl_schedule):
        grid = kernel_grid(pool, gpl_schedule, np.array([0.0, 1.0, 2.0]))
        assert grid.index_of(1.0) == 1
        with pytest.raises(PricingError):
            grid.index_of(1.5)

    def test_shape_validation(self, pool):
        with pytest.raises(PricingError):
            ReferenceGrid(pool, np.array([0.0, 1.0]), np.zeros((2, 5)))

    def test_pricing_times_include_payments_and_maturity(self):
        pay = PaymentSchedule.from_times([0.25, 0.5, 0.75, 1.0])
        times = pricing_times(pay, grid_step_days=30.0)
        assert times[0] == 0.0
        for t in pay.times:
            assert np.min(np.abs(times - t)) == 0.0


class TestPricingGrid:
    """``PanelPricer``'s grid: whole days after the trade date, with every
    payment date on it."""

    @pytest.mark.parametrize("step", [1.0, 7.5, 30.0, 45.5])
    @pytest.mark.parametrize("index", ["itraxx", "cdx"])
    def test_whole_days_with_payment_dates(self, index, step, pool, curve, itraxx_panel,
                                           cdx_panel):
        panel = itraxx_panel if index == "itraxx" else cdx_panel
        pricer = PanelPricer(panel, curve, pool, grid_step_days=step)
        days = pricer.grid_times * DAYS_PER_YEAR
        assert days[0] == 0.0
        np.testing.assert_allclose(days, np.rint(days), rtol=0.0, atol=1e-9)
        assert np.diff(days).min() > 1.0 - 1e-9
        for maturity in panel.maturities:
            pay_times = [year_fraction(panel.valuation_date, d)
                         for d in quarterly_payment_dates(panel.valuation_date, maturity)]
            assert np.isin(pay_times, pricer.grid_times).all(), maturity
        assert pricer.grid_times[-1] == year_fraction(panel.valuation_date,
                                                      panel.maturities[-1])
        if step == 30.0:
            assert len(pricer.grid_times) == 165

    @pytest.mark.parametrize("step", [0.0, 0.5, math.nan, math.inf])
    def test_grid_step_below_a_day_rejected(self, step, pool, curve, itraxx_panel):
        with pytest.raises(PricingError, match="finite"):
            PanelPricer(itraxx_panel, curve, pool, grid_step_days=step)


class TestPanelLayout:
    """Instrument order and payout columns of ``PanelPricer``: index quotes
    by maturity, then tranches by (attachment, detachment, maturity), with
    one payout column per distinct tranche slice."""

    MAT_3Y, MAT_5Y = dt.date(2009, 12, 20), dt.date(2011, 12, 20)
    # unsorted, and the 3-6 slice is quoted at two maturities
    TRANCHES = (TrancheQuote(0.06, 0.09, MAT_5Y, 50.0, 2.0),
                TrancheQuote(0.03, 0.06, MAT_5Y, 120.0, 3.0),
                TrancheQuote(0.0, 0.03, MAT_3Y, 0.2, 0.01, is_upfront=True),
                TrancheQuote(0.03, 0.06, MAT_3Y, 80.0, 3.0))
    LABELS = ["0-3 20-Dec-09", "3-6 20-Dec-09", "3-6 20-Dec-11", "6-9 20-Dec-11"]

    @pytest.mark.parametrize("with_index", [True, False])
    def test_order_columns_and_values(self, with_index, pool, curve, gpcl_schedule):
        index = (IndexQuote(self.MAT_5Y, 30.0, 0.5), IndexQuote(self.MAT_3Y, 20.0, 0.5))
        panel = QuotePanel("x", VAL, index if with_index else (), self.TRANCHES)
        pricer = PanelPricer(panel, curve, pool)
        labels = (["index 20-Dec-09", "index 20-Dec-11"] if with_index else []) + self.LABELS
        assert [ins.label for ins in pricer.instruments] == labels
        assert pricer.payout_matrix.shape == (pool.names + 1, 2 + 3)
        # the kernel's distributions, priced leg by leg
        grid = kernel_grid(pool, gpcl_schedule, pricer.grid_times)
        expected = []
        for ins in pricer.instruments:
            payments = PaymentSchedule.quarterly(VAL, ins.maturity)
            if ins.kind == "index":
                expected.append(1e4 * index_spread(grid, curve, payments))
                continue
            legs = tranche_legs(grid, TrancheDef(ins.attachment, ins.detachment), curve,
                                payments)
            value = tranche_spread_or_upfront(legs, ins.is_upfront, ins.running)
            expected.append(value if ins.is_upfront else 1e4 * value)
        np.testing.assert_allclose(pricer.model_values(gpcl_schedule), expected,
                                   rtol=1e-12, atol=0.0)


class TestJacobian:
    """``PanelPricer.jacobian`` against differences of ``errors``."""

    @staticmethod
    def differences(pricer, schedule, j, k, h):
        """Central differences of the errors in the rise of mode j over knot
        interval k; second-order one-sided ones where the rise is zero, since
        the derivative there is taken upwards."""
        def errors(step):
            cumulated = np.array(schedule.cumulated)
            cumulated[j, k:] += step
            return pricer.errors(schedule.with_cumulated(cumulated))

        rise = schedule.cumulated[j, k] - (schedule.cumulated[j, k - 1] if k else 0.0)
        if rise > 2 * h:
            return (errors(h) - errors(-h)) / (2 * h)
        return (-3 * errors(0.0) + 4 * errors(h) - errors(2 * h)) / (2 * h)

    @pytest.mark.parametrize("index", ["itraxx", "cdx"])
    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_matches_differences_on_the_shipped_schedules(self, model, index, pool, curve,
                                                          itraxx_panel, cdx_panel):
        with open(schedule_path(model, index)) as fh:
            shipped = IntensitySchedule.from_json(fh.read())
        panel = itraxx_panel if index == "itraxx" else cdx_panel
        pricer = PanelPricer(panel, curve, pool)
        # and the row of amplitude 1 alone, whose gpcl tangents take the closed form
        single = IntensitySchedule(model, (1,), shipped.knots, shipped.cumulated[:1])
        for schedule in (shipped, single):
            jacobian = pricer.jacobian(schedule, schedule.amplitudes)
            assert jacobian.shape == (len(pricer.instruments), schedule.n_modes, 4)
            for j in range(schedule.n_modes):
                for k in range(4):
                    expected = self.differences(pricer, schedule, j, k, 1e-5)
                    np.testing.assert_allclose(jacobian[:, j, k], expected, rtol=1e-5,
                                               atol=1e-5 * np.abs(expected).max())

    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_new_amplitude_is_taken_at_zero(self, model, pool, curve, itraxx_panel):
        with open(schedule_path(model, "itraxx")) as fh:
            schedule = IntensitySchedule.from_json(fh.read())
        pricer = PanelPricer(itraxx_panel, curve, pool)
        jacobian = pricer.jacobian(schedule, (2,) + schedule.amplitudes)
        own = pricer.jacobian(schedule, schedule.amplitudes)
        np.testing.assert_allclose(jacobian[:, 1:], own, rtol=1e-12,
                                   atol=1e-12 * np.abs(own).max())
        wider = IntensitySchedule(model, (1, 2) + schedule.amplitudes[1:], schedule.knots,
                                  np.insert(schedule.cumulated, 1, 0.0, axis=0))
        np.testing.assert_array_equal(pricer.errors(wider), pricer.errors(schedule))
        for k in range(4):
            expected = self.differences(pricer, wider, 1, k, 1e-5)
            np.testing.assert_allclose(jacobian[:, 0, k], expected, rtol=1e-5,
                                       atol=1e-5 * np.abs(expected).max())


    @staticmethod
    def forward(pricer, schedule, amplitudes, monkeypatch):
        """The Jacobian with every request narrow: tangents made, then contracted."""
        with monkeypatch.context() as patched:
            patched.setattr(loss_engine, "_ADJOINT_CROSSOVER", math.inf)
            return pricer.jacobian(schedule, amplitudes)

    @pytest.mark.parametrize("index", ["itraxx", "cdx"])
    def test_wide_gpcl_requests_take_the_adjoint(self, index, request, pool, curve,
                                                 monkeypatch):
        # every amplitude, every third, and the 2-mode point a fit reaches
        # from the 1-mode incumbent; the legs' weights read as the legs do
        from clusterloss.calibrator import fit_intensities
        with open(schedule_path(GPCL, index)) as fh:
            shipped = IntensitySchedule.from_json(fh.read())
        pricer = PanelPricer(request.getfixturevalue(f"{index}_panel"), curve, pool)
        one = fit_intensities(pricer, GPCL, [1], np.full(4, 0.1), max_evaluations=60)
        two = fit_intensities(pricer, GPCL, [1, 12], np.insert(one.increments, 1, 0.0,
                                                                axis=0),
                              max_evaluations=60)
        adjoints = []
        original = loss_engine._series_adjoints
        monkeypatch.setattr(loss_engine, "_series_adjoints",
                            lambda *args: adjoints.append(args[4]) or original(*args))
        for schedule in (shipped, two.schedule):
            for amplitudes in (range(1, 126), range(1, 126, 3)):
                adjoints.clear()
                jacobian = pricer.jacobian(schedule, amplitudes)
                assert adjoints == [tuple(amplitudes)]
                forward = self.forward(pricer, schedule, amplitudes, monkeypatch)
                np.testing.assert_allclose(jacobian, forward, rtol=0.0,
                                           atol=1e-12 * np.abs(forward).max())
        # a request of at most as many tangent columns as leg functionals
        # keeps the forward pass and its bits
        adjoints.clear()
        narrow = pricer.jacobian(shipped, shipped.amplitudes)
        assert not adjoints
        np.testing.assert_array_equal(
            narrow, self.forward(pricer, shipped, shipped.amplitudes, monkeypatch))

    @pytest.mark.parametrize("index", ["itraxx", "cdx"])
    def test_wide_gpl_requests_contract_first(self, index, request, pool, curve, monkeypatch):
        # the closed form follows the adjoint's width rule: every amplitude
        # and every third contract the legs' weights first, the schedule's
        # own amplitudes make the tangents, and both orders agree
        with open(schedule_path(GPL, index)) as fh:
            shipped = IntensitySchedule.from_json(fh.read())
        pricer = PanelPricer(request.getfixturevalue(f"{index}_panel"), curve, pool)
        single = IntensitySchedule(GPL, (1,), shipped.knots, shipped.cumulated[:1])
        first = []
        original = loss_engine._commuting_adjoints
        monkeypatch.setattr(loss_engine, "_commuting_adjoints",
                            lambda *args: first.append(args[4]) or original(*args))
        for schedule in (shipped, single):
            for amplitudes in (range(1, 126), range(1, 126, 3), schedule.amplitudes):
                first.clear()
                jacobian = pricer.jacobian(schedule, amplitudes)
                wide = len(amplitudes) * 4 > 2 * len(pricer.instruments)
                assert first == ([tuple(amplitudes)] if wide else [])
                forward = self.forward(pricer, schedule, amplitudes, monkeypatch)
                np.testing.assert_allclose(jacobian, forward, rtol=0.0,
                                           atol=1e-12 * np.abs(forward).max())

    def test_payout_matrix_is_read_only_and_not_copied(self, pool, curve, itraxx_panel):
        pricer = PanelPricer(itraxx_panel, curve, pool)
        assert not pricer.payout_matrix.flags.writeable
        assert loss_engine._checked_columns(pool, pricer.payout_matrix) is pricer.payout_matrix
        writeable = np.array(pricer.payout_matrix)
        assert loss_engine._checked_columns(pool, writeable) is not writeable
        for bad in (pricer.payout_matrix[:, 0], pricer.payout_matrix[1:]):
            with pytest.raises(LossEngineError, match="columns must"):
                loss_engine._checked_columns(pool, bad)
        broken = np.array(pricer.payout_matrix)
        broken[3, 1] = math.nan
        broken.flags.writeable = False
        with pytest.raises(LossEngineError, match="finite"):
            loss_engine._checked_columns(pool, broken)

class TestPanelMemo:
    """Pricers of equal (panel, curve, grid step) share one read-only panel
    block from a bounded process-wide memo and build only their pool block."""

    PANEL_ARRAYS = ("grid_times", "mids", "widths", "_upfront", "_running",
                    "_leg_weights", "_leg_constants", "_leg_reads")

    @staticmethod
    def equal_copies(panel, curve):
        """Copies equal by value but not the same objects, as from a second load."""
        return dataclasses.replace(panel), dataclasses.replace(curve)

    def test_equal_arguments_share_panel_arrays_and_own_pool_blocks(self, curve,
                                                                    itraxx_panel):
        first = PanelPricer(itraxx_panel, curve, PoolSpec())
        panel, other_curve = self.equal_copies(itraxx_panel, curve)
        assert panel is not itraxx_panel and other_curve is not curve
        for pool in (PoolSpec(), PoolSpec(125, 0.3), PoolSpec(60)):
            second = PanelPricer(panel, other_curve, pool, grid_step_days=30)
            for name in self.PANEL_ARRAYS:
                shared = getattr(first, name)
                assert getattr(second, name) is shared, name
                assert not shared.flags.writeable, name
            assert second.instruments is first.instruments
            assert second.pool == pool
            assert second.payout_matrix is not first.payout_matrix
            assert second.payout_matrix.shape == (pool.names + 1, first.payout_matrix.shape[1])
        np.testing.assert_array_equal(
            PanelPricer(panel, other_curve, PoolSpec()).payout_matrix, first.payout_matrix)
        # another grid step or curve is another block
        assert PanelPricer(itraxx_panel, curve, PoolSpec(), 15.0).grid_times is not \
            first.grid_times
        assert PanelPricer(itraxx_panel, flat_curve(0.03), PoolSpec())._leg_weights is not \
            first._leg_weights

    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_memo_hits_price_the_bits_of_a_cleared_memo(self, model, curve, itraxx_panel):
        with open(schedule_path(model, "itraxx")) as fh:
            schedule = IntensitySchedule.from_json(fh.read())
        pools = (PoolSpec(), PoolSpec(125, 0.3), PoolSpec(60), PoolSpec(250))
        hits = []
        PanelPricer(itraxx_panel, curve, PoolSpec())
        for pool in pools:
            pricer = PanelPricer(*self.equal_copies(itraxx_panel, curve), pool)
            hits.append((pricer.model_values(schedule), pricer.jacobian(schedule, (1, 2))))
        for pool, (values, jacobian) in zip(pools, hits):
            pricer_module._panel_block.cache_clear()
            fresh = PanelPricer(itraxx_panel, curve, pool)
            np.testing.assert_array_equal(values, fresh.model_values(schedule))
            np.testing.assert_array_equal(jacobian, fresh.jacobian(schedule, (1, 2)))

    def test_bad_arguments_raise_on_every_construction(self, curve, itraxx_panel):
        PanelPricer(itraxx_panel, curve, PoolSpec())  # the valid block is cached
        entries = pricer_module._panel_block.cache_info().currsize
        bad_curve = DiscountCurve(VAL, (dt.date(2030, 1, 1),), (-1e300,))  # factors of inf
        for _ in range(2):
            with pytest.raises(PricingError, match="empty quote panel"):
                PanelPricer(QuotePanel("x", VAL, (), ()), curve, PoolSpec())
            for step in (0.5, math.nan):
                with pytest.raises(PricingError, match="at least one day"):
                    PanelPricer(itraxx_panel, curve, PoolSpec(), grid_step_days=step)
            with pytest.raises(MarketDataError, match="must be finite and positive"):
                PanelPricer(itraxx_panel, bad_curve, PoolSpec())
        assert pricer_module._panel_block.cache_info().currsize == entries

    def test_memo_stays_at_its_bound(self, curve, itraxx_panel):
        info = pricer_module._panel_block.cache_info
        assert info().maxsize == pricer_module._PANEL_ENTRIES
        sizes = []
        for step in range(20, 20 + 3 * pricer_module._PANEL_ENTRIES):
            PanelPricer(itraxx_panel, curve, PoolSpec(), grid_step_days=step)
            sizes.append(info().currsize)
        assert max(sizes) == info().currsize == pricer_module._PANEL_ENTRIES

    def test_pickled_pricer_prices_the_same_bits(self, curve, itraxx_panel, gpcl_schedule):
        pricer = PanelPricer(itraxx_panel, curve, PoolSpec(60, 0.3))
        restored = pickle.loads(pickle.dumps(pricer))
        np.testing.assert_array_equal(restored.model_values(gpcl_schedule),
                                      pricer.model_values(gpcl_schedule))
        assert restored.instruments == pricer.instruments

    def test_pickled_pricer_is_small(self, curve, itraxx_panel, gpl_schedule):
        # the legs' functionals are (grid, legs) weights on one payout column
        # each, not a dense (grid, columns, legs) tensor, which took 608 KB
        pricer = PanelPricer(itraxx_panel, curve, PoolSpec())
        data = pickle.dumps(pricer)
        assert len(data) <= 120 * 1024
        restored = pickle.loads(data)
        for amplitudes in (gpl_schedule.amplitudes, range(1, 126)):
            np.testing.assert_array_equal(restored.jacobian(gpl_schedule, amplitudes),
                                          pricer.jacobian(gpl_schedule, amplitudes))
