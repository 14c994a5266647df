"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Criterion 6 performs the full greedy calibrations and
dominates the runtime (bounded below half an hour).
"""
import datetime as dt
import math
import time

import numpy as np
import pytest

from clusterloss.calibrator import greedy_calibrate
from clusterloss.loss_engine import (
    GPCL,
    GPL,
    IntensitySchedule,
    PoolSpec,
    counting_intensity,
    log_binomial,
    loss_distribution,
)
from clusterloss.pricer import TrancheDef, expected_tranched_loss
from clusterloss.simulator import empirical_distributions

from reference_engines import apply_strategy, sample_shock_stream
from reference_values import (
    REFERENCE_ETL_GPCL,
    REFERENCE_ETL_GPL,
    TRANCHE_LADDER,
)

MAT_10Y = dt.date(2016, 12, 20)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def _etl_table(pool, schedule):
    table = []
    for t in schedule.knots:
        dist = loss_distribution(pool, schedule, t)
        table.append([100 * expected_tranched_loss(dist, TrancheDef(a, b), pool)
                      for a, b in TRANCHE_LADDER])
    return np.asarray(table)


class TestCriterion1GpclExpectedTranchedLosses:
    def test_reference_schedule_reproduces_reference_losses(self, pool, gpcl_schedule):
        started = time.perf_counter()
        table = _etl_table(pool, gpcl_schedule)
        elapsed = time.perf_counter() - started
        deviations = np.abs(table - np.asarray(REFERENCE_ETL_GPCL))
        ok = bool(deviations.max() <= 0.5) and elapsed < 5.0
        report(1, ok, f"cluster-model expected tranched losses: worst deviation "
                      f"{deviations.max():.2f}pp (limit 0.5), {elapsed:.1f}s")
        assert elapsed < 5.0
        assert deviations.max() <= 0.5, (
            f"worst deviation {deviations.max():.2f}pp at "
            f"{np.unravel_index(deviations.argmax(), deviations.shape)}; "
            "the shipped reference cluster schedule is inconsistent with its "
            "reference outputs (engine validated against independent Monte "
            "Carlo and closed forms elsewhere in this suite)")



class TestCriterion1Explanation:
    """Why criterion 1 fails: the shipped gpcl schedule's exact law misses
    the reference table under every repeated-default treatment, not only
    the kernel's s2, and already at 3y, where its equity loss is at least
    20.1% against the table's 18.7%. Criterion 1 itself is left as it is."""

    def test_every_treatment_misses_the_table(self, pool, gpcl_schedule):
        from reference_engines import expm_distribution, single_name_generator

        capped = IntensitySchedule(GPL, gpcl_schedule.amplitudes, gpcl_schedule.knots,
                                   gpcl_schedule.cumulated)  # s0: the capped count
        laws = {"s2": lambda t: loss_distribution(pool, gpcl_schedule, t),
                "s1": lambda t: expm_distribution(pool, gpcl_schedule, t,
                                                  single_name_generator),
                "s0": lambda t: loss_distribution(pool, capped, t)}
        misses = {"s2": 3.80, "s1": 5.40, "s0": 7.46}
        reference = np.asarray(REFERENCE_ETL_GPCL)
        for strategy, law in laws.items():
            table = np.asarray([[100 * expected_tranched_loss(law(t), TrancheDef(a, b), pool)
                                 for a, b in TRANCHE_LADDER] for t in gpcl_schedule.knots])
            worst = float(np.abs(table - reference).max())
            assert worst > 0.5
            assert worst == pytest.approx(misses[strategy], abs=0.005), strategy
            assert table[0, 0] >= 20.1 > reference[0, 0] == 18.7

class TestCriterion2GplExpectedTranchedLosses:
    def test_reference_schedule_reproduces_reference_losses(self, pool, gpl_schedule):
        started = time.perf_counter()
        table = _etl_table(pool, gpl_schedule)
        elapsed = time.perf_counter() - started
        deviations = np.abs(table - np.asarray(REFERENCE_ETL_GPL))
        report(2, bool(deviations.max() <= 0.5) and elapsed < 5.0,
               f"capped-model expected tranched losses: worst deviation "
               f"{deviations.max():.2f}pp (limit 0.5), {elapsed:.1f}s")
        assert elapsed < 5.0
        assert deviations.max() <= 0.5


class TestCriterion3OracleEquivalence:
    def test_monte_carlo_matches_exact_engines(self, pool, gpl_schedule, gpcl_schedule):
        started = time.perf_counter()
        n_paths = 100_000
        times = [5.0, 10.0]
        worst = 0.0
        for schedule, strategy in ((gpcl_schedule, "s2"), (gpl_schedule, "s0")):
            empirical = empirical_distributions(pool, schedule, strategy, times,
                                                n_paths=n_paths, seed=2024)
            for emp, t in zip(empirical, times):
                exact = loss_distribution(pool, schedule, t)
                tv = 0.5 * float(np.abs(emp.distribution.probs - exact.probs).sum())
                worst = max(worst, tv)
                assert tv < 0.01, (strategy, t, tv)
        elapsed = time.perf_counter() - started
        report(3, worst < 0.01 and elapsed < 120,
               f"Monte Carlo vs exact engines: worst total variation {worst:.4f} "
               f"(limit 0.01) at 1e5 paths, {elapsed:.0f}s")
        assert elapsed < 120


class TestCriterion4SmallInstanceBruteForce:
    def test_panjer_equals_direct_convolution(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(25):
            names = int(rng.integers(5, 31))
            n_modes = int(rng.integers(1, 4))
            amps = tuple(sorted(rng.choice(np.arange(1, 9), size=n_modes,
                                           replace=False).tolist()))
            lams = rng.uniform(0.0, 2.0, size=n_modes)
            schedule = IntensitySchedule(model=GPL, amplitudes=amps, knots=(1.0,),
                                         cumulated=tuple((float(l),) for l in lams))
            dist = loss_distribution(PoolSpec(names=names), schedule, 1.0)
            brute = _convolution_oracle(amps, lams, names)
            worst = max(worst, float(np.abs(dist.probs - brute).max()))
        assert worst < 1e-12
        report(4, True, f"gpl engine vs convolution worst |diff| {worst:.2e} (limit 1e-12); "
                        "pure-death closed form next")

    def test_single_name_clusters_match_binomial_death_chain(self):
        pool = PoolSpec(names=125)
        stored = 5.5
        schedule = IntensitySchedule(model=GPCL, amplitudes=(1,), knots=(2.0,),
                                     cumulated=((stored,),))
        worst = 0.0
        for t in (0.4, 1.3, 2.0):
            hazard = stored / 125.0 * (t / 2.0)
            p = 1.0 - math.exp(-hazard)
            dist = loss_distribution(pool, schedule, t)
            log_pmf = [log_binomial(125, k) + k * math.log(p) - (125 - k) * hazard
                       for k in range(126)]
            worst = max(worst, float(np.abs(dist.probs - np.exp(log_pmf)).max()))
        assert worst < 1e-8
        report(4, True, f"pure-death binomial closed form worst |diff| {worst:.2e} "
                        f"(limit 1e-8)")


class TestCriterion5IntensityRatios:
    def test_ratio_properties(self, pool, gpcl_schedule):
        rates = {}
        for amplitude, total in zip(gpcl_schedule.amplitudes,
                                    gpcl_schedule.aggregate_cumulated(10.0)):
            rates[amplitude] = float(total) * math.exp(-log_binomial(125, amplitude))
        strategies = ("repeated", "s0", "s1", "s2")
        base = {s: counting_intensity(s, pool, rates, 0) for s in strategies}
        ratio_at = {s: np.array([counting_intensity(s, pool, rates, c) / base[s]
                                 for c in range(126)]) for s in strategies}
        for s in strategies:
            assert ratio_at[s][0] == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(ratio_at[s]) <= 1e-12), s
        np.testing.assert_allclose(ratio_at["s1"], 1.0 - np.arange(126) / 125.0,
                                   atol=1e-12)
        assert ratio_at["s2"][125] == 0.0
        report(5, True, "intensity ratios: all equal 1 at zero defaults, "
                        "non-increasing; single-name ratio linear; cluster "
                        "ratio vanishes at full default")


class TestCriterion6CalibrationQuoteFit:
    def test_greedy_calibration_fits_quotes(self, pool, curve, itraxx_panel):
        started = time.perf_counter()
        results = {}
        for model in (GPCL, GPL):
            results[model] = greedy_calibrate(
                itraxx_panel, curve, pool, model, seed=7, n_jobs=2,
                refine_budget=3000, polish_budget=12000)
        elapsed = time.perf_counter() - started

        gpcl_result = results[GPCL]
        early = [(ins, float(e)) for ins, e in
                 zip(gpcl_result.instruments, gpcl_result.errors)
                 if ins.maturity != MAT_10Y]
        late = [(ins, float(e)) for ins, e in
                zip(gpcl_result.instruments, gpcl_result.errors)
                if ins.maturity == MAT_10Y]
        worst_early = max(abs(e) for _, e in early)
        worst_late = max(abs(e) for _, e in late)
        worst_late_label = max(late, key=lambda pair: abs(pair[1]))[0].label
        f10_gpcl = gpcl_result.objective_for_maturity(MAT_10Y)
        f10_gpl = results[GPL].objective_for_maturity(MAT_10Y)

        report(6, worst_early <= 1.0 and worst_late <= 3.0
                  and worst_late_label.startswith("3-6")
                  and f10_gpcl <= 0.9 * f10_gpl and elapsed < 1800,
               f"greedy fits: short-maturity worst |eps| {worst_early:.2f} "
               f"(limit 1), 10y worst |eps| {worst_late:.2f} (limit 3) on "
               f"{worst_late_label!r}, f10 gpcl {f10_gpcl:.2f} vs gpl "
               f"{f10_gpl:.2f}, {elapsed:.0f}s")

        assert elapsed < 1800
        assert worst_early <= 1.0, f"3y/5y/7y quote outside bid-ask: {worst_early:.2f}"
        assert worst_late <= 3.0, f"10y quote error {worst_late:.2f} beyond 3 widths"
        assert worst_late_label.startswith("3-6"), (
            f"worst 10y error on {worst_late_label}, expected the 3-6 tranche")
        assert f10_gpcl <= 0.9 * f10_gpl, (
            f"cluster-model 10y objective {f10_gpcl:.2f} not 10% below "
            f"capped-model {f10_gpl:.2f}")


class TestCriterion7DistributionInvariants:
    def test_invariants_on_computed_distributions(self, pool, gpl_schedule,
                                                  gpcl_schedule):
        edges = [a for a, _ in TRANCHE_LADDER] + [1.0]
        checked = 0
        for schedule in (gpl_schedule, gpcl_schedule):
            previous_survival = None
            for t in (0.5, 1.0, 3.0, 5.0, 7.0, 10.0, 12.0):
                dist = loss_distribution(pool, schedule, t)
                assert dist.probs.min() >= 0.0
                assert abs(dist.probs.sum() - 1.0) <= 1e-10
                survival = dist.survival_function()
                if previous_survival is not None:
                    assert np.all(survival >= previous_survival - 1e-12)
                previous_survival = survival
                total = sum((b - a) * expected_tranched_loss(dist, TrancheDef(a, b), pool)
                            for a, b in zip(edges, edges[1:]))
                pool_loss = (1 - pool.recovery) * dist.expected_count() / pool.names
                assert abs(total - pool_loss) <= 1e-10
                checked += 1
        report(7, True, f"non-negativity, normalisation, survival monotonicity and "
                        f"tranche additivity hold on {checked} distributions")


class TestCriterion8PathwiseStrategyOrdering:
    def test_ordering_on_shared_shock_streams(self, pool, gpcl_schedule):
        n_streams = 10_000
        violations = 0
        for seed in range(n_streams):
            events = sample_shock_stream(pool, gpcl_schedule, 10.0, seed=seed)
            if not events:
                continue
            counts = {s: apply_strategy(events, s, pool).counts
                      for s in ("repeated", "s0", "s1", "s2")}
            if not (np.all(counts["repeated"] >= counts["s0"])
                    and np.all(counts["s0"] >= counts["s1"])
                    and np.all(counts["s1"] >= counts["s2"])):
                violations += 1
        assert violations == 0
        report(8, True, f"strategy ordering held pathwise on {n_streams} shared "
                        f"shock streams with zero violations")


def _convolution_oracle(amplitudes, lams, names):
    support = names + 200 * max(amplitudes)
    total = np.zeros(support)
    total[0] = 1.0
    for a, lam in zip(amplitudes, lams):
        pmf = np.zeros(support)
        for k in range(support // a + 1):
            if a * k >= support:
                break
            pmf[a * k] = (math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
                          if lam > 0 else (1.0 if k == 0 else 0.0))
        total = np.convolve(total, pmf)[:support]
    out = np.zeros(names + 1)
    out[:names] = total[:names]
    out[names] = max(0.0, 1.0 - total[:names].sum())
    return out
