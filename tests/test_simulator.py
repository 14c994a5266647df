import math

import numpy as np
import pytest

from clusterloss.loss_engine import (
    GPCL,
    GPL,
    STRATEGIES,
    IntensitySchedule,
    PoolSpec,
    gpcl_distribution,
    gpl_distribution,
)
from clusterloss.simulator import (
    SimulationError,
    empirical_distribution,
    empirical_distributions,
)

from reference_engines import (
    ShockEvent,
    apply_strategy,
    sample_shock_stream,
    single_name_default_times,
)


def make_schedule(model, amplitudes, knots, cumulated):
    return IntensitySchedule(model=model, amplitudes=tuple(amplitudes),
                             knots=tuple(knots),
                             cumulated=tuple(tuple(row) for row in cumulated))


class TestSampleShockStream:
    def test_zero_schedule_gives_empty_stream(self):
        pool = PoolSpec(names=10)
        sched = make_schedule(GPCL, (1,), (1.0,), [(0.0,)])
        assert sample_shock_stream(pool, sched, 2.0, seed=1) == []

    def test_stream_is_time_sorted(self):
        pool = PoolSpec(names=20)
        sched = make_schedule(GPCL, (1, 3), (1.0, 2.0), [(4.0, 8.0), (1.0, 3.0)])
        events = sample_shock_stream(pool, sched, 2.0, seed=3)
        times = [e.time for e in events]
        assert times == sorted(times)
        assert {len(e.cluster) for e in events} <= {1, 3}

    def test_deterministic_given_seed(self):
        pool = PoolSpec(names=20)
        sched = make_schedule(GPCL, (1, 2), (1.0,), [(3.0,), (1.0,)])
        a = sample_shock_stream(pool, sched, 1.0, seed=42)
        b = sample_shock_stream(pool, sched, 1.0, seed=42)
        assert a == b
        c = sample_shock_stream(pool, sched, 1.0, seed=43)
        assert a != c

    def test_event_count_mean_matches_cumulated_intensity(self):
        # aggregate single-name rate: stored value IS the event-rate integral
        pool = PoolSpec(names=20)
        total = 4.0
        sched = make_schedule(GPCL, (1,), (2.0,), [(total,)])
        rng = np.random.default_rng(7)
        n = 4000
        counts = [len(sample_shock_stream(pool, sched, 2.0, seed=rng))
                  for _ in range(n)]
        sigma = math.sqrt(total / n)
        assert abs(np.mean(counts) - total) < 3 * sigma

    def test_clusters_are_subsets_of_pool(self):
        pool = PoolSpec(names=7)
        sched = make_schedule(GPCL, (3,), (1.0,), [(5.0,)])
        for event in sample_shock_stream(pool, sched, 1.0, seed=11):
            assert len(set(event.cluster)) == 3
            assert all(0 <= name < 7 for name in event.cluster)

    def test_invalid_horizon(self):
        pool = PoolSpec(names=5)
        with pytest.raises(SimulationError):
            sample_shock_stream(pool, make_schedule(GPCL, (1,), (1.0,), [(1.0,)]), 0.0)

    def test_cluster_larger_than_pool_rejected(self, gpcl_schedule):
        with pytest.raises(SimulationError, match="amplitude 80 exceeds the pool of 60"):
            sample_shock_stream(PoolSpec(names=60), gpcl_schedule, 10.0, seed=1)
        # a mode without intensity before the horizon draws no cluster
        sched = make_schedule(GPCL, (1, 80), (1.0, 2.0), [(1.0, 2.0), (0.0, 1.0)])
        events = sample_shock_stream(PoolSpec(names=60), sched, 1.0, seed=1)
        assert {len(e.cluster) for e in events} <= {1}


WORKED_EVENTS = [
    ShockEvent(time=1.0, cluster=(3, 4, 5, 6)),
    ShockEvent(time=2.0, cluster=(1, 2, 3)),
]


class TestApplyStrategy:
    """A four-name cluster fires, then an overlapping three-name cluster."""

    def test_single_name_adjustment_fires_partially(self):
        pool = PoolSpec(names=10)
        traj = apply_strategy(WORKED_EVENTS, "s1", pool)
        assert list(traj.counts) == [4, 6]  # names 1, 2 default at the second event
        times = single_name_default_times(traj)
        assert times[1] == 2.0 and times[2] == 2.0
        assert times[3] == 1.0 and times[6] == 1.0
        assert math.isnan(times[0]) and math.isnan(times[7])

    def test_cluster_adjustment_discards_overlapping_event(self):
        pool = PoolSpec(names=10)
        traj = apply_strategy(WORKED_EVENTS, "s2", pool)
        assert list(traj.counts) == [4, 4]  # second event discarded entirely
        assert list(traj.increments) == [4, 0]
        times = single_name_default_times(traj)
        assert times[3] == 1.0
        assert math.isnan(times[1]) and math.isnan(times[2])

    def test_repeated_and_capped_counts(self):
        pool = PoolSpec(names=10)
        assert list(apply_strategy(WORKED_EVENTS, "repeated", pool).counts) == [4, 7]
        assert list(apply_strategy(WORKED_EVENTS, "s0", pool).counts) == [4, 7]
        small = PoolSpec(names=5)
        assert list(apply_strategy(WORKED_EVENTS, "s0", small).counts) == [4, 5]
        assert list(apply_strategy(WORKED_EVENTS, "repeated", small).counts) == [4, 7]

    def test_no_events_means_no_defaults(self):
        traj = apply_strategy([], "s2", PoolSpec(names=5))
        assert traj.count_at(10.0) == 0

    def test_unsorted_events_rejected(self):
        pool = PoolSpec(names=10)
        events = [ShockEvent(2.0, (1,)), ShockEvent(1.0, (2,))]
        with pytest.raises(SimulationError, match="sorted"):
            apply_strategy(events, "s1", pool)

    def test_repeated_equals_capped_until_cap(self):
        pool = PoolSpec(names=50)
        sched = make_schedule(GPCL, (1, 4), (1.0,), [(6.0,), (1.0,)])
        events = sample_shock_stream(pool, sched, 1.0, seed=5)
        repeated = apply_strategy(events, "repeated", pool).counts
        capped = apply_strategy(events, "s0", pool).counts
        below = repeated < 50
        np.testing.assert_array_equal(repeated[below], capped[below])

    def test_name_times_unavailable_for_count_only_strategies(self):
        pool = PoolSpec(names=10)
        for strategy in ("repeated", "s0"):
            traj = apply_strategy(WORKED_EVENTS, strategy, pool)
            with pytest.raises(SimulationError, match="identity"):
                single_name_default_times(traj)

    def test_count_at_lookup(self):
        pool = PoolSpec(names=10)
        traj = apply_strategy(WORKED_EVENTS, "s1", pool)
        assert traj.count_at(0.5) == 0
        assert traj.count_at(1.0) == 4
        assert traj.count_at(1.5) == 4
        assert traj.count_at(3.0) == 6


class TestPathwiseOrdering:
    def test_strategy_ordering_on_shared_streams(self, gpcl_schedule):
        pool = PoolSpec(names=125)
        for seed in range(60):
            events = sample_shock_stream(pool, gpcl_schedule, 10.0, seed=seed)
            trajectories = {s: apply_strategy(events, s, pool).counts
                            for s in ("repeated", "s0", "s1", "s2")}
            assert np.all(trajectories["repeated"] >= trajectories["s0"])
            assert np.all(trajectories["s0"] >= trajectories["s1"])
            assert np.all(trajectories["s1"] >= trajectories["s2"])

    def test_cluster_strategy_increments_come_from_amplitude_set(self, gpcl_schedule):
        pool = PoolSpec(names=125)
        amplitudes = set(gpcl_schedule.amplitudes) | {0}
        for seed in range(20):
            events = sample_shock_stream(pool, gpcl_schedule, 10.0, seed=seed)
            traj = apply_strategy(events, "s2", pool)
            assert set(int(i) for i in traj.increments) <= amplitudes


class TestEmpiricalDistribution:
    def test_single_path_zero_schedule(self):
        pool = PoolSpec(names=6)
        sched = make_schedule(GPCL, (1,), (1.0,), [(0.0,)])
        emp = empirical_distribution(pool, sched, "s2", 1.0, n_paths=1, seed=0)
        assert emp.distribution.probs[0] == 1.0
        assert not emp.overflow

    def test_matches_exact_engine_on_small_pool(self):
        pool = PoolSpec(names=12)
        sched = make_schedule(GPCL, (1, 2), (1.0,), [(1.8,), (0.6,)])
        emp = empirical_distribution(pool, sched, "s2", 1.0, n_paths=20_000, seed=9)
        exact = gpcl_distribution(pool, sched, 1.0)
        tv = 0.5 * np.abs(emp.distribution.probs - exact.probs).sum()
        assert tv < 0.02

    def test_multiple_times_single_pass(self):
        pool = PoolSpec(names=12)
        sched = make_schedule(GPCL, (1,), (2.0,), [(2.0,)])
        emps = empirical_distributions(pool, sched, "s2", [0.5, 1.0, 2.0],
                                       n_paths=4000, seed=2)
        means = [e.distribution.expected_count() for e in emps]
        assert means == sorted(means)  # counting process is non-decreasing

    def test_distribution_is_read_only(self):
        pool = PoolSpec(names=12)
        sched = make_schedule(GPCL, (1, 3), (1.0,), [(1.0,), (0.3,)])
        emp = empirical_distribution(pool, sched, "s2", 1.0, n_paths=500, seed=4)
        with pytest.raises(ValueError, match="read-only"):
            emp.distribution.probs[0] = 7.0

    def test_determinism(self):
        pool = PoolSpec(names=12)
        sched = make_schedule(GPCL, (1, 3), (1.0,), [(1.0,), (0.3,)])
        a = empirical_distribution(pool, sched, "s2", 1.0, n_paths=500, seed=4)
        b = empirical_distribution(pool, sched, "s2", 1.0, n_paths=500, seed=4)
        np.testing.assert_array_equal(a.distribution.probs, b.distribution.probs)

    def test_repeated_strategy_flags_overflow_bucket(self):
        pool = PoolSpec(names=3)
        sched = make_schedule(GPCL, (2,), (1.0,), [(4.0,)])  # ~4 events of size 2
        emp = empirical_distribution(pool, sched, "repeated", 1.0,
                                     n_paths=3000, seed=8)
        assert emp.overflow
        assert emp.distribution.probs.sum() == pytest.approx(1.0)
        # counts jump by twos without bound; bucket 3 holds everything >= 3
        expected_tail = 1.0 - math.exp(-4.0) * (1 + 4.0)  # P(Poisson(4) >= 2)
        assert emp.distribution.probs[3] == pytest.approx(expected_tail, abs=0.03)

    def test_standard_errors_shape_and_scale(self):
        pool = PoolSpec(names=12)
        sched = make_schedule(GPCL, (1,), (1.0,), [(1.0,)])
        emp = empirical_distribution(pool, sched, "s1", 1.0, n_paths=1000, seed=1)
        assert emp.std_err.shape == emp.distribution.probs.shape
        assert np.all(emp.std_err <= 0.5 / math.sqrt(1000) + 1e-12)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_time_zero_has_no_defaults(self, strategy):
        pool = PoolSpec(names=12)
        sched = make_schedule(GPCL, (1, 3), (1.0,), [(1.0,), (0.3,)])
        emp = empirical_distribution(pool, sched, strategy, 0.0, n_paths=100, seed=4)
        assert emp.distribution.probs[0] == 1.0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_histograms_across_a_block_boundary(self, strategy):
        pool = PoolSpec(names=12)
        sched = make_schedule(GPCL, (1, 3, 5), (1.0, 2.0),
                              [(1.2, 2.0), (0.5, 1.1), (0.2, 0.5)])
        times = [0.7, 2.0]
        n_paths = 2 ** 15 + 3

        def path_counts(n, seed):
            emps = empirical_distributions(pool, sched, strategy, times, n, seed=seed)
            counts = np.stack([e.distribution.probs for e in emps]) * n
            whole = np.rint(counts)
            np.testing.assert_allclose(counts, whole, rtol=0, atol=1e-6)
            return whole.astype(np.int64)

        counts = path_counts(n_paths, 6)
        assert np.all(counts.sum(axis=1) == n_paths)
        np.testing.assert_array_equal(path_counts(n_paths, 6), counts)
        assert not np.array_equal(path_counts(n_paths, 7), counts)
        # the first block's paths do not depend on how many follow them
        tail = counts - path_counts(2 ** 15, 6)
        assert np.all(tail >= 0) and np.all(tail.sum(axis=1) == 3)

    def test_invalid_arguments(self):
        pool = PoolSpec(names=5)
        sched = make_schedule(GPCL, (1,), (1.0,), [(1.0,)])
        with pytest.raises(SimulationError):
            empirical_distribution(pool, sched, "s2", 1.0, n_paths=0)
        with pytest.raises(SimulationError):
            empirical_distribution(pool, sched, "bogus", 1.0, n_paths=10)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_times_rejected(self, strategy, bad):
        pool = PoolSpec(names=5)
        sched = make_schedule(GPCL, (1,), (1.0,), [(1.0,)])
        with pytest.raises(SimulationError, match="finite"):
            empirical_distributions(pool, sched, strategy, [1.0, bad], n_paths=10)


class TestStatisticalConsistency:
    def test_single_name_marginal_default_probability(self):
        # singleton clusters only: each name's default time has hazard equal
        # to the per-cluster intensity, so P(default by t) = 1 - exp(-stored/M)
        pool = PoolSpec(names=10)
        stored = 2.0
        sched = make_schedule(GPCL, (1,), (1.0,), [(stored,)])
        n_paths = 4000
        defaults = np.zeros(pool.names)
        for seed in range(n_paths):
            events = sample_shock_stream(pool, sched, 1.0, seed=seed)
            times = single_name_default_times(apply_strategy(events, "s2", pool))
            defaults += ~np.isnan(times)
        p_hat = defaults / n_paths
        p_true = 1.0 - math.exp(-stored / pool.names)
        sigma = math.sqrt(p_true * (1 - p_true) / n_paths)
        assert np.all(np.abs(p_hat - p_true) < 4 * sigma)

    def test_exchangeability_of_marginals(self):
        pool = PoolSpec(names=8)
        sched = make_schedule(GPCL, (1, 3), (1.0,), [(0.8,), (0.4,)])
        n_paths = 4000
        defaults = np.zeros(pool.names)
        for seed in range(n_paths):
            events = sample_shock_stream(pool, sched, 1.0, seed=seed)
            times = single_name_default_times(apply_strategy(events, "s2", pool))
            defaults += ~np.isnan(times)
        p_hat = defaults / n_paths
        pooled = p_hat.mean()
        sigma = math.sqrt(pooled * (1 - pooled) / n_paths)
        assert np.all(np.abs(p_hat - pooled) < 4 * sigma)


def two_sample_z(a: np.ndarray, b: np.ndarray) -> float:
    """z statistic of the difference between the means of two samples."""
    se = math.sqrt(a.var() / len(a) + b.var() / len(b))
    return (a.mean() - b.mean()) / se if se > 0 else 0.0


class TestCountOnlySimulation:
    """``empirical_distributions`` tracks only the default count; the name-level
    streams of ``sample_shock_stream`` and ``apply_strategy`` are its reference."""

    TIMES = (0.7, 2.0)

    @pytest.fixture(scope="class")
    def name_level_counts(self):
        pool = PoolSpec(names=12)
        sched = make_schedule(GPCL, (1, 3, 5), (1.0, 2.0),
                              [(1.2, 2.0), (0.5, 1.1), (0.2, 0.5)])
        counts = {"s1": [], "s2": []}
        for seed in range(40_000):
            events = sample_shock_stream(pool, sched, self.TIMES[-1], seed=seed)
            for strategy, rows in counts.items():
                traj = apply_strategy(events, strategy, pool)
                rows.append([traj.count_at(t) for t in self.TIMES])
        return pool, sched, {s: np.asarray(rows) for s, rows in counts.items()}

    @pytest.mark.parametrize("strategy", ["s1", "s2"])
    def test_same_law_as_name_level_simulation(self, name_level_counts, strategy):
        pool, sched, reference = name_level_counts
        n_paths = 200_000
        emps = empirical_distributions(pool, sched, strategy, self.TIMES, n_paths, seed=17)
        for row, emp in enumerate(emps):
            freq = emp.distribution.probs
            simulated = np.repeat(np.arange(pool.names + 1), np.rint(freq * n_paths).astype(int))
            names = reference[strategy][:, row]
            assert abs(two_sample_z(simulated, names)) <= 5.0
            assert abs(two_sample_z(simulated == 0, names == 0)) <= 5.0

    @pytest.mark.parametrize("model, strategy, engine", [
        (GPCL, "s2", gpcl_distribution),
        (GPL, "s0", gpl_distribution),
    ])
    def test_clusters_larger_than_pool_match_exact_engines(self, gpcl_schedule, gpl_schedule,
                                                           model, strategy, engine):
        # gpcl gives clusters larger than the pool rate zero; gpl jumps to the cap
        schedule = gpcl_schedule if model == GPCL else gpl_schedule
        assert max(schedule.amplitudes) > 60
        pool = PoolSpec(names=60)
        n_paths = 200_000
        times = [5.0, 10.0]
        emps = empirical_distributions(pool, schedule, strategy, times, n_paths, seed=23)
        counts = np.arange(pool.names + 1)
        for emp, t in zip(emps, times):
            exact = engine(pool, schedule, t).probs
            mean = counts @ exact
            sd = math.sqrt(counts ** 2 @ exact - mean ** 2)
            z = (counts @ emp.distribution.probs - mean) / (sd / math.sqrt(n_paths))
            assert abs(z) <= 5.0, (strategy, t, z)


class TestCells:
    """s1 and s2 draw one Poisson total per path and cell, where the cells cut
    [0, last time] at the observation times and at the knots, and mark each
    event with a mode. Before knot 1 only 4-name clusters arrive and after it
    only single names, so an s2 path must meet the clusters before the single
    names inside the observation interval (0.6, 1.5]; cells cut at the
    observation times alone would mix the two."""

    POOL = PoolSpec(names=12)
    TIMES = (0.0, 0.6, 1.5, 1.5, 2.0, 3.7)  # at 0, between knots, repeated, on a knot, beyond
    N_PATHS = 200_000

    @staticmethod
    def switching_schedule(amplitudes=(1, 4, 20)):
        # the single names have no rise before knot 1, the clusters none after
        # it, and 20-name clusters are larger than the pool
        rows = {1: (0.0, 3.0, 4.0), 4: (1.5, 1.5, 1.5), 20: (0.5, 1.0, 1.5)}
        return make_schedule(GPCL, amplitudes, (1.0, 2.0, 3.0), [rows[a] for a in amplitudes])

    def test_s2_matches_exact_engine(self):
        sched = self.switching_schedule()
        emps = empirical_distributions(self.POOL, sched, "s2", self.TIMES, self.N_PATHS,
                                       seed=31)
        assert [e.distribution.time for e in emps] == sorted(self.TIMES)
        assert emps[0].distribution.probs[0] == 1.0
        counts = np.arange(self.POOL.names + 1)
        for emp in emps[1:]:
            exact = gpcl_distribution(self.POOL, sched, emp.distribution.time).probs
            freq = emp.distribution.probs
            for stat in (counts, counts == 0):
                mean = stat @ exact
                sd = math.sqrt(stat ** 2 @ exact - mean ** 2)
                z = (stat @ freq - mean) / (sd / math.sqrt(self.N_PATHS))
                assert abs(z) <= 5.0, (emp.distribution.time, z)
        np.testing.assert_array_equal(emps[2].distribution.probs, emps[3].distribution.probs)

    def test_s1_matches_name_level_simulation(self):
        # a cluster larger than the pool never fires, so the name-level
        # reference runs without the 20-name mode
        reference = self.switching_schedule((1, 4))
        times = sorted(self.TIMES)
        names = []
        for seed in range(10_000):
            traj = apply_strategy(sample_shock_stream(self.POOL, reference, times[-1], seed=seed),
                                  "s1", self.POOL)
            names.append([traj.count_at(t) for t in times])
        names = np.asarray(names)
        emps = empirical_distributions(self.POOL, self.switching_schedule(), "s1", self.TIMES,
                                       self.N_PATHS, seed=37)
        assert emps[0].distribution.probs[0] == 1.0
        for row, emp in enumerate(emps[1:], start=1):
            freq = emp.distribution.probs
            simulated = np.repeat(np.arange(self.POOL.names + 1),
                                  np.rint(freq * self.N_PATHS).astype(int))
            assert abs(two_sample_z(simulated, names[:, row])) <= 5.0
            assert abs(two_sample_z(simulated == 0, names[:, row] == 0)) <= 5.0
