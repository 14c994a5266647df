import bisect
import copy
import json
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterloss import loss_engine
from clusterloss.fixtures import schedule_path
from clusterloss.loss_engine import (
    GPCL,
    GPL,
    MODEL_KINDS,
    STRATEGIES,
    IntensitySchedule,
    LossDistribution,
    LossEngineError,
    PoolSpec,
    cluster_cumulated_intensity,
    counting_intensity,
    distribution_tangents,
    distribution_term_structure,
    log_binomial,
    loss_distribution,
)

from reference_engines import (
    compound_poisson_panjer,
    cumulated_generator,
    dense_generator_columns,
    dense_transition_matrix,
    expm_distribution,
    expm_tangent,
    matrix_exponential,
    panjer_distribution,
    unit_generator,
)


def make_schedule(model, amplitudes, knots, cumulated):
    return IntensitySchedule(model=model, amplitudes=tuple(amplitudes),
                             knots=tuple(knots),
                             cumulated=tuple(tuple(row) for row in cumulated))


def zero_schedule(model=GPCL, amplitudes=(1,), knots=(1.0,)):
    return make_schedule(model, amplitudes, knots,
                         [[0.0] * len(knots)] * len(amplitudes))


class TestPoolSpec:
    def test_defaults(self):
        pool = PoolSpec()
        assert pool.names == 125
        assert pool.recovery == 0.40
        assert pool.loss_per_default == pytest.approx(0.6 / 125)

    def test_validation(self):
        with pytest.raises(LossEngineError):
            PoolSpec(names=0)
        with pytest.raises(LossEngineError):
            PoolSpec(recovery=1.01)

    @pytest.mark.parametrize("names", [125.0, 125.5, True, np.float64(60.0), "125"])
    def test_non_integer_size_rejected(self, names):
        # 125.0 would hash equal to 125 in the kernel's cache; True would
        # index the transition matrix by boolean
        with pytest.raises(LossEngineError, match="pool size must be an integer"):
            PoolSpec(names)

    @pytest.mark.parametrize("names", [np.int64(60), np.uint8(255)])
    def test_numpy_integer_size_is_a_python_int(self, gpcl_schedule, names):
        pool = PoolSpec(names)  # a uint8 255 + 1 would wrap to 0
        assert type(pool.names) is int and pool == PoolSpec(int(names))
        np.testing.assert_array_equal(
            loss_distribution(pool, gpcl_schedule, 5.0).probs,
            loss_distribution(PoolSpec(int(names)), gpcl_schedule, 5.0).probs)


class TestIntensitySchedule:
    def test_piecewise_linear_interpolation(self):
        sched = make_schedule(GPL, (1,), (1.0, 3.0), [(1.0, 2.0)])
        assert sched.aggregate_cumulated(0.0)[0] == 0.0
        assert sched.aggregate_cumulated(0.5)[0] == pytest.approx(0.5)
        assert sched.aggregate_cumulated(2.0)[0] == pytest.approx(1.5)
        assert sched.aggregate_cumulated(3.0)[0] == pytest.approx(2.0)

    def test_constant_slope_extrapolation(self):
        sched = make_schedule(GPL, (1,), (1.0, 3.0), [(1.0, 2.0)])
        # final interval slope is 0.5 per year
        assert sched.aggregate_cumulated(5.0)[0] == pytest.approx(3.0)

    def test_json_round_trip(self, gpcl_schedule):
        doc = gpcl_schedule.to_json()
        again = IntensitySchedule.from_json(doc)
        assert again == gpcl_schedule

    def test_validation_errors(self):
        with pytest.raises(LossEngineError):
            make_schedule("other", (1,), (1.0,), [(0.1,)])
        with pytest.raises(LossEngineError):
            make_schedule(GPL, (2, 1), (1.0,), [(0.1,), (0.1,)])
        with pytest.raises(LossEngineError):
            make_schedule(GPL, (1,), (1.0,), [(0.2, 0.1)])
        with pytest.raises(LossEngineError):
            make_schedule(GPL, (1,), (1.0, 0.5), [(0.1, 0.2)])
        with pytest.raises(LossEngineError):
            make_schedule(GPL, (1,), (1.0,), [(-0.1,)])

    def test_decreasing_row_rejected(self):
        with pytest.raises(LossEngineError):
            make_schedule(GPL, (1,), (1.0, 2.0), [(0.3, 0.2)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        # a nan compares false, so ordering checks alone let it through
        with pytest.raises(LossEngineError, match="finite"):
            make_schedule(GPL, (1,), (1.0, 2.0), [(0.5, bad)])
        with pytest.raises(LossEngineError, match="finite"):
            make_schedule(GPL, (1,), (1.0, bad), [(0.5, 0.6)])


def reference_cumulated(schedule, t):
    """Aggregate cumulated intensities at one time, one mode at a time in
    Python floats: zero at time zero, the stored value at a knot, a + w (b - a)
    between knots, the final slope beyond the last."""
    grid = [0.0] + schedule.knots.tolist()
    out = []
    for row in schedule.cumulated.tolist():
        values = [0.0] + row
        k = bisect.bisect_right(grid, t) - 1
        if t > grid[-1]:
            slope = (values[-1] - values[-2]) / (grid[-1] - grid[-2])
            out.append(values[-1] + slope * (t - grid[-1]))
        elif grid[k] == t:
            out.append(values[k])
        else:
            w = (t - grid[k]) / (grid[k + 1] - grid[k])
            out.append(values[k] + w * (values[k + 1] - values[k]))
    return np.array(out)


class TestScheduleArrays:
    """The in-memory form: read-only float64 copies, compared by value."""

    def test_caller_mutation_changes_neither_schedule_nor_rows(self):
        knots = np.array([1.0, 2.5])
        cumulated = np.array([[0.3, 0.9], [0.2, 0.9]])
        schedule = IntensitySchedule(GPCL, (1, 3), knots, cumulated)
        pool, times = PoolSpec(names=20), [0.5, 1.0, 2.0, 3.0]
        rows = distribution_term_structure(pool, schedule, times)
        knots *= 2.0
        cumulated[:] = 7.0
        np.testing.assert_array_equal(schedule.knots, [1.0, 2.5])
        np.testing.assert_array_equal(schedule.cumulated, [[0.3, 0.9], [0.2, 0.9]])
        np.testing.assert_array_equal(distribution_term_structure(pool, schedule, times), rows)

    def test_stored_arrays_are_read_only(self, gpcl_schedule):
        for array in (gpcl_schedule.knots, gpcl_schedule.cumulated):
            assert array.dtype == np.float64 and not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        rebuilt = gpcl_schedule.with_cumulated(2.0 * gpcl_schedule.cumulated)
        for copied in (rebuilt, copy.deepcopy(gpcl_schedule),
                       pickle.loads(pickle.dumps(gpcl_schedule))):
            assert not copied.knots.flags.writeable and not copied.cumulated.flags.writeable
        assert pickle.loads(pickle.dumps(gpcl_schedule)) == gpcl_schedule

    @pytest.mark.parametrize("model", MODEL_KINDS)
    def test_tuples_arrays_and_json_give_identical_rows(self, model):
        with open(schedule_path(model, "itraxx")) as fh:
            doc = json.load(fh)
        nested = make_schedule(model, doc["amplitudes"], doc["knots_years"], doc["cumulated"])
        arrays = IntensitySchedule(model, np.array(doc["amplitudes"]),
                                   np.array(doc["knots_years"]), np.array(doc["cumulated"]))
        reloaded = IntensitySchedule.from_json(nested.to_json())
        assert nested == arrays == reloaded
        assert len({nested, arrays, reloaded}) == 1
        assert nested != arrays.with_cumulated(2.0 * arrays.cumulated)
        times = [0.0, 1.0, *doc["knots_years"], 12.0]
        expected = distribution_term_structure(PoolSpec(), nested, times)
        for other in (arrays, reloaded):
            np.testing.assert_array_equal(
                distribution_term_structure(PoolSpec(), other, times), expected)

    def test_times_array_matches_scalar_calls_bit_for_bit(self):
        # 0.3 + 1.0 * (0.9 - 0.3) is not 0.9, so a knot must return its own value
        assert 0.3 + 1.0 * (0.9 - 0.3) != 0.9
        schedule = make_schedule(GPL, (1, 2), (1.0, 2.5), [(0.3, 0.9), (0.2, 0.9)])
        times = [0.0, 0.4, 1.0, 1.7, 2.5, 3.0, 40.0]
        scalar = np.stack([schedule.aggregate_cumulated(t) for t in times])
        reference = np.stack([reference_cumulated(schedule, t) for t in times])
        assert schedule.aggregate_cumulated(np.array(times)).tobytes() == scalar.tobytes()
        assert scalar.tobytes() == reference.tobytes()
        assert scalar[4].tolist() == [0.9, 0.9]  # exactly the last knot's values


@st.composite
def schedule_docs(draw):
    """Valid schedule documents: 1-4 modes, 1-5 knots."""
    n_modes, n_knots = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    amplitudes = sorted(draw(st.sets(st.integers(1, 250), min_size=n_modes,
                                     max_size=n_modes)))
    steps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n_knots, max_size=n_knots))
    rows = [np.cumsum(draw(st.lists(st.floats(0.0, 5.0), min_size=n_knots,
                                    max_size=n_knots))).tolist()
            for _ in range(n_modes)]
    return {"model": draw(st.sampled_from(MODEL_KINDS)), "amplitudes": amplitudes,
            "knots_years": np.cumsum(steps).tolist(), "cumulated": rows}


_BAD_NUMBERS = [math.nan, math.inf, -math.inf, -1.0, "0.5", None, [0.5]]


def corrupt(doc, data):
    """A copy of a valid document made invalid in one way drawn from ``data``."""
    doc = json.loads(json.dumps(doc))
    amps, knots, rows = doc["amplitudes"], doc["knots_years"], doc["cumulated"]
    j = data.draw(st.integers(0, len(amps) - 1))
    k = data.draw(st.integers(0, len(knots) - 1))
    kind = data.draw(st.sampled_from([
        "knot", "value", "knot order", "value order", "ragged", "rows", "columns",
        "amplitude", "amplitudes text", "amplitude order", "model", "missing key"]))
    if kind == "knot":
        knots[k] = data.draw(st.sampled_from(_BAD_NUMBERS + [0.0]))
    elif kind == "value":
        rows[j][k] = data.draw(st.sampled_from(_BAD_NUMBERS))
    elif kind == "knot order":  # equal to or below the knot before
        knots[k] = knots[k - 1] - data.draw(st.floats(0.0, 1.0)) if k else 0.0
    elif kind == "value order":  # below the value before, beyond the 1e-15 tolerance
        below = data.draw(st.floats(1e-6, 1.0))
        rows[j][k] = rows[j][k - 1] - below if k else -below
    elif kind == "ragged":
        rows[j].pop()
    elif kind == "rows" and data.draw(st.booleans()):
        rows.append(list(rows[j]))
    elif kind == "rows":
        rows.pop(j)
    elif kind == "columns":
        for row in rows:
            row.append(row[-1] + 1.0)
    elif kind == "amplitude":
        amps[j] = data.draw(st.sampled_from([amps[j] + 0.5, str(amps[j]), None, 0, -amps[j]]))
    elif kind == "amplitudes text":
        doc["amplitudes"] = "".join(str(a) for a in amps)
    elif kind == "amplitude order":
        amps[j] = amps[j - 1] if j else 0
    elif kind == "model":
        doc["model"] = data.draw(st.sampled_from(["other", None, 1]))
    else:
        del doc[data.draw(st.sampled_from(sorted(doc)))]
    return doc


class TestScheduleDocuments:
    @settings(max_examples=200, deadline=None)
    @given(doc=schedule_docs())
    def test_valid_documents_round_trip(self, doc):
        schedule = IntensitySchedule.from_dict(doc)
        text = schedule.to_json()
        again = IntensitySchedule.from_json(text)
        assert again == schedule
        assert again.knots.tobytes() == schedule.knots.tobytes()
        assert again.cumulated.tobytes() == schedule.cumulated.tobytes()
        assert again.to_json() == text

    @settings(max_examples=400, deadline=None)
    @given(doc=schedule_docs(), data=st.data())
    def test_invalid_documents_raise_loss_engine_error(self, doc, data):
        # any other exception type escapes pytest.raises and fails the test
        with pytest.raises(LossEngineError):
            IntensitySchedule.from_json(json.dumps(corrupt(doc, data)))

    @pytest.mark.parametrize("field, value", [
        ("amplitudes", [1, 2.5]),  # was truncated to 2
        ("amplitudes", "12"),  # was read character by character
        ("cumulated", ["0.1"]),  # was a bare ValueError
        ("cumulated", [["0.1"], [0.2]]),
        ("knots_years", ["5.0"]),
    ])
    def test_malformed_fields_are_named(self, field, value):
        doc = {"model": GPCL, "amplitudes": [1, 2], "knots_years": [5.0],
               "cumulated": [[0.1], [0.2]], field: value}
        name = field.split("_")[0]
        with pytest.raises(LossEngineError, match=name):
            IntensitySchedule.from_dict(doc)

    @pytest.mark.parametrize("text", ["[1, 2]", '"gpl"', "3"])
    def test_document_must_be_an_object(self, text):
        with pytest.raises(LossEngineError, match="object"):
            IntensitySchedule.from_json(text)


class TestClusterCumulatedIntensity:
    def test_scaled_by_cluster_count(self, gpcl_schedule, pool):
        # single-name clusters: table value over the 125 singletons
        stored = gpcl_schedule.cumulated[0][0]
        value = cluster_cumulated_intensity(gpcl_schedule, pool, 1,
                                            gpcl_schedule.knots[0])
        assert value == pytest.approx(stored / 125.0)

    def test_whole_pool_cluster_unscaled(self, gpcl_schedule, pool):
        # exactly one cluster of the full pool size, so no rescaling
        stored = gpcl_schedule.cumulated[-1][-1]
        value = cluster_cumulated_intensity(gpcl_schedule, pool, 125,
                                            gpcl_schedule.knots[-1])
        assert value == pytest.approx(stored)

    def test_gpl_schedules_share_the_convention(self, gpl_schedule, pool):
        # both kinds store amplitude totals over C(names, amplitude) clusters
        t = gpl_schedule.knots[1]
        totals = gpl_schedule.aggregate_cumulated(t)
        for amplitude, total in zip(gpl_schedule.amplitudes, totals):
            assert cluster_cumulated_intensity(gpl_schedule, pool, amplitude, t) == pytest.approx(
                total / math.comb(125, amplitude), rel=1e-12)

    def test_zero_at_time_zero(self, gpcl_schedule, pool):
        for amplitude in gpcl_schedule.amplitudes:
            assert cluster_cumulated_intensity(gpcl_schedule, pool, amplitude, 0.0) == 0.0

    def test_unknown_amplitude_rejected(self, gpcl_schedule, pool):
        with pytest.raises(LossEngineError, match="amplitude"):
            cluster_cumulated_intensity(gpcl_schedule, pool, 2, 1.0)

    @pytest.mark.parametrize("t", [0.0, 5.0])
    def test_cluster_larger_than_pool_rejected(self, gpcl_schedule, t):
        # a 10-name pool holds no cluster of 125 names: no inf, no nan
        with pytest.raises(LossEngineError, match="10 names.*amplitude 125"):
            cluster_cumulated_intensity(gpcl_schedule, PoolSpec(10), 125, t)


class TestCumulatedGenerator:
    def test_zero_schedule_gives_zero_matrix(self):
        pool = PoolSpec(names=4)
        gen = cumulated_generator(pool, zero_schedule(), 0.0, 1.0)
        assert np.all(gen == 0.0)

    def test_hand_expanded_three_name_pool(self):
        # one amplitude of size 1 with increment c: rates (3-y) choose 1 = 3-y
        c = 0.17
        pool = PoolSpec(names=3)
        sched = make_schedule(GPCL, (1,), (1.0,), [(3 * c,)])  # stored = C(3,1) * c
        gen = cumulated_generator(pool, sched, 0.0, 1.0)
        expected = np.array([
            [-3 * c, 0.0, 0.0, 0.0],
            [3 * c, -2 * c, 0.0, 0.0],
            [0.0, 2 * c, -c, 0.0],
            [0.0, 0.0, c, 0.0],
        ])
        np.testing.assert_allclose(gen, expected, atol=1e-15)

    def test_columns_sum_to_zero(self, gpcl_schedule, pool):
        gen = cumulated_generator(pool, gpcl_schedule, 0.0, gpcl_schedule.knots[-1])
        np.testing.assert_allclose(gen.sum(axis=0), 0.0, atol=1e-12)
        # no resurrection: strictly upper part (to-state below from-state) empty
        assert np.all(np.triu(gen, k=1) == 0.0)
        off_diag = gen - np.diag(np.diag(gen))
        assert off_diag.min() >= 0.0

    def test_invalid_interval_rejected(self, gpcl_schedule, pool):
        with pytest.raises(LossEngineError):
            cumulated_generator(pool, gpcl_schedule, 1.0, 1.0)
        with pytest.raises(LossEngineError):
            cumulated_generator(pool, gpcl_schedule, -0.5, 1.0)

    def test_gpl_schedule_rejected(self, gpl_schedule, pool):
        with pytest.raises(LossEngineError):
            cumulated_generator(pool, gpl_schedule, 0.0, 1.0)


class TestMatrixExponential:
    def test_exp_of_zero_is_identity(self):
        np.testing.assert_allclose(matrix_exponential(np.zeros((5, 5))), np.eye(5))

    def test_two_state_survival(self):
        a = 0.7
        gen = np.array([[-a, 0.0], [a, 0.0]])
        expected = np.array([[math.exp(-a), 0.0], [1 - math.exp(-a), 1.0]])
        np.testing.assert_allclose(matrix_exponential(gen), expected, rtol=1e-12)

    def test_matches_truncated_series_on_first_interval_generator(
            self, gpcl_schedule, pool):
        # independent oracle: plain Taylor summation to order 30
        gen = cumulated_generator(pool, gpcl_schedule, 0.0, gpcl_schedule.knots[0])
        series = np.eye(pool.names + 1)
        power = np.eye(pool.names + 1)
        for k in range(1, 31):
            power = power @ gen / k
            series = series + power
        result = matrix_exponential(gen)
        np.testing.assert_allclose(result, np.clip(series, 0.0, None), atol=1e-8)

    def test_column_sums_preserved(self, gpcl_schedule, pool):
        gen = cumulated_generator(pool, gpcl_schedule, 0.0, gpcl_schedule.knots[-1])
        result = matrix_exponential(gen)
        np.testing.assert_allclose(result.sum(axis=0), 1.0, atol=1e-9)
        assert result.min() >= 0.0

    def test_non_finite_rejected(self):
        gen = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(LossEngineError):
            matrix_exponential(gen)
        with pytest.raises(LossEngineError):
            matrix_exponential(np.zeros((2, 3)))


class TestGpclDistribution:
    def test_zero_schedule_point_mass(self, pool):
        dist = loss_distribution(pool, zero_schedule(), 1.0)
        assert dist.probs[0] == 1.0
        assert dist.probs[1:].max() == 0.0

    def test_whole_pool_amplitude_two_state_chain(self):
        c = 0.3
        pool = PoolSpec(names=125)
        sched = make_schedule(GPCL, (125,), (1.0,), [(c,)])
        dist = loss_distribution(pool, sched, 1.0)
        assert dist.probs[0] == pytest.approx(math.exp(-c), abs=1e-12)
        assert dist.probs[125] == pytest.approx(1 - math.exp(-c), abs=1e-12)
        assert dist.probs[1:125].max() == pytest.approx(0.0, abs=1e-15)

    def test_single_name_amplitude_matches_binomial_closed_form(self):
        # with only singleton clusters every name dies independently with
        # hazard equal to the per-cluster intensity
        pool = PoolSpec(names=125)
        stored = 6.0  # = 125 * per-name cumulated hazard at the knot
        sched = make_schedule(GPCL, (1,), (2.0,), [(stored,)])
        for t in (0.7, 2.0):
            lam = stored / 125.0 * (t / 2.0)
            p_default = 1.0 - math.exp(-lam)
            dist = loss_distribution(pool, sched, t)
            k = np.arange(126)
            log_pmf = np.array([
                log_binomial(125, int(ki)) + ki * math.log(p_default)
                - (125 - ki) * lam for ki in k])
            np.testing.assert_allclose(dist.probs, np.exp(log_pmf), atol=1e-8)

    def test_term_structure_matches_product_of_exponentials(self, gpcl_schedule, pool):
        times = [1.0, 3.5, 7.0, 11.0]
        rows = distribution_term_structure(pool, gpcl_schedule, times)
        for row, t in zip(rows, times):
            one_shot = expm_distribution(pool, gpcl_schedule, t)
            np.testing.assert_allclose(row, one_shot.probs, atol=1e-12)

    def test_survival_monotone_in_time(self, gpcl_schedule, pool):
        previous = None
        for t in (0.5, 2.0, 5.0, 9.0, 12.0):
            survival = loss_distribution(pool, gpcl_schedule, t).survival_function()
            if previous is not None:
                assert np.all(survival >= previous - 1e-12)
            previous = survival


class TestGplDistribution:
    def test_single_amplitude_is_truncated_poisson(self):
        pool = PoolSpec(names=200)
        c = 2.3
        sched = make_schedule(GPL, (1,), (1.0,), [(c,)])
        dist = loss_distribution(pool, sched, 1.0)
        for n in (0, 1, 5, 40):
            assert dist.probs[n] == pytest.approx(
                math.exp(-c) * c ** n / math.factorial(n), rel=1e-12)

    def test_two_amplitudes_match_direct_convolution(self):
        pool = PoolSpec(names=30)
        lams = (0.8, 0.3)
        amps = (2, 5)
        sched = make_schedule(GPL, amps, (1.0,), [(lams[0],), (lams[1],)])
        dist = loss_distribution(pool, sched, 1.0)
        brute = _brute_force_capped(amps, lams, pool.names)
        np.testing.assert_allclose(dist.probs, brute, atol=1e-12)

    def test_cap_collects_tail_mass(self):
        pool = PoolSpec(names=5)
        sched = make_schedule(GPL, (2,), (1.0,), [(4.0,)])
        dist = loss_distribution(pool, sched, 1.0)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert dist.probs[5] > 0.5  # heavy tail lumped at the cap

    def test_term_structure_matches_single_time(self, gpl_schedule, pool):
        times = [0.5, 4.0, 10.0]
        rows = distribution_term_structure(pool, gpl_schedule, times)
        for row, t in zip(rows, times):
            np.testing.assert_allclose(row, panjer_distribution(pool, gpl_schedule, t).probs,
                                       atol=1e-12)

    @given(
        amps=st.lists(st.integers(min_value=1, max_value=8), min_size=1,
                      max_size=3, unique=True),
        lams=st.lists(st.floats(min_value=0.0, max_value=2.5), min_size=3, max_size=3),
        names=st.integers(min_value=5, max_value=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_panjer_equals_brute_force(self, amps, lams, names):
        amps = tuple(sorted(amps))
        lams = tuple(lams[: len(amps)])
        pool = PoolSpec(names=names)
        sched = make_schedule(GPL, amps, (1.0,), [(l,) for l in lams])
        brute = _brute_force_capped(amps, lams, names)
        for engine in (panjer_distribution, loss_distribution):
            np.testing.assert_allclose(engine(pool, sched, 1.0).probs, brute, atol=1e-12)


def _brute_force_capped(amplitudes, lams, names):
    """Direct convolution of per-mode Poisson-on-a-lattice distributions,
    truncated far enough out that the neglected tail is below 1e-16."""
    size = names + 1
    support = names + 200 * max(amplitudes)
    total = np.zeros(support)
    total[0] = 1.0
    for a, lam in zip(amplitudes, lams):
        pmf = np.zeros(support)
        for k in range(0, support // a + 1):
            if a * k >= support:
                break
            pmf[a * k] = math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) \
                if lam > 0 else (1.0 if k == 0 else 0.0)
        total = np.convolve(total, pmf)[:support]
    out = np.zeros(size)
    out[:names] = total[:names]
    out[names] = max(0.0, 1.0 - total[:names].sum())
    return out


def _single_time_engine(model):
    return panjer_distribution if model == GPL else expm_distribution


def _mean_with_terms(n_terms):
    """A Poisson mean whose uniformised series runs to exactly ``n_terms``
    terms: midway between the smallest means giving n_terms and n_terms + 1."""
    def smallest(n):  # bisection; the term count rises with the mean
        lo, hi = 0.0, float(n)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if loss_engine._poisson_weights(np.array([mid])).shape[1] < n:
                lo = mid
            else:
                hi = mid
        return hi
    return 0.5 * (smallest(n_terms) + smallest(n_terms + 1))


def _knot_times(schedule):
    """t = 0 twice, times between, at (twice) and beyond the knots."""
    k = schedule.knots
    return [0.0, 0.0, 0.4, k[0], k[0], 0.5 * (k[0] + k[1]), k[1], k[-2] + 0.3,
            k[-1], k[-1] + 0.75, k[-1] + 4.0, k[-1] + 4.0]


class TestUniformisedTermStructure:
    """The shared term-structure kernel against the single-time reference
    engines (Panjer for gpl, matrix exponentials for gpcl)."""

    @pytest.mark.parametrize("names", [60, 125, 250])  # amplitudes 79, 120 exceed 60
    @pytest.mark.parametrize("index", ["itraxx", "cdx"])
    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_rows_match_single_time_engines(self, model, index, names):
        with open(schedule_path(model, index)) as fh:
            schedule = IntensitySchedule.from_json(fh.read())
        pool = PoolSpec(names=names)
        times = _knot_times(schedule)
        rows = distribution_term_structure(pool, schedule, times)
        assert rows.shape == (len(times), names + 1)
        for row, t in zip(rows, times):
            exact = _single_time_engine(model)(pool, schedule, t).probs
            np.testing.assert_allclose(row, exact, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_long_series_of_a_scaled_schedule(self, model):
        with open(schedule_path(model, "itraxx")) as fh:
            base = IntensitySchedule.from_json(fh.read())
        schedule = base.with_cumulated(20.0 * np.asarray(base.cumulated))
        increments = np.diff(schedule.cumulated, axis=1, prepend=0.0).sum(axis=0)
        # a Poisson(40) tail below 1e-16 takes more than 60 jumps
        assert increments.max() > 40.0
        pool = PoolSpec()
        times = _knot_times(schedule)
        rows = distribution_term_structure(pool, schedule, times)
        for row, t in zip(rows, times):
            exact = _single_time_engine(model)(pool, schedule, t).probs
            np.testing.assert_allclose(row, exact, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n_terms", [64, 65, 129])  # one chunk, one term more, two more
    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_series_at_chunk_boundaries(self, model, n_terms, monkeypatch):
        mean = _mean_with_terms(n_terms)
        schedule = make_schedule(model, (1, 3), (1.0,), [(0.7 * mean,), (0.3 * mean,)])
        pool = PoolSpec()
        lengths, series_terms = [], loss_engine._series_terms

        def counted(transition, state, n):
            lengths.append(n)
            return series_terms(transition, state, n)

        monkeypatch.setattr(loss_engine, "_series_terms", counted)
        times = [0.1, 0.5, 0.9, 1.0]
        rows = distribution_term_structure(pool, schedule, times)
        assert lengths == [n_terms]
        for row, t in zip(rows, times):
            exact = _single_time_engine(model)(pool, schedule, t).probs
            np.testing.assert_allclose(row, exact, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_value_memory_does_not_grow_with_the_series(self, model):
        # one knot interval of Poisson mean 2e4: about 21,500 terms of 251
        # states, 43 MB if all were kept at once
        schedule = make_schedule(model, (1, 5), (1.0,), [(1.2e4,), (8e3,)])
        tracemalloc.start()
        try:
            distribution_term_structure(PoolSpec(names=250), schedule,
                                        np.linspace(0.05, 1.0, 20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_interval_with_zero_increment_holds_the_state(self, model):
        pool = PoolSpec(names=40)
        schedule = make_schedule(model, (1, 4, 55), (1.0, 2.0, 3.0),
                                 [(0.3, 0.3, 0.9), (0.05, 0.05, 0.1), (0.01, 0.01, 0.02)])
        times = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
        rows = distribution_term_structure(pool, schedule, times)
        for row, t in zip(rows, times):
            exact = _single_time_engine(model)(pool, schedule, t).probs
            np.testing.assert_allclose(row, exact, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(rows[1], rows[2])
        np.testing.assert_array_equal(rows[1], rows[3])

    def test_empty_and_invalid_times(self, gpl_schedule, pool):
        assert distribution_term_structure(pool, gpl_schedule, []).shape == (0, 126)
        with pytest.raises(LossEngineError):
            distribution_term_structure(pool, gpl_schedule, [2.0, 1.0])
        with pytest.raises(LossEngineError):
            distribution_term_structure(pool, gpl_schedule, [-0.5, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_times_rejected(self, gpl_schedule, pool, bad):
        with pytest.raises(LossEngineError, match="finite"):
            distribution_term_structure(pool, gpl_schedule, [1.0, bad])

    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_lost_mass_is_an_error(self, model, monkeypatch):
        # a Poisson tail cut at 1e-3 leaves rows short of one by 1e-6 to 6e-4
        with open(schedule_path(model, "itraxx")) as fh:
            schedule = IntensitySchedule.from_json(fh.read())
        monkeypatch.setattr(loss_engine, "_POISSON_TAIL", 1e-3)
        with pytest.raises(LossEngineError, match="worst row sum"):
            distribution_term_structure(PoolSpec(), schedule, [1.0, 5.0, 10.0])

    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_single_time_distributions_are_kernel_rows(self, model):
        with open(schedule_path(model, "cdx")) as fh:
            schedule = IntensitySchedule.from_json(fh.read())
        for names in (60, 125):
            pool = PoolSpec(names=names)
            for t in (0.0, 0.7, schedule.knots[0], 5.0, 12.0):
                row = distribution_term_structure(pool, schedule, [t])[0]
                np.testing.assert_array_equal(loss_distribution(pool, schedule, t).probs, row)


class TestDistributionTangents:
    """The kernel's tangent pass against block-triangular matrix
    exponentials, and its slices, zero rows and memory."""

    @staticmethod
    def awkward_schedule(model, names):
        # mode 3 has zero density over the first two intervals, no mode is
        # active over the second, and modes at and above the pool size jump
        # to the gpl cap or, under gpcl, never fire
        return make_schedule(model, (1, 3, names, names + 5), (1.0, 2.5, 4.0),
                             [(0.2, 0.2, 0.5), (0.0, 0.0, 0.1), (0.05, 0.05, 0.05),
                              (0.01, 0.01, 0.03)])

    @pytest.mark.parametrize("names", [12, 30])
    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_matches_block_expm(self, model, names):
        pool = PoolSpec(names=names)
        awkward = self.awkward_schedule(model, names)
        times = [0.0, 0.3, 1.0, 1.7, 2.5, 3.0, 4.0, 5.5]
        # 2: not in the schedule; names - 1, names, names + 9: below, at and
        # above the pool size
        amplitudes = (1, 2, 3, names - 1, names, names + 5, names + 9)
        # beside the awkward schedule, one mode alone asked about itself,
        # whose gpcl generator commutes with itself, and no mode at all
        requests = [(awkward, amplitudes)] + [
            (make_schedule(model, (b,), awkward.knots, [(0.2, 0.2, 0.5)]), (b,))
            for b in (1, names - 1, names, names + 9)] + [
            (awkward.with_cumulated(np.zeros_like(awkward.cumulated)), amplitudes)]
        for schedule, requested in requests:
            tangents = distribution_tangents(pool, schedule, times, requested,
                                             np.eye(names + 1))
            assert tangents.shape == (len(times), names + 1, len(requested), 3)
            for i, t in enumerate(times):
                for j, amplitude in enumerate(requested):
                    for k in range(3):
                        np.testing.assert_allclose(
                            tangents[i, :, j, k], expm_tangent(pool, schedule, t, amplitude, k),
                            rtol=0.0, atol=1e-10)
            # a rise after a time leaves the state at that time alone
            assert not tangents[2, :, :, 1:].any() and not tangents[0].any()
            # clusters larger than the pool never fire
            if model == GPCL and names + 9 in requested:
                assert not tangents[:, :, requested.index(names + 9)].any()

    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_long_series_matches_block_expm(self, model):
        # a Poisson mean of 90 over the second interval: 179 terms, summed in
        # chunks of projections, the last of them partial and holding 1e-4
        # of the Poisson mass at its end; 125 names keep the count off the cap
        pool = PoolSpec()
        schedule = make_schedule(model, (1, 2), (1.0, 2.0), [(0.5, 60.5), (0.2, 30.2)])
        times = [0.5, 1.0, 1.3, 2.0, 2.5]
        tangents = distribution_tangents(pool, schedule, times, (1, 2, 5), np.eye(126))
        for i, t in enumerate(times):
            for j, amplitude in enumerate((1, 2, 5)):
                for k in range(2):
                    np.testing.assert_allclose(
                        tangents[i, :, j, k], expm_tangent(pool, schedule, t, amplitude, k),
                        rtol=0.0, atol=1e-10)

    def test_gpl_mass_on_the_cap_matches_block_expm(self):
        # 12 names at a Poisson mean of about 30 by the last time: most of
        # the mass sits on the cap, where every capped shift stands still,
        # and the times past the last knot carry the last interval's share
        # beyond one
        pool = PoolSpec(names=12)
        schedule = make_schedule(GPL, (1, 3), (1.0, 2.0), [(6.0, 15.0), (2.0, 5.0)])
        times = [0.4, 1.0, 1.5, 2.0, 2.6, 3.4]
        assert distribution_term_structure(pool, schedule, times)[-1, -1] > 0.9
        amplitudes = (1, 2, 3, 11, 12, 15)
        tangents = distribution_tangents(pool, schedule, times, amplitudes, np.eye(13))
        for i, t in enumerate(times):
            for j, amplitude in enumerate(amplitudes):
                for k in range(2):
                    np.testing.assert_allclose(
                        tangents[i, :, j, k], expm_tangent(pool, schedule, t, amplitude, k),
                        rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("index", ["itraxx", "cdx"])
    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_closed_form_is_the_series_pass(self, model, index):
        # the series pass is exact wherever the closed form serves: every gpl
        # request, and a gpcl request about the schedule's one mode
        with open(schedule_path(model, index)) as fh:
            shipped = IntensitySchedule.from_json(fh.read())
        times = np.linspace(0.0, 12.0, 25)
        for names in (60, 125, 250):
            pool = PoolSpec(names=names)
            columns = np.random.default_rng(names).random((names + 1, 5))
            if model == GPL:
                requests = [(shipped, amplitudes)
                            for amplitudes in ((1,), (1, 11), tuple(range(1, names + 1)))]
            else:  # the shipped row of amplitude 1, alone or as amplitude 7's
                requests = [(IntensitySchedule(GPCL, (b,), shipped.knots, shipped.cumulated[:1]),
                             (b,)) for b in (1, 7)]
            for schedule, amplitudes in requests:
                closed = distribution_tangents(pool, schedule, times, amplitudes, columns)
                walk = list(loss_engine._interval_walk(pool, schedule, times))
                series = loss_engine._series_tangents(pool, schedule, times, walk, amplitudes,
                                                      columns)
                np.testing.assert_allclose(closed, series, rtol=0.0,
                                           atol=1e-12 * np.abs(series).max())

    def test_gpcl_series_serves_two_active_modes(self, monkeypatch):
        # a second mode, active over a late interval or only over the first,
        # by a rise of 1e-16 that dips back by roundoff to a last value of
        # zero, does not commute with the first: every request takes the series
        with open(schedule_path(GPCL, "itraxx")) as fh:
            shipped = IntensitySchedule.from_json(fh.read())
        pool, times = PoolSpec(), np.linspace(0.0, 12.0, 25)
        columns = np.random.default_rng(3).random((126, 5))
        for second in ([0.0, 0.0, 0.05, 0.1], [1e-16, 0.0, 0.0, 0.0]):
            schedule = IntensitySchedule(GPCL, (1, 7), shipped.knots,
                                         [shipped.cumulated[0], second])
            walk = list(loss_engine._interval_walk(pool, schedule, times))
            for amplitudes in ((1,), (7,), (1, 7)):
                np.testing.assert_array_equal(
                    distribution_tangents(pool, schedule, times, amplitudes, columns),
                    loss_engine._series_tangents(pool, schedule, times, walk, amplitudes,
                                                 columns))
        # a mode of zero density is no active mode: amplitude 1 alone runs no series
        schedule = IntensitySchedule(GPCL, (1, 7), shipped.knots,
                                     [shipped.cumulated[0], [0.0] * 4])
        monkeypatch.setattr(loss_engine, "_series_tangents", None)  # a call fails
        assert distribution_tangents(pool, schedule, times, (1,), columns).any()

    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_mass_has_zero_derivative(self, model):
        with open(schedule_path(model, "itraxx")) as fh:
            schedule = IntensitySchedule.from_json(fh.read())
        times = np.linspace(0.0, 11.0, 23)
        tangents = distribution_tangents(PoolSpec(), schedule, times, range(1, 126),
                                         np.ones((126, 1)))
        np.testing.assert_allclose(tangents, 0.0, atol=1e-12)

    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_slice_of_a_wider_pass_is_its_own_pass(self, model):
        with open(schedule_path(model, "cdx")) as fh:
            schedule = IntensitySchedule.from_json(fh.read())
        pool = PoolSpec()
        times = np.linspace(0.0, 10.5, 31)
        columns = np.random.default_rng(5).random((126, 6))
        everything = distribution_tangents(pool, schedule, times, range(1, 126), columns)
        amplitudes = schedule.amplitudes[:2] + (50,) + schedule.amplitudes[2:]
        own = distribution_tangents(pool, schedule, times, amplitudes, columns)
        np.testing.assert_allclose(everything[:, :, [a - 1 for a in amplitudes]], own,
                                   rtol=1e-12, atol=1e-12 * np.abs(own).max())

    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_values_come_from_the_cache_untouched(self, model, pool):
        with open(schedule_path(model, "itraxx")) as fh:
            schedule = IntensitySchedule.from_json(fh.read())
        times = np.linspace(0.0, 10.0, 21)
        rows = distribution_term_structure(pool, schedule, times)
        info = loss_engine._interval_rows.cache_info()
        distribution_tangents(pool, schedule, times, (1, 2), np.eye(126))
        assert loss_engine._interval_rows.cache_info().misses == info.misses
        np.testing.assert_array_equal(distribution_term_structure(pool, schedule, times), rows)

    def test_memory_does_not_grow_with_the_series(self):
        # one gpcl knot interval of Poisson mean 2e3: about 2,400 terms, whose
        # tangents over every amplitude would take about 300 MB if kept
        pool = PoolSpec()
        schedule = make_schedule(GPCL, (1, 5), (1.0,), [(1.2e3,), (0.8e3,)])
        times = np.linspace(0.05, 1.0, 20)
        columns = np.ones((126, 8))
        distribution_term_structure(pool, schedule, times)
        tracemalloc.start()
        try:
            distribution_tangents(pool, schedule, times, range(1, 126), columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    @staticmethod
    def adjoint_against_forward(pool, schedule, times, amplitudes, columns, weights):
        walk = list(loss_engine._interval_walk(pool, schedule, times))
        forward = np.einsum("tcf,tcak->fak", weights, loss_engine._series_tangents(
            pool, schedule, times, walk, tuple(amplitudes), columns))
        adjoint = loss_engine._series_adjoints(pool, schedule, times, walk, tuple(amplitudes),
                                               columns, weights)
        assert adjoint.shape == forward.shape
        np.testing.assert_allclose(adjoint, forward, rtol=0.0,
                                   atol=1e-12 * np.abs(forward).max())
        return adjoint

    @pytest.mark.parametrize("names", [12, 30])
    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_adjoint_matches_block_expm(self, model, names):
        # the awkward schedule's inactive interval, zero-density mode,
        # amplitudes at and above the pool size, a time at zero and times
        # past the last knot, through functionals that each read a few rows
        pool = PoolSpec(names=names)
        schedule = self.awkward_schedule(model, names)
        times = np.array([0.0, 0.3, 1.0, 1.7, 2.5, 3.0, 4.0, 5.5])
        amplitudes = (1, 2, 3, names - 1, names, names + 5, names + 9)
        rng = np.random.default_rng(names)
        columns = rng.random((names + 1, 3))
        weights = rng.standard_normal((len(times), 3, 5))
        weights[4:, :, 1] = 0.0  # a functional that stops reading at 1.7 years
        weights[:, :, 2] = 0.0  # and one that reads nothing
        walk = list(loss_engine._interval_walk(pool, schedule, times))
        adjoint = loss_engine._series_adjoints(pool, schedule, times, walk, amplitudes,
                                               columns, weights)
        exact = np.array([[[sum(weights[i][:, f] @ (columns.T @ expm_tangent(
            pool, schedule, t, amplitude, k)) for i, t in enumerate(times))
            for k in range(3)] for amplitude in amplitudes] for f in range(5)])
        np.testing.assert_allclose(adjoint, exact, rtol=0.0, atol=1e-10)
        assert not adjoint[2].any() and not adjoint[1, :, 2].any()

    @pytest.mark.parametrize("index", ["itraxx", "cdx"])
    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_adjoint_is_the_forward_pass(self, model, index):
        # the shipped schedules at three pool sizes, for every amplitude,
        # every third one and the schedule's own, against the forward
        # tangents contracted with the same weights
        with open(schedule_path(model, index)) as fh:
            schedule = IntensitySchedule.from_json(fh.read())
        times = np.linspace(0.0, 10.5, 43)
        for names in (60, 125, 250):
            pool = PoolSpec(names=names)
            rng = np.random.default_rng(names)
            columns = rng.random((names + 1, 6))
            weights = rng.standard_normal((len(times), 6, 9))
            weights[20:, :, :4] = 0.0
            for amplitudes in (range(1, names + 1), range(1, names + 1, 3),
                               schedule.amplitudes):
                self.adjoint_against_forward(pool, schedule, times, amplitudes, columns,
                                             weights)

    def test_adjoint_memory_does_not_grow_with_the_series(self):
        # the series of test_memory_does_not_grow_with_the_series, run
        # backward: its terms are made again chunk by chunk, not kept
        pool = PoolSpec()
        schedule = make_schedule(GPCL, (1, 5), (1.0,), [(1.2e3,), (0.8e3,)])
        times = np.linspace(0.05, 1.0, 20)
        columns, weights = np.ones((126, 8)), np.ones((20, 8, 50))
        distribution_term_structure(pool, schedule, times)
        walk = list(loss_engine._interval_walk(pool, schedule, times))
        tracemalloc.start()
        try:
            loss_engine._series_adjoints(pool, schedule, times, walk, tuple(range(1, 126)),
                                         columns, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_closed_form_memory_is_bounded_by_its_result(self):
        # full rows of every amplitude: the column differences of all
        # amplitudes at once would take 3.1 times the 38 MiB result
        with open(schedule_path(GPL, "itraxx")) as fh:
            schedule = IntensitySchedule.from_json(fh.read())
        pool, times = PoolSpec(names=250), np.linspace(0.5, 10.0, 20)
        distribution_term_structure(pool, schedule, times)
        tracemalloc.start()
        try:
            tangents = distribution_tangents(pool, schedule, times, range(1, 251), np.eye(251))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * tangents.nbytes

    def test_zero_and_empty_times(self, gpl_schedule, pool):
        columns = np.eye(126)
        assert distribution_tangents(pool, gpl_schedule, [], (1,), columns).shape == (
            0, 126, 1, 4)
        assert not distribution_tangents(pool, gpl_schedule, [0.0, 0.0], (1, 3),
                                         columns).any()

    def test_invalid_requests_rejected(self, gpl_schedule, pool):
        with pytest.raises(LossEngineError, match="one per count"):
            distribution_tangents(pool, gpl_schedule, [1.0], (1,), np.eye(125))
        with pytest.raises(LossEngineError, match="non-decreasing"):
            distribution_tangents(pool, gpl_schedule, [2.0, 1.0], (1,), np.eye(126))
        for amplitudes in ((), (0, 1)):
            with pytest.raises(LossEngineError, match="at least 1"):
                distribution_tangents(pool, gpl_schedule, [1.0], amplitudes, np.eye(126))

    @pytest.mark.parametrize("bad", [1.7, 2.0, True, "2"])
    def test_non_integer_amplitudes_rejected(self, bad, gpl_schedule, pool):
        # int() would take 1.7 for amplitude 1 and give its tangents
        with pytest.raises(LossEngineError, match=f"must be integers, got {bad!r}"):
            distribution_tangents(pool, gpl_schedule, [1.0], (1, bad), np.eye(126))
        np.testing.assert_array_equal(
            distribution_tangents(pool, gpl_schedule, [1.0], (np.int64(1), np.uint8(3)),
                                  np.eye(126)),
            distribution_tangents(pool, gpl_schedule, [1.0], (1, 3), np.eye(126)))


class TestTimeZero:
    """A time at zero walks like any other: it lies in the first knot
    interval at offset zero, so its row is the start state e_0 bit for bit,
    its projection is columns[0] and both tangent passes give it zero."""

    @staticmethod
    def _schedule(kind):
        with open(schedule_path(GPL if kind == "gpl" else GPCL, "itraxx")) as fh:
            shipped = IntensitySchedule.from_json(fh.read())
        if kind == "gpl":
            return shipped
        modes = 1 if kind == "gpcl, one mode" else 2
        return IntensitySchedule(GPCL, shipped.amplitudes[:modes], shipped.knots,
                                 shipped.cumulated[:modes])

    @pytest.mark.parametrize("times", [[0.0], [0.0, 0.0, 0.5, 1.0, 7.0, 12.0], []])
    @pytest.mark.parametrize("kind", ["gpl", "gpcl, one mode", "gpcl, two modes"])
    def test_rows_and_tangents_at_zero(self, kind, times):
        schedule, pool = self._schedule(kind), PoolSpec()
        times, zeros = np.array(times), times.count(0.0)
        columns = np.random.default_rng(11).random((126, 4))
        rows = distribution_term_structure(pool, schedule, times)
        projected = distribution_term_structure(pool, schedule, times, columns)
        assert rows.shape == (len(times), 126) and projected.shape == (len(times), 4)
        np.testing.assert_array_equal(rows[:zeros], np.eye(126)[[0] * zeros])
        np.testing.assert_array_equal(projected[:zeros], columns[[0] * zeros])
        amplitudes = (1, 7)
        tangents = distribution_tangents(pool, schedule, times, amplitudes, columns)
        assert tangents.shape == (len(times), 4, 2, 4)
        assert not tangents[:zeros].any()
        if not zeros:
            return
        # the positive times' rows are those of a call without the zeros
        np.testing.assert_allclose(rows[zeros:], distribution_term_structure(
            pool, schedule, times[zeros:]), rtol=1e-14, atol=0.0)
        # both passes, whichever the dispatch takes: the series pass is exact
        # for every request, the closed form at t = 0 for every request too
        walk = list(loss_engine._interval_walk(pool, schedule, times))
        assert walk[0][0] == 0 and walk[0][1] >= zeros  # the first interval holds them
        for tangent_pass in (loss_engine._commuting_tangents, loss_engine._series_tangents):
            passed = tangent_pass(pool, schedule, times, walk, amplitudes, columns)
            assert not passed[:zeros].any()


class TestJumpTableCache:
    """The jump table of a pool size is the one cached copy of the binomial
    ratios."""

    def test_bounded_and_values_unchanged(self):
        table = loss_engine._jump_table
        first = {names: [part.copy() for part in table(names)] for names in range(1, 6)}
        for names in range(1, 48):
            table(names)
        info = table.cache_info()
        assert info.currsize <= info.maxsize == loss_engine._JUMP_TABLE_ENTRIES
        for names, parts in first.items():  # evicted and made again
            for part, value in zip(table(names), parts):
                np.testing.assert_array_equal(part, value)
        for part in table(47):  # one array serves every caller
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0, 0] = 0.5

    @pytest.mark.parametrize("names", [47, 60, 125, 250])
    def test_exact_ratios(self, names):
        chances = loss_engine._jump_table(names)[0]
        exact = [[math.comb(names - y, a) / math.comb(names, a) for y in range(names + 1)]
                 for a in range(1, names + 1)]
        np.testing.assert_allclose(chances[1:-1], exact, rtol=1e-12, atol=0.0)
        assert (chances[0] == 1.0).all()  # amplitude zero misses everyone
        assert not chances[-1].any()  # amplitudes above the pool size never fire

    def test_exact_ratios_at_a_thousand_names(self):
        # log 1000! ~ 5912 carries an ulp of 9e-13, so the log-space ratios
        # stray up to 3.8e-12 from the exact ones here
        names, amplitudes = 1000, [1, 2, 10, 100, 500, 999, 1000]
        chances = loss_engine._jump_table(names)[0][amplitudes]
        exact = [[math.comb(names - y, a) / math.comb(names, a) for y in range(names + 1)]
                 for a in amplitudes]
        np.testing.assert_allclose(chances, exact, rtol=5e-12, atol=0.0)

    def test_memory_at_a_thousand_names(self):
        # the per-amplitude cache these tables replaced held 1024 pairs of
        # (2, 1001) arrays at 1000 names, 33.4 MB under tracemalloc
        table = loss_engine._jump_table
        table.cache_clear()
        loss_engine._log_factorials(1001)
        tracemalloc.start()
        try:
            for names in range(995, 1001):
                table(names)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.cache_info().currsize == loss_engine._JUMP_TABLE_ENTRIES
        assert current <= 24.5e6 and peak <= 33.4e6, (current, peak)


class TestNonFiniteTimes:
    """A non-finite time is an error of every engine, not a point mass."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_aggregate_cumulated(self, gpl_schedule, bad):
        with pytest.raises(LossEngineError, match="finite"):
            gpl_schedule.aggregate_cumulated(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_single_time_engines(self, gpl_schedule, gpcl_schedule, bad):
        pool = PoolSpec(names=20)
        with pytest.raises(LossEngineError, match="finite"):
            loss_distribution(pool, gpl_schedule, bad)
        with pytest.raises(LossEngineError, match="finite"):
            loss_distribution(pool, gpcl_schedule, bad)


class TestPanjerRecursion:
    def test_zero_intensity_is_point_mass(self):
        probs = compound_poisson_panjer((1, 3), (0.0, 0.0), 10)
        assert probs[0] == 1.0
        assert probs[1:].sum() == 0.0

    def test_negative_intensity_rejected(self):
        with pytest.raises(LossEngineError):
            compound_poisson_panjer((1,), (-0.1,), 5)


class TestLossDistribution:
    def test_normalisation_enforced(self):
        with pytest.raises(LossEngineError):
            LossDistribution(time=1.0, probs=np.array([0.5, 0.4]))

    def test_negative_mass_beyond_clamp_rejected(self):
        with pytest.raises(LossEngineError):
            LossDistribution(time=1.0, probs=np.array([1.0 + 1e-6, -1e-6]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_probabilities_rejected(self, bad):
        with pytest.raises(LossEngineError, match="finite"):
            LossDistribution(time=1.0, probs=np.array([1.0, bad]))
        with pytest.raises(LossEngineError, match="finite"):
            LossDistribution(time=1.0, probs=np.full(3, bad))

    def test_tiny_negatives_clamped(self):
        dist = LossDistribution(time=1.0, probs=np.array([1.0 + 1e-14, -1e-14]))
        assert dist.probs[1] == 0.0
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_empty_vector_rejected(self):
        # numpy's min() of no entries would raise its own ValueError
        with pytest.raises(LossEngineError, match="probability vector is empty"):
            LossDistribution(time=1.0, probs=[])

    def test_expected_count(self):
        dist = LossDistribution(time=1.0, probs=np.array([0.25, 0.5, 0.25]))
        assert dist.expected_count() == pytest.approx(1.0)

    def test_probabilities_are_read_only(self, pool, gpl_schedule, gpcl_schedule):
        given = np.array([0.25, 0.5, 0.25])
        kept = LossDistribution(time=1.0, probs=given)
        clamped = LossDistribution(time=1.0, probs=np.array([1.0 + 1e-14, -1e-14]))
        for dist in (loss_distribution(pool, gpl_schedule, 5.0),
                     loss_distribution(pool, gpcl_schedule, 5.0), clamped, kept):
            before = dist.expected_count()
            with pytest.raises(ValueError, match="read-only"):
                dist.probs[0] = 7.0
            assert dist.expected_count() == before
        given[0] = 7.0  # the caller's array stays its own
        assert kept.probs[0] == 0.25


class TestCountingIntensity:
    def test_all_strategies_agree_with_no_defaults(self, pool):
        rates = {1: 2e-3, 3: 1e-6, 125: 5e-8}
        base = [counting_intensity(s, pool, rates, 0) for s in STRATEGIES]
        assert max(base) == pytest.approx(min(base), rel=1e-12)

    def test_single_name_strategy_is_linear(self, pool):
        rates = {1: 1e-3, 7: 1e-9}
        h0 = counting_intensity("s1", pool, rates, 0)
        for c in (1, 30, 77, 125):
            assert counting_intensity("s1", pool, rates, c) == pytest.approx(
                h0 * (1 - c / 125), rel=1e-12, abs=1e-15)

    def test_cluster_strategy_vanishes_at_full_default(self, pool):
        rates = {1: 1e-3, 3: 1e-6}
        assert counting_intensity("s2", pool, rates, 125) == 0.0

    def test_capped_strategy_hand_computed(self):
        pool = PoolSpec(names=5)
        rates = {2: 0.1}
        # C(5,2) * 0.1 = 1.0 aggregate rate, amplitude contribution min(2, 5-c)
        assert counting_intensity("s0", pool, rates, 0) == pytest.approx(2.0)
        assert counting_intensity("s0", pool, rates, 3) == pytest.approx(2.0)
        assert counting_intensity("s0", pool, rates, 4) == pytest.approx(1.0)
        assert counting_intensity("s0", pool, rates, 5) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
    def test_bad_rate_rejected(self, bad):
        with pytest.raises(LossEngineError, match="amplitude 1"):
            counting_intensity("s2", PoolSpec(10), {1: bad}, 0)

    @pytest.mark.parametrize("key", [2.5, 2.0, True, "3", 0, -2, None])
    def test_bad_amplitude_key_rejected(self, key):
        # int() would read 2.5 as 2, True as 1 and '3' as 3, and 0 and -2
        # would add nothing
        message = f"integers of at least 1, got {re.escape(repr(key))}$"
        with pytest.raises(LossEngineError, match=message):
            counting_intensity("repeated", PoolSpec(10), {4: 1e-3, key: 1e-3}, 0)

    def test_numpy_and_oversized_amplitude_keys(self):
        # a numpy integer is an amplitude; one above the pool size adds nothing
        pool = PoolSpec(10)
        for strategy in STRATEGIES:
            assert counting_intensity(strategy, pool, {np.int64(2): 1e-3, 11: 5.0}, 3) == \
                counting_intensity(strategy, pool, {2: 1e-3}, 3)

    def test_out_of_range_count_rejected(self, pool):
        with pytest.raises(LossEngineError):
            counting_intensity("s1", pool, {1: 1e-3}, 126)
        with pytest.raises(LossEngineError):
            counting_intensity("bogus", pool, {1: 1e-3}, 0)

    @pytest.mark.parametrize("count", [2.5, 2.0, True, None])
    def test_non_integer_count_rejected(self, pool, count):
        with pytest.raises(LossEngineError, match="count must be an integer"):
            counting_intensity("s1", pool, {1: 1e-3}, count)

    def test_numpy_integer_count_accepted(self, pool):
        assert counting_intensity("s1", pool, {1: 1e-3}, np.int64(3)) == \
            counting_intensity("s1", pool, {1: 1e-3}, 3)

    @given(
        rates=st.dictionaries(
            st.integers(min_value=1, max_value=40),
            st.floats(min_value=0.0, max_value=1e-2),
            min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_non_increasing_in_count(self, rates):
        pool = PoolSpec(names=40)
        for strategy in STRATEGIES:
            values = [counting_intensity(strategy, pool, rates, c)
                      for c in range(41)]
            diffs = np.diff(values)
            assert np.all(diffs <= 1e-9 * max(1.0, max(values)))


class TestJumpTables:
    """One description of the generator: each amplitude's jump rate and
    destination per state, from which the transition matrix and the
    tangents' generator columns are both built."""

    @staticmethod
    def random_shares(rng, names):
        amplitudes = sorted({int(a) for a in rng.integers(1, names + 10, size=rng.integers(1, 9))})
        shares = rng.random(len(amplitudes))
        return list(zip(amplitudes, (shares / shares.sum()).tolist()))

    @pytest.mark.parametrize("names", [1, 5, 60, 125, 250])
    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_transition_matrix_is_the_dense_construction(self, model, names):
        rng = np.random.default_rng(names)
        for _ in range(10):
            shares = self.random_shares(rng, names)
            p = loss_engine._unit_transition_matrix(names, model, shares)
            np.testing.assert_array_max_ulp(p, dense_transition_matrix(names, model, shares),
                                            maxulp=1)
            expected = np.eye(names + 1) + sum(s * unit_generator(model, names, a)
                                               for a, s in shares)
            np.testing.assert_allclose(p, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("names", [1, 12, 125])
    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_generator_columns_are_the_dense_ones_bit_for_bit(self, model, names):
        amplitudes = tuple(range(1, names + 3))
        columns = loss_engine._stacked_generators(names, model, amplitudes)
        rng = np.random.default_rng(7)
        for scale in (1.0, 1e-300, 1e10):
            x = scale * rng.random(names + 1)
            got = columns(x)
            np.testing.assert_array_equal(got, dense_generator_columns(names, model, amplitudes, x))
            for j, a in enumerate(amplitudes):
                expected = unit_generator(model, names, a) @ x
                np.testing.assert_allclose(got[:, j], expected, rtol=0.0,
                                           atol=1e-12 * max(np.abs(x).max(), 1e-300))

    def test_tables_are_bounded_and_read_only(self):
        table = loss_engine._jump_table
        table.cache_clear()
        for names in range(1, 48):
            for model in MODEL_KINDS:
                loss_engine._jump_moves(names, model, range(1, names + 2))
        info = table.cache_info()
        assert info.misses == 47  # one table per pool size, for both models
        assert info.currsize <= info.maxsize == loss_engine._JUMP_TABLE_ENTRIES
        assert not any(part.flags.writeable for part in table(47))

    @pytest.mark.parametrize("names", [1, 12, 125])
    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_moves_read_the_table(self, model, names):
        amplitudes = list(range(1, names + 4))
        chances, cells = loss_engine._jump_moves(names, model, amplitudes)
        n, states = names + 1, np.arange(names + 1)
        assert chances.shape == cells.shape == (len(amplitudes), 2, n)
        for j, a in enumerate(amplitudes):
            jump = (loss_engine._jump_table(names)[0][min(a, n)] if model == GPCL
                    else (states < names).astype(float))
            np.testing.assert_array_equal(chances[j], [jump, 1.0 - jump])
            np.testing.assert_array_equal(cells[j], [np.minimum(states + a, names) * n + states,
                                                     states * n + states])
        if model == GPCL:  # above the pool size: no jump
            assert not chances[names:, 0].any()


class TestProjectedRows:
    """``distribution_term_structure`` with ``columns``: the rows projected
    onto the columns interval by interval, renormalised by a column of ones."""

    @pytest.mark.parametrize("names", [1, 60, 125, 250])
    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_matches_rows_times_columns(self, model, names):
        with open(schedule_path(model, "itraxx")) as fh:
            schedule = IntensitySchedule.from_json(fh.read())
        pool = PoolSpec(names=names)
        times = _knot_times(schedule)
        rng = np.random.default_rng(names)
        columns = np.column_stack([np.arange(names + 1) / names, rng.random((names + 1, 4))])
        rows = distribution_term_structure(pool, schedule, times)
        projected = distribution_term_structure(pool, schedule, times, columns)
        assert projected.shape == (len(times), columns.shape[1])
        # within a few roundings of the sums of non-negative terms
        np.testing.assert_array_less(np.abs(projected - rows @ columns),
                                     2e-15 * (rows @ columns) + 1e-300)
        np.testing.assert_array_equal(projected[:2], columns[[0, 0]])  # t = 0: no defaults
        # a second call is served by the cache with the same bits
        np.testing.assert_array_equal(
            distribution_term_structure(pool, schedule, times, columns), projected)

    @pytest.mark.parametrize("model", [GPL, GPCL])
    def test_lost_mass_is_an_error(self, model, monkeypatch):
        with open(schedule_path(model, "itraxx")) as fh:
            schedule = IntensitySchedule.from_json(fh.read())
        monkeypatch.setattr(loss_engine, "_POISSON_TAIL", 1e-3)
        with pytest.raises(LossEngineError, match="worst row sum"):
            distribution_term_structure(PoolSpec(), schedule, [1.0, 5.0, 10.0],
                                        np.ones((126, 2)))

    @pytest.mark.parametrize("columns, message", [
        (np.ones((125, 2)), "126 rows, one per count, got 125"),
        (np.ones(126), "two-dimensional table of numbers"),
        (np.ones((126, 2, 1)), "two-dimensional table of numbers"),
        ([["a"] * 2] * 126, "two-dimensional table of numbers"),
        (np.full((126, 2), np.nan), "finite"),
        (np.insert(np.ones((125, 2)), 3, np.inf, axis=0), "finite"),
    ])
    def test_bad_columns_rejected(self, gpl_schedule, pool, columns, message):
        with pytest.raises(LossEngineError, match=message):
            distribution_term_structure(pool, gpl_schedule, [1.0, 2.0], columns)
        with pytest.raises(LossEngineError, match=message):
            distribution_tangents(pool, gpl_schedule, [1.0, 2.0], (1,), columns)
