import bisect
import copy
import json
import math
import pickle

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
    distribution_term_structure,
    gpcl_distribution,
    gpl_distribution,
    log_binomial,
)

from reference_engines import (
    compound_poisson_panjer,
    cumulated_generator,
    expm_distribution,
    matrix_exponential,
    panjer_distribution,
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
        dist = gpcl_distribution(pool, zero_schedule(), 1.0)
        assert dist.probs[0] == 1.0
        assert dist.probs[1:].max() == 0.0

    def test_whole_pool_amplitude_two_state_chain(self):
        c = 0.3
        pool = PoolSpec(names=125)
        sched = make_schedule(GPCL, (125,), (1.0,), [(c,)])
        dist = gpcl_distribution(pool, sched, 1.0)
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
            dist = gpcl_distribution(pool, sched, t)
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
            survival = gpcl_distribution(pool, gpcl_schedule, t).survival_function()
            if previous is not None:
                assert np.all(survival >= previous - 1e-12)
            previous = survival


class TestGplDistribution:
    def test_single_amplitude_is_truncated_poisson(self):
        pool = PoolSpec(names=200)
        c = 2.3
        sched = make_schedule(GPL, (1,), (1.0,), [(c,)])
        dist = gpl_distribution(pool, sched, 1.0)
        for n in (0, 1, 5, 40):
            assert dist.probs[n] == pytest.approx(
                math.exp(-c) * c ** n / math.factorial(n), rel=1e-12)

    def test_two_amplitudes_match_direct_convolution(self):
        pool = PoolSpec(names=30)
        lams = (0.8, 0.3)
        amps = (2, 5)
        sched = make_schedule(GPL, amps, (1.0,), [(lams[0],), (lams[1],)])
        dist = gpl_distribution(pool, sched, 1.0)
        brute = _brute_force_capped(amps, lams, pool.names)
        np.testing.assert_allclose(dist.probs, brute, atol=1e-12)

    def test_cap_collects_tail_mass(self):
        pool = PoolSpec(names=5)
        sched = make_schedule(GPL, (2,), (1.0,), [(4.0,)])
        dist = gpl_distribution(pool, sched, 1.0)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert dist.probs[5] > 0.5  # heavy tail lumped at the cap

    def test_gpcl_schedule_rejected(self, gpcl_schedule, pool):
        with pytest.raises(LossEngineError):
            gpl_distribution(pool, gpcl_schedule, 1.0)

    def test_gpl_schedule_rejected_by_gpcl_engine(self, gpl_schedule, pool):
        with pytest.raises(LossEngineError):
            gpcl_distribution(pool, gpl_schedule, 1.0)

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
        for engine in (panjer_distribution, gpl_distribution):
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
        engine = gpl_distribution if model == GPL else gpcl_distribution
        for names in (60, 125):
            pool = PoolSpec(names=names)
            for t in (0.0, 0.7, schedule.knots[0], 5.0, 12.0):
                row = distribution_term_structure(pool, schedule, [t])[0]
                np.testing.assert_array_equal(engine(pool, schedule, t).probs, row)


class TestBinomialRatioCache:
    def test_bounded_and_values_unchanged(self):
        ratio = loss_engine._binomial_ratio_column
        keys = [(names, a) for names in range(1, 48) for a in range(1, names + 1)]
        assert len(keys) >= 1100
        first = {key: ratio(*key).copy() for key in keys[:50]}
        for key in keys:
            ratio(*key)
        info = ratio.cache_info()
        assert 1024 <= info.maxsize and info.currsize <= info.maxsize
        for key, value in first.items():
            np.testing.assert_array_equal(ratio(*key), value)
        names, a = keys[-1]
        exact = [math.comb(names - y, a) / math.comb(names, a) for y in range(names + 1)]
        np.testing.assert_allclose(ratio(names, a), exact, rtol=1e-12, atol=0.0)
        assert not ratio(names, a).flags.writeable  # one array serves every caller


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
            gpl_distribution(pool, gpl_schedule, bad)
        with pytest.raises(LossEngineError, match="finite"):
            gpcl_distribution(pool, gpcl_schedule, bad)


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

    def test_expected_count(self):
        dist = LossDistribution(time=1.0, probs=np.array([0.25, 0.5, 0.25]))
        assert dist.expected_count() == pytest.approx(1.0)

    def test_probabilities_are_read_only(self, pool, gpl_schedule, gpcl_schedule):
        given = np.array([0.25, 0.5, 0.25])
        kept = LossDistribution(time=1.0, probs=given)
        clamped = LossDistribution(time=1.0, probs=np.array([1.0 + 1e-14, -1e-14]))
        for dist in (gpl_distribution(pool, gpl_schedule, 5.0),
                     gpcl_distribution(pool, gpcl_schedule, 5.0), clamped, kept):
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

    def test_out_of_range_count_rejected(self, pool):
        with pytest.raises(LossEngineError):
            counting_intensity("s1", pool, {1: 1e-3}, 126)
        with pytest.raises(LossEngineError):
            counting_intensity("bogus", pool, {1: 1e-3}, 0)

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
