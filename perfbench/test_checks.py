"""Each of the benchmark's checks passes the program's answer and rejects a
wrong one.

    python3 -m pytest perfbench -q
"""
import numpy as np
import pytest

import oracle
import workloads
from clusterloss import calibrator, simulator
from clusterloss.calibrator import CalibrationResult, PanelPricer
from clusterloss.loss_engine import PoolSpec, distribution_term_structure
from run import Ops


@pytest.fixture(scope="module")
def curve():
    return workloads.load_curve()


@pytest.fixture(scope="module")
def itraxx():
    return workloads.load_panel("itraxx")


def shifted(rows):
    """Every probability moved up by one count; the top count absorbs."""
    out = np.zeros_like(rows)
    out[:, 1:] = rows[:, :-1]
    out[:, -1] += rows[:, -1]
    return out


@pytest.mark.parametrize("model", ["gpcl", "gpl"])
def test_distribution_shifted_by_one_count_is_rejected(model, curve, itraxx):
    pool = PoolSpec()
    schedule = workloads.load_schedule(model, "itraxx")
    panel_oracle = oracle.PanelOracle(itraxx, curve)
    expected_rows = oracle.count_rows(schedule, pool.names, panel_oracle.times)
    rows = distribution_term_structure(pool, schedule, panel_oracle.times)

    pricer = PanelPricer(itraxx, curve, pool)
    expected = panel_oracle.values(expected_rows, pool.names, pool.recovery)
    widths = panel_oracle.widths()
    assert oracle.check_values(model, pricer.instruments, pricer.model_values(schedule),
                               expected, widths) == []
    wrong = panel_oracle.values(shifted(rows), pool.names, pool.recovery)
    wrong_values = [wrong[oracle.instrument_key(ins)] for ins in pricer.instruments]
    assert oracle.check_values(model, pricer.instruments, wrong_values, expected, widths) != []


def test_calibration_reporting_a_bumped_schedule_is_rejected():
    work = workloads.Calibrate(seed=3, jobs=1)
    pricer = PanelPricer(work.panel, work.curve, work.pool)
    schedule = workloads.load_schedule("gpcl", "itraxx")
    objective, errors = pricer.objective(schedule)

    def result(reported):
        return CalibrationResult(
            schedule=reported, instruments=list(pricer.instruments),
            model_values=pricer.model_values(schedule), errors=errors, objective=objective,
            iterations=[{"step": 1, "objective": 2 * objective},
                        {"step": 2, "objective": objective}])

    work.results = [result(schedule)]
    assert work.check() == []
    work.results = [result(workloads.bumped(schedule, 2, 1, 0.02))]
    assert work.check() != []


def test_risk_check_rejects_a_bumped_base_repricing():
    work = workloads.Risk(seed=4, jobs=1)
    work.cases = {case: c for case, c in work.cases.items() if case == ("gpl", "itraxx")}
    ops = Ops()
    work.round(ops, 0)
    assert ops.failed == 0
    assert work.check() == []
    base = work.cases[("gpl", "itraxx")]["base"]
    wrong = work.pricers["itraxx"].model_values(workloads.bumped(base, 0, 3, 0.02))
    work.first[("gpl", "itraxx")]["base"] = wrong
    assert work.check() != []


def test_histogram_from_the_wrong_strategy_is_rejected():
    """s1 (names default once) in place of s2 (clusters of survivors only) on
    the gpcl schedule, at a path count well below a run's."""
    pool = PoolSpec()
    schedule = workloads.load_schedule("gpcl", "itraxx")
    times = schedule.knots
    exact = oracle.count_rows(schedule, pool.names, times)
    n_paths = 20000

    def histogram(strategy):
        batch = simulator.empirical_distributions(pool, schedule, strategy, times, n_paths, seed=11)
        return np.rint(np.stack([e.distribution.probs for e in batch]) * n_paths).astype(np.int64)

    assert oracle.check_histogram("s2", histogram("s2"), exact, times, pool.recovery) == []
    assert oracle.check_histogram("s1", histogram("s1"), exact, times, pool.recovery) != []


def test_tracer_restores_the_program():
    import tracing

    originals = (calibrator.greedy_calibrate, PanelPricer.__dict__["model_values"],
                 simulator.empirical_distributions)
    tracer = tracing.Tracer(".")
    tracer.install()
    assert calibrator.greedy_calibrate is not originals[0]
    tracer.uninstall()
    assert (calibrator.greedy_calibrate, PanelPricer.__dict__["model_values"],
            simulator.empirical_distributions) == originals
