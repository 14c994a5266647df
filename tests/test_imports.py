"""What a fresh interpreter loads: pricing, distributions, the dist command,
simulation, intensity fits and a serial calibration run without scipy and
without multiprocessing, and only a calibration loads logging. And what the
package exports."""
import json
import os
import subprocess
import sys
from pathlib import Path

import clusterloss

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json
import sys
import tempfile

import numpy as np

import clusterloss
import clusterloss.cli
from clusterloss import (PanelPricer, PoolSpec, distribution_term_structure,
                         empirical_distributions, fit_intensities, greedy_calibrate,
                         load_curve, load_quotes, loss_distribution)
from clusterloss.fixtures import (FIXTURE_VALUATION_DATE, curve_path, quotes_path,
                                  schedule_path)
from clusterloss.loss_engine import IntensitySchedule


def loaded():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy.")
                  or name == "multiprocessing" or name.startswith("multiprocessing.")
                  or name == "logging")


pool = PoolSpec()
curve = load_curve(curve_path(), FIXTURE_VALUATION_DATE)
panel = load_quotes(quotes_path("itraxx"), FIXTURE_VALUATION_DATE)
schedules = {}
for model in ("gpcl", "gpl"):
    with open(schedule_path(model, "itraxx")) as fh:
        schedules[model] = IntensitySchedule.from_json(fh.read())
pricer = PanelPricer(panel, curve, pool)
for schedule in schedules.values():
    assert np.all(np.isfinite(pricer.model_values(schedule)))
    assert distribution_term_structure(pool, schedule, [1.0, 5.0]).shape == (2, 126)
loss_distribution(pool, schedules["gpl"], 5.0)
empirical_distributions(pool, schedules["gpl"], "s0", [5.0], n_paths=200, seed=1)
empirical_distributions(pool, schedules["gpcl"], "s2", [5.0], n_paths=200, seed=1)
stages = {"price_and_simulate": loaded()}

loss_distribution(pool, schedules["gpcl"], 5.0)
stages["loss_distribution"] = loaded()

with tempfile.TemporaryDirectory() as out:
    assert clusterloss.cli.main(["dist", "--schedule", str(schedule_path("gpcl", "itraxx")),
                                 "--out", out]) == 0
stages["dist"] = loaded()

fit_intensities(pricer, "gpl", (1,), np.full(len(pricer.knots), 0.1), max_evaluations=20)
stages["fit_intensities"] = loaded()

greedy_calibrate(panel, curve, pool, "gpl", max_modes=2, scan_budget=6, refine_budget=20,
                 polish_budget=20, n_jobs=1)
stages["greedy_calibrate"] = loaded()
print(json.dumps(stages))
"""


def test_scipy_and_multiprocessing_load_only_where_used():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    stages = json.loads(done.stdout.splitlines()[-1])  # after the dist command's line
    assert stages == {**{stage: [] for stage in ("price_and_simulate", "loss_distribution",
                                                 "dist", "fit_intensities")},
                      "greedy_calibrate": ["logging"]}


def test_reference_engines_are_not_exported():
    # the single-instrument legs, Panjer, expm and the name-level simulation
    # live in tests/reference_engines.py
    for name in ("LegValues", "LossGrid", "default_leg", "index_spread", "tranche_legs",
                 "tranche_premium_leg", "tranche_spread_or_upfront", "cumulated_generator",
                 "matrix_exponential"):
        assert not hasattr(clusterloss, name), name
    for name in ("ShockEvent", "Trajectory", "sample_shock_stream", "apply_strategy",
                 "single_name_default_times", "_inverse_grid"):
        assert not hasattr(clusterloss, name), name
        assert not hasattr(clusterloss.simulator, name), name
    # the year-fraction payment schedules and their grids serve those legs
    for name in ("PaymentSchedule", "pricing_times"):
        for module in (clusterloss, clusterloss.market_data, clusterloss.pricer):
            assert not hasattr(module, name), (module.__name__, name)
    assert clusterloss.PanelPricer is clusterloss.pricer.PanelPricer
    assert clusterloss.calibrator.PanelPricer is clusterloss.pricer.PanelPricer
