"""The benchmark's three workloads.

Every workload repeats whole rounds of the same operations, each operation
either a ``gpcl`` or a ``gpl`` one, until the run's time is up:

* ``calibrate``: one greedy calibration of each model to the iTraxx panel;
* ``risk``: bump-and-reprice of the four shipped schedules, with intensity
  scale scenarios, recovery scenarios and bespoke pool sizes;
* ``simulate``: one batch of ``s2`` paths on the gpcl schedule and one of
  ``s0`` paths on the gpl schedule.

Inputs come from the run's seed only. The program is called through module
attributes (``calibrator.greedy_calibrate``), so that the tracer's wrappers
are the ones called in a traced run. ``check`` compares the outputs with the
independent computations of ``oracle``; it returns a list of problems.
"""
from __future__ import annotations

import dataclasses

import numpy as np

import oracle
from clusterloss import calibrator, fixtures, market_data, simulator
from clusterloss.loss_engine import IntensitySchedule, PoolSpec

MODELS = ("gpcl", "gpl")
INDICES = ("itraxx", "cdx")


def child_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def load_curve():
    return market_data.load_curve(fixtures.curve_path(), fixtures.FIXTURE_VALUATION_DATE)


def load_panel(index: str):
    return market_data.load_quotes(fixtures.quotes_path(index), fixtures.FIXTURE_VALUATION_DATE)


def load_schedule(model: str, index: str) -> IntensitySchedule:
    with open(fixtures.schedule_path(model, index)) as fh:
        return IntensitySchedule.from_json(fh.read())


class Calibrate:
    """Greedy calibration of gpcl, then of gpl, to the iTraxx panel.

    The budgets are cut so that each calibration ends on them, which makes
    the number of model evaluations the same on every seed: 200 for the
    step-1 fit, 12 for each of the 124 scan candidates, 200 for each of the
    two refits of the winner and 200 for the polish.
    """

    name = "calibrate"
    budgets = {"max_modes": 2, "scan_budget": 12, "refine_budget": 200, "polish_budget": 200}
    quote_jitter = 0.25  # mids moved by up to this share of the bid-ask width

    def __init__(self, seed: int, jobs: int):
        rng = np.random.default_rng(child_seed(seed, 1))
        self.seed, self.jobs = seed, jobs
        self.curve = load_curve()
        panel = load_panel("itraxx")
        self.panel = dataclasses.replace(
            panel,
            index_quotes=tuple(dataclasses.replace(
                q, spread_bp=q.spread_bp + self.quote_jitter * q.bid_ask_width_bp * rng.uniform(-1, 1))
                for q in panel.index_quotes),
            tranche_quotes=tuple(dataclasses.replace(
                q, quote=q.quote + self.quote_jitter * q.bid_ask_width * rng.uniform(-1, 1))
                for q in panel.tranche_quotes))
        self.pool = PoolSpec()
        self.results = []

    def round(self, ops, index: int) -> None:
        for model in MODELS:
            result = ops.run(model, 1, calibrator.greedy_calibrate,
                             self.panel, self.curve, self.pool, model,
                             seed=child_seed(self.seed, index), n_jobs=self.jobs, **self.budgets)
            if result is not None:
                self.results.append(result)

    def check(self) -> list[str]:
        panel_oracle = oracle.PanelOracle(self.panel, self.curve)
        widths = panel_oracle.widths()
        problems = []
        for n, result in enumerate(self.results):
            label = f"calibration {n} ({result.schedule.model})"
            rows = oracle.count_rows(result.schedule, self.pool.names, panel_oracle.times)
            values = panel_oracle.values(rows, self.pool.names, self.pool.recovery)
            errors = panel_oracle.errors(values)
            problems += oracle.check_values(label, result.instruments, result.model_values,
                                            values, widths)
            eps = np.array([errors[oracle.instrument_key(ins)] for ins in result.instruments])
            if not np.max(np.abs(eps - result.errors)) <= oracle.VALUE_TOL_WIDTHS:
                problems.append(f"{label}: reported errors differ from the oracle's")
            if not abs(result.objective - eps @ eps) <= 1e-9 * max(1.0, eps @ eps):
                problems.append(f"{label}: objective {result.objective!r}, oracle {eps @ eps!r}")
            problems += oracle.check_schedule_shape(label, result.schedule)
            log = [step["objective"] for step in result.iterations]
            if any(b > a for a, b in zip(log, log[1:])):
                problems.append(f"{label}: greedy log objective increases: {log}")
            if not result.objective < log[0]:
                problems.append(f"{label}: final objective {result.objective!r} "
                                f"not below the step-1 fit {log[0]!r}")
        return problems

    def summary(self) -> dict:
        out = {}
        for model in MODELS:
            fits = [r.objective for r in self.results if r.schedule.model == model]
            if fits:
                out[f"calib_objective ({model})"] = (float(np.median(fits)), "1")
        return out


def bumped(schedule: IntensitySchedule, j: int, k: int, rel: float) -> IntensitySchedule:
    """Cumulated value of mode j at knot k raised by ``rel`` of itself (at
    least of 1e-3); later knots are lifted where needed to stay non-decreasing."""
    rows = [list(r) for r in schedule.cumulated]
    row = rows[j]
    row[k] += rel * max(row[k], 1e-3)
    for kk in range(k + 1, len(row)):
        row[kk] = max(row[kk], row[k])
    return schedule.with_cumulated(rows)


class Risk:
    """Bump-and-reprice of each shipped schedule on its own panel.

    Per schedule and round: the base repricing, one repricing per (mode,
    knot) bump, three intensity-scale scenarios, two recovery scenarios and
    two bespoke pool sizes (each of the last four building a new pricer).
    """

    name = "risk"
    bespoke_names = (60, 250)
    oracle_picks = 3  # seeded gpcl bumps checked against the expm oracle

    def __init__(self, seed: int, jobs: int):
        rng = np.random.default_rng(child_seed(seed, 2))
        self.curve = load_curve()
        self.panels = {i: load_panel(i) for i in INDICES}
        self.pricers = {i: calibrator.PanelPricer(self.panels[i], self.curve, PoolSpec())
                        for i in INDICES}
        self.bump_rel = float(rng.uniform(0.01, 0.03))
        self.scales = tuple(sorted(float(s) for s in rng.uniform(0.85, 1.15, size=3)))
        self.recoveries = tuple(float(r) for r in rng.uniform(0.25, 0.55, size=2))
        self.cases = {}
        for model in MODELS:
            for index in INDICES:
                base = load_schedule(model, index)
                self.cases[(model, index)] = {
                    "base": base,
                    "bumps": {(j, k): bumped(base, j, k, self.bump_rel)
                              for j in range(base.n_modes) for k in range(len(base.knots))},
                    "scaled": [base.with_cumulated(np.asarray(base.cumulated) * s)
                               for s in self.scales]}
        self.picks = {case: [(int(j), int(k)) for j, k in
                             rng.permutation(list(c["bumps"]))[:self.oracle_picks]]
                      for case, c in self.cases.items()}
        self.first = None
        self.mismatch = []

    @staticmethod
    def _price_new(panel, curve, pool, schedule):
        return calibrator.PanelPricer(panel, curve, pool).model_values(schedule)

    def round(self, ops, index: int) -> None:
        outputs = {}
        for (model, idx), case in self.cases.items():
            pricer = self.pricers[idx]
            out = outputs[(model, idx)] = {}
            out["base"] = ops.run(model, 1, pricer.model_values, case["base"])
            for key, schedule in case["bumps"].items():
                out[("bump",) + key] = ops.run(model, 1, pricer.model_values, schedule)
            for n, schedule in enumerate(case["scaled"]):
                out[("scale", n)] = ops.run(model, 1, pricer.model_values, schedule)
            for n, recovery in enumerate(self.recoveries):
                out[("recovery", n)] = ops.run(model, 1, self._price_new, self.panels[idx],
                                               self.curve, PoolSpec(125, recovery), case["base"])
            for names in self.bespoke_names:
                out[("pool", names)] = ops.run(model, 1, self._price_new, self.panels[idx],
                                               self.curve, PoolSpec(names), case["base"])
        if self.first is None:
            self.first = outputs
            return
        for case, out in outputs.items():
            for key, values in out.items():
                ref = self.first[case][key]
                if values is not None and ref is not None and not np.all(
                        np.abs(values - ref) <= 1e-10 * np.maximum(np.abs(ref), 1.0)):
                    self.mismatch.append(f"round {index} {case} {key}: differs from round 0")

    def check(self) -> list[str]:
        problems = list(self.mismatch[:5])
        if self.first is None:
            return problems
        for (model, idx), case in self.cases.items():
            out = self.first[(model, idx)]
            if any(v is None for v in out.values()):
                continue  # failed operations are counted, not checked
            pricer, panel = self.pricers[idx], self.panels[idx]
            instruments = pricer.instruments
            panel_oracle = oracle.PanelOracle(panel, self.curve)
            widths = panel_oracle.widths()
            label = f"{model}/{idx}"

            def against_oracle(what, schedule, values, names=125, recovery=0.4, rows=None):
                if rows is None:
                    rows = oracle.count_rows(schedule, names, panel_oracle.times)
                expected = panel_oracle.values(rows, names, recovery)
                return oracle.check_values(f"{label} {what}", instruments, values,
                                           expected, widths)

            base_rows = oracle.count_rows(case["base"], 125, panel_oracle.times)
            problems += against_oracle("base", case["base"], out["base"], rows=base_rows)
            for n, recovery in enumerate(self.recoveries):
                problems += against_oracle(f"recovery {recovery:.3f}", case["base"],
                                           out[("recovery", n)], recovery=recovery, rows=base_rows)
            for names in self.bespoke_names:
                problems += against_oracle(f"pool {names}", case["base"], out[("pool", names)],
                                           names=names)
            # a bump at knot k moves the intensity only after knot k - 1, so
            # every quote maturing by then keeps its base value
            maturities = np.array([ins.maturity_time for ins in instruments])
            knots = case["base"].knots
            for (j, k) in case["bumps"]:
                values = out[("bump", j, k)]
                if k > 0:
                    early = maturities <= knots[k - 1] + 1e-9
                    if not np.all(np.abs(values[early] - out["base"][early])
                                  <= 1e-12 * np.maximum(np.abs(out["base"][early]), 1.0)):
                        problems.append(f"{label} bump {(j, k)} moved quotes maturing before it")
            if model == "gpl":
                # the capped compound Poisson count is stochastically
                # increasing in each intensity, and so is every quote
                for (j, k), schedule in case["bumps"].items():
                    values = out[("bump", j, k)]
                    problems += against_oracle(f"bump {(j, k)}", schedule, values)
                    problems += oracle.check_not_decreasing(f"{label} bump {(j, k)}",
                                                            out["base"], values, instruments)
                ladder = sorted([(1.0, out["base"])] + [(s, out[("scale", n)])
                                                        for n, s in enumerate(self.scales)],
                                key=lambda sv: sv[0])
                for n, schedule in enumerate(case["scaled"]):
                    problems += against_oracle(f"scale {self.scales[n]:.3f}", schedule,
                                               out[("scale", n)])
                for (s0, v0), (s1, v1) in zip(ladder, ladder[1:]):
                    problems += oracle.check_not_decreasing(f"{label} scale {s0:.3f}->{s1:.3f}",
                                                            v0, v1, instruments)
            else:
                # gpcl has no such order (clusters fire only among survivors):
                # seeded bumps and one scale scenario go to the expm oracle
                for (j, k) in self.picks[(model, idx)]:
                    problems += against_oracle(f"bump {(j, k)}", case["bumps"][(j, k)],
                                               out[("bump", j, k)])
                problems += against_oracle(f"scale {self.scales[-1]:.3f}", case["scaled"][-1],
                                           out[("scale", len(self.scales) - 1)])
                for key, values in out.items():
                    if not np.all(np.isfinite(values)):
                        problems.append(f"{label} {key}: non-finite quotes")
        return problems

    def summary(self) -> dict:
        return {"bump size (share of value)": (self.bump_rel, "1"),
                "intensity scales": (", ".join(f"{s:.4f}" for s in self.scales), ""),
                "recoveries": (", ".join(f"{r:.4f}" for r in self.recoveries), "")}


class Simulate:
    """One batch of s2 paths on the gpcl iTraxx schedule and one of s0 paths
    on the gpl iTraxx schedule per round, observed at the four quoted
    maturities; the histograms of all batches are tested together."""

    name = "simulate"
    batches = {"gpcl": ("s2", 2000), "gpl": ("s0", 5000)}

    def __init__(self, seed: int, jobs: int):
        self.seed = seed
        self.pool = PoolSpec()
        self.schedules = {m: load_schedule(m, "itraxx") for m in MODELS}
        self.times = self.schedules["gpcl"].knots
        self.histograms = {m: np.zeros((len(self.times), self.pool.names + 1), dtype=np.int64)
                           for m in MODELS}
        self.problems = []

    def round(self, ops, index: int) -> None:
        for n, model in enumerate(MODELS):
            strategy, n_paths = self.batches[model]
            batch = ops.run(model, n_paths, simulator.empirical_distributions,
                            self.pool, self.schedules[model], strategy, self.times, n_paths,
                            seed=child_seed(self.seed, index, n))
            if batch is None:
                continue
            counts = np.stack([e.distribution.probs for e in batch]) * n_paths
            whole = np.rint(counts)
            if not np.allclose(counts, whole, rtol=0, atol=1e-6):
                self.problems.append(f"{strategy} batch {index}: frequencies are not path counts")
            self.histograms[model] += whole.astype(np.int64)

    def check(self) -> list[str]:
        problems = list(self.problems)
        for model in MODELS:
            strategy, _ = self.batches[model]
            exact = oracle.count_rows(self.schedules[model], self.pool.names, self.times)
            problems += oracle.check_histogram(f"{strategy} on {model}", self.histograms[model],
                                               exact, self.times, self.pool.recovery)
        return problems

    def summary(self) -> dict:
        return {f"{self.batches[m][0]} paths": (int(self.histograms[m][0].sum()), "paths")
                for m in MODELS}


WORKLOADS = {w.name: w for w in (Calibrate, Risk, Simulate)}
