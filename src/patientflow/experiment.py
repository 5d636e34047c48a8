"""Head-to-head comparison of two simulation stacks on oracle data.

Stack A is the classical composition: homogeneous Poisson inflow,
per-department lognormal stay durations, lognormal admission costs and
one global transition matrix. Stack B swaps in the learned pieces: a
time-series forecaster, attribute-conditioned duration and cost models
and clustered pathways with attribute-based assignment.

Both stacks are fitted on the training window of a generated log, drive
the same simulation engine over the held-out window (with common random
numbers, i.e. the same engine seed), and are scored against the held-out
ground truth: forecast metrics on admissions per bucket, mean absolute
error of the daily census curve per department, a two-sample KS distance
on stay durations, relative error of the mean cost per admission, and
the total-variation gap between the routing matrix a patient got and the
matrix of their latent class.

Patients straddling the split (admitted before it, discharged after)
belong to training and are excluded from the held-out comparison; there
is no censoring machinery. Both stacks share one empirical profile
resampler built from training patients, so differences come only from
the modeled components.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from . import codec, estimators, inflow, pathways
from .domain import (
    DepartmentSpec,
    EventLog,
    admission_times,
    bucketize,
    extract_trajectories,
)
from .engine import (
    EmpiricalSampler,
    ForecastDriven,
    PoissonBaseline,
    ReplicationSummary,
    SimConfig,
    bucket_census,
    check_replications,
    replicate,
)
from .errors import ConfigError, DataError
from .inflow import ForecasterSpec, MetricReport, default_calendar
from .synthehr import GeneratorConfig, generate
from .pathways import TransitionMatrix

STACK_A = "stack_a"
STACK_B = "stack_b"


@dataclass(frozen=True)
class ScenarioConfig:
    """One end-to-end comparison experiment."""

    generator: GeneratorConfig
    split_fraction: float
    bucket_width: float
    forecaster: ForecasterSpec
    los_estimator: str = "conditional"  # or "tree"
    cot_estimator: str = "conditional"
    pathway_k: int | str = 2            # integer, or "sweep"
    capacities: dict | None = None      # department -> bed capacity override
    warm_up: float = 0.0
    replications: int = 20
    census_bucket: float = 24.0
    jobs: int = 1

    def __post_init__(self):
        check_replications(self.replications)
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if not (0.0 < self.split_fraction < 1.0):
            raise ConfigError("split_fraction must be in (0, 1)")
        if not self.bucket_width > 0:
            raise ConfigError(f"bucket_width must be positive, got {self.bucket_width}")
        if self.los_estimator not in ("conditional", "tree"):
            raise ConfigError(f"unknown los_estimator {self.los_estimator!r}")
        if self.cot_estimator != "conditional":
            raise ConfigError(f"unknown cot_estimator {self.cot_estimator!r}")
        if not (isinstance(self.pathway_k, int) or self.pathway_k == "sweep"):
            raise ConfigError("pathway_k must be an integer or 'sweep'")
        if isinstance(self.pathway_k, int) and self.pathway_k < 1:
            raise ConfigError(f"pathway_k must be >= 1, got {self.pathway_k}")
        if self.capacities is not None:
            if not isinstance(self.capacities, dict):
                raise ConfigError("capacities must map departments to bed capacities")
            for name, capacity in self.capacities.items():
                if name not in self.generator.departments:
                    raise ConfigError(f"capacities name unknown department {name!r}")
                DepartmentSpec(name=name, bed_capacity=capacity)  # checks the capacity

    @property
    def split_time(self) -> float:
        raw = self.split_fraction * self.generator.horizon
        return math.floor(raw / self.bucket_width + 1e-9) * self.bucket_width

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """Read a scenario document. Beyond the fields with defaults, it may
        leave out ``bucket_width`` (1.0) and ``forecaster`` (Holt-Winters
        with m = 168); a forecaster ``calendar`` that is absent or
        ``"default"`` becomes ``default_calendar(bucket_width)``."""
        if not isinstance(d, dict):
            return codec.read(cls, d, "scenario")  # raises
        f = d.get("forecaster", {"kind": "holt_winters", "m": 168})
        default = isinstance(f, dict) and f.get("calendar", "default") == "default"
        doc = {"bucket_width": 1.0, **d, "forecaster": {**f, "calendar": []} if default else f}
        scenario = codec.read(cls, doc, "scenario")
        if not default:
            return scenario
        calendar = default_calendar(scenario.bucket_width)
        return replace(scenario, forecaster=replace(scenario.forecaster, calendar=calendar))


@dataclass(frozen=True)
class ComparisonReport:
    """What ``report.json`` holds, field by field."""

    split_time: float
    horizon: float
    n_train_patients: int
    n_test_patients: int
    inflow_metrics: dict       # stack -> MetricReport
    census_mae: dict           # stack -> {department: MAE}
    census_mae_mean: dict      # stack -> mean over departments
    los_ks: dict               # stack -> KS statistic
    cot_rel_err: dict          # stack -> |mean sim - mean truth| / mean truth
    pathway_tv: dict           # stack -> mean TV(used matrix, latent-class matrix)
    verdicts: dict             # metric -> True when stack B <= stack A
    fingerprints: dict         # stack -> {component: md5 of serialized model}


def model_fingerprint(jsonable: dict) -> str:
    return hashlib.md5(
        json.dumps(jsonable, sort_keys=True).encode("utf-8")
    ).hexdigest()


# --- ground-truth census ------------------------------------------------------

def truth_census_steps(
    log: EventLog,
    department: str,
    window_start: float,
    window_end: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Sweep-line census step series for one department: the step times
    and the occupied beds from each on, as ``SimResult.census_times`` and
    ``census_occupied`` hold them.

    Times in the result are relative to ``window_start``; stays are
    clipped to the window. At every boundary the census equals entries
    so far minus exits so far; at equal times exits come first.
    """
    if window_end <= window_start:
        raise DataError("empty census window")
    rows = log.in_department(department)
    lo = np.maximum(log.enter[rows], window_start)
    hi = np.minimum(log.exit[rows], window_end)
    inside = hi > lo
    times = np.concatenate([lo[inside], hi[inside]]) - window_start
    deltas = np.repeat(np.array([1, -1]), np.count_nonzero(inside))
    order = np.lexsort((deltas, times))
    occupied = np.cumsum(np.concatenate([[0], deltas[order]]))
    return (np.concatenate([[0.0], times[order], [window_end - window_start]]),
            np.append(occupied, occupied[-1]))


def census_error(
    summary: ReplicationSummary,
    truth_curves: Mapping[str, np.ndarray],
    warm_up: float = 0.0,
) -> dict[str, float]:
    """Per-department MAE between replication-mean and true census curves.

    ``truth_curves`` maps each department to its true census, bucketed
    at the summary's bucket width over its horizon; buckets that start
    before ``warm_up`` (relative time) are excluded.
    """
    width = summary.census_bucket_width
    out = {}
    for dept, truth in truth_curves.items():
        sim = np.asarray(summary.mean_census_per_bucket[dept])
        if len(sim) != len(truth):
            raise DataError(
                f"{dept}: {len(sim)} sim buckets vs {len(truth)} truth buckets"
            )
        keep = np.arange(len(sim)) * width >= warm_up
        out[dept] = float(np.mean(np.abs(sim[keep] - truth[keep])))
    return out


# --- stack fitting ---------------------------------------------------------------

@dataclass(frozen=True)
class _Stack:
    name: str
    inflow_model: object
    los_models: dict
    cot_model: object
    pathway: object

    @property
    def fingerprints(self) -> dict:
        """component -> md5 of its model document"""
        models = {"inflow": self.inflow_model, "cot": self.cot_model,
                  "pathway": self.pathway}
        models.update((f"los:{dept}", m) for dept, m in self.los_models.items())
        return {name: model_fingerprint(codec.document(m)) for name, m in models.items()}


def _fit_stack_a(train_series, stay_rows, cost_rows, trajectories, departments):
    inflow_model = inflow.fit_poisson(train_series)
    all_los = [t for _, targets in stay_rows.values() for t in targets]
    los_models = {}
    for dept in departments:
        targets = stay_rows.get(dept, (None, []))[1]
        los_models[dept] = estimators.fit_lognormal(targets if len(targets) >= 2 else all_los)
    costs = [max(c, estimators.COST_FLOOR) for c in cost_rows[1]]
    cot_model = estimators.fit_lognormal(costs)
    pathway = pathways.fit_transition_matrix(trajectories, departments)
    return _Stack(STACK_A, inflow_model, los_models, cot_model, pathway)


def _fit_stack_b(scenario, train_series, stay_rows, cost_rows, trajectories,
                 profiles, departments):
    inflow_model = scenario.forecaster.fit(train_series)
    all_patients = np.concatenate([patients for patients, _ in stay_rows.values()])
    all_targets = [t for _, targets in stay_rows.values() for t in targets]
    fit = estimators.fit_tree if scenario.los_estimator == "tree" else estimators.fit_conditional
    los_models = {}
    for dept in departments:
        patients, targets = stay_rows.get(dept, (all_patients[:0], []))
        try:
            los_models[dept] = fit(profiles.take(patients), targets)
        except DataError:  # departments with too little data fall back to a pooled fit
            los_models[dept] = fit(profiles.take(all_patients), all_targets)
    cot_model = estimators.fit_conditional(profiles.take(cost_rows[0]), cost_rows[1],
                                           estimators.TARGET_COT)
    traj_profiles = profiles.take(trajectories.patient)
    if scenario.pathway_k == "sweep":
        pathway = pathways.sweep_k(
            trajectories, scenario.generator.seed, traj_profiles,
            departments=departments,
        )
    else:
        pathway = pathways.cluster(
            trajectories, scenario.pathway_k, scenario.generator.seed,
            traj_profiles, departments,
        )
    return _Stack(STACK_B, inflow_model, los_models, cot_model, pathway)


def generator_class_matrix(config: GeneratorConfig, severity: int) -> TransitionMatrix:
    """The generating chain of one severity class as a TransitionMatrix
    (ENTRY row one-hot on the entry department, alphabet sorted)."""
    departments = tuple(sorted(config.departments))
    src_order = list(config.departments)
    n = len(departments)
    probs = np.zeros((n + 1, n + 1))
    probs[0, departments.index(config.entry_department)] = 1.0
    raw = config.transition_matrices[severity]
    for i, dept in enumerate(departments):
        row = raw[src_order.index(dept)]
        for j, target in enumerate(departments):
            probs[1 + i, j] = row[src_order.index(target)]
        probs[1 + i, n] = row[-1]
    return TransitionMatrix(
        departments=departments,
        probs=tuple(tuple(float(p) for p in r) for r in probs),
        counts=tuple(tuple(0 for _ in r) for r in probs),
        row_observed=tuple(True for _ in range(n + 1)),
    )


# --- the experiment ----------------------------------------------------------------

def _los_hist_sample(values: np.ndarray) -> np.ndarray:
    """What los_hist.csv keeps of ``values``: every ``max(1, n // 20000)``-th
    one, which bounds the file; a copy, so ``values`` can die."""
    return values[::max(1, len(values) // 20000)].copy()


def _generate(config: GeneratorConfig):
    """The generated log, its profiles, and each profile's latent class as
    an int8 column aligned with the profiles (the truth dict's order is the
    profile row order)."""
    result = generate(config)
    latent = result.truth.latent_class
    return result.log, result.profiles, np.fromiter(latent.values(), np.int8, len(latent))


def _fit_stacks(scenario, train_log, train_idx, profiles, departments):
    """Both stacks, fitted on the training stays ``train_log`` of the
    patients ``train_idx``. The training targets built here die on return."""
    train_series = bucketize(train_log, scenario.bucket_width, 0.0, scenario.split_time)
    # per department in first-appearance order: patients and stay hours in log order
    los = train_log.los
    stay_rows = {}
    for code, dept in enumerate(train_log.departments):
        rows = train_log.department == code
        stay_rows[dept] = (train_log.patient[rows], los[rows].tolist())
    cost_totals = np.bincount(train_log.patient, weights=train_log.cost,
                              minlength=len(profiles))
    cost_rows = (train_idx, cost_totals[train_idx].tolist())
    trajectories = extract_trajectories(train_log, profiles)
    return (_fit_stack_a(train_series, stay_rows, cost_rows, trajectories, departments),
            _fit_stack_b(scenario, train_series, stay_rows, cost_rows, trajectories,
                         profiles, departments))


def _simulate(scenario, stack, driver, dept_specs, sampler):
    """Replicate one stack over the held-out window and keep what scoring
    reads: the summary, the stay hours of the cohort (patients admitted
    at or after the warm-up) by department, each concatenated over the
    replications in order, and the costs of the cohort's discharged
    patients. The ``SimResult``s die on return."""
    config = SimConfig(
        departments=dept_specs,
        horizon=scenario.generator.horizon - scenario.split_time,
        warm_up=scenario.warm_up,
        arrival_driver=driver,
        los_models=stack.los_models,
        cot_model=stack.cot_model,
        pathway=stack.pathway,
        profile_sampler=sampler,
        seed=scenario.generator.seed,
        replications=scenario.replications,
    )
    results, summary = replicate(config, jobs=scenario.jobs,
                                 census_bucket=scenario.census_bucket)
    parts = {d.name: [] for d in dept_specs}
    costs = []
    for res in results:
        admitted = res.admission >= scenario.warm_up
        cohort = np.repeat(admitted, np.diff(res.stay_offset))
        los = res.stay_end - res.stay_start
        for index, d in enumerate(res.departments):
            parts[d].append(los[cohort & (res.stay_department == index)])
        costs.append(res.cost[admitted & ~np.isnan(res.cost)])
    return summary, {d: np.concatenate(p) for d, p in parts.items()}, np.concatenate(costs)


def run_experiment(
    scenario: ScenarioConfig,
    out_dir: str | Path | None = None,
) -> ComparisonReport:
    """Generate, split, fit both stacks, simulate the held-out window,
    and score both against ground truth. Deterministic given the
    scenario (byte-identical report JSON).

    Each phase keeps only what the later ones read: the training data
    lives inside ``_fit_stacks``, each stack's replications inside
    ``_simulate``, and the generated log only until its held-out stays
    are taken."""
    gen_config = scenario.generator
    log, profiles, latent = _generate(gen_config)

    t_split = scenario.split_time
    horizon = gen_config.horizon
    h_test = horizon - t_split
    if t_split <= 0 or h_test <= 0:
        raise ConfigError("split leaves an empty window")

    # patients by admission time: training before the split, test after;
    # index order is first-appearance order
    admission = admission_times(log)
    train = admission < t_split
    test = admission >= t_split
    train_idx = np.flatnonzero(train)
    test_idx = np.flatnonzero(test)
    by_id = np.argsort(profiles.patient_id)  # every patient, in patient_id order
    departments = tuple(sorted(gen_config.departments))

    stack_a, stack_b = _fit_stacks(scenario, log.rows(train[log.patient]), train_idx,
                                   profiles, departments)
    test_log = log.rows(test[log.patient])
    del log  # only its held-out stays are read from here on

    # held-out admissions per bucket (every patient admitted in the window
    # is a test patient)
    n_test_buckets = int(round(h_test / scenario.bucket_width))
    test_series = bucketize(test_log, scenario.bucket_width, t_split, h_test)
    forecasts = {
        STACK_A: inflow.forecast(stack_a.inflow_model, n_test_buckets),
        STACK_B: inflow.forecast(stack_b.inflow_model, n_test_buckets),
    }
    inflow_metrics = {
        name: inflow.evaluate(fc, test_series.counts) for name, fc in forecasts.items()
    }

    # simulate the held-out window with both stacks (common random numbers)
    capacities = scenario.capacities or {}
    dept_specs = tuple(
        DepartmentSpec(name=d, bed_capacity=capacities.get(d)) for d in departments
    )
    sampler = EmpiricalSampler(profiles.take(by_id[train[by_id]]))
    sims = {
        stack.name: _simulate(scenario, stack, driver, dept_specs, sampler)
        for stack, driver in (
            (stack_a, PoissonBaseline(lam=stack_a.inflow_model.lam,
                                      bucket_width=scenario.bucket_width)),
            (stack_b, ForecastDriven(forecast=tuple(forecasts[STACK_B]),
                                     bucket_width=scenario.bucket_width)),
        )
    }

    truth_curves = {dept: bucket_census(*truth_census_steps(test_log, dept, t_split, horizon),
                                        scenario.census_bucket, h_test)
                    for dept in departments}
    census_mae = {
        name: census_error(summary, truth_curves, scenario.warm_up)
        for name, (summary, _, _) in sims.items()
    }
    census_mae_mean = {
        name: float(np.mean(list(per_dept.values())))
        for name, per_dept in census_mae.items()
    }

    # stay-duration fidelity: simulated stays vs held-out true stays.
    # KS is computed per department (so routing mix does not confound
    # distributional fit) and averaged weighted by true stay counts.
    truth_los = test_log.los
    truth_los_by_dept = {d: truth_los[test_log.in_department(d)] for d in departments}
    los_ks = {}
    los_hist = {"truth": _los_hist_sample(truth_los)}
    for name, (_, sim_by_dept, _) in sims.items():
        los_hist[name] = _los_hist_sample(
            np.concatenate([sim_by_dept[d] for d in departments]))
        acc = 0.0
        total = 0
        for d in departments:
            if len(sim_by_dept[d]) and len(truth_los_by_dept[d]):
                n = len(truth_los_by_dept[d])
                acc += n * estimators.ks_statistic(sim_by_dept[d], truth_los_by_dept[d])
                total += n
        los_ks[name] = acc / total

    # cost per admission, both sides restricted to patients discharged
    # inside the window so horizon censoring hits them identically
    last_exit = np.zeros(len(profiles))
    np.maximum.at(last_exit, test_log.patient, test_log.exit)
    truth_costs = np.bincount(test_log.patient, weights=test_log.cost,
                              minlength=len(profiles))
    discharged = test_idx[last_exit[test_idx] <= horizon]
    truth_mean_cost = float(np.mean(truth_costs[discharged]))
    cot_rel_err = {}
    for name, (_, _, sim_costs) in sims.items():
        sim_mean = float(np.mean(sim_costs)) if len(sim_costs) else math.nan
        cot_rel_err[name] = abs(sim_mean - truth_mean_cost) / truth_mean_cost

    # pathway matrices vs each held-out patient's latent class; the
    # distances depend only on the (class, cluster) pair, and the cluster
    # only on the patient's attributes
    class_matrices = [
        generator_class_matrix(gen_config, c) for c in range(gen_config.n_classes)
    ]
    clusters_b = stack_b.pathway
    tv_by_class = [pathways.row_average_tv(stack_a.pathway, m) for m in class_matrices]
    tv_by_pair = {}
    held_out = by_id[test[by_id]]  # held-out profile rows, in patient_id order
    tv_a = []
    tv_b = []
    for cls, k in zip(latent[held_out].tolist(),
                      pathways.assign_all(profiles.take(held_out), clusters_b)):
        pair = (cls, k)
        if pair not in tv_by_pair:
            tv_by_pair[pair] = pathways.row_average_tv(
                clusters_b.routing_matrix(pair[1]), class_matrices[cls])
        tv_a.append(tv_by_class[cls])
        tv_b.append(tv_by_pair[pair])
    pathway_tv = {STACK_A: float(np.mean(tv_a)), STACK_B: float(np.mean(tv_b))}

    verdicts = {
        "inflow_mape": inflow_metrics[STACK_B].mape_percent
        <= inflow_metrics[STACK_A].mape_percent,
        "census_mae": census_mae_mean[STACK_B] <= census_mae_mean[STACK_A],
        "los_ks": los_ks[STACK_B] <= los_ks[STACK_A],
        "cot_rel_err": cot_rel_err[STACK_B] <= cot_rel_err[STACK_A],
        "pathway_tv": pathway_tv[STACK_B] <= pathway_tv[STACK_A],
    }

    report = ComparisonReport(
        split_time=t_split,
        horizon=horizon,
        n_train_patients=len(train_idx),
        n_test_patients=len(test_idx),
        inflow_metrics=inflow_metrics,
        census_mae=census_mae,
        census_mae_mean=census_mae_mean,
        los_ks=los_ks,
        cot_rel_err=cot_rel_err,
        pathway_tv=pathway_tv,
        verdicts=verdicts,
        fingerprints={STACK_A: stack_a.fingerprints, STACK_B: stack_b.fingerprints},
    )

    if out_dir is not None:
        _write_outputs(
            Path(out_dir), report, scenario, test_series, forecasts,
            {name: summary for name, (summary, _, _) in sims.items()},
            truth_curves, t_split, los_hist,
        )
    return report


# --- plot-ready exports ---------------------------------------------------------

def _write_outputs(out, report, scenario, test_series, forecasts, summaries,
                   truth_curves, t_split, los_hist):
    out.mkdir(parents=True, exist_ok=True)
    codec.write(report, out / "report.json")

    w = scenario.bucket_width
    lines = ["bucket_start_hour,actual,stack_a,stack_b"]
    for i, actual in enumerate(test_series.counts):
        lines.append(
            f"{t_split + i * w:.6f},{actual},"
            f"{forecasts[STACK_A][i]:.6f},{forecasts[STACK_B][i]:.6f}"
        )
    (out / "inflow_forecasts.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    cw = scenario.census_bucket
    lines = ["bucket_start_hour,department,truth,stack_a,stack_b"]
    for dept, truth_curve in truth_curves.items():
        a_curve = summaries[STACK_A].mean_census_per_bucket[dept]
        b_curve = summaries[STACK_B].mean_census_per_bucket[dept]
        for i, tv in enumerate(truth_curve):
            lines.append(
                f"{t_split + i * cw:.6f},{dept},{tv:.6f},"
                f"{a_curve[i]:.6f},{b_curve[i]:.6f}"
            )
    (out / "census_compare.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    with open(out / "los_hist.csv", "w", encoding="utf-8") as fh:
        fh.write("source,los_hours\n")
        for source, values in los_hist.items():  # truth, stack A, stack B
            fh.writelines(f"{source},{v:.6f}\n" for v in values)
