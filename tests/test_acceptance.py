"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

Statistical thresholds were validated against the seeded oracle runs
before being frozen here; every test below is deterministic given the
checked-in scenario seeds.
"""

import math
import time

import numpy as np
import pytest

from patientflow import codec, estimators, inflow, pathways
from patientflow.domain import (
    ArrivalSeries,
    DepartmentSpec,
    Profiles,
    bucketize,
    extract_trajectories,
)
from patientflow.engine import ForecastDriven, PoissonBaseline, SimConfig, replicate, run
from patientflow.estimators import (
    TARGET_LOS,
    LognormalFit,
    fit_conditional,
    fit_gamma_mom,
    fit_lognormal,
    fit_mixture_em,
    fit_weibull,
    ks_statistic,
    locations,
    sampler,
)
from patientflow.experiment import (
    STACK_A,
    STACK_B,
    ScenarioConfig,
    generator_class_matrix,
    run_experiment,
)
from patientflow.pathways import TransitionMatrix, cluster, row_average_tv
from patientflow.engine import AttributeSampler, EmpiricalSampler
from patientflow.seeding import stream
from patientflow.synthehr import AgeMixture, GeneratorConfig, LinearRate, generate

from conftest import split_stays


def report_line(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def chain_matrix(name="W"):
    return TransitionMatrix(
        departments=(name,),
        probs=((1.0, 0.0), (0.0, 1.0)),
        counts=((1, 0), (0, 1)),
        row_observed=(True, True),
    )


GEN_SAMPLER = AttributeSampler(AgeMixture(1.0, 55.0, 12.0, 55.0, 12.0), 0.5,
                               LinearRate(1.0, 0.0), {"GEN": 1.0})
CONST_COST = LognormalFit(mu=math.log(100.0), sigma=0.0, n=10, loglik=0.0)


def test_ac1_inflow_thesis(default_scenario_dict):
    """Time-series forecasters halve the Poisson baseline's held-out MAPE
    on the seasonal default scenario (hourly buckets, 20wk/4wk split)."""
    t0 = time.perf_counter()
    scenario = ScenarioConfig.from_dict(default_scenario_dict)
    oracle = generate(scenario.generator)
    series = bucketize(oracle.log, 1.0, 0.0, scenario.generator.horizon)
    f = scenario.forecaster
    n_head = int(len(series) * (20.0 / 24.0))
    head = ArrivalSeries(series.bucket_width, series.start_time, series.counts[:n_head])
    tail = series.counts[n_head:]
    specs = {
        "poisson": inflow.ForecasterSpec(kind="poisson"),
        "holt_winters": inflow.ForecasterSpec(
            kind="holt_winters", m=168, alpha=f.alpha, beta=f.beta, gamma=f.gamma
        ),
        "lag_regression": inflow.ForecasterSpec(
            kind="lag_regression", lags=(1, 24, 168),
            calendar=inflow.default_calendar(1.0),
        ),
    }
    reports = {name: inflow.evaluate(inflow.forecast(spec.fit(head), len(tail)), tail)
               for name, spec in specs.items()}
    elapsed = time.perf_counter() - t0
    base = reports["poisson"].mape_percent
    hw_ratio = reports["holt_winters"].mape_percent / base
    lr_ratio = reports["lag_regression"].mape_percent / base
    ok = hw_ratio <= 0.6 and lr_ratio <= 0.6 and elapsed < 10.0
    report_line(
        "AC-1", ok,
        f"Poisson MAPE {base:.1f}%, HW ratio {hw_ratio:.3f}, "
        f"LagReg ratio {lr_ratio:.3f} (limit 0.6), runtime {elapsed:.1f}s (<10s)",
    )


def test_ac2_heterogeneity_thesis(default_oracle, default_generator):
    """Attribute-conditioned stay models beat the best univariate fit,
    EM recovers a planted two-group mixture, and stay durations are
    right-skewed."""
    t0 = time.perf_counter()
    (train, train_y), (test, test_y) = split_stays(default_oracle, 3360.0)
    ln_test = np.log(test_y)

    # (a) conditional regression vs the best single univariate fit
    model = fit_conditional(train, train_y, TARGET_LOS)
    X = model.feature_spec.encode_all(test)[0]
    rmse_cond = float(np.sqrt(np.mean((ln_test - X @ np.asarray(model.coef)) ** 2)))
    ln_fit = fit_lognormal(train_y)
    gamma_fit = fit_gamma_mom(train_y)
    weibull_fit = fit_weibull(train_y)
    constants = (
        ln_fit.mu,
        math.log(gamma_fit.shape * gamma_fit.scale),
        math.log(weibull_fit.scale * math.gamma(1.0 + 1.0 / weibull_fit.shape)),
    )
    rmse_uni = min(float(np.sqrt(np.mean((ln_test - c) ** 2))) for c in constants)
    ratio = rmse_cond / rmse_uni

    # (b) EM recovery on a 50/50 two-group sample, ln-mean gap 2.0
    rng = stream(77)
    n = 2000
    low = rng.random(n) < 0.5
    x = np.where(low, np.exp(rng.normal(0.0, 0.2, n)), np.exp(rng.normal(2.0, 0.2, n)))
    em = fit_mixture_em(x, 2, seed=11)
    mus = [c.mu for c in em.components]
    weights = [c.weight for c in em.components]
    em_ok = (abs(mus[0]) <= 0.1 and abs(mus[1] - 2.0) <= 0.1
             and abs(weights[0] - 0.5) <= 0.1 and abs(weights[1] - 0.5) <= 0.1)

    # (c) skewness of generated stay durations
    los = default_oracle.log.los
    skew = float(((los - los.mean()) ** 3).mean() / los.std() ** 3)

    elapsed = time.perf_counter() - t0
    ok = ratio <= 0.85 and em_ok and skew > 0.5 and elapsed < 10.0
    report_line(
        "AC-2", ok,
        f"ln-RMSE ratio {ratio:.3f} (<=0.85), EM mu=({mus[0]:+.3f},{mus[1]:.3f}) "
        f"w=({weights[0]:.3f},{weights[1]:.3f}), skew {skew:.2f} (>0.5), "
        f"runtime {elapsed:.1f}s (<10s)",
    )


def test_ac3_pathway_thesis(default_generator):
    """Clustering separates two latent severity classes (row-average TV
    gap >= 0.4) and recovers their transition matrices."""
    mild, severe = default_generator.transition_matrices
    gap = float(np.mean([
        0.5 * np.sum(np.abs(np.asarray(a) - np.asarray(b)))
        for a, b in zip(mild, severe)
    ]))
    assert gap >= 0.4  # scenario satisfies the premise

    purities = {}
    tv_max = {}
    for horizon, label in ((104.0, "1e3"), (1000.0, "1e4")):
        config = GeneratorConfig.from_dict(
            {**codec.document(default_generator), "horizon": horizon, "seed": 314}
        )
        oracle = generate(config)
        trajectories = extract_trajectories(oracle.log, oracle.profiles)
        profiles = oracle.profiles.take(trajectories.patient)
        pc = cluster(trajectories, 2, seed=314, profiles=profiles,
                     departments=sorted(config.departments))
        labels = np.asarray(pc.labels)
        truth = oracle.latent_class[trajectories.patient]
        agree = float(np.mean(labels == truth))
        purities[label] = max(agree, 1.0 - agree)
        mapping = (0, 1) if agree >= 0.5 else (1, 0)
        tv_max[label] = max(
            row_average_tv(pc.clusters[j].matrix,
                           generator_class_matrix(config, mapping[j]))
            for j in range(2)
        )
    ok = purities["1e3"] >= 0.9 and tv_max["1e4"] <= 0.05
    report_line(
        "AC-3", ok,
        f"purity@1e3 {purities['1e3']:.3f} (>=0.9), "
        f"cluster-matrix TV@1e4 {tv_max['1e4']:.4f} (<=0.05), "
        f"class TV gap {gap:.3f}",
    )


def test_ac4_des_correctness():
    """Conservation, Little's law, D/D/1 waits, and bit-level determinism
    (including parallel replications)."""
    little = SimConfig(
        departments=(DepartmentSpec("W", None),),
        horizon=4800.0, warm_up=480.0,
        arrival_driver=PoissonBaseline(lam=10.0, bucket_width=24.0),
        los_models={"W": LognormalFit(mu=math.log(72.0), sigma=0.0, n=10, loglik=0.0)},
        cot_model=CONST_COST, pathway=chain_matrix(),
        profile_sampler=GEN_SAMPLER, seed=0, replications=1,
    )
    result = run(little)
    conservation = result.admissions == result.discharges + result.in_system
    census = result.avg_census["W"]
    little_ok = 29.1 <= census <= 30.9

    dd1 = SimConfig(
        departments=(DepartmentSpec("W", 1),),
        horizon=600.0, warm_up=0.0,
        arrival_driver=ForecastDriven(forecast=(1.0,) * 10 + (0.0,) * 15,
                                      bucket_width=24.0, deterministic=True),
        los_models={"W": LognormalFit(mu=math.log(48.0), sigma=0.0, n=10, loglik=0.0)},
        cot_model=CONST_COST, pathway=chain_matrix(),
        profile_sampler=GEN_SAMPLER, seed=1, replications=1,
    )
    waits = [sum(s.wait for s in p.stays)
             for p in sorted(run(dd1).patients, key=lambda p: p.admission_time)]
    # exact up to one float rounding in exp(log(48))
    dd1_err = max(abs(w - 24.0 * i) for i, w in enumerate(waits))

    repl = SimConfig(
        departments=(DepartmentSpec("W", None),),
        horizon=480.0, warm_up=0.0,
        arrival_driver=PoissonBaseline(lam=12.0, bucket_width=24.0),
        los_models={"W": LognormalFit(mu=math.log(36.0), sigma=0.3, n=10, loglik=0.0)},
        cot_model=CONST_COST, pathway=chain_matrix(),
        profile_sampler=GEN_SAMPLER, seed=2, replications=4,
    )
    serial, _ = replicate(repl, jobs=1)
    parallel, _ = replicate(repl, jobs=2)
    det_ok = run(little) == result and serial == parallel
    cons_all = all(r.admissions == r.discharges + r.in_system for r in serial)

    ok = conservation and cons_all and little_ok and dd1_err <= 1e-9 and det_ok
    report_line(
        "AC-4", ok,
        f"conservation exact, census {census:.2f} in [29.1, 30.9], "
        f"D/D/1 wait err {dd1_err:.1e} (<=1e-9), determinism incl. jobs=2: {det_ok}",
    )


def test_ac5_statistical_fidelity():
    """Unbounded-capacity simulation reproduces the fitted duration model
    (two-sample KS below 0.05 at n >= 2000)."""
    rng = stream(99)
    profiles = Profiles.from_rows([f"T{i}" for i in range(3000)],
                                  [GEN_SAMPLER.draw(rng) for _ in range(3000)])
    targets = [float(np.exp(rng.normal(3.0 + 0.01 * age, 0.4))) for age in profiles.age]
    model = fit_conditional(profiles, targets, TARGET_LOS)
    config = SimConfig(
        departments=(DepartmentSpec("W", None),),
        horizon=720.0, warm_up=0.0,
        arrival_driver=PoissonBaseline(lam=120.0, bucket_width=24.0),
        los_models={"W": model}, cot_model=CONST_COST,
        pathway=chain_matrix(), profile_sampler=EmpiricalSampler(profiles), seed=2,
        replications=1,
    )
    result = run(config)
    sim_los = [s.los for p in result.patients for s in p.stays]
    drng, draw = stream(55), sampler(model)
    direct = [draw(locations(model, profiles.take([drng.integers(len(profiles))]))[0][0], drng)
              for _ in range(20_000)]
    ks = ks_statistic(sim_los, direct)
    ok = len(sim_los) >= 2000 and ks < 0.05
    report_line("AC-5", ok, f"KS {ks:.4f} (<0.05) at n={len(sim_los)} simulated stays")


def test_ac6_end_to_end_thesis(default_scenario_dict):
    """The learned stack tracks held-out census at most 70% of the
    classical stack's error, end to end, within the time budget."""
    t0 = time.perf_counter()
    scenario = ScenarioConfig.from_dict(default_scenario_dict)
    assert scenario.replications == 20
    report = run_experiment(scenario)
    elapsed = time.perf_counter() - t0
    ratio = report.census_mae_mean[STACK_B] / report.census_mae_mean[STACK_A]
    ok = ratio <= 0.70 and elapsed < 60.0 and report.verdicts["census_mae"]
    report_line(
        "AC-6", ok,
        f"census MAE A={report.census_mae_mean[STACK_A]:.2f} "
        f"B={report.census_mae_mean[STACK_B]:.2f} ratio {ratio:.3f} (<=0.70), "
        f"runtime {elapsed:.1f}s (<60s)",
    )


def test_ac7_degeneracy_control(homogeneous_scenario_dict):
    """On a homogeneity-free scenario no metric shows the learned stack
    worse than the classical one by more than 10% (plus a small absolute
    guard for near-zero metrics)."""
    scenario = ScenarioConfig.from_dict(homogeneous_scenario_dict)
    report = run_experiment(scenario)
    checks = {
        "inflow_mape": (report.inflow_metrics[STACK_B].mape_percent,
                        report.inflow_metrics[STACK_A].mape_percent, 0.5),
        "census_mae": (report.census_mae_mean[STACK_B],
                       report.census_mae_mean[STACK_A], 0.05),
        "los_ks": (report.los_ks[STACK_B], report.los_ks[STACK_A], 0.01),
        "cot_rel_err": (report.cot_rel_err[STACK_B],
                        report.cot_rel_err[STACK_A], 0.01),
        "pathway_tv": (report.pathway_tv[STACK_B],
                       report.pathway_tv[STACK_A], 0.005),
    }
    failures = {
        name: (b, a)
        for name, (b, a, eps) in checks.items()
        if b > 1.1 * a + eps
    }
    # with nothing to exploit, both stacks should also be near-perfect
    # in absolute terms on distributional fidelity
    ks_ok = report.los_ks[STACK_A] < 0.05 and report.los_ks[STACK_B] < 0.05
    detail = ", ".join(
        f"{name} B/A={b / a if a > 0 else float('inf'):.3f}"
        for name, (b, a, _) in checks.items()
    )
    detail += (f"; KS A={report.los_ks[STACK_A]:.4f} "
               f"B={report.los_ks[STACK_B]:.4f} (both <0.05)")
    report_line("AC-7", not failures and ks_ok,
                f"{detail}; failures: {failures or 'none'}")
