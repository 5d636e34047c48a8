import json
import math
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from patientflow import codec
from patientflow.domain import Profiles, check_stay, event_log, serialize_event_log
from patientflow.errors import ConfigError, DataError
from patientflow.seeding import cumulative, draw_cumulative, stream
from patientflow.synthehr import (
    LOS_FLOOR,
    WALK_CAP,
    GeneratorConfig,
    GroundTruth,
    generate,
    ground_truth,
    rate_at,
    rate_max,
    sample_arrivals,
)

from conftest import flat_generator_dict
from test_seeding import draw_index

Stay = namedtuple("Stay", "enter_time exit_time")
ReferenceResult = namedtuple("ReferenceResult", "log profiles truth")


def make_config(**overrides):
    base_keys = ("seed", "horizon", "base_rate", "sigma_ln", "beta0",
                 "single_department")
    base_kwargs = {k: overrides.pop(k) for k in base_keys if k in overrides}
    d = flat_generator_dict(**base_kwargs)
    d.update(overrides)
    return GeneratorConfig.from_dict(d)


def test_generator_config_round_trips(default_generator):
    for config in (default_generator, make_config()):
        doc = codec.document(config)
        assert GeneratorConfig.from_dict(doc) == config
        assert GeneratorConfig.from_dict(json.loads(json.dumps(doc))) == config
    assert list(codec.document(default_generator)["drg_probs"]) == ["ACS", "HF", "ARR"]


def test_rate_at_flat():
    config = make_config(base_rate=2.0)
    for t in (0.0, 13.7, 500.0, 999.9):
        assert rate_at(t, config) == pytest.approx(2.0)


def test_rate_at_trend_midpoint():
    config = make_config(base_rate=2.0, trend_slope=1.0)
    assert rate_at(config.horizon / 2.0, config) == pytest.approx(3.0)


def test_rate_at_profiles_lookup():
    hourly = [1.0] * 24
    hourly[3] = 2.5
    config = make_config(hourly_profile=hourly)
    assert rate_at(3.5, config) == pytest.approx(10.0 * 2.5)
    assert rate_at(4.0, config) == pytest.approx(10.0)


def test_rate_at_out_of_horizon():
    config = make_config()
    with pytest.raises(DataError, match=r"outside \[0, "):
        rate_at(-1.0, config)
    with pytest.raises(DataError, match=r"outside \[0, "):
        rate_at(config.horizon, config)


def test_rate_max_dominates(default_generator):
    rmax = rate_max(default_generator)
    for t in np.linspace(0.0, default_generator.horizon - 1e-6, 500):
        assert rate_at(float(t), default_generator) <= rmax + 1e-12


def test_config_validation():
    with pytest.raises(ConfigError):
        make_config(hourly_profile=[1.0] * 23)
    with pytest.raises(ConfigError):
        make_config(drg_probs={"GEN": 0.9})
    with pytest.raises(ConfigError):
        make_config(transition_matrices=[[[0.0, 0.5, 0.4]]])
    with pytest.raises(ConfigError):
        make_config(entry_department="ICU")


def test_flat_arrival_count_moment():
    # lambda * T = 10^4; the realized count lands within 3 sigma
    config = make_config(horizon=1000.0, base_rate=10.0)
    times = sample_arrivals(config, stream(config.seed, 0))
    assert abs(len(times) - 10_000) <= 3 * math.sqrt(10_000)
    assert all(b > a for a, b in zip(times, times[1:]))


def test_vanishing_rate_gives_no_arrivals():
    config = make_config(base_rate=1e-12, horizon=100.0)
    assert sample_arrivals(config, stream(0)) == []


def test_arrivals_deterministic():
    config = make_config()
    assert sample_arrivals(config, stream(config.seed, 0)) == sample_arrivals(
        config, stream(config.seed, 0)
    )


def test_arrival_count_matches_rate_quadrature(default_generator):
    # midpoint-rule quadrature of rate_at vs the realized admission count
    config = GeneratorConfig.from_dict(
        {**codec.document(default_generator), "horizon": 960.0, "seed": 2718}
    )
    grid = np.arange(0.125, 960.0, 0.25)
    integral = 0.25 * sum(rate_at(float(t), config) for t in grid)
    times = sample_arrivals(config, stream(config.seed, 0))
    assert len(times) > 8000
    assert abs(len(times) - integral) / integral < 0.03


def test_thinning_hourly_counts_pass_chi_squared(default_generator):
    # goodness of fit of hourly bucket counts against the exact per-hour
    # integral of the rate, alpha = 0.01, ~10^4 admissions
    config = GeneratorConfig.from_dict(
        {**codec.document(default_generator), "horizon": 960.0, "seed": 2718}
    )
    times = sample_arrivals(config, stream(config.seed, 0))
    counts = np.bincount([int(t) for t in times], minlength=960)
    expected = np.array(
        [
            config.base_rate
            * (1.0 + config.trend_slope * (h + 0.5) / config.horizon)
            * config.hourly_profile[h % 24]
            * config.weekly_profile[(h // 24) % 7]
            * config.monthly_profile[(h // 720) % 12]
            for h in range(960)
        ]
    )
    obs_merged, exp_merged = [], []
    co = ce = 0.0
    for o, e in zip(counts, expected):
        co += o
        ce += e
        if ce >= 5.0:
            obs_merged.append(co)
            exp_merged.append(ce)
            co = ce = 0.0
    if ce > 0:
        obs_merged[-1] += co
        exp_merged[-1] += ce
    obs_arr, exp_arr = np.asarray(obs_merged), np.asarray(exp_merged)
    stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    assert stat < chi2.ppf(0.99, len(obs_arr) - 1)


def test_profile_gender_extreme():
    config = make_config(gender_p=1.0)
    rng = stream(1)
    assert all(config.samplers[0].draw(rng)[1] == "F" for _ in range(200))


def test_profile_zero_comorbidity_link():
    config = make_config(comorbidity_rate_by_age=[{"c0": 0.0, "c1": 0.0}])
    rng = stream(2)
    assert all(config.samplers[0].draw(rng)[2] == 0 for _ in range(200))


def test_profile_age_mixture_mean():
    config = make_config()
    rng = stream(10)
    ages = [config.samplers[0].draw(rng)[0] for _ in range(100_000)]
    analytic = 0.5 * 42.0 + 0.5 * 72.0
    assert abs(np.mean(ages) - analytic) / analytic < 0.01


def test_profile_always_valid(default_generator):
    rng = stream(3)
    for sampler in default_generator.samplers:
        for _ in range(500):
            age, gender, comorbidity_count, drg = sampler.draw(rng)
            assert 0 <= age <= 120
            assert gender in ("F", "M")
            assert 0 <= comorbidity_count <= 30
            assert drg in default_generator.drg_probs


def test_generate_single_department_single_stay():
    config = make_config(single_department=True, horizon=200.0)
    result = generate(config)
    lengths = dict(enumerate(np.bincount(result.log.patient).tolist()))
    assert set(lengths.values()) == {1}
    assert result.truncated_walks == 0


def test_generate_deterministic_los():
    config = make_config(single_department=True, horizon=200.0,
                         sigma_ln=0.0, beta0=math.log(48.0))
    result = generate(config)
    for los in result.log.los:
        assert los == pytest.approx(48.0, rel=1e-12)


def test_generate_ln_los_moments():
    # flat attributes: ln LoS ~ Normal(beta0, sigma_ln)
    config = make_config(single_department=True, horizon=1000.0, base_rate=10.0,
                         beta0=3.0, sigma_ln=0.4)
    result = generate(config)
    assert len(result.log) > 9000
    ln_los = np.log(result.log.los)
    assert abs(ln_los.mean() - 3.0) / 3.0 < 0.02
    assert abs(ln_los.var() - 0.16) / 0.16 < 0.02


def test_generate_bit_identical(default_generator):
    config = GeneratorConfig.from_dict(
        {**codec.document(default_generator), "horizon": 300.0}
    )
    a = generate(config)
    b = generate(config)
    assert serialize_event_log(a.log, a.profiles) == serialize_event_log(
        b.log, b.profiles
    )
    assert codec.document(ground_truth(a)) == codec.document(ground_truth(b))


def test_generate_positive_skew_when_noisy():
    for seed, sigma in ((5, 0.2), (6, 0.5)):
        config = make_config(seed=seed, horizon=400.0, sigma_ln=sigma)
        result = generate(config)
        los = result.log.los
        skew = float(((los - los.mean()) ** 3).mean() / los.std() ** 3)
        assert skew > 0.0


def test_generate_bimodal_ln_los_two_groups():
    # two drg groups, ln-mean gap 1.6, sigma 0.3: the ln histogram carries
    # two >=25% masses around the component means with a <=10% valley
    d = flat_generator_dict(seed=99, horizon=600.0)
    d["drg_probs"] = {"LOW": 0.5, "HIGH": 0.5}
    d["los_coeffs"] = {
        "beta0": 2.5,
        "beta_age": 0.0,
        "beta_com": 0.0,
        "drg_offsets": {"LOW": 0.0, "HIGH": 1.6},
        "sigma_ln": 0.3,
    }
    d["cot_coeffs"]["drg_offsets"] = {"LOW": 0.0, "HIGH": 0.0}
    config = GeneratorConfig.from_dict(d)
    result = generate(config)
    ln_los = np.log(result.log.los)
    mu_low, mu_high = 2.5, 4.1
    mass_low = np.mean((ln_los > mu_low - 0.5) & (ln_los < mu_low + 0.5))
    mass_high = np.mean((ln_los > mu_high - 0.5) & (ln_los < mu_high + 0.5))
    valley = np.mean((ln_los > mu_low + 0.55) & (ln_los < mu_high - 0.55))
    assert mass_low >= 0.25
    assert mass_high >= 0.25
    assert valley <= 0.10


def test_generate_contiguous_trajectories(default_oracle):
    log = default_oracle.log
    by_patient = {}
    for i, enter, exit_ in zip(log.patient.tolist(), log.enter.tolist(), log.exit.tolist()):
        by_patient.setdefault(i, []).append(Stay(enter, exit_))
    for stays in list(by_patient.values())[:2000]:
        stays.sort(key=lambda s: s.enter_time)
        for a, b in zip(stays, stays[1:]):
            assert b.enter_time == pytest.approx(a.exit_time, abs=1e-9)


def test_ground_truth_classes_cover_all_patients(default_oracle):
    assert default_oracle.latent_class.dtype == np.int8
    assert len(default_oracle.latent_class) == len(default_oracle.profiles)
    assert set(default_oracle.latent_class.tolist()) == {0, 1}
    truth = ground_truth(default_oracle)
    assert set(truth.latent_class) == set(default_oracle.profiles.patient_id)
    assert set(truth.latent_class.values()) == {0, 1}


# tracemalloc peak of generate on the default generator over 504 h (6,035
# patients, 9,795 stays): 2,021,987 B when it drew each patient's profile
# into a tuple, built the table from an object matrix and keyed the latent
# classes by patient id in a dict; 1,445,122 B drawing them into columns
GENERATE_PEAK_MAX = 1_750_000


def test_generate_peak_stays_below_the_per_patient_objects(default_generator):
    config = GeneratorConfig.from_dict({**codec.document(default_generator), "horizon": 504.0})
    generate(config)  # first-call caches stay out of the traced peak
    tracemalloc.start()
    try:
        result = generate(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(result.profiles), len(result.log)) == (6035, 9795)
    assert peak < GENERATE_PEAK_MAX


def test_draw_index_sums_in_order_and_falls_through_to_last():
    u = stream(17).random()
    expected = 0 if u < 0.25 else 1 if u < 0.75 else 2
    assert draw_index([0.25, 0.5, 0.25], stream(17)) == expected
    assert draw_index([0.0, 0.0, 0.0], stream(17)) == 2  # total short of any uniform


# --- the generator that drew into 5-tuples ---------------------------------------------

def reference_rate_at(t, config):
    hour = int(math.floor(t)) % 24
    day = int(math.floor(t / 24.0)) % 7
    month = int(math.floor(t / 720.0)) % 12
    return (config.base_rate * (1.0 + config.trend_slope * t / config.horizon)
            * config.hourly_profile[hour] * config.weekly_profile[day]
            * config.monthly_profile[month])


def reference_sample_arrivals(config, rng):
    """Thinning with the acceptance test after each candidate's draws."""
    rmax = rate_max(config)
    times = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rmax)
        if t >= config.horizon:
            break
        if rng.random() * rmax < reference_rate_at(t, config):
            times.append(t)
    return times


def reference_generate(config):
    """``generate`` as it was when every stay was a 5-tuple, checked as it
    was drawn."""
    arrivals = reference_sample_arrivals(config, stream(config.seed, 0))
    rng = stream(config.seed, 1)
    los, cot = config.los_coeffs, config.cot_coeffs
    entry_idx = config.departments.index(config.entry_department)
    n_dep = len(config.departments)
    walk_rows = [[cumulative(row) for row in matrix] for matrix in config.transition_matrices]
    samplers = config.samplers
    stays, profiles, latent, truncated = [], [], {}, 0
    for i, t0 in enumerate(arrivals):
        severity = 0 if config.n_classes == 1 else (
            1 if rng.random() < config.severity_split else 0)
        profiles.append(samplers[min(severity, len(samplers) - 1)].draw(rng))
        age, _, com, drg = profiles[-1]
        rows = walk_rows[severity]
        mu_fixed = (los.beta0 + los.beta_age * age / 100.0 + los.beta_com * com
                    + los.drg_offsets[drg])
        cost_fixed = cot.gamma0 + cot.drg_offsets[drg]
        state, t, n_stays = entry_idx, t0, 0
        while n_stays < WALK_CAP:
            stay_los = max(math.exp(rng.normal(mu_fixed, los.sigma_ln)), LOS_FLOOR)
            cost = max(0.0, cost_fixed + cot.gamma1 * stay_los + rng.normal(0.0, cot.sigma))
            check_stay(t, t + stay_los, cost)
            stays.append((i, state, t, t + stay_los, cost))
            t += stay_los
            n_stays += 1
            nxt = draw_cumulative(rows[state], rng)
            if nxt == n_dep:
                break
            state = nxt
        else:
            truncated += 1
        latent[f"P{i + 1:06d}"] = severity
    truth = GroundTruth(latent, truncated, len(arrivals), config)
    log = event_log(config.departments, *np.array(stays, dtype=float).reshape(-1, 5).T)
    return ReferenceResult(log, Profiles.from_rows(list(latent), profiles), truth)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=50), st.floats(-0.9, 2.0))
def test_rate_at_over_an_array_has_the_scalar_bits(times, slope):
    d = flat_generator_dict(horizon=math.nextafter(1e300, math.inf))
    d.update(trend_slope=slope, hourly_profile=[0.5 + h / 10 for h in range(24)],
             weekly_profile=[1.0 + w / 7 for w in range(7)],
             monthly_profile=[2.0 - m / 12 for m in range(12)])
    config = GeneratorConfig.from_dict(d)
    rates = rate_at(np.array(times), config)
    assert rates.tolist() == [reference_rate_at(t, config) for t in times]
    assert [rate_at(t, config) for t in times] == rates.tolist()


def _stochastic(weights):
    total = sum(weights)
    return [w / total for w in weights]


@st.composite
def generator_configs(draw):
    """Small generators: one or two classes, a shared or per-class
    comorbidity link, sigma_ln 0 or not, a rate that may give no arrivals
    and matrices whose walks may never discharge (WALK_CAP)."""
    n_dep = draw(st.integers(1, 3))
    departments = ["ER", "ICU", "WARD"][:n_dep]
    n_classes = draw(st.integers(1, 2))
    unit = st.floats(0.0, 1.0)

    def row():
        weights = draw(st.lists(st.sampled_from([0.0, 0.2, 1.0, 3.0]),
                                min_size=n_dep + 1, max_size=n_dep + 1))
        if draw(st.booleans()):
            weights[-1] = 0.0  # never discharges: the walk runs to WALK_CAP
        if not any(weights):
            weights[0] = 1.0
        return _stochastic(weights)

    drgs = ["A", "B", "C"][:draw(st.integers(1, 3))]
    offsets = st.floats(-0.5, 0.5)
    positive = st.floats(0.2, 2.0)
    return GeneratorConfig.from_dict({
        "seed": draw(st.integers(0, 2**32 - 1)),
        "horizon": draw(st.floats(0.5, 60.0)),
        "base_rate": draw(st.floats(0.05, 2.0)) if draw(st.integers(0, 5)) else 1e-9,
        "trend_slope": draw(st.floats(-0.9, 2.0)),
        "hourly_profile": draw(st.lists(positive, min_size=24, max_size=24)),
        "weekly_profile": draw(st.lists(positive, min_size=7, max_size=7)),
        "monthly_profile": draw(st.lists(positive, min_size=12, max_size=12)),
        "age_mix": {"weight": draw(unit), "mean1": draw(st.floats(20.0, 90.0)),
                    "sd1": draw(st.sampled_from([0.0, 5.0, 15.0])),
                    "mean2": draw(st.floats(20.0, 90.0)), "sd2": 10.0},
        "gender_p": draw(unit),
        "comorbidity_rate_by_age": [
            {"c0": draw(st.floats(0.0, 5.0)), "c1": draw(st.floats(-0.05, 0.1))}
            for _ in range(draw(st.sampled_from(sorted({1, n_classes}))))],
        "drg_probs": dict(zip(drgs, _stochastic(
            draw(st.lists(st.floats(0.1, 1.0), min_size=len(drgs), max_size=len(drgs)))))),
        "los_coeffs": {"beta0": draw(st.floats(-1.0, 3.0)),
                       "beta_age": draw(st.floats(-1.0, 1.0)),
                       "beta_com": draw(st.floats(-0.1, 0.2)),
                       "drg_offsets": {d: draw(offsets) for d in drgs},
                       "sigma_ln": draw(st.sampled_from([0.0, 0.3, 1.0]))},
        "cot_coeffs": {"gamma0": draw(st.floats(-500.0, 1000.0)),
                       "gamma1": draw(st.floats(0.0, 50.0)),
                       "drg_offsets": {d: draw(offsets) for d in drgs},
                       "sigma": draw(st.sampled_from([0.0, 250.0]))},
        "severity_split": draw(unit),
        "departments": departments,
        "entry_department": draw(st.sampled_from(departments)),
        "transition_matrices": [[row() for _ in departments] for _ in range(n_classes)],
    })


def assert_same_result(result, reference):
    for name in ("patient", "department", "enter", "exit", "cost"):
        assert getattr(result.log, name).tobytes() == getattr(reference.log, name).tobytes()
    assert result.log.departments == reference.log.departments
    assert result.profiles == reference.profiles
    assert list(result.profiles.patient_id) == list(reference.profiles.patient_id)
    assert codec.document(ground_truth(result)) == codec.document(reference.truth)


@settings(max_examples=120, deadline=None)
@given(generator_configs())
def test_generate_keeps_the_bits_of_the_tuple_generator(config):
    assert sample_arrivals(config, stream(config.seed, 0)) == reference_sample_arrivals(
        config, stream(config.seed, 0))
    assert_same_result(generate(config), reference_generate(config))


@pytest.mark.parametrize("case", [
    lambda config: config.n_classes == 1,
    lambda config: config.n_classes == 2 and len(config.comorbidity_rate_by_age) == 1,
    lambda config: len(config.comorbidity_rate_by_age) == 2,
    lambda config: config.los_coeffs.sigma_ln == 0.0,
    lambda config: not sample_arrivals(config, stream(config.seed, 0)),
    lambda config: generate(config).truncated_walks > 0,
], ids=["one-class", "two-classes-shared-link", "per-class-links", "sigma-ln-0",
        "no-arrivals", "walk-cap"])
def test_generator_configs_reach_each_case(case):
    find(generator_configs(), case, settings=settings(
        max_examples=500, deadline=None, database=None, phases=[Phase.generate]))
