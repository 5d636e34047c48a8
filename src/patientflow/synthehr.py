"""Seeded synthetic EHR generator used as the ground-truth oracle.

The generator combines a nonhomogeneous Poisson arrival process (linear
trend times hourly/weekly/monthly multiplier profiles, sampled exactly
by thinning), patient attribute samplers, a per-severity-class Markov
walk over departments, a log-linear stay-duration model and a linear
cost model:

    rate(t)  = base_rate * (1 + trend_slope * t / horizon)
               * hourly[floor(t) mod 24] * weekly[floor(t/24) mod 7]
               * monthly[floor(t/720) mod 12]
    ln LoS   ~ Normal(beta0 + beta_age * age/100 + beta_com * com
               + drg_offset, sigma_ln)          (per stay, hours)
    cost     = max(0, gamma0 + gamma1 * LoS + drg_offset + Normal(0, sigma))

All draws come from named PCG64 streams derived from the config seed
(see ``seeding``), so ``generate`` is bit-identical across runs and
platforms. Default configs shipped in ``scenarios/`` are calibrated only
to reproduce qualitative shapes (trend, seasonality, skew, multi-modal
stay mixes), not any real hospital's numbers.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.random import Generator

from . import codec
from .domain import (
    AGE_MAX,
    COMORBIDITY_MAX,
    EventLog,
    Profiles,
    check_stays,
    event_log,
    write_event_log,
)
from .errors import ConfigError, DataError
from .estimators import _exp
from .seeding import cumulative, draw_cumulative, stream

WALK_CAP = 50       # max stays per patient before forced discharge
LOS_FLOOR = 0.01    # hours; keeps stays positive after 6-decimal rounding
AGE_MASS_MIN = 1e-3  # least probability of an age in [0, AGE_MAX] a mixture may give


@dataclass(frozen=True)
class AgeMixture:
    """Two-component normal mixture truncated to [0, 120] years."""

    weight: float   # probability of component 1
    mean1: float
    sd1: float
    mean2: float
    sd2: float

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0):
            raise ConfigError(f"age_mix.weight {self.weight} outside [0, 1]")
        if self.sd1 < 0 or self.sd2 < 0:
            raise ConfigError("age_mix sd must be >= 0")
        mass = (self.weight * _age_mass(self.mean1, self.sd1)
                + (1.0 - self.weight) * _age_mass(self.mean2, self.sd2))
        if mass < AGE_MASS_MIN:
            raise ConfigError(f"age_mix puts {mass:.3g} of its mass on ages in "
                              f"[0, {AGE_MAX}], below {AGE_MASS_MIN:g}: ages are drawn "
                              "by rejection and the draw would not end")


def _age_mass(mean: float, sd: float) -> float:
    """Probability of [0, AGE_MAX] under Normal(mean, sd); sd 0 is a point mass."""
    if sd == 0:
        return float(0.0 <= mean <= AGE_MAX)
    scale = sd * math.sqrt(2.0)
    return 0.5 * (math.erf((AGE_MAX - mean) / scale) - math.erf(-mean / scale))


@dataclass(frozen=True)
class LinearRate:
    """Poisson comorbidity-count rate c0 + c1 * age, clipped at 0."""

    c0: float
    c1: float

    def at(self, age: int) -> float:
        return max(0.0, self.c0 + self.c1 * age)


@codec.tagged("attributes")
@dataclass(frozen=True)
class AttributeSampler:
    """Parametric attribute generator (age mixture, gender, comorbidity
    link, DRG categorical)."""

    age_mix: AgeMixture
    gender_p: float
    comorbidity: LinearRate
    drg_probs: dict[str, float]

    def __post_init__(self):
        if not (0.0 <= self.gender_p <= 1.0):
            raise ConfigError("gender_p outside [0, 1]")
        if not self.drg_probs or min(self.drg_probs.values()) < 0:
            raise ConfigError("drg_probs must be non-empty and non-negative")
        if abs(sum(self.drg_probs.values()) - 1.0) > 1e-9:
            raise ConfigError("drg_probs must sum to 1")

    @cached_property
    def drg_table(self) -> tuple[tuple[str, ...], list[float]]:
        """The DRG levels and their running probability sums."""
        return tuple(self.drg_probs), cumulative(self.drg_probs.values())

    def draw(self, rng: Generator) -> tuple:
        """One patient's (age, gender, comorbidity_count, drg): age by
        rejection from the mixture truncated to [0, 120], a Poisson
        comorbidity count capped at 30."""
        age_mix = self.age_mix
        while True:
            if rng.random() < age_mix.weight:
                x = rng.normal(age_mix.mean1, age_mix.sd1)
            else:
                x = rng.normal(age_mix.mean2, age_mix.sd2)
            if 0.0 <= x <= AGE_MAX:
                break
        age = int(round(x))
        gender = "F" if rng.random() < self.gender_p else "M"
        com = min(int(rng.poisson(self.comorbidity.at(age))), COMORBIDITY_MAX)
        levels, cum = self.drg_table
        return age, gender, com, levels[draw_cumulative(cum, rng)]


@dataclass(frozen=True)
class LosCoeffs:
    beta0: float
    beta_age: float
    beta_com: float
    drg_offsets: dict[str, float]
    sigma_ln: float

    def __post_init__(self):
        if self.sigma_ln < 0:
            raise ConfigError("los_coeffs.sigma_ln must be >= 0")


@dataclass(frozen=True)
class CotCoeffs:
    gamma0: float
    gamma1: float
    drg_offsets: dict[str, float]
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ConfigError("cot_coeffs.sigma must be >= 0")


def _check_profile(name: str, values: tuple[float, ...], length: int) -> None:
    if len(values) != length:
        raise ConfigError(f"{name} must have {length} entries, got {len(values)}")
    if any(v <= 0 for v in values):
        raise ConfigError(f"{name} entries must be strictly positive")


@dataclass(frozen=True)
class GeneratorConfig:
    """Every data-generating mechanism, in one seedable document."""

    seed: int
    horizon: float
    base_rate: float
    trend_slope: float
    hourly_profile: tuple[float, ...]
    weekly_profile: tuple[float, ...]
    monthly_profile: tuple[float, ...]
    age_mix: AgeMixture
    gender_p: float
    comorbidity_rate_by_age: tuple[LinearRate, ...]
    drg_probs: dict[str, float]
    los_coeffs: LosCoeffs
    cot_coeffs: CotCoeffs
    severity_split: float
    departments: tuple[str, ...]
    entry_department: str
    transition_matrices: tuple[tuple[tuple[float, ...], ...], ...]

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        if self.base_rate <= 0:
            raise ConfigError("base_rate must be positive")
        _check_profile("hourly_profile", self.hourly_profile, 24)
        _check_profile("weekly_profile", self.weekly_profile, 7)
        _check_profile("monthly_profile", self.monthly_profile, 12)
        if not (0.0 <= self.severity_split <= 1.0):
            raise ConfigError("severity_split outside [0, 1]")
        self.samplers  # checks gender_p and drg_probs
        for drg in self.drg_probs:
            if drg not in self.los_coeffs.drg_offsets:
                raise ConfigError(f"los_coeffs.drg_offsets missing {drg!r}")
            if drg not in self.cot_coeffs.drg_offsets:
                raise ConfigError(f"cot_coeffs.drg_offsets missing {drg!r}")
        if self.entry_department not in self.departments:
            raise ConfigError(f"entry_department {self.entry_department!r} unknown")
        if len(set(self.departments)) != len(self.departments):
            raise ConfigError("duplicate department names")
        n_classes = len(self.transition_matrices)
        if n_classes not in (1, 2):
            raise ConfigError("need one transition matrix per severity class (1 or 2)")
        if len(self.comorbidity_rate_by_age) not in (1, n_classes):
            raise ConfigError("comorbidity_rate_by_age must be shared or per class")
        n = len(self.departments)
        for ci, matrix in enumerate(self.transition_matrices):
            if len(matrix) != n:
                raise ConfigError(f"class {ci}: need one row per department")
            for row in matrix:
                if len(row) != n + 1:
                    raise ConfigError(
                        f"class {ci}: rows need {n + 1} entries "
                        "(departments then DISCHARGE)"
                    )
                if any(p < 0 for p in row):
                    raise ConfigError(f"class {ci}: negative transition probability")
                if abs(sum(row) - 1.0) > 1e-9:
                    raise ConfigError(f"class {ci}: row not stochastic")

    @property
    def n_classes(self) -> int:
        return len(self.transition_matrices)

    @cached_property
    def samplers(self) -> tuple[AttributeSampler, ...]:
        """The attribute sampler of each comorbidity link."""
        return tuple(AttributeSampler(self.age_mix, self.gender_p, rate, self.drg_probs)
                     for rate in self.comorbidity_rate_by_age)

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorConfig":
        return codec.read(cls, d, "generator")


@dataclass(frozen=True)
class GroundTruth:
    """Latent state the simulator never sees: the ``ground_truth.json``
    document."""

    latent_class: dict[str, int]
    truncated_walks: int
    n_patients: int
    config: GeneratorConfig


@dataclass(frozen=True, eq=False)
class GenerateResult:
    """A generated log and its profiles, with the latent state: each
    profile's severity class (an int8 column aligned with the profile
    rows) and the walks cut at ``WALK_CAP``."""

    log: EventLog
    profiles: Profiles
    latent_class: np.ndarray
    truncated_walks: int
    config: GeneratorConfig


def ground_truth(result: GenerateResult) -> GroundTruth:
    """The ground-truth document of a result, its latent classes keyed by
    patient id in profile row order."""
    return GroundTruth(
        latent_class=dict(zip(result.profiles.patient_id, map(int, result.latent_class))),
        truncated_walks=result.truncated_walks,
        n_patients=len(result.profiles),
        config=result.config,
    )


# expected arrivals per run: a generator's and an engine arrival driver's;
# the log of scenarios/default.json has 47,277
ARRIVALS_MAX = 10_000_000


def check_expected_arrivals(expected: float, source: str, horizon: float) -> None:
    """Reject, before the first draw, a source of arrivals that expects
    more than ARRIVALS_MAX of them, or a count that is not finite."""
    if not expected <= ARRIVALS_MAX:
        raise ConfigError(f"{source} expects {expected:.3g} arrivals over horizon "
                          f"{horizon!r} h, more than {ARRIVALS_MAX}")


def rate_at(t, config: GeneratorConfig):
    """Instantaneous admission rate (per hour) at time t, or at each time
    of an array t. Each rate takes the scalar formula's operations in
    its order, so the array form has the scalar form's bits."""
    times = np.asarray(t, dtype=float)
    outside = ~((0.0 <= times) & (times < config.horizon))
    if outside.any():
        raise DataError(f"t={times[outside].flat[0].item()} outside [0, {config.horizon})")
    # a float remainder is exact, and unlike an int64 cast it holds any t
    hour = (np.floor(times) % 24).astype(np.intp)
    day = (np.floor(times / 24.0) % 7).astype(np.intp)
    month = (np.floor(times / 720.0) % 12).astype(np.intp)
    rate = (
        config.base_rate
        * (1.0 + config.trend_slope * times / config.horizon)
        * np.asarray(config.hourly_profile)[hour]
        * np.asarray(config.weekly_profile)[day]
        * np.asarray(config.monthly_profile)[month]
    )
    return rate if times.ndim else float(rate)


def rate_max(config: GeneratorConfig) -> float:
    """Dominating constant rate used by the thinning sampler."""
    return (
        config.base_rate
        * (1.0 + max(0.0, config.trend_slope))
        * max(config.hourly_profile)
        * max(config.weekly_profile)
        * max(config.monthly_profile)
    )


def sample_arrivals(config: GeneratorConfig, rng: Generator) -> list[float]:
    """Sample admission times by thinning a dominating Poisson process.

    Candidate points arrive at constant rate ``rate_max`` and are kept
    with probability rate(t) / rate_max, which yields an exact draw of
    the nonhomogeneous process. Times are strictly increasing. Each
    candidate takes an ``exponential`` gap, then a ``random`` uniform;
    the acceptance test runs once over all candidates after the draws.
    """
    rmax = rate_max(config)
    if not rmax > 0.0:
        raise ConfigError(f"generator base_rate {config.base_rate!r} gives a peak rate "
                          f"of {rmax!r} per h, which must be > 0")
    check_expected_arrivals(rmax * config.horizon, f"generator base_rate "
                            f"{config.base_rate!r} (peak rate {rmax:.3g} per h)",
                            config.horizon)
    exponential, random = rng.exponential, rng.random
    scale = 1.0 / rmax
    times, uniforms = array("d"), array("d")
    t = 0.0
    while True:
        t += exponential(scale)
        if t >= config.horizon:
            break
        times.append(t)
        uniforms.append(random())
    t_all = np.frombuffer(times)
    return t_all[np.frombuffer(uniforms) * rmax < rate_at(t_all, config)].tolist()


def generate(config: GeneratorConfig) -> GenerateResult:
    """Produce a full synthetic event log with its hidden ground truth.

    Patient i draws, in order: its severity (one ``random``, none with one
    class), its attributes, then per stay a ``normal`` log stay, a
    ``normal`` cost term and a ``random`` next move. The stays are checked
    as ``check_stay`` checks them once the draws are done.
    """
    arrivals = sample_arrivals(config, stream(config.seed, 0))
    rng = stream(config.seed, 1)  # attributes, stays, costs and walks
    random, normal = rng.random, rng.normal
    los = config.los_coeffs
    cot = config.cot_coeffs
    sigma_ln, sigma_cot, gamma1 = los.sigma_ln, cot.sigma, cot.gamma1
    two_classes, split = config.n_classes == 2, config.severity_split
    entry_idx = config.departments.index(config.entry_department)
    n_dep = len(config.departments)
    walk_rows = [[cumulative(row) for row in matrix] for matrix in config.transition_matrices]
    samplers = config.samplers  # by severity; the last serves every higher class

    patient, department = array("q"), array("q")
    enter, exit_, cost = array("d"), array("d"), array("d")
    ages, comorbidities, severities = array("q"), array("q"), array("b")
    genders: list[str] = []
    drgs: list[str] = []
    truncated = 0

    for i, t in enumerate(arrivals):
        severity = (1 if random() < split else 0) if two_classes else 0
        age, gender, com, drg = samplers[min(severity, len(samplers) - 1)].draw(rng)
        ages.append(age)
        genders.append(gender)
        comorbidities.append(com)
        drgs.append(drg)
        severities.append(severity)
        rows = walk_rows[severity]
        mu_fixed = (
            los.beta0
            + los.beta_age * age / 100.0
            + los.beta_com * com
            + los.drg_offsets[drg]
        )
        cost_fixed = cot.gamma0 + cot.drg_offsets[drg]

        state = entry_idx
        n_stays = 0
        while n_stays < WALK_CAP:
            stay_los = max(_exp(normal(mu_fixed, sigma_ln)), LOS_FLOOR)
            patient.append(i)
            department.append(state)
            enter.append(t)
            t += stay_los
            exit_.append(t)
            cost.append(max(0.0, cost_fixed + gamma1 * stay_los + normal(0.0, sigma_cot)))
            n_stays += 1
            nxt = draw_cumulative(rows[state], rng)
            if nxt == n_dep:  # DISCHARGE column
                break
            state = nxt
        else:
            truncated += 1

    enter, exit_, cost = (np.frombuffer(column) for column in (enter, exit_, cost))
    check_stays(enter, exit_, cost)
    log = event_log(config.departments, np.frombuffer(patient, dtype=np.int64),
                    np.frombuffer(department, dtype=np.int64), enter, exit_, cost)
    profiles = Profiles([f"P{i + 1:06d}" for i in range(len(arrivals))],
                        np.frombuffer(ages, dtype=np.int64), genders,
                        np.frombuffer(comorbidities, dtype=np.int64), drgs)
    return GenerateResult(log, profiles, np.frombuffer(severities, dtype=np.int8),
                          truncated, config)


def write_outputs(result: GenerateResult, out_dir: str | Path) -> tuple[Path, Path]:
    """Write log.csv and ground_truth.json into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "log.csv"
    truth_path = out / "ground_truth.json"
    with open(log_path, "w", encoding="utf-8", newline="") as file:
        write_event_log(result.log, result.profiles, file)
    codec.write(ground_truth(result), truth_path)
    return log_path, truth_path
