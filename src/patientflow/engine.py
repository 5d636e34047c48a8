"""Discrete-event simulation of multi-department patient flow.

The kernel is a priority queue keyed by (time, seq) with a monotone
64-bit seq, so ties resolve in scheduling order and a fixed (config,
seed) pair replays bit-identically. Three event kinds exist: Arrival
(sample a profile, pick a pathway, request the first bed), Seize
(occupy a bed or join the FIFO wait queue) and StayEnd (release the
bed, hand it to the queue head, route onward or discharge).

Conventions:

* Forecast-driven arrival counts are Poisson with the forecast as the
  per-bucket mean, placed uniformly in the bucket (a forecast is an
  expected count, not a realization); ``deterministic=True`` instead
  places exactly round(forecast) arrivals at evenly spaced offsets.
* Beds are the only resource; when a department is full, patients wait
  in an unbounded FIFO queue and the wait is a reported outcome.
* A stay's duration is sampled when the bed is granted. Cost is
  sampled once per admission at discharge from the admission-level
  model.
* Patients still in the system at the horizon stay truncated (counted
  as in-system, never force-discharged). The census series ends at the
  horizon.
* Patient-level aggregates cover the cohort admitted at or after
  warm_up; census averages cover [warm_up, horizon].
"""

from __future__ import annotations

import heapq
import json
import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence, Union

import numpy as np
from numpy.random import Generator

from .domain import DISCHARGE, ENTRY, DepartmentSpec, PatientProfile
from .errors import ConfigError, ForecastTooShort, ModelIncompatible
from .estimators import sample as sample_estimator
from .pathways import PathwayClusters, TransitionMatrix, assign, next_department
from .seeding import stream
from .synthehr import WALK_CAP, AgeMixture, LinearRate, draw_attributes

_ARRIVAL, _SEIZE, _STAY_END = 0, 1, 2


# --- arrival drivers ----------------------------------------------------------

@dataclass(frozen=True)
class PoissonBaseline:
    """Homogeneous Poisson arrivals at lam per bucket."""

    lam: float
    bucket_width: float = 24.0


@dataclass(frozen=True)
class ForecastDriven:
    """Arrivals follow a per-bucket expected-count forecast."""

    forecast: tuple[float, ...]
    bucket_width: float
    deterministic: bool = False


ArrivalDriver = Union[PoissonBaseline, ForecastDriven]


def inject_arrivals(driver: ArrivalDriver, horizon: float, rng: Generator) -> list[float]:
    """Materialize arrival times on [0, horizon)."""
    if isinstance(driver, PoissonBaseline):
        rate = driver.lam / driver.bucket_width  # per hour
        times: list[float] = []
        if rate <= 0.0:
            return times
        t = 0.0
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= horizon:
                return times
            times.append(t)
    if isinstance(driver, ForecastDriven):
        w = driver.bucket_width
        n_buckets = int(math.ceil(horizon / w - 1e-9))
        if len(driver.forecast) < n_buckets:
            raise ForecastTooShort(
                f"forecast covers {len(driver.forecast)} buckets, horizon needs {n_buckets}"
            )
        times = []
        for b in range(n_buckets):
            lo, hi = b * w, min((b + 1) * w, horizon)
            frac = (hi - lo) / w
            mean = driver.forecast[b] * frac
            if driver.deterministic:
                count = int(round(mean))
                times.extend(lo + (hi - lo) * i / count for i in range(count))
            else:
                count = int(rng.poisson(mean)) if mean > 0 else 0
                times.extend(float(u) for u in rng.uniform(lo, hi, size=count))
        times.sort()
        return times
    raise ConfigError(f"unknown arrival driver {type(driver).__name__}")


# --- profile samplers -----------------------------------------------------------

@dataclass(frozen=True)
class AttributeSampler:
    """Parametric attribute generator (age mixture, gender, comorbidity
    link, DRG categorical)."""

    age_mix: AgeMixture
    gender_p: float
    comorbidity: LinearRate
    drg_probs: dict[str, float]

    def sample(self, rng: Generator, patient_id: str) -> PatientProfile:
        return draw_attributes(rng, self.age_mix, self.gender_p, self.comorbidity,
                               self.drg_probs, patient_id)


@dataclass(frozen=True)
class EmpiricalSampler:
    """Resample observed profiles uniformly with replacement."""

    profiles: tuple[PatientProfile, ...]

    def sample(self, rng: Generator, patient_id: str) -> PatientProfile:
        base = self.profiles[int(rng.integers(len(self.profiles)))]
        return replace(base, patient_id=patient_id)


ProfileSampler = Union[AttributeSampler, EmpiricalSampler]


# --- configuration and results -----------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    departments: tuple[DepartmentSpec, ...]
    horizon: float
    warm_up: float
    arrival_driver: ArrivalDriver
    los_models: dict  # department name -> estimator model
    cot_model: object  # admission-level cost model
    pathway: Union[TransitionMatrix, PathwayClusters]
    profile_sampler: ProfileSampler
    seed: int
    replications: int = 1

    def __post_init__(self):
        if not (0.0 <= self.warm_up < self.horizon):
            raise ConfigError("warm_up must lie in [0, horizon)")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        names = [d.name for d in self.departments]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate department names")
        for name in names:
            if name not in self.los_models:
                raise ModelIncompatible(f"department {name!r} has no stay-duration model")


@dataclass(frozen=True)
class StayRecord:
    department: str
    request_time: float
    start_time: float
    end_time: float

    @property
    def wait(self) -> float:
        return self.start_time - self.request_time

    @property
    def los(self) -> float:
        return self.end_time - self.start_time


@dataclass(frozen=True)
class PatientRecord:
    patient_id: str
    profile: PatientProfile
    admission_time: float
    cluster: int | None
    stays: tuple[StayRecord, ...]
    discharge_time: float | None
    total_cost: float | None

    @property
    def total_los(self) -> float:
        return sum(s.los for s in self.stays)

    @property
    def total_wait(self) -> float:
        return sum(s.wait for s in self.stays)


@dataclass(frozen=True)
class SimResult:
    horizon: float
    warm_up: float
    seed: int
    replication: int
    admissions: int
    discharges: int
    in_system: int
    truncated_walks: int
    census: dict  # department -> tuple[(time, occupied)], step series to horizon
    avg_census: dict  # department -> time-average over [warm_up, horizon]
    utilization: dict  # department -> avg / capacity (None when unbounded)
    patients: tuple[PatientRecord, ...]  # all patients, cohort derivable by admission_time


class _Patient:
    __slots__ = ("pid", "profile", "admission_time", "cluster", "matrix",
                 "request_time", "stays", "discharge_time", "cost")

    def __init__(self, pid: str, profile: PatientProfile, t: float):
        self.pid = pid
        self.profile = profile
        self.admission_time = t
        self.cluster: int | None = None
        self.matrix: TransitionMatrix | None = None
        self.request_time = t
        self.stays: list[StayRecord] = []
        self.discharge_time: float | None = None
        self.cost: float | None = None


class _Dept:
    __slots__ = ("spec", "occupied", "queue", "census")

    def __init__(self, spec: DepartmentSpec):
        self.spec = spec
        self.occupied = 0
        self.queue: deque[_Patient] = deque()
        self.census: list[tuple[float, int]] = [(0.0, 0)]


def _integrate_mean(series: Sequence[tuple[float, float]], a: float, b: float) -> float:
    """Time average of a step series over [a, b]."""
    if b <= a:
        return 0.0
    total = 0.0
    for (t0, v), (t1, _) in zip(series, series[1:]):
        lo, hi = max(t0, a), min(t1, b)
        if hi > lo:
            total += v * (hi - lo)
    return total / (b - a)


def bucket_census(series: Sequence[tuple[float, float]], width: float,
                  horizon: float) -> list[float]:
    """Per-bucket time-averaged census of a step series over [0, horizon)."""
    nb = int(math.ceil(horizon / width - 1e-9))
    acc = [0.0] * nb
    for (t0, v), (t1, _) in zip(series, series[1:]):
        lo, hi = max(t0, 0.0), min(t1, horizon)
        while lo < hi - 1e-12:
            k = min(int(lo // width), nb - 1)
            edge = min((k + 1) * width, hi)
            acc[k] += v * (edge - lo)
            lo = edge
    out = []
    for k in range(nb):
        span = min((k + 1) * width, horizon) - k * width
        out.append(acc[k] / span)
    return out


def run(config: SimConfig, replication: int = 0) -> SimResult:
    """Execute one replication of the event loop."""
    arr_rng = stream(config.seed, replication, 0)
    prof_rng = stream(config.seed, replication, 1)
    route_rng = stream(config.seed, replication, 2)
    los_rng = stream(config.seed, replication, 3)
    cost_rng = stream(config.seed, replication, 4)

    arrivals = inject_arrivals(config.arrival_driver, config.horizon, arr_rng)
    heap: list[tuple] = [(t, i, _ARRIVAL, None, None) for i, t in enumerate(arrivals)]
    heapq.heapify(heap)
    seq = len(arrivals)

    depts = {d.name: _Dept(d) for d in config.departments}
    clustered = isinstance(config.pathway, PathwayClusters)
    patients: list[_Patient] = []
    truncated = 0
    last_time = 0.0

    def schedule(time: float, kind: int, patient, dept_name):
        nonlocal seq
        heapq.heappush(heap, (time, seq, kind, patient, dept_name))
        seq += 1

    def start_stay(patient: _Patient, dept: _Dept, now: float):
        dept.occupied += 1
        dept.census.append((now, dept.occupied))
        name = dept.spec.name
        los = sample_estimator(config.los_models[name], los_rng, profile=patient.profile)
        patient.stays.append(StayRecord(name, patient.request_time, now, now + los))
        schedule(now + los, _STAY_END, patient, name)

    def discharge(patient: _Patient, now: float):
        patient.discharge_time = now
        patient.cost = sample_estimator(config.cot_model, cost_rng, profile=patient.profile)

    while heap:
        time, _, kind, patient, dept_name = heapq.heappop(heap)
        if time >= config.horizon:
            break
        assert time >= last_time  # event causality
        last_time = time

        if kind == _ARRIVAL:
            pid = f"S{len(patients) + 1:06d}"
            profile = config.profile_sampler.sample(prof_rng, pid)
            patient = _Patient(pid, profile, time)
            if clustered:
                patient.cluster = assign(profile, config.pathway)
                patient.matrix = config.pathway.routing_matrix(patient.cluster)
            else:
                patient.matrix = config.pathway
            patients.append(patient)
            first = next_department(ENTRY, patient.matrix, route_rng)
            if first == DISCHARGE:
                discharge(patient, time)
            else:
                if first not in depts:
                    raise ModelIncompatible(f"pathway routes to unknown department {first!r}")
                patient.request_time = time
                schedule(time, _SEIZE, patient, first)

        elif kind == _SEIZE:
            dept = depts[dept_name]
            cap = dept.spec.bed_capacity
            if cap is None or dept.occupied < cap:
                start_stay(patient, dept, time)
            else:
                dept.queue.append(patient)

        else:  # _STAY_END
            dept = depts[dept_name]
            dept.occupied -= 1
            dept.census.append((time, dept.occupied))
            nxt = next_department(dept_name, patient.matrix, route_rng)
            if nxt != DISCHARGE and len(patient.stays) >= WALK_CAP:
                truncated += 1
                nxt = DISCHARGE
            if nxt == DISCHARGE:
                discharge(patient, time)
            else:
                if nxt not in depts:
                    raise ModelIncompatible(f"pathway routes to unknown department {nxt!r}")
                patient.request_time = time
                schedule(time, _SEIZE, patient, nxt)
            if dept.queue:
                cap = dept.spec.bed_capacity
                if cap is None or dept.occupied < cap:
                    start_stay(dept.queue.popleft(), dept, time)

    census = {}
    avg_census = {}
    utilization = {}
    for name, dept in depts.items():
        dept.census.append((config.horizon, dept.occupied))
        census[name] = tuple(dept.census)
        avg = _integrate_mean(dept.census, config.warm_up, config.horizon)
        avg_census[name] = avg
        cap = dept.spec.bed_capacity
        utilization[name] = (avg / cap) if cap is not None else None

    records = tuple(
        PatientRecord(
            patient_id=p.pid,
            profile=p.profile,
            admission_time=p.admission_time,
            cluster=p.cluster,
            stays=tuple(p.stays),
            discharge_time=p.discharge_time,
            total_cost=p.cost,
        )
        for p in patients
    )
    cohort = [p for p in records if p.admission_time >= config.warm_up]
    admissions = len(cohort)
    discharges = sum(1 for p in cohort if p.discharge_time is not None)
    return SimResult(
        horizon=config.horizon,
        warm_up=config.warm_up,
        seed=config.seed,
        replication=replication,
        admissions=admissions,
        discharges=discharges,
        in_system=admissions - discharges,
        truncated_walks=truncated,
        census=census,
        avg_census=avg_census,
        utilization=utilization,
        patients=records,
    )


@dataclass(frozen=True)
class ReplicationSummary:
    bucket_width: float
    horizon: float
    replications: int
    mean_census: dict  # department -> tuple of per-bucket means across replications
    sd_census: dict    # department -> tuple of per-bucket sds (population)
    mean_avg_census: dict
    mean_utilization: dict


def _run_indexed(args: tuple[SimConfig, int]) -> SimResult:
    return run(args[0], args[1])


def replicate(
    config: SimConfig, jobs: int = 1, census_bucket: float = 24.0
) -> tuple[list[SimResult], ReplicationSummary]:
    """Run R independent replications and summarize census across them.

    Replication r draws from sub-streams keyed by (seed, r), so results
    are identical whatever the execution order or the number of worker
    processes; the summary reduces results pre-sorted by index.
    """
    indices = list(range(config.replications))
    if jobs > 1 and config.replications > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_indexed, [(config, r) for r in indices]))
    else:
        results = [run(config, r) for r in indices]

    per_dept: dict[str, np.ndarray] = {}
    for d in config.departments:
        rows = np.asarray(
            [bucket_census(res.census[d.name], census_bucket, config.horizon)
             for res in results]
        )
        per_dept[d.name] = rows
    summary = ReplicationSummary(
        bucket_width=census_bucket,
        horizon=config.horizon,
        replications=config.replications,
        mean_census={k: tuple(float(v) for v in rows.mean(axis=0))
                     for k, rows in per_dept.items()},
        sd_census={k: tuple(float(v) for v in rows.std(axis=0))
                   for k, rows in per_dept.items()},
        mean_avg_census={
            d.name: float(np.mean([res.avg_census[d.name] for res in results]))
            for d in config.departments
        },
        mean_utilization={
            d.name: (
                None
                if d.bed_capacity is None
                else float(np.mean([res.utilization[d.name] for res in results]))
            )
            for d in config.departments
        },
    )
    return results, summary


# --- exports --------------------------------------------------------------------

def write_census_csv(result: SimResult, path: Path) -> None:
    lines = ["time,department,occupied"]
    for name in sorted(result.census):
        for t, occ in result.census[name]:
            lines.append(f"{t:.6f},{name},{occ}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_patients_csv(result: SimResult, path: Path) -> None:
    lines = ["patient_id,admission,discharge,los,wait,cost,trajectory"]
    for p in result.patients:
        discharge = f"{p.discharge_time:.6f}" if p.discharge_time is not None else ""
        cost = f"{p.total_cost:.6f}" if p.total_cost is not None else ""
        path_str = "|".join(s.department for s in p.stays)
        lines.append(
            f"{p.patient_id},{p.admission_time:.6f},{discharge},"
            f"{p.total_los:.6f},{p.total_wait:.6f},{cost},{path_str}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def summary_jsonable(results: list[SimResult], summary: ReplicationSummary) -> dict:
    return {
        "replications": summary.replications,
        "horizon": summary.horizon,
        "census_bucket_width": summary.bucket_width,
        "per_replication": [
            {
                "replication": r.replication,
                "admissions": r.admissions,
                "discharges": r.discharges,
                "in_system": r.in_system,
                "truncated_walks": r.truncated_walks,
                "avg_census": r.avg_census,
                "utilization": r.utilization,
            }
            for r in results
        ],
        "mean_census_per_bucket": {k: list(v) for k, v in summary.mean_census.items()},
        "sd_census_per_bucket": {k: list(v) for k, v in summary.sd_census.items()},
        "mean_avg_census": summary.mean_avg_census,
        "mean_utilization": summary.mean_utilization,
    }


def write_summary_json(results: list[SimResult], summary: ReplicationSummary,
                       path: Path) -> None:
    path.write_text(
        json.dumps(summary_jsonable(results, summary), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
