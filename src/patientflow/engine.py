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
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Union

import numpy as np
from numpy.random import Generator

from .domain import DISCHARGE, ENTRY, DepartmentSpec, PatientProfile
from .errors import ConfigError, ForecastTooShort, InvariantViolation, ModelIncompatible
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
#
# ``sample(rng, patient_id=None)`` draws one arrival's profile. The engine
# passes no id: it identifies patients by arrival index, so the profile's
# own id is irrelevant there.

@dataclass(frozen=True)
class AttributeSampler:
    """Parametric attribute generator (age mixture, gender, comorbidity
    link, DRG categorical)."""

    age_mix: AgeMixture
    gender_p: float
    comorbidity: LinearRate
    drg_probs: dict[str, float]

    def sample(self, rng: Generator, patient_id: str | None = None) -> PatientProfile:
        return draw_attributes(rng, self.age_mix, self.gender_p, self.comorbidity,
                               self.drg_probs, patient_id or "")


@dataclass(frozen=True)
class EmpiricalSampler:
    """Resample observed profiles uniformly with replacement."""

    profiles: tuple[PatientProfile, ...]

    def sample(self, rng: Generator, patient_id: str | None = None) -> PatientProfile:
        """The pooled profile itself, relabelled only when an id is given."""
        base = self.profiles[int(rng.integers(len(self.profiles)))]
        return base if patient_id is None else replace(base, patient_id=patient_id)


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


def _patient_id(index: int) -> str:
    """The id of the patient with the given arrival index."""
    return f"S{index + 1:06d}"


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_same(a[k], b[k]) for k in a))
    return a == b


@dataclass(frozen=True, eq=False)
class SimResult:
    """One replication, its patients and stays stored as columns.

    Per patient, in arrival order: ``admission``; ``discharge`` and
    ``cost``, NaN while the patient is still in the system; ``cluster``,
    -1 without clustered pathways; and ``stay_offset``, one entry longer:
    patient i's stays are rows ``stay_offset[i]:stay_offset[i + 1]`` of
    the stay columns. Per stay, patient-major and then in stay order:
    ``stay_department`` (an index into ``departments``), ``stay_request``,
    ``stay_start`` and ``stay_end``. Per department: ``census_times`` and
    ``census_occupied``, the occupancy step series up to the horizon.

    ``census`` and ``patients`` are read-only views built from the
    columns on access, for tests and inspection.
    """

    horizon: float
    warm_up: float
    seed: int
    replication: int
    admissions: int
    discharges: int
    in_system: int
    truncated_walks: int
    avg_census: dict  # department -> time-average over [warm_up, horizon]
    utilization: dict  # department -> avg / capacity (None when unbounded)
    departments: tuple[str, ...]
    admission: np.ndarray
    discharge: np.ndarray
    cost: np.ndarray
    cluster: np.ndarray
    stay_offset: np.ndarray
    stay_department: np.ndarray
    stay_request: np.ndarray
    stay_start: np.ndarray
    stay_end: np.ndarray
    census_times: dict  # department -> step times, 0 to horizon
    census_occupied: dict  # department -> occupied beds from each step time on

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimResult):
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    @property
    def census(self) -> dict:
        """department -> tuple of (time, occupied) steps"""
        return {name: tuple(zip(self.census_times[name].tolist(),
                                self.census_occupied[name].tolist()))
                for name in self.departments}

    @property
    def patients(self) -> "PatientsView":
        return PatientsView(self)


def _optional(value: float) -> float | None:
    return None if math.isnan(value) else value


class PatientsView(Sequence):
    """A SimResult's patients as records, built on access."""

    __slots__ = ("_result",)

    def __init__(self, result: SimResult):
        self._result = result

    def __len__(self) -> int:
        return len(self._result.admission)

    def __getitem__(self, index: int) -> PatientRecord:
        n = len(self)
        if not -n <= index < n:
            raise IndexError("patient index out of range")
        index %= n
        return next(self._records(index, index + 1))

    def __iter__(self):
        return self._records(0, len(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PatientsView):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def _records(self, start: int, stop: int):
        """Records of patients start..stop-1, converting their columns once."""
        r = self._result
        offset = r.stay_offset[start:stop + 1].tolist()
        lo, hi = offset[0], offset[-1]
        stays = list(map(StayRecord,
                         [r.departments[d] for d in r.stay_department[lo:hi].tolist()],
                         r.stay_request[lo:hi].tolist(), r.stay_start[lo:hi].tolist(),
                         r.stay_end[lo:hi].tolist()))
        rows = zip(range(start, stop), r.admission[start:stop].tolist(),
                   r.discharge[start:stop].tolist(), r.cost[start:stop].tolist(),
                   r.cluster[start:stop].tolist(), offset, offset[1:])
        for i, admission, discharge, cost, cluster, first, last in rows:
            yield PatientRecord(
                patient_id=_patient_id(i),
                admission_time=admission,
                cluster=cluster if cluster >= 0 else None,
                stays=tuple(stays[first - lo:last - lo]),
                discharge_time=_optional(discharge),
                total_cost=_optional(cost),
            )


class _Patient:
    __slots__ = ("index", "profile", "matrix", "request_time", "n_stays")

    def __init__(self, index: int, profile: PatientProfile, t: float):
        self.index = index
        self.profile = profile
        self.matrix: TransitionMatrix | None = None
        self.request_time = t
        self.n_stays = 0


class _Dept:
    __slots__ = ("spec", "index", "occupied", "queue", "times", "occupancy")

    def __init__(self, spec: DepartmentSpec, index: int):
        self.spec = spec
        self.index = index
        self.occupied = 0
        self.queue: deque[_Patient] = deque()
        self.times: list[float] = [0.0]
        self.occupancy: list[int] = [0]


def _integrate_mean(times: Sequence[float], values: Sequence[float],
                    a: float, b: float) -> float:
    """Time average of a step series over [a, b]."""
    if b <= a:
        return 0.0
    total = 0.0
    for t0, t1, v in zip(times, times[1:], values):
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

    depts = {d.name: _Dept(d, i) for i, d in enumerate(config.departments)}
    clustered = isinstance(config.pathway, PathwayClusters)
    # per patient, in arrival order
    admission: list[float] = []
    discharge: list[float] = []
    cost: list[float] = []
    cluster: list[int] = []
    # per stay, in the order beds are granted
    stay_patient: list[int] = []
    stay_department: list[int] = []
    stay_request: list[float] = []
    stay_start: list[float] = []
    stay_end: list[float] = []
    truncated = 0
    last_time = 0.0

    def schedule(time: float, kind: int, patient, dept_name):
        nonlocal seq
        heapq.heappush(heap, (time, seq, kind, patient, dept_name))
        seq += 1

    def start_stay(patient: _Patient, dept: _Dept, now: float):
        dept.occupied += 1
        dept.times.append(now)
        dept.occupancy.append(dept.occupied)
        name = dept.spec.name
        los = sample_estimator(config.los_models[name], los_rng, profile=patient.profile)
        patient.n_stays += 1
        stay_patient.append(patient.index)
        stay_department.append(dept.index)
        stay_request.append(patient.request_time)
        stay_start.append(now)
        stay_end.append(now + los)
        schedule(now + los, _STAY_END, patient, name)

    def discharge_at(patient: _Patient, now: float):
        discharge[patient.index] = now
        cost[patient.index] = sample_estimator(config.cot_model, cost_rng,
                                               profile=patient.profile)

    while heap:
        time, _, kind, patient, dept_name = heapq.heappop(heap)
        if time >= config.horizon:
            break
        if time < last_time:
            raise InvariantViolation("event time", f"{time} precedes {last_time}")
        last_time = time

        if kind == _ARRIVAL:
            profile = config.profile_sampler.sample(prof_rng)
            patient = _Patient(len(admission), profile, time)
            admission.append(time)
            discharge.append(math.nan)
            cost.append(math.nan)
            if clustered:
                index = assign(profile, config.pathway)
                cluster.append(index)
                patient.matrix = config.pathway.routing_matrix(index)
            else:
                cluster.append(-1)
                patient.matrix = config.pathway
            first = next_department(ENTRY, patient.matrix, route_rng)
            if first == DISCHARGE:
                discharge_at(patient, time)
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
            dept.times.append(time)
            dept.occupancy.append(dept.occupied)
            nxt = next_department(dept_name, patient.matrix, route_rng)
            if nxt != DISCHARGE and patient.n_stays >= WALK_CAP:
                truncated += 1
                nxt = DISCHARGE
            if nxt == DISCHARGE:
                discharge_at(patient, time)
            else:
                if nxt not in depts:
                    raise ModelIncompatible(f"pathway routes to unknown department {nxt!r}")
                patient.request_time = time
                schedule(time, _SEIZE, patient, nxt)
            if dept.queue:
                cap = dept.spec.bed_capacity
                if cap is None or dept.occupied < cap:
                    start_stay(dept.queue.popleft(), dept, time)

    census_times = {}
    census_occupied = {}
    avg_census = {}
    utilization = {}
    for name, dept in depts.items():
        dept.times.append(config.horizon)
        dept.occupancy.append(dept.occupied)
        census_times[name] = np.array(dept.times, dtype=float)
        census_occupied[name] = np.array(dept.occupancy, dtype=np.int32)
        avg = _integrate_mean(dept.times, dept.occupancy, config.warm_up, config.horizon)
        avg_census[name] = avg
        cap = dept.spec.bed_capacity
        utilization[name] = (avg / cap) if cap is not None else None

    # stays are granted in event order; a stable sort by patient makes
    # them patient-major while keeping each patient's stays in order
    by_patient = np.array(stay_patient, dtype=np.int64)
    order = np.argsort(by_patient, kind="stable")
    stay_offset = np.zeros(len(admission) + 1, dtype=np.int32)
    np.cumsum(np.bincount(by_patient, minlength=len(admission)), out=stay_offset[1:])

    admission_col = np.array(admission, dtype=float)
    discharge_col = np.array(discharge, dtype=float)
    cohort = admission_col >= config.warm_up
    admissions = int(np.count_nonzero(cohort))
    discharges = int(np.count_nonzero(cohort & ~np.isnan(discharge_col)))
    return SimResult(
        horizon=config.horizon,
        warm_up=config.warm_up,
        seed=config.seed,
        replication=replication,
        admissions=admissions,
        discharges=discharges,
        in_system=admissions - discharges,
        truncated_walks=truncated,
        avg_census=avg_census,
        utilization=utilization,
        departments=tuple(depts),
        admission=admission_col,
        discharge=discharge_col,
        cost=np.array(cost, dtype=float),
        cluster=np.array(cluster, dtype=np.int32),
        stay_offset=stay_offset,
        stay_department=np.array(stay_department, dtype=np.int32)[order],
        stay_request=np.array(stay_request, dtype=float)[order],
        stay_start=np.array(stay_start, dtype=float)[order],
        stay_end=np.array(stay_end, dtype=float)[order],
        census_times=census_times,
        census_occupied=census_occupied,
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
    if not census_bucket > 0.0:
        raise ConfigError(f"census bucket width must be positive, got {census_bucket}")
    indices = list(range(config.replications))
    if jobs > 1 and config.replications > 1:
        # one chunk per worker, so the config is pickled once per worker
        chunk = math.ceil(config.replications / jobs)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_indexed, [(config, r) for r in indices],
                                    chunksize=chunk))
    else:
        results = [run(config, r) for r in indices]

    per_dept: dict[str, np.ndarray] = {}
    for d in config.departments:
        rows = np.asarray(
            [bucket_census(list(zip(res.census_times[d.name].tolist(),
                                    res.census_occupied[d.name].tolist())),
                           census_bucket, config.horizon)
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
    for name in sorted(result.departments):
        for t, occ in zip(result.census_times[name].tolist(),
                          result.census_occupied[name].tolist()):
            lines.append(f"{t:.6f},{name},{occ}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_patients_csv(result: SimResult, path: Path) -> None:
    lines = ["patient_id,admission,discharge,los,wait,cost,trajectory"]
    los = (result.stay_end - result.stay_start).tolist()
    wait = (result.stay_start - result.stay_request).tolist()
    names = [result.departments[d] for d in result.stay_department.tolist()]
    offset = result.stay_offset.tolist()
    for i, (admission, discharge, cost) in enumerate(zip(
            result.admission.tolist(), result.discharge.tolist(), result.cost.tolist())):
        lo, hi = offset[i], offset[i + 1]
        discharge_str = "" if math.isnan(discharge) else f"{discharge:.6f}"
        cost_str = "" if math.isnan(cost) else f"{cost:.6f}"
        lines.append(
            f"{_patient_id(i)},{admission:.6f},{discharge_str},"
            f"{sum(los[lo:hi]):.6f},{sum(wait[lo:hi]):.6f},{cost_str},"
            f"{'|'.join(names[lo:hi])}"
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
