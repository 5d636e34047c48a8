"""Discrete-event simulation of multi-department patient flow.

Two event kinds exist: Arrival (sample a profile, pick a pathway,
request the first bed) and StayEnd (release the bed, hand it to the
queue head, then route onward or discharge). A bed request is served
inside the event that makes it: the patient takes a free bed or joins
the back of the department's FIFO wait queue. Arrival times are all
drawn up front and sorted; stay ends go through a priority queue keyed
by (end time, stay row), the row being the stay's index in grant order,
so stay ends at equal times run in the order their stays began and a
fixed (config, seed) pair replays bit-identically. The loop merges the
two: it takes the next arrival whenever its time is at or before the
queue's earliest, so at equal times arrivals go before stay ends.

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
import math
import os
import pickle
import signal
import sys
from bisect import bisect_right
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Union

import numpy as np
from numpy.random import Generator

from . import codec
from .domain import BUCKETS_MAX, DepartmentSpec, Profiles
from .errors import ConfigError, DataError, InvariantViolation
from .estimators import PROFILE_MODELS, Model, draw_z, locations, sampler
from .pathways import Pathway, PathwayClusters, TransitionMatrix, assign_all, cumulative_rows
from .seeding import blocks, stream
from .synthehr import WALK_CAP, AttributeSampler, check_expected_arrivals


# --- arrival drivers ----------------------------------------------------------

def _check_bucket_width(width: float) -> None:
    if not width > 0:
        raise ConfigError(f"arrival bucket_width must be positive, got {width}")


@codec.tagged("poisson")
@dataclass(frozen=True)
class PoissonBaseline:
    """Homogeneous Poisson arrivals at lam per bucket."""

    lam: float
    bucket_width: float = 24.0

    def __post_init__(self):
        _check_bucket_width(self.bucket_width)
        if self.lam < 0.0:
            raise ConfigError(f"PoissonBaseline lam must be >= 0, got {self.lam!r}")


@codec.tagged("forecast")
@dataclass(frozen=True)
class ForecastDriven:
    """Arrivals follow a per-bucket expected-count forecast."""

    forecast: tuple[float, ...]
    bucket_width: float
    deterministic: bool = False

    def __post_init__(self):
        _check_bucket_width(self.bucket_width)
        if any(mean < 0.0 for mean in self.forecast):
            raise ConfigError(f"ForecastDriven forecast must be >= 0, "
                              f"got {min(self.forecast)!r}")


ArrivalDriver = Union[PoissonBaseline, ForecastDriven]


def inject_arrivals(driver: ArrivalDriver, horizon: float, rng: Generator) -> list[float]:
    """Materialize arrival times on [0, horizon), sorted.

    Poisson gaps are ``rng.exponential(1 / rate)`` draws, taken in blocks
    of standard exponentials and scaled as numpy scales them. A driver
    that expects more than ARRIVALS_MAX arrivals, or a count that is not
    finite, is rejected before the first draw.
    """
    if isinstance(driver, PoissonBaseline):
        rate = driver.lam / driver.bucket_width  # per hour
        check_expected_arrivals(rate * horizon, f"arrival_driver lam {driver.lam!r} per "
                                f"bucket_width {driver.bucket_width!r} h", horizon)
        times: list[float] = []
        if rate <= 0.0:
            return times
        scale = 1.0 / rate
        t = 0.0
        for e in blocks(rng.standard_exponential):
            t += scale * e
            if t >= horizon:
                return times
            times.append(t)
    if isinstance(driver, ForecastDriven):
        w = driver.bucket_width
        needed = horizon / w - 1e-9  # a float, inf for a tiny width
        if len(driver.forecast) < needed:
            raise DataError(f"forecast covers {len(driver.forecast)} buckets, horizon needs "
                            f"{needed:.6g} of bucket_width {w!r} h")
        n_buckets = math.ceil(needed)
        check_expected_arrivals(sum(driver.forecast[:n_buckets]), "arrival_driver forecast",
                                horizon)
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

@codec.tagged("empirical")
@dataclass(frozen=True)
class EmpiricalSampler:
    """Resample observed profiles uniformly with replacement."""

    profiles: Profiles


ProfileSampler = Union[AttributeSampler, EmpiricalSampler]


# --- configuration and results -----------------------------------------------------

REPLICATIONS_MAX = 10_000  # 500 times the paper's 20


def check_replications(replications: int) -> None:
    """Reject a replication count outside [1, REPLICATIONS_MAX] before any
    replication's work is allocated."""
    if not 1 <= replications <= REPLICATIONS_MAX:
        raise ConfigError(f"replications must lie in [1, {REPLICATIONS_MAX}], "
                          f"got {replications}")


@dataclass(frozen=True)
class SimConfig:
    departments: tuple[DepartmentSpec, ...]
    horizon: float
    arrival_driver: ArrivalDriver
    los_models: dict[str, Model]  # department name -> stay-duration model
    cot_model: Model  # admission-level cost model
    pathway: Pathway
    profile_sampler: ProfileSampler
    seed: int
    warm_up: float = 0.0
    replications: int = 1

    def __post_init__(self):
        if not (0.0 <= self.warm_up < self.horizon):
            raise ConfigError("warm_up must lie in [0, horizon)")
        check_replications(self.replications)
        names = [d.name for d in self.departments]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate department names")
        for name in names:
            if name not in self.los_models:
                raise ConfigError(f"department {name!r} has no stay-duration model")

    @cached_property
    def tables(self) -> "_Tables":
        """The config compiled for the event loop, built on first use in
        each process; the models must not change after that."""
        return _Tables(self)

    def __getstate__(self) -> dict:
        # a pickled config carries no tables: each process builds its own
        state = self.__dict__.copy()
        state.pop("tables", None)
        return state


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
    unseen_levels: int  # categorical levels the conditional models had not seen, per draw
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


# --- the compiled configuration -------------------------------------------------------
#
# ``run`` works against tables built once per SimConfig and process, not
# against the models. Department d of the config is index d throughout.
# What depends on the patient is computed once per distinct attribute
# tuple (``Profiles.keys``), for all tuples met at once, to the
# numbers a per-event prediction gives: the ln-space location of every
# profile-dependent stay and cost model (``estimators.locations``: one
# dot product per encoded row, or the tree leaf) and the cluster from
# ``pathways.assign_all``. An empirical sampler's whole pool is compiled
# on first use. Transition matrices become rows of running sums over
# department indices, drawn by bisection.
#
# Each stream is compiled once into a source of what its draws consume:
# uniforms for routing and standard normals for stay or cost models that
# are all normal-based (``estimators.draw_z``), both in blocks
# (``seeding.blocks``), and an empirical sampler's pool indices, one
# block per replication. A stream whose models mix draw kinds yields its
# generator instead, for the models' scalar draws (``estimators.sampler``).
# Every value and every draw is the one the models give directly, so
# results keep their bits.

_DISCHARGE = -1  # routing target of the DISCHARGE column


class _Routing:
    """A transition matrix as rows of running sums: row 0 is ENTRY, row
    1 + d department d. A draw gives a department index, an index past
    the config's departments for a department it lacks, or _DISCHARGE.

    A draw bisects a row as ``seeding.draw_cumulative`` does. Its rule
    that a uniform at or above the total takes the last index is the
    extra last entry of ``targets``, which repeats DISCHARGE."""

    __slots__ = ("rows", "targets")

    def __init__(self, matrix: TransitionMatrix, names: tuple[str, ...],
                 targets: dict[str, int]):
        cum = cumulative_rows(matrix)
        own = {name: 1 + i for i, name in enumerate(matrix.departments)}
        # a department outside the matrix is never entered with it
        self.rows = [cum[0]] + [cum[own[name]] if name in own else None for name in names]
        self.targets = [targets.setdefault(name, len(targets)) for name in matrix.departments]
        self.targets += (_DISCHARGE, _DISCHARGE)

    def next(self, state: int, uniforms: Iterator[float]) -> int:
        row = self.rows[state]
        if row is None:  # unobserved row: discharge, drawing nothing
            return _DISCHARGE
        return self.targets[bisect_right(row, next(uniforms))]


class _Profile:
    """What the models predict for one attribute tuple. ``loc`` and
    ``unseen`` hold one slot per department's stay model, then the cost
    model's."""

    __slots__ = ("loc", "unseen", "cluster", "routing")

    def __init__(self, loc: list[float], unseen: list[int], cluster: int, routing: _Routing):
        self.loc = loc
        self.unseen = unseen
        self.cluster = cluster
        self.routing = routing


def _value_stream(models: list) -> tuple[list[Callable], Callable[[Generator], Iterator]]:
    """The draws ``draw(loc, x)`` of the models that share one stream, and
    the source of their x: standard normals in blocks when every model is
    normal-based, else the generator itself for scalar draws."""
    normal = [draw_z(m) for m in models]
    if None not in normal:
        return normal, lambda rng: blocks(rng.standard_normal)
    return [sampler(m) for m in models], repeat


class _Tables:
    """A SimConfig compiled for the event loop (see above)."""

    def __init__(self, config: SimConfig):
        names = tuple(d.name for d in config.departments)
        self.capacity = [d.bed_capacity for d in config.departments]
        models = [config.los_models[name] for name in names]
        models.append(config.cot_model)
        self.stay_draw, self.stay_source = _value_stream(models[:-1])
        (self.cost_draw,), self.cost_source = _value_stream(models[-1:])
        self.profile_models = [(slot, m) for slot, m in enumerate(models)
                               if isinstance(m, PROFILE_MODELS)]
        # routing target of each name: departments first, then names only
        # the pathway knows, which are rejected when drawn
        targets = {name: i for i, name in enumerate(names)}
        pathway = config.pathway
        self.clusters = pathway if isinstance(pathway, PathwayClusters) else None
        matrices = ([pathway.routing_matrix(k) for k in range(pathway.k)]
                    if self.clusters is not None else [pathway])
        self.routings = [_Routing(m, names, targets) for m in matrices]
        self.target_names = list(targets)
        self.slots = len(models)
        self.profiles: dict[tuple, _Profile] = {}
        self.profile_sampler = config.profile_sampler
        self.pool: list[_Profile] | None = None  # an empirical sampler's, by index

    def arrival_profiles(self, rng: Generator, n: int) -> list[_Profile]:
        """The profile entries of n arrivals, in arrival order. An empirical
        sampler draws all n pool indices as one block; an attribute
        sampler draws its profiles one by one."""
        if n == 0:
            return []
        sampler = self.profile_sampler
        if isinstance(sampler, EmpiricalSampler):
            if self.pool is None:
                self.pool = self.entries(sampler.profiles)
            return [self.pool[i] for i in rng.integers(len(self.pool), size=n).tolist()]
        rows = [sampler.draw(rng) for _ in range(n)]
        return self.entries(Profiles.from_rows([""] * n, rows))

    def entries(self, profiles: Profiles) -> list[_Profile]:
        """The entry of each profile. The attribute tuples not met before
        are predicted together (``estimators.locations``,
        ``pathways.assign_all``), each to the numbers it gets alone."""
        keys = profiles.keys()
        new = {key: i for i, key in enumerate(keys) if key not in self.profiles}
        if new:
            fresh = profiles.take(list(new.values()))
            none = ([0.0] * len(fresh), [0] * len(fresh))
            slots = [none] * self.slots
            for slot, model in self.profile_models:
                slots[slot] = locations(model, fresh)
            clusters = ([-1] * len(fresh) if self.clusters is None
                        else assign_all(fresh, self.clusters))
            for i, (key, k) in enumerate(zip(new, clusters)):
                self.profiles[key] = _Profile(
                    [loc[i] for loc, _ in slots], [unseen[i] for _, unseen in slots], k,
                    self.routings[0] if k < 0 else self.routings[k])
        return [self.profiles[key] for key in keys]


_SLIVER = 1e-12  # a census piece this short at the end of a step is dropped


def _integrate_mean(times: np.ndarray, values: np.ndarray, a: float, b: float) -> float:
    """Time average of a step series over [a, b]."""
    if b <= a:
        return 0.0
    lo = np.maximum(times[:-1], a)
    hi = np.minimum(times[1:], b)
    inside = hi > lo
    pieces = values[:-1][inside] * (hi[inside] - lo[inside])
    # a running sum adds the pieces one by one in time order
    total = float(np.cumsum(pieces)[-1]) if len(pieces) else 0.0
    return total / (b - a)


def census_buckets(width: float, horizon: float) -> int:
    """The number of census buckets of the given width on [0, horizon), at
    least one; a width giving more than BUCKETS_MAX is rejected."""
    n = horizon / width - 1e-9
    if not n <= BUCKETS_MAX:
        raise ConfigError(f"census_bucket {width!r} makes more than {BUCKETS_MAX} "
                          f"buckets over {horizon!r} h")
    return max(1, math.ceil(n))


def bucket_census(times: Sequence[float], values: Sequence[float], width: float,
                  horizon: float) -> np.ndarray:
    """Per-bucket time-averaged census over [0, horizon) of the step series
    that holds ``values[i]`` from ``times[i]`` to ``times[i + 1]``.

    Each step is cut at the bucket edges ``k * width``; bucket k counts
    from edge k, and the last bucket also takes whatever lies past its
    edge. A piece shorter than 1e-12 at the end of a step is dropped.
    ``np.bincount`` adds each bucket's pieces in time order, one by one.
    """
    nb = census_buckets(width, horizon)
    t = np.asarray(times, dtype=float)
    lo = np.maximum(t[:-1], 0.0)
    hi = np.minimum(t[1:], horizon)
    keep = lo < hi - _SLIVER
    lo, hi = lo[keep], hi[keep]
    v = np.asarray(values, dtype=float)[:-1][keep]
    first = np.minimum(lo // width, nb - 1).astype(np.int64)
    # a step's last bucket is the last edge k * width below hi - 1e-12
    edges = np.arange(nb + 1) * width
    last = np.clip(np.searchsorted(edges, hi - _SLIVER) - 1, first, nb - 1)
    counts = last - first + 1
    step = np.repeat(np.arange(len(lo)), counts)
    k = np.arange(len(step)) - np.repeat(np.cumsum(counts) - counts, counts) + first[step]
    start = np.where(k == first[step], lo[step], edges[k])
    last_end = np.where(last < nb - 1, np.minimum(edges[last + 1], hi), hi)
    end = np.where(k == last[step], last_end[step], edges[k + 1])
    acc = np.bincount(k, weights=v[step] * (end - start), minlength=nb)
    return acc / (np.minimum(edges[1:], horizon) - edges[:-1])


def run(config: SimConfig, replication: int = 0) -> SimResult:
    """Execute one replication of the event loop. Patient i is the i-th
    arrival and department d the d-th of the config; each is an index
    into the lists that hold its state."""
    tables = config.tables
    arrivals = inject_arrivals(config.arrival_driver, config.horizon,
                               stream(config.seed, replication, 0))
    entries = tables.arrival_profiles(stream(config.seed, replication, 1), len(arrivals))
    uniforms = blocks(stream(config.seed, replication, 2).random)
    stays = tables.stay_source(stream(config.seed, replication, 3))
    costs = tables.cost_source(stream(config.seed, replication, 4))
    stay_draw, cost_draw = tables.stay_draw, tables.cost_draw
    capacity = tables.capacity
    n_depts = len(capacity)
    # per patient: the time of the last bed request, stays so far, and
    # discharge and cost, NaN until discharged
    request = [math.nan] * len(arrivals)
    n_stays = [0] * len(arrivals)
    discharge = [math.nan] * len(arrivals)
    cost = [math.nan] * len(arrivals)
    # per department: beds in use, the FIFO of waiting patients, the census
    occupied = [0] * n_depts
    queue: list[deque[int]] = [deque() for _ in range(n_depts)]
    times: list[list[float]] = [[0.0] for _ in range(n_depts)]
    occupancy: list[list[int]] = [[0] for _ in range(n_depts)]
    # per stay, in the order beds are granted
    stay_patient: list[int] = []
    stay_department: list[int] = []
    stay_request: list[float] = []
    stay_start: list[float] = []
    stay_end: list[float] = []
    # stay ends as (end, row), row indexing the stay lists; arrivals come
    # from their sorted list
    heap: list[tuple[float, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    truncated = 0
    unseen = 0
    last_time = 0.0

    def start_stay(i: int, d: int, now: float):
        nonlocal unseen
        occupied[d] += 1
        times[d].append(now)
        occupancy[d].append(occupied[d])
        entry = entries[i]
        end = now + stay_draw[d](entry.loc[d], next(stays))
        unseen += entry.unseen[d]
        n_stays[i] += 1
        push(heap, (end, len(stay_end)))
        stay_patient.append(i)
        stay_department.append(d)
        stay_request.append(request[i])
        stay_start.append(now)
        stay_end.append(end)

    def route(i: int, state: int, now: float):
        # the move out of state 0 (an arrival) or 1 + d (a stay in d ends);
        # a bed request takes a free bed or joins the back of the queue
        nonlocal truncated, unseen
        entry = entries[i]
        nxt = entry.routing.next(state, uniforms)
        if nxt != _DISCHARGE and n_stays[i] >= WALK_CAP:
            truncated += 1
            nxt = _DISCHARGE
        if nxt == _DISCHARGE:
            discharge[i] = now
            cost[i] = cost_draw(entry.loc[-1], next(costs))
            unseen += entry.unseen[-1]
        elif nxt >= n_depts:
            raise ConfigError(
                f"pathway routes to unknown department {tables.target_names[nxt]!r}")
        else:
            request[i] = now
            if capacity[nxt] is None or occupied[nxt] < capacity[nxt]:
                start_stay(i, nxt, now)
            else:
                queue[nxt].append(i)

    # at equal times an arrival goes before every stay end
    n = 0  # arrivals handled
    pending = iter(arrivals)
    arrival = next(pending, math.inf)
    while heap or arrival < math.inf:
        if heap and heap[0][0] < arrival:
            time, row = pop(heap)
        else:
            time, row = arrival, None
            arrival = next(pending, math.inf)
        if time >= config.horizon:
            break
        if time < last_time:
            raise InvariantViolation("event time", f"{time} precedes {last_time}")
        last_time = time

        if row is None:  # an arrival
            route(n, 0, time)
            n += 1
        else:  # a stay in d ends
            d = stay_department[row]
            occupied[d] -= 1
            times[d].append(time)
            occupancy[d].append(occupied[d])
            # a queue is non-empty only while its department is full; its
            # head takes the freed bed before this patient routes on
            if queue[d]:
                start_stay(queue[d].popleft(), d, time)
            route(stay_patient[row], 1 + d, time)

    names = tuple(spec.name for spec in config.departments)
    census_times = {}
    census_occupied = {}
    avg_census = {}
    utilization = {}
    for d, name in enumerate(names):
        times[d].append(config.horizon)
        occupancy[d].append(occupied[d])
        census_times[name] = np.array(times[d], dtype=float)
        census_occupied[name] = np.array(occupancy[d], dtype=np.int32)
        avg = _integrate_mean(census_times[name], census_occupied[name],
                              config.warm_up, config.horizon)
        avg_census[name] = avg
        utilization[name] = (avg / capacity[d]) if capacity[d] is not None else None

    # stays are granted in event order; a stable sort by patient makes
    # them patient-major while keeping each patient's stays in order
    by_patient = np.array(stay_patient, dtype=np.int64)
    order = np.argsort(by_patient, kind="stable")
    stay_offset = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(by_patient, minlength=n), out=stay_offset[1:])

    admission_col = np.array(arrivals[:n], dtype=float)
    discharge_col = np.array(discharge[:n], dtype=float)
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
        unseen_levels=unseen,
        avg_census=avg_census,
        utilization=utilization,
        departments=names,
        admission=admission_col,
        discharge=discharge_col,
        cost=np.array(cost[:n], dtype=float),
        cluster=np.array([entry.cluster for entry in entries[:n]], dtype=np.int32),
        stay_offset=stay_offset,
        stay_department=np.array(stay_department, dtype=np.int32)[order],
        stay_request=np.array(stay_request, dtype=float)[order],
        stay_start=np.array(stay_start, dtype=float)[order],
        stay_end=np.array(stay_end, dtype=float)[order],
        census_times=census_times,
        census_occupied=census_occupied,
    )


@dataclass(frozen=True)
class ReplicationTotals:
    """One replication's aggregates, as ``SimResult`` holds them."""

    replication: int
    admissions: int
    discharges: int
    in_system: int
    truncated_walks: int
    avg_census: dict
    utilization: dict


@dataclass(frozen=True)
class ReplicationSummary:
    """What ``summary.json`` holds: its document, field by field."""

    census_bucket_width: float
    horizon: float
    replications: int
    per_replication: tuple[ReplicationTotals, ...]
    mean_census_per_bucket: dict  # department -> tuple of means across replications
    sd_census_per_bucket: dict    # department -> tuple of sds (population)
    mean_avg_census: dict
    mean_utilization: dict


# Where CPython's own worker processes start by fork by default: not on
# Windows, which has no fork, nor on macOS, where system frameworks are
# unsafe in a forked child. There replicate runs every replication in
# this process.
FORK_SAFE = hasattr(os, "fork") and sys.platform != "darwin"


class _Child:
    """A forked process that runs the replications ``indices`` of ``config``
    and writes one pickle to its pipe, the list of their results or the
    exception it raised; it always ends with ``os._exit``."""

    def __init__(self, config: SimConfig, indices: range):
        self.indices = indices
        read, write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                os.close(read)
                try:
                    outcome = (True, [run(config, r) for r in indices])
                except BaseException as exc:
                    outcome = (False, exc)
                with open(write, "wb") as pipe:
                    pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
                status = 0
            finally:
                os._exit(status)
        # closed at once: a later child must not inherit this write end,
        # or the pipe would stay open after this child has ended
        os.close(write)
        self.pipe = open(read, "rb")

    def join(self) -> list[SimResult]:
        """Unpickle the child's outcome straight from its pipe and reap the
        child; its results, or its exception raised here. A child that
        ends before its pickle is whole, having sent nothing or a part,
        raises one ``RuntimeError``."""
        with self.pipe:
            try:
                outcome = pickle.load(self.pipe)
            except (EOFError, pickle.UnpicklingError):
                outcome = None
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if outcome is None:
            code = os.waitstatus_to_exitcode(status)
            how = f"exit status {code}" if code >= 0 else f"signal {-code}"
            raise RuntimeError(f"the worker running replications {self.indices.start} to "
                               f"{self.indices.stop - 1} ended with {how} before it "
                               "sent its results")
        ok, value = outcome
        if not ok:
            raise value
        return value

    def stop(self) -> None:
        """Kill and reap the child if it has not been joined."""
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _fork_join(config: SimConfig, chunks: list[range]) -> list[SimResult]:
    """The results of every chunk of replications, each run in its own
    forked child, in chunk order. Whatever happens here, every child is
    reaped before this returns or raises."""
    children: list[_Child] = []
    try:
        for indices in chunks:
            children.append(_Child(config, indices))
        return [result for child in children for result in child.join()]
    finally:
        for child in children:
            child.stop()


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (a process pinned to fewer CPUs than the machine has
    counts only those), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def replicate(
    config: SimConfig, jobs: int = 1, census_bucket: float = 24.0
) -> tuple[list[SimResult], ReplicationSummary]:
    """Run R independent replications and summarize census across them.

    Replication r draws from sub-streams keyed by (seed, r), so results
    are identical whatever the execution order or the number of worker
    processes; the summary reduces results pre-sorted by index. The
    replications are cut into chunks of ceil(R / W), W = min(jobs, R,
    ``usable_cpus()``), and each chunk runs in its own forked child; with
    W = 1, or where forking is not safe, they run in this process.
    """
    if not census_bucket > 0.0:
        raise ConfigError(f"census bucket width must be positive, got {census_bucket}")
    census_buckets(census_bucket, config.horizon)
    indices = range(config.replications)
    workers = min(jobs, config.replications, usable_cpus()) if FORK_SAFE else 1
    if workers > 1:
        chunk = math.ceil(config.replications / workers)
        results = _fork_join(config, [indices[start:start + chunk]
                                      for start in range(0, config.replications, chunk)])
    else:
        results = [run(config, r) for r in indices]

    per_dept: dict[str, np.ndarray] = {}
    for d in config.departments:
        per_dept[d.name] = np.asarray(
            [bucket_census(res.census_times[d.name], res.census_occupied[d.name],
                           census_bucket, config.horizon)
             for res in results]
        )
    summary = ReplicationSummary(
        census_bucket_width=census_bucket,
        horizon=config.horizon,
        replications=config.replications,
        per_replication=tuple(
            ReplicationTotals(res.replication, res.admissions, res.discharges,
                              res.in_system, res.truncated_walks, res.avg_census,
                              res.utilization)
            for res in results),
        mean_census_per_bucket={k: tuple(float(v) for v in rows.mean(axis=0))
                                for k, rows in per_dept.items()},
        sd_census_per_bucket={k: tuple(float(v) for v in rows.std(axis=0))
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


def write_summary_json(summary: ReplicationSummary, path: Path) -> None:
    codec.write(summary, path)
