"""Core record types, event-log CSV handling, and time bucketing.

Time is a plain float count of hours since the scenario epoch; there is
no calendar or timezone arithmetic. Periods are fixed hour multiples:
day = 24, week = 168, month = 720 (by convention). An "admission" is a
patient's first stay inside the window of interest; transfers between
departments are not re-admissions.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from numbers import Integral
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .errors import (
    ConfigError,
    ConflictingProfile,
    EmptyWindow,
    InvariantViolation,
    MalformedHeader,
    MissingProfile,
    OverlappingStays,
    RowParseError,
)

GENDERS = ("F", "M")
BUCKET_WIDTHS = (1.0, 24.0, 168.0, 720.0)  # hour, day, week, month

# Virtual pathway states bracketing every trajectory.
ENTRY = "ENTRY"
DISCHARGE = "DISCHARGE"

CSV_FIELDS = (
    "patient_id",
    "department",
    "enter_time",
    "exit_time",
    "cost",
    "age",
    "gender",
    "comorbidity_count",
    "drg",
)
CSV_HEADER = ",".join(CSV_FIELDS)

AGE_MAX = 120
COMORBIDITY_MAX = 30


@dataclass(frozen=True)
class PatientProfile:
    """Attributes that drive heterogeneity in stay, cost, and pathway."""

    patient_id: str
    age: int
    gender: str
    comorbidity_count: int
    drg: str

    def __post_init__(self):
        if not (0 <= self.age <= AGE_MAX):
            raise InvariantViolation("age", f"{self.age} outside [0, {AGE_MAX}]")
        if self.gender not in GENDERS:
            raise InvariantViolation("gender", f"{self.gender!r} not in {GENDERS}")
        if not (0 <= self.comorbidity_count <= COMORBIDITY_MAX):
            raise InvariantViolation(
                "comorbidity_count",
                f"{self.comorbidity_count} outside [0, {COMORBIDITY_MAX}]",
            )


# Every attribute of a profile except its id: the attributes models read,
# and the key under which the engine caches one profile's predictions.
PROFILE_ATTRIBUTES = ("age", "gender", "comorbidity_count", "drg")
profile_key = attrgetter(*PROFILE_ATTRIBUTES)


@dataclass(frozen=True)
class EventLogEntry:
    """One department stay of one patient."""

    patient_id: str
    department: str
    enter_time: float
    exit_time: float
    cost: float

    def __post_init__(self):
        if not (math.isfinite(self.enter_time) and math.isfinite(self.exit_time)
                and math.isfinite(self.cost)):
            name = next(n for n in ("enter_time", "exit_time", "cost")
                        if not math.isfinite(getattr(self, n)))
            raise InvariantViolation(name, f"{getattr(self, name)} is not finite")
        if self.enter_time < 0:
            raise InvariantViolation("enter_time", f"{self.enter_time} < 0")
        if self.exit_time <= self.enter_time:
            raise InvariantViolation(
                "exit_time", f"{self.exit_time} not after enter_time {self.enter_time}"
            )
        if self.cost < 0:
            raise InvariantViolation("cost", f"{self.cost} < 0")

    @property
    def los_hours(self) -> float:
        return self.exit_time - self.enter_time


@dataclass(frozen=True)
class Trajectory:
    """All stays of one patient, ordered by entry time."""

    patient_id: str
    stays: tuple[EventLogEntry, ...]

    def __post_init__(self):
        if not self.stays:
            raise InvariantViolation("stays", "trajectory must be non-empty")
        for prev, cur in zip(self.stays, self.stays[1:]):
            if cur.enter_time < prev.exit_time:
                raise OverlappingStays(self.patient_id)

    @property
    def departments(self) -> tuple[str, ...]:
        return tuple(s.department for s in self.stays)


@dataclass(frozen=True)
class ArrivalSeries:
    """Bucketed admission counts, the forecasting substrate."""

    bucket_width: float
    start_time: float
    counts: tuple[int, ...]

    def __post_init__(self):
        if float(self.bucket_width) not in BUCKET_WIDTHS:
            raise InvariantViolation(
                "bucket_width", f"{self.bucket_width} not one of {BUCKET_WIDTHS}"
            )
        if abs(self.start_time % self.bucket_width) > 1e-9:
            raise InvariantViolation(
                "start_time", f"{self.start_time} not aligned to bucket boundary"
            )
        if len(self.counts) < 1:
            raise InvariantViolation("counts", "need at least one bucket")
        if any(c < 0 for c in self.counts):
            raise InvariantViolation("counts", "negative count")

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class DepartmentSpec:
    """A department and its bed capacity (None = unbounded)."""

    name: str
    bed_capacity: int | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"department name must be a string, got {self.name!r:.60}")
        cap = self.bed_capacity
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, Integral)
                                or cap < 1):
            raise ConfigError(f"department {self.name!r}: bed_capacity must be an "
                              f"integer >= 1 or null, got {cap!r:.60}")


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def serialize_event_log(
    entries: Sequence[EventLogEntry],
    profiles: Iterable[PatientProfile] | Mapping[str, PatientProfile],
) -> str:
    """Render entries to the canonical CSV document.

    Canonical form: fixed field order, reals as 6-decimal fixed point,
    LF line endings. ``parse_event_log`` of the output reproduces the
    inputs, and re-serializing reproduces the document byte for byte.
    """
    if isinstance(profiles, Mapping):
        by_id = dict(profiles)
    else:
        by_id = {p.patient_id: p for p in profiles}
    lines = [CSV_HEADER]
    for e in entries:
        p = by_id.get(e.patient_id)
        if p is None:
            raise MissingProfile(f"no profile for patient {e.patient_id!r}")
        lines.append(
            ",".join(
                (
                    e.patient_id,
                    e.department,
                    _fmt(e.enter_time),
                    _fmt(e.exit_time),
                    _fmt(e.cost),
                    str(p.age),
                    p.gender,
                    str(p.comorbidity_count),
                    p.drg,
                )
            )
        )
    return "\n".join(lines) + "\n"


def parse_event_log(
    text: str,
    departments: Sequence[str] | None = None,
    drg_alphabet: Sequence[str] | None = None,
) -> tuple[list[EventLogEntry], list[PatientProfile]]:
    """Parse an event-log CSV document.

    Returns one entry per data row and profiles deduplicated by
    patient_id (order of first appearance). Optional ``departments`` /
    ``drg_alphabet`` restrict the categorical columns to a known set.
    Rows that violate a type invariant are rejected with their line
    number; the same patient_id appearing with different attributes is a
    ``ConflictingProfile``.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedHeader("empty document") from None
    if tuple(header) != CSV_FIELDS:
        raise MalformedHeader(f"expected header {CSV_HEADER!r}, got {','.join(header)!r}")

    entries: list[EventLogEntry] = []
    seen: dict[str, PatientProfile] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue  # tolerate trailing blank line
        if len(row) != len(CSV_FIELDS):
            raise RowParseError(lineno, f"expected {len(CSV_FIELDS)} fields, got {len(row)}")
        pid, dept, enter_s, exit_s, cost_s, age_s, gender, com_s, drg = row
        try:
            enter, exit_, cost = float(enter_s), float(exit_s), float(cost_s)
            age, com = int(age_s), int(com_s)
        except ValueError as exc:
            raise RowParseError(lineno, str(exc)) from None
        if departments is not None and dept not in departments:
            raise InvariantViolation("department", f"{dept!r} unknown", line=lineno)
        if drg_alphabet is not None and drg not in drg_alphabet:
            raise InvariantViolation("drg", f"{drg!r} unknown", line=lineno)
        try:
            entry = EventLogEntry(pid, dept, enter, exit_, cost)
            profile = PatientProfile(pid, age, gender, com, drg)
        except InvariantViolation as exc:
            raise InvariantViolation(exc.field, str(exc), line=lineno) from None
        prev = seen.get(pid)
        if prev is None:
            seen[pid] = profile
        elif prev != profile:
            raise ConflictingProfile(pid)
        entries.append(entry)
    return entries, list(seen.values())


def first_stays(entries: Sequence[EventLogEntry]) -> dict[str, float]:
    """Map patient_id to admission time (earliest enter_time)."""
    admissions: dict[str, float] = {}
    for e in entries:
        t = admissions.get(e.patient_id)
        if t is None or e.enter_time < t:
            admissions[e.patient_id] = e.enter_time
    return admissions


def stay_targets(
    entries: Sequence[EventLogEntry], profile_by_id: Mapping[str, PatientProfile]
) -> tuple[list[PatientProfile], list[float]]:
    """Each entry's patient profile and stay hours, in entry order: the
    rows a stay-duration model is fitted on."""
    return [profile_by_id[e.patient_id] for e in entries], [e.los_hours for e in entries]


def admission_costs(entries: Sequence[EventLogEntry]) -> dict[str, float]:
    """Total cost per patient over the entries, patients in order of first
    appearance: the targets a cost model is fitted on."""
    totals: dict[str, float] = {}
    for e in entries:
        totals[e.patient_id] = totals.get(e.patient_id, 0.0) + e.cost
    return totals


def bucketize(
    entries: Sequence[EventLogEntry],
    bucket_width: float,
    start_time: float,
    horizon: float,
) -> ArrivalSeries:
    """Count admissions per bucket over [start_time, start_time + horizon).

    Only each patient's first stay counts as an admission; stays outside
    the window are ignored. ``horizon`` must be a positive multiple of
    ``bucket_width``.
    """
    n_buckets = int(round(horizon / bucket_width))
    if n_buckets < 1 or abs(n_buckets * bucket_width - horizon) > 1e-6:
        raise EmptyWindow(
            f"horizon {horizon} does not span a positive whole number of "
            f"{bucket_width}h buckets"
        )
    counts = [0] * n_buckets
    for t in first_stays(entries).values():
        if start_time <= t < start_time + horizon:
            counts[int((t - start_time) // bucket_width)] += 1
    return ArrivalSeries(float(bucket_width), float(start_time), tuple(counts))


def extract_trajectories(entries: Sequence[EventLogEntry]) -> list[Trajectory]:
    """Group entries into one time-sorted trajectory per patient.

    The result is a partition: every entry appears in exactly one
    trajectory. Trajectories are ordered by (admission time, patient_id)
    for determinism.
    """
    by_patient: dict[str, list[EventLogEntry]] = {}
    for e in entries:
        by_patient.setdefault(e.patient_id, []).append(e)
    out = []
    for pid, stays in by_patient.items():
        stays.sort(key=lambda s: s.enter_time)
        out.append(Trajectory(pid, tuple(stays)))  # raises OverlappingStays
    out.sort(key=lambda tr: (tr.stays[0].enter_time, tr.patient_id))
    return out
