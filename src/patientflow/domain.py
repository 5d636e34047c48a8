"""Core record types, the columnar event log, its CSV form, and time bucketing.

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
from array import array
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence, TextIO

import numpy as np

from .errors import (
    ConfigError,
    ConflictingProfile,
    DataError,
    InvariantViolation,
    OverlappingStays,
    RowParseError,
)

GENDERS = ("F", "M")
BUCKET_WIDTHS = (1.0, 24.0, 168.0, 720.0)  # hour, day, week, month
# the most buckets a series, a forecast or a census may have: a 0.004 h
# census width over the paper's 4,032 h horizon
BUCKETS_MAX = 1_000_000

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


# The attributes models read, in the order a row's key lists them, and
# the columns of a ``Profiles`` table.
PROFILE_ATTRIBUTES = ("age", "gender", "comorbidity_count", "drg")
PROFILE_FIELDS = ("patient_id", *PROFILE_ATTRIBUTES)
_PROFILE_DTYPES = (object, np.int64, object, np.int64, object)


def check_profile(age: int, gender: str, comorbidity_count: int) -> None:
    """Reject an age outside [0, 120], a gender not in ``GENDERS`` or a
    comorbidity count outside [0, 30]."""
    if not (0 <= age <= AGE_MAX):
        raise InvariantViolation("age", f"{age} outside [0, {AGE_MAX}]")
    if gender not in GENDERS:
        raise InvariantViolation("gender", f"{gender!r} not in {GENDERS}")
    if not (0 <= comorbidity_count <= COMORBIDITY_MAX):
        raise InvariantViolation(
            "comorbidity_count", f"{comorbidity_count} outside [0, {COMORBIDITY_MAX}]")


@dataclass(frozen=True, eq=False)
class Profiles:
    """Patient attributes as columns, one row per patient: the attributes
    that drive heterogeneity in stay, cost and pathway.

    The string columns hold Python strings (object arrays), the counts
    int64. The constructor takes any sequences of equal length, and
    rejects the first invalid row as ``check_profile`` does.
    """

    patient_id: np.ndarray
    age: np.ndarray
    gender: np.ndarray
    comorbidity_count: np.ndarray
    drg: np.ndarray

    def __post_init__(self):
        for name, dtype in zip(PROFILE_FIELDS, _PROFILE_DTYPES):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len({getattr(self, name).shape for name in PROFILE_FIELDS}) != 1:
            raise ValueError("profile columns of unequal length")
        age, com = self.age, self.comorbidity_count
        bad = ((age < 0) | (age > AGE_MAX) | (com < 0) | (com > COMORBIDITY_MAX)
               | ~np.isin(self.gender, GENDERS))
        if bad.any():
            i = int(np.argmax(bad))
            check_profile(age[i].item(), self.gender[i], com[i].item())

    @classmethod
    def from_rows(cls, patient_id: Sequence[str], rows: Sequence[tuple]) -> "Profiles":
        """The table of the given ids and their (age, gender,
        comorbidity_count, drg) rows."""
        return cls(patient_id, *np.array(rows, dtype=object).reshape(-1, 4).T)

    def __len__(self) -> int:
        return len(self.patient_id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Profiles):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in PROFILE_FIELDS)

    def take(self, index) -> "Profiles":
        """The rows a boolean mask or an index array picks, in that order."""
        return Profiles(*(getattr(self, name)[index] for name in PROFILE_FIELDS))

    def keys(self) -> list[tuple]:
        """Each row's attributes without its id, the tuple under which what
        the models predict for the row can be cached."""
        return list(zip(*(getattr(self, name).tolist() for name in PROFILE_ATTRIBUTES)))


def check_stay(enter: float, exit_: float, cost: float) -> None:
    """Reject a stay with a non-finite time or cost, an enter time below 0,
    an exit not after the enter time, or a negative cost."""
    if not (math.isfinite(enter) and math.isfinite(exit_) and math.isfinite(cost)):
        name, value = next((n, v) for n, v in (("enter_time", enter), ("exit_time", exit_),
                                               ("cost", cost)) if not math.isfinite(v))
        raise InvariantViolation(name, f"{value} is not finite")
    if enter < 0:
        raise InvariantViolation("enter_time", f"{enter} < 0")
    if exit_ <= enter:
        raise InvariantViolation("exit_time", f"{exit_} not after enter_time {enter}")
    if cost < 0:
        raise InvariantViolation("cost", f"{cost} < 0")


def check_stays(enter: np.ndarray, exit_: np.ndarray, cost: np.ndarray) -> None:
    """``check_stay`` over columns: the first bad row raises its error."""
    bad = (~(np.isfinite(enter) & np.isfinite(exit_) & np.isfinite(cost))
           | (enter < 0) | (exit_ <= enter) | (cost < 0))
    if bad.any():
        i = int(np.argmax(bad))
        check_stay(enter[i].item(), exit_[i].item(), cost[i].item())


_COLUMNS = ("patient", "department", "enter", "exit", "cost")


@dataclass(frozen=True, eq=False)
class EventLog:
    """An event log's stays as columns, one row per stay in log order.

    ``patient`` indexes the rows of the ``Profiles`` that come with the
    log. Both producers give every profile at least one stay, and a subset
    (``rows``) keeps the indexing. ``department`` indexes
    ``departments``, which names exactly the departments that occur, in
    order of first appearance. ``enter`` and ``exit`` are hours, ``cost``
    is the stay's cost.
    """

    departments: tuple[str, ...]
    patient: np.ndarray
    department: np.ndarray
    enter: np.ndarray
    exit: np.ndarray
    cost: np.ndarray

    def __len__(self) -> int:
        return len(self.patient)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return self.departments == other.departments and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS)

    @property
    def los(self) -> np.ndarray:
        """Each stay's hours."""
        return self.exit - self.enter

    def rows(self, index: np.ndarray) -> "EventLog":
        """The rows a boolean mask or an index array picks, in that order."""
        return event_log(self.departments, *(getattr(self, name)[index] for name in _COLUMNS))

    def in_department(self, name: str) -> np.ndarray:
        """Mask of the rows in department ``name``."""
        if name not in self.departments:
            return np.zeros(len(self), dtype=bool)
        return self.department == self.departments.index(name)


def event_log(departments: Sequence[str], patient, department, enter, exit_,
              cost) -> EventLog:
    """An ``EventLog`` of the given columns, ``department`` indexing
    ``departments``; keeps only the departments that occur, renumbered in
    order of first appearance."""
    department = np.asarray(department, dtype=np.int64)
    codes, first = np.unique(department, return_index=True)
    used = codes[np.argsort(first)]
    renumber = np.zeros(len(departments), dtype=np.int64)
    renumber[used] = np.arange(len(used))
    return EventLog(tuple(departments[i] for i in used.tolist()),
                    np.asarray(patient, dtype=np.int64), renumber[department],
                    np.asarray(enter, dtype=float), np.asarray(exit_, dtype=float),
                    np.asarray(cost, dtype=float))


@dataclass(frozen=True, eq=False)
class Trajectories:
    """A log's stays patient-major, laid out as ``SimResult`` stores them:
    trajectory i is the rows ``offset[i]:offset[i + 1]`` of ``stays``, in
    order of enter time, and trajectories run in (admission time,
    patient_id) order."""

    stays: EventLog
    offset: np.ndarray

    def __len__(self) -> int:
        return len(self.offset) - 1

    @property
    def patient(self) -> np.ndarray:
        """Each trajectory's patient, an index into the log's profiles."""
        return self.stays.patient[self.offset[:-1]]


def check_bucket_width(width: float) -> None:
    """Reject a series bucket width that is not one of ``BUCKET_WIDTHS``."""
    if float(width) not in BUCKET_WIDTHS:
        raise InvariantViolation("bucket_width", f"{width} not one of {BUCKET_WIDTHS}")


@dataclass(frozen=True)
class ArrivalSeries:
    """Bucketed admission counts, the forecasting substrate."""

    bucket_width: float
    start_time: float
    counts: tuple[int, ...]

    def __post_init__(self):
        check_bucket_width(self.bucket_width)
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
    bed_capacity: object = None  # an integer >= 1 or None, checked here

    def __post_init__(self):
        cap = self.bed_capacity
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, Integral)
                                or cap < 1):
            raise ConfigError(f"department {self.name!r}: bed_capacity must be an "
                              f"integer >= 1 or null, got {cap!r:.60}")


_WRITE_ROWS = 4096  # log rows formatted per write


def write_event_log(log: EventLog, profiles: Profiles, file: TextIO) -> None:
    """Write a log and its profiles to a text file as the canonical CSV
    document, ``_WRITE_ROWS`` rows at a time.

    Canonical form: fixed field order, reals as 6-decimal fixed point,
    LF line endings (open the file with ``newline=""``).
    ``parse_event_log`` of the output reproduces the inputs, and
    re-serializing reproduces the document byte for byte.
    """
    ids = profiles.patient_id.tolist()
    attributes = [",".join(map(str, key)) for key in profiles.keys()]
    file.write(CSV_HEADER + "\n")
    for start in range(0, len(log), _WRITE_ROWS):
        rows = slice(start, start + _WRITE_ROWS)
        file.write("".join(
            f"{ids[i]},{log.departments[d]},{enter:.6f},{exit_:.6f},{cost:.6f},{attributes[i]}\n"
            for i, d, enter, exit_, cost in zip(
                log.patient[rows].tolist(), log.department[rows].tolist(),
                log.enter[rows].tolist(), log.exit[rows].tolist(), log.cost[rows].tolist())))


def serialize_event_log(log: EventLog, profiles: Profiles) -> str:
    """The canonical CSV document of a log and its profiles, as
    ``write_event_log`` writes it."""
    text = io.StringIO()
    write_event_log(log, profiles, text)
    return text.getvalue()


def _lines(text: str):
    """The lines of ``text``, each with its ``\\n``, as ``io.StringIO(text)``
    gives them, without the copy of the text a StringIO makes at 4 bytes
    per character."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _records(text: str):
    """The CSV records of ``text``; a record the csv module rejects (such
    as a field over its size limit) is a ``RowParseError``."""
    reader = csv.reader(_lines(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise RowParseError(reader.line_num, str(exc)) from None


def parse_event_log(text: str) -> tuple[EventLog, Profiles]:
    """Parse an event-log CSV document.

    Returns the rows as an ``EventLog`` and the profiles deduplicated by
    patient_id (order of first appearance). Rows that violate a type
    invariant are rejected with their line number; the same patient_id
    appearing with different attributes is a ``ConflictingProfile``.
    """
    reader = _records(text)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty document") from None
    if tuple(header) != CSV_FIELDS:
        raise DataError(f"line 1: expected header {CSV_HEADER!r}, "
                        f"got {','.join(header)!r}")

    patient_index: dict[str, int] = {}
    department_index: dict[str, int] = {}
    profiles: list[tuple] = []  # (age, gender, comorbidity_count, drg)
    first_line: list[int] = []
    columns = (array("q"), array("q"), array("d"), array("d"), array("d"))
    stay_patient, stay_department, stay_enter, stay_exit, stay_cost = columns
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
        attributes = (age, gender, com, drg)
        index = patient_index.get(pid)
        try:
            check_stay(enter, exit_, cost)
            if index is None or attributes != profiles[index]:
                check_profile(age, gender, com)
        except InvariantViolation as exc:
            raise InvariantViolation(exc.field, exc.message, line=lineno) from None
        if index is None:
            index = patient_index[pid] = len(profiles)
            profiles.append(attributes)
            first_line.append(lineno)
        elif attributes != profiles[index]:
            raise ConflictingProfile(pid, lineno, first_line[index])
        stay_patient.append(index)
        stay_department.append(department_index.setdefault(dept, len(department_index)))
        stay_enter.append(enter)
        stay_exit.append(exit_)
        stay_cost.append(cost)
    return event_log(tuple(department_index), *columns), Profiles.from_rows(
        list(patient_index), profiles)


# A log and its profiles as named one-dimensional arrays ("U": fixed-width
# unicode), the form ``log_arrays`` gives and ``log_from_arrays`` reads.
# A stored copy of them is keyed with LOG_ARRAYS_TAG, so a change to this
# layout must change the tag.
LOG_ARRAYS_TAG = b"patientflow event-log arrays 1\n"
LOG_ARRAYS = {"departments": "U", "patient": np.int64, "department": np.int64,
              "enter": np.float64, "exit": np.float64, "cost": np.float64,
              "patient_id": "U", "age": np.int64, "gender": "U",
              "comorbidity_count": np.int64, "drg": "U"}


def log_arrays(log: EventLog, profiles: Profiles) -> dict[str, np.ndarray] | None:
    """A log and its profiles as the arrays of ``LOG_ARRAYS``, or None when
    a string would not come back the same: numpy stores only ``str``s, and
    drops their trailing NULs."""
    arrays = {name: getattr(log, name) for name in _COLUMNS}
    arrays.update((name, getattr(profiles, name)) for name in PROFILE_FIELDS)
    arrays["departments"] = log.departments
    for name, dtype in LOG_ARRAYS.items():
        if dtype == "U":
            strings = arrays[name]
            if not all(isinstance(s, str) and not s.endswith("\0") for s in strings):
                return None
            arrays[name] = np.array(strings, dtype=str)
    return arrays


def log_from_arrays(arrays) -> tuple[EventLog, Profiles]:
    """Rebuild what ``log_arrays`` took apart from a mapping of its arrays.

    Raises ``KeyError`` for a missing array, ``ValueError`` for one of
    another dtype or length or a patient or department code out of range,
    and ``InvariantViolation`` for an invalid profile.
    """
    columns = {name: arrays[name] for name in LOG_ARRAYS}
    for name, dtype in LOG_ARRAYS.items():
        column = columns[name]
        if column.ndim != 1 or not (column.dtype.kind == "U" if dtype == "U"
                                    else column.dtype == dtype):
            raise ValueError(f"array {name!r} is not a 1-d {dtype} array")
    profiles = Profiles(*(columns[name] for name in PROFILE_FIELDS))
    n_stays = len(columns["patient"])
    if any(len(columns[name]) != n_stays for name in _COLUMNS):
        raise ValueError("columns of unequal length")
    for name, size in (("patient", len(profiles)),
                       ("department", len(columns["departments"]))):
        if n_stays and not (0 <= columns[name].min() and columns[name].max() < size):
            raise ValueError(f"{name} code out of range")
    return EventLog(tuple(columns["departments"].tolist()),
                    *(columns[name] for name in _COLUMNS)), profiles


def admission_times(log: EventLog) -> np.ndarray:
    """Each patient's admission time, the earliest enter time of their
    stays, for patient indices up to the highest in the log; inf for a
    patient with no stay in it."""
    size = int(log.patient.max()) + 1 if len(log) else 0
    admission = np.full(size, np.inf)
    np.minimum.at(admission, log.patient, log.enter)
    return admission


def whole_buckets(horizon: float, bucket_width: float) -> int:
    """The number of ``bucket_width`` buckets that ``horizon`` spans, or 0
    when it spans no positive whole number of them (to within 1e-6 h)."""
    n = int(round(horizon / bucket_width))
    return n if n >= 1 and abs(n * bucket_width - horizon) <= 1e-6 else 0


def bucketize(
    log: EventLog,
    bucket_width: float,
    start_time: float,
    horizon: float,
) -> ArrivalSeries:
    """Count admissions per bucket over [start_time, start_time + horizon).

    Only each patient's first stay counts as an admission; stays outside
    the window are ignored. ``bucket_width`` must be one of
    ``BUCKET_WIDTHS``, and ``horizon`` a positive multiple of it that
    spans at most ``BUCKETS_MAX`` buckets.
    """
    check_bucket_width(bucket_width)
    if not horizon / bucket_width <= BUCKETS_MAX:
        raise ConfigError(f"horizon {horizon!r} makes more than {BUCKETS_MAX} "
                          f"{bucket_width}h buckets")
    n_buckets = whole_buckets(horizon, bucket_width)
    if not n_buckets:
        raise DataError(
            f"horizon {horizon} does not span a positive whole number of "
            f"{bucket_width}h buckets"
        )
    t = admission_times(log)
    t = t[(start_time <= t) & (t < start_time + horizon)]
    bucket = ((t - start_time) // bucket_width).astype(np.int64)
    counts = np.bincount(bucket, minlength=n_buckets)
    return ArrivalSeries(float(bucket_width), float(start_time), tuple(counts.tolist()))


def extract_trajectories(log: EventLog, profiles: Profiles) -> Trajectories:
    """Group a log's stays into one time-sorted trajectory per patient.

    Every stay appears in exactly one trajectory. Trajectories are
    ordered by (admission time, patient_id) for determinism, and a
    patient's stays by enter time, ties in log order. Raises
    ``OverlappingStays`` for the first patient, in order of first
    appearance, with a stay that starts before the previous one ends.
    """
    rank = np.empty(len(profiles), dtype=np.int64)
    rank[np.argsort(profiles.patient_id)] = np.arange(len(profiles))
    order = np.lexsort((log.enter, rank[log.patient], admission_times(log)[log.patient]))
    stays = log.rows(order)
    p = stays.patient
    same = p[1:] == p[:-1]
    overlap = same & (stays.enter[1:] < stays.exit[:-1])
    if overlap.any():
        raise OverlappingStays(profiles.patient_id[p[1:][overlap].min()])
    # a trajectory starts at row 0 and wherever the patient changes
    offset = np.flatnonzero(np.concatenate([[True], ~same, [True]]))
    return Trajectories(stays, offset if len(p) else offset[:1])
