"""The event log's CSV form: the parse against the row-list parse it
replaced, the streamed writer against the one-string serializer, and the
memory both keep to."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patientflow import domain
from patientflow.domain import (
    CSV_FIELDS,
    CSV_HEADER,
    Profiles,
    check_profile,
    check_stay,
    event_log,
    parse_event_log,
    serialize_event_log,
    write_event_log,
)
from patientflow.errors import (
    ConflictingProfile,
    DataError,
    InvariantViolation,
    PatientFlowError,
    RowParseError,
)
from patientflow.synthehr import GeneratorConfig, generate


# --- the parse and serializer this module's code replaced, kept as references ---------

def _reference_records(text: str):
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise RowParseError(reader.line_num, str(exc)) from None


def reference_parse_event_log(text: str):
    """The parse that held every stay as a Python 5-tuple, over ``io.StringIO``."""
    reader = _reference_records(text)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty document") from None
    if tuple(header) != CSV_FIELDS:
        raise DataError(f"line 1: expected header {CSV_HEADER!r}, "
                        f"got {','.join(header)!r}")

    patient_index: dict[str, int] = {}
    department_index: dict[str, int] = {}
    profiles: list[tuple] = []
    first_line: list[int] = []
    stays: list[tuple] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
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
        code = department_index.setdefault(dept, len(department_index))
        stays.append((index, code, enter, exit_, cost))
    columns = np.array(stays, dtype=float).reshape(-1, 5).T
    return event_log(tuple(department_index), *columns), Profiles.from_rows(
        list(patient_index), profiles)


def reference_serialize_event_log(log, profiles) -> str:
    """The serializer that built the whole document as one list of lines."""
    ids = profiles.patient_id.tolist()
    attributes = [",".join(map(str, key)) for key in profiles.keys()]
    lines = [CSV_HEADER]
    lines.extend(
        f"{ids[i]},{log.departments[d]},{enter:.6f},{exit_:.6f},{cost:.6f},{attributes[i]}"
        for i, d, enter, exit_, cost in zip(
            log.patient.tolist(), log.department.tolist(), log.enter.tolist(),
            log.exit.tolist(), log.cost.tolist()))
    return "\n".join(lines) + "\n"


def outcome(parse, text):
    """What ``parse`` makes of ``text``: its log and profiles, or its
    error's type, message and line."""
    try:
        return parse(text)
    except PatientFlowError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


# --- generated documents --------------------------------------------------------------

PATIENTS = ("P1", "P2", "P3", "P 4")
# plain names, and names the writer would have to quote
DEPARTMENTS = ("ER", "WARD", "A,B", "X\nY", "X\r\nY", 'Q"R', "")
JUNK = st.text(alphabet=',"\r\n x0.5-eF', max_size=6)


def csv_field(value: str, quote: bool) -> str:
    if quote or any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def valid_rows(draw, attributes):
    pid = draw(st.sampled_from(PATIENTS))
    enter = draw(st.integers(0, 10_000)) / 8
    exit_ = enter + draw(st.integers(1, 10_000)) / 8
    return [pid, draw(st.sampled_from(DEPARTMENTS)), repr(enter),
            draw(st.sampled_from([repr(exit_), f"{exit_:.6f}"])),
            draw(st.sampled_from(["0", "12.5", "1e3"])), *attributes[pid]]


@st.composite
def malformed_rows(draw, attributes):
    row = draw(valid_rows(attributes))
    change = draw(st.sampled_from(["replace", "drop", "add"]))
    i = draw(st.integers(0, len(row) - 1))
    if change == "replace":
        row[i] = draw(st.one_of(JUNK, st.sampled_from(
            ["-1", "nan", "inf", "1e400", "121", "31", "Q", " 2 ", "0.5"])))
    elif change == "drop":
        del row[i]
    else:
        row.insert(i, draw(JUNK))
    return row


@st.composite
def documents(draw, malformed: bool):
    """An event-log document: LF or CRLF line ends, quoted fields (some
    with line breaks inside), blank lines, maybe no final line end; with
    ``malformed``, any row may be broken, and raw junk lines and a wrong
    header may appear."""
    attributes = {pid: [str(draw(st.integers(0, 120))), draw(st.sampled_from(["F", "M"])),
                        str(draw(st.integers(0, 30))), draw(st.sampled_from(["ACS", "G,N"]))]
                  for pid in PATIENTS}
    rows = valid_rows(attributes)
    if malformed:
        rows = st.one_of(rows, malformed_rows(attributes))
    quote = st.booleans()
    lines = [",".join(csv_field(f, draw(quote)) for f in draw(rows))
             for _ in range(draw(st.integers(0, 12)))]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    if malformed:
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(JUNK))
    header = CSV_HEADER
    if malformed and draw(st.booleans()):
        header = draw(st.sampled_from(["", CSV_HEADER.upper(), CSV_HEADER + ",x",
                                       '"' + CSV_HEADER]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join([header, *lines])
    return text + end if draw(st.booleans()) else text


@given(documents(malformed=False))
@settings(max_examples=300, deadline=None)
def test_parse_equals_the_reference_on_valid_documents(text):
    expected = reference_parse_event_log(text)
    assert parse_event_log(text) == expected


@given(documents(malformed=True))
@settings(max_examples=500, deadline=None)
def test_parse_fails_as_the_reference_does(text):
    assert outcome(parse_event_log, text) == outcome(reference_parse_event_log, text)


@pytest.mark.parametrize("text", [
    "", "\n", "\r", CSV_HEADER, CSV_HEADER + "\r", CSV_HEADER + "\n\n\n",
    CSV_HEADER + "\nP1,ER,0,1,0,40,F,1,ACS\rP2,ER,0,1,0,40,F,1,ACS\n",
    CSV_HEADER + '\nP1,"ER\n', CSV_HEADER + '\nP1,"E"R,0,1,0,40,F,1,ACS\n',
    CSV_HEADER + "\nP1,ER,0,1,0,40,F,1,ACS\x00\n",
], ids=["empty", "lf", "cr", "header-only", "header-cr", "trailing-blanks", "lone-cr-row",
        "open-quote", "quote-in-field", "nul"])
def test_parse_edge_documents_as_the_reference_does(text):
    assert outcome(parse_event_log, text) == outcome(reference_parse_event_log, text)


# --- the streamed writer --------------------------------------------------------------

def log_of(n: int):
    """A log of ``n`` stays over about n / 2 patients."""
    rng = np.random.default_rng(n)
    patients = max(1, n // 2)
    enter = rng.integers(0, 10**8, n) / 1e4
    log = event_log(("ER", "ICU", "WARD"), np.sort(rng.integers(0, patients, n)),
                    rng.integers(0, 3, n), enter, enter + rng.integers(1, 10**6, n) / 1e4,
                    rng.integers(0, 10**8, n) / 1e4)
    profiles = Profiles([f"P{i:06d}" for i in range(patients)], rng.integers(0, 121, patients),
                        rng.choice(["F", "M"], patients).astype(object),
                        rng.integers(0, 31, patients), np.full(patients, "ACS", dtype=object))
    return log, profiles


@pytest.mark.parametrize("n", [0, 1, domain._WRITE_ROWS - 1, domain._WRITE_ROWS,
                               domain._WRITE_ROWS + 1])
def test_streamed_write_has_the_serializers_bytes(tmp_path, n):
    log, profiles = log_of(n)
    path = tmp_path / "log.csv"
    with open(path, "w", encoding="utf-8", newline="") as file:
        write_event_log(log, profiles, file)
    expected = reference_serialize_event_log(log, profiles)
    assert serialize_event_log(log, profiles) == expected
    assert path.read_bytes() == expected.encode("utf-8")
    assert expected.count("\n") == n + 1


# --- memory, counted by tracemalloc (numpy's buffers included) ------------------------

@pytest.fixture(scope="module")
def bench_log(default_scenario_dict):
    """The 38.6k-stay log of the default generator over 2016 h."""
    config = GeneratorConfig.from_dict({**default_scenario_dict["generator"],
                                        "horizon": 2016.0})
    result = generate(config)
    return result.log, result.profiles


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_peaks_at_most_350_bytes_per_row(bench_log):
    text = serialize_event_log(*bench_log)
    assert len(bench_log[0]) >= 20_000
    peak = traced_peak(lambda: parse_event_log(text))
    assert peak / len(bench_log[0]) <= 350


def test_streamed_write_peaks_at_most_4_mb(tmp_path, bench_log):
    assert len(bench_log[0]) >= 38_000

    def write():
        with open(tmp_path / "log.csv", "w", encoding="utf-8", newline="") as file:
            write_event_log(*bench_log, file)

    assert traced_peak(write) <= 4_000_000
