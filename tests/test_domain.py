import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patientflow.cli import _load_log
from patientflow.domain import (
    CSV_HEADER,
    ArrivalSeries,
    Profiles,
    admission_times,
    bucketize,
    extract_trajectories,
    parse_event_log,
    serialize_event_log,
)
from patientflow.errors import (
    ConflictingProfile,
    DataError,
    InvariantViolation,
    OverlappingStays,
    RowParseError,
)
from patientflow.synthehr import GeneratorConfig, generate

from conftest import flat_generator_dict, make_log, trajectory_paths

TWO_ROWS = (
    CSV_HEADER + "\n"
    "P1,ER,0.000000,5.500000,100.000000,40,F,1,ACS\n"
    "P1,WARD,5.500000,20.000000,50.000000,40,F,1,ACS\n"
)


def test_parse_two_rows_dedups_profiles():
    log, profiles = parse_event_log(TWO_ROWS)
    assert len(log) == 2
    assert len(profiles) == 1
    assert profiles == Profiles.from_rows(["P1"], [(40, "F", 1, "ACS")])
    assert log.departments[log.department[0]] == "ER"
    assert log.los[1] == pytest.approx(14.5)


def test_parse_rejects_bad_header():
    with pytest.raises(DataError, match="line 1: expected header"):
        parse_event_log("a,b,c\n1,2,3\n")


def test_parse_reports_row_number():
    text = TWO_ROWS + "P2,ER,zero,1.0,0.0,30,M,0,ACS\n"
    with pytest.raises(RowParseError) as exc:
        parse_event_log(text)
    assert exc.value.line == 4


def test_parse_rejects_nonpositive_stay():
    text = CSV_HEADER + "\nP1,ER,5.000000,5.000000,0.000000,40,F,1,ACS\n"
    with pytest.raises(InvariantViolation) as exc:
        parse_event_log(text)
    assert exc.value.field == "exit_time"
    assert exc.value.line == 2


def test_parse_rejects_conflicting_profile():
    text = (
        CSV_HEADER + "\n"
        "P1,ER,0.000000,1.000000,0.000000,40,F,1,ACS\n"
        "P1,ER,2.000000,3.000000,0.000000,41,F,1,ACS\n"
    )
    with pytest.raises(ConflictingProfile):
        parse_event_log(text)


def test_serialize_parse_round_trip_small():
    log, profiles = parse_event_log(TWO_ROWS)
    assert serialize_event_log(log, profiles) == TWO_ROWS


def test_parse_accepts_crlf():
    crlf = TWO_ROWS.replace("\n", "\r\n")
    log, profiles = parse_event_log(crlf)
    assert (log, profiles) == parse_event_log(TWO_ROWS)


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
def test_cli_reads_a_log_with_universal_newlines(tmp_path, end):
    """CRLF and lone-CR line ends load as LF ones, also from the log's
    columnar copy on the second read."""
    path = tmp_path / "log.csv"
    path.write_bytes(TWO_ROWS.replace("\n", end).encode("utf-8"))
    for _ in range(2):
        assert _load_log(str(path)) == parse_event_log(TWO_ROWS)


def test_parse_names_the_line_of_a_record_the_csv_reader_rejects():
    text = TWO_ROWS + "P2,ER,0.0,1.0,0.0,30,M,0," + "A" * 200_000 + "\n"
    with pytest.raises(RowParseError) as exc:
        parse_event_log(text)
    assert exc.value.line == 4
    assert "field larger than field limit" in str(exc.value)


def test_round_trip_generated_log_bit_identical():
    # ~10^4-stay log from the generator round-trips byte for byte
    config = GeneratorConfig.from_dict(flat_generator_dict(horizon=760.0))
    result = generate(config)
    assert len(result.log) > 8000
    doc = serialize_event_log(result.log, result.profiles)
    log, profiles = parse_event_log(doc)
    assert serialize_event_log(log, profiles) == doc


def test_profile_invariants():
    with pytest.raises(InvariantViolation):
        Profiles.from_rows(["P"], [(130, "F", 0, "X")])
    with pytest.raises(InvariantViolation):
        Profiles.from_rows(["P"], [(40, "Q", 0, "X")])
    with pytest.raises(InvariantViolation):
        Profiles.from_rows(["P"], [(40, "F", 31, "X")])


@pytest.mark.parametrize("rows, message", [
    ([(40, "F", 1, "X"), (-1, "Q", 31, "X")], "age: -1 outside [0, 120]"),
    ([(40, "F", 1, "X"), (40, "Q", 31, "X"), (130, "F", 0, "X")],
     "gender: 'Q' not in ('F', 'M')"),
    ([(40, "F", 31, "X"), (130, "F", 0, "X")], "comorbidity_count: 31 outside [0, 30]"),
])
def test_profiles_reject_the_first_invalid_row_field_by_field(rows, message):
    """A table names the first invalid row's first invalid field, with
    the message the parser gives for that row."""
    with pytest.raises(InvariantViolation) as exc:
        Profiles.from_rows([f"P{i}" for i in range(len(rows))], rows)
    assert str(exc.value) == message


def _log(*stays):
    """The log of (patient_id, department, enter, exit) stays, cost 0."""
    return make_log([(*stay, 0.0) for stay in stays])


EMPTY = _log()[0]


def test_bucketize_examples():
    log, _ = _log(("A", "ER", 2.0, 3.0), ("B", "ER", 12.0, 13.0), ("C", "ER", 30.0, 31.0))
    series = bucketize(log, 24.0, 0.0, 48.0)
    assert series.counts == (2, 1)
    assert bucketize(EMPTY, 24.0, 0.0, 48.0).counts == (0, 0)


def test_bucketize_counts_first_stay_only():
    log, _ = _log(("A", "ER", 2.0, 3.0), ("A", "WARD", 30.0, 31.0))
    assert bucketize(log, 24.0, 0.0, 48.0).counts == (1, 0)


def test_bucketize_rejects_empty_window():
    with pytest.raises(DataError, match="does not span a positive whole number"):
        bucketize(EMPTY, 24.0, 0.0, 0.0)
    with pytest.raises(DataError, match="does not span a positive whole number"):
        bucketize(EMPTY, 24.0, 0.0, 36.0)  # not a whole number of buckets


def test_bucketize_constant_rate_mean():
    # lambda = 5/day over 100 days: the daily mean lands near 5
    config = GeneratorConfig.from_dict(
        flat_generator_dict(seed=21, horizon=2400.0, base_rate=5.0 / 24.0)
    )
    result = generate(config)
    series = bucketize(result.log, 24.0, 0.0, 2400.0)
    mean = sum(series.counts) / len(series.counts)
    assert 4.5 <= mean <= 5.5


@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 400), st.integers(1, 50)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=50, deadline=None)
def test_bucketize_conserves_admissions(rows):
    stays = [(f"P{pid}", "ER", float(start), float(start + dur)) for pid, start, dur in rows]
    series = bucketize(_log(*stays)[0], 24.0, 0.0, 480.0)
    admitted = {s[0]: min(x[2] for x in stays if x[0] == s[0]) for s in stays}
    in_window = sum(1 for t in admitted.values() if 0.0 <= t < 480.0)
    assert sum(series.counts) == in_window


def test_extract_trajectories_orders_stays():
    trajectories = extract_trajectories(*_log(("P1", "B", 10.0, 20.0), ("P1", "A", 0.0, 10.0)))
    assert len(trajectories) == 1
    assert trajectory_paths(trajectories)[0] == ("A", "B")


def test_extract_single_stay():
    trajectories = extract_trajectories(*_log(("P1", "A", 0.0, 1.0)))
    assert len(trajectory_paths(trajectories)[0]) == 1


def test_extract_rejects_overlap():
    log = _log(("P1", "A", 0.0, 10.0), ("P1", "B", 5.0, 15.0))
    with pytest.raises(OverlappingStays):
        extract_trajectories(*log)


def test_extract_partitions_entries(default_oracle):
    trajectories = extract_trajectories(default_oracle.log, default_oracle.profiles)
    assert trajectories.offset[-1] == len(default_oracle.log)
    stays = trajectories.stays
    seen = set()
    for key in zip(stays.patient.tolist(), stays.enter.tolist(), stays.department.tolist()):
        assert key not in seen
        seen.add(key)


def test_extract_orders_by_admission_then_patient_id():
    """Equal admission times fall back to patient_id order; a patient's
    stays with equal enter times keep log order."""
    log, profiles = _log(("P2", "B", 0.0, 1.0), ("P10", "A", 5.0, 6.0), ("P2", "C", 1.0, 1.5),
                         ("P1", "A", 0.0, 2.0), ("P10", "B", 3.0, 5.0))
    trajectories = extract_trajectories(log, profiles)
    assert profiles.patient_id[trajectories.patient].tolist() == ["P1", "P2", "P10"]
    assert trajectory_paths(trajectories) == [("A",), ("B", "C"), ("B", "A")]


def test_extract_overlap_names_the_first_patient_to_appear():
    log = _log(("Q", "A", 0.0, 10.0), ("P", "A", 0.0, 10.0), ("P", "B", 5.0, 15.0),
               ("Q", "B", 5.0, 15.0))
    with pytest.raises(OverlappingStays) as exc:
        extract_trajectories(*log)
    assert exc.value.patient_id == "Q"


def test_columns_match_the_per_patient_dict_walks(default_oracle):
    """Admission times, cost totals and trajectory order from the columns
    equal those of the per-patient dict walks they replaced, bit for bit."""
    log, profiles = default_oracle.log, default_oracle.profiles
    admissions, totals, by_patient = {}, {}, {}
    for i, d, enter, cost in zip(log.patient.tolist(), log.department.tolist(),
                                 log.enter.tolist(), log.cost.tolist()):
        pid = profiles.patient_id[i]
        if pid not in admissions or enter < admissions[pid]:
            admissions[pid] = enter
        totals[pid] = totals.get(pid, 0.0) + cost
        by_patient.setdefault(pid, []).append((enter, log.departments[d]))
    ids = profiles.patient_id.tolist()
    assert admission_times(log).tolist() == [admissions[pid] for pid in ids]
    costs = np.bincount(log.patient, weights=log.cost)
    assert costs.tolist() == [totals[pid] for pid in ids]
    walked = sorted(by_patient, key=lambda pid: (admissions[pid], pid))
    trajectories = extract_trajectories(log, profiles)
    assert [ids[i] for i in trajectories.patient] == walked
    assert trajectory_paths(trajectories) == [
        tuple(d for _, d in sorted(by_patient[pid], key=lambda s: s[0])) for pid in walked]


def test_arrival_series_invariants():
    with pytest.raises(InvariantViolation):
        ArrivalSeries(5.0, 0.0, (1, 2))  # bad width
    with pytest.raises(InvariantViolation):
        ArrivalSeries(24.0, 12.0, (1, 2))  # misaligned start
    with pytest.raises(InvariantViolation):
        ArrivalSeries(24.0, 0.0, ())


@given(
    st.lists(
        st.tuples(
            st.integers(0, 20),
            st.integers(0, 10_000_00),  # enter time in centi-hours
            st.integers(1, 10_000_00),  # duration in centi-hours
            st.integers(0, 500_000),    # cost in cents
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_serialize_is_canonical_fixed_point(rows):
    log, profiles = make_log([
        (f"P{pid}", "ER", enter / 100.0, enter / 100.0 + dur / 100.0, cost / 100.0)
        for pid, enter, dur, cost in rows
    ])
    doc = serialize_event_log(log, profiles)
    parsed_log, parsed_profiles = parse_event_log(doc)
    assert serialize_event_log(parsed_log, parsed_profiles) == doc
