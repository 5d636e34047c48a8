import inspect
import pickle

import pytest

from patientflow import errors

# one instance of every exception class in ``errors``, built from its fields
INSTANCES = [
    errors.PatientFlowError("base"),
    errors.ConfigError("bad option"),
    errors.DataError("bad data"),
    errors.NumericError("diverged"),
    errors.RowParseError(7, "expected 5 fields, got 4"),
    errors.InvariantViolation("exit_time", "before entry_time"),
    errors.InvariantViolation("cost", "negative", line=12),
    errors.ConflictingProfile("P001", 9, 2),
    errors.OverlappingStays("x"),
]


def test_every_error_class_has_a_case():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, Exception) and cls.__module__ == errors.__name__}
    assert {type(e) for e in INSTANCES} == classes


@pytest.mark.parametrize("error", INSTANCES, ids=lambda e: type(e).__name__)
def test_error_survives_pickling(error):
    """A ``replicate`` worker sends back the exception it raised pickled, so
    each error must come back as the same type, message and fields."""
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert vars(back) == vars(error)
