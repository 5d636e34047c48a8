"""Exception hierarchy shared by every module.

Three branches matter to callers: ``ConfigError`` (bad configuration or
usage, CLI exit 2), ``DataError`` (inputs violating a contract, exit 3)
and ``NumericError`` (an algorithm failed to converge in strict mode,
exit 4). ``PatientFlowError`` is the base of all three.

The other four classes are ``DataError`` leaves that format their message
from fields: ``RowParseError`` and ``ConflictingProfile`` (an event-log
line), ``InvariantViolation`` (a field, optionally on a line) and
``OverlappingStays`` (a patient).
"""


class PatientFlowError(Exception):
    """Base class for all package errors."""


class ConfigError(PatientFlowError):
    """Invalid configuration document or option combination."""


class DataError(PatientFlowError):
    """Input data violates a precondition or invariant."""


class NumericError(PatientFlowError):
    """A numeric routine failed (divergence, singularity) in strict mode."""


# --- event-log ingestion ---------------------------------------------------

class RowParseError(DataError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvariantViolation(DataError):
    def __init__(self, field: str, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{field}: {message}")
        self.field = field
        self.message = message
        self.line = line


class ConflictingProfile(DataError):
    def __init__(self, patient_id: str, line: int, first_line: int):
        super().__init__(f"line {line}: patient {patient_id!r} carries conflicting "
                         f"attributes (first seen on line {first_line})")
        self.patient_id = patient_id
        self.line = line


class OverlappingStays(DataError):
    def __init__(self, patient_id: str):
        super().__init__(f"patient {patient_id!r} has overlapping stays")
        self.patient_id = patient_id
