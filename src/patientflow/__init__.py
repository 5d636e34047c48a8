"""patientflow: hospital patient-flow simulation with learned sub-models.

A discrete-event simulation of multi-department patient flow whose
inputs (arrival process, stay durations, treatment costs, clinical
pathways) can be either classical stochastic fits or models learned
from event-log data, plus a harness that compares the two stacks
head-to-head on synthetic ground truth.
"""

__version__ = "0.1.0"

from .domain import (  # noqa: F401
    ArrivalSeries,
    DepartmentSpec,
    EventLog,
    Profiles,
    Trajectories,
    bucketize,
    extract_trajectories,
    parse_event_log,
    serialize_event_log,
)
from .synthehr import GeneratorConfig, generate  # noqa: F401
