import json
import signal
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path

import pytest

from patientflow import engine
from patientflow.domain import (
    PROFILE_FIELDS,
    Profiles,
    admission_times,
    event_log,
    extract_trajectories,
)
from patientflow.synthehr import GeneratorConfig, generate

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def default_scenario_dict():
    return json.loads((SCENARIOS / "default.json").read_text())


@pytest.fixture(scope="session")
def homogeneous_scenario_dict():
    return json.loads((SCENARIOS / "homogeneous.json").read_text())


@pytest.fixture(scope="session")
def default_generator(default_scenario_dict) -> GeneratorConfig:
    return GeneratorConfig.from_dict(default_scenario_dict["generator"])


@pytest.fixture(scope="session")
def default_oracle(default_generator):
    """The full default-scenario synthetic log (generated once per session)."""
    return generate(default_generator)


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class InProcessChild:
    """Stands in for ``engine._Child``, which forks a child per chunk of
    replications: records each chunk it is started with and runs it in
    this process."""

    started: list = []

    def __init__(self, config, indices):
        self.started.append(indices)
        self.results = [engine.run(config, r) for r in indices]

    def join(self):
        return self.results

    def stop(self):
        pass


# One patient's profile as a test writes it; ``table`` makes ``Profiles``
# of a sequence of them.
Row = namedtuple("Row", PROFILE_FIELDS)


def table(rows) -> Profiles:
    """The ``Profiles`` of a sequence of ``Row``s, in that order."""
    return Profiles.from_rows([r.patient_id for r in rows], [r[1:] for r in rows])


def make_log(rows, profiles=None):
    """An EventLog of (patient_id, department, enter, exit, cost) rows, and
    its ``Profiles``: of the ``Row``s ``profiles`` if given, else one
    profile per patient id in order of first appearance."""
    if profiles is None:
        profiles = [Row(pid, 40, "F", 1, "ACS")
                    for pid in dict.fromkeys(row[0] for row in rows)]
    index = {p.patient_id: i for i, p in enumerate(profiles)}
    departments = list(dict.fromkeys(row[1] for row in rows))
    log = event_log(departments, [index[row[0]] for row in rows],
                    [departments.index(row[1]) for row in rows],
                    [row[2] for row in rows], [row[3] for row in rows],
                    [row[4] for row in rows])
    return log, table(profiles)


def attribute_sim_config():
    """A one-department simulation whose profiles come from an attribute sampler."""
    return {
        "seed": 6,
        "horizon": 240.0,
        "departments": [{"name": "ER", "bed_capacity": None}],
        "arrival_driver": {"kind": "forecast", "forecast": [10.0] * 10,
                           "bucket_width": 24.0},
        "los_models": {"ER": {"kind": "lognormal", "mu": 3.0, "sigma": 0.3,
                              "n": 10, "loglik": 0.0}},
        "cot_model": {"kind": "lognormal", "mu": 6.0, "sigma": 0.5, "n": 10,
                      "loglik": 0.0},
        "pathway": {
            "kind": "transition_matrix",
            "departments": ["ER"],
            "probs": [[1.0, 0.0], [0.0, 1.0]],
            "counts": [[1, 0], [0, 1]],
            "row_observed": [True, True],
        },
        "profile_sampler": {"kind": "attributes",
                            "age_mix": {"weight": 1.0, "mean1": 50.0, "sd1": 10.0,
                                        "mean2": 50.0, "sd2": 10.0},
                            "gender_p": 0.5,
                            "comorbidity": {"c0": 1.0, "c1": 0.0},
                            "drg_probs": {"GEN": 1.0}},
    }


def trajectory_paths(trajectories):
    """Each trajectory's department names, in stay order."""
    stays = trajectories.stays
    names = [stays.departments[d] for d in stays.department.tolist()]
    bounds = trajectories.offset.tolist()
    return [tuple(names[a:b]) for a, b in zip(bounds, bounds[1:])]


def trajectories_of(paths):
    """Trajectories of one patient per path, in the given order: patient k
    stays an hour in each department of path k, from hour 1000 k on."""
    rows = [(f"T{k:06d}", d, 1000.0 * k + i, 1000.0 * k + i + 1.0, 0.0)
            for k, path in enumerate(paths) for i, d in enumerate(path)]
    return extract_trajectories(*make_log(rows))


def split_stays(oracle, split_time):
    """(profiles, stay hours) of every stay in log order, split by whether
    the patient was admitted before ``split_time``."""
    log, profiles = oracle.log, oracle.profiles
    before = admission_times(log)[log.patient] < split_time
    return tuple((profiles.take(log.patient[rows]), log.los[rows].tolist())
                 for rows in (before, ~before))


def flat_generator_dict(
    seed=4,
    horizon=1000.0,
    base_rate=10.0,
    sigma_ln=0.4,
    beta0=3.0,
    single_department=False,
):
    """A featureless generator: flat rate, no trend, one class, no attribute
    effects. Handy base for moment and conservation oracles."""
    if single_department:
        departments = ["ER"]
        matrices = [[[0.0, 1.0]]]
    else:
        departments = ["ER", "WARD"]
        matrices = [[[0.0, 0.3, 0.7], [0.0, 0.0, 1.0]]]
    return {
        "seed": seed,
        "horizon": horizon,
        "base_rate": base_rate,
        "trend_slope": 0.0,
        "hourly_profile": [1.0] * 24,
        "weekly_profile": [1.0] * 7,
        "monthly_profile": [1.0] * 12,
        "age_mix": {"weight": 0.5, "mean1": 42.0, "sd1": 12.0, "mean2": 72.0, "sd2": 9.0},
        "gender_p": 0.5,
        "comorbidity_rate_by_age": [{"c0": 1.0, "c1": 0.0}],
        "drg_probs": {"GEN": 1.0},
        "los_coeffs": {
            "beta0": beta0,
            "beta_age": 0.0,
            "beta_com": 0.0,
            "drg_offsets": {"GEN": 0.0},
            "sigma_ln": sigma_ln,
        },
        "cot_coeffs": {
            "gamma0": 800.0,
            "gamma1": 45.0,
            "drg_offsets": {"GEN": 0.0},
            "sigma": 250.0,
        },
        "severity_split": 0.0,
        "departments": departments,
        "entry_department": "ER",
        "transition_matrices": matrices,
    }
