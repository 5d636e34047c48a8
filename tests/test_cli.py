import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patientflow import cli, codec, engine, experiment, pathways
from patientflow.cli import _read_sim_config, main
from patientflow.domain import (
    CSV_FIELDS,
    PROFILE_FIELDS,
    DepartmentSpec,
    event_log,
    parse_event_log,
    serialize_event_log,
)
from patientflow.estimators import TARGET_COT, Model, fit_conditional, fit_mixture_em
from patientflow.engine import (
    AttributeSampler,
    EmpiricalSampler,
    ForecastDriven,
    PoissonBaseline,
    SimConfig,
)
from patientflow.errors import ConfigError, DataError, PatientFlowError
from patientflow.experiment import ScenarioConfig
from patientflow.seeding import stream
from patientflow.synthehr import GeneratorConfig

from conftest import (
    SCENARIOS,
    InProcessChild,
    Row,
    attribute_sim_config,
    flat_generator_dict,
    make_log,
    spy_on_targets,
    table,
    time_limit,
    trajectories_of,
)


def write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=2))
    return str(path)


@pytest.fixture()
def gen_config_path(tmp_path):
    return write_json(tmp_path / "gen.json", flat_generator_dict(horizon=300.0))


def test_version(capsys):
    assert main(["--version"]) == 0
    assert "patientflow" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command", ["synth", "fit", "forecast", "simulate", "compare", "report"]
)
def test_help_per_subcommand(command, capsys):
    assert main([command, "--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["synth"]) == 2
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_unknown_flag_rejected(capsys):
    assert main(["synth", "--config", "x.json", "--out", "y", "--bogus"]) == 2


def test_missing_config_file_exit_2(tmp_path, capsys):
    assert main(["synth", "--config", str(tmp_path / "nope.json"), "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out == ""  # diagnostics only on stderr


def test_synth_writes_parseable_log(tmp_path, gen_config_path, capsys):
    out = tmp_path / "data"
    assert main(["synth", "--config", gen_config_path, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    log_text = (out / "log.csv").read_text()
    log, profiles = parse_event_log(log_text)
    assert log and profiles
    truth = json.loads((out / "ground_truth.json").read_text())
    assert truth["n_patients"] == len(profiles)


def test_synth_byte_reproducible(tmp_path, gen_config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--config", gen_config_path, "--out", str(out_a)]) == 0
    assert main(["synth", "--config", gen_config_path, "--out", str(out_b)]) == 0
    assert (out_a / "log.csv").read_bytes() == (out_b / "log.csv").read_bytes()
    assert (out_a / "ground_truth.json").read_bytes() == (
        out_b / "ground_truth.json"
    ).read_bytes()


# SHA-256 of synth's outputs for gen_config_path, recorded while
# ground_truth.json still had its own hand-written mapper
SYNTH_GOLDEN = {
    "log.csv": "edf6b579c5ae3871b61bcaf439723dcc830f13b7a9a1f8311715426548bc739e",
    "ground_truth.json": "2efe04c236e6e5176b8a6394660dd6dc07b36bf9109451f8f31cc7e46b4a5524",
}


def test_synth_golden_bytes(tmp_path, gen_config_path):
    out = tmp_path / "data"
    assert main(["synth", "--config", gen_config_path, "--out", str(out)]) == 0
    for name, digest in SYNTH_GOLDEN.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_synth_seed_override_changes_output(tmp_path, gen_config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["synth", "--config", gen_config_path, "--out", str(out_a)])
    main(["synth", "--config", gen_config_path, "--out", str(out_b), "--seed", "9"])
    assert (out_a / "log.csv").read_text() != (out_b / "log.csv").read_text()


@pytest.fixture()
def log_path(tmp_path, gen_config_path):
    out = tmp_path / "data"
    main(["synth", "--config", gen_config_path, "--out", str(out)])
    return str(out / "log.csv")


def test_forecast_poisson_stdout_format(tmp_path, capsys):
    model = write_json(
        tmp_path / "model.json",
        {"kind": "poisson", "lam": 4.0, "degenerate": False},
    )
    assert main(["forecast", "--model", model, "--h", "2"]) == 0
    assert capsys.readouterr().out == "4.000000\n4.000000\n"


def test_fit_then_forecast_round_trip(tmp_path, log_path, capsys):
    model_path = tmp_path / "poisson.json"
    assert main(["fit", "--log", log_path, "--model", "poisson",
                 "--bucket-width", "24", "--out", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["forecast", "--model", str(model_path), "--h", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert len({*lines}) == 1  # constant forecast
    float(lines[0])


def test_fit_estimator_kinds(tmp_path, log_path):
    for kind in ("lognormal_los", "gamma_los", "weibull_los", "conditional_los",
                 "lognormal_cot", "conditional_cot", "transition"):
        out = tmp_path / f"{kind}.json"
        assert main(["fit", "--log", log_path, "--model", kind,
                     "--out", str(out)]) == 0, kind
        assert json.loads(out.read_text())["kind"]


def test_fit_hands_the_estimators_float64_arrays(monkeypatch, tmp_path, log_path):
    """``_targets`` gives each stay and cost fit a float64 array, and so
    does the cost floor of ``lognormal_cot``."""
    seen = spy_on_targets(monkeypatch)
    kinds = ("lognormal_los", "gamma_los", "weibull_los", "conditional_los", "tree_los",
             "lognormal_cot", "conditional_cot")
    for kind in kinds:
        assert main(["fit", "--log", log_path, "--model", kind,
                     "--out", str(tmp_path / "m.json")]) == 0, kind
    assert main(["fit", "--log", log_path, "--model", "mixture_los", "--k", "2",
                 "--seed", "1", "--department", "WARD", "--out", str(tmp_path / "m.json")]) == 0
    assert len(seen) == len(kinds) + 1
    assert {(kind, dtype) for _, kind, dtype in seen} == {(np.ndarray, np.dtype(np.float64))}


def test_fit_takes_cost_rows_in_patient_id_order(tmp_path):
    """Admission costs reach the cost fit in patient-id order, each the sum
    of the patient's stay costs in log order, also when the log lists
    patients in another order."""
    rng = stream(12)
    lines, profiles, totals = [",".join(CSV_FIELDS)], {}, {}
    for k in range(60):
        pid = f"P{(37 * k) % 60:02d}"
        age, com, drg = int(rng.integers(20, 90)), int(rng.integers(0, 6)), ("A", "B")[k % 2]
        profiles[pid] = Row(pid, age, "F" if k % 3 else "M", com, drg)
        t = float(k)
        for _ in range(int(rng.integers(1, 5))):
            cost = round(float(rng.uniform(0.0, 5000.0)), 6)
            lines.append(f"{pid},ER,{t:.6f},{t + 0.5:.6f},{cost:.6f},{age},"
                         f"{profiles[pid].gender},{com},{drg}")
            totals[pid] = totals.get(pid, 0.0) + cost
            t += 0.5
    log = tmp_path / "log.csv"
    log.write_text("\n".join(lines) + "\n")
    out = tmp_path / "cot.json"
    assert main(["fit", "--log", str(log), "--model", "conditional_cot", "--out", str(out)]) == 0
    pids = sorted(totals)
    expected = fit_conditional(table([profiles[pid] for pid in pids]),
                               [totals[pid] for pid in pids], TARGET_COT)
    assert json.loads(out.read_text()) == json.loads(json.dumps(codec.document(expected)))


def test_fit_mixture_requires_seed(tmp_path, log_path):
    out = tmp_path / "m.json"
    assert main(["fit", "--log", log_path, "--model", "mixture_los", "--k", "2",
                 "--out", str(out)]) == 2
    assert main(["fit", "--log", log_path, "--model", "mixture_los", "--k", "2",
                 "--seed", "1", "--out", str(out)]) == 0


def test_mixture_that_stops_at_max_iter_says_so(tmp_path, log_path, capsys):
    """A stay mix that EM cannot settle in 500 iterations warns on stderr;
    the document and stdout are the same as for a silent fit."""
    for k, warns in (("1", False), ("2", True)):
        out = tmp_path / f"mix{k}.json"
        assert main(["fit", "--log", log_path, "--model", "mixture_los", "--k", k,
                     "--seed", "1", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        warned = [line.startswith("warning: EM reached max_iter (500)")
                  for line in captured.err.splitlines()]
        assert warned == ([True, False] if warns else [False])
        log, _ = parse_event_log(Path(log_path).read_text())
        targets = log.los.tolist()
        fit = fit_mixture_em(targets, int(k), 1)
        assert fit.converged() is not warns
        assert out.read_text() == json.dumps(codec.document(fit), indent=2, sort_keys=True) + "\n"


def test_fit_clusters(tmp_path, log_path):
    out = tmp_path / "clusters.json"
    assert main(["fit", "--log", log_path, "--model", "clusters", "--k", "2",
                 "--seed", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "pathway_clusters"
    assert payload["k"] == 2


@pytest.mark.parametrize("model, module, fit, options", [
    ("clusters", pathways, "cluster", ["--k", "2", "--seed", "3"]),
    ("conditional_los", cli.estimators, "fit_conditional", []),
], ids=["clusters", "conditional_los"])
def test_fit_lets_the_log_die_before_the_fit(monkeypatch, tmp_path, log_path,
                                             model, module, fit, options):
    """Once the model's inputs are built, ``fit`` drops the loaded log
    and profiles: neither is alive when the fit runs."""
    real_load, real_fit = cli._load_log, getattr(module, fit)
    loaded = []  # weakrefs to the log and profiles _load_log returned
    alive = []

    def load(*args):
        out = real_load(*args)
        loaded.extend(weakref.ref(part) for part in out)
        return out

    def fitted(*args, **kwargs):
        alive.append(sum(r() is not None for r in loaded))
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(cli, "_load_log", load)
    monkeypatch.setattr(module, fit, fitted)
    assert main(["fit", "--log", log_path, "--model", model, *options,
                 "--out", str(tmp_path / "model.json")]) == 0
    assert len(loaded) == 2 and alive == [0]


@pytest.mark.parametrize("argv", [
    ["poisson", "--bucket-width", "0"], ["poisson", "--bucket-width", "-24"],
    ["poisson", "--bucket-width", "nan"], ["poisson", "--bucket-width", "inf"],
    ["poisson", "--horizon", "nan"], ["poisson", "--horizon", "inf"],
    ["poisson", "--start", "nan"], ["poisson", "--start", "inf"],
    ["tree_los", "--min-leaf", "0"], ["tree_los", "--min-leaf", "-1"],
    ["tree_los", "--max-depth", "-1"], ["holt_winters", "--m", "0"],
], ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
def test_out_of_range_fit_option_exits_2(tmp_path, capsys, log_path, argv):
    model, *options = argv
    assert main(["fit", "--log", log_path, "--model", model,
                 "--out", str(tmp_path / "model.json"), *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert not (tmp_path / "model.json").exists()


def test_fit_department_filter_failure_is_data_error(tmp_path, log_path):
    out = tmp_path / "m.json"
    code = main(["fit", "--log", log_path, "--model", "lognormal_los",
                 "--department", "NOWHERE", "--out", str(out)])
    assert code == 3


def test_forecast_rejects_non_inflow_model(tmp_path, log_path, capsys):
    model_path = tmp_path / "ln.json"
    main(["fit", "--log", log_path, "--model", "lognormal_los", "--out",
          str(model_path)])
    assert main(["forecast", "--model", str(model_path), "--h", "2"]) == 2


def test_simulate_writes_outputs(tmp_path, log_path):
    sim_config = {
        "seed": 5,
        "horizon": 480.0,
        "warm_up": 0.0,
        "replications": 2,
        "departments": [{"name": "ER", "bed_capacity": None},
                        {"name": "WARD", "bed_capacity": 20}],
        "arrival_driver": {"kind": "poisson", "lam": 24.0, "bucket_width": 24.0},
        "los_models": {
            "ER": {"kind": "lognormal", "mu": 3.0, "sigma": 0.3, "n": 10, "loglik": 0.0},
            "WARD": {"kind": "lognormal", "mu": 3.5, "sigma": 0.3, "n": 10, "loglik": 0.0},
        },
        "cot_model": {"kind": "lognormal", "mu": 6.0, "sigma": 0.5, "n": 10, "loglik": 0.0},
        "pathway": {
            "kind": "transition_matrix",
            "departments": ["ER", "WARD"],
            "probs": [[1.0, 0.0, 0.0], [0.0, 0.4, 0.6], [0.0, 0.0, 1.0]],
            "counts": [[1, 0, 0], [0, 2, 3], [0, 0, 1]],
            "row_observed": [True, True, True],
        },
        "profile_sampler": {"kind": "empirical", "log": Path(log_path).name},
    }
    config_path = write_json(Path(log_path).parent / "sim.json", sim_config)
    out = tmp_path / "sim_out"
    assert main(["simulate", "--config", config_path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["replications"] == 2
    for rep in summary["per_replication"]:
        assert rep["admissions"] == rep["discharges"] + rep["in_system"]
    census_lines = (out / "census.csv").read_text().splitlines()
    assert census_lines[0] == "time,department,occupied"
    patients_lines = (out / "patients.csv").read_text().splitlines()
    assert patients_lines[0] == "patient_id,admission,discharge,los,wait,cost,trajectory"
    assert len(patients_lines) > 100


def test_simulate_deterministic(tmp_path, log_path):
    sim_config = attribute_sim_config()
    config_path = write_json(tmp_path / "sim.json", sim_config)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", config_path, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", config_path, "--out", str(out_b)]) == 0
    for name in ("census.csv", "patients.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.fixture(scope="module")
def compare_out(tmp_path_factory, default_scenario_dict):
    scenario = json.loads(json.dumps(default_scenario_dict))
    scenario["generator"]["horizon"] = 1008.0
    scenario["generator"]["base_rate"] = 4.0
    scenario["generator"]["seed"] = 4321
    scenario["split_fraction"] = 2.0 / 3.0
    scenario["replications"] = 2
    tmp = tmp_path_factory.mktemp("compare")
    scenario_path = write_json(tmp / "scenario.json", scenario)
    out = tmp / "out"
    code = main(["compare", "--scenario", scenario_path, "--out", str(out)])
    assert code == 0
    return out


def test_compare_writes_report(compare_out):
    report = json.loads((compare_out / "report.json").read_text())
    assert set(report["verdicts"]) == {
        "inflow_mape", "census_mae", "los_ks", "cot_rel_err", "pathway_tv"
    }
    for name in ("inflow_forecasts.csv", "census_compare.csv", "los_hist.csv"):
        assert (compare_out / name).exists()


# SHA-256 of compare's outputs for the compare_out scenario, recorded while
# the event log was still one record object per stay
COMPARE_GOLDEN = {
    "report.json": "79306ac0972afa44e520a0ed234f815e27471276b8966c87ac04cd5bcd28a541",
    "inflow_forecasts.csv": "b4eb75ed7e3f5956cb2332e08d05500a49d42d34f846f21852d6164c69a17bf2",
    "census_compare.csv": "9d898624f25d002d554869be8d3358e6c90646d261affc0b480b646328147d06",
    "los_hist.csv": "f4b7caea83a4193980560e615ed9e9111132255f2093a6580962048ee6b9ff22",
}


def test_compare_golden_bytes(compare_out):
    for name, digest in COMPARE_GOLDEN.items():
        assert hashlib.sha256((compare_out / name).read_bytes()).hexdigest() == digest, name


def test_report_command_renders_comparison(compare_out, capsys):
    assert main(["report", "--in", str(compare_out)]) == 0
    out = capsys.readouterr().out
    assert "census MAE" in out
    assert "verdicts" in out


def test_report_command_renders_simulation_summary(tmp_path, capsys):
    summary = {
        "replications": 1,
        "horizon": 240.0,
        "census_bucket_width": 24.0,
        "per_replication": [{"replication": 0, "admissions": 5, "discharges": 4,
                             "in_system": 1, "truncated_walks": 0,
                             "avg_census": {"ER": 1.2}, "utilization": {"ER": None}}],
        "mean_census_per_bucket": {"ER": [1.0]},
        "sd_census_per_bucket": {"ER": [0.0]},
        "mean_avg_census": {"ER": 1.2},
        "mean_utilization": {"ER": None},
    }
    write_json(tmp_path / "summary.json", summary)
    assert main(["report", "--in", str(tmp_path)]) == 0
    assert "admissions=5" in capsys.readouterr().out


def test_report_command_missing_artifacts(tmp_path):
    assert main(["report", "--in", str(tmp_path)]) == 2


def report_with(compare_out, stack, key, value):
    report = json.loads((compare_out / "report.json").read_text())
    report[stack][key] = value
    return report


@pytest.mark.parametrize("name, document", [
    ("report.json", lambda out: {}),
    ("summary.json", lambda out: [1]),
    ("report.json", lambda out: report_with(out, "los_ks", "stack_a", "x")),
    ("report.json", lambda out: report_with(out, "census_mae", "stack_a", [])),
], ids=["empty-report", "summary-list", "ks-not-a-number", "census-mae-not-an-object"])
def test_report_of_malformed_document_exits_2(tmp_path, capsys, compare_out, name,
                                              document):
    write_json(tmp_path / name, document(compare_out))
    assert main(["report", "--in", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith(f"error: {tmp_path / name}: ")
    assert captured.err.count("\n") == 1


HOLT_WINTERS = {"kind": "holt_winters", "alpha": 0.5, "beta": 0.1, "gamma": 0.2, "m": 2,
                "level": 5.0, "trend": 0.0, "seasonal": [1.0, -1.0], "phase": 0}


@pytest.mark.parametrize("command, model", [
    ("forecast", {k: v for k, v in HOLT_WINTERS.items() if k != "beta"}),
    ("forecast", {"kind": "poisson", "lam": "abc"}),
    ("simulate", {"kind": "lognormal", "mu": "x", "sigma": 0.3, "n": 10, "loglik": 0.0}),
    ("forecast", {"kind": "poisson", "lam": math.nan}),
    ("forecast", {**HOLT_WINTERS, "level": math.inf}),
], ids=["missing-beta", "lam-not-a-number", "stay-mu-not-a-number", "lam-nan",
        "level-infinity"])
def test_malformed_model_document_exits_2(tmp_path, capsys, command, model):
    if command == "forecast":
        argv = ["forecast", "--model", write_json(tmp_path / "model.json", model),
                "--h", "2"]
    else:
        sim_config = attribute_sim_config()
        sim_config["los_models"]["ER"] = model
        argv = ["simulate", "--config", write_json(tmp_path / "sim.json", sim_config),
                "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("key", ["generator", "split_fraction"])
def test_compare_scenario_missing_key_exits_2(tmp_path, capsys, default_scenario_dict, key):
    scenario = {k: v for k, v in default_scenario_dict.items() if k != key}
    path = write_json(tmp_path / "scenario.json", scenario)
    assert main(["compare", "--scenario", path, "--out", str(tmp_path / "out")]) == 2
    assert "Traceback" not in capsys.readouterr().err


SEASONAL_NAIVE = {"kind": "seasonal_naive", "m": 24}


@pytest.mark.parametrize("generator, overrides, code, undefined", [
    # no patient is admitted before the split at 420 h
    ({"horizon": 504.0, "base_rate": 0.005, "seed": 4}, {}, 3, None),
    # stack B's forecast is all zeros, so it simulates no stay to score
    ({"horizon": 504.0, "base_rate": 0.01, "seed": 1}, {"forecaster": SEASONAL_NAIVE}, 0,
     ("los_ks", "stack_b")),
    # the one held-out patient discharged in the window cost 0.0
    ({"horizon": 336.0, "base_rate": 1.0, "seed": 4},
     {"forecaster": SEASONAL_NAIVE, "split_fraction": 0.95}, 0, ("cot_rel_err", "stack_a")),
], ids=["empty-training-window", "no-simulated-stay", "zero-truth-cost"])
def test_compare_of_a_sparse_window_exits_without_a_traceback(
        tmp_path, capsys, default_scenario_dict, generator, overrides, code, undefined):
    """A score that is undefined for a stack is NaN with a false verdict,
    computed without a numpy warning (the mean of no cost, say)."""
    scenario = json.loads(json.dumps(default_scenario_dict))
    scenario["generator"].update(generator)
    scenario.update(overrides, replications=1)
    path = write_json(tmp_path / "scenario.json", scenario)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["compare", "--scenario", path, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if undefined is None:
        assert err == "data error: no patient is admitted before the split at 420 h\n"
        return
    metric, stack = undefined
    report = json.loads((out / "report.json").read_text())
    assert math.isnan(report[metric][stack])
    assert report["verdicts"][metric] is False


LAG_REGRESSION = {"kind": "lag_regression", "lags": [1, 2],
                  "calendar": [{"n_phases": 3, "phase_width": 1}],
                  "coef": [0.5, 0.2, 0.1, 0.3, -0.3, 0.0], "n_train": 12,
                  "history": [4.0, 5.0]}


TREE_SPLIT = {"leaf": False, "feature": "age", "kind": "numeric", "threshold": 50.0,
              "level": None, "left": {"leaf": True, "mean_ln": 3.0, "count": 5},
              "right": {"leaf": True, "mean_ln": 3.5, "count": 5}}
TREE = {"kind": "tree", "root": TREE_SPLIT, "max_depth": 1, "min_leaf": 5,
        "numeric": ["age", "comorbidity_count"], "categorical": ["gender", "drg"],
        "residual_sigma": 0.3}
AGE = {"name": "age", "mean": 50.0, "sd": 10.0}
GENDER = {"name": "gender", "levels": ["F", "M"]}
CONDITIONAL = {"kind": "conditional", "coef": [3.0, 0.1, 0.2], "residual_sigma": 0.3,
               "target_kind": "los", "n": 10,
               "feature_spec": {"numeric": [AGE], "categorical": [GENDER]}}


def features(numeric, categorical):
    return {"feature_spec": {"numeric": [numeric], "categorical": [categorical]}}


MIXTURE = {"kind": "lognormal_mixture", "n": 10, "loglik": 0.0, "trace": [0.0],
           "components": [{"weight": 0.7, "mu": 3.0, "sigma": 0.3},
                          {"weight": 0.3, "mu": 3.5, "sigma": 0.3}]}


def fitted_clusters():
    """The document of a k = 2 clustering of ER trajectories of one and of
    two stays, fitted with profiles that tell the two apart."""
    paths = [["ER"] * (1 + k % 2) for k in range(40)]
    profiles = table([Row(f"T{k:06d}", 30 + 40 * (k % 2), "F", k % 2, "GEN")
                      for k in range(40)])
    return codec.document(pathways.cluster(trajectories_of(paths), 2, seed=1,
                                           profiles=profiles))


CLUSTERS = fitted_clusters()
ENCODER = CLUSTERS["profile_encoder"]
FIRST, SECOND = CLUSTERS["clusters"]


@pytest.mark.parametrize("slot, base, change", [
    (None, HOLT_WINTERS, {"seasonal": [1.0]}),
    (None, HOLT_WINTERS, {"phase": 2}),
    (None, HOLT_WINTERS, {"phase": -1}),
    (None, LAG_REGRESSION, {"coef": [0.5, 0.2, 0.1]}),
    (None, LAG_REGRESSION, {"history": [5.0]}),
    (None, LAG_REGRESSION, {"lags": []}),
    ("pathway", attribute_sim_config()["pathway"], {"probs": [[1.0], [0.0, 1.0]]}),
    ("pathway", attribute_sim_config()["pathway"], {"counts": [[1, 0]]}),
    ("pathway", attribute_sim_config()["pathway"], {"row_observed": [True]}),
    ("los_models", TREE, {"root": {**TREE_SPLIT, "feature": "gender"}}),
    ("los_models", TREE, {"root": {**TREE_SPLIT, "threshold": None}}),
    ("los_models", TREE,
     {"root": {**TREE_SPLIT, "kind": "categorical", "feature": "age", "threshold": None,
               "level": "50"}}),
    ("los_models", TREE, {"root": {**TREE_SPLIT, "kind": "ordinal"}}),
    ("los_models", CONDITIONAL, features({**AGE, "name": "gender"}, GENDER)),
    ("los_models", CONDITIONAL, features(AGE, {**GENDER, "name": "age"})),
    ("los_models", CONDITIONAL, features({**AGE, "sd": 0}, GENDER)),
    ("los_models", CONDITIONAL, features(AGE, {**GENDER, "levels": []})),
    ("los_models", CONDITIONAL, {"coef": [3.0, 0.1]}),
    ("los_models", CONDITIONAL, {"target_kind": "banana"}),
    ("los_models", MIXTURE, {"components": []}),
    ("los_models", MIXTURE,
     {"components": [{**c, "weight": 0.0} for c in MIXTURE["components"]]}),
    ("arrival_driver", attribute_sim_config()["arrival_driver"], {"forecast": [-10.0] * 10}),
    ("arrival_driver", attribute_sim_config()["arrival_driver"],
     {"forecast": [-10.0] * 10, "deterministic": True}),
    ("pathway", CLUSTERS, {"k": 3}),
    ("pathway", CLUSTERS, {"k": -1}),
    ("pathway", CLUSTERS, {"k": 0, "clusters": []}),
    ("pathway", CLUSTERS, {"k": 1}),
    ("pathway", CLUSTERS,
     {"clusters": [{**FIRST, "attribute_centroid": FIRST["attribute_centroid"][:-1]},
                   SECOND]}),
    ("pathway", CLUSTERS, {"profile_encoder": {**ENCODER, "sds": ENCODER["sds"][:-1]}}),
    ("pathway", CLUSTERS, {"profile_encoder": {**ENCODER, "sds": [0.0, *ENCODER["sds"][1:]]}}),
    ("pathway", CLUSTERS, {"profile_encoder": None}),
    ("pathway", CLUSTERS, {"clusters": [{**FIRST, "attribute_centroid": None}, SECOND]}),
    ("pathway", CLUSTERS, {"departments": ["ER", "ICU"]}),
], ids=["seasonal-shorter-than-m", "phase-equals-m", "phase-negative", "coef-too-short",
        "history-too-short", "no-lags", "ragged-probs-row", "counts-missing-row",
        "row-observed-too-short", "numeric-split-on-gender", "numeric-split-no-threshold",
        "categorical-split-on-age", "ordinal-split", "numeric-feature-gender",
        "categorical-feature-age", "numeric-feature-sd-0", "categorical-feature-no-levels",
        "conditional-coef-too-short", "conditional-target-banana", "mixture-no-components",
        "mixture-weights-sum-to-0", "forecast-negative", "forecast-negative-deterministic",
        "clusters-k-above-count", "clusters-k-negative", "clusters-k-0-none",
        "clusters-k-below-count", "clusters-centroid-short", "clusters-sds-short",
        "clusters-sds-0", "clusters-encoder-null", "clusters-centroid-null",
        "clusters-departments-not-matrices"])
def test_model_document_of_wrong_shape_exits_2(tmp_path, capsys, slot, base, change):
    """A forecast model document (slot None), or a simulation config with
    the document in its pathway, arrival-driver or ER stay-model slot."""
    def argv_for(model, name):
        if slot is None:
            return ["forecast", "--model", write_json(tmp_path / f"{name}.json", model),
                    "--h", "3"]
        sim_config = attribute_sim_config()
        if slot == "los_models":
            sim_config["los_models"]["ER"] = model
        else:
            sim_config[slot] = model
        return ["simulate", "--config", write_json(tmp_path / f"{name}.json", sim_config),
                "--out", str(tmp_path / name)]

    assert main(argv_for(base, "good")) == 0
    capsys.readouterr()
    assert main(argv_for({**base, **change}, "bad")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("path", [
    ("arrival_driver", "lam"), ("arrival_driver", "bucket_width"), ("horizon",),
    ("warm_up",), ("seed",), ("replications",), ("census_bucket",),
], ids=lambda path: path[-1])
def test_non_numeric_simulate_value_exits_2(tmp_path, capsys, path):
    sim_config = attribute_sim_config()
    sim_config["arrival_driver"] = {"kind": "poisson", "lam": 10.0, "bucket_width": 24.0}
    *parents, key = path
    target = sim_config
    for parent in parents:
        target = target[parent]
    target[key] = "x"
    argv = ["simulate", "--config", write_json(tmp_path / "sim.json", sim_config),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"{key}: expected a number" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("key, value", [
    ("replications", 2.5), ("seed", "7"), ("seed", 7.0), ("seed", True),
    ("replications", True), ("horizon", True), ("census_bucket", False),
], ids=["fractional-replications", "string-seed", "float-seed", "boolean-seed",
        "boolean-replications", "boolean-horizon", "boolean-census-bucket"])
def test_loose_simulate_scalar_exits_2(tmp_path, capsys, key, value):
    sim_config = {**attribute_sim_config(), key: value}
    argv = ["simulate", "--config", write_json(tmp_path / "sim.json", sim_config),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"{key}: expected a number" in captured.err
    assert "Traceback" not in captured.err


SCALE_MODELS = {
    "lognormal": {"kind": "lognormal", "mu": 3.0, "sigma": 0.3, "n": 10, "loglik": 0.0},
    "gamma": {"kind": "gamma", "shape": 4.0, "scale": 5.0, "n": 10, "loglik": 0.0},
    "weibull": {"kind": "weibull", "shape": 1.5, "scale": 20.0, "n": 10, "loglik": 0.0},
    "mixture": {"kind": "lognormal_mixture", "n": 10, "loglik": 0.0, "trace": [0.0],
                "components": [{"weight": 1.0, "mu": 3.0, "sigma": 0.3}]},
    "conditional": {"kind": "conditional", "coef": [3.0], "residual_sigma": 0.3,
                    "target_kind": "los", "n": 10,
                    "feature_spec": {"numeric": [], "categorical": []}},
    "tree": {"kind": "tree", "max_depth": 1, "min_leaf": 1, "numeric": [],
             "categorical": [], "residual_sigma": 0.3,
             "root": {"leaf": True, "mean_ln": 3.0, "count": 10}},
}


@pytest.mark.parametrize("model, field", [
    ("lognormal", "sigma"), ("gamma", "shape"), ("gamma", "scale"), ("weibull", "shape"),
    ("weibull", "scale"), ("mixture", "sigma"), ("conditional", "residual_sigma"),
    ("tree", "residual_sigma"),
], ids=lambda v: v)
def test_negative_scale_exits_2(tmp_path, capsys, model, field):
    def argv_for(doc, name):
        sim_config = {**attribute_sim_config(), "los_models": {"ER": doc}}
        return ["simulate", "--config", write_json(tmp_path / f"{name}.json", sim_config),
                "--out", str(tmp_path / name)]

    doc = json.loads(json.dumps(SCALE_MODELS[model]))
    assert main(argv_for(doc, "good")) == 0
    capsys.readouterr()
    target = doc["components"][0] if model == "mixture" else doc
    target[field] = 0.0  # numpy's samplers take a zero scale, and so does the reader
    assert main(argv_for(doc, "zero")) == 0
    capsys.readouterr()
    target[field] = -1.0
    assert main(argv_for(doc, "bad")) == 2
    captured = capsys.readouterr()
    assert f"{field} must be >= 0" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["simulate", "forecast"])
def test_negative_poisson_lam_exits_2(tmp_path, capsys, command):
    def argv_for(lam, name):
        if command == "forecast":
            doc = {"kind": "poisson", "lam": lam, "degenerate": False}
            return ["forecast", "--model", write_json(tmp_path / f"{name}.json", doc),
                    "--h", "2"]
        sim_config = {**attribute_sim_config(),
                      "arrival_driver": {"kind": "poisson", "lam": lam}}
        return ["simulate", "--config", write_json(tmp_path / f"{name}.json", sim_config),
                "--out", str(tmp_path / name)]

    assert main(argv_for(0.0, "zero")) == 0  # no arrivals, as a zero scale allows
    capsys.readouterr()
    assert main(argv_for(-3.0, "bad")) == 2
    captured = capsys.readouterr()
    assert "lam must be >= 0, got -3.0" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("model", ["lognormal", "conditional"])
def test_overflowing_stay_draw_runs(tmp_path, model):
    """A stay whose ln duration overflows lasts forever, as numpy's
    lognormal gives it, rather than stopping the run."""
    doc = {**SCALE_MODELS[model], "coef": [800.0], "mu": 800.0}
    sim_config = {**attribute_sim_config(), "los_models": {"ER": doc}}
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_json(tmp_path / "sim.json", sim_config),
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "patients.csv").read_text().splitlines()[1:]]
    assert rows and all(row[3] == "inf" and row[2] == "" for row in rows)


def capped_two_department_config():
    """Two departments with few beds, transfers both ways, discharges at
    entry and patients still waiting or in a bed at the horizon."""
    return {
        "seed": 11,
        "horizon": 336.0,
        "warm_up": 48.0,
        "replications": 2,
        "departments": [{"name": "ER", "bed_capacity": 4},
                        {"name": "WARD", "bed_capacity": 8}],
        "arrival_driver": {"kind": "poisson", "lam": 18.0, "bucket_width": 24.0},
        "los_models": {
            "ER": {"kind": "lognormal", "mu": 1.5, "sigma": 0.5, "n": 10, "loglik": 0.0},
            "WARD": {"kind": "lognormal", "mu": 3.0, "sigma": 0.4, "n": 10,
                     "loglik": 0.0},
        },
        "cot_model": {"kind": "lognormal", "mu": 6.0, "sigma": 0.5, "n": 10,
                      "loglik": 0.0},
        "pathway": {
            "kind": "transition_matrix",
            "departments": ["ER", "WARD"],
            "probs": [[0.9, 0.0, 0.1], [0.0, 0.5, 0.5], [0.2, 0.0, 0.8]],
            "counts": [[9, 0, 1], [0, 5, 5], [2, 0, 8]],
            "row_observed": [True, True, True],
        },
        "profile_sampler": {"kind": "attributes",
                            "age_mix": {"weight": 0.6, "mean1": 35.0, "sd1": 10.0,
                                        "mean2": 70.0, "sd2": 8.0},
                            "gender_p": 0.5,
                            "comorbidity": {"c0": 1.0, "c1": 0.02},
                            "drg_probs": {"GEN": 0.7, "CARD": 0.3}},
    }


# SHA-256 of simulate's outputs for capped_two_department_config, recorded
# when results were still built as per-patient record objects
SIMULATE_GOLDEN = {
    "census.csv": "6d50647539a2a247ebbabf56b8cb18d5bb567f40eaed2db090f4998fe2235be8",
    "patients.csv": "c7a04c25ab770e0767e0cc9642f68c49612e7b8cb95614f4420cb3b02b992b96",
    "summary.json": "73b22f99cf05f345e66ccce1a3629924906be59eeb14a81651a7ddc7a3d270e1",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_golden_bytes(tmp_path, jobs):
    config_path = write_json(tmp_path / "sim.json", capped_two_department_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", config_path, "--out", str(out),
                 "--jobs", jobs]) == 0
    for name, digest in SIMULATE_GOLDEN.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def scalar_streams_config():
    """A capped two-department config whose every model mixes draw kinds on
    its stream, so the engine keeps scalar draws for all but routing:
    mixture and gamma stays, a Weibull cost, forecast-driven arrivals and
    an attribute sampler. Stays wait for beds."""
    return {
        "seed": 23,
        "horizon": 336.0,
        "warm_up": 24.0,
        "replications": 3,
        "departments": [{"name": "ER", "bed_capacity": 5},
                        {"name": "WARD", "bed_capacity": 9}],
        "arrival_driver": {"kind": "forecast", "forecast": [20.0, 14.0, 18.0] * 5,
                           "bucket_width": 24.0},
        "los_models": {
            "ER": {"kind": "lognormal_mixture", "n": 10, "loglik": 0.0, "trace": [0.0],
                   "components": [{"weight": 0.7, "mu": 1.2, "sigma": 0.4},
                                  {"weight": 0.3, "mu": 2.3, "sigma": 0.6}]},
            "WARD": {"kind": "gamma", "shape": 2.5, "scale": 9.0, "n": 10, "loglik": 0.0},
        },
        "cot_model": {"kind": "weibull", "shape": 1.4, "scale": 900.0, "n": 10,
                      "loglik": 0.0},
        "pathway": {
            "kind": "transition_matrix",
            "departments": ["ER", "WARD"],
            "probs": [[0.85, 0.0, 0.15], [0.0, 0.45, 0.55], [0.25, 0.05, 0.7]],
            "counts": [[17, 0, 3], [0, 9, 11], [5, 1, 14]],
            "row_observed": [True, True, True],
        },
        "profile_sampler": {"kind": "attributes",
                            "age_mix": {"weight": 0.4, "mean1": 30.0, "sd1": 9.0,
                                        "mean2": 68.0, "sd2": 10.0},
                            "gender_p": 0.45,
                            "comorbidity": {"c0": 0.5, "c1": 0.03},
                            "drg_probs": {"GEN": 0.6, "CARD": 0.25, "RESP": 0.15}},
    }


# SHA-256 of simulate's outputs for scalar_streams_config, recorded while
# every engine stream was still drawn one scalar call at a time
SCALAR_STREAMS_GOLDEN = {
    "census.csv": "b2f7518ab4bf556bb7368cc3ce021981e4abfbc49d6ccb43f93bd6cf0a551e3e",
    "patients.csv": "244b522d47a88f73ae8b529d17d8d00815d7a0bb3170d2804f58f161166fd266",
    "summary.json": "75236d376712f182539b9beab7c53838c7e35affec8933b589f8d2b0c79e7f5a",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_scalar_streams_golden_bytes(tmp_path, jobs):
    config_path = write_json(tmp_path / "sim.json", scalar_streams_config())
    out = tmp_path / "out"
    assert main(["simulate", "--config", config_path, "--out", str(out),
                 "--jobs", jobs]) == 0
    for name, digest in SCALAR_STREAMS_GOLDEN.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("width", [0.0, -24.0])
def test_non_positive_census_bucket_exits_2(tmp_path, capsys, width):
    sim_config = {**attribute_sim_config(), "census_bucket": width}
    argv = ["simulate", "--config", write_json(tmp_path / "sim.json", sim_config),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.fixture(scope="module")
def ml_sim_config_path(tmp_path_factory, default_scenario_dict):
    """A capped three-department simulate config whose every sub-model is
    learned from a short synthetic log: conditional, mixture and tree stay
    models, a conditional cost model, clustered pathways and an empirical
    profile sampler."""
    tmp = tmp_path_factory.mktemp("ml_sim")
    generator = {**default_scenario_dict["generator"], "horizon": 336.0, "seed": 77}
    gen_path = write_json(tmp / "gen.json", generator)
    assert main(["synth", "--config", gen_path, "--out", str(tmp / "data")]) == 0
    log = str(tmp / "data" / "log.csv")
    fits = {
        "conditional_los": ["--department", "ER"],
        "mixture_los": ["--department", "ICU", "--k", "2", "--seed", "3"],
        "tree_los": ["--department", "WARD", "--max-depth", "3"],
        "conditional_cot": [],
        "clusters": ["--k", "2", "--seed", "3"],
    }
    models = {}
    for kind, flags in fits.items():
        out = tmp / f"{kind}.json"
        assert main(["fit", "--log", log, "--model", kind, *flags, "--out", str(out)]) == 0
        models[kind] = json.loads(out.read_text())
    return write_json(tmp / "sim.json", {
        "seed": 12,
        "horizon": 480.0,
        "warm_up": 24.0,
        "replications": 3,
        "departments": [{"name": "ER", "bed_capacity": 30},
                        {"name": "ICU", "bed_capacity": 4},
                        {"name": "WARD", "bed_capacity": 8}],
        "arrival_driver": {"kind": "poisson", "lam": 18.0, "bucket_width": 24.0},
        "los_models": {"ER": models["conditional_los"], "ICU": models["mixture_los"],
                       "WARD": models["tree_los"]},
        "cot_model": models["conditional_cot"],
        "pathway": models["clusters"],
        "profile_sampler": {"kind": "empirical", "log": "data/log.csv"},
    })


# SHA-256 of simulate's outputs for ml_sim_config_path, recorded while every
# stay, cost and pathway prediction was still computed once per draw
ML_SIMULATE_GOLDEN = {
    "census.csv": "983739ff0dbd1d06693b12874ed01c1627df04778a1d54cb75c5e7eec3b0ac34",
    "patients.csv": "77c83b3eed5619b37f480f71ddc2874c030cefd574a9d3ca0296b170c37661c9",
    "summary.json": "ec71e1d700ebf37150eb5ab4782add078fb90f4197d8566d1e254967ad92c377",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_learned_models_golden_bytes(tmp_path, ml_sim_config_path, jobs):
    out = tmp_path / "out"
    assert main(["simulate", "--config", ml_sim_config_path, "--out", str(out),
                 "--jobs", jobs]) == 0
    for name, digest in ML_SIMULATE_GOLDEN.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("capacity", ["x", 2.5, True, 0],
                         ids=["string", "fraction", "boolean", "zero"])
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_invalid_bed_capacity_exits_2(tmp_path, capsys, default_scenario_dict, command,
                                      capacity):
    if command == "simulate":
        config = attribute_sim_config()
        config["departments"][0]["bed_capacity"] = capacity
        argv = ["simulate", "--config", write_json(tmp_path / "sim.json", config)]
    else:
        scenario = {**default_scenario_dict, "capacities": {"ER": capacity}}
        argv = ["compare", "--scenario", write_json(tmp_path / "scenario.json", scenario)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "bed_capacity must be an integer >= 1 or null" in captured.err
    assert "Traceback" not in captured.err


MISSING = object()


def replaced(doc, path, value):
    """A deep copy of ``doc`` with the value at ``path`` replaced, or
    removed when ``value`` is ``MISSING``."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    target = doc
    for parent in parents:
        target = target[parent]
    if value is MISSING:
        del target[key]
    else:
        target[key] = value
    return doc


# (command, path into its config, value, exit code): values the hand-written
# config readers let through to a traceback (exit 1) or a silent run (exit 0)
CONFIG_HOLES = [
    ("synth", ("age_mix", "weight"), "x", 2),
    ("synth", ("age_mix", "extra"), 1.0, 0),
    ("synth", ("drg_probs", "ACS"), "x", 2),
    ("synth", ("comorbidity_rate_by_age", 0, "c0"), "x", 2),
    ("synth", ("los_coeffs", "drg_offsets", "HF"), "x", 2),
    ("synth", ("trend_slope",), math.nan, 2),
    ("synth", ("los_coeffs", "sigma_ln"), math.nan, 2),
    ("compare", ("replications",), "x", 2),
    ("compare", ("jobs",), "two", 2),
    ("compare", ("bucket_width",), "x", 2),
    ("compare", ("pathway_k",), "many", 2),
    ("compare", ("forecaster",), [1], 2),
    ("compare", ("forecaster", "calendar"), [{"n_phases": "x"}], 2),
    ("compare", ("forecaster", "alpha"), "x", 2),
    ("simulate", ("profile_sampler", "age_mix", "extra"), 1.0, 0),
    ("simulate", ("profile_sampler", "age_mix", "weight"), "x", 2),
    ("simulate", ("profile_sampler", "drg_probs", "GEN"), "x", 2),
    ("simulate", ("profile_sampler", "comorbidity", "c1"), MISSING, 2),
    ("simulate", ("profile_sampler", "gender_p"), math.nan, 2),
    ("simulate", ("arrival_driver", "deterministic"), "no", 2),
    ("synth", ("seed",), -1, 2),
    ("compare", ("bucket_width",), 0.0, 2),
    ("compare", ("bucket_width",), 2.0, 2),
    ("simulate", ("seed",), -1, 2),
    ("simulate", ("arrival_driver", "bucket_width"), 0.0, 2),
    ("simulate", ("departments",), ["ER"], 2),
    ("simulate", ("departments",), 5, 2),
    ("simulate", ("los_models",), [1], 2),
    ("simulate", ("census_bucket",), 1e-300, 2),
    ("compare", ("census_bucket",), 1e-30, 2),
    ("compare", ("capacities",), {"XX": 2}, 2),
    ("simulate", ("arrival_driver", "forecast"), [1e300] * 100, 2),
    ("simulate", ("arrival_driver", "forecast"), [1e12] * 100, 2),
    ("simulate", ("arrival_driver", "bucket_width"), 1e-320, 3),
    ("simulate", ("arrival_driver",), {"kind": "poisson", "lam": 2.0, "bucket_width": 1e-10}, 2),
    ("simulate", ("arrival_driver",), {"kind": "poisson", "lam": 2.0, "bucket_width": 1e-320},
     2),
    ("synth", ("horizon",), 1e9, 2),
    ("synth", ("base_rate",), 1e9, 2),
    ("simulate", ("replications",), 10_001, 2),
    ("compare", ("replications",), 10_001, 2),
    ("compare", ("jobs",), 0, 2),
    ("compare", ("jobs",), -3, 2),
]


def hole_id(command, path, value, code):
    if value is MISSING:
        value = "missing"
    elif isinstance(value, list) and len(value) > 3:
        value = f"[{value[0]}]*{len(value)}"
    return f"{command}-{'.'.join(map(str, path))}-{value}"


@pytest.mark.parametrize("command, path, value, code", CONFIG_HOLES,
                         ids=[hole_id(*hole) for hole in CONFIG_HOLES])
def test_config_value_runs_or_exits_with_one_line(tmp_path, capsys, default_scenario_dict,
                                                  command, path, value, code):
    if command == "synth":
        generator = {**default_scenario_dict["generator"], "horizon": 48.0}
        argv = ["synth", "--config",
                write_json(tmp_path / "gen.json", replaced(generator, path, value))]
    elif command == "compare":
        argv = ["compare", "--scenario", write_json(
            tmp_path / "scenario.json", replaced(default_scenario_dict, path, value))]
    else:
        argv = ["simulate", "--config", write_json(
            tmp_path / "sim.json", replaced(attribute_sim_config(), path, value))]
    with time_limit(60):
        assert main([*argv, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert len(err.strip().splitlines()) == 1
        assert str(path[-1]) in err


@pytest.mark.parametrize("path, value", [(("los_coeffs", "beta0"), 800.0),
                                         (("los_coeffs", "sigma_ln"), 1e300)],
                         ids=["beta0-800", "sigma_ln-1e300"])
def test_generator_stay_that_overflows_exits_3(tmp_path, capsys, default_scenario_dict,
                                               path, value):
    generator = {**default_scenario_dict["generator"], "horizon": 48.0}
    config = write_json(tmp_path / "gen.json", replaced(generator, path, value))
    assert main(["synth", "--config", config, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == ["data error: exit_time: inf is not finite"]


def test_generator_peak_rate_that_underflows_exits_2(tmp_path, capsys, default_scenario_dict):
    generator = {**default_scenario_dict["generator"], "horizon": 48.0, "base_rate": 1e-300,
                 "hourly_profile": [1e-30] * 24}
    config = write_json(tmp_path / "gen.json", generator)
    assert main(["synth", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert "base_rate" in err


# runs the CLI on its arguments with at most 2 GiB of address space, so that a
# run that asks for more fails at once instead of exhausting the host
BOUNDED_CLI = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from patientflow.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_bounded(argv) -> subprocess.CompletedProcess:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", BOUNDED_CLI, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv, code, named", [
    (["fit", "--model", "poisson", "--bucket-width", "1e-9"], 3, "bucket_width"),
    (["fit", "--model", "poisson", "--bucket-width", "1", "--horizon", "1e12"], 2, "horizon"),
    (["forecast", "--h", "100000000000"], 2, "horizon"),
], ids=["fit-bucket-width-1e-9", "fit-horizon-1e12", "forecast-h-1e11"])
def test_bucket_count_is_checked_before_it_is_allocated(tmp_path, log_path, argv, code, named):
    if argv[0] == "fit":
        argv = [*argv, "--log", log_path, "--out", tmp_path / "model.json"]
    else:
        argv = [*argv, "--model", write_json(tmp_path / "model.json",
                                             {"kind": "poisson", "lam": 4.0})]
    run = run_bounded(argv)
    assert run.returncode == code, run.stderr
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    assert len(run.stderr.strip().splitlines()) == 1
    assert named in run.stderr


@pytest.mark.parametrize("column, value", [("exit_time", "inf"), ("cost", "nan"),
                                           ("enter_time", "-inf")])
def test_non_finite_log_value_exits_3(tmp_path, capsys, column, value):
    rows = [["P1", "ER", "0.0", "10.0", "100.0", "50", "F", "1", "GEN"],
            ["P2", "ER", "1.0", "12.0", "100.0", "60", "M", "2", "GEN"]]
    rows[1][CSV_FIELDS.index(column)] = value
    log = tmp_path / "log.csv"
    log.write_text("\n".join([",".join(CSV_FIELDS), *map(",".join, rows)]) + "\n")
    assert main(["fit", "--log", str(log), "--model", "lognormal_los",
                 "--out", str(tmp_path / "los.json")]) == 3
    err = capsys.readouterr().err
    assert f"line 3: {column}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "los.json").exists()


def leaf_paths(doc, path=()):
    """Paths to the scalars (and empty containers) of a JSON document; of
    each list, only the first item is visited, as the rest read alike."""
    if isinstance(doc, dict) and doc:
        for key, value in doc.items():
            yield from leaf_paths(value, (*path, key))
    elif isinstance(doc, list) and doc:
        yield from leaf_paths(doc[0], (*path, 0))
    else:
        yield path


FUZZ_SCENARIO = json.loads((SCENARIOS / "default.json").read_text())
FUZZ_READERS = {
    "generator": (FUZZ_SCENARIO["generator"], GeneratorConfig.from_dict),
    "scenario": (FUZZ_SCENARIO, ScenarioConfig.from_dict),
    "simulate": (attribute_sim_config(), lambda doc: _read_sim_config(doc, Path("."))),
    "simulate-learned": ({**attribute_sim_config(), "los_models": {"ER": TREE},
                          "cot_model": {**CONDITIONAL, "target_kind": "cot"}},
                         lambda doc: _read_sim_config(doc, Path("."))),
}
FUZZ_LEAVES = [(name, path) for name, (doc, _) in FUZZ_READERS.items()
               for path in leaf_paths(doc)]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(FUZZ_LEAVES))
def test_config_readers_raise_only_patientflow_errors(leaf):
    name, path = leaf
    doc, read = FUZZ_READERS[name]
    for value in ("x", math.nan, math.inf, -math.inf, [1.0], None):
        try:
            read(replaced(doc, path, value))
        except PatientFlowError:
            pass


# (command, path into its config, value): attribute probabilities that ran
# (exit 0) or ended in a traceback before one check covered the generator
# config and the attribute sampler alike
ATTRIBUTE_HOLES = [
    ("simulate", ("profile_sampler", "drg_probs"), {}),
    ("simulate", ("profile_sampler", "drg_probs"), {"A": 1.5, "B": -0.5}),
    ("simulate", ("profile_sampler", "drg_probs"), {"A": 1, "B": 1}),
    ("simulate", ("profile_sampler", "gender_p"), 2.0),
    ("synth", ("drg_probs",), {"ACS": 1.5, "HF": -0.25, "ARR": -0.25}),
]


def config_argv(tmp_path, default_scenario_dict, command, path, value):
    """Arguments running ``command`` on its small config with one value replaced."""
    if command == "synth":
        generator = {**default_scenario_dict["generator"], "horizon": 48.0}
        doc = write_json(tmp_path / "gen.json", replaced(generator, path, value))
        return ["synth", "--config", doc, "--out", str(tmp_path / "out")]
    doc = write_json(tmp_path / "sim.json", replaced(attribute_sim_config(), path, value))
    return ["simulate", "--config", doc, "--out", str(tmp_path / "out")]


@pytest.mark.parametrize(
    "command, path, value", ATTRIBUTE_HOLES,
    ids=[f"{c}-{'.'.join(p)}-{json.dumps(v)}" for c, p, v in ATTRIBUTE_HOLES])
def test_attribute_probabilities_are_checked(tmp_path, capsys, default_scenario_dict,
                                             command, path, value):
    assert main(config_argv(tmp_path, default_scenario_dict, command, path, value)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert path[-1] in err


# age mixtures with (almost) no mass on [0, 120] years, whose draw by
# rejection never ended, and two with enough that run
AGE_MIXES = [
    ({"weight": 1.0, "mean1": 500.0, "sd1": 0.0, "mean2": 50.0, "sd2": 10.0}, 2),
    ({"weight": 1.0, "mean1": 500.0, "sd1": 100.0, "mean2": 50.0, "sd2": 10.0}, 2),
    ({"weight": 0.9995, "mean1": -40.0, "sd1": 0.0, "mean2": 50.0, "sd2": 10.0}, 2),
    ({"weight": 0.0, "mean1": 50.0, "sd1": 10.0, "mean2": 130.0, "sd2": 3.0}, 2),
    ({"weight": 1.0, "mean1": 50.0, "sd1": 0.0, "mean2": 500.0, "sd2": 0.0}, 0),
    ({"weight": 0.99, "mean1": -40.0, "sd1": 0.0, "mean2": 50.0, "sd2": 10.0}, 0),
]


@pytest.mark.parametrize("age_mix, code", AGE_MIXES,
                         ids=["point-500", "normal-500", "point-below-0", "normal-130",
                              "point-50", "one-percent-in-range"])
@pytest.mark.parametrize("command", ["synth", "simulate"])
def test_age_mixture_needs_mass_in_range(tmp_path, capsys, default_scenario_dict,
                                         command, age_mix, code):
    path = ("age_mix",) if command == "synth" else ("profile_sampler", "age_mix")
    with time_limit(20):
        assert main(config_argv(tmp_path, default_scenario_dict, command, path,
                                age_mix)) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert len(err.strip().splitlines()) == 1
        assert "age_mix" in err


# a small valid log, and what the fuzz test puts in its place
FUZZ_LOG = [
    ["P1", "ER", "0.0", "10.0", "100.0", "50", "F", "1", "GEN"],
    ["P1", "WARD", "10.0", "30.0", "50.0", "50", "F", "1", "GEN"],
    ["P2", "ER", "1.0", "12.0", "100.0", "60", "M", "2", "GEN"],
    ["P3", "ER", "5.0", "7.5", "80.0", "70", "F", "0", "CARD"],
]
FUZZ_CELLS = st.sampled_from(["x", "nan", "NaN", "inf", "-inf", "Infinity", "", " "])
FUZZ_FITS = [["--model", "lognormal_los"], ["--model", "lognormal_cot"],
             ["--model", "transition"], ["--model", "poisson"],
             ["--model", "clusters", "--k", "1", "--seed", "1"]]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzzed_log_fits_or_exits_3_naming_its_line(data):
    """One cell replaced by a non-number, or a column added to or dropped
    from one line, the header too: ``fit`` runs, or exits 3 with one line
    naming the line."""
    lines = [list(CSV_FIELDS), *(list(row) for row in FUZZ_LOG)]
    i = data.draw(st.integers(0, len(lines) - 1), label="line index")
    change = data.draw(st.sampled_from(["cell", "add", "drop"]), label="change")
    row = lines[i]
    if change == "cell":
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(FUZZ_CELLS)
    elif change == "add":
        row.insert(data.draw(st.integers(0, len(row))), data.draw(FUZZ_CELLS))
    else:
        del row[data.draw(st.integers(0, len(row) - 1))]
    fit = data.draw(st.sampled_from(FUZZ_FITS), label="fit")
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.csv"
        log.write_text("\n".join(map(",".join, lines)) + "\n")
        with contextlib.redirect_stderr(stderr):
            code = main(["fit", "--log", str(log), *fit, "--out", str(Path(tmp) / "m.json")])
    err = stderr.getvalue()
    assert code in (0, 3), err
    if code == 3:
        assert len(err.strip().splitlines()) == 1
        assert re.search(rf"\bline {i + 1}\b", err), err


@pytest.mark.parametrize("probs, state", [
    ([[1.0, 1.0], [0.0, 1.0]], "ENTRY"),
    ([[1.0, 0.0], [0.0, 0.5]], "ER"),
])
def test_non_stochastic_transition_row_exits_2(tmp_path, capsys, probs, state):
    doc = attribute_sim_config()
    doc["pathway"]["probs"] = probs
    config = write_json(tmp_path / "sim.json", doc)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert f"row {state!r} sums to" in err
    assert not (tmp_path / "out").exists()


# --- unreadable inputs ---------------------------------------------------------

UNREADABLE = {  # command line, with {path} for the unreadable input
    "log": ["fit", "--log", "{path}", "--model", "poisson", "--out", "m.json"],
    "config": ["synth", "--config", "{path}", "--out", "out"],
    "model": ["forecast", "--model", "{path}", "--h", "2"],
    "scenario": ["compare", "--scenario", "{path}", "--out", "out"],
    "simulate": ["simulate", "--config", "{path}", "--out", "out"],
}


def unreadable_argv(tmp_path, flag, path):
    return [str(tmp_path / arg) if arg in ("m.json", "out") else arg.format(path=path)
            for arg in UNREADABLE[flag]]


@pytest.mark.parametrize("flag", sorted(UNREADABLE))
def test_input_that_is_a_directory_exits_2(tmp_path, capsys, flag):
    folder = tmp_path / "folder.in"
    folder.mkdir()
    assert main(unreadable_argv(tmp_path, flag, folder)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip() == f"error: cannot read {folder}: Is a directory"


def test_log_that_is_not_utf8_exits_3(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_bytes((",".join(CSV_FIELDS) + "\nP\xe91,ER,0.0,1.0,0.0,50,F,1,GEN\n")
                    .encode("latin-1"))
    assert main(unreadable_argv(tmp_path, "log", log)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert f"{log}: not UTF-8" in err


@pytest.mark.parametrize("flag", ["config", "model", "scenario", "simulate"])
def test_json_document_that_is_not_utf8_exits_2(tmp_path, capsys, flag):
    doc = tmp_path / "doc.json"
    doc.write_bytes('{"kind": "poisson", "note": "caf\xe9"}'.encode("latin-1"))
    assert main(unreadable_argv(tmp_path, flag, doc)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().startswith(f"error: {doc}: not UTF-8")


# --- the columnar copy of an event log ----------------------------------------

def copy_of(log: Path) -> Path:
    return log.with_name(log.name + ".columns.npz")


@contextlib.contextmanager
def counting_parses():
    """Count the parses ``_load_log`` makes while the block runs."""
    calls = []

    def parse(text):
        calls.append(text)
        return parse_event_log(text)

    with mock.patch.object(cli, "parse_event_log", parse):
        yield calls


def loaded_twice(log: Path):
    """Load ``log`` twice; the second load must not parse. Returns both."""
    first = cli._load_log(str(log))
    with counting_parses() as calls:
        second = cli._load_log(str(log))
    assert not calls
    return first, second


# a NUL ends no name: numpy's strings drop it, and such a log keeps no copy
NAMES = st.text(st.characters(codec="utf-8", exclude_characters=',"\r\n'),
                min_size=1, max_size=6).filter(lambda s: not s.endswith("\0"))


@st.composite
def valid_logs(draw):
    """A valid event log document written by ``serialize_event_log``."""
    ids = draw(st.lists(NAMES, min_size=1, max_size=8, unique=True))
    profiles = table([Row(pid, draw(st.integers(0, 120)), draw(st.sampled_from("FM")),
                          draw(st.integers(0, 30)), draw(NAMES)) for pid in ids])
    departments = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 12))
    rows = st.tuples(st.integers(0, len(ids) - 1), st.integers(0, len(departments) - 1),
                     st.integers(0, 10**9), st.integers(1, 10**6), st.integers(0, 10**9))
    stays = draw(st.lists(rows, min_size=n, max_size=n))
    log = event_log(departments, [s[0] for s in stays], [s[1] for s in stays],
                    [s[2] / 1000 for s in stays], [(s[2] + s[3]) / 1000 for s in stays],
                    [s[4] / 1000 for s in stays])
    return serialize_event_log(log, profiles)


@settings(max_examples=150, deadline=None)
@given(valid_logs())
def test_log_loaded_from_its_copy_equals_the_parse(text):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.csv"
        log.write_text(text, encoding="utf-8")
        expected = parse_event_log(text)
        first, second = loaded_twice(log)
        assert copy_of(log).exists()
    assert first == expected
    assert second[0] == expected[0]
    assert second[1] == expected[1]
    assert ([getattr(second[1], name).dtype for name in PROFILE_FIELDS]
            == [getattr(expected[1], name).dtype for name in PROFILE_FIELDS])


def test_edited_log_ignores_its_stale_copy(tmp_path, log_path):
    log = Path(log_path)
    loaded_twice(log)
    header, first, rest = log.read_text().split("\n", 2)
    text = f"{header}\nX{first}\n{rest}"  # the first patient_id changes
    log.write_text(text)
    with counting_parses() as calls:
        assert cli._load_log(log_path) == parse_event_log(text)
    assert len(calls) == 1
    assert loaded_twice(log)[1] == parse_event_log(text)


def rewritten(copy: Path, drop: str = "", **changes) -> None:
    """Write ``copy`` again with some of its arrays replaced or dropped."""
    with np.load(copy) as stored:
        arrays = {name: stored[name] for name in stored.files if name != drop}
    arrays.update(changes)
    with open(copy, "wb") as file:
        np.savez(file, **arrays)


CORRUPTIONS = {
    "truncated": lambda c: c.write_bytes(c.read_bytes()[: c.stat().st_size // 2]),
    "garbage": lambda c: c.write_bytes(b"not an npz file\n" * 8),
    "empty": lambda c: c.write_bytes(b""),
    "wrong-key": lambda c: rewritten(c, key=np.zeros(32, dtype=np.uint8)),
    "short-column": lambda c: rewritten(c, enter=np.load(c)["enter"][:-1]),
    "missing-column": lambda c: rewritten(c, drop="drg"),
    "float-codes": lambda c: rewritten(c, patient=np.load(c)["patient"].astype(float)),
    "code-out-of-range": lambda c: rewritten(
        c, department=np.load(c)["department"] + len(np.load(c)["departments"])),
    "invalid-profile": lambda c: rewritten(c, age=np.load(c)["age"] + 200),
    "bad-gender": lambda c: rewritten(c, gender=np.full_like(np.load(c)["gender"], "X")),
    "comorbidity-out-of-range": lambda c: rewritten(
        c, comorbidity_count=np.load(c)["comorbidity_count"] + 31),
    "pickled-objects": lambda c: rewritten(
        c, departments=np.load(c)["departments"].astype(object)),
}


@pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
def test_damaged_copy_falls_back_to_the_parse(tmp_path, log_path, corrupt):
    log = Path(log_path)
    expected = cli._load_log(log_path)
    CORRUPTIONS[corrupt](copy_of(log))
    with counting_parses() as calls:
        assert cli._load_log(log_path) == expected
    assert len(calls) == 1
    assert loaded_twice(log)[1] == expected  # the parse wrote a good copy again


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_copy_with_flipped_or_cut_bytes_loads_as_the_parse(data):
    text = serialize_event_log(*make_log(
        [(f"P{i % 7}", "ER" if i % 3 else "WARD", 10.0 * i, 10.0 * i + 5.0, float(i))
         for i in range(40)]))
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.csv"
        log.write_text(text)
        expected = cli._load_log(str(log))
        raw = bytearray(copy_of(log).read_bytes())
        if data.draw(st.booleans(), label="cut"):
            raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            at = data.draw(st.integers(0, len(raw) - 1), label="byte")
            raw[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        copy_of(log).write_bytes(bytes(raw))
        assert cli._load_log(str(log)) == expected


def test_log_with_a_trailing_nul_loads_without_a_copy(tmp_path):
    """numpy's fixed-width strings drop a trailing NUL, so no copy is kept."""
    text = ",".join(CSV_FIELDS) + "\nP1\0,ER,0.0,1.0,0.0,50,F,1,GEN\n"
    log = tmp_path / "log.csv"
    log.write_text(text)
    for _ in range(2):
        assert cli._load_log(str(log)) == parse_event_log(text)
    assert cli._load_log(str(log))[1].patient_id[0] == "P1\0"
    assert not copy_of(log).exists()


def test_unwritable_copy_path_still_loads(tmp_path, log_path, capsys):
    log = Path(log_path)
    copy_of(log).mkdir()
    expected = parse_event_log(log.read_text())
    for _ in range(2):
        assert cli._load_log(log_path) == expected
    assert main(["fit", "--log", log_path, "--model", "poisson",
                 "--out", str(tmp_path / "p.json")]) == 0
    assert sorted(p.name for p in log.parent.iterdir()) == [
        "ground_truth.json", "log.csv", "log.csv.columns.npz"]


@pytest.mark.parametrize("row, message", [
    ("P2,ER,3.0,2.0,1.0,40,M,0,GEN", "exit_time: 2.0 not after enter_time 3.0"),
    ("P2,ER,3.0,4.0,1.0,140,M,0,GEN", "age: 140 outside [0, 120]"),
])
def test_invalid_log_row_names_its_field_once(tmp_path, capsys, row, message):
    log = tmp_path / "log.csv"
    log.write_text("\n".join([",".join(CSV_FIELDS), "P1,ER,0.0,1.0,1.0,40,F,0,GEN", row])
                   + "\n")
    assert main(["fit", "--log", str(log), "--model", "lognormal_los",
                 "--out", str(tmp_path / "los.json")]) == 3
    assert capsys.readouterr().err == f"data error: line 3: {message}\n"


def test_invalid_log_exits_3_on_every_read_and_leaves_no_copy(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("\n".join(map(",".join, [CSV_FIELDS, *FUZZ_LOG])) + "\n"
                   + "P4,ER,3.0,2.0,1.0,40,M,0,GEN\n")
    errors = []
    for _ in range(2):
        assert main(["fit", "--log", str(log), "--model", "lognormal_los",
                     "--out", str(tmp_path / "los.json")]) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert len(errors[0].strip().splitlines()) == 1
    assert errors[0].startswith("data error: line 6: exit_time")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv"]


def test_fits_and_the_sampler_read_the_copy_the_first_fit_wrote(tmp_path, log_path):
    """One parse for the first fit; later fits and the empirical sampler
    read the copy, and every fitted document keeps its bytes."""
    log = Path(log_path)
    fits = [["--model", "poisson"], ["--model", "lognormal_los", "--department", "ER"],
            ["--model", "conditional_cot"], ["--model", "transition"]]
    with counting_parses() as calls:
        for i, fit in enumerate(fits):
            assert main(["fit", "--log", log_path, *fit,
                         "--out", str(tmp_path / f"copy{i}.json")]) == 0
        sampler = cli._parse_sampler({"kind": "empirical", "log": log.name}, log.parent)
    assert len(calls) == 1
    assert sampler.profiles == parse_event_log(log.read_text())[1]
    for i, fit in enumerate(fits):
        copy_of(log).unlink()
        assert main(["fit", "--log", log_path, *fit,
                     "--out", str(tmp_path / f"parse{i}.json")]) == 0
        assert (tmp_path / f"parse{i}.json").read_bytes() == (
            tmp_path / f"copy{i}.json").read_bytes()


# --- the simulation config reader against the field-by-field one it replaced ------

def reference_read_sim_config(d, base: Path):
    """The simulation config reader that built ``SimConfig`` field by field,
    with its own driver table and sampler dispatch."""
    def kind_of(doc):
        return doc.get("kind") if isinstance(doc, dict) else None

    def parse_sampler(doc):
        kind = kind_of(doc)
        if kind == "empirical":
            if not isinstance(doc.get("log"), str):
                raise ConfigError("empirical sampler requires a 'log' path")
            _, profiles = cli._load_log(str((base / doc["log"]).resolve()))
            if not profiles:
                raise DataError("empirical sampler log has no profiles")
            return EmpiricalSampler(profiles)
        if kind == "attributes":
            return codec.read(AttributeSampler, doc, "profile_sampler")
        raise ConfigError(f"unknown profile sampler kind {kind!r}")

    drivers = {"poisson": PoissonBaseline, "forecast": ForecastDriven}

    def parse_driver(doc):
        kind = kind_of(doc)
        if not isinstance(kind, str) or kind not in drivers:
            raise ConfigError(f"unknown arrival driver kind {kind!r}")
        return codec.read(drivers[kind], doc, "arrival_driver")

    if not isinstance(d, dict):
        raise ConfigError(f"simulation config: expected an object, got {d!r:.60}")
    try:
        config = SimConfig(
            departments=codec.read(tuple[DepartmentSpec, ...], d["departments"],
                                   "departments"),
            horizon=codec.read(float, d["horizon"], "horizon"),
            warm_up=codec.read(float, d.get("warm_up", 0.0), "warm_up"),
            arrival_driver=parse_driver(d["arrival_driver"]),
            los_models={
                name: codec.read(Model, m, f"los_models.{name}")
                for name, m in codec.read(dict, d["los_models"], "los_models").items()
            },
            cot_model=codec.read(Model, d["cot_model"], "cot_model"),
            pathway=codec.read(pathways.Pathway, d["pathway"], "pathway"),
            profile_sampler=parse_sampler(d["profile_sampler"]),
            seed=codec.read(int, d["seed"], "seed"),
            replications=codec.read(int, d.get("replications", 1), "replications"),
        )
    except KeyError as exc:
        raise ConfigError(f"simulation config missing key {exc}") from None
    return config, codec.read(float, d.get("census_bucket", 24.0), "census_bucket")


def assert_read_alike(doc, base=Path(".")):
    config, width = _read_sim_config(doc, base)
    assert (config, width) == reference_read_sim_config(doc, base)
    return config


def test_sim_config_fixtures_read_as_the_reference_reads_them(ml_sim_config_path, log_path):
    empirical = {**capped_two_department_config(),
                 "profile_sampler": {"kind": "empirical", "log": Path(log_path).name}}
    configs = [assert_read_alike(doc) for doc in
               (attribute_sim_config(), capped_two_department_config(),
                scalar_streams_config())]
    configs.append(assert_read_alike(empirical, Path(log_path).parent))
    path = Path(ml_sim_config_path)
    configs.append(assert_read_alike(json.loads(path.read_text()), path.parent))
    assert {type(c.profile_sampler).__name__ for c in configs} == {
        "AttributeSampler", "EmpiricalSampler"}
    assert {type(c.arrival_driver).__name__ for c in configs} == {
        "PoissonBaseline", "ForecastDriven"}
    assert {type(c.pathway).__name__ for c in configs} == {
        "TransitionMatrix", "PathwayClusters"}


def finite(low, high):
    """A JSON number in [low, high]: an integer or a float."""
    return st.one_of(st.integers(math.ceil(low), math.floor(high)),
                     st.floats(low, high, allow_nan=False, allow_infinity=False))


@st.composite
def sim_documents(draw):
    """Valid simulation config documents: each optional key present or
    absent, either driver, any stay and cost model, capped or not, and
    unknown keys here and there."""
    doc = attribute_sim_config()
    doc["horizon"] = draw(finite(1.0, 1e4))
    doc["seed"] = draw(st.integers(0, 2**63))
    if draw(st.booleans()):
        doc["warm_up"] = draw(finite(0.0, 1.0)) * doc["horizon"] * 0.99
    if draw(st.booleans()):
        doc["replications"] = draw(st.integers(1, 10_000))
    if draw(st.booleans()):
        doc["census_bucket"] = draw(finite(1.0, 1e3))
    if draw(st.booleans()):
        doc["arrival_driver"] = {"kind": "poisson", "lam": draw(finite(0.0, 1e3))}
    driver = doc["arrival_driver"]
    if draw(st.booleans()):
        driver["bucket_width"] = draw(finite(0.5, 48.0))
    if driver["kind"] == "forecast" and draw(st.booleans()):
        driver["deterministic"] = draw(st.booleans())
    doc["departments"][0]["bed_capacity"] = draw(st.one_of(st.none(),
                                                           st.integers(1, 10**6)))
    doc["los_models"]["ER"] = draw(st.sampled_from(sorted(SCALE_MODELS.values(),
                                                          key=json.dumps)))
    doc["cot_model"] = draw(st.sampled_from(sorted(SCALE_MODELS.values(), key=json.dumps)))
    if draw(st.booleans()):
        doc["note"] = "unknown keys are ignored"
        driver["note"] = 1
    return doc


@settings(max_examples=200, deadline=None)
@given(sim_documents())
def test_valid_sim_documents_read_as_the_reference_reads_them(doc):
    assert_read_alike(json.loads(json.dumps(doc)))


# --- bounds on replications and worker processes ----------------------------------

@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_replications_are_checked_before_they_are_allocated(tmp_path, default_scenario_dict,
                                                            command):
    if command == "simulate":
        doc = {**attribute_sim_config(), "replications": 10**12}
        argv = ["simulate", "--config", write_json(tmp_path / "sim.json", doc)]
    else:
        generator = {**default_scenario_dict["generator"], "horizon": 1008.0,
                     "base_rate": 4.0}
        doc = {**default_scenario_dict, "generator": generator, "replications": 10**12}
        argv = ["compare", "--scenario", write_json(tmp_path / "scenario.json", doc)]
    run = run_bounded([*argv, "--out", tmp_path / "out"])
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stderr
    assert len(run.stderr.strip().splitlines()) == 1
    assert "replications" in run.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("jobs", ["0", "-3", "x"])
def test_jobs_flag_below_1_exits_2(tmp_path, capsys, default_scenario_dict, command, jobs):
    if command == "simulate":
        argv = ["simulate", "--config",
                write_json(tmp_path / "sim.json", attribute_sim_config())]
    else:
        argv = ["compare", "--scenario",
                write_json(tmp_path / "scenario.json", default_scenario_dict)]
    with time_limit(60):
        assert main([*argv, "--out", str(tmp_path / "out"), "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "argument --jobs: expected an integer >= 1" in err
    assert not (tmp_path / "out").exists()


def test_simulate_starts_no_more_workers_than_replications(tmp_path, monkeypatch):
    """``--jobs 4`` with 2 replications starts 2 workers, and writes what
    ``--jobs 1`` writes."""
    monkeypatch.setattr(engine, "_Child", InProcessChild)
    monkeypatch.setattr(InProcessChild, "started", [])
    monkeypatch.setattr(engine, "usable_cpus", lambda: 8)
    config = write_json(tmp_path / "sim.json",
                        {**capped_two_department_config(), "replications": 2})
    outputs = {}
    for jobs in ("1", "4"):
        out = tmp_path / jobs
        assert main(["simulate", "--config", config, "--out", str(out), "--jobs", jobs]) == 0
        outputs[jobs] = [(out / name).read_bytes() for name in SIMULATE_GOLDEN]
    assert InProcessChild.started == [range(0, 1), range(1, 2)]
    assert outputs["4"] == outputs["1"]


def test_simulate_error_in_a_worker_exits_2_in_one_line(tmp_path, monkeypatch, capsys):
    """A pathway that routes to an unknown department fails inside each
    forked worker; the parent raises the worker's ``ConfigError``, and the
    command exits 2 with one line and no traceback."""
    monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
    doc = {**attribute_sim_config(), "replications": 2,
           "pathway": {"kind": "transition_matrix", "departments": ["ER", "GHOST"],
                       "probs": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
                       "counts": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                       "row_observed": [True, True, True]}}
    config = write_json(tmp_path / "sim.json", doc)
    with time_limit(60):
        code = main(["simulate", "--config", config, "--out", str(tmp_path / "out"),
                     "--jobs", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.strip().splitlines() == [
        "error: pathway routes to unknown department 'GHOST'"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# runs perfbench's cli-pipeline workload (synth, its six fits, forecast and
# simulate) at the tiny scale through ``main`` in one process, with
# ``simulate --jobs 1``, and prints which of the named modules it loaded
SERIAL_PIPELINE = """\
import contextlib, io, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
from patientflow.cli import main

def call(argv):
    if argv[0] == "simulate":
        argv = [*argv, "--jobs", "1"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        return main(argv), out.getvalue()

workloads.write_inputs("cli-pipeline", Path("."), 20260810, "tiny")
workloads.run("cli-pipeline", Path("."), 20260810, "tiny", call)
print(" ".join(name for name in sys.argv[2:] if name in sys.modules))
"""


POOL_MODULES = ["concurrent.futures", "multiprocessing", "socket", "subprocess"]


def loaded_modules(tmp_path, script: str) -> list[str]:
    """Which of ``POOL_MODULES`` ``script`` loads, run in a fresh
    interpreter with perfbench's directory and the modules as arguments."""
    src = Path(cli.__file__).resolve().parents[1]
    perfbench = src.parent / "perfbench"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", script, str(perfbench), *POOL_MODULES],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_serial_pipeline_loads_no_process_pool_code(tmp_path):
    """Only ``replicate`` with more than one worker needs a process pool, so
    a serial run imports none of its stack."""
    assert loaded_modules(tmp_path, SERIAL_PIPELINE) == []


# runs perfbench's compare-capped-j2 workload at the tiny scale through
# ``main`` with ``--jobs 2`` and two usable CPUs, so each stack's replicate
# forks two workers, and prints which of the named modules it loaded
FORKED_COMPARE = """\
import contextlib, io, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
from patientflow import engine
from patientflow.cli import main

def call(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        return main([*argv, "--jobs", "2"]), out.getvalue()

engine.usable_cpus = lambda: 2
workloads.write_inputs("compare-capped-j2", Path("."), 20260810, "tiny")
workloads.run("compare-capped-j2", Path("."), 20260810, "tiny", call)
print(" ".join(name for name in sys.argv[2:] if name in sys.modules))
"""


def test_forked_compare_loads_no_process_pool_code(tmp_path):
    """``replicate`` forks its workers itself, so a ``compare`` at
    ``--jobs 2`` loads no process-pool stack either."""
    assert loaded_modules(tmp_path, FORKED_COMPARE) == []


# --- the tags a union slot's error lists --------------------------------------------

ESTIMATOR_TAGS = ("'lognormal' or 'gamma' or 'weibull' or 'lognormal_mixture' or "
                  "'conditional' or 'tree'")


@pytest.mark.parametrize("slot, path, tags", [
    (("los_models", "ER"), "simulation config.los_models.ER", ESTIMATOR_TAGS),
    (("cot_model",), "simulation config.cot_model", ESTIMATOR_TAGS),
    (("pathway",), "simulation config.pathway", "'transition_matrix' or 'pathway_clusters'"),
    (("arrival_driver",), "simulation config.arrival_driver", "'poisson' or 'forecast'"),
    (("profile_sampler",), "simulation config.profile_sampler",
     "'attributes' or 'empirical'"),
    ((), None, "'poisson' or 'seasonal_naive' or 'holt_winters' or 'lag_regression'"),
], ids=["los_models", "cot_model", "pathway", "arrival_driver", "profile_sampler",
        "forecast-model"])
def test_unknown_kind_error_lists_the_slot_tags(tmp_path, capsys, slot, path, tags):
    if slot:
        argv = ["simulate", "--out", str(tmp_path / "out"), "--config", write_json(
            tmp_path / "sim.json", replaced(attribute_sim_config(), slot, {"kind": "bad"}))]
    else:
        path = write_json(tmp_path / "model.json", {"kind": "bad"})
        argv = ["forecast", "--model", path, "--h", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: expected {tags}, got {{'kind': 'bad'}}\n")


# --- documents nested deeper than the parser's recursion limit ---------------------

DEEP = '{"horizon": ' + "[" * 100_000 + "]" * 100_000 + "}"


@pytest.mark.parametrize("command", ["synth", "simulate", "compare", "forecast", "report"])
def test_deeply_nested_document_exits_2_in_one_line(tmp_path, capsys, command):
    doc = tmp_path / ("report.json" if command == "report" else "doc.json")
    doc.write_text(DEEP)
    out = ["--out", str(tmp_path / "out")]
    argv = {"synth": ["synth", "--config", str(doc), *out],
            "simulate": ["simulate", "--config", str(doc), *out],
            "compare": ["compare", "--scenario", str(doc), *out],
            "forecast": ["forecast", "--model", str(doc), "--h", "2"],
            "report": ["report", "--in", str(tmp_path)]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {doc}: nested too deeply\n"


def tree_stay_config(depth: int) -> str:
    """The text of ``attribute_sim_config`` with a tree stay model of
    ``depth`` nested splits, written without the recursive JSON encoder."""
    root = '{"leaf": true, "mean_ln": 3.0, "count": 5}'
    for i in range(depth):
        root = ('{"leaf": false, "feature": "age", "kind": "numeric", '
                f'"threshold": {depth - i}.5, "level": null, '
                f'"left": {{"leaf": true, "mean_ln": 2.0, "count": 5}}, "right": {root}}}')
    config = attribute_sim_config()
    config["los_models"]["ER"] = {**TREE, "root": "ROOT", "max_depth": depth}
    return json.dumps(config).replace('"ROOT"', root)


@pytest.mark.parametrize("depth, code", [(900, 0), (2_000, 2)])
def test_deep_tree_stay_model_runs_or_exits_2(tmp_path, capsys, depth, code):
    config = tmp_path / "sim.json"
    config.write_text(tree_stay_config(depth))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err == f"error: {config}: nested too deeply\n"


@pytest.mark.parametrize("tag", [1, 0, 0.0])
def test_tree_stay_model_with_a_numeric_leaf_tag_exits_2(tmp_path, capsys, tag):
    config = tmp_path / "sim.json"
    config.write_text(tree_stay_config(1).replace('"leaf": true', f'"leaf": {tag}', 1))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: simulation config.los_models.ER.root.left: "
                          "expected True or False, got")
    assert len(err.splitlines()) == 1


# --- scenario checks that come before the generator runs -----------------------------

@pytest.mark.parametrize("key, value, message", [
    ("forecaster", {"kind": "bogus"}, "unknown forecaster kind 'bogus'"),
    ("forecaster", {"kind": "holt_winters"}, "holt_winters requires m"),
    ("forecaster", {"kind": "seasonal_naive"}, "seasonal_naive requires m"),
    ("forecaster", {"kind": "lag_regression"}, "lag_regression requires lags"),
    ("pathway_k", 0, "pathway_k must be >= 1, got 0"),
    ("pathway_k", -2, "pathway_k must be >= 1, got -2"),
], ids=["bogus-kind", "holt-winters-no-m", "seasonal-naive-no-m", "lag-regression-no-lags",
        "pathway-k-0", "pathway-k-minus-2"])
def test_scenario_is_checked_before_generate(tmp_path, capsys, monkeypatch,
                                             default_scenario_dict, key, value, message):
    calls = []

    def generate(config):
        calls.append(config)
        return real_generate(config)

    real_generate = experiment.generate
    monkeypatch.setattr(experiment, "generate", generate)
    scenario = write_json(tmp_path / "scenario.json", {**default_scenario_dict, key: value})
    assert main(["compare", "--scenario", scenario, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert calls == []
    assert len(err.splitlines()) == 1
    assert message in err
