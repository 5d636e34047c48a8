"""Batch command-line interface.

Subcommands: synth (generate an oracle log), fit (fit any model from a
log), forecast (expected counts from a fitted inflow model), simulate
(run the engine from a config), compare (the two-stack experiment) and
report (human-readable summary of produced artifacts).

stdout carries only machine-readable payloads; diagnostics go to
stderr. Exit codes: 0 success, 2 usage or config error, 3 data or
invariant error, 4 numeric failure in strict mode.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, codec, estimators, inflow, pathways
from .domain import (
    LOG_ARRAYS_TAG,
    bucketize,
    extract_trajectories,
    log_arrays,
    log_from_arrays,
    parse_event_log,
)
from .engine import (
    EmpiricalSampler,
    SimConfig,
    replicate,
    write_census_csv,
    write_patients_csv,
    write_summary_json,
)
from .errors import ConfigError, DataError, NumericError, PatientFlowError
from .experiment import ScenarioConfig, run_experiment
from .synthehr import GeneratorConfig, generate, write_outputs

LOS_KINDS = ("lognormal_los", "gamma_los", "weibull_los", "mixture_los",
             "conditional_los", "tree_los")
COT_KINDS = ("lognormal_cot", "conditional_cot")
FIT_KINDS = inflow.INFLOW_KINDS + LOS_KINDS + COT_KINDS + ("transition", "clusters")


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None


def _decode(path: str, data: bytes, error: type[PatientFlowError]) -> str:
    """UTF-8 text with universal newlines, as ``Path.read_text`` gives it."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_json(path: str) -> dict:
    try:
        return json.loads(_decode(path, _read_bytes(path), ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{path}: nested too deeply") from None


def _load_log(path: str):
    """An event log CSV's ``EventLog`` and its ``Profiles``.

    A parse that passes writes its output beside the CSV, to
    ``<path>.columns.npz``, keyed by the SHA-256 of ``LOG_ARRAYS_TAG`` and
    the CSV's bytes. A later load of the same bytes reads that copy
    instead of parsing again; a copy that is missing, stale or unreadable
    is ignored.
    """
    data = _read_bytes(path)
    key = hashlib.sha256(LOG_ARRAYS_TAG + data).digest()
    copy = Path(path + ".columns.npz")
    loaded = _read_log_copy(copy, key)
    if loaded is None:
        text = _decode(path, data, DataError)
        del data  # the text holds the same content
        loaded = parse_event_log(text)
        _write_log_copy(copy, key, *loaded)
    return loaded


def _read_log_copy(copy: Path, key: bytes):
    """The log and profiles stored in ``copy`` under ``key``, or None."""
    try:
        with open(copy, "rb") as file, np.load(file, allow_pickle=False) as arrays:
            if arrays["key"].tobytes() != key:
                return None
            return log_from_arrays(arrays)
    except Exception:  # a damaged zip raises a dozen kinds of error: parse instead
        return None


def _write_log_copy(copy: Path, key: bytes, log, profiles) -> None:
    """Write the columnar copy through a temporary file and an atomic
    rename; a log that cannot be stored exactly, or a failed write, leaves
    no copy."""
    arrays = log_arrays(log, profiles)
    if arrays is None:
        return
    tmp = copy.with_name(f"{copy.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as file:
            np.savez(file, key=np.frombuffer(key, dtype=np.uint8), **arrays)
        os.replace(tmp, copy)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _cmd_synth(args) -> int:
    config = GeneratorConfig.from_dict(_read_json(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    result = generate(config)
    log_path, truth_path = write_outputs(result, args.out)
    _info(f"wrote {log_path} ({len(result.log)} stays, "
          f"{len(result.profiles)} patients) and {truth_path}")
    return 0


def _parse_lags(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise ConfigError(f"bad --lags {text!r}, expected e.g. 1,24,168") from None


def _jobs(text: str) -> int:
    """A ``--jobs`` value: a number of worker processes, at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return jobs


def _finite(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{flag} must be a finite number, got {value}")
    return value


def _auto_horizon(log, width: float) -> float:
    latest = float(log.enter.max())
    return (int(latest // width) + 1) * width


def _targets(kind, log, profiles, department):
    """The rows a cost model (admissions in patient-id order) or a stay
    model (stays in log order, of one department if given) is fitted on."""
    if kind in COT_KINDS:
        totals = np.bincount(log.patient, weights=log.cost, minlength=len(profiles))
        order = np.argsort(profiles.patient_id)
        return profiles.take(order), totals[order]
    rows = log.in_department(department) if department is not None else slice(None)
    return profiles.take(log.patient[rows]), log.los[rows]


def _cmd_fit(args) -> int:
    kind = args.model
    if args.department is not None and kind not in LOS_KINDS:
        raise ConfigError(f"--department applies to stay models only, not {kind}")
    log, profiles = _load_log(args.log)
    if not len(log):
        raise DataError("event log is empty")

    if kind in inflow.INFLOW_KINDS:
        width = _finite(args.bucket_width, "--bucket-width")
        if width <= 0.0:
            raise ConfigError(f"--bucket-width must be positive, got {width}")
        horizon = (_finite(args.horizon, "--horizon") if args.horizon is not None
                   else _auto_horizon(log, width))
        series = bucketize(log, width, _finite(args.start, "--start"), horizon)
        del log, profiles  # the fit reads only the series
        spec = inflow.ForecasterSpec(kind, args.m, args.alpha, args.beta, args.gamma,
                                     _parse_lags(args.lags or ""),
                                     () if args.calendar == "none" else "default")
        model = spec.fit(series)

    elif kind in LOS_KINDS or kind in COT_KINDS:
        profs, targets = _targets(kind, log, profiles, args.department)
        del log, profiles  # the fit reads only its rows
        if kind == "lognormal_los":
            model = estimators.fit_lognormal(targets)
        elif kind == "gamma_los":
            model = estimators.fit_gamma_mom(targets)
        elif kind == "weibull_los":
            model = estimators.fit_weibull(targets, strict=args.strict)
        elif kind == "mixture_los":
            if args.k is None or args.seed is None:
                raise ConfigError("mixture_los requires --k and --seed")
            model = estimators.fit_mixture_em(targets, args.k, args.seed)
            if not model.converged():
                _info(f"warning: EM reached max_iter ({len(model.trace)}) before the "
                      f"log-likelihood gain fell below EM_TOL ({estimators.EM_TOL:g}); "
                      f"last gain {model.trace[-1] - model.trace[-2]:.3g}")
        elif kind == "conditional_los":
            model = estimators.fit_conditional(profs, targets, estimators.TARGET_LOS)
        elif kind == "tree_los":
            model = estimators.fit_tree(profs, targets, args.max_depth, args.min_leaf)
        elif kind == "lognormal_cot":
            model = estimators.fit_lognormal(np.maximum(targets, estimators.COST_FLOOR))
        else:  # conditional_cot
            model = estimators.fit_conditional(profs, targets, estimators.TARGET_COT)

    else:  # transition or clusters
        if kind == "clusters" and (args.k is None or args.seed is None):
            raise ConfigError("clusters requires --k and --seed")
        trajectories = extract_trajectories(log, profiles)
        traj_profiles = profiles.take(trajectories.patient) if kind == "clusters" else None
        del log, profiles  # the fit reads only the trajectories and their profiles
        if kind == "transition":
            model = pathways.fit_transition_matrix(trajectories)
        else:
            model = pathways.cluster(trajectories, args.k, args.seed, traj_profiles)

    codec.write(model, args.out)
    _info(f"fitted {kind}, wrote {args.out}")
    return 0


def _cmd_forecast(args) -> int:
    model = codec.read(inflow.InflowModel, _read_json(args.model), args.model)
    for value in inflow.forecast(model, args.h):
        sys.stdout.write(f"{value:.6f}\n")
    return 0


def _parse_sampler(d: dict, base: Path) -> EmpiricalSampler:
    """The empirical sampler of the log ``d`` names, relative to ``base``."""
    log = codec.read(str, d.get("log"), "simulation config.profile_sampler.log")
    _, profiles = _load_log(str((base / log).resolve()))
    if not profiles:
        raise DataError("empirical sampler log has no profiles")
    return EmpiricalSampler(profiles)


def _read_sim_config(d, base: Path) -> tuple[SimConfig, float]:
    """A simulation config document and its census bucket width. The
    document is ``SimConfig``'s but for two things read here: the log file
    an empirical sampler names, relative to ``base``, and ``census_bucket``,
    an argument of ``replicate``."""
    sampler = d.get("profile_sampler") if isinstance(d, dict) else None
    if isinstance(sampler, dict) and sampler.get("kind") == "empirical":
        d = {**d, "profile_sampler": _parse_sampler(sampler, base)}
    config = codec.read(SimConfig, d, "simulation config")
    return config, codec.read(float, d.get("census_bucket", 24.0),
                              "simulation config.census_bucket")


def _cmd_simulate(args) -> int:
    config, census_bucket = _read_sim_config(_read_json(args.config),
                                             Path(args.config).parent)
    results, summary = replicate(config, jobs=args.jobs, census_bucket=census_bucket)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_census_csv(results[0], out / "census.csv")
    write_patients_csv(results[0], out / "patients.csv")
    write_summary_json(summary, out / "summary.json")
    _info(f"simulated {config.replications} replication(s), wrote {out}/summary.json")
    return 0


def _cmd_compare(args) -> int:
    scenario = ScenarioConfig.from_dict(_read_json(args.scenario))
    if args.jobs is not None:
        scenario = dataclasses.replace(scenario, jobs=args.jobs)
    report = run_experiment(scenario, out_dir=args.out)
    _info(f"wrote {Path(args.out) / 'report.json'}")
    _info("verdicts: " + ", ".join(f"{k}={v}" for k, v in report.verdicts.items()))
    return 0


def _format_report(d: dict) -> str:
    lines = ["two-stack comparison"]
    lines.append(f"  split at t={d['split_time']:.1f}h of {d['horizon']:.1f}h; "
                 f"train patients={d['n_train_patients']}, "
                 f"test patients={d['n_test_patients']}")
    a, b = d["inflow_metrics"]["stack_a"], d["inflow_metrics"]["stack_b"]
    lines.append("  inflow (held-out buckets):")
    for name, m in (("stack A", a), ("stack B", b)):
        lines.append(
            f"    {name}: MAE={m['mae']:.3f} RMSE={m['rmse']:.3f} "
            f"MAPE={m['mape_percent']:.1f}% R={m['r']:.3f}"
        )
    lines.append("  census MAE (beds, daily buckets):")
    for stack in ("stack_a", "stack_b"):
        per = ", ".join(f"{k}={v:.2f}" for k, v in sorted(d["census_mae"][stack].items()))
        lines.append(f"    {stack}: mean={d['census_mae_mean'][stack]:.3f} ({per})")
    lines.append(
        f"  stay-duration KS: A={d['los_ks']['stack_a']:.4f} "
        f"B={d['los_ks']['stack_b']:.4f}"
    )
    lines.append(
        f"  cost rel. error: A={d['cot_rel_err']['stack_a']:.4f} "
        f"B={d['cot_rel_err']['stack_b']:.4f}"
    )
    lines.append(
        f"  pathway TV: A={d['pathway_tv']['stack_a']:.4f} "
        f"B={d['pathway_tv']['stack_b']:.4f}"
    )
    lines.append("  verdicts (B no worse than A): "
                 + ", ".join(f"{k}={v}" for k, v in sorted(d["verdicts"].items())))
    return "\n".join(lines)


def _format_summary(d: dict) -> str:
    lines = [f"simulation summary ({d['replications']} replication(s), "
             f"horizon {d['horizon']}h)"]
    for key in ("mean_avg_census", "mean_utilization"):
        per = ", ".join(
            f"{k}={'n/a' if v is None else f'{v:.3f}'}" for k, v in sorted(d[key].items())
        )
        lines.append(f"  {key}: {per}")
    for rep in d["per_replication"]:
        lines.append(
            f"  rep {rep['replication']}: admissions={rep['admissions']} "
            f"discharges={rep['discharges']} in_system={rep['in_system']} "
            f"truncated={rep['truncated_walks']}"
        )
    return "\n".join(lines)


def _cmd_report(args) -> int:
    folder = Path(args.indir)
    for name, format_document in (("report.json", _format_report),
                                  ("summary.json", _format_summary)):
        path = folder / name
        if path.exists():
            # read as plain JSON: a report can hold a NaN, which codec.read refuses
            doc = _read_json(str(path))
            try:
                text = format_document(doc)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise ConfigError(f"{path}: not a {name} document "
                                  f"({type(exc).__name__}: {exc})") from None
            sys.stdout.write(text + "\n")
            return 0
    raise ConfigError(f"{folder} contains neither report.json nor summary.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patientflow",
        description="Hospital patient-flow simulation with learned sub-models",
    )
    parser.add_argument("--version", action="version", version=f"patientflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic event log")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit a model from an event log")
    p.add_argument("--log", required=True, help="event log CSV")
    p.add_argument("--model", required=True, choices=FIT_KINDS)
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--bucket-width", type=float, default=24.0)
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--m", type=int, default=None, help="seasonal period in buckets")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--lags", default=None, help="comma-separated lags, e.g. 1,24,168")
    p.add_argument("--calendar", choices=("default", "none"), default="default")
    p.add_argument("--department", default=None, help="restrict stay targets")
    p.add_argument("--k", type=int, default=None, help="components or clusters")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=6)
    p.add_argument("--min-leaf", type=int, default=20)
    p.add_argument("--strict", action="store_true",
                   help="turn numeric warnings into failures (exit 4)")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("forecast", help="forecast from a fitted inflow model")
    p.add_argument("--model", required=True, help="model JSON from fit")
    p.add_argument("--h", type=int, required=True, help="buckets ahead")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("simulate", help="run the simulation engine")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="fit both stacks and compare on held-out data")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=_jobs, default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="print a human-readable summary")
    p.add_argument("--in", dest="indir", required=True, help="directory with outputs")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage to stderr
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        _info(f"error: {exc}")
        return 2
    except NumericError as exc:
        _info(f"numeric failure: {exc}")
        return 4
    except PatientFlowError as exc:
        _info(f"data error: {exc}")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
