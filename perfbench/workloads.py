"""The benchmark's workloads: the inputs each one writes and the commands it runs.

Every workload starts from ``scenario.json`` in this directory, a copy of
``scenarios/default.json``, so the inputs stay fixed when that file
changes. The workload seed replaces ``generator.seed``; the program sees
only the files written here. A scale sets the size of the run: ``bench``
is what the benchmark measures, ``tiny`` is the self-test's quick
variant and ``paper`` is the unshortened default scenario.

This module imports only the standard library.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 20260810  # generator.seed of scenarios/default.json
# BENCHMARK.json measures the last two; compare-default, the paper's
# headline run, drifts most with the host and is kept for runs by hand.
WORKLOADS = ("compare-default", "compare-capped-j2", "cli-pipeline")
CAPACITIES = {"ER": 560, "ICU": 360, "WARD": 290}

# horizon: generator hours; replications: per stack in compare;
# sim_*: the short simulate run at the end of cli-pipeline.
SCALES = {
    "bench": {"horizon": 2016.0, "replications": 8,
              "sim_horizon": 336.0, "sim_replications": 3},
    "tiny": {"horizon": 504.0, "replications": 2,
             "sim_horizon": 48.0, "sim_replications": 2},
    "paper": {"horizon": 4032.0, "replications": 20,
              "sim_horizon": 336.0, "sim_replications": 3},
}

FITS = (
    ("hw.json", ["--model", "holt_winters", "--bucket-width", "1", "--m", "168",
                 "--horizon", "{horizon}"]),
    ("poisson.json", ["--model", "poisson", "--bucket-width", "1",
                      "--horizon", "{horizon}"]),
    ("los.json", ["--model", "conditional_los"]),
    ("mix.json", ["--model", "mixture_los", "--k", "2", "--seed", "{seed}"]),
    ("cot.json", ["--model", "conditional_cot"]),
    ("clusters.json", ["--model", "clusters", "--k", "2", "--seed", "{seed}"]),
)


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def _write_json(obj, path: Path) -> None:
    # Keys keep their order: the generator draws categories in the key order
    # of ``drg_probs``, so sorting them would change the synthetic log.
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_inputs(workload: str, directory: Path, seed: int, scale: str) -> None:
    """Write the files the program reads first (part of set-up time)."""
    size = SCALES[scale]
    scenario = json.loads((HERE / "scenario.json").read_text(encoding="utf-8"))
    scenario["generator"]["seed"] = seed
    scenario["generator"]["horizon"] = size["horizon"]
    scenario["replications"] = size["replications"]
    if workload == "compare-capped-j2":
        scenario["capacities"] = dict(CAPACITIES)
        scenario["jobs"] = min(2, cpu_count())
    if workload == "cli-pipeline":
        _write_json(scenario["generator"], directory / "generator.json")
    else:
        _write_json(scenario, directory / "scenario.json")


def run(workload: str, directory: Path, seed: int, scale: str, call) -> dict:
    """Run the workload's commands through ``call(argv) -> (exit code, stdout)``.

    Returns the SHA-256 of every output that the digest check covers, by
    name. Raises ``RuntimeError`` naming the first command that failed.
    """
    def cli(*argv: str) -> str:
        code, out = call(list(argv))
        if code != 0:
            raise RuntimeError(f"patientflow {' '.join(argv)} exited {code}")
        return out

    d = directory
    if workload != "cli-pipeline":
        cli("compare", "--scenario", str(d / "scenario.json"), "--out", str(d / "out"))
        report = d / "out" / "report.json"
        if len(json.loads(report.read_text(encoding="utf-8"))["verdicts"]) != 5:
            raise RuntimeError("report.json lacks the five verdicts")
        return {"report.json": _sha256(report)}

    size = SCALES[scale]
    log = d / "data" / "log.csv"
    models = d / "models"
    models.mkdir()
    cli("synth", "--config", str(d / "generator.json"), "--out", str(d / "data"))
    for name, flags in FITS:
        flags = [f.format(seed=seed, horizon=size["horizon"]) for f in flags]
        cli("fit", "--log", str(log), *flags, "--out", str(models / name))
    steps = int(size["sim_horizon"])
    text = cli("forecast", "--model", str(models / "hw.json"), "--h", str(steps))
    forecast = [float(v) for v in text.split()]
    if len(forecast) != steps or min(forecast) < 0.0:
        raise RuntimeError("forecast is not one non-negative count per bucket")

    def model(name: str) -> dict:
        return json.loads((models / name).read_text(encoding="utf-8"))

    los, mix = model("los.json"), model("mix.json")
    _write_json({
        "departments": [{"name": n} for n in ("ER", "ICU", "WARD")],
        "horizon": size["sim_horizon"],
        "arrival_driver": {"kind": "poisson", "lam": model("poisson.json")["lam"],
                           "bucket_width": 1.0},
        "los_models": {"ER": los, "ICU": mix, "WARD": los},
        "cot_model": model("cot.json"),
        "pathway": model("clusters.json"),
        "profile_sampler": {"kind": "empirical", "log": "data/log.csv"},
        "seed": seed,
        "replications": size["sim_replications"],
        "census_bucket": 24.0,
    }, d / "sim.json")
    cli("simulate", "--config", str(d / "sim.json"), "--out", str(d / "sim"))

    digests = {"log.csv": _sha256(log), "summary.json": _sha256(d / "sim" / "summary.json")}
    for name, _ in FITS:
        digests[name] = _sha256(models / name)
    digests["forecast.txt"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests
