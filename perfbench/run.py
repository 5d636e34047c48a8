"""patientflow benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; nothing needs installing beyond numpy.
Workloads (see ``workloads.py`` and ``README.md`` in this directory):
``compare-default``, ``compare-capped-j2`` and ``cli-pipeline``.

Each operation of the workload runs in a fresh process (``op.py``),
timed from outside from its start to its exit. The run first starts a
few set-up probes, then operations until ``--seconds`` have been spent
(at least two). With ``--trace 1`` every other operation is traced and
the run reports the per-layer metrics instead of the end-to-end ones.

An operation fails on a non-zero exit, a failed command, an output that
differs from the run's first operation (same seed, same bytes), an
output that differs from the reference digest at the default seed, or,
when traced, a broken engine invariant. Failures are counted, not
raised. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric's median, quartiles and sample count, and the
machine. The run record and the last traced operation's spans are kept
in ``.perfbench_out/``.

Extra options for the self-test and baselines: ``--scale tiny|paper``
and ``--reference FILE`` (digests to check against).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 2
SETUP_PROBES = 3
LAST_START_S = 120.0  # start no operation after this many seconds
RUN_LIMIT_S = 170.0  # kill an operation still running at this point

END_TO_END = {"wall_s": "s", "setup_s": "s", "sim_patients_per_s": "1/s",
              "peak_rss_mb": "MB"}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _wait_group(pgid: int, limit: float) -> None:
    """Kill what is left of an operation's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + limit
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Run:
    def __init__(self, args, work: Path, keep_spans: Path):
        self.args = args
        self.work = work
        self.keep_spans = keep_spans
        self.started = time.monotonic()
        self.reference = None
        ref = json.loads(Path(args.reference).read_text(encoding="utf-8"))
        key = f"{args.workload}/{args.scale}"
        if args.seed == workloads.DEFAULT_SEED and key in ref:
            self.reference = ref[key]
        self.first_digests = None

    def operation(self, mode: str, index: int) -> dict:
        """Start one operation process, time it and check what it produced."""
        a = self.args
        directory = self.work / f"op{index}"
        cmd = [sys.executable, str(HERE / "op.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--scale", a.scale, "--dir", str(directory),
               "--mode", mode]
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, start_new_session=True)
        timeout = max(5.0, RUN_LIMIT_S - (t0 - self.started))
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _wait_group(proc.pid, 10.0)
            _, err = proc.communicate()
        wall = time.monotonic() - t0
        _wait_group(proc.pid, 10.0)

        op = {"mode": mode, "wall": wall, "problems": []}
        result_file = directory / "result.json"
        if proc.returncode != 0 or not result_file.exists():
            op["problems"].append(f"exit code {proc.returncode}: "
                                  + err.decode(errors="replace")[-2000:])
            shutil.rmtree(directory, ignore_errors=True)
            return op
        result = json.loads(result_file.read_text(encoding="utf-8"))
        op.update(setup=result["t_first"] - t0, numpy=result["numpy"],
                  python=result["python"])
        if mode != "probe":
            self._check(op, result)
        if mode == "traced":
            spans_file = directory / "spans.jsonl"
            spans = [json.loads(line) for line in
                     spans_file.read_text(encoding="utf-8").splitlines()]
            op["layers"] = layers.analyse(spans, result["counts"])
            op["bench_s"] = layers.bench_time(spans)
            shutil.copyfile(spans_file, self.keep_spans)
        shutil.rmtree(directory, ignore_errors=True)
        return op

    def _check(self, op: dict, result: dict) -> None:
        problems = op["problems"]
        if result["error"]:
            problems.append(result["error"])
        problems.extend(result["failures"])
        digests = result["digests"]
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            problems.append("outputs differ from the run's first operation")
        if self.reference is not None:
            for name, expected in self.reference.items():
                if digests.get(name) != expected:
                    problems.append(f"{name}: digest differs from the reference")
        op.update(sim_patients=result["sim_patients"],
                  rss_mb=result["rss_kb"] / 1024.0,
                  children_rss_mb=result["children_rss_kb"] / 1024.0)

    def measure(self) -> list[dict]:
        ops = [self.operation("probe", i) for i in range(SETUP_PROBES)]
        deadline = time.monotonic() + self.args.seconds
        walls: list[float] = []
        index = SETUP_PROBES
        while True:
            mode = "traced" if self.args.trace and index % 2 == 0 else "plain"
            op = self.operation(mode, index)
            ops.append(op)
            walls.append(op["wall"])
            index += 1
            measured = index - SETUP_PROBES
            now = time.monotonic()
            estimate = statistics.median(walls)
            if measured >= MIN_OPS and now + 0.5 * estimate > deadline:
                break
            if now + estimate - self.started > LAST_START_S:
                break
        return ops


def machine(ops: list[dict]) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or commit
    versions = next((op for op in ops if "numpy" in op), {})
    return {"nproc": workloads.cpu_count(), "cpu": cpu,
            "python": versions.get("python", platform.python_version()),
            "numpy": versions.get("numpy", "unknown"), "commit": commit}


def metrics(args, ops: list[dict]) -> tuple[dict, dict]:
    """The run's metrics and, per metric, the samples they came from."""
    work = [op for op in ops if op["mode"] != "probe"]
    good = [op for op in work if not op["problems"]] or work
    plain = [op for op in good if op["mode"] == "plain"]
    samples: dict[str, list[float]] = {}
    if not args.trace:
        samples["wall_s"] = [op["wall"] for op in plain]
        samples["setup_s"] = [op["setup"] for op in ops if "setup" in op]
        samples["sim_patients_per_s"] = [op.get("sim_patients", 0) / op["wall"]
                                         for op in plain]
        samples["peak_rss_mb"] = [op.get("rss_mb", 0.0) for op in plain]
        units = END_TO_END
    else:
        traced = [op for op in good if op["mode"] == "traced" and "layers" in op]
        for name in layers.UNITS:
            values = [op["layers"][name] for op in traced if name in op["layers"]]
            if values:
                samples[name] = values
        samples["engine.replicate.worker_peak_rss_mb"] = [
            op.get("children_rss_mb", 0.0) for op in plain]
        if plain and traced:
            untraced = statistics.median(op["wall"] for op in plain)
            samples["trace.overhead_s"] = [op["wall"] - op["bench_s"] - untraced
                                           for op in traced]
        failed = sum(1 for op in ops if op["problems"])
        samples["error_rate"] = [failed / len(ops)]
        units = layers.UNITS
    values = {name: (statistics.median(samples[name]) if samples.get(name) else 0.0)
              for name in units}
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="bench")
    parser.add_argument("--reference", default=str(HERE / "reference.json"))
    args = parser.parse_args()
    args.seed %= 2**32

    if not (ROOT / "src" / "patientflow" / "__init__.py").is_file():
        print(f"error: no patientflow sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    keep = ROOT / ".perfbench_out"
    keep.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args, work, keep / f"{stem}-spans.jsonl")
        ops = run.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out, samples = metrics(args, ops)
    failed = [op for op in ops if op["problems"]]
    for op in failed:
        for problem in op["problems"]:
            print(f"failed {op['mode']} operation: {problem.strip()[-600:]}",
                  file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "machine": machine(ops),
        "digests": run.first_digests, "samples": samples, "metrics": out,
        "operations": [{k: op.get(k) for k in ("mode", "wall", "setup", "bench_s")}
                       for op in ops],
    }
    (keep / f"{stem}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"trace {args.trace}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for name, m in out.items():
        values = samples.get(name) or [m["value"]]
        q1, q3 = _quartiles(values)
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:9s} "
              f"p25 {q1:.6g}  p75 {q3:.6g}  n={len(samples.get(name, []))}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
