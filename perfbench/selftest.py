"""Self-test of the benchmark, in well under a minute.

    python3 perfbench/selftest.py

Runs the ``tiny`` variant of every workload (short horizon, two
replications), untraced and traced, and checks that the last line of
output is the result object with every metric of ``BENCHMARK.json`` by
name and unit, and that the outputs passed their checks. Then checks
that a corrupted reference digest is counted as a failed operation
rather than a crash, and that a directory holding only the benchmark
exits non-zero without printing a result. Exits 1 on the first failed
check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_work" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


def bench(workload: str, trace: int, *extra: str) -> dict:
    code, lines = run([str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(workloads.DEFAULT_SEED), "--seconds", "1",
                       "--trace", str(trace), "--scale", "tiny", *extra])
    check(code == 0 and lines, f"{workload} trace {trace}: exit {code}")
    return json.loads(lines[-1])


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL {what}")
        raise SystemExit(1)


def main() -> int:
    check([(n, u) for n, u, *_ in layers.CATALOGUE]
          == [(m["name"], m["unit"]) for m in SPEC["per_layer"]],
          "BENCHMARK.json per_layer matches layers.CATALOGUE")
    check({w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS),
          "BENCHMARK.json workloads are defined in workloads.WORKLOADS")

    for workload in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(workload, trace)
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{workload}: result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{workload} trace {trace}: correct")
            expected = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected, f"{workload} trace {trace}: metric names and units")
            check(all(math.isfinite(m["value"]) for m in result["metrics"].values()),
                  f"{workload} trace {trace}: finite values")
            print(f"ok {workload} trace {trace}: {len(got)} metrics")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    digests = reference["compare-capped-j2/tiny"]
    digests["report.json"] = "0" * 64
    corrupted = SCRATCH / "reference.json"
    corrupted.write_text(json.dumps(reference), encoding="utf-8")
    result = bench("compare-capped-j2", 0, "--reference", str(corrupted))
    check(not result["correct"] and result["failed"] >= 1,
          "a corrupted reference digest counts as a failure")
    print(f"ok corrupted digest: {result['failed']} of {result['attempted']} failed")

    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = run([str(bare / HERE.name / "run.py"), "--workload", "cli-pipeline",
                       "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    check(code != 0 and not lines, "a directory without the program fails cleanly")
    print(f"ok bare directory: exit {code}, no result")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
