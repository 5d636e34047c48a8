"""One operation of a workload, in a fresh process.

``run.py`` starts this script once per operation and times it from
outside. It adds the checkout's ``src`` to the import path, imports
patientflow, wraps the program's functions (``tracing.instrument``),
writes the workload's inputs and records the moment it first calls into
the program, which ends set-up. It then runs the workload's commands
through ``patientflow.cli.main`` in this process and writes
``result.json`` (and, when traced, ``spans.jsonl``) into ``--dir``.

``--mode probe`` stops after set-up: it measures set-up alone.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--mode", choices=("probe", "plain", "traced"), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy
    import patientflow.cli

    if not Path(patientflow.__file__).resolve().is_relative_to(SRC):
        print(f"patientflow imported from {patientflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import tracing
    import workloads

    recorder = tracing.Recorder()
    tracer = tracing.Tracer() if args.mode == "traced" else None
    tracing.instrument(recorder, tracer)
    directory = Path(args.dir)
    directory.mkdir(parents=True, exist_ok=True)
    workloads.write_inputs(args.workload, directory, args.seed, args.scale)
    t_first = time.monotonic()

    result = {"t_first": t_first, "python": platform.python_version(),
              "numpy": numpy.__version__, "error": None, "digests": {}}
    if args.mode != "probe":
        cli = sys.modules["patientflow.cli"]

        def call(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        try:
            result["digests"] = workloads.run(args.workload, directory, args.seed,
                                              args.scale, call)
        except Exception:  # the operation failed; report it, do not crash
            result["error"] = traceback.format_exc()
        result.update(
            sim_patients=recorder.sim_patients,
            counts=recorder.counts,
            failures=recorder.failures,
            rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            children_rss_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        if tracer is not None:
            tracer.write_jsonl(directory / "spans.jsonl")
    (directory / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
