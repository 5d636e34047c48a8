"""Record the reference digests that ``run.py`` checks at the default seed.

    python3 perfbench/record.py [--scale bench tiny paper]

Runs one untimed operation of every workload at the default seed for
each scale and rewrites ``reference.json``. Run it only at a commit whose
outputs are the intended reference; a change that alters an output's
bytes must say why.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", nargs="+", default=["bench", "tiny"],
                        choices=tuple(workloads.SCALES))
    args = parser.parse_args()
    path = HERE / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    work = ROOT / ".perfbench_work" / "record"
    for scale in args.scale:
        for workload in workloads.WORKLOADS:
            shutil.rmtree(work, ignore_errors=True)
            subprocess.run(
                [sys.executable, str(HERE / "op.py"), "--workload", workload,
                 "--seed", str(workloads.DEFAULT_SEED), "--scale", scale,
                 "--dir", str(work), "--mode", "plain"],
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            result = json.loads((work / "result.json").read_text(encoding="utf-8"))
            if result["error"]:
                print(result["error"], file=sys.stderr)
                return 1
            reference[f"{workload}/{scale}"] = result["digests"]
            print(f"{workload}/{scale}: {len(result['digests'])} digests")
    shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
