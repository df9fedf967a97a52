"""Run the traced pass of every workload and collect the layer self-check.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py [-o perfbench/results/selfcheck.json]

For each workload this runs ``perfbench/run.py --trace 1`` at seed 1 and
keeps its ``report`` line (the direction checks of
``perfbench/predictions.json``, the failed runs by name) and its per-layer
metrics.  Exits 1 when any
prediction does not hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("kill-respawn", "fine-grid-loss", "modes-mix")
SEED = 1


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"selfcheck: traced run of {workload} failed")
    report = next(json.loads(line[len("report "):]) for line in lines
                  if line.startswith("report "))
    result = json.loads(lines[-1])
    report.pop("calls", None)
    report["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--output",
                    default=str(HERE / "results" / "selfcheck.json"))
    args = ap.parse_args(argv)
    reports = {w: traced(w) for w in WORKLOADS}
    failed = [f"{w}: {name} ({detail})"
              for w, r in reports.items()
              for name, (ok, detail) in r["selfcheck"].items() if not ok]
    doc = {"seed": SEED, "failed_predictions": failed,
           "workloads": reports}
    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
    for w, r in reports.items():
        for name, (ok, detail) in r["selfcheck"].items():
            print(f"{w:15s} {name:18s} {'ok' if ok else 'FAILED'}  {detail}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
