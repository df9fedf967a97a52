"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload kill-respawn --seeds 1-10 \\
        [-o perfbench/results/spread-kill-respawn.json]

Runs ``perfbench/run.py --trace 0`` once per seed, one after another, at
``run_seconds`` from BENCHMARK.json, and reports for each end-to-end metric
the median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, beside
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    ap.add_argument("-o", "--output")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise SystemExit(f"spread: seed {seed} failed")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"],
                     "failed": result["failed"],
                     "metrics": {k: v["value"]
                                 for k, v in result["metrics"].items()}})
        print(json.dumps(runs[-1]), flush=True)
    summary = {}
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[m["name"]] = {"median": med,
                              "iqr_share": (q3 - q1) / med if med else 0.0,
                              "bound": m["bound"]}
        print(f"{m['name']:12s} median={med:.6g} "
              f"iqr/median={summary[m['name']]['iqr_share']:.4f} "
              f"bound={m['bound']}")
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(json.dumps(
            {"workload": args.workload, "runs": runs, "spread": summary},
            indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
