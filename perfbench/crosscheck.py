"""Cross-check the outside-in per-layer split against cProfile.

Usage (from the repository root)::

    python3 perfbench/crosscheck.py [-o perfbench/results/crosscheck.json]

Runs one pass of the kill-respawn workload at seed 1 three times, each in
a fresh process: plain, under the benchmark's layer tracer
(``perfbench/layers.py``) and under ``cProfile``.  The profile's self
time is grouped by the ``repro`` package of the function; time in
functions outside ``repro`` (NumPy, builtins, the standard library) is
handed to their callers in proportion to the time each caller spent in
them, so both splits cover the same wall time.  The
tracer's layers are grouped by their first name part (``mpi.coll`` ->
``mpi``).  Both splits, as shares of their own total, and the three passes'
host seconds go to the JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import pstats
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = str(ROOT / "src" / "repro") + os.sep

#: the workload and seed the cross-check runs
WORKLOAD = "kill-respawn"
SEED = 1
#: the tracer's root frame is the benchmark's own code
_LAYER_PACKAGE = {"harness": "bench"}


def _package(filename: str):
    """``repro`` package of a source file, or None outside the program."""
    if not filename.startswith(SRC):
        return None
    rest = filename[len(SRC):].split(os.sep)
    return rest[0] if len(rest) > 1 else "core"   # cli.py, __main__.py


def profile_split(stats: pstats.Stats) -> dict:
    """Self seconds per ``repro`` package, non-program time attributed to
    the program functions that (transitively) called it."""
    table = stats.stats
    shares: dict = {}   # function -> {package: share of its self time}
    open_: set = set()  # functions being resolved (call-graph cycles)

    def share_of(func) -> dict:
        if func in shares:
            return shares[func]
        pkg = _package(func[0])
        if pkg is not None:
            return {pkg: 1.0}
        open_.add(func)
        callers = table.get(func, (0, 0, 0, 0, {}))[4]
        spent = {c: v[2] for c, v in callers.items()
                 if v[2] > 0 and c not in open_}
        total = sum(spent.values())
        out: dict = {} if total else {"unattributed": 1.0}
        for caller, tt in spent.items():
            for k, v in share_of(caller).items():
                out[k] = out.get(k, 0.0) + v * tt / total
        open_.discard(func)
        shares[func] = out
        return out

    split: dict = {}
    for func, (_cc, _nc, tt, _ct, _callers) in table.items():
        if tt > 0:
            for k, v in share_of(func).items():
                split[k] = split.get(k, 0.0) + tt * v
    return split


def tracer_split(self_s: dict) -> dict:
    out: dict = {}
    for layer, seconds in self_s.items():
        pkg = _LAYER_PACKAGE.get(layer, layer.split(".")[0])
        out[pkg] = out.get(pkg, 0.0) + seconds
    return out


def _shares(split: dict) -> dict:
    total = sum(split.values())
    return {k: round(v / total, 4) for k, v in
            sorted(split.items(), key=lambda kv: -kv[1])}


def _wall(p: dict) -> float:
    return round(p["cold"]["wall_s"] + p["warm"]["wall_s"], 3)


def _child(args: list, work: str, stdin: str = "") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PERFBENCH_WORK"] = work
    proc = subprocess.run([sys.executable, str(HERE / "workloads.py")] + args,
                          input=stdin, capture_output=True, text=True,
                          cwd=ROOT, env=env, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"crosscheck: workloads.py {args} failed")
    return json.loads(proc.stdout.strip().splitlines()[-1][len("RESULT "):])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--output",
                    default=str(HERE / "results" / "crosscheck.json"))
    args = ap.parse_args(argv)
    base = ["--workload", WORKLOAD, "--seed", str(SEED)]
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        ref = json.dumps(_child(["--role", "ref"] + base, work))
        plain = _child(["--role", "pass"] + base, work, ref)
        traced = _child(["--role", "pass", "--trace"] + base, work, ref)
        prof_file = os.path.join(work, "pass.prof")
        profiled = _child(["--role", "pass", "--profile", prof_file] + base,
                          work, ref)
        stats = pstats.Stats(prof_file)
    prof = profile_split(stats)
    trace = tracer_split(traced["trace"]["self_s"])
    doc = {
        "workload": WORKLOAD, "seed": SEED,
        "note": "shares of each method's own total; wall_s is the host time "
                "of the pass the split comes from",
        "plain": {"wall_s": _wall(plain)},
        "outside_in": {"wall_s": _wall(traced), "share": _shares(trace)},
        "cprofile": {"wall_s": _wall(profiled), "share": _shares(prof)},
    }
    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    Path(args.output).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
