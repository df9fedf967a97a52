"""Paper-workload benchmark of the fault-tolerant combination solver.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kill-respawn --seed 1 \\
        --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``kill-respawn``   -- ``repro run`` RC, n=9, 1216 ranks, 4 real kills;
* ``fine-grid-loss`` -- ``repro run`` RC, n=11, 19 ranks, grids 1 and 5 lost;
* ``modes-mix``      -- {respawn, shrink, nc} x {CR, RC, AC} x {0..3 kills}
  through a ``SweepRunner`` over a fresh on-disk ``RunCache``, then warm.

Each pass runs in a fresh process (``perfbench/workloads.py``), so peak RSS
and set-up time are the pass's own.  The failure-free references for the
output checks are computed in their own process before the first pass,
once per source tree and workload definition (kept under
``.perfbench_work/`` in the checkout), and checked against the values
pinned in ``perfbench/pinned.json``.
``--trace 0`` repeats passes for ``--seconds`` and prints the end-to-end
metrics (medians over passes); ``--trace 1`` runs one untraced and one
traced pass and prints the per-layer metrics, the tracing overhead and the
self-check of the layer predictions (thresholds in
``perfbench/predictions.json``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A run that raised or failed an output check
is counted in ``failed`` and reads as +inf in every per-run median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kill-respawn", "fine-grid-loss", "modes-mix")
#: every invocation must end within this many seconds
DEADLINE_S = 170.0
#: JSON has no infinity; a median over runs that mostly failed prints this
FAILED_VALUE = 1e300
#: thresholds of the layer self-check
SELFCHECK = json.loads((HERE / "predictions.json").read_text())["selfcheck"]

#: the span phases of ``repro.obs.spans.PHASES``; BENCHMARK.json lists one
#: ``ft.vt.<phase>`` metric for each
PHASES = ("solve", "detect", "agree", "shrink", "spawn", "merge",
          "reconstruct", "checkpoint_write", "checkpoint_read", "recompute",
          "recovery", "combine", "redistribute", "rebuild")

INF = math.inf


def _median(values):
    values = list(values)
    return statistics.median(values) if values else INF


def _finite(x: float) -> float:
    return x if math.isfinite(x) else FAILED_VALUE


class Child:
    """Runs ``workloads.py`` roles in fresh processes under one deadline."""

    def __init__(self, workload: str, seed: int, work: str, t_start: float):
        self.workload = workload
        self.seed = seed
        self.t_start = t_start
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + path if path else "")
        self.env["PERFBENCH_WORK"] = work

    def run(self, role: str, stdin: str = "", trace: bool = False):
        """(result dict, monotonic time at spawn)."""
        cmd = [sys.executable, str(HERE / "workloads.py"), "--role", role,
               "--workload", self.workload, "--seed", str(self.seed)]
        if trace:
            cmd.append("--trace")
        left = DEADLINE_S - (time.monotonic() - self.t_start)
        if left <= 0:
            raise SystemExit("perfbench: out of time before a pass")
        t_spawn = time.monotonic()
        proc = subprocess.run(cmd, input=stdin, capture_output=True,
                              text=True, cwd=ROOT, env=self.env,
                              timeout=left)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines \
                or not lines[-1].startswith("RESULT "):
            sys.stderr.write(proc.stderr[-4000:])
            raise SystemExit(
                f"perfbench: {role} process for {self.workload} failed "
                f"(exit {proc.returncode})")
        return json.loads(lines[-1][len("RESULT "):]), t_spawn


# ----------------------------------------------------------------------
# per-pass figures
# ----------------------------------------------------------------------
def _run_value(run: dict, key: str) -> float:
    return INF if run["failure"] else run[key]


def pass_figures(p: dict, t_spawn: float) -> dict:
    cold = p["cold"]
    ok = [r for r in cold["runs"] if not r["failure"]]
    return {
        "run_s": _median(_run_value(r, "host_s") for r in cold["runs"]),
        "cells_per_s": sum(r["cells"] for r in ok) / cold["wall_s"],
        "peak_rss_mb": p["peak_rss_kb"] / 1024.0,
        "setup_s": p["setup_end"] - t_spawn,
    }


def _signature(run: dict, with_counts: bool = True) -> tuple:
    """What must repeat exactly between passes: outcome, virtual times,
    errors and (for executed runs) the universe's counts."""
    fail = run["failure"]
    sig = (fail["error"] if fail else None,
           json.dumps(run["out"], sort_keys=True))
    return sig + (json.dumps(run["counts"], sort_keys=True),) \
        if with_counts else sig


def repeat_mismatches(passes: list) -> list:
    """Runs whose outputs or counts differ from the first pass's, and warm
    runs (where the workload has a warm pass) whose outputs differ from
    their cold run's."""
    bad = []
    first = [_signature(r) for r in passes[0]["cold"]["runs"]]
    for i, p in enumerate(passes):
        cold = p["cold"]["runs"]
        if [_signature(r) for r in cold] != first:
            bad.append(f"pass {i}: cold runs differ from pass 0")
        warm = p["warm"]["runs"]
        if warm and [_signature(r, False) for r in warm] != \
                [_signature(r, False) for r in cold]:
            bad.append(f"pass {i}: warm runs differ from cold runs")
    return bad


def outcome(passes: list):
    """(correct, attempted, failed, failure table)."""
    attempted = failed = 0
    check_failed = False
    table = {}
    for p in passes:
        for run in p["cold"]["runs"] + p["warm"]["runs"]:
            attempted += 1
            fail = run["failure"]
            if not fail:
                continue
            failed += 1
            check_failed |= fail["error"] == "OutputCheck"
            key = (run["mode"], run["technique"], run["kills"],
                   fail["error"])
            table.setdefault(key, {"mode": run["mode"],
                                   "technique": run["technique"],
                                   "kills": run["kills"],
                                   "error": fail["error"],
                                   "via": fail["via"],
                                   "detail": fail["detail"], "count": 0})
            table[key]["count"] += 1
    mismatches = repeat_mismatches(passes)
    for m in mismatches:
        print(f"  repeat mismatch: {m}")
    correct = not check_failed and not mismatches
    return correct, attempted, failed, list(table.values())


def _print_failures(failures: list, attempted: int, failed: int) -> None:
    print(f"failed_frac = {failed}/{attempted} = "
          f"{failed / attempted:.4f}")
    for f in failures:
        print(f"  failed: mode={f['mode']} technique={f['technique']} "
              f"kills={f['kills']} error={f['error']} (via {f['via']}) "
              f"x{f['count']}: {f['detail']}")


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------
END_TO_END_UNITS = {"run_s": "s", "cells_per_s": "1/s", "peak_rss_mb": "MB",
                    "setup_s": "s", "ok_frac": "1"}


def end_to_end(child: Child, ref: str, pin_bad: list,
               seconds: float) -> dict:
    passes, figures = [], []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < seconds:
        p, t_spawn = child.run("pass", ref)
        passes.append(p)
        figures.append(pass_figures(p, t_spawn))
    correct, attempted, failed, failures = outcome(passes)
    correct &= not pin_bad
    metrics = {k: _median(f[k] for f in figures)
               for k in END_TO_END_UNITS if k != "ok_frac"}
    metrics["ok_frac"] = (attempted - failed) / attempted
    print(f"workload {child.workload} seed {child.seed}: "
          f"{len(passes)} pass(es) in {time.monotonic() - t0:.1f} s; "
          "run_s per pass: "
          + " ".join(f"{f['run_s']:.4g}" for f in figures))
    for k, unit in END_TO_END_UNITS.items():
        print(f"  {k:12s} = {metrics[k]:.6g} {unit}")
    print("  (per-layer in BENCHMARK.json, median over passes)")
    per_pass = [run_outputs(p) for p in passes]
    for k, (_, unit) in per_pass[0].items():
        print(f"  {k:12s} = {_median(o[k][0] for o in per_pass):.6g} {unit}")
    _print_failures(failures, attempted, failed)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": _finite(metrics[k]), "unit": u}
                        for k, u in END_TO_END_UNITS.items()}}


def _ok_median(runs: list, key: str) -> float:
    vals = [r["out"][key] for r in runs if not r["failure"]]
    return _median(vals) if vals else 0.0


def run_outputs(p: dict) -> dict:
    """The issue's other end-to-end figures of one pass, which BENCHMARK.json
    carries as per-layer metrics: (value, unit) by name."""
    cold = p["cold"]["runs"]
    return {"warm_s": (p["warm"]["wall_s"], "s"),
            "error_l1": (_ok_median(cold, "error_l1"), "1"),
            "vt_total_s": (_ok_median(cold, "vt_total"), "s_virtual"),
            "vt_repair_s": (_ok_median(cold, "vt_repair"), "s_virtual"),
            "vt_recovery_s": (_ok_median(cold, "vt_recovery"), "s_virtual")}


def per_layer(child: Child, ref: str, pin_bad: list) -> dict:
    from layers import LAYERS
    plain, _ = child.run("pass", ref)
    traced, _ = child.run("pass", ref, trace=True)
    passes = [plain, traced]
    correct, attempted, failed, failures = outcome(passes)
    correct &= not pin_bad
    tr = traced["trace"]
    cold = plain["cold"]["runs"]
    ok = [r for r in cold if not r["failure"]]
    counts = {}
    for r in cold:
        for k, v in r["counts"].items():
            counts[k] = counts.get(k, 0) + v
    self_s = tr["self_s"]
    calls = tr["calls"]
    pde_s = self_s["pde.step"]
    world = max((r["out"]["world_size"] for r in ok), default=1)
    steps = sum(r["out"]["steps"] for r in ok)
    recompute = sum(r["out"]["recompute_steps"] for r in ok)
    run_plain = _median(_run_value(r, "host_s") for r in cold)
    run_traced = _median(_run_value(r, "host_s")
                         for r in traced["cold"]["runs"])
    cache = [p.get("cache") for p in (plain["cold"], plain["warm"])]
    hits = sum(c["hits"] for c in cache if c)
    lookups = hits + sum(c["misses"] for c in cache if c)
    phases = {}
    for r in ok:
        for ph, v in r["out"]["phases"].items():
            phases[ph] = phases.get(ph, 0.0) + v
    repairs = sum(v for k, v in calls.items()
                  if k.endswith(":repair_comm") or k.endswith(".post_repair"))
    m = {
        "core.baseline_solve.host_s": (plain["baseline_solve_s"], "s"),
        "core.rss_per_rank_kb": ((plain["peak_rss_kb"]
                                  - plain["post_import_kb"]) / world, "KB"),
        "simkernel.events": (counts.get("events", 0), "count"),
        "simkernel.events_per_s": (counts.get("events", 0)
                                   / plain["cold"]["wall_s"], "1/s"),
        "mpi.messages": (counts.get("messages", 0), "count"),
        "mpi.bytes_sent": (counts.get("bytes_sent", 0), "B"),
        "mpi.collectives": (counts.get("collectives", 0), "count"),
        "mpi.batch_accept_ratio": (
            tr["batch_accepts"] / tr["batch_attempts"]
            if tr["batch_attempts"] else 0.0, "1"),
        "pde.cell_updates": (tr["cell_updates"], "count"),
        "pde.cells_per_s": (tr["cell_updates"] / pde_s if pde_s else 0.0,
                            "1/s"),
        "pde.computed_bytes_per_update": (tr["kernel_bytes_per_update"],
                                          "B_computed"),
        "sparsegrid.combine.alloc_mb": (
            (tr["combine_alloc_peak"] or 0) / 2**20, "MB"),
        "ft.reconstruct.calls": (repairs, "count"),
        "ft.reconstruct.iterations": (
            sum(r["out"]["iterations"] for r in ok), "count"),
        "ft.checkpoint.writes": (calls.get(
            "repro.core.app:write_checkpoint", 0), "count"),
        "ft.useful_step_ratio": (steps / (steps + recompute)
                                 if steps else 0.0, "1"),
        **run_outputs(plain),
        "obs.spans": (counts.get("spans", 0), "count"),
        "sweep.cache.hit_rate": (hits / lookups if lookups else 0.0, "1"),
        "service.store.bytes_written": (tr["store_bytes"], "B"),
        "trace.overhead_ratio": (run_traced / run_plain, "1"),
        "trace.wall_s": (tr["wall_s"], "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.host_s"] = (self_s[layer], "s")
    for ph in PHASES:
        m[f"ft.vt.{ph}"] = (phases.get(ph, 0.0), "s_virtual")

    checks = selfcheck(child.workload, m, self_s, tr,
                       traced["cold"]["wall_s"] + traced["warm"]["wall_s"])
    print(f"workload {child.workload} seed {child.seed}: traced pass "
          f"{tr['wall_s']:.2f} s, overhead x{run_traced / run_plain:.2f}")
    for k, (v, unit) in m.items():
        print(f"  {k:34s} = {v:.6g} {unit}")
    _print_failures(failures, attempted, failed)
    for name, (ok_, detail) in checks.items():
        print(f"  selfcheck {name}: {'ok' if ok_ else 'FAILED'} ({detail})")
    print("report " + json.dumps({"workload": child.workload,
                                  "seed": child.seed,
                                  "selfcheck": checks,
                                  "failures": failures,
                                  "calls": calls}))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": _finite(float(v)), "unit": u}
                        for k, (v, u) in m.items()}}


def selfcheck(workload: str, m: dict, self_s: dict, tr: dict,
              wall: float) -> dict:
    """The mechanism/bypass predictions, in direction only.  ``wall`` is
    the traced pass's host time as the harness clocked it, independently
    of the tracer's frames."""
    total = sum(self_s.values())
    mpi = sum(v for k, v in self_s.items() if k.startswith("mpi."))
    baseline = m["core.baseline_solve.host_s"][0]
    repairs = m["ft.reconstruct.calls"][0]
    out = {}
    on = workload in SELFCHECK["baseline_solve_on"]
    out["baseline_solve"] = ((baseline > 0) == on,
                             f"{baseline:.3f} s {'>' if on else '=='} 0")
    on = workload in SELFCHECK["reconstruct_on"]
    out["reconstruct_calls"] = ((repairs > 0) == on,
                                f"{repairs} {'>' if on else '=='} 0")
    if workload in SELFCHECK["mpi_share"]:
        op, bound = SELFCHECK["mpi_share"][workload]
        share = mpi / total if total else 0.0
        ok = share >= bound if op == ">=" else share < bound
        out["mpi_share"] = (ok, f"{share:.3f} {op} {bound}")
    gap = abs(total - wall) / wall
    tol = SELFCHECK["self_sum_tolerance"]
    out["self_sum"] = (tr["balanced"] and gap <= tol,
                       f"|sum {total:.3f} - wall {wall:.3f}| / wall "
                       f"= {gap:.2e} <= {tol}, balanced={tr['balanced']}")
    return out


def _source_digest() -> str:
    """Content hash of the program's source tree and of the workload
    definitions the references are computed from."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")) \
            + [HERE / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def reference(child: Child, work_root: Path) -> dict:
    """The workload's failure-free references.  They depend only on the
    program and the workload definitions, so they are computed once per
    source tree and kept in the checkout's work directory for later
    invocations (each takes 2-7 s that every repeated invocation would
    otherwise pay again)."""
    cache = work_root / f"ref-{child.workload}-{_source_digest()}.json"
    if cache.is_file():
        return json.loads(cache.read_text())
    ref, _ = child.run("ref")
    tmp = cache.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(ref))
    os.replace(tmp, cache)
    return ref


def pinned_mismatches(workload: str, ref: dict) -> list:
    """Where the fresh references depart from ``perfbench/pinned.json``."""
    from workloads import PINNED, pin_mismatches
    bad = pin_mismatches(PINNED[workload]["reference"], ref, "reference")
    for line in bad:
        print(f"  pinned mismatch: {line}")
    return bad


def main(argv=None) -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        child = Child(args.workload, args.seed, work, t_start)
        fresh = reference(child, work_root)
        pin_bad = pinned_mismatches(args.workload, fresh)
        ref = json.dumps(fresh)
        if args.trace:
            result = per_layer(child, ref, pin_bad)
        else:
            result = end_to_end(child, ref, pin_bad, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
