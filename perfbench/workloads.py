"""The benchmark's workloads, run inside one fresh process per pass.

``python3 perfbench/workloads.py --role ref|pass --workload NAME --seed N
[--trace]`` is started by ``perfbench/run.py``; it reads the failure-free
references as JSON on stdin (``--role pass``) and prints its result as the
last line of stdout, prefixed with ``RESULT``.

A pass drives the application through its public entry points only
(``repro.cli.main(["run", ...])`` and ``repro.sweep.SweepRunner``).  The
sweep workload then serves every point again, warm, through a fresh
``RunCache`` over the pass's on-disk store; ``repro run`` keeps no results,
so the CLI workloads have no warm pass.  Counts come from each run's own
``Universe``; the benchmark reaches it by wrapping
``repro.core.runner.make_universe`` and drops it as soon as ``run_app``
returns, so no run keeps another alive.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import sys
import tempfile
import time
from pathlib import Path

#: RC/AC errors after recovery must stay below this multiple of the
#: failure-free error (the bound of the repository's failure fuzz tests)
ERROR_FACTOR = 1000.0
#: CR restores exactly, so its error must equal the failure-free one
CR_REL_TOL = 1e-12
#: the failure-free references of every config and fine-grid-loss's outputs
#: (which no seed changes), as the program computed them when the benchmark
#: was written; a fresh value must match within ``PINNED["rel_tol"]``
PINNED = json.loads(Path(__file__).with_name("pinned.json").read_text())

#: kill-respawn: the paper's headline scenario, 1216 ranks, 4 real kills
KILL_RESPAWN_ARGS = ("run", "--technique", "RC", "--n", "9", "--level", "4",
                     "--steps", "32", "--diag-procs", "128",
                     "--failures", "4")
#: fine-grid-loss: simulated loss of grid 1 and grid 5 at n=11, 19 ranks
FINE_GRID_LOSS_ARGS = ("run", "--technique", "RC", "--n", "11",
                       "--level", "4", "--steps", "32", "--diag-procs", "2",
                       "--lose", "1", "5")
#: modes-mix: every repair mode x technique, 0..3 simultaneous kills
MODES = ("respawn", "shrink", "nc")
TECHNIQUES = ("CR", "RC", "AC")
KILL_COUNTS = (0, 1, 2, 3)
KILL_WINDOW = (0.55, 0.70)


def _peak_rss_kb() -> float:
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _current_rss_kb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0


def useful_cells(cfg) -> int:
    """Grid-point updates a run must do: every sub-grid, every step."""
    return sum((1 << g.index[0]) * (1 << g.index[1])
               for g in cfg.scheme().grids) * cfg.steps


def outputs(m) -> dict:
    """The checked and compared outputs of one run's ``RunMetrics``
    (as an object or as the CLI's ``--json`` dictionary)."""
    get = m.get if isinstance(m, dict) else (lambda k: getattr(m, k))
    return {"vt_total": get("t_total"),
            "vt_repair": get("t_detect") + get("t_reconstruct"),
            "vt_recovery": get("t_recovery"),
            "error_l1": get("error_l1"),
            "n_failures": get("n_failures"),
            "lost_gids": list(get("lost_gids")),
            "phases": dict(get("phase_breakdown")),
            "iterations": get("reconstruct_iterations"),
            "checkpoint_writes": get("checkpoint_writes"),
            "recompute_steps": get("recompute_steps"),
            "steps": get("steps"),
            "world_size": get("world_size")}


class RunRecorder:
    """Per-``run_app`` counts and host time, plus the inclusive host time
    of the CLI's hidden failure-free solve (``baseline_solve_time``)."""

    SITES = ("repro.core.runner", "repro.cli", "repro.sweep.runner")

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.runs = []
        self.baseline_s = 0.0
        self._universe = None

    def install(self) -> None:
        import importlib

        import repro.cli
        import repro.core.runner as runner
        make_universe = runner.make_universe
        run_app = runner.run_app
        baseline = repro.cli.baseline_solve_time
        rec = self

        def capture(*args, **kwargs):
            uni, total = make_universe(*args, **kwargs)
            rec._universe = uni
            return uni, total

        def recorded(*args, **kwargs):
            if rec.tracer is not None:
                rec.tracer.enter("core.app")
            t0 = time.perf_counter()
            try:
                return run_app(*args, **kwargs)
            finally:
                host = time.perf_counter() - t0
                uni, rec._universe = rec._universe, None
                rec.runs.append(_universe_counts(uni, host))
                if rec.tracer is not None:
                    rec.tracer.leave()

        def timed_baseline(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return baseline(*args, **kwargs)
            finally:
                rec.baseline_s += time.perf_counter() - t0

        runner.make_universe = capture
        for site in self.SITES:
            importlib.import_module(site).run_app = recorded
        repro.cli.baseline_solve_time = timed_baseline

    def take(self) -> list:
        runs, self.runs = self.runs, []
        return runs


def _universe_counts(uni, host_s: float) -> dict:
    if uni is None:
        return {"host_s": host_s}
    stats = uni.stats
    return {"host_s": host_s,
            "events": uni.engine.events_processed,
            "messages": stats.messages,
            "bytes_sent": stats.bytes_sent,
            "collectives": stats.collectives.total(),
            "spans": len(uni.obs.spans.spans)}


def _sum_counts(runs: list) -> dict:
    out = {}
    for r in runs:
        for k, v in r.items():
            if k == "host_s":
                continue
            out[k] = out.get(k, 0) + v
    return out


def pin_mismatches(pinned: dict, fresh: dict, where: str) -> list:
    """One line for each value of ``pinned`` that ``fresh`` does not
    reproduce within the pinned relative tolerance."""
    bad = []
    for key, want in pinned.items():
        got = fresh.get(key)
        if isinstance(want, dict):
            bad += pin_mismatches(want, got or {}, f"{where}/{key}")
        elif got is None or \
                not abs(got - want) <= PINNED["rel_tol"] * abs(want):
            bad.append(f"{where}/{key} = {got!r}, pinned {want!r}")
    return bad


def _failure(exc: BaseException) -> dict:
    """Name the root exception (the simulator wraps a rank's unhandled
    error in ``TaskFailedError``)."""
    root = getattr(exc, "original", None) or exc
    return {"error": type(root).__name__, "via": type(exc).__name__,
            "detail": str(root)[:160]}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class _CliWorkload:
    """One ``repro run`` invocation per pass."""

    args: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed

    def argv(self) -> list:
        return list(self.args) + ["--json"]

    def configs(self) -> list:
        raise NotImplementedError

    def reference(self) -> dict:
        from dataclasses import replace

        from repro.core import run_app
        cfg = replace(self.configs()[0], simulated_lost_gids=())
        m = run_app(cfg)
        return {"error_l1": m.error_l1, "t_solve": m.t_solve}

    def check(self, out: dict, ref: dict):
        err, bound = out["error_l1"], ERROR_FACTOR * ref["error_l1"]
        if not (math.isfinite(err) and err < bound):
            return f"l1 error {err!r} not below {bound!r}"
        return None

    def warm_pass(self, recorder: RunRecorder, ref: dict) -> dict:
        """``repro run`` keeps no results: nothing is served warm."""
        return {"wall_s": 0.0, "runs": []}

    def run_pass(self, recorder: RunRecorder, ref: dict) -> dict:
        from repro.cli import main
        cfg = self.configs()[0]
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(self.argv())
            if code != 0:
                raise RuntimeError(f"repro run exited with {code}")
            host = time.perf_counter() - t0
            out = outputs(json.loads(buf.getvalue()))
            failure = None
            reason = self.check(out, ref)
            if reason is not None:
                failure = {"error": "OutputCheck", "via": "check",
                           "detail": reason}
        except Exception as exc:  # a failed run is data: record it, go on
            host = time.perf_counter() - t0
            out, failure = None, _failure(exc)
        runs = recorder.take()
        record = {"mode": cfg.recovery_mode,
                  "technique": cfg.technique_code,
                  "kills": self.n_kills, "host_s": host,
                  "cells": useful_cells(cfg), "out": out,
                  "failure": failure, "counts": _sum_counts(runs)}
        return {"wall_s": host, "runs": [record]}


class KillRespawn(_CliWorkload):
    args = KILL_RESPAWN_ARGS
    n_kills = 4

    def argv(self) -> list:
        return list(self.args) + ["--seed", str(self.seed), "--json"]

    def configs(self) -> list:
        from repro.core import AppConfig
        return [AppConfig(n=9, level=4, technique_code="RC", steps=32,
                          diag_procs=128)]

    def check(self, out: dict, ref: dict):
        if out["n_failures"] != self.n_kills:
            return f"{out['n_failures']} failures recorded, " \
                   f"{self.n_kills} injected"
        return super().check(out, ref)


class FineGridLoss(_CliWorkload):
    args = FINE_GRID_LOSS_ARGS
    n_kills = 0
    lost = [1, 5]

    def configs(self) -> list:
        from repro.core import AppConfig
        return [AppConfig(n=11, level=4, technique_code="RC", steps=32,
                          diag_procs=2, simulated_lost_gids=tuple(self.lost))]

    def check(self, out: dict, ref: dict):
        if out["lost_gids"] != self.lost:
            return f"lost grids {out['lost_gids']}, declared {self.lost}"
        bad = pin_mismatches(PINNED["fine-grid-loss"]["outputs"], out,
                             "outputs")
        if bad:
            return "; ".join(bad)
        return super().check(out, ref)


class ModesMix:
    """{respawn, shrink, nc} x {CR, RC, AC} x {0,1,2,3} kills through a
    ``SweepRunner`` over a fresh on-disk ``RunCache``, then again warm."""

    def __init__(self, seed: int):
        self.seed = seed
        #: the kill instant, as a share of each cell's failure-free solve:
        #: inside the third of CR's four checkpoint segments, so every seed
        #: restores from the same checkpoint and recomputes as many steps
        self.kill_fraction = random.Random(seed).uniform(*KILL_WINDOW)
        self._store = None

    @staticmethod
    def config(mode: str, code: str):
        from repro.core import AppConfig
        return AppConfig(n=8, level=4, technique_code=code,
                         recovery_mode=mode, steps=32, diag_procs=8,
                         checkpoint_count=4)

    def configs(self) -> list:
        return [self.config(m, c) for m in MODES for c in TECHNIQUES]

    def reference(self) -> dict:
        from repro.core import run_app
        ref = {}
        for cfg in self.configs():
            m = run_app(cfg)
            ref[f"{cfg.recovery_mode}/{cfg.technique_code}"] = {
                "error_l1": m.error_l1, "t_solve": m.t_solve}
        return ref

    def points(self, ref: dict) -> list:
        from repro.experiments.modes import mode_kill_plan
        from repro.machine.presets import OPL
        from repro.sweep import SweepPoint
        pts = []
        for cfg in self.configs():
            cell = ref[f"{cfg.recovery_mode}/{cfg.technique_code}"]
            at = max(cell["t_solve"] * self.kill_fraction, 1e-9)
            for nf in KILL_COUNTS:
                kills = tuple(mode_kill_plan(cfg, nf, at))
                pts.append(SweepPoint(cfg, OPL, kills=kills))
        return pts

    @staticmethod
    def check(cfg, out: dict, n_kills: int, cell: dict):
        if out["n_failures"] != n_kills:
            return f"{out['n_failures']} failures recorded, {n_kills} injected"
        err, ref = out["error_l1"], cell["error_l1"]
        if cfg.technique_code == "CR":
            if not abs(err - ref) <= CR_REL_TOL * abs(ref):
                return f"CR l1 error {err!r} != failure-free {ref!r}"
        elif not (math.isfinite(err) and err < ERROR_FACTOR * ref):
            return f"l1 error {err!r} not below {ERROR_FACTOR * ref!r}"
        return None

    def run_pass(self, recorder: RunRecorder, ref: dict) -> dict:
        """Every point through a fresh on-disk store."""
        self._store = tempfile.mkdtemp(prefix="store-",
                                       dir=os.environ["PERFBENCH_WORK"])
        return self._sweep(recorder, ref)

    def warm_pass(self, recorder: RunRecorder, ref: dict) -> dict:
        """Every point again, through a fresh ``RunCache`` over the cold
        pass's store (failed points are not stored and run again)."""
        return self._sweep(recorder, ref)

    def _sweep(self, recorder: RunRecorder, ref: dict) -> dict:
        from repro.sweep import RunCache, SweepRunner
        points = self.points(ref)
        t_pass = time.perf_counter()
        runner = SweepRunner(workers=1, cache=RunCache(directory=self._store))
        runs = []
        for pt in points:
            cfg = pt.cfg
            t0 = time.perf_counter()
            try:
                m = runner.run_one(pt)
                host = time.perf_counter() - t0
                out = outputs(m)
                reason = self.check(
                    cfg, out, len(pt.kills),
                    ref[f"{cfg.recovery_mode}/{cfg.technique_code}"])
                failure = None if reason is None else {
                    "error": "OutputCheck", "via": "check", "detail": reason}
            except Exception as exc:  # a failed run is data: record it, go on
                host = time.perf_counter() - t0
                out, failure = None, _failure(exc)
            executed = recorder.take()
            runs.append({"mode": cfg.recovery_mode,
                         "technique": cfg.technique_code,
                         "kills": len(pt.kills), "host_s": host,
                         "cells": useful_cells(cfg), "out": out,
                         "failure": failure,
                         "counts": _sum_counts(executed)})
        wall = time.perf_counter() - t_pass
        stats = runner.cache.stats()
        return {"wall_s": wall, "runs": runs,
                "cache": {"hits": stats["hits"], "misses": stats["misses"]}}


WORKLOADS = {"kill-respawn": KillRespawn, "fine-grid-loss": FineGridLoss,
             "modes-mix": ModesMix}


# ----------------------------------------------------------------------
# process entry
# ----------------------------------------------------------------------
def _setup(workload) -> None:
    """Import-time and per-config set-up the first timed run relies on:
    the scheme, the layout and a Universe for every config."""
    import repro.cli  # noqa: F401 - the timed runs enter through it
    import repro.sweep  # noqa: F401
    from repro.core.runner import make_universe
    for cfg in workload.configs():
        cfg.scheme()
        cfg.layout()
        make_universe(cfg)


def _trace_result(tracer) -> dict:
    from layers import LAYERS
    return {"self_s": {k: tracer.self_s.get(k, 0.0) for k in LAYERS},
            "calls": dict(tracer.calls), "wall_s": tracer.wall_s,
            "balanced": tracer.balanced,
            "batch_attempts": tracer.batch_attempts,
            "batch_accepts": tracer.batch_accepts,
            "cell_updates": tracer.cell_updates,
            "kernel_bytes_per_update": tracer.kernel_bytes_per_update or 0.0,
            "store_bytes": tracer.store_bytes,
            "combine_alloc_peak": tracer.combine_alloc_peak}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--role", choices=("ref", "pass"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--profile", metavar="FILE",
                    help="run the timed region under cProfile and dump "
                         "its statistics to FILE")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)

    if args.role == "ref":
        print("RESULT " + json.dumps(workload.reference()))
        return 0

    ref = json.loads(sys.stdin.read())
    _setup(workload)
    post_import_kb = _current_rss_kb()
    tracer = None
    if args.trace:
        from layers import LayerTracer
        tracer = LayerTracer()
        tracer.install()
    recorder = RunRecorder(tracer)
    recorder.install()
    setup_end = time.monotonic()
    profile = None
    if args.profile:
        import cProfile
        profile = cProfile.Profile()
        profile.enable()
    if tracer is not None:
        tracer.start()
    cold = workload.run_pass(recorder, ref)
    baseline_s = recorder.baseline_s
    warm = workload.warm_pass(recorder, ref)
    if tracer is not None:
        tracer.stop()
    if profile is not None:
        profile.disable()
        profile.dump_stats(args.profile)
    result = {"setup_end": setup_end, "post_import_kb": post_import_kb,
              "peak_rss_kb": _peak_rss_kb(),
              "baseline_solve_s": baseline_s,
              "cold": cold, "warm": warm}
    if tracer is not None:
        result["trace"] = _trace_result(tracer)
    print("RESULT " + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
