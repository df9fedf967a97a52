"""Golden whole-run metrics: every recovery mode × technique × kill plan
must reproduce the recorded ``RunMetrics.to_dict()`` exactly (NaN-aware),
phase breakdowns included.

The fixture pins behaviour across refactors of the recovery code.  To
re-record it after an *intended* change of results run::

    PYTHONPATH=src python tests/core/test_golden_metrics.py --write
"""

import json
import math
import sys
from pathlib import Path

import pytest

from repro.core import AppConfig, run_app
from repro.core.app import app_main
from repro.core.metrics import REPAIR_PHASES
from repro.core.runner import make_universe
from repro.ft.checkpoint import Disk
from repro.ft.failure_injection import FailureGenerator, Kill
from repro.machine.presets import OPL

FIXTURE = Path(__file__).with_name("golden_metrics.json")

MODES = ("respawn", "shrink", "nc")
CODES = ("CR", "RC", "AC")


def cfg_for(code, **kw):
    defaults = dict(n=6, level=4, technique_code=code, steps=16,
                    diag_procs=2, checkpoint_count=4)
    defaults.update(kw)
    return AppConfig(**defaults)


def kill_plans(code):
    """Kill plans as ``{name: [(rank, at), ...]}``.

    Times are fractions of the failure-free solve; the grids are
    ``0: (0, 1)  1: (2, 3)  2: (4, 5)  3: (6, 7)`` (see cfg_for), so the
    two-kill plan hits grids 2 and 3 at once.
    """
    base = run_app(cfg_for(code), OPL)
    at = base.t_solve * 0.6
    plans = {"none": [], "one": [(7, at)], "two": [(5, at), (7, at)],
             "rank0": [(0, at)]}
    plans["during_repair"] = [(7, at), (3, repair_midpoint(code, at))]
    return plans


def repair_midpoint(code, at):
    """Midpoint of the respawn repair a kill of rank 7 at ``at`` starts:
    a second kill there lands while the first repair is in flight."""
    cfg = cfg_for(code)
    cfg.disk = Disk()
    universe, total = make_universe(cfg, OPL)
    job = universe.launch(total, app_main, argv=(cfg,))
    FailureGenerator().inject(universe, job, [Kill(7, at)])
    universe.run()
    span = min((s for s in universe.obs.spans.spans
                if s.phase == "reconstruct"), key=lambda s: s.t_start)
    return (span.t_start + span.t_end) / 2


def record():
    cases = {}
    for code in CODES:
        plans = kill_plans(code)
        for mode in MODES:
            for name, kills in plans.items():
                if name == "during_repair" and mode != "respawn":
                    continue
                m = run_app(cfg_for(code, recovery_mode=mode), OPL,
                            kills=[Kill(r, t) for r, t in kills])
                cases[f"{mode}-{code}-{name}"] = {
                    "mode": mode, "code": code, "kills": kills,
                    "metrics": m.to_dict()}
    return cases


def same(a, b) -> bool:
    """Exact equality, treating NaN as equal to NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def _load():
    with open(FIXTURE) as f:
        return json.load(f)


GOLDEN = _load() if FIXTURE.exists() else {}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_metrics_match_golden(case):
    entry = GOLDEN[case]
    m = run_app(cfg_for(entry["code"], recovery_mode=entry["mode"]), OPL,
                kills=[Kill(r, t) for r, t in entry["kills"]])
    # round-trip through JSON so tuples/int keys compare like the fixture
    got = json.loads(json.dumps(m.to_dict()))
    want = entry["metrics"]
    diff = sorted(k for k in want if not same(got.get(k), want[k]))
    assert not diff, {k: (got.get(k), want[k]) for k in diff}
    assert got.keys() == want.keys()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_repair_timings_bounded_by_phase_breakdown(case):
    """Each repair timing is rank 0's own span total of its phase, which
    can never exceed the breakdown's max over every rank."""
    m = GOLDEN[case]["metrics"]
    over = {field: (m[field], m["phase_breakdown"].get(phase, 0.0))
            for field, phase in REPAIR_PHASES.items()
            if m[field] > m["phase_breakdown"].get(phase, 0.0)}
    assert not over, over


def test_fixture_covers_every_mode_and_technique():
    assert {(e["mode"], e["code"]) for e in GOLDEN.values()} == \
        {(m, c) for m in MODES for c in CODES}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_metrics.py --write")
    with open(FIXTURE, "w") as f:
        json.dump(record(), f, indent=1, sort_keys=True)
        f.write("\n")
