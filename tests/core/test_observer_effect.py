"""Observing a run must not change it: a run with a tracer attached runs
the same collective code as an untraced one and reproduces its metrics
exactly, and the trace holds one ``coll`` record per collective call."""

import json

import pytest

from repro.core.app import app_main
from repro.core.runner import make_universe
from repro.ft.checkpoint import Disk
from repro.ft.failure_injection import FailureGenerator, Kill
from repro.machine.presets import OPL
from repro.mpi.tracing import Tracer

from .test_golden_metrics import GOLDEN, cfg_for


def run(code, mode, kills, tracer=None):
    """One run with ``tracer`` attached (or none): (metrics, universe)."""
    cfg = cfg_for(code, recovery_mode=mode)
    if code == "CR":
        cfg.disk = Disk()
    uni, total = make_universe(cfg, OPL)
    uni.tracer = tracer
    job = uni.launch(total, app_main, argv=(cfg,))
    FailureGenerator().inject(uni, job, kills)
    uni.run()
    metrics = job.results()[0]
    metrics.phase_breakdown = uni.obs.phase_totals()
    return metrics, uni


def comparable(metrics):
    """NaN-safe, exact comparison text of every metric."""
    return json.dumps(metrics.to_dict(), sort_keys=True)


@pytest.mark.parametrize("mode,code", [("respawn", "RC"), ("nc", "CR")])
def test_tracer_does_not_change_the_run(mode, code):
    kills = [Kill(r, t) for r, t in GOLDEN[f"{mode}-{code}-one"]["kills"]]
    plain, plain_uni = run(code, mode, kills)
    tracer = Tracer(max_events=10**7)
    traced, traced_uni = run(code, mode, kills, tracer)

    assert comparable(traced) == comparable(plain)
    assert json.dumps(traced.phase_breakdown, sort_keys=True) == \
        json.dumps(plain.phase_breakdown, sort_keys=True)
    assert traced_uni.engine.now == plain_uni.engine.now

    assert tracer.dropped == 0
    colls = traced_uni.stats.collectives
    assert len(tracer.filter(kind="coll")) == colls.total() > 0
    assert colls == plain_uni.stats.collectives
