"""RunMetrics bookkeeping."""

import pytest

from repro.core.metrics import RunMetrics
from repro.ft.reconstruct import RepairRecord
from repro.obs import SpanRecorder


def test_absorb_timers_copies_every_field():
    now = [0.0]
    spans = SpanRecorder(lambda: (now[0], 0))
    for actor, phase, dur in [
            ("r0", "detect", 1.0), ("r0", "reconstruct", 2.0),
            ("r0", "shrink", 0.5), ("r0", "spawn", 0.75),
            ("r0", "merge", 0.125), ("r0", "agree", 0.25),
            ("r1", "merge", 8.0), ("r0", "agree", 0.25)]:
        with spans.span(actor, phase):
            now[0] += dur
    t = RepairRecord(iterations=2)
    t.record_failed([5, 3])
    m = RunMetrics()
    m.absorb_spans(spans.actor_totals("r0"))
    m.absorb_record(t)
    assert m.t_detect == 1.0
    assert m.t_reconstruct == 2.0
    assert m.t_shrink == 0.5 and m.t_spawn == 0.75
    assert m.t_merge == 0.125 and m.t_agree == 0.5
    assert m.reconstruct_iterations == 2
    assert m.failed_ranks == [3, 5]
    assert m.n_failures == 2


def test_app_time_excl_reconstruct():
    m = RunMetrics(t_total=10.0, t_reconstruct=3.0)
    assert m.t_app_excl_reconstruct == pytest.approx(7.0)


def test_to_dict_stringifies_coefficient_keys_and_drops_arrays():
    m = RunMetrics(technique="AC", coefficients={(3, 5): 1.0, (4, 4): -1.0})
    m.combined = object()
    d = m.to_dict()
    assert "combined" not in d
    assert d["coefficients"] == {"(3, 5)": 1.0, "(4, 4)": -1.0}
    assert d["technique"] == "AC"


def test_defaults_are_safe():
    m = RunMetrics()
    import math
    assert math.isnan(m.error_l1)
    assert m.lost_gids == []
    assert not m.real_failures
