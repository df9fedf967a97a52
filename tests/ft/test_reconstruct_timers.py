"""RepairRecord accumulation semantics and the span totals behind the
repair timings."""

from repro.core.metrics import RunMetrics
from repro.ft.reconstruct import RepairRecord
from repro.obs import SpanRecorder


def test_defaults():
    t = RepairRecord()
    m = RunMetrics()
    m.absorb_spans(SpanRecorder(lambda: (0.0, 0)).actor_totals("job0.0"))
    assert m.t_detect == 0.0 and m.t_reconstruct == 0.0
    assert t.failed_ranks == []
    assert t.iterations == 0


def test_independent_instances():
    a = RepairRecord()
    b = RepairRecord()
    a.failed_ranks.append(1)
    assert b.failed_ranks == []  # no shared mutable default
