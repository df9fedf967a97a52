"""Bytes-per-rank gate: a rank's memory is its own data, not the world's.

Not a paper figure — the regression guard for memory that grows linearly
in ranks at a small slope.  One failure-free ``repro run`` (RC, n=10,
level 4, 4 steps) per world size runs in a fresh subprocess: 608 ranks
(``--diag-procs 64``) and 2432 ranks (``--diag-procs 256``).  The gate is
the increment in peak RSS per extra rank between the two.

Each rank holds only its own slab of its sub-grid.  A rank that builds
(and pins) its sub-grid's whole initial condition — what every rank did
before ``initial_slab`` — multiplies the slope by ~30.

Measured on a 2-CPU box, 5 repeats: 17.4-17.6 KB per extra rank
(108.9 MB at 608 ranks, 140.1 MB at 2432); with whole-grid initial
conditions the same runs took 500.3 KB per extra rank (336.5 MB, 1227.7
MB).  The bound sits well above the first and far below the second.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: world size -> processes per diagonal grid (RC, n=10, level 4)
WORLDS = {608: 64, 2432: 256}
#: peak-RSS increment per extra rank, KB
MAX_KB_PER_RANK = 60.0

_CHILD = """
import contextlib, io, resource, sys
from repro.cli import main
argv = ["run", "--technique", "RC", "--n", "10", "--level", "4",
        "--steps", "4", "--diag-procs", sys.argv[1]]
with contextlib.redirect_stdout(io.StringIO()):
    main(argv)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak_rss_kb(diag_procs: int) -> float:
    """Peak RSS (KB) of one fresh process running the configuration."""
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(diag_procs)],
        capture_output=True, text=True, check=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    return float(out.stdout.split()[-1])


def kb_per_extra_rank() -> float:
    (small, d_small), (large, d_large) = sorted(WORLDS.items())
    return (peak_rss_kb(d_large) - peak_rss_kb(d_small)) / (large - small)


@pytest.mark.benchmark(group="memory")
def test_peak_rss_per_extra_rank_is_small(benchmark):
    slope = benchmark.pedantic(kb_per_extra_rank, rounds=1, iterations=1)
    print(f"\n{slope:.1f} KB peak RSS per extra rank "
          f"({min(WORLDS)} -> {max(WORLDS)} ranks)")
    assert slope < MAX_KB_PER_RANK
