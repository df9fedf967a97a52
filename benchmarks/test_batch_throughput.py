"""Collective-engine scaling guard: the cost of one rank's part in one
round must not grow with the communicator size.

Not a paper figure — the regression guard for the collective engine.  A
join is O(1) per rank and a round O(ranks), so the wall time per
rank-round at 1024 ranks stays close to that at 256 ranks.  A per-arrival
scan over the members (what the deleted per-rank rendezvous path did on a
damaged communicator) makes each round quadratic, and the ratio climbs
towards 4.  Two cases:

* a healthy ``allreduce``;
* ``agree`` + ``shrink`` on a communicator with one dead member — the
  recovery window, quadratic before every collective ran on one engine.

Measured per-rank-round ratios (1024 vs 256 ranks, best of 2 runs per
point, 5 repeats, 2-CPU box, another test session running alongside):

* allreduce: 1.11, 1.13, 1.08, 1.08, 1.08 (~3.0-3.4 us per rank-round);
* agree + shrink: 1.02, 1.07, 1.04, 1.03, 1.04 (~7.2-7.7 us); the same
  script on the two-engine substrate measured 3.03, 2.46, 2.27, 4.34, 3.10
  (~100-460 us per rank-round).

The bound sits between the two regimes: well above linear noise, well
below the quadratic ratios.
"""

import time

import pytest

from repro.machine.presets import IDEAL
from repro.mpi import Universe

#: rank-rounds per measurement; rounds = RANK_ROUNDS // ranks
RANK_ROUNDS = 256 * 64
MAX_RATIO = 1.6


def allreduce_universe(n: int, rounds: int) -> Universe:
    async def main(ctx):
        total = 0.0
        for _ in range(rounds):
            total = await ctx.comm.allreduce(1.0)
        return total

    uni = Universe(IDEAL)
    uni.launch(n, main)
    return uni


def agree_shrink_universe(n: int, rounds: int) -> Universe:
    async def main(ctx):
        for _ in range(rounds):
            await ctx.comm.agree(1)
            shrunk = await ctx.comm.shrink()
        return float(shrunk.size)

    uni = Universe(IDEAL)
    job = uni.launch(n, main)
    uni.kill_rank(job, n - 1)       # dead before the first round opens
    return uni


def per_rank_round(build, n: int, repeats: int = 2) -> float:
    """Best wall time of ``repeats`` runs, per rank-round."""
    rounds = RANK_ROUNDS // n
    best = float("inf")
    for _ in range(repeats):
        uni = build(n, rounds)
        t0 = time.perf_counter()
        uni.run()
        best = min(best, time.perf_counter() - t0)
        # every live rank finished every round: n sums, or n - 1 survivors
        live = [r for r in uni.jobs[0].results() if r is not None]
        assert live == [float(len(live))] * len(live) and len(live) >= n - 1
    return best / (n * rounds)


@pytest.mark.benchmark(group="substrate")
@pytest.mark.parametrize("build", [allreduce_universe, agree_shrink_universe],
                         ids=["allreduce", "agree_shrink"])
def test_collective_cost_per_rank_is_flat(benchmark, build):
    per_rank_round(build, 256, repeats=1)           # warm-up
    small = per_rank_round(build, 256)
    large = benchmark.pedantic(lambda: per_rank_round(build, 1024),
                               rounds=1, iterations=1)
    ratio = large / small
    print(f"\n{build.__name__}: {small * 1e6:.2f} us/rank-round at 256 "
          f"ranks, {large * 1e6:.2f} at 1024 -> ratio {ratio:.2f}")
    assert ratio < MAX_RATIO
