"""Collective goldens: every collective scenario, healthy or failing, must
reproduce the outcome recorded in ``golden_collectives.json`` exactly.

An outcome is what the ranks observe: per-rank results bit-for-bit,
virtual finish times (``wtime``), and for failures the exception type,
message, ``failed_ranks`` and delivery time.  Whole-application runs
record ``RunMetrics.to_dict()`` and ``phase_breakdown``.  The fixture was
recorded with two independent collective implementations that agreed on
every scenario, so it pins the ULFM failure rules (dooming, survivor
completion, revocation, late arrivals, first-arriver pricing) as well as
the healthy fold/clone/timing rules.

The fused halo exchange is checked against the unfused
``isend``/``recv``/``wait`` sequence it stands for, run in the same
configuration, instead of a fixture.

To re-record the fixture after an *intended* change of results run::

    PYTHONPATH=src python tests/mpi/test_batch_property.py --write
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import AppConfig, run_app
from repro.core.app import app_main
from repro.core.runner import make_universe
from repro.ft.failure_injection import FailureGenerator
from repro.machine.presets import IDEAL, OPL
from repro.mpi import (BAND, MAX, MIN, SUM, CommHandle, MPIError,
                       ProcFailedError, Universe)
from repro.mpi import universe as universe_module

FIXTURE = Path(__file__).with_name("golden_collectives.json")

#: scenario name -> zero-argument function returning the outcome
SCENARIOS = {}


def scenario(name):
    def register(fn):
        SCENARIOS[name] = fn
        return fn
    return register


def fresh_job_names():
    """Restart the process-wide job counter, so communicator names (which
    appear in error messages) do not depend on what ran before."""
    universe_module._job_ids = itertools.count()


def run(n, entry, *, machine=IDEAL, kills=()):
    """Run ``entry`` on ``n`` ranks; the outcome is the per-rank results
    of every job (spawned children included), in launch order."""
    fresh_job_names()
    uni = Universe(machine)
    job = uni.launch(n, entry)
    for rank, at in kills:
        uni.kill_rank(job, rank, at=at)
    uni.run(raise_task_failures=False)
    return [j.results() for j in uni.jobs]


async def attempt(ctx, call):
    """("ok", value, wtime) or the failure as the rank observed it."""
    try:
        value = await call
    except MPIError as exc:
        return ("err", type(exc).__name__, str(exc),
                getattr(exc, "failed_ranks", None), ctx.wtime())
    return ("ok", value, ctx.wtime())


def encode(x):
    """JSON form that keeps every distinction the comparison needs:
    tuples vs lists, numpy dtypes and exact array bytes."""
    if x is None or isinstance(x, (bool, str)) or type(x) in (int, float):
        return x
    if isinstance(x, np.ndarray):
        return {"nd": [x.dtype.str, list(x.shape), x.tobytes().hex()]}
    if isinstance(x, np.generic):
        return {"np": [x.dtype.str, x.tobytes().hex()]}
    if isinstance(x, list):
        return [encode(v) for v in x]
    if isinstance(x, tuple):
        return {"tuple": [encode(v) for v in x]}
    if isinstance(x, dict):
        return {"dict": [[encode(k), encode(v)] for k, v in x.items()]}
    raise TypeError(f"cannot encode {type(x).__name__} in a golden outcome")


def canonical(x) -> str:
    """Comparison text: NaN-safe and exact for floats (``repr`` round-trip)."""
    return json.dumps(x, sort_keys=True)


def _load():
    with open(FIXTURE) as f:
        return json.load(f)


GOLDEN = _load() if FIXTURE.exists() else {}


def check(name):
    assert canonical(encode(SCENARIOS[name]())) == canonical(GOLDEN[name])


# ----------------------------------------------------------------------
# failure-free collective rounds
# ----------------------------------------------------------------------
def _mixed(machine):
    async def main(ctx):
        comm, out = ctx.comm, []
        for step in range(3):
            await ctx.compute(0.01 * ((ctx.rank * 7 + step) % 5))
            await comm.barrier()
            out.append(await comm.allreduce(0.1 * (ctx.rank + 1), op=SUM))
            out.append(await comm.allreduce(float(ctx.rank), op=MIN))
            obj = {"step": step} if ctx.rank == step % ctx.size else None
            out.append(await comm.bcast(obj, root=step % ctx.size))
            out.append(await comm.gather(ctx.rank ** 2, root=0))
            out.append(await comm.allgather((ctx.rank, step)))
            items = [i * 10 + step for i in range(ctx.size)] \
                if ctx.rank == 1 else None
            out.append(await comm.scatter(items, root=1))
            out.append(await comm.reduce(ctx.rank + 0.25, op=MAX, root=2))
        return out, ctx.wtime()

    return run(5, main, machine=machine)


scenario("mixed-ideal")(lambda: _mixed(IDEAL))
scenario("mixed-opl")(lambda: _mixed(OPL))


@pytest.mark.parametrize("machine", ["ideal", "opl"])
def test_mixed_collective_script_bit_identical(machine):
    """Every common op, with skewed arrivals: values and finish times."""
    check(f"mixed-{machine}")


@scenario("numpy-allreduce")
def _numpy_allreduce():
    async def main(ctx):
        rng = np.random.default_rng(ctx.rank)
        acc = []
        for _ in range(4):
            v = rng.standard_normal(64) * 10.0 ** rng.integers(-6, 6)
            acc.append(await ctx.comm.allreduce(v, op=SUM))
        total = await ctx.comm.allreduce(1, op=SUM)
        return acc, total, ctx.wtime()

    return run(7, main, machine=OPL)


def test_numpy_allreduce_bit_identical():
    """Float folds run left-to-right in rank order — no pairwise
    reassociation — so the sums are pinned to the last bit."""
    check("numpy-allreduce")


@scenario("bcast-aliasing")
def _bcast_aliasing():
    async def main(ctx):
        arr = np.arange(4.0) if ctx.rank == 2 else None
        got = await ctx.comm.bcast(arr, root=2)
        got_is_original = got is arr
        mutated = got + ctx.rank          # private copy per rank
        again = await ctx.comm.allgather(mutated)
        return got_is_original, again

    return run(4, main)


def test_bcast_aliasing_matches_event_path():
    """Root keeps its own object; non-roots get private clones, so
    mutations never leak across ranks."""
    check("bcast-aliasing")
    (results,) = SCENARIOS["bcast-aliasing"]()
    assert results[2][0] is True and results[0][0] is False


@scenario("single-rank")
def _single_rank():
    async def main(ctx):
        await ctx.comm.barrier()
        return (await ctx.comm.allreduce(2.5, op=SUM),
                await ctx.comm.gather("x", root=0), ctx.wtime())

    return run(1, main, machine=OPL)


def test_single_rank_communicator():
    check("single-rank")


@scenario("scatter-length-error")
def _scatter_length_error():
    async def main(ctx):
        items = [1, 2] if ctx.rank == 0 else None
        try:
            await ctx.comm.scatter(items, root=0)
        except Exception as exc:
            return type(exc).__name__, str(exc), ctx.wtime()

    return run(4, main, machine=OPL)


def test_scatter_length_error_identical():
    """A malformed call fails on every rank at the last arrival."""
    check("scatter-length-error")


# ----------------------------------------------------------------------
# fused halo exchange vs the unfused sequence it stands for
# ----------------------------------------------------------------------
_TAG_UP, _TAG_DOWN = 11, 12


async def unfused_exchange(comm, sends, recvs, copy=True):
    reqs = [comm.isend(obj, dest, tag, copy=copy) for dest, tag, obj in sends]
    out = [await comm.recv(source, tag) for source, tag in recvs]
    for r in reqs:
        await r.wait()
    return out


async def fused_exchange(comm, sends, recvs, copy=True):
    return await comm.exchange(sends, recvs, copy=copy)


def both_exchanges(n, program, **kw):
    """(fused outcome, unfused outcome) of ``program(ctx, exchange)``."""
    return tuple(
        run(n, lambda ctx, ex=ex: program(ctx, ex), **kw)
        for ex in (fused_exchange, unfused_exchange))


async def _ring(ctx, exchange, rounds=5, width=32):
    """The solvers' halo idiom: exchange boundary rows around a ring."""
    comm = ctx.comm
    n, r = ctx.size, ctx.rank
    prev_r, next_r = (r - 1) % n, (r + 1) % n
    u = np.full(width, float(r))
    history = []
    for step in range(rounds):
        await ctx.compute(0.001 * ((r * 3 + step) % 4))
        lo, hi = await exchange(
            comm,
            ((prev_r, _TAG_UP, u.copy()), (next_r, _TAG_DOWN, u.copy())),
            ((prev_r, _TAG_DOWN), (next_r, _TAG_UP)), copy=False)
        u = (u + lo + hi) / 3.0
        history.append(u.copy())
    return history, ctx.wtime()


@pytest.mark.parametrize("machine", [IDEAL, OPL], ids=["ideal", "opl"])
def test_ring_exchange_bit_identical(machine):
    fused, unfused = both_exchanges(6, _ring, machine=machine)
    assert canonical(encode(fused)) == canonical(encode(unfused))


def test_exchange_dead_neighbour_identical():
    """A neighbour dead before the exchange: same error, same timing."""
    async def main(ctx, exchange):
        comm, r, n = ctx.comm, ctx.rank, ctx.size
        prev_r, next_r = (r - 1) % n, (r + 1) % n
        await ctx.compute(0.5)
        try:
            await exchange(
                comm, ((prev_r, _TAG_UP, 1.0), (next_r, _TAG_DOWN, 1.0)),
                ((prev_r, _TAG_DOWN), (next_r, _TAG_UP)))
        except ProcFailedError as exc:
            return "dead", exc.failed_ranks, ctx.wtime()
        return "ok", ctx.wtime()

    fused, unfused = both_exchanges(4, main, machine=OPL, kills=((2, 0.1),))
    assert canonical(encode(fused)) == canonical(encode(unfused))
    assert fused[0][1][0] == "dead"


def test_exchange_kill_mid_flight_identical():
    """A neighbour killed while the exchange is parked: the surviving
    ranks observe the failure at the same virtual instant."""
    async def main(ctx, exchange):
        comm, r, n = ctx.comm, ctx.rank, ctx.size
        prev_r, next_r = (r - 1) % n, (r + 1) % n
        if r == 2:          # rank 2 never reaches the exchange
            await ctx.compute(100.0)
            return "late"
        try:
            got = await exchange(
                comm,
                ((prev_r, _TAG_UP, float(r)), (next_r, _TAG_DOWN, float(r))),
                ((prev_r, _TAG_DOWN), (next_r, _TAG_UP)))
            return "ok", got, ctx.wtime()
        except ProcFailedError as exc:
            return "dead", exc.failed_ranks, ctx.wtime()

    fused, unfused = both_exchanges(5, main, machine=OPL, kills=((2, 0.3),))
    assert canonical(encode(fused)) == canonical(encode(unfused))
    assert fused[0][1][0] == "dead" and fused[0][3][0] == "dead"


# ----------------------------------------------------------------------
# failures landing on collective rounds
# ----------------------------------------------------------------------
@scenario("kill-mid-round")
def _kill_mid_round():
    async def main(ctx):
        comm, r = ctx.comm, ctx.rank
        log = []
        # rank-dependent skew: rank 4 arrives long after the kill
        await ctx.compute(5.0 if r == 4 else 0.05 * r)
        for _ in range(2):
            try:
                log.append(("ok", await comm.allreduce(r, op=SUM),
                            ctx.wtime()))
            except ProcFailedError as exc:
                log.append(("fail", str(exc), exc.failed_ranks, ctx.wtime()))
        return log

    return run(6, main, machine=OPL, kills=((3, 0.4),))


def test_kill_mid_round_identical_errors_and_times():
    """A kill while others are parked in an open round: every survivor
    gets the same ProcFailedError at the same virtual time, and late
    arrivers get the *original* doom at their own time plus detection."""
    check("kill-mid-round")
    flat = [e for rank_log in SCENARIOS["kill-mid-round"]()[0] if rank_log
            for e in rank_log]
    assert any(e[0] == "fail" for e in flat)


@scenario("rounds-after-failure")
def _rounds_after_failure():
    async def main(ctx):
        comm = ctx.comm
        out = []
        for _step in range(6):
            await ctx.compute(0.2)
            try:
                out.append(await comm.allreduce(1.0, op=SUM))
            except ProcFailedError as exc:
                out.append((str(exc), round(ctx.wtime(), 12)))
        return out

    return run(4, main, machine=OPL, kills=((1, 0.5),))


def test_rounds_after_failure_fall_back_identically():
    """Every round on a damaged communicator is doomed when it opens."""
    check("rounds-after-failure")


@scenario("doom-several-dead")
def _doom_several_dead():
    async def main(ctx):
        comm = ctx.comm
        await ctx.compute(0.1)
        return [await attempt(ctx, comm.barrier()),
                await attempt(ctx, comm.bcast(ctx.rank, root=0)),
                await attempt(ctx, comm.agree(1))]

    return run(5, main, machine=OPL, kills=((1, 0.01), (3, 0.02)))


def test_doom_lists_every_dead_rank():
    """A round opened on a communicator with several dead members names
    all of them; the survivor-kind agree still completes."""
    check("doom-several-dead")
    (results,) = SCENARIOS["doom-several-dead"]()
    assert "(1, 3)" in results[0][0][2]
    assert results[0][2][0] == "ok"


def _priced_before_death(op):
    async def main(ctx):
        comm, r = ctx.comm, ctx.rank
        # rank 0 opens (and prices) the round at 0.1 with one member dead;
        # rank 5 dies at 0.3, before the others arrive
        await ctx.compute(0.1 if r == 0 else 0.5)
        if op == "agree":
            return await attempt(ctx, comm.agree(3 if r != 1 else 1))
        out = await attempt(ctx, comm.shrink())
        if out[0] == "ok":
            out = ("ok", (out[1].rank, out[1].size), out[2])
        return out

    return run(6, main, machine=OPL, kills=((4, 0.05), (5, 0.3)))


scenario("agree-priced-before-death")(lambda: _priced_before_death("agree"))
scenario("shrink-priced-before-death")(lambda: _priced_before_death("shrink"))


@pytest.mark.parametrize("op", ["agree", "shrink"])
def test_survivor_round_priced_by_first_arrival(op):
    """agree/shrink cost is set by the failures the first arriver saw; a
    member dying later does not reprice the round."""
    check(f"{op}-priced-before-death")


@scenario("agree-live-arrivals-only")
def _agree_live_arrivals_only():
    async def main(ctx):
        r = ctx.rank
        await ctx.compute({4: 0.2, 5: 10.0}.get(r, 0.1 + 0.01 * r))
        return await attempt(ctx, ctx.comm.agree(1))

    # rank 3 dead before the round opens; rank 4 arrives at 0.2 and dies at
    # 0.25; rank 5 never arrives and its death at 0.3 completes the round
    return run(6, main, machine=OPL,
               kills=((3, 0.01), (4, 0.25), (5, 0.3)))


def test_survivor_completion_time_uses_live_arrivals_only():
    check("agree-live-arrivals-only")
    (results,) = SCENARIOS["agree-live-arrivals-only"]()
    # latest live arrival (0.12) + the one-failure agree cost, not the
    # dead rank 4's arrival at 0.2
    assert results[0][2] == pytest.approx(0.12 + OPL.ulfm.agree(6, 1))


@scenario("readmit-into-open-agree")
def _readmit_into_open_agree():
    box = {}

    async def child(ctx):
        await ctx.compute(0.01)          # the parent re-admits meanwhile
        comm = CommHandle(box["state"], ctx.proc)
        return comm.rank, await attempt(ctx, comm.agree(6))

    async def main(ctx):
        comm, r = ctx.comm, ctx.rank
        solo = await comm.split(r, 0)
        await ctx.compute(0.1)
        if r == 2:
            box["state"] = comm.state
            inter = await solo.spawn_multiple(1, child)
            await comm.readmit(3, inter.remote_group[0])
        return await attempt(ctx, comm.agree(7 if r != 1 else 5))

    return run(4, main, machine=OPL, kills=((3, 0.05),))


def test_readmit_into_open_agree():
    """Re-admitting a replacement into an open agree makes the round wait
    for it; the replacement joins the dead member's round."""
    check("readmit-into-open-agree")
    parents, children = SCENARIOS["readmit-into-open-agree"]()
    assert children[0][1][1] == 4 and parents[0][1] == 4


# ----------------------------------------------------------------------
# intercommunicators
# ----------------------------------------------------------------------
def _intercomm(high_child, kill_child=None):
    async def child(ctx):
        parent = ctx.get_parent()
        await ctx.compute(0.02 * (ctx.rank + 1))
        out = [await attempt(ctx, parent.agree(1 + 2 * ctx.rank))]
        merged = await attempt(ctx, parent.merge(high_child))
        if merged[0] == "ok":
            comm = merged[1]
            merged = ("ok", (comm.rank, comm.size), merged[2])
            out.append(await attempt(ctx, comm.allreduce(ctx.rank)))
        return out + [merged]

    async def main(ctx):
        comm, r = ctx.comm, ctx.rank
        inter = await comm.spawn_multiple(3, child)
        if kill_child is not None and r == 0:
            ctx.universe.kill_proc(inter.remote_group[kill_child],
                                   at=ctx.wtime() + 0.01)
        await ctx.compute(0.01 * r)
        merged = await attempt(ctx, inter.merge(False))
        out = [await attempt(ctx, inter.agree(4 + r))]
        if merged[0] == "ok":
            comm2 = merged[1]
            merged = ("ok", (comm2.rank, comm2.size), merged[2])
            out.append(await attempt(ctx, comm2.allreduce(10 * r)))
        return out + [merged]

    return run(2, main, machine=OPL)


scenario("intercomm-agree-merge")(lambda: _intercomm(True))
scenario("intercomm-inconsistent-high")(lambda: _intercomm(False))
scenario("intercomm-kill")(lambda: _intercomm(True, kill_child=1))


@pytest.mark.parametrize("case", ["agree-merge", "inconsistent-high",
                                  "kill"])
def test_intercomm_agree_and_merge(case):
    """Local-group agree on each side, merge over both groups: healthy,
    with inconsistent ``high`` flags, and with a child dying before the
    children's agree."""
    check(f"intercomm-{case}")


# ----------------------------------------------------------------------
# the long-tail ops under a kill
# ----------------------------------------------------------------------
async def _spawned(ctx):
    return ctx.rank


_LONG_TAIL = {
    "scan": lambda ctx: ctx.comm.scan(ctx.rank + 1.5, op=SUM),
    "exscan": lambda ctx: ctx.comm.exscan(np.arange(3.0) * ctx.rank, op=SUM),
    "alltoall": lambda ctx: ctx.comm.alltoall(
        [(ctx.rank, i) for i in range(ctx.size)]),
    "reduce_scatter_block": lambda ctx: ctx.comm.reduce_scatter_block(
        [ctx.rank * 8 + i for i in range(ctx.size)], op=BAND),
    "split": lambda ctx: ctx.comm.split(ctx.rank % 2, -ctx.rank),
    "spawn_multiple": lambda ctx: ctx.comm.spawn_multiple(2, _spawned),
}


def _describe(value):
    """Handles returned by split/spawn, as (rank, size) pairs."""
    if isinstance(value, CommHandle):
        return ("comm", value.rank, value.size)
    if hasattr(value, "remote_size"):
        return ("inter", value.rank, value.local_size, value.remote_size)
    return value


def _long_tail(op):
    async def main(ctx):
        call = _LONG_TAIL[op]
        log = []
        for when in (0.0, 0.05 * ctx.rank, 0.5):
            await ctx.compute(when)
            out = await attempt(ctx, call(ctx))
            log.append((out[0], _describe(out[1])) + out[2:])
        return log

    # the first call is healthy; in the second, ranks 0-2 are parked when
    # rank 3 dies at 0.12 (before arriving) and rank 4 arrives late; the
    # third opens on a damaged communicator
    return run(5, main, machine=OPL, kills=((3, 0.12),))


for _op in _LONG_TAIL:
    scenario(f"{_op}-kill")(lambda op=_op: _long_tail(op))


@pytest.mark.parametrize("op", sorted(_LONG_TAIL))
def test_long_tail_op_under_kill(op):
    """Each op's healthy result rules, its doom under a kill mid-round
    (late arrivers get the original exception), then a round on the
    damaged communicator."""
    check(f"{op}-kill")


# ----------------------------------------------------------------------
# revocation landing on open rounds
# ----------------------------------------------------------------------
def _revoke_open(op):
    async def main(ctx):
        comm, r = ctx.comm, ctx.rank
        call = (lambda: comm.allreduce(r)) if op == "allreduce" \
            else (lambda: comm.agree(0b110 | r))
        log = []
        if r == 0:
            # the others are parked in the round when the revoke lands
            await ctx.compute(0.1)
            comm.revoke()
            await ctx.compute(0.05)
        log.append(await attempt(ctx, call()))
        log.append(await attempt(ctx, comm.barrier()))
        return log

    return run(4, main, machine=OPL)


scenario("revoke-open-normal")(lambda: _revoke_open("allreduce"))
scenario("revoke-open-survivor")(lambda: _revoke_open("agree"))


@pytest.mark.parametrize("kind", ["normal", "survivor"])
def test_revoke_lands_on_open_round(kind):
    """Revocation dooms open NORMAL rounds; SURVIVOR rounds are exempt and
    complete; the next NORMAL call fails synchronously."""
    check(f"revoke-open-{kind}")


# ----------------------------------------------------------------------
# whole-application metric identity
# ----------------------------------------------------------------------
def _app_cfg(code="AC", decomposition="1d", steps=8):
    return AppConfig(n=6, level=4, technique_code=code, steps=steps,
                     diag_procs=2, checkpoint_count=4,
                     decomposition=decomposition)


def _solver(code, decomposition):
    fresh_job_names()
    m = run_app(_app_cfg(code, decomposition), OPL)
    return m.to_dict(), m.phase_breakdown


for _code in ("AC", "CR"):
    for _dec in ("1d", "2d"):
        scenario(f"solver-{_code}-{_dec}")(
            lambda c=_code, d=_dec: _solver(c, d))


@pytest.mark.parametrize("decomposition", ["1d", "2d"])
@pytest.mark.parametrize("code", ["AC", "CR"])
def test_solver_run_metrics_identical(code, decomposition):
    check(f"solver-{code}-{decomposition}")


def _recovery_sweep(code, seed):
    cfg = _app_cfg(code, steps=16)
    layout = cfg.layout()
    gen = FailureGenerator(seed, protect={0}, rank_to_grid=layout.gid_of)
    kills = gen.plan(layout.total_procs, 1 + seed % 2, at=0.5 + 0.4 * seed)
    fresh_job_names()
    uni, total = make_universe(cfg, OPL)
    job = uni.launch(total, app_main, argv=(cfg,))
    FailureGenerator().inject(uni, job, kills)
    uni.run()
    return job.results()[0].to_dict()


for _code in ("AC", "CR"):
    for _seed in range(3):
        scenario(f"recovery-{_code}-{_seed}")(
            lambda c=_code, s=_seed: _recovery_sweep(c, s))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("code", ["AC", "CR"])
def test_recovery_sweep_metrics_identical(code, seed):
    """Random kill plans through the full ULFM recovery (revoke, shrink,
    agree, respawn, merge, split) reproduce the recorded metrics."""
    check(f"recovery-{code}-{seed}")


def test_fixture_covers_every_scenario():
    assert sorted(GOLDEN) == sorted(SCENARIOS)


def record():
    return {name: encode(fn()) for name, fn in sorted(SCENARIOS.items())}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_batch_property.py --write")
    with open(FIXTURE, "w") as f:
        json.dump(record(), f, indent=1, sort_keys=True)
        f.write("\n")
