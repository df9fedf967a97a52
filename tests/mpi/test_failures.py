"""ULFM failure semantics: detection, revoke, shrink, agree, acks."""

import pytest

from repro.mpi import MPIError, ProcFailedError, RevokedError
from repro.mpi.errors import MPI_ERR_PROC_FAILED, MPI_ERR_REVOKED

from ..conftest import run_ranks as run


def test_recv_from_dead_rank_fails():
    async def main(ctx):
        await ctx.compute(1.0)
        if ctx.rank == 0:
            with pytest.raises(ProcFailedError) as e:
                await ctx.comm.recv(source=1)
            return e.value.failed_ranks
        return None

    res, _ = run(2, main, kills=[(1, 0.5)], raise_task_failures=False)
    assert res[0] == (1,)


def test_recv_blocked_then_source_dies():
    async def main(ctx):
        if ctx.rank == 0:
            with pytest.raises(ProcFailedError):
                await ctx.comm.recv(source=1)
            return ctx.wtime()
        await ctx.compute(10.0)
        return None

    res, _ = run(2, main, kills=[(1, 2.0)], raise_task_failures=False)
    assert res[0] >= 2.0  # failed only after the death


def test_send_to_dead_rank_fails():
    async def main(ctx):
        await ctx.compute(1.0)
        if ctx.rank == 0:
            with pytest.raises(ProcFailedError):
                await ctx.comm.send("x", dest=1)
            return "failed"
        return None

    res, _ = run(2, main, kills=[(1, 0.0)], raise_task_failures=False)
    assert res[0] == "failed"


def test_in_flight_message_still_delivered_after_sender_death(opl):
    """Eager-protocol semantics: a message already injected is delivered
    even if the sender dies before the receiver picks it up."""
    async def main(ctx):
        if ctx.rank == 1:
            await ctx.comm.send("legacy", dest=0)  # sent at t~0
            await ctx.compute(100.0)               # then killed at t=1
            return None
        await ctx.compute(5.0)                     # receive well after death
        return await ctx.comm.recv(source=1)

    res, _ = run(2, main, machine=opl, kills=[(1, 1.0)],
                 raise_task_failures=False)
    assert res[0] == "legacy"


def test_collective_fails_for_all_when_member_dies():
    async def main(ctx):
        await ctx.compute(1.0)
        try:
            await ctx.comm.barrier()
            return "ok"
        except ProcFailedError as e:
            return ("failed", e.failed_ranks)

    res, _ = run(4, main, kills=[(2, 0.5)], raise_task_failures=False)
    assert res[0] == ("failed", (2,)) == res[1] == res[3]


def test_collective_fails_even_if_death_is_after_some_arrivals():
    async def main(ctx):
        # rank 3 dies at 2.0 while 0..2 are already waiting in the barrier
        if ctx.rank == 3:
            await ctx.compute(5.0)
            return None
        try:
            await ctx.comm.barrier()
            return "ok"
        except ProcFailedError:
            return "failed"

    res, _ = run(4, main, kills=[(3, 2.0)], raise_task_failures=False)
    assert res[:3] == ["failed"] * 3


def test_error_codes():
    assert ProcFailedError().error_code == MPI_ERR_PROC_FAILED
    assert RevokedError().error_code == MPI_ERR_REVOKED


def test_revoke_fails_pending_and_future_ops():
    async def main(ctx):
        if ctx.rank == 0:
            await ctx.compute(1.0)
            ctx.comm.revoke()
            return "revoked"
        try:
            await ctx.comm.recv(source=0)  # blocks, then revoked
            return "got"
        except RevokedError:
            pass
        with pytest.raises(RevokedError):
            await ctx.comm.send("x", dest=0)
        with pytest.raises(RevokedError):
            await ctx.comm.barrier()
        return "revoked-seen"

    res, _ = run(3, main, raise_task_failures=False)
    assert res == ["revoked", "revoked-seen", "revoked-seen"]


def test_shrink_after_failure_preserves_order():
    async def main(ctx):
        await ctx.compute(1.0)
        try:
            await ctx.comm.barrier()
        except ProcFailedError:
            pass
        ctx.comm.revoke()
        shrunk = await ctx.comm.shrink()
        return (shrunk.rank, shrunk.size)

    res, _ = run(5, main, kills=[(2, 0.5)], raise_task_failures=False)
    # survivors 0,1,3,4 become ranks 0,1,2,3 in original order
    assert res[0] == (0, 4)
    assert res[1] == (1, 4)
    assert res[3] == (2, 4)
    assert res[4] == (3, 4)


def test_shrink_works_on_revoked_comm():
    async def main(ctx):
        ctx.comm.revoke()
        await ctx.compute(1.0)
        shrunk = await ctx.comm.shrink()
        return shrunk.size

    res, _ = run(3, main)
    assert res == [3, 3, 3]


async def _agree(comm):
    return await comm.agree(1)


async def _shrink(comm):
    return (await comm.shrink()).size


async def _barrier(comm):
    await comm.barrier()
    return "done"


@pytest.mark.parametrize("op,kills,expect", [
    pytest.param(_agree, [(3, 0.5)], [1, 1, 1], id="agree"),
    pytest.param(_shrink, [(3, 0.5)], [3, 3, 3], id="shrink"),
    pytest.param(_barrier, [], ["RevokedError"] * 4, id="barrier")])
def test_revoke_lands_on_inflight_collective(op, kills, expect):
    """Every rank but 0 is already waiting in ``op`` when rank 0 revokes.
    ULFM exempts agree and shrink from revocation: they complete over the
    survivors (rank 3 is dead by then); an ordinary collective still
    fails with the revocation."""
    async def main(ctx):
        if ctx.rank == 0:
            await ctx.compute(1.0)
            ctx.comm.revoke()
            await ctx.compute(1.0)
        try:
            return await op(ctx.comm)
        except RevokedError:
            return "RevokedError"

    res, _ = run(4, main, kills=kills, raise_task_failures=False)
    assert res[:len(expect)] == expect


def test_agree_ands_flags_and_tolerates_failures():
    async def main(ctx):
        await ctx.compute(1.0)
        flag = await ctx.comm.agree(0 if ctx.rank == 0 else 1)
        return flag

    res, _ = run(4, main, kills=[(3, 0.5)], raise_task_failures=False)
    assert res[:3] == [0, 0, 0]


def test_agree_all_ones():
    async def main(ctx):
        return await ctx.comm.agree(1)

    res, _ = run(3, main)
    assert res == [1, 1, 1]


def test_failure_ack_and_get_acked():
    async def main(ctx):
        await ctx.compute(1.0)
        g0 = ctx.comm.failure_get_acked()
        ctx.comm.failure_ack()
        g1 = ctx.comm.failure_get_acked()
        return (g0.size, g1.size)

    res, _ = run(3, main, kills=[(2, 0.5)], raise_task_failures=False)
    assert res[0] == (0, 1)
    assert res[1] == (0, 1)


def test_dead_rank_task_killed_not_failed():
    async def main(ctx):
        await ctx.compute(10.0)
        return "finished"

    res, uni = run(2, main, kills=[(1, 1.0)], raise_task_failures=False)
    assert res[0] == "finished"
    assert res[1] is None
    assert not uni.engine.failed_tasks


def test_host_slot_freed_on_death():
    async def main(ctx):
        await ctx.compute(5.0)
        return True

    res, uni = run(3, main, kills=[(1, 1.0)], raise_task_failures=False)
    dead = uni.jobs[0].procs[1]
    assert dead.dead and dead.death_time == 1.0
    total_occupied = sum(h.occupied for h in uni.hostfile)
    assert total_occupied == 0  # everyone finished or died


def test_multiple_simultaneous_failures_reported_together():
    async def main(ctx):
        await ctx.compute(1.0)
        try:
            await ctx.comm.barrier()
            return "ok"
        except ProcFailedError as e:
            return tuple(sorted(e.failed_ranks))

    res, _ = run(5, main, kills=[(1, 0.5), (3, 0.5)],
                 raise_task_failures=False)
    assert res[0] == (1, 3)
