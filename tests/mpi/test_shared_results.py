"""One read-only result per collective round.

allgather, bcast and allreduce give every rank the same result, so the
collective engine builds it once at completion and every rank reads that
one object: immutable leaves pass through, arrays are read-only views of
one private copy, and the root of bcast keeps its own object.
"""

import numpy as np
import pytest

from repro.mpi import SUM
from repro.mpi.datatypes import payload_nbytes, share_payload

from ..conftest import run_ranks as run


def test_immutable_payloads_pass_through():
    for obj in (3, 2.5, "x", None, frozenset({1, 2}), (1, (2, "a"), None)):
        assert share_payload(obj) is obj


def test_arrays_become_read_only_copies():
    arr = np.arange(4.0)
    shared = share_payload(arr)
    assert shared is not arr and not shared.flags.writeable
    arr[:] = -1.0                   # the contributor keeps value semantics
    assert shared.tolist() == [0.0, 1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        shared[0] = 9.0


def test_containers_are_rebuilt_once_with_frozen_leaves():
    inner = (1, 2)
    obj = [inner, (np.ones(2), 3), {"k": np.zeros(1)}]
    shared = share_payload(obj)
    assert shared is not obj and shared[0] is inner
    assert shared[1][1] == 3 and shared[1][0].tolist() == [1.0, 1.0]
    assert not shared[1][0].flags.writeable
    assert shared[2]["k"].tolist() == [0.0]
    assert not shared[2]["k"].flags.writeable


def test_frozenset_prices_like_a_tuple():
    """Folding a loss set as frozensets prices the round like the tuples
    it replaces, so virtual times do not move."""
    ranks = (3, 17, 1200)
    assert payload_nbytes(frozenset(ranks)) == payload_nbytes(ranks)


def _same_object_on_every_rank(results):
    return all(r is results[0] for r in results)


def test_allgather_result_is_one_shared_list():
    async def main(ctx):
        return await ctx.comm.allgather((ctx.rank, "r"))

    res, _ = run(4, main)
    assert res[0] == [(0, "r"), (1, "r"), (2, "r"), (3, "r")]
    assert _same_object_on_every_rank(res)


def test_allgather_array_leaves_are_read_only():
    async def main(ctx):
        mine = np.full(3, float(ctx.rank))
        views = await ctx.comm.allgather(mine)
        mine[:] = -1.0              # invisible to every other rank
        return views

    res, _ = run(3, main)
    assert _same_object_on_every_rank(res)
    assert [v.tolist() for v in res[0]] == [[0.0] * 3, [1.0] * 3, [2.0] * 3]
    assert not any(v.flags.writeable for v in res[0])


def test_allreduce_array_result_is_shared_and_read_only():
    async def main(ctx):
        return await ctx.comm.allreduce(np.full(2, ctx.rank + 1.0), op=SUM)

    res, _ = run(3, main)
    assert _same_object_on_every_rank(res)
    assert res[0].tolist() == [6.0, 6.0] and not res[0].flags.writeable


def test_bcast_root_keeps_its_own_object():
    async def main(ctx):
        arr = np.arange(3.0) if ctx.rank == 1 else None
        got = await ctx.comm.bcast(arr, root=1)
        return got, got is arr

    res, _ = run(4, main)
    others = [got for rank, (got, _) in enumerate(res) if rank != 1]
    assert res[1][1] is True and res[1][0].flags.writeable
    assert _same_object_on_every_rank(others)
    assert others[0] is not res[1][0] and not others[0].flags.writeable
    assert others[0].tolist() == [0.0, 1.0, 2.0]


def test_bcast_immutable_is_the_roots_object():
    payload = ("cfg", 3, (1, 2))

    async def main(ctx):
        return await ctx.comm.bcast(payload if ctx.rank == 0 else None)

    res, _ = run(3, main)
    assert all(r is payload for r in res)
