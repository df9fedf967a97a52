"""Protocol-skeleton extraction (repro.analysis.model.extract).

Exercises the source-to-IR translation: op recognition, helper
inlining with call-site line anchoring, loop unrolling, try/except
lowering, annotation discovery, and the real ft.reconstruct registry.
"""

import ast

import pytest

from repro.analysis.model.extract import (ExtractError, build_module_env,
                                          extract_function,
                                          find_protocol_models,
                                          reconstruct_registry)
from repro.analysis.model.ir import FailStop, Op, TryPush, TryPop


def extract(src, name, *, failures=1, registry=None, consts=None):
    tree = ast.parse(src)
    env = build_module_env(tree, "<test>", const_overrides=consts or {})
    func = next(n for n in ast.walk(tree)
                if isinstance(n, (ast.AsyncFunctionDef, ast.FunctionDef))
                and n.name == name)
    return extract_function(func, env, failures=failures,
                            registry=registry or {}, name=name)


def op_kinds(sk):
    return [i.kind for i in sk.instrs if isinstance(i, Op)]


def test_basic_collectives_and_guard():
    sk = extract("""
async def f(ctx, world):
    try:
        await world.halo()
    except MPIError:
        world.revoke()
    alive = await world.shrink()
    ok = await alive.agree(1)
    await alive.barrier()
    return ok
""", "f")
    kinds = op_kinds(sk)
    assert kinds == ["halo", "revoke", "shrink", "agree", "barrier"]
    assert any(isinstance(i, TryPush) for i in sk.instrs)
    assert any(isinstance(i, TryPop) for i in sk.instrs)


def test_helper_inlined_and_anchored_at_call_site():
    src = """
async def probe(comm):
    await comm.barrier()

async def f(ctx, world):
    await probe(world)
"""
    sk = extract(src, "f")
    (barrier,) = [i for i in sk.instrs
                  if isinstance(i, Op) and i.kind == "barrier"]
    # anchored at the call line in f, not the body line in probe
    assert barrier.lineno == 6


def test_sync_comm_helper_is_inlined():
    src = """
def declare_failure(comm):
    comm.revoke()

async def f(ctx, world):
    declare_failure(world)
    await world.shrink()
"""
    assert op_kinds(extract(src, "f")) == ["revoke", "shrink"]


def test_non_comm_helper_stays_opaque():
    src = """
def pick_hosts(names):
    return sorted(names)

async def f(ctx, world):
    hosts = pick_hosts(("a", "b"))
    await world.barrier()
    return hosts
"""
    assert op_kinds(extract(src, "f")) == ["barrier"]


def test_closure_passed_to_helper_is_inlined():
    """A nested coroutine handed to a shared loop (a repair step) is
    inlined where the loop calls it, seeing its defining frame's names."""
    src = """
async def retry(comm, step):
    try:
        await comm.barrier()
    except MPIError:
        comm = await step(comm)
    return comm

async def f(ctx, world, grid):
    async def step(comm):
        comm.revoke()
        await grid.agree(1)
        return await comm.shrink()
    world = await retry(world, step)
"""
    sk = extract(src, "f")
    assert op_kinds(sk) == ["barrier", "revoke", "agree", "shrink"]
    agree = next(i for i in sk.instrs if isinstance(i, Op)
                 and i.kind == "agree")
    assert agree.comm == ("var", "grid")  # the captured outer name


def test_static_range_fully_unrolled():
    src = """
async def f(ctx, world):
    for seg in range(3):
        await world.barrier()
"""
    assert op_kinds(extract(src, "f")) == ["barrier"] * 3


def test_module_constant_resolves_range_bound():
    src = """
SEGMENTS = 2

async def f(ctx, world):
    for seg in range(SEGMENTS):
        await world.barrier()
"""
    assert op_kinds(extract(src, "f")) == ["barrier"] * 2


def test_call_site_constant_resolves_helper_range():
    src = """
async def loop(comm, n):
    for seg in range(n):
        await comm.barrier()

async def f(ctx, world):
    await loop(world, 2)
"""
    assert op_kinds(extract(src, "f")) == ["barrier"] * 2


def test_spawn_and_merge_args():
    src = """
async def f(ctx, world):
    alive = await world.shrink()
    inter = await alive.spawn_multiple(1, child, ())
    merged = await inter.merge(high=False)
    return merged

async def child(ctx):
    pass
"""
    sk = extract(src, "f")
    spawn = next(i for i in sk.instrs
                 if isinstance(i, Op) and i.kind == "spawn")
    assert spawn.args["count"] == ("const", 1)
    merge = next(i for i in sk.instrs
                 if isinstance(i, Op) and i.kind == "merge")
    assert merge.args["high"] == ("const", False)


def test_reduce_op_symbol_resolved_by_name():
    src = """
from repro.mpi.comm import MAX

async def f(ctx, world):
    h = await world.allreduce(0, op=MAX)
    return h
"""
    sk = extract(src, "f")
    red = next(i for i in sk.instrs
               if isinstance(i, Op) and i.kind == "allreduce")
    assert red.args["op"] == ("const", "max")


def test_raise_becomes_failstop():
    src = """
async def f(ctx, world):
    if world.rank == 0:
        raise RuntimeError("boom")
    await world.barrier()
"""
    sk = extract(src, "f")
    assert any(isinstance(i, FailStop) for i in sk.instrs)


def test_recursion_is_rejected():
    src = """
async def f(ctx, world):
    await world.barrier()
    await f(ctx, world)
"""
    with pytest.raises(ExtractError):
        extract(src, "f")


def test_find_protocol_models_both_annotation_forms():
    src = '''
from repro.analysis.annotations import protocol_model

@protocol_model(ranks=3, failures=1)
async def deco(ctx, world):
    await world.barrier()

# repro: protocol ranks=2 failures=1 child=kid
async def comment(ctx, world):
    await world.barrier()

async def kid(ctx):
    pass

async def plain(ctx, world):
    await world.barrier()
'''
    found = find_protocol_models(ast.parse(src), src)
    by_name = {f.name: params for f, params in found}
    assert set(by_name) == {"deco", "comment"}
    assert by_name["deco"]["ranks"] == 3
    assert by_name["comment"] == {"ranks": 2, "failures": 1, "child": "kid"}


def test_reconstruct_registry_has_repair_entry_points():
    reg = reconstruct_registry()
    assert "communicator_reconstruct" in reg
    func, env = reg["communicator_reconstruct"]
    assert isinstance(func, (ast.AsyncFunctionDef, ast.FunctionDef))
