"""Shared helpers: recorded recovery traces for the analyzers, and the
package self-lint shared by every test that needs it."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro import analysis
from repro.ft import communicator_reconstruct
from repro.machine.presets import IDEAL
from repro.mpi.tracing import Tracer
from repro.mpi.universe import Universe


def traced_recovery_run(n=4, kill_ranks=(2,), kill_at=0.5):
    """Run the full Fig. 3 reconstruction protocol with tracing on.

    Returns ``(tracer, results)``: a complete event record of one
    successful revoke -> shrink -> spawn -> merge -> split recovery.
    """
    async def main(ctx):
        if not ctx.proc.spawned:
            await ctx.comm.barrier()  # every rank shows up in the trace
        await ctx.compute(1.0)
        world = await communicator_reconstruct(ctx, ctx.comm, entry=main)
        if world is None:
            return "orphan"
        total = await world.allreduce(1)
        return (world.rank, world.size, total)

    uni = Universe(IDEAL)
    uni.tracer = Tracer()
    job = uni.launch(n, main)
    for r in kill_ranks:
        uni.kill_rank(job, r, at=kill_at)
    uni.run(raise_task_failures=False)
    return uni.tracer, job.results()


PACKAGE = Path(repro.__file__).parent


@pytest.fixture(scope="session")
def package_lint():
    """``lint_paths([PACKAGE])``, computed once per session: the full
    self-lint takes seconds, and several tests need its result."""
    return analysis.lint_paths([PACKAGE])


@pytest.fixture
def cached_package_lint(monkeypatch, package_lint):
    """Let ``python -m repro lint`` reuse :func:`package_lint` for the
    package path; any other path (the violation fixtures) still lints for
    real."""
    real = analysis.lint_paths

    def lint_paths(paths, *, keep_suppressed=False):
        if not keep_suppressed and [Path(p) for p in paths] == [PACKAGE]:
            return list(package_lint)
        return real(paths, keep_suppressed=keep_suppressed)

    monkeypatch.setattr(analysis, "lint_paths", lint_paths)


@pytest.fixture
def good_recovery_trace():
    """A known-good trace of one single-failure recovery on 4 ranks."""
    tracer, results = traced_recovery_run()
    # sanity: the recovery actually succeeded before we bless the trace
    assert results[0] == (0, 4, 4)
    return tracer
