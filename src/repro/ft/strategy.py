"""Pluggable recovery strategies: how the application repairs its world.

The paper's protocol (Figs. 3/5) always re-spawns failed ranks and rebuilds
the *global* communicator.  The FT-MPI literature since established two
alternatives, and this module puts all three behind one interface:

* ``respawn`` — the paper's global revoke + shrink + spawn + merge + split
  pipeline; the world keeps its original size and rank order.
* ``shrink`` — shrink-in-place ("Shrink or Substitute"): no spawn, no
  merge; the world contracts, surviving ranks get a re-balanced
  decomposition and the lost sub-grids' work migrates onto survivors.
* ``nc`` — non-collective repair (Rocco & Palermo): only the failed
  sub-grid's communicator is rebuilt, via its own local-group operations;
  unaffected grids never stop solving.  Replacements are *re-admitted*
  into the enclosing world communicator by a purely local membership
  update.

A strategy object is stateless and shared; it works on the per-run state
of the :class:`~repro.core.app.CombinationApp` it is handed.  Every mode
detects through the one loop of :func:`~repro.ft.reconstruct.probe_and_repair`
and supplies only its own steps:

* ``join(app)`` — a re-spawned replacement rejoins the run (False for the
  orphan of an aborted repair attempt);
* ``detect_and_repair(app)`` — the detection point, with the mode's repair
  step on error; returns True when membership changed;
* ``post_repair(app)`` — the membership/data resync after a repair (world
  re-split, survivor redistribution, or lost-grid marking);
* ``cr_failure_branch(app, target)`` — Checkpoint/Restart after a repair:
  resync, then restore and recompute to the agreed horizon;
* ``rejoin_world(app)`` — agreement on the loss set before the
  world-collective recovery and combination phases (only the
  non-collective mode ever leaves the world out of step).
"""

from __future__ import annotations

from typing import Dict

from ..core.layout import SurvivorView
from ..mpi.errors import MPIError
from .detection import failed_procs_list
from .reconstruct import (communicator_reconstruct, probe_and_repair,
                          repair_comm)


def _app_main():
    # repro.core.app imports repro.ft, so its entry point is looked up
    # when a replacement is about to be spawned
    from ..core.app import app_main
    return app_main


class RecoveryStrategy:
    """Base class; subclasses are stateless and safe to share."""

    mode: str = "?"

    def validate_config(self, cfg) -> None:
        """Raise ValueError for configurations the mode cannot run."""

    async def join(self, app) -> bool:
        raise NotImplementedError(f"{self.mode} mode never re-spawns")

    async def detect_and_repair(self, app) -> bool:
        raise NotImplementedError

    async def post_repair(self, app) -> None:
        """Resync after ``detect_and_repair`` reported a change."""

    async def cr_failure_branch(self, app, target) -> int:
        """Resync, then restore the damaged grids and recompute them to the
        world-agreed horizon; returns that horizon.  ``target`` is the
        boundary of the segment that detected the failure (None for a
        replacement joining the branch)."""
        await self.post_repair(app)
        horizon = await app.restore_to_horizon(app.world, target)
        try:
            await app.world.barrier()
        except MPIError:
            pass  # another failure landed; the next detection point repairs
        return horizon

    async def rejoin_world(self, app) -> None:
        """Agree on the loss set before the world-collective phases."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}()"


class RespawnStrategy(RecoveryStrategy):
    """The paper's Figs. 3/5 pipeline: global repair, original world back."""

    mode = "respawn"

    async def join(self, app) -> bool:
        """Child branch of the reconstruction protocol: regain the
        predecessor's world rank."""
        world = await communicator_reconstruct(
            app.ctx, app.ctx.comm, entry=_app_main(), argv=(app.cfg,),
            placement=app.cfg.placement, timers=app.timers)
        if world is None:
            return False
        app.world = world
        app.gid = app.layout.gid_of(world.rank)
        return True

    async def detect_and_repair(self, app) -> bool:
        world = await communicator_reconstruct(
            app.ctx, app.world, entry=_app_main(), argv=(app.cfg,),
            placement=app.cfg.placement, timers=app.timers)
        changed = world.state is not app.world.state
        app.world = world
        return changed

    async def post_repair(self, app) -> None:
        """Learn the loss set and rebuild the grid communicators (and, on a
        replacement, the solver shell).

        The loss set is the union of every rank's locally-observed failed
        ranks, never a single rank's view: a re-spawned replacement —
        including a replacement rank 0 — joins with an empty failure
        record, so a rank-0 broadcast would announce an empty loss set and
        no grid would ever restore."""
        world = app.world
        views = await world.allgather(tuple(app.timers.failed_ranks))
        app.record_failures(sorted({r for view in views for r in view}))
        app.grid_comm = await world.split(app.gid, world.rank)
        if app.solver is None:
            app.make_solver()
        else:
            app.solver.rebind(app.grid_comm)


class ShrinkInPlaceStrategy(RecoveryStrategy):
    """Shrink the world and redistribute lost work over survivors."""

    mode = "shrink"

    def validate_config(self, cfg) -> None:
        if cfg.decomposition != "1d":
            raise ValueError(
                "shrink-in-place recovery requires the 1d slab "
                "decomposition (re-balancing 2d Cartesian blocks over an "
                "arbitrary survivor count is not supported)")

    async def detect_and_repair(self, app) -> bool:
        """World-wide detection; the repair step is revoke + shrink — no
        spawn, no merge — and the contracted world carries on."""
        ctx, timers = app.ctx, app.timers
        wtime = ctx.wtime

        async def shrink(world):
            with ctx.span("detect"):
                world.revoke()
                t1 = wtime()
                with ctx.span("shrink"):
                    shrunk = await world.shrink()
                shrink_time = wtime() - t1
                timers.charge("shrink", shrink_time)
                t1 = wtime()
                failed, _ = failed_procs_list(world, shrunk)
                timers.charge("failed_list", (wtime() - t1) + shrink_time)
            # record the dead in *original* world numbering, then contract
            # the membership map — the group difference is in current ranks
            app.record_failures([app.members[i] for i in failed],
                                app.base_layout)
            dead = set(failed)
            app.members = [m for i, m in enumerate(app.members)
                           if i not in dead]
            return shrunk

        app.world, repairs = await probe_and_repair(
            ctx, app.world, timers, shrink, technique=app.technique.code)
        timers.iterations += repairs
        return repairs > 0

    async def post_repair(self, app) -> None:
        """Re-express the layout in survivor numbering, re-split the grid
        communicators, and re-decompose any grid whose group contracted."""
        with app.ctx.span("redistribute", technique=app.technique.code,
                          gid=app.gid):
            # orphan adoption: CR restores the adopted grid from its
            # checkpoints and RC from its replica/resample source, so a
            # fully-lost grid migrates onto a donor; AC drops lost grids
            # from the combination instead, so donating would only destroy
            # a healthy grid's data
            app.layout = SurvivorView(app.base_layout, app.members,
                                      adopt_orphans=app.technique.code
                                      != "AC")
            # the donor's old group contracted without failing; it needs
            # restoration like any damaged grid
            app.mark_lost(app.layout.adoptions.values())
            new_gid = app.layout.gid_of(app.world.rank)
            adopted = new_gid != app.gid
            app.gid = new_gid
            old_size = app.grid_comm.size
            app.grid_comm = await app.world.split(app.gid, app.world.rank)
            if not adopted and app.grid_comm.size == old_size:
                # untouched grid: the split preserved relative order, so
                # every member keeps its grid rank — and its slab, bit for
                # bit
                app.solver.rebind(app.grid_comm)
            else:
                # contracted or adopted grid: fresh solver over the
                # re-balanced decomposition; data comes back via the
                # recovery technique
                app.make_solver()


class NonCollectiveStrategy(RecoveryStrategy):
    """Rebuild only the failed sub-grid communicators; re-admit locally."""

    mode = "nc"

    def validate_config(self, cfg) -> None:
        if cfg.decomposition != "1d":
            raise ValueError(
                "non-collective recovery requires the 1d slab "
                "decomposition (the 2d solver wraps its communicator in a "
                "Cartesian topology the per-grid repair cannot rebuild)")

    async def join(self, app) -> bool:
        """Rejoin the *sub-grid* communicator through the reconstruction
        protocol, then adopt the world communicator the parents re-admitted
        us into (shipped in the spawn argv, membership already patched by
        the time the join barrier completes)."""
        ctx = app.ctx
        grid = await communicator_reconstruct(
            ctx, ctx.comm, entry=_app_main(), argv=ctx.argv,
            placement=app.cfg.placement, timers=app.timers)
        if grid is None:
            return False
        app.gid = int(ctx.argv[2])
        app.grid_comm = grid
        app.world = ctx.argv[1].handle(ctx.proc)
        app.make_solver()
        return True

    async def detect_and_repair(self, app) -> bool:
        """Detection on *this grid's* communicator only.  The repair step
        runs Fig. 5 against the sub-grid and re-admits the replacements
        into the world by a local membership update — other grids never
        notice.

        The loop's agree + probe doubles as the join point with the
        re-spawned child (the tail of its reconstruction loop): readmits
        happen before the parents enter it, so once it completes the child
        is a world member everywhere."""
        ctx, cfg = app.ctx, app.cfg
        labels = dict(technique=app.technique.code, gid=app.gid)

        async def rebuild(grid):
            with ctx.span("rebuild", **labels):
                rank_map = list(app.layout.group_ranks(app.gid))
                grid2 = await repair_comm(
                    ctx, grid, entry=_app_main(),
                    argv=(cfg, app.world.state, app.gid),
                    placement=cfg.placement, timers=app.timers,
                    rank_map=rank_map)
                for i in range(grid2.size):
                    p = grid2.state.procs[i]
                    if p is not grid.state.procs[i]:
                        await app.world.readmit(rank_map[i], p)
                app.solver.rebind(grid2)
            return grid2

        app.grid_comm, repairs = await probe_and_repair(
            ctx, app.grid_comm, app.timers, rebuild, **labels)
        app.timers.iterations += repairs
        return repairs > 0

    async def post_repair(self, app) -> None:
        # the grid was rebuilt in place; its data is only partially intact
        # (replacements start fresh), so the grid joins the lost set and
        # the technique's end-phase recovery restores it
        app.mark_lost([app.gid])

    async def cr_failure_branch(self, app, target) -> int:
        """Grid-local: the affected grid agrees on its horizon, restores and
        recomputes while every other grid keeps stepping its own
        segments."""
        await self.post_repair(app)
        return await app.restore_to_horizon(app.grid_comm, target)

    async def rejoin_world(self, app) -> None:
        """Rejoin the world after grid-local repairs: one agreement plus an
        allgather unions every grid's locally-observed loss set — the first
        (and only) world-collective step the non-collective mode takes."""
        ctx, t = app.ctx, app.timers
        world = app.world
        t0 = ctx.wtime()
        with ctx.span("agree", technique=app.technique.code):
            await world.agree(1)
        t.charge("agree", ctx.wtime() - t0)
        payload = (tuple(t.failed_ranks), t.reconstruct, t.shrink, t.spawn,
                   t.merge, t.failed_list, t.iterations)
        try:
            views = await world.allgather(payload)
        except MPIError:
            raise RuntimeError(
                "non-collective repair cannot recover a grid that lost "
                "every member (no survivor is left to rebuild it); use "
                "shrink or respawn mode for full-grid losses") from None
        # repairs ran grid-locally: adopt the slowest grid's repair costs
        # everywhere (the wall-clock convention rank 0's metrics report)
        t.reconstruct = max(v[1] for v in views)
        t.shrink = max(v[2] for v in views)
        t.spawn = max(v[3] for v in views)
        t.merge = max(v[4] for v in views)
        t.failed_list = max(v[5] for v in views)
        t.iterations = max(v[6] for v in views)
        app.record_failures(sorted({r for view in views for r in view[0]}))


STRATEGIES: Dict[str, RecoveryStrategy] = {
    "respawn": RespawnStrategy(),
    "shrink": ShrinkInPlaceStrategy(),
    "nc": NonCollectiveStrategy(),
}


def strategy_by_mode(mode: str) -> RecoveryStrategy:
    try:
        return STRATEGIES[mode.lower()]
    except KeyError:
        raise ValueError(f"unknown recovery mode {mode!r}; "
                         f"expected one of {sorted(STRATEGIES)}") from None
