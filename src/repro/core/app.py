"""The fault-tolerant sparse-grid-combination advection application.

This is the paper's application, end to end:

* every world rank belongs to one sub-grid's process group (the layout),
  solves its share of that grid with the domain-decomposed Lax–Wendroff
  stepper, and participates in the gather–scatter combination;
* process failures (injected kills) surface as MPI errors during stepping
  or at the dedicated detection points; the application then runs the
  Fig. 3/5 reconstruction protocol — re-spawned replacements execute this
  very same entry point, take the child branch of the protocol, regain
  their predecessor's rank, and continue the run;
* lost sub-grid data is recovered by the configured technique:
  Checkpoint/Restart (restore + recompute), Resampling-and-Copying
  (replica copy / fine-grid resample) or Alternate Combination (new
  combination coefficients + post-combination sample).

Both *real* failures (actual kills, Figs. 8/11, Table I) and *simulated*
losses (grids declared lost at the end, Figs. 9/10 — the paper does the
same) are supported.

*How* the world is repaired is pluggable (``cfg.recovery_mode``, see
:mod:`repro.ft.strategy`): the paper's global respawn pipeline, the
shrink-in-place mode (no spawn — the world contracts and survivors
re-decompose), or the non-collective mode (only the failed sub-grid's
communicator is rebuilt; replacements are re-admitted into the world by a
local membership update and unaffected grids never stop solving).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ft.checkpoint import (CheckpointStats, Disk, checkpoint_interval_steps,
                             restore_checkpoint, restore_checkpoint_remapped,
                             write_checkpoint)
# failed_procs_list, communicator_reconstruct and repair_comm are called
# from repro.ft.strategy; they stay importable here because
# perfbench/layers.py wraps them at this import site
from ..ft.detection import failed_procs_list
from ..ft.reconstruct import (PLACE_SAME_HOST, ReconstructTimers,
                              communicator_reconstruct, repair_comm)
from ..ft.recovery import (AlternateCombination, RecoveryTechnique,
                           technique_by_code)
from ..mpi.comm import MAX
from ..mpi.errors import MPIError
from ..pde.advection import AdvectionProblem
from ..pde.lax_wendroff import periodic_from_nodal
from ..pde.norms import l1, l2, linf
from ..pde.parallel_solver import DistributedAdvectionSolver
from ..sparsegrid.interpolation import axis_points
from ..sparsegrid.parallel_combine import combine_on_root, scatter_samples
from .layout import Layout, layout_for
from .metrics import RunMetrics

#: base tag for recovery data motion (offset by destination gid)
RECOVERY_TAG = 7000

#: virtual flops charged for computing one set of alternate coefficients
#: (a Möbius sum over the scheme's small index lattice)
AC_COEFF_FLOPS = 2.0e4


@dataclass
class AppConfig:
    """One run's configuration.  Passed (by reference) as the argv of every
    launched *and re-spawned* process, exactly like the paper re-launches
    ``./ApplicationName argv``."""

    n: int = 7
    level: int = 4
    technique_code: str = "CR"
    #: how the world is repaired after a failure: "respawn" (the paper's
    #: Figs. 3/5 pipeline), "shrink" (shrink-in-place) or "nc"
    #: (non-collective per-grid repair) — see :mod:`repro.ft.strategy`
    recovery_mode: str = "respawn"
    steps: int = 32
    diag_procs: int = 4
    layout_mode: str = "paper"          #: "paper" (Fig. 9) or "sweep" (Table I)
    cfl: float = 0.4
    problem: AdvectionProblem = field(default_factory=AdvectionProblem)
    #: checkpoints over the run (CR); None = machine-optimal (Young)
    checkpoint_count: Optional[int] = 4
    placement: str = PLACE_SAME_HOST
    simulated_lost_gids: Tuple[int, ...] = ()
    combine_target: Optional[Tuple[int, int]] = None
    disk: Optional[Disk] = None
    collect_arrays: bool = False
    extra_layers: int = 2               #: AC redundancy depth
    #: virtual-compute multiplier per step (timing-shape experiments model
    #: the paper's full problem scale without paying its numerics)
    compute_scale: float = 1.0
    #: "1d" slab decomposition or "2d" Cartesian blocks per sub-grid
    decomposition: str = "1d"

    def estimated_solve_time(self, machine) -> float:
        """Analytic estimate of the failure-free solve time on ``machine``
        (used to pick checkpoint counts before the run; deterministic and
        identical on every rank)."""
        from ..pde.lax_wendroff import FLOPS_PER_POINT
        layout = self.layout()
        per_proc = max(
            ((1 << a.index[0]) * (1 << a.index[1])) / a.n_procs
            for a in layout.assignments)
        flops = FLOPS_PER_POINT * per_proc * self.steps * self.compute_scale
        return machine.compute_cost(flops)

    def strategy(self):
        from ..ft.strategy import strategy_by_mode
        return strategy_by_mode(self.recovery_mode)

    def technique(self) -> RecoveryTechnique:
        t = technique_by_code(self.technique_code)
        if isinstance(t, AlternateCombination) and \
                t.extra_layers != self.extra_layers:
            t = AlternateCombination(self.extra_layers)
        return t

    def scheme(self):
        return self.technique().make_scheme(self.n, self.level)

    def layout(self) -> Layout:
        # scheme() returns shared cached instances, so the identity-keyed
        # layout cache collapses repeated builds across a sweep
        return layout_for(self.scheme(), self.layout_mode, self.diag_procs)

    @property
    def target(self) -> Tuple[int, int]:
        return self.combine_target or (self.n, self.n)


async def app_main(ctx):
    """Entry point for every rank — initial launch and re-spawn alike."""
    cfg: AppConfig = ctx.argv[0]
    return await CombinationApp(ctx, cfg).run()


def restrict_periodic(arr: np.ndarray, src_ix: Tuple[int, int],
                      dst_ix: Tuple[int, int]) -> np.ndarray:
    """Exact restriction of a periodic (no duplicated boundary) array."""
    dx, dy = src_ix[0] - dst_ix[0], src_ix[1] - dst_ix[1]
    if dx < 0 or dy < 0:
        raise ValueError(f"cannot restrict {src_ix} onto finer {dst_ix}")
    return np.ascontiguousarray(arr[::1 << dx, ::1 << dy])


class CombinationApp:
    """Per-rank application object."""

    def __init__(self, ctx, cfg: AppConfig):
        self.ctx = ctx
        self.cfg = cfg
        self.technique = cfg.technique()
        self.strategy = cfg.strategy()
        self.strategy.validate_config(cfg)
        self.scheme = self.technique.make_scheme(cfg.n, cfg.level)
        self.layout = cfg.layout()
        #: the launch-time layout; ``self.layout`` becomes a
        #: :class:`~repro.core.layout.SurvivorView` after a shrink-in-place
        #: repair
        self.base_layout = self.layout
        #: original world rank of each current world rank: the identity
        #: until a shrink-in-place repair contracts it into a list
        self.members: Sequence[int] = range(self.layout.total_procs)
        self.timers = ReconstructTimers()
        self.metrics = RunMetrics(
            technique=self.technique.code, recovery_mode=self.strategy.mode,
            machine=ctx.machine.name,
            n=cfg.n, level=cfg.level, steps=cfg.steps,
            world_size=self.layout.total_procs)
        self.cr_stats = CheckpointStats()
        self.world = None
        self.grid_comm = None
        self.solver: Optional[DistributedAdvectionSolver] = None
        self.gid = -1
        self.lost: List[int] = []
        self.dt = cfg.problem.stable_dt(cfg.n, cfg.cfl)
        self.metrics.dt = self.dt
        if cfg.checkpoint_count is None:
            from ..ft.checkpoint import optimal_checkpoint_count
            est = cfg.estimated_solve_time(ctx.machine)
            self.checkpoint_count = optimal_checkpoint_count(
                est, ctx.machine.t_io)
        else:
            self.checkpoint_count = cfg.checkpoint_count

    # ------------------------------------------------------------------
    async def run(self):
        ctx, cfg = self.ctx, self.cfg
        if ctx.get_parent() is not None:
            # Re-spawned replacement: rejoin through the child branch of
            # the mode's reconstruction protocol.
            if not await self.strategy.join(self):
                return None  # orphan of an aborted repair attempt
            if self.technique.needs_checkpoints:
                # the survivors are inside the CR failure branch of some
                # segment: join it, then run the remaining segments with
                # them.  The agreed horizon — NOT the local step count —
                # must drive the filter: if this very recompute is
                # interrupted by another failure, the step count stalls
                # but the segment schedule (and its one detection
                # collective per boundary) marches on for everyone.
                horizon = await self.strategy.cr_failure_branch(self, None)
                await self._cr_segments(after=horizon)
            else:
                # RC/AC: resync now; data recovery happens in the shared
                # recovery/combination phases
                await self.strategy.post_repair(self)
        else:
            self.world = ctx.comm
            if self.world.size != self.layout.total_procs:
                raise ValueError(
                    f"launched {self.world.size} ranks but layout needs "
                    f"{self.layout.total_procs}")
            self.gid = self.layout.gid_of(self.world.rank)
            self.grid_comm = await self.world.split(self.gid, self.world.rank)
            self.make_solver()
            t0 = ctx.wtime()
            if self.technique.needs_checkpoints:
                await self._cr_segments(after=0)
            else:
                await self._plain_stepping()
            self.metrics.t_solve = ctx.wtime() - t0

        await self.strategy.rejoin_world(self)
        if cfg.simulated_lost_gids and not self.lost:
            self.lost = sorted(set(cfg.simulated_lost_gids))
        await self._recovery_phase()
        combined = await self._combination_phase()
        return self._finish(combined)

    # ------------------------------------------------------------------
    def make_solver(self):
        sub = self.scheme[self.gid]
        if self.cfg.decomposition == "2d":
            from ..mpi.cart import CartHandle
            from ..pde.parallel_solver2d import (Distributed2DAdvectionSolver,
                                                 choose_dims)
            # wrap the grid communicator directly (non-collective) so a
            # re-spawned member stays in step with surviving members
            dims = choose_dims(self.grid_comm.size, sub.level_x, sub.level_y)
            cart = CartHandle(self.grid_comm.state, self.ctx.proc, dims,
                              (True, True))
            self.solver = Distributed2DAdvectionSolver(
                self.ctx, cart, self.cfg.problem,
                sub.level_x, sub.level_y, self.dt,
                compute_scale=self.cfg.compute_scale)
        elif self.cfg.decomposition == "1d":
            self.solver = DistributedAdvectionSolver(
                self.ctx, self.grid_comm, self.cfg.problem,
                sub.level_x, sub.level_y, self.dt,
                compute_scale=self.cfg.compute_scale)
        else:
            raise ValueError(
                f"unknown decomposition {self.cfg.decomposition!r}")

    def record_failures(self, ranks, layout=None) -> None:
        """Fold failed world ranks (numbered by ``layout``, default the
        current one) into the run's failure record and mark their grids
        lost."""
        self.timers.record_failed(ranks)
        self.mark_lost((layout or self.layout).grids_of_ranks(ranks))

    def mark_lost(self, gids) -> None:
        """Add grids to the (sorted) lost set."""
        for g in gids:
            if g not in self.lost:
                self.lost.append(g)
        self.lost.sort()

    # ------------------------------------------------------------------
    # RC/AC: step everything, detect at the end
    # ------------------------------------------------------------------
    async def _step_guarded(self, n: int) -> None:
        """Step the solver, converting a peer failure into a group-wide
        unblock: the rank that observes the error revokes the grid
        communicator so members blocked on halos from *other* ranks also
        escape (the standard ULFM revoke idiom — without it, only the dead
        rank's neighbours notice and the rest of the group hangs)."""
        if n <= 0:
            return
        try:
            await self.solver.step(n)
        except MPIError:
            self.grid_comm.revoke()

    async def _plain_stepping(self) -> None:
        cfg = self.cfg
        with self.ctx.span("solve", technique=self.technique.code,
                           gid=self.gid):
            await self._step_guarded(cfg.steps - self.solver.step_count)
        if await self.strategy.detect_and_repair(self):
            await self.strategy.post_repair(self)

    # ------------------------------------------------------------------
    # CR: segment loop with detection + checkpoint at each boundary
    # ------------------------------------------------------------------
    def _segment_targets(self) -> List[int]:
        cfg = self.cfg
        interval = checkpoint_interval_steps(cfg.steps, self.checkpoint_count)
        targets = list(range(interval, cfg.steps + 1, interval))
        if not targets or targets[-1] != cfg.steps:
            targets.append(cfg.steps)
        return targets

    async def _cr_segments(self, after: int) -> None:
        """The Checkpoint/Restart protocol over the segments past step
        ``after``.

        Per segment: step to the boundary; test for failures (the paper
        checks "prior to initiating the checkpoint write"); on failure
        the strategy repairs, and its failure branch restores the affected
        grids from their checkpoints and recomputes; otherwise write a
        checkpoint.
        """
        ctx, cfg = self.ctx, self.cfg
        for target in self._segment_targets():
            if target <= after:
                continue
            with ctx.span("solve", technique=self.technique.code,
                          gid=self.gid):
                await self._step_guarded(target - self.solver.step_count)
            # the paper tests for failures "prior to initiating the
            # checkpoint write" — the strategy's detection point is that
            # test (and the repair, when it fails)
            failed = await self.strategy.detect_and_repair(self)
            if failed:
                await self.strategy.cr_failure_branch(self, target)
            elif target < cfg.steps and self.checkpoint_count > 0:
                await write_checkpoint(ctx, self._disk(), self.gid,
                                       self.grid_comm.rank, self.solver,
                                       self.cr_stats)

    async def restore_to_horizon(self, comm, target: Optional[int]) -> int:
        """CR after a repair: agree on the recompute horizon over ``comm``
        (the world, or the repaired grid alone) and, on a lost grid,
        restore from checkpoints and recompute up to it.  Returns the
        horizon.

        MAX-allreduce, not a rank-0 broadcast: a replacement for a dead
        rank 0 joins with ``target=None`` and would broadcast horizon 0,
        silently cancelling the recompute on every survivor."""
        horizon = await comm.allreduce(target if target is not None else 0,
                                       op=MAX)
        if self.gid in self.lost:
            await self._restore_and_recompute(horizon)
        return horizon

    async def _restore_and_recompute(self, horizon: int) -> None:
        await self._restore_grid()
        recompute = max(0, horizon - self.solver.step_count)
        with self.ctx.span("recompute", technique="CR", gid=self.gid):
            await self._step_guarded(recompute)
        self.cr_stats.recompute_steps += recompute

    async def _restore_grid(self) -> None:
        """Restore this grid from its checkpoints, remapping when the group
        size changed (shrink mode re-decomposed the grid over survivors).

        ``old_n_parts`` is always the *launch-time* group size: checkpoints
        written after an earlier shrink live under a different decomposition
        and are rejected by the remapped restore's shape validation, which
        then falls back to the latest pre-shrink step (or the initial
        condition) — older data, never wrong data."""
        base_n = len(self.base_layout.group_ranks(self.gid))
        if self.grid_comm.size != base_n:
            await restore_checkpoint_remapped(
                self.ctx, self._disk(), self.gid, self.grid_comm,
                self.solver, old_n_parts=base_n, stats=self.cr_stats)
        else:
            await restore_checkpoint(
                self.ctx, self._disk(), self.gid, self.grid_comm,
                self.solver, self.cr_stats)

    def _disk(self) -> Disk:
        if self.cfg.disk is None:
            self.cfg.disk = Disk()
        return self.cfg.disk

    # ------------------------------------------------------------------
    # recovery phase (lost-set already agreed by every rank)
    # ------------------------------------------------------------------
    async def _recovery_phase(self) -> None:
        ctx, cfg = self.ctx, self.cfg
        world = self.world
        await world.barrier()
        t0 = ctx.wtime()
        if self.lost:
            code = self.technique.code
            with ctx.span("recovery", technique=code, gid=self.gid,
                          n_lost=len(self.lost)):
                if code == "CR":
                    await self._cr_recover_simulated()
                elif code == "RC":
                    await self._rc_recover()
                elif code == "AC":
                    # "only the time needed for creating the combination
                    # coefficients ... is used as recovery overhead"
                    await ctx.compute(
                        flops=AC_COEFF_FLOPS * max(1, len(self.lost)))
        await world.barrier()
        self.metrics.t_recovery = ctx.wtime() - t0

    async def _cr_recover_simulated(self) -> None:
        """CR recovery for losses declared at the end of the run (the
        simulated-failure mode of Figs. 9/10): affected grids restore their
        latest checkpoint and recompute up to the final step."""
        if self.gid not in self.lost:
            return
        if self.solver.step_count >= self.cfg.steps and \
                self.cr_stats.recompute_steps:
            return  # already recovered in the segment loop (real failure)
        await self._restore_and_recompute(self.cfg.steps)

    async def _rc_recover(self) -> None:
        """RC recovery: copy a lost grid from its replica, or resample a
        lost lower grid from the finer diagonal grid above it."""
        ctx, cfg = self.ctx, self.cfg
        world = self.world
        plan = self.technique.recovery_plan(self.scheme, self.lost)
        for dst_gid, src_gid in plan:
            if not self.layout.group_ranks(dst_gid) or \
                    not self.layout.group_ranks(src_gid):
                # shrink mode: a grid that lost every process cannot send
                # or receive — the combination proceeds without it
                continue
            src_ix = self.scheme[src_gid].index
            dst_ix = self.scheme[dst_gid].index
            if self.gid == src_gid:
                full = await self.solver.gather_full(0)
                if self.grid_comm.rank == 0:
                    await world.send(full, dest=self.layout.root_rank(dst_gid),
                                     tag=RECOVERY_TAG + dst_gid)
            if self.gid == dst_gid:
                if self.grid_comm.rank == 0:
                    full = await world.recv(
                        source=self.layout.root_rank(src_gid),
                        tag=RECOVERY_TAG + dst_gid)
                    data = restrict_periodic(full, src_ix, dst_ix)
                else:
                    data = None
                await self.solver.scatter_full(data, 0,
                                               step_count=cfg.steps)

    # ------------------------------------------------------------------
    # combination phase
    # ------------------------------------------------------------------
    def _coefficients(self) -> Dict[Tuple[int, int], float]:
        return self.technique.combination_coefficients(self.scheme, self.lost)

    def _contributes(self, coeffs) -> bool:
        """Does this rank's grid supply data to the combination?

        Group roots of grids whose index carries a non-zero coefficient
        contribute — except AC-lost grids, whose data is gone (they receive
        a sample of the combined solution instead).  When an index appears
        twice (diagonal + duplicate), the primary contributes unless lost.
        """
        sub = self.scheme[self.gid]
        if self.grid_comm.rank != 0:
            return False
        if coeffs.get(sub.index, 0.0) == 0.0:
            return False
        if self.technique.code == "AC" and self.gid in self.lost:
            return False
        if sub.role == "duplicate":
            # only step in when the primary copy is lost
            return sub.partner in self.lost
        if self.technique.code == "RC" and self.gid in self.lost:
            # recovered by now, but prefer the replica's pristine copy for
            # diagonal grids; lower grids have no replica so they (being
            # freshly resampled) still contribute
            partner = self.scheme.resample_source(self.gid)
            if partner is not None and self.scheme[partner].role == "duplicate":
                return False
        return True

    async def _combination_phase(self):
        ctx, cfg = self.ctx, self.cfg
        world = self.world
        await world.barrier()
        t0 = ctx.wtime()
        with ctx.span("combine", technique=self.technique.code, gid=self.gid):
            coeffs = self._coefficients()
            self.metrics.coefficients = dict(coeffs)
            nodal = await self.solver.gather_nodal(0)
            parts = {}
            if self._contributes(coeffs) and nodal is not None:
                parts[self.scheme[self.gid].index] = nodal
            combined = await combine_on_root(world, parts, coeffs, cfg.target,
                                             root=0)
            # AC: lost grids receive a sample of the combined solution
            if self.technique.code == "AC" and self.lost:
                wanted = {self.layout.root_rank(g): self.scheme[g].index
                          for g in self.lost
                          if self.layout.group_ranks(g)}
                sample = await scatter_samples(world, combined, cfg.target,
                                               wanted, root=0)
                if self.gid in self.lost:
                    data = periodic_from_nodal(sample) \
                        if self.grid_comm.rank == 0 and sample is not None \
                        else None
                    await self.solver.scatter_full(data, 0,
                                                   step_count=cfg.steps)
        await world.barrier()
        self.metrics.t_combine = ctx.wtime() - t0
        # aggregate per-rank checkpoint accounting on rank 0: wall-clock
        # overheads are the slowest rank's (writes/restores run in parallel)
        stats = await world.gather(
            (self.cr_stats.writes, self.cr_stats.write_time,
             self.cr_stats.read_time, self.cr_stats.recompute_steps), root=0)
        if stats is not None:
            self.cr_stats.writes = max(s[0] for s in stats)
            self.cr_stats.write_time = max(s[1] for s in stats)
            self.cr_stats.read_time = max(s[2] for s in stats)
            self.cr_stats.recompute_steps = max(s[3] for s in stats)
        return combined

    # ------------------------------------------------------------------
    def _finish(self, combined):
        ctx, cfg = self.ctx, self.cfg
        m = self.metrics
        m.absorb_timers(self.timers)
        m.lost_gids = list(self.lost)
        m.real_failures = bool(self.timers.failed_ranks)
        m.checkpoint_writes = self.cr_stats.writes
        m.checkpoint_write_time = self.cr_stats.write_time
        m.checkpoint_read_time = self.cr_stats.read_time
        m.recompute_steps = self.cr_stats.recompute_steps
        m.t_total = ctx.wtime()
        if self.world.rank != 0:
            return None
        t_end = cfg.steps * self.dt
        tx, ty = cfg.target
        xs = axis_points(tx)
        ys = axis_points(ty)
        exact = cfg.problem.exact(xs, ys, t_end)
        m.error_l1 = l1(combined, exact)
        m.error_l2 = l2(combined, exact)
        m.error_linf = linf(combined, exact)
        if cfg.collect_arrays:
            m.combined = combined
        return m
