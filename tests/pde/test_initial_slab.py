"""Each rank builds only its own slab of the initial condition.

``initial_slab`` evaluates the problem's initial condition on the rank's
block alone: bit-identical to slicing the whole grid, owned by the rank
(no view pinning a whole-grid array), and cheap enough that building a
solver allocates little more than the slab itself.
"""

import contextlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.ft.checkpoint import restore_checkpoint, restore_checkpoint_remapped
from repro.pde import (AdvectionProblem, DiffusionProblem, gaussian_hump,
                       initial_slab, periodic_from_initial)
from repro.pde.parallel_solver import DistributedAdvectionSolver
from repro.pde.parallel_solver2d import Distributed2DAdvectionSolver

PROBLEMS = [AdvectionProblem(), AdvectionProblem(initial=gaussian_hump),
            DiffusionProblem(kx=2, ky=3)]


def slab_solver(problem, level_x, level_y, rank, size):
    comm = SimpleNamespace(rank=rank, size=size)
    return DistributedAdvectionSolver(None, comm, problem, level_x, level_y,
                                      dt=1e-3)


def block_solver(problem, level_x, level_y, coords, dims):
    cart = SimpleNamespace(coords=coords, dims=dims)
    return Distributed2DAdvectionSolver(None, cart, problem, level_x,
                                        level_y, dt=1e-3)


def cut(full, solver):
    """The solver's block, sliced out of the whole grid."""
    rows, cols = solver.block
    return full[slice(*rows) if rows else slice(None),
                slice(*cols) if cols else slice(None)]


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("levels", [(6, 4), (3, 7)], ids=["axis0", "axis1"])
def test_slab_matches_slicing_the_whole_grid(problem, levels):
    full = periodic_from_initial(problem, *levels)
    size = 5                        # uneven slabs
    for rank in range(size):
        solver = slab_solver(problem, *levels, rank, size)
        assert solver.axis == (0 if levels[0] >= levels[1] else 1)
        assert np.array_equal(solver.u, cut(full, solver))
        assert solver.u.base is None and solver.u.flags.c_contiguous


@pytest.mark.parametrize("problem", PROBLEMS)
def test_block_matches_slicing_the_whole_grid(problem):
    full = periodic_from_initial(problem, 5, 6)
    dims = (3, 2)
    for cx in range(dims[0]):
        for cy in range(dims[1]):
            solver = block_solver(problem, 5, 6, (cx, cy), dims)
            assert np.array_equal(solver.u, cut(full, solver))
            assert solver.u.base is None


def test_slab_helper_owns_its_data():
    problem = AdvectionProblem()
    full = periodic_from_initial(problem, 4, 5)
    u = initial_slab(problem, 4, 5, rows=(3, 9))
    assert np.array_equal(u, full[3:9, :]) and u.base is None
    u = initial_slab(problem, 4, 5, cols=(2, 7))
    assert np.array_equal(u, full[:, 2:7]) and u.flags.c_contiguous
    assert np.array_equal(initial_slab(problem, 4, 5), full)


#: one rank's solver of a 2048x1024 (or 1024x2048) grid over 16 ranks:
#: a 1 MB slab, large next to numpy's fixed ~128 KB broadcast buffers
BUILDS = {
    "1d-axis0": lambda p: slab_solver(p, 11, 10, 3, 16),
    "1d-axis1": lambda p: slab_solver(p, 10, 11, 3, 16),
    "2d": lambda p: block_solver(p, 11, 10, (1, 2), (4, 4)),
}


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_building_a_solver_allocates_about_its_slab(build):
    """Peak allocation while building one rank's solver stays within 2x
    its slab: the whole grid (16x the slab) is never built."""
    problem = AdvectionProblem()
    BUILDS[build](problem)          # warm imports and caches
    tracemalloc.start()
    try:
        solver = BUILDS[build](problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * solver.u.nbytes, (peak, solver.u.nbytes)


# ----------------------------------------------------------------------
# CR restore from step 0 rebuilds the slab the same way
# ----------------------------------------------------------------------
class _Ctx:
    def span(self, *_a, **_k):
        return contextlib.nullcontext()

    async def disk_read(self, nbytes):
        return 0.0


class _GridComm:
    def __init__(self, rank):
        self.rank = rank

    async def allreduce(self, value, op=None):
        return value


class _EmptyDisk:
    def latest_step(self, gid, rank):
        return None

    def available_steps(self, gid, rank):
        return []


def _drive(coro):
    try:
        coro.send(None)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("restore awaited something unexpected")


@pytest.mark.parametrize("remapped", [False, True])
def test_restore_from_step_zero_owns_its_slab(remapped):
    problem = AdvectionProblem()
    full = periodic_from_initial(problem, 6, 4)
    solver = slab_solver(problem, 6, 4, 2, 4)
    solver.u = np.zeros_like(solver.u)
    solver.step_count = 7
    comm = _GridComm(2)
    if remapped:
        coro = restore_checkpoint_remapped(_Ctx(), _EmptyDisk(), 0, comm,
                                           solver, old_n_parts=5)
    else:
        coro = restore_checkpoint(_Ctx(), _EmptyDisk(), 0, comm, solver)
    assert _drive(coro) == 0
    assert solver.step_count == 0
    assert np.array_equal(solver.u, cut(full, solver))
    assert solver.u.base is None
