"""2D-block domain-decomposed Lax–Wendroff solver.

The alternative to the slab solver: the sub-grid is split over a Cartesian
``px x py`` process grid.  Halos (including the corner values the cross
term needs) are exchanged with the standard two-phase scheme: first along
x with interior columns, then along y with full rows — the second phase
carries the freshly received x-ghosts, so corners arrive without diagonal
messages.

Exposes the same interface as
:class:`~repro.pde.parallel_solver.DistributedAdvectionSolver` so the
application can switch decompositions via configuration.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..mpi.cart import CartHandle, create_cart, dims_create
from .decomposition import SlabDecomposition
from .lax_wendroff import FLOPS_PER_POINT, initial_slab, nodal_view

_TAG_XLO = 201
_TAG_XHI = 202
_TAG_YLO = 203
_TAG_YHI = 204


def choose_dims(n_procs: int, level_x: int, level_y: int) -> Tuple[int, int]:
    """Process-grid shape: balanced factors, the larger along the larger
    grid axis, clipped so no axis is over-decomposed."""
    px, py = dims_create(n_procs, 2)
    if (level_x >= level_y) != (px >= py):
        px, py = py, px
    # never split an axis into more parts than it has points
    nx, ny = 1 << level_x, 1 << level_y
    while px > nx:
        if px % 2:
            raise ValueError(f"cannot fit {n_procs} procs on grid "
                             f"({level_x},{level_y})")
        px //= 2
        py *= 2
    while py > ny:
        if py % 2:
            raise ValueError(f"cannot fit {n_procs} procs on grid "
                             f"({level_x},{level_y})")
        py //= 2
        px *= 2
    return px, py


class Distributed2DAdvectionSolver:
    """Block-decomposed solver over a Cartesian process grid."""

    def __init__(self, ctx, cart: CartHandle, problem, level_x: int,
                 level_y: int, dt: float, compute_scale: float = 1.0):
        self.ctx = ctx
        self.comm = cart
        self.problem = problem
        self.level_x = level_x
        self.level_y = level_y
        self.dt = dt
        self.compute_scale = compute_scale
        px, py = cart.dims
        self.decomp_x = SlabDecomposition(1 << level_x, px, 0)
        self.decomp_y = SlabDecomposition(1 << level_y, py, 1)
        self.step_count = 0
        cx_, cy_ = cart.coords
        self._xlo, self._xhi = self.decomp_x.bounds(cx_)
        self._ylo, self._yhi = self.decomp_y.bounds(cy_)
        self.u = initial_slab(problem, level_x, level_y, *self.block)
        # persistent step buffers (lazily sized; only used when the problem
        # provides allocation-free kernels)
        self._w = self._buf_a = self._buf_b = self._scratch = None

    # ------------------------------------------------------------------
    @classmethod
    async def create(cls, ctx, comm, problem, level_x: int, level_y: int,
                     dt: float, compute_scale: float = 1.0
                     ) -> "Distributed2DAdvectionSolver":
        """Build the Cartesian topology and the solver (collective)."""
        dims = choose_dims(comm.size, level_x, level_y)
        cart = await create_cart(comm, dims, (True, True))
        return cls(ctx, cart, problem, level_x, level_y, dt, compute_scale)

    @property
    def time(self) -> float:
        return self.step_count * self.dt

    @property
    def shape(self):
        return (1 << self.level_x, 1 << self.level_y)

    @property
    def block(self):
        """This rank's ``(rows, cols)`` index ranges of the sub-grid."""
        return (self._xlo, self._xhi), (self._ylo, self._yhi)

    # ------------------------------------------------------------------
    async def exchange_halos(self) -> np.ndarray:
        """Two-phase halo exchange into a persistent padded buffer.

        Halo rows/columns are sent with ``copy=False``: the ``.copy()``
        already hands over a private buffer, so the MPI layer skips its
        own clone (the receiver sees a read-only view).
        """
        comm = self.comm
        u = self.u
        nxl, nyl = u.shape
        w = self._w
        if w is None or w.shape != (nxl + 2, nyl + 2):
            w = self._w = np.empty((nxl + 2, nyl + 2), dtype=u.dtype)
        w[1:-1, 1:-1] = u
        px, py = comm.dims

        # phase 1: x-direction, interior columns only
        prev_x, next_x = comm.shift(0, 1)
        if px == 1:
            w[0, 1:-1] = u[-1, :]
            w[-1, 1:-1] = u[0, :]
        else:
            ghosts = await comm.exchange(
                ((prev_x, _TAG_XLO, u[0, :].copy()),
                 (next_x, _TAG_XHI, u[-1, :].copy())),
                ((prev_x, _TAG_XHI), (next_x, _TAG_XLO)),
                copy=False)
            w[0, 1:-1] = ghosts[0]
            w[-1, 1:-1] = ghosts[1]

        # phase 2: y-direction, full rows (including x-ghosts -> corners)
        prev_y, next_y = comm.shift(1, 1)
        if py == 1:
            w[:, 0] = w[:, -2]
            w[:, -1] = w[:, 1]
        else:
            ghosts = await comm.exchange(
                ((prev_y, _TAG_YLO, w[:, 1].copy()),
                 (next_y, _TAG_YHI, w[:, -2].copy())),
                ((prev_y, _TAG_YHI), (next_y, _TAG_YLO)),
                copy=False)
            w[:, 0] = ghosts[0]
            w[:, -1] = ghosts[1]
        return w

    async def step(self, n: int = 1) -> None:
        inplace = getattr(self.problem, "inplace_kernels", False)
        for _ in range(n):
            w = await self.exchange_halos()
            if inplace:
                if self._buf_a is None or self._buf_a.shape != self.u.shape:
                    self._buf_a = np.empty_like(self.u)
                    self._buf_b = np.empty_like(self.u)
                    self._scratch = np.empty_like(self.u)
                # double buffer: write into whichever private buffer the
                # state does not currently occupy
                out = self._buf_b if self.u is self._buf_a else self._buf_a
                self.problem.step_interior(w, self.level_x, self.level_y,
                                           self.dt, out=out,
                                           scratch=self._scratch)
                self.u = out
            else:
                self.u = self.problem.step_interior(w, self.level_x,
                                                    self.level_y, self.dt)
            self.step_count += 1
            await self.ctx.compute(
                flops=FLOPS_PER_POINT * self.u.size * self.compute_scale)

    # ------------------------------------------------------------------
    # state motion (same interface as the slab solver)
    # ------------------------------------------------------------------
    def _block_of(self, full: np.ndarray, rank: int) -> np.ndarray:
        cx_, cy_ = self.comm.coords_of(rank)
        xlo, xhi = self.decomp_x.bounds(cx_)
        ylo, yhi = self.decomp_y.bounds(cy_)
        return np.ascontiguousarray(full[xlo:xhi, ylo:yhi])

    async def gather_full(self, root: int = 0) -> Optional[np.ndarray]:
        parts = await self.comm.gather(self.u, root=root)
        if parts is None:
            return None
        nx, ny = self.shape
        full = np.empty((nx, ny), dtype=self.u.dtype)
        for rank, block in enumerate(parts):
            cx_, cy_ = self.comm.coords_of(rank)
            xlo, xhi = self.decomp_x.bounds(cx_)
            ylo, yhi = self.decomp_y.bounds(cy_)
            full[xlo:xhi, ylo:yhi] = block
        return full

    async def gather_nodal(self, root: int = 0) -> Optional[np.ndarray]:
        full = await self.gather_full(root)
        return None if full is None else nodal_view(full)

    async def scatter_full(self, full: Optional[np.ndarray], root: int = 0,
                           step_count: Optional[int] = None) -> None:
        if self.comm.rank == root:
            chunks = [self._block_of(full, r) for r in range(self.comm.size)]
        else:
            chunks = None
        self.u = await self.comm.scatter(chunks, root=root)
        if step_count is not None:
            self.step_count = step_count

    def rebind(self, new_comm) -> None:
        if new_comm.size != self.comm.size or new_comm.rank != self.comm.rank:
            raise ValueError("replacement communicator must preserve "
                             "size and rank")
        if isinstance(new_comm, CartHandle):
            self.comm = new_comm
        else:
            self.comm = CartHandle(new_comm.state, new_comm.proc,
                                   self.comm.dims, self.comm.periods)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {"u": self.u.copy(), "step_count": self.step_count,
                "level_x": self.level_x, "level_y": self.level_y}

    def restore(self, snap: dict) -> None:
        if (snap["level_x"], snap["level_y"]) != (self.level_x, self.level_y):
            raise ValueError("checkpoint is for a different sub-grid")
        self.u = snap["u"].copy()
        self.step_count = snap["step_count"]
