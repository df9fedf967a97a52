"""Vectorised 2D Lax–Wendroff stepper for constant-coefficient advection.

The scheme is second order in space and time:

.. math::

    u^{n+1} = u - \\tfrac{c_x}{2}\\delta_x u - \\tfrac{c_y}{2}\\delta_y u
            + \\tfrac{c_x^2}{2}\\delta_x^2 u + \\tfrac{c_y^2}{2}\\delta_y^2 u
            + \\tfrac{c_x c_y}{4}\\delta_{xy} u

with Courant numbers :math:`c_x = a\\,\\Delta t/\\Delta x`,
:math:`c_y = b\\,\\Delta t/\\Delta y`.  Periodic arrays are stored *without*
the duplicated right/top boundary (shape ``2^i × 2^j``); ``nodal_view``
re-attaches it for the combination technique, whose nodal grids are
``(2^i+1) × (2^j+1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

#: flop estimate per grid point per step, used by the virtual-time model
FLOPS_PER_POINT = 24.0


def periodic_from_initial(problem, level_x: int, level_y: int) -> np.ndarray:
    """Initial condition as a periodic array of shape ``(2^i, 2^j)``."""
    return initial_slab(problem, level_x, level_y)


def initial_slab(problem, level_x: int, level_y: int,
                 rows: Optional[Tuple[int, int]] = None,
                 cols: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """The ``rows x cols`` block of the periodic initial condition.

    ``rows``/``cols`` are half-open index ranges (None: the whole axis).
    The initial condition is evaluated on the block's points only, so a
    rank never builds the whole sub-grid; the values are bit-identical to
    slicing :func:`periodic_from_initial`.  The block owns its memory.
    """
    nx, ny = 1 << level_x, 1 << level_y
    xlo, xhi = rows or (0, nx)
    ylo, yhi = cols or (0, ny)
    xs = np.arange(xlo, xhi) / nx
    ys = np.arange(ylo, yhi) / ny
    u = problem.initial(xs[:, None], ys[None, :])
    if u.base is not None or not u.flags.c_contiguous:
        u = u.copy()
    return u


def nodal_view(u: np.ndarray) -> np.ndarray:
    """Append the wrapped boundary: ``(nx, ny)`` -> ``(nx+1, ny+1)``."""
    out = np.empty((u.shape[0] + 1, u.shape[1] + 1), dtype=u.dtype)
    out[:-1, :-1] = u
    out[-1, :-1] = u[0, :]
    out[:-1, -1] = u[:, 0]
    out[-1, -1] = u[0, 0]
    return out


def periodic_from_nodal(nodal: np.ndarray) -> np.ndarray:
    """Inverse of :func:`nodal_view` (drops the duplicated boundary)."""
    return np.ascontiguousarray(nodal[:-1, :-1])


def courant_numbers(velocity: Tuple[float, float], level_x: int, level_y: int,
                    dt: float) -> Tuple[float, float]:
    a, b = velocity
    return a * dt * (1 << level_x), b * dt * (1 << level_y)


def lw_step_periodic(u: np.ndarray, cx: float, cy: float) -> np.ndarray:
    """One Lax–Wendroff step on a fully periodic array (no halos)."""
    uxp = np.roll(u, -1, axis=0)
    uxm = np.roll(u, 1, axis=0)
    uyp = np.roll(u, -1, axis=1)
    uym = np.roll(u, 1, axis=1)
    uxpyp = np.roll(uxp, -1, axis=1)
    uxpym = np.roll(uxp, 1, axis=1)
    uxmyp = np.roll(uxm, -1, axis=1)
    uxmym = np.roll(uxm, 1, axis=1)
    return (u
            - 0.5 * cx * (uxp - uxm)
            - 0.5 * cy * (uyp - uym)
            + 0.5 * cx * cx * (uxp - 2.0 * u + uxm)
            + 0.5 * cy * cy * (uyp - 2.0 * u + uym)
            + 0.25 * cx * cy * (uxpyp - uxpym - uxmyp + uxmym))


def lw_step_interior(w: np.ndarray, cx: float, cy: float) -> np.ndarray:
    """One step on the interior of a halo-padded block ``w``.

    ``w`` has one ghost layer on every side (already exchanged); the result
    has shape ``w.shape - 2`` and is the update of ``w[1:-1, 1:-1]``.
    """
    u = w[1:-1, 1:-1]
    uxp = w[2:, 1:-1]
    uxm = w[:-2, 1:-1]
    uyp = w[1:-1, 2:]
    uym = w[1:-1, :-2]
    uxpyp = w[2:, 2:]
    uxpym = w[2:, :-2]
    uxmyp = w[:-2, 2:]
    uxmym = w[:-2, :-2]
    return (u
            - 0.5 * cx * (uxp - uxm)
            - 0.5 * cy * (uyp - uym)
            + 0.5 * cx * cx * (uxp - 2.0 * u + uxm)
            + 0.5 * cy * cy * (uyp - 2.0 * u + uym)
            + 0.25 * cx * cy * (uxpyp - uxpym - uxmyp + uxmym))


# ----------------------------------------------------------------------
# allocation-free kernel variants
#
# The expression kernels above allocate ~10 temporaries per step (8 of them
# from np.roll in the periodic case).  The ``*_into`` variants below write
# into caller-owned buffers instead, so a time loop allocates nothing.
# They are *bit-identical* to the expression kernels: every elementwise
# operation is issued in the same left-to-right association as the original
# expression, so IEEE-754 rounding happens in exactly the same order.
# ----------------------------------------------------------------------
def fill_periodic_halo(u: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Copy ``u`` into the interior of the ``(nx+2, ny+2)`` buffer ``work``
    and fill the ghost layer (corners included) by periodic wrap-around."""
    work[1:-1, 1:-1] = u
    work[0, 1:-1] = u[-1, :]
    work[-1, 1:-1] = u[0, :]
    work[:, 0] = work[:, -2]
    work[:, -1] = work[:, 1]
    return work


def lw_step_interior_into(w: np.ndarray, cx: float, cy: float,
                          out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Allocation-free :func:`lw_step_interior`.

    ``out`` and ``scratch`` have the interior shape ``w.shape - 2`` and are
    overwritten; ``out`` is returned.  ``out``/``scratch`` must not overlap
    ``w`` (``out`` *may* alias the array the caller copied into ``w``).
    Results are bit-identical to :func:`lw_step_interior`.
    """
    u = w[1:-1, 1:-1]
    uxp = w[2:, 1:-1]
    uxm = w[:-2, 1:-1]
    uyp = w[1:-1, 2:]
    uym = w[1:-1, :-2]
    ax = 0.5 * cx
    ay = 0.5 * cy
    axx = 0.5 * cx * cx
    ayy = 0.5 * cy * cy
    axy = 0.25 * cx * cy
    t = scratch
    # u - 0.5*cx*(uxp - uxm)
    np.subtract(uxp, uxm, out=t)
    t *= ax
    np.subtract(u, t, out=out)
    # ... - 0.5*cy*(uyp - uym)
    np.subtract(uyp, uym, out=t)
    t *= ay
    out -= t
    # ... + 0.5*cx*cx*(uxp - 2.0*u + uxm)
    np.multiply(2.0, u, out=t)
    np.subtract(uxp, t, out=t)
    t += uxm
    t *= axx
    out += t
    # ... + 0.5*cy*cy*(uyp - 2.0*u + uym)
    np.multiply(2.0, u, out=t)
    np.subtract(uyp, t, out=t)
    t += uym
    t *= ayy
    out += t
    # ... + 0.25*cx*cy*(uxpyp - uxpym - uxmyp + uxmym)
    np.subtract(w[2:, 2:], w[2:, :-2], out=t)
    t -= w[:-2, 2:]
    t += w[:-2, :-2]
    t *= axy
    out += t
    return out


def lw_step_periodic_into(u: np.ndarray, cx: float, cy: float,
                          out: np.ndarray, work: np.ndarray,
                          scratch: np.ndarray) -> np.ndarray:
    """Allocation-free :func:`lw_step_periodic`.

    ``work`` is a ``(nx+2, ny+2)`` halo buffer; ``out`` and ``scratch``
    have the shape of ``u``.  ``out`` may alias ``u`` (the state is staged
    through ``work`` before ``out`` is written).  Bit-identical to
    :func:`lw_step_periodic`.
    """
    fill_periodic_halo(u, work)
    return lw_step_interior_into(work, cx, cy, out, scratch)


@dataclass
class SerialAdvectionSolver:
    """Single-process reference solver on one anisotropic sub-grid.

    Despite the historical name this solver is problem-generic: it drives
    whatever ``step_periodic`` kernel the problem object provides
    (Lax–Wendroff advection, FTCS diffusion, ...).
    """

    problem: object
    level_x: int
    level_y: int
    dt: float

    def __post_init__(self):
        self.u = periodic_from_initial(self.problem, self.level_x, self.level_y)
        self.step_count = 0
        # persistent buffers for the allocation-free kernel path (lazily
        # sized on first step; unused for problems without into-kernels)
        self._buf_a = self._buf_b = self._work = self._scratch = None

    @property
    def time(self) -> float:
        return self.step_count * self.dt

    def step(self, n: int = 1) -> None:
        if getattr(self.problem, "inplace_kernels", False):
            if self._buf_a is None:
                nx, ny = self.u.shape
                self._buf_a = np.empty_like(self.u)
                self._buf_b = np.empty_like(self.u)
                self._work = np.empty((nx + 2, ny + 2), dtype=self.u.dtype)
                self._scratch = np.empty_like(self.u)
            for _ in range(n):
                # double buffer: write into whichever private buffer the
                # state does not currently occupy (never into a caller-
                # assigned array)
                out = self._buf_b if self.u is self._buf_a else self._buf_a
                self.problem.step_periodic(
                    self.u, self.level_x, self.level_y, self.dt,
                    out=out, work=self._work, scratch=self._scratch)
                self.u = out
                self.step_count += 1
            return
        for _ in range(n):
            self.u = self.problem.step_periodic(
                self.u, self.level_x, self.level_y, self.dt)
            self.step_count += 1

    def nodal(self) -> np.ndarray:
        return nodal_view(self.u)

    def exact_nodal(self) -> np.ndarray:
        nx, ny = 1 << self.level_x, 1 << self.level_y
        xs = np.arange(nx + 1) / nx
        ys = np.arange(ny + 1) / ny
        return self.problem.exact(xs, ys, self.time)
