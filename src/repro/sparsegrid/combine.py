"""Serial combination of sub-grid solutions onto a target grid.

The combination is a hot path: every run ends in `combine_nodal`, and a
sweep executes thousands of runs whose combinations share the same
``(source indices, target)`` shape.  :class:`CombinationPlan` therefore
precomputes, once per shape, one resampling operator per source grid
holding only its O(n) axis index and weight vectors (owned copies of the
memoised axis weights of :mod:`.interpolation`); `combine_nodal` fetches
plans from a bounded cache.  The plan streams the target in cache-sized
row blocks straight into the returned array, forming each block's
bilinear weights on the fly, so no target-sized weight grid or buffer is
ever held.  Every elementwise operation keeps the left-to-right
association of the plan-free expression form, so results are
bit-identical.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from .interpolation import _axis_resample_weights, resample

GridIx = Tuple[int, int]

#: elements per row block of the streamed combination (~128 KB of
#: float64), small enough that a block's temporaries stay in cache
BLOCK_ELEMS = 1 << 14


class _ResampleOp:
    """``values`` on grid ``src`` -> resampled onto ``target``, by rows.

    Keeps only the O(n) axis vectors :func:`.interpolation.resample`
    rebuilds per call: corner indices ``ix0/ix1/iy0/iy1`` and the weights
    ``wx``, ``wy``, ``1-wx``, ``1-wy`` (owned copies, not views of the
    shared memoised axis weights).  ``rows`` forms a block's bilinear
    weights on the fly with `resample`'s products in its left-to-right
    association, so the output is bit-identical.
    """

    _VECTORS = ("_ix0", "_ix1", "_iy0", "_iy1", "_wx", "_wy", "_omx", "_omy")
    __slots__ = ("src", "shape", "_interp") + _VECTORS

    def __init__(self, src: GridIx, target: GridIx):
        fx, fy = src
        tx, ty = target
        self.src = src
        self.shape = ((1 << fx) + 1, (1 << fy) + 1)
        ix0, ix1, wx = _axis_resample_weights(fx, tx)
        iy0, iy1, wy = _axis_resample_weights(fy, ty)
        self._interp = bool(wx.any() or wy.any())
        self._ix0 = ix0.copy()
        self._iy0 = iy0.copy()
        if self._interp:
            self._ix1 = ix1.copy()
            self._iy1 = iy1.copy()
            self._wx = wx[:, None].copy()
            self._wy = wy[None, :].copy()
            self._omx = 1 - self._wx
            self._omy = 1 - self._wy
        for name in self._VECTORS:
            if hasattr(self, name):     # ops are shared cache entries
                getattr(self, name).flags.writeable = False

    def check(self, values: np.ndarray) -> None:
        """Raise ``ValueError`` unless ``values`` lies on grid ``src``."""
        if values.shape != self.shape:
            raise ValueError(
                f"values shape {values.shape} does not match index "
                f"{self.src}")

    def rows(self, values: np.ndarray, r0: int, r1: int) -> np.ndarray:
        """Target rows ``r0:r1`` of ``values`` resampled (a fresh array)."""
        x0 = values[self._ix0[r0:r1]]
        v00 = x0[:, self._iy0]
        if not self._interp:
            return v00
        x1 = values[self._ix1[r0:r1]]
        v10 = x1[:, self._iy0]
        v01 = x0[:, self._iy1]
        v11 = x1[:, self._iy1]
        wx, omx = self._wx[r0:r1], self._omx[r0:r1]
        wy, omy = self._wy, self._omy
        return (omx * omy * v00 + wx * omy * v10 +
                omx * wy * v01 + wx * wy * v11)


@lru_cache(maxsize=32)
def _resample_op(src: GridIx, target: GridIx) -> _ResampleOp:
    return _ResampleOp(src, target)


class CombinationPlan:
    """Precomputed combination for one ``(sources, target)`` shape.

    Holds one :class:`_ResampleOp` per source index and nothing
    target-sized: `combine` streams the target in blocks of about
    :data:`BLOCK_ELEMS` elements, so every temporary stays cache-sized and
    the returned array is the only target-sized allocation.  Coefficients
    stay a per-call input — the AC technique changes them with every
    lost-grid set while the operator shapes stay fixed.
    """

    def __init__(self, sources: Tuple[GridIx, ...], target: GridIx):
        self.sources = tuple(sources)
        self.target = target
        self._ops = {ix: _resample_op(ix, target) for ix in self.sources}
        self.shape = ((1 << target[0]) + 1, (1 << target[1]) + 1)

    def combine(self, parts: Dict[GridIx, np.ndarray],
                coeffs: Dict[GridIx, float]) -> np.ndarray:
        """``sum_k c_k P_target(u_k)`` — returns an owned array.

        Mirrors the plan-free loop exactly: iterate ``coeffs`` in order,
        skip zero coefficients, require a part for every non-zero one;
        each row block is accumulated term by term in that order.
        """
        terms = []
        for ix, c in coeffs.items():
            if c == 0.0:
                continue
            if ix not in parts:
                raise KeyError(f"combination needs grid {ix} but it is "
                               f"missing")
            op = self._ops.get(ix)
            if op is None:      # coefficient outside the planned sources
                op = _resample_op(ix, self.target)
            op.check(parts[ix])
            terms.append((c, op, parts[ix]))
        if not terms:
            raise ValueError("no non-zero coefficients")
        out = np.empty(self.shape)
        nrows, ncols = self.shape
        step = max(1, BLOCK_ELEMS // ncols)
        (c0, op0, v0), rest = terms[0], terms[1:]
        for r0 in range(0, nrows, step):
            r1 = min(r0 + step, nrows)
            acc = out[r0:r1]
            np.multiply(op0.rows(v0, r0, r1), c0, out=acc)
            for c, op, values in rest:
                acc += c * op.rows(values, r0, r1)
        return out


@lru_cache(maxsize=8)
def _plan(sources: Tuple[GridIx, ...], target: GridIx) -> CombinationPlan:
    return CombinationPlan(sources, target)


def combination_plan(sources, target: GridIx) -> CombinationPlan:
    """The cached plan for the given source indices (order-insensitive)."""
    return _plan(tuple(sorted(set(sources))), target)


def clear_plan_caches() -> None:
    """Drop the plan/operator caches (tests, or to release the O(n) axis
    vectors the cached operators hold)."""
    _plan.cache_clear()
    _resample_op.cache_clear()


def combine_nodal(parts: Dict[GridIx, np.ndarray],
                  coeffs: Dict[GridIx, float],
                  target: GridIx) -> np.ndarray:
    """``sum_k c_k P_target(u_k)`` — the sparse grid combination (Eq. 1).

    ``parts`` maps grid index -> nodal values; every index with a non-zero
    coefficient must be present.  Returns a fresh array the caller owns.
    """
    sources = [ix for ix, c in coeffs.items() if c != 0.0]
    if not sources:
        raise ValueError("no non-zero coefficients")
    return combination_plan(sources, target).combine(parts, coeffs)


def combine_nodal_reference(parts: Dict[GridIx, np.ndarray],
                            coeffs: Dict[GridIx, float],
                            target: GridIx) -> np.ndarray:
    """The plan-free combination loop (kept as the oracle the plan must
    match bit-for-bit; see ``tests/sparsegrid/test_combine.py``)."""
    out: Optional[np.ndarray] = None
    for ix, c in coeffs.items():
        if c == 0.0:
            continue
        if ix not in parts:
            raise KeyError(f"combination needs grid {ix} but it is missing")
        term = resample(parts[ix], ix, target)
        out = c * term if out is None else out + c * term
    if out is None:
        raise ValueError("no non-zero coefficients")
    return out


def combination_interpolant(fn, coeffs: Dict[GridIx, float],
                            target: GridIx) -> np.ndarray:
    """Combination of *interpolants of a function* (used by tests: for
    f in the union sparse-grid space the result is exact on target nodes)."""
    from .interpolation import nodal_of
    parts = {ix: nodal_of(fn, ix) for ix in coeffs}
    return combine_nodal(parts, coeffs, target)
