"""Grid-function norms used for the accuracy experiments (Fig. 10)."""

from __future__ import annotations

import numpy as np


def l1(a: np.ndarray, b: np.ndarray = None) -> float:
    """Grid-averaged l1 norm of ``a`` (or of ``a - b``).

    The paper reports "the average of the l1-norm of the difference between
    the combined grid solution and exact analytical solution".
    """
    d = a if b is None else a - b
    return float(np.mean(np.abs(d)))


def l2(a: np.ndarray, b: np.ndarray = None) -> float:
    d = a if b is None else a - b
    return float(np.sqrt(np.mean(d * d)))


def linf(a: np.ndarray, b: np.ndarray = None) -> float:
    d = a if b is None else a - b
    return float(np.max(np.abs(d)))


def error_norms(a: np.ndarray, b: np.ndarray) -> tuple:
    """``(l1, l2, linf)`` of ``a - b``, overwriting ``b`` as scratch.

    One difference and one ``abs`` in ``b``'s buffer instead of a pair of
    temporaries per norm; bit-identical to ``l1/l2/linf(a, b)`` since
    ``|d|*|d| == d*d`` exactly.
    """
    d = np.subtract(a, b, out=b)
    np.abs(d, out=d)
    e1 = float(np.mean(d))
    einf = float(np.max(d))
    np.multiply(d, d, out=d)
    return e1, float(np.sqrt(np.mean(d))), einf
