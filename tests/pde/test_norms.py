"""The fused error norms match the single-norm functions bit for bit."""

import numpy as np

from repro.pde import l1, l2, linf
from repro.pde.norms import error_norms


def test_error_norms_bit_identical_to_single_norms():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((33, 17))
    b = rng.standard_normal((33, 17))
    b[0, :] = a[0, :]           # exact zeros in the difference
    expected = (l1(a, b), l2(a, b), linf(a, b))
    a_before = a.copy()
    assert error_norms(a, b.copy()) == expected
    assert np.array_equal(a, a_before)  # only the scratch is overwritten
