"""Serial and parallel combination."""

import numpy as np
import pytest

from repro.pde import AdvectionProblem, SerialAdvectionSolver, l1
from repro.sparsegrid import (CombinationScheme, axis_points, combine_nodal,
                              combine_on_root, nodal_of, scatter_samples)

from ..conftest import run_ranks as run


def classic_parts_and_coeffs(n=6, level=4, steps=8):
    prob = AdvectionProblem()
    scheme = CombinationScheme(n, level)
    dt = prob.stable_dt(n)
    parts, coeffs = {}, {}
    for g in scheme.grids:
        s = SerialAdvectionSolver(prob, g.level_x, g.level_y, dt)
        s.step(steps)
        parts[g.index] = s.nodal()
        coeffs[g.index] = g.coeff
    return prob, parts, coeffs, steps * dt


def test_combination_beats_coarsest_grid():
    prob, parts, coeffs, t = classic_parts_and_coeffs()
    target = (6, 6)
    combined = combine_nodal(parts, coeffs, target)
    xs = axis_points(6)
    exact = prob.exact(xs, xs, t)
    err_comb = l1(combined, exact)
    # each individual anisotropic grid is worse than the combination
    worst = max(l1(np.asarray(
        __import__("repro.sparsegrid", fromlist=["resample"]).resample(
            parts[ix], ix, target)), exact) for ix in parts)
    assert err_comb < worst


def test_missing_grid_raises():
    prob, parts, coeffs, _ = classic_parts_and_coeffs()
    missing = next(iter(parts))
    del parts[missing]
    with pytest.raises(KeyError):
        combine_nodal(parts, coeffs, (6, 6))


def test_zero_coefficient_grid_not_needed():
    prob, parts, coeffs, _ = classic_parts_and_coeffs()
    some = next(iter(parts))
    coeffs[some] = 0.0
    del parts[some]
    combine_nodal(parts, coeffs, (6, 6))  # must not raise


def test_all_zero_coefficients_rejected():
    with pytest.raises(ValueError):
        combine_nodal({}, {(1, 1): 0.0}, (2, 2))


def test_combination_of_interpolants_exact_for_constant():
    coeffs = {(2, 4): 1.0, (4, 2): 1.0, (2, 2): -1.0}
    parts = {ix: np.full(((1 << ix[0]) + 1, (1 << ix[1]) + 1), 2.5)
             for ix in coeffs}
    out = combine_nodal(parts, coeffs, (5, 5))
    assert np.allclose(out, 2.5)


def test_parallel_combine_matches_serial():
    prob, parts, coeffs, _ = classic_parts_and_coeffs()
    serial = combine_nodal(parts, coeffs, (6, 6))
    indices = sorted(parts)

    async def main(ctx):
        mine = {}
        if ctx.rank < len(indices):
            ix = indices[ctx.rank]
            mine[ix] = parts[ix]
        return await combine_on_root(ctx.comm, mine, coeffs, (6, 6), root=0)

    res, _ = run(len(indices) + 2, main)
    assert np.allclose(res[0], serial)
    assert all(r is None for r in res[1:])


def test_parallel_combine_duplicate_contributions_first_wins():
    coeffs = {(2, 2): 1.0}
    a = np.zeros((5, 5))
    b = np.ones((5, 5))

    async def main(ctx):
        mine = {(2, 2): a} if ctx.rank == 0 else {(2, 2): b}
        return await combine_on_root(ctx.comm, mine, coeffs, (2, 2), root=0)

    res, _ = run(2, main)
    assert np.allclose(res[0], 0.0)


def test_scatter_samples_delivers_requested_grids():
    combined = nodal_of(lambda x, y: x + 2 * y, (4, 4))

    async def main(ctx):
        wanted = {1: (2, 2), 2: (3, 2)}
        sample = await scatter_samples(
            ctx.comm, combined if ctx.rank == 0 else None, (4, 4), wanted,
            root=0)
        return None if sample is None else sample.shape

    res, _ = run(3, main)
    assert res[0] is None
    assert res[1] == (5, 5)
    assert res[2] == (9, 5)


# ----------------------------------------------------------------------
# the precomputed combination plan
# ----------------------------------------------------------------------

def test_plan_bit_identical_to_reference():
    """The cached plan must reproduce the plan-free loop to the last bit
    — the sweep engine's determinism guarantee rests on this."""
    from repro.sparsegrid import combine_nodal_reference
    prob, parts, coeffs, _ = classic_parts_and_coeffs()
    for target in ((6, 6), (5, 5), (7, 6)):
        ref = combine_nodal_reference(parts, coeffs, target)
        out = combine_nodal(parts, coeffs, target)
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)  # exact, not allclose


def test_plan_bit_identical_with_alternate_coefficients():
    """AC-style coefficient sets (zeros, negatives, reweighted grids)
    exercise the zero-skip and ordering paths."""
    from repro.sparsegrid import (CombinationScheme,
                                  alternate_coefficients_for,
                                  combine_nodal_reference, nodal_of)
    scheme = CombinationScheme(6, 4, extra_layers=2)
    coeffs = alternate_coefficients_for(scheme, {1, 4})
    parts = {ix: nodal_of(lambda x, y: np.sin(x + 2 * y), ix)
             for ix in coeffs}
    ref = combine_nodal_reference(parts, coeffs, (6, 6))
    out = combine_nodal(parts, coeffs, (6, 6))
    assert np.array_equal(out, ref)


def test_plan_is_cached_and_buffers_not_aliased():
    from repro.sparsegrid import combination_plan
    prob, parts, coeffs, _ = classic_parts_and_coeffs()
    sources = [ix for ix, c in coeffs.items() if c != 0.0]
    p1 = combination_plan(sources, (6, 6))
    p2 = combination_plan(list(reversed(sources)), (6, 6))
    assert p1 is p2  # order-insensitive cache key
    a = combine_nodal(parts, coeffs, (6, 6))
    b = combine_nodal(parts, coeffs, (6, 6))
    assert a is not b  # owned result, not the plan's accumulator
    assert np.array_equal(a, b)


def test_plan_error_parity_with_reference():
    from repro.sparsegrid import combine_nodal_reference
    prob, parts, coeffs, _ = classic_parts_and_coeffs()
    missing = next(iter(parts))
    bad = dict(parts)
    del bad[missing]
    for fn in (combine_nodal, combine_nodal_reference):
        with pytest.raises(KeyError):
            fn(bad, coeffs, (6, 6))
        with pytest.raises(ValueError):
            fn({}, {(1, 1): 0.0}, (2, 2))


def test_plan_handles_coefficient_outside_planned_sources():
    """combine() with a coefficient set wider than the plan's sources
    falls back to an on-the-fly operator for the extra index."""
    from repro.sparsegrid import combination_plan, nodal_of
    plan = combination_plan([(3, 3)], (4, 4))
    parts = {ix: nodal_of(lambda x, y: x * y, ix)
             for ix in ((3, 3), (2, 2))}
    out = plan.combine(parts, {(3, 3): 1.0, (2, 2): -1.0})
    from repro.sparsegrid import combine_nodal_reference
    ref = combine_nodal_reference(parts, {(3, 3): 1.0, (2, 2): -1.0}, (4, 4))
    assert np.array_equal(out, ref)


# ----------------------------------------------------------------------
# the row-block streamed combination
# ----------------------------------------------------------------------

def _random_parts(coeffs, seed=0):
    rng = np.random.default_rng(seed)
    return {ix: rng.standard_normal(((1 << ix[0]) + 1, (1 << ix[1]) + 1))
            for ix in coeffs}


def _classic_coeffs(n, level=4):
    return {g.index: g.coeff for g in CombinationScheme(n, level).grids}


def _block_rows(target):
    from repro.sparsegrid.combine import BLOCK_ELEMS
    return max(1, BLOCK_ELEMS // ((1 << target[1]) + 1))


def _assert_blocked_matches_reference(coeffs, target, seed=0):
    from repro.sparsegrid import combine_nodal_reference
    parts = _random_parts(coeffs, seed)
    ref = combine_nodal_reference(parts, coeffs, target)
    out = combine_nodal(parts, coeffs, target)
    assert out.dtype == ref.dtype
    assert np.array_equal(out, ref)  # exact, not allclose


def test_blocked_rows_not_a_multiple_of_block_rows():
    target = (8, 8)
    rows = (1 << target[0]) + 1
    assert rows % _block_rows(target) != 0
    _assert_blocked_matches_reference(_classic_coeffs(9), target)


def test_blocked_target_narrower_than_one_block():
    from repro.sparsegrid.combine import BLOCK_ELEMS
    target = (4, 4)
    assert ((1 << 4) + 1) ** 2 < BLOCK_ELEMS
    _assert_blocked_matches_reference(_classic_coeffs(6), target)


def test_blocked_target_with_more_rows_than_one_block():
    target = (10, 9)
    assert (1 << target[0]) + 1 > 3 * _block_rows(target)
    _assert_blocked_matches_reference(_classic_coeffs(10), target)


@pytest.mark.parametrize("target", [(11, 8), (7, 6)])
def test_blocked_non_square_targets(target):
    # n=9 sources are restricted along some axes and prolongated along
    # others onto either target
    _assert_blocked_matches_reference(_classic_coeffs(9), target, seed=1)


def test_blocked_coefficient_outside_planned_sources():
    from repro.sparsegrid import combination_plan, combine_nodal_reference
    target = (9, 8)
    assert (1 << target[0]) + 1 > _block_rows(target)
    plan = combination_plan([(7, 3)], target)
    coeffs = {(7, 3): 1.0, (3, 7): 1.0, (3, 3): -1.0}
    parts = _random_parts(coeffs, seed=2)
    ref = combine_nodal_reference(parts, coeffs, target)
    assert np.array_equal(plan.combine(parts, coeffs), ref)


@pytest.mark.parametrize("src,target", [
    ((3, 5), (6, 6)), ((6, 6), (3, 5)), ((7, 2), (4, 6)), ((4, 4), (4, 4)),
])
def test_resample_op_full_grid_matches_resample(src, target):
    from repro.sparsegrid import resample
    from repro.sparsegrid.combine import _ResampleOp
    values = _random_parts({src: 1.0}, seed=3)[src]
    op = _ResampleOp(src, target)
    out = op.rows(values, 0, (1 << target[0]) + 1)
    assert np.array_equal(out, resample(values, src, target))


def test_combine_peak_memory_bounded_by_target():
    """One combine allocates its result and cache-sized blocks, not
    target-sized weight grids or scratch buffers."""
    import tracemalloc
    from repro.sparsegrid.combine import clear_plan_caches
    target = (10, 10)
    coeffs = _classic_coeffs(10)
    parts = _random_parts(coeffs)
    clear_plan_caches()
    tracemalloc.start()
    try:
        out = combine_nodal(parts, coeffs, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * out.nbytes, (peak, out.nbytes)


def _reachable_arrays(obj, seen=None):
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    else:
        children = list(getattr(obj, "__dict__", {}).values())
        for name in getattr(type(obj), "__slots__", ()):
            if hasattr(obj, name):
                children.append(getattr(obj, name))
    for child in children:
        yield from _reachable_arrays(child, seen)


def test_plan_retains_nothing_larger_than_a_target_row():
    from repro.sparsegrid import combination_plan
    target = (10, 10)
    coeffs = _classic_coeffs(10)
    sources = [ix for ix, c in coeffs.items() if c != 0.0]
    plan = combination_plan(sources, target)
    row_bytes = ((1 << target[1]) + 1) * np.dtype(np.float64).itemsize
    arrays = list(_reachable_arrays(plan))
    assert arrays  # the ops' axis vectors are found
    assert max(a.nbytes for a in arrays) <= row_bytes
