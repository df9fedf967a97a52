"""Seeded violations for ULF011 (mutation of shared cached objects).

Each violating function pairs with a corrected variant below it; only
lines tagged ``BAD`` may trip ULF011, and nothing else in this file
may trip any other rule.
"""

from repro.core.layout import layout_for
from repro.sparsegrid.combine import combination_plan
from repro.sparsegrid.index import cached_scheme
from repro.sparsegrid.interpolation import _axis_resample_weights


# --- subscript store through a provider result -------------------------
def clobber_weights(src, dst, n):
    ix0, ix1, w = _axis_resample_weights(src, dst)
    w[0] = 0.5  # BAD
    return ix0, ix1


def owned_weights(src, dst, n):
    ix0, ix1, w = _axis_resample_weights(src, dst)
    w = w.copy()
    w[0] = 0.5  # owned copy: fine
    return ix0, ix1


# --- in-place augmented assignment -------------------------------------
def scale_shared(src, dst):
    _, _, w = _axis_resample_weights(src, dst)
    w *= 2.0  # BAD
    return w.sum()


def scale_owned(src, dst):
    _, _, w = _axis_resample_weights(src, dst)
    scaled = w * 2.0  # new array, shared operand only read
    return scaled.sum()


# --- mutator method on a cached object ---------------------------------
def extend_scheme(n, level):
    scheme = cached_scheme(n, level)
    scheme.grids.append(None)  # BAD
    return scheme


def read_scheme(n, level):
    scheme = cached_scheme(n, level)
    return len(scheme.grids)


# --- mutation through a subscript view ---------------------------------
def poke_view(src, dst):
    _, _, w = _axis_resample_weights(src, dst)
    row = w[0]
    row.fill(0.0)  # BAD
    return row.sum()


def copy_view(src, dst):
    _, _, w = _axis_resample_weights(src, dst)
    row = w[0].copy()
    row.fill(0.0)  # the copy is owned
    return row


# --- thawing a frozen buffer -------------------------------------------
def thaw_weights(src, dst):
    _, _, w = _axis_resample_weights(src, dst)
    w.flags.writeable = True  # BAD
    return w


def thaw_setflags(src, dst):
    _, _, w = _axis_resample_weights(src, dst)
    w.setflags(write=True)  # BAD
    return w


# --- setattr / attribute store on a cached object ----------------------
def retag_layout(scheme):
    layout = layout_for(scheme)
    layout.label = "mine"  # BAD
    return layout


def relabel_plan(cfg, target):
    plan = combination_plan(cfg, target)
    setattr(plan, "label", "mine")  # BAD
    return plan


def fresh_labels(scheme):
    layout = layout_for(scheme)
    label = f"{layout!r}:mine"  # read-only use of the shared object
    return label


# --- rebinding forgets the tracked state -------------------------------
def rebind_then_mutate(src, dst, xs):
    _, _, w = _axis_resample_weights(src, dst)
    w = list(xs)
    w.append(1.0)  # w is a fresh list now, not the cached array
    return w


# --- mutating a collective result every rank shares --------------------
async def extend_views(comm, x, y):
    views = await comm.allgather(x)
    views.append(y)  # BAD
    return len(views)


async def extend_owned_views(comm, x, y):
    views = list(await comm.allgather(x))
    views.append(y)  # an owned copy of the shared list
    return len(views)


async def bump_total(comm, arr):
    total = await comm.allreduce(arr)
    total[0] = 0.0  # BAD
    return total.sum()


async def bump_owned_total(comm, arr):
    total = (await comm.allreduce(arr)).copy()
    total[0] = 0.0  # owned copy
    return total.sum()
