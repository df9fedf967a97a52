"""Outside-in per-layer host-time accounting for the benchmark's traced run.

Nothing here edits the program.  :class:`LayerTracer` replaces public
functions and methods of the program's modules with thin wrappers, at the
name each caller looks up (``repro.core.app.communicator_reconstruct``,
not only ``repro.ft.reconstruct.communicator_reconstruct``), and keeps a
stack of open layer frames.  A layer's *self* time is the time during
which its frame is on top of the stack, so the self times of all layers
add up to the wall time of the traced region.

Rank programs are coroutines driven by the simulator's event loop, and
thousands of them interleave.  Timing an ``async`` function from first call
to completion would charge every other rank's work done in between to the
layer, so coroutine functions are wrapped in :class:`_TimedCoro`, which
opens the frame around each resume (``send``/``throw``/``close``) only.

The PDE kernel's computed bytes per grid-point update are counted on the
first ``AdvectionProblem.step_interior`` call: its arrays are handed to
the kernel as :class:`_CountingArray` views, which add up the bytes of
every NumPy operation's array operands and outputs (cache reuse ignored).
"""

from __future__ import annotations

import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

_clock = time.perf_counter

#: root frame: benchmark code and whatever no wrapped function covers
ROOT = "harness"

#: (module, attribute or Class.method, layer).  Duplicate entries of one
#: function under several modules are the caller-side import sites.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # core: the CLI, the run harness and the per-rank application body
    ("repro.cli", "main", "core.app"),
    ("repro.core.app", "app_main", "core.app"),
    ("repro.core.runner", "app_main", "core.app"),
    # simkernel: the event loop; its self time covers event dispatch and
    # the scheduled callbacks no other layer claims
    ("repro.simkernel.engine", "Engine.run", "simkernel"),
    # mpi: universe/job management, collectives, point-to-point
    ("repro.mpi.universe", "Universe.__init__", "mpi.runtime"),
    ("repro.mpi.universe", "Universe.launch", "mpi.runtime"),
    ("repro.mpi.universe", "Universe.create_spawned_job", "mpi.runtime"),
    *(("repro.mpi.universe", f"RankContext.{m}", "mpi.runtime") for m in (
        "wtime", "compute", "disk_write", "disk_read", "get_parent",
        "set_parent_null")),
    ("repro.mpi.comm", "CommState.on_proc_death", "mpi.runtime"),
    ("repro.mpi.intercomm", "IntercommState.on_proc_death", "mpi.runtime"),
    *(("repro.mpi.comm", f"CommHandle.{m}", "mpi.coll") for m in (
        "barrier", "bcast", "gather", "allgather", "scatter", "reduce",
        "allreduce", "scan", "exscan", "gatherv", "scatterv",
        "reduce_scatter_block", "alltoall", "split", "dup", "free",
        "spawn_multiple", "revoke", "shrink", "agree", "readmit")),
    ("repro.mpi.intercomm", "IntercommHandle.agree", "mpi.coll"),
    ("repro.mpi.intercomm", "IntercommHandle.merge", "mpi.coll"),
    ("repro.mpi.intercomm", "IntercommHandle.revoke", "mpi.coll"),
    ("repro.mpi.batchcoll", "BatchCollectives.join", "mpi.coll"),
    *(("repro.mpi.comm", f"CommHandle.{m}", "mpi.p2p") for m in (
        "send", "recv", "sendrecv", "isend", "irecv", "exchange",
        "iprobe")),
    ("repro.mpi.comm", "Request.wait", "mpi.p2p"),
    ("repro.mpi.intercomm", "IntercommHandle.send", "mpi.p2p"),
    ("repro.mpi.intercomm", "IntercommHandle.recv", "mpi.p2p"),
    ("repro.mpi.matching", "MessageBoard.post", "mpi.p2p"),
    # pde: the stencil time step, and the solver's other work (initial
    # condition, gathers/scatters of whole grids, snapshots)
    ("repro.pde.parallel_solver", "DistributedAdvectionSolver.step",
     "pde.step"),
    ("repro.pde.advection", "AdvectionProblem.step_interior", "pde.step"),
    *(("repro.pde.parallel_solver", f"DistributedAdvectionSolver.{m}",
       "pde.other") for m in ("__init__", "gather_full", "gather_nodal",
                              "scatter_full", "snapshot", "restore")),
    # sparsegrid: the combination on the root and the AC sample scatter
    ("repro.core.app", "combine_on_root", "sparsegrid.combine"),
    ("repro.core.app", "scatter_samples", "sparsegrid.combine"),
    ("repro.sparsegrid.parallel_combine", "combine_nodal",
     "sparsegrid.combine"),
    # ft: detection points, communicator repair, checkpoint I/O
    ("repro.core.app", "failed_procs_list", "ft.detect"),
    ("repro.ft.reconstruct", "failed_procs_list", "ft.detect"),
    *(("repro.ft.strategy", f"{c}.detect_and_repair", "ft.detect")
      for c in ("RespawnStrategy", "ShrinkInPlaceStrategy",
                "NonCollectiveStrategy")),
    ("repro.core.app", "communicator_reconstruct", "ft.reconstruct"),
    ("repro.core.app", "repair_comm", "ft.reconstruct"),
    ("repro.ft.reconstruct", "repair_comm", "ft.reconstruct"),
    *(("repro.ft.strategy", f"{c}.post_repair", "ft.reconstruct")
      for c in ("RespawnStrategy", "ShrinkInPlaceStrategy",
                "NonCollectiveStrategy")),
    ("repro.core.app", "write_checkpoint", "ft.checkpoint"),
    ("repro.core.app", "restore_checkpoint", "ft.checkpoint"),
    ("repro.core.app", "restore_checkpoint_remapped", "ft.checkpoint"),
    # obs: recovery-phase spans
    ("repro.obs.spans", "SpanRecorder.span", "obs.span"),
    ("repro.obs.spans", "SpanRecorder.close", "obs.span"),
    # sweep / service: the sweep runner, its run cache and the disk store
    ("repro.sweep.runner", "SweepRunner.run", "sweep.runner"),
    ("repro.sweep.cache", "RunCache.get", "sweep.cache.get"),
    ("repro.sweep.cache", "RunCache.load", "sweep.cache.get"),
    ("repro.sweep.cache", "RunCache.put", "sweep.cache.put"),
    ("repro.service.store", "SharedStore.get", "service.store"),
    ("repro.service.store", "SharedStore.put", "service.store"),
)

#: every layer a traced run reports, in report order
LAYERS = (ROOT, "core.app", "simkernel", "mpi.runtime", "mpi.coll",
          "mpi.p2p", "pde.step", "pde.other", "sparsegrid.combine",
          "ft.detect", "ft.reconstruct", "ft.checkpoint", "obs.span",
          "sweep.runner", "sweep.cache.get", "sweep.cache.put",
          "service.store")


class _TimedCoro:
    """Coroutine proxy that charges each resume of ``coro`` to ``layer``.

    It is its own ``__await__`` iterator, so ``await`` delegates ``send``,
    ``throw`` and ``close`` to it, and the event loop can drive it as a
    task's top-level coroutine.
    """

    __slots__ = ("_coro", "_layer", "_tracer")

    def __init__(self, coro, layer: str, tracer: "LayerTracer"):
        self._coro = coro
        self._layer = layer
        self._tracer = tracer

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tr = self._tracer
        tr.enter(self._layer)
        try:
            return self._coro.send(value)
        finally:
            tr.leave()

    def throw(self, *args):
        tr = self._tracer
        tr.enter(self._layer)
        try:
            return self._coro.throw(*args)
        finally:
            tr.leave()

    def close(self):
        tr = self._tracer
        tr.enter(self._layer)
        try:
            return self._coro.close()
        finally:
            tr.leave()


class _CountingArray(np.ndarray):
    """Array view that adds the bytes of each ufunc's array operands and
    outputs to ``counted``; results stay counting views, so chained
    expressions are counted too."""

    counted = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        arrays = [a for a in inputs + tuple(out) if isinstance(a, np.ndarray)]
        _CountingArray.counted += sum(a.nbytes for a in arrays)
        inputs = tuple(_plain(a) for a in inputs)
        if out:
            kwargs["out"] = tuple(_plain(a) for a in out)
        result = getattr(ufunc, method)(*inputs, **kwargs)
        return result.view(_CountingArray) \
            if isinstance(result, np.ndarray) else result


def _plain(a):
    return a.view(np.ndarray) if isinstance(a, _CountingArray) else a


def _counting(a):
    return a.view(_CountingArray) if isinstance(a, np.ndarray) else a


def _resolve(module: str, attr: str):
    """(owner object, attribute name, current value) of ``module.attr``."""
    owner = importlib.import_module(module)
    parts = attr.split(".")
    for name in parts[:-1]:
        owner = getattr(owner, name)
    return owner, parts[-1], owner.__dict__[parts[-1]]


class LayerTracer:
    """Self-time and call-count accounting over :data:`TARGETS`."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: stack of [layer, start of the frame's current on-top interval]
        self._stack: List[list] = []
        #: BatchCollectives.join: attempts and accepted (non-None) joins
        self.batch_attempts = 0
        self.batch_accepts = 0
        #: grid-point updates done inside DistributedAdvectionSolver.step
        self.cell_updates = 0
        #: bytes of ufunc operands and outputs per updated point, counted
        #: on the first AdvectionProblem.step_interior call
        self.kernel_bytes_per_update: Optional[float] = None
        #: bytes handed to SharedStore.put
        self.store_bytes = 0
        #: tracemalloc peak (bytes) around the first combine_nodal call
        self.combine_alloc_peak: Optional[int] = None
        self.wall_s = 0.0
        self.balanced = False

    # -- frame stack -----------------------------------------------------
    def enter(self, layer: str) -> None:
        now = _clock()
        stack = self._stack
        top = stack[-1]
        self.self_s[top[0]] += now - top[1]
        stack.append([layer, now])

    def leave(self) -> None:
        now = _clock()
        stack = self._stack
        layer, since = stack.pop()
        self.self_s[layer] += now - since
        stack[-1][1] = now

    def start(self) -> None:
        self._stack = [[ROOT, _clock()]]
        self._t0 = self._stack[0][1]

    def stop(self) -> None:
        """Close the root frame; ``balanced`` tells whether every wrapped
        call and resume that opened a frame also closed it."""
        now = _clock()
        self.balanced = len(self._stack) == 1
        layer, since = self._stack[-1]
        self.self_s[layer] += now - since
        self._stack = []
        self.wall_s = now - self._t0

    # -- wrappers --------------------------------------------------------
    def _wrap(self, key: str, fn: Callable, layer: str) -> Callable:
        tracer = self
        calls = self.calls
        if inspect.iscoroutinefunction(fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return _TimedCoro(fn(*args, **kwargs), layer, tracer)
        else:
            def wrapper(*args, **kwargs):
                calls[key] += 1
                tracer.enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.leave()
        return wrapper

    def _counting(self, key: str, fn: Callable) -> Callable:
        """Extra accounting some targets need before the layer wrapper."""
        tracer = self
        if key == "repro.mpi.batchcoll:BatchCollectives.join":
            def join(*args, **kwargs):
                rnd = fn(*args, **kwargs)
                tracer.batch_attempts += 1
                if rnd is not None:
                    tracer.batch_accepts += 1
                return rnd
            return join
        if key == "repro.pde.parallel_solver:DistributedAdvectionSolver.step":
            async def step(solver, n=1):
                before = solver.step_count
                try:
                    await fn(solver, n)
                finally:
                    tracer.cell_updates += \
                        (solver.step_count - before) * solver.u.size
            return step
        if key == "repro.pde.advection:AdvectionProblem.step_interior":
            def step_interior(*args, **kwargs):
                if tracer.kernel_bytes_per_update is not None:
                    return fn(*args, **kwargs)
                _CountingArray.counted = 0
                kwargs = {k: _counting(v) for k, v in kwargs.items()}
                res = _plain(fn(*map(_counting, args), **kwargs))
                tracer.kernel_bytes_per_update = \
                    _CountingArray.counted / res.size
                return res
            return step_interior
        if key == "repro.service.store:SharedStore.put":
            def put(store, key_, blob):
                tracer.store_bytes += len(blob)
                return fn(store, key_, blob)
            return put
        if key == "repro.sparsegrid.parallel_combine:combine_nodal":
            def combine_nodal(*args, **kwargs):
                if tracer.combine_alloc_peak is not None \
                        or tracemalloc.is_tracing():
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.combine_alloc_peak = \
                        tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            return combine_nodal
        return fn

    def install(self) -> None:
        """Wrap every target for the rest of the process's life."""
        for module, attr, layer in TARGETS:
            owner, name, fn = _resolve(module, attr)
            key = f"{module}:{attr}"
            wrapped = self._wrap(key, self._counting(key, fn), layer)
            setattr(owner, name, wrapped)
