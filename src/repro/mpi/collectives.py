"""Collective-operation rendezvous with ULFM failure semantics.

Every collective call on a communicator is matched by *call order*: the
``k``-th collective invoked by each member joins the same rendezvous.  A
rendezvous completes when all expected members have arrived; its completion
time is the latest arrival plus the machine-model cost, which is how
collectives synchronise virtual clocks.

Two failure disciplines exist:

* ``NORMAL`` — ordinary MPI collectives (barrier, bcast, ...): if any member
  is dead, or dies while the rendezvous is open, *every* participant gets
  :class:`ProcFailedError` (the paper's failure-detection barrier relies on
  exactly this).
* ``SURVIVOR`` — the fault-tolerant ULFM operations (``OMPI_Comm_agree``,
  ``OMPI_Comm_shrink``): dead members are excluded and the operation
  completes among the survivors.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Optional

from .errors import ProcFailedError


class RvKind(enum.Enum):
    NORMAL = "normal"
    SURVIVOR = "survivor"


def doom_exception(op_name: str, ranks: tuple) -> ProcFailedError:
    """The uniform collective-failure error.

    Shared between the rendezvous event path and the batch fast path
    (:mod:`repro.mpi.batchcoll`) so both produce byte-identical messages —
    the property tests compare them directly.
    """
    return ProcFailedError(
        f"collective {op_name} failed: dead ranks {ranks}",
        failed_ranks=ranks)


class Rendezvous:
    """One in-flight collective operation."""

    def __init__(self, engine, key, op_name: str, members: List, kind: RvKind,
                 cost_fn: Callable[[Dict[int, Any]], float],
                 finisher: Callable[[Dict[int, Any], List], Dict[int, Any]],
                 detection_latency: float,
                 rank_of: Callable[[Any], int]):
        self.engine = engine
        self.key = key
        self.op_name = op_name
        self.members = list(members)
        self.kind = kind
        self.cost_fn = cost_fn
        self.finisher = finisher
        self.detection_latency = detection_latency
        self.rank_of = rank_of
        #: proc uid -> (proc, value, arrival_time, future)
        self.arrivals: Dict[int, tuple] = {}
        self.doomed: Optional[BaseException] = None
        self.completed = False

    # ------------------------------------------------------------------
    def arrive(self, proc, value, future) -> None:
        if proc.uid in self.arrivals:
            raise RuntimeError(
                f"{proc.name} joined collective {self.op_name}@{self.key} twice")
        now = self.engine.now
        if self.doomed is not None:
            future.set_exception(self.doomed, at=now + self.detection_latency)
            self.arrivals[proc.uid] = (proc, value, now, None)
            return
        self.arrivals[proc.uid] = (proc, value, now, future)
        self._check(now)

    def on_member_death(self, proc, now: float) -> None:
        if self.completed or self.doomed is not None:
            if self.doomed is not None:
                # death may finish accounting for a doomed rendezvous
                return
            return
        if self.kind is RvKind.NORMAL:
            self._doom(now, dead=[proc])
        else:
            self._check(now)

    # ------------------------------------------------------------------
    def _live_members(self):
        return [m for m in self.members if m.alive]

    def all_accounted(self) -> bool:
        """True when no member can still arrive (cleanup criterion)."""
        return all((m.uid in self.arrivals) or m.dead for m in self.members)

    def _check(self, now: float) -> None:
        if self.completed or self.doomed is not None:
            return
        dead = [m for m in self.members if m.dead]
        if self.kind is RvKind.NORMAL:
            if dead:
                self._doom(now, dead=dead)
                return
            if len(self.arrivals) == len(self.members):
                self._complete()
        else:  # SURVIVOR
            live = self._live_members()
            if live and all(m.uid in self.arrivals for m in live):
                self._complete()

    def _doom(self, now: float, dead) -> None:
        ranks = tuple(sorted(self.rank_of(p) for p in dead))
        self.doomed = doom_exception(self.op_name, ranks)
        when = now + self.detection_latency
        for proc, _value, _t, fut in self.arrivals.values():
            if fut is not None and not fut.done:
                fut.set_exception(self.doomed, at=when)

    def _complete(self) -> None:
        live = self._live_members()
        arrived = {uid: v for uid, (p, v, t, f) in self.arrivals.items()
                   if p.alive}
        latest = max(t for p, v, t, f in self.arrivals.values() if p.alive)
        try:
            cost = self.cost_fn(arrived)
            results = self.finisher(arrived, live)
        except Exception as exc:
            # a malformed collective (e.g. scatter with the wrong list
            # length) fails uniformly on every participant, like MPI
            self.doomed = exc
            for _p, _v, _t, fut in self.arrivals.values():
                if fut is not None and not fut.done:
                    fut.set_exception(exc, at=self.engine.now)
            return
        self.completed = True
        done_at = latest + cost
        for uid, (proc, _value, _t, fut) in self.arrivals.items():
            if fut is None or fut.done:
                continue
            fut.set_result(results.get(uid), at=done_at)


class RendezvousTable:
    """Open rendezvous registry for one communicator."""

    def __init__(self):
        self.open: Dict[Any, Rendezvous] = {}

    def get_or_create(self, key, factory: Callable[[], Rendezvous]) -> Rendezvous:
        rv = self.open.get(key)
        if rv is None:
            rv = factory()
            self.open[key] = rv
        return rv

    def cleanup(self) -> None:
        for key in [k for k, rv in self.open.items()
                    if (rv.completed or rv.doomed is not None) and rv.all_accounted()]:
            del self.open[key]

    def on_proc_death(self, proc, now: float) -> None:
        for rv in list(self.open.values()):
            if any(m.uid == proc.uid for m in rv.members):
                rv.on_member_death(proc, now)
        self.cleanup()

    def doom_all(self, exc: BaseException, now: float, detection: float) -> None:
        """Revocation: fail every open NORMAL rendezvous.  SURVIVOR ones
        (agree, shrink) are exempt, as ULFM specifies: they still complete
        over the survivors."""
        for rv in self.open.values():
            if rv.completed or rv.doomed is not None or \
                    rv.kind is RvKind.SURVIVOR:
                continue
            rv.doomed = exc
            for _p, _v, _t, fut in rv.arrivals.values():
                if fut is not None and not fut.done:
                    fut.set_exception(exc, at=now + detection)
        self.cleanup()
