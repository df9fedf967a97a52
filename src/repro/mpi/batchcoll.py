"""The collective engine: every collective round, healthy or failing.

Collective calls are matched by *call order*: the ``k``-th call of each
member on one channel joins round ``k``.  Ordinary collectives share the
``"coll"`` channel, matching MPI's same-order rule.  The ULFM operations
agree and shrink each have their own channel: their fault-tolerant
consensus is independent of the regular collective stream, which is what
makes the paper's differing parent/child call orders (Fig. 3 l.21-22 vs
Fig. 5 l.14-15) legal.

A round keeps one contribution and one arrival time per member, indexed by
rank through the communicator's member list.  Re-admitting a replacement
process at a rank (the non-collective repair) therefore needs no patching:
the replacement takes over the rank's slot in every open round and the
rank's call counts.  When the last needed rank arrives, the op's
completion function computes every rank's result in one pass, and a single
batched engine event (``Engine.schedule_future_batch``) wakes every parked
rank at ``latest live arrival + cost``.  Rounds, their futures and their
rows are reused through a free list, so a steady stream of rounds
allocates almost nothing.

Result rules:

* **fold order** — reductions fold left to right in rank order, skipping
  ``None`` contributions.  No numpy pairwise reductions: they change float
  rounding.
* **sharing** — a result that is the same on every rank (allgather,
  bcast, allreduce) is built once per round by
  :func:`~repro.mpi.datatypes.share_payload` and every rank reads that one
  object: immutable leaves pass through, arrays are read-only views of
  one private copy, so no rank can write through to another.  Callers
  must not mutate such a result (ULF011 checks it); a rank that needs to
  must copy it.  The root of bcast/reduce/gather keeps its own objects.
  Results that differ per rank (scatter, scan, alltoall, ...) are cloned
  per rank at completion.
* **malformed calls** (e.g. scatter with the wrong number of items) fail
  on every participant at the instant the round completes.
* **cost** — the data ops cost ``collective_cost(size, max nbytes)`` over
  the contributions; the others are priced when the round opens, so
  agree and shrink cost what the failures seen by the first arriver say.

Failure rules (ULFM):

* **NORMAL** rounds (every op but agree and shrink) are doomed by a dead
  member.  A round opened while members are dead fails at once, naming
  all of them; a member dying while a round is open dooms it, naming that
  member.  Parked ranks get the :class:`ProcFailedError` at ``death +
  detect``; ranks reaching a doomed round later get the same exception at
  their own ``now + detect``.
* **SURVIVOR** rounds (agree, shrink) complete among the live members: a
  death drops the dead member's contribution and may complete the round,
  and the completion time counts live arrivals only.
* **revocation** dooms every open NORMAL round with one shared
  ``RevokedError`` at ``revoke + detect``; SURVIVOR rounds are exempt.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence

from .datatypes import clone_payload, share_payload
from .errors import UNDEFINED, MPIError, ProcFailedError, RankError

#: the ULFM fault-tolerant ops: their own channels, completion among the
#: survivors, exempt from revocation
SURVIVOR_OPS = frozenset({"agree", "shrink"})

#: result delivery shapes (int tags, compared with ``==`` in ``take``)
_SHARED = 0      # every rank reads ``result`` (immutable or read-only)
_ROOT_ONLY = 1   # root reads ``result``; everyone else gets None
_PER_RANK = 2    # rank i reads ``result[i]`` (clones made at completion)
_ROOT_OWN = 3    # root reads its own contribution; everyone else ``result``

#: identity-keyed substitutions of the comm module's reduction lambdas by
#: their C-level equivalents (populated by :mod:`repro.mpi.comm` at import
#: time).  Only ops whose builtin is semantically identical for *every*
#: payload type are listed; user-supplied operators are never touched.
FAST_OPS: Dict[Callable, Callable] = {}


def doom_exception(op_name: str, ranks: tuple) -> ProcFailedError:
    """The uniform collective-failure error."""
    return ProcFailedError(
        f"collective {op_name} failed: dead ranks {ranks}",
        failed_ranks=ranks)


class _Round:
    """One open (or draining) collective round."""

    __slots__ = ("owner", "fut", "op", "survivor", "arg", "root", "cost",
                 "values", "times", "n", "max_nbytes", "shape", "result",
                 "reads")

    def __init__(self, owner: "BatchCollectives"):
        self.owner = owner
        self.fut = owner.engine.create_future()
        self.values: List[Any] = [None] * owner.size
        #: arrival time per rank, None until the rank arrives (barrier
        #: contributions are None, so ``values`` cannot record arrival)
        self.times: List[Optional[float]] = [None] * owner.size
        self.n = 0
        self.max_nbytes = 0

    def take(self, rank: int):
        """This rank's result; recycles the round once every rank has read."""
        shape = self.shape
        if shape == _SHARED:
            out = self.result
        elif shape == _ROOT_ONLY:
            out = self.result if rank == self.root else None
        elif shape == _ROOT_OWN:
            out = self.values[rank] if rank == self.root else self.result
        else:
            out = self.result[rank]
        n = self.reads - 1
        self.reads = n
        if n == 0:
            self.owner._recycle(self)
        return out


class _DoomedJoin:
    """Join result for a rank reaching an already-doomed round: carries only
    the failed future (``take`` is never reached)."""

    __slots__ = ("fut",)

    def __init__(self, fut):
        self.fut = fut


def _fold(values: Sequence[Any], op: Callable):
    """Left fold in rank order, skipping ``None`` contributions."""
    op = FAST_OPS.get(op, op)
    acc = None
    for v in values:
        if v is None:
            continue
        acc = v if acc is None else op(acc, v)
    return acc


# ----------------------------------------------------------------------
# completion functions: (engine, round) -> (shape, result)
# ----------------------------------------------------------------------
def _barrier(e, r):
    return _SHARED, None


def _bcast(e, r):
    return _ROOT_OWN, share_payload(r.values[r.root])


def _gather(e, r):
    return _ROOT_ONLY, list(r.values)


def _allgather(e, r):
    return _SHARED, share_payload(r.values)


def _scatter(e, r):
    items = r.values[r.root]
    if items is None or len(items) != e.size:
        raise RankError(f"scatter root must supply {e.size} items")
    return _PER_RANK, [clone_payload(items[i]) for i in range(e.size)]


def _reduce(e, r):
    return _ROOT_ONLY, _fold(r.values, r.arg)


def _allreduce(e, r):
    return _SHARED, share_payload(_fold(r.values, r.arg))


def _scan(e, r, exclusive=False):
    op = FAST_OPS.get(r.arg, r.arg)
    acc, out = None, []
    for v in r.values:
        if v is None:
            out.append(None)
            continue
        if exclusive:
            out.append(None if acc is None else clone_payload(acc))
        acc = v if acc is None else op(acc, v)
        if not exclusive:
            out.append(clone_payload(acc))
    return _PER_RANK, out


def _exscan(e, r):
    return _scan(e, r, exclusive=True)


def _reduce_scatter(e, r):
    op = FAST_OPS.get(r.arg, r.arg)
    out = []
    for i in range(e.size):
        acc = None
        for contrib in r.values:
            acc = contrib[i] if acc is None else op(acc, contrib[i])
        out.append(clone_payload(acc))
    return _PER_RANK, out


def _alltoall(e, r):
    return _PER_RANK, [[clone_payload(v[i]) for v in r.values]
                       for i in range(e.size)]


def _split(e, r):
    from .comm import CommState
    state = e.state
    by_color: Dict[int, list] = defaultdict(list)
    for i, (color, key) in enumerate(r.values):
        if color is not None and color != UNDEFINED:
            by_color[color].append((key, i))
    out: List[Any] = [None] * e.size
    for color, entries in sorted(by_color.items()):
        entries.sort()
        new_state = CommState(state.universe,
                              [e.members[i] for _k, i in entries],
                              name=f"{state.name}.split{color}")
        for _k, i in entries:
            out[i] = new_state
    return _PER_RANK, out


def _spawn_multiple(e, r):
    count, entry, argv, host_names = r.arg
    universe = e.state.universe
    # children begin at the round's completion time
    return _SHARED, universe.create_spawned_job(
        e.state, count, entry, argv, host_names,
        start_at=e.engine.now + r.cost)


def _shrink(e, r):
    from .comm import CommState
    state = e.state
    return _SHARED, CommState(state.universe,
                              [p for p in e.members if not p.dead],
                              name=f"{state.name}.shrunk")


def _agree(e, r):
    return _SHARED, _fold(r.values, operator.and_)


def _merge(e, r):
    from .comm import CommState
    state = e.state
    n_a = len(state.group_a)
    a_flags = {bool(v) for v in r.values[:n_a]}
    b_flags = {bool(v) for v in r.values[n_a:]}
    if len(a_flags) > 1 or len(b_flags) > 1 or a_flags == b_flags:
        raise RankError(
            f"inconsistent high flags in intercomm merge: "
            f"a={a_flags}, b={b_flags}")
    low, high = (state.group_a, state.group_b) if a_flags == {False} \
        else (state.group_b, state.group_a)
    return _SHARED, CommState(state.universe, list(low) + list(high),
                              name=f"{state.name}.merged")


# ----------------------------------------------------------------------
# prices of the ops not priced by their contributions' size
# ----------------------------------------------------------------------
def _agree_cost(e, r):
    n_failed = len(e.dead)
    if n_failed == 0:
        # failure-free agreement: a handful of ordinary collective rounds
        return 4.0 * e.machine.collective_cost(e.size, 8)
    return e.machine.ulfm.agree(e.size, n_failed)


def _shrink_cost(e, r):
    n_failed = len(e.dead)
    if n_failed == 0:
        # failure-free shrink is just a communicator duplication: price
        # it like a split rather than charging the 1-failure ULFM curve
        return e.machine.collective_cost(e.size, 16)
    return e.machine.ulfm.shrink(e.size, n_failed)


#: op name -> (completion function, price at open or None for data ops)
_OPS: Dict[str, tuple] = {
    "barrier": (_barrier, lambda e, r: e.machine.barrier_cost(e.size)),
    "bcast": (_bcast, None),
    "gather": (_gather, None),
    "allgather": (_allgather, None),
    "scatter": (_scatter, None),
    "reduce": (_reduce, None),
    "allreduce": (_allreduce, None),
    "scan": (_scan, None),
    "exscan": (_exscan, None),
    "reduce_scatter": (_reduce_scatter, None),
    "alltoall": (_alltoall, None),
    "split": (_split, lambda e, r: e.machine.collective_cost(e.size, 16)),
    "spawn_multiple": (_spawn_multiple, lambda e, r: e.machine.ulfm.spawn(
        e.size + r.arg[0], r.arg[0])),
    "shrink": (_shrink, _shrink_cost),
    "agree": (_agree, _agree_cost),
    "merge": (_merge, lambda e, r: e.machine.ulfm.merge(e.size)),
}


class BatchCollectives:
    """Collective rounds over one member list (a communicator, or one
    group of an intercommunicator)."""

    __slots__ = ("state", "members", "ranks", "uni", "engine", "machine",
                 "size", "detect", "dead", "live", "seq", "open", "doomed",
                 "_pool", "_none_row", "_counters")

    def __init__(self, state, members: List, ranks: Sequence[int] = ()):
        uni = state.universe
        self.state = state
        #: rank -> Proc; the communicator's own list, so a re-admission
        #: updates it in place
        self.members = members
        #: rank as reported in trace records and failure messages (an
        #: intercommunicator's merge spans both groups' local ranks)
        self.ranks = ranks or range(len(members))
        self.uni = uni
        self.engine = uni.engine
        self.machine = uni.machine
        self.size = len(members)
        self.detect = uni.machine.failure_detection_latency
        #: ranks of the dead members, and how many are alive
        self.dead = frozenset(i for i, p in enumerate(members) if p.dead)
        self.live = self.size - len(self.dead)
        #: channel -> per-rank count of calls made (the next round index)
        self.seq: Dict[str, List[int]] = {}
        #: (op name, round index) -> open round
        self.open: Dict[tuple, _Round] = {}
        #: (op name, round index) -> (the exception that doomed the round,
        #: the live ranks yet to reach it); an entry goes once each of them
        #: has arrived or died, so the exception — whose traceback holds
        #: the frames it was raised through — is not kept longer
        self.doomed: Dict[tuple, tuple] = {}
        self._pool: List[_Round] = []
        self._none_row: List[Any] = [None] * self.size
        #: cached mpi_collectives counter instruments (one registry lookup
        #: per op name per communicator instead of one per join)
        self._counters: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def _record(self, op: str) -> None:
        c = self._counters.get(op)
        if c is None:
            c = self._counters[op] = self.uni.stats.registry.counter(
                "mpi_collectives", op=op)
        c.value += 1

    def _doom(self, op: str, ranks) -> ProcFailedError:
        return doom_exception(op, tuple(sorted(self.ranks[i] for i in ranks)))

    def _keep_doomed(self, key: tuple, exc: BaseException,
                     arrived: Sequence) -> None:
        """Remember why round ``key`` failed for the live ranks that have
        not reached it (``arrived[i]`` is None for those)."""
        dead = self.dead
        pending = {i for i, t in enumerate(arrived)
                   if t is None and i not in dead}
        if pending:
            self.doomed[key] = (exc, pending)

    def _take_doomed(self, key: tuple, rank: int):
        """The exception of doomed round ``key`` for ``rank`` reaching it
        late (or dying before it), None if the round is not doomed."""
        entry = self.doomed.get(key)
        if entry is None:
            return None
        exc, pending = entry
        pending.discard(rank)
        if not pending:
            del self.doomed[key]
        return exc

    def join(self, op: str, rank: int, value: Any = None, nbytes: int = 0,
             arg: Any = None, root: int = 0):
        """Contribute ``value`` (``nbytes`` long) to this rank's next round
        of ``op``, opening the round if this rank is the first to arrive.

        ``arg`` and ``root`` are the op's parameters (the reduction
        operator; spawn's ``(count, entry, argv, hosts)``); the first
        arriver's are the round's.  Returns the round — await its ``fut``,
        then ``take(rank)`` — or a :class:`_DoomedJoin` whose ``fut``
        carries the doomed round's exception.
        """
        survivor = op in SURVIVOR_OPS
        channel = op if survivor else "coll"
        counts = self.seq.get(channel)
        if counts is None:
            counts = self.seq[channel] = [0] * self.size
        idx = counts[rank]
        counts[rank] = idx + 1
        self._record(op)
        uni = self.uni
        if uni.tracer is not None:
            uni.trace(self.members[rank].name, "coll",
                      f"{op} {self.state.name} r{self.ranks[rank]}")
        engine = self.engine
        key = (op, idx)
        rnd = self.open.get(key)
        if rnd is None:
            exc = self._take_doomed(key, rank)
            if exc is None and self.dead and not survivor:
                exc = self._doom(op, self.dead)
                arrived = [None] * self.size
                arrived[rank] = engine.now
                self._keep_doomed(key, exc, arrived)
            if exc is not None:
                fut = engine.create_future()
                fut.set_exception(exc, at=engine.now + self.detect)
                return _DoomedJoin(fut)
            pool = self._pool
            rnd = pool.pop() if pool else _Round(self)
            rnd.op = op
            rnd.survivor = survivor
            rnd.arg = arg
            rnd.root = root
            price = _OPS[op][1]
            rnd.cost = None if price is None else price(self, rnd)
            self.open[key] = rnd
        rnd.values[rank] = value
        rnd.times[rank] = engine.now
        if nbytes > rnd.max_nbytes:
            rnd.max_nbytes = nbytes
        rnd.n += 1
        if rnd.n == self.live:
            del self.open[key]
            self._complete(rnd, engine.now)
        return rnd

    def _complete(self, rnd: _Round, latest: float) -> None:
        """Compute every rank's result and wake the parked ranks at
        ``latest + cost`` (a malformed call fails them all now)."""
        engine = self.engine
        try:
            if rnd.cost is None:
                rnd.cost = self.machine.collective_cost(self.size,
                                                        rnd.max_nbytes)
            rnd.shape, rnd.result = _OPS[rnd.op][0](self, rnd)
        except Exception as exc:
            rnd.fut.set_exception(exc, at=engine.now)
            return
        rnd.reads = rnd.n
        engine.schedule_future_batch(rnd.fut, None, latest + rnd.cost)

    def _recycle(self, rnd: _Round) -> None:
        rnd.values[:] = self._none_row
        rnd.times[:] = self._none_row
        rnd.n = 0
        rnd.max_nbytes = 0
        rnd.result = rnd.arg = None
        rnd.fut.recycle()
        self._pool.append(rnd)

    # ------------------------------------------------------------------
    # failure propagation (cold paths)
    # ------------------------------------------------------------------
    def on_death(self, rank: int, now: float) -> None:
        """Member ``rank`` died: doom the open NORMAL rounds; drop its
        contribution from the open SURVIVOR rounds, completing those whose
        live members have all arrived."""
        self.dead = self.dead | {rank}
        self.live -= 1
        for key in list(self.doomed):
            self._take_doomed(key, rank)
        at = now + self.detect
        for key, rnd in list(self.open.items()):
            if not rnd.survivor:
                del self.open[key]
                exc = self._doom(rnd.op, (rank,))
                self._keep_doomed(key, exc, rnd.times)
                rnd.fut.set_exception(exc, at=at)
                continue
            if rnd.times[rank] is not None:
                rnd.times[rank] = rnd.values[rank] = None
                rnd.n -= 1
            if self.live and rnd.n == self.live:
                del self.open[key]
                self._complete(rnd, max(t for t in rnd.times if t is not None))

    def readmit(self, rank: int) -> None:
        """A live replacement took dead member ``rank``'s place: open
        SURVIVOR rounds now wait for it."""
        self.dead = self.dead - {rank}
        self.live += 1

    def on_revoke(self, exc: BaseException, now: float) -> None:
        """The communicator was revoked: doom every open NORMAL round with
        the shared exception at ``now + detect``."""
        at = now + self.detect
        for key, rnd in list(self.open.items()):
            if not rnd.survivor:
                del self.open[key]
                self._keep_doomed(key, exc, rnd.times)
                rnd.fut.set_exception(exc, at=at)


async def collective(handle, engine: BatchCollectives, rank: int, op: str,
                     value: Any = None, nbytes: int = 0, arg: Any = None,
                     root: int = 0):
    """Run ``rank``'s part of one round of ``op`` on ``engine`` and return
    its result; a failure is raised through the handle's error handler."""
    rnd = engine.join(op, rank, value, nbytes, arg, root)
    try:
        await rnd.fut
    except MPIError as exc:
        handle._raise(exc)
    return rnd.take(rank)
