"""The protocol IR: what the model checker executes.

A :class:`Skeleton` is one per-rank program abstracted from real solver /
``ft.reconstruct`` code: a flat instruction list over a tiny expression
language.  Everything that is not communication, control flow or
checkpoint traffic is dropped by the extractor; everything that *is* kept
evaluates to concrete, hashable values so the cross-rank product state
space stays finite and canonical.

Instructions
------------

=========  ============================================================
Op         a visible protocol step: collective, p2p, ULFM action or
           checkpoint access (``kind`` below)
SetVar     bind a local variable to the value of an expression
Branch     conditional jump (two explicit targets)
Jump       unconditional jump
TryPush    enter a ``try``-region whose ``except MPIError`` handler
           starts at ``handler``
TryPop     leave the region (fall through past the handler)
Return     terminate the program (value recorded for inlined calls)
FailStop   abstraction boundary reached (e.g. a retry loop unrolled past
           its bound): the process counts as crashed
=========  ============================================================

``Op.kind`` is one of::

    barrier bcast reduce allreduce gather allgather scatter alltoall
    halo split merge agree shrink spawn send recv revoke readmit
    ckpt_write ckpt_restore

``readmit`` is the non-collective repair mode's local membership update
(``mpi.comm.CommHandle.readmit``): it replaces a dead member of the
communicator with the spawned process occupying the same world slot,
without any rendezvous — which is the whole point of that mode, and why
the op is *not* in ``COLLECTIVE_KINDS``.

``halo`` abstracts a solver stepping segment (the neighbour exchanges of
one checkpoint segment) as a grid-wide collective: it blocks on every
member and dies with any of them, which is exactly the property the
deadlock analysis needs.  It is also the checker's *failure window*: the
paper injects failures during solve segments, so kills are offered while
a victim sits in a halo (see ``checker.ProtocolModel.kill_when``).

Expressions
-----------

Expressions are nested tuples, evaluated eagerly against the per-process
environment and the global model state::

    ("const", v)            literal
    ("var", name)           local variable
    ("tuple", *items)       tuple construction
    ("rank", e)             caller's rank in communicator e
    ("size", e)             total size of communicator e (incl. dead)
    ("bin", op, a, b)       + - * // %
    ("cmp", op, a, b)       == != < <= > >=
    ("and", a, b) / ("or", a, b) / ("not", a)
    ("is", a, b) / ("isnot", a, b)   identity (communicators: same cid)
    ("in", a, b)            membership in a tuple value
    ("len", e) / ("index", a, i)
    ("failed_pair", e)      (failed-rank tuple, count) of communicator e
                            — the model of ``failed_procs_list``
    ("failed_count", e)     number of dead members of communicator e
    ("known_failed",)       the failed world ranks this process knows:
                            survivors know the full history, a re-spawned
                            process knows (only) its own slot
    ("world_comm",)         the world communicator (the model of the
                            ``world_comm(ctx)`` vocabulary marker: a
                            re-admitted process resolving the enclosing
                            world it was patched into)
    ("union_flat", e)       sorted deduplicated union of a tuple of
                            tuples (allgather post-processing)
    ("map_div", e, k)       sorted {v // k for v in e} (ranks -> grids)
    ("select_key", r, s, f, t)  the Fig. 7 split key, evaluated with the
                            *real* ``repro.ft.reconstruct.select_rank_key``
    ("opaque",)             a value the extractor could not track

An expression that cannot be evaluated concretely yields ``OPAQUE``;
branching on an opaque condition explores both outcomes.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

__all__ = ["OPAQUE", "Op", "SetVar", "Branch", "Jump", "TryPush", "TryPop",
           "Return", "FailStop", "Skeleton", "Asm", "OP_KINDS", "FT_OPS",
           "COLLECTIVE_KINDS"]


class _Opaque:
    """Singleton for values the abstraction dropped."""

    def __repr__(self) -> str:
        return "OPAQUE"


OPAQUE = _Opaque()

#: every legal Op.kind
OP_KINDS = frozenset({
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "halo", "split", "merge", "agree", "shrink",
    "spawn", "send", "recv", "revoke", "readmit", "ckpt_write",
    "ckpt_restore",
})

#: fault-tolerant rendezvous: complete over the survivors, legal on
#: revoked communicators (the simulator's SURVIVOR-kind rounds)
FT_OPS = frozenset({"agree", "shrink"})

#: kinds that rendezvous (block on other members)
COLLECTIVE_KINDS = frozenset({
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "halo", "split", "merge", "agree", "shrink",
    "spawn",
})


class Instr:
    __slots__ = ("lineno",)

    def __init__(self, lineno: int = 0):
        self.lineno = lineno


class Op(Instr):
    """A visible protocol step.  ``comm`` is an expression evaluating to a
    communicator (None for checkpoint ops); ``out`` names the variable
    receiving the result; ``args`` is a kind-specific dict of
    expressions."""

    __slots__ = ("kind", "comm", "out", "args")

    def __init__(self, kind: str, comm=None, out: Optional[str] = None,
                 args: Optional[dict] = None, lineno: int = 0):
        super().__init__(lineno)
        if kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {kind!r}")
        self.kind = kind
        self.comm = comm
        self.out = out
        self.args = args or {}

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(self.args.items()))
        target = f"{self.out} = " if self.out else ""
        on = f" on {_fmt(self.comm)}" if self.comm is not None else ""
        return f"{target}{self.kind}({args}){on}"


class SetVar(Instr):
    __slots__ = ("name", "expr")

    def __init__(self, name: str, expr, lineno: int = 0):
        super().__init__(lineno)
        self.name = name
        self.expr = expr

    def __repr__(self) -> str:
        return f"{self.name} = {_fmt(self.expr)}"


class Branch(Instr):
    """``if cond: goto then_pc else: goto else_pc``."""

    __slots__ = ("cond", "then_pc", "else_pc")

    def __init__(self, cond, then_pc: int = -1, else_pc: int = -1,
                 lineno: int = 0):
        super().__init__(lineno)
        self.cond = cond
        self.then_pc = then_pc
        self.else_pc = else_pc

    def __repr__(self) -> str:
        return f"if {_fmt(self.cond)} -> {self.then_pc} else -> {self.else_pc}"


class Jump(Instr):
    __slots__ = ("target",)

    def __init__(self, target: int = -1, lineno: int = 0):
        super().__init__(lineno)
        self.target = target

    def __repr__(self) -> str:
        return f"jump -> {self.target}"


class TryPush(Instr):
    __slots__ = ("handler",)

    def __init__(self, handler: int = -1, lineno: int = 0):
        super().__init__(lineno)
        self.handler = handler

    def __repr__(self) -> str:
        return f"try (handler -> {self.handler})"


class TryPop(Instr):
    __slots__ = ()

    def __repr__(self) -> str:
        return "end try"


class Return(Instr):
    __slots__ = ("expr",)

    def __init__(self, expr=("const", None), lineno: int = 0):
        super().__init__(lineno)
        self.expr = expr

    def __repr__(self) -> str:
        return f"return {_fmt(self.expr)}"


class FailStop(Instr):
    __slots__ = ("message",)

    def __init__(self, message: str, lineno: int = 0):
        super().__init__(lineno)
        self.message = message

    def __repr__(self) -> str:
        return f"failstop: {self.message}"


def _fmt(e) -> str:
    if e is None:
        return "-"
    if isinstance(e, tuple):
        if e and e[0] == "const":
            return repr(e[1])
        if e and e[0] == "var":
            return str(e[1])
        return "(" + " ".join(_fmt(x) if isinstance(x, tuple) else str(x)
                              for x in e) + ")"
    return repr(e)


class Skeleton:
    """One extracted per-rank program."""

    def __init__(self, name: str, path: str, instrs: List[Instr]):
        self.name = name
        self.path = path
        self.instrs = instrs

    def __len__(self) -> int:
        return len(self.instrs)

    def ops(self) -> List[Op]:
        return [i for i in self.instrs if isinstance(i, Op)]

    def describe(self) -> str:
        """Readable listing, pinned by the golden extraction tests so model
        drift against the real protocol code is caught in review."""
        lines = [f"skeleton {self.name} ({len(self.instrs)} instr(s))"]
        lines += [f"  {pc:3d}  {instr!r}" for pc, instr in
                  enumerate(self.instrs)]
        return "\n".join(lines)


class Asm:
    """Small assembler: emit instructions, create/patch labels."""

    def __init__(self):
        self.instrs: List[Instr] = []
        self._patches: List[Tuple[int, str, Any]] = []

    def emit(self, instr: Instr) -> int:
        self.instrs.append(instr)
        return len(self.instrs) - 1

    def here(self) -> int:
        return len(self.instrs)

    def patch(self, idx: int, field: str) -> None:
        """Point ``instrs[idx].<field>`` at the next emitted position."""
        setattr(self.instrs[idx], field, self.here())

    def finish(self, name: str, path: str) -> Skeleton:
        for instr in self.instrs:
            for field in ("then_pc", "else_pc", "target", "handler"):
                if hasattr(instr, field) and getattr(instr, field) < 0:
                    raise ValueError(
                        f"unpatched {field} in {instr!r} of {name}")
        return Skeleton(name, path, self.instrs)
