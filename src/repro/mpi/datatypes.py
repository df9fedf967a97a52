"""Payload handling: size estimation, value-semantics cloning, zero-copy.

The simulator passes Python objects between coroutines in the same address
space.  Real MPI has value semantics (the receiver gets a copy), so mutable
payloads — NumPy arrays in particular — are cloned on send by default.

:func:`freeze_payload` is the zero-copy alternative for *ownership-transfer*
boundaries (``send``/``isend`` with ``copy=False``): the sender promises
never to mutate the buffer after the call — typically because it just built
a private ``.copy()`` of a boundary row — and the receiver gets a read-only
NumPy *view* of the same memory, so nothing is copied at all.  The
read-only flag turns accidental receiver-side mutation into an immediate
``ValueError`` instead of silent cross-rank aliasing.

:func:`share_payload` applies the same contract to collective results that
are equal on every rank (allgather, bcast, allreduce): one read-only result
per round, read by every rank, instead of one private clone per rank.

Sizes feed the alpha–beta cost model.
"""

from __future__ import annotations

import sys
from typing import Any

import numpy as np

#: assumed wire size of an opaque small Python object (headers, ints, ...)
_SCALAR_BYTES = 8

#: exact-type fast table for the hottest payload kinds (scalars); checked
#: before the isinstance chain so int/float payloads cost one dict lookup
_SCALAR_TYPES = {int: _SCALAR_BYTES, float: _SCALAR_BYTES,
                 bool: _SCALAR_BYTES, complex: _SCALAR_BYTES}

#: exact types that are immutable and need no cloning at all
_IMMUTABLE_TYPES = frozenset((int, float, bool, complex, str, bytes,
                              frozenset, type(None)))


def payload_nbytes(obj: Any) -> int:
    """Estimate the number of bytes ``obj`` would occupy on the wire."""
    t = type(obj)
    if t is np.ndarray:
        return obj.nbytes
    size = _SCALAR_TYPES.get(t)
    if size is not None:
        return size
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, (int, float, complex, bool, np.generic)):
        return _SCALAR_BYTES
    if isinstance(obj, (list, tuple, set, frozenset)):
        return _SCALAR_BYTES + sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return _SCALAR_BYTES + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    # opaque object: a conservative fixed guess keeps the model deterministic
    return max(_SCALAR_BYTES, sys.getsizeof(obj) // 2)


def clone_payload(obj: Any) -> Any:
    """Copy mutable numerical payloads so sender/receiver don't alias.

    Immutable objects are returned as-is.  Containers are cloned
    shallow-recursively (arrays within lists/tuples/dicts are copied).
    """
    t = type(obj)
    if t in _IMMUTABLE_TYPES:
        return obj
    if t is np.ndarray or isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, list):
        return [clone_payload(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(clone_payload(x) for x in obj)
    if isinstance(obj, dict):
        return {k: clone_payload(v) for k, v in obj.items()}
    return obj


def share_payload(obj: Any) -> Any:
    """One read-only copy of ``obj`` for every rank of a collective round.

    Immutable leaves — and tuples of them — are returned as they are;
    arrays become read-only views (:func:`freeze_payload`) of one private
    copy, so the contributor keeps value semantics; lists and dicts are
    rebuilt once.  Every rank then reads the same object, which it must
    not mutate: the arrays refuse writes at run time, the containers are
    guarded statically (ULF011 treats collective results as frozen).
    """
    t = type(obj)
    if t in _IMMUTABLE_TYPES:
        return obj
    if t is np.ndarray or isinstance(obj, np.ndarray):
        return freeze_payload(obj.copy())
    if isinstance(obj, list):
        return [share_payload(x) for x in obj]
    if isinstance(obj, tuple):
        items = [share_payload(x) for x in obj]
        if all(a is b for a, b in zip(items, obj)):
            return obj
        return tuple(items)
    if isinstance(obj, dict):
        return {k: share_payload(v) for k, v in obj.items()}
    return obj


def freeze_payload(obj: Any) -> Any:
    """Zero-copy send-side handoff: read-only views instead of copies.

    Arrays become read-only views sharing the sender's memory; containers
    are rebuilt shallow-recursively so the arrays inside them are frozen
    too.  Safe only when the caller relinquishes ownership of the buffer
    (it must not mutate it after the send) — this is what
    ``send(..., copy=False)`` / ``isend(..., copy=False)`` mean.
    """
    if isinstance(obj, np.ndarray):
        view = obj.view()
        view.flags.writeable = False
        return view
    if isinstance(obj, list):
        return [freeze_payload(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(freeze_payload(x) for x in obj)
    if isinstance(obj, dict):
        return {k: freeze_payload(v) for k, v in obj.items()}
    return obj
