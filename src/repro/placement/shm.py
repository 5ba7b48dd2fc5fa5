"""Zero-copy shared-memory arrays for worker fan-out.

Fanning work out over the :class:`~repro.utils.supervise.SupervisedPool`
used to mean pickling every numpy payload into each worker — the
sparse-RAP component decomposition shipped one sliced block per task.
At the giga tier (100k+ cells) those copies dominate the fan-out cost.

This module replaces the copies with POSIX shared memory
(:mod:`multiprocessing.shared_memory`):

* :func:`publish_arrays` packs any mapping of numpy arrays into **one**
  segment and returns a :class:`ShmPublication` owning it; its
  ``handle`` is a compact, picklable :class:`ShmHandle` (segment name +
  per-array dtype/shape/offset + scalar metadata) that stays KB-scale
  regardless of design size.
* :func:`attach_arrays` maps the segment back into a worker as
  **read-only** numpy views (the guard: a worker that tries to mutate
  shared state fails loudly instead of corrupting its siblings).
  Arrays a worker legitimately mutates are named in ``copy=...`` and
  materialized as private writable copies.

Lifetime contract
-----------------

The **owner** (the process that published) is solely responsible for
``unlink``: hold the publication in a ``with`` block (or call
``close()`` in a ``finally``) around the fan-out.  Workers only ever
``close()`` their attachment — never unlink — so a worker crash
mid-attach cannot leak the segment: the owner's ``finally`` still
unlinks it.  :func:`active_repro_segments` lists live segments published
by this module (test suites assert it is empty after chaos runs).

Segments are created through the standard :mod:`multiprocessing`
resource tracker.  Pool workers are children of the owner and share its
tracker process, so attaching from a worker neither needs nor performs
any tracker manipulation; the single registration made at ``create``
time is removed by the owner's ``unlink``.
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Collection, Iterator, Mapping

import numpy as np

from repro.obs.events import emit_event
from repro.utils.errors import ValidationError
from repro.utils.resilience import FaultPlan

#: Every segment this module creates carries this name prefix, so leak
#: checks (and humans inspecting ``/dev/shm``) can attribute them.
SEGMENT_PREFIX = "repro_shm_"

#: Byte alignment of each array inside the segment (cache-line sized).
_ALIGN = 64

#: Payload size under which shipping plain pickled arrays is cheaper
#: than a segment round-trip; integration points fall back to inline
#: arrays below it.
SHM_MIN_BYTES = 256 * 1024


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class ArraySpec:
    """Layout of one array inside a shared segment."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


@dataclass(frozen=True)
class ShmHandle:
    """Picklable address of a published array bundle.

    A handle is what travels in a worker submission payload instead of
    the arrays themselves: segment name, per-array layout, and a small
    scalar ``meta`` mapping (stored as a sorted tuple of pairs so the
    handle stays hashable).  Pickled size is O(number of arrays), never
    O(cells).
    """

    segment: str
    specs: tuple[ArraySpec, ...]
    nbytes: int
    meta: tuple[tuple[str, object], ...] = ()

    def meta_dict(self) -> dict[str, object]:
        return dict(self.meta)

    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)


class ShmPublication:
    """Owner side of a published bundle: the unlink responsibility.

    Context-managed: ``close()`` (idempotent) releases the mapping and
    unlinks the segment.  Everything attached elsewhere keeps working
    until the last attachment closes — POSIX shm is reference counted —
    but no *new* attach can succeed after unlink.
    """

    def __init__(self, handle: ShmHandle, shm: shared_memory.SharedMemory) -> None:
        self.handle = handle
        self._shm: shared_memory.SharedMemory | None = shm

    def __enter__(self) -> "ShmPublication":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # already unlinked (e.g. test cleanup)
            pass
        emit_event("shm.unlink", segment=self.handle.segment)

    def __del__(self) -> None:  # last-resort leak protection
        try:
            self.close()
        except Exception:
            pass


def publish_arrays(
    arrays: Mapping[str, np.ndarray],
    meta: Mapping[str, object] | None = None,
) -> ShmPublication:
    """Pack ``arrays`` into one shared segment; returns the owner handle.

    Arrays are copied once (into the segment) at publish time; workers
    then attach zero-copy.  Non-contiguous inputs are made contiguous.
    """
    if not arrays:
        raise ValidationError("publish_arrays: nothing to publish")
    specs: list[ArraySpec] = []
    offset = 0
    prepared: list[np.ndarray] = []
    for name, arr in arrays.items():
        a = np.ascontiguousarray(arr)
        offset = _aligned(offset)
        specs.append(ArraySpec(name, a.dtype.str, a.shape, offset))
        offset += a.nbytes
        prepared.append(a)
    total = max(offset, 1)
    segment = SEGMENT_PREFIX + uuid.uuid4().hex[:16]
    shm = shared_memory.SharedMemory(name=segment, create=True, size=total)
    try:
        for spec, a in zip(specs, prepared):
            dst = np.ndarray(
                spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset
            )
            dst[...] = a
        handle = ShmHandle(
            segment=segment,
            specs=tuple(specs),
            nbytes=total,
            meta=tuple(sorted((meta or {}).items())),
        )
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    emit_event("shm.publish", segment=segment, nbytes=total)
    return ShmPublication(handle, shm)


class AttachedArrays(Mapping):
    """Worker side: a mapping of name -> numpy view over the segment.

    Views are read-only unless named in ``copy`` (those are private
    writable copies).  ``close()`` drops the views and releases the
    mapping; if some caller still holds a view, the mapping is kept
    alive by that view's buffer reference (numpy pins the mmap) and is
    released when the last view is garbage-collected — never a dangling
    pointer, never a crash in a ``finally``.  Unlinking the segment is
    the owner's job either way.
    """

    def __init__(
        self,
        handle: ShmHandle,
        shm: shared_memory.SharedMemory,
        copy: Collection[str] = (),
    ) -> None:
        self.handle = handle
        self._shm: shared_memory.SharedMemory | None = shm
        self._arrays: dict[str, np.ndarray] = {}
        for spec in handle.specs:
            view = np.ndarray(
                spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset
            )
            if spec.name in copy:
                self._arrays[spec.name] = view.copy()
            else:
                view.flags.writeable = False
                self._arrays[spec.name] = view

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._arrays)

    def __len__(self) -> int:
        return len(self._arrays)

    def __enter__(self) -> "AttachedArrays":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        self._arrays.clear()
        try:
            shm.close()
        except BufferError:
            # A view escaped (e.g. a flow result still references a
            # shared array).  numpy's buffer reference keeps the mmap
            # valid; it is released when the last view dies.  The named
            # segment itself is unlinked by the owner regardless.
            pass

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


def attach_arrays(
    handle: ShmHandle,
    copy: Collection[str] = (),
    fault_plan: FaultPlan | None = None,
    fault_stage: str = "shm.attach",
    attempt: int | None = None,
) -> AttachedArrays:
    """Attach a published bundle read-only (``copy`` names excepted).

    ``fault_plan`` injects failures *mid-attach* — after the segment is
    mapped, before any view exists — which is exactly the window the
    chaos suite crashes workers in to prove the owner-side unlink never
    leaks.  ``attempt`` is the parent-side attempt number (the
    supervised pool stamps it into dict items as ``_pool_attempt``), so
    ``on_attempt`` faults resolve deterministically across respawns.
    """
    shm = shared_memory.SharedMemory(name=handle.segment)
    try:
        if fault_plan is not None:
            fault_plan.check(fault_stage, attempt=attempt, worker=True)
        return AttachedArrays(handle, shm, copy=copy)
    except BaseException:
        shm.close()
        raise


def active_repro_segments() -> list[str]:
    """Names of live segments published by this module (Linux: /dev/shm).

    The leak oracle for tests: after every owner closed its publication
    this must be empty, whatever the workers did (crashed, hung, were
    SIGKILLed mid-attach).  Returns ``[]`` where /dev/shm is absent.
    """
    root = "/dev/shm"
    try:
        names = os.listdir(root)
    except OSError:
        return []
    return sorted(n for n in names if n.startswith(SEGMENT_PREFIX))
