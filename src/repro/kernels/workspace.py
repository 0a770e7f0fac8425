"""Reusable scratch buffers for the numeric phase.

Every node rebuild needs one or two ``(rows, R)`` temporaries (the running
Hadamard product and a gather scratch).  Allocating them fresh each rebuild
costs a page-faulting pass over memory that dwarfs the arithmetic for large
nodes; a :class:`WorkspaceArena` hands out slices of buffers that persist
across rebuilds and iterations, so steady-state CP-ALS performs zero large
allocations in the kernel layer.

Buffers are held per *thread* (the parallel engine's workers each get their
own set), so a single arena can be shared by an engine and its thread pool
without locking.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.dtypes import VALUE_DTYPE


def _round_up_rows(rows: int) -> int:
    """Round a row request up to the next power of two (bounded waste,
    few reallocations as node sizes vary)."""
    cap = 1024
    while cap < rows:
        cap *= 2
    return cap


def value_matrix(rows: int, cols: int) -> np.ndarray:
    """An uninitialized ``(rows, cols)`` node value matrix.

    Its allocation is rounded up to a size class (at most 1/32 larger; the
    extra rows are never touched).  Node values are freed and rebuilt every
    iteration, and near-equal nodes replace each other: the root's children
    on balanced trees differ by a few rows.  Equal size classes let each fit
    the heap chunk the other just freed, instead of growing the heap.
    """
    granule = 1 << max(rows.bit_length() - 5, 0)
    capacity = -(-rows // granule) * granule
    return np.empty((capacity, cols), dtype=VALUE_DTYPE)[:rows]


class WorkspaceArena:
    """Named, growable scratch buffers with per-thread isolation.

    ``request(slot, rows, cols)`` returns a C-contiguous ``(rows, cols)``
    view of a cached buffer, reallocating only when the cached capacity is
    exceeded or the column count changes.  Contents are unspecified — callers
    must fully overwrite what they read.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._all_slots: list[dict[str, np.ndarray]] = []
        self._all_slots_lock = threading.Lock()

    def _slots(self) -> dict[str, np.ndarray]:
        slots = getattr(self._local, "slots", None)
        if slots is None:
            slots = {}
            self._local.slots = slots
            with self._all_slots_lock:
                self._all_slots.append(slots)
        return slots

    def request(self, slot: str, rows: int, cols: int) -> np.ndarray:
        """A writable ``(rows, cols)`` scratch view for this thread."""
        slots = self._slots()
        buf = slots.get(slot)
        if buf is None or buf.shape[0] < rows or buf.shape[1] != cols:
            buf = np.empty((_round_up_rows(rows), cols), dtype=VALUE_DTYPE)
            slots[slot] = buf
        return buf[:rows]

    def nbytes(self) -> int:
        """Total bytes currently held across all threads' buffers."""
        with self._all_slots_lock:
            return sum(
                buf.nbytes for slots in self._all_slots for buf in slots.values()
            )

    def clear(self) -> None:
        """Drop every cached buffer (all threads)."""
        with self._all_slots_lock:
            for slots in self._all_slots:
                slots.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WorkspaceArena(nbytes={self.nbytes()})"
