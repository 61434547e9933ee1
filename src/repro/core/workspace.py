"""Capacity-grown scratch buffers for the hot solver kernels.

The fused SoA kernels (hydro RHS, FMM pair batches) are memory-bound:
at production sizes the per-stage ``np.empty`` churn — primitive blocks,
face states, flux arrays, pair-kernel outputs — costs as much as the
arithmetic it feeds.  A :class:`Workspace` lets the *caller* own that
scratch and reuse it across stages, steps and solves.

Contract
--------

* Buffers are handed out **uninitialized** (``np.empty``); every kernel
  that takes a workspace must fully overwrite what it reads back.  No
  kernel result may depend on prior buffer contents — this is what keeps
  workspace-backed runs bit-identical to allocation-per-call runs.
* One buffer is kept per ``(name, dtype)`` role and grown to the largest
  request ever made of it; :meth:`buf` and :meth:`take` hand out views
  of its front.  One workspace therefore serves every block/batch size
  that flows through it — the three sweep axes of a hydro batch and its
  short last chunk share one allocation per role.  Two requests under
  one name alias: a name is a role, never two live arrays.
* Storage is **thread-local**: a single workspace may be shared by a
  futurized mesh whose batched tasks run on scheduler workers — each
  worker sees its own buffer set, so concurrent kernels never alias.
* A workspace holds *no live state* between kernel calls.  Dropping or
  recreating one is always safe; checkpoint/restore never snapshots it
  (rollback replays write fresh values into whatever buffers exist).
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Reusable scratch arrays for allocation-free kernel hot loops."""

    __slots__ = ("_local",)

    def __init__(self) -> None:
        self._local = threading.local()

    def _bufs(self) -> dict:
        bufs = getattr(self._local, "bufs", None)
        if bufs is None:
            bufs = self._local.bufs = {}
        return bufs

    def buf(self, name: str, shape: tuple[int, ...],
            dtype=np.float64) -> np.ndarray:
        """An uninitialized C-contiguous scratch array of exactly ``shape``,
        carved from the front of the role's capacity-grown buffer
        (:meth:`take`): per-stage temporaries cost one allocation for the
        lifetime of the workspace, whatever mix of shapes asks for them.
        """
        return self.take(name, math.prod(shape), dtype=dtype).reshape(shape)

    def take(self, name: str, n: int, trailing: tuple[int, ...] = (),
             dtype=np.float64) -> np.ndarray:
        """A view of length ``n`` into a capacity-grown buffer.

        One buffer per ``name`` (and ``trailing``, ``dtype``) is kept and
        grown to the largest ``n`` ever requested; the returned view
        covers the first ``n`` rows.
        """
        bufs = self._bufs()
        key = (name, trailing, np.dtype(dtype).str)
        arr = bufs.get(key)
        if arr is None or arr.shape[0] < n:
            arr = bufs[key] = np.empty((n,) + trailing, dtype)
        return arr[:n]

    def nbytes(self) -> int:
        """Total bytes held by this thread's buffers (diagnostics)."""
        return sum(a.nbytes for a in self._bufs().values())
