"""Face reconstruction: the piece-wise parabolic method (PPM).

Octo-Tiger computes thermodynamic variables at cell faces with PPM
(Colella & Woodward 1984, Sec. 4.2).  The implementation reconstructs
left/right states at every interior face along one axis, vectorized over
the whole block.

Conventions: input arrays have ``ng`` ghost layers on each side along the
reconstruction axis; output face arrays cover the ``n + 1`` interior faces
(face ``f`` sits between interior cells ``f-1`` and ``f``), with ``qL``
the state just left of the face and ``qR`` just right.

The kernel takes ``out=(qL, qR)`` so a caller-owned buffer pair absorbs
the per-stage face-state churn, and ``ws=`` (a
:class:`repro.core.workspace.Workspace`) for the fully fused path: every
intermediate lives in reused scratch, nothing is allocated, and the
returned face arrays are views into workspace buffers (valid until the
next reconstruction through the same workspace: one capacity-grown
buffer per role serves every axis and shape).  The values written are
bitwise identical to the allocating path — only buffer reuse and
``out=`` routing change, never the arithmetic expressions.

Layout: the kernel is elementwise across every dimension but ``axis``,
so it accepts any array.  The hydro RHS hands it *pencil-major*
batches ``(rows, m, B, n, n)`` of the fields it carries —
reconstruction axis right behind the field index, ``B`` sub-grids side
by side — where every :func:`_ax` slice of one field is a single
contiguous run of at least ``B * n^2`` doubles instead of ``n`` strided
rows of ``n``.

Uniform fields: if every value of a field compares equal to one ``v``
and ``v + v`` is finite, PPM returns the cells themselves, bit for bit
(signs of zero included, also for a mix of ``+0.0`` and ``-0.0``): each
face is clipped into ``[v, v]``, and the extremum test then resets both
parabola ends to the cell.  The bound is ``2v``, not ``v``: for
``|v| >= 2^1023`` the face sum ``7/12 (C1 + C2)`` overflows and the
arithmetic yields NaN faces, as it does for inf and NaN fields.  The
workspace path copies such fields through instead of running ~37
passes (a uniform but nonzero field: the hydro RHS leaves fields that
are zero over its batch out of the sweep altogether); everything
else, and the whole allocating path, keeps the full arithmetic, which
is the oracle the copy is tested against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ppm_faces"]


def _ax(q: np.ndarray, lo: int, hi: int | None, axis: int) -> np.ndarray:
    sl = [slice(None)] * q.ndim
    sl[axis] = slice(lo, hi)
    return q[tuple(sl)]


def ppm_faces(q: np.ndarray, ng: int, axis: int,
              out: tuple[np.ndarray, np.ndarray] | None = None,
              ws=None) -> tuple[np.ndarray, np.ndarray]:
    """PPM states (qL, qR) at the n+1 interior faces.

    Fourth-order face interpolation followed by the Colella-Woodward
    monotonization of each cell's parabola.  With ``ws`` the whole
    kernel runs in reused scratch with in-place ufuncs (the fused hot
    path); the returned faces are then views into workspace buffers.
    """
    if ng < 3:
        raise ValueError("PPM needs at least 3 ghost layers")
    if ws is not None:
        return _ppm_faces_ws(q, ng, axis, out, ws)
    n = q.shape[axis] - 2 * ng
    # C holds cells -3 .. n+2 (length n+6) along `axis`
    C = _ax(q, ng - 3, ng + n + 3, axis)
    # F[j] = face value left of cell j-1, for j = 0 .. n+2
    F = (7.0 / 12.0) * (_ax(C, 1, -2, axis) + _ax(C, 2, -1, axis)) \
        - (1.0 / 12.0) * (_ax(C, 0, -3, axis) + _ax(C, 3, None, axis))
    # parabola cells -1 .. n
    c = _ax(C, 2, -2, axis)
    left = _ax(C, 1, -3, axis)                      # cell i-1
    right = _ax(C, 3, -1, axis)                     # cell i+1
    lo = _ax(F, 0, -1, axis)
    hi = _ax(F, 1, None, axis)

    lo = np.clip(lo, np.minimum(left, c), np.maximum(left, c))
    hi = np.clip(hi, np.minimum(c, right), np.maximum(c, right))
    extremum = (hi - c) * (c - lo) <= 0.0
    lo = np.where(extremum, c, lo)
    hi = np.where(extremum, c, hi)
    dqf = hi - lo
    avg = 0.5 * (lo + hi)
    six = dqf * dqf / 6.0
    steep_hi = dqf * (c - avg) > six
    lo = np.where(steep_hi, 3.0 * c - 2.0 * hi, lo)
    steep_lo = -six > dqf * (c - avg)
    hi = np.where(steep_lo, 3.0 * c - 2.0 * lo, hi)

    if out is None:
        return _ax(hi, 0, -1, axis), _ax(lo, 1, None, axis)
    qL, qR = out
    np.copyto(qL, _ax(hi, 0, -1, axis))             # cells -1 .. n-1
    np.copyto(qR, _ax(lo, 1, None, axis))           # cells  0 .. n
    return qL, qR


def _ppm_faces_ws(q: np.ndarray, ng: int, axis: int,
                  out: tuple[np.ndarray, np.ndarray] | None,
                  ws) -> tuple[np.ndarray, np.ndarray]:
    """Workspace-fused PPM: identical arithmetic, zero allocations.

    Every step mirrors an expression of :func:`ppm_faces` exactly —
    scalar multiplies are commuted (exact), ``np.where`` becomes a
    masked ``np.copyto`` onto the same "else" values, and ``np.clip``
    runs with ``out=`` — so the results are bitwise identical.

    Field-major arrays (any reconstruction axis but the leading one) are
    processed one field at a time: the ~10 intermediate arrays then cover
    a single field and stay resident in cache across the ~30 elementwise
    passes instead of streaming the whole batch from DRAM every pass.
    Per-field chunking of elementwise arithmetic is bitwise-neutral.

    A field that is uniform with ``v + v`` finite is copied through
    (cells ``-1 .. n`` into both parabola ends), which is what the
    arithmetic would produce; see the module docstring for the identity
    and its ``2v`` bound.  The allocating path keeps the arithmetic for
    every field so that it stays an independent oracle of the copy.
    """
    fieldless = axis == 0
    if fieldless:                                   # one field, unbatched
        q, axis = q[None], 1
    n = q.shape[axis] - 2 * ng
    sh2 = q.shape[:axis] + (n + 2,) + q.shape[axis + 1:]
    shF = q.shape[1:axis] + (n + 3,) + q.shape[axis + 1:]
    lo = ws.buf("ppm:lo", sh2)
    hi = ws.buf("ppm:hi", sh2)
    # one field's intermediates, shared by all fields
    scratch = (ws.buf("ppm:F", shF), ws.buf("ppm:t", shF),
               ws.buf("ppm:a", sh2[1:]), ws.buf("ppm:b", sh2[1:]),
               ws.buf("ppm:dqf", sh2[1:]), ws.buf("ppm:six", sh2[1:]),
               ws.buf("ppm:mask", sh2[1:], dtype=bool))
    centre = tuple(s // 2 for s in q.shape[1:])
    for f in range(q.shape[0]):
        if _uniform(q[f], centre):
            # a uniform field reconstructs to itself, bit for bit
            c = _ax(q[f], ng - 1, ng + n + 1, axis - 1)     # cells -1 .. n
            np.copyto(lo[f], c)
            np.copyto(hi[f], c)
            continue
        _ppm_one_ws(q[f], ng, axis - 1, lo[f], hi[f], scratch)
    if fieldless:
        lo, hi, axis = lo[0], hi[0], 0
    if out is None:
        return _ax(hi, 0, -1, axis), _ax(lo, 1, None, axis)
    qL, qR = out
    np.copyto(qL, _ax(hi, 0, -1, axis))
    np.copyto(qR, _ax(lo, 1, None, axis))
    return qL, qR


def _uniform(q: np.ndarray, centre: tuple) -> bool:
    """Whether every value of ``q`` compares equal to one ``v`` with
    ``v + v`` finite.  A field whose first and centre values differ (or
    either is NaN) has structure, so most fields skip both reductions."""
    if q.flat[0] != q[centre]:
        return False
    v = q.min()
    return v == q.max() and bool(np.isfinite(v + v))


def _ppm_one_ws(q: np.ndarray, ng: int, axis: int,
                lo: np.ndarray, hi: np.ndarray, scratch: tuple) -> None:
    """One PPM reconstruction into ``lo``/``hi`` using the caller's
    ``scratch`` arrays (two of ``n + 3`` faces, four of ``n + 2`` cells
    and a mask of ``n + 2`` cells along ``axis``)."""
    n = q.shape[axis] - 2 * ng
    F, t, a, b, dqf, six, mask = scratch

    C = _ax(q, ng - 3, ng + n + 3, axis)            # view: cells -3 .. n+2
    # F = 7/12 (C1 + C2) - 1/12 (C0 + C3)
    np.add(_ax(C, 1, -2, axis), _ax(C, 2, -1, axis), out=F)
    F *= 7.0 / 12.0
    np.add(_ax(C, 0, -3, axis), _ax(C, 3, None, axis), out=t)
    t *= 1.0 / 12.0
    F -= t

    c = _ax(C, 2, -2, axis)
    left = _ax(C, 1, -3, axis)
    right = _ax(C, 3, -1, axis)

    np.minimum(left, c, out=a)
    np.maximum(left, c, out=b)
    # clip(F, a, b) spelled as its two halves (a <= b by construction):
    # same bits, half the ufunc dispatch cost at this size
    np.maximum(_ax(F, 0, -1, axis), a, out=lo)
    np.minimum(lo, b, out=lo)
    np.minimum(c, right, out=a)
    np.maximum(c, right, out=b)
    np.maximum(_ax(F, 1, None, axis), a, out=hi)
    np.minimum(hi, b, out=hi)

    # extremum = (hi - c) * (c - lo) <= 0  ->  lo = hi = c there
    np.subtract(hi, c, out=a)
    np.subtract(c, lo, out=b)
    np.multiply(a, b, out=a)
    np.less_equal(a, 0.0, out=mask)
    np.copyto(lo, c, where=mask)
    np.copyto(hi, c, where=mask)

    np.subtract(hi, lo, out=dqf)
    # avg = 0.5 * (lo + hi); six = dqf * dqf / 6
    np.add(lo, hi, out=a)
    a *= 0.5
    np.multiply(dqf, dqf, out=six)
    six /= 6.0
    # prod = dqf * (c - avg): computed once; the reference evaluates the
    # same expression twice on unchanged inputs, so reuse is exact
    np.subtract(c, a, out=a)                        # a = c - avg
    np.multiply(dqf, a, out=a)                      # a = prod
    np.greater(a, six, out=mask)                    # steep toward hi
    np.multiply(hi, 2.0, out=dqf)                   # dqf now scratch
    np.multiply(c, 3.0, out=b)
    b -= dqf                                        # 3c - 2 hi
    np.copyto(lo, b, where=mask)
    np.negative(six, out=six)
    np.greater(six, a, out=mask)                    # steep toward lo
    np.multiply(lo, 2.0, out=dqf)                   # uses the updated lo
    np.multiply(c, 3.0, out=b)
    b -= dqf                                        # 3c - 2 lo
    np.copyto(hi, b, where=mask)
