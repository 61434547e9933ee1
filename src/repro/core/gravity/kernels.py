"""FMM interaction kernels: Green-function derivatives and pair physics.

The cell-to-cell interaction is derived from the *mutual* interaction
energy of two cells A and B carrying mass m and raw second moments
M2 = sum(m_i d_i (x) d_i) about their centres of mass:

    U(R) = -[ mA mB g0(R) + 1/2 (mA M2B + mB M2A) : g2(R) ]

with R = xA - xB and g0..g3 the derivative tensors of 1/r.  Everything the
solver needs follows from U by differentiation, which is what makes the
conservation claims of Sec. 4.2/4.3 structural rather than accidental:

* the pair force F = -dU/dR is applied as +F to A and -F to B, so linear
  momentum is conserved by construction;
* U is rotationally invariant, so R x F + tau_A + tau_B = 0 *identically*
  (Noether) — the quadrupole torques tau are realized on the cells'
  internal structure through the Taylor Hessian during the downward pass,
  which is the mechanism behind Octo-Tiger's angular-momentum-conserving
  FMM (Marcello 2017);
* monopole-monopole forces are parallel to R, so the leaf-level P2P pass
  conserves angular momentum *bitwise* (R x cR = 0 exactly in IEEE
  arithmetic).

All kernels are vectorized over pair arrays (struct-of-arrays layout, as
the paper's Sec. 4.3 kernels are).

Fused component form (the Sec. 4.3 kernel rework): ``g2`` has 6 and
``g3`` 10 unique components, but the original einsum formulation
materialized the full (n, 3, 3) and (n, 3, 3, 3) tensors — 27 doubles
per pair for ``g3`` alone — plus einsum contraction temporaries.  The
production kernels (:func:`m2l_pair`, :func:`p2p_pair`) now expand the
contractions into explicit arithmetic over only the unique components,
and every pair kernel takes ``out=`` so the solver's tiled compute writes
results straight into preallocated batch outputs.
:func:`repro.validation.reference.m2l_pair_reference` keeps the tensor
formulation as the property-test oracle and microbenchmark baseline.

On the leaf cells of a level the pair lists themselves go away:
:func:`green_tables` / :func:`green_sweeps` stage the constant 8 x 8
child separations of every near parent offset once, and
:func:`p2p_pair_staged` is the whole leaf-level near field as one BLAS
``C += A @ B`` per offset: the masses sit on a parent grid padded with
massless parents in y and z, so every offset adds into one contiguous
x-slab of the output.  :func:`p2p_pair` is left with the coarse-fine
boundary, a leaf against a refined neighbour's children.

On a level with refined cells the same happens to M2L, except that its
separations join centres of mass and so cannot be tabulated:
:func:`m2l_dense` makes the independent Green components of a whole
block of separations one plane at a time (:func:`green_block`: broadcast
differences of the tile's cells, a static ``+inf`` mask on ``r^2`` for
the pairs that do not belong), contracts each plane against the packed
moments (:func:`pack_moments`) with one matmul per side as soon as it is
made, and :func:`m2l_assemble` turns the contracted components into
``phi`` / ``acc`` / Hessian per cell — the per-pair 455-flop body of
:func:`m2l_pair` becomes BLAS plus ~50 array passes.  The tilings
(which cells, which mask) are :mod:`.stencil`'s.

Hot-path kernels do **not** guard against coincident points: the
solver's geometry rules them out once, when its plan is built
(:func:`green_tables` checks the dense tables, the dense M2L masks out
everything that is not a well-separated pair of distinct cells, and a
boundary pair joins a leaf with another cell's child, whose centre lies
inside that cell), instead of scanning ``r2 == 0`` on every call.  The
full tensors of :func:`repro.validation.reference.greens`, the oracle,
keep the guard.
"""

from __future__ import annotations

import numpy as np

from .stencil import lex_positive, pair_counts, well_separated

__all__ = ["p2p_pair", "green_tables", "green_sweeps",
           "sweep_pad", "p2p_pair_staged", "m2l_pair",
           "TINY_MASS", "N_GREEN", "N_MOMENT", "pack_moments",
           "green_block", "m2l_dense", "m2l_assemble"]

#: stand-in for a zero receiving mass wherever a pair force is divided
#: back into an acceleration
TINY_MASS = 1e-300


def _inv_powers(x, y, z):
    """(inv, inv2, inv3, inv5, inv7) = odd inverse powers of r."""
    r2 = x * x + y * y + z * z
    inv = 1.0 / np.sqrt(r2)
    inv2 = inv * inv
    inv3 = inv * inv2
    inv5 = inv3 * inv2
    inv7 = inv5 * inv2
    return inv, inv2, inv3, inv5, inv7


def _g2_components(x, y, z, inv3, inv5):
    """The 6 unique components of g2_ij = 3 x_i x_j / r^5 - delta_ij / r^3
    (xx, yy, zz, xy, xz, yz)."""
    return (3.0 * (x * x) * inv5 - inv3,
            3.0 * (y * y) * inv5 - inv3,
            3.0 * (z * z) * inv5 - inv3,
            3.0 * (x * y) * inv5,
            3.0 * (x * z) * inv5,
            3.0 * (y * z) * inv5)


def p2p_pair(dR: np.ndarray, mA: np.ndarray, mB: np.ndarray, out=None
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Monopole-monopole (leaf P2P) interaction, 12-flop class (Sec. 4.3).

    Returns ``(phiA, phiB, accA, accB)``: potentials and accelerations.
    ``accB`` is derived from the same force vector as ``accA`` so the pair
    momentum change is exactly zero.  ``out`` (same four arrays) lets the
    tiled solver path write results in place.
    """
    dR = np.asarray(dR, dtype=np.float64)
    x, y, z = dR[:, 0], dR[:, 1], dR[:, 2]
    r2 = x * x + y * y + z * z
    inv = 1.0 / np.sqrt(r2)
    inv3 = inv / r2
    if out is None:
        n = len(dR)
        out = (np.empty(n), np.empty(n), np.empty((n, 3)),
               np.empty((n, 3)))
    phiA, phiB, accA, accB = out
    phiA[...] = -mB * inv
    phiB[...] = -mA * inv
    # force on A = -mA mB dR / r^3 ; accA = F/mA, accB = -F/mB
    f = -(mA * mB * inv3)[:, None] * dR
    np.divide(f, mA[:, None], out=accA)
    np.divide(f, mB[:, None], out=accB)
    np.negative(accB, out=accB)
    return phiA, phiB, accA, accB


def green_tables(offsets: np.ndarray, child: np.ndarray, width: float,
                 near_only: bool = False) -> np.ndarray:
    """The ``(n, 8, 32)`` monopole Green tables of parent offsets ``(n,
    3)``, all in one broadcast.

    On a parent grid the eight children of the parent at ``I + w``
    (sources, row ``j``) sit at fixed separations from the eight children
    of the parent at ``I`` (targets, column block ``i``): ``dR = (child[i]
    - 2 w - child[j]) * width``, whatever ``I`` is.  Column ``4 i`` holds
    ``-1/r`` and columns ``4 i + 1 .. 4 i + 3`` hold ``-dR/r^3``, so ``m8
    @ table`` is the potential and acceleration the source parent's
    masses ``m8`` exert on every target child.

    ``w == 0`` pairs a parent with itself: the diagonal (a cell and
    itself) is zeroed, and with ``near_only`` so is every well-separated
    child pair (a level's M2L takes those).  Any other zero separation
    means broken geometry and is rejected here, once.  Every operation is
    elementwise along the offsets, so a table is the same to the bit
    whichever offsets it is built with.
    """
    w = np.asarray(offsets, dtype=np.int64).reshape(-1, 3)
    sep = (child[None, None, :, :] - 2 * w[:, None, None, :]
           - child[None, :, None, :])
    dR = sep * float(width)
    r2 = np.einsum("wjic,wjic->wji", dR, dR)
    self_pair = ~w.any(axis=1)[:, None, None] & np.eye(8, dtype=bool)
    r2[self_pair] = np.inf
    if near_only:
        r2[well_separated(sep)] = np.inf
    if np.any(r2 == 0.0):
        raise ValueError("coincident cells in interaction kernel")
    inv = 1.0 / np.sqrt(r2)
    inv3 = inv / r2
    table = np.empty(r2.shape + (4,))
    table[..., 0] = -inv
    table[..., 1:] = -dR * inv3[..., None]
    return table.reshape(-1, 8, 32)


def green_sweeps(edge: int, offsets: np.ndarray, child: np.ndarray,
                 width: float, leaf: np.ndarray, pad: tuple[int, int],
                 near_only: bool = False) -> tuple[list[tuple], int]:
    """Stage parent ``offsets`` for :func:`p2p_pair_staged` on an
    ``edge``^3 parent grid whose masses sit in a grid padded with ``pad =
    (py, pz)`` massless parents on both sides of y and z (at least
    :func:`sweep_pad` of ``offsets``): ``(sweeps, pairs)``.

    ``sweeps`` holds one ``(slab, window, table)`` per offset ``w`` whose
    :func:`green_tables` entry is not all zero, in the order given:
    ``slab``, the target parents ``I`` with ``I_x + w_x`` inside the grid,
    as a row range of the flattened ``(edge^3, 32)`` output — every y and
    z, so it is one contiguous block; ``window``, the block of the padded
    grid their sources ``I + w`` fill (massless parents where ``I + w``
    leaves the grid in y or z, so ``|w_y| <= py`` and ``|w_z| <= pz``);
    and the table.  ``pairs`` is the number of pairs of leaves (``leaf``,
    the ``(edge, edge, edge, 8)`` bool grid of them) the offsets cover,
    each counted once: ``w`` and ``-w`` visit every pair once per
    direction, so it is credited to the lex-positive one (half of ``w =
    0``'s).

    Built as arrays: the tables in one broadcast, the slab and window
    bounds as integer rows, the pair credits by one
    :func:`.stencil.pair_counts` pass; only the slices themselves are
    made one offset at a time.  A sweep's table is a view of its row of
    the one table array.
    """
    w = np.asarray(offsets, dtype=np.int64).reshape(-1, 3)
    tables = green_tables(w, child, width, near_only)
    hit = tables.reshape(-1, 8, 8, 4)[..., 0] != 0.0
    keep = hit.any(axis=(1, 2))
    w, tables, hit = w[keep], tables[keep], hit[keep]
    # target x layers [lo, hi): I_x and I_x + w_x inside the grid; the
    # window starts at I + w of the first target, shifted by the pad
    lo, hi = np.maximum(0, -w[:, 0]), edge - np.maximum(0, w[:, 0])
    first = w + [0, *pad]
    first[:, 0] += lo
    extent = np.full_like(w, edge)
    extent[:, 0] = hi - lo
    sweeps = [(slice(a, b), tuple(map(slice, x, x_end)), table)
              for a, b, x, x_end, table in zip(
                  (lo * edge * edge).tolist(), (hi * edge * edge).tolist(),
                  first.tolist(), (first + extent).tolist(), tables)]
    zero = ~w.any(axis=1)
    credit = lex_positive(w) | zero
    counts = pair_counts(leaf, w[credit], hit[credit].swapaxes(1, 2))
    return sweeps, int((counts * np.where(zero[credit], 1, 2)).sum()) // 2


def sweep_pad(offsets: np.ndarray) -> list[int]:
    """``[py, pz]``: the massless parents :func:`p2p_pair_staged` needs on
    both sides of y and z to sweep ``offsets`` — their largest ``|w_y|``,
    ``|w_z|``."""
    return np.abs(np.asarray(offsets)[:, 1:]).max(axis=0).tolist()


def p2p_pair_staged(m8: np.ndarray, sweeps, out: np.ndarray, ws
                    ) -> np.ndarray:
    """Dense leaf P2P over pre-staged Green tables (Sec. 4.3's stencil
    kernel): ``out[I] = sum_w m8[I + w] @ table_w``.

    ``m8`` is the padded parent grid of leaf masses, ``(P, P + 2 py, P +
    2 pz, 8)`` with zeros outside the ``P``^3 parents, ``sweeps`` the
    staged offsets (:func:`green_sweeps`), ``out`` the ``(P, P, P, 32)``
    result (4 values per target child, see :func:`green_tables`),
    overwritten, and ``ws`` a :class:`~repro.core.workspace.Workspace`.
    No index arrays, no scatter: the separations are constants of the
    grid, so only the masses move.  Per offset the source window is
    copied into one contiguous scratch block and BLAS adds ``window @
    table`` into the target slab in place (``dgemm`` with ``beta = 1``,
    on the transposed, column-major views): one call, no product
    temporary.  A massless pad parent adds an exact ``+0.0``.  Offsets
    are summed in the order given.  ``out`` must be C-contiguous: BLAS
    writes through its views.
    """
    if not out.flags.c_contiguous:
        raise ValueError("p2p_pair_staged needs a C-contiguous out")
    # imported here, not with the package: scipy.linalg maps scipy's own
    # OpenBLAS (~28 MB of resident memory) into every process that
    # imports repro.core, and only a gravity solve needs it
    from scipy.linalg.blas import dgemm
    out[...] = 0.0
    rows = out.reshape(-1, out.shape[-1])
    scratch = ws.take("p2p:window", len(rows), (8,))
    for slab, window, table in sweeps:
        src = m8[window]
        block = scratch[:slab.stop - slab.start]
        np.copyto(block.reshape(src.shape), src)
        # rows[slab] += block @ table, column-major: beta = 1, overwrite_c
        dgemm(1.0, table.T, block.T, 1.0, rows[slab].T, 0, 0, 1)
    return out


def m2l_pair(dR: np.ndarray, mA: np.ndarray, mB: np.ndarray,
             M2A: np.ndarray, M2B: np.ndarray, out=None
             ) -> tuple[np.ndarray, ...]:
    """Multipole pair interaction, 455-flop class (Sec. 4.3), fused.

    Parameters are pair SoA arrays: separations ``dR = xA - xB`` (n, 3),
    masses (n,), raw second moments (n, 3, 3).

    Returns ``(phiA, phiB, accA, accB, HA, HB)``:

    * ``phi``: potential at each cell's COM (monopole + quadrupole source),
    * ``acc``: the *pair force* divided by the receiving mass — includes
      both the source's quadrupole field and the receiver's own quadrupole
      coupling to the field gradient, so ``mA accA == -mB accB`` exactly,
    * ``H``: Hessian of the potential (for the L2L shift and the tidal
      realization of quadrupole torques on child cells).

    Every contraction is expanded over the 6 unique ``g2`` and 10 unique
    ``g3`` components; no (n, 3, 3[, 3]) Green tensors are materialized.
    Agrees with :func:`repro.validation.reference.m2l_pair_reference`
    to the last few ulps (the einsum contraction sums in a different
    order; the property tests document the tolerance).
    """
    dR = np.asarray(dR, dtype=np.float64)
    x, y, z = dR[:, 0], dR[:, 1], dR[:, 2]
    inv, inv2, inv3, inv5, inv7 = _inv_powers(x, y, z)
    g2xx, g2yy, g2zz, g2xy, g2xz, g2yz = _g2_components(x, y, z, inv3, inv5)
    p3 = 3.0 * inv5
    p9 = 9.0 * inv5
    p15 = 15.0 * inv7
    g3xxx = p9 * x - p15 * (x * x) * x
    g3xxy = p3 * y - p15 * (x * x) * y
    g3xxz = p3 * z - p15 * (x * x) * z
    g3xyy = p3 * x - p15 * x * (y * y)
    g3xyz = -p15 * (x * y) * z
    g3xzz = p3 * x - p15 * x * (z * z)
    g3yyy = p9 * y - p15 * (y * y) * y
    g3yyz = p3 * z - p15 * (y * y) * z
    g3yzz = p3 * y - p15 * y * (z * z)
    g3zzz = p9 * z - p15 * (z * z) * z
    # symmetric quadrupole of the pair: quad = mA M2B + mB M2A (6 comps)
    qxx = mA * M2B[:, 0, 0] + mB * M2A[:, 0, 0]
    qyy = mA * M2B[:, 1, 1] + mB * M2A[:, 1, 1]
    qzz = mA * M2B[:, 2, 2] + mB * M2A[:, 2, 2]
    qxy = mA * M2B[:, 0, 1] + mB * M2A[:, 0, 1]
    qxz = mA * M2B[:, 0, 2] + mB * M2A[:, 0, 2]
    qyz = mA * M2B[:, 1, 2] + mB * M2A[:, 1, 2]
    if out is None:
        n = len(dR)
        out = (np.empty(n), np.empty(n), np.empty((n, 3)),
               np.empty((n, 3)), np.empty((n, 3, 3)), np.empty((n, 3, 3)))
    phiA, phiB, accA, accB, HA, HB = out
    # mutual energy U = -(mA mB g0 + 0.5 quad : g2)
    # pair force on A: F_i = mA mB g1_i + 0.5 quad_jk g3_ijk
    mm = mA * mB
    fx = -mm * x * inv3 + 0.5 * (
        qxx * g3xxx + qyy * g3xyy + qzz * g3xzz
        + 2.0 * (qxy * g3xxy + qxz * g3xxz + qyz * g3xyz))
    fy = -mm * y * inv3 + 0.5 * (
        qxx * g3xxy + qyy * g3yyy + qzz * g3yzz
        + 2.0 * (qxy * g3xyy + qxz * g3xyz + qyz * g3yyz))
    fz = -mm * z * inv3 + 0.5 * (
        qxx * g3xxz + qyy * g3yyz + qzz * g3zzz
        + 2.0 * (qxy * g3xyz + qxz * g3xzz + qyz * g3yzz))
    np.divide(fx, mA, out=accA[:, 0])
    np.divide(fy, mA, out=accA[:, 1])
    np.divide(fz, mA, out=accA[:, 2])
    np.divide(fx, mB, out=accB[:, 0])
    np.divide(fy, mB, out=accB[:, 1])
    np.divide(fz, mB, out=accB[:, 2])
    np.negative(accB, out=accB)
    # phi_target = -(m_source g0 + 0.5 M2_source : g2)
    phiA[...] = -(mB * inv + 0.5 * _sym_contract(M2B, g2xx, g2yy, g2zz,
                                                 g2xy, g2xz, g2yz))
    phiB[...] = -(mA * inv + 0.5 * _sym_contract(M2A, g2xx, g2yy, g2zz,
                                                 g2xy, g2xz, g2yz))
    _hessian(HA, -mB, g2xx, g2yy, g2zz, g2xy, g2xz, g2yz)
    _hessian(HB, -mA, g2xx, g2yy, g2zz, g2xy, g2xz, g2yz)
    return phiA, phiB, accA, accB, HA, HB


#: independent Green components of the dense M2L block, even-parity ones
#: first: g0 | g2 xx yy xy xz yz | g1 x y z | g3 xxx xxy xxz xyy xyz yyy
#: yyz.  The derivative tensors of 1/r are traceless on every index pair
#: (Laplace), so of the 6 + 10 unique g2 / g3 components those with a
#: ``zz`` follow from the rest (``g2_zz = -g2_xx - g2_yy``, ``g3_azz =
#: -g3_axx - g3_ayy``) and are never evaluated.  Under R -> -R the first
#: ``_N_EVEN`` keep their sign and the rest flip, which is all the
#: partner side of a pair needs to know.
N_GREEN = 16
_N_EVEN = 6
#: packed moment columns ``[m, M2xx - M2zz, M2yy - M2zz, 2 M2xy, 2 M2xz,
#: 2 M2yz]``: with the ``zz`` components eliminated, ``M2 : g2`` is a
#: plain dot of columns 1.. with the five g2 components (the
#: off-diagonals carry their multiplicity), and likewise for g3
N_MOMENT = 6
#: ``_G3_OF[a, v - 1]``: row of ``g3_{a kl}`` for the ``kl`` of moment
#: column ``v`` (xx yy xy xz yz); rows ``N_GREEN`` and ``N_GREEN + 1`` are
#: the derived ``g3_xzz`` and ``g3_yzz`` :func:`m2l_assemble` fills in
_G3_OF = np.array([[9, 12, 10, 11, 13],
                   [10, 14, 12, 13, 15],
                   [11, 15, 13, 16, 17]])


def pack_moments(m: np.ndarray, M2: np.ndarray, out: np.ndarray
                 ) -> np.ndarray:
    """Fill ``out`` ``(n, N_MOMENT)`` with the packed moment matrix of
    cells with masses ``m`` and raw second moments ``M2``."""
    out[:, 0] = m
    np.subtract(M2[:, 0, 0], M2[:, 2, 2], out=out[:, 1])
    np.subtract(M2[:, 1, 1], M2[:, 2, 2], out=out[:, 2])
    np.multiply(2.0, M2[:, 0, 1], out=out[:, 3])
    np.multiply(2.0, M2[:, 0, 2], out=out[:, 4])
    np.multiply(2.0, M2[:, 1, 2], out=out[:, 5])
    return out


def green_block(x, y, z, mask, g, scratch):
    """Generate the ``N_GREEN`` independent derivative components of
    ``1/r`` on a block of separations, one plane at a time.

    ``x, y, z`` are equally shaped separation blocks, ``mask`` broadcasts
    against them and holds ``0`` (evaluate) or ``+inf`` (skip), ``g`` and
    ``scratch`` (``(8,) + x.shape``) are overwritten.  Yields ``(c,
    plane)``: component ``c`` of :data:`N_GREEN` (in no fixed order), its
    values in ``plane`` — ``g`` or a scratch plane, valid until the next
    yield, so a consumer contracts it right away and no block ever holds
    more than one component.  44 in-place passes over contiguous planes
    in all.  The mask is added to ``r^2``: a masked entry has ``1/r ==
    0`` and with it every component exactly ``0`` — no ``inf * 0`` is
    ever formed, whatever ``x, y, z`` hold there (the diagonal of a level
    paired with itself included).
    """
    xx, yy, inv, inv2, inv3, p3, n15, a = scratch
    np.multiply(x, x, out=xx)
    np.multiply(y, y, out=yy)
    np.multiply(z, z, out=a)
    np.add(xx, yy, out=inv)
    inv += a
    inv += mask
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)                  # g0 = 1/r
    np.multiply(inv, inv, out=inv2)
    np.multiply(inv, inv2, out=inv3)
    np.multiply(inv3, inv2, out=p3)
    np.multiply(p3, inv2, out=n15)
    n15 *= -15.0                                 # -15/r^7
    p3 *= 3.0                                    # 3/r^5
    yield 0, inv
    # g2_ij = 3 x_i x_j / r^5 - delta_ij / r^3
    np.multiply(p3, xx, out=g)
    g -= inv3
    yield 1, g
    np.multiply(p3, yy, out=g)
    g -= inv3
    yield 2, g
    np.multiply(x, y, out=a)
    np.multiply(p3, a, out=g)
    yield 3, g
    a *= z
    np.multiply(n15, a, out=g)                   # g3_xyz = -15 xyz / r^7
    yield 13, g
    np.multiply(x, z, out=a)
    np.multiply(p3, a, out=g)
    yield 4, g
    np.multiply(y, z, out=a)
    np.multiply(p3, a, out=g)
    yield 5, g
    # g1_i = -x_i / r^3
    np.negative(inv3, out=inv3)
    for c, xi in ((6, x), (7, y), (8, z)):
        np.multiply(xi, inv3, out=g)
        yield c, g
    # g3_iij = x_j A_i (j != i), g3_iii = x_i (A_i + 6/r^5),
    # A_i = 3/r^5 - 15 x_i^2 / r^7
    for ss in (xx, yy):
        ss *= n15
        ss += p3
    for c, xi, ss in ((10, y, xx), (11, z, xx), (12, x, yy), (15, z, yy)):
        np.multiply(xi, ss, out=g)
        yield c, g
    p3 *= 2.0
    xx += p3
    np.multiply(x, xx, out=g)
    yield 9, g
    yy += p3
    np.multiply(y, yy, out=g)
    yield 14, g


def m2l_dense(com: np.ndarray, V: np.ndarray, tiles, P: np.ndarray,
              ws) -> np.ndarray:
    """Dense same-level M2L over staged tiles: every Green component of
    a tile contracted against the packed moments as soon as it is made,
    both partners of a pair updated from one evaluation.

    ``com`` is ``(3, *cells)`` (centres of mass, one contiguous plane per
    axis), ``V`` the ``(*cells, N_MOMENT)`` packed moments
    (:func:`pack_moments`) and ``P`` the ``(N_GREEN, *cells, N_MOMENT)``
    result, overwritten: ``P[c, i] = sum_j +-G_c(x_i - x_j) V[j]`` over
    the unmasked pairs of ``tiles`` (``(target index, partner index,
    mask)``, see :func:`.stencil.m2l_sweep_tiles` /
    :func:`.stencil.m2l_root_tiles`; the last axis an index selects is
    the one a tile pairs ``I x J``, leading ones are batch).  An index is
    a tuple of slices or of one integer array without repeats; the
    separations are broadcast differences of ``com`` under it.  Each
    component plane :func:`green_block` yields is two batched matmuls:
    ``G_c @ V[j]`` for the targets and ``G_c^T @ V[i]`` for the partners,
    so a pair's two contributions come from the very same Green values.
    A tile's contracted planes go into ``P`` with one ``P[:, index] +=``
    per side (the partners' odd components negated first): an in-place
    add through a view for slices, gather-add-scatter for an index array
    — which is why an array must not repeat a cell, and why the partner
    side is never added through an intermediate ``P[:, index]`` (a copy
    for an array).  ``ws`` is a :class:`~repro.core.workspace.Workspace`.
    """
    P[...] = 0.0
    for tgt, src, mask in tiles:
        Vi, Vj = V[tgt], V[src]
        block = Vi.shape[:-1] + Vj.shape[-2:-1]          # (*batch, I, J)
        t = ws.buf("m2l:t", (12,) + block)
        for d in range(3):
            np.subtract(com[d][tgt][..., :, None],
                        com[d][src][..., None, :], out=t[d])
        ri = ws.buf("m2l:Pi", (N_GREEN,) + Vi.shape)
        rj = ws.buf("m2l:Pj", (N_GREEN,) + Vj.shape)
        gemm = np.matmul if 1 not in block[-2:] else _one_row_gemm(ws)
        for c, g in green_block(t[0], t[1], t[2], mask, t[3], t[4:]):
            gemm(g, Vj, out=ri[c])
            gemm(np.swapaxes(g, -1, -2), Vi, out=rj[c])
        P[(slice(None),) + tgt] += ri
        np.negative(rj[_N_EVEN:], out=rj[_N_EVEN:])
        P[(slice(None),) + src] += rj
    return P


def _one_row_gemm(ws):
    """``matmul(a, b, out=out)`` as BLAS ``gemm`` sums it also when ``a``
    has one row: numpy hands a one-row product to ``gemv``, which sums
    in another order, so such an ``a`` is multiplied as the first of two
    rows (the second zero).  A tile of a partial level is one row wide
    where a full level's tiles never are (:func:`m2l_dense`)."""
    def gemm(a, b, out):
        if a.shape[-2] != 1:
            return np.matmul(a, b, out=out)
        two = ws.buf("m2l:two", a.shape[:-2] + (2, a.shape[-1]))
        two[..., :1, :] = a
        two[..., 1:, :] = 0.0
        res = ws.buf("m2l:two-out", out.shape[:-2] + (2, out.shape[-1]))
        np.matmul(two, b, out=res)
        out[...] = res[..., :1, :]
        return out
    return gemm


def m2l_assemble(P: np.ndarray, V: np.ndarray, out: np.ndarray
                 ) -> np.ndarray:
    """Taylor coefficients from contracted Green components, O(cells).

    ``V`` ``(n, N_MOMENT)`` as in :func:`m2l_dense`, ``P`` ``(N_GREEN + 2,
    n, N_MOMENT)`` its result with two spare rows behind it (overwritten
    here with the derived ``g3_xzz``, ``g3_yzz``); ``out`` ``(n, 10)``
    receives ``phi``, ``acc`` (3) and the six unique Hessian components
    (xx yy zz xy xz yz) — what :func:`m2l_pair` returns per pair, summed
    over each cell's partners:

        phi   = -(P_g0.m + 1/2 sum_kl P_g2kl.M2_kl)
        H_kl  = -P_g2kl.m
        acc_a = P_g1a.m + 1/2 sum_kl P_g3akl.M2_kl
                + 1/2 sum_kl M2_i,kl / m_i  P_g3akl.m

    where ``P_c.v`` is column ``v`` of component ``c`` and the ``kl``
    sums run over the five packed columns with the ``zz`` components
    eliminated (see :data:`N_GREEN`, :data:`N_MOMENT`); ``H_zz`` and the
    two ``g3_azz`` rows ``acc_z`` needs follow from tracelessness.  The
    last term is the receiver's own quadrupole coupling to the field
    gradient — the part of the pair force that makes ``m_i acc_i ==
    -m_j acc_j`` — divided by the receiving mass (:data:`TINY_MASS` for
    an empty cell, whose ``M2`` is zero too).
    """
    own = 0.5 * V[:, 1:]
    own /= np.maximum(V[:, 0], TINY_MASS)[:, None]
    # g3_xzz = -(g3_xxx + g3_xyy), g3_yzz = -(g3_xxy + g3_yyy)
    for row, c1, c2 in ((N_GREEN, 9, 12), (N_GREEN + 1, 10, 14)):
        np.add(P[c1], P[c2], out=P[row])
        np.negative(P[row], out=P[row])
    out[:, 0] = P[0, :, 0] + 0.5 * np.einsum("knk->n", P[1:6, :, 1:])
    np.negative(out[:, 0], out=out[:, 0])
    for a in range(3):
        S = P[_G3_OF[a]]
        out[:, 1 + a] = (P[6 + a, :, 0]
                         + 0.5 * np.einsum("knk->n", S[:, :, 1:])
                         + np.einsum("nk,kn->n", own, S[:, :, 0]))
    np.negative(P[1:3, :, 0].T, out=out[:, 4:6])
    np.add(P[1, :, 0], P[2, :, 0], out=out[:, 6])      # H_zz = -H_xx - H_yy
    np.negative(P[3:6, :, 0].T, out=out[:, 7:])
    return out


def _sym_contract(M2, g2xx, g2yy, g2zz, g2xy, g2xz, g2yz):
    """M2 : g2 for symmetric M2, over the 6 unique g2 components."""
    return (M2[:, 0, 0] * g2xx + M2[:, 1, 1] * g2yy + M2[:, 2, 2] * g2zz
            + 2.0 * (M2[:, 0, 1] * g2xy + M2[:, 0, 2] * g2xz
                     + M2[:, 1, 2] * g2yz))


def _hessian(H, scale, g2xx, g2yy, g2zz, g2xy, g2xz, g2yz):
    """H_ij = scale * g2_ij assembled from the unique components."""
    np.multiply(scale, g2xx, out=H[:, 0, 0])
    np.multiply(scale, g2yy, out=H[:, 1, 1])
    np.multiply(scale, g2zz, out=H[:, 2, 2])
    np.multiply(scale, g2xy, out=H[:, 0, 1])
    np.multiply(scale, g2xz, out=H[:, 0, 2])
    np.multiply(scale, g2yz, out=H[:, 1, 2])
    H[:, 1, 0] = H[:, 0, 1]
    H[:, 2, 0] = H[:, 0, 2]
    H[:, 2, 1] = H[:, 1, 2]

