"""Small shared utilities: Morton (Z-order) encoding, and the integer
check of constructor arguments.

Octo-Tiger distributes octree nodes along a space-filling curve (Sec. 4.2)
and our FMM levels index cells by Morton key; both use these helpers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spread_bits", "morton_encode", "morton_key", "is_integer"]


def is_integer(value) -> bool:
    """An ``int`` or numpy integer, but not a ``bool``: ``2.5`` steps or
    locality ``True`` are caller bugs, not counts or indices."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def spread_bits(x: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of x so they occupy every third bit."""
    x = np.asarray(x).astype(np.uint64) & np.uint64(0x1FFFFF)
    x = (x | (x << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x << np.uint64(2))) & np.uint64(0x1249249249249249)
    return x


def morton_encode(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray) -> np.ndarray:
    """Interleave three non-negative integer coordinates into Morton keys."""
    return (spread_bits(ix) << np.uint64(2)) \
        | (spread_bits(iy) << np.uint64(1)) | spread_bits(iz)


def morton_key(coords: np.ndarray) -> np.ndarray:
    """Morton keys for an (n, 3) integer coordinate array."""
    coords = np.asarray(coords)
    return morton_encode(coords[..., 0], coords[..., 1], coords[..., 2])
