"""Bitmask helpers for 1-indexed vertex sets.

Bit ``i`` of a mask stands for vertex ``i``; bit 0 is never used.  A single
vertex is ``1 << i`` and counting set bits is ``int.bit_count()`` at call
sites, no wrapper needed.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations

from .errors import InputError


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        if i < 1:
            raise InputError(f"vertex indices are 1-based, got {i}")
        m |= 1 << i
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subset_masks(mask: int, size: int) -> Iterator[int]:
    """The subsets of size ``size`` of ``mask`` as masks, in lex order of
    their vertices (``itertools.combinations``), generated as asked for."""
    return map(sum, combinations([1 << i for i in iter_bits(mask)], size))


def indices_of(mask: int) -> tuple[int, ...]:
    return tuple(iter_bits(mask))


def full_mask(count: int) -> int:
    """Mask with bits 1..count set."""
    return ((1 << count) - 1) << 1
