"""Strictly increasing 1-based index sequences and their enumerations.

An index sequence is a strictly increasing tuple of positions drawn from
1..n.  These drive every minor sum in the package: the full family of size-k
sequences, and the constrained family of those containing one required
position.  Enumeration order is always lexicographic.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

IndexSeq = tuple[int, ...]


def _check_k_n(k: int, n: int) -> None:
    if n < 1:
        raise ValueError(f"universe size must be positive, got {n}")
    if k < 1 or k > n:
        raise ValueError(f"subset size {k} outside 1..{n}")


def enumerate_k_subsets(k: int, n: int) -> Iterator[IndexSeq]:
    """All C(n, k) strictly increasing k-tuples from 1..n, lexicographic.

    Each call returns a fresh iterator, so streams are restartable and
    several may be consumed concurrently.
    """
    _check_k_n(k, n)
    return iter(combinations(range(1, n + 1), k))


def enumerate_containing(k: int, n: int, i: int) -> Iterator[IndexSeq]:
    """The C(n-1, k-1) members of ``enumerate_k_subsets(k, n)`` containing i.

    The full lexicographic enumeration, filtered to the sets that contain i,
    so the order is the same.  The arguments are checked at the call.
    """
    _check_k_n(k, n)
    if not 1 <= i <= n:
        raise ValueError(f"required index {i} outside 1..{n}")
    return (s for s in combinations(range(1, n + 1), k) if i in s)
