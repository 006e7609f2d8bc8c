"""Per-entry map for the literal eq1/eq2 minor sums.

Only the body the literal forms :func:`adjinv.mp_inverse_columns` and
:func:`adjinv.mp_inverse_rows` share calls this.  It runs in one thread, in
input order.  It stays a named function so that a profiler or benchmark
tracer can time those per-entry sums as one layer (``perfbench`` reports it
as ``parallel.*``).
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    return [fn(x) for x in items]
