"""Deterministic thread-pool helpers.

All parallelism in this package is "embarrassing": independent work items
whose results are combined in item order, so the outcome is identical for
every thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    """Apply ``fn`` to every item, returning results in item order."""
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
