"""Deterministic fan-out: an order-preserving thread map.

Its one caller is `verify.run_suite`, one task per criterion; nothing inside
a task maps again, so RRSHIFT_THREADS caps the live worker count.  Tasks
must share no mutable state; results are collected in input order, so a
parallel run reduces to exactly the same floating-point values as a serial
one.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["parallel_map", "thread_cap"]


def thread_cap() -> int:
    raw = os.environ.get("RRSHIFT_THREADS", "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise ValueError(f"RRSHIFT_THREADS must be an integer, got {raw!r}") from None
        if cap < 1:
            raise ValueError("RRSHIFT_THREADS must be >= 1")
        return cap
    return os.cpu_count() or 1


def parallel_map(fn, items, serial: bool = False) -> list:
    items = list(items)
    cap = thread_cap()
    if serial or cap == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(cap, len(items))) as pool:
        return list(pool.map(fn, items))
