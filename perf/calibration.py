"""The meter's clock: a fixed kernel of interpreter work, timed often.

This host's speed moves between levels 20-30 % apart every few seconds,
independently per core, so a time means little without the machine's speed
when it was taken (README, "Load model", has the spreads with and without).
Every measured time is divided by *kernel time nearby /
KERNEL_NOMINAL_SECONDS*.  Imports nothing from the program, so that set-up
timing can sample it before the program's imports.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

#: The unit of calibrated time: measured times x (this / kernel time nearby),
#: so every time reads as if the machine ran at the speed at which the kernel
#: takes this long.  About this host's fast level, so that calibrated and raw
#: times are of one size here; on another host they differ by a constant
#: factor.  Changing it rescales every timing of every result.
KERNEL_NOMINAL_SECONDS = 0.00040


class _Cell:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, amount: int) -> int:
        self.total += amount
        return self.total


def _kernel() -> int:
    """Fixed interpreter work shaped like the system's: calls, dicts, tuples."""
    table: Dict[str, int] = {}
    recent: List[Tuple[str, int]] = []
    cell = _Cell()
    for i in range(1200):
        key = "k%d" % (i & 63)
        table[key] = table.get(key, 0) + cell.add(i)
        recent.append((key, i))
        if len(recent) > 32:
            recent = recent[16:]
    return len(table)


def calibrate() -> float:
    """Seconds the kernel takes right now (the faster of two runs)."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - started)
    return best


def slowdown(kernel_before: float, kernel_after: float) -> float:
    """What to divide a time by, given the kernel's time on either side of it."""
    return (kernel_before + kernel_after) / 2 / KERNEL_NOMINAL_SECONDS
