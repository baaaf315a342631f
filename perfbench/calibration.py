"""The machine's current speed, read from fixed pieces of interpreter work.

The machines this benchmark runs on are slices of shared hosts, and their
speed drifts: the same DOE query has taken 50 ms for some seconds and
90 ms for the next, and fixed pure-Python loops drift with it.  A run
therefore reads the speed between queries, and scales the CPU time the
program spends by ``REFERENCE_S / (median reading)`` over the same
stretch of the run.  A scaled time reads as the time the work would take
on a machine where a reading is :data:`REFERENCE_S`.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List

#: The nominal reading; scaled times are relative to it.  About what a
#: reading is on the 2-vCPU machine the first trajectory entry was
#: measured on.
REFERENCE_S = 0.0022

#: Least time between two readings while queries run.
INTERVAL_S = 0.08


def tree_work() -> int:
    """Recursive calls over tuples with ``isinstance`` dispatch, dict
    updates, object building and string sorting."""
    tally: dict = {}
    tree = _tree(7)
    total = 0
    for _ in range(4):
        total += _walk(tree, 0, tally)
    return total + len(tally) + _cell_work()


def buffer_work() -> int:
    """Object building and string sorting, and integer arithmetic with
    reads scattered over a 4 MB buffer."""
    total = _cell_work()
    position, mask = 1, len(_BUFFER) - 1
    for _ in range(7000):
        position = (position * 1103515245 + 12345) & mask
        total += _BUFFER[position]
    return total


def _cell_work() -> int:
    cells = [_Cell(index, text) for index, text in enumerate(_TEXTS)]
    groups: dict = {}
    for cell in cells:
        groups.setdefault(cell.text[:3], []).append(cell.index)
    return len(groups) + len(sorted(_TEXTS))


def _tree(depth: int):
    if depth == 0:
        return depth
    return (_tree(depth - 1), depth, _tree(depth - 1))


def _walk(node, depth: int, tally: dict) -> int:
    if isinstance(node, tuple):
        return sum(_walk(child, depth + 1, tally) for child in node)
    key = (depth, node)
    tally[key] = tally.get(key, 0) + 1
    return node


class _Cell:
    __slots__ = ("index", "text")

    def __init__(self, index: int, text: str):
        self.index = index
        self.text = text


_TEXTS = [f"{(index * 7919) % 10007:05d}-locus" for index in range(1000)]
#: Written through, so every page is the process's own.
_BUFFER = bytearray(range(256)) * (4 << 12)


class Speed:
    """Readings of the machine's speed, and the scale they give.

    A reading is the geometric mean of the times of :func:`tree_work` and
    :func:`buffer_work`.  Neither loop alone follows the queries' time
    well: the first follows the DOE query's median but over-corrects the
    Publication queries, the second the reverse (see ``DESIGN.md``).
    """

    def __init__(self) -> None:
        self.readings: List[float] = []
        self._last = float("-inf")

    def read(self) -> None:
        """Take one reading."""
        times = []
        for work in (tree_work, buffer_work):
            started = time.perf_counter()
            work()
            times.append(time.perf_counter() - started)
        self.readings.append(math.sqrt(times[0] * times[1]))
        self._last = time.perf_counter()

    def read_if_due(self) -> None:
        """Take one reading if :data:`INTERVAL_S` has passed since the last."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.read()

    def scale(self, since: int) -> float:
        """``REFERENCE_S`` over the median of the readings from index ``since``."""
        return REFERENCE_S / statistics.median(self.readings[since:])
