"""A fixed piece of pure-Python work that times the machine, not the program.

The benchmark shares its machine with other tenants.  While they are busy,
every operation runs up to 1.8x slower, and that lasts from seconds to
minutes, longer than a run.  So the harness runs this kernel between short
batches of operations and scales their times by how fast the kernel ran
then:

    seconds at reference speed = measured seconds * SECONDS / kernel seconds

`SECONDS` is the kernel's time on an idle core of the machine the baseline
was recorded on (Intel Xeon at 2.1 GHz, Python 3.11), so on an idle core
the scaled time equals the measured time.  The kernel mixes the work the
solver does: parsing rows into bit masks, allocating objects, counting in a
dict, and function calls that combine masks over row subsets.  It does not
call divset, so no change to the program moves it.
"""

from __future__ import annotations

import itertools
import random
from time import perf_counter

SECONDS = 0.0085

_ONES = str.maketrans("?", "0")
_ZEROS = str.maketrans("01?", "100")


class _Row:
    __slots__ = ("text", "ones", "zeros")

    def __init__(self, text: str):
        self.text = text
        self.ones = int(text.translate(_ONES), 2)
        self.zeros = int(text.translate(_ZEROS), 2)


def _distance(a: _Row, b: _Row) -> int:
    return ((a.ones & b.zeros) | (a.zeros & b.ones)).bit_count()


_rng = random.Random(0)
_TEXTS = ["".join(_rng.choice("0011?") for _ in range(96)) for _ in range(3200)]


def kernel() -> int:
    rows = [_Row(text) for text in _TEXTS]
    seen: dict[str, int] = {}
    for row in rows:
        seen[row.text] = seen.get(row.text, 0) + 1
    total = len(seen)
    for a, b, c in itertools.combinations(rows[:40], 3):
        total += _distance(a, b) + _distance(b, c) + _distance(a, c)
    return total


def measure() -> float:
    """Seconds one run of the kernel takes now."""
    started = perf_counter()
    kernel()
    return perf_counter() - started
