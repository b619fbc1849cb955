"""Machine-speed probe for the benchmark.

On a few cores of a shared host the speed of the whole machine swings by
half or more, from second to second and from minute to minute, and two runs
of the same code read apart by that much. The probe is a fixed piece of
work in the same mix as the program (Python string and dict work, then a
numpy gather, bincount and sort) that owes nothing to the program. The
benchmark runs it before the first operation it measures and after each
one, and reports each operation's time in seconds at the reference speed:
the measured time times ``REFERENCE_S`` over the mean of the two probes
around it. A slower program reads slower; a slower machine, as far as the
probe sees it, does not. The raw medians are kept beside the scaled ones in
the results; the stream p99 is reported raw (see ``run.measure``).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Seconds one probe takes at the reference speed: roughly its median on one
# core of a lightly loaded two-core Intel Xeon virtual machine.
REFERENCE_S = 0.040
# Passes over the probe data in one probe; the data stays small so that it
# adds little to the peak memory the benchmark reports.
ROUNDS = 6


class SpeedProbe:
    """Times the fixed probe work and keeps every sample."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(4000)]
        self._text = " ".join(words[i] for i in rng.zipf(1.3, 20000) % len(words))
        self._index = rng.integers(0, 20000, 200000)
        self._values = rng.random(200000)
        self.samples: list[float] = []
        self._work()  # warm-up, not timed

    def _work(self) -> int:
        checksum = 0
        for _ in range(ROUNDS):
            counts: dict[str, int] = {}
            for token in self._text.split():
                key = token.upper()
                counts[key] = counts.get(key, 0) + 1
            sums = np.bincount(self._index, weights=self._values[self._index[::-1]],
                               minlength=20000)
            checksum += len(counts) + int(np.argsort(sums)[0])
        return checksum

    def probe(self) -> None:
        start = perf_counter()
        self._work()
        self.samples.append(perf_counter() - start)

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def last_scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed,
        for an operation between the last two probes."""
        return REFERENCE_S / ((self.samples[-2] + self.samples[-1]) / 2)
