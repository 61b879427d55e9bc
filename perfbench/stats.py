"""Order statistics for latency samples."""

from __future__ import annotations

import math

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    # Rounded first so that, say, 99.9 % of 10,000 is rank 9,990 and not 9,991.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank q-th percentile: the smallest sample with at least q %
    of the samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    return sorted(samples)[_rank(len(samples), q) - 1]


def beyond(n: int, q: float) -> int:
    """Samples ranked after the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """(q, value, samples beyond) for the highest candidate percentile that
    has at least MIN_BEYOND samples ranked beyond it, or None when even the
    lowest candidate has fewer."""
    for q in TAIL_PERCENTILES:
        n_beyond = beyond(len(samples), q)
        if n_beyond >= MIN_BEYOND:
            return q, percentile(samples, q), n_beyond
    return None
