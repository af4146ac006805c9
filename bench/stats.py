"""Order statistics for the benchmark's reports (stdlib only)."""

import math
import statistics

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


class TooFewBeyond(ValueError):
    """The requested percentile has fewer than MIN_BEYOND samples beyond it."""


def percentile(values, q: float):
    """Nearest-rank q-th percentile, 0 < q < 100, with its tail count.

    Returns ``(value, n, beyond)``: the k-th smallest value for
    k = ceil(q/100 * n), the sample count, and the n - k samples above
    that rank.  Raises :class:`TooFewBeyond` when ``beyond`` is below
    :data:`MIN_BEYOND`, so p90 needs at least 100 samples.
    """
    data = sorted(values)
    n = len(data)
    k = max(1, math.ceil(q / 100.0 * n))
    beyond = n - k
    if beyond < MIN_BEYOND:
        raise TooFewBeyond(
            f"p{q:g} of {n} samples has {beyond} beyond it; need {MIN_BEYOND}"
        )
    return data[k - 1], n, beyond


def median(values) -> float:
    return float(statistics.median(values))
