"""Order statistics for the benchmark, with minimum sample counts.

A percentile is only reported when at least ``min_beyond`` samples lie
beyond it (ten by default), so p50 needs 20 samples, p80 needs 50, p90
needs 100 and p99 needs 1,000. Asking for more than the data can support raises
:class:`TooFewSamples` instead of returning a number that would not
repeat.
"""

from __future__ import annotations

import math
import statistics


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def required_samples(q: float, min_beyond: int = 10) -> int:
    """Smallest sample count with ``min_beyond`` samples beyond the ``q``-th percentile."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    return math.ceil(round(min_beyond * 100.0 / (100.0 - q), 9))


def percentile(values, q: float, min_beyond: int = 10) -> float:
    """The ``q``-th percentile (linear interpolation between order statistics).

    Raises :class:`TooFewSamples` when fewer than
    :func:`required_samples` values are given.
    """
    data = sorted(float(v) for v in values)
    need = max(1, required_samples(q, min_beyond))
    if len(data) < need:
        raise TooFewSamples(
            f"p{q:g} needs at least {need} samples, got {len(data)}"
        )
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def spread(values) -> dict:
    """Median, quartiles, IQR share and largest deviation share of ``values``.

    Quartiles are the ones ``statistics.quantiles(values, n=4)`` gives;
    the shares are relative to the median.
    """
    data = [float(v) for v in values]
    med = statistics.median(data)
    if len(data) >= 2:
        q1, _, q3 = statistics.quantiles(data, n=4)
    else:
        q1 = q3 = med
    scale = abs(med) if med else 1.0
    return {
        "n": len(data),
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / scale,
        "max_dev_share": max(abs(v - med) for v in data) / scale,
    }
