"""Order statistics used by the benchmark report.

Every timing is reported as a median plus the highest percentile that still
has at least ``TAIL_BEYOND`` samples above it, together with the sample count,
so a reader can tell how much a tail figure rests on.
"""
from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples_beyond)`` or ``None`` when there are
    ``beyond`` samples or fewer. The value is the sorted sample at 0-based
    index ``n - beyond - 1``; the percentile is the share of samples at or
    below it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return None
    index = n - beyond - 1
    return float(ordered[index]), 100.0 * (index + 1) / n, n - index - 1


def describe(values, unit: str) -> str:
    """One-line summary: median, tail by the rule above, and sample count."""
    text = "median %.6g %s over %d" % (median(values), unit, len(values))
    found = tail(values)
    if found is None:
        return text + "; no percentile has %d samples beyond it" % TAIL_BEYOND
    value, pct, beyond = found
    return text + "; p%.1f %.6g %s (%d beyond)" % (pct, value, unit, beyond)
