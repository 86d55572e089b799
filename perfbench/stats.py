"""Summary statistics shared by the workloads and the layer suite."""

from __future__ import annotations

import math
import statistics


def median(values):
    return statistics.median(values)


def spread(values):
    """Inter-quartile range as a share of the median (the A/A noise
    floor of a set of same-run samples)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def tail(values):
    """``(percentile, value)``: the highest whole percentile with at
    least ten samples beyond it; the median below twenty samples."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 20:
        return 50, statistics.median(ordered)
    percentile = math.floor(100 * (count - 10) / count)
    # Nearest-rank: at least ``count - rank >= 10`` samples lie above.
    rank = max(1, math.ceil(percentile / 100 * count))
    return percentile, ordered[rank - 1]


def timing(prefix, values, metrics, details):
    """Median and tail of a span duration in seconds; the sample count
    and the tail's percentile go to *details*."""
    if not values:
        raise ValueError("no %s samples were recorded" % prefix)
    percentile, value = tail(values)
    metrics[prefix] = median(values)
    metrics[prefix + ".tail"] = value
    details.setdefault("samples", {})[prefix] = {
        "n": len(values), "tail_percentile": percentile}
