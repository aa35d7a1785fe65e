"""Statistics and the result record of the lab benchmark.

Everything that turns raw samples into reported numbers lives here, so
perfbench/tests/test_stats.py can pin it down without running the
simulator.
"""

import json
import math
import statistics

# The percentiles a tail may be reported at, highest first. p99 is left
# out on purpose: on a shared 4-vCPU VM it moved 2.4-4.6 ms across five
# runs of the same what-if code (models at scale 0.3) while p90 stayed
# within 2.16-2.44 ms, so no bound a regression gate could use would
# hold it.
TAIL_PERCENTILES = (90, 50)
# A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def samples_beyond(n, p):
    """How many of n samples lie beyond the p-th percentile."""
    return math.floor(n * (100 - p) / 100)


def tail_percentile(n):
    """The highest percentile in TAIL_PERCENTILES with at least
    MIN_BEYOND of n samples beyond it, or None when n is too small for
    any of them."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def percentile(values, p):
    """The p-th percentile (1..99) by linear interpolation between the
    closest ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail(values):
    """(value, percentile) of the reported tail: the highest percentile
    with MIN_BEYOND samples beyond it. A sample too small for any of
    them supports no tail above its median, so the median is reported
    (percentile 50)."""
    p = tail_percentile(len(values))
    if p is None:
        return median(values), 50
    return percentile(values, p), p


def failed_frac(attempted, failed):
    """Failed operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def result_record(attempted, failed, metrics):
    """The benchmark's last stdout line.

    metrics maps a name to (value, unit). correct is true exactly when
    no operation failed.
    """
    attempted = int(attempted)
    failed = int(failed)
    failed_frac(attempted, failed)
    out = {}
    for name, (value, unit) in metrics.items():
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("metric %s is not finite" % name)
        out[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": out},
                      separators=(", ", ": "))
