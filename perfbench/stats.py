"""Statistics the benchmark reports: percentiles with enough tail
samples, quartile spreads, open-loop phase accounting and the capacity
steps. Pure functions, tested by test_stats.py."""

import math
import statistics

INF = math.inf
# Candidate tail percentiles, highest last.
CANDIDATE_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)

def percentile(sorted_values, p):
    """Nearest-rank percentile (0 < p <= 100) of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n):
    """Highest candidate percentile with at least ten samples beyond it,
    or None when even the median has fewer than ten beyond it."""
    best = None
    for p in CANDIDATE_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def latencies(phase):
    """Latencies of one phase in due order; a request that was refused,
    failed or answered wrongly counts as infinitely late."""
    return [INF if v is None else v for v in phase["latency_ms"]]


def summarize(values):
    """Median, p90, p99 and the highest percentile with at least ten
    samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    top = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(ordered, 50.0),
        "p90": percentile(ordered, 90.0),
        "p99": percentile(ordered, 99.0),
        "top_p": top,
        "top": percentile(ordered, top) if top is not None else None,
    }


def lag_p99(phase):
    """How late the generator sent, p99 over the phase (ms)."""
    return percentile(sorted(phase["lag_ms"]), 99.0)


def failures(phase):
    """Requests that did not come back ok: refused, failed (lost replies
    included), mismatched."""
    return phase["rejected"] + phase["failed"] + phase["mismatch"]


def served_rate(phase):
    """Requests answered correctly per second of a phase or capacity
    step, from its start to its last reply (a generator that fell behind,
    or replies still draining, lengthen it)."""
    return phase["ok"] / phase["elapsed_s"]


def capacity(steps):
    """Best served rate of the closed-loop capacity steps. A host stall or
    a bad placement of the server's threads only ever slows a step, so
    the fastest is the closest to what the program can do."""
    return max(served_rate(p) for p in steps)


def spread(values):
    """Inter-quartile distance as a share of the median, quartiles as
    statistics.quantiles(values, n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else INF
