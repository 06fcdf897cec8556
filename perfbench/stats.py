"""Statistics of the closed-loop benchmark: tail percentiles, quartile
spreads and span self-times. Pure functions; test_stats.py covers them."""

import math
import statistics
from fractions import Fraction

# Percentiles a tail is reported at, lowest first.
TAIL_LADDER = ("50", "90", "99", "99.9", "99.99")
# Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def rank(n, p):
    """1-based nearest rank of percentile `p` (a decimal string or number)
    among `n` sorted samples: the smallest k with k/n >= p/100."""
    k = math.ceil(Fraction(str(p)) * n / 100)
    return min(max(k, 1), n)


def percentile(samples, p):
    """Nearest-rank percentile `p` of `samples` (not interpolated, so the
    value is always one of the samples)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[rank(len(ordered), p) - 1]


def quietest(steal, probe, share):
    """Indices, in order, of the `share` of windows the host disturbed
    least: ceil(share * windows) of them, at least one. Windows rank by
    their steal share, then, since steal is counted in 10 ms ticks and ties
    are common, by their host probe time, then by index. `steal` and `probe`
    are measured outside the program, so the choice never depends on what
    the windows measured."""
    k = min(len(steal), max(1, math.ceil(share * len(steal))))
    order = sorted(range(len(steal)), key=lambda i: (steal[i], probe[i], i))
    return sorted(order[:k])


def beyond(n, p):
    """Samples strictly after the nearest-rank percentile `p` of `n`."""
    return n - rank(n, p)


def tail_percentile(n):
    """The highest percentile of TAIL_LADDER with at least MIN_BEYOND of
    `n` samples beyond it, or None when not even the median has."""
    best = None
    for p in TAIL_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4)
    gives them."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    its child spans cover. `spans` is a list of (parent, start, end) with
    parent an index into the list, or -1 for a root."""
    children = [[] for _ in spans]
    for i, (parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end) in enumerate(spans):
        kids = [(spans[c][1], spans[c][2]) for c in children[i]]
        out.append(end - start - covered(kids, start, end))
    return out


def nesting_errors(spans):
    """Spans that leave their parent's interval or overlap a sibling. Both
    would make self-times fail to add up to the root."""
    errors = []
    last_end = {}
    for i, (parent, start, end) in enumerate(spans):
        if end < start:
            errors.append(i)
        elif parent >= 0:
            _, p_start, p_end = spans[parent]
            if start < p_start or end > p_end or start < last_end.get(parent, start):
                errors.append(i)
            last_end[parent] = end
    return errors
