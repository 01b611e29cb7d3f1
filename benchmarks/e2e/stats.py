"""Sample statistics the harness reports: percentiles, spreads, verdicts."""

from __future__ import annotations

import math
import statistics

import numpy as np

#: a percentile is reported only with this many samples beyond it
MIN_BEYOND = 10
#: candidate tail percentiles, highest first
TAILS = (99.9, 99, 95, 90, 80, 75)


def percentile(samples: list[float], q: float) -> float:
    """The q-th percentile (0..100), linear interpolation between ranks."""
    return float(np.percentile(samples, q))


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of ``n`` samples beyond it.

    With fewer than 40 samples no candidate qualifies and the lowest one
    stands in, which the record states (``op_tail_q`` beside ``op_n``): the
    maximum of three or five samples is the noisiest number a run has.
    """
    for q in TAILS:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND:
            return q
    return TAILS[-1]


def summary(samples: list[float]) -> dict:
    """Median plus the supported tail percentile, sample count stated."""
    q = tail_percentile(len(samples))
    return {
        "n": len(samples),
        "p50": statistics.median(samples),
        "tail_q": q,
        "tail": percentile(samples, q),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ``ys`` against ``xs`` (0.0 when degenerate)."""
    if len(set(xs)) < 2:
        return 0.0
    return statistics.linear_regression(xs, ys).slope


#: runs per side below which a within-bound difference is never a gain
MIN_RUNS_FOR_GAIN = 10


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    """``improved | unchanged | unresolved | regressed`` for one metric row.

    A spread wider than the bound on either side makes the row
    ``unresolved`` unless every run of one side beats every run of the
    other.  Otherwise the median's move as a share of the base median
    decides: worse by more than the bound is ``regressed``, better by more
    than the bound is ``improved``.  A smaller gain counts only with at
    least ten runs a side, every new run ahead of every base run, and the
    medians further apart than the base's own inter-quartile distance —
    three lucky runs are not a gain.
    """
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    all_better = (max(new) < min(base) if better == "lower"
                  else min(new) > max(base))
    all_worse = (min(new) > max(base) if better == "lower"
                 else max(new) < min(base))
    if max(spread(base), spread(new)) > bound and not (all_better or all_worse):
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    if (min(len(base), len(new)) >= MIN_RUNS_FOR_GAIN and all_better
            and abs(nmed - bmed) > b3 - b1):
        return "improved"
    return "unchanged"
