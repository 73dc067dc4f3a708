"""Medians, quartiles and percentiles — the only summaries perfbench reports."""

from __future__ import annotations

import statistics


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def iqr(values: list[float]) -> float:
    """Distance between the first and third quartile (0 below 2 samples)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return float(q3 - q1)


def fast_quartile(values: list[float], better: str) -> float:
    """The quartile on the *good* side of the samples: first quartile when
    lower is better, third when higher is.

    Noise on a shared host is one-sided — a busy neighbour only ever adds
    time — so the slow tail of a run's repeats says more about the host
    than about the code.  On the same samples this estimate repeats more
    tightly across runs than the median, about twice as tightly in a
    moderately disturbed set (README, "Reference numbers"); every sample is
    still in the result JSON."""
    if len(values) < 2:
        return float(values[0])
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return float(q1 if better == "lower" else q3)


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    index = min(len(sorted_values) - 1,
                max(0, int(fraction * len(sorted_values) + 0.5) - 1))
    return float(sorted_values[index])


def summary(values: list[float]) -> dict:
    """The per-metric record every result JSON carries."""
    return {"median": median(values), "iqr": iqr(values),
            "samples": [float(v) for v in values], "n": len(values)}
