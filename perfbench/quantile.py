"""Harrell-Davis quantile estimate.

A workload mixes cells whose trial times form separate clusters (a PSO
trial on F1 takes about a third of a BSO trial on F7). With equal trial
counts per cell, the sample median lands in the gap between two clusters
and jumps between the slowest trial of one cell and the fastest of the
next. The Harrell-Davis estimate averages all order statistics with
Beta-distributed weights that depend only on the sample count, so it
moves only when the trial times move.
"""

from __future__ import annotations

import math

import numpy as np

_GRID = 20001


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``values``, 0 < p < 1."""
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 0 or not 0 < p < 1:
        raise ValueError("need at least one value and 0 < p < 1")
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # Beta(a, b) CDF by the trapezoid rule on a fine grid; weight i is the
    # CDF mass between (i - 1)/n and i/n.
    t = np.linspace(0.0, 1.0, _GRID)
    inner = t[1:-1]
    pdf = np.zeros_like(t)
    pdf[1:-1] = np.exp(
        (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner) - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(t))))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)
