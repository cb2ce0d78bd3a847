"""Rank statistics: Kruskal-Wallis H with a tie correction, and the
chi-square tail probability it needs.

The tail for integer degrees of freedom has a finite closed form
(Abramowitz & Stegun 26.4.4-26.4.5), so the package needs no statistics
dependency and no iterative special functions.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidInput, is_integer


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function P(X >= x) with integer df >= 1.

    With y = x/2, Q = erfc(sqrt(y)) [odd df] + sum_j exp(-y) y^j / j!
    over j = (df mod 2)/2, ..., df/2 - 1; each term is taken in log space
    so that none overflows or underflows before the others.
    """
    if not is_integer(df) or df < 1:
        raise ConfigError(f"chi2_sf needs an integer df >= 1, got {df!r}")
    if not math.isfinite(x):
        raise InvalidInput(f"chi2_sf needs a finite x, got {x}")
    if x <= 0:
        return 1.0
    y = x / 2.0
    total = math.erfc(math.sqrt(y)) if df % 2 else 0.0
    log_y = math.log(y)
    j = (df % 2) / 2.0
    while j < df / 2.0:
        total += math.exp(-y + j * log_y - math.lgamma(j + 1.0))
        j += 1.0
    return min(1.0, total)


def _average_ranks(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Midranks for tied values, plus the tie-correction sum (t^3 - t)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, len(values)])
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    return ranks, float(np.sum(counts**3 - counts))


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Kruskal-Wallis H (tie-corrected) and its chi-square p-value.

    All samples pooled and midranked; H = 12/(N(N+1)) * sum(R_i^2/n_i)
    - 3(N+1), divided by the tie correction. All-identical data gives
    H = 0, p = 1.
    """
    if len(groups) < 2:
        raise ConfigError("kruskal_wallis needs at least two groups")
    sizes = [len(g) for g in groups]
    if any(s == 0 for s in sizes):
        raise ConfigError("kruskal_wallis groups must be nonempty")
    pooled = np.concatenate([np.asarray(g, dtype=np.float64) for g in groups])
    if not np.all(np.isfinite(pooled)):
        raise InvalidInput("kruskal_wallis values must be finite")
    n_total = len(pooled)
    ranks, tie_sum = _average_ranks(pooled)
    correction = 1.0 - tie_sum / (n_total**3 - n_total)
    df = len(groups) - 1
    if correction == 0.0:
        # every value identical
        return 0.0, 1.0
    h = 0.0
    start = 0
    for size in sizes:
        rank_sum = float(ranks[start : start + size].sum())
        h += rank_sum**2 / size
        start += size
    h = 12.0 / (n_total * (n_total + 1)) * h - 3.0 * (n_total + 1)
    h /= correction
    return h, chi2_sf(h, df)
