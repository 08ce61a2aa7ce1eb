"""Nonparametric tests used by the experiment analyses.

Exactly the three tests the pipelines need: Kruskal-Wallis (tie-corrected H
against chi-square), Dunn's post-hoc z-tests (raw and Bonferroni-adjusted)
and the Mann-Whitney rank-sum test (normal approximation with tie
correction).  Kruskal-Wallis and rank-sum also offer an exact permutation
mode for tiny samples, used as the oracle for the approximations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np
from scipy.stats import chi2, norm, rankdata

from .errors import ValidationError

EXACT_LIMIT = 12  # permutation enumeration is only offered up to this N


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # keep pytest from collecting this as a test class

    statistic: float
    p_value: float
    group_sizes: tuple[int, ...]
    tie_correction: float
    method: str


@dataclass(frozen=True)
class DunnResult:
    """Pairwise post-hoc comparisons; matrices are k x k and symmetric."""

    z: np.ndarray
    p_raw: np.ndarray
    p_bonferroni: np.ndarray
    group_sizes: tuple[int, ...]
    mean_ranks: tuple[float, ...]


def _check_groups(groups: Sequence[Sequence[float]], minimum: int) -> list[np.ndarray]:
    if len(groups) < minimum:
        raise ValidationError(f"need at least {minimum} groups")
    arrays = []
    for g in groups:
        arr = np.asarray(g, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("every group must be a non-empty 1-D sample")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("group values must be finite")
        arrays.append(arr)
    return arrays


def _tie_term(pooled: np.ndarray) -> float:
    """Sum of t^3 - t over tie groups."""
    _, counts = np.unique(pooled, return_counts=True)
    return float(np.sum(counts.astype(np.float64) ** 3 - counts))


def _kw_statistic(ranks: np.ndarray, sizes: Sequence[int]) -> float:
    n_total = ranks.size
    h = 0.0
    start = 0
    for size in sizes:
        r = ranks[start:start + size].sum()
        h += r * r / size
        start += size
    return 12.0 / (n_total * (n_total + 1)) * h - 3.0 * (n_total + 1)


def kruskal_wallis(groups: Sequence[Sequence[float]],
                   method: str = "approx") -> TestResult:
    """Kruskal-Wallis H test across two or more groups.

    The H statistic uses average ranks and the standard tie correction
    ``1 - sum(t^3 - t) / (N^3 - N)``; the p-value comes from the chi-square
    distribution with k - 1 degrees of freedom.  When every pooled value is
    identical the statistic is defined as 0 with p = 1.

    Args:
        groups: two or more non-empty samples.
        method: "approx" for the chi-square approximation, "exact" for full
            permutation enumeration (total N must not exceed 12).
    """
    arrays = _check_groups(groups, minimum=2)
    sizes = tuple(len(a) for a in arrays)
    pooled = np.concatenate(arrays)
    n_total = pooled.size
    tie = _tie_term(pooled)
    correction = 1.0 - tie / (n_total ** 3 - n_total) if n_total > 1 else 0.0
    if correction == 0.0:
        return TestResult(0.0, 1.0, sizes, 0.0, method)
    ranks = rankdata(pooled)
    h = _kw_statistic(ranks, sizes) / correction
    h = max(h, 0.0)
    if method == "approx":
        p = float(chi2.sf(h, df=len(sizes) - 1))
        return TestResult(float(h), min(p, 1.0), sizes, correction, method)
    if method != "exact":
        raise ValidationError(f"unknown method {method!r}")
    if n_total > EXACT_LIMIT:
        raise ValidationError(f"exact mode limited to N <= {EXACT_LIMIT}")
    at_least, total = _permute_statistic(ranks, sizes,
                                         lambda r: _kw_statistic(r, sizes),
                                         float(_kw_statistic(ranks, sizes)))
    return TestResult(float(h), at_least / total, sizes, correction, "exact")


def _permute_statistic(ranks, sizes, statistic, observed):
    """Count label assignments whose statistic reaches the observed one.

    Enumerates all distinct splits of the pooled ranks into the given group
    sizes via nested index combinations.
    """
    n_total = ranks.size
    count = 0
    total = 0

    def recurse(free: tuple[int, ...], group: int) -> None:
        nonlocal count, total
        if group == len(sizes) - 1:
            order = []
            for g_indices in assigned:
                order.extend(g_indices)
            order.extend(free)
            permuted = ranks[np.array(order)]
            total += 1
            if statistic(permuted) >= observed - 1e-12:
                count += 1
            return
        for chosen in combinations(free, sizes[group]):
            assigned.append(chosen)
            remaining = tuple(i for i in free if i not in chosen)
            recurse(remaining, group + 1)
            assigned.pop()

    assigned: list[tuple[int, ...]] = []
    recurse(tuple(range(n_total)), 0)
    return count, total


def dunn(groups: Sequence[Sequence[float]]) -> DunnResult:
    """Dunn's post-hoc test on the pooled ranks.

    z_ij = (mean_rank_i - mean_rank_j) / sqrt(sigma2 * (1/n_i + 1/n_j)) with
    the tie-corrected variance sigma2 = N(N+1)/12 - sum(t^3 - t)/(12(N-1)).
    Raw two-sided p-values and the Bonferroni adjustment over the k(k-1)/2
    comparisons are both reported; degenerate all-tied input gives p = 1.
    """
    arrays = _check_groups(groups, minimum=2)
    sizes = tuple(len(a) for a in arrays)
    k = len(arrays)
    pooled = np.concatenate(arrays)
    n_total = pooled.size
    ranks = rankdata(pooled)
    mean_ranks = []
    start = 0
    for size in sizes:
        mean_ranks.append(float(ranks[start:start + size].mean()))
        start += size
    tie = _tie_term(pooled)
    sigma2 = n_total * (n_total + 1) / 12.0
    if n_total > 1:
        sigma2 -= tie / (12.0 * (n_total - 1))
    z = np.zeros((k, k))
    p_raw = np.ones((k, k))
    comparisons = k * (k - 1) // 2
    for i, j in combinations(range(k), 2):
        variance = sigma2 * (1.0 / sizes[i] + 1.0 / sizes[j])
        if variance <= 0:
            value = 0.0
        else:
            value = (mean_ranks[i] - mean_ranks[j]) / np.sqrt(variance)
        z[i, j], z[j, i] = value, -value
        p = float(min(2.0 * norm.sf(abs(value)), 1.0))
        p_raw[i, j] = p_raw[j, i] = p
    p_bonf = np.minimum(p_raw * comparisons, 1.0)
    np.fill_diagonal(p_bonf, 1.0)
    return DunnResult(z=z, p_raw=p_raw, p_bonferroni=p_bonf,
                      group_sizes=sizes, mean_ranks=tuple(mean_ranks))


def rank_sum(a: Sequence[float], b: Sequence[float],
             method: str = "approx") -> TestResult:
    """Two-sided Mann-Whitney rank-sum test.

    The statistic is U for the first sample; the approximate p-value uses
    the normal approximation with continuity correction and tie-corrected
    variance ``n1 n2 / 12 * ((N + 1) - sum(t^3 - t) / (N (N - 1)))``.  Exact
    mode enumerates every split of the pooled sample (N <= 12) and counts
    splits whose U deviates from the mean at least as much as observed.
    """
    first, second = _check_groups([a, b], minimum=2)
    n1, n2 = len(first), len(second)
    pooled = np.concatenate([first, second])
    n_total = n1 + n2
    ranks = rankdata(pooled)
    r1 = float(ranks[:n1].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0
    mean_u = n1 * n2 / 2.0
    tie = _tie_term(pooled)
    variance = n1 * n2 / 12.0 * ((n_total + 1) - tie / (n_total * (n_total - 1)))
    if method == "approx":
        if variance <= 0:
            return TestResult(u1, 1.0, (n1, n2), 0.0, method)
        deviation = max(abs(u1 - mean_u) - 0.5, 0.0)
        z = deviation / np.sqrt(variance)
        p = float(min(2.0 * norm.sf(z), 1.0))
        return TestResult(u1, p, (n1, n2), tie, method)
    if method != "exact":
        raise ValidationError(f"unknown method {method!r}")
    if n_total > EXACT_LIMIT:
        raise ValidationError(f"exact mode limited to N <= {EXACT_LIMIT}")
    observed_dev = abs(u1 - mean_u)
    count = 0
    total = 0
    for chosen in combinations(range(n_total), n1):
        r = float(ranks[list(chosen)].sum())
        u = r - n1 * (n1 + 1) / 2.0
        total += 1
        if abs(u - mean_u) >= observed_dev - 1e-12:
            count += 1
    return TestResult(u1, count / total, (n1, n2), tie, "exact")
