"""Nonparametric tests used by the experiment analyses.

Exactly the three tests the pipelines need: Kruskal-Wallis (tie-corrected H
against chi-square), Dunn's post-hoc z-tests (raw and Bonferroni-adjusted)
and the Mann-Whitney rank-sum test (normal approximation with tie
correction).  Kruskal-Wallis and rank-sum also offer an exact permutation
mode for tiny samples, used as the oracle for the approximations.

Ranks are computed with numpy and tail probabilities with the standard
library: the two-sided normal tail is ``math.erfc``, and the chi-square
tail takes its closed form for integer degrees of freedom.  Both agree with
``scipy.stats`` to 1e-12 relative, which the tests check against scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

import numpy as np

from .errors import ValidationError

EXACT_LIMIT = 12  # permutation enumeration is only offered up to this N
EXACT_SPLITS = 100_000  # and only when it has at most this many splits
_SQRT_HALF = math.sqrt(0.5)


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


def _pool(groups: Sequence[Sequence[float]],
          ) -> tuple[tuple[int, ...], np.ndarray, float]:
    """Check two or more samples; their sizes, and the average ranks and
    tie term of the pooled values."""
    if len(groups) < 2:
        raise ValidationError("need at least 2 groups")
    arrays = []
    for g in groups:
        arr = np.asarray(g, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("every group must be a non-empty 1-D sample")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("group values must be finite")
        arrays.append(arr)
    pooled = np.concatenate(arrays)
    return (tuple(len(a) for a in arrays), _average_ranks(pooled),
            _tie_term(pooled))


def _chi2_sf(df: int, x: float) -> float:
    """Chi-square survival function for integer ``df``: Q(df/2, x/2).

    Q(a, y) = e^-y sum y^i / i! over i < a for whole a, and erfc(sqrt(y))
    plus the same sum over the half-integers i < a otherwise.  Each term is
    summed from its logarithm, so a huge ``x`` gives 0 rather than inf * 0.
    """
    if x <= 0:
        return 1.0
    y = x / 2.0
    half = df % 2 / 2.0
    terms = [math.exp((i + half) * math.log(y) - y - math.lgamma(i + half + 1))
             for i in range(df // 2)]
    if half:
        terms.append(math.erfc(math.sqrt(y)))
    return min(math.fsum(terms), 1.0)


def _two_sided_normal(z: float) -> float:
    """2 P(Z > |z|) for a standard normal Z."""
    return math.erfc(abs(z) * _SQRT_HALF)



def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, each tie group sharing its mean rank (``rankdata``)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


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
            permutation enumeration (total N at most 12, and at most
            ``EXACT_SPLITS`` splits of the N values into the groups).
    """
    sizes, ranks, tie = _pool(groups)
    n_total = ranks.size
    correction = 1.0 - tie / (n_total ** 3 - n_total) if n_total > 1 else 0.0
    if correction == 0.0:
        return TestResult(0.0, 1.0, sizes, 0.0, method)
    h = _kw_statistic(ranks, sizes) / correction
    h = max(h, 0.0)
    if method == "approx":
        p = _chi2_sf(len(sizes) - 1, float(h))
    else:
        p = _exact_p(method, ranks, sizes, lambda r: _kw_statistic(r, sizes))
    return TestResult(float(h), p, sizes, correction, method)


def _splits(sizes: Sequence[int]):
    """Every split of the positions 0..N-1 into groups of ``sizes``, each
    as the index order that lists the groups' positions in turn.

    Each group but the last picks ``size`` of the positions that the groups
    before it left, by their rank among those, and the last group takes
    the rest.  ``itertools.product`` runs through the picks in
    lexicographic order, which is the order of nested ``combinations``.
    """
    left = [sum(sizes[g:]) for g in range(len(sizes))]
    for picks in product(*(combinations(range(n), size)
                           for n, size in zip(left, sizes[:-1]))):
        free, order = list(range(left[0])), []
        for pick in picks:
            order += [free[p] for p in pick]
            free = [f for p, f in enumerate(free) if p not in pick]
        yield order + free


def _exact_p(method: str, ranks: np.ndarray, sizes: Sequence[int],
             statistic) -> float:
    """Exact mode: the share of all splits of ``ranks`` into groups of
    ``sizes`` whose ``statistic`` reaches its observed value, that of
    ``ranks`` as they are (within 1e-12)."""
    if method != "exact":
        raise ValidationError(f"unknown method {method!r}")
    if ranks.size > EXACT_LIMIT:
        raise ValidationError(f"exact mode limited to N <= {EXACT_LIMIT}")
    splits = math.factorial(ranks.size) // math.prod(map(math.factorial,
                                                         sizes))
    if splits > EXACT_SPLITS:
        raise ValidationError(f"exact mode would enumerate {splits} splits, "
                              f"more than {EXACT_SPLITS}")
    observed, count = statistic(ranks), 0
    for total, order in enumerate(_splits(sizes), start=1):
        count += bool(statistic(ranks[order]) >= observed - 1e-12)
    return count / total


def dunn(groups: Sequence[Sequence[float]]) -> DunnResult:
    """Dunn's post-hoc test on the pooled ranks.

    z_ij = (mean_rank_i - mean_rank_j) / sqrt(sigma2 * (1/n_i + 1/n_j)) with
    the tie-corrected variance sigma2 = N(N+1)/12 - sum(t^3 - t)/(12(N-1)).
    Raw two-sided p-values and the Bonferroni adjustment over the k(k-1)/2
    comparisons are both reported; degenerate all-tied input gives p = 1.
    """
    sizes, ranks, tie = _pool(groups)
    k, n_total = len(sizes), ranks.size
    mean_ranks = []
    start = 0
    for size in sizes:
        mean_ranks.append(float(ranks[start:start + size].mean()))
        start += size
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
        p = _two_sided_normal(value)
        p_raw[i, j] = p_raw[j, i] = p
    p_bonf = np.minimum(p_raw * comparisons, 1.0)
    np.fill_diagonal(p_bonf, 1.0)
    return DunnResult(z=z, p_raw=p_raw, p_bonferroni=p_bonf,
                      group_sizes=sizes, mean_ranks=tuple(mean_ranks))


def rank_sum(a: Sequence[float], b: Sequence[float],
             method: str = "approx") -> TestResult:
    """Two-sided Mann-Whitney rank-sum test.

    The statistic is U for the first sample; the approximate p-value uses
    the normal approximation with continuity correction and variance
    ``n1 n2 (N + 1) / 12 * c``, with ``c = 1 - sum(t^3 - t) / (N^3 - N)`` the
    tie correction that both modes report, as ``kruskal_wallis`` does.  Exact
    mode enumerates every split of the pooled sample (N <= 12) and counts
    splits whose U deviates from the mean at least as much as observed.
    """
    (n1, n2), ranks, tie = _pool([a, b])
    n_total = n1 + n2
    correction = 1.0 - tie / (n_total ** 3 - n_total)

    def u_first(r) -> float:
        return float(r[:n1].sum()) - n1 * (n1 + 1) / 2.0

    u1 = u_first(ranks)
    mean_u = n1 * n2 / 2.0
    variance = n1 * n2 / 12.0 * ((n_total + 1) - tie / (n_total * (n_total - 1)))
    if method == "approx":
        if variance <= 0:
            return TestResult(u1, 1.0, (n1, n2), correction, method)
        deviation = max(abs(u1 - mean_u) - 0.5, 0.0)
        z = deviation / np.sqrt(variance)
        p = _two_sided_normal(z)
        return TestResult(u1, p, (n1, n2), correction, method)
    p = _exact_p(method, ranks, (n1, n2), lambda r: abs(u_first(r) - mean_u))
    return TestResult(u1, p, (n1, n2), correction, method)
