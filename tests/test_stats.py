import math
import os
import subprocess
import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import archsmith
from archsmith.errors import ValidationError
from archsmith.stats import (DunnResult, TestResult, _average_ranks,
                             _chi2_sf, _kw_statistic, _splits,
                             _two_sided_normal, dunn, kruskal_wallis,
                             rank_sum)

THREE_GROUPS = ([1, 2, 3], [4, 5, 6], [7, 8, 9])


@pytest.fixture(scope="module")
def scipy_stats():
    """``scipy.stats`` for the tests that compare against it; they skip
    where scipy is not installed, and the rest of this file runs."""
    return pytest.importorskip("scipy.stats")


class TestKruskalWallis:
    def test_hand_derived_h(self):
        # Rank sums 6, 15, 24; H = 12/(9*10) * (12 + 75 + 192) - 30 = 7.2.
        result = kruskal_wallis(THREE_GROUPS)
        assert result.statistic == pytest.approx(7.2, abs=1e-9)
        assert result.p_value < 0.05

    def test_identical_groups_degenerate(self):
        result = kruskal_wallis(([5, 5, 5], [5, 5], [5, 5, 5, 5]))
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_matches_scipy_reference(self, scipy_stats):
        rng = np.random.default_rng(4)
        for _ in range(30):
            groups = [rng.integers(0, 8, size=int(rng.integers(3, 12)))
                      for _ in range(int(rng.integers(2, 5)))]
            ours = kruskal_wallis(groups)
            theirs = scipy_stats.kruskal(*groups)
            assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-9)
            assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-9)

    @given(st.lists(st.integers(-100, 100), min_size=3, max_size=10, unique=True))
    @settings(max_examples=40)
    def test_invariant_under_monotone_transform(self, values):
        a, b = values[: len(values) // 2], values[len(values) // 2:]
        before = kruskal_wallis([a, b])
        transformed = kruskal_wallis([[math.exp(v / 50) for v in a],
                                      [math.exp(v / 50) for v in b]])
        assert before.statistic == pytest.approx(transformed.statistic, abs=1e-9)

    def test_exact_mode_matches_approx_in_decision_region(self):
        # The chi-square approximation is compared against the permutation
        # oracle where the test actually decides anything: shifted groups.
        rng = np.random.default_rng(17)
        for _ in range(15):
            groups = [rng.normal(loc, 1.0, size=4) for loc in (0.0, 1.5, 3.0)]
            approx = kruskal_wallis(groups, method="approx")
            exact = kruskal_wallis(groups, method="exact")
            assert abs(approx.p_value - exact.p_value) < 0.05

    def test_exact_mode_size_limit(self):
        with pytest.raises(ValidationError, match="exact"):
            kruskal_wallis(([1] * 7, [2] * 7), method="exact")

    def test_empty_group_rejected(self):
        with pytest.raises(ValidationError):
            kruskal_wallis(([1, 2], []))

    @pytest.mark.parametrize("test", [kruskal_wallis, dunn])
    def test_one_group_rejected(self, test):
        with pytest.raises(ValidationError, match="need at least 2 groups"):
            test([[1.0, 2.0, 3.0]])

    def test_p_uniform_under_null(self):
        # Exchangeable pooled data relabeled 1000 times: p-values should be
        # close to uniform (Kolmogorov distance under 0.1).
        rng = np.random.default_rng(8)
        pooled = rng.normal(size=60)
        p_values = []
        for _ in range(1000):
            shuffled = rng.permutation(pooled)
            p_values.append(kruskal_wallis(
                [shuffled[:20], shuffled[20:40], shuffled[40:]]).p_value)
        p_values = np.sort(p_values)
        grid = np.arange(1, 1001) / 1000
        assert np.max(np.abs(p_values - grid)) < 0.1


class TestDunn:
    def test_hand_derived_z_and_p(self):
        # Mean ranks 2, 5, 8; pooled variance N(N+1)/12 = 7.5; pair variance
        # 7.5 * (2/3) = 5, so z = 6/sqrt(5) for the extreme pair.
        result = dunn(THREE_GROUPS)
        assert result.z[2, 0] == pytest.approx(6 / math.sqrt(5), abs=1e-12)
        assert result.p_raw[0, 2] == pytest.approx(0.0072903580915, abs=1e-10)
        assert result.p_raw[0, 1] == pytest.approx(0.1797124948790, abs=1e-10)
        assert result.p_bonferroni[0, 2] == pytest.approx(3 * 0.0072903580915,
                                                          abs=1e-9)

    def test_identical_groups_p_one(self):
        result = dunn(([3, 3], [3, 3, 3], [3]))
        assert np.all(result.p_raw == 1.0)

    def test_exact_permutation_cross_check(self):
        # Enumerate every 3/3/3 split of the pooled ranks and compare the
        # tail mass of the mean-rank difference with the normal approximation.
        # The values 1..9 are their own ranks: the mean ranks are 2, 5, 8.
        result = dunn(THREE_GROUPS)
        values = list(range(1, 10))
        observed = abs(np.mean(THREE_GROUPS[2]) - np.mean(THREE_GROUPS[0]))
        hits = total = 0
        for g0 in combinations(values, 3):
            rest = [v for v in values if v not in g0]
            for g1 in combinations(rest, 3):
                g2 = [v for v in rest if v not in g1]
                total += 1
                if abs(np.mean(g2) - np.mean(g0)) >= observed - 1e-12:
                    hits += 1
        exact_p = hits / total
        assert abs(result.p_raw[0, 2] - exact_p) < 0.05
        assert result.p_raw[0, 2] < 0.05  # both calls flag the extreme pair

    def test_symmetry_and_diagonal(self):
        result = dunn(THREE_GROUPS)
        assert np.allclose(result.p_raw, result.p_raw.T)
        assert np.allclose(result.z, -result.z.T)
        assert np.all(np.diag(result.p_raw) == 1.0)

    def test_bonferroni_caps_at_one(self):
        result = dunn(([1, 2], [1.5, 2.5], [1.2, 2.2], [1.1, 2.4]))
        assert np.all(result.p_bonferroni <= 1.0)
        assert np.all(result.p_bonferroni >= result.p_raw - 1e-15)

    def test_separated_groups_small_p(self):
        rng = np.random.default_rng(0)
        groups = [rng.normal(loc, 0.5, size=40) for loc in (0.0, 5.0, 10.0)]
        result = dunn(groups)
        for i, j in combinations(range(3), 2):
            assert result.p_raw[i, j] < 0.05


class TestRankSum:
    def test_identical_samples_p_one(self):
        result = rank_sum([1, 2, 3], [1, 2, 3])
        assert result.p_value > 0.99

    def test_disjoint_samples_minimal_u(self):
        result = rank_sum([1, 2, 3], [10, 11, 12])
        assert result.statistic == 0.0
        exact = rank_sum([1, 2, 3], [10, 11, 12], method="exact")
        # Oracle: 20 equally likely splits, the two extremes reach |U-bar|=4.5.
        assert exact.p_value == pytest.approx(2 / 20, abs=1e-12)

    def test_exact_matches_brute_force_enumeration(self, scipy_stats):
        rng = np.random.default_rng(3)
        a = rng.normal(size=4)
        b = rng.normal(size=5)
        ours = rank_sum(a, b, method="exact")
        pooled = np.concatenate([a, b])
        ranks = scipy_stats.rankdata(pooled)
        mean_u = len(a) * len(b) / 2
        observed = abs(ours.statistic - mean_u)
        hits = total = 0
        for chosen in combinations(range(9), 4):
            u = ranks[list(chosen)].sum() - 4 * 5 / 2
            total += 1
            if abs(u - mean_u) >= observed - 1e-12:
                hits += 1
        assert ours.p_value == pytest.approx(hits / total, abs=1e-12)

    def test_matches_scipy_reference(self, scipy_stats):
        rng = np.random.default_rng(12)
        for _ in range(30):
            a = rng.integers(0, 10, size=int(rng.integers(5, 20)))
            b = rng.integers(0, 10, size=int(rng.integers(5, 20)))
            ours = rank_sum(a, b)
            theirs = scipy_stats.mannwhitneyu(a, b, use_continuity=True,
                                              method="asymptotic")
            assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-9)
            assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-9)

    def test_exact_within_tolerance_of_approx(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n1 = int(rng.integers(3, 7))
            n2 = int(rng.integers(3, 13 - n1))
            a, b = rng.normal(size=n1), rng.normal(size=n2)
            approx = rank_sum(a, b, method="approx")
            exact = rank_sum(a, b, method="exact")
            assert abs(approx.p_value - exact.p_value) < 0.05

    def test_p_uniform_under_null(self):
        rng = np.random.default_rng(9)
        pooled = rng.normal(size=50)
        p_values = []
        for _ in range(1000):
            shuffled = rng.permutation(pooled)
            p_values.append(rank_sum(shuffled[:25], shuffled[25:]).p_value)
        p_values = np.sort(p_values)
        grid = np.arange(1, 1001) / 1000
        assert np.max(np.abs(p_values - grid)) < 0.1

    def test_exact_mode_size_limit(self):
        with pytest.raises(ValidationError, match="exact"):
            rank_sum([1] * 7, [2] * 6, method="exact")

    @pytest.mark.parametrize("a,b,want", [
        # The pooled 2 occurs three times: 1 - (3^3 - 3) / (7^3 - 7).
        ([1, 2, 2, 3], [2, 4, 5], 1 - 24 / 336),
        ([1, 2, 3], [4, 5], 1.0),
        ([5, 5, 5], [5, 5], 0.0),
    ], ids=["ties", "no_ties", "all_tied"])
    def test_tie_correction_is_kruskal_wallis_factor(self, a, b, want):
        # The normal approximation's variance n1 n2 (N + 1) / 12 takes the
        # factor 1 - sum(t^3 - t) / (N^3 - N), which kruskal_wallis divides
        # its raw H by; a zero factor gives p = 1 and H = 0.
        n1, n2 = len(a), len(b)
        result = rank_sum(a, b)
        variance = n1 * n2 * (n1 + n2 + 1) / 12 * want
        deviation = max(abs(result.statistic - n1 * n2 / 2) - 0.5, 0.0)
        assert result.p_value == pytest.approx(
            math.erfc(deviation / math.sqrt(2 * variance)) if want else 1.0,
            rel=1e-12)
        raw = _kw_statistic(_average_ranks(np.array(a + b, dtype=float)),
                            (n1, n2))
        assert kruskal_wallis([a, b]).statistic * want == pytest.approx(
            raw, rel=1e-12, abs=1e-12)


def permute_statistic_oracle(ranks, sizes, statistic, observed):
    """Count the splits of ``ranks`` into groups of ``sizes`` whose
    statistic reaches ``observed``: nested ``combinations``, one recursion
    level per group, each split as the index order of its groups."""
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


def kruskal_wallis_exact_oracle(groups):
    approx = kruskal_wallis(groups)  # the statistic
    pooled = np.concatenate([np.asarray(g, dtype=np.float64) for g in groups])
    if np.unique(pooled).size == 1:  # all tied: no tie-corrected H
        return replace(approx, method="exact")
    sizes = tuple(map(len, groups))
    ranks = _average_ranks(pooled)
    at_least, total = permute_statistic_oracle(
        ranks, sizes, lambda r: _kw_statistic(r, sizes),
        float(_kw_statistic(ranks, sizes)))
    return replace(approx, p_value=at_least / total, method="exact")


def rank_sum_exact_oracle(a, b):
    n1, n2 = len(a), len(b)
    pooled = np.concatenate([np.asarray(a, dtype=np.float64),
                             np.asarray(b, dtype=np.float64)])
    ranks = _average_ranks(pooled)

    def u_first(r):
        return float(r[:n1].sum()) - n1 * (n1 + 1) / 2.0

    mean_u = n1 * n2 / 2.0
    at_least, total = permute_statistic_oracle(
        ranks, (n1, n2), lambda r: abs(u_first(r) - mean_u),
        abs(u_first(ranks) - mean_u))
    return TestResult(u_first(ranks), at_least / total, "exact")


@st.composite
def exact_groups(draw, n_groups):
    """2-4 groups, N <= 12 in all and at most 3,000 splits, of tied small
    integers or of floats."""
    k = draw(st.integers(*n_groups))
    sizes = draw(st.lists(st.integers(1, 12 - k + 1), min_size=k,
                          max_size=k))
    assume(sum(sizes) <= 12 and math.factorial(sum(sizes)) // math.prod(
        math.factorial(size) for size in sizes) <= 3000)
    values = (st.integers(0, 4) if draw(st.booleans())
              else st.floats(-1e3, 1e3, allow_nan=False))
    return [draw(st.lists(values, min_size=size, max_size=size))
            for size in sizes]


class TestExactMode:
    @pytest.mark.parametrize("sizes", [(3,), (2, 1), (1, 11), (6, 6),
                                       (2, 2, 2, 2), (1, 2, 3, 4),
                                       (4, 4, 4)])
    def test_splits_come_in_the_recursion_order(self, sizes):
        orders = []
        permute_statistic_oracle(np.arange(sum(sizes)), sizes,
                                 lambda r: orders.append(r.tolist()) or 0.0,
                                 0.0)
        assert list(_splits(sizes)) == orders

    @given(exact_groups((2, 4)))
    @settings(max_examples=60, deadline=None)
    @example([[0.5, 1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 5.0],
              [0.0, 4.0, 4.0, 1.5]])
    @example([[1, 1], [1, 1, 1]])
    def test_kruskal_wallis_matches_recursion_oracle(self, groups):
        ours = kruskal_wallis(groups, method="exact")
        assert ours == kruskal_wallis_exact_oracle(groups)
        assert type(ours.p_value) is float

    @given(exact_groups((2, 2)))
    @settings(max_examples=60, deadline=None)
    @example([[3.0, 1.0, 4.0, 1.0, 5.0, 9.0], [2.0, 6.0, 5.0, 3.0, 5.0, 8.0]])
    @example([[7], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]])
    def test_rank_sum_matches_recursion_oracle(self, groups):
        ours = rank_sum(*groups, method="exact")
        assert ours == rank_sum_exact_oracle(*groups)
        assert type(ours.p_value) is float

    @pytest.mark.parametrize("sizes,splits", [
        ((1,) * 12, 479_001_600), ((3, 3, 3, 3), 369_600),
        ((2, 2, 2, 2, 2, 1), 1_247_400)])
    def test_too_many_splits_rejected_before_the_first(self, sizes, splits,
                                                       monkeypatch):
        def no_splits(sizes):
            raise AssertionError("a split was drawn")

        monkeypatch.setattr("archsmith.stats._splits", no_splits)
        values = iter(range(sum(sizes)))
        groups = [[next(values) for _ in range(size)] for size in sizes]
        with pytest.raises(ValidationError, match=(
                f"^exact mode would enumerate {splits} splits, more than "
                f"100000$")):
            kruskal_wallis(groups, method="exact")

    @pytest.mark.parametrize("test", [
        lambda method: kruskal_wallis(THREE_GROUPS, method=method),
        lambda method: rank_sum([1, 2], [3, 4, 5], method=method),
    ], ids=["kw", "ranksum"])
    def test_unknown_method_rejected(self, test):
        with pytest.raises(ValidationError, match="unknown method 'exakt'"):
            test("exakt")


def assert_close_to(ours, theirs):
    """``ours`` within 1e-12 relative of ``theirs`` where scipy's value is
    at least 1e-300, and equal to it where scipy gives 0 or 1."""
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    edge = (theirs == 0) | (theirs == 1)
    assert (ours[edge] == theirs[edge]).all()
    normal = theirs >= 1e-300
    assert (np.abs(ours[normal] - theirs[normal])
            <= 1e-12 * theirs[normal]).all()


class TestScipyOracles:
    """The package computes ranks with numpy and tail probabilities with
    the standard library; ranks must be bit-equal to ``scipy.stats`` and
    tail probabilities within 1e-12 relative of it."""

    @given(st.lists(st.sampled_from([-2.5, -1.0, 0.0, 0.1, 0.3, 1e-300,
                                     7.0, 1e300]),
                    min_size=1, max_size=80))
    @example([0.3])
    @example([0.1] * 25)
    @settings(max_examples=300)
    def test_average_ranks_equal_rankdata(self, scipy_stats, values):
        values = np.array(values)
        ours = _average_ranks(values)
        theirs = scipy_stats.rankdata(values)
        assert ours.dtype == theirs.dtype
        assert ours.tolist() == theirs.tolist()

    def test_chi2_tail_matches_scipy_stats(self, scipy_stats):
        grid = np.r_[-0.0, 0.0, 1e-300, 1e-12, np.linspace(0.0, 80.0, 3201),
                     150.0, 500.0, 1e3, 1e4, 1e300]
        for df in range(1, 8):
            assert_close_to([_chi2_sf(df, x) for x in grid],
                            scipy_stats.chi2.sf(grid, df))

    def test_normal_tail_matches_scipy_stats(self, scipy_stats):
        grid = np.r_[0.0, 1e-300, 1e-12, np.linspace(0.0, 45.0, 4501),
                     40.0, 1e3]
        ours = np.array([_two_sided_normal(z) for z in grid])
        theirs = 2.0 * scipy_stats.norm.sf(grid)
        # scipy's ndtr flushes a tail below 1e-300 to 0 (from z = 37.7 on
        # here) where erfc still gives its subnormal value.
        flushed = theirs == 0
        assert (ours[flushed] < np.finfo(float).tiny).all()
        assert_close_to(ours[~flushed], theirs[~flushed])
        assert [_two_sided_normal(-z) for z in grid] == ours.tolist()


def test_import_leaves_scipy_unloaded():
    # Every p-value function and the uniform metamodel run in a fresh
    # interpreter that cannot import scipy.
    code = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(name)\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "import archsmith, archsmith.cli\n"
        "from archsmith.genotype import GenotypeConfig\n"
        "from archsmith.metamodel import LearnConfig, Metamodel\n"
        "groups = [[1.0, 2.0, 2.0], [3.0, 4.0], [0.5, 5.0, 6.0]]\n"
        "assert archsmith.kruskal_wallis(groups).p_value < 1\n"
        "assert archsmith.dunn(groups).p_raw[0, 1] < 1\n"
        "assert archsmith.rank_sum(*groups[:2]).p_value < 1\n"
        "for config in GenotypeConfig.joint(), GenotypeConfig.per_network():\n"
        "    Metamodel.uniform(LearnConfig(genotype=config))\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')]\n")
    src = str(Path(archsmith.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})
