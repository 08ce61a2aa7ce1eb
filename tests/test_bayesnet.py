import json
import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archsmith.bayesnet import (
    BayesNet,
    Dag,
    aracne_skeleton,
    bn_from_json_obj,
    bn_to_json_obj,
    chow_liu,
    enumerate_joint,
    fit_cpts,
    log_likelihood_many,
    mi_matrix,
    orient,
    pls_sample_many,
    small_sample_correction,
)
from archsmith.errors import FormatError, ValidationError
from archsmith.genotype import DepthKey, GenotypeConfig, joint_schema
from archsmith.metamodel import LearnConfig, learn_submodel


def brute_force_mi(column_a, column_b):
    """Independent plug-in MI oracle: explicit double loop over the
    contingency table."""
    n = len(column_a)
    total = 0.0
    for a in set(column_a):
        pa = sum(1 for x in column_a if x == a) / n
        for b in set(column_b):
            pb = sum(1 for x in column_b if x == b) / n
            pab = sum(1 for x, y in zip(column_a, column_b)
                      if x == a and y == b) / n
            if pab > 0:
                total += pab * math.log(pab / (pa * pb))
    return max(total, 0.0)


def mutual_information(data, i, j, cardinalities):
    """Per-pair plug-in MI oracle: the expression ``mi_matrix`` evaluates
    on whole arrays, applied to one contingency table at a time."""
    arr = np.asarray(data, dtype=np.int64)
    ci, cj = int(cardinalities[i]), int(cardinalities[j])
    counts = np.zeros((ci, cj), dtype=np.float64)
    np.add.at(counts, (arr[:, i], arr[:, j]), 1.0)
    n = counts.sum()
    joint = counts / n
    pi = joint.sum(axis=1, keepdims=True)
    pj = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    mi = float(np.sum(joint[mask] * np.log(joint[mask] / (pi @ pj)[mask])))
    return max(mi, 0.0)


def mi_matrix_oracle(data, cardinalities):
    n_vars = np.asarray(data).shape[1]
    out = np.zeros((n_vars, n_vars))
    for i, j in combinations(range(n_vars), 2):
        out[i, j] = out[j, i] = mutual_information(data, i, j, cardinalities)
    return out


def aracne_oracle(mi, dpi_tolerance, threshold_correction=None):
    """ARACNE one triangle at a time: the weakest edge of a triangle is
    its smallest (mi, edge)."""
    mi = np.asarray(mi, dtype=np.float64)
    n = mi.shape[0]
    corrected = (mi if threshold_correction is None
                 else mi - threshold_correction)
    edges = {(i, j) for i, j in combinations(range(n), 2)
             if corrected[i, j] > 0.0}
    marked = set()
    for i, j, k in combinations(range(n), 3):
        triangle = [(i, j), (i, k), (j, k)]
        if any(e not in edges for e in triangle):
            continue
        weakest = min(triangle, key=lambda e: (mi[e[0], e[1]], e))
        others = [mi[e[0], e[1]] for e in triangle if e != weakest]
        if mi[weakest[0], weakest[1]] < (1.0 - dpi_tolerance) * min(others):
            marked.add(weakest)
    return sorted(edges - marked)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def chow_liu_oracle(mi):
    """Kruskal's algorithm over every pair, sorted in Python by
    ``(-mi, i, j)``, with a union-find."""
    mi = np.asarray(mi, dtype=np.float64)
    n = mi.shape[0]
    candidates = sorted(((i, j) for i, j in combinations(range(n), 2)),
                        key=lambda e: (-mi[e[0], e[1]], e[0], e[1]))
    uf = _UnionFind(n)
    edges = [e for e in candidates if uf.union(*e)]
    return sorted(edges[: n - 1])


@st.composite
def mi_matrices(draw):
    """Symmetric n x n matrices, n = 2-29, with a zero diagonal: uniform
    floats, or values on a grid of ``levels`` steps so that many tie."""
    n = draw(st.integers(2, 29))
    levels = draw(st.sampled_from([None, 1, 2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sym = (rng.random((n, n)) if levels is None
           else rng.integers(0, levels + 1, size=(n, n)) / levels)
    mi = np.triu(sym, 1)
    return mi + mi.T


@st.composite
def categorical_data(draw):
    """(rows x columns data, cardinalities): 1-29 columns of cardinality
    1-16, each using only its first few values, and 1-400 rows."""
    n_vars = draw(st.integers(1, 29))
    cards = draw(st.lists(st.integers(1, 16), min_size=n_vars,
                          max_size=n_vars))
    used = [draw(st.integers(1, card)) for card in cards]
    rows = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.integers(0, used, size=(rows, n_vars)), cards


def pair_mi(data, cards):
    """MI of the two columns of ``data``."""
    return mi_matrix(data, cards)[0, 1]


def chain_data(rng, n_rows, flip=0.1, cards=(2, 2, 2)):
    """a -> b -> c with each link copying its parent except with prob flip."""
    a = rng.integers(0, cards[0], size=n_rows)
    noise_b = rng.random(n_rows) < flip
    b = np.where(noise_b, rng.integers(0, cards[1], size=n_rows), a % cards[1])
    noise_c = rng.random(n_rows) < flip
    c = np.where(noise_c, rng.integers(0, cards[2], size=n_rows), b % cards[2])
    return np.column_stack([a, b, c])


class TestMutualInformation:
    def test_independent_uniform_near_zero(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 3, size=(50_000, 2))
        assert pair_mi(data, (3, 3)) < 0.01

    def test_identical_fair_binary_is_ln_two(self):
        x = np.array([0, 1] * 500)
        data = np.column_stack([x, x])
        assert pair_mi(data, (2, 2)) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_deterministic_three_level_is_ln_three(self):
        x = np.array([0, 1, 2] * 300)
        mapping = np.array([2, 0, 1])
        data = np.column_stack([x, mapping[x]])
        expected = brute_force_mi(list(data[:, 0]), list(data[:, 1]))
        assert expected == pytest.approx(math.log(3), abs=1e-12)
        assert pair_mi(data, (3, 3)) == pytest.approx(
            math.log(3), abs=1e-12)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                    min_size=1, max_size=60))
    @settings(max_examples=60)
    def test_matches_brute_force_oracle(self, pairs):
        data = np.array(pairs)
        ours = pair_mi(data, (4, 3))
        oracle = brute_force_mi([p[0] for p in pairs], [p[1] for p in pairs])
        assert ours == pytest.approx(oracle, abs=1e-12)
        assert ours >= 0.0

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    min_size=2, max_size=40))
    @settings(max_examples=40)
    def test_symmetry(self, pairs):
        data = np.array(pairs)
        assert pair_mi(data, (3, 3)) == pytest.approx(
            pair_mi(data[:, ::-1], (3, 3)), abs=1e-12)

    def test_matrix_is_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(1)
        data = chain_data(rng, 2000)
        matrix = mi_matrix(data, (2, 2, 2))
        assert np.allclose(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)

    @pytest.mark.parametrize("cards", [(2, 2, 2), [2, 2, 2],
                                       np.array([2, 2, 2])],
                             ids=["tuple", "list", "ndarray"])
    def test_cardinality_sequence_types(self, cards):
        data = chain_data(np.random.default_rng(3), 500)
        assert np.array_equal(mi_matrix(data, cards),
                              mi_matrix(data, (2, 2, 2)))

    @given(categorical_data())
    @example((np.zeros((1, 29), dtype=np.int64), [1, 2, 16] * 9 + [3, 3]))
    @settings(max_examples=100)
    def test_matches_per_pair_oracle_bit_for_bit(self, case):
        data, cards = case
        assert np.array_equal(mi_matrix(data, cards),
                              mi_matrix_oracle(data, cards))

    def test_full_sixteen_by_sixteen_tables_bit_for_bit(self):
        # 256 non-zero cells per pair: past numpy's 128-term summation block.
        rng = np.random.default_rng(5)
        data = rng.integers(0, 16, size=(3000, 4))
        data[:, 1] = (data[:, 0] + rng.integers(0, 3, size=3000)) % 16
        cards = (16, 16, 16, 16)
        assert np.array_equal(mi_matrix(data, cards),
                              mi_matrix_oracle(data, cards))

    @pytest.mark.parametrize("data, column", [
        ([[0, -1], [1, 0], [0, 1]], 1),
        ([[0, 0], [2, 1]], 0),
        ([[0, 0, 0], [1, 1, 5]], 2),
    ], ids=["negative", "too-large", "far-too-large"])
    def test_out_of_range_value_rejected(self, data, column):
        cards = (2,) * len(data[0])
        with pytest.raises(ValidationError) as info:
            mi_matrix(data, cards)
        assert str(info.value) == f"value out of range in column {column}"

    def test_needs_a_row_once_there_is_a_pair(self):
        with pytest.raises(ValidationError) as info:
            mi_matrix(np.empty((0, 2), dtype=np.int64), (2, 2))
        assert str(info.value) == "mutual information needs at least one row"
        for columns in (0, 1):
            empty = np.empty((0, columns), dtype=np.int64)
            assert mi_matrix(empty, (2,) * columns).shape == (columns,) * 2

    def test_small_sample_correction_value(self):
        corr = small_sample_correction((2, 3), n_rows=100)
        assert corr[0, 1] == pytest.approx(math.log(6) / 200)


class TestChowLiu:
    def test_two_variables_single_edge(self):
        assert chow_liu(np.array([[0.0, 0.3], [0.3, 0.0]])) == [(0, 1)]

    def test_chain_recovered_and_is_max_weight_tree(self):
        rng = np.random.default_rng(7)
        data = chain_data(rng, 20_000)
        mi = mi_matrix(data, (2, 2, 2))
        # Oracle: enumerate all three spanning trees on {0, 1, 2}.
        trees = [[(0, 1), (0, 2)], [(0, 1), (1, 2)], [(0, 2), (1, 2)]]
        weights = [sum(mi[i, j] for i, j in t) for t in trees]
        best = trees[int(np.argmax(weights))]
        assert best == [(0, 1), (1, 2)]
        assert chow_liu(mi) == best

    def test_equal_weights_give_lexicographically_first_tree(self):
        mi = np.full((4, 4), 0.5)
        np.fill_diagonal(mi, 0.0)
        assert chow_liu(mi) == [(0, 1), (0, 2), (0, 3)]

    @given(mi_matrices())
    @settings(max_examples=150)
    @example(np.zeros((29, 29)))
    def test_matches_union_find_oracle(self, mi):
        assert chow_liu(mi) == chow_liu_oracle(mi)

    def test_tied_cycle_drops_its_last_pair_in_i_j_order(self):
        # The cycle 0-2-3-1-4-0 ties: its last pair in (i, j) order,
        # (2, 3), closes it.  In (j, i) order the last would be (1, 4).
        mi = np.zeros((5, 5))
        for i, j in ((0, 2), (2, 3), (1, 3), (1, 4), (0, 4)):
            mi[i, j] = mi[j, i] = 0.9
        want = [(0, 2), (0, 4), (1, 3), (1, 4)]
        assert chow_liu(mi) == want
        assert chow_liu_oracle(mi) == want

    @pytest.mark.parametrize("learn", [chow_liu, aracne_skeleton],
                             ids=["chow_liu", "aracne"])
    @pytest.mark.parametrize("shape", [(2, 3), (3,), ()],
                             ids=["wide", "row", "scalar"])
    def test_mi_matrix_must_be_square(self, learn, shape):
        with pytest.raises(ValidationError) as info:
            learn(np.zeros(shape))
        assert str(info.value) == "MI matrix must be square"

    @given(st.integers(2, 7), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_returns_spanning_tree(self, n, seed):
        rng = np.random.default_rng(seed)
        sym = rng.random((n, n))
        mi = (sym + sym.T) / 2
        np.fill_diagonal(mi, 0.0)
        edges = chow_liu(mi)
        assert len(edges) == n - 1
        # Spanning: union-find over the selected edges connects everything.
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in edges:
            parent[find(b)] = find(a)
        assert len({find(i) for i in range(n)}) == 1


class TestAracne:
    def test_transitive_chain_edge_pruned(self):
        rng = np.random.default_rng(3)
        data = chain_data(rng, 20_000)
        mi = mi_matrix(data, (2, 2, 2))
        # The indirect pair must be the weakest in its triangle by a margin
        # exceeding the tolerance, so DPI removes exactly it.
        assert mi[0, 2] < 0.9 * min(mi[0, 1], mi[1, 2])
        assert aracne_skeleton(mi, dpi_tolerance=0.1) == [(0, 1), (1, 2)]

    def test_two_variables_threshold_only(self):
        mi = np.array([[0.0, 0.2], [0.2, 0.0]])
        assert aracne_skeleton(mi) == [(0, 1)]
        # An edge needs corrected MI strictly above zero.
        for penalty, edges in ((0.15, [(0, 1)]), (0.2, []), (0.25, [])):
            correction = np.full((2, 2), penalty)
            assert aracne_skeleton(mi, threshold_correction=correction) \
                == edges

    def test_tolerance_one_disables_pruning(self):
        rng = np.random.default_rng(3)
        mi = mi_matrix(chain_data(rng, 5000), (2, 2, 2))
        assert aracne_skeleton(mi, dpi_tolerance=1.0) == [(0, 1), (0, 2), (1, 2)]

    def test_threshold_correction_applies_to_thresholding_only(self):
        mi = np.array([[0.0, 0.05], [0.05, 0.0]])
        corr = small_sample_correction((4, 4), n_rows=10)  # ln(16)/20 ~ 0.139
        assert aracne_skeleton(mi, threshold_correction=corr) == []
        assert aracne_skeleton(mi) == [(0, 1)]

    @given(st.integers(0, 29), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.booleans())
    @settings(max_examples=150)
    def test_matches_triple_loop_oracle(self, n, seed, tolerance, corrected):
        rng = np.random.default_rng(seed)
        # One decimal: ties within and across triangles.  Values at or
        # below zero fail the threshold, unless a negative correction
        # keeps them; a tie for a negative minimum can then be pruned, so
        # which edge of the tie is the weakest shows.
        upper = np.triu(np.round(rng.uniform(-0.5, 1.0, (n, n)), 1), 1)
        mi = upper + upper.T
        correction = (np.round(rng.uniform(-1.0, 0.3, (n, n)), 1)
                      if corrected else None)
        assert aracne_skeleton(mi, tolerance, correction) == \
            aracne_oracle(mi, tolerance, correction)

    def test_tied_weakest_edge_is_the_first_in_order(self):
        # Edges (0, 1) and (0, 2) tie for the triangle's smallest MI.  A
        # tie is only pruned below zero, where a negative correction has
        # kept both edges; the first of the two is the weakest.
        mi = np.array([[0.0, -0.3, -0.3], [-0.3, 0.0, 0.5],
                       [-0.3, 0.5, 0.0]])
        correction = np.full((3, 3), -1.0)
        assert aracne_skeleton(mi, 0.1, correction) == [(0, 2), (1, 2)]
        assert aracne_oracle(mi, 0.1, correction) == [(0, 2), (1, 2)]

    @pytest.mark.parametrize("shape", [(2, 2), (3,), (3, 3, 1)],
                             ids=["smaller", "row", "three-axes"])
    def test_correction_shape_must_match(self, shape):
        mi = np.full((3, 3), 0.2)
        with pytest.raises(ValidationError) as info:
            aracne_skeleton(mi, threshold_correction=np.zeros(shape))
        assert str(info.value) == (f"threshold_correction has shape {shape}, "
                                   f"not the MI matrix's (3, 3)")

    @given(st.integers(0, 500))
    @settings(max_examples=25)
    def test_skeleton_shrinks_as_tolerance_grows(self, seed):
        rng = np.random.default_rng(seed)
        sym = rng.random((5, 5)) * 0.5
        mi = (sym + sym.T) / 2
        np.fill_diagonal(mi, 0.0)
        loose = set(aracne_skeleton(mi, dpi_tolerance=1.0))
        mid = set(aracne_skeleton(mi, dpi_tolerance=0.1))
        strict = set(aracne_skeleton(mi, dpi_tolerance=0.0))
        assert strict <= mid <= loose


class TestOrient:
    VARS = tuple((f"x{i}", 2) for i in range(4))

    def test_identity_order_directs_low_to_high(self):
        dag = orient([(0, 1), (1, 3)], self.VARS)
        assert dag.parents == ((), (0,), (), (1,))

    @given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                   max_size=12))
    @settings(max_examples=60)
    def test_always_acyclic(self, raw_edges):
        edges = [(a, b) for a, b in raw_edges if a != b]
        variables = tuple((f"v{i}", 3) for i in range(6))
        dag = orient(edges, variables)
        order = dag.topological_order()  # raises on a cycle
        assert sorted(order) == list(range(6))
        # First variable in the canonical order can never acquire parents.
        assert dag.parents[0] == ()


class TestFitCpts:
    SINGLE = Dag(variables=(("x", 2),), parents=((),))

    def test_laplace_smoothing_example(self):
        bn = fit_cpts(self.SINGLE, np.array([[1], [1], [1], [0]]), alpha=1.0)
        assert bn.cpts[0][0, 1] == pytest.approx(4 / 6)
        assert bn.cpts[0][0, 0] == pytest.approx(2 / 6)

    def test_unseen_parent_config_uniform(self):
        dag = Dag(variables=(("a", 3), ("b", 4)), parents=((), (0,)))
        data = np.array([[0, 1], [0, 2], [0, 1]])
        bn = fit_cpts(dag, data, alpha=1.0)
        assert np.allclose(bn.cpts[1][1], 0.25)
        assert np.allclose(bn.cpts[1][2], 0.25)

    def test_huge_alpha_tends_to_uniform(self):
        bn = fit_cpts(self.SINGLE, np.array([[1]] * 100), alpha=1e9)
        assert np.allclose(bn.cpts[0], 0.5, atol=1e-6)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValidationError, match="alpha"):
            fit_cpts(self.SINGLE, np.array([[0]]), alpha=0.0)

    def test_empty_data_gives_uniform_rows(self):
        dag = Dag(variables=(("a", 2), ("b", 3)), parents=((), (0,)))
        bn = fit_cpts(dag, np.empty((0, 2)), alpha=1.0)
        for table in bn.cpts:
            assert np.allclose(table, 1.0 / table.shape[1])

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)),
                    min_size=0, max_size=50),
           st.floats(0.1, 10.0))
    @settings(max_examples=50)
    def test_rows_sum_to_one_and_stay_positive(self, rows, alpha):
        dag = Dag(variables=(("a", 2), ("b", 3)), parents=((), (0,)))
        bn = fit_cpts(dag, np.array(rows).reshape(-1, 2), alpha=alpha)
        for table in bn.cpts:
            assert np.all(table > 0)
            assert np.allclose(table.sum(axis=1), 1.0)


def manual_chain_bn():
    """a -> b, binary, P(a=1)=0.5, P(b=1|a=1)=0.7, P(b=1|a=0)=0.2."""
    dag = Dag(variables=(("a", 2), ("b", 2)), parents=((), (0,)))
    cpts = (np.array([[0.5, 0.5]]),
            np.array([[0.8, 0.2], [0.3, 0.7]]))
    return BayesNet(dag=dag, cpts=cpts, alpha=1.0)


def random_bn(rng, max_vars=4, max_card=4):
    """A random small net: random parent subsets, Dirichlet(1) rows."""
    n = int(rng.integers(1, max_vars + 1))
    cards = tuple(int(rng.integers(2, max_card + 1)) for _ in range(n))
    parents = tuple(
        tuple(p for p in range(v) if rng.random() < 0.5) for v in range(n))
    dag = Dag(variables=tuple((f"v{i}", c) for i, c in enumerate(cards)),
              parents=parents)
    cpts = []
    for v in range(n):
        rows = int(np.prod([cards[p] for p in parents[v]])) if parents[v] else 1
        cpts.append(rng.dirichlet(np.ones(cards[v]), size=rows))
    return BayesNet(dag=dag, cpts=tuple(cpts), alpha=1.0)


# One network over three variables and each entry point that checks rows.
ROW_CARDS = (2, 3, 2)
ROW_DAG = Dag(variables=(("a", 2), ("b", 3), ("c", 2)),
              parents=((), (0,), (1,)))
ROW_ENTRIES = {
    "mi_matrix": lambda data: mi_matrix(data, ROW_CARDS),
    "fit_cpts": lambda data: fit_cpts(ROW_DAG, data),
    "log_likelihood_many": lambda data: log_likelihood_many(
        fit_cpts(ROW_DAG, [[0, 0, 0]]), data),
}


class TestRowCheck:
    @pytest.mark.parametrize("entry", sorted(ROW_ENTRIES))
    @pytest.mark.parametrize("data, message", [
        ([[0, 0, 0], [1, -1, 0]], "value out of range in column 1"),
        ([[0, 0, 0], [1, 2, 2]], "value out of range in column 2"),
        ([[0, 0], [1, 2]], "data of shape (2, 2) is not 2-D with one "
                           "column per variable (3)"),
        ([0, 1, 0], "data of shape (3,) is not 2-D with one column per "
                    "variable (3)"),
    ], ids=["negative", "too-large", "wrong-width", "one-axis"])
    def test_one_message_per_fault(self, entry, data, message):
        with pytest.raises(ValidationError) as info:
            ROW_ENTRIES[entry](data)
        assert str(info.value) == message

    @pytest.mark.parametrize("entry", sorted(ROW_ENTRIES))
    @pytest.mark.parametrize("data, message", [
        ([[0, 0, 0], [1, 0.5, 0]], "value 0.5 of column 1 is not an integer"),
        ([[0, 0, math.nan], [1, 2.5, 0]],
         "value nan of column 2 is not an integer"),
        ([[0, 0, 0], [1, math.inf, 0]],
         "value inf of column 1 is not an integer"),
    ], ids=["fraction", "nan", "infinity"])
    def test_non_integer_value_named(self, entry, data, message):
        with pytest.raises(ValidationError) as info:
            ROW_ENTRIES[entry](data)
        assert str(info.value) == message

    @pytest.mark.parametrize("entry", sorted(ROW_ENTRIES))
    def test_integral_floats_read_as_ints(self, entry):
        data = np.array([[0, 2, 1], [1, 1, 0], [0, 0, 1]])
        want, got = (ROW_ENTRIES[entry](rows)
                     for rows in (data, data.astype(np.float64)))
        if entry == "fit_cpts":
            assert bn_to_json_obj(got) == bn_to_json_obj(want)
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [3, 40], ids=["marginals", "aracne"])
    def test_submodel_rows_are_checked_not_truncated(self, n):
        gc = GenotypeConfig.joint()
        schema = joint_schema(gc, DepthKey(1, 1))
        rows = np.random.default_rng(3).integers(0, schema.cardinalities,
                                                 size=(n, len(schema)))
        config = LearnConfig(genotype=gc)
        want = learn_submodel(schema, rows, config)
        assert learn_submodel(schema, rows.astype(float), config) == want
        rows = rows.astype(float)
        rows[-1, 2] += 0.5
        with pytest.raises(ValidationError) as info:
            learn_submodel(schema, rows, config)
        assert str(info.value) == (f"value {rows[-1, 2]} of column 2 is not "
                                   f"an integer")

    def test_integral_float_beyond_every_cardinality_is_out_of_range(self):
        with pytest.raises(ValidationError) as info:
            log_likelihood_many(fit_cpts(ROW_DAG, [[0, 0, 0]]),
                                [[0, 1e300, 0]])
        assert str(info.value) == "value out of range in column 1"

    def test_empty_list_is_zero_rows(self):
        bn = fit_cpts(ROW_DAG, [])
        assert bn == fit_cpts(ROW_DAG, np.empty((0, 3), dtype=np.int64))
        assert log_likelihood_many(bn, []).shape == (0,)
        with pytest.raises(ValidationError) as info:
            mi_matrix([], ROW_CARDS)
        assert str(info.value) == "mutual information needs at least one row"


def one_row_log_likelihood(bn, assignment):
    """The log-likelihood of one assignment, as a one-row batch."""
    (value,) = log_likelihood_many(bn, [assignment])
    return float(value)


class TestLogLikelihood:
    def test_independent_uniform_pair(self):
        dag = Dag(variables=(("a", 5), ("b", 5)), parents=((), ()))
        bn = fit_cpts(dag, np.empty((0, 2)), alpha=1.0)
        assert one_row_log_likelihood(bn, (2, 4)) == pytest.approx(
            math.log(1 / 25), abs=1e-12)

    def test_chain_example(self):
        assert one_row_log_likelihood(manual_chain_bn(), (1, 1)) == (
            pytest.approx(math.log(0.35), abs=1e-12))

    def test_out_of_range_assignment_rejected(self):
        with pytest.raises(ValidationError, match="range"):
            one_row_log_likelihood(manual_chain_bn(), (1, 2))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValidationError):
            one_row_log_likelihood(manual_chain_bn(), (1,))

    def test_probabilities_sum_to_one_on_random_nets(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            bn = random_bn(rng)
            _, probs = enumerate_joint(bn)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_many_matches_single(self):
        bn = manual_chain_bn()
        grid = np.array(list(product(range(2), range(2))))
        many = log_likelihood_many(bn, grid)
        for row, expected in zip(grid, many):
            assert one_row_log_likelihood(bn, row) == expected


def mixed_parent_bn():
    """fit_cpts net with roots, one-parent and multi-parent variables."""
    cards = (3, 2, 4, 2, 3)
    parents = ((), (), (0,), (0, 1, 2), (1,))
    dag = Dag(variables=tuple((f"v{i}", c) for i, c in enumerate(cards)),
              parents=parents)
    rng = np.random.default_rng(31)
    data = np.column_stack([rng.integers(0, c, size=60) for c in cards])
    return fit_cpts(dag, data, alpha=0.5)


def mixed_radix_configs(dag, v, rows):
    """CPT row of variable ``v`` for every row: its parents' values read as
    one mixed-radix number, first parent most significant."""
    cards = dag.cardinalities
    config = np.zeros(len(rows), dtype=np.int64)
    for p in dag.parents[v]:
        config = config * cards[p] + rows[:, p]
    return config


def cpt_lookups(dag, tables, rows):
    """P(x_v | parents) per variable and row from whole tables, by explicit
    mixed radix."""
    rows = np.asarray(rows, dtype=np.int64)
    return np.array([tables[v][mixed_radix_configs(dag, v, rows), rows[:, v]]
                     for v in range(dag.n_variables)]).reshape(-1, len(rows))


def oracle_log_likelihood(dag, tables, rows):
    """The per-variable loop: one running sum of log P(x_v | pa_v)."""
    total = np.zeros(len(rows))
    for probs in cpt_lookups(dag, tables, rows):
        total += np.log(probs)
    return total


def oracle_cpts(dag, rows, alpha):
    """Whole smoothed CPTs, counted one variable at a time with
    ``np.add.at``."""
    cards = dag.cardinalities
    tables = []
    for v, parents in enumerate(dag.parents):
        counts = np.zeros((math.prod(cards[p] for p in parents), cards[v]))
        np.add.at(counts, (mixed_radix_configs(dag, v, rows), rows[:, v]),
                  1.0)
        counts += alpha
        tables.append(counts / counts.sum(axis=1, keepdims=True))
    return tables


def oracle_sample(dag, tables, n, rng):
    """Forward sampling from whole tables one variable at a time in
    topological order, one uniform per row and variable."""
    out = np.zeros((n, dag.n_variables), dtype=np.int64)
    for v in dag.topological_order():
        cumulative = np.cumsum(
            tables[v][mixed_radix_configs(dag, v, out)], axis=1)
        out[:, v] = (cumulative < rng.random((n, 1))).sum(axis=1)
    return out


def bn_v1_document(dag, tables, alpha):
    """A ``bn-v1`` document, the format that holds whole tables only."""
    return {"format": "bn-v1", "alpha": alpha,
            "variables": [list(v) for v in dag.variables],
            "parents": [list(ps) for ps in dag.parents],
            "cpts": [table.tolist() for table in tables]}


@st.composite
def nets_with_data(draw, max_vars=12):
    """A DAG whose variables take their parents (none, one or several, in
    any order) from earlier in a random order, with training rows too few
    to see most parent configurations (so many tables are keyed), query
    rows and an alpha that is mostly not 1."""
    n = draw(st.integers(1, max_vars))
    cards = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    parents = [()] * n
    for pos, v in enumerate(order):
        chosen = draw(st.lists(st.sampled_from(order[:pos]), unique=True,
                               max_size=min(pos, 3))) if pos else []
        parents[v] = tuple(chosen)
    dag = Dag(variables=tuple((f"v{i}", c) for i, c in enumerate(cards)),
              parents=tuple(parents))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = rng.integers(0, cards, size=(draw(st.integers(0, 12)), n))
    # Random rows mostly reach unseen configurations; the training rows
    # reach the stored rows of keyed tables.
    queries = np.vstack([
        rng.integers(0, cards, size=(draw(st.integers(1, 20)), n)), train])
    alpha = draw(st.sampled_from([0.3, 0.5, 1.0, 1.7, 1e-3]))
    return dag, train, queries, alpha


class TestIndexPlan:
    @given(nets_with_data())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_variable_oracle(self, case):
        dag, train, queries, alpha = case
        bn = fit_cpts(dag, train, alpha=alpha)
        dense = oracle_cpts(dag, train, alpha)
        for v, (table, code, whole) in enumerate(zip(bn.cpts, bn.codes,
                                                     dense)):
            if len(whole) <= max(1, len(train)):
                assert code is None
                assert table.tobytes() == whole.tobytes()
            else:
                seen = np.unique(mixed_radix_configs(dag, v, train))
                assert np.array_equal(code, seen)
                assert table.tobytes() == whole[seen].tobytes()
        expected = oracle_log_likelihood(dag, dense, queries).tobytes()
        assert log_likelihood_many(bn, queries).tobytes() == expected
        assert np.array_equal(
            pls_sample_many(bn, 30, np.random.default_rng(len(queries))),
            oracle_sample(dag, dense, 30,
                          np.random.default_rng(len(queries))))
        # A bn-v1 document of the whole oracle tables scores the same
        # bytes, and the bn-v2 round trip is the same network.
        old = bn_from_json_obj(json.loads(json.dumps(
            bn_v1_document(dag, dense, alpha))))
        assert log_likelihood_many(old, queries).tobytes() == expected
        assert json_round_trip(bn) == bn

    def test_wide_net_adds_variables_in_order(self):
        # Past 8 columns a pairwise row sum rounds differently from the
        # running sum, so this catches any reordering of the additions.
        cards = (3, 2, 4, 2, 3) * 3
        parents = tuple(() if v < 2 else (v - 2, v - 1) for v in range(15))
        dag = Dag(variables=tuple((f"v{i}", c) for i, c in enumerate(cards)),
                  parents=parents)
        rng = np.random.default_rng(8)
        bn = fit_cpts(dag, rng.integers(0, cards, size=(40, 15)), alpha=0.7)
        rows = rng.integers(0, cards, size=(500, 15))
        assert (log_likelihood_many(bn, rows).tobytes()
                == oracle_log_likelihood(dag, bn.cpts, rows).tobytes())

    def test_likelihood_equals_summed_cpt_lookups(self):
        bn = mixed_parent_bn()
        rows = np.indices(bn.dag.cardinalities).reshape(bn.n_variables, -1).T
        assert np.array_equal(log_likelihood_many(bn, rows),
                              oracle_log_likelihood(bn.dag, bn.cpts, rows))

    def test_samples_follow_cpt_rows_drawn_in_order(self):
        bn = mixed_parent_bn()
        got = pls_sample_many(bn, 200, np.random.default_rng(5))
        expected = oracle_sample(bn.dag, bn.cpts, 200,
                                 np.random.default_rng(5))
        assert np.array_equal(got, expected)

    def test_out_of_range_rejected_on_a_column_slice(self):
        bn = mixed_parent_bn()
        cards = bn.dag.cardinalities
        wide = np.full((4, 2 * bn.n_variables), -7, dtype=np.int64)
        rows = wide[:, ::2]  # strided columns, as score_values passes them
        rows[:] = 0
        assert not rows.flags.c_contiguous
        assert np.array_equal(log_likelihood_many(bn, rows),
                              log_likelihood_many(bn, rows.copy()))
        for v, card in enumerate(cards):
            for bad in (-1, card):
                rows[2, v] = bad
                with pytest.raises(ValidationError, match="range"):
                    log_likelihood_many(bn, rows)
                rows[2, v] = 0

    def test_cpts_are_read_only_views_of_one_array(self):
        bn = random_bn(np.random.default_rng(12), max_vars=5)
        offset = 0
        for table in bn.cpts:
            assert table.base is bn._flat and not table.flags.writeable
            assert np.array_equal(table.ravel(),
                                  bn._flat[offset:offset + table.size])
            offset += table.size
        assert offset == bn._flat.size

    def test_plan_is_outside_equality_and_repr(self):
        bn = mixed_parent_bn()
        rebuilt = BayesNet(dag=bn.dag, cpts=bn.cpts, alpha=bn.alpha)
        assert rebuilt == bn
        assert repr(rebuilt) == repr(bn)
        for name in ("_flat", "_log", "_plan", "_cards", "_order"):
            assert name not in repr(bn)
        assert BayesNet(dag=bn.dag, cpts=bn.cpts, alpha=2.0) != bn

    def test_persistence_round_trip_scores_exactly(self):
        bn = mixed_parent_bn()
        clone = json_round_trip(bn)
        assert bn_to_json_obj(clone) == bn_to_json_obj(bn)
        rows = pls_sample_many(bn, 100, np.random.default_rng(6))
        assert np.array_equal(log_likelihood_many(clone, rows),
                              log_likelihood_many(bn, rows))
        assert np.array_equal(
            pls_sample_many(clone, 50, np.random.default_rng(7)),
            pls_sample_many(bn, 50, np.random.default_rng(7)))


def keyed_chain_bn(alpha=0.5):
    """a (card 6) -> b (card 3) fitted on two rows: b's table has 6
    configurations for 2 rows, so it is keyed and keeps rows a=1 and a=4."""
    dag = Dag(variables=(("a", 6), ("b", 3)), parents=((), (0,)))
    return fit_cpts(dag, np.array([[4, 2], [1, 0]]), alpha=alpha)


class TestKeyedTables:
    def test_unseen_configurations_read_the_whole_tables_uniform_row(self):
        # Past 8 cells a row sum is pairwise, so a uniform row computed
        # any other way (1 / card, say) would differ in the last bit.
        for card in range(1, 41):
            dag = Dag(variables=(("a", 3), ("b", card)), parents=((), (0,)))
            train = np.array([[1, card - 1]])
            queries = np.array([[a, b] for a in range(3)
                                for b in range(card)])
            for alpha in (0.3, 0.5, 1.0, 1.7, 1e-3, 0.1, 7.3):
                bn = fit_cpts(dag, train, alpha=alpha)
                assert bn.codes[1].tolist() == [1]
                dense = oracle_cpts(dag, train, alpha)
                assert (log_likelihood_many(bn, queries).tobytes()
                        == oracle_log_likelihood(dag, dense,
                                                 queries).tobytes())
                assert json_round_trip(bn) == bn

    def test_whole_up_to_one_configuration_per_row(self):
        dag = Dag(variables=(("a", 3), ("b", 2)), parents=((), (0,)))
        assert fit_cpts(dag, np.zeros((3, 2), int)).codes == (None, None)
        bn = fit_cpts(dag, np.zeros((2, 2), int))
        assert bn.codes[0] is None and bn.codes[1].tolist() == [0]
        assert bn.cpts[1].shape == (1, 2)
        # Without data every table with parents keeps no rows at all.
        empty = fit_cpts(dag, np.empty((0, 2), int))
        assert empty.cpts[1].shape == (0, 2)
        assert empty.cpts[0].shape == (1, 3)
        assert np.array_equal(log_likelihood_many(empty, [[2, 1]]),
                              [math.log(1 / 3) + math.log(1 / 2)])

    def test_memory_follows_the_data_not_the_parent_configurations(self):
        # Ten uniform rows on the deepest joint key (29 slots) give ARACNE
        # nodes with ten parents; whole tables would take 24.7 M cells.
        gc = GenotypeConfig.joint()
        schema = joint_schema(gc, DepthKey(3, 4))
        cards = schema.cardinalities
        rows = np.random.default_rng(2).integers(0, cards, size=(10, 29))
        tracemalloc.start()
        try:
            bn = learn_submodel(schema, rows, LearnConfig(genotype=gc)).bn
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        whole = sum(math.prod(cards[p] for p in ps) * cards[v]
                    for v, ps in enumerate(bn.dag.parents))
        assert whole > 2 * 10**7
        for table, card in zip(bn.cpts, cards):
            assert table.size <= 10 * card
        assert peak < 2 * 10**6  # bytes; whole tables need 0.2 GB
        assert np.isfinite(log_likelihood_many(bn, rows)).all()

    def test_configurations_must_be_numbered_exactly(self):
        # 54 binary parents: 2**54 configurations, past float64's integers.
        variables = tuple((f"v{i}", 2) for i in range(55))
        dag = Dag(variables=variables,
                  parents=((),) * 54 + (tuple(range(54)),))
        with pytest.raises(ValidationError, match="'v54'.*exactly"):
            fit_cpts(dag, np.zeros((1, 55), int))
        smaller = Dag(variables=variables[:54],
                      parents=((),) * 53 + (tuple(range(53)),))
        bn = fit_cpts(smaller, np.ones((1, 54), int))
        assert bn.codes[53].tolist() == [2**53 - 1]
        assert log_likelihood_many(bn, np.ones((1, 54), int))[0] < 0

    @pytest.mark.parametrize("codes", [[4, 1], [1, 1], [1, 6], [-1, 4],
                                       [1.0, 4.0], [[1, 4]]],
                             ids=["unsorted", "repeated", "too-big",
                                  "negative", "float", "nested"])
    def test_bad_codes_rejected(self, codes):
        bn = keyed_chain_bn()
        with pytest.raises(ValidationError, match="'b'.*codes"):
            BayesNet(dag=bn.dag, cpts=bn.cpts, alpha=bn.alpha,
                     codes=(None, np.array(codes)))

    def test_rows_must_match_codes(self):
        bn = keyed_chain_bn()
        with pytest.raises(ValidationError, match="variable 1 has 2 rows"):
            BayesNet(dag=bn.dag, cpts=bn.cpts, alpha=bn.alpha,
                     codes=(None, np.array([1, 3, 4])))


class TestEquality:
    def test_equal_after_a_bn_v1_round_trip(self):
        bn = manual_chain_bn()
        clone = bn_from_json_obj(json.loads(json.dumps(
            bn_v1_document(bn.dag, bn.cpts, bn.alpha))))
        assert clone.cpts[1] is not bn.cpts[1]
        assert clone == bn and not clone != bn

    def test_equal_after_a_bn_v2_round_trip(self):
        bn = keyed_chain_bn()
        clone = json_round_trip(bn)
        assert clone._flat is not bn._flat
        assert clone == bn and not clone != bn

    def test_one_changed_cell_is_unequal(self):
        bn = keyed_chain_bn()
        doc = json.loads(json.dumps(bn_to_json_obj(bn)))
        doc["cpts"][1][0][0] += 1e-12  # rows still sum to 1 within 1e-9
        assert bn_from_json_obj(doc) != bn
        doc = bn_to_json_obj(bn)
        doc["codes"][1] = [1, 5]
        assert bn_from_json_obj(doc) != bn
        assert fit_cpts(bn.dag, [[4, 2], [1, 0]], alpha=0.7) != bn
        assert bn != "a network"


class TestBayesNetChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_non_positive_or_non_finite_cell_rejected(self, bad):
        bn = manual_chain_bn()
        tables = [table.copy() for table in bn.cpts]
        tables[1][1, 0] = bad
        with pytest.raises(ValidationError, match="CPT"):
            BayesNet(dag=bn.dag, cpts=tuple(tables), alpha=1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
    def test_alpha_must_be_positive_and_finite(self, alpha):
        bn = manual_chain_bn()
        with pytest.raises(ValidationError, match="alpha"):
            BayesNet(dag=bn.dag, cpts=bn.cpts, alpha=alpha)

    def test_network_without_variables_rejected(self):
        with pytest.raises(ValidationError, match="at least one variable"):
            BayesNet(dag=Dag(variables=(), parents=()), cpts=(), alpha=1.0)


class TestEnumerateJoint:
    def test_two_fair_coins(self):
        dag = Dag(variables=(("a", 2), ("b", 2)), parents=((), ()))
        bn = fit_cpts(dag, np.empty((0, 2)), alpha=1.0)
        grids, probs = enumerate_joint(bn)
        assert grids.shape == (4, 2)
        assert np.allclose(probs, 0.25)

    def test_matches_exp_log_likelihood(self):
        bn = manual_chain_bn()
        grids, probs = enumerate_joint(bn)
        assert np.allclose(probs, np.exp(log_likelihood_many(bn, grids)))

    def test_cap_enforced(self):
        # 2**20 states pass the 10**6 cap, and 2**64 would wrap to 0 in
        # int64.  Enumerating 2**20 states takes over 100 MB, so a small
        # traced peak shows that the check comes before any allocation.
        for n_vars in (20, 64):
            dag = Dag(variables=tuple((f"v{i}", 2) for i in range(n_vars)),
                      parents=((),) * n_vars)
            bn = fit_cpts(dag, np.empty((0, n_vars)), alpha=1.0)
            tracemalloc.start()
            try:
                with pytest.raises(ValidationError, match="cap"):
                    enumerate_joint(bn)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000


class TestPlsSample:
    def test_bernoulli_frequency(self):
        dag = Dag(variables=(("x", 2),), parents=((),))
        bn = BayesNet(dag=dag, cpts=(np.array([[0.3, 0.7]]),), alpha=1.0)
        rng = np.random.default_rng(5)
        samples = pls_sample_many(bn, 100_000, rng)
        assert samples[:, 0].mean() == pytest.approx(0.7, abs=0.01)

    def test_deterministic_cpts_give_unique_assignment(self):
        dag = Dag(variables=(("a", 2), ("b", 2)), parents=((), (0,)))
        eps = 1e-12
        cpts = (np.array([[eps, 1 - eps]]),
                np.array([[1 - eps, eps], [eps, 1 - eps]]))
        bn = BayesNet(dag=dag, cpts=cpts, alpha=1.0)
        rng = np.random.default_rng(0)
        assert pls_sample_many(bn, 1, rng).tolist() == [[1, 1]]

    def test_chain_empirical_close_to_enumeration(self):
        rng = np.random.default_rng(9)
        bn = random_bn(rng, max_vars=3, max_card=3)
        grids, probs = enumerate_joint(bn)
        samples = pls_sample_many(bn, 100_000, np.random.default_rng(1))
        cards = bn.dag.cardinalities
        index = np.ravel_multi_index(samples.T, cards)
        counts = np.bincount(index, minlength=len(probs))
        tv = 0.5 * np.abs(counts / counts.sum() - probs).sum()
        assert tv < 0.02

    def test_full_assignment_returned(self):
        bn = manual_chain_bn()
        (sample,) = pls_sample_many(bn, 1, np.random.default_rng(2))
        assert len(sample) == 2
        assert all(0 <= v < 2 for v in sample)


def json_round_trip(bn):
    """``bn`` written to JSON text and read back, as a metamodel file
    stores it."""
    return bn_from_json_obj(json.loads(json.dumps(bn_to_json_obj(bn))))


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(21)
        bn = random_bn(rng)
        clone = json_round_trip(bn)
        assert clone.dag == bn.dag
        assert clone.alpha == bn.alpha
        for ours, theirs in zip(bn.cpts, clone.cpts):
            assert np.array_equal(ours, theirs)

    def test_format_tag_present(self):
        obj = bn_to_json_obj(manual_chain_bn())
        assert obj["format"] == "bn-v2"

    def test_wrong_tag_rejected(self):
        obj = bn_to_json_obj(manual_chain_bn())
        obj["format"] = "bn-v3"
        with pytest.raises(FormatError):
            bn_from_json_obj(obj)

    def test_truncated_document_rejected(self):
        for field in ("variables", "parents", "codes", "cpts", "alpha"):
            obj = bn_to_json_obj(manual_chain_bn())
            del obj[field]
            with pytest.raises(FormatError, match="bad bn-v2 document"):
                bn_from_json_obj(obj)

    @pytest.mark.parametrize("path,value,message", [
        (("variables", 0, 1), 2.9, "cardinality of 'a' is 2.9"),
        (("variables", 0, 1), True, "True"),
        (("parents", 1, 0), 0.5, "parent of variable 1 is 0.5"),
        (("parents", 1, 0), 7, "parent index out of range"),
        (("codes", 1, 0), 1.5, "1.5"),
        (("codes", 1, 0), "1", "code of variable 1 is '1'"),
        (("codes", 1), [4, 1], "increasing"),
        (("codes", 1), [1, 1], "distinct"),
        (("codes", 1), [1, 6], "below 6"),
        (("alpha",), "0.5", "alpha"),
        (("cpts", 0, 0), ["0.5", "0.5"], "not numbers"),
    ], ids=["card-float", "card-bool", "parent-float", "parent-range",
            "code-float", "code-string", "codes-unsorted", "codes-repeated",
            "codes-too-big", "alpha-string", "cells-string"])
    def test_fields_are_strict(self, path, value, message):
        obj = json.loads(json.dumps(bn_to_json_obj(keyed_chain_bn())))
        target = obj
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        with pytest.raises(ValidationError, match=message):
            bn_from_json_obj(obj)

    def test_corrupt_cpt_rejected(self):
        obj = bn_to_json_obj(manual_chain_bn())
        obj["cpts"][0] = [["x", "y"]]
        with pytest.raises(FormatError, match="bad bn-v2 document"):
            bn_from_json_obj(obj)


class TestDag:
    def test_cycle_rejected(self):
        with pytest.raises(ValidationError, match="cycle"):
            Dag(variables=(("a", 2), ("b", 2)), parents=((1,), (0,)))

    def test_topological_order_deterministic(self):
        dag = Dag(variables=tuple((f"v{i}", 2) for i in range(4)),
                  parents=((), (), (0, 1), (1,)))
        assert dag.topological_order() == (0, 1, 2, 3)
