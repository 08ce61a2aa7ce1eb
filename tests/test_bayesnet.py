import json
import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
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
    mutual_information,
    orient,
    pls_sample_many,
    small_sample_correction,
)
from archsmith.errors import FormatError, ValidationError


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
        assert mutual_information(data, 0, 1) < 0.01

    def test_identical_fair_binary_is_ln_two(self):
        x = np.array([0, 1] * 500)
        data = np.column_stack([x, x])
        assert mutual_information(data, 0, 1) == pytest.approx(math.log(2),
                                                               abs=1e-12)

    def test_deterministic_three_level_is_ln_three(self):
        x = np.array([0, 1, 2] * 300)
        mapping = np.array([2, 0, 1])
        data = np.column_stack([x, mapping[x]])
        expected = brute_force_mi(list(data[:, 0]), list(data[:, 1]))
        assert expected == pytest.approx(math.log(3), abs=1e-12)
        assert mutual_information(data, 0, 1) == pytest.approx(math.log(3),
                                                               abs=1e-12)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                    min_size=1, max_size=60))
    @settings(max_examples=60)
    def test_matches_brute_force_oracle(self, pairs):
        data = np.array(pairs)
        ours = mutual_information(data, 0, 1)
        oracle = brute_force_mi([p[0] for p in pairs], [p[1] for p in pairs])
        assert ours == pytest.approx(oracle, abs=1e-12)
        assert ours >= 0.0

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    min_size=2, max_size=40))
    @settings(max_examples=40)
    def test_symmetry(self, pairs):
        data = np.array(pairs)
        assert mutual_information(data, 0, 1) == pytest.approx(
            mutual_information(data, 1, 0), abs=1e-12)

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
        assert mutual_information(data, 0, 1, cards) == \
            mutual_information(data, 0, 1)
        assert np.array_equal(mi_matrix(data, cards),
                              mi_matrix(data, (2, 2, 2)))

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
        assert aracne_skeleton(mi, mi_threshold=0.0) == [(0, 1)]
        assert aracne_skeleton(mi, mi_threshold=0.25) == []

    def test_tolerance_one_disables_pruning(self):
        rng = np.random.default_rng(3)
        mi = mi_matrix(chain_data(rng, 5000), (2, 2, 2))
        assert aracne_skeleton(mi, dpi_tolerance=1.0) == [(0, 1), (0, 2), (1, 2)]

    def test_threshold_correction_applies_to_thresholding_only(self):
        mi = np.array([[0.0, 0.05], [0.05, 0.0]])
        corr = small_sample_correction((4, 4), n_rows=10)  # ln(16)/20 ~ 0.139
        assert aracne_skeleton(mi, threshold_correction=corr) == []
        assert aracne_skeleton(mi) == [(0, 1)]

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

    def test_custom_order_reverses(self):
        dag = orient([(0, 1)], self.VARS, canonical_order=[1, 0, 2, 3])
        assert dag.parents[0] == (1,)

    def test_non_permutation_rejected(self):
        with pytest.raises(ValidationError, match="permutation"):
            orient([(0, 1)], self.VARS, canonical_order=[0, 0, 2, 3])

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


def cpt_lookups(bn, rows):
    """P(x_v | parents) per variable and row, by explicit mixed radix."""
    cards = bn.dag.cardinalities
    out = np.empty((bn.n_variables, len(rows)))
    for v, parents in enumerate(bn.dag.parents):
        for r, row in enumerate(rows):
            config = 0
            for p in parents:
                config = config * cards[p] + int(row[p])
            out[v, r] = bn.cpts[v][config, int(row[v])]
    return out


class TestIndexPlan:
    def test_likelihood_equals_summed_cpt_lookups(self):
        bn = mixed_parent_bn()
        rows = np.indices(bn.dag.cardinalities).reshape(bn.n_variables, -1).T
        expected = np.zeros(len(rows))
        for probs in cpt_lookups(bn, rows):
            expected += np.log(probs)
        assert np.array_equal(log_likelihood_many(bn, rows), expected)

    def test_samples_follow_cpt_rows_drawn_in_order(self):
        bn = mixed_parent_bn()
        got = pls_sample_many(bn, 200, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        expected = np.zeros_like(got)
        cards = bn.dag.cardinalities
        for v in bn.dag.topological_order():
            configs = [0] * len(expected)
            for p in bn.dag.parents[v]:
                configs = [c * cards[p] + int(x)
                           for c, x in zip(configs, expected[:, p])]
            cumulative = np.cumsum(bn.cpts[v][configs], axis=1)
            expected[:, v] = (cumulative < rng.random((len(expected), 1))
                              ).sum(axis=1)
        assert np.array_equal(got, expected)

    def test_plan_is_outside_equality_and_repr(self):
        bn = mixed_parent_bn()
        rebuilt = BayesNet(dag=bn.dag, cpts=bn.cpts, alpha=bn.alpha)
        assert rebuilt == bn
        assert repr(rebuilt) == repr(bn)
        assert "_plan" not in repr(bn) and "_cards" not in repr(bn)
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
        dag = Dag(variables=tuple((f"v{i}", 4) for i in range(4)),
                  parents=((), (), (), ()))
        bn = fit_cpts(dag, np.empty((0, 4)), alpha=1.0)
        with pytest.raises(ValidationError, match="cap"):
            enumerate_joint(bn, cap=100)


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
        assert obj["format"] == "bn-v1"

    def test_wrong_tag_rejected(self):
        obj = bn_to_json_obj(manual_chain_bn())
        obj["format"] = "bn-v2"
        with pytest.raises(FormatError):
            bn_from_json_obj(obj)

    def test_truncated_document_rejected(self):
        for field in ("variables", "parents", "cpts", "alpha"):
            obj = bn_to_json_obj(manual_chain_bn())
            del obj[field]
            with pytest.raises(FormatError, match="bad bn-v1 document"):
                bn_from_json_obj(obj)

    def test_corrupt_cpt_rejected(self):
        obj = bn_to_json_obj(manual_chain_bn())
        obj["cpts"][0] = [["x", "y"]]
        with pytest.raises(FormatError, match="bad bn-v1 document"):
            bn_from_json_obj(obj)


class TestDag:
    def test_cycle_rejected(self):
        with pytest.raises(ValidationError, match="cycle"):
            Dag(variables=(("a", 2), ("b", 2)), parents=((1,), (0,)))

    def test_edges_listing(self):
        dag = Dag(variables=(("a", 2), ("b", 2), ("c", 2)),
                  parents=((), (0,), (0, 1)))
        assert dag.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_topological_order_deterministic(self):
        dag = Dag(variables=tuple((f"v{i}", 2) for i in range(4)),
                  parents=((), (), (0, 1), (1,)))
        assert dag.topological_order() == (0, 1, 2, 3)
