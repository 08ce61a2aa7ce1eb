"""Bit-equality oracles for the kernels on the search hot paths.

Each kernel must give the same bits as the plainer form it replaced, kept
here as the oracle: ``log_likelihood_many`` gathers from a table of logs and
sums each row in order, ``evaluate_values`` sums a row's gathered terms in
order, ``guided_hc`` ranks with one sort of a complex key, and the EA's
tournaments draw ``rng.choice``'s picks from scalar draws.  The same
bits must hold at every numpy dispatch level, so the CI workflow runs this
file a second time with numpy's dispatched SIMD kernels switched off
(``NPY_DISABLE_CPU_FEATURES``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archsmith.bayesnet import (Dag, _cells, _ordered_sum, fit_cpts,
                                log_likelihood_many)
from archsmith.genotype import GenotypeConfig, random_genotype
from archsmith.landscape import LandscapeConfig, make_landscape
from archsmith.search import _distinct_picks, _ranking
from test_bayesnet import nets_with_data
from test_landscape import reference_fitness


def left_to_right(block):
    """Each column of ``block`` summed in Python, first row to last."""
    sums = []
    for column in block.T.tolist():
        total = column[0]
        for term in column[1:]:
            total += term
        sums.append(total)
    return np.array(sums)


def spread(rng, shape):
    """Floats of both signs over twelve decades, so that the order of the
    additions shows in the last bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)


def accumulate_of_log(bn, rows):
    """The kernel ``log_likelihood_many`` replaced: the log of each gathered
    probability, added in variable order by ``np.add.accumulate``."""
    arr = np.asarray(rows, dtype=np.int64)
    probs = bn._flat[_cells(bn._plan, arr).astype(np.intp)]
    return np.add.accumulate(np.log(probs), axis=0)[-1]


class TestOrderedSum:
    @pytest.mark.parametrize("n", [1, 2, 3, 64])
    @pytest.mark.parametrize("v", [1, 8, 9, 33, 130])
    def test_adds_each_column_left_to_right(self, v, n):
        rng = np.random.default_rng([v, n])
        for _ in range(20):
            block = spread(rng, (v, n))
            assert (_ordered_sum(block).tobytes()
                    == left_to_right(block).tobytes())

    def test_a_plain_reduce_of_one_column_is_not_in_order(self):
        # numpy sums one contiguous run pairwise, which is why a single
        # column keeps np.add.accumulate: the oracle above tells them apart.
        rng = np.random.default_rng(5)
        blocks = [spread(rng, (v, 1))
                  for v in (9, 33, 130) for _ in range(50)]
        assert any(np.add.reduce(block, axis=0).tobytes()
                   != left_to_right(block).tobytes() for block in blocks)


class TestLogLikelihood:
    @given(nets_with_data())
    @settings(max_examples=60, deadline=None)
    def test_equals_accumulate_of_log(self, case):
        dag, train, queries, alpha = case
        bn = fit_cpts(dag, train, alpha=alpha)
        for rows in (queries, queries[:1], queries[:2]):
            assert (log_likelihood_many(bn, rows).tobytes()
                    == accumulate_of_log(bn, rows).tobytes())

    def test_one_row_of_a_wide_net_adds_in_order(self):
        # One row is a (variables, 1) block.  Keep the rows whose terms a
        # pairwise sum rounds differently, and score each alone.
        cards = (3, 2, 4, 2, 3) * 3
        parents = tuple(() if v < 2 else (v - 2, v - 1) for v in range(15))
        dag = Dag(variables=tuple((f"v{i}", c) for i, c in enumerate(cards)),
                  parents=parents)
        rng = np.random.default_rng(8)
        bn = fit_cpts(dag, rng.integers(0, cards, size=(40, 15)), alpha=0.7)
        rows = rng.integers(0, cards, size=(200, 15))
        want = accumulate_of_log(bn, rows)
        logs = np.log(bn._flat[_cells(bn._plan, rows).astype(np.intp)])
        pairwise = np.add.reduce(np.ascontiguousarray(logs.T), axis=1)
        split = np.flatnonzero(pairwise != want)
        assert split.size
        for i in split:
            assert (log_likelihood_many(bn, rows[i:i + 1]).tobytes()
                    == want[i:i + 1].tobytes())
        assert log_likelihood_many(bn, rows).tobytes() == want.tobytes()


class TestEvaluateValues:
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    @pytest.mark.parametrize("config", [GenotypeConfig.joint(),
                                        GenotypeConfig.per_network()],
                             ids=["joint", "per_network"])
    def test_equals_reference_at_batch_sizes_1_2_7(self, config, sigma):
        land = make_landscape(4, LandscapeConfig(
            genotype=config, family_seed=7, sigma_noise=sigma))
        rng = np.random.default_rng(9)
        for key in config.depth_keys():
            rows = np.array([random_genotype(rng, config, key)[1]
                             for _ in range(7)])
            want = np.array([reference_fitness(land, key, row)
                             for row in rows.tolist()])
            for size in (1, 2, 7):
                for start in range(0, 7, size):
                    batch = rows[start:start + size]
                    assert (land.evaluate_values(key, batch).tobytes()
                            == want[start:start + size].tobytes())


class TestRanking:
    @given(st.lists(st.tuples(
        st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0]),
        st.sampled_from([-0.0, 0.0, 0.25, 0.5])), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_equals_lexsort_with_ties_and_signed_zeros(self, pairs):
        score = np.array([s for s, _ in pairs], dtype=float)
        tiebreak = np.array([t for _, t in pairs], dtype=float)
        assert (_ranking(score, tiebreak).tolist()
                == np.lexsort((tiebreak, -score)).tolist())

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_lexsort_on_a_neighbourhood_of_scores(self, seed):
        # Normalized scores in 1e-6 quanta, as guided_hc ranks them: many
        # tie on the score, and a few on the tie break too.
        rng = np.random.default_rng(seed)
        score = np.round(rng.normal(-1.5, 1e-5, 1000) / 1e-6)
        tiebreak = rng.random(1000)
        tiebreak[rng.integers(0, 1000, 50)] = tiebreak[:50]
        assert (_ranking(score, tiebreak).tolist()
                == np.lexsort((tiebreak, -score)).tolist())


class TestDistinctPicks:
    # Scalar draws serve m <= 2 and rng.choice the rest; n = 10,001 with
    # m = 201 is in numpy's other method, which shuffles an arange.
    @pytest.mark.parametrize("n,m", [
        (n, m) for n in (1, 2, 3, 20, 10_000, 10_001, 20_000)
        for m in range(1, min(n, 5) + 1)] + [(10_001, 201)])
    def test_equals_choice_and_leaves_the_same_state(self, n, m):
        got = np.random.default_rng([n, m])
        want = np.random.default_rng([n, m])
        for step in range(300):
            picks = _distinct_picks(got, n, m)
            assert picks == want.choice(n, size=m, replace=False).tolist()
            assert all(type(i) is int for i in picks)
            # The whole state, has_uint32 and its buffered half included.
            assert got.bit_generator.state == want.bit_generator.state
            # A 64-bit draw, and a 32-bit one that fills or empties the
            # buffer, so that picks start from either buffer state.
            if step % 2:
                assert got.random() == want.random()
            if step % 3:
                assert got.integers(1000) == want.integers(1000)
