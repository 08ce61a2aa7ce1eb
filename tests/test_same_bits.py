"""Bit-equality oracles for the kernels on the search hot paths.

Each kernel must give the same bits as the plainer form it replaced, kept
here as the oracle: ``log_likelihood_many`` gathers from a table of logs and
sums each row in order, ``evaluate_values`` and ``evaluate_many`` pad every
row to the deepest schema and sum its terms, −0.0 pad terms among them, in
one gather, and hash each row's noise text through a table of value texts,
``guided_hc`` scores a neighbourhood once per network a group changes
and ranks it with sorts of a complex key, as far as the climb reads, the
EA's tournaments draw ``rng.choice``'s picks from scalar draws, the EA
replays numpy's bounded integers from PCG64's raw outputs (``_Draws``),
and ``random_genotype`` draws a genotype's slots in one broadcast call.
The replay is checked against the installed numpy, so a numpy release
that changes ``integers`` fails here instead of forking the EA's stream.
The same bits must hold at every numpy dispatch level, so the CI workflow runs
this file and ``tests/test_landscape.py`` a second time with numpy's
dispatched SIMD kernels switched off (``NPY_DISABLE_CPU_FEATURES``).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archsmith import landscape, metamodel
from archsmith.bayesnet import (Dag, _cells, _ordered_sum, fit_cpts,
                                log_likelihood_many)
from archsmith import search
from archsmith.genotype import (ROLES, DepthKey, GenotypeConfig,
                                _layer_radix, random_genotype,
                                unflatten_joint)
from archsmith.landscape import (LandscapeConfig, landscape_from_json_obj,
                                 landscape_to_json_obj, make_landscape)
from archsmith.metamodel import LearnConfig, Metamodel, learn
from archsmith.search import (_RANKED_HEAD, EaConfig, _distinct_picks,
                              _Draws, _ranked_prefix, _ranking,
                              init_population, neighbor_groups, simple_ea)
from test_bayesnet import nets_with_data
from test_landscape import reference_fitness
from test_metamodel import make_individuals
from test_search import (POINT, TINY, CoarseLandscape, reference_ea,
                         tiny_landscape)


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

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_signed_zeros_add_as_in_python(self, n):
        # A plain reduce starts from +0.0, so a column of −0.0 terms would
        # sum to +0.0 where adding left to right gives −0.0.
        rng = np.random.default_rng(n)
        for _ in range(50):
            block = rng.choice([-0.0, 0.0, -0.0, -1.5, 1.5], size=(6, n))
            assert (_ordered_sum(block).tobytes()
                    == left_to_right(block).tobytes())
        assert _ordered_sum(np.full((3, n), -0.0)).tobytes() == \
            np.full(n, -0.0).tobytes()

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


    def test_noise_text_of_two_digit_values(self):
        # Arity 12 puts size and train bins of 10 and 11 in the rows: the
        # noise text of each value must be its str, "10" and "11" too.
        config = GenotypeConfig.joint(arity=12)
        land = make_landscape(5, LandscapeConfig(
            genotype=config, family_seed=7, sigma_noise=0.05))
        rng = np.random.default_rng(10)
        wide = 0
        for key in config.depth_keys():
            rows = np.array([random_genotype(rng, config, key)[1]
                             for _ in range(7)])
            wide += int((rows >= 10).any(axis=1).sum())
            want = np.array([reference_fitness(land, key, row)
                             for row in rows.tolist()])
            assert land.evaluate_values(key, rows).tobytes() == want.tobytes()
        assert wide > 20


def signed_landscape(sigma, cells, share):
    """A joint landscape read from a document whose base, unary and
    pairwise cells are, each with chance ``share``, drawn from ``cells``
    in place of the usual ones, so that pad terms of −0.0 meet every
    sign."""
    obj = landscape_to_json_obj(make_landscape(6, LandscapeConfig(
        genotype=GenotypeConfig.joint(), family_seed=7, sigma_noise=sigma)))
    rng = np.random.default_rng(11)

    def signed(table):
        values = np.array(table, dtype=float)
        pick = rng.random(values.shape) < share
        values[pick] = rng.choice(cells, size=int(pick.sum()))
        return values.tolist()

    obj["base"] = dict(zip(obj["base"], signed(list(obj["base"].values()))))
    obj["unary"] = {pos: signed(table) for pos, table in obj["unary"].items()}
    obj["pairwise"] = [signed(table) for table in obj["pairwise"]]
    assert any(math.copysign(1.0, v) < 0 and v == 0
               for v in obj["base"].values())
    return landscape_from_json_obj(obj)


ROW_FORMS = {
    "tuples": lambda key, row: (key, tuple(row)),
    "lists": lambda key, row: (key, list(row)),
    "numpy ints": lambda key, row: (key, tuple(np.int64(v) for v in row)),
    "arrays": lambda key, row: (key, np.array(row)),
    "tuple keys": lambda key, row: (tuple(key), tuple(row)),
}


class TestEvaluateMany:
    """``evaluate_many`` on shuffled batches of mixed depth keys against
    ``reference_fitness``, row by row, bit for bit."""

    CASES = {
        "joint": lambda sigma: make_landscape(4, LandscapeConfig(
            genotype=GenotypeConfig.joint(), family_seed=7,
            sigma_noise=sigma)),
        "per_network": lambda sigma: make_landscape(4, LandscapeConfig(
            genotype=GenotypeConfig.per_network(), family_seed=7,
            sigma_noise=sigma)),
        "arity_12": lambda sigma: make_landscape(5, LandscapeConfig(
            genotype=GenotypeConfig.joint(arity=12), family_seed=7,
            sigma_noise=sigma)),
    }

    @staticmethod
    def check(land, seed, monkeypatch):
        # A valid batch never takes the refusal path.
        def no_refusal(*args):
            raise AssertionError("evaluate_many refused a valid batch")

        monkeypatch.setattr(landscape, "_batch", no_refusal)
        config = land.config.genotype
        rng = np.random.default_rng(seed)
        genotypes = [random_genotype(rng, config, key)
                     for key in config.depth_keys() for _ in range(5)]
        order = rng.permutation(len(genotypes))
        genotypes = [genotypes[i] for i in order]
        want = np.array([reference_fitness(land, key, row)
                         for key, row in genotypes])
        forms = list(ROW_FORMS.values())
        for size in (len(genotypes), 1, 2, 7, 19):
            for start in range(0, len(genotypes), size):
                batch = [forms[int(rng.integers(len(forms)))](key, row)
                         for key, row in genotypes[start:start + size]]
                got = land.evaluate_many(batch)
                assert all(type(v) is float for v in got)
                assert (np.array(got).tobytes()
                        == want[start:start + size].tobytes())
        # Each row form alone, and integral floats, whose noise text is
        # that of their ints.
        for form in [*forms, lambda key, row: (key, tuple(map(float, row)))]:
            batch = [form(key, row) for key, row in genotypes]
            assert np.array(land.evaluate_many(batch)).tobytes() == \
                want.tobytes()

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_reference_on_shuffled_mixed_batches(self, case, sigma,
                                                        monkeypatch):
        self.check(self.CASES[case](sigma), 12, monkeypatch)

    def test_signed_tables_from_a_document(self, monkeypatch):
        self.check(signed_landscape(0.05, [-0.0, 0.0, -0.0, -2.5, -1e-9,
                                           0.75], 0.5), 13, monkeypatch)

    def test_negative_zero_sums_stay_negative_zero(self, monkeypatch):
        # Mostly −0.0 cells and no noise: many rows sum to −0.0, which a
        # +0.0 pad term would turn into +0.0.
        land = signed_landscape(0.0, [-0.0] * 19 + [0.0], 1.0)
        rng = np.random.default_rng(15)
        rows = [random_genotype(rng, land.config.genotype)
                for _ in range(200)]
        assert sum(math.copysign(1.0, reference_fitness(land, *g)) < 0
                   for g in rows) > 20
        self.check(land, 15, monkeypatch)


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


def concatenated_scores(model, groups):
    """The oracle of ``_neighbor_scores``: each group's normalized
    ``score_values``, concatenated."""
    return np.concatenate([model.score_values(key, rows)[1]
                           for key, rows in groups])


def learned_model(config):
    """A model learned from 40 genotypes of random depth keys with
    ``min_samples`` 2, so that most submodels have a structure learned
    from a few rows, and some of their tables are keyed."""
    rng = np.random.default_rng(24)
    model = learn(make_individuals(rng, config, 40),
                  LearnConfig(genotype=config, min_samples=2, alpha=0.7))
    assert any(code is not None for sub in model.submodels.values()
               for code in sub.bn.codes)
    return model


MODELS = {
    "uniform": lambda config: Metamodel.uniform(LearnConfig(genotype=config)),
    "learned": learned_model,
}
CONFIGS = {"joint": GenotypeConfig.joint(),
           "per_network": GenotypeConfig.per_network()}


class TestNeighborScores:
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_equals_score_values_at_every_depth_key(self, config, model):
        # Every depth key, depth 1 and the depth bounds among them, with
        # random incumbents at each.
        config = CONFIGS[config]
        model = MODELS[model](config)
        rng = np.random.default_rng(25)
        for key in config.depth_keys():
            for _ in range(3):
                _, row = random_genotype(rng, config, key)
                values = np.array(row, dtype=np.int64)
                groups = neighbor_groups(key, values, config)
                assert (model._neighbor_scores(key, values, groups).tobytes()
                        == concatenated_scores(model, groups).tobytes())

    def test_each_unchanged_network_is_scored_once(self, monkeypatch):
        # Per-network mode, away from the depth bounds: the change group
        # scores both networks of its rows; a grow or shrink group scores
        # the network it changes, and the other network's term is the
        # incumbent's, scored once per call.
        config = CONFIGS["per_network"]
        model = learned_model(config)
        key, row = random_genotype(np.random.default_rng(26), config, (3, 3))
        values = np.array(row, dtype=np.int64)
        groups = neighbor_groups(key, values, config)
        assert [k for k, _ in groups] == [(2, 3), (3, 2), (3, 3), (3, 4),
                                         (4, 3)]
        scored = []
        score = metamodel.log_likelihood_many
        monkeypatch.setattr(metamodel, "log_likelihood_many",
                            lambda bn, rows: scored.append(len(rows))
                            or score(bn, rows))
        model._neighbor_scores(key, values, groups)
        sizes = {k: len(rows) for k, rows in groups}
        assert sorted(scored) == sorted([1, 1, sizes[(2, 3)], sizes[(3, 2)],
                                         sizes[(3, 3)], sizes[(3, 3)],
                                         sizes[(3, 4)], sizes[(4, 3)]])


class TestRankedPrefix:
    @given(st.lists(st.tuples(
        st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0, math.nan]),
        st.sampled_from([-0.0, 0.0, 0.25, 0.5])), max_size=40),
        st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_equals_ranking_around_the_head(self, pairs, read):
        score = np.array([s for s, _ in pairs], dtype=float)
        tiebreak = np.array([t for _, t in pairs], dtype=float)
        want = _ranking(score, tiebreak).tolist()
        got = list(_ranked_prefix(score, tiebreak))
        assert got == want
        assert all(type(i) is int for i in got)
        assert (list(itertools.islice(_ranked_prefix(score, tiebreak), read))
                == want[:read])

    @pytest.mark.parametrize("n", [_RANKED_HEAD - 1, _RANKED_HEAD,
                                   _RANKED_HEAD + 1, 1000])
    def test_equals_ranking_on_a_neighbourhood_of_scores(self, n):
        # Score quanta as guided_hc ranks them, with ties across the
        # head's last place.
        rng = np.random.default_rng(n)
        score = np.round(rng.normal(-1.5, 1e-5, n) / 1e-6)
        last = np.sort(score)[max(0, n - _RANKED_HEAD)]
        score[rng.integers(0, n, n // 3)] = last
        tiebreak = rng.random(n)
        tiebreak[rng.integers(0, n, n // 4)] = tiebreak[:n // 4]
        assert (list(_ranked_prefix(score, tiebreak))
                == _ranking(score, tiebreak).tolist())


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


class NumpyPcg64(np.random.PCG64):
    """PCG64 under another type: ``simple_ea`` draws it through numpy."""


# Bounds around the edges of the replay: n = 1 draws nothing, 2**32 is its
# widest word, and beyond it numpy draws 64-bit words.
EDGE_BOUNDS = [1, 2, 3, 3000, 2**31, 2**31 + 5, 2**32 - 1, 2**32,
               2**32 + 1, 2**40]
DRAW_OPS = st.lists(st.one_of(
    st.tuples(st.just("integers"),
              st.one_of(st.integers(1, 3000), st.sampled_from(EDGE_BOUNDS))),
    st.tuples(st.just("integers"),
              st.one_of(st.integers(-2**63, 2**63 - 2**41),
                        st.sampled_from([-2**63, 0, 2**62])),
              st.one_of(st.integers(-2, 3000), st.sampled_from(EDGE_BOUNDS))),
    st.tuples(st.just("random")),
    st.tuples(st.just("choice"), st.integers(1, 30), st.integers(1, 30))),
    max_size=40)


def apply_draw(rng, op, as_numpy):
    """``op`` drawn from ``rng``: its value, or the type of its error.  A
    two-bound op holds the low bound and the width; ``as_numpy`` passes
    the bounds as numpy int64s."""
    name, *args = op
    if name == "integers" and len(args) == 2:
        args = [args[0], min(args[0] + args[1], 2**63)]
    if as_numpy:
        args = [np.int64(min(max(a, -2**63), 2**63 - 1)) for a in args]
    try:
        if name == "choice":
            return rng.choice(args[0], size=args[1], replace=False).tolist()
        return getattr(rng, name)(*args)
    except ValueError as exc:
        return type(exc)


class TestDraws:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ops=DRAW_OPS,
           as_numpy=st.booleans())
    # A high bound below int64's range, clamped to an empty range.
    @example(seed=0, ops=[("integers", -2**63, -1)], as_numpy=True)
    def test_equals_numpy_and_leaves_the_same_state(self, seed, ops,
                                                    as_numpy):
        got = np.random.default_rng(seed)
        want = np.random.default_rng(seed)
        with _Draws(got) as draws:
            for op in ops:
                value = apply_draw(draws, op, as_numpy)
                assert value == apply_draw(want, op, as_numpy), op
        assert got.bit_generator.state == want.bit_generator.state
        # The next draws use the written-back half-word, then fresh ones.
        for _ in range(3):
            assert got.integers(7) == want.integers(7)
        assert got.random() == want.random()

    def test_a_held_half_word_is_written_back(self):
        # An odd number of 32-bit draws leaves the high half held.
        got, want = np.random.default_rng(5), np.random.default_rng(5)
        with _Draws(got) as draws:
            draws.integers(10)
        want.integers(10)
        assert want.bit_generator.state["has_uint32"] == 1
        assert got.bit_generator.state == want.bit_generator.state


class TestEaStream:
    """``simple_ea`` draws the stream numpy would draw, whatever its bit
    generator, and leaves numpy's state even when it is interrupted."""

    @pytest.mark.parametrize("bits", [np.random.MT19937, NumpyPcg64])
    @pytest.mark.parametrize("seed,config", [
        (30, EaConfig()),
        (32, EaConfig(tournament_size=3, mutation_rate=0.5, elitism=0)),
        (37, EaConfig(tournament_size=25, elitism=0)),
    ])
    def test_numpy_draws_match_per_child_reference(self, bits, seed,
                                                   config):
        land = CoarseLandscape(tiny_landscape(seed=seed, sigma=0.05))
        pop = init_population("random", 7, land, np.random.default_rng(seed))
        got = []
        result = simple_ea(land, pop, 6, np.random.Generator(bits(seed + 1)),
                           config=config, on_evaluate=lambda k, r, f:
                           got.append((unflatten_joint(k, r, TINY), f)))
        want = []
        start = [(unflatten_joint(k, r, TINY), f) for k, r, f in pop.members]
        trace, _ = reference_ea(land, start, 6,
                                np.random.Generator(bits(seed + 1)), config,
                                want.append)
        assert got == want
        assert result.best_per_generation == trace

    def test_interrupted_breeding_leaves_numpy_state(self, monkeypatch):
        # An exception raised in the k-th crossover escapes simple_ea
        # mid-breeding; the half-word the replay held is written back,
        # whichever way the count of 32-bit draws falls.
        land = tiny_landscape(seed=3)
        pop = init_population("random", 8, land, np.random.default_rng(3))
        real, held = search._crossover, set()
        for calls in range(1, 9):
            states = []
            for bits in (np.random.PCG64, NumpyPcg64):
                count = iter(range(calls))

                def crossover(a, b):
                    if next(count, None) is None:
                        raise KeyboardInterrupt
                    return real(a, b)

                monkeypatch.setattr(search, "_crossover", crossover)
                rng = np.random.Generator(bits(4))
                with pytest.raises(KeyboardInterrupt):
                    simple_ea(land, pop, 3, rng,
                              config=EaConfig(crossover_rate=1.0))
                states.append({**rng.bit_generator.state,
                               "bit_generator": "PCG64"})
            assert states[0] == states[1]
            held.add(states[0]["has_uint32"])
        assert held == {0, 1}


def scalar_random_genotype(rng, config, depth_key=None):
    """``random_genotype`` as one scalar draw per slot: the key's index,
    each layer's values in slot order, then the train bin."""
    if depth_key is None:
        keys = config.depth_keys()
        depth_key = keys[rng.integers(len(keys))]
    layers = [int(rng.integers(card))
              for role, depth in zip(ROLES, depth_key)
              for _ in range(depth)
              for card in _layer_radix(config, role)]
    return DepthKey(*depth_key), (int(rng.integers(config.arity)), *layers)


class TestRandomGenotype:
    @pytest.mark.parametrize("config", [
        GenotypeConfig.joint(), GenotypeConfig.per_network(), POINT,
        GenotypeConfig.joint(arity=1)], ids=["joint", "per_network",
                                             "point", "arity_1"])
    def test_equals_scalar_draws_at_every_depth_key(self, config):
        for key in (None, *config.depth_keys()):
            got = np.random.default_rng([7, *(key or ())])
            want = np.random.default_rng([7, *(key or ())])
            for step in range(20):
                genotype = random_genotype(got, config, key)
                assert genotype == scalar_random_genotype(want, config, key)
                assert type(genotype[0]) is DepthKey
                assert all(type(v) is int for v in genotype[1])
                assert got.bit_generator.state == want.bit_generator.state
                if step % 3 == 0:
                    assert got.random() == want.random()
