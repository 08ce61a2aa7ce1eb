"""Planted-pattern surrogate landscapes."""

import hashlib
import itertools

import numpy as np
import pytest

from archsmith.errors import FormatError, ValidationError
from archsmith.genotype import (
    DepthKey,
    GanSpec,
    GenotypeConfig,
    flatten_joint,
    joint_schema,
    random_gan,
)
from archsmith.landscape import (
    LandscapeConfig,
    load_landscape,
    make_landscape,
    save_landscape,
)

JOINT = GenotypeConfig.joint()
TINY = GenotypeConfig.joint(
    arity=3,
    activations=("relu", "tanh", "sigmoid"),
    generator_depth_max=1,
    discriminator_depth_max=1,
)


def noiseless(genotype=JOINT, **overrides):
    return LandscapeConfig(genotype=genotype, sigma_noise=0.0, **overrides)


def random_probes(rng, config, count):
    return [random_gan(rng, config) for _ in range(count)]


class TestDeterminism:
    def test_same_seed_identical_on_probes(self):
        config = LandscapeConfig(genotype=JOINT, family_seed=7)
        a = make_landscape(3, config)
        b = make_landscape(3, config)
        rng = np.random.default_rng(0)
        probes = random_probes(rng, JOINT, 1000)
        fa = [a.evaluate(g) for g in probes]
        fb = [b.evaluate(g) for g in probes]
        assert fa == fb

    def test_different_problem_seeds_differ(self):
        config = LandscapeConfig(genotype=JOINT)
        a = make_landscape(0, config)
        b = make_landscape(1, config)
        rng = np.random.default_rng(1)
        probes = random_probes(rng, JOINT, 50)
        assert [a.evaluate(g) for g in probes] != [b.evaluate(g)
                                                   for g in probes]

    def test_repeat_evaluation_is_pure(self):
        land = make_landscape(5, LandscapeConfig(genotype=JOINT))
        rng = np.random.default_rng(2)
        gan = random_gan(rng, JOINT)
        first = land.evaluate(gan)
        rebuilt = GanSpec.from_json_obj(gan.to_json_obj())
        assert land.evaluate(rebuilt) == first
        assert land.evaluate(gan) == first


class TestPlantedPattern:
    def test_planted_hits_analytic_minimum_per_key(self):
        land = make_landscape(11, noiseless())
        for key in JOINT.depth_keys():
            fitness = land.evaluate(land.planted_gan(key))
            assert fitness == pytest.approx(land.analytic_minimum(key),
                                            abs=1e-12)

    def test_exhaustive_tiny_space_argmin_is_planted(self):
        config = noiseless(genotype=TINY)
        land = make_landscape(4, config)
        key = DepthKey(1, 1)
        schema = joint_schema(TINY, key)
        grid = np.array(list(itertools.product(
            *[range(c) for c in schema.cardinalities])), dtype=np.int64)
        fitness = land.evaluate_values(key, grid)
        best = int(np.argmin(fitness))
        assert np.array_equal(grid[best], land.planted_values(key))
        rest = np.delete(fitness, best)
        assert rest.min() >= fitness[best] + config.margin - 1e-9

    def test_one_flip_never_decreases_fitness(self):
        land = make_landscape(6, noiseless())
        for key in (DepthKey(1, 1), DepthKey(3, 4), land.target_key):
            schema = joint_schema(JOINT, key)
            planted = land.planted_values(key)
            base_fit = land.evaluate_values(key, planted[None, :])[0]
            for j, card in enumerate(schema.cardinalities):
                for w in range(card):
                    if w == planted[j]:
                        continue
                    flipped = planted.copy()
                    flipped[j] = w
                    fit = land.evaluate_values(key, flipped[None, :])[0]
                    assert fit >= base_fit + land.config.margin - 1e-9

    def test_equal_contents_equal_fitness(self):
        land = make_landscape(8, noiseless())
        rng = np.random.default_rng(3)
        gan = random_gan(rng, JOINT)
        clone = GanSpec.from_json_obj(gan.to_json_obj())
        assert gan is not clone
        assert land.evaluate(gan) == land.evaluate(clone)


class TestAdditivity:
    def test_fitness_matches_table_sum_oracle(self):
        # Recompute base + unary + pairwise directly from the exposed tables.
        land = make_landscape(9, noiseless())
        rng = np.random.default_rng(4)
        for gan in random_probes(rng, JOINT, 200):
            av = flatten_joint(gan, JOINT)
            key = DepthKey(*av.depth_key)
            schema = joint_schema(JOINT, key)
            pos = [(s.section, s.layer, s.attr) for s in schema.slots]
            expected = land.base_penalty(key)
            for p, v in zip(pos, av.values):
                expected += land.unary_table(p)[v]
            index = {p: i for i, p in enumerate(pos)}
            for a, b in land.pairs:
                if a in index and b in index:
                    expected += land.pairwise_table((a, b))[
                        av.values[index[a]], av.values[index[b]]]
            assert land.evaluate(gan) == pytest.approx(expected, abs=1e-9)

    def test_pair_count_default(self):
        land = make_landscape(0, LandscapeConfig(genotype=JOINT))
        assert len(land.positions) == 29
        assert len(land.pairs) == 14

    def test_no_pairs_when_zero(self):
        land = make_landscape(0, LandscapeConfig(genotype=JOINT, n_pairs=0))
        assert land.pairs == ()


class TestNoise:
    def test_fitness_nonnegative_and_noise_bounded(self):
        config = LandscapeConfig(genotype=JOINT, sigma_noise=0.05)
        noisy = make_landscape(12, config)
        quiet = make_landscape(12, noiseless())
        rng = np.random.default_rng(5)
        for gan in random_probes(rng, JOINT, 300):
            f_noisy = noisy.evaluate(gan)
            f_quiet = quiet.evaluate(gan)
            assert f_noisy >= 0.0
            assert 0.0 <= f_noisy - f_quiet < config.sigma_noise

    def test_hamming_distance_correlates_with_fitness(self):
        # Probes are stratified by flip count; uniform draws concentrate
        # near full Hamming distance and understate the relationship.
        config = LandscapeConfig(genotype=JOINT, sigma_noise=0.05)
        land = make_landscape(13, config)
        key = DepthKey(3, 4)
        schema = joint_schema(JOINT, key)
        cards = np.array(schema.cardinalities)
        planted = land.planted_values(key)
        rng = np.random.default_rng(6)
        rows = []
        for _ in range(1000):
            row = planted.copy()
            m = rng.integers(0, len(row) + 1)
            for j in rng.choice(len(row), size=m, replace=False):
                row[j] = (row[j] + rng.integers(1, cards[j])) % cards[j]
            rows.append(row)
        values = np.array(rows)
        hamming = (values != planted).sum(axis=1)
        fitness = land.evaluate_values(key, values)
        corr = np.corrcoef(hamming, fitness)[0, 1]
        assert corr > 0.8

    def test_uniform_probes_still_correlate(self):
        config = LandscapeConfig(genotype=JOINT, sigma_noise=0.05)
        land = make_landscape(13, config)
        key = DepthKey(3, 4)
        rng = np.random.default_rng(6)
        probes = [random_gan(rng, JOINT, depth_key=key) for _ in range(1000)]
        values = np.array([flatten_joint(g, JOINT).values for g in probes])
        hamming = (values != land.planted_values(key)).sum(axis=1)
        fitness = land.evaluate_values(key, values)
        assert np.corrcoef(hamming, fitness)[0, 1] > 0.6


class TestFamilyStructure:
    def test_family_draws_shared_across_problems(self):
        config = LandscapeConfig(genotype=JOINT, family_seed=21)
        a = make_landscape(100, config)
        b = make_landscape(200, config)
        assert a.target_key == b.target_key
        assert a.pairs == b.pairs
        assert all(a.master_value(p) == b.master_value(p)
                   for p in a.positions)

    def test_flip_fraction_tracks_flip_prob(self):
        config = LandscapeConfig(genotype=JOINT, flip_prob=0.2)
        flips = []
        for seed in range(40):
            land = make_landscape(seed, config)
            flips.append(np.mean([land.planted_value(p) != land.master_value(p)
                                  for p in land.positions]))
        assert 0.1 < np.mean(flips) < 0.3

    def test_families_differ(self):
        a = make_landscape(0, LandscapeConfig(genotype=JOINT, family_seed=1))
        b = make_landscape(0, LandscapeConfig(genotype=JOINT, family_seed=2))
        assert any(a.master_value(p) != b.master_value(p)
                   for p in a.positions)

    def test_target_key_interior(self):
        for family in range(25):
            config = LandscapeConfig(genotype=JOINT, family_seed=family)
            land = make_landscape(0, config)
            assert 2 <= land.target_key.d_g <= 3
            assert 2 <= land.target_key.d_d <= 4


class TestValidation:
    def test_out_of_bounds_depth_rejected(self):
        land = make_landscape(0, LandscapeConfig(genotype=JOINT))
        rng = np.random.default_rng(7)
        wide = GenotypeConfig.joint(generator_depth_max=6)
        deep = random_gan(rng, wide, depth_key=DepthKey(6, 2))
        with pytest.raises(ValidationError, match="depth"):
            land.evaluate(deep)

    def test_config_bounds(self):
        with pytest.raises(ValidationError):
            LandscapeConfig(genotype=JOINT, margin=0.0)
        with pytest.raises(ValidationError):
            LandscapeConfig(genotype=JOINT, sigma_noise=-1.0)
        with pytest.raises(ValidationError):
            LandscapeConfig(genotype=JOINT, flip_prob=1.5)

    def test_bad_values_shape(self):
        land = make_landscape(0, LandscapeConfig(genotype=JOINT))
        with pytest.raises(ValidationError, match="shape"):
            land.evaluate_values(DepthKey(1, 1), np.zeros((3, 4), dtype=int))


class TestSerialization:
    def test_round_trip_exact_on_probes(self, tmp_path):
        config = LandscapeConfig(genotype=JOINT, family_seed=3)
        land = make_landscape(17, config)
        path = tmp_path / "land.json"
        save_landscape(land, path)
        loaded = load_landscape(path)
        assert loaded.seed == land.seed
        assert loaded.target_key == land.target_key
        assert loaded.pairs == land.pairs
        rng = np.random.default_rng(8)
        for gan in random_probes(rng, JOINT, 100):
            assert loaded.evaluate(gan) == land.evaluate(gan)

    def test_corrupt_rejected(self, tmp_path):
        path = tmp_path / "land.json"
        path.write_text("{oops")
        with pytest.raises(FormatError, match="corrupt"):
            load_landscape(path)

    def test_wrong_tag_rejected(self, tmp_path):
        path = tmp_path / "land.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(FormatError):
            load_landscape(path)


def reference_fitness(land, key, row):
    """base + unary terms by slot + pair terms by pair + noise, in order."""
    schema = joint_schema(land.config.genotype, key)
    index = {(s.section, s.layer, s.attr): i
             for i, s in enumerate(schema.slots)}
    total = land.base_penalty(key)
    for pos, i in index.items():
        total += float(land.unary_table(pos)[row[i]])
    for a, b in land.pairs:
        if a in index and b in index:
            total += float(land.pairwise_table((a, b))[row[index[a]],
                                                       row[index[b]]])
    config = land.config
    if config.sigma_noise > 0:
        text = (f"{config.family_seed}|{land.seed}|{key.d_g}|{key.d_d}|"
                + ",".join(str(v) for v in row))
        digest = hashlib.sha256(text.encode()).digest()
        total += (config.sigma_noise
                  * (int.from_bytes(digest[:8], "big") / 2.0 ** 64))
    return total


class TestEvaluateValues:
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_equals_sequential_reference_at_every_batch_size(self, sigma):
        land = make_landscape(4, LandscapeConfig(genotype=JOINT,
                                                 family_seed=7,
                                                 sigma_noise=sigma))
        gans = random_probes(np.random.default_rng(8), JOINT, 200)
        rows = {}
        for av in (flatten_joint(g, JOINT) for g in gans):
            rows.setdefault(av.depth_key, []).append(av.values)
        assert len(rows) > 6
        for key, group in rows.items():
            want = [reference_fitness(land, key, row) for row in group]
            batch = land.evaluate_values(key, np.array(group))
            assert batch.tolist() == want
            assert [float(land.evaluate_values(key, np.array([row]))[0])
                    for row in group] == want
        assert ([land.evaluate(g) for g in gans]
                == [reference_fitness(land, g.depth_key,
                                      flatten_joint(g, JOINT).values)
                    for g in gans])

    def test_empty_batch(self):
        land = make_landscape(0, noiseless())
        key = DepthKey(2, 3)
        empty = np.zeros((0, len(joint_schema(JOINT, key))), dtype=np.int64)
        assert land.evaluate_values(key, empty).shape == (0,)

    @pytest.mark.parametrize("value", [-1, "card"])
    def test_value_outside_cardinality_rejected(self, value):
        land = make_landscape(0, noiseless(genotype=TINY))
        key = DepthKey(1, 1)
        schema = joint_schema(TINY, key)
        row = np.zeros((2, len(schema)), dtype=np.int64)
        row[1, -1] = (schema.slots[-1].cardinality if value == "card"
                      else value)
        with pytest.raises(ValidationError, match="cardinality"):
            land.evaluate_values(key, row)
