"""Planted-pattern surrogate landscapes."""

import hashlib
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from archsmith.errors import FormatError, ValidationError
from archsmith.genotype import (
    DepthKey,
    GenotypeConfig,
    joint_schema,
    parse_genotype,
    random_genotype,
    unflatten_joint,
)
from archsmith.landscape import (
    LandscapeConfig,
    landscape_to_json_obj,
    load_landscape,
    make_landscape,
    save_landscape,
)
from test_genotype import gan_json

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
    return [random_genotype(rng, config) for _ in range(count)]


def reparsed(genotype, config=JOINT):
    """An equal ``(key, row)``, read back from the genotype's record."""
    return parse_genotype(gan_json(unflatten_joint(*genotype, config)),
                          config)


def structure(land):
    """A landscape's tables and patterns, read through its JSON form and
    keyed as the package keys them: ``base`` by depth key, ``unary``,
    ``master`` and ``planted`` by slot position, ``pairwise`` by pair."""
    obj = landscape_to_json_obj(land)

    def position(text):
        section, layer, attr = text.split(":")
        return section, int(layer), attr

    def by_position(name, convert):
        return {position(t): convert(v) for t, v in obj[name].items()}

    return SimpleNamespace(
        base={DepthKey(*map(int, text.split(","))): value
              for text, value in obj["base"].items()},
        unary=by_position("unary", np.array),
        master=by_position("master", int),
        planted=by_position("planted", int),
        pairwise={(position(a), position(b)): np.array(table)
                  for (a, b), table in zip(obj["pairs"], obj["pairwise"])})


def planted_values(land, key):
    """Planted slot values aligned with the joint schema at ``key``."""
    planted = structure(land).planted
    schema = joint_schema(land.config.genotype, key)
    return np.array([planted[(s.section, s.layer, s.attr)]
                     for s in schema.slots], dtype=np.int64)


def planted_gan(land, key):
    return unflatten_joint(key, planted_values(land, key),
                           land.config.genotype)


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
        genotype = random_genotype(rng, JOINT)
        first = land.evaluate(genotype)
        assert land.evaluate(reparsed(genotype)) == first
        assert land.evaluate(genotype) == first


class TestPlantedPattern:
    def test_planted_hits_analytic_minimum_per_key(self):
        land = make_landscape(11, noiseless())
        base = structure(land).base
        for key in JOINT.depth_keys():
            fitness = land.evaluate((key, planted_values(land, key)))
            assert fitness == pytest.approx(base[key], abs=1e-12)

    def test_exhaustive_tiny_space_argmin_is_planted(self):
        config = noiseless(genotype=TINY)
        land = make_landscape(4, config)
        key = DepthKey(1, 1)
        schema = joint_schema(TINY, key)
        grid = np.array(list(itertools.product(
            *[range(c) for c in schema.cardinalities])), dtype=np.int64)
        fitness = land.evaluate_values(key, grid)
        best = int(np.argmin(fitness))
        assert np.array_equal(grid[best], planted_values(land, key))
        rest = np.delete(fitness, best)
        assert rest.min() >= fitness[best] + config.margin - 1e-9

    def test_one_flip_never_decreases_fitness(self):
        land = make_landscape(6, noiseless())
        for key in (DepthKey(1, 1), DepthKey(3, 4), land.target_key):
            schema = joint_schema(JOINT, key)
            planted = planted_values(land, key)
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
        genotype = random_genotype(rng, JOINT)
        clone = reparsed(genotype)
        assert genotype[1] is not clone[1]
        assert land.evaluate(genotype) == land.evaluate(clone)


class TestAdditivity:
    def test_fitness_matches_table_sum_oracle(self):
        # Recompute base + unary + pairwise directly from the exposed tables.
        land = make_landscape(9, noiseless())
        tables = structure(land)
        rng = np.random.default_rng(4)
        for key, values in random_probes(rng, JOINT, 200):
            schema = joint_schema(JOINT, key)
            pos = [(s.section, s.layer, s.attr) for s in schema.slots]
            expected = tables.base[key]
            for p, v in zip(pos, values):
                expected += tables.unary[p][v]
            index = {p: i for i, p in enumerate(pos)}
            for a, b in land.pairs:
                if a in index and b in index:
                    expected += tables.pairwise[(a, b)][
                        values[index[a]], values[index[b]]]
            assert land.evaluate((key, values)) == pytest.approx(expected,
                                                                 abs=1e-9)

    def test_pair_count_default(self):
        land = make_landscape(0, LandscapeConfig(genotype=JOINT))
        assert len(structure(land).unary) == 29
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
        for genotype in random_probes(rng, JOINT, 300):
            f_noisy = noisy.evaluate(genotype)
            f_quiet = quiet.evaluate(genotype)
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
        planted = planted_values(land, key)
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
        probes = [random_genotype(rng, JOINT, key) for _ in range(1000)]
        values = np.array([row for _, row in probes])
        hamming = (values != planted_values(land, key)).sum(axis=1)
        fitness = land.evaluate_values(key, values)
        assert np.corrcoef(hamming, fitness)[0, 1] > 0.6


class TestFamilyStructure:
    def test_family_draws_shared_across_problems(self):
        config = LandscapeConfig(genotype=JOINT, family_seed=21)
        a = make_landscape(100, config)
        b = make_landscape(200, config)
        assert a.target_key == b.target_key
        assert a.pairs == b.pairs
        assert structure(a).master == structure(b).master

    def test_flip_fraction_tracks_flip_prob(self):
        config = LandscapeConfig(genotype=JOINT, flip_prob=0.2)
        flips = []
        for seed in range(40):
            land = make_landscape(seed, config)
            tables = structure(land)
            flips.append(np.mean([tables.planted[p] != tables.master[p]
                                  for p in tables.unary]))
        assert 0.1 < np.mean(flips) < 0.3

    def test_families_differ(self):
        a = make_landscape(0, LandscapeConfig(genotype=JOINT, family_seed=1))
        b = make_landscape(0, LandscapeConfig(genotype=JOINT, family_seed=2))
        assert structure(a).master != structure(b).master

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
        deep = random_genotype(rng, wide, DepthKey(6, 2))
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
        for genotype in random_probes(rng, JOINT, 100):
            assert loaded.evaluate(genotype) == land.evaluate(genotype)

    def test_bytes_equal_json_dump(self, tmp_path):
        land = make_landscape(17, LandscapeConfig(genotype=JOINT,
                                                  family_seed=3))
        path = tmp_path / "land.json"
        save_landscape(land, path)
        reference = tmp_path / "reference.json"
        with open(reference, "w", encoding="utf-8") as handle:
            json.dump(landscape_to_json_obj(land), handle, sort_keys=True)
            handle.write("\n")
        assert path.read_bytes() == reference.read_bytes()

    def test_corrupt_rejected(self, tmp_path):
        path = tmp_path / "land.json"
        path.write_text("{oops")
        with pytest.raises(FormatError, match="not valid JSON") as info:
            load_landscape(path)
        assert str(info.value).startswith(f"{path}: ")

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
    tables = structure(land)
    total = tables.base[key]
    for pos, i in index.items():
        total += float(tables.unary[pos][row[i]])
    for a, b in land.pairs:
        if a in index and b in index:
            total += float(tables.pairwise[(a, b)][row[index[a]],
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
        genotypes = random_probes(np.random.default_rng(8), JOINT, 200)
        rows = {}
        for key, values in genotypes:
            rows.setdefault(key, []).append(values)
        assert len(rows) > 6
        for key, group in rows.items():
            want = [reference_fitness(land, key, row) for row in group]
            batch = land.evaluate_values(key, np.array(group))
            assert batch.tolist() == want
            assert [float(land.evaluate_values(key, np.array([row]))[0])
                    for row in group] == want
        want = [reference_fitness(land, *g) for g in genotypes]
        assert [land.evaluate(g) for g in genotypes] == want
        assert land.evaluate_many(genotypes) == want

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
