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
    _per_key,
    joint_schema,
    parse_genotype,
    random_genotype,
    unflatten_joint,
)
from archsmith.landscape import (
    LandscapeConfig,
    landscape_from_json_obj,
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

    @pytest.mark.parametrize("field", ["base_scale", "jitter"])
    def test_negative_scale_rejected(self, field):
        with pytest.raises(ValidationError) as info:
            LandscapeConfig(genotype=JOINT, **{field: -0.5})
        assert str(info.value) == "base_scale and jitter must be >= 0"

    @pytest.mark.parametrize("n_pairs", [-1, 37])
    def test_pair_count_outside_all_pairs_rejected(self, n_pairs):
        # TINY has 9 slot positions, so 36 pairs of them.
        assert make_landscape(0, noiseless(TINY, n_pairs=36)).pairs
        with pytest.raises(ValidationError) as info:
            make_landscape(0, noiseless(TINY, n_pairs=n_pairs))
        assert str(info.value) == "n_pairs must lie in [0, 36]"

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.pop("base"), "missing key 'base'"),
        (lambda doc: doc.update(target_key=5),
         "field 'target_key' is 5, not a valid depth_key"),
        (lambda doc: doc.update(target_key=[1, 2, 3]),
         "field 'target_key' is [1, 2, 3], not a valid depth_key"),
    ], ids=["no-base", "int-target_key", "three-target_key"])
    def test_document_error_becomes_format_error(self, edit, message):
        # Each message names the faulty field, as a config reader's does.
        doc = landscape_to_json_obj(make_landscape(0, noiseless(TINY)))
        edit(doc)
        with pytest.raises(FormatError) as info:
            landscape_from_json_obj(doc)
        assert str(info.value) == f"bad land-v1 document: {message}"

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_cells_whose_sizes_overflow_rejected(self, sigma):
        # Each cell is finite; their largest sizes added in evaluation
        # order are not.  Negative cells count by their size.
        doc = landscape_to_json_obj(make_landscape(0, noiseless(TINY)))
        doc["config"]["sigma_noise"] = sigma
        landscape_from_json_obj(doc)
        doc["base"]["1,1"] = -1e308
        first = next(iter(doc["unary"]))
        doc["unary"][first][-1] = 1e308
        with pytest.raises(ValidationError) as info:
            landscape_from_json_obj(doc)
        assert str(info.value) == ("landscape cells too large: a fitness "
                                   "could overflow to infinity")

    def test_largest_finite_sizes_accepted(self):
        # Cells of either sign whose sizes add up to a finite bound load,
        # and every fitness stays finite.
        doc = landscape_to_json_obj(make_landscape(0, noiseless(TINY)))
        doc["base"] = {key: -1e307 for key in doc["base"]}
        doc["unary"] = {pos: [1e306 * (-1) ** v for v in range(len(table))]
                        for pos, table in doc["unary"].items()}
        land = landscape_from_json_obj(doc)
        rng = np.random.default_rng(3)
        fitness = land.evaluate_many(random_probes(rng, TINY, 50))
        assert np.isfinite(fitness).all()


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

    @pytest.mark.parametrize("pair, listed", [
        (lambda a, b: [a, b], "twice"),
        (lambda a, b: [b, a], "twice"),
        (lambda a, b: [a, a], "with itself"),
    ], ids=["repeated", "reversed", "one-slot"])
    def test_pair_listed_twice_or_with_itself_rejected(self, pair, listed,
                                                       tmp_path):
        # A repeated pair used to load: its last table replaced the first,
        # and the term was added twice.  The extra pair comes last, with a
        # table of the right shape filled with 9.0.
        land = make_landscape(17, LandscapeConfig(genotype=JOINT,
                                                  family_seed=3))
        doc = landscape_to_json_obj(land)
        a, b = pair(*doc["pairs"][0])
        doc["pairs"].append([a, b])
        doc["pairwise"].append([[9.0] * len(doc["unary"][b])]
                               * len(doc["unary"][a]))
        path = tmp_path / "land.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as info:
            load_landscape(path)
        assert str(info.value) == (f"{path}: bad land-v1 document: pairs "
                                   f"list {a}/{b} {listed}")

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
        assert land.evaluate_many([]) == []

    def test_key_and_row_forms(self):
        # A key given as a tuple or a list, and rows given as lists of
        # tuples or of floats, read as the DepthKey and int64 rows.
        land = make_landscape(2, LandscapeConfig(genotype=JOINT))
        rng = np.random.default_rng(5)
        key = DepthKey(2, 3)
        rows = np.array([random_genotype(rng, JOINT, key)[1]
                         for _ in range(3)])
        want = land.evaluate_values(key, rows).tobytes()
        for form in ((2, 3), [2, 3], np.array([2, 3])):
            assert land.evaluate_values(form, rows).tobytes() == want
        assert land.evaluate_values(key, [tuple(row) for row in
                                          rows.tolist()]).tobytes() == want
        assert land.evaluate_values(key, rows.astype(float)).tobytes() == want

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


def per_key_oracle(land, genotypes):
    """``evaluate_many`` as it was: one ``evaluate_values`` call per depth
    key, keys in the order they first appear."""
    return _per_key(genotypes, lambda key, rows:
                    land.evaluate_values(key, rows).tolist())


def outcome(evaluate, genotypes):
    """What ``evaluate(genotypes)`` returns, or the type and message of
    what it raises."""
    try:
        return evaluate(genotypes)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


class TestEvaluateManyFaults:
    """A faulty batch raises exactly what the per-key oracle raises."""

    @staticmethod
    def batches():
        rng = np.random.default_rng(21)
        a, b = DepthKey(1, 2), DepthKey(3, 1)
        rows = {key: [list(random_genotype(rng, JOINT, key)[1])
                      for _ in range(4)] for key in (a, b)}

        def batch(*faults):
            """a, b, a, b, ... with ``faults`` as (key, i, column, value)."""
            out = {key: [list(row) for row in rows[key]] for key in rows}
            for key, i, column, value in faults:
                out[key][i][column] = value
            return [(key, tuple(out[key][i]))
                    for i in range(4) for key in (a, b)]

        card = joint_schema(JOINT, a).slots[-1].cardinality
        yield "two key groups, first key's fault later", batch(
            (a, 3, -1, card), (b, 0, 2, -1))
        yield "two key groups, same row", batch((a, 1, 0, 99), (b, 1, 5, 7))
        yield "second key only", batch((b, 2, -1, 1000))
        yield "negative value", batch((a, 0, 3, -5))
        yield "unsupported key", [*batch(), (DepthKey(4, 1), (0,) * 21)]
        yield "zero depth", [(DepthKey(0, 1), (0,) * 5), *batch()]
        short = batch()
        short[5] = (short[5][0], short[5][1][:-1])
        yield "short row", short
        yield "every row of a key short", [
            (key, row[:-1] if key == b else row) for key, row in batch()]
        yield "every row short", [(key, row[:-1]) for key, row in batch()
                                  if key == b]
        long = batch()
        long[2] = (long[2][0], long[2][1] + (0,))
        yield "long row", long
        # Rows one too short and one too long at two keys: the batch
        # holds the right number of values, but not in the right rows.
        both = batch()
        both[0] = (both[0][0], both[0][1][:-1])
        both[1] = (both[1][0], both[1][1] + (0,))
        yield "short and long rows", both
        yield "non-integer value", [(a, (None, *rows[a][0][1:]))]
        yield "not a pair", [(a,)]
        yield "three-depth key", [((1, 2, 3), tuple(rows[a][0]))]

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_raises_what_the_per_key_oracle_raises(self, sigma):
        land = make_landscape(3, LandscapeConfig(genotype=JOINT,
                                                 family_seed=7,
                                                 sigma_noise=sigma))
        for name, genotypes in self.batches():
            want = outcome(lambda g: per_key_oracle(land, g), genotypes)
            assert isinstance(want, tuple), name
            assert outcome(land.evaluate_many, genotypes) == want, name

    def test_first_faulty_key_in_order_of_first_appearance(self):
        land = make_landscape(3, noiseless())
        batches = dict(self.batches())
        with pytest.raises(ValidationError, match="slot d1.size"):
            land.evaluate_many(batches["two key groups, first key's fault "
                                       "later"])
        with pytest.raises(ValidationError, match="unsupported depth 4"):
            land.evaluate_many(batches["unsupported key"])
