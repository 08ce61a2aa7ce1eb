import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archsmith.errors import FormatError, ValidationError
from archsmith.genotype import (
    AttributeVector,
    DepthKey,
    DiscretizationScheme,
    DnnSpec,
    GanSpec,
    GenotypeConfig,
    LayerPool,
    LayerSpec,
    canonical_json,
    discretize,
    dump_genotypes,
    fit_discretization,
    flatten,
    flatten_joint,
    gan_hash,
    joint_schema,
    load_genotypes,
    random_gan,
    sort_by_fitness,
    unflatten,
)

JOINT = GenotypeConfig.joint()
PER_NET = GenotypeConfig.per_network()


def brute_force_quantile_cuts(values, k):
    """Independent oracle: midpoints at the floor(i*n/k) order-statistic
    boundaries, dropping boundaries that separate nothing."""
    ordered = sorted(values)
    n = len(ordered)
    cuts = []
    for i in range(1, k):
        pos = (i * n) // k
        if 1 <= pos <= n - 1 and ordered[pos - 1] < ordered[pos]:
            cuts.append((ordered[pos - 1] + ordered[pos]) / 2.0)
    return sorted(set(cuts))


class TestFitDiscretization:
    def test_hundred_integers_five_bins(self):
        values = list(range(1, 101))
        assert brute_force_quantile_cuts(values, 5) == [20.5, 40.5, 60.5, 80.5]
        scheme = fit_discretization(values, k=5)
        assert scheme.cuts == (20.5, 40.5, 60.5, 80.5)
        assert scheme.arity == 5

    def test_constant_sample_collapses_to_single_bin(self):
        scheme = fit_discretization([7, 7, 7, 7], k=5)
        assert scheme.cuts == ()
        assert scheme.arity == 1

    def test_two_values_two_bins(self):
        scheme = fit_discretization([0, 10], k=2)
        assert scheme.cuts == (5.0,)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError):
            fit_discretization([], k=3)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
           st.integers(1, 8))
    def test_matches_brute_force_oracle(self, values, k):
        scheme = fit_discretization(values, k)
        assert list(scheme.cuts) == brute_force_quantile_cuts(values, k)

    @given(st.sets(st.integers(-10_000, 10_000), min_size=2, max_size=120),
           st.integers(2, 7))
    def test_occupancies_balanced_without_duplicates(self, unique_values, k):
        values = sorted(unique_values)
        scheme = fit_discretization(values, k)
        counts = [0] * scheme.arity
        for v in values:
            counts[discretize(v, scheme)] += 1
        filled = [c for c in counts if c > 0]
        n = len(values)
        if scheme.arity == k:
            assert max(filled) - min(filled) <= math.ceil(n / k) - (n // k) + 1


class TestDiscretize:
    SCHEME = DiscretizationScheme(cuts=(20.5, 40.5, 60.5, 80.5))

    def test_low_value(self):
        assert discretize(3, self.SCHEME) == 0

    def test_mid_value(self):
        assert discretize(50, self.SCHEME) == 2

    def test_huge_value_lands_in_last_bin(self):
        assert discretize(1e9, self.SCHEME) == 4

    def test_value_equal_to_cut_stays_below(self):
        assert discretize(20.5, self.SCHEME) == 0

    @given(st.floats(-1e9, 1e9), st.floats(-1e9, 1e9))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert discretize(lo, self.SCHEME) <= discretize(hi, self.SCHEME)

    def test_cuts_must_ascend(self):
        with pytest.raises(ValidationError):
            DiscretizationScheme(cuts=(1.0, 1.0))


def make_layer(role_kinds, i=0):
    return LayerSpec(kind=role_kinds[0], activation="relu",
                     weight_init="xavier", size_bin=i % 5)


def make_gan(d_g=1, d_d=1, train=0):
    gen = DnnSpec("generator", tuple(make_layer(GenotypeConfig().generator_kinds, i)
                                     for i in range(d_g)))
    disc = DnnSpec("discriminator",
                   tuple(make_layer(GenotypeConfig().discriminator_kinds, i)
                         for i in range(d_d)))
    return GanSpec(generator=gen, discriminator=disc, train_freq_bin=train)


def gan_strategy(config):
    def layer(role):
        return st.builds(
            LayerSpec,
            kind=st.sampled_from(config.kinds(role)),
            activation=st.sampled_from(config.activations),
            weight_init=st.sampled_from(config.weight_inits),
            size_bin=st.integers(0, config.arity - 1),
        )

    def network(role):
        return st.builds(
            DnnSpec, role=st.just(role),
            layers=st.lists(layer(role), min_size=1,
                            max_size=config.depth_max(role)).map(tuple))

    return st.builds(GanSpec,
                     generator=network("generator"),
                     discriminator=network("discriminator"),
                     train_freq_bin=st.integers(0, config.arity - 1))


class TestFlatten:
    def test_minimal_gan_has_nine_slots(self):
        av = flatten_joint(make_gan(1, 1), JOINT)
        assert len(av.schema) == 9
        assert av.schema.slots[0].name == "train_freq"

    def test_deepest_joint_gan_has_twenty_nine_slots(self):
        av = flatten_joint(make_gan(3, 4), JOINT)
        assert len(av.schema) == 29

    def test_slot_order_global_then_generator_then_discriminator(self):
        schema = joint_schema(JOINT, DepthKey(2, 1))
        sections = [slot.section for slot in schema.slots]
        assert sections == (["global"] + ["generator"] * 8
                            + ["discriminator"] * 4)

    def test_per_network_halves_partition_joint_vector(self):
        gan = make_gan(2, 3, train=4)
        joint_av = flatten_joint(gan, PER_NET)
        gen_av, disc_av = flatten(gan, PER_NET)
        assert gen_av.values + disc_av.values == joint_av.values
        assert gen_av.depth_key == ("generator", 2)
        assert disc_av.depth_key == ("discriminator", 3)
        assert gen_av.schema.slots[0].name == "train_freq"

    def test_depth_outside_bounds_rejected(self):
        with pytest.raises(ValidationError, match="unsupported depth"):
            flatten_joint(make_gan(4, 1), JOINT)

    def test_conv_only_legal_in_discriminator(self):
        bad = GanSpec(
            generator=DnnSpec("generator", (LayerSpec("conv", "relu", "xavier", 0),)),
            discriminator=make_gan().discriminator,
            train_freq_bin=0)
        with pytest.raises(ValidationError):
            flatten_joint(bad, JOINT)

    def test_transposed_conv_only_legal_in_generator(self):
        bad = GanSpec(
            generator=make_gan().generator,
            discriminator=DnnSpec("discriminator",
                                  (LayerSpec("transposed_conv", "relu",
                                             "xavier", 0),)),
            train_freq_bin=0)
        with pytest.raises(ValidationError):
            flatten_joint(bad, JOINT)

    @given(gan_strategy(JOINT))
    @settings(max_examples=200)
    def test_joint_round_trip(self, gan):
        av = flatten(gan, JOINT)
        assert unflatten(av, JOINT) == gan

    @given(gan_strategy(PER_NET))
    @settings(max_examples=200)
    def test_per_network_round_trip(self, gan):
        pair = flatten(gan, PER_NET)
        assert unflatten(pair, PER_NET) == gan

    @given(gan_strategy(JOINT))
    def test_every_value_within_cardinality(self, gan):
        av = flatten_joint(gan, JOINT)
        for value, slot in zip(av.values, av.schema.slots):
            assert 0 <= value < slot.cardinality

    def test_vector_outside_cardinality_rejected(self):
        schema = joint_schema(JOINT, DepthKey(1, 1))
        values = [0] * len(schema)
        values[0] = JOINT.arity  # one past the last train-frequency bin
        with pytest.raises(ValidationError):
            AttributeVector(depth_key=DepthKey(1, 1), values=tuple(values),
                            schema=schema)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        gans = [make_gan(1, 1), make_gan(3, 4, train=2), make_gan(2, 2)]
        path = tmp_path / "gans.jsonl"
        dump_genotypes(gans, path)
        assert list(load_genotypes(path)) == gans

    def test_bytes_equal_json_dumps(self, tmp_path):
        gans = [random_gan(np.random.default_rng(seed), config)
                for seed in range(20) for config in (JOINT, PER_NET)]
        path = tmp_path / "gans.jsonl"
        dump_genotypes(gans, path)
        want = "".join(json.dumps(gan.to_json_obj(), sort_keys=True) + "\n"
                       for gan in gans)
        assert path.read_bytes() == want.encode()

    def test_records_carry_schema_tag(self, tmp_path):
        path = tmp_path / "gans.jsonl"
        dump_genotypes([make_gan()], path)
        obj = json.loads(path.read_text().splitlines()[0])
        assert obj["schema"] == "v1"

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "gans.jsonl"
        obj = make_gan().to_json_obj()
        obj["schema"] = "v9"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(FormatError, match="schema tag"):
            list(load_genotypes(path))

    def test_corrupt_line_reports_line_number(self, tmp_path):
        path = tmp_path / "gans.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(FormatError, match="line 1"):
            list(load_genotypes(path))

    @given(gan_strategy(JOINT))
    @settings(max_examples=50)
    def test_hash_stable_under_json_round_trip(self, gan):
        clone = GanSpec.from_json_obj(json.loads(canonical_json(gan)))
        assert gan_hash(clone) == gan_hash(gan)


class TestConfig:
    def test_twelve_joint_depth_keys(self):
        assert len(JOINT.depth_keys()) == 12

    def test_config_round_trip(self):
        clone = GenotypeConfig.from_json_obj(PER_NET.to_json_obj())
        assert clone == PER_NET
        assert clone.fingerprint() == PER_NET.fingerprint()

    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError):
            GenotypeConfig(mode="stacked")


class TestSortByFitness:
    # Four distinct genotypes and three fitness values, so most draws hold
    # both duplicate genotypes and distinct genotypes of equal fitness.
    POOL = [random_gan(np.random.default_rng(seed), JOINT)
            for seed in range(4)]

    @given(st.lists(st.tuples(st.integers(0, 3),
                              st.sampled_from([0.0, 0.25, 1.0])),
                    max_size=12))
    @settings(max_examples=200)
    def test_equals_hash_keyed_stable_sort(self, draws):
        # The tag tells apart equal (gan, fitness) items, so the
        # comparison also checks stability.
        items = [(self.POOL[g], f, tag) for tag, (g, f) in enumerate(draws)]
        want = sorted(items, key=lambda m: (m[1], gan_hash(m[0])))
        got = sort_by_fitness(items, key=lambda m: (m[0], m[1]))
        assert [m[2] for m in got] == [m[2] for m in want]
        pairs = [(gan, f) for gan, f, _ in items]
        assert sort_by_fitness(pairs) == [(gan, f) for gan, f, _ in want]

    def test_hashes_only_ties(self, monkeypatch):
        import archsmith.genotype as genotype
        calls = []
        monkeypatch.setattr(genotype, "gan_hash",
                            lambda gan: calls.append(gan) or "")
        pairs = [(gan, float(i)) for i, gan in enumerate(self.POOL)]
        sort_by_fitness(pairs + [(self.POOL[0], 0.0)])
        assert calls == [self.POOL[0], self.POOL[0]]


class TestGanHashCache:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([JOINT, PER_NET]))
    @settings(max_examples=100)
    def test_equals_sha256_of_canonical_json(self, seed, config):
        gan = random_gan(np.random.default_rng(seed), config)
        want = hashlib.sha256(canonical_json(gan).encode()).hexdigest()
        assert gan_hash(gan) == want
        assert gan_hash(gan) == want
        assert gan_hash(dataclasses.replace(gan)) == want
        other = dataclasses.replace(gan, train_freq_bin=(
            gan.train_freq_bin + 1) % config.arity)
        assert gan_hash(other) == hashlib.sha256(
            canonical_json(other).encode()).hexdigest()
        assert gan_hash(gan) == want

    def test_hashed_once_per_object(self, monkeypatch):
        import archsmith.genotype as genotype
        calls = []
        encode = genotype.canonical_json
        monkeypatch.setattr(genotype, "canonical_json",
                            lambda gan: calls.append(gan) or encode(gan))
        gan = make_gan(2, 3)
        twin = make_gan(2, 3)
        assert gan_hash(gan) == gan_hash(gan) == gan_hash(twin)
        assert len(calls) == 2

    def test_cache_leaves_eq_hash_and_repr_alone(self):
        gan = make_gan(2, 3, train=1)
        twin = GanSpec.from_json_obj(gan.to_json_obj())
        before = (repr(gan), hash(gan))
        gan_hash(gan)
        assert (repr(gan), hash(gan)) == before
        assert gan == twin and twin == gan
        assert hash(gan) == hash(twin) and repr(gan) == repr(twin)
        assert [f.name for f in dataclasses.fields(gan)] == [
            "generator", "discriminator", "train_freq_bin"]
        assert dataclasses.asdict(gan) == dataclasses.asdict(twin)


class TestLayerPool:
    def test_equal_layers_are_one_object(self):
        pool = LayerPool(JOINT)
        obj = make_layer(JOINT.generator_kinds, 3).to_json_obj()
        first = pool.layer(obj)
        assert first == LayerSpec.from_json_obj(obj)
        assert pool.layer(dict(obj)) is first
        # Raw values that only compare equal parse to the same layer.
        assert pool.layer(dict(obj, size_bin=3.0)) is first
        assert pool.layer(dict(obj, size_bin="3")) is first

    def test_holds_at_most_the_vocabulary(self):
        pool = LayerPool(JOINT)
        kinds = sorted(set(JOINT.generator_kinds + JOINT.discriminator_kinds))
        legal = [dict(kind=k, activation=a, weight_init=w, size_bin=b)
                 for k, a, w, b in itertools.product(
                     kinds, JOINT.activations, JOINT.weight_inits,
                     range(JOINT.arity))]
        pooled = {id(pool.layer(dict(obj, size_bin=spelling(obj["size_bin"]))))
                  for obj in legal
                  for spelling in (int, float, str)}
        assert len(pooled) == len(legal) == 225
        # Layers outside the vocabulary are parsed but never pooled.
        for i in range(3):
            for bad in (dict(legal[0], activation=f"act{i}"),
                        dict(legal[0], size_bin=JOINT.arity + i),
                        dict(legal[0], kind=["dense"])):
                assert pool.layer(bad) == LayerSpec.from_json_obj(bad)
                assert pool.layer(bad) is not pool.layer(bad)
        assert len(pool._layers) == 225

    @pytest.mark.parametrize("bad", [
        {"kind": "dense", "activation": "relu", "weight_init": "xavier"},
        {"kind": "dense", "activation": "relu", "weight_init": "xavier",
         "size_bin": "x"},
        ["dense", "relu", "xavier", 0],
        None,
    ])
    def test_malformed_record_raises_like_from_json_obj(self, bad):
        with pytest.raises(FormatError) as want:
            LayerSpec.from_json_obj(bad)
        with pytest.raises(FormatError) as got:
            LayerPool(JOINT).layer(bad)
        assert str(got.value) == str(want.value)
