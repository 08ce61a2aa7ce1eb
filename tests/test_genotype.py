import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archsmith import archive
from archsmith.archive import Individual, RunArchive, extract_sets
from archsmith.errors import FormatError, ValidationError
from archsmith.genotype import (
    DepthKey,
    DnnSpec,
    GanSpec,
    GenotypeConfig,
    LayerSpec,
    _layer_table,
    _layers_by_fields,
    dump_genotypes,
    flatten_joint,
    gan_hash,
    joint_schema,
    load_genotypes,
    network_schema,
    random_gan,
    sort_by_fitness,
    unflatten_joint,
)

JOINT = GenotypeConfig.joint()
PER_NET = GenotypeConfig.per_network()
SMALL = GenotypeConfig.joint(arity=2, activations=("relu", "tanh"),
                             weight_inits=("xavier", "normal"),
                             generator_depth_max=2, discriminator_depth_max=2)
TINY = GenotypeConfig.joint(arity=3, activations=("relu", "tanh"),
                            weight_inits=("xavier",), generator_depth_max=2,
                            discriminator_depth_max=2)
SPACES = [JOINT, PER_NET, SMALL, TINY]


def canonical_json(gan):
    """The tree's canonical text, the test oracle of ``gan_hash``."""
    return json.dumps(gan.to_json_obj(), sort_keys=True,
                      separators=(",", ":"))


def tree_hash(gan):
    """sha256 of ``canonical_json(gan)``, the hash of a tree's row."""
    return hashlib.sha256(canonical_json(gan).encode()).hexdigest()


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
        key, values = flatten_joint(make_gan(1, 1), JOINT)
        schema = joint_schema(JOINT, key)
        assert key == DepthKey(1, 1)
        assert len(values) == len(schema) == 9
        assert schema.slots[0].name == "train_freq"

    def test_deepest_joint_gan_has_twenty_nine_slots(self):
        key, values = flatten_joint(make_gan(3, 4), JOINT)
        assert len(values) == len(joint_schema(JOINT, key)) == 29

    def test_slot_order_global_then_generator_then_discriminator(self):
        schema = joint_schema(JOINT, DepthKey(2, 1))
        sections = [slot.section for slot in schema.slots]
        assert sections == (["global"] + ["generator"] * 8
                            + ["discriminator"] * 4)

    def test_per_network_halves_partition_joint_vector(self):
        joint = joint_schema(PER_NET, DepthKey(2, 3))
        gen = network_schema(PER_NET, "generator", 2)
        disc = network_schema(PER_NET, "discriminator", 3)
        assert gen.slots + disc.slots == joint.slots
        assert gen.key == ("generator", 2)
        assert disc.key == ("discriminator", 3)
        assert gen.slots[0].name == "train_freq"

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
        key, values = flatten_joint(gan, JOINT)
        assert unflatten_joint(key, values, JOINT) == gan
        assert unflatten_joint(key, np.array(values), JOINT) == gan

    @given(gan_strategy(PER_NET))
    @settings(max_examples=200)
    def test_per_network_round_trip(self, gan):
        key, values = flatten_joint(gan, PER_NET)
        assert unflatten_joint(key, values, PER_NET) == gan

    @given(gan_strategy(JOINT))
    def test_every_value_within_cardinality(self, gan):
        key, values = flatten_joint(gan, JOINT)
        slots = joint_schema(JOINT, key).slots
        assert len(values) == len(slots)
        for value, slot in zip(values, slots):
            assert type(value) is int
            assert 0 <= value < slot.cardinality

    def test_vector_outside_cardinality_rejected(self):
        schema = joint_schema(JOINT, DepthKey(1, 1))
        values = [0] * len(schema)
        values[0] = JOINT.arity  # one past the last train-frequency bin
        with pytest.raises(ValidationError):
            unflatten_joint(DepthKey(1, 1), tuple(values), JOINT)

    @pytest.mark.parametrize("config", [JOINT, PER_NET],
                             ids=["joint", "per_network"])
    @pytest.mark.parametrize("as_array", [False, True],
                             ids=["tuple", "int64"])
    def test_every_slot_rejects_minus_one_and_its_cardinality(self, config,
                                                              as_array):
        # -1 must not wrap to a vocabulary's last entry.
        key = DepthKey(2, 3)
        slots = joint_schema(config, key).slots
        for j, slot in enumerate(slots):
            for bad in (-1, slot.cardinality):
                values = [0] * len(slots)
                values[j] = bad
                row = np.array(values, dtype=np.int64) if as_array \
                    else tuple(values)
                with pytest.raises(ValidationError, match=slot.name):
                    unflatten_joint(key, row, config)

    def test_row_length_must_match_the_key(self):
        values = [0] * len(joint_schema(JOINT, DepthKey(1, 2)))
        with pytest.raises(ValidationError, match="slots"):
            unflatten_joint(DepthKey(1, 1), values, JOINT)
        with pytest.raises(ValidationError, match="unsupported depth"):
            unflatten_joint(DepthKey(4, 1), values, JOINT)


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

    @pytest.mark.parametrize("text", ["5", "[]", '"gan"', "null"])
    def test_non_object_line_reports_line_number(self, tmp_path, text):
        path = tmp_path / "gans.jsonl"
        path.write_text(canonical_json(make_gan()) + "\n" + text + "\n")
        with pytest.raises(FormatError, match="line 2: genotype record must "
                                              "be a JSON object"):
            list(load_genotypes(path))

    @given(gan_strategy(JOINT))
    @settings(max_examples=50)
    def test_hash_stable_under_json_round_trip(self, gan):
        clone = GanSpec.from_json_obj(json.loads(canonical_json(gan)))
        assert (gan_hash(*flatten_joint(clone, JOINT), JOINT)
                == gan_hash(*flatten_joint(gan, JOINT), JOINT))


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
        want = sorted(items, key=lambda m: (m[1], tree_hash(m[0])))
        got = sort_by_fitness(items, lambda m: m[1], lambda m: tree_hash(m[0]))
        assert [m[2] for m in got] == [m[2] for m in want]
        pairs = [(gan, f) for gan, f, _ in items]
        assert sort_by_fitness(pairs, lambda m: m[1],
                               lambda m: tree_hash(m[0])) == [
            (gan, f) for gan, f, _ in want]

    def test_hashes_only_ties(self):
        calls = []
        pairs = [(gan, float(i)) for i, gan in enumerate(self.POOL)]
        sort_by_fitness(pairs + [(self.POOL[0], 0.0)], lambda m: m[1],
                        lambda m: calls.append(m[0]) or "")
        assert calls == [self.POOL[0], self.POOL[0]]


class TestGanHashCache:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(SPACES))
    @settings(max_examples=200)
    def test_equals_sha256_of_canonical_json(self, seed, config):
        # The row hash against the tree's canonical JSON, the oracle.
        gan = random_gan(np.random.default_rng(seed), config)
        key, row = flatten_joint(gan, config)
        want = tree_hash(gan)
        assert gan_hash(key, row, config) == want
        assert gan_hash(key, np.array(row), config) == want
        assert gan_hash(key, list(row), config) == want
        other = dataclasses.replace(gan, train_freq_bin=(
            gan.train_freq_bin + 1) % config.arity)
        assert gan_hash(*flatten_joint(other, config), config) == (
            tree_hash(other))

    def test_hashed_once_per_object(self, monkeypatch):
        # An archive individual hashes its row once, however often it is
        # ranked.
        rng = np.random.default_rng(3)
        inds = [Individual(*flatten_joint(random_gan(rng, JOINT), JOINT),
                           1.0, "r0", "p0", JOINT) for _ in range(6)]
        calls = []
        monkeypatch.setattr(archive, "gan_hash",
                            lambda *args: calls.append(args) or gan_hash(*args))
        run = RunArchive(runs={"r0": inds}, config=JOINT)
        for _ in range(3):
            extract_sets(run, n=3, seed=0)
            run.content_hash()
        assert sorted(args[:2] for args in calls) == sorted(
            (i.key, i.row) for i in inds)

    def test_cache_leaves_eq_hash_and_repr_alone(self):
        gan = make_gan(2, 3, train=1)
        ind = Individual(*flatten_joint(gan, JOINT), 0.5, "r0", "p0", JOINT)
        twin = Individual(*flatten_joint(
            GanSpec.from_json_obj(gan.to_json_obj()), JOINT), 0.5, "r0", "p0",
            JOINT)
        before = (repr(ind), hash(ind))
        assert ind._hash == tree_hash(gan) and ind.gan == gan
        assert (repr(ind), hash(ind)) == before
        assert ind == twin and twin == ind and hash(ind) == hash(twin)
        assert repr(ind).startswith("Individual(key=")
        assert "config" not in repr(ind)
        assert [f.name for f in dataclasses.fields(ind)] == [
            "key", "row", "fitness", "run_id", "problem_id", "config"]
        # The config is not compared: equal rows are equal individuals.
        assert dataclasses.replace(ind, config=PER_NET) == ind


def parse_layer(obj, config=JOINT):
    """One layer record parsed as ``load_archive`` parses it."""
    return DnnSpec.from_json_obj({"role": "generator", "layers": [obj]},
                                 config).layers[0]


class TestLayerPool:
    """Parsed layers inside the vocabulary come from one shared pool, the
    layer table's objects (``_layers_by_fields``)."""

    def test_equal_layers_are_one_object(self):
        obj = make_layer(JOINT.generator_kinds, 3).to_json_obj()
        first = parse_layer(obj)
        assert first == LayerSpec.from_json_obj(obj)
        assert parse_layer(dict(obj)) is first
        # An integral float parses to the same layer.  A string or a
        # boolean size bin is rejected, even though "3" is the text of the
        # shared size bin 3 and true compares equal to the shared 1.
        assert parse_layer(dict(obj, size_bin=3.0)) is first
        parse_layer(dict(obj, size_bin=1))
        for bad in ("3", True):
            with pytest.raises(FormatError, match="size_bin"):
                parse_layer(dict(obj, size_bin=bad))

    def test_holds_at_most_the_vocabulary(self):
        kinds = sorted(set(JOINT.generator_kinds + JOINT.discriminator_kinds))
        legal = [dict(kind=k, activation=a, weight_init=w, size_bin=b)
                 for k, a, w, b in itertools.product(
                     kinds, JOINT.activations, JOINT.weight_inits,
                     range(JOINT.arity))]
        shared = {id(parse_layer(dict(obj, size_bin=spelling(obj["size_bin"]))))
                  for obj in legal
                  for spelling in (int, float)}
        assert len(shared) == len(legal) == 225
        # Layers outside the vocabulary are parsed but never shared.
        for i in range(3):
            for bad in (dict(legal[0], activation=f"act{i}"),
                        dict(legal[0], size_bin=JOINT.arity + i),
                        dict(legal[0], kind=["dense"])):
                assert parse_layer(bad) == LayerSpec.from_json_obj(bad)
                assert parse_layer(bad) is not parse_layer(bad)
        assert len(_layers_by_fields(JOINT)) == 225
        assert shared == {id(layer) for layer in
                          _layers_by_fields(JOINT).values()}

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
            parse_layer(bad)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("config", [JOINT, PER_NET])
    def test_generated_and_loaded_layers_are_the_table_s(self, config):
        rng = np.random.default_rng(0)
        tables = {role: _layer_table(config, role)
                  for role in ("generator", "discriminator")}
        for _ in range(20):
            gan = random_gan(rng, config)
            key, values = flatten_joint(gan, config)
            for copy in (gan, unflatten_joint(key, values, config),
                         GanSpec.from_json_obj(gan.to_json_obj(), config)):
                for net in (copy.generator, copy.discriminator):
                    ids = {id(layer) for layer in tables[net.role]}
                    assert all(id(layer) in ids for layer in net.layers)
        # Code order: the table lists the layers by (kind, activation,
        # weight_init, size_bin) index, lexicographically.
        table = tables["discriminator"]
        assert table == tuple(sorted(table, key=lambda layer: (
            config.discriminator_kinds.index(layer.kind),
            config.activations.index(layer.activation),
            config.weight_inits.index(layer.weight_init), layer.size_bin)))
        assert len(set(table)) == len(table) == 2 * 5 * 3 * 5
