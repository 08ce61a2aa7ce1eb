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
from archsmith.errors import FormatError, ValidationError, integer, parse_field
from archsmith.genotype import (
    DepthKey,
    DnnSpec,
    GanSpec,
    GenotypeConfig,
    LayerSpec,
    _gan_reader,
    _LAYER_WIDTH,
    _layer_radix,
    _layer_start,
    _layers,
    _read_gan_text,
    _per_key,
    dump_genotypes,
    flatten_joint,
    gan_hash,
    joint_schema,
    load_genotypes,
    network_schema,
    parse_genotype,
    random_genotype,
    sort_by_fitness,
    unflatten_joint,
)
from archsmith.landscape import LandscapeConfig, make_landscape
from archsmith.metamodel import LearnConfig, Metamodel

JOINT = GenotypeConfig.joint()
PER_NET = GenotypeConfig.per_network()
SMALL = GenotypeConfig.joint(arity=2, activations=("relu", "tanh"),
                             weight_inits=("xavier", "normal"),
                             generator_depth_max=2, discriminator_depth_max=2)
TINY = GenotypeConfig.joint(arity=3, activations=("relu", "tanh"),
                            weight_inits=("xavier",), generator_depth_max=2,
                            discriminator_depth_max=2)
SPACES = [JOINT, PER_NET, SMALL, TINY]


def gan_json(gan):
    """A tree's genotype record, the writer the package once had: the
    oracle of the row writer."""
    return {"schema": "v1", "train_freq_bin": gan.train_freq_bin,
            **{net.role: {"role": net.role,
                          "layers": [dataclasses.asdict(layer)
                                     for layer in net.layers]}
               for net in (gan.generator, gan.discriminator)}}


def canonical_json(gan):
    """The tree's canonical text, the test oracle of ``gan_hash``."""
    return json.dumps(gan_json(gan), sort_keys=True,
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


def random_gan(rng, config, depth_key=None):
    """The tree drawer the package once had, the oracle of
    ``random_genotype``: a depth key unless ``depth_key`` is given, then
    each layer's kind, activation, weight init and size bin, generator
    first, then the train bin."""
    if depth_key is None:
        keys = config.depth_keys()
        depth_key = keys[rng.integers(len(keys))]

    def network(role, depth):
        vocabularies = (config.kinds(role), config.activations,
                        config.weight_inits, range(config.arity))
        return DnnSpec(role, tuple(
            LayerSpec(*[vocab[int(rng.integers(len(vocab)))]
                        for vocab in vocabularies])
            for _ in range(depth)))

    return GanSpec(generator=network("generator", depth_key[0]),
                   discriminator=network("discriminator", depth_key[1]),
                   train_freq_bin=int(rng.integers(config.arity)))


# The tree parser and space check the package once had: the oracles of
# ``parse_genotype``'s and ``flatten_joint``'s errors, fault for fault.


def layer_from_json(obj):
    try:
        return LayerSpec(kind=obj["kind"], activation=obj["activation"],
                         weight_init=obj["weight_init"],
                         size_bin=parse_field(obj, "size_bin", integer,
                                              "layer record"))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad layer record: {exc}") from exc


def network_from_json(obj):
    try:
        layers = tuple(layer_from_json(layer) for layer in obj["layers"])
        return DnnSpec(role=obj["role"], layers=layers)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad network record: {exc}") from exc


def gan_from_json(obj):
    if not isinstance(obj, dict):
        raise FormatError(f"genotype record must be a JSON object, "
                          f"not {type(obj).__name__}")
    version = obj.get("schema")
    if version != "v1":
        raise FormatError(f"unsupported genotype schema tag {version!r}")
    try:
        return GanSpec(
            generator=network_from_json(obj["generator"]),
            discriminator=network_from_json(obj["discriminator"]),
            train_freq_bin=parse_field(obj, "train_freq_bin", integer,
                                       "genotype record"))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad genotype record: {exc}") from exc


def validate_tree(gan, config):
    """Raise ValidationError unless ``gan`` lies inside ``config``'s space."""
    for net in (gan.generator, gan.discriminator):
        if net.role not in ("generator", "discriminator"):
            raise ValidationError(f"unknown role {net.role!r}")
        if not 1 <= len(net.layers) <= config.depth_max(net.role):
            raise ValidationError(
                f"unsupported depth {len(net.layers)} for {net.role} "
                f"(bounds 1..{config.depth_max(net.role)})")
        kinds = config.kinds(net.role)
        for i, layer in enumerate(net.layers):
            if layer.kind not in kinds:
                raise ValidationError(
                    f"layer kind {layer.kind!r} not legal for {net.role} "
                    f"(layer {i})")
            if layer.activation not in config.activations:
                raise ValidationError(f"unknown activation {layer.activation!r}")
            if layer.weight_init not in config.weight_inits:
                raise ValidationError(f"unknown weight_init {layer.weight_init!r}")
            if not 0 <= layer.size_bin < config.arity:
                raise ValidationError(
                    f"size_bin {layer.size_bin} outside [0, {config.arity})")
    if gan.generator.role != "generator":
        raise ValidationError("first network must have the generator role")
    if gan.discriminator.role != "discriminator":
        raise ValidationError("second network must have the discriminator role")
    if not 0 <= gan.train_freq_bin < config.arity:
        raise ValidationError(
            f"train_freq_bin {gan.train_freq_bin} outside [0, {config.arity})")


def outcome(call, *args):
    """``call(*args)``, or the type and message of its ValidationError."""
    try:
        return call(*args)
    except ValidationError as exc:
        return type(exc), str(exc)


def oracle_parse(obj, config):
    """The tree parse, the space check and ``flatten_joint`` of a record."""
    def parse(obj):
        tree = gan_from_json(obj)
        validate_tree(tree, config)
        return flatten_joint(tree, config)
    return outcome(parse, obj)


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

    @pytest.mark.parametrize("config", [JOINT, PER_NET],
                             ids=["joint", "per_network"])
    def test_layer_start_gives_each_role_s_schema_slots(self, config):
        for key in config.depth_keys():
            slots = joint_schema(config, key).slots
            for role, depth in zip(("generator", "discriminator"), key):
                start = _layer_start(key, role)
                assert list(range(start, start + _LAYER_WIDTH * depth)) == [
                    j for j, slot in enumerate(slots) if slot.section == role]

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


def row_checkers(config):
    """The callers of the one row check, each given a key and a batch:
    landscape evaluation, metamodel scoring and the tree of each row."""
    land = make_landscape(0, LandscapeConfig(genotype=config))
    model = Metamodel.uniform(LearnConfig(genotype=config))
    return {"evaluate_values": land.evaluate_values,
            "score_values": model.score_values,
            "unflatten_joint": lambda key, rows: [
                unflatten_joint(key, row, config) for row in rows]}


class TestOneRowCheck:
    """Landscape evaluation, metamodel scoring (both modes) and
    ``unflatten_joint`` give one message per fault, naming the joint
    slot.  The bad value sits in the discriminator half, which
    per-network mode scores as a part of its own."""

    @pytest.mark.parametrize("config", [JOINT, PER_NET],
                             ids=["joint", "per_network"])
    @pytest.mark.parametrize("fault", ["unsupported-key", "one-axis",
                                       "wrong-width", "negative",
                                       "too-large"])
    def test_one_message_per_fault(self, config, fault):
        key = DepthKey(2, 3)
        slots = joint_schema(config, key).slots
        n = len(slots)
        column = [slot.name for slot in slots].index("d1.size")
        rows = np.zeros((1, n), dtype=np.int64)
        checkers = row_checkers(config)
        if fault == "unsupported-key":
            key = DepthKey(config.generator_depth_max + 1, 1)
            message = f"unsupported depth {key.d_g} for generator"
        elif fault == "one-axis":
            rows = rows[0]
            del checkers["unflatten_joint"]  # its one row has one axis
            message = (f"rows of shape ({n},) do not hold the {n} slots of "
                       f"depth key (2, 3)")
        elif fault == "wrong-width":
            rows = rows[:, 1:]
            message = (f"rows of shape (1, {n - 1}) do not hold the {n} "
                       f"slots of depth key (2, 3)")
        else:
            rows[0, column] = -1 if fault == "negative" else 99
            message = (f"value {rows[0, column]} outside cardinality of "
                       f"slot d1.size")
        for name, check in checkers.items():
            with pytest.raises(ValidationError) as info:
                check(key, rows)
            assert str(info.value) == message, name

    @pytest.mark.parametrize("config", [JOINT, PER_NET],
                             ids=["joint", "per_network"])
    def test_first_bad_value_in_row_order_is_named(self, config):
        key = DepthKey(2, 3)
        slots = joint_schema(config, key).slots
        rows = np.zeros((2, len(slots)), dtype=np.int64)
        rows[0, -1] = 7  # d2.size, the last slot
        rows[1, 0] = -2  # train_freq, the first
        for name, check in row_checkers(config).items():
            with pytest.raises(ValidationError, match=(
                    "^value 7 outside cardinality of slot d2.size$")):
                check(key, rows)


def row_entries(config):
    """Each entry point that casts rows given as numbers, given a key and
    a batch: one-row and batched evaluation, one-genotype evaluation,
    scoring by key and by genotype, and the tree of each row."""
    land = make_landscape(0, LandscapeConfig(genotype=config, family_seed=7))
    model = Metamodel.uniform(LearnConfig(genotype=config))

    def pairs(key, rows):
        return [(key, tuple(row)) for row in rows.tolist()]

    return {"evaluate_values": land.evaluate_values,
            "evaluate": lambda key, rows: [land.evaluate((key, row))
                                           for row in rows],
            "evaluate_many": lambda key, rows: land.evaluate_many(
                pairs(key, rows)),
            "score_values": lambda key, rows: model.score_values(key, rows)[0],
            "score_many": lambda key, rows: model.score_many(
                pairs(key, rows)),
            "unflatten_joint": lambda key, rows: [
                unflatten_joint(key, row, config) for row in rows]}


class TestNonIntegerRows:
    """A row value with a fractional part, or NaN, is refused by every
    entry point with one message naming the value and its slot.  An
    integral float reads as its int."""

    @staticmethod
    def row():
        key = DepthKey(2, 3)
        return key, np.array([random_genotype(np.random.default_rng(0),
                                              JOINT, key)[1]])

    @pytest.mark.parametrize("entry", sorted(row_entries(JOINT)))
    @pytest.mark.parametrize("fault", ["fraction", "nan"])
    def test_refused_with_its_slot(self, entry, fault):
        key, rows = self.row()
        rows = rows.astype(np.float64)
        if fault == "fraction":
            rows += 0.9
            message = (f"value {rows[0, 0]} of slot train_freq is not an "
                       f"integer")
        else:
            rows[0, 3] = np.nan
            message = "value nan of slot g0.weight_init is not an integer"
        with pytest.raises(ValidationError) as info:
            row_entries(JOINT)[entry](key, rows)
        assert str(info.value) == message

    @pytest.mark.parametrize("entry", sorted(row_entries(JOINT)))
    def test_integral_floats_read_as_ints(self, entry):
        key, rows = self.row()
        check = row_entries(JOINT)[entry]
        want, got = (check(key, r) for r in (rows, rows.astype(np.float64)))
        assert list(got) == list(want)

    def test_first_fault_in_row_order_of_its_kind(self):
        # Every value is checked for being an integer before any is
        # checked against its slot.
        key, rows = self.row()
        rows = np.vstack([rows, rows]).astype(np.float64)
        rows[0, -1] = 7  # outside d2.size
        rows[1, 1] = 0.5  # g0.kind
        entries = row_entries(JOINT)
        for name in ("evaluate_values", "score_values", "evaluate_many"):
            with pytest.raises(ValidationError) as info:
                entries[name](key, rows)
            assert str(info.value) == ("value 0.5 of slot g0.kind is not "
                                       "an integer"), name


class TestSerialization:
    def test_round_trip(self, tmp_path):
        gans = [make_gan(1, 1), make_gan(3, 4, train=2), make_gan(2, 2)]
        path = tmp_path / "gans.jsonl"
        dump_genotypes([flatten_joint(gan, JOINT) for gan in gans], JOINT,
                       path)
        assert list(load_genotypes(path, JOINT)) == [
            flatten_joint(gan, JOINT) for gan in gans]

    def test_bytes_equal_json_dumps(self, tmp_path):
        path = tmp_path / "gans.jsonl"
        for config in (JOINT, PER_NET, SMALL):
            gans = [random_gan(np.random.default_rng(seed), config)
                    for seed in range(20)]
            dump_genotypes([flatten_joint(gan, config) for gan in gans],
                           config, path)
            want = "".join(json.dumps(gan_json(gan), sort_keys=True) + "\n"
                           for gan in gans)
            assert path.read_bytes() == want.encode()

    def test_records_carry_schema_tag(self, tmp_path):
        path = tmp_path / "gans.jsonl"
        dump_genotypes([flatten_joint(make_gan(), JOINT)], JOINT, path)
        obj = json.loads(path.read_text().splitlines()[0])
        assert obj["schema"] == "v1"

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "gans.jsonl"
        obj = gan_json(make_gan())
        obj["schema"] = "v9"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(FormatError, match="schema tag"):
            list(load_genotypes(path, JOINT))

    def test_corrupt_line_reports_line_number(self, tmp_path):
        path = tmp_path / "gans.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(FormatError, match="line 1"):
            list(load_genotypes(path, JOINT))

    @pytest.mark.parametrize("text", ["5", "[]", '"gan"', "null"])
    def test_non_object_line_reports_line_number(self, tmp_path, text):
        path = tmp_path / "gans.jsonl"
        path.write_text(canonical_json(make_gan()) + "\n" + text + "\n")
        with pytest.raises(FormatError, match="line 2: genotype record must "
                                              "be a JSON object"):
            list(load_genotypes(path, JOINT))

    @given(gan_strategy(JOINT))
    @settings(max_examples=50)
    def test_hash_stable_under_json_round_trip(self, gan):
        clone = parse_genotype(json.loads(canonical_json(gan)), JOINT)
        assert gan_hash(*clone, JOINT) == gan_hash(*flatten_joint(gan, JOINT),
                                                  JOINT)


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

    @pytest.mark.parametrize("overrides,message", [
        ({"arity": 0}, "arity must be >= 1"),
        ({"generator_depth_max": 0}, "depth bounds must be >= 1"),
        ({"discriminator_depth_max": 0}, "depth bounds must be >= 1"),
        ({"activations": ()}, "vocabularies must be non-empty and unique"),
        ({"weight_inits": ("xavier", "normal", "xavier")},
         "vocabularies must be non-empty and unique"),
    ], ids=["arity-0", "generator-depth-0", "discriminator-depth-0",
            "empty-vocabulary", "duplicate-entry"])
    def test_bad_field_rejected(self, overrides, message):
        with pytest.raises(ValidationError) as info:
            GenotypeConfig(**overrides)
        assert str(info.value) == message


class TestRandomGenotype:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(SPACES), st.booleans(),
           st.data())
    @settings(max_examples=200)
    def test_equals_the_flattened_tree_oracle(self, seed, config, fix_key,
                                              data):
        # The same draws in the same order: equal genotypes, and both
        # generators left in the same state.
        key = (data.draw(st.sampled_from(config.depth_keys()))
               if fix_key else None)
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_genotype(rng, config, key)
        assert got == flatten_joint(random_gan(oracle, config, key), config)
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert type(got[0]) is DepthKey and type(got[1]) is tuple
        assert all(type(v) is int for v in got[1])


class TestPerKey:
    def test_one_batch_per_key_in_first_seen_order(self):
        genotypes = [(DepthKey(2, 1), (1, 2)), (DepthKey(1, 1), (3,)),
                     (DepthKey(2, 1), (4, 5)), (DepthKey(1, 1), (6,))]
        calls = []

        def batch(key, rows):
            calls.append((key, rows.dtype, rows.tolist()))
            return [sum(row) for row in rows.tolist()]

        assert _per_key(genotypes, batch) == [3, 3, 9, 6]
        assert calls == [(DepthKey(2, 1), np.int64, [[1, 2], [4, 5]]),
                         (DepthKey(1, 1), np.int64, [[3], [6]])]
        assert _per_key([], batch) == [] and len(calls) == 2


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
        twin = Individual(*parse_genotype(gan_json(gan), JOINT), 0.5,
                          "r0", "p0", JOINT)
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
    """One layer record read as ``load_archive`` reads it: as the first
    generator layer of a record."""
    record = gan_json(make_gan())
    record["generator"]["layers"][0] = obj
    return parse_genotype(record, config)


class TestLayerPool:
    """Unflattened genotypes take their layers from the layer table; a
    layer record is read as the tree parse read it."""

    @pytest.mark.parametrize("bad", [
        {"kind": "dense", "activation": "relu", "weight_init": "xavier"},
        {"kind": "dense", "activation": "relu", "weight_init": "xavier",
         "size_bin": "x"},
        ["dense", "relu", "xavier", 0],
        None,
    ])
    def test_malformed_record_raises_like_from_json_obj(self, bad):
        with pytest.raises(FormatError) as want:
            layer_from_json(bad)
        with pytest.raises(FormatError) as got:
            parse_layer(bad)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("config", [JOINT, PER_NET])
    def test_unflattened_layers_are_the_table_s(self, config):
        rng = np.random.default_rng(0)
        tables = {role: tuple(_layers(config, role).specs.values())
                  for role in ("generator", "discriminator")}
        for _ in range(20):
            gan = random_gan(rng, config)
            key, values = flatten_joint(gan, config)
            loaded = parse_genotype(gan_json(gan), config)
            for copy in (unflatten_joint(key, values, config),
                         unflatten_joint(*loaded, config)):
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
        # A layer both roles may hold (a dense one) is one object.
        generator_ids = {id(layer) for layer in tables["generator"]}
        assert sum(id(layer) in generator_ids for layer in table) == 5 * 3 * 5
        # Every table of a role lists the same row values, code by code.
        for role in ("generator", "discriminator"):
            layers = _layers(config, role)
            rows = list(map(tuple, layers.blocks.tolist()))
            assert rows == list(layers.values.values()) == list(layers.specs)
            assert not layers.blocks.flags.writeable
            assert np.ravel_multi_index(layers.blocks.T, _layer_radix(
                config, role)).tolist() == list(range(len(rows)))


# Values a mutated record may hold: every vocabulary word of the test
# spaces and both roles, numbers of each JSON kind, and nested containers.
WORDS = sorted({word for config in SPACES for word in (
    config.activations + config.weight_inits + config.generator_kinds
    + config.discriminator_kinds)} | {"generator", "discriminator", "swish",
                                      "v1", "v2"})
FIELDS = ["kind", "activation", "weight_init", "size_bin", "role", "layers",
          "generator", "discriminator", "train_freq_bin", "schema"]
LEAVES = (st.none() | st.booleans() | st.integers(-2, 7)
          | st.sampled_from(WORDS) | st.floats(-2, 7)
          | st.sampled_from([1.0, 2.0, float("nan"), float("inf")]))
JSON_VALUES = st.recursive(
    LEAVES, lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(FIELDS), children, max_size=4),
    max_leaves=6)
# Mostly a bin or a word, so that most records stay well formed.
REPLACEMENTS = st.integers(-2, 7) | st.sampled_from(WORDS) | JSON_VALUES


def containers(obj):
    """Every non-empty dict and list inside ``obj``, itself included."""
    if isinstance(obj, (dict, list)) and obj:
        yield obj
        for value in (obj.values() if isinstance(obj, dict) else obj):
            yield from containers(value)


@st.composite
def mutated_records(draw):
    """A space, and a record of one of its genotypes with one to three
    fields deleted, replaced or repeated, or the whole record replaced."""
    config = draw(st.sampled_from(SPACES))
    obj = gan_json(draw(gan_strategy(config)))
    for _ in range(draw(st.integers(1, 3))):
        found = list(containers(obj))
        if not found:
            break
        target = draw(st.sampled_from(found))
        key = draw(st.sampled_from(list(target) if isinstance(target, dict)
                                   else range(len(target))))
        action = draw(st.sampled_from(["delete", "replace", "repeat"]))
        if action == "delete":
            del target[key]
        elif action == "replace":
            target[key] = draw(REPLACEMENTS)
        elif isinstance(target, list):
            target.append(json.loads(json.dumps(target[key])))
    if draw(st.integers(0, 19)) == 0:
        obj = draw(JSON_VALUES)
    return config, json.loads(json.dumps(obj))


class TestParseGenotype:
    @given(st.sampled_from(SPACES).flatmap(
        lambda config: st.tuples(st.just(config), gan_strategy(config))),
        st.booleans())
    @settings(max_examples=150)
    def test_inverts_the_writer(self, drawn, compact):
        config, gan = drawn
        text = json.dumps(gan_json(gan), sort_keys=True,
                          separators=(",", ":") if compact else None)
        assert parse_genotype(json.loads(text), config) == flatten_joint(
            gan, config)

    @given(st.sampled_from(SPACES).flatmap(
        lambda config: st.tuples(st.just(config), gan_strategy(config))),
        st.booleans())
    @settings(max_examples=150)
    def test_text_reader_inverts_the_default_writer(self, drawn, compact):
        # Only the text dump_genotypes writes is read from its text; a
        # compact one is left to the JSON reader.
        config, gan = drawn
        text = json.dumps(gan_json(gan), sort_keys=True,
                          separators=(",", ":") if compact else None)
        want = None if compact else flatten_joint(gan, config)
        assert _read_gan_text(text, _gan_reader(config)) == want

    @given(mutated_records(), st.sampled_from(SPACES))
    @settings(max_examples=200)
    def test_text_reader_reads_records_as_json_does(self, drawn, space):
        # A record the text reader reads, in its own space or another,
        # parses to the same key and row through JSON.
        config, obj = drawn
        text = json.dumps(obj, sort_keys=True)
        got = _read_gan_text(text, _gan_reader(space))
        assert got is None or outcome(parse_genotype, obj, space) == got
        if got is not None:
            assert type(got[0]) is DepthKey and type(got[1]) is tuple

    @given(mutated_records())
    @settings(max_examples=500)
    def test_malformed_records_fail_as_the_tree_parse(self, drawn):
        # Each record raises the exception type and message that the tree
        # parse, its space check and ``flatten_joint`` raise, or reads as
        # the same pair; the space check and ``flatten_joint`` agree on
        # every parsed tree.
        config, obj = drawn
        assert outcome(parse_genotype, obj, config) == oracle_parse(obj,
                                                                    config)
        try:
            tree = gan_from_json(obj)
        except FormatError:
            return
        assert outcome(flatten_joint, tree, config) == outcome(
            lambda: validate_tree(tree, config) or flatten_joint(tree, config))

    @pytest.mark.parametrize("edit,message", [
        (lambda o: o["generator"].update(role="discriminator"),
         "first network must have the generator role"),
        (lambda o: (o["discriminator"].update(role="generator"),
                    o["discriminator"]["layers"][1].update(kind="dense")),
         "second network must have the discriminator role"),
        (lambda o: (o["generator"].update(role="discriminator"),
                    o["discriminator"].update(role="generator")),
         "layer kind 'conv' not legal for generator (layer 1)"),
        (lambda o: o["discriminator"].update(role="critic"),
         "unknown role 'critic'"),
        (lambda o: o.update(train_freq_bin=5), "train_freq_bin 5 outside"),
        (lambda o: o["discriminator"]["layers"][1].update(size_bin=-1),
         "size_bin -1 outside"),
        (lambda o: o["generator"]["layers"].clear(),
         "unsupported depth 0 for generator"),
        (lambda o: o["discriminator"]["layers"].extend(
            o["discriminator"]["layers"] * 2),
         "unsupported depth 6 for discriminator"),
        (lambda o: o["generator"]["layers"][0].update(kind="conv"),
         "layer kind 'conv' not legal for generator (layer 0)"),
        (lambda o: o["generator"]["layers"][0].update(weight_init="he"),
         "unknown weight_init 'he'"),
    ])
    def test_space_faults_match_the_tree_check(self, edit, message):
        gan = GanSpec(
            generator=DnnSpec("generator", (
                LayerSpec("dense", "tanh", "normal", 2),)),
            discriminator=DnnSpec("discriminator", (
                LayerSpec("dense", "relu", "xavier", 0),
                LayerSpec("conv", "elu", "uniform", 4))),
            train_freq_bin=3)
        obj = gan_json(gan)
        edit(obj)
        got = outcome(parse_genotype, obj, JOINT)
        assert got == oracle_parse(obj, JOINT)
        assert got[0] is ValidationError and got[1].startswith(message)

    def test_integral_float_bins_are_accepted(self):
        obj = gan_json(make_gan(2, 1, train=1))
        want = parse_genotype(obj, JOINT)
        layer = obj["generator"]["layers"][1]
        obj["train_freq_bin"] = layer["size_bin"] = 1.0
        assert parse_genotype(obj, JOINT) == want
        for holder, name in ((obj, "train_freq_bin"), (layer, "size_bin")):
            for bad in (1.5, "1", True):
                holder[name] = bad
                with pytest.raises(FormatError, match=f"{name!r} is "
                                                      f"{bad!r}, not a valid"):
                    parse_genotype(obj, JOINT)
            holder[name] = 1

    def test_out_of_space_line_names_file_and_line(self, tmp_path):
        obj = gan_json(make_gan())
        good = json.dumps(obj)
        obj["discriminator"]["layers"][0]["activation"] = "swish"
        path = tmp_path / "gans.jsonl"
        path.write_text(good + "\n\n" + json.dumps(obj) + "\n")
        with pytest.raises(ValidationError) as info:
            list(load_genotypes(path, JOINT))
        assert type(info.value) is ValidationError
        assert str(info.value) == (f"{path}: line 3: unknown activation "
                                   f"'swish'")
