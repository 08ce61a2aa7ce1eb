"""Tests for mutation, hill climbing, and the EA loop.

The object-level operators below (``AddLayer`` … ``apply_op``,
``legal_ops``, ``neighbors`` and ``mutate_oracle``) build one-mutation
moves on ``GanSpec`` trees.  The package works on ``(DepthKey, row)``
pairs only; these are the oracle that ``neighbor_groups``, ``mutate`` and
the EA's crossover are checked against.
"""

import csv
import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import itemgetter
from typing import Union

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from archsmith import search
from archsmith.archive import Individual
from archsmith.cli import _final_values, _trace_rows
from archsmith.errors import ValidationError
from archsmith.experiments import write_csv
from archsmith.genotype import (
    DepthKey,
    GanSpec,
    GenotypeConfig,
    LayerSpec,
    ROLE_DISCRIMINATOR,
    ROLE_GENERATOR,
    ROLES,
    _layers,
    _mutation_moves,
    flatten_joint,
    gan_hash,
    joint_schema,
    random_genotype,
    unflatten_joint,
)
from archsmith.landscape import LandscapeConfig, make_landscape
from archsmith.metamodel import LearnConfig, Metamodel, learn
from archsmith.search import (
    EaConfig,
    Population,
    _crossover,
    _tournament,
    guided_hc,
    init_population,
    mutate,
    neighbor_groups,
    random_hc,
    simple_ea,
)
from test_archive import individual
from test_genotype import random_gan, tree_hash, validate_tree
from test_landscape import planted_gan

DEFAULT = GenotypeConfig.joint()
PER_NET = GenotypeConfig.per_network()
TINY = GenotypeConfig.joint(
    arity=2,
    activations=("relu", "tanh"),
    weight_inits=("xavier", "normal"),
    generator_depth_max=1,
    discriminator_depth_max=2,
)


# One genotype only: every slot has one value and both depths are fixed.
POINT = GenotypeConfig.joint(
    arity=1, activations=("relu",), weight_inits=("xavier",),
    generator_kinds=("dense",), discriminator_kinds=("dense",),
    generator_depth_max=1, discriminator_depth_max=1)


# One value in some layer slot: a change there may only keep the value.
ONE_ACTIVATION = GenotypeConfig.joint(activations=("relu",))


def assert_all_padding(trace, land, start, budget):
    """The trace of a climb from a genotype without neighbours."""
    assert trace.start == start
    assert trace.start_fitness == land.evaluate(start)
    assert [s.step for s in trace.steps] == list(range(1, budget + 1))
    assert all(s.exhausted and not s.accepted and s.genotype is None
               and math.isnan(s.fitness) and s.best == trace.start_fitness
               for s in trace.steps)
    assert trace.evaluations == 0


def tiny_landscape(seed=0, family_seed=3, sigma=0.0, **overrides):
    config = LandscapeConfig(genotype=TINY, family_seed=family_seed,
                             sigma_noise=sigma, **overrides)
    return make_landscape(seed, config)


# ---------------------------------------------------------------------------
# Object-level operators (the oracle)


# Layer attributes that ChangeLayer may rewrite; kind is add/delete-only.
MUTABLE_LAYER_ATTRS = ("activation", "weight_init", "size_bin")


@dataclass(frozen=True)
class AddLayer:
    role: str
    position: int
    layer: LayerSpec


@dataclass(frozen=True)
class DeleteLayer:
    role: str
    position: int


@dataclass(frozen=True)
class ChangeLayer:
    """Set one mutable attribute of one layer to a new vocabulary index."""

    role: str
    position: int
    attr: str
    value: int


@dataclass(frozen=True)
class ChangeTrainFreq:
    value: int


MutationOp = Union[AddLayer, DeleteLayer, ChangeLayer, ChangeTrainFreq]


@lru_cache(maxsize=None)
def _layer_variants(config, role):
    return tuple(LayerSpec(kind=k, activation=a, weight_init=w, size_bin=s)
                 for k in config.kinds(role)
                 for a in config.activations
                 for w in config.weight_inits
                 for s in range(config.arity))


def _attr_index(config, layer, attr):
    if attr == "activation":
        return config.activations.index(layer.activation)
    if attr == "weight_init":
        return config.weight_inits.index(layer.weight_init)
    if attr == "size_bin":
        return layer.size_bin
    raise ValidationError(f"unknown mutable attribute {attr!r}")


def _attr_cardinality(config, attr):
    return {"activation": len(config.activations),
            "weight_init": len(config.weight_inits),
            "size_bin": config.arity}[attr]


def _net_of(gan, role):
    return gan.generator if role == ROLE_GENERATOR else gan.discriminator


def _with_net(gan, role, net):
    if role == ROLE_GENERATOR:
        return replace(gan, generator=net)
    return replace(gan, discriminator=net)


def apply_op(gan, op, config):
    """Apply one operator; the result is validated against the bounds."""
    if isinstance(op, ChangeTrainFreq):
        result = replace(gan, train_freq_bin=op.value)
    elif isinstance(op, AddLayer):
        net = _net_of(gan, op.role)
        if not 0 <= op.position <= len(net.layers):
            raise ValidationError(f"bad insert position {op.position}")
        layers = (net.layers[:op.position] + (op.layer,)
                  + net.layers[op.position:])
        result = _with_net(gan, op.role, replace(net, layers=layers))
    elif isinstance(op, DeleteLayer):
        net = _net_of(gan, op.role)
        if len(net.layers) <= 1:
            raise ValidationError("cannot delete the last layer")
        if not 0 <= op.position < len(net.layers):
            raise ValidationError(f"bad delete position {op.position}")
        layers = net.layers[:op.position] + net.layers[op.position + 1:]
        result = _with_net(gan, op.role, replace(net, layers=layers))
    elif isinstance(op, ChangeLayer):
        net = _net_of(gan, op.role)
        if not 0 <= op.position < len(net.layers):
            raise ValidationError(f"bad layer position {op.position}")
        layer = net.layers[op.position]
        if op.attr == "activation":
            layer = replace(layer, activation=config.activations[op.value])
        elif op.attr == "weight_init":
            layer = replace(layer, weight_init=config.weight_inits[op.value])
        elif op.attr == "size_bin":
            layer = replace(layer, size_bin=op.value)
        else:
            raise ValidationError(f"unknown mutable attribute {op.attr!r}")
        layers = (net.layers[:op.position] + (layer,)
                  + net.layers[op.position + 1:])
        result = _with_net(gan, op.role, replace(net, layers=layers))
    else:
        raise ValidationError(f"unknown operator {op!r}")
    validate_tree(result, config)
    return result


def mutate_oracle(gan, config, rng):
    """One random operator: uniform over applicable kinds, then parameters.

    Returns the mutated genotype and the operator applied.
    """
    kinds = ["change", "train_freq"]
    if (len(gan.generator.layers) < config.generator_depth_max
            or len(gan.discriminator.layers) < config.discriminator_depth_max):
        kinds.append("add")
    if len(gan.generator.layers) > 1 or len(gan.discriminator.layers) > 1:
        kinds.append("delete")
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "train_freq":
        shift = int(rng.integers(1, config.arity)) if config.arity > 1 else 0
        op = ChangeTrainFreq((gan.train_freq_bin + shift) % config.arity)
    elif kind == "add":
        roles = [r for r, net in ((ROLE_GENERATOR, gan.generator),
                                  (ROLE_DISCRIMINATOR, gan.discriminator))
                 if len(net.layers) < config.depth_max(r)]
        role = roles[int(rng.integers(len(roles)))]
        net = _net_of(gan, role)
        variants = _layer_variants(config, role)
        op = AddLayer(role, int(rng.integers(len(net.layers) + 1)),
                      variants[int(rng.integers(len(variants)))])
    elif kind == "delete":
        roles = [r for r, net in ((ROLE_GENERATOR, gan.generator),
                                  (ROLE_DISCRIMINATOR, gan.discriminator))
                 if len(net.layers) > 1]
        role = roles[int(rng.integers(len(roles)))]
        op = DeleteLayer(role, int(rng.integers(len(_net_of(gan, role).layers))))
    else:
        role = (ROLE_GENERATOR, ROLE_DISCRIMINATOR)[int(rng.integers(2))]
        net = _net_of(gan, role)
        position = int(rng.integers(len(net.layers)))
        attr = MUTABLE_LAYER_ATTRS[int(rng.integers(len(MUTABLE_LAYER_ATTRS)))]
        card = _attr_cardinality(config, attr)
        current = _attr_index(config, net.layers[position], attr)
        shift = int(rng.integers(1, card)) if card > 1 else 0
        op = ChangeLayer(role, position, attr, (current + shift) % card)
    return apply_op(gan, op, config), op


def crossover_oracle(a, b):
    """Swap whole networks; train frequency travels with the generator."""
    return (GanSpec(generator=a.generator, discriminator=b.discriminator,
                    train_freq_bin=a.train_freq_bin),
            GanSpec(generator=b.generator, discriminator=a.discriminator,
                    train_freq_bin=b.train_freq_bin))


def legal_ops(gan, config):
    """Oracle: every operator application that keeps the genotype within
    bounds."""
    ops = []
    for net in (gan.generator, gan.discriminator):
        role, depth = net.role, len(net.layers)
        if depth < config.depth_max(role):
            for position in range(depth + 1):
                for layer in _layer_variants(config, role):
                    ops.append(AddLayer(role, position, layer))
        if depth > 1:
            for position in range(depth):
                ops.append(DeleteLayer(role, position))
        for position, layer in enumerate(net.layers):
            for attr in MUTABLE_LAYER_ATTRS:
                current = _attr_index(config, layer, attr)
                for value in range(_attr_cardinality(config, attr)):
                    if value != current:
                        ops.append(ChangeLayer(role, position, attr, value))
    for value in range(config.arity):
        if value != gan.train_freq_bin:
            ops.append(ChangeTrainFreq(value))
    return ops


def neighbors(gan, config):
    """Oracle: distinct genotypes one operator away, excluding the genotype
    itself, built object by object with ``legal_ops`` and ``apply_op``."""
    seen = {tree_hash(gan)}
    out = []
    for op in legal_ops(gan, config):
        candidate = apply_op(gan, op, config)
        digest = tree_hash(candidate)
        if digest not in seen:
            seen.add(digest)
            out.append(candidate)
    return out


def enumerate_space(config):
    """Every genotype the bounds allow, as GanSpec objects."""
    out = []
    for key in config.depth_keys():
        schema = joint_schema(config, key)
        for values in itertools.product(
                *[range(c) for c in schema.cardinalities]):
            out.append(unflatten_joint(key, values, config))
    return out


def one_insertion_away(short, long):
    """True when deleting one element of ``long`` can yield ``short``."""
    if len(long) != len(short) + 1:
        return False
    return any(long[:i] + long[i + 1:] == short for i in range(len(long)))


def is_one_op_apart(g, h, config):
    """Edit relation defined directly on genotype structure."""
    if tree_hash(g) == tree_hash(h):
        return False
    (gk, a), (hk, b) = flatten_joint(g, config), flatten_joint(h, config)
    if gk == hk:
        diff = [slot for slot, x, y in zip(joint_schema(config, gk).slots,
                                           a, b)
                if x != y]
        # layer kind is fixed at creation; only add/delete can change it
        return len(diff) == 1 and diff[0].attr != "kind"
    if gk.d_g == hk.d_g and abs(gk.d_d - hk.d_d) == 1:
        if (g.generator, g.train_freq_bin) != (h.generator, h.train_freq_bin):
            return False
        short, long = sorted((g.discriminator.layers, h.discriminator.layers),
                             key=len)
        return one_insertion_away(short, long)
    if gk.d_d == hk.d_d and abs(gk.d_g - hk.d_g) == 1:
        if (g.discriminator, g.train_freq_bin) != (h.discriminator,
                                                   h.train_freq_bin):
            return False
        short, long = sorted((g.generator.layers, h.generator.layers),
                             key=len)
        return one_insertion_away(short, long)
    return False


class TestOperators:
    def test_change_count_single_layer(self):
        rng = np.random.default_rng(0)
        gan = random_gan(rng, DEFAULT, depth_key=DepthKey(1, 1))
        ops = legal_ops(gan, DEFAULT)
        changes = [op for op in ops
                   if isinstance(op, (ChangeLayer, ChangeTrainFreq))]
        # per layer: 4 activations + 2 inits + 4 sizes; plus 4 train freqs
        assert len(changes) == 2 * (4 + 2 + 4) + 4 == 24

    def test_neighbor_count_single_layer(self):
        rng = np.random.default_rng(1)
        gan = random_gan(rng, DEFAULT, depth_key=DepthKey(1, 1))
        # 24 changes plus 300 insertions per role, one duplicate apiece
        # (inserting a copy of the existing layer at either side).
        assert len(neighbors(gan, DEFAULT)) == 24 + 299 + 299

    def test_no_add_at_max_depth(self):
        rng = np.random.default_rng(2)
        gan = random_gan(rng, DEFAULT, depth_key=DepthKey(3, 4))
        assert not [op for op in legal_ops(gan, DEFAULT)
                    if isinstance(op, AddLayer)]

    def test_no_delete_at_min_depth(self):
        rng = np.random.default_rng(3)
        gan = random_gan(rng, DEFAULT, depth_key=DepthKey(1, 1))
        assert not [op for op in legal_ops(gan, DEFAULT)
                    if isinstance(op, DeleteLayer)]

    def test_apply_rejects_out_of_bounds(self):
        rng = np.random.default_rng(4)
        gan = random_gan(rng, DEFAULT, depth_key=DepthKey(1, 1))
        with pytest.raises(ValidationError):
            apply_op(gan, DeleteLayer(ROLE_GENERATOR, 0), DEFAULT)
        with pytest.raises(ValidationError):
            apply_op(gan, AddLayer(ROLE_GENERATOR, 5,
                                   gan.generator.layers[0]), DEFAULT)

    def test_neighbors_match_edit_relation(self):
        space = enumerate_space(TINY)
        by_hash = {tree_hash(g): g for g in space}
        assert len(by_hash) == 512 + 8192
        rng = np.random.default_rng(5)
        picks = rng.choice(len(space), size=4, replace=False)
        for i in picks:
            g = space[int(i)]
            expected = {tree_hash(h) for h in space
                        if is_one_op_apart(g, h, TINY)}
            got = {tree_hash(h) for h in neighbors(g, TINY)}
            assert got == expected

    def test_change_moves_are_symmetric(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g = random_gan(rng, DEFAULT)
            ops = [op for op in legal_ops(g, DEFAULT)
                   if isinstance(op, (ChangeLayer, ChangeTrainFreq))]
            op = ops[int(rng.integers(len(ops)))]
            h = apply_op(g, op, DEFAULT)
            back = {tree_hash(apply_op(h, rev, DEFAULT))
                    for rev in legal_ops(h, DEFAULT)
                    if isinstance(rev, (ChangeLayer, ChangeTrainFreq))}
            assert tree_hash(g) in back

    def test_random_mutations_stay_valid(self):
        rng = np.random.default_rng(7)
        key, row = flatten_joint(random_gan(rng, DEFAULT), DEFAULT)
        for _ in range(10_000):
            key, row = mutate(key, row, DEFAULT, rng)
            validate_tree(unflatten_joint(key, row, DEFAULT), DEFAULT)

    def test_all_ops_valid_everywhere(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            gan = random_gan(rng, TINY)
            for op in legal_ops(gan, TINY):
                validate_tree(apply_op(gan, op, TINY), TINY)

    def test_vector_groups_match_op_level(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            gan = random_gan(rng, TINY)
            key, values = flatten_joint(gan, TINY)
            groups = neighbor_groups(key, np.array(values), TINY)
            got = set()
            for group_key, rows in groups:
                for row in rows:
                    got.add(gan_hash(group_key, row, TINY))
            expected = {tree_hash(h) for h in neighbors(gan, TINY)}
            assert got == expected

    @pytest.mark.parametrize("config", [TINY, GenotypeConfig.per_network()],
                             ids=["tiny", "per_network"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           repeats=st.lists(st.booleans(), min_size=12, max_size=12))
    def test_vector_groups_are_distinct_and_sorted(self, config, seed,
                                                   repeats):
        rng = np.random.default_rng(seed)
        key, values = flatten_joint(random_gan(rng, config), config)
        values = np.array(values)
        # Copy layer p onto layer p + 1 where asked: inserting next to
        # equal adjacent layers is where the rows need deduplication.
        layers = [(1 + 4 * p, 5 + 4 * p) for p in range(key.d_g - 1)]
        layers += [(1 + 4 * (key.d_g + p), 5 + 4 * (key.d_g + p))
                   for p in range(key.d_d - 1)]
        for (lo, hi), copy in zip(layers, repeats):
            if copy:
                values[hi:hi + 4] = values[lo:hi]
        gan = unflatten_joint(key, values, config)

        groups = neighbor_groups(key, values, config)
        assert [k for k, _ in groups] == sorted(k for k, _ in groups)
        assert sum(len(rows) for _, rows in groups) == \
            len(neighbors(gan, config))
        for group_key, rows in groups:
            assert rows.dtype == np.int64
            assert len({tuple(row) for row in rows.tolist()}) == len(rows)
            if group_key != key:
                step = np.diff(rows, axis=0)
                first = np.argmax(step != 0, axis=1)
                assert np.all(step[np.arange(len(step)), first] > 0), \
                    f"group {group_key} is not strictly increasing"

    @pytest.mark.parametrize("config", [DEFAULT, PER_NET, TINY, POINT,
                                        ONE_ACTIVATION],
                             ids=["joint", "per_network", "tiny", "point",
                                  "one_activation"])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 12))
    def test_row_mutate_matches_oracle(self, config, seed, steps):
        # A chain of moves from one draw: the rows must give the oracle's
        # genotype and leave the generator exactly where the oracle does.
        gan = random_gan(np.random.default_rng(seed), config)
        key, row = flatten_joint(gan, config)
        rng_row = np.random.default_rng(seed + 1)
        rng_obj = np.random.default_rng(seed + 1)
        for _ in range(steps):
            key, row = mutate(key, row, config, rng_row)
            gan, _ = mutate_oracle(gan, config, rng_obj)
            assert (key, row) == flatten_joint(gan, config)
            assert type(key) is DepthKey and type(row) is tuple
            assert rng_row.bit_generator.state == rng_obj.bit_generator.state

    @pytest.mark.parametrize("config", [DEFAULT, PER_NET, TINY, POINT,
                                        ONE_ACTIVATION],
                             ids=["joint", "per_network", "tiny", "point",
                                  "one_activation"])
    def test_row_mutate_reaches_every_kind(self, config):
        # POINT fixes both depths, so it has no add or delete to reach.
        want = ({ChangeLayer, ChangeTrainFreq} if config is POINT
                else {AddLayer, DeleteLayer, ChangeLayer, ChangeTrainFreq})
        kinds = set()
        rng_row, rng_obj = np.random.default_rng(40), np.random.default_rng(40)
        gan = random_gan(np.random.default_rng(41), config)
        key, row = flatten_joint(gan, config)
        for _ in range(300):
            key, row = mutate(key, row, config, rng_row)
            gan, op = mutate_oracle(gan, config, rng_obj)
            assert (key, row) == flatten_joint(gan, config)
            kinds.add(type(op))
        assert rng_row.bit_generator.state == rng_obj.bit_generator.state
        assert kinds == want

    @pytest.mark.parametrize("config", [DEFAULT, PER_NET, TINY, POINT,
                                        ONE_ACTIVATION],
                             ids=["joint", "per_network", "tiny", "point",
                                  "one_activation"])
    def test_move_tables_are_shared_immutable_tuples(self, config):
        # mutate reads these tables for every child the EA breeds: they
        # must not be changed in place, and the add move's blocks are one
        # tuple per role, whatever the key.
        for key in config.depth_keys():
            table = _mutation_moves(config, key)
            assert _mutation_moves(config, tuple(key)) is table
            assert type(table) is tuple
            kinds = [kind for kind, _ in table]
            assert kinds[:2] == ["change", "train_freq"]
            assert kinds[2:] in ([], ["add"], ["delete"], ["add", "delete"])
            for kind, moves in table:
                assert type(moves) is tuple and moves
                for move in moves:
                    assert isinstance(move, tuple)
                    assert type(move.role) is str
                    assert all(isinstance(f, (int, tuple))
                               for f in move._replace(role=()))
                    assert type(move.radix) is tuple
                    assert type(move.key) is DepthKey
                    # The generator's layers start after the train bin.
                    assert move.role == ROLES[move.start != 1]
                    if kind == "add":
                        assert move.blocks is _layers(config,
                                                      move.role).rows
                        assert all(type(b) is tuple for b in move.blocks)
                    else:
                        assert move.blocks == ()

    @pytest.mark.parametrize("config", [DEFAULT, PER_NET, TINY],
                             ids=["joint", "per_network", "tiny"])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_row_crossover_matches_oracle(self, config, seed):
        rng = np.random.default_rng(seed)
        a, b = random_gan(rng, config), random_gan(rng, config)
        got = _crossover(flatten_joint(a, config), flatten_joint(b, config))
        want = crossover_oracle(a, b)
        assert list(got) == [flatten_joint(g, config) for g in want]

    def test_random_genotype_at_minimal_key(self):
        key, row = random_genotype(np.random.default_rng(10), DEFAULT,
                                   DepthKey(1, 1))
        assert key == (1, 1) and len(row) == len(joint_schema(DEFAULT, key))


class TestRandomHc:
    def test_budget_and_step_numbering(self):
        land = tiny_landscape()
        rng = np.random.default_rng(0)
        start = random_genotype(rng, TINY)
        trace = random_hc(land, start, budget=25, rng=rng)
        assert len(trace.steps) == 25
        assert [s.step for s in trace.steps] == list(range(1, 26))
        assert trace.evaluations == 25
        assert trace.start_fitness == land.evaluate(start)

    def test_steps_record_the_rows_they_evaluated(self):
        land = tiny_landscape(seed=3)
        rng = np.random.default_rng(9)
        start = random_genotype(rng, TINY)
        trace = random_hc(land, start, budget=30, rng=rng)
        assert trace.start == start
        for s in trace.steps:
            key, row = s.genotype
            assert type(row) is tuple and all(type(v) is int for v in row)
            assert land.evaluate_values(key, np.array([row]))[0] == s.fitness

    def test_best_is_monotone(self):
        land = tiny_landscape(seed=2)
        rng = np.random.default_rng(1)
        trace = random_hc(land, random_genotype(rng, TINY), budget=60,
                          rng=rng)
        series = [trace.start_fitness] + [s.best for s in trace.steps]
        assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))
        for s in trace.steps:
            assert s.best <= s.fitness + 1e-12

    def test_start_at_optimum_accepts_nothing(self):
        land = tiny_landscape(seed=4)
        start = flatten_joint(planted_gan(land, land.target_key), TINY)
        rng = np.random.default_rng(2)
        trace = random_hc(land, start, budget=40, rng=rng)
        assert not any(s.accepted for s in trace.steps)
        assert trace.final_best == trace.start_fitness

    def test_deterministic_given_seed(self):
        land = tiny_landscape(seed=5)
        start = random_genotype(np.random.default_rng(11), TINY)
        t1 = random_hc(land, start, 30, np.random.default_rng(42))
        t2 = random_hc(land, start, 30, np.random.default_rng(42))
        assert t1.steps == t2.steps

    def test_first_step_draws_from_start_neighborhood(self):
        land = tiny_landscape(seed=6)
        start = random_gan(np.random.default_rng(12), TINY)
        allowed = {flatten_joint(h, TINY) for h in neighbors(start, TINY)}
        seen = set()
        for seed in range(30):
            trace = random_hc(land, flatten_joint(start, TINY), 1,
                              np.random.default_rng(seed))
            seen.add(trace.steps[0].genotype)
        assert seen <= allowed
        assert len(seen) > 5

    def test_no_neighbours_pads_trace(self):
        land = make_landscape(0, LandscapeConfig(genotype=POINT))
        start = random_genotype(np.random.default_rng(0), POINT)
        assert neighbor_groups(*start, POINT) == []
        rng = np.random.default_rng(1)
        trace = random_hc(land, start, 4, rng)
        assert_all_padding(trace, land, start, 4)
        # Nothing was drawn for the missing neighbours.
        assert rng.random() == np.random.default_rng(1).random()

    def test_rejects_zero_budget(self):
        land = tiny_landscape()
        with pytest.raises(ValidationError):
            random_hc(land, random_genotype(np.random.default_rng(0), TINY),
                      0, np.random.default_rng(0))


def uniform_metamodel(config=TINY):
    return Metamodel.uniform(LearnConfig(genotype=config))


class TestGuidedHc:
    def test_mass_on_one_neighbor_evaluated_first(self):
        land = tiny_landscape(seed=7)
        rng = np.random.default_rng(13)
        start = random_gan(rng, TINY, depth_key=DepthKey(1, 2))
        target = neighbors(start, TINY)[7]
        model = learn([individual(target, 1.0, "r", "p", TINY)],
                      LearnConfig(genotype=TINY, alpha=0.01))
        trace = guided_hc(land, model, flatten_joint(start, TINY), 3,
                          np.random.default_rng(3))
        assert trace.steps[0].genotype == flatten_joint(target, TINY)

    def test_accept_on_last_step_ranks_nothing_more(self, monkeypatch):
        # The best neighbor carries all the model's mass, so the one-step
        # climb evaluates and accepts it; its neighborhood, which no step
        # would visit, is never built.  A climb that re-ranked after that
        # acceptance would make two calls.
        land = tiny_landscape(seed=7)
        start = random_gan(np.random.default_rng(13), TINY,
                           depth_key=DepthKey(1, 2))
        target = min(neighbors(start, TINY),
                     key=lambda gan: land.evaluate(flatten_joint(gan, TINY)))
        model = learn([individual(target, 1.0, "r", "p", TINY)],
                      LearnConfig(genotype=TINY, alpha=0.01))
        calls = []
        build = search.neighbor_groups
        monkeypatch.setattr(search, "neighbor_groups",
                            lambda *args: calls.append(args) or build(*args))
        trace = guided_hc(land, model, flatten_joint(start, TINY), 1,
                          np.random.default_rng(3))
        assert trace.steps[-1].accepted
        assert trace.steps[-1].genotype == flatten_joint(target, TINY)
        assert len(calls) == 1

    @pytest.mark.parametrize("arity", [1, 3])
    def test_model_of_another_space_rejected(self, arity):
        land = tiny_landscape()
        start = random_genotype(np.random.default_rng(0), TINY,
                                DepthKey(1, 1))
        foreign = Metamodel.uniform(LearnConfig(genotype=replace(
            TINY, arity=arity)))
        with pytest.raises(ValidationError, match="^metamodel genotype does "
                                                  "not match landscape$"):
            guided_hc(land, foreign, start, 5, np.random.default_rng(1))

    def test_exhaustion_pads_trace(self):
        land = tiny_landscape(seed=8)
        start = planted_gan(land, land.target_key)
        n_neighbors = len(neighbors(start, TINY))
        budget = n_neighbors + 10
        trace = guided_hc(land, uniform_metamodel(),
                          flatten_joint(start, TINY), budget,
                          np.random.default_rng(4))
        assert len(trace.steps) == budget
        assert trace.evaluations == n_neighbors
        padding = trace.steps[n_neighbors:]
        assert all(s.exhausted and not s.accepted for s in padding)
        assert all(math.isnan(s.fitness) for s in padding)
        assert all(s.best == trace.start_fitness for s in padding)
        assert all(s.genotype is None for s in padding)
        real = trace.steps[:n_neighbors]
        assert not any(s.exhausted for s in real)
        # every neighbor evaluated exactly once
        assert ({s.genotype for s in real}
                == {flatten_joint(h, TINY) for h in neighbors(start, TINY)})

    def test_no_neighbours_pads_trace(self):
        land = make_landscape(0, LandscapeConfig(genotype=POINT))
        start = random_genotype(np.random.default_rng(0), POINT)
        trace = guided_hc(land, uniform_metamodel(POINT), start, 4,
                          np.random.default_rng(1))
        assert_all_padding(trace, land, start, 4)

    def test_accept_resets_neighborhood(self):
        land = tiny_landscape(seed=9)
        rng = np.random.default_rng(14)
        start = random_genotype(rng, TINY)
        trace = guided_hc(land, uniform_metamodel(), start, 50,
                          np.random.default_rng(5))
        # after each acceptance the next candidates come from the new
        # incumbent's neighborhood, so re-visits of old rejects are allowed
        accepted = [s for s in trace.steps if s.accepted]
        assert accepted, "descent should find at least one improvement"
        series = [trace.start_fitness] + [s.best for s in trace.steps]
        assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))

    def test_deterministic_given_seed(self):
        land = tiny_landscape(seed=10)
        start = random_genotype(np.random.default_rng(15), TINY)
        model = uniform_metamodel()
        t1 = guided_hc(land, model, start, 30, np.random.default_rng(6))
        t2 = guided_hc(land, model, start, 30, np.random.default_rng(6))
        assert t1.steps == t2.steps

    def test_learned_model_beats_uniform_here(self):
        # one landscape family, several problems: training elites from two
        # problems transfer to a third because the master pattern is shared
        train_inds = []
        for seed in (20, 21):
            land_i = tiny_landscape(seed=seed)
            best = min((flatten_joint(gan, TINY)
                        for gan in enumerate_space(TINY)),
                       key=land_i.evaluate)
            train_inds.append(Individual(*best, land_i.evaluate(best),
                                         f"r{seed}", str(seed), TINY))
        model = learn(train_inds, LearnConfig(genotype=TINY, alpha=0.5))
        land = tiny_landscape(seed=22)
        finals_guided, finals_uniform = [], []
        for rep in range(6):
            start = random_genotype(np.random.default_rng(100 + rep), TINY)
            g = guided_hc(land, model, start, 20,
                          np.random.default_rng(200 + rep))
            u = guided_hc(land, uniform_metamodel(), start, 20,
                          np.random.default_rng(200 + rep))
            finals_guided.append(g.final_best)
            finals_uniform.append(u.final_best)
        assert np.median(finals_guided) <= np.median(finals_uniform) + 1e-9


class TestGuards:
    """One-line messages of the search module's argument checks."""

    def test_empty_population_rejected(self):
        with pytest.raises(ValidationError,
                           match="^population cannot be empty$"):
            Population([])

    def test_mutation_rate_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError, match=r"^mutation_rate must lie "
                                                  r"in \[0, 1\]$"):
            EaConfig(mutation_rate=1.5)

    @pytest.mark.parametrize("field,value", [("tournament_size", 0),
                                             ("elitism", -1)])
    def test_bad_tournament_size_or_elitism_rejected(self, field, value):
        with pytest.raises(ValidationError,
                           match="^bad tournament_size or elitism$"):
            EaConfig(**{field: value})

    def test_empty_start_population_rejected(self):
        with pytest.raises(ValidationError, match="^size must be >= 1$"):
            init_population("random", 0, tiny_landscape(),
                            np.random.default_rng(0))

    @pytest.mark.parametrize("step", [0, -3])
    def test_best_before_the_first_step_is_the_start(self, step):
        land = tiny_landscape(seed=4)
        start = random_genotype(np.random.default_rng(2), TINY)
        trace = random_hc(land, start, 20, np.random.default_rng(3))
        assert trace.final_best < trace.start_fitness
        assert trace.best_at(step) == trace.start_fitness


class TestPopulationAndEa:
    def test_init_random(self):
        land = tiny_landscape(seed=11)
        pop = init_population("random", 8, land, np.random.default_rng(7))
        assert pop.size == 8
        for key, row, fitness in pop.members:
            validate_tree(unflatten_joint(key, row, TINY), TINY)
            assert fitness == land.evaluate((key, row))

    def test_init_from_first(self):
        land = tiny_landscape(seed=12)
        rng = np.random.default_rng(16)
        elite = [random_genotype(rng, TINY) for _ in range(5)]
        pop = init_population("from_first", 10, land,
                              np.random.default_rng(8), elite=elite)
        assert all((k, r) in elite for k, r, _ in pop.members)
        with pytest.raises(ValidationError):
            init_population("from_first", 4, land, np.random.default_rng(9),
                            elite=[])

    def test_init_from_metamodel(self):
        land = tiny_landscape(seed=13)
        anchor = random_gan(np.random.default_rng(17), TINY)
        model = learn([individual(anchor, 0.5, "r", "p", TINY)],
                      LearnConfig(genotype=TINY, alpha=0.01))
        pop = init_population("from_metamodel", 30, land,
                              np.random.default_rng(10), metamodel=model)
        hits = sum(gan_hash(k, r, TINY) == tree_hash(anchor)
                   for k, r, _ in pop.members)
        assert hits >= 10
        with pytest.raises(ValidationError):
            init_population("from_metamodel", 4, land,
                            np.random.default_rng(11))

    def test_init_from_metamodel_of_another_space_rejected(self):
        land = tiny_landscape(seed=13)
        foreign = Metamodel.uniform(LearnConfig(genotype=replace(TINY,
                                                                 arity=3)))
        with pytest.raises(ValidationError, match="^metamodel genotype does "
                                                  "not match landscape$"):
            init_population("from_metamodel", 4, land,
                            np.random.default_rng(11), metamodel=foreign)

    def test_init_unknown_strategy(self):
        land = tiny_landscape()
        with pytest.raises(ValidationError):
            init_population("greedy", 4, land, np.random.default_rng(12))

    def test_ea_neutral_settings_keep_best(self):
        land = tiny_landscape(seed=14)
        pop = init_population("random", 10, land, np.random.default_rng(13))
        before = pop.best_fitness
        result = simple_ea(land, pop, generations=1,
                           rng=np.random.default_rng(14),
                           config=EaConfig(crossover_rate=0.0,
                                           mutation_rate=0.0))
        assert result.best_per_generation == [before, before]

    def test_ea_crossover_swaps_networks(self):
        land = tiny_landscape(seed=15)
        rng = np.random.default_rng(18)
        gans = [random_gan(rng, TINY) for _ in range(6)]
        pop = Population([(*flatten_joint(g, TINY),
                           land.evaluate(flatten_joint(g, TINY)))
                          for g in gans])
        gen_pool = {(gan_hash_half(g.generator), g.train_freq_bin)
                    for g in gans}
        disc_pool = {gan_hash_half(g.discriminator) for g in gans}
        result = simple_ea(land, pop, generations=1,
                           rng=np.random.default_rng(15),
                           config=EaConfig(crossover_rate=1.0,
                                           mutation_rate=0.0))
        offspring = result.population.members[1:]
        for key, row, _ in offspring:
            gan = unflatten_joint(key, row, TINY)
            assert (gan_hash_half(gan.generator),
                    gan.train_freq_bin) in gen_pool
            assert gan_hash_half(gan.discriminator) in disc_pool

    @pytest.mark.parametrize("elitism", range(4))
    @pytest.mark.parametrize("fitness", [
        # A tie across the boundary at elitism 2, inside it at 3.
        [2.0, 1.0, 1.0, 3.0, 2.0, 2.0, 0.5],
        # A run of four ties that every boundary past the first cuts.
        [1.0, 1.0, 0.0, 1.0, 5.0, 1.0],
        # Ties that end exactly at elitism 2, then a tie across 3.
        [1.0, 0.0, 2.0, 0.0, 1.0],
        # Signed zeros tie; so do copies of one genotype.
        [0.0, -0.0, 1.0, -0.0, 1.0],
    ], ids=["across", "long_run", "at_boundary", "signed_zeros"])
    def test_elite_equals_ranked_prefix(self, fitness, elitism):
        rng = np.random.default_rng(len(fitness))
        genotypes = [random_genotype(rng, TINY) for _ in fitness]
        genotypes[-1] = genotypes[0]
        members = [(*g, f) for g, f in zip(genotypes, fitness)]
        got = carried_elite(members, elitism)
        want = sorted(members, key=itemgetter(2, 0, 1))[:elitism]
        assert len(got) == len(want) and all(
            a is b for a, b in zip(got, want))

    @settings(max_examples=200, deadline=None)
    @given(fitness=st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.0]),
                            min_size=1, max_size=12),
           elitism=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_elite_equals_ranked_prefix_on_random_ties(self, fitness,
                                                       elitism, seed):
        # TINY's space is small enough that copies of a genotype occur.
        assume(elitism < len(fitness))
        rng = np.random.default_rng(seed)
        members = [(*random_genotype(rng, TINY), f) for f in fitness]
        got = carried_elite(members, elitism)
        want = sorted(members, key=itemgetter(2, 0, 1))[:elitism]
        assert len(got) == len(want) and all(
            a is b for a, b in zip(got, want))

    @pytest.mark.parametrize("fitness", [
        (1.0, 1.0), (0.0, -0.0), (1.0, 2.0), (2.0, 1.0), "copies"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_two_entrant_tournament_equals_generic_path(self, n, fitness):
        # With k = 2 entrants the tournament compares the two directly;
        # the generic path takes the least (fitness, key, row).
        rng = np.random.default_rng(n)
        genotypes = [random_genotype(rng, TINY) for _ in range(2)]
        if fitness == "copies":
            genotypes[1], fitness = genotypes[0], (1.0, 1.0)
        members = [(*g, f) for g, f in zip(genotypes, fitness)][:n]
        population = Population(members)
        got_rng, want_rng = (np.random.default_rng(7),
                             np.random.default_rng(7))
        winners = set()
        for _ in range(40):
            got = _tournament(population, got_rng, 2)
            picks = want_rng.choice(n, size=min(2, n), replace=False)
            key, row, _ = min((members[int(i)] for i in picks),
                              key=itemgetter(2, 0, 1))
            assert got == (key, row)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            winners.add(got)
        assert len(winners) == 1

    def test_ea_accounting(self):
        land = tiny_landscape(seed=16)
        pop = init_population("random", 12, land, np.random.default_rng(19))
        result = simple_ea(land, pop, generations=5,
                           rng=np.random.default_rng(20))
        assert result.evaluations == 5 * (12 - 1)
        assert len(result.best_per_generation) == 6
        assert result.population.size == 12
        bests = result.best_per_generation
        assert all(b <= a + 1e-12 for a, b in zip(bests, bests[1:]))

    def test_ea_deterministic(self):
        land = tiny_landscape(seed=17)
        pop = init_population("random", 8, land, np.random.default_rng(21))
        r1 = simple_ea(land, pop, 3, np.random.default_rng(22))
        r2 = simple_ea(land, pop, 3, np.random.default_rng(22))
        assert r1.best_per_generation == r2.best_per_generation
        h1 = sorted(gan_hash(k, r, TINY)
                    for k, r, _ in r1.population.members)
        h2 = sorted(gan_hash(k, r, TINY)
                    for k, r, _ in r2.population.members)
        assert h1 == h2

    def test_ea_rejects_bad_settings(self):
        land = tiny_landscape()
        pop = init_population("random", 4, land, np.random.default_rng(23))
        with pytest.raises(ValidationError):
            simple_ea(land, pop, 0, np.random.default_rng(24))
        with pytest.raises(ValidationError):
            simple_ea(land, pop, 1, np.random.default_rng(25),
                      config=EaConfig(elitism=4))
        with pytest.raises(ValidationError):
            EaConfig(crossover_rate=1.5)

    @pytest.mark.parametrize("seed,config", [
        (30, EaConfig()),
        (31, EaConfig(crossover_rate=1.0, mutation_rate=0.3, elitism=2)),
        (32, EaConfig(tournament_size=3, mutation_rate=0.5, elitism=0)),
        # One entrant: each tournament is one uniform pick.
        (35, EaConfig(tournament_size=1, elitism=0)),
        (36, EaConfig(tournament_size=1, elitism=2)),
        # More entrants than members: all 7 enter, in drawn order.
        (37, EaConfig(tournament_size=25, elitism=0)),
        (38, EaConfig(tournament_size=25, elitism=2)),
    ])
    @pytest.mark.parametrize("coarse", [False, True])
    def test_ea_matches_per_child_reference(self, seed, config, coarse):
        # Tournaments and elite sorts meet fitness ties between copies of a
        # genotype; rounded fitness makes distinct genotypes tie as well.
        land = tiny_landscape(seed=seed, sigma=0.05)
        if coarse:
            land = CoarseLandscape(land)
        pop = init_population("random", 7, land, np.random.default_rng(seed))
        got, want = [], []

        def record(key, row, fitness):
            assert type(key) is DepthKey and type(row) is tuple
            got.append((unflatten_joint(key, row, TINY), fitness))

        result = simple_ea(land, pop, 6, np.random.default_rng(seed + 1),
                           config=config, on_evaluate=record)
        start = [(unflatten_joint(k, r, TINY), f) for k, r, f in pop.members]
        trace, members = reference_ea(land, start, 6,
                                      np.random.default_rng(seed + 1),
                                      config, want.append)
        assert got == want
        assert all(type(f) is float for _, f in got)
        assert result.best_per_generation == trace
        assert [(unflatten_joint(k, r, TINY), f)
                for k, r, f in result.population.members] == members
        assert result.evaluations == len(want)

    @pytest.mark.parametrize("seed,config", [
        (33, EaConfig(mutation_rate=1.0)),
        (34, EaConfig(crossover_rate=1.0, mutation_rate=1.0, elitism=2)),
    ])
    def test_ea_evaluates_one_batch_per_key_per_generation(self, seed, config,
                                                           monkeypatch):
        # One evaluate_many call per generation, whatever depth keys its
        # children hold.  Every child is mutated once, so mutate's results
        # are the children in the order they were bred.
        land = make_landscape(seed, LandscapeConfig(genotype=DEFAULT,
                                                    family_seed=7))
        pop = init_population("random", 12, land, np.random.default_rng(seed))
        counting = CountingLandscape(land)
        bred, seen, calls_before = [], [], []

        def breed(*args):
            child = mutate(*args)
            bred.append(child)
            return child

        def record(key, row, fitness):
            seen.append((key, row, fitness))
            calls_before.append(len(counting.calls))

        monkeypatch.setattr(search, "mutate", breed)
        generations = 5
        simple_ea(counting, pop, generations, np.random.default_rng(seed + 1),
                  config=config, on_evaluate=record)
        assert [(k, r) for k, r, _ in seen] == bred
        need = pop.size - config.elitism
        assert len(seen) == generations * need
        # Every child of a generation is evaluated before the first is
        # reported, in one call that holds them all in breeding order.
        assert calls_before == [gen + 1 for gen in range(generations)
                                for _ in range(need)]
        assert counting.calls == [
            ("evaluate_many", [(k, r) for k, r, _ in
                               seen[gen * need:(gen + 1) * need]])
            for gen in range(generations)]
        assert len({k for k, _, _ in seen}) > 1
        for key, row, fitness in seen:
            assert fitness == float(land.evaluate_values(
                key, np.array([row]))[0])


def carried_elite(members, elitism):
    """The members ``simple_ea`` carries over unevaluated after one
    generation from ``members``, at ``elitism``."""
    result = simple_ea(tiny_landscape(), Population(list(members)), 1,
                       np.random.default_rng(0),
                       config=EaConfig(elitism=elitism))
    return result.population.members[:elitism]


class CountingLandscape:
    """A landscape that logs each evaluation call as (name, genotypes)."""

    def __init__(self, land):
        self.land = land
        self.config = land.config
        self.calls = []

    def evaluate(self, genotype):
        self.calls.append(("evaluate", [genotype]))
        return self.land.evaluate(genotype)

    def evaluate_many(self, genotypes):
        self.calls.append(("evaluate_many", list(genotypes)))
        return self.land.evaluate_many(genotypes)


class CoarseLandscape:
    """A landscape whose fitness is rounded to a whole number."""

    def __init__(self, land):
        self.land = land
        self.config = land.config

    def evaluate(self, genotype):
        return float(round(self.land.evaluate(genotype)))

    def evaluate_many(self, genotypes):
        return [float(round(f)) for f in self.land.evaluate_many(genotypes)]


def reference_ea(land, members, generations, rng, config, record):
    """simple_ea on ``(gan, fitness)`` members, with the object operators
    and one ``evaluate`` per bred child, an exact fitness tie going to the
    smaller flattened ``(key, row)``.

    Returns the best fitness per generation and the final members; calls
    ``record`` with each (gan, fitness) as it is evaluated.
    """
    def rank(member):
        return (member[1], *flatten_joint(member[0], TINY))

    members = list(members)
    trace = [min(f for _, f in members)]
    for _ in range(generations):
        offspring = []
        need = len(members) - config.elitism
        while len(offspring) < need:
            parents = []
            for _ in range(2):
                picks = rng.choice(len(members),
                                   size=min(config.tournament_size,
                                            len(members)),
                                   replace=False)
                parents.append(min((members[int(i)] for i in picks),
                                   key=rank)[0])
            a, b = parents
            if rng.random() < config.crossover_rate:
                a, b = crossover_oracle(a, b)
            for child in (a, b):
                if len(offspring) >= need:
                    break
                if rng.random() < config.mutation_rate:
                    child, _ = mutate_oracle(child, TINY, rng)
                fitness = land.evaluate(flatten_joint(child, TINY))
                record((child, fitness))
                offspring.append((child, fitness))
        members = sorted(members, key=rank)[:config.elitism] + offspring
        trace.append(min(f for _, f in members))
    return trace, members


def gan_hash_half(net):
    return (net.role, net.layers)


TRACE_COLUMNS = ["seed", "step", "fitness", "best", "accepted"]


def save_traces(traces, path):
    """``(seed, trace)`` pairs in one file, written as ``archsmith search``
    writes its trace."""
    write_csv(path, TRACE_COLUMNS, (row for seed, trace in traces
                                    for row in _trace_rows(seed, trace)))


def read_traces(path):
    """Rows of a ``save_traces`` file grouped by seed, typed back into
    numbers."""
    out = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        assert reader.fieldnames == TRACE_COLUMNS
        for row in reader:
            out.setdefault(int(row["seed"]), []).append({
                "step": int(row["step"]),
                "fitness": float(row["fitness"]),
                "best": float(row["best"]),
                "accepted": bool(int(row["accepted"])),
            })
    return out


class TestTraceIo:
    def test_round_trip(self, tmp_path):
        land = tiny_landscape(seed=18)
        traces = []
        for seed in range(3):
            rng = np.random.default_rng(seed)
            start = random_genotype(rng, TINY)
            traces.append((seed, random_hc(land, start, 15, rng)))
        path = tmp_path / "traces.csv"
        save_traces(traces, path)
        loaded = read_traces(path)
        assert sorted(loaded) == [0, 1, 2]
        for seed, trace in traces:
            rows = loaded[seed]
            assert len(rows) == 16
            assert rows[0]["step"] == 0
            assert rows[0]["fitness"] == trace.start_fitness
            for row, step in zip(rows[1:], trace.steps):
                assert row["fitness"] == step.fitness
                assert row["best"] == step.best
                assert row["accepted"] == step.accepted

    def test_rewrite_is_byte_identical(self, tmp_path):
        land = tiny_landscape(seed=19)
        rng = np.random.default_rng(26)
        start = random_genotype(rng, TINY)
        traces = [(0, random_hc(land, start, 10, rng))]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_traces(traces, a)
        save_traces(traces, b)
        assert a.read_bytes() == b.read_bytes()

    def test_nan_padding_survives(self, tmp_path):
        land = tiny_landscape(seed=20)
        start = planted_gan(land, land.target_key)
        budget = len(neighbors(start, TINY)) + 5
        trace = guided_hc(land, uniform_metamodel(),
                          flatten_joint(start, TINY), budget,
                          np.random.default_rng(27))
        path = tmp_path / "t.csv"
        save_traces([(0, trace)], path)
        rows = read_traces(path)[0]
        assert math.isnan(rows[-1]["fitness"])
        assert rows[-1]["best"] == trace.start_fitness

    def test_bad_columns_rejected(self, tmp_path):
        # ``analyze`` reads trace files through ``cli._final_values``.
        path = tmp_path / "bad.csv"
        path.write_text("seed,step,value\n0,0,1.0\n")
        with pytest.raises(ValidationError):
            _final_values(path, None, "best", None)
