"""Tests for mutation operators, hill climbing, and the EA loop."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archsmith.archive import Individual
from archsmith.errors import ValidationError
from archsmith.genotype import (
    AttributeVector,
    DepthKey,
    GanSpec,
    GenotypeConfig,
    ROLE_GENERATOR,
    flatten_joint,
    gan_hash,
    joint_schema,
    random_gan,
    unflatten_joint,
    validate_gan,
)
from archsmith.landscape import LandscapeConfig, make_landscape
from archsmith.metamodel import LearnConfig, Metamodel, learn
from archsmith.search import (
    AddLayer,
    ChangeLayer,
    ChangeTrainFreq,
    DeleteLayer,
    EaConfig,
    Population,
    apply_op,
    guided_hc,
    init_population,
    legal_ops,
    load_traces,
    mutate,
    neighbor_groups,
    neighbors,
    random_hc,
    random_minimal_gan,
    save_traces,
    simple_ea,
)

DEFAULT = GenotypeConfig.joint()
TINY = GenotypeConfig.joint(
    arity=2,
    activations=("relu", "tanh"),
    weight_inits=("xavier", "normal"),
    generator_depth_max=1,
    discriminator_depth_max=2,
)


def tiny_landscape(seed=0, family_seed=3, sigma=0.0, **overrides):
    config = LandscapeConfig(genotype=TINY, family_seed=family_seed,
                             sigma_noise=sigma, **overrides)
    return make_landscape(seed, config)


def enumerate_space(config):
    """Every genotype the bounds allow, as GanSpec objects."""
    out = []
    for key in config.depth_keys():
        schema = joint_schema(config, key)
        for values in itertools.product(
                *[range(c) for c in schema.cardinalities]):
            av = AttributeVector(depth_key=key, values=values, schema=schema)
            out.append(unflatten_joint(av, config))
    return out


def one_insertion_away(short, long):
    """True when deleting one element of ``long`` can yield ``short``."""
    if len(long) != len(short) + 1:
        return False
    return any(long[:i] + long[i + 1:] == short for i in range(len(long)))


def is_one_op_apart(g, h, config):
    """Edit relation defined directly on genotype structure."""
    if gan_hash(g) == gan_hash(h):
        return False
    a, b = flatten_joint(g, config), flatten_joint(h, config)
    if a.depth_key == b.depth_key:
        diff = [slot for slot, x, y in zip(a.schema.slots, a.values, b.values)
                if x != y]
        # layer kind is fixed at creation; only add/delete can change it
        return len(diff) == 1 and diff[0].attr != "kind"
    gk, hk = DepthKey(*a.depth_key), DepthKey(*b.depth_key)
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
        by_hash = {gan_hash(g): g for g in space}
        assert len(by_hash) == 512 + 8192
        rng = np.random.default_rng(5)
        picks = rng.choice(len(space), size=4, replace=False)
        for i in picks:
            g = space[int(i)]
            expected = {gan_hash(h) for h in space
                        if is_one_op_apart(g, h, TINY)}
            got = {gan_hash(h) for h in neighbors(g, TINY)}
            assert got == expected

    def test_change_moves_are_symmetric(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g = random_gan(rng, DEFAULT)
            ops = [op for op in legal_ops(g, DEFAULT)
                   if isinstance(op, (ChangeLayer, ChangeTrainFreq))]
            op = ops[int(rng.integers(len(ops)))]
            h = apply_op(g, op, DEFAULT)
            back = {gan_hash(apply_op(h, rev, DEFAULT))
                    for rev in legal_ops(h, DEFAULT)
                    if isinstance(rev, (ChangeLayer, ChangeTrainFreq))}
            assert gan_hash(g) in back

    def test_random_mutations_stay_valid(self):
        rng = np.random.default_rng(7)
        gan = random_gan(rng, DEFAULT)
        for _ in range(10_000):
            gan = mutate(gan, DEFAULT, rng)
            validate_gan(gan, DEFAULT)

    def test_all_ops_valid_everywhere(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            gan = random_gan(rng, TINY)
            for op in legal_ops(gan, TINY):
                validate_gan(apply_op(gan, op, TINY), TINY)

    def test_vector_groups_match_op_level(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            gan = random_gan(rng, TINY)
            av = flatten_joint(gan, TINY)
            groups = neighbor_groups(DepthKey(*av.depth_key),
                                     np.array(av.values), TINY)
            got = set()
            for key, rows in groups:
                schema = joint_schema(TINY, key)
                for row in rows:
                    vec = AttributeVector(depth_key=key,
                                          values=tuple(int(v) for v in row),
                                          schema=schema)
                    got.add(gan_hash(unflatten_joint(vec, TINY)))
            expected = {gan_hash(h) for h in neighbors(gan, TINY)}
            assert got == expected

    @pytest.mark.parametrize("config", [TINY, GenotypeConfig.per_network()],
                             ids=["tiny", "per_network"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           repeats=st.lists(st.booleans(), min_size=12, max_size=12))
    def test_vector_groups_are_distinct_and_sorted(self, config, seed,
                                                   repeats):
        rng = np.random.default_rng(seed)
        av = flatten_joint(random_gan(rng, config), config)
        key = DepthKey(*av.depth_key)
        values = np.array(av.values)
        # Copy layer p onto layer p + 1 where asked: inserting next to
        # equal adjacent layers is where the rows need deduplication.
        layers = [(1 + 4 * p, 5 + 4 * p) for p in range(key.d_g - 1)]
        layers += [(1 + 4 * (key.d_g + p), 5 + 4 * (key.d_g + p))
                   for p in range(key.d_d - 1)]
        for (lo, hi), copy in zip(layers, repeats):
            if copy:
                values[hi:hi + 4] = values[lo:hi]
        gan = unflatten_joint(AttributeVector(
            depth_key=key, values=tuple(int(v) for v in values),
            schema=joint_schema(config, key)), config)

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

    def test_random_minimal_gan(self):
        rng = np.random.default_rng(10)
        gan = random_minimal_gan(rng, DEFAULT)
        assert gan.depth_key == (1, 1)
        validate_gan(gan, DEFAULT)


class TestRandomHc:
    def test_budget_and_step_numbering(self):
        land = tiny_landscape()
        rng = np.random.default_rng(0)
        start = random_gan(rng, TINY)
        trace = random_hc(land, start, budget=25, rng=rng)
        assert len(trace.steps) == 25
        assert [s.step for s in trace.steps] == list(range(1, 26))
        assert trace.evaluations == 25
        assert trace.start_fitness == land.evaluate(start)

    def test_best_is_monotone(self):
        land = tiny_landscape(seed=2)
        rng = np.random.default_rng(1)
        trace = random_hc(land, random_gan(rng, TINY), budget=60, rng=rng)
        series = [trace.start_fitness] + [s.best for s in trace.steps]
        assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))
        for s in trace.steps:
            assert s.best <= s.fitness + 1e-12

    def test_start_at_optimum_accepts_nothing(self):
        land = tiny_landscape(seed=4)
        start = land.planted_gan(land.target_key)
        rng = np.random.default_rng(2)
        trace = random_hc(land, start, budget=40, rng=rng)
        assert not any(s.accepted for s in trace.steps)
        assert trace.final_best == trace.start_fitness

    def test_deterministic_given_seed(self):
        land = tiny_landscape(seed=5)
        start = random_gan(np.random.default_rng(11), TINY)
        t1 = random_hc(land, start, 30, np.random.default_rng(42))
        t2 = random_hc(land, start, 30, np.random.default_rng(42))
        assert t1.steps == t2.steps

    def test_first_step_draws_from_start_neighborhood(self):
        land = tiny_landscape(seed=6)
        start = random_gan(np.random.default_rng(12), TINY)
        allowed = {gan_hash(h) for h in neighbors(start, TINY)}
        seen = set()
        for seed in range(30):
            trace = random_hc(land, start, 1, np.random.default_rng(seed))
            seen.add(trace.steps[0].gan_hash)
        assert seen <= allowed
        assert len(seen) > 5

    def test_rejects_zero_budget(self):
        land = tiny_landscape()
        with pytest.raises(ValidationError):
            random_hc(land, random_gan(np.random.default_rng(0), TINY), 0,
                      np.random.default_rng(0))


def uniform_metamodel(config=TINY):
    return Metamodel.uniform(LearnConfig(genotype=config))


class TestGuidedHc:
    def test_mass_on_one_neighbor_evaluated_first(self):
        land = tiny_landscape(seed=7)
        rng = np.random.default_rng(13)
        start = random_gan(rng, TINY, depth_key=DepthKey(1, 2))
        target = neighbors(start, TINY)[7]
        model = learn([Individual(gan=target, fitness=1.0, run_id="r",
                                  problem_id="p")],
                      LearnConfig(genotype=TINY, alpha=0.01))
        trace = guided_hc(land, model, start, 3, np.random.default_rng(3))
        assert trace.steps[0].gan_hash == gan_hash(target)

    def test_exhaustion_pads_trace(self):
        land = tiny_landscape(seed=8)
        start = land.planted_gan(land.target_key)
        n_neighbors = len(neighbors(start, TINY))
        budget = n_neighbors + 10
        trace = guided_hc(land, uniform_metamodel(), start, budget,
                          np.random.default_rng(4))
        assert len(trace.steps) == budget
        assert trace.evaluations == n_neighbors
        padding = trace.steps[n_neighbors:]
        assert all(s.exhausted and not s.accepted for s in padding)
        assert all(math.isnan(s.fitness) for s in padding)
        assert all(s.best == trace.start_fitness for s in padding)
        real = trace.steps[:n_neighbors]
        assert not any(s.exhausted for s in real)
        # every neighbor evaluated exactly once
        assert len({s.gan_hash for s in real}) == n_neighbors

    def test_accept_resets_neighborhood(self):
        land = tiny_landscape(seed=9)
        rng = np.random.default_rng(14)
        start = random_gan(rng, TINY)
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
        start = random_gan(np.random.default_rng(15), TINY)
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
            best = min(enumerate_space(TINY), key=land_i.evaluate,
                       default=None)
            train_inds.append(Individual(gan=best, fitness=land_i.evaluate(best),
                                         run_id=f"r{seed}", problem_id=str(seed)))
        model = learn(train_inds, LearnConfig(genotype=TINY, alpha=0.5))
        land = tiny_landscape(seed=22)
        finals_guided, finals_uniform = [], []
        for rep in range(6):
            start = random_gan(np.random.default_rng(100 + rep), TINY)
            g = guided_hc(land, model, start, 20,
                          np.random.default_rng(200 + rep))
            u = guided_hc(land, uniform_metamodel(), start, 20,
                          np.random.default_rng(200 + rep))
            finals_guided.append(g.final_best)
            finals_uniform.append(u.final_best)
        assert np.median(finals_guided) <= np.median(finals_uniform) + 1e-9


class TestPopulationAndEa:
    def test_init_random(self):
        land = tiny_landscape(seed=11)
        pop = init_population("random", 8, land, np.random.default_rng(7))
        assert pop.size == 8
        for gan, fitness in pop.members:
            validate_gan(gan, TINY)
            assert fitness == land.evaluate(gan)

    def test_init_from_first(self):
        land = tiny_landscape(seed=12)
        rng = np.random.default_rng(16)
        elite = [random_gan(rng, TINY) for _ in range(5)]
        pop = init_population("from_first", 10, land,
                              np.random.default_rng(8), elite=elite)
        allowed = {gan_hash(g) for g in elite}
        assert all(gan_hash(g) in allowed for g, _ in pop.members)
        with pytest.raises(ValidationError):
            init_population("from_first", 4, land, np.random.default_rng(9),
                            elite=[])

    def test_init_from_metamodel(self):
        land = tiny_landscape(seed=13)
        anchor = random_gan(np.random.default_rng(17), TINY)
        model = learn([Individual(gan=anchor, fitness=0.5, run_id="r",
                                  problem_id="p")],
                      LearnConfig(genotype=TINY, alpha=0.01))
        pop = init_population("from_metamodel", 30, land,
                              np.random.default_rng(10), metamodel=model)
        hits = sum(gan_hash(g) == gan_hash(anchor) for g, _ in pop.members)
        assert hits >= 10
        with pytest.raises(ValidationError):
            init_population("from_metamodel", 4, land,
                            np.random.default_rng(11))

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
        pop = Population([(g, land.evaluate(g)) for g in gans])
        gen_pool = {(gan_hash_half(g.generator), g.train_freq_bin)
                    for g in gans}
        disc_pool = {gan_hash_half(g.discriminator) for g in gans}
        result = simple_ea(land, pop, generations=1,
                           rng=np.random.default_rng(15),
                           config=EaConfig(crossover_rate=1.0,
                                           mutation_rate=0.0))
        offspring = result.population.members[1:]
        for gan, _ in offspring:
            assert (gan_hash_half(gan.generator),
                    gan.train_freq_bin) in gen_pool
            assert gan_hash_half(gan.discriminator) in disc_pool

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
        h1 = sorted(gan_hash(g) for g, _ in r1.population.members)
        h2 = sorted(gan_hash(g) for g, _ in r2.population.members)
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
        result = simple_ea(land, pop, 6, np.random.default_rng(seed + 1),
                           config=config,
                           on_evaluate=lambda g, f: got.append((g, f)))
        trace, members = reference_ea(land, pop, 6,
                                      np.random.default_rng(seed + 1),
                                      config, want.append)
        assert got == want
        assert all(type(f) is float for _, f in got)
        assert result.best_per_generation == trace
        assert result.population.members == members
        assert result.evaluations == len(want)


class CoarseLandscape:
    """A landscape whose fitness is rounded to a whole number."""

    def __init__(self, land):
        self.land = land
        self.config = land.config

    def evaluate(self, gan):
        return float(round(self.land.evaluate(gan)))


def reference_ea(land, population, generations, rng, config, record):
    """simple_ea as one evaluation per bred child, hashing every tie-break.

    Returns the best fitness per generation and the final members; calls
    ``record`` with each (gan, fitness) as it is evaluated.
    """
    def rank(member):
        return member[1], gan_hash(member[0])

    members = list(population.members)
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
                a, b = (GanSpec(generator=a.generator,
                                discriminator=b.discriminator,
                                train_freq_bin=a.train_freq_bin),
                        GanSpec(generator=b.generator,
                                discriminator=a.discriminator,
                                train_freq_bin=b.train_freq_bin))
            for child in (a, b):
                if len(offspring) >= need:
                    break
                if rng.random() < config.mutation_rate:
                    child = mutate(child, TINY, rng)
                fitness = land.evaluate(child)
                record((child, fitness))
                offspring.append((child, fitness))
        members = sorted(members, key=rank)[:config.elitism] + offspring
        trace.append(min(f for _, f in members))
    return trace, members


def gan_hash_half(net):
    return (net.role, net.layers)


class TestTraceIo:
    def test_round_trip(self, tmp_path):
        land = tiny_landscape(seed=18)
        traces = []
        for seed in range(3):
            rng = np.random.default_rng(seed)
            start = random_gan(rng, TINY)
            traces.append((seed, random_hc(land, start, 15, rng)))
        path = tmp_path / "traces.csv"
        save_traces(traces, path)
        loaded = load_traces(path)
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
        start = random_gan(rng, TINY)
        traces = [(0, random_hc(land, start, 10, rng))]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_traces(traces, a)
        save_traces(traces, b)
        assert a.read_bytes() == b.read_bytes()

    def test_nan_padding_survives(self, tmp_path):
        land = tiny_landscape(seed=20)
        start = land.planted_gan(land.target_key)
        budget = len(neighbors(start, TINY)) + 5
        trace = guided_hc(land, uniform_metamodel(), start, budget,
                          np.random.default_rng(27))
        path = tmp_path / "t.csv"
        save_traces([(0, trace)], path)
        rows = load_traces(path)[0]
        assert math.isnan(rows[-1]["fitness"])
        assert rows[-1]["best"] == trace.start_fitness

    def test_bad_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("seed,step,value\n0,0,1.0\n")
        with pytest.raises(ValidationError):
            load_traces(path)
