"""Two-level metamodel: learning, scoring, sampling, persistence."""

import itertools
import json
import math

import numpy as np
import pytest

from archsmith.archive import Individual
from archsmith.bayesnet import BayesNet, Dag, pls_sample_many
from archsmith.errors import FormatError, ValidationError
from archsmith.genotype import (
    DepthKey,
    GenotypeConfig,
    flatten_joint,
    joint_schema,
    random_gan,
    validate_gan,
)
from archsmith.metamodel import (
    Categorical,
    LearnConfig,
    Metamodel,
    learn,
    load_metamodel,
    metamodel_from_json_obj,
    metamodel_to_json_obj,
    provenance_mismatch,
    save_metamodel,
)

JOINT = GenotypeConfig.joint()
TINY = GenotypeConfig.joint(arity=2, activations=("relu", "tanh"),
                            weight_inits=("xavier", "normal"),
                            generator_depth_max=1, discriminator_depth_max=2)
TINY_PN = GenotypeConfig.per_network(
    arity=2, activations=("relu", "tanh"), weight_inits=("xavier", "normal"),
    generator_depth_max=1, discriminator_depth_max=2)


def make_individuals(rng, config, count, depth_key=None):
    out = []
    for i in range(count):
        gan = random_gan(rng, config, depth_key=depth_key)
        out.append(Individual(gan=gan, fitness=float(rng.uniform(0, 1)),
                              run_id=f"r{i % 7}", problem_id="p0"))
    return out


def enumerate_vectors(config, key):
    schema = joint_schema(config, key)
    return np.array(list(itertools.product(
        *[range(c) for c in schema.cardinalities])), dtype=np.int64)


class TestLearn:
    def test_counts_sum_and_submodel_count(self):
        rng = np.random.default_rng(0)
        inds = make_individuals(rng, JOINT, 2400)
        model = learn(inds, LearnConfig(genotype=JOINT))
        assert len(model.submodels) == 12
        assert sum(s.n_train for s in model.submodels.values()) == 2400
        probs = model.supermodels["joint"].probs
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_single_key_concentration(self):
        rng = np.random.default_rng(1)
        inds = make_individuals(rng, JOINT, 50, depth_key=DepthKey(1, 1))
        model = learn(inds, LearnConfig(genotype=JOINT))
        super_ = model.supermodels["joint"]
        # 12 keys, pseudocount 1: (50 + 1) / (50 + 12) on the occupied key.
        assert super_.prob(DepthKey(1, 1)) == pytest.approx(51 / 62, abs=1e-12)
        assert super_.prob(DepthKey(3, 4)) == pytest.approx(1 / 62, abs=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            learn([], LearnConfig(genotype=JOINT))

    def test_fallback_flags(self):
        rng = np.random.default_rng(2)
        inds = make_individuals(rng, JOINT, 5, depth_key=DepthKey(2, 2))
        model = learn(inds, LearnConfig(genotype=JOINT))
        assert model.submodels[(2, 2)].method == "marginals"
        assert model.submodels[(1, 1)].method == "uniform"
        assert "[2, 2]" in model.provenance["fallback_keys"]
        assert "[1, 1]" in model.provenance["uniform_keys"]
        assert len(model.provenance["uniform_keys"]) == 11

    def test_structure_kicks_in_at_min_samples(self):
        rng = np.random.default_rng(3)
        inds = make_individuals(rng, JOINT, 10, depth_key=DepthKey(1, 1))
        model = learn(inds, LearnConfig(genotype=JOINT))
        assert model.submodels[(1, 1)].method == "aracne"

    def test_per_network_grouping(self):
        rng = np.random.default_rng(4)
        config = GenotypeConfig.per_network()
        inds = make_individuals(rng, config, 40, depth_key=DepthKey(2, 5))
        model = learn(inds, LearnConfig(genotype=config))
        assert len(model.submodels) == 12
        assert model.submodels[("generator", 2)].n_train == 40
        assert model.submodels[("discriminator", 5)].n_train == 40
        assert model.submodels[("generator", 1)].n_train == 0
        assert model.supermodels["generator"].prob(2) == pytest.approx(
            41 / 46, abs=1e-12)


def chain_bn(cards, coupling=0.8):
    """Chain 0 -> 1 -> ... with P(child tracks parent) = coupling."""
    variables = tuple((f"v{i}", c) for i, c in enumerate(cards))
    parents = ((),) + tuple((i,) for i in range(len(cards) - 1))
    cpts = []
    for i, c in enumerate(cards):
        if i == 0:
            cpts.append(np.full((1, c), 1.0 / c))
            continue
        pc = cards[i - 1]
        table = np.full((pc, c), (1.0 - coupling) / (c - 1))
        for pv in range(pc):
            table[pv, pv % c] = coupling
        cpts.append(table)
    return BayesNet(dag=Dag(variables=variables, parents=parents),
                    cpts=tuple(cpts), alpha=1.0)


class TestPlantedRecovery:
    def test_learned_cpts_close_to_planted(self):
        # 5k samples per key from a known chain BN; structure must be
        # recovered exactly and every CPT row land within L1 0.05.  Binary
        # slots keep every parent configuration at ~2.5k rows so the bound
        # has headroom.
        config = TINY
        rng = np.random.default_rng(5)
        individuals = []
        planted = {}
        for key in config.depth_keys():
            schema = joint_schema(config, key)
            cards = schema.cardinalities
            variables = tuple((s.name, s.cardinality) for s in schema.slots)
            bn = chain_bn(cards)
            bn = BayesNet(dag=Dag(variables=variables, parents=bn.dag.parents),
                          cpts=bn.cpts, alpha=1.0)
            planted[tuple(key)] = bn
            rows = pls_sample_many(bn, 5000, rng)
            from archsmith.genotype import AttributeVector, unflatten_joint
            for row in rows:
                av = AttributeVector(depth_key=key,
                                     values=tuple(int(v) for v in row),
                                     schema=schema)
                individuals.append(Individual(
                    gan=unflatten_joint(av, config), fitness=0.0,
                    run_id="r0", problem_id="p0"))
        model = learn(individuals, LearnConfig(genotype=config, alpha=1.0))
        for key, bn in planted.items():
            sub = model.submodels[key]
            assert sub.method == "aracne"
            assert sub.bn.dag == bn.dag
            for learned, true in zip(sub.bn.cpts, bn.cpts):
                assert np.abs(learned - true).sum(axis=1).max() <= 0.05


class TestScore:
    def test_single_training_example_scores_highest(self):
        rng = np.random.default_rng(6)
        ind = make_individuals(rng, TINY, 1, depth_key=DepthKey(1, 1))[0]
        model = learn([ind], LearnConfig(genotype=TINY, alpha=0.01))
        key = DepthKey(1, 1)
        grid = enumerate_vectors(TINY, key)
        log_prob, _ = model.score_values(key, grid)
        best = grid[np.argmax(log_prob)]
        assert tuple(best) == flatten_joint(ind.gan, TINY).values

    @pytest.mark.parametrize("config", [TINY, TINY_PN],
                             ids=["joint", "per_network"])
    def test_total_probability_mass_is_one(self, config):
        rng = np.random.default_rng(7)
        inds = make_individuals(rng, config, 60)
        model = learn(inds, LearnConfig(genotype=config))
        total = 0.0
        for key in config.depth_keys():
            grid = enumerate_vectors(config, key)
            log_prob, _ = model.score_values(key, grid)
            total += np.exp(log_prob).sum()
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_uniform_model_submodels_and_counts(self):
        model = Metamodel.uniform(LearnConfig(genotype=JOINT))
        rng = np.random.default_rng(8)
        small = random_gan(rng, JOINT, depth_key=DepthKey(1, 1))
        big = random_gan(rng, JOINT, depth_key=DepthKey(1, 2))
        a, b = model.score(small), model.score(big)
        cards_small = joint_schema(JOINT, DepthKey(1, 1)).cardinalities
        cards_big = joint_schema(JOINT, DepthKey(1, 2)).cardinalities
        assert a.log_sub == pytest.approx(-sum(map(math.log, cards_small)),
                                          abs=1e-9)
        assert b.log_sub == pytest.approx(-sum(map(math.log, cards_big)),
                                          abs=1e-9)
        assert a.n_variables == 1 + 9
        assert b.n_variables == 1 + 13

    @pytest.mark.parametrize("config", [JOINT, GenotypeConfig.per_network()],
                             ids=["joint", "per_network"])
    def test_uniform_model_is_score_neutral(self, config):
        model = Metamodel.uniform(LearnConfig(genotype=config))
        rng = np.random.default_rng(8)
        normalized = [model.score(random_gan(rng, config, depth_key=key)).normalized
                      for key in config.depth_keys() for _ in range(3)]
        assert max(normalized) - min(normalized) < 1e-9

    def test_per_network_denominator(self):
        model = Metamodel.uniform(LearnConfig(genotype=TINY_PN))
        rng = np.random.default_rng(9)
        gan = random_gan(rng, TINY_PN, depth_key=DepthKey(1, 2))
        assert model.score(gan).n_variables == 2 + 13

    def test_unsupported_depth_rejected(self):
        model = Metamodel.uniform(LearnConfig(genotype=JOINT))
        rng = np.random.default_rng(10)
        wide = GenotypeConfig.joint(generator_depth_max=6)
        deep = random_gan(rng, wide, depth_key=DepthKey(6, 1))
        with pytest.raises(ValidationError, match="unsupported depth"):
            model.score(deep)

    @pytest.mark.parametrize("config", [JOINT, GenotypeConfig.per_network()],
                             ids=["joint", "per_network"])
    def test_score_values_matches_score(self, config):
        rng = np.random.default_rng(11)
        inds = make_individuals(rng, config, 300)
        model = learn(inds, LearnConfig(genotype=config))
        for gan in (random_gan(rng, config) for _ in range(50)):
            av = flatten_joint(gan, config)
            key = DepthKey(*av.depth_key)
            log_prob, normalized = model.score_values(
                key, np.array([av.values]))
            breakdown = model.score(gan)
            assert log_prob[0] == pytest.approx(breakdown.log_prob, abs=1e-12)
            assert normalized[0] == pytest.approx(breakdown.normalized,
                                                  abs=1e-12)


class TestSample:
    def test_depth_frequencies_match_supermodel(self):
        rng = np.random.default_rng(12)
        inds = make_individuals(rng, JOINT, 500)
        model = learn(inds, LearnConfig(genotype=JOINT))
        samples = model.sample_many(np.random.default_rng(0), 10_000)
        super_ = model.supermodels["joint"]
        freq = {tuple(k): 0 for k in super_.support}
        for gan in samples:
            freq[tuple(gan.depth_key)] += 1
        tv = 0.5 * sum(abs(freq[tuple(k)] / 10_000 - super_.prob(k))
                       for k in super_.support)
        assert tv <= 0.02

    @pytest.mark.parametrize("config,count",
                             [(JOINT, 10_000),
                              (GenotypeConfig.per_network(), 3_000)],
                             ids=["joint", "per_network"])
    def test_samples_satisfy_invariants(self, config, count):
        rng = np.random.default_rng(13)
        inds = make_individuals(rng, config, 400)
        model = learn(inds, LearnConfig(genotype=config))
        for gan in model.sample_many(np.random.default_rng(1), count):
            validate_gan(gan, config)

    def test_concentrated_supermodel_dominates_samples(self):
        rng = np.random.default_rng(14)
        inds = make_individuals(rng, JOINT, 500, depth_key=DepthKey(1, 1))
        model = learn(inds, LearnConfig(genotype=JOINT))
        samples = model.sample_many(np.random.default_rng(2), 2000)
        share = np.mean([gan.depth_key == DepthKey(1, 1) for gan in samples])
        assert share > 0.93

    def test_sampling_deterministic_given_seed(self):
        rng = np.random.default_rng(15)
        inds = make_individuals(rng, JOINT, 100)
        model = learn(inds, LearnConfig(genotype=JOINT))
        a = model.sample_many(np.random.default_rng(42), 50)
        b = model.sample_many(np.random.default_rng(42), 50)
        assert a == b


class TestPersistence:
    @pytest.mark.parametrize("config", [JOINT, GenotypeConfig.per_network()],
                             ids=["joint", "per_network"])
    def test_round_trip_scores_identical(self, tmp_path, config):
        rng = np.random.default_rng(16)
        inds = make_individuals(rng, config, 300)
        model = learn(inds, LearnConfig(genotype=config),
                      provenance={"archive_hash": "abc"})
        path = tmp_path / "model.mm"
        save_metamodel(model, path)
        loaded = load_metamodel(path)
        assert loaded.provenance["archive_hash"] == "abc"
        for gan in (random_gan(rng, config) for _ in range(100)):
            a, b = model.score(gan), loaded.score(gan)
            assert a.log_prob == b.log_prob
            assert a.normalized == b.normalized

    @pytest.mark.parametrize("config", [TINY, TINY_PN],
                             ids=["joint", "per_network"])
    def test_bytes_equal_json_dump(self, tmp_path, config):
        rng = np.random.default_rng(19)
        model = learn(make_individuals(rng, config, 60),
                      LearnConfig(genotype=config),
                      provenance={"archive_hash": "abc"})
        path = tmp_path / "model.mm"
        save_metamodel(model, path)
        reference = tmp_path / "reference.mm"
        with open(reference, "w", encoding="utf-8") as handle:
            json.dump(metamodel_to_json_obj(model), handle, sort_keys=True)
            handle.write("\n")
        assert path.read_bytes() == reference.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(17)
        model = learn(make_individuals(rng, TINY, 30),
                      LearnConfig(genotype=TINY))
        path = tmp_path / "model.mm"
        save_metamodel(model, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(FormatError, match="corrupt"):
            load_metamodel(path)

    @pytest.mark.parametrize("config", [TINY, TINY_PN],
                             ids=["joint", "per_network"])
    def test_supermodel_support_must_follow_the_configuration(self, config):
        model = learn(make_individuals(np.random.default_rng(18), config, 30),
                      LearnConfig(genotype=config))
        doc = metamodel_to_json_obj(model)
        for entry in doc["supermodels"].values():
            entry["keys"].reverse()
            entry["probs"].reverse()
        with pytest.raises(ValidationError, match="does not cover"):
            metamodel_from_json_obj(doc)

    def test_wrong_tag_rejected(self, tmp_path):
        path = tmp_path / "model.mm"
        path.write_text('{"format": "bn-v1"}')
        with pytest.raises(FormatError):
            load_metamodel(path)

    def test_provenance_mismatch_detection(self):
        rng = np.random.default_rng(18)
        model = learn(make_individuals(rng, TINY, 30),
                      LearnConfig(genotype=TINY),
                      provenance={"archive_hash": "abc"})
        assert provenance_mismatch(model, archive_hash="abc") is None
        assert "archive" in provenance_mismatch(model, archive_hash="xyz")
        assert "genotype" in provenance_mismatch(model, genotype=JOINT)
        assert provenance_mismatch(model, genotype=TINY) is None


class TestLearnConfig:
    @pytest.mark.parametrize("tolerance", [-0.1, 1.5, 7.0])
    def test_dpi_tolerance_outside_unit_interval_rejected(self, tolerance):
        with pytest.raises(ValidationError, match="dpi_tolerance"):
            LearnConfig(genotype=TINY, dpi_tolerance=tolerance)


class TestCategorical:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Categorical(support=(1, 2), probs=(0.5, 0.6))
        with pytest.raises(ValidationError):
            Categorical(support=(1,), probs=(0.5, 0.5))
        with pytest.raises(ValidationError):
            Categorical(support=(1, 2), probs=(1.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_probability_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            Categorical(support=(1, 2), probs=(bad, 0.5))

    def test_unknown_key(self):
        cat = Categorical(support=(1, 2), probs=(0.5, 0.5))
        with pytest.raises(ValidationError, match="unsupported depth"):
            cat.prob(3)
