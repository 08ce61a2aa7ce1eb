"""Two-level metamodel: learning, scoring, sampling, persistence."""

import itertools
import json
import math
from dataclasses import replace

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
    random_genotype,
    unflatten_joint,
)
from archsmith.metamodel import (
    Categorical,
    LearnConfig,
    Metamodel,
    _parts,
    _schema_volumes,
    learn,
    load_metamodel,
    metamodel_from_json_obj,
    metamodel_to_json_obj,
    provenance_mismatch,
    save_metamodel,
)
from test_bayesnet import bn_v1_document
from test_genotype import random_gan, validate_tree

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
        key, row = random_genotype(rng, config, depth_key)
        out.append(Individual(key, row, float(rng.uniform(0, 1)),
                              f"r{i % 7}", "p0", config))
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

    @pytest.mark.parametrize("other", [JOINT, TINY_PN], ids=["vocabulary",
                                                         "mode"])
    def test_individual_from_another_config_rejected(self, other):
        # TINY's rows are legal in both other spaces, yet they mean other
        # genotypes there (JOINT) or another model grouping (TINY_PN).
        rng = np.random.default_rng(2)
        inds = make_individuals(rng, TINY, 20)
        stray = replace(inds[3], config=other)
        assert stray == inds[3]
        with pytest.raises(ValidationError, match="genotype config"):
            learn(inds[:3] + [stray] + inds[4:], LearnConfig(genotype=TINY))
        learn(inds, LearnConfig(genotype=TINY))

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
            for row in rows:
                individuals.append(Individual(
                    key, tuple(row.tolist()), 0.0, "r0", "p0", config))
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
        assert flatten_joint(ind.gan, TINY) == (key, tuple(best))

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

    @pytest.mark.parametrize("config", [JOINT, GenotypeConfig.per_network()],
                             ids=["joint", "per_network"])
    def test_uniform_model_matches_scipy_oracle(self, config):
        # The depth priors solve sum(logsumexp(c * m + volume)) = 0 over
        # the parts; scipy's brentq and logsumexp are the oracle.  Imported
        # here, so the rest of this module runs without scipy.
        from scipy.optimize import brentq
        from scipy.special import logsumexp

        model = Metamodel.uniform(LearnConfig(genotype=config))
        parts = {part.name: _schema_volumes(part.schemas)
                 for part in _parts(config)}
        c = brentq(lambda c: sum(logsumexp(c * m + s)
                                 for m, s in parts.values()),
                   -64.0, 64.0, xtol=1e-14)
        for name, (m, s) in parts.items():
            want = np.exp(c * m + s - logsumexp(c * m + s))
            got = np.array(model.supermodels[name].probs)
            assert np.all(np.abs(got - want) <= 1e-12 * want), name
        rng = np.random.default_rng(8)
        keys = config.depth_keys()
        normalized = [nz for _, nz in model.score_many(
            [random_genotype(rng, config, key) for key in keys])]
        assert len(normalized) == len(keys)
        assert max(normalized) - min(normalized) <= 1e-12 * abs(c)
        assert normalized[0] == pytest.approx(c, rel=1e-12)

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
        # Bit for bit: in per-network mode the two parts' sums must be
        # added in one order in both.
        rng = np.random.default_rng(11)
        inds = make_individuals(rng, config, 300)
        model = learn(inds, LearnConfig(genotype=config))
        for gan in (random_gan(rng, config) for _ in range(50)):
            key, values = flatten_joint(gan, config)
            log_prob, normalized = model.score_values(key, np.array([values]))
            breakdown = model.score(gan)
            assert log_prob[0] == breakdown.log_prob
            assert normalized[0] == breakdown.normalized


class TestSample:
    def test_depth_frequencies_match_supermodel(self):
        rng = np.random.default_rng(12)
        inds = make_individuals(rng, JOINT, 500)
        model = learn(inds, LearnConfig(genotype=JOINT))
        samples = model.sample_many(np.random.default_rng(0), 10_000)
        super_ = model.supermodels["joint"]
        freq = {tuple(k): 0 for k in super_.support}
        for gan in samples:
            freq[flatten_joint(gan, JOINT)[0]] += 1
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
            validate_tree(gan, config)

    def test_concentrated_supermodel_dominates_samples(self):
        rng = np.random.default_rng(14)
        inds = make_individuals(rng, JOINT, 500, depth_key=DepthKey(1, 1))
        model = learn(inds, LearnConfig(genotype=JOINT))
        samples = model.sample_many(np.random.default_rng(2), 2000)
        share = np.mean([flatten_joint(gan, JOINT)[0] == DepthKey(1, 1)
                         for gan in samples])
        assert share > 0.93

    def test_sampling_deterministic_given_seed(self):
        rng = np.random.default_rng(15)
        inds = make_individuals(rng, JOINT, 100)
        model = learn(inds, LearnConfig(genotype=JOINT))
        a = model.sample_many(np.random.default_rng(42), 50)
        b = model.sample_many(np.random.default_rng(42), 50)
        assert a == b

    @pytest.mark.parametrize("config", [JOINT, GenotypeConfig.per_network()],
                             ids=["joint", "per_network"])
    def test_sample_many_is_the_trees_of_sample_genotypes(self, config):
        inds = make_individuals(np.random.default_rng(17), config, 200)
        model = learn(inds, LearnConfig(genotype=config))
        rng_pairs, rng_trees = (np.random.default_rng(5),
                                np.random.default_rng(5))
        pairs = model.sample_genotypes(rng_pairs, 300)
        assert all(type(key) is DepthKey and type(row) is tuple
                   and all(type(v) is int for v in row) for key, row in pairs)
        assert model.sample_many(rng_trees, 300) == [
            unflatten_joint(key, row, config) for key, row in pairs]
        assert rng_pairs.bit_generator.state == rng_trees.bit_generator.state
        assert model.sample_genotypes(rng_pairs, 0) == []


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
        assert loaded == model
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
        with pytest.raises(FormatError, match="not valid JSON") as info:
            load_metamodel(path)
        assert str(info.value).startswith(f"{path}: ")

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
        assert provenance_mismatch(model, "abc", TINY) is None
        assert provenance_mismatch(model, "xyz", TINY) == (
            "archive hash differs from the one learned from")
        assert provenance_mismatch(model, "abc", JOINT) == (
            "genotype configuration differs")
        assert "; " in provenance_mismatch(model, "xyz", JOINT)


def whole_tables(bn):
    """Every table of ``bn`` with one row per parent configuration: the
    configurations a keyed table does not store get smoothed zero counts,
    normalised as ``fit_cpts`` normalises every row."""
    tables = []
    for v, (table, code) in enumerate(zip(bn.cpts, bn.codes)):
        if code is not None:
            configs = math.prod(bn.dag.cardinalities[p]
                                for p in bn.dag.parents[v])
            whole = np.full((configs, table.shape[1]), bn.alpha)
            whole /= whole.sum(axis=1, keepdims=True)
            whole[code] = table
            table = whole
        tables.append(table)
    return tables


def mm_v1_document(model):
    """``model`` as the ``mm-v1`` document of its whole tables."""
    doc = metamodel_to_json_obj(model)
    doc["format"] = "mm-v1"
    for entry in doc["submodels"]:
        bn = model.submodels[tuple(entry["key"])].bn
        entry["bn"] = bn_v1_document(bn.dag, whole_tables(bn), bn.alpha)
    return json.loads(json.dumps(doc))


def keyed_model(config):
    """A model learned from twelve genotypes of one depth key: ARACNE gives
    some slots more parent configurations than rows, so their tables are
    keyed."""
    rng = np.random.default_rng(23)
    model = learn(make_individuals(rng, config, 12, depth_key=DepthKey(2, 2)),
                  LearnConfig(genotype=config, alpha=0.7))
    assert any(code is not None for sub in model.submodels.values()
               for code in sub.bn.codes)
    return model


class TestFormats:
    @pytest.mark.parametrize("config", [JOINT, GenotypeConfig.per_network()],
                             ids=["joint", "per_network"])
    def test_mm_v1_of_whole_tables_scores_the_same_bytes(self, tmp_path,
                                                         config):
        model = keyed_model(config)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(mm_v1_document(model)))
        old = load_metamodel(path)
        assert all(code is None for sub in old.submodels.values()
                   for code in sub.bn.codes)
        rng = np.random.default_rng(4)
        for key in config.depth_keys():
            cards = joint_schema(config, key).cardinalities
            rows = rng.integers(0, cards, size=(200, len(cards)))
            for ours, theirs in zip(model.score_values(key, rows),
                                    old.score_values(key, rows)):
                assert ours.tobytes() == theirs.tobytes()
        assert (old.sample_many(np.random.default_rng(3), 200)
                == model.sample_many(np.random.default_rng(3), 200))

    def test_mm_v2_is_smaller_and_equal_after_a_round_trip(self, tmp_path):
        model = keyed_model(JOINT)
        path = tmp_path / "model.json"
        save_metamodel(model, path)
        assert json.loads(path.read_text())["format"] == "mm-v2"
        assert load_metamodel(path) == model
        old = tmp_path / "old.json"
        old.write_text(json.dumps(mm_v1_document(model)))
        assert path.stat().st_size < old.stat().st_size / 5

    def test_equal_after_an_mm_v1_round_trip(self):
        model = Metamodel.uniform(LearnConfig(genotype=TINY_PN))
        assert metamodel_from_json_obj(mm_v1_document(model)) == model

    def test_one_changed_cell_is_unequal(self):
        model = keyed_model(JOINT)
        doc = json.loads(json.dumps(metamodel_to_json_obj(model)))
        assert metamodel_from_json_obj(doc) == model
        doc["submodels"][5]["bn"]["cpts"][0][0][0] += 1e-12
        assert metamodel_from_json_obj(doc) != model


class TestModelFileChecks:
    @pytest.fixture()
    def doc(self):
        return json.loads(json.dumps(metamodel_to_json_obj(
            keyed_model(JOINT))))

    @pytest.mark.parametrize("edit,message", [
        ({"n_train": -3.7}, "'n_train' is -3.7"),
        ({"n_train": "3"}, "'n_train' is '3'"),
        ({"n_train": -3}, "n_train is -3, not a count"),
        ({"method": "bogus"}, "unknown method 'bogus'"),
        ({"key": [1.0, 1]}, r"key \[1.0, 1\] is not a depth"),
        ({"key": [9, 9]}, r"key \[9, 9\] is not a depth"),
        ({"key": ["generator", 1]}, "is not a depth"),
    ], ids=["n_train-float", "n_train-string", "n_train-negative",
            "method", "key-float", "key-unknown", "key-other-mode"])
    def test_bad_submodel_entry_rejected(self, doc, edit, message):
        doc["submodels"][0].update(edit)
        with pytest.raises(ValidationError, match=message):
            metamodel_from_json_obj(doc)

    def test_repeated_key_rejected(self, doc):
        doc["submodels"].append(doc["submodels"][0])
        with pytest.raises(FormatError, match=r"key \[1, 1\] appears twice"):
            metamodel_from_json_obj(doc)

    def test_supermodel_outside_the_mode_rejected(self, doc):
        doc["supermodels"]["generator"] = doc["supermodels"]["joint"]
        with pytest.raises(FormatError, match="needs the supermodels joint"):
            metamodel_from_json_obj(doc)

    def test_per_network_key_outside_the_configured_depths(self):
        doc = metamodel_to_json_obj(Metamodel.uniform(
            LearnConfig(genotype=TINY_PN)))
        doc["submodels"][0]["key"] = ["generator", 9]
        with pytest.raises(FormatError, match="not a depth"):
            metamodel_from_json_obj(doc)

    @pytest.mark.parametrize("section,key,what", [
        ((), "alpah", "learn"), (("genotype",), "aritty", "genotype"),
    ], ids=["learn", "genotype"])
    def test_stray_learn_key_names_file_and_section(self, doc, tmp_path,
                                                    section, key, what):
        target = doc["learn"]
        for name in section:
            target = target[name]
        target[key] = 5
        path = tmp_path / "model.mm"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as info:
            load_metamodel(path)
        assert str(info.value) == (f"{path}: learn: unknown {what} config "
                                   f"key(s): {key}")

    @pytest.mark.parametrize("provenance", [[], "x", None])
    def test_provenance_must_be_an_object(self, doc, provenance):
        doc["provenance"] = provenance
        with pytest.raises(FormatError, match="provenance"):
            metamodel_from_json_obj(doc)


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
