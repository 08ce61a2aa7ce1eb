"""Tests for the experiment pipelines (small scale; stats use real data)."""

import csv
from dataclasses import fields

import numpy as np
import pytest

from archsmith.errors import ValidationError
from archsmith.genotype import GenotypeConfig
from archsmith.landscape import LandscapeConfig
from archsmith.metamodel import LearnConfig, Metamodel
from archsmith.experiments import (
    ArchiveGenConfig,
    GuidedSearchConfig,
    InitializationConfig,
    LikelihoodConfig,
    SamplingConfig,
    ScoreRow,
    generate_archive,
    run_guided_search,
    run_initialization,
    run_likelihood,
    run_sampling,
    write_rows,
)

SMALL = GenotypeConfig.joint(
    arity=2,
    activations=("relu", "tanh"),
    weight_inits=("xavier", "normal"),
    generator_depth_max=2,
    discriminator_depth_max=2,
)
LAND = LandscapeConfig(genotype=SMALL, family_seed=5, base_scale=10.0)


def table_bytes(result, directory):
    """The bytes of each table of ``result``, written by ``write_rows``
    into ``directory``, by file name."""
    directory.mkdir()
    for name, (row_type, rows) in result.tables().items():
        write_rows(directory / name, row_type, rows)
    return {name: (directory / name).read_bytes() for name in result.tables()}


def check_tables(result, directory, names):
    """``result`` has the tables ``names``, and each round-trips through
    ``write_rows``: a header of the row type's field names (``set`` for
    ``set_name``), then one line per row whose cells read back as the
    row's values, floats bit for bit and bools as 0 or 1."""
    assert sorted(result.tables()) == sorted(names)
    table_bytes(result, directory)
    for name, (row_type, rows) in result.tables().items():
        with open(directory / name, newline="") as handle:
            header, *lines = csv.reader(handle)
        columns = [f.name for f in fields(row_type)]
        assert header == ["set" if c == "set_name" else c for c in columns]
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            for cell, column in zip(line, columns):
                value = getattr(row, column)
                if isinstance(value, bool):
                    assert cell in ("0", "1") and bool(int(cell)) == value
                else:
                    assert type(value)(cell) == value


@pytest.fixture(scope="module")
def small_archive():
    config = ArchiveGenConfig(landscape=LAND, problem_seeds=(0, 1, 2),
                              runs_per_problem=2, population=8,
                              generations=4)
    return generate_archive(config)


class TestGenerateArchive:
    def test_run_layout(self, small_archive):
        assert small_archive.n_runs == 6
        per_run = 8 + 4 * (8 - 1)
        for run_id, inds in small_archive.runs.items():
            assert len(inds) == per_run
            assert len({i.problem_id for i in inds}) == 1
            assert all(i.run_id == run_id for i in inds)

    def test_most_runs_improve(self, small_archive):
        improved = 0
        for inds in small_archive.runs.values():
            fits = [i.fitness for i in inds]
            if min(fits) < np.median(fits):
                improved += 1
        assert improved == 6

    def test_deterministic(self):
        config = ArchiveGenConfig(landscape=LAND, problem_seeds=(0,),
                                  runs_per_problem=1, population=6,
                                  generations=2)
        a = generate_archive(config)
        b = generate_archive(config)
        assert a.content_hash() == b.content_hash()

    def test_base_seed_changes_content(self):
        kw = dict(landscape=LAND, problem_seeds=(0,), runs_per_problem=1,
                  population=6, generations=2)
        a = generate_archive(ArchiveGenConfig(**kw))
        b = generate_archive(ArchiveGenConfig(base_seed=9, **kw))
        assert a.content_hash() != b.content_hash()

    def test_validation(self):
        with pytest.raises(ValidationError):
            ArchiveGenConfig(landscape=LAND, problem_seeds=())
        with pytest.raises(ValidationError):
            ArchiveGenConfig(landscape=LAND, problem_seeds=(0, 0))


class TestLikelihood:
    def test_row_count_and_sets(self, small_archive):
        config = LikelihoodConfig(landscape=LAND, n=3, seed=1, min_scored=6)
        result = run_likelihood(small_archive, config)
        # 6 runs x 3 per set x 3 sets
        assert len(result.rows) == 6 * 3 * 3
        names = {r.set_name for r in result.rows}
        assert names == {"first", "second", "random"}
        for test in result.key_tests:
            assert 0 <= test.p <= 1
            assert test.n_first + test.n_second + test.n_random >= 6

    def test_rows_equal_per_genotype_score(self, small_archive):
        # Each set is scored in one batch per depth key; the oracle scores
        # one genotype at a time, and the floats must be the same bits.
        config = LikelihoodConfig(landscape=LAND, n=4, seed=5, min_scored=6)
        result = run_likelihood(small_archive, config)
        want = []
        for set_name in ("first", "second", "random"):
            for ind in result.sets.by_name(set_name):
                b = result.metamodel.score(ind.gan)
                want.append(ScoreRow(set_name, ind.run_id, ind.problem_id,
                                     b.depth_key.d_g, b.depth_key.d_d,
                                     b.log_prob, b.normalized))
        assert len({(r.d_g, r.d_d) for r in want}) > 1
        assert result.rows == want

    def test_key_filter_respects_min(self, small_archive):
        strict = run_likelihood(small_archive,
                                LikelihoodConfig(landscape=LAND, n=3, seed=1,
                                                 min_scored=10_000))
        assert strict.key_tests == []

    def test_deterministic(self, small_archive):
        config = LikelihoodConfig(landscape=LAND, n=3, seed=2)
        a = run_likelihood(small_archive, config)
        b = run_likelihood(small_archive, config)
        assert a.rows == b.rows
        assert a.key_tests == b.key_tests

    def test_csv_round(self, small_archive, tmp_path):
        config = LikelihoodConfig(landscape=LAND, n=3, seed=3, min_scored=6)
        result = run_likelihood(small_archive, config)
        assert result.key_tests
        check_tables(result, tmp_path / "a", ["scores.csv", "tests.csv"])
        assert table_bytes(result, tmp_path / "b") == \
            table_bytes(result, tmp_path / "c")

    def test_mismatched_learn_config_rejected(self, small_archive):
        other = LearnConfig(genotype=GenotypeConfig.per_network())
        with pytest.raises(ValidationError):
            run_likelihood(small_archive,
                           LikelihoodConfig(landscape=LAND, n=3, learn=other))


class TestSampling:
    def test_rows_and_tests(self, small_archive):
        config = SamplingConfig(landscape=LAND, train_seeds=(0, 1),
                                holdout_seeds=(50, 51), n=3, n_each=20,
                                seed=4)
        result = run_sampling(small_archive, config)
        assert len(result.rows) == 2 * 3 * 20
        assert len(result.tests) == 2
        for test in result.tests:
            assert 0 <= test.p_sampled_vs_random <= 1

    def test_train_filter(self, small_archive):
        config = SamplingConfig(landscape=LAND, train_seeds=(7,),
                                holdout_seeds=(50,), n=3, n_each=5)
        with pytest.raises(ValidationError):
            run_sampling(small_archive, config)
        with pytest.raises(ValidationError):
            SamplingConfig(landscape=LAND, train_seeds=(0,),
                           holdout_seeds=(0,))

    def test_deterministic(self, small_archive, tmp_path):
        config = SamplingConfig(landscape=LAND, train_seeds=(0, 1),
                                holdout_seeds=(50,), n=3, n_each=10, seed=5)
        a = run_sampling(small_archive, config)
        b = run_sampling(small_archive, config)
        assert a.rows == b.rows
        assert table_bytes(a, tmp_path / "a") == table_bytes(b, tmp_path / "b")
        check_tables(a, tmp_path / "c", ["samples.csv", "tests.csv"])
        assert len(a.tests) == 1


class TestInitialization:
    def test_rows_and_summary(self, small_archive):
        config = InitializationConfig(landscape=LAND, target_seed=60,
                                      replicates=3, population=6,
                                      generations=3, n=3, seed=6)
        result = run_initialization(small_archive, config)
        assert len(result.rows) == 3 * 3 * (3 + 1)
        per_run = {}
        for row in result.rows:
            per_run.setdefault((row.strategy, row.replicate), []).append(row)
        for rows in per_run.values():
            bests = [r.best for r in sorted(rows, key=lambda r: r.generation)]
            assert all(b <= a + 1e-12 for a, b in zip(bests, bests[1:]))
        assert set(result.summary.median_gen0) == {"random", "from_first",
                                                   "from_metamodel"}
        assert 0 <= result.summary.p_gen0_metamodel_vs_random <= 1

    def test_target_seed_must_be_fresh(self, small_archive):
        config = InitializationConfig(landscape=LAND, target_seed=1,
                                      replicates=2, population=6,
                                      generations=2, n=3)
        with pytest.raises(ValidationError):
            run_initialization(small_archive, config)

    @pytest.mark.parametrize("ea,bad", [
        ({"elitism": 1.5}, "'elitism'"),
        ({"tournament_size": True}, "'tournament_size'"),
        ({"mutation_rate": True}, "'mutation_rate'"),
        ({"crossover_rate": "0.5"}, "'crossover_rate'"),
    ])
    def test_ea_fields_parse_strictly(self, ea, bad):
        with pytest.raises(ValidationError, match=bad):
            InitializationConfig.from_json_obj(
                {"landscape": LAND.to_json_obj(), "ea": ea})

    def test_ea_integral_floats_accepted(self):
        config = InitializationConfig.from_json_obj(
            {"landscape": LAND.to_json_obj(),
             "ea": {"elitism": 2.0, "mutation_rate": 1}})
        assert config.ea.elitism == 2 and type(config.ea.elitism) is int
        assert config.ea.mutation_rate == 1.0

    def test_deterministic(self, small_archive, tmp_path):
        config = InitializationConfig(landscape=LAND, target_seed=61,
                                      replicates=2, population=6,
                                      generations=2, n=3, seed=7)
        a = run_initialization(small_archive, config)
        b = run_initialization(small_archive, config)
        assert a.rows == b.rows
        assert table_bytes(a, tmp_path / "a") == table_bytes(b, tmp_path / "b")
        check_tables(a, tmp_path / "c", ["generations.csv"])


class TestGuidedSearch:
    def test_rows_and_shared_starts(self, small_archive):
        config = GuidedSearchConfig(landscape=LAND, target_seed=70,
                                    replicates=3, budget=12, n=3, seed=8)
        result = run_guided_search(small_archive, config)
        assert len(result.rows) == 3 * 2 * 12
        for rep in range(3):
            r_trace = result.traces["random"][rep]
            g_trace = result.traces["guided"][rep]
            assert r_trace.start == g_trace.start
            assert r_trace.start_fitness == g_trace.start_fitness
        assert set(result.summary.median_final) == {"random", "guided"}
        assert 0 <= result.summary.p_final_guided_vs_random <= 1

    def test_uniform_override(self, small_archive):
        config = GuidedSearchConfig(landscape=LAND, target_seed=71,
                                    replicates=2, budget=8, n=3, seed=9)
        model = Metamodel.uniform(LearnConfig(genotype=SMALL))
        result = run_guided_search(small_archive, config, metamodel=model)
        assert result.metamodel is model
        wrong = Metamodel.uniform(
            LearnConfig(genotype=GenotypeConfig.per_network()))
        with pytest.raises(ValidationError):
            run_guided_search(small_archive, config, metamodel=wrong)

    def test_deterministic(self, small_archive, tmp_path):
        config = GuidedSearchConfig(landscape=LAND, target_seed=72,
                                    replicates=2, budget=10, n=3, seed=10)
        a = run_guided_search(small_archive, config)
        b = run_guided_search(small_archive, config)
        assert a.rows == b.rows
        assert table_bytes(a, tmp_path / "a") == table_bytes(b, tmp_path / "b")
        check_tables(a, tmp_path / "c", ["steps.csv"])
        assert {r.accepted for r in a.rows} == {True, False}

    def test_target_seed_must_be_fresh(self, small_archive):
        config = GuidedSearchConfig(landscape=LAND, target_seed=2,
                                    replicates=2, budget=5, n=3)
        with pytest.raises(ValidationError):
            run_guided_search(small_archive, config)
