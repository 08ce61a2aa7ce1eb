"""Archive loading and First/Second/Random extraction."""

import json

import numpy as np
import pytest

from archsmith.archive import (
    EliteSets,
    Individual,
    RunArchive,
    extract_sets,
    filter_depths,
    load_archive,
    load_sets,
    save_archive,
    save_sets,
    sets_content_hash,
)
from archsmith.errors import FormatError, ValidationError
from archsmith.genotype import DepthKey, GenotypeConfig, gan_hash, random_gan

CONFIG = GenotypeConfig.joint()


def make_individual(rng, fitness, run_id="r0", problem_id="p0",
                    depth_key=None, config=CONFIG):
    gan = random_gan(rng, config, depth_key=depth_key)
    return Individual(gan=gan, fitness=fitness, run_id=run_id,
                      problem_id=problem_id)


def make_archive(rng, n_runs, run_size, config=CONFIG):
    runs = {}
    for r in range(n_runs):
        run_id = f"run{r:03d}"
        runs[run_id] = [
            make_individual(rng, float(rng.uniform(0, 10)), run_id=run_id,
                            problem_id=f"p{r}", config=config)
            for _ in range(run_size)
        ]
    return RunArchive(runs=runs, config=config)


class TestIndividual:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        ind = make_individual(rng, 0.25)
        again = Individual.from_json_obj(ind.to_json_obj())
        assert again == ind

    def test_nonfinite_fitness_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            make_individual(rng, float("nan"))
        with pytest.raises(ValidationError):
            make_individual(rng, float("inf"))

    def test_missing_field_rejected(self):
        rng = np.random.default_rng(0)
        obj = make_individual(rng, 1.0).to_json_obj()
        del obj["fitness"]
        with pytest.raises(FormatError):
            Individual.from_json_obj(obj)


class TestLoadSave:
    def test_round_trip_groups(self, tmp_path):
        rng = np.random.default_rng(1)
        archive = make_archive(rng, n_runs=2, run_size=12)
        path = tmp_path / "runs.jsonl"
        save_archive(archive, path)
        loaded = load_archive(path)
        assert loaded.n_runs == 2
        assert all(len(v) == 12 for v in loaded.runs.values())
        assert loaded.config == CONFIG
        assert loaded.content_hash() == archive.content_hash()

    def test_corrupt_line_reported_with_number(self, tmp_path):
        rng = np.random.default_rng(2)
        archive = make_archive(rng, n_runs=1, run_size=10)
        path = tmp_path / "runs.jsonl"
        save_archive(archive, path)
        lines = path.read_text().splitlines()
        lines[5] = "{this is not json"
        path.write_text("\n".join(lines) + "\n")
        loaded = load_archive(path)
        assert loaded.n_individuals == 9
        assert any("line 6" in d for d in loaded.diagnostics)

    def test_empty_file_is_error(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError, match="no runs"):
            load_archive(path)

    def test_out_of_bounds_depth_rejected_with_count(self, tmp_path):
        rng = np.random.default_rng(3)
        wide = GenotypeConfig.joint(generator_depth_max=6)
        deep = make_individual(rng, 1.0, depth_key=DepthKey(6, 2), config=wide)
        ok = make_individual(rng, 2.0)
        path = tmp_path / "runs.jsonl"
        with open(path, "w") as handle:
            for ind in (ok, deep):
                handle.write(json.dumps(ind.to_json_obj()) + "\n")
        loaded = load_archive(path, config=CONFIG)
        assert loaded.n_individuals == 1
        assert loaded.rejected == 1

    def test_header_without_config_names_file_and_line(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "runs.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps(
                make_individual(rng, 1.0).to_json_obj()) + "\n")
            handle.write(json.dumps({"format": "archive-v1"}) + "\n")
        with pytest.raises(FormatError, match="line 2") as info:
            load_archive(path)
        assert str(path) in str(info.value)
        assert "config" in str(info.value)

    def test_equal_layers_load_as_one_object(self, tmp_path):
        rng = np.random.default_rng(6)
        archive = make_archive(rng, n_runs=3, run_size=40)
        path = tmp_path / "runs.jsonl"
        save_archive(archive, path)
        loaded = load_archive(path)
        assert loaded == archive
        assert loaded.content_hash() == archive.content_hash()
        layers = [layer for ind in loaded.all_individuals()
                  for net in (ind.gan.generator, ind.gan.discriminator)
                  for layer in net.layers]
        shared = {}
        assert all(shared.setdefault(layer, layer) is layer
                   for layer in layers)
        assert len(shared) < len(layers)

    def test_malformed_layer_records_keep_line_diagnostics(self, tmp_path):
        rng = np.random.default_rng(7)
        archive = make_archive(rng, n_runs=1, run_size=10)
        path = tmp_path / "runs.jsonl"
        save_archive(archive, path)
        lines = path.read_text().splitlines()
        for lineno, edit in ((3, lambda l: l.pop("activation")),
                             (4, lambda l: l.update(size_bin="x")),
                             (5, lambda l: l.update(kind=["dense"]))):
            obj = json.loads(lines[lineno - 1])
            edit(obj["gan"]["generator"]["layers"][0])
            lines[lineno - 1] = json.dumps(obj)
        obj = json.loads(lines[5])
        obj["fitness"] = "abc"
        lines[5] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        loaded = load_archive(path)
        assert loaded.diagnostics[:3] == [
            "line 3: bad layer record: 'activation'",
            "line 4: bad layer record: invalid literal for int() with "
            "base 10: 'x'",
            "line 6: bad archive record: could not convert string to "
            "float: 'abc'",
        ]
        assert loaded.rejected == 1
        assert "layer kind ['dense'] not legal" in loaded.diagnostics[3]
        assert loaded.n_individuals == 10 - 4

    def test_header_supplies_config(self, tmp_path):
        rng = np.random.default_rng(4)
        config = GenotypeConfig.per_network()
        archive = make_archive(rng, 1, 4, config=config)
        path = tmp_path / "runs.jsonl"
        save_archive(archive, path)
        assert load_archive(path).config == config


class TestExtractSets:
    def test_rank_slices(self):
        # Fitnesses 0.1..1.2; n=5 puts 0.1..0.5 in first, 0.6..1.0 in second.
        rng = np.random.default_rng(5)
        fits = [round(0.1 * i, 1) for i in range(1, 13)]
        rng.shuffle(fits)
        runs = {"r0": [make_individual(rng, f, run_id="r0") for f in fits]}
        sets = extract_sets(RunArchive(runs=runs, config=CONFIG), n=5, seed=0)
        assert sorted(i.fitness for i in sets.first) == pytest.approx(
            [0.1, 0.2, 0.3, 0.4, 0.5])
        assert sorted(i.fitness for i in sets.second) == pytest.approx(
            [0.6, 0.7, 0.8, 0.9, 1.0])
        assert len(sets.random) == 5

    def test_480_runs_gives_2400_first(self):
        rng = np.random.default_rng(6)
        archive = make_archive(rng, n_runs=480, run_size=10)
        sets = extract_sets(archive, n=5, seed=1)
        assert len(sets.first) == 2400
        assert len(sets.second) == 2400
        assert len(sets.random) == 2400

    def test_same_seed_same_random_set(self):
        rng = np.random.default_rng(7)
        archive = make_archive(rng, n_runs=4, run_size=12)
        a = extract_sets(archive, n=5, seed=9)
        b = extract_sets(archive, n=5, seed=9)
        assert a.random == b.random
        c = extract_sets(archive, n=5, seed=10)
        assert a.random != c.random

    def test_short_run_error_names_run(self):
        rng = np.random.default_rng(8)
        archive = make_archive(rng, n_runs=1, run_size=9)
        with pytest.raises(ValidationError, match="run000"):
            extract_sets(archive, n=5, seed=0)

    def test_first_second_disjoint_and_boundary(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            archive = make_archive(rng, n_runs=3, run_size=11)
            sets = extract_sets(archive, n=4, seed=trial)
            first_keys = {(i.fitness, gan_hash(i.gan)) for i in sets.first}
            second_keys = {(i.fitness, gan_hash(i.gan)) for i in sets.second}
            assert not first_keys & second_keys
            for run_id in archive.runs:
                run_first = [i for i in sets.first if i.run_id == run_id]
                run_second = [i for i in sets.second if i.run_id == run_id]
                assert len(run_first) == len(run_second) == 4
                assert max(i.fitness for i in run_first) <= min(
                    i.fitness for i in run_second)

    def test_shuffle_invariance(self, tmp_path):
        rng = np.random.default_rng(10)
        archive = make_archive(rng, n_runs=3, run_size=12)
        path = tmp_path / "runs.jsonl"
        save_archive(archive, path)
        lines = path.read_text().splitlines()
        header, records = lines[0], lines[1:]
        rng.shuffle(records)
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("\n".join([header] + records) + "\n")
        a = extract_sets(load_archive(path), n=5, seed=3)
        b = extract_sets(load_archive(shuffled), n=5, seed=3)
        assert sets_content_hash(a) == sets_content_hash(b)

    def test_equal_fitness_ties_broken_by_hash(self):
        rng = np.random.default_rng(11)
        inds = [make_individual(rng, 1.0, run_id="r0") for _ in range(4)]
        runs = {"r0": inds}
        sets = extract_sets(RunArchive(runs=runs, config=CONFIG), n=2, seed=0)
        expected = sorted(inds, key=lambda i: gan_hash(i.gan))
        assert sets.first == expected[:2]
        assert sets.second == expected[2:4]

    def test_overlap_count_matches_definition(self):
        rng = np.random.default_rng(12)
        archive = make_archive(rng, n_runs=5, run_size=12)
        n = 4
        sets = extract_sets(archive, n=n, seed=2)
        elite = {(i.fitness, gan_hash(i.gan))
                 for i in sets.first + sets.second}
        observed = sum(1 for i in sets.random
                       if (i.fitness, gan_hash(i.gan)) in elite)
        assert sets.overlap_count == observed


class TestFilterDepths:
    def test_identity_and_empty(self):
        rng = np.random.default_rng(13)
        inds = [make_individual(rng, float(i)) for i in range(10)]
        kept, frac = filter_depths(inds, CONFIG.depth_keys())
        assert kept == inds and frac == 1.0
        kept, frac = filter_depths(inds, [])
        assert kept == [] and frac == 0.0

    def test_single_key(self):
        rng = np.random.default_rng(14)
        inds = [make_individual(rng, 0.0, depth_key=DepthKey(1, 1))
                for _ in range(3)]
        inds += [make_individual(rng, 0.0, depth_key=DepthKey(2, 3))
                 for _ in range(7)]
        kept, frac = filter_depths(inds, [DepthKey(1, 1)])
        assert len(kept) == 3
        assert all(i.depth_key == DepthKey(1, 1) for i in kept)
        assert frac == pytest.approx(0.3)


class TestSetsIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        archive = make_archive(rng, n_runs=2, run_size=10)
        sets = extract_sets(archive, n=3, seed=4)
        path = tmp_path / "sets.json"
        save_sets(sets, path)
        loaded = load_sets(path)
        assert loaded == EliteSets(first=sets.first, second=sets.second,
                                   random=sets.random, n=3, seed=4,
                                   overlap_count=sets.overlap_count,
                                   config=CONFIG)

    def test_bytes_equal_json_dump(self, tmp_path):
        rng = np.random.default_rng(16)
        sets = extract_sets(make_archive(rng, n_runs=2, run_size=10), n=3,
                            seed=4)
        path = tmp_path / "sets.json"
        save_sets(sets, path)
        doc = {"format": "sets-v1", "n": 3, "seed": 4,
               "overlap_count": sets.overlap_count,
               "config": CONFIG.to_json_obj(),
               **{name: [i.to_json_obj() for i in sets.by_name(name)]
                  for name in ("first", "second", "random")}}
        reference = tmp_path / "reference.json"
        with open(reference, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, sort_keys=True)
            handle.write("\n")
        assert path.read_bytes() == reference.read_bytes()

    def test_corrupt_rejected(self, tmp_path):
        path = tmp_path / "sets.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="corrupt"):
            load_sets(path)

    def test_wrong_tag_rejected(self, tmp_path):
        path = tmp_path / "sets.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(FormatError):
            load_sets(path)
