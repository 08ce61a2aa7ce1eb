"""End-to-end tests of the command-line surface (exit codes, artifacts)."""

import csv
import json

import numpy as np
import pytest

from archsmith.archive import Individual, RunArchive, load_archive, save_archive
from archsmith.cli import main
from archsmith.experiments import ArchiveGenConfig, generate_archive
from archsmith.genotype import GenotypeConfig, gan_hash, random_gan
from archsmith.landscape import LandscapeConfig, make_landscape, save_landscape
from archsmith.metamodel import load_metamodel

SMALL = GenotypeConfig.joint(
    arity=2,
    activations=("relu", "tanh"),
    weight_inits=("xavier", "normal"),
    generator_depth_max=2,
    discriminator_depth_max=2,
)
LAND = LandscapeConfig(genotype=SMALL, family_seed=5, base_scale=10.0)


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("archive") / "runs.jsonl"
    config = ArchiveGenConfig(landscape=LAND, problem_seeds=(0, 1, 2),
                              runs_per_problem=2, population=8,
                              generations=4)
    save_archive(generate_archive(config), path)
    return path


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, archive_path):
    path = tmp_path_factory.mktemp("model") / "model.json"
    code = main(["learn", "--archive", str(archive_path), "--n", "3",
                 "--out", str(path)])
    assert code == 0
    return path


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestIngest:
    def test_round_trip(self, archive_path, tmp_path):
        out = tmp_path / "clean.jsonl"
        assert main(["ingest", "--raw", str(archive_path),
                     "--out", str(out)]) == 0
        a = load_archive(archive_path)
        b = load_archive(out)
        assert a.content_hash() == b.content_hash()

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["ingest", "--raw", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o.jsonl")]) == 2

    def test_empty_file_is_validation_error(self, tmp_path):
        raw = tmp_path / "empty.jsonl"
        raw.write_text("")
        assert main(["ingest", "--raw", str(raw),
                     "--out", str(tmp_path / "o.jsonl")]) == 1

    def test_missing_out_flag(self, archive_path):
        assert main(["ingest", "--raw", str(archive_path)]) == 1


class TestLearnScoreSample:
    def test_learn_writes_model(self, model_path, archive_path):
        model = load_metamodel(model_path)
        assert model.provenance["elite_n"] == 3
        archive = load_archive(archive_path)
        assert model.provenance["archive_hash"] == archive.content_hash()

    def test_learn_structure_flag(self, archive_path, tmp_path):
        out = tmp_path / "cl.json"
        assert main(["learn", "--archive", str(archive_path), "--n", "3",
                     "--structure", "chow_liu", "--out", str(out)]) == 0
        assert load_metamodel(out).learn_config.structure == "chow_liu"

    def test_score_archive(self, model_path, archive_path, tmp_path):
        out = tmp_path / "scores.csv"
        assert main(["score", "--model", str(model_path),
                     "--genotypes", str(archive_path),
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == load_archive(archive_path).n_individuals
        for row in rows[:5]:
            assert float(row["log_prob"]) < 0

    def test_score_warns_on_foreign_archive(self, model_path, tmp_path,
                                            caplog):
        rng = np.random.default_rng(3)
        inds = [Individual(gan=random_gan(rng, SMALL), fitness=float(i),
                           run_id="r0", problem_id="9") for i in range(4)]
        other = RunArchive(runs={"r0": inds}, config=SMALL)
        other_path = tmp_path / "other.jsonl"
        save_archive(other, other_path)
        out = tmp_path / "scores.csv"
        with caplog.at_level("WARNING"):
            assert main(["score", "--model", str(model_path),
                         "--genotypes", str(other_path),
                         "--out", str(out)]) == 0
        assert any("provenance" in r.message for r in caplog.records)

    def test_sample_then_score_jsonl(self, model_path, tmp_path):
        samples = tmp_path / "samples.jsonl"
        assert main(["sample", "--model", str(model_path), "--n", "20",
                     "--seed", "5", "--out", str(samples)]) == 0
        lines = samples.read_text().strip().splitlines()
        assert len(lines) == 20
        out = tmp_path / "scores.csv"
        assert main(["score", "--model", str(model_path),
                     "--genotypes", str(samples), "--out", str(out)]) == 0
        assert len(read_csv(out)) == 20

    def test_sample_writes_json_dumps_lines(self, model_path, tmp_path):
        samples = tmp_path / "samples.jsonl"
        assert main(["sample", "--model", str(model_path), "--n", "20",
                     "--seed", "5", "--out", str(samples)]) == 0
        gans = load_metamodel(model_path).sample_many(
            np.random.default_rng(5), 20)
        want = "".join(json.dumps(gan.to_json_obj(), sort_keys=True) + "\n"
                       for gan in gans)
        assert samples.read_bytes() == want.encode()

    @pytest.mark.parametrize("lines,bad", [
        (["GAN", "{not json"], "line 2: not valid JSON"),
        (["5", "GAN"], "line 1: genotype record must be a JSON object"),
        (["GAN", "5"], "line 2: genotype record must be a JSON object"),
    ], ids=["malformed-second", "number-first", "number-second"])
    def test_score_bad_genotype_line_is_one_error_line(
            self, lines, bad, model_path, tmp_path, capsys):
        gan = random_gan(np.random.default_rng(4), SMALL)
        genotypes = tmp_path / "gans.jsonl"
        genotypes.write_text("".join(
            (json.dumps(gan.to_json_obj()) if line == "GAN" else line) + "\n"
            for line in lines))
        capsys.readouterr()
        assert main(["score", "--model", str(model_path),
                     "--genotypes", str(genotypes),
                     "--out", str(tmp_path / "scores.csv")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and bad in err[0]

    def test_sample_deterministic(self, model_path, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert main(["sample", "--model", str(model_path), "--n", "10",
                         "--seed", "7", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSearch:
    def test_random_search_with_config(self, tmp_path):
        cfg = tmp_path / "land.json"
        cfg.write_text(json.dumps(LAND.to_json_obj()))
        out = tmp_path / "trace.csv"
        assert main(["search", "--landscape-config", str(cfg),
                     "--landscape-seed", "11", "--algorithm", "random",
                     "--budget", "15", "--seed", "2",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 16
        assert rows[0]["step"] == "0"

    def test_guided_search_with_saved_landscape(self, model_path, tmp_path):
        land_path = tmp_path / "land.json"
        save_landscape(make_landscape(12, LAND), land_path)
        out = tmp_path / "trace.csv"
        assert main(["search", "--landscape", str(land_path),
                     "--algorithm", "guided", "--model", str(model_path),
                     "--budget", "10", "--seed", "3",
                     "--out", str(out)]) == 0
        assert len(read_csv(out)) == 11

    def test_guided_requires_model(self, tmp_path):
        cfg = tmp_path / "land.json"
        cfg.write_text(json.dumps(LAND.to_json_obj()))
        assert main(["search", "--landscape-config", str(cfg),
                     "--algorithm", "guided", "--budget", "5",
                     "--out", str(tmp_path / "t.csv")]) == 1

    def test_landscape_source_required(self, tmp_path):
        assert main(["search", "--algorithm", "random",
                     "--out", str(tmp_path / "t.csv")]) == 1


class TestGenArchiveAndExperiment:
    def test_gen_archive_matches_api(self, tmp_path):
        cfg = {"landscape": LAND.to_json_obj(), "problem_seeds": "0..1",
               "runs_per_problem": 1, "population": 6, "generations": 2}
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "arch.jsonl"
        assert main(["gen-archive", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        got = load_archive(out)
        want = generate_archive(ArchiveGenConfig(
            landscape=LAND, problem_seeds=(0, 1), runs_per_problem=1,
            population=6, generations=2))
        assert got.content_hash() == want.content_hash()

    def test_gen_archive_byte_identical_rerun(self, tmp_path):
        cfg = {"landscape": LAND.to_json_obj(), "problem_seeds": [0],
               "runs_per_problem": 1, "population": 6, "generations": 2}
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(cfg))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["gen-archive", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_experiment_likelihood(self, archive_path, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(
            {"landscape": LAND.to_json_obj(), "n": 3, "seed": 1,
             "min_scored": 6}))
        out_dir = tmp_path / "out"
        assert main(["experiment", "--id", "likelihood",
                     "--archive", str(archive_path),
                     "--config", str(cfg_path),
                     "--out-dir", str(out_dir)]) == 0
        scores = read_csv(out_dir / "scores.csv")
        assert len(scores) == 6 * 3 * 3
        assert (out_dir / "tests.csv").exists()

    def test_experiment_guided_writes_summary(self, archive_path, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(
            {"landscape": LAND.to_json_obj(), "target_seed": 70,
             "replicates": 2, "budget": 8, "n": 3, "seed": 2}))
        out_dir = tmp_path / "out"
        assert main(["experiment", "--id", "guided-search",
                     "--archive", str(archive_path),
                     "--config", str(cfg_path),
                     "--out-dir", str(out_dir)]) == 0
        steps = read_csv(out_dir / "steps.csv")
        assert len(steps) == 2 * 2 * 8
        summary = json.loads((out_dir / "summary.json").read_text())
        assert set(summary["median_final"]) == {"random", "guided"}

    def test_experiment_rerun_byte_identical(self, archive_path, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(
            {"landscape": LAND.to_json_obj(), "target_seed": 71,
             "replicates": 2, "population": 6, "generations": 2, "n": 3,
             "seed": 3}))
        dirs = (tmp_path / "o1", tmp_path / "o2")
        for out_dir in dirs:
            assert main(["experiment", "--id", "initialization",
                         "--archive", str(archive_path),
                         "--config", str(cfg_path),
                         "--out-dir", str(out_dir)]) == 0
        for name in ("generations.csv", "summary.json"):
            assert (dirs[0] / name).read_bytes() == \
                (dirs[1] / name).read_bytes()

    def test_unknown_ea_key_is_validation_error(self, tmp_path, capsys):
        cfg = {"landscape": LAND.to_json_obj(), "problem_seeds": [0],
               "runs_per_problem": 1, "population": 6, "generations": 2,
               "ea": {"bogus": 1, "elitism": 2}}
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["gen-archive", "--config", str(cfg_path),
                     "--out", str(tmp_path / "a.jsonl")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "bogus" in err[0]
        assert "elitism" not in err[0]

    @pytest.mark.parametrize("command", ["gen-archive", "likelihood",
                                         "sampling", "initialization",
                                         "guided-search"])
    def test_empty_config_names_landscape(self, command, archive_path,
                                          tmp_path, capsys):
        cfg_path = tmp_path / "empty.json"
        cfg_path.write_text("{}")
        if command == "gen-archive":
            argv = ["gen-archive", "--out", str(tmp_path / "a.jsonl")]
        else:
            argv = ["experiment", "--id", command,
                    "--archive", str(archive_path),
                    "--out-dir", str(tmp_path / "o")]
        assert main(argv + ["--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "'landscape'" in err[0]

    def test_sampling_config_without_train_seeds(self, archive_path,
                                                 tmp_path, capsys):
        cfg_path = tmp_path / "sampling.json"
        cfg_path.write_text(json.dumps({"landscape": LAND.to_json_obj()}))
        assert main(["experiment", "--id", "sampling",
                     "--archive", str(archive_path),
                     "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "'train_seeds'" in err[0]

    def test_bad_config_is_validation_error(self, archive_path, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{not json")
        assert main(["experiment", "--id", "likelihood",
                     "--archive", str(archive_path),
                     "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("command,where,field", [
        ("likelihood", None, "n"),
        ("sampling", None, "n_each"),
        ("initialization", None, "generations"),
        ("guided-search", None, "budget"),
        ("gen-archive", None, "population"),
        ("likelihood", "landscape", "sigma_noise"),
        ("gen-archive", "landscape", "family_seed"),
        ("likelihood", "genotype", "arity"),
        ("gen-archive", "genotype", "discriminator_depth_max"),
        ("likelihood", "learn", "alpha"),
        ("initialization", "ea", "elitism"),
    ])
    def test_non_numeric_field_is_one_error_line(self, command, where, field,
                                                 archive_path, tmp_path,
                                                 capsys):
        cfg = {"landscape": LAND.to_json_obj(), "train_seeds": [0]}
        targets = {None: cfg, "landscape": cfg["landscape"],
                   "genotype": cfg["landscape"]["genotype"]}
        target = (targets[where] if where in targets
                  else cfg.setdefault(where, {}))
        target[field] = "ten" if where is None else "x"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        if command == "gen-archive":
            argv = ["gen-archive", "--out", str(tmp_path / "a.jsonl")]
        else:
            argv = ["experiment", "--id", command,
                    "--archive", str(archive_path),
                    "--out-dir", str(tmp_path / "o")]
        assert main(argv + ["--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and repr(field) in err[0]

    @pytest.mark.parametrize("where,field,value", [
        (None, "n", 2.9),
        (None, "n", True),
        ("learn", "min_samples", True),
        ("learn", "mi_correction", "false"),
        ("learn", "alpha", True),
        ("landscape", "flip_prob", "0.5"),
    ])
    def test_wrong_typed_field_is_one_error_line(self, where, field, value,
                                                 archive_path, tmp_path,
                                                 capsys):
        cfg = {"landscape": LAND.to_json_obj()}
        (cfg.setdefault(where, {}) if where else cfg)[field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["experiment", "--id", "likelihood",
                     "--archive", str(archive_path),
                     "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and repr(field) in err[0]

    def test_bad_seed_list_is_one_error_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps({"landscape": LAND.to_json_obj(),
                                        "problem_seeds": [0, "one"]}))
        assert main(["gen-archive", "--config", str(cfg_path),
                     "--out", str(tmp_path / "a.jsonl")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "seed list" in err[0]

    def test_config_checked_before_archive(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"landscape": LAND.to_json_obj(),
                                        "n": "ten"}))
        assert main(["experiment", "--id", "likelihood",
                     "--archive", str(tmp_path / "missing.jsonl"),
                     "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "'n'" in err[0]


class TestAnalyze:
    @pytest.fixture()
    def steps_csv(self, tmp_path):
        path = tmp_path / "steps.csv"
        rng = np.random.default_rng(0)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["algorithm", "replicate", "step", "fitness",
                             "best", "accepted"])
            for algo, shift in (("random", 5.0), ("guided", 0.0)):
                for rep in range(8):
                    best = 20.0 + shift + rng.uniform(0, 1)
                    for step in (1, 2, 3):
                        best -= rng.uniform(0, 1)
                        writer.writerow([algo, rep, step,
                                         repr(best + 0.5), repr(best), 1])
        return path

    def test_ranksum(self, steps_csv, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["analyze", "--traces", str(steps_csv),
                     "--test", "ranksum", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["groups"] == "guided;random"
        assert float(rows[0]["p_value"]) < 0.01

    def test_kw_and_dunn(self, steps_csv, tmp_path):
        out = tmp_path / "k.csv"
        assert main(["analyze", "--traces", str(steps_csv),
                     "--test", "kw", "--out", str(out)]) == 0
        assert float(read_csv(out)[0]["p_value"]) < 0.01
        assert main(["analyze", "--traces", str(steps_csv),
                     "--test", "dunn", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert {rows[0]["group_a"], rows[0]["group_b"]} == {"guided",
                                                            "random"}

    def test_missing_column(self, steps_csv, tmp_path):
        assert main(["analyze", "--traces", str(steps_csv),
                     "--test", "kw", "--value", "loss",
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("column", ["best", "step"])
    def test_non_numeric_cell_names_file_row_and_column(
            self, steps_csv, tmp_path, capsys, column):
        with open(steps_csv, newline="") as handle:
            rows = list(csv.reader(handle))
        rows[4][rows[0].index(column)] = "n/a"
        with open(steps_csv, "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        assert main(["analyze", "--traces", str(steps_csv),
                     "--test", "kw", "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:")
        assert str(steps_csv) in err[0]
        assert "line 5" in err[0] and repr(column) in err[0]
        assert "'n/a'" in err[0]

    def test_unknown_flag_is_validation_error(self):
        assert main(["analyze", "--bogus"]) == 1
