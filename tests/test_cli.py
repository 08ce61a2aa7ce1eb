"""End-to-end tests of the command-line surface (exit codes, artifacts)."""

import copy
import csv
import dataclasses
import json
import math
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from archsmith import archive as archive_module
from archsmith.archive import (Individual, RunArchive, load_archive,
                               save_archive)
from archsmith.cli import EXPERIMENTS, main
from archsmith.experiments import ArchiveGenConfig, generate_archive
from archsmith.genotype import DepthKey, GenotypeConfig
from archsmith.landscape import LandscapeConfig, make_landscape, save_landscape
from archsmith.metamodel import (LearnConfig, Metamodel, load_metamodel,
                                 save_metamodel)
from test_archive import individual
from test_genotype import gan_json, random_gan
from test_metamodel import mm_v1_document

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

    def test_late_header_is_one_error_line(self, archive_path, tmp_path,
                                           capsys):
        raw = tmp_path / "raw.jsonl"
        lines = archive_path.read_text().splitlines()
        raw.write_text("\n".join(lines[1:4] + lines[:1]) + "\n")
        capsys.readouterr()
        assert main(["ingest", "--raw", str(raw),
                     "--out", str(tmp_path / "o.jsonl")]) == 1
        one_error_line(capsys, f"error: {raw}: line 4: archive-v1 header "
                               f"after line 1")

    @pytest.mark.parametrize("config,message", [
        ({"arity": "x"}, "bad genotype config: missing key 'mode'"),
        ({"aritty": 2}, "unknown genotype config key(s): aritty"),
    ])
    def test_bad_header_config_names_file_and_line(self, tmp_path, capsys,
                                                   config, message):
        raw = tmp_path / "raw.jsonl"
        raw.write_text(json.dumps({"format": "archive-v1",
                                   "config": config}) + "\n")
        capsys.readouterr()
        assert main(["ingest", "--raw", str(raw),
                     "--out", str(tmp_path / "o.jsonl")]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {raw}: line 1: {message}"]

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

    def test_score_archive_after_blank_lines(self, model_path, archive_path,
                                             tmp_path):
        # load_archive takes the header from the first non-blank line, and
        # so does score's sniff of the file.
        path = tmp_path / "blank-first.jsonl"
        path.write_text("\n  \n" + archive_path.read_text())
        want, out = tmp_path / "want.csv", tmp_path / "scores.csv"
        for genotypes, csv_path in ((archive_path, want), (path, out)):
            assert main(["score", "--model", str(model_path),
                         "--genotypes", str(genotypes),
                         "--out", str(csv_path)]) == 0
        assert out.read_bytes() == want.read_bytes()
        assert list(read_csv(out)[0])[:2] == ["run_id", "problem_id"]

    def test_score_headerless_archive(self, model_path, archive_path,
                                      tmp_path, caplog):
        # Without its header the archive is read in the default joint
        # space, as load_archive reads it, and each row is scored as the
        # model's own.
        lines = archive_path.read_text().splitlines(keepends=True)
        assert '"format": "archive-v1"' in lines[0]
        path = tmp_path / "headerless.jsonl"
        path.write_text("".join(lines[1:]))
        want, out = tmp_path / "want.csv", tmp_path / "scores.csv"
        assert main(["score", "--model", str(model_path),
                     "--genotypes", str(archive_path),
                     "--out", str(want)]) == 0
        with caplog.at_level("WARNING"):
            assert main(["score", "--model", str(model_path),
                         "--genotypes", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == want.read_bytes()
        assert any("provenance mismatch" in r.message
                   for r in caplog.records)

    def test_score_warns_on_foreign_archive(self, model_path, tmp_path,
                                            caplog):
        rng = np.random.default_rng(3)
        inds = [individual(random_gan(rng, SMALL), float(i), "r0", "9",
                           SMALL) for i in range(4)]
        other = RunArchive(runs={"r0": inds}, config=SMALL)
        other_path = tmp_path / "other.jsonl"
        save_archive(other, other_path)
        out = tmp_path / "scores.csv"
        with caplog.at_level("WARNING"):
            assert main(["score", "--model", str(model_path),
                         "--genotypes", str(other_path),
                         "--out", str(out)]) == 0
        assert "provenance mismatch: archive hash differs from the one " \
            "learned from" in [r.getMessage() for r in caplog.records]

    def test_score_hashes_no_archive_for_a_model_without_its_hash(
            self, archive_path, tmp_path, monkeypatch):
        # A uniform model records no archive hash, so there is nothing to
        # compare the archive's against, and no record text to render.
        path = tmp_path / "uniform.json"
        save_metamodel(Metamodel.uniform(LearnConfig(genotype=SMALL)), path)
        rendered = []
        original = archive_module._record_texts
        monkeypatch.setattr(archive_module, "_record_texts",
                            lambda inds: rendered.append(1) or original(inds))
        out = tmp_path / "scores.csv"
        assert main(["score", "--model", str(path), "--genotypes",
                     str(archive_path), "--out", str(out)]) == 0
        assert len(read_csv(out)) == load_archive(archive_path).n_individuals
        assert rendered == []

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
        want = "".join(json.dumps(gan_json(gan), sort_keys=True) + "\n"
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
            (json.dumps(gan_json(gan)) if line == "GAN" else line) + "\n"
            for line in lines))
        capsys.readouterr()
        assert main(["score", "--model", str(model_path),
                     "--genotypes", str(genotypes),
                     "--out", str(tmp_path / "scores.csv")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and bad in err[0]

    def test_score_fractional_size_bin_is_one_error_line(
            self, model_path, tmp_path, capsys):
        obj = gan_json(random_gan(np.random.default_rng(4), SMALL))
        obj["generator"]["layers"][0]["size_bin"] = 1.9
        genotypes = tmp_path / "gans.jsonl"
        genotypes.write_text(json.dumps(obj) + "\n")
        capsys.readouterr()
        assert main(["score", "--model", str(model_path),
                     "--genotypes", str(genotypes),
                     "--out", str(tmp_path / "scores.csv")]) == 1
        one_error_line(capsys, "line 1", "'size_bin' is 1.9")

    def test_score_out_of_space_genotype_names_file_and_line(
            self, model_path, tmp_path, capsys):
        obj = gan_json(random_gan(np.random.default_rng(4), SMALL))
        good = json.dumps(obj)
        obj["discriminator"]["layers"][-1]["activation"] = "swish"
        genotypes = tmp_path / "gans.jsonl"
        genotypes.write_text(good + "\n" + json.dumps(obj) + "\n")
        capsys.readouterr()
        assert main(["score", "--model", str(model_path),
                     "--genotypes", str(genotypes),
                     "--out", str(tmp_path / "scores.csv")]) == 1
        one_error_line(capsys, f"error: {genotypes}: line 2: unknown "
                               f"activation 'swish'")

    def test_score_foreign_archive_in_the_model_space(self, model_path,
                                                      tmp_path):
        # The archive's rows are in another layout; each genotype is
        # scored as the model's own row.
        foreign = GenotypeConfig.joint(
            arity=3, activations=("tanh", "elu", "relu"),
            weight_inits=("normal", "xavier"), generator_depth_max=2,
            discriminator_depth_max=2)
        rng = np.random.default_rng(6)
        gans = [random_gan(rng, SMALL) for _ in range(12)]
        runs = {"r0": [individual(gan, float(i), "r0", "p", foreign)
                       for i, gan in enumerate(gans)]}
        path = tmp_path / "foreign.jsonl"
        save_archive(RunArchive(runs=runs, config=foreign), path)
        out = tmp_path / "scores.csv"
        assert main(["score", "--model", str(model_path),
                     "--genotypes", str(path), "--out", str(out)]) == 0
        model = load_metamodel(model_path)
        want = [model.score(gan) for gan in gans]
        assert [(float(row["log_prob"]), float(row["normalized"]))
                for row in read_csv(out)] == [
            (b.log_prob, b.normalized) for b in want]

    def test_score_archive_outside_the_model_space_names_file_and_run(
            self, model_path, tmp_path, capsys):
        # A default-joint archive under a two-activation model: run r1's
        # generator layer is a leaky_relu one, which the model lacks.
        joint = GenotypeConfig.joint()
        runs = {run_id: [Individual(DepthKey(1, 1), (0, 0, activation, 0, 0,
                                                    0, 0, 0, 0),
                                    1.0, run_id, "p", joint)]
                for run_id, activation in (("r0", 0), ("r1", 1))}
        path = tmp_path / "joint.jsonl"
        save_archive(RunArchive(runs=runs, config=joint), path)
        capsys.readouterr()
        assert main(["score", "--model", str(model_path),
                     "--genotypes", str(path),
                     "--out", str(tmp_path / "scores.csv")]) == 1
        one_error_line(capsys, f"error: {path}: run r1: unknown activation "
                               f"'leaky_relu'")

    def test_sample_deterministic(self, model_path, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert main(["sample", "--model", str(model_path), "--n", "10",
                         "--seed", "7", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


def one_error_line(capsys, *needles):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    assert all(needle in err[0] for needle in needles), err[0]


class TestNonFiniteNumbers:
    """Python's JSON reader accepts NaN and Infinity; configs and model files
    holding them are rejected with one error line."""

    @pytest.mark.parametrize("field,value", [
        ("super_pseudocount", math.nan),
        ("alpha", math.inf),
        ("dpi_tolerance", -math.inf),
    ])
    def test_learn_config(self, field, value, archive_path, tmp_path,
                          capsys):
        cfg_path = tmp_path / "learn.json"
        cfg_path.write_text(json.dumps({field: value}))
        out = tmp_path / "model.json"
        capsys.readouterr()
        assert main(["learn", "--archive", str(archive_path), "--n", "3",
                     "--config", str(cfg_path), "--out", str(out)]) == 1
        one_error_line(capsys, repr(field))
        assert not out.exists()

    @pytest.mark.parametrize("where,field,value", [
        ("landscape", "sigma_noise", math.nan),
        ("ea", "mutation_rate", math.inf),
        ("learn", "alpha", math.nan),
    ])
    def test_experiment_config(self, where, field, value, archive_path,
                               tmp_path, capsys):
        cfg = {"landscape": LAND.to_json_obj()}
        cfg.setdefault(where, {})[field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["experiment", "--id", "initialization",
                     "--archive", str(archive_path),
                     "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "o")]) == 1
        one_error_line(capsys, repr(field))

    @pytest.fixture(params=["supermodel", "cpt", "alpha"])
    def nan_model_path(self, request, model_path, tmp_path):
        doc = json.loads(model_path.read_text())
        if request.param == "supermodel":
            doc["supermodels"]["joint"]["probs"][0] = math.nan
        elif request.param == "cpt":
            doc["submodels"][0]["bn"]["cpts"][0][0][0] = math.nan
        else:
            doc["submodels"][0]["bn"]["alpha"] = math.inf
        path = tmp_path / "nan-model.json"
        path.write_text(json.dumps(doc))
        return path

    def test_stray_learn_key_in_model_file(self, model_path, tmp_path,
                                          capsys):
        doc = json.loads(model_path.read_text())
        doc["learn"]["alpah"] = 5
        path = tmp_path / "stray-model.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["sample", "--model", str(path), "--n", "3",
                     "--out", str(tmp_path / "out.jsonl")]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {path}: learn: unknown learn config key(s): alpah"]

    def test_model_file_score(self, nan_model_path, archive_path, tmp_path,
                              capsys):
        out = tmp_path / "scores.csv"
        capsys.readouterr()
        assert main(["score", "--model", str(nan_model_path),
                     "--genotypes", str(archive_path),
                     "--out", str(out)]) == 1
        one_error_line(capsys, "positive")
        assert not out.exists()

    def test_model_file_sample(self, nan_model_path, tmp_path, capsys):
        out = tmp_path / "samples.jsonl"
        capsys.readouterr()
        assert main(["sample", "--model", str(nan_model_path), "--n", "5",
                     "--seed", "1", "--out", str(out)]) == 1
        one_error_line(capsys, "positive")
        assert not out.exists()


def keyed_entry(doc):
    """(submodel index, variable) of the first keyed table with at least
    two stored rows in a model document."""
    for i, entry in enumerate(doc["submodels"]):
        for v, code in enumerate(entry["bn"]["codes"]):
            if code is not None and len(code) >= 2:
                return i, v
    raise AssertionError("the model has no keyed table with two rows")


class TestStrictModelFiles:
    """Hand-edited model files with a non-integral, negative or out-of-range
    integer field, or bad configuration codes, are rejected."""

    @pytest.fixture(params=["n_train-float", "n_train-negative",
                            "cardinality-float", "parent-out-of-range",
                            "codes-unsorted", "codes-repeated",
                            "code-too-big", "code-float"])
    def edited(self, request, model_path, tmp_path):
        doc = json.loads(model_path.read_text())
        i, v = keyed_entry(doc)
        bn = doc["submodels"][i]["bn"]
        codes = bn["codes"][v]
        edit = request.param
        if edit == "n_train-float":
            doc["submodels"][i]["n_train"], needle = -3.7, "-3.7"
        elif edit == "n_train-negative":
            doc["submodels"][i]["n_train"], needle = -3, "not a count"
        elif edit == "cardinality-float":
            bn["variables"][v][1], needle = 2.9, "cardinality"
        elif edit == "parent-out-of-range":
            bn["parents"][v][0], needle = 99, "parent index out of range"
        elif edit == "codes-unsorted":
            codes.reverse()
            needle = "increasing"
        elif edit == "codes-repeated":
            codes[1], needle = codes[0], "distinct"
        elif edit == "code-too-big":
            codes[-1], needle = 10**6, "below"
        else:
            codes[0], needle = 0.5, "code of variable"
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return path, needle

    def test_score(self, edited, archive_path, tmp_path, capsys):
        path, needle = edited
        out = tmp_path / "scores.csv"
        capsys.readouterr()
        assert main(["score", "--model", str(path), "--genotypes",
                     str(archive_path), "--out", str(out)]) == 1
        one_error_line(capsys, needle)
        assert not out.exists()

    def test_sample(self, edited, tmp_path, capsys):
        path, needle = edited
        out = tmp_path / "samples.jsonl"
        capsys.readouterr()
        assert main(["sample", "--model", str(path), "--n", "5",
                     "--out", str(out)]) == 1
        one_error_line(capsys, needle)
        assert not out.exists()


    def test_declared_cardinality_checked_before_tables(self, archive_path,
                                                         tmp_path, capsys):
        # A keyed table without rows still holds its uniform row, so at
        # 2,000,000 declared values the tables would take about 32 MB.
        path = tmp_path / "huge.json"
        save_metamodel(Metamodel.uniform(LearnConfig(genotype=SMALL)), path)
        doc = json.loads(path.read_text())
        bn = doc["submodels"][0]["bn"]
        v = [name for name, _ in bn["variables"]].index("g0.kind")
        bn["variables"][v][1] = 2_000_000
        bn["codes"][v], bn["cpts"][v] = [], []
        write(path, doc)
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(["score", "--model", str(path), "--genotypes",
                         str(archive_path), "--out", str(tmp_path / "o.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {path}: submodel variables do not match the schema"]
        assert peak < 4_000_000


# Values of the wrong type for a field of each kind, and the fields that
# every input requires (deletable) or merely types.
INTS = ("x", 2.5, None, True)
NUMBERS = ("x", None, True)
OBJECTS = ("x", 5, None)
DELETE = object()


def _fields(prefix, fields, deletable=True):
    return [(prefix + path, wrong, deletable) for path, wrong in fields]


GENOTYPE = [((), OBJECTS), (("mode",), OBJECTS), (("arity",), INTS),
            (("generator_depth_max",), INTS),
            (("activations",), (5, None, "relu", [1], [None]))]
LANDSCAPE = ([(("genotype",) + path, wrong) for path, wrong in GENOTYPE]
             + [(("family_seed",), INTS), (("sigma_noise",), NUMBERS),
                (("flip_prob",), NUMBERS), (("n_pairs",), ("x", 2.5, True))])
IN_CONFIG = [(("landscape",), OBJECTS, True)] + _fields(("landscape",),
                                                        LANDSCAPE)


def model_fields(doc):
    """Every required field of a metamodel document, with wrong values."""
    fields = [(("format",), OBJECTS), (("learn",), OBJECTS),
              (("learn", "alpha"), NUMBERS), (("learn", "structure"), OBJECTS),
              (("learn", "genotype", "arity"), INTS),
              (("provenance",), OBJECTS), (("supermodels",), OBJECTS),
              (("supermodels", "joint"), OBJECTS),
              (("supermodels", "joint", "keys"), OBJECTS),
              (("supermodels", "joint", "probs"), OBJECTS),
              (("submodels",), OBJECTS)]
    for i, entry in enumerate(doc["submodels"]):
        bn = ("submodels", i, "bn")
        fields += [(("submodels", i, "key"), OBJECTS),
                   (("submodels", i, "n_train"), INTS + (-1,)),
                   (("submodels", i, "method"), OBJECTS), (bn, OBJECTS)]
        fields += [(bn + (name,), NUMBERS if name == "alpha" else OBJECTS)
                   for name in ("format", "alpha", "variables", "parents",
                                "codes", "cpts") if name in entry["bn"]]
        fields += [(bn + ("variables", v, 1), INTS)
                   for v in range(len(entry["bn"]["variables"]))]
        fields.append((bn + ("cpts", 0, 0, 0), ("x", None, True)))
    return _fields((), fields)


def edit(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` replaced by ``value``,
    or deleted."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    target = doc
    for step in path[:-1]:
        target = target[step]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


def broken_json(draw, doc, fields):
    """The text of ``doc`` cut short, without a required field, or with a
    field of the wrong type."""
    text = json.dumps(doc)
    kinds = ["malformed", "wrong type"]
    if any(deletable for _, _, deletable in fields):
        kinds.append("missing")
    kind = draw(st.sampled_from(kinds))
    if kind == "malformed":
        return text[:draw(st.integers(0, len(text) - 1))]
    path, wrong, _ = draw(st.sampled_from(
        [f for f in fields if kind == "wrong type" or f[2]]))
    value = DELETE if kind == "missing" else draw(st.sampled_from(wrong))
    return json.dumps(edit(doc, path, value))


def broken_archive(draw, lines):
    """An archive whose header is broken; the records stay intact, but a
    header cut short leaves no loadable line."""
    header = json.loads(lines[0])
    text = broken_json(draw, header, _fields(("config",),
                                             GENOTYPE))
    try:
        json.loads(text)
    except json.JSONDecodeError:
        return text
    return "\n".join([text] + lines[1:]) + "\n"


def broken_steps(draw, text):
    """A trace CSV without a column the default analysis needs, with a
    non-numeric cell, or empty."""
    rows = list(csv.reader(text.splitlines()))
    kind = draw(st.sampled_from(["missing", "wrong type", "empty"]))
    if kind == "empty":
        return ""
    if kind == "missing":
        drop = rows[0].index(draw(st.sampled_from(
            ["algorithm", "replicate", "best"])))
        rows = [row[:drop] + row[drop + 1:] for row in rows]
    else:
        column = rows[0].index(draw(st.sampled_from(["best", "step"])))
        rows[draw(st.integers(1, len(rows) - 1))][column] = "n/a"
    return "".join(",".join(row) + "\n" for row in rows)


def write(path, obj):
    path.write_text(json.dumps(obj))
    return path


class TestMalformedInputs:
    """Property: every subcommand, given an input that is not valid JSON,
    lacks a required field or holds a field of the wrong type, exits 1 or
    2 with exactly one error line and no traceback.  Model inputs are
    ``mm-v2`` files and ``mm-v1`` files of the same model."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory, archive_path, model_path):
        work = tmp_path_factory.mktemp("malformed")
        model = json.loads(model_path.read_text())
        samples = work / "samples.jsonl"
        assert main(["sample", "--model", str(model_path), "--n", "5",
                     "--out", str(samples)]) == 0
        steps = work / "steps.csv"
        assert main(["experiment", "--id", "guided-search",
                     "--archive", str(archive_path), "--config",
                     str(write(work / "g.json", {
                         "landscape": LAND.to_json_obj(), "target_seed": 70,
                         "replicates": 2, "budget": 4, "n": 3})),
                     "--out-dir", str(work)]) == 0
        return {
            "work": work, "archive": archive_path, "model": model_path,
            "archive_lines": archive_path.read_text().splitlines(),
            "models": {"mm-v2": model, "mm-v1": mm_v1_document(
                load_metamodel(model_path))},
            "samples": samples.read_text(), "steps": steps.read_text(),
            "landscape": LAND.to_json_obj(),
            "learn": LearnConfig(genotype=SMALL).to_json_obj(),
        }

    @pytest.mark.parametrize("text,needle", [
        ("[1]", "learn config must be a JSON object"),
        ('{"bogus": 1}', "unknown learn config key(s): bogus"),
    ], ids=["list", "unknown-key"])
    def test_learn_config_file_parsed_strictly(self, text, needle, inputs,
                                               capsys):
        bad = inputs["work"] / "learn.json"
        bad.write_text(text)
        capsys.readouterr()
        assert main(["learn", "--archive", str(inputs["archive"]),
                     "--config", str(bad),
                     "--out", str(inputs["work"] / "m.json")]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {bad}: {needle}"]

    @given(data=st.data())
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_one_error_line(self, data, inputs, capsys):
        draw, work = data.draw, inputs["work"]
        command = draw(st.sampled_from(
            ["ingest", "learn", "score", "sample", "search", "gen-archive",
             "experiment", "analyze"]))
        bad = work / "bad-input"
        out = ["--out", str(work / "out")]

        def bad_model():
            doc = inputs["models"][draw(st.sampled_from(["mm-v2", "mm-v1"]))]
            bad.write_text(broken_json(draw, doc, model_fields(doc)))
            return ["--model", str(bad)]

        if command == "ingest":
            bad.write_text(broken_archive(draw, inputs["archive_lines"]))
            argv = ["ingest", "--raw", str(bad)] + out
        elif command == "learn":
            if draw(st.booleans()):
                bad.write_text(broken_archive(draw, inputs["archive_lines"]))
                argv = ["--archive", str(bad)]
            else:
                bad.write_text(broken_json(draw, inputs["learn"], _fields(
                    (), [(("alpha",), NUMBERS), (("min_samples",), INTS),
                         (("structure",), OBJECTS),
                         (("mi_correction",), OBJECTS),
                         (("genotype", "arity"), INTS)], deletable=False)))
                argv = ["--archive", str(inputs["archive"]),
                        "--config", str(bad)]
            argv = ["learn", "--n", "3"] + argv + out
        elif command == "score":
            if draw(st.booleans()):
                argv = bad_model() + ["--genotypes", str(inputs["archive"])]
            else:
                text = inputs["samples"]
                # An empty file holds no genotypes, which is no error.
                bad.write_text(text[:draw(st.integers(1, text.index("\n")
                                                      - 1))])
                argv = ["--model", str(inputs["model"]),
                        "--genotypes", str(bad)]
            argv = ["score"] + argv + out
        elif command == "sample":
            argv = ["sample", "--n", "3"] + bad_model() + out
        elif command == "search":
            if draw(st.booleans()):
                bad.write_text(broken_json(
                    draw, inputs["landscape"],
                    [((), OBJECTS, False)] + _fields((), LANDSCAPE)))
                argv = ["--landscape-config", str(bad)]
            else:
                argv = ["--landscape-config",
                        str(write(work / "land.json", inputs["landscape"])),
                        "--algorithm", "guided"] + bad_model()
            argv = ["search", "--budget", "3"] + argv + out
        elif command == "gen-archive":
            config = {"landscape": inputs["landscape"],
                      "problem_seeds": "0..1", "population": 6,
                      "generations": 2}
            bad.write_text(broken_json(draw, config, IN_CONFIG + _fields(
                (), [(("population",), INTS), (("generations",), INTS),
                     (("problem_seeds",), ("x", None, 5, [0.5]))],
                deletable=False)))
            argv = ["gen-archive", "--config", str(bad)] + out
        elif command == "experiment":
            experiment = draw(st.sampled_from(
                ["likelihood", "sampling", "initialization",
                 "guided-search"]))
            config = {"landscape": inputs["landscape"], "n": 3}
            fields = IN_CONFIG + [(("n",), INTS, False)]
            if experiment == "sampling":
                config["train_seeds"] = [0]
                fields.append((("train_seeds",), ("x", None, 5), True))
            bad.write_text(broken_json(draw, config, fields))
            argv = ["experiment", "--id", experiment, "--archive",
                    str(inputs["archive"]), "--config", str(bad),
                    "--out-dir", str(work / "out-dir")]
        else:
            bad.write_text(broken_steps(draw, inputs["steps"]))
            argv = ["analyze", "--traces", str(bad), "--test", "kw"] + out
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (1, 2), (argv, bad.read_text()[:300])
        lines = err.strip().splitlines()
        assert len(lines) == 1 and "error:" in lines[0], err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("arity", [2, 4])
    def test_guided_search_rejects_a_model_of_another_space(self, arity,
                                                            tmp_path,
                                                            capsys):
        # The model is of arity 3; the landscape's slots have 2 or 4 values.
        model = tmp_path / "model.json"
        save_metamodel(Metamodel.uniform(LearnConfig(
            genotype=dataclasses.replace(SMALL, arity=3))), model)
        cfg = tmp_path / "land.json"
        cfg.write_text(json.dumps(dataclasses.replace(
            LAND, genotype=dataclasses.replace(SMALL, arity=arity)
        ).to_json_obj()))
        out = tmp_path / "t.csv"
        capsys.readouterr()
        assert main(["search", "--landscape-config", str(cfg),
                     "--algorithm", "guided", "--model", str(model),
                     "--budget", "5", "--out", str(out)]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: metamodel genotype does not match landscape"]
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["random", "guided"])
    def test_search_without_neighbours_pads_trace(self, algorithm, tmp_path):
        # Every slot has one value and both depths are fixed, so the start
        # is the only genotype: each step is padding, not a traceback.
        point = GenotypeConfig.joint(
            arity=1, activations=("relu",), weight_inits=("xavier",),
            generator_kinds=("dense",), discriminator_kinds=("dense",),
            generator_depth_max=1, discriminator_depth_max=1)
        cfg = tmp_path / "land.json"
        cfg.write_text(json.dumps(LandscapeConfig(genotype=point)
                                  .to_json_obj()))
        model = tmp_path / "model.json"
        save_metamodel(Metamodel.uniform(LearnConfig(genotype=point)), model)
        out = tmp_path / "trace.csv"
        assert main(["search", "--landscape-config", str(cfg),
                     "--algorithm", algorithm, "--model", str(model),
                     "--budget", "3", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [row["step"] for row in rows] == ["0", "1", "2", "3"]
        assert all(row["fitness"] == "nan" and row["accepted"] == "0"
                   and row["best"] == rows[0]["best"] for row in rows[1:])

    def test_guided_requires_model(self, tmp_path):
        cfg = tmp_path / "land.json"
        cfg.write_text(json.dumps(LAND.to_json_obj()))
        assert main(["search", "--landscape-config", str(cfg),
                     "--algorithm", "guided", "--budget", "5",
                     "--out", str(tmp_path / "t.csv")]) == 1

    @pytest.mark.parametrize("field,edit", [
        ("seed", lambda doc: doc.update(seed=3.7)),
        ("seed", lambda doc: doc.update(seed=True)),
        ("target_key", lambda doc: doc.update(target_key=[1.5, "x"])),
        ("target_key", lambda doc: doc.update(target_key=[2, True])),
        ("target_key", lambda doc: doc.update(target_key=[3, 1])),
        ("master", lambda doc: doc["master"].update({"global:-1:train_freq":
                                                     1.5})),
        ("planted", lambda doc: doc["planted"].update({"global:-1:train_freq":
                                                       "1"})),
        ("base", lambda doc: doc["base"].update({"1,1": "1.5"})),
        ("seed", lambda doc: doc.update(seed=-1)),
        ("family_seed", lambda doc: doc["config"].update(family_seed=-2)),
        ("unary", lambda doc: doc["unary"].pop("global:-1:train_freq")),
        ("unary", lambda doc: doc["unary"]["global:-1:train_freq"].append(
            0.5)),
        ("unary", lambda doc: doc["unary"]["global:-1:train_freq"].__setitem__(
            0, "0.5")),
        ("master", lambda doc: doc["master"].pop("generator:0:kind")),
        ("planted", lambda doc: doc["planted"].update({"generator:5:kind":
                                                       0})),
        ("pairwise", lambda doc: doc["pairwise"].__setitem__(0, [[0.5]])),
        ("pairwise", lambda doc: doc["pairwise"][0].pop()),
        ("pairs", lambda doc: doc["pairs"].pop()),
        ("pairs", lambda doc: doc["pairs"][0].__setitem__(0,
                                                          "generator:5:kind")),
        ("base", lambda doc: doc["base"].pop("1,1")),
        ("base", lambda doc: doc["base"].update({"3,1": 1.5})),
    ], ids=["seed-float", "seed-bool", "target_key-float", "target_key-bool",
            "target_key-unknown", "master-float", "planted-string",
            "base-string", "seed-negative", "family_seed-negative",
            "unary-missing", "unary-long", "unary-string", "master-missing",
            "planted-extra", "pairwise-1x1", "pairwise-short-table",
            "pairs-short", "pairs-unknown", "base-missing", "base-extra"])
    def test_malformed_landscape_file_rejected(self, field, edit, tmp_path,
                                               capsys):
        land_path = tmp_path / "land.json"
        save_landscape(make_landscape(12, LAND), land_path)
        doc = json.loads(land_path.read_text())
        edit(doc)
        land_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["search", "--landscape", str(land_path),
                     "--algorithm", "random", "--budget", "3",
                     "--out", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert field in err[0]
        assert not (tmp_path / "t.csv").exists()

    def test_landscape_whose_cells_overflow_is_one_error_line(self, tmp_path,
                                                              capsys):
        # Every cell is finite, but a fitness would overflow to infinity.
        land_path = tmp_path / "land.json"
        save_landscape(make_landscape(12, LAND), land_path)
        doc = json.loads(land_path.read_text())
        for table in doc["unary"].values():
            table[:] = [1e308] * len(table)
        land_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["search", "--landscape", str(land_path),
                     "--algorithm", "random", "--budget", "3",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {land_path}: landscape cells too large: a fitness "
            f"could overflow to infinity"]
        assert not (tmp_path / "t.csv").exists()

    def test_landscape_without_a_key_names_it(self, tmp_path, capsys):
        land_path = tmp_path / "land.json"
        save_landscape(make_landscape(12, LAND), land_path)
        doc = json.loads(land_path.read_text())
        del doc["base"]
        land_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["search", "--landscape", str(land_path),
                     "--algorithm", "random", "--budget", "3",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {land_path}: bad land-v1 document: missing key 'base'"]
        assert not (tmp_path / "t.csv").exists()

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

    def test_gen_archive_with_zero_arity_is_one_error_line(self, tmp_path,
                                                           capsys):
        land = LAND.to_json_obj()
        land["genotype"]["arity"] = 0
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps({
            "landscape": land, "problem_seeds": [0], "runs_per_problem": 1,
            "population": 6, "generations": 2}))
        capsys.readouterr()
        assert main(["gen-archive", "--config", str(cfg_path),
                     "--out", str(tmp_path / "arch.jsonl")]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {cfg_path}: arity must be >= 1"]
        assert not (tmp_path / "arch.jsonl").exists()

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

    @pytest.mark.parametrize("learn,needle", [
        ([1], "learn config must be a JSON object"),
        ("ab", "learn config must be a JSON object"),
        ({"bogus": 1, "alpha": 2.0}, "unknown learn config key(s): bogus"),
    ], ids=["list", "string", "unknown-key"])
    def test_learn_section_parsed_like_ea(self, learn, needle, archive_path,
                                          tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"landscape": LAND.to_json_obj(),
                                        "learn": learn}))
        assert main(["experiment", "--id", "likelihood",
                     "--archive", str(archive_path),
                     "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {cfg_path}: {needle}"]

    @pytest.mark.parametrize("command,key", [
        ("gen-archive", "populaton"),
        ("likelihood", "min_scorde"),
        ("sampling", "holdout_seed"),
        ("initialization", "replicate"),
        ("guided-search", "budgett"),
    ])
    def test_unknown_top_level_key_named(self, command, key, archive_path,
                                         tmp_path, capsys):
        # A misspelt field once ran silently with the field's default.
        cfg = {"landscape": LAND.to_json_obj(), key: 6, "zz": 1}
        if command == "sampling":
            cfg["train_seeds"] = [0]
        cfg_path = write(tmp_path / "cfg.json", cfg)
        if command == "gen-archive":
            argv = ["gen-archive", "--out", str(tmp_path / "a.jsonl")]
        else:
            argv = ["experiment", "--id", command,
                    "--archive", str(archive_path),
                    "--out-dir", str(tmp_path / "o")]
        assert main(argv + ["--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {cfg_path}: unknown config key(s): {key}, zz"]
        assert not (tmp_path / "a.jsonl").exists()

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
        cfg = {"landscape": LAND.to_json_obj()}
        if command == "sampling":
            cfg["train_seeds"] = [0]
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
        ("genotype", "activations", "relu"),
        ("genotype", "activations", ["relu", 1]),
        ("genotype", "weight_inits", ["xavier", None]),
        ("genotype", "generator_kinds", {"dense": 1}),
        ("genotype", "discriminator_kinds", 5),
    ])
    def test_wrong_typed_field_is_one_error_line(self, where, field, value,
                                                 archive_path, tmp_path,
                                                 capsys):
        cfg = {"landscape": LAND.to_json_obj()}
        target = (cfg["landscape"]["genotype"] if where == "genotype"
                  else cfg.setdefault(where, {}) if where else cfg)
        target[field] = value
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


class TestNegativeSeeds:
    """numpy's seed sequences take no negative seed, so every place that
    reads a seed rejects one with one error line, not numpy's traceback."""

    @pytest.mark.parametrize("command,where,field,value,needle", [
        ("gen-archive", None, "base_seed", -1, "'base_seed'"),
        ("gen-archive", None, "problem_seeds", "-3..-1", "seed range"),
        ("gen-archive", None, "problem_seeds", [0, -1], "seed list"),
        ("gen-archive", "landscape", "family_seed", -1, "'family_seed'"),
        ("likelihood", None, "seed", -1, "'seed'"),
        ("sampling", None, "train_seeds", [-1], "seed list"),
        ("sampling", None, "holdout_seeds", "-2..-1", "seed range"),
        ("initialization", None, "target_seed", -1, "'target_seed'"),
        ("guided-search", None, "seed", -4, "'seed'"),
    ])
    def test_config_field(self, command, where, field, value, needle,
                          archive_path, tmp_path, capsys):
        cfg = {"landscape": LAND.to_json_obj()}
        if command == "gen-archive":
            cfg.update(problem_seeds=[0], runs_per_problem=1, population=6,
                       generations=2)
        if command == "sampling":
            cfg["train_seeds"] = [0]
        (cfg[where] if where else cfg)[field] = value
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
        assert err[0].startswith("error:") and needle in err[0]

    @pytest.mark.parametrize("argv", [
        ["sample", "--seed", "-3"],
        ["search", "--seed", "-3"],
        ["search", "--landscape-seed", "-1"],
    ], ids=["sample-seed", "search-seed", "search-landscape-seed"])
    def test_flag(self, argv, model_path, tmp_path, capsys):
        land = tmp_path / "land.json"
        land.write_text(json.dumps(LAND.to_json_obj()))
        extra = (["--model", str(model_path)] if argv[0] == "sample"
                 else ["--landscape-config", str(land)])
        out = tmp_path / "out"
        assert main(argv + extra + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and argv[1] in err[0]
        assert not out.exists()


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


class TestFlags:
    """Each subcommand takes only the flags its handler reads: a flag it
    would ignore is rejected with one error line, before any output."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory, archive_path, model_path):
        work = tmp_path_factory.mktemp("flags")
        steps = work / "steps.csv"
        steps.write_text("algorithm,replicate,step,best\n"
                         "random,0,1,2.0\nguided,0,1,1.0\n")
        return {
            "archive": str(archive_path), "model": str(model_path),
            "steps": str(steps),
            "land": str(write(work / "land.json", LAND.to_json_obj())),
            "gen": str(write(work / "gen.json", {
                "landscape": LAND.to_json_obj(), "problem_seeds": [0],
                "runs_per_problem": 1, "population": 6, "generations": 2})),
            "likelihood": str(write(work / "exp.json", {
                "landscape": LAND.to_json_obj(), "n": 3})),
        }

    @pytest.mark.parametrize("command,flag", [
        ("gen-archive", ["--seed", "3"]),
        ("experiment", ["--seed", "3"]),
        ("experiment", ["--out", "x"]),
        ("score", ["--config", "c"]),
        ("search", ["--config", "c"]),
        ("ingest", ["--seed", "1"]),
        ("analyze", ["--seed", "1"]),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_unread_flag_is_one_error_line(self, command, flag, inputs,
                                           tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        argv = {
            "gen-archive": ["--config", inputs["gen"], "--out", str(out)],
            "experiment": ["--id", "likelihood", "--archive",
                           inputs["archive"], "--config",
                           inputs["likelihood"], "--out-dir", str(out)],
            "score": ["--model", inputs["model"], "--genotypes",
                      inputs["archive"], "--out", str(out)],
            "search": ["--landscape-config", inputs["land"], "--budget", "3",
                       "--out", str(out)],
            "ingest": ["--raw", inputs["archive"], "--out", str(out)],
            "analyze": ["--traces", inputs["steps"], "--test", "kw",
                        "--out", str(out)],
        }[command]
        assert main([command] + argv) == 0
        if out.is_dir():
            shutil.rmtree(out)
        else:
            out.unlink()
        capsys.readouterr()
        assert main([command] + argv + flag) == 1
        one_error_line(capsys, "unrecognized arguments", " ".join(flag))
        assert not out.exists()
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv,flag", [
        (["gen-archive", "--config", "gen.json"], "--out"),
        (["experiment", "--id", "likelihood", "--archive", "a.jsonl",
          "--out-dir", "o"], "--config"),
        (["sample", "--model", "m.json"], "--out"),
    ])
    def test_missing_required_flag_is_one_error_line(self, argv, flag,
                                                     tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: the following arguments are required: {flag}"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("exp_id,files", [
        ("likelihood", ["scores.csv", "tests.csv"]),
        ("sampling", ["samples.csv", "tests.csv"]),
        ("initialization", ["generations.csv", "summary.json"]),
        ("guided-search", ["steps.csv", "summary.json"]),
    ])
    def test_experiment_writes_its_files(self, exp_id, files, archive_path,
                                         tmp_path, caplog):
        cfg = {"landscape": LAND.to_json_obj(), "n": 3, "replicates": 2,
               "budget": 4, "population": 6, "generations": 2,
               "train_seeds": [0], "holdout_seeds": [50], "n_each": 5}
        cfg = {key: value for key, value in cfg.items()
               if key in {f.name for f in dataclasses.fields(
                   EXPERIMENTS[exp_id][0])}}
        out_dir = tmp_path / "o"
        with caplog.at_level("INFO"):
            assert main(["experiment", "--id", exp_id,
                         "--archive", str(archive_path),
                         "--config", str(write(tmp_path / "c.json", cfg)),
                         "--out-dir", str(out_dir)]) == 0
        assert sorted(path.name for path in out_dir.iterdir()) == files
        [message] = [r.getMessage() for r in caplog.records
                     if r.name == "archsmith.cli"]
        assert message.startswith(f"{exp_id}: wrote {files[0]} (")
        assert message.endswith(f" to {out_dir}")


@pytest.mark.parametrize("command,where,key,what", [
    ("likelihood", "landscape", "n_pair", "landscape"),
    ("likelihood", "genotype", "aritty", "genotype"),
    ("gen-archive", "landscape", "jiter", "landscape"),
    ("gen-archive", "genotype", "mod", "genotype"),
    ("search", "landscape", "n_pair", "landscape"),
    ("search", "genotype", "aritty", "genotype"),
    ("ingest", "genotype", "aritty", "genotype"),
])
def test_stray_nested_key_is_named(command, where, key, what, archive_path,
                                   tmp_path, capsys):
    # A misspelt nested field once loaded silently with its default.
    land = LAND.to_json_obj()
    (land if where == "landscape" else land["genotype"])[key] = 3
    out = tmp_path / "out"
    argv = {
        "likelihood": ["experiment", "--id", "likelihood",
                       "--archive", str(archive_path), "--out-dir", str(out),
                       "--config", {"landscape": land, "n": 3}],
        "gen-archive": ["gen-archive", "--out", str(out), "--config",
                        {"landscape": land, "problem_seeds": [0],
                         "runs_per_problem": 1, "population": 6,
                         "generations": 2}],
        "search": ["search", "--budget", "3", "--out", str(out),
                   "--landscape-config", land],
        "ingest": ["ingest", "--raw", str(archive_path), "--out", str(out),
                   "--config", land["genotype"]],
    }[command]
    argv[-1] = cfg_path = str(write(tmp_path / "cfg.json", argv[-1]))
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {cfg_path}: unknown {what} config key(s): {key}"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["ingest", "--raw", "{bad}", "--out", "{out}"],
    ["ingest", "--raw", "{archive}", "--config", "{bad}", "--out", "{out}"],
    ["learn", "--archive", "{bad}", "--out", "{out}"],
    ["learn", "--archive", "{archive}", "--config", "{bad}",
     "--out", "{out}"],
    ["sample", "--model", "{bad}", "--out", "{out}"],
    ["search", "--landscape", "{bad}", "--out", "{out}"],
    ["search", "--landscape-config", "{bad}", "--out", "{out}"],
    ["gen-archive", "--config", "{bad}", "--out", "{out}"],
    ["experiment", "--id", "likelihood", "--archive", "{archive}",
     "--config", "{bad}", "--out-dir", "{out}"],
    ["score", "--model", "{model}", "--genotypes", "{bad}",
     "--out", "{out}"],
    ["score", "--model", "{model}", "--genotypes", "{late}",
     "--out", "{out}"],
    ["analyze", "--traces", "{bad}", "--test", "kw", "--out", "{out}"],
], ids=["ingest-raw", "ingest-config", "learn-archive", "learn-config",
        "sample-model", "search-landscape", "search-landscape-config",
        "gen-archive-config", "experiment-config", "score-genotypes",
        "score-late-byte", "analyze-traces"])
def test_non_utf8_input_is_one_error_line(argv, archive_path, model_path,
                                          tmp_path, capsys):
    # The bytes of a binary file; "late" holds valid genotype lines first,
    # more than one read buffer of them, so the bad byte is met while
    # the file is being parsed.
    bad = tmp_path / "bin.dat"
    bad.write_bytes(b"\xff\xfe\x00bad")
    if "{late}" in argv:
        bad = tmp_path / "late.jsonl"
        assert main(["sample", "--model", str(model_path), "--n", "200",
                     "--out", str(bad)]) == 0
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
    out = tmp_path / "out"
    names = {"bad": bad, "late": bad, "out": out, "archive": archive_path,
             "model": model_path}
    capsys.readouterr()
    assert main([arg.format(**names) for arg in argv]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {bad}: not UTF-8 text (invalid start byte)"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--model", "{deep}", "--out", "{out}"],
    ["search", "--landscape", "{deep}", "--out", "{out}"],
    ["gen-archive", "--config", "{deep}", "--out", "{out}"],
], ids=["sample-model", "search-landscape", "gen-archive-config"])
def test_deeply_nested_json_is_one_error_line(argv, tmp_path, capsys):
    # Python's JSON reader recurses once per nesting level.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([arg.format(deep=deep, out=out) for arg in argv]) == 1
    one_error_line(capsys, f"{deep}: not valid JSON (maximum recursion")
    assert not out.exists()


DEEP_LINE = "[" * 200_000


def test_deeply_nested_archive_line_is_skipped(archive_path, tmp_path,
                                               capsys, caplog):
    # An archive reader skips a bad line with a diagnostic, as it does any
    # line that is not JSON; here the header is the valid first line.
    header, *records = archive_path.read_text().splitlines()
    deep = tmp_path / "deep.jsonl"
    deep.write_text("\n".join([header, DEEP_LINE, *records]) + "\n")
    out = tmp_path / "out.jsonl"
    capsys.readouterr()
    with caplog.at_level("WARNING"):
        assert main(["ingest", "--raw", str(deep), "--out", str(out)]) == 0
    assert [r.getMessage() for r in caplog.records
            if r.levelname == "WARNING"] == [
        f"{deep}: line 2: not valid JSON (maximum recursion depth exceeded "
        f"while decoding a JSON array from a unicode string)"]
    assert out.read_bytes() == archive_path.read_bytes()


@pytest.mark.parametrize("deep_at", [1, 2], ids=["first-line", "second-line"])
def test_deeply_nested_genotype_line_is_one_error_line(
        deep_at, model_path, tmp_path, capsys):
    # ``score`` reads the first line to tell an archive from genotypes,
    # then every line through the genotype reader.
    samples = tmp_path / "samples.jsonl"
    assert main(["sample", "--model", str(model_path), "--n", "2",
                 "--out", str(samples)]) == 0
    lines = samples.read_text().splitlines()
    lines.insert(deep_at - 1, DEEP_LINE)
    samples.write_text("\n".join(lines) + "\n")
    out = tmp_path / "scores.csv"
    capsys.readouterr()
    assert main(["score", "--model", str(model_path), "--genotypes",
                 str(samples), "--out", str(out)]) == 1
    one_error_line(capsys, f"{samples}: line {deep_at}: not valid JSON "
                           f"(maximum recursion")
    assert not out.exists()
