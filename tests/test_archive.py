"""Archive loading and First/Second/Random extraction."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from archsmith.archive import (
    Individual,
    RunArchive,
    extract_sets,
    load_archive,
    save_archive,
    _record_texts,
)
from archsmith.errors import FormatError, ValidationError
from archsmith.experiments import ArchiveGenConfig, generate_archive
from archsmith.genotype import (
    DepthKey,
    DnnSpec,
    GanSpec,
    GenotypeConfig,
    LayerSpec,
    _gan_json,
    gan_hash,
    random_gan,
)
from archsmith.landscape import LandscapeConfig

CONFIG = GenotypeConfig.joint()
PER_NET = GenotypeConfig.per_network()


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
            "line 4: bad layer record: field 'size_bin' is 'x', not a "
            "valid integer",
            "line 6: bad archive record: field 'fitness' is 'abc', not a "
            "valid number",
        ]
        assert loaded.rejected == 1
        assert "layer kind ['dense'] not legal" in loaded.diagnostics[3]
        assert loaded.n_individuals == 10 - 4

    def test_loose_record_fields_are_skipped_by_line_and_field(self,
                                                               tmp_path):
        # Each of these once loaded as the int, float or str it coerces to.
        edits = [
            ("size_bin", lambda o: o["gan"]["generator"]["layers"][0], 1.9),
            ("size_bin", lambda o: o["gan"]["discriminator"]["layers"][0],
             "3"),
            ("size_bin", lambda o: o["gan"]["generator"]["layers"][0], True),
            ("train_freq_bin", lambda o: o["gan"], 2.7),
            ("fitness", lambda o: o, "1.5"),
            ("fitness", lambda o: o, True),
            ("run_id", lambda o: o, None),
            ("problem_id", lambda o: o, 7),
        ]
        rng = np.random.default_rng(8)
        archive = make_archive(rng, n_runs=1, run_size=len(edits) + 2)
        path = tmp_path / "runs.jsonl"
        save_archive(archive, path)
        lines = path.read_text().splitlines()
        for lineno, (name, where, value) in enumerate(edits, start=2):
            obj = json.loads(lines[lineno - 1])
            where(obj)[name] = value
            lines[lineno - 1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        loaded = load_archive(path)
        assert loaded.n_individuals == 2 and loaded.rejected == 0
        assert len(loaded.diagnostics) == len(edits)
        for lineno, ((name, _, value), message) in enumerate(
                zip(edits, loaded.diagnostics), start=2):
            assert message.startswith(f"line {lineno}: bad ")
            assert f"field {name!r} is {value!r}, not a valid" in message

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
        assert (a.first, a.second, a.random) == (b.first, b.second, b.random)

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


# ---------------------------------------------------------------------------
# Record encoding: the fragment encoder against the json.dumps formula


def reference_text(ind):
    return json.dumps(ind.to_json_obj(), sort_keys=True)


def reference_digest(individuals):
    digest = hashlib.sha256()
    for ind in individuals:
        digest.update(reference_text(ind).encode())
    return digest.hexdigest()


def reference_content_hash(archive):
    return reference_digest(
        ind for run_id in sorted(archive.runs)
        for ind in sorted(archive.runs[run_id],
                          key=lambda i: (i.fitness, gan_hash(i.gan))))


def reference_archive_bytes(archive):
    header = {"format": "archive-v1", "config": archive.config.to_json_obj()}
    lines = [json.dumps(header, sort_keys=True)]
    lines += [reference_text(ind) for run in archive.runs.values()
              for ind in run]
    return "".join(line + "\n" for line in lines).encode()


def layers_of(individuals):
    return [layer for ind in individuals
            for net in (ind.gan.generator, ind.gan.discriminator)
            for layer in net.layers]


def with_layer_copies(archive):
    """``archive`` with every layer replaced by an equal, fresh object."""
    def copy(net):
        return replace(net, layers=tuple(replace(layer)
                                         for layer in net.layers))

    runs = {run_id: [replace(ind, gan=replace(
                ind.gan, generator=copy(ind.gan.generator),
                discriminator=copy(ind.gan.discriminator)))
                     for ind in run]
            for run_id, run in archive.runs.items()}
    return RunArchive(runs=runs, config=archive.config)


@pytest.fixture(scope="module")
def acceptance_archive():
    # The 30-run, 12,000-record joint archive of the acceptance suite.
    land = LandscapeConfig(genotype=CONFIG, family_seed=7)
    return generate_archive(ArchiveGenConfig(landscape=land))


def odd_archive():
    """Out-of-vocabulary layers, equal values of different types, ids
    that need escaping and every kind of fitness the encoder special-cases."""
    layers = [
        LayerSpec("dense", "relu", "xavier", 1),
        LayerSpec("dense", "relu", "xavier", True),
        LayerSpec("dense", "relu", "xavier", 1.0),
        LayerSpec("lstm", "swish", "he", 99),
        LayerSpec(["dense"], "relu", "xavier", 0),
        LayerSpec("d\u00e9\"nse\\", "r\u00e9 lu", "x\u2028y", 2**70),
        LayerSpec(1, 1.0, True, 1),
        LayerSpec(True, 1, 1.0, 1),
        LayerSpec("dense", "relu", "xavier", np.float64(1.0)),
        LayerSpec("dense", "relu", "xavier", -0.0),
    ]
    roles = ["generator", "discriminator", "gen\"erator", 0, True, "\u00e9"]
    trains = [0, True, 2.5, -0.0, 10**30]
    fitnesses = [0.5, -0.0, 0.0, 1e-300, 1e300, np.float64(0.1), 3, True,
                 np.float64(-0.0)]
    problem_ids = ["p\"0", "\u03c0", 1, True, 1.0, "p\\0"]
    runs = {}
    for r, run_id in enumerate(["r\"0", "r\u00e90", "r 1"]):
        run = []
        for i in range(12):
            j = 3 * r + i
            gen = DnnSpec(roles[j % len(roles)],
                          tuple(layers[(j + k) % len(layers)]
                                for k in range(j % 4)))
            disc = DnnSpec(roles[(j + 1) % len(roles)],
                           tuple(layers[(2 * j + k) % len(layers)]
                                 for k in range(1 + j % 3)))
            gan = GanSpec(generator=gen, discriminator=disc,
                          train_freq_bin=trains[j % len(trains)])
            run.append(Individual(gan=gan,
                                  fitness=fitnesses[j % len(fitnesses)],
                                  run_id=run_id,
                                  problem_id=problem_ids[j % len(problem_ids)]))
        runs[run_id] = run
    return RunArchive(runs=runs, config=CONFIG)


FITNESS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e-300, 1e300, 5e-324]),
    st.integers(-2**63, 2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.booleans(),
)
# Quotes, backslashes, control and non-ASCII characters need escaping.
ID_CHARS = st.one_of(st.sampled_from("\"\\'\n\x00\u00e9\u20ac\U0001f600"),
                     st.characters())
IDS = st.text(ID_CHARS, max_size=8)


@st.composite
def individual_lists(draw):
    id_pairs = draw(st.lists(st.tuples(IDS, IDS), min_size=1,
                             max_size=3))
    config = draw(st.sampled_from([CONFIG, PER_NET]))
    individuals = []
    for _ in range(draw(st.integers(1, 5))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        problem_id, run_id = draw(st.sampled_from(id_pairs))
        individuals.append(Individual(gan=random_gan(rng, config),
                                      fitness=draw(FITNESS), run_id=run_id,
                                      problem_id=problem_id))
    return individuals


class TestRecordEncoding:
    @given(individual_lists())
    def test_equals_json_dumps(self, individuals):
        want = [reference_text(ind) for ind in individuals]
        assert list(_record_texts(individuals)) == want
        texts = {}
        for ind in individuals:
            assert _gan_json(ind.gan, texts) == json.dumps(
                ind.gan.to_json_obj(), sort_keys=True)

    def test_odd_records_equal_json_dumps(self):
        individuals = odd_archive().all_individuals()
        assert list(_record_texts(individuals)) == [
            reference_text(ind) for ind in individuals]

    @pytest.mark.parametrize("source", ["generated", "loaded", "odd"])
    def test_archive_outputs_equal_reference(self, source,
                                             acceptance_archive, tmp_path):
        archive = (odd_archive() if source == "odd"
                   else acceptance_archive)
        path = tmp_path / "runs.jsonl"
        if source == "loaded":
            save_archive(archive, path)
            archive = load_archive(path)
        assert archive.content_hash() == reference_content_hash(archive)
        save_archive(archive, path)
        assert path.read_bytes() == reference_archive_bytes(archive)

    def test_each_layer_value_encoded_once_per_call(self, acceptance_archive,
                                                    tmp_path, monkeypatch):
        # Generated genotypes share the layer table's objects, so every
        # layer is copied here into an object of its own.
        archive = with_layer_copies(acceptance_archive)
        layers = layers_of(archive.all_individuals())
        distinct = set(layers)
        # Equal layers are distinct objects here, so a cache keyed by
        # object would encode far more often than once per value.
        assert len({id(layer) for layer in layers}) > 10 * len(distinct)
        archive.content_hash()  # rank once: gan hashes cached
        encode = LayerSpec.to_json_obj
        calls = []
        monkeypatch.setattr(LayerSpec, "to_json_obj",
                            lambda layer: calls.append(layer) or encode(layer))
        for run in (archive.content_hash,
                    archive.content_hash,
                    lambda: save_archive(archive, tmp_path / "runs.jsonl")):
            calls.clear()
            run()
            assert len(calls) == len(distinct)
