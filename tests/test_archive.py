"""Archive loading and First/Second/Random extraction."""

import hashlib
import json
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import archsmith
from archsmith.archive import (
    Individual,
    RunArchive,
    extract_sets,
    load_archive,
    save_archive,
    _parse_record,
    _record_texts,
)
from archsmith.errors import FormatError, ValidationError, read_json_line
from archsmith.experiments import (
    ArchiveGenConfig,
    GuidedSearchConfig,
    InitializationConfig,
    LikelihoodConfig,
    SamplingConfig,
    generate_archive,
    run_guided_search,
    run_initialization,
    run_likelihood,
    run_sampling,
)
from archsmith.genotype import (
    DepthKey,
    GenotypeConfig,
    _text_tables,
    dump_genotypes,
    flatten_joint,
    load_genotypes,
    parse_genotype,
    random_genotype,
)
from archsmith.landscape import LandscapeConfig

from test_genotype import SMALL, TINY, gan_from_json, gan_json, tree_hash

CONFIG = GenotypeConfig.joint()
PER_NET = GenotypeConfig.per_network()


def individual(gan, fitness, run_id="r0", problem_id="p0", config=CONFIG):
    """The archive individual of a tree."""
    return Individual(*flatten_joint(gan, config), fitness, run_id,
                      problem_id, config)


def record_obj(ind):
    """An individual's archive record as a JSON object, through its tree:
    the oracle of the row encoder."""
    return {"run_id": ind.run_id, "problem_id": ind.problem_id,
            "fitness": ind.fitness, "gan": gan_json(ind.gan)}


def make_individual(rng, fitness, run_id="r0", problem_id="p0",
                    depth_key=None, config=CONFIG):
    return Individual(*random_genotype(rng, config, depth_key), fitness,
                      run_id, problem_id, config)


def count_calls(monkeypatch, name, module=archsmith.genotype):
    """Count the calls of ``<module>.<name>`` made through any package
    module that imports it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in vars(archsmith).values():
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


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
        obj = record_obj(ind)
        _, fitness, run_id, problem_id = _parse_record(obj)
        again = Individual(*parse_genotype(obj["gan"], CONFIG), fitness,
                           run_id, problem_id, CONFIG)
        assert again == ind
        assert again.gan == ind.gan == gan_from_json(obj["gan"])

    def test_nonfinite_fitness_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            make_individual(rng, float("nan"))
        with pytest.raises(ValidationError):
            make_individual(rng, float("inf"))

    def test_missing_field_rejected(self):
        rng = np.random.default_rng(0)
        obj = record_obj(make_individual(rng, 1.0))
        del obj["fitness"]
        with pytest.raises(FormatError):
            _parse_record(obj)

    def test_tree_built_on_first_read_only(self, monkeypatch):
        rng = np.random.default_rng(1)
        ind = make_individual(rng, 0.5)
        calls = count_calls(monkeypatch, "unflatten_joint")
        first = ind.gan
        assert ind.gan is first and len(calls) == 1
        assert flatten_joint(first, CONFIG) == (ind.key, ind.row)


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

    @pytest.mark.parametrize("config", [CONFIG, PER_NET, SMALL])
    def test_save_load_save_is_byte_identical(self, tmp_path, config):
        archive = make_archive(np.random.default_rng(4), 3, 10, config)
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        save_archive(archive, first)
        save_archive(load_archive(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_loaded_individuals_build_no_tree_until_read(self, tmp_path,
                                                         monkeypatch):
        archive = make_archive(np.random.default_rng(5), 2, 12)
        path = tmp_path / "runs.jsonl"
        save_archive(archive, path)
        want = archive.runs["run001"][4].gan
        calls = count_calls(monkeypatch, "unflatten_joint")
        loaded = load_archive(path)
        loaded.content_hash()
        extract_sets(loaded, n=3, seed=0)
        save_archive(loaded, tmp_path / "again.jsonl")
        assert calls == []
        ind = loaded.runs["run001"][4]
        assert "gan" not in vars(ind)
        assert ind.gan == want and ind.gan is ind.gan
        assert len(calls) == 1

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
                handle.write(json.dumps(record_obj(ind)) + "\n")
        loaded = load_archive(path, config=CONFIG)
        assert loaded.n_individuals == 1
        assert loaded.rejected == 1

    def test_header_without_config_names_file_and_line(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "runs.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps(
                record_obj(make_individual(rng, 1.0))) + "\n")
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
        assert list(loaded.diagnostics[:3]) == [
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

    def test_late_header_names_file_and_line(self, tmp_path):
        # A header once re-typed every record read before it: 49 joint
        # records followed by a per-network header loaded as per-network.
        path = tmp_path / "runs.jsonl"
        save_archive(make_archive(np.random.default_rng(9), 1, 49), path)
        header = json.dumps({"format": "archive-v1",
                             "config": PER_NET.to_json_obj()})
        lines = path.read_text().splitlines()
        for text, lineno in ((path.read_text() + header + "\n", 51),
                             ("\n".join([header] + lines) + "\n", 2),
                             ("{not json\n" + header + "\n", 2)):
            path.write_text(text)
            with pytest.raises(FormatError) as info:
                load_archive(path)
            assert str(info.value) == (
                f"{path}: line {lineno}: archive-v1 header after line 1; "
                f"a header must come first")
        path.write_text("\n\n" + "\n".join(lines) + "\n")
        assert load_archive(path).config == CONFIG

    def test_rejections_follow_line_diagnostics_by_run(self, tmp_path):
        rng = np.random.default_rng(10)
        texts = {}
        for run_id in ("b", "a"):
            ok, out = (make_individual(rng, 1.0, run_id=run_id),
                       make_individual(rng, 2.0, run_id=run_id))
            obj = record_obj(out)
            obj["gan"]["generator"]["layers"][0]["activation"] = "swish"
            texts[run_id] = json.dumps(record_obj(ok)), json.dumps(obj)
        path = tmp_path / "runs.jsonl"
        path.write_text("\n".join([
            texts["b"][1], texts["a"][1], "[", texts["a"][0], texts["b"][1],
            texts["b"][0], '{"fitness": 1}', texts["a"][1]]) + "\n")
        loaded = load_archive(path)
        assert list(loaded.diagnostics) == [
            "line 3: not valid JSON (Expecting value)",
            "line 7: bad archive record: 'gan'",
        ] + ["run b: rejected record (unknown activation 'swish')"] * 2 + [
            "run a: rejected record (unknown activation 'swish')"] * 2
        assert loaded.rejected == 4 and loaded.n_individuals == 2
        assert list(loaded.runs) == ["b", "a"]  # first seen first

    def test_tables_looked_up_once_per_load(self, tmp_path, monkeypatch):
        path = tmp_path / "runs.jsonl"
        save_archive(make_archive(np.random.default_rng(11), 3, 20), path)
        calls = count_calls(monkeypatch, "_layer_values")
        assert load_archive(path).n_individuals == 60
        assert calls == [(CONFIG,)]

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
            first_keys = {(i.fitness, tree_hash(i.gan)) for i in sets.first}
            second_keys = {(i.fitness, tree_hash(i.gan))
                           for i in sets.second}
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
        expected = sorted(inds, key=lambda i: tree_hash(i.gan))
        assert sets.first == expected[:2]
        assert sets.second == expected[2:4]


# ---------------------------------------------------------------------------
# Record encoding: the fragment encoder against the json.dumps formula


def reference_text(ind):
    return json.dumps(record_obj(ind), sort_keys=True)


def reference_digest(individuals):
    digest = hashlib.sha256()
    for ind in individuals:
        digest.update(reference_text(ind).encode())
    return digest.hexdigest()


def reference_content_hash(archive):
    return reference_digest(
        ind for run_id in sorted(archive.runs)
        for ind in sorted(archive.runs[run_id],
                          key=lambda i: (i.fitness, tree_hash(i.gan))))


def reference_archive_bytes(archive):
    header = {"format": "archive-v1", "config": archive.config.to_json_obj()}
    lines = [json.dumps(header, sort_keys=True)]
    lines += [reference_text(ind) for run in archive.runs.values()
              for ind in run]
    return "".join(line + "\n" for line in lines).encode()


@pytest.fixture(scope="module")
def acceptance_archive():
    # The 30-run, 12,000-record joint archive of the acceptance suite.
    land = LandscapeConfig(genotype=CONFIG, family_seed=7)
    return generate_archive(ArchiveGenConfig(landscape=land))


def odd_archive():
    """Ids that need escaping, ids of other types, and every kind of
    fitness the encoder special-cases."""
    fitnesses = [0.5, -0.0, 0.0, 1e-300, 1e300, np.float64(0.1), 3, True,
                 np.float64(-0.0)]
    problem_ids = ["p\"0", "\u03c0", 1, True, 1.0, "p\\0"]
    rng = np.random.default_rng(13)
    runs = {}
    for r, run_id in enumerate(["r\"0", "r\u00e90", "r 1"]):
        run = []
        for i in range(12):
            j = 3 * r + i
            run.append(make_individual(
                rng, fitnesses[j % len(fitnesses)], run_id,
                problem_ids[j % len(problem_ids)]))
        runs[run_id] = run
    return RunArchive(runs=runs, config=CONFIG)


FITNESS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e-300, 1e300, 5e-324, 1e16]),
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
    config = draw(st.sampled_from([CONFIG, PER_NET, SMALL, TINY]))
    individuals = []
    for _ in range(draw(st.integers(1, 5))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        problem_id, run_id = draw(st.sampled_from(id_pairs))
        individuals.append(make_individual(rng, draw(FITNESS), run_id,
                                           problem_id, config=config))
    return individuals


class TestRecordEncoding:
    @given(individual_lists())
    def test_equals_json_dumps(self, individuals):
        want = [reference_text(ind) for ind in individuals]
        assert list(_record_texts(individuals)) == want

    def test_mixed_configs_equal_json_dumps(self):
        rng = np.random.default_rng(14)
        individuals = [make_individual(rng, 0.5, config=config)
                       for _ in range(5) for config in (CONFIG, PER_NET,
                                                        SMALL, TINY)]
        assert list(_record_texts(individuals)) == [
            reference_text(ind) for ind in individuals]

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

    def test_generate_rank_and_save_build_no_tree(self, tmp_path,
                                                  monkeypatch):
        calls = count_calls(monkeypatch, "unflatten_joint")
        land = LandscapeConfig(genotype=SMALL, family_seed=5)
        archive = generate_archive(ArchiveGenConfig(
            landscape=land, problem_seeds=(0, 1), runs_per_problem=2,
            population=8, generations=4))
        archive.content_hash()
        extract_sets(archive, n=3, seed=0)
        save_archive(archive, tmp_path / "runs.jsonl")
        assert archive.n_individuals == 2 * 2 * (8 + 4 * 7)
        assert calls == []

    def test_each_layer_value_encoded_once_per_call(self, acceptance_archive,
                                                    tmp_path, monkeypatch):
        # Layer texts come from one table per config and separators, so
        # each layer of the vocabulary is encoded once, then never again.
        encode = json.dumps
        calls = []

        def dumps(obj, **kwargs):
            if isinstance(obj, dict) and "size_bin" in obj:
                calls.append(obj)
            return encode(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", dumps)
        _text_tables.cache_clear()
        try:
            extract_sets(acceptance_archive, n=10, seed=0)
            acceptance_archive.content_hash()
            tables = [_text_tables(CONFIG, compact)[1]
                      for compact in (False, True)]
            assert len(calls) == sum(len(t) for pair in tables for t in pair)
            assert [len(t) for t in tables[0]] == [2 * 5 * 3 * 5] * 2
            calls.clear()
            for run in (acceptance_archive.content_hash,
                        lambda: save_archive(acceptance_archive,
                                             tmp_path / "runs.jsonl")):
                run()
                assert calls == []
        finally:
            _text_tables.cache_clear()


# ---------------------------------------------------------------------------
# Reading: lines the writer emits straight from their text, others as JSON


def compact_copy(path, out):
    """``path`` with each JSON line re-serialised with compact separators,
    which no line the writer emits has, so that every line of ``out`` is
    read as JSON; a line that is not JSON is copied as it is."""
    lines = []
    for line in path.read_text().splitlines():
        try:
            line = json.dumps(json.loads(line), sort_keys=True,
                              separators=(",", ":"))
        except ValueError:
            pass
        lines.append(line + "\n")
    out.write_text("".join(lines))


def loaded(path, config=None):
    """What ``load_archive`` makes of ``path``: the config, diagnostics
    and rejection count, and each run's individuals as the ``repr`` of
    their fields, which tells -0.0 from 0.0, a float from an int and a
    ``DepthKey`` from a tuple; or the error, without the file name."""
    try:
        archive = load_archive(path, config)
    except ValidationError as exc:
        return type(exc), str(exc).replace(str(path), "<path>")
    return (archive.config, archive.diagnostics, archive.rejected,
            [(run_id, [(repr((ind.key, ind.row, ind.fitness, ind.run_id,
                              ind.problem_id)), ind.config) for ind in run])
             for run_id, run in archive.runs.items()])


@st.composite
def archives(draw):
    individuals = draw(individual_lists())
    runs = {}
    for ind in individuals:
        runs.setdefault(ind.run_id, []).append(ind)
    return RunArchive(runs=runs, config=individuals[0].config)


def edited_archive_lines():
    """The lines ``save_archive`` writes for an archive with odd fitnesses
    and ids, followed by every edit of one byte of its last record that
    replaces or inserts a byte of ``EDIT_BYTES`` or deletes a byte, each
    edit on a line of its own."""
    rng = np.random.default_rng(16)
    runs = {run_id: [make_individual(rng, fitness, run_id, problem_id,
                                     DepthKey(2, 2))
                     for fitness in (7, 0.25, 1e16, -0.0)]
            for run_id, problem_id in (("r\u00e9", "p0"), ("r1", "p\"1"))}
    header = {"format": "archive-v1", "config": CONFIG.to_json_obj()}
    lines = [json.dumps(header, sort_keys=True), *_record_texts(
        RunArchive(runs=runs, config=CONFIG).all_individuals())]
    edits, line = {}, lines[-1]
    for at in range(len(line) + 1):
        edits[line[:at] + line[at + 1:]] = None
        for byte in EDIT_BYTES:
            edits[line[:at] + byte + line[at + 1:]] = None
            edits[line[:at] + byte + line[at:]] = None
    return lines + list(edits)


# Bytes that keep an edited line JSON, or in the writer's form, more often.
EDIT_BYTES = '09-.e" ,}x'
# The default layer texts with other row values, and smaller depth bounds.
SHIFTED = GenotypeConfig.joint(generator_kinds=("transposed_conv", "dense"),
                               generator_depth_max=2,
                               discriminator_depth_max=3)


class TestReadPaths:
    @given(archive=archives(), config=st.sampled_from(
        [None, CONFIG, PER_NET, SMALL, TINY, SHIFTED]))
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_written_and_compact_copies_load_alike(self, archive, config,
                                                   tmp_path):
        written, compact = tmp_path / "written.jsonl", tmp_path / "c.jsonl"
        save_archive(archive, written)
        compact_copy(written, compact)
        assert loaded(written, config) == loaded(compact, config)

    def test_one_byte_edits_load_as_their_compact_copies(self, tmp_path):
        lines = edited_archive_lines()
        written, compact = tmp_path / "written.jsonl", tmp_path / "c.jsonl"
        written.write_text("".join(line + "\n" for line in lines))
        compact_copy(written, compact)
        got = loaded(written)
        assert got == loaded(compact)
        diagnostics = set(got[1])
        for lineno, line in enumerate(lines, start=1):
            try:
                read_json_line(line)
            except FormatError as exc:  # rejected as JSON rejects it
                assert f"line {lineno}: {exc}" in diagnostics

    @pytest.mark.parametrize("run_size", [5, 200])
    def test_written_lines_are_read_without_json(self, run_size, tmp_path,
                                                 monkeypatch):
        archive = make_archive(np.random.default_rng(17), 3, run_size)
        path, genotypes = tmp_path / "runs.jsonl", tmp_path / "gans.jsonl"
        save_archive(archive, path)
        pairs = [(ind.key, ind.row) for ind in archive.all_individuals()]
        dump_genotypes(pairs, CONFIG, genotypes)
        calls = count_calls(monkeypatch, "read_json_line", archsmith.errors)
        assert load_archive(path) == archive
        # The header, and the first record, read before the config is known.
        assert len(calls) == 2
        calls.clear()
        assert list(load_genotypes(genotypes, CONFIG)) == pairs
        assert calls == []


# ---------------------------------------------------------------------------
# The archive as an immutable value, ranked and hashed once per object


class TestFrozenArchive:
    def test_records_encoded_and_runs_ranked_once(self, monkeypatch):
        land = LandscapeConfig(genotype=SMALL, family_seed=5)
        archive = generate_archive(ArchiveGenConfig(
            landscape=land, problem_seeds=(0, 1), runs_per_problem=2,
            population=8, generations=4))
        texts = count_calls(monkeypatch, "_record_texts", archsmith.archive)
        ranks = count_calls(monkeypatch, "_ranked", archsmith.archive)
        for seed in range(3):
            extract_sets(archive, n=3, seed=seed)
        run_likelihood(archive, LikelihoodConfig(landscape=land, n=3,
                                                 min_scored=6))
        run_sampling(archive, SamplingConfig(
            landscape=land, train_seeds=(0, 1), holdout_seeds=(50,), n=3,
            n_each=10))
        run_initialization(archive, InitializationConfig(
            landscape=land, replicates=1, population=4, generations=2, n=3))
        run_guided_search(archive, GuidedSearchConfig(
            landscape=land, replicates=1, budget=4, n=3))
        # No experiment renders a record; each run is ranked once.
        assert texts == [] and len(ranks) == archive.n_runs
        hashes = {archive.content_hash() for _ in range(3)}
        assert len(texts) == 1 and len(ranks) == archive.n_runs
        assert hashes == {reference_content_hash(archive)}

    def test_train_subset_learns_from_its_own_runs(self, acceptance_archive):
        land = LandscapeConfig(genotype=CONFIG, family_seed=7)
        config = SamplingConfig(landscape=land, train_seeds=(0, 1),
                                holdout_seeds=(100,), n_each=10)
        runs = acceptance_archive.runs
        subset = RunArchive(runs={run_id: run for run_id, run in runs.items()
                                  if run[0].problem_id in ("0", "1")},
                            config=CONFIG)
        assert subset.n_runs == 12
        whole = run_sampling(acceptance_archive, config)
        part = run_sampling(subset, config)
        assert (whole.rows, whole.tests) == (part.rows, part.tests)

    def test_runs_and_attributes_refuse_assignment(self):
        archive = make_archive(np.random.default_rng(30), 2, 4)
        with pytest.raises(TypeError):
            archive.runs["run000"] = ()
        with pytest.raises(TypeError):
            del archive.runs["run000"]
        with pytest.raises(AttributeError):
            archive.runs["run000"].append(archive.runs["run001"][0])
        for name, value in (("runs", {}), ("config", SMALL),
                            ("rejected", 3), ("problem_ids", frozenset())):
            with pytest.raises(FrozenInstanceError):
                setattr(archive, name, value)

    def test_list_runs_come_back_as_tuples(self):
        rng = np.random.default_rng(31)
        runs = {"r0": [make_individual(rng, 1.0), make_individual(rng, 2.0)]}
        archive = RunArchive(runs=runs, config=CONFIG,
                             diagnostics=["line 1: x"])
        assert archive.runs["r0"] == tuple(runs["r0"])
        assert archive.diagnostics == ("line 1: x",)
        runs["r0"].clear()
        runs["r1"] = []
        assert list(archive.runs) == ["r0"] and len(archive.runs["r0"]) == 2
