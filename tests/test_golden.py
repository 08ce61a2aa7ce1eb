"""Golden output digests: refactors must leave every artifact byte-identical.

The runs use acceptance criterion 8's reduced scale (``SMALL_LAND``):
``gen-archive`` plus the four experiments through the CLI, and one
per-network ``gen-archive`` plus ``guided-search`` at the same scale, whose
per-step genotype hashes are digested too (``steps.csv`` carries fitness
only).  One more ``gen-archive`` plus ``initialization`` at the same scale
runs in the default joint space (``DEFAULT_LAND``), whose arity and
vocabularies reach every mutation kind.  On the first two archives the ``learn``, ``sample`` and ``score`` commands
run as well (the archive and the sampled genotypes are both scored), and
the saved uniform metamodel of each genotype mode is digested.  On the
first archive ``search`` runs too, random and guided (under the CLI model),
from the start genotype its ``--seed`` draws; ``learn --structure chow_liu``
runs and its model scores the archive; a landscape written by
``save_landscape`` is digested and read back by ``search --landscape``; and
``analyze`` runs each of its tests on the guided-search steps.  A change
to any digest is a behaviour change: it needs a reason in ``CHANGES.md``
and a re-baseline in the same change.  Two more digests pin the
acceptance-scale archives: ``generate_archive`` with ``ArchiveGenConfig``
defaults on ``DEFAULT_LAND``, for base seeds 0 and 1, as ``save_archive``
writes them.  To print the current digests for a re-baseline::

    PYTHONPATH=src python tests/test_golden.py

Recorded on x86-64 with Python 3.11 and numpy 2.4; float artifacts are
written with ``repr``, so another numpy build may round differently.
"""

import hashlib
import json
import sys
from pathlib import Path

from archsmith.archive import load_archive, save_archive
from archsmith.cli import main
from archsmith.experiments import (
    ArchiveGenConfig,
    GuidedSearchConfig,
    generate_archive,
    run_guided_search,
)
from archsmith.genotype import GenotypeConfig, gan_hash
from archsmith.landscape import (LandscapeConfig, make_landscape,
                                 save_landscape)
from archsmith.metamodel import LearnConfig, Metamodel, save_metamodel

VOCAB = dict(arity=2, activations=("relu", "tanh"),
             weight_inits=("xavier", "normal"))
# Criterion 8's configuration, repeated here so the suite stays untouched.
SMALL = GenotypeConfig.joint(**VOCAB, generator_depth_max=2,
                             discriminator_depth_max=2)
SMALL_LAND = LandscapeConfig(genotype=SMALL, family_seed=5, base_scale=10.0)
# Per-network genotypes keep their default depth bounds (6/6).
SMALL_PN = GenotypeConfig.per_network(**VOCAB)
SMALL_PN_LAND = LandscapeConfig(genotype=SMALL_PN, family_seed=5,
                                base_scale=10.0)

GEN = {"problem_seeds": "0..2", "runs_per_problem": 2, "population": 8,
       "generations": 4}
EXPERIMENTS = {
    "likelihood": {"n": 3, "min_scored": 6},
    "sampling": {"train_seeds": "0..1", "holdout_seeds": "50..51", "n": 3,
                 "n_each": 20},
    "initialization": {"target_seed": 60, "replicates": 3, "population": 6,
                       "generations": 3, "n": 3},
    "guided-search": {"target_seed": 61, "replicates": 3, "budget": 12,
                      "n": 3},
}
PN_GUIDED = {"target_seed": 61, "replicates": 3, "budget": 12, "n": 3}
# ``archsmith search`` flags of the joint run, digested per algorithm.
SEARCH = ("--landscape-seed", 61, "--seed", 4, "--budget", 12)
DEFAULT_LAND = LandscapeConfig(genotype=GenotypeConfig.joint(), family_seed=7)
# ``archsmith analyze`` tests run on the joint guided-search steps.
ANALYZE_TESTS = ("kw", "dunn", "ranksum")

GOLDEN = {
    "default/archive.jsonl":
        "650773cf3a990fa42933c36169dad88b82b04df8b63db9e4d83568c25a5820ce",
    "default/initialization/generations.csv":
        "f57b08451904101263352c5ca6aeef8bf7a5d1dffe64c75c073225234828ef0d",
    "default/initialization/summary.json":
        "95d18a12b5103763479ffd65819e88e6ee2e0afae7fc37ccc5869bcb68efc01b",
    "joint/analyze/dunn.csv":
        "72b75d6e4115be1efc8b3158e65c69fe9281c050606c33a0465114976243067b",
    "joint/analyze/kw.csv":
        "74b5f76f4c65cc36fcce2b35d582ae03606b9d3047a89d126499e79f65a2a2ae",
    "joint/analyze/ranksum.csv":
        "ee1d16057bba70cacc932d4b50a600fe8bda52897d66633b97a0fac484e1ea57",
    "joint/archive.jsonl":
        "1f4ff4bef38ffacf9fee02cce5f6c37054f638fd602908bf7a7daa7c157dff9f",
    "joint/cli/landscape-62.json":
        "aff56fe36cf0a8d5dedf453b7b4c307e0b943da543e3441205552acda2a4d637",
    "joint/cli/model-chow_liu.json":
        "a93264c0ab452adee7ba621764ff3a68382a373bdc085b525610ead0694844f2",
    "joint/cli/model.json":
        "9032adbf4ad25b76a5b8c973dc98eed8d477a68ac84716510b066628003beb95",
    "joint/cli/samples.jsonl":
        "a36f9af9cdb9d0ae84657293e8d064025129579024cb22916853edc70cd5ca2c",
    "joint/cli/score-archive-chow_liu.csv":
        "20663d014de979bb6436302567897a54a1cd377b8118cb93af69c8a74d85685e",
    "joint/cli/score-archive.csv":
        "f447fdcca827df1f959cb52bf735b478d81bf075bb2827e353d8e0c72d6d832c",
    "joint/cli/score-samples.csv":
        "70e2cc51279ecf1f48472c4e959d1acb18077c3625cf3ba8dc6825893dc9982c",
    "joint/cli/search-guided.csv":
        "551a553acc8517040936e9f10324dc45d6298625d5649ea7c952898406bece6a",
    "joint/cli/search-landscape-file.csv":
        "5dcbfb939e00b0b8f86c7f1cd246a6daf2291bc1054eab0ec656f4c5da709428",
    "joint/cli/search-random.csv":
        "f831ec7dc799337df9e8c7e3f9c9b2d7008de0d4f8bc2d7f6437db672c9acfbe",
    "joint/guided-search/steps.csv":
        "d389ccacc0f7e9a2d3b8499c86c919ac994bebf9a26121799c68130612855a20",
    "joint/guided-search/summary.json":
        "73a162bf7ca22233770898d0731772ab804f8ade14f8a2a0fa86929aa134a76d",
    "joint/initialization/generations.csv":
        "053d04c5284d8b7a54a5296c7779641a1f92f8f86f4788619b89f26270160625",
    "joint/initialization/summary.json":
        "3c5cbe29cc07d69e5973bd0b5770c9a4d798b4a0f4510b4e9e3405d90ae1fa47",
    "joint/likelihood/scores.csv":
        "9ba48a2cc165459e92a8dbc95bd0ca7b56135f4f7ca434d74334a3142d3fb7a0",
    "joint/likelihood/tests.csv":
        "97bd496abe7c69eabc0e58a12e9d737030359e441da339040c7d5ca0d1e78e7b",
    "joint/sampling/samples.csv":
        "4f8631b949d76b57feed63053d9de73f9955c0a8d0c1a1e880a85f97d3953879",
    "joint/sampling/tests.csv":
        "d05b4db248c56bf73972d4947d346f9bf892f01095e8973191a9e9c8b126a6c0",
    "joint/uniform.json":
        "f1d5b098ab9e05ab29477e5835cca605beeebc8a635ef08498ec6499ac257564",
    "per-network/archive.jsonl":
        "28bb610c9fd3e0ff4298d3b0b378e8f0011ce6c824ea5803ebb02f8827504027",
    "per-network/cli/model.json":
        "cfecd8e8aaf562ba3d163592567ebdc406482ef251138328cccc1ecba1ca5147",
    "per-network/cli/samples.jsonl":
        "4d44368f6d9a5f002b811b7ad1dda72eacabfbfac994b852d7b7d7343757afc3",
    "per-network/cli/score-archive.csv":
        "a9c46627a1d8cf51a0cee944a00b6af6af235b35acb99d78ed4cd600e3469a72",
    "per-network/cli/score-samples.csv":
        "3d75e0b749e0bd7aa0cd4934baeb77b0b8aed450dac372e8c92b36cf9ec14e59",
    "per-network/guided-search/gan_hashes":
        "7e58fbded536b05863d03c527f93d9e58e6b5cc7c050c2ca34d5a8cf054ed1e4",
    "per-network/guided-search/steps.csv":
        "e22412379fb2e567ba398511511336c2e269271fbe75a4a7719ad1e304fc9ab1",
    "per-network/guided-search/summary.json":
        "ea37327f7ddf1f26f909bc0fe9b9698c9eb3a4ddd340145713487d6b13afa02c",
    "per-network/uniform.json":
        "df332856e06842d598e50541f2bd31ec67d0b557a46d304869e9142e3f7a8365",
}

# save_archive digests of the acceptance-scale archives, by base seed.
ARCHIVE_GOLDEN = {
    0: "84b36f45362f25d09a688c8be0b78dc8a3072fbe4a6d9601d5c48651836f0382",
    1: "27d744e13dc1d82fd1a53cee57232be81ed286c5f2bfa5df3f5e8b58b00c7e0e",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


def _run(*argv) -> None:
    code = main([str(a) for a in argv])
    assert code == 0, f"archsmith {' '.join(map(str, argv))} exited {code}"


def compute_digests(workdir: Path) -> dict[str, str]:
    """sha256 of every artifact, keyed ``<run>/<file name>``."""
    out: dict[str, str] = {}
    runs = (("joint", SMALL_LAND, EXPERIMENTS, True),
            ("per-network", SMALL_PN_LAND, {"guided-search": PN_GUIDED}, True),
            ("default", DEFAULT_LAND,
             {"initialization": EXPERIMENTS["initialization"]}, False))
    for label, land, experiments, with_cli in runs:
        land_obj = land.to_json_obj()
        archive = workdir / f"{label}-archive.jsonl"
        _run("gen-archive", "--config",
             _write_json(workdir / f"{label}-gen.json",
                         {"landscape": land_obj, **GEN}),
             "--out", archive)
        out[f"{label}/archive.jsonl"] = _sha256(archive.read_bytes())
        cli = {} if not with_cli else {name: workdir / f"{label}-{name}" for name in
               ("model.json", "samples.jsonl", "score-archive.csv",
                "score-samples.csv")}
        if with_cli:
            _run("learn", "--archive", archive, "--n", 3, "--seed", 0,
                 "--out", cli["model.json"])
            _run("sample", "--model", cli["model.json"], "--n", 50,
                 "--out", cli["samples.jsonl"])
            for scored, genotypes in (("archive", archive),
                                      ("samples", cli["samples.jsonl"])):
                _run("score", "--model", cli["model.json"], "--genotypes",
                     genotypes, "--out", cli[f"score-{scored}.csv"])
            if label == "joint":
                land_path = _write_json(workdir / f"{label}-land.json",
                                        land_obj)
                for algorithm in ("random", "guided"):
                    cli[f"search-{algorithm}.csv"] = traces = (
                        workdir / f"{label}-search-{algorithm}.csv")
                    _run("search", "--algorithm", algorithm, "--model",
                         cli["model.json"], "--landscape-config", land_path,
                         *SEARCH, "--out", traces)
                chow_liu = cli["model-chow_liu.json"] = (
                    workdir / f"{label}-model-chow_liu.json")
                _run("learn", "--archive", archive, "--n", 3, "--seed", 0,
                     "--structure", "chow_liu", "--out", chow_liu)
                cli["score-archive-chow_liu.csv"] = scores = (
                    workdir / f"{label}-score-archive-chow_liu.csv")
                _run("score", "--model", chow_liu, "--genotypes", archive,
                     "--out", scores)
                # A landscape file, written and then searched on.
                saved = cli["landscape-62.json"] = (
                    workdir / f"{label}-landscape-62.json")
                save_landscape(make_landscape(62, land), saved)
                cli["search-landscape-file.csv"] = traces = (
                    workdir / f"{label}-search-landscape-file.csv")
                _run("search", "--algorithm", "guided", "--model",
                     cli["model.json"], "--landscape", saved, "--seed", 4,
                     "--budget", 12, "--out", traces)
            for name, path in cli.items():
                out[f"{label}/cli/{name}"] = _sha256(path.read_bytes())
            uniform = workdir / f"{label}-uniform.json"
            save_metamodel(Metamodel.uniform(LearnConfig(land.genotype)),
                           uniform)
            out[f"{label}/uniform.json"] = _sha256(uniform.read_bytes())
        for exp_id, obj in experiments.items():
            out_dir = workdir / f"{label}-{exp_id}"
            _run("experiment", "--id", exp_id, "--archive", archive,
                 "--config",
                 _write_json(workdir / f"{label}-{exp_id}.json",
                             {"landscape": land_obj, **obj}),
                 "--out-dir", out_dir)
            for path in sorted(out_dir.iterdir()):
                out[f"{label}/{exp_id}/{path.name}"] = _sha256(
                    path.read_bytes())
        if label == "joint":
            for test in ANALYZE_TESTS:
                table = workdir / f"{label}-analyze-{test}.csv"
                _run("analyze", "--traces",
                     workdir / f"{label}-guided-search" / "steps.csv",
                     "--test", test, "--out", table)
                out[f"{label}/analyze/{test}.csv"] = _sha256(
                    table.read_bytes())

    result = run_guided_search(
        load_archive(workdir / "per-network-archive.jsonl"),
        GuidedSearchConfig(landscape=SMALL_PN_LAND, **PN_GUIDED))
    genotype = SMALL_PN_LAND.genotype

    def digest(key_row):
        # Exhausted padding records no genotype; the digest hashes "".
        return "" if key_row is None else gan_hash(*key_row, genotype)

    hashes = [[digest(trace.start)] + [digest(s.genotype)
                                       for s in trace.steps]
              for algorithm in sorted(result.traces)
              for trace in result.traces[algorithm]]
    out["per-network/guided-search/gan_hashes"] = _sha256(
        json.dumps(hashes).encode())
    return out


def archive_digests(workdir: Path) -> dict[int, str]:
    """sha256 of each acceptance-scale archive, keyed by base seed."""
    out = {}
    for base_seed in sorted(ARCHIVE_GOLDEN):
        path = workdir / f"acceptance-{base_seed}.jsonl"
        save_archive(generate_archive(ArchiveGenConfig(
            landscape=DEFAULT_LAND, base_seed=base_seed)), path)
        out[base_seed] = _sha256(path.read_bytes())
    return out


def test_acceptance_archive_digests(tmp_path):
    assert archive_digests(tmp_path) == ARCHIVE_GOLDEN


def test_golden_digests(tmp_path):
    got = compute_digests(tmp_path)
    assert sorted(got) == sorted(GOLDEN), "artifact set changed"
    changed = [name for name in GOLDEN if got[name] != GOLDEN[name]]
    assert not changed, f"artifacts changed: {changed}"


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute_digests(Path(tmp))
        digests.update((f"acceptance/base-seed-{seed}.jsonl", digest)
                       for seed, digest in archive_digests(Path(tmp)).items())
    json.dump(digests, sys.stdout, indent=4, sort_keys=True)
    sys.stdout.write("\n")
