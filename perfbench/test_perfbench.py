"""Smoke tests of the benchmark at acceptance criterion 8's reduced scale.

Run from the root of the checkout:  python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, STAGES  # noqa: E402

# Every figure README.md documents, with its unit.
NAMED = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio",
    "setup_raw_s": "s", "wall_raw_s": "s", "machine.reference_s": "s",
    "evals_per_s": "1/s", "gen_archive_s": "s", "initialization_s": "s",
    "guided_search_s": "s", "likelihood_s": "s", "sampling_s": "s",
    "model_save_s": "s", "model_load_s": "s", "model_mb": "MB",
    "landscape.evaluate.calls": "count", "landscape.evaluate.self_s": "s",
    "landscape.evaluate.us_per_call": "us",
    "landscape.evaluate_values.rows": "count",
    "landscape.evaluate_values.self_s": "s",
    "landscape.make_landscape.self_s": "s",
    "landscape.evaluate.distinct_ratio": "ratio",
    "genotype.gan_hash.calls": "count", "genotype.gan_hash.self_s": "s",
    "genotype.flatten_joint.calls": "count",
    "genotype.flatten_joint.self_s": "s",
    "genotype.unflatten_joint.calls": "count",
    "genotype.unflatten_joint.self_s": "s",
    "genotype.random_gan.calls": "count", "genotype.random_gan.self_s": "s",
    "search.mutate.calls": "count", "search.mutate.self_s": "s",
    "search.simple_ea.generations": "count", "search.simple_ea.self_s": "s",
    "search.neighbor_groups.calls": "count",
    "search.neighbor_groups.rows": "count",
    "search.neighbor_groups.self_s": "s",
    "search.random_hc.accept_ratio": "ratio",
    "search.guided_hc.accept_ratio": "ratio",
    "search.guided_hc.evaluated_per_scored": "ratio",
    "search.guided_hc.exhausted_steps": "count",
    "bayesnet.mi_matrix.self_s": "s", "bayesnet.aracne_skeleton.self_s": "s",
    "bayesnet.chow_liu.self_s": "s", "bayesnet.fit_cpts.self_s": "s",
    "bayesnet.cpt_cells": "count", "bayesnet.edges": "count",
    "bayesnet.max_in_degree": "count",
    "bayesnet.log_likelihood_many.calls": "count",
    "bayesnet.log_likelihood_many.rows": "count",
    "bayesnet.log_likelihood_many.self_s": "s",
    "bayesnet.pls_sample_many.rows": "count",
    "bayesnet.pls_sample_many.self_s": "s",
    "metamodel.learn.calls": "count", "metamodel.learn.self_s": "s",
    "metamodel.score.calls": "count", "metamodel.score.self_s": "s",
    "metamodel.score_values.rows": "count",
    "metamodel.score_values.self_s": "s",
    "metamodel.sample_many.rows": "count",
    "metamodel.sample_many.self_s": "s",
    "metamodel.save_metamodel.bytes": "count",
    "metamodel.save_metamodel.self_s": "s",
    "metamodel.load_metamodel.self_s": "s",
    "archive.load_archive.rows": "count", "archive.load_archive.self_s": "s",
    "archive.save_archive.self_s": "s", "archive.extract_sets.calls": "count",
    "archive.extract_sets.self_s": "s", "archive.content_hash.calls": "count",
    "archive.content_hash.self_s": "s",
    "stats.kruskal_wallis.calls": "count", "stats.dunn.calls": "count",
    "stats.rank_sum.calls": "count", "stats.self_s": "s",
    "experiments.generate_archive.self_s": "s",
    "experiments.run_likelihood.self_s": "s",
    "experiments.run_sampling.self_s": "s",
    "experiments.run_initialization.self_s": "s",
    "experiments.run_guided_search.self_s": "s",
    "trace.overhead_s": "s",
}

# What each workload must exercise, so a layer can't silently drop out.
ACTIVE = {
    "evolve": ("gen_archive_s", "initialization_s",
               "landscape.evaluate.calls", "genotype.gan_hash.calls",
               "search.mutate.calls", "search.simple_ea.generations",
               "archive.save_archive.self_s"),
    "guide": ("guided_search_s", "search.neighbor_groups.rows",
              "bayesnet.log_likelihood_many.rows",
              "metamodel.score_values.rows", "archive.load_archive.rows",
              "search.guided_hc.evaluated_per_scored"),
    "model": ("likelihood_s", "sampling_s", "model_save_s", "model_load_s",
              "model_mb", "metamodel.score.calls",
              "metamodel.save_metamodel.bytes", "bayesnet.cpt_cells",
              "stats.kruskal_wallis.calls", "bayesnet.pls_sample_many.rows"),
}


def _run(*args):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "1",
         "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _printed(lines):
    """name -> unit from the table run.py prints above the result line."""
    table = {}
    for line in lines:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            table[parts[0]] = parts[2]
    return table


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
            == list(END_TO_END))
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == list(PER_LAYER))
    assert [w["name"] for w in spec["workloads"]] == list(ACTIVE)
    assert {name for name, _, _ in STAGES} <= set(NAMED)


@pytest.mark.parametrize("workload", sorted(ACTIVE))
def test_smoke_run_emits_every_named_metric(workload):
    lines, result = _run("--workload", workload, "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, unit, _ in END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("machine: ") and '"nproc"' in line
               for line in lines)

    lines, traced = _run("--workload", workload, "--trace", "1")
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        name: unit for name, unit, _ in PER_LAYER}
    printed = _printed(lines)
    for name, unit in NAMED.items():
        assert printed.get(name) == unit, name
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    for name in ACTIVE[workload]:
        assert values[name] > 0, name
    # Self times of the layers account for the traced wall time.
    assert values["trace.layer_share"] > 0.9


def test_refuses_to_run_outside_a_checkout(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "evolve",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
