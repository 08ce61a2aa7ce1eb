"""Metric catalogue: names, units and how per-layer figures are computed.

``END_TO_END`` and ``PER_LAYER`` match ``BENCHMARK.json`` entry for entry
(the smoke test checks this).  ``STAGES`` are end-to-end figures that
belong to one workload only, or that only restate ``wall_s`` and would
double its exposure to machine noise (``evals_per_s``).  They are reported
as per-layer figures, taken from untraced iterations, and printed in the
table of every run.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Time spent in each workload's operations, per iteration.
OP_STAGES = (
    ("gen_archive_s", "s", "lower"),
    ("initialization_s", "s", "lower"),
    ("guided_search_s", "s", "lower"),
    ("likelihood_s", "s", "lower"),
    ("sampling_s", "s", "lower"),
    ("model_save_s", "s", "lower"),
    ("model_load_s", "s", "lower"),
)

STAGES = (
    ("wall_raw_s", "s", "lower"),
    ("setup_raw_s", "s", "lower"),
    ("machine.reference_s", "s", "lower"),
    ("evals_per_s", "1/s", "higher"),
    *OP_STAGES,
    ("model_mb", "MB", "lower"),
)


def _calls_self(name):
    return ((f"{name}.calls", "count", "lower"),
            (f"{name}.self_s", "s", "lower"))


# Per-layer figures of each layer; README.md says which end-to-end metric
# each should move, and on which workload.
LAYER_METRICS = {
    "landscape": (
        *_calls_self("landscape.evaluate"),
        ("landscape.evaluate.us_per_call", "us", "lower"),
        ("landscape.evaluate.distinct_ratio", "ratio", "higher"),
        ("landscape.evaluate_values.rows", "count", "lower"),
        ("landscape.evaluate_values.self_s", "s", "lower"),
        ("landscape.make_landscape.self_s", "s", "lower")),
    "genotype": (
        *_calls_self("genotype.gan_hash"),
        *_calls_self("genotype.flatten_joint"),
        *_calls_self("genotype.unflatten_joint"),
        *_calls_self("genotype.random_gan")),
    "search": (
        *_calls_self("search.mutate"),
        ("search.simple_ea.generations", "count", "lower"),
        ("search.simple_ea.self_s", "s", "lower"),
        *_calls_self("search.neighbor_groups"),
        ("search.neighbor_groups.rows", "count", "lower"),
        ("search.random_hc.accept_ratio", "ratio", "higher"),
        ("search.guided_hc.accept_ratio", "ratio", "higher"),
        ("search.guided_hc.evaluated_per_scored", "ratio", "higher"),
        ("search.guided_hc.exhausted_steps", "count", "lower")),
    "bayesnet": (
        ("bayesnet.mi_matrix.self_s", "s", "lower"),
        ("bayesnet.aracne_skeleton.self_s", "s", "lower"),
        ("bayesnet.chow_liu.self_s", "s", "lower"),
        ("bayesnet.fit_cpts.self_s", "s", "lower"),
        ("bayesnet.cpt_cells", "count", "lower"),
        ("bayesnet.edges", "count", "lower"),
        ("bayesnet.max_in_degree", "count", "lower"),
        *_calls_self("bayesnet.log_likelihood_many"),
        ("bayesnet.log_likelihood_many.rows", "count", "lower"),
        ("bayesnet.pls_sample_many.rows", "count", "lower"),
        ("bayesnet.pls_sample_many.self_s", "s", "lower")),
    "metamodel": (
        *_calls_self("metamodel.learn"),
        *_calls_self("metamodel.score"),
        ("metamodel.score_values.rows", "count", "lower"),
        ("metamodel.score_values.self_s", "s", "lower"),
        ("metamodel.sample_many.rows", "count", "lower"),
        ("metamodel.sample_many.self_s", "s", "lower"),
        ("metamodel.save_metamodel.bytes", "count", "lower"),
        ("metamodel.save_metamodel.self_s", "s", "lower"),
        ("metamodel.load_metamodel.self_s", "s", "lower")),
    "archive": (
        ("archive.load_archive.rows", "count", "lower"),
        ("archive.load_archive.self_s", "s", "lower"),
        ("archive.save_archive.self_s", "s", "lower"),
        *_calls_self("archive.extract_sets"),
        *_calls_self("archive.content_hash")),
    "stats": (
        ("stats.kruskal_wallis.calls", "count", "lower"),
        ("stats.dunn.calls", "count", "lower"),
        ("stats.rank_sum.calls", "count", "lower")),
    "experiments": (
        ("experiments.generate_archive.self_s", "s", "lower"),
        ("experiments.run_likelihood.self_s", "s", "lower"),
        ("experiments.run_sampling.self_s", "s", "lower"),
        ("experiments.run_initialization.self_s", "s", "lower"),
        ("experiments.run_guided_search.self_s", "s", "lower")),
}

# Self time of each layer as a whole, and how much of the traced wall time
# the layers account for (the rest is the harness's own code).
TRACE = (
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.wall_s", "s", "lower"),
    ("trace.layer_share", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)

PER_LAYER = (*STAGES,
             *(m for layer in LAYERS for m in LAYER_METRICS[layer]),
             *TRACE)

UNITS = {name: unit for name, unit, _ in
         (*END_TO_END, *PER_LAYER, ("error_rate", "ratio", "lower"))}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(tracer, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced iteration (set-up included)."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    values: dict[str, float] = {}
    layer_total = 0.0
    for layer in LAYERS:
        total = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        values[f"{layer}.self_s"] = total
        layer_total += total
    evaluate_calls = calls.get("landscape.evaluate", 0)
    derived = {
        "landscape.evaluate.us_per_call":
            1e6 * _ratio(tracer.total_s.get("landscape.evaluate", 0.0),
                         evaluate_calls),
        "landscape.evaluate.distinct_ratio":
            _ratio(len(tracer.distinct), evaluate_calls),
        "search.random_hc.accept_ratio":
            _ratio(counts.get("search.random_hc.accepted", 0),
                   counts.get("search.random_hc.evaluated", 0)),
        "search.guided_hc.accept_ratio":
            _ratio(counts.get("search.guided_hc.accepted", 0),
                   counts.get("search.guided_hc.evaluated", 0)),
        "search.guided_hc.evaluated_per_scored":
            _ratio(counts.get("search.guided_hc.evaluated", 0),
                   counts.get("search.guided_hc.scored", 0)),
        "trace.wall_s": wall_s,
        "trace.layer_share": _ratio(layer_total, wall_s),
    }
    stage_names = {name for name, _, _ in STAGES}
    for name, _, _ in PER_LAYER:
        if name in values or name in stage_names or name == "trace.overhead_s":
            continue
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".calls"):
            values[name] = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[:-len(".self_s")], 0.0)
        else:
            values[name] = counts.get(name, 0)
    return values


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    keys = dicts[0].keys() if dicts else ()
    return {k: statistics.median(d[k] for d in dicts) for k in keys}
