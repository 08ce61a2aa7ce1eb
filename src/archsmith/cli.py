"""Command-line surface: archive handling, model fitting, and experiments.

Every command is reproducible from its flags, config file, and seeds.
Exit codes: 0 on success, 1 on validation errors, 2 on I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from .archive import extract_sets, load_archive, save_archive
from .errors import ValidationError
from .experiments import (
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
    write_csv,
    write_guided_csv,
    write_initialization_csv,
    write_likelihood_csv,
    write_likelihood_tests_csv,
    write_sampling_csv,
    write_sampling_tests_csv,
)
from .genotype import GanSpec, GenotypeConfig, dump_genotypes
from .landscape import LandscapeConfig, load_landscape, make_landscape
from .metamodel import (
    LearnConfig,
    learn,
    load_metamodel,
    provenance_mismatch,
    save_metamodel,
)
from .search import guided_hc, random_hc, random_minimal_gan, save_traces
from .stats import dunn, kruskal_wallis, rank_sum

logger = logging.getLogger(__name__)

EXPERIMENT_CONFIGS = {
    "likelihood": LikelihoodConfig,
    "sampling": SamplingConfig,
    "initialization": InitializationConfig,
    "guided-search": GuidedSearchConfig,
}
EXPERIMENT_IDS = tuple(EXPERIMENT_CONFIGS)


class _Parser(argparse.ArgumentParser):
    """Usage problems are validation errors (exit code 1, not 2)."""

    def error(self, message):
        raise ValidationError(message)


def _read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_ingest(args) -> int:
    config = None
    if args.config:
        config = GenotypeConfig.from_json_obj(_read_json(args.config))
    archive = load_archive(args.raw, config=config)
    save_archive(archive, args.out)
    logger.info("ingested %d runs, %d individuals (%d records rejected)",
                archive.n_runs, archive.n_individuals, archive.rejected)
    return 0


def cmd_learn(args) -> int:
    archive = load_archive(args.archive)
    merged = LearnConfig(genotype=archive.config).to_json_obj()
    if args.config:
        merged.update(_read_json(args.config))
    if args.structure:
        merged["structure"] = args.structure
    learn_config = LearnConfig.from_json_obj(merged)
    if learn_config.genotype.fingerprint() != archive.config.fingerprint():
        raise ValidationError("config genotype does not match the archive")
    sets = extract_sets(archive, args.n, args.seed)
    model = learn(sets.first, learn_config,
                  provenance={"archive_hash": archive.content_hash(),
                              "elite_n": args.n, "elite_seed": args.seed})
    save_metamodel(model, args.out)
    logger.info("learned from %d elites (%d runs); structure=%s",
                len(sets.first), archive.n_runs, learn_config.structure)
    return 0


def _iter_genotype_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def cmd_score(args) -> int:
    model = load_metamodel(args.model)
    with open(args.genotypes, "r", encoding="utf-8") as handle:
        first_line = handle.readline()
    rows = []
    try:
        head = json.loads(first_line)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{args.genotypes}: not valid JSON ({exc})") from exc
    if isinstance(head, dict) and "format" in head:
        archive = load_archive(args.genotypes)
        warning = provenance_mismatch(model,
                                      archive_hash=archive.content_hash(),
                                      genotype=archive.config)
        if warning:
            logger.warning("provenance mismatch: %s", warning)
        for run_id in sorted(archive.runs):
            for ind in archive.runs[run_id]:
                b = model.score(ind.gan)
                rows.append((run_id, ind.problem_id, b.depth_key.d_g,
                             b.depth_key.d_d, b.log_prob, b.normalized))
        header = ["run_id", "problem_id", "d_g", "d_d", "log_prob",
                  "normalized"]
    else:
        for index, obj in enumerate(_iter_genotype_lines(args.genotypes)):
            b = model.score(GanSpec.from_json_obj(obj))
            rows.append((index, b.depth_key.d_g, b.depth_key.d_d,
                         b.log_prob, b.normalized))
        header = ["index", "d_g", "d_d", "log_prob", "normalized"]
    write_csv(args.out, header, rows)
    return 0


def cmd_sample(args) -> int:
    model = load_metamodel(args.model)
    rng = np.random.default_rng(args.seed)
    gans = model.sample_many(rng, args.n)
    dump_genotypes(gans, args.out)
    logger.info("sampled %d genotypes", args.n)
    return 0


def _load_search_landscape(args):
    if args.landscape and args.landscape_config:
        raise ValidationError(
            "give either --landscape or --landscape-config, not both")
    if args.landscape:
        return load_landscape(args.landscape)
    if args.landscape_config:
        config = LandscapeConfig.from_json_obj(
            _read_json(args.landscape_config))
        return make_landscape(args.landscape_seed, config)
    raise ValidationError("need --landscape or --landscape-config")


def cmd_search(args) -> int:
    land = _load_search_landscape(args)
    start = random_minimal_gan(np.random.default_rng([args.seed, 0]),
                               land.config.genotype)
    rng = np.random.default_rng([args.seed, 1])
    if args.algorithm == "guided":
        if not args.model:
            raise ValidationError("guided search needs --model")
        model = load_metamodel(args.model)
        trace = guided_hc(land, model, start, args.budget, rng)
    else:
        trace = random_hc(land, start, args.budget, rng)
    save_traces([(args.seed, trace)], args.out)
    logger.info("%s search: start %s, final best %s", args.algorithm,
                repr(trace.start_fitness), repr(trace.final_best))
    return 0


def cmd_gen_archive(args) -> int:
    config = ArchiveGenConfig.from_json_obj(_read_json(args.config))
    archive = generate_archive(config)
    save_archive(archive, args.out)
    logger.info("generated %d runs, %d individuals", archive.n_runs,
                archive.n_individuals)
    return 0


def _write_summary(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, sort_keys=True, indent=2)
        handle.write("\n")


def cmd_experiment(args) -> int:
    # The config is checked before the archive is parsed, so a bad config
    # fails fast.
    if args.id not in EXPERIMENT_CONFIGS:
        raise ValidationError(f"unknown experiment id {args.id!r}")
    config = EXPERIMENT_CONFIGS[args.id].from_json_obj(_read_json(args.config))
    archive = load_archive(args.archive)
    os.makedirs(args.out_dir, exist_ok=True)

    def path(name):
        return os.path.join(args.out_dir, name)

    if args.id == "likelihood":
        result = run_likelihood(archive, config)
        write_likelihood_csv(result, path("scores.csv"))
        write_likelihood_tests_csv(result, path("tests.csv"))
        logger.info("likelihood: %d rows, %d tested keys",
                    len(result.rows), len(result.key_tests))
    elif args.id == "sampling":
        result = run_sampling(archive, config)
        write_sampling_csv(result, path("samples.csv"))
        write_sampling_tests_csv(result, path("tests.csv"))
        logger.info("sampling: %d rows over %d holdouts",
                    len(result.rows), len(result.tests))
    elif args.id == "initialization":
        result = run_initialization(archive, config)
        write_initialization_csv(result, path("generations.csv"))
        _write_summary(
            {"median_gen0": result.summary.median_gen0,
             "median_final": result.summary.median_final,
             "p_gen0_metamodel_vs_random":
                 result.summary.p_gen0_metamodel_vs_random,
             "p_final_random_vs_metamodel":
                 result.summary.p_final_random_vs_metamodel},
            path("summary.json"))
        logger.info("initialization: %d rows", len(result.rows))
    else:
        result = run_guided_search(archive, config)
        write_guided_csv(result, path("steps.csv"))
        _write_summary(
            {"median_final": result.summary.median_final,
             "p_final_guided_vs_random":
                 result.summary.p_final_guided_vs_random,
             "median_half_improvement":
                 result.summary.median_half_improvement},
            path("summary.json"))
        logger.info("guided-search: %d rows", len(result.rows))
    return 0


def _cell(row, column, parse, path, reader):
    """``parse(row[column])``, or a ValidationError naming where it failed."""
    try:
        return parse(row[column])
    except (TypeError, ValueError):
        raise ValidationError(
            f"{path}: row at line {reader.line_num}: column {column!r} "
            f"holds {row[column]!r}, not a number") from None


def _final_values(path, group_by, value, member):
    """One value per (group, member): the row with the largest step."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        fields = reader.fieldnames or []
        if group_by is None:
            group_by = "algorithm" if "algorithm" in fields else "seed"
        if member is None:
            member = "replicate" if "replicate" in fields else "seed"
        for name in (group_by, member, value):
            if name not in fields:
                raise ValidationError(
                    f"column {name!r} not in {path} (has {fields})")
        step_col = "step" if "step" in fields else (
            "generation" if "generation" in fields else None)
        latest = {}
        for row in reader:
            key = (row[group_by], row[member])
            step = _cell(row, step_col, int, path, reader) if step_col else 0
            if key not in latest or step >= latest[key][0]:
                latest[key] = (step, _cell(row, value, float, path, reader))
    groups: dict[str, list[float]] = {}
    for (group, _), (_, val) in sorted(latest.items()):
        groups.setdefault(group, []).append(val)
    return groups


def cmd_analyze(args) -> int:
    groups = _final_values(args.traces, args.group_by, args.value,
                           args.member)
    names = sorted(groups)
    if len(names) < 2:
        raise ValidationError("need at least two groups to compare")
    data = [groups[name] for name in names]
    if args.test == "kw":
        r = kruskal_wallis(data)
        write_csv(args.out, ["test", "groups", "statistic", "p_value"],
                  [("kw", ";".join(names), r.statistic, r.p_value)])
    elif args.test == "dunn":
        r = dunn(data)
        rows = [(names[i], names[j], float(r.z[i, j]), float(r.p_raw[i, j]),
                 float(r.p_bonferroni[i, j]))
                for i in range(len(names)) for j in range(i + 1, len(names))]
        write_csv(args.out,
                  ["group_a", "group_b", "z", "p_raw", "p_bonferroni"],
                  rows)
    else:
        if len(names) != 2:
            raise ValidationError("ranksum compares exactly two groups")
        r = rank_sum(data[0], data[1])
        write_csv(args.out, ["test", "groups", "statistic", "p_value"],
                  [("ranksum", ";".join(names), r.statistic, r.p_value)])
    return 0


# ---------------------------------------------------------------------------
# Parser wiring


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for every stochastic choice")
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="output path")

    parser = _Parser(prog="archsmith",
                     description="Architecture metamodels over "
                                 "surrogate landscapes")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("ingest", parents=[common],
                       help="validate a raw run log into an archive")
    p.add_argument("--raw", required=True)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("learn", parents=[common],
                       help="fit a metamodel from archive elites")
    p.add_argument("--archive", required=True)
    p.add_argument("--n", type=int, default=10,
                   help="elites per run for the First set")
    p.add_argument("--structure", choices=("aracne", "chow_liu"))
    p.set_defaults(handler=cmd_learn)

    p = sub.add_parser("score", parents=[common],
                       help="score genotypes under a metamodel")
    p.add_argument("--model", required=True)
    p.add_argument("--genotypes", required=True,
                   help="archive file or JSONL of genotypes")
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser("sample", parents=[common],
                       help="draw genotypes from a metamodel")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=100)
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("search", parents=[common],
                       help="hill climb on a surrogate landscape")
    p.add_argument("--algorithm", choices=("random", "guided"),
                   default="random")
    p.add_argument("--model")
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--landscape", help="saved landscape file")
    p.add_argument("--landscape-config", help="landscape config JSON")
    p.add_argument("--landscape-seed", type=int, default=0)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("gen-archive", parents=[common],
                       help="synthesize an archive of seeded EA runs")
    p.set_defaults(handler=cmd_gen_archive)

    p = sub.add_parser("experiment", parents=[common],
                       help="run one of the replicated analyses")
    p.add_argument("--id", required=True, choices=EXPERIMENT_IDS)
    p.add_argument("--archive", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser("analyze", parents=[common],
                       help="statistical tests over trace CSVs")
    p.add_argument("--traces", required=True)
    p.add_argument("--test", required=True, choices=("kw", "dunn", "ranksum"))
    p.add_argument("--group-by")
    p.add_argument("--member")
    p.add_argument("--value", default="best")
    p.set_defaults(handler=cmd_analyze)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for name in ("config", "out"):
            if not hasattr(args, name):
                setattr(args, name, None)
        if args.command in ("gen-archive", "experiment") and not args.config:
            raise ValidationError(f"{args.command} needs --config")
        if args.command in ("ingest", "learn", "sample", "search",
                            "gen-archive") and not args.out:
            raise ValidationError(f"{args.command} needs --out")
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
