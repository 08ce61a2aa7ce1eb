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
from dataclasses import asdict, replace

import numpy as np

from .archive import extract_sets, load_archive, save_archive
from .errors import (FormatError, ValidationError, open_text, read_json,
                     read_json_line, seed as parse_seed)
from .experiments import (
    ArchiveGenConfig,
    GuidedSearchConfig,
    InitializationConfig,
    LikelihoodConfig,
    SamplingConfig,
    generate_archive,
    parse_learn_config,
    run_guided_search,
    run_initialization,
    run_likelihood,
    run_sampling,
    write_csv,
    write_rows,
)
from .genotype import (DepthKey, GenotypeConfig, dump_genotypes,
                       flatten_joint, load_genotypes, random_genotype,
                       unflatten_joint)
from .landscape import LandscapeConfig, load_landscape, make_landscape
from .metamodel import (
    learn,
    load_metamodel,
    provenance_mismatch,
    save_metamodel,
)
from .search import SearchTrace, guided_hc, random_hc
from .stats import dunn, kruskal_wallis, rank_sum

logger = logging.getLogger(__name__)

# Experiment id -> (config class, runner).
EXPERIMENTS = {
    "likelihood": (LikelihoodConfig, run_likelihood),
    "sampling": (SamplingConfig, run_sampling),
    "initialization": (InitializationConfig, run_initialization),
    "guided-search": (GuidedSearchConfig, run_guided_search),
}


class _Parser(argparse.ArgumentParser):
    """Usage problems are validation errors (exit code 1, not 2), and a
    flag is never read as an abbreviation (``--out`` is not ``--out-dir``).
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(message)


def seed(text: str) -> int:
    """A seed flag's type; argparse names it when it rejects a value."""
    return parse_seed(int(text))


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_ingest(args) -> int:
    config = None
    if args.config:
        config = read_json(args.config, GenotypeConfig.from_json_obj)
    archive = load_archive(args.raw, config=config)
    save_archive(archive, args.out)
    logger.info("ingested %d runs, %d individuals (%d records rejected)",
                archive.n_runs, archive.n_individuals, archive.rejected)
    return 0


def cmd_learn(args) -> int:
    archive = load_archive(args.archive)
    def read_learn(section):
        return parse_learn_config(section, archive.config)

    learn_config = (read_json(args.config, read_learn) if args.config
                    else read_learn({}))
    if args.structure:
        learn_config = replace(learn_config, structure=args.structure)
    if learn_config.genotype != archive.config:
        raise ValidationError("config genotype does not match the archive")
    first = extract_sets(archive, args.n, args.seed).first
    model = learn(first, learn_config,
                  provenance={"archive_hash": archive.content_hash(),
                              "elite_n": args.n, "elite_seed": args.seed})
    save_metamodel(model, args.out)
    logger.info("learned from %d elites (%d runs); structure=%s",
                len(first), archive.n_runs, learn_config.structure)
    return 0


def cmd_score(args) -> int:
    model = load_metamodel(args.model)
    # An archive starts with its header or, without one, with a record,
    # which holds its genotype under "gan"; a genotype line holds none.
    with open_text(args.genotypes) as handle:  # sniffed as load_archive does
        first_line = next((line for line in handle if line.strip()), "")
    try:
        head = read_json_line(first_line)
    except FormatError:
        head = None  # not an archive; load_genotypes names the bad line
    if isinstance(head, dict) and ("format" in head or "gan" in head):
        archive = load_archive(args.genotypes)
        warning = provenance_mismatch(model,
                                      archive_hash=archive.content_hash(),
                                      genotype=archive.config)
        if warning:
            logger.warning("provenance mismatch: %s", warning)
        inds = [ind for run_id in sorted(archive.runs)
                for ind in archive.runs[run_id]]
        genotypes = [(ind.key, ind.row) for ind in inds]
        if archive.config != model.config:  # rows of another space
            genotypes = [_respace(ind, model.config, args.genotypes)
                         for ind in inds]
        rows = [(ind.run_id, ind.problem_id, *ind.key, lp, nz)
                for ind, (lp, nz) in zip(inds, model.score_many(genotypes))]
        header = ["run_id", "problem_id", "d_g", "d_d", "log_prob",
                  "normalized"]
    else:
        genotypes = list(load_genotypes(args.genotypes, model.config))
        rows = [(index, *key, lp, nz) for index, ((key, _), (lp, nz))
                in enumerate(zip(genotypes, model.score_many(genotypes)))]
        header = ["index", "d_g", "d_d", "log_prob", "normalized"]
    write_csv(args.out, header, rows)
    return 0


def _respace(ind, config: GenotypeConfig, path):
    """The key and row of individual ``ind`` in ``config``'s space; a
    genotype outside it raises a ValidationError naming the file ``path``
    and the run."""
    try:
        return flatten_joint(unflatten_joint(ind.key, ind.row, ind.config),
                             config)
    except ValidationError as exc:
        raise ValidationError(f"{path}: run {ind.run_id}: {exc}") from None


def cmd_sample(args) -> int:
    model = load_metamodel(args.model)
    rng = np.random.default_rng(args.seed)
    dump_genotypes(model.sample_genotypes(rng, args.n), model.config,
                   args.out)
    logger.info("sampled %d genotypes", args.n)
    return 0


def _load_search_landscape(args):
    if args.landscape and args.landscape_config:
        raise ValidationError(
            "give either --landscape or --landscape-config, not both")
    if args.landscape:
        return load_landscape(args.landscape)
    if args.landscape_config:
        config = read_json(args.landscape_config,
                           LandscapeConfig.from_json_obj)
        return make_landscape(args.landscape_seed, config)
    raise ValidationError("need --landscape or --landscape-config")


def _trace_rows(seed: int, trace: SearchTrace):
    """One row per evaluation of ``trace``, the start as an accepted step 0."""
    yield seed, 0, trace.start_fitness, trace.start_fitness, True
    for s in trace.steps:
        yield seed, s.step, s.fitness, s.best, s.accepted


def cmd_search(args) -> int:
    land = _load_search_landscape(args)
    start = random_genotype(np.random.default_rng([args.seed, 0]),
                            land.config.genotype, DepthKey(1, 1))
    rng = np.random.default_rng([args.seed, 1])
    if args.algorithm == "guided":
        if not args.model:
            raise ValidationError("guided search needs --model")
        model = load_metamodel(args.model)
        trace = guided_hc(land, model, start, args.budget, rng)
    else:
        trace = random_hc(land, start, args.budget, rng)
    write_csv(args.out, ("seed", "step", "fitness", "best", "accepted"),
              _trace_rows(args.seed, trace))
    logger.info("%s search: start %s, final best %s", args.algorithm,
                repr(trace.start_fitness), repr(trace.final_best))
    return 0


def cmd_gen_archive(args) -> int:
    config = read_json(args.config, ArchiveGenConfig.from_json_obj)
    archive = generate_archive(config)
    save_archive(archive, args.out)
    logger.info("generated %d runs, %d individuals", archive.n_runs,
                archive.n_individuals)
    return 0


def cmd_experiment(args) -> int:
    # The config is checked before the archive is parsed, so a bad config
    # fails fast.
    config_class, run = EXPERIMENTS[args.id]
    config = read_json(args.config, config_class.from_json_obj)
    result = run(load_archive(args.archive), config)
    os.makedirs(args.out_dir, exist_ok=True)
    written = []
    for name, (row_type, rows) in result.tables().items():
        write_rows(os.path.join(args.out_dir, name), row_type, rows)
        written.append(f"{name} ({len(rows)} rows)")
    if hasattr(result, "summary"):
        with open(os.path.join(args.out_dir, "summary.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(asdict(result.summary), handle, sort_keys=True,
                      indent=2)
            handle.write("\n")
        written.append("summary.json")
    logger.info("%s: wrote %s to %s", args.id, ", ".join(written),
                args.out_dir)
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
    with open_text(path, newline="") as handle:
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
    parser = _Parser(prog="archsmith",
                     description="Architecture metamodels over "
                                 "surrogate landscapes")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("ingest",
                       help="validate a raw run log into an archive")
    p.add_argument("--raw", required=True)
    p.add_argument("--config", help="genotype config JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("learn", help="fit a metamodel from archive elites")
    p.add_argument("--archive", required=True)
    p.add_argument("--n", type=int, default=10,
                   help="elites per run for the First set")
    p.add_argument("--structure", choices=("aracne", "chow_liu"))
    p.add_argument("--config", help="partial learn config JSON")
    p.add_argument("--seed", type=seed, default=0,
                   help="seed for every stochastic choice")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_learn)

    p = sub.add_parser("score", help="score genotypes under a metamodel")
    p.add_argument("--model", required=True)
    p.add_argument("--genotypes", required=True,
                   help="archive file or JSONL of genotypes")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser("sample", help="draw genotypes from a metamodel")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=seed, default=0,
                   help="seed for every stochastic choice")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("search", help="hill climb on a surrogate landscape")
    p.add_argument("--algorithm", choices=("random", "guided"),
                   default="random")
    p.add_argument("--model")
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--landscape", help="saved landscape file")
    p.add_argument("--landscape-config", help="landscape config JSON")
    p.add_argument("--landscape-seed", type=seed, default=0)
    p.add_argument("--seed", type=seed, default=0,
                   help="seed for every stochastic choice")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("gen-archive",
                       help="synthesize an archive of seeded EA runs")
    p.add_argument("--config", required=True,
                   help="archive config JSON; it holds the seeds")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_gen_archive)

    p = sub.add_parser("experiment",
                       help="run one of the replicated analyses")
    p.add_argument("--id", required=True, choices=tuple(EXPERIMENTS))
    p.add_argument("--archive", required=True)
    p.add_argument("--config", required=True,
                   help="experiment config JSON; it holds the seeds")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser("analyze", help="statistical tests over trace CSVs")
    p.add_argument("--traces", required=True)
    p.add_argument("--test", required=True, choices=("kw", "dunn", "ranksum"))
    p.add_argument("--group-by")
    p.add_argument("--member")
    p.add_argument("--value", default="best")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(handler=cmd_analyze)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
