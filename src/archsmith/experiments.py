"""Seeded experiment pipelines: archive synthesis and the three analyses.

Each pipeline is a pure function of its configuration: the same config and
seeds reproduce the same rows byte for byte.  The CSV writer formats floats
with repr so reruns diff clean.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

import numpy as np

from .archive import Individual, RunArchive, extract_sets
from .errors import (ValidationError, field_defaults, known_keys,
                     read_config)
from .genotype import DepthKey, random_genotype
from .landscape import LandscapeConfig, make_landscape
from .metamodel import LearnConfig, Metamodel, learn
from .search import (
    EaConfig,
    SearchTrace,
    guided_hc,
    init_population,
    random_hc,
    simple_ea,
)
from .stats import dunn, kruskal_wallis, rank_sum

SET_NAMES = ("first", "second", "random")
ALGORITHMS = ("random", "guided")


def parse_learn_config(section, genotype) -> LearnConfig:
    """A partial learn config, a JSON object of ``LearnConfig`` fields;
    unstated keys take their defaults, ``genotype`` that of ``genotype``."""
    return read_config(LearnConfig, section, vars(LearnConfig(genotype)))


def _from_json_obj(cls, obj: dict):
    """An experiment config from its JSON object: a missing key takes its
    field's default, and ``parse_learn_config`` reads a ``learn`` section."""
    rest = dict(known_keys(obj, cls, "config"))
    section = rest.pop("learn", None)
    config = read_config(cls, rest, field_defaults(cls), "config")
    return config if section is None else replace(config, learn=(
        parse_learn_config(section, config.landscape.genotype)))


def write_csv(path, header, rows) -> None:
    """CSV with floats written by ``repr`` and bools as ints; ``path`` None
    writes to stdout."""
    handle = sys.stdout if path is None else open(path, "w",
                                                  encoding="utf-8",
                                                  newline="")
    try:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float)
                             else int(v) if isinstance(v, bool) else v
                             for v in row])
    finally:
        if path is not None:
            handle.close()


def write_rows(path, row_type, rows) -> None:
    """CSV of dataclass ``rows`` of ``row_type``: a header of its fields,
    each named by its ``column`` metadata or its name, then one line per
    row."""
    columns = fields(row_type)
    write_csv(path, [f.metadata.get("column", f.name) for f in columns],
              map(attrgetter(*(f.name for f in columns)), rows))


def _default_learn(landscape: LandscapeConfig,
                   learn_config: LearnConfig | None) -> LearnConfig:
    if learn_config is None:
        return LearnConfig(genotype=landscape.genotype)
    if learn_config.genotype != landscape.genotype:
        raise ValidationError(
            "learn config genotype does not match the landscape genotype")
    return learn_config


def _check_fresh(archive: RunArchive, target_seed: int) -> None:
    """Learning and searching on one problem would test memorization."""
    if str(target_seed) in archive.problem_ids:
        raise ValidationError(
            f"target seed {target_seed} appears in the archive")


# ---------------------------------------------------------------------------
# Archive synthesis


@dataclass(frozen=True)
class ArchiveGenConfig:
    """Run layout for synthesizing an evolutionary archive."""

    landscape: LandscapeConfig
    problem_seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    runs_per_problem: int = 6
    population: int = 20
    generations: int = 20
    base_seed: int = 0
    ea: EaConfig = field(default_factory=EaConfig)

    def __post_init__(self) -> None:
        if not self.problem_seeds:
            raise ValidationError("need at least one problem seed")
        if len(set(self.problem_seeds)) != len(self.problem_seeds):
            raise ValidationError("problem seeds must be distinct")
        if self.runs_per_problem < 1 or self.population < 2:
            raise ValidationError("bad runs_per_problem or population")
        if self.generations < 1:
            raise ValidationError("generations must be >= 1")

    from_json_obj = classmethod(_from_json_obj)


def generate_archive(config: ArchiveGenConfig) -> RunArchive:
    """Run a seeded EA per (problem, run) and log every evaluation."""
    runs: dict[str, list[Individual]] = {}
    gc = config.landscape.genotype
    for problem_seed in config.problem_seeds:
        land = make_landscape(problem_seed, config.landscape)
        problem_id = str(problem_seed)
        for run_index in range(config.runs_per_problem):
            run_id = f"p{problem_seed:03d}r{run_index:02d}"
            rng = np.random.default_rng(
                [config.base_seed, problem_seed, run_index])
            record: list[Individual] = []

            def log(key: DepthKey, row: tuple[int, ...], fitness: float,
                    _run_id=run_id, _record=record) -> None:
                _record.append(Individual(key, row, fitness, _run_id,
                                          problem_id, gc))

            population = init_population("random", config.population, land,
                                         rng)
            for member in population.members:
                log(*member)
            simple_ea(land, population, config.generations, rng,
                      config=config.ea, on_evaluate=log)
            runs[run_id] = record
    return RunArchive(runs=runs, config=gc)


# ---------------------------------------------------------------------------
# Likelihood separation (elite sets scored under the learned model)


@dataclass(frozen=True)
class LikelihoodConfig:
    landscape: LandscapeConfig
    n: int = 10
    seed: int = 0
    min_scored: int = 30
    learn: LearnConfig | None = None

    from_json_obj = classmethod(_from_json_obj)


@dataclass(frozen=True)
class ScoreRow:
    set_name: str = field(metadata={"column": "set"})
    run_id: str
    problem_id: str
    d_g: int
    d_d: int
    log_prob: float
    normalized: float


@dataclass(frozen=True)
class KeyTest:
    d_g: int
    d_d: int
    n_first: int
    n_second: int
    n_random: int
    h: float
    p: float
    p_first_second: float
    p_first_random: float
    p_second_random: float


@dataclass
class LikelihoodResult:
    rows: list[ScoreRow]
    key_tests: list[KeyTest]

    def tables(self) -> dict:
        return {"scores.csv": (ScoreRow, self.rows),
                "tests.csv": (KeyTest, self.key_tests)}


def run_likelihood(archive: RunArchive,
                   config: LikelihoodConfig) -> LikelihoodResult:
    """Extract elite sets, learn on First, score all three sets.

    Each set is scored with one ``score_many`` call.

    Depth keys where every set is represented and at least ``min_scored``
    individuals were scored in total get a Kruskal-Wallis test over the
    per-set log probabilities plus Dunn pairwise p-values.
    """
    sets = extract_sets(archive, config.n, config.seed)
    model = learn(sets.first, _default_learn(config.landscape, config.learn))
    rows: list[ScoreRow] = []
    for set_name in SET_NAMES:
        individuals = sets.by_name(set_name)
        scores = model.score_many([(ind.key, ind.row) for ind in individuals])
        rows.extend(ScoreRow(set_name=set_name, run_id=ind.run_id,
                             problem_id=ind.problem_id, d_g=ind.key.d_g,
                             d_d=ind.key.d_d, log_prob=lp, normalized=nz)
                    for ind, (lp, nz) in zip(individuals, scores))
    key_tests: list[KeyTest] = []
    for key in sorted({(r.d_g, r.d_d) for r in rows}):
        groups = [[r.log_prob for r in rows
                   if r.set_name == name and (r.d_g, r.d_d) == key]
                  for name in SET_NAMES]
        if any(not g for g in groups):
            continue
        if sum(len(g) for g in groups) < config.min_scored:
            continue
        omnibus = kruskal_wallis(groups)
        pairwise = dunn(groups)
        key_tests.append(KeyTest(
            d_g=key[0], d_d=key[1],
            n_first=len(groups[0]), n_second=len(groups[1]),
            n_random=len(groups[2]),
            h=omnibus.statistic, p=omnibus.p_value,
            p_first_second=float(pairwise.p_raw[0, 1]),
            p_first_random=float(pairwise.p_raw[0, 2]),
            p_second_random=float(pairwise.p_raw[1, 2])))
    return LikelihoodResult(rows=rows, key_tests=key_tests)


# ---------------------------------------------------------------------------
# Sampling quality on holdout problems


@dataclass(frozen=True)
class SamplingConfig:
    landscape: LandscapeConfig
    train_seeds: tuple[int, ...]
    holdout_seeds: tuple[int, ...] = (100, 101, 102)
    n: int = 10
    n_each: int = 100
    seed: int = 0
    learn: LearnConfig | None = None

    def __post_init__(self) -> None:
        if not self.train_seeds or not self.holdout_seeds:
            raise ValidationError("need train and holdout seeds")
        if set(self.train_seeds) & set(self.holdout_seeds):
            raise ValidationError("train and holdout seeds must be disjoint")
        if self.n_each < 1:
            raise ValidationError("n_each must be >= 1")

    from_json_obj = classmethod(_from_json_obj)


@dataclass(frozen=True)
class SampleRow:
    holdout_seed: int
    set_name: str = field(metadata={"column": "set"})
    index: int
    fitness: float


@dataclass(frozen=True)
class HoldoutTest:
    holdout_seed: int
    median_sampled: float
    median_first: float
    median_random: float
    p_sampled_vs_random: float
    p_sampled_vs_first: float


@dataclass
class SamplingResult:
    rows: list[SampleRow]
    tests: list[HoldoutTest]

    def tables(self) -> dict:
        return {"samples.csv": (SampleRow, self.rows),
                "tests.csv": (HoldoutTest, self.tests)}


def run_sampling(archive: RunArchive,
                 config: SamplingConfig) -> SamplingResult:
    """Learn on train-problem elites, compare three genotype sources.

    One batch of sampled / First-drawn / random genotypes is drawn up
    front, then evaluated on every holdout landscape, each batch with one
    ``evaluate_values`` call per depth key.
    """
    learn_config = _default_learn(config.landscape, config.learn)
    train_ids = {str(s) for s in config.train_seeds}
    known = archive.problem_ids
    if not train_ids <= known:
        raise ValidationError(
            f"train seeds {sorted(train_ids - known)} not in the archive")
    train_runs = {run_id: inds for run_id, inds in archive.runs.items()
                  if inds and inds[0].problem_id in train_ids}
    if not train_runs:
        raise ValidationError("no archive runs match the train seeds")
    # Learning on the archive itself, when every run trains, reuses its
    # ranking; a sub-archive is a new object and re-ranks its runs.
    if len(train_runs) < archive.n_runs:
        archive = RunArchive(runs=train_runs, config=archive.config)
    sets = extract_sets(archive, config.n, config.seed)
    model = learn(sets.first, learn_config)
    rng = np.random.default_rng([config.seed, len(config.train_seeds)])
    sampled = model.sample_genotypes(rng, config.n_each)
    picks = rng.integers(len(sets.first), size=config.n_each)
    first_drawn = [(sets.first[int(i)].key, sets.first[int(i)].row)
                   for i in picks]
    randoms = [random_genotype(rng, config.landscape.genotype)
               for _ in range(config.n_each)]
    batches = (("sampled", sampled), ("first", first_drawn),
               ("random", randoms))
    rows: list[SampleRow] = []
    tests: list[HoldoutTest] = []
    for holdout_seed in config.holdout_seeds:
        land = make_landscape(holdout_seed, config.landscape)
        fitness = {}
        for set_name, genotypes in batches:
            values = land.evaluate_many(genotypes)
            fitness[set_name] = values
            rows.extend(SampleRow(holdout_seed=holdout_seed,
                                  set_name=set_name, index=i, fitness=v)
                        for i, v in enumerate(values))
        tests.append(HoldoutTest(
            holdout_seed=holdout_seed,
            median_sampled=float(np.median(fitness["sampled"])),
            median_first=float(np.median(fitness["first"])),
            median_random=float(np.median(fitness["random"])),
            p_sampled_vs_random=rank_sum(fitness["sampled"],
                                         fitness["random"]).p_value,
            p_sampled_vs_first=rank_sum(fitness["sampled"],
                                        fitness["first"]).p_value))
    return SamplingResult(rows=rows, tests=tests)


# ---------------------------------------------------------------------------
# Initialization strategies under the EA


@dataclass(frozen=True)
class InitializationConfig:
    landscape: LandscapeConfig
    target_seed: int = 200
    replicates: int = 30
    population: int = 20
    generations: int = 20
    n: int = 10
    seed: int = 0
    ea: EaConfig = field(default_factory=EaConfig)
    learn: LearnConfig | None = None

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValidationError("replicates must be >= 1")

    from_json_obj = classmethod(_from_json_obj)


@dataclass(frozen=True)
class GenerationRow:
    strategy: str
    replicate: int
    generation: int
    best: float


@dataclass(frozen=True)
class InitSummary:
    median_gen0: dict[str, float]
    median_final: dict[str, float]
    p_gen0_metamodel_vs_random: float
    p_final_random_vs_metamodel: float


@dataclass
class InitializationResult:
    rows: list[GenerationRow]
    summary: InitSummary

    def tables(self) -> dict:
        return {"generations.csv": (GenerationRow, self.rows)}


STRATEGY_ORDER = ("random", "from_first", "from_metamodel")


def run_initialization(archive: RunArchive,
                       config: InitializationConfig) -> InitializationResult:
    """Replicated EA runs under the three initialization strategies.

    The target landscape seed must not be in the archive.
    """
    learn_config = _default_learn(config.landscape, config.learn)
    _check_fresh(archive, config.target_seed)
    first = extract_sets(archive, config.n, config.seed).first
    model = learn(first, learn_config)
    elite = [(ind.key, ind.row) for ind in first]
    land = make_landscape(config.target_seed, config.landscape)
    rows: list[GenerationRow] = []
    finals: dict[str, list[float]] = {s: [] for s in STRATEGY_ORDER}
    starts: dict[str, list[float]] = {s: [] for s in STRATEGY_ORDER}
    for replicate in range(config.replicates):
        for strategy_index, strategy in enumerate(STRATEGY_ORDER):
            rng = np.random.default_rng(
                [config.seed, replicate, strategy_index])
            population = init_population(strategy, config.population, land,
                                         rng, elite=elite,
                                         metamodel=model)
            result = simple_ea(land, population, config.generations, rng,
                               config=config.ea)
            trace = result.best_per_generation
            rows.extend(GenerationRow(strategy=strategy, replicate=replicate,
                                      generation=g, best=b)
                        for g, b in enumerate(trace))
            starts[strategy].append(trace[0])
            finals[strategy].append(trace[-1])
    summary = InitSummary(
        median_gen0={s: float(np.median(starts[s])) for s in STRATEGY_ORDER},
        median_final={s: float(np.median(finals[s])) for s in STRATEGY_ORDER},
        p_gen0_metamodel_vs_random=rank_sum(starts["from_metamodel"],
                                            starts["random"]).p_value,
        p_final_random_vs_metamodel=rank_sum(finals["random"],
                                             finals["from_metamodel"]).p_value)
    return InitializationResult(rows=rows, summary=summary)


# ---------------------------------------------------------------------------
# Guided vs random hill climbing


@dataclass(frozen=True)
class GuidedSearchConfig:
    landscape: LandscapeConfig
    target_seed: int = 300
    replicates: int = 30
    budget: int = 100
    n: int = 20
    seed: int = 0
    learn: LearnConfig | None = None

    def __post_init__(self) -> None:
        if self.replicates < 1 or self.budget < 2:
            raise ValidationError("bad replicates or budget")

    from_json_obj = classmethod(_from_json_obj)


@dataclass(frozen=True)
class StepRow:
    algorithm: str
    replicate: int
    step: int
    fitness: float
    best: float
    accepted: bool


@dataclass(frozen=True)
class GuidedSummary:
    median_final: dict[str, float]
    p_final_guided_vs_random: float
    median_half_improvement: dict[str, float]


@dataclass
class GuidedSearchResult:
    rows: list[StepRow]
    traces: dict[str, list[SearchTrace]]
    summary: GuidedSummary

    def tables(self) -> dict:
        return {"steps.csv": (StepRow, self.rows)}


def run_guided_search(archive: RunArchive, config: GuidedSearchConfig,
                      metamodel: Metamodel | None = None) -> GuidedSearchResult:
    """Random vs metamodel-guided hill climbing from shared starts.

    Passing ``metamodel`` overrides learning from the archive (used for the
    uniform-model null control); ``guided_hc`` rejects a model of another
    genotype config.  Each replicate starts both climbers from the same
    minimal genotype.
    """
    learn_config = _default_learn(config.landscape, config.learn)
    _check_fresh(archive, config.target_seed)
    if metamodel is None:
        metamodel = learn(extract_sets(archive, config.n, config.seed).first,
                          learn_config)
    land = make_landscape(config.target_seed, config.landscape)
    gc = config.landscape.genotype
    traces: dict[str, list[SearchTrace]] = {a: [] for a in ALGORITHMS}
    rows: list[StepRow] = []
    half = config.budget // 2
    finals: dict[str, list[float]] = {a: [] for a in ALGORITHMS}
    improvements: dict[str, list[float]] = {a: [] for a in ALGORITHMS}
    for replicate in range(config.replicates):
        start = random_genotype(
            np.random.default_rng([config.seed, replicate, 0]), gc,
            DepthKey(1, 1))
        for algo_index, algorithm in enumerate(ALGORITHMS, start=1):
            rng = np.random.default_rng([config.seed, replicate, algo_index])
            if algorithm == "random":
                trace = random_hc(land, start, config.budget, rng)
            else:
                trace = guided_hc(land, metamodel, start, config.budget, rng)
            traces[algorithm].append(trace)
            rows.extend(StepRow(algorithm=algorithm, replicate=replicate,
                                step=s.step, fitness=s.fitness, best=s.best,
                                accepted=s.accepted)
                        for s in trace.steps)
            finals[algorithm].append(trace.final_best)
            improvements[algorithm].append(trace.best_at(half)
                                           - trace.best_at(config.budget))
    summary = GuidedSummary(
        median_final={a: float(np.median(finals[a])) for a in ALGORITHMS},
        p_final_guided_vs_random=rank_sum(finals["guided"],
                                          finals["random"]).p_value,
        median_half_improvement={a: float(np.median(improvements[a]))
                                 for a in ALGORITHMS})
    return GuidedSearchResult(rows=rows, traces=traces, summary=summary)
