"""Seeded experiment pipelines: archive synthesis and the three analyses.

Each pipeline is a pure function of its configuration: the same config and
seeds reproduce the same rows byte for byte.  CSV writers format floats
with repr so reruns diff clean.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .archive import EliteSets, Individual, RunArchive, extract_sets
from .errors import ValidationError, parse_field
from .genotype import GanSpec, random_gan
from .landscape import LandscapeConfig, make_landscape
from .metamodel import LearnConfig, Metamodel, learn
from .search import (
    EaConfig,
    SearchTrace,
    guided_hc,
    init_population,
    random_hc,
    random_minimal_gan,
    simple_ea,
)
from .stats import dunn, kruskal_wallis, rank_sum

SET_NAMES = ("first", "second", "random")
ALGORITHMS = ("random", "guided")


def parse_seed_range(value) -> tuple[int, ...]:
    """Seeds as a list of ints or a "lo..hi" inclusive range string."""
    if isinstance(value, str):
        parts = value.split("..")
        if len(parts) != 2:
            raise ValidationError(f"bad seed range {value!r}, want 'lo..hi'")
        try:
            lo, hi = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValidationError(f"bad seed range {value!r}") from exc
        if hi < lo:
            raise ValidationError(f"empty seed range {value!r}")
        return tuple(range(lo, hi + 1))
    if isinstance(value, (list, tuple)):
        try:
            return tuple(int(v) for v in value)
        except (TypeError, ValueError):
            raise ValidationError(f"bad seed list {value!r}") from None
    raise ValidationError(f"bad seed list {value!r}")


def _required(obj: dict, name: str):
    """``obj[name]``, or a ValidationError naming the missing field."""
    if not isinstance(obj, dict):
        raise ValidationError("config must be a JSON object")
    if name not in obj:
        raise ValidationError(f"config has no {name!r} field")
    return obj[name]


def _ints(obj: dict, names: tuple[str, ...]) -> dict[str, int]:
    """The fields of ``names`` present in ``obj``, each parsed as an int."""
    return {name: parse_field(obj, name, int, "config")
            for name in names if name in obj}


def _landscape(obj: dict) -> LandscapeConfig:
    return LandscapeConfig.from_json_obj(_required(obj, "landscape"))


def _optional_learn(obj: dict) -> LearnConfig | None:
    """Parse a partial learn config; unstated keys take their defaults."""
    if "learn" not in obj:
        return None
    genotype = _landscape(obj).genotype
    merged = LearnConfig(genotype=genotype).to_json_obj()
    merged.update(obj["learn"])
    return LearnConfig.from_json_obj(merged)


def _optional_ea(obj: dict) -> EaConfig:
    """Parse a partial EA config; unstated keys take their defaults."""
    if "ea" not in obj:
        return EaConfig()
    if not isinstance(obj["ea"], dict):
        raise ValidationError("ea config must be a JSON object")
    unknown = sorted(set(obj["ea"]) - {f.name for f in fields(EaConfig)})
    if unknown:
        raise ValidationError(f"unknown ea config key(s): {', '.join(unknown)}")
    for name, value in obj["ea"].items():
        if not isinstance(value, (int, float)):
            raise ValidationError(
                f"bad ea config: field {name!r} is {value!r}, not a number")
    return EaConfig(**obj["ea"])


def write_csv(path, header, rows) -> None:
    """CSV with floats written by ``repr``; ``path`` None writes to stdout."""
    handle = sys.stdout if path is None else open(path, "w",
                                                  encoding="utf-8",
                                                  newline="")
    try:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])
    finally:
        if path is not None:
            handle.close()


def _default_learn(landscape: LandscapeConfig,
                   learn_config: LearnConfig | None) -> LearnConfig:
    if learn_config is None:
        return LearnConfig(genotype=landscape.genotype)
    if (learn_config.genotype.fingerprint()
            != landscape.genotype.fingerprint()):
        raise ValidationError(
            "learn config genotype does not match the landscape genotype")
    return learn_config


def _archive_problem_ids(archive: RunArchive) -> set[str]:
    return {ind.problem_id for ind in archive.all_individuals()}


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

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ArchiveGenConfig":
        landscape = _landscape(obj)
        kwargs = _ints(obj, ("runs_per_problem", "population", "generations",
                             "base_seed"))
        if "problem_seeds" in obj:
            kwargs["problem_seeds"] = parse_seed_range(obj["problem_seeds"])
        return cls(landscape=landscape, ea=_optional_ea(obj), **kwargs)


def generate_archive(config: ArchiveGenConfig) -> RunArchive:
    """Run a seeded EA per (problem, run) and log every evaluation."""
    runs: dict[str, list[Individual]] = {}
    for problem_seed in config.problem_seeds:
        land = make_landscape(problem_seed, config.landscape)
        problem_id = str(problem_seed)
        for run_index in range(config.runs_per_problem):
            run_id = f"p{problem_seed:03d}r{run_index:02d}"
            rng = np.random.default_rng(
                [config.base_seed, problem_seed, run_index])
            record: list[Individual] = []

            def log(gan: GanSpec, fitness: float,
                    _run_id=run_id, _record=record) -> None:
                _record.append(Individual(gan=gan, fitness=fitness,
                                          run_id=_run_id,
                                          problem_id=problem_id))

            population = init_population("random", config.population, land,
                                         rng)
            for gan, fitness in population.members:
                log(gan, fitness)
            simple_ea(land, population, config.generations, rng,
                      config=config.ea, on_evaluate=log)
            runs[run_id] = record
    return RunArchive(runs=runs, config=config.landscape.genotype)


# ---------------------------------------------------------------------------
# Likelihood separation (elite sets scored under the learned model)


@dataclass(frozen=True)
class LikelihoodConfig:
    landscape: LandscapeConfig
    n: int = 10
    seed: int = 0
    min_scored: int = 30
    learn: LearnConfig | None = None

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LikelihoodConfig":
        landscape = _landscape(obj)
        kwargs = _ints(obj, ("n", "seed", "min_scored"))
        return cls(landscape=landscape, learn=_optional_learn(obj), **kwargs)


@dataclass(frozen=True)
class ScoreRow:
    set_name: str
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
    sets: EliteSets
    metamodel: Metamodel


def run_likelihood(archive: RunArchive,
                   config: LikelihoodConfig) -> LikelihoodResult:
    """Extract elite sets, learn on First, score all three sets.

    Depth keys where every set is represented and at least ``min_scored``
    individuals were scored in total get a Kruskal-Wallis test over the
    per-set log probabilities plus Dunn pairwise p-values.
    """
    learn_config = _default_learn(config.landscape, config.learn)
    sets = extract_sets(archive, config.n, config.seed)
    model = learn(sets.first, learn_config,
                  provenance={"archive_hash": archive.content_hash(),
                              "elite_n": config.n})
    rows: list[ScoreRow] = []
    for set_name in SET_NAMES:
        for ind in sets.by_name(set_name):
            breakdown = model.score(ind.gan)
            rows.append(ScoreRow(
                set_name=set_name, run_id=ind.run_id,
                problem_id=ind.problem_id,
                d_g=breakdown.depth_key.d_g, d_d=breakdown.depth_key.d_d,
                log_prob=breakdown.log_prob,
                normalized=breakdown.normalized))
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
    return LikelihoodResult(rows=rows, key_tests=key_tests, sets=sets,
                            metamodel=model)


def write_likelihood_csv(result: LikelihoodResult, path) -> None:
    write_csv(path,
              ["set", "run_id", "problem_id", "d_g", "d_d", "log_prob",
               "normalized"],
              [(r.set_name, r.run_id, r.problem_id, r.d_g, r.d_d,
                r.log_prob, r.normalized) for r in result.rows])


def write_likelihood_tests_csv(result: LikelihoodResult, path) -> None:
    write_csv(path,
              ["d_g", "d_d", "n_first", "n_second", "n_random", "h", "p",
               "p_first_second", "p_first_random", "p_second_random"],
              [(t.d_g, t.d_d, t.n_first, t.n_second, t.n_random, t.h, t.p,
                t.p_first_second, t.p_first_random, t.p_second_random)
               for t in result.key_tests])


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

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SamplingConfig":
        landscape = _landscape(obj)
        kwargs = _ints(obj, ("n", "n_each", "seed"))
        if "holdout_seeds" in obj:
            kwargs["holdout_seeds"] = parse_seed_range(obj["holdout_seeds"])
        return cls(landscape=landscape,
                   train_seeds=parse_seed_range(_required(obj, "train_seeds")),
                   learn=_optional_learn(obj), **kwargs)


@dataclass(frozen=True)
class SampleRow:
    holdout_seed: int
    set_name: str
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
    metamodel: Metamodel


def run_sampling(archive: RunArchive,
                 config: SamplingConfig) -> SamplingResult:
    """Learn on train-problem elites, compare three genotype sources.

    One batch of sampled / First-drawn / random genotypes is drawn up
    front, then evaluated on every holdout landscape.
    """
    learn_config = _default_learn(config.landscape, config.learn)
    train_ids = {str(s) for s in config.train_seeds}
    known = _archive_problem_ids(archive)
    if not train_ids <= known:
        raise ValidationError(
            f"train seeds {sorted(train_ids - known)} not in the archive")
    train_runs = {run_id: inds for run_id, inds in archive.runs.items()
                  if inds and inds[0].problem_id in train_ids}
    if not train_runs:
        raise ValidationError("no archive runs match the train seeds")
    train_archive = RunArchive(runs=train_runs, config=archive.config)
    sets = extract_sets(train_archive, config.n, config.seed)
    model = learn(sets.first, learn_config,
                  provenance={"archive_hash": train_archive.content_hash(),
                              "elite_n": config.n})
    rng = np.random.default_rng([config.seed, len(config.train_seeds)])
    sampled = model.sample_many(rng, config.n_each)
    picks = rng.integers(len(sets.first), size=config.n_each)
    first_drawn = [sets.first[int(i)].gan for i in picks]
    randoms = [random_gan(rng, config.landscape.genotype)
               for _ in range(config.n_each)]
    batches = (("sampled", sampled), ("first", first_drawn),
               ("random", randoms))
    rows: list[SampleRow] = []
    tests: list[HoldoutTest] = []
    for holdout_seed in config.holdout_seeds:
        land = make_landscape(holdout_seed, config.landscape)
        fitness = {}
        for set_name, gans in batches:
            values = [land.evaluate(g) for g in gans]
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
    return SamplingResult(rows=rows, tests=tests, metamodel=model)


def write_sampling_csv(result: SamplingResult, path) -> None:
    write_csv(path, ["holdout_seed", "set", "index", "fitness"],
              [(r.holdout_seed, r.set_name, r.index, r.fitness)
               for r in result.rows])


def write_sampling_tests_csv(result: SamplingResult, path) -> None:
    write_csv(path,
              ["holdout_seed", "median_sampled", "median_first",
               "median_random", "p_sampled_vs_random", "p_sampled_vs_first"],
              [(t.holdout_seed, t.median_sampled, t.median_first,
                t.median_random, t.p_sampled_vs_random,
                t.p_sampled_vs_first) for t in result.tests])


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

    @classmethod
    def from_json_obj(cls, obj: dict) -> "InitializationConfig":
        landscape = _landscape(obj)
        kwargs = _ints(obj, ("target_seed", "replicates", "population",
                             "generations", "n", "seed"))
        return cls(landscape=landscape, ea=_optional_ea(obj),
                   learn=_optional_learn(obj), **kwargs)


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
    metamodel: Metamodel


STRATEGY_ORDER = ("random", "from_first", "from_metamodel")


def run_initialization(archive: RunArchive,
                       config: InitializationConfig) -> InitializationResult:
    """Replicated EA runs under the three initialization strategies.

    The target landscape seed must be fresh: learning and searching on the
    same problem would test memorization, not transfer.
    """
    learn_config = _default_learn(config.landscape, config.learn)
    if str(config.target_seed) in _archive_problem_ids(archive):
        raise ValidationError(
            f"target seed {config.target_seed} appears in the archive")
    sets = extract_sets(archive, config.n, config.seed)
    model = learn(sets.first, learn_config,
                  provenance={"archive_hash": archive.content_hash(),
                              "elite_n": config.n})
    elite_gans = [ind.gan for ind in sets.first]
    land = make_landscape(config.target_seed, config.landscape)
    rows: list[GenerationRow] = []
    finals: dict[str, list[float]] = {s: [] for s in STRATEGY_ORDER}
    starts: dict[str, list[float]] = {s: [] for s in STRATEGY_ORDER}
    for replicate in range(config.replicates):
        for strategy_index, strategy in enumerate(STRATEGY_ORDER):
            rng = np.random.default_rng(
                [config.seed, replicate, strategy_index])
            population = init_population(strategy, config.population, land,
                                         rng, elite=elite_gans,
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
    return InitializationResult(rows=rows, summary=summary, metamodel=model)


def write_initialization_csv(result: InitializationResult, path) -> None:
    write_csv(path, ["strategy", "replicate", "generation", "best"],
              [(r.strategy, r.replicate, r.generation, r.best)
               for r in result.rows])


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

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GuidedSearchConfig":
        landscape = _landscape(obj)
        kwargs = _ints(obj, ("target_seed", "replicates", "budget", "n",
                             "seed"))
        return cls(landscape=landscape, learn=_optional_learn(obj), **kwargs)


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
    metamodel: Metamodel


def run_guided_search(archive: RunArchive, config: GuidedSearchConfig,
                      metamodel: Metamodel | None = None) -> GuidedSearchResult:
    """Random vs metamodel-guided hill climbing from shared starts.

    Passing ``metamodel`` overrides learning from the archive (used for the
    uniform-model null control).  Each replicate starts both climbers from
    the same minimal genotype.
    """
    learn_config = _default_learn(config.landscape, config.learn)
    if str(config.target_seed) in _archive_problem_ids(archive):
        raise ValidationError(
            f"target seed {config.target_seed} appears in the archive")
    if metamodel is None:
        sets = extract_sets(archive, config.n, config.seed)
        metamodel = learn(sets.first, learn_config,
                          provenance={"archive_hash": archive.content_hash(),
                                      "elite_n": config.n})
    elif (metamodel.config.fingerprint()
          != config.landscape.genotype.fingerprint()):
        raise ValidationError("metamodel genotype does not match landscape")
    land = make_landscape(config.target_seed, config.landscape)
    gc = config.landscape.genotype
    traces: dict[str, list[SearchTrace]] = {a: [] for a in ALGORITHMS}
    rows: list[StepRow] = []
    half = config.budget // 2
    finals: dict[str, list[float]] = {a: [] for a in ALGORITHMS}
    improvements: dict[str, list[float]] = {a: [] for a in ALGORITHMS}
    for replicate in range(config.replicates):
        start = random_minimal_gan(
            np.random.default_rng([config.seed, replicate, 0]), gc)
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
    return GuidedSearchResult(rows=rows, traces=traces, summary=summary,
                              metamodel=metamodel)


def write_guided_csv(result: GuidedSearchResult, path) -> None:
    write_csv(path,
              ["algorithm", "replicate", "step", "fitness", "best",
               "accepted"],
              [(r.algorithm, r.replicate, r.step, r.fitness, r.best,
                int(r.accepted)) for r in result.rows])
