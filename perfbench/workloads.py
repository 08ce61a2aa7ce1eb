"""The three benchmark workloads: inputs, set-up, timed operations, checks.

Every workload is a closed loop with one caller: the worker runs one
iteration after another in a single process.  An iteration calls the
package's public functions through their modules (``experiments.run_...``),
so a tracer that rebinds those names sees every call.

Inputs come from the workload seed.  The landscape family is always
``family_seed=7``, the acceptance suite's.  The seed picks the EA base seed
of the archive that ``evolve`` synthesizes and the ``seed`` field of every
experiment config (start genotypes, tie-breaks, sampling streams, the
Random elite set that is scored).  ``guide`` and ``model`` read the
acceptance archive (base seed 0) whatever the seed: the size of a learned
model, and with it save and load time, swings tenfold between archives
(1.7 MB to 57 MB across family seeds), which would drown any change a
later optimisation makes.

Checks are exact invariants, so no seed can fail them: archive sizes, row
counts, scores equal across save and load, sampled genotypes inside their
schema, and one output digest for every iteration of a run.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from archsmith import archive as archive_mod
from archsmith import experiments, genotype, landscape, metamodel
from archsmith.errors import ArchsmithError
from archsmith.experiments import (
    ArchiveGenConfig,
    GuidedSearchConfig,
    InitializationConfig,
    LikelihoodConfig,
    SamplingConfig,
)
from archsmith.genotype import GenotypeConfig
from archsmith.landscape import LandscapeConfig
from archsmith.metamodel import LearnConfig

FAMILY_SEED = 7
INPUT_ARCHIVE_SEED = 0
# The reduced space criterion 8 of the acceptance suite runs in.
SMALL_SPACE = dict(arity=2, activations=("relu", "tanh"),
                   weight_inits=("xavier", "normal"),
                   generator_depth_max=2, discriminator_depth_max=2)


@dataclass(frozen=True)
class Inputs:
    """Every configuration one workload seed produces."""

    evolve_archive: ArchiveGenConfig
    joint_archive: ArchiveGenConfig
    per_network_archive: ArchiveGenConfig
    initialization: InitializationConfig
    guided: GuidedSearchConfig
    likelihood: LikelihoodConfig
    sampling: SamplingConfig
    model_n: int
    model_samples: int
    seed: int


def make_inputs(seed: int, smoke: bool = False) -> Inputs:
    """Acceptance-scale inputs, or criterion 8's reduced scale for smoke."""
    if smoke:
        joint = LandscapeConfig(genotype=GenotypeConfig.joint(**SMALL_SPACE),
                                family_seed=5, base_scale=10.0)
        per_network = LandscapeConfig(
            genotype=GenotypeConfig.per_network(**SMALL_SPACE),
            family_seed=5, base_scale=10.0)
        layout = dict(problem_seeds=(0, 1, 2), runs_per_problem=2,
                      population=8, generations=4)
        return Inputs(
            evolve_archive=ArchiveGenConfig(landscape=joint, base_seed=seed,
                                            **layout),
            joint_archive=ArchiveGenConfig(landscape=joint, **layout),
            per_network_archive=ArchiveGenConfig(landscape=per_network,
                                                 **layout),
            initialization=InitializationConfig(
                landscape=joint, target_seed=60, replicates=3, population=6,
                generations=3, n=3, seed=seed),
            guided=GuidedSearchConfig(landscape=per_network, target_seed=61,
                                      replicates=3, budget=12, n=3,
                                      seed=seed),
            likelihood=LikelihoodConfig(landscape=joint, n=3, min_scored=6,
                                        seed=seed),
            sampling=SamplingConfig(landscape=joint, train_seeds=(0, 1),
                                    holdout_seeds=(50, 51), n=3, n_each=20,
                                    seed=seed),
            model_n=3, model_samples=50, seed=seed)
    joint = LandscapeConfig(genotype=GenotypeConfig.joint(),
                            family_seed=FAMILY_SEED)
    per_network = LandscapeConfig(genotype=GenotypeConfig.per_network(),
                                  family_seed=FAMILY_SEED)
    return Inputs(
        evolve_archive=ArchiveGenConfig(landscape=joint, base_seed=seed),
        joint_archive=ArchiveGenConfig(landscape=joint,
                                       base_seed=INPUT_ARCHIVE_SEED),
        per_network_archive=ArchiveGenConfig(landscape=per_network,
                                             base_seed=INPUT_ARCHIVE_SEED),
        # 5 of the suite's 30 replicates keep an iteration near 7 s.
        initialization=InitializationConfig(landscape=joint, target_seed=200,
                                            replicates=5, seed=seed),
        guided=GuidedSearchConfig(landscape=per_network, target_seed=300,
                                  seed=seed),
        likelihood=LikelihoodConfig(landscape=joint, seed=seed),
        sampling=SamplingConfig(landscape=joint, train_seeds=(0, 1, 2, 3, 4),
                                holdout_seeds=(100, 101, 102), seed=seed),
        model_n=10, model_samples=1000, seed=seed)


def archive_size(config: ArchiveGenConfig) -> int:
    """Evaluations one archive logs: every run's start plus its offspring."""
    per_run = (config.population
               + config.generations * (config.population - config.ea.elitism))
    return len(config.problem_seeds) * config.runs_per_problem * per_run


class OperationFailed(Exception):
    """An operation raised; the rest of the iteration is abandoned."""


class Iteration:
    """Times one iteration's operations and records failed checks.

    Only the operations are timed.  Checks and digests run between them,
    outside the timed region and, in a traced iteration, with the tracer
    removed, so they add neither time nor counts.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.wall_s = 0.0
        self.stages: dict[str, float] = {}
        self.attempted = 0
        self.failed: set[int] = set()
        self.failures: list[str] = []
        self.evaluations = 0
        self.model_bytes = 0
        self._digest = hashlib.sha256()

    def op(self, name: str, stage: str | None, fn: Callable, *args):
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is None:
                return fn(*args)
            return self.tracer.root(name, fn, *args)
        except Exception as exc:  # one failed operation, reported, not fatal
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.failed.add(self.attempted)
            self.failures.append(f"{name}: {type(exc).__name__}: {exc} "
                                 f"({where.filename}:{where.lineno})")
            raise OperationFailed(name) from exc
        finally:
            elapsed = time.perf_counter() - start
            self.wall_s += elapsed
            if stage is not None:
                self.stages[stage] = self.stages.get(stage, 0.0) + elapsed

    def check(self, ok: bool, message: str) -> None:
        """Count the latest operation as failed unless ``ok``."""
        if not ok:
            self.failed.add(self.attempted)
            self.failures.append(message)

    def verify(self, message: str, fn: Callable, *args):
        """Run a checking computation untimed and untraced."""
        if self.tracer is not None:
            self.tracer.uninstall()
        try:
            return fn(*args)
        except ArchsmithError as exc:
            self.check(False, f"{message}: {exc}")
            return None
        finally:
            if self.tracer is not None:
                self.tracer.install()

    def digest(self, *parts) -> None:
        for part in parts:
            self._digest.update(repr(part).encode())

    def digest_file(self, path) -> None:
        with open(path, "rb") as handle:
            self._digest.update(handle.read())

    @property
    def hexdigest(self) -> str:
        return self._digest.hexdigest()


# ---------------------------------------------------------------------------
# evolve: archive synthesis and initialization on the joint genotype


def evolve_setup(inputs: Inputs, archive_path) -> dict:
    config = inputs.evolve_archive
    for seed in config.problem_seeds:
        landscape.make_landscape(seed, config.landscape)
    landscape.make_landscape(inputs.initialization.target_seed,
                             inputs.initialization.landscape)
    return {}


def evolve_iteration(it: Iteration, inputs: Inputs, state: dict,
                     workdir) -> None:
    gen = inputs.evolve_archive
    archive = it.op("generate_archive", "gen_archive_s",
                    experiments.generate_archive, gen)
    it.check(archive.n_individuals == archive_size(gen),
             f"archive holds {archive.n_individuals} individuals, "
             f"expected {archive_size(gen)}")
    path = os.path.join(workdir, "evolved.jsonl")
    it.op("save_archive", "gen_archive_s", archive_mod.save_archive,
          archive, path)
    it.digest_file(path)
    init = inputs.initialization
    result = it.op("run_initialization", "initialization_s",
                   experiments.run_initialization, archive, init)
    runs = init.replicates * len(experiments.STRATEGY_ORDER)
    it.check(len(result.rows) == runs * (init.generations + 1),
             f"initialization gave {len(result.rows)} rows, expected "
             f"{runs * (init.generations + 1)}")
    it.digest([(r.strategy, r.replicate, r.generation, r.best)
               for r in result.rows], result.summary)
    offspring = init.population - init.ea.elitism
    it.evaluations += (archive.n_individuals + runs * init.population
                       + (len(result.rows) - runs) * offspring)


# ---------------------------------------------------------------------------
# guide: random and guided hill climbing on the per-network genotype


def _load_input_archive(path, config: ArchiveGenConfig):
    archive = archive_mod.load_archive(path)
    if archive.n_individuals != archive_size(config):
        raise ArchsmithError(
            f"input archive holds {archive.n_individuals} individuals, "
            f"expected {archive_size(config)}")
    return archive


def guide_setup(inputs: Inputs, archive_path) -> dict:
    archive = _load_input_archive(archive_path, inputs.per_network_archive)
    landscape.make_landscape(inputs.guided.target_seed,
                             inputs.guided.landscape)
    return {"archive": archive}


def guide_iteration(it: Iteration, inputs: Inputs, state: dict,
                    workdir) -> None:
    config = inputs.guided
    result = it.op("run_guided_search", "guided_search_s",
                   experiments.run_guided_search, state["archive"], config)
    expected = config.replicates * len(experiments.ALGORITHMS) * config.budget
    it.check(len(result.rows) == expected,
             f"guided search gave {len(result.rows)} rows, expected {expected}")
    it.digest([(r.algorithm, r.replicate, r.step, r.fitness, r.best,
                r.accepted) for r in result.rows], result.summary)
    it.evaluations += sum(1 + trace.evaluations
                          for traces in result.traces.values()
                          for trace in traces)


# ---------------------------------------------------------------------------
# model: likelihood, sampling and metamodel persistence on the joint genotype


def model_setup(inputs: Inputs, archive_path) -> dict:
    archive = _load_input_archive(archive_path, inputs.joint_archive)
    for seed in inputs.sampling.holdout_seeds:
        landscape.make_landscape(seed, inputs.sampling.landscape)
    return {"archive": archive}


def _score_all(model, individuals) -> list[tuple[float, float]]:
    # One genotype at a time, as `archsmith score` does.
    return [(b.log_prob, b.normalized)
            for b in (model.score(ind.gan) for ind in individuals)]


def _flatten_all(gans, config: GenotypeConfig) -> None:
    for gan in gans:
        genotype.flatten_joint(gan, config)


def model_iteration(it: Iteration, inputs: Inputs, state: dict,
                    workdir) -> None:
    archive = state["archive"]
    lik = it.op("run_likelihood", "likelihood_s", experiments.run_likelihood,
                archive, inputs.likelihood)
    expected = len(experiments.SET_NAMES) * inputs.likelihood.n * archive.n_runs
    it.check(len(lik.rows) == expected,
             f"likelihood gave {len(lik.rows)} rows, expected {expected}")
    it.digest([(r.set_name, r.run_id, r.log_prob, r.normalized)
               for r in lik.rows], lik.key_tests)
    sampling = inputs.sampling
    samp = it.op("run_sampling", "sampling_s", experiments.run_sampling,
                 archive, sampling)
    expected = len(sampling.holdout_seeds) * 3 * sampling.n_each
    it.check(len(samp.rows) == expected,
             f"sampling gave {len(samp.rows)} rows, expected {expected}")
    it.digest(samp.rows, samp.tests)
    it.evaluations += len(samp.rows)

    gc = inputs.joint_archive.landscape.genotype
    learn_config = LearnConfig(genotype=gc)
    sets = it.op("extract_sets", None, archive_mod.extract_sets, archive,
                 inputs.model_n, INPUT_ARCHIVE_SEED)
    for index, name in enumerate(experiments.SET_NAMES):
        individuals = sets.by_name(name)
        model = it.op(f"learn_{name}", None, metamodel.learn, individuals,
                      learn_config)
        before = it.verify("scoring before save", _score_all, model,
                           individuals)
        path = os.path.join(workdir, f"model-{name}.json")
        it.op(f"save_{name}", "model_save_s", metamodel.save_metamodel,
              model, path)
        it.model_bytes += os.path.getsize(path)
        it.digest_file(path)
        loaded = it.op(f"load_{name}", "model_load_s",
                       metamodel.load_metamodel, path)
        after = it.op(f"score_{name}", None, _score_all, loaded, individuals)
        it.check(after == before,
                 f"{name}: scores after save and load differ from before")
        it.digest(after)
        rng = np.random.default_rng([inputs.seed, index])
        sampled = it.op(f"sample_{name}", None, loaded.sample_many, rng,
                        inputs.model_samples)
        it.check(len(sampled) == inputs.model_samples,
                 f"{name}: sample_many gave {len(sampled)} genotypes")
        it.verify(f"{name}: sampled genotype outside its schema",
                  _flatten_all, sampled, gc)
        it.digest(sampled)


@dataclass(frozen=True)
class Workload:
    setup: Callable
    iteration: Callable
    input_archive: str | None  # field of Inputs to generate before timing


WORKLOADS = {
    "evolve": Workload(evolve_setup, evolve_iteration, None),
    "guide": Workload(guide_setup, guide_iteration, "per_network_archive"),
    "model": Workload(model_setup, model_iteration, "joint_archive"),
}
