"""Run archives of evaluated GAN genotypes and elite-set extraction.

An archive is a line-delimited file of records {run_id, problem_id, fitness,
gan}; an optional first line tagged ``archive-v1`` carries the genotype
configuration the runs were generated under.  Extraction slices each run
into First (best n), Second (next n) and Random (n seeded uniform draws)
sets, the inputs to metamodel learning and the likelihood analyses.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import FormatError, ValidationError
from .genotype import (
    DepthKey,
    GanSpec,
    GenotypeConfig,
    LayerPool,
    _gan_json,
    _value_json,
    sort_by_fitness,
    validate_gan,
)

ARCHIVE_FORMAT = "archive-v1"
SETS_FORMAT = "sets-v1"

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Individual:
    """One evaluated genotype from one run; lower fitness is better."""

    gan: GanSpec
    fitness: float
    run_id: str
    problem_id: str

    def __post_init__(self) -> None:
        if not np.isfinite(self.fitness):
            raise ValidationError(f"fitness must be finite, got {self.fitness}")

    @property
    def depth_key(self) -> DepthKey:
        return self.gan.depth_key

    def to_json_obj(self) -> dict:
        return {"run_id": self.run_id, "problem_id": self.problem_id,
                "fitness": self.fitness, "gan": self.gan.to_json_obj()}

    @classmethod
    def from_json_obj(cls, obj: dict,
                      pool: LayerPool | None = None) -> "Individual":
        try:
            return cls(gan=GanSpec.from_json_obj(obj["gan"], pool),
                       fitness=float(obj["fitness"]),
                       run_id=str(obj["run_id"]),
                       problem_id=str(obj["problem_id"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad archive record: {exc}") from exc


def _record_texts(individuals: Iterable[Individual]) -> Iterator[str]:
    """``json.dumps(ind.to_json_obj(), sort_keys=True)`` of each individual.

    The text is built from fragments in sorted-key order.  Layer texts and
    the ``problem_id``/``run_id`` tail are encoded once per distinct value
    (the tail only for ``str`` ids, whose equal values encode alike) and
    cached for this call only, so the cache is bounded by the genotype
    vocabulary and the number of runs.
    """
    texts: dict = {}
    tails: dict[tuple[str, str], str] = {}
    for ind in individuals:
        ids = (ind.problem_id, ind.run_id)
        plain = type(ids[0]) is str and type(ids[1]) is str
        tail = tails.get(ids) if plain else None
        if tail is None:
            tail = json.dumps({"problem_id": ids[0], "run_id": ids[1]},
                              sort_keys=True)[1:]
            if plain:
                tails[ids] = tail
        yield (f'{{"fitness": {_value_json(ind.fitness)}, '
               f'"gan": {_gan_json(ind.gan, texts)}, {tail}')


def _digest(individuals: Iterable[Individual]) -> str:
    """sha256 over the concatenated record texts of ``individuals``."""
    digest = hashlib.sha256()
    for text in _record_texts(individuals):
        digest.update(text.encode())
    return digest.hexdigest()


def _ranked(individuals: Iterable[Individual]) -> list[Individual]:
    """Ascending fitness, ties broken by the canonical genotype hash."""
    return sort_by_fitness(individuals, key=attrgetter("gan", "fitness"))


@dataclass
class RunArchive:
    """Individuals grouped by run, plus the configuration they live in."""

    runs: dict[str, list[Individual]]
    config: GenotypeConfig
    diagnostics: list[str] = field(default_factory=list)
    rejected: int = 0

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def n_individuals(self) -> int:
        return sum(len(v) for v in self.runs.values())

    def all_individuals(self) -> list[Individual]:
        return [ind for run in self.runs.values() for ind in run]

    def content_hash(self) -> str:
        """sha256 of the record texts, runs by id, each run ranked."""
        return _digest(ind for run_id in sorted(self.runs)
                       for ind in _ranked(self.runs[run_id]))


@dataclass
class EliteSets:
    """First/Second/Random slices of an archive, n per run each."""

    first: list[Individual]
    second: list[Individual]
    random: list[Individual]
    n: int
    seed: int
    overlap_count: int
    config: GenotypeConfig

    def by_name(self, name: str) -> list[Individual]:
        try:
            return {"first": self.first, "second": self.second,
                    "random": self.random}[name]
        except KeyError:
            raise ValidationError(f"unknown set name {name!r}") from None


def save_archive(archive: RunArchive, path) -> None:
    """Write header + one record per line, deterministically ordered."""
    with open(path, "w", encoding="utf-8") as handle:
        header = {"format": ARCHIVE_FORMAT,
                  "config": archive.config.to_json_obj()}
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for text in _record_texts(archive.all_individuals()):
            handle.write(text + "\n")


def load_archive(path, config: GenotypeConfig | None = None) -> RunArchive:
    """Parse an archive file, skipping bad lines with per-line diagnostics.

    A leading ``archive-v1`` header supplies the genotype configuration
    unless ``config`` overrides it.  Records whose genotypes fall outside
    the configured space are rejected and counted.  An archive with no
    loadable runs at all is an error.  Equal layers of the loaded genotypes
    are one shared object (``LayerPool``).
    """
    runs: dict[str, list[Individual]] = {}
    diagnostics: list[str] = []
    rejected = 0
    file_config = None
    pool = LayerPool(config or GenotypeConfig.joint())
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                diagnostics.append(f"line {lineno}: not valid JSON ({exc.msg})")
                continue
            if isinstance(obj, dict) and obj.get("format") == ARCHIVE_FORMAT:
                if "config" not in obj:
                    raise FormatError(f"{path}: line {lineno}: "
                                      f"{ARCHIVE_FORMAT} header has no config")
                file_config = GenotypeConfig.from_json_obj(obj["config"])
                if config is None:
                    pool = LayerPool(file_config)
                continue
            try:
                ind = Individual.from_json_obj(obj, pool)
            except (FormatError, ValidationError) as exc:
                diagnostics.append(f"line {lineno}: {exc}")
                continue
            runs.setdefault(ind.run_id, []).append(ind)
    effective = config or file_config or GenotypeConfig.joint()
    checked: dict[str, list[Individual]] = {}
    for run_id, individuals in runs.items():
        kept = []
        for ind in individuals:
            try:
                validate_gan(ind.gan, effective)
            except ValidationError as exc:
                rejected += 1
                diagnostics.append(f"run {run_id}: rejected record ({exc})")
                continue
            kept.append(ind)
        if kept:
            checked[run_id] = kept
    if not checked:
        raise ValidationError(f"no runs loadable from {path}")
    for message in diagnostics:
        logger.warning("%s: %s", path, message)
    return RunArchive(runs=checked, config=effective,
                      diagnostics=diagnostics, rejected=rejected)


def _run_rng(seed: int, run_id: str) -> np.random.Generator:
    # Seeded per run so extraction ignores run iteration order entirely.
    run_digest = int.from_bytes(
        hashlib.sha256(run_id.encode()).digest()[:8], "big")
    return np.random.default_rng([seed, run_digest])


def extract_sets(archive: RunArchive, n: int, seed: int) -> EliteSets:
    """Slice every run into First/Second/Random sets of size n.

    Individuals are ranked by ascending fitness with ties broken by the
    canonical genotype hash, so extraction is deterministic even if the
    archive lines were shuffled.  The Random set is drawn uniformly without
    replacement from the whole run and may overlap the other two; the
    overlap count is recorded.

    Raises:
        ValidationError: if any run holds fewer than 2n individuals.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    first: list[Individual] = []
    second: list[Individual] = []
    random_set: list[Individual] = []
    overlap = 0
    for run_id in sorted(archive.runs):
        individuals = _ranked(archive.runs[run_id])
        if len(individuals) < 2 * n:
            raise ValidationError(
                f"run {run_id!r} has {len(individuals)} individuals, "
                f"needs at least {2 * n}")
        first.extend(individuals[:n])
        second.extend(individuals[n:2 * n])
        rng = _run_rng(seed, run_id)
        chosen = rng.choice(len(individuals), size=n, replace=False)
        for index in sorted(int(i) for i in chosen):
            if index < 2 * n:
                overlap += 1
            random_set.append(individuals[index])
    return EliteSets(first=first, second=second, random=random_set, n=n,
                     seed=seed, overlap_count=overlap, config=archive.config)


def filter_depths(individuals: Sequence[Individual],
                  allowed: Iterable[DepthKey]) -> tuple[list[Individual], float]:
    """Keep individuals whose depth key is allowed; report the kept fraction."""
    allowed_set = {DepthKey(*k) for k in allowed}
    kept = [ind for ind in individuals if ind.depth_key in allowed_set]
    fraction = len(kept) / len(individuals) if individuals else 1.0
    if fraction < 1.0:
        logger.info("filter_depths kept %d/%d individuals (%.1f%%)",
                    len(kept), len(individuals), 100 * fraction)
    return kept, fraction


def save_sets(sets: EliteSets, path) -> None:
    doc = {
        "format": SETS_FORMAT,
        "n": sets.n,
        "seed": sets.seed,
        "overlap_count": sets.overlap_count,
        "config": sets.config.to_json_obj(),
        "first": [i.to_json_obj() for i in sets.first],
        "second": [i.to_json_obj() for i in sets.second],
        "random": [i.to_json_obj() for i in sets.random],
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, sort_keys=True) + "\n")


def load_sets(path) -> EliteSets:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"corrupt sets file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != SETS_FORMAT:
        raise FormatError(f"expected a {SETS_FORMAT} document")
    try:
        return EliteSets(
            first=[Individual.from_json_obj(o) for o in doc["first"]],
            second=[Individual.from_json_obj(o) for o in doc["second"]],
            random=[Individual.from_json_obj(o) for o in doc["random"]],
            n=int(doc["n"]),
            seed=int(doc["seed"]),
            overlap_count=int(doc["overlap_count"]),
            config=GenotypeConfig.from_json_obj(doc["config"]),
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad {SETS_FORMAT} document: {exc}") from exc


def sets_content_hash(sets: EliteSets) -> str:
    return _digest(sets.first + sets.second + sets.random)
