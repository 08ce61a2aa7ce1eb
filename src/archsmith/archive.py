"""Run archives of evaluated GAN genotypes and elite-set extraction.

An archive is a line-delimited file of records {run_id, problem_id, fitness,
gan}; an optional first line tagged ``archive-v1`` carries the genotype
configuration the runs were generated under.  A record line in exactly the
form ``save_archive`` writes is read straight from its text, through the
writer's own text tables; any other line is read as JSON.  Both give the
same individuals, diagnostics and rejections for the same line.
Extraction slices each run into First (best n), Second (next n) and Random
(n seeded uniform draws) sets, the inputs to metamodel learning and the
likelihood analyses.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (FormatError, ValidationError, number, open_text,
                     parse_field, read_json_line, string)
from .genotype import (
    DepthKey,
    GanSpec,
    GenotypeConfig,
    _flatten_fields,
    _gan_reader,
    _gan_text,
    _read_gan_text,
    _record_fields,
    _text_tables,
    _value_tables,
    gan_hash,
    sort_by_fitness,
    unflatten_joint,
)

ARCHIVE_FORMAT = "archive-v1"
SET_NAMES = ("first", "second", "random")

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Individual:
    """One evaluated genotype from one run; lower fitness is better.

    The genotype is its depth key and its row in ``config``'s joint
    schema.  ``gan`` builds the tree on first read, and the hash that
    breaks fitness ties is computed once per individual.
    """

    key: DepthKey
    row: tuple[int, ...]
    fitness: float
    run_id: str
    problem_id: str
    config: GenotypeConfig = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.fitness):
            raise ValidationError(f"fitness must be finite, got {self.fitness}")

    @cached_property
    def gan(self) -> GanSpec:
        return unflatten_joint(self.key, self.row, self.config)

    @cached_property
    def _hash(self) -> str:
        return gan_hash(self.key, self.row, self.config)


def _parse_record(obj) -> tuple:
    """The ``(_record_fields(obj["gan"]), fitness, run_id, problem_id)`` of
    an archive record; a record of the wrong shape raises a FormatError."""
    what = "archive record"
    try:
        return (_record_fields(obj["gan"]),
                parse_field(obj, "fitness", number, what),
                parse_field(obj, "run_id", string, what),
                parse_field(obj, "problem_id", string, what))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad archive record: {exc}") from exc


def _value_json(value) -> str:
    """``json.dumps(value, sort_keys=True)``, without the call's overhead
    for an int or a finite float (``json`` writes any float, ``np.float64``
    included, with ``float.__repr__``)."""
    if type(value) is int:
        return repr(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, sort_keys=True)


def _record_texts(individuals: Iterable[Individual]) -> Iterator[str]:
    """The record of each individual: ``json.dumps`` with ``sort_keys`` of
    ``{"fitness", "gan", "problem_id", "run_id"}``, the genotype as its
    record, written from its key and row.

    The text is built from fragments in sorted-key order: layer texts
    from the config's table (``genotype._text_tables``), and network
    texts and the ``problem_id``/``run_id`` tail (the tail only for
    ``str`` ids, whose equal values encode alike) once per distinct value,
    cached for this call only, so the caches are bounded by the genotype
    space and the number of runs.
    """
    tails: dict[tuple[str, str], str] = {}
    networks: dict[GenotypeConfig, tuple[dict, dict]] = {}
    config = None
    for ind in individuals:
        if ind.config is not config:
            config = ind.config
            tables = _text_tables(config, False)
            cache = networks.setdefault(config, ({}, {}))
        ids = (ind.problem_id, ind.run_id)
        plain = type(ids[0]) is str and type(ids[1]) is str
        tail = tails.get(ids) if plain else None
        if tail is None:
            tail = json.dumps({"problem_id": ids[0], "run_id": ids[1]},
                              sort_keys=True)[1:]
            if plain:
                tails[ids] = tail
        yield (f'{{"fitness": {_value_json(ind.fitness)}, '
               f'"gan": {_gan_text(ind.key, ind.row, tables, cache)}, {tail}')


# The fixed text of a written record before its fitness, its genotype and
# its ids.
_FITNESS, _GAN, _IDS = '{"fitness": ', ', "gan": ', ', "problem_id": '


def _read_record_text(line: str, reader, tails: dict) -> tuple | None:
    """The ``(key, row, fitness, problem_id, run_id)`` of a record whose
    line is exactly the text ``_record_texts`` writes for them, with a
    float fitness, for ``reader = genotype._gan_reader(config)``; None for
    any other line.  ``tails`` caches, for one load, the ids of each
    ``problem_id``/``run_id`` tail read so far.

    The line is cut at the first ``"gan"`` and ``"problem_id"`` keys, and
    each piece must be the writer's text of its value, so ``json.loads``
    of the line would give the same record.
    """
    gan = line.find(_GAN)
    ids = line.find(_IDS, gan)
    if gan < 0 or ids < 0 or not line.startswith(_FITNESS):
        return None
    text = line[len(_FITNESS):gan]
    try:
        fitness = float(text)
    except ValueError:
        return None
    if not math.isfinite(fitness) or float.__repr__(fitness) != text:
        return None
    genotype = _read_gan_text(line[gan + len(_GAN):ids], reader)
    if genotype is None:
        return None
    tail = line[ids + 2:]
    pair = tails.get(tail)
    if pair is None:
        pair = _tail_ids(tail)
        if pair is None:
            return None
        tails[tail] = pair
    return *genotype, fitness, *pair


def _tail_ids(tail: str) -> tuple[str, str] | None:
    """The ``(problem_id, run_id)`` of a record tail, if ``tail`` is the
    text ``_record_texts`` writes for two ``str`` ids; else None."""
    try:
        obj = json.loads("{" + tail)
    except (ValueError, RecursionError):
        return None
    if (type(obj) is dict and obj.keys() == {"problem_id", "run_id"}
            and type(obj["problem_id"]) is str and type(obj["run_id"]) is str
            and json.dumps(obj, sort_keys=True)[1:] == tail):
        return obj["problem_id"], obj["run_id"]
    return None


def _ranked(individuals: Iterable[Individual]) -> list[Individual]:
    """Ascending fitness, ties broken by the canonical genotype hash."""
    return sort_by_fitness(individuals, attrgetter("fitness"),
                           attrgetter("_hash"))


@dataclass(frozen=True)
class RunArchive:
    """Individuals grouped by run, plus the configuration they live in.

    An archive is an immutable value: ``runs`` is a read-only mapping of
    run ids to tuples, whatever mappings or lists it was built from, and
    no attribute can be set.  So each run is ranked, the content hashed
    and the problem ids collected at most once per archive object, on
    first use, however many analyses read them.
    """

    runs: Mapping[str, tuple[Individual, ...]]
    config: GenotypeConfig
    diagnostics: tuple[str, ...] = ()
    rejected: int = 0

    def __post_init__(self) -> None:
        runs = {run_id: tuple(run) for run_id, run in self.runs.items()}
        object.__setattr__(self, "runs", MappingProxyType(runs))
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def n_individuals(self) -> int:
        return sum(len(v) for v in self.runs.values())

    def all_individuals(self) -> list[Individual]:
        return [ind for run in self.runs.values() for ind in run]

    @cached_property
    def problem_ids(self) -> frozenset[str]:
        return frozenset(ind.problem_id for run in self.runs.values()
                         for ind in run)

    @cached_property
    def _ranked_runs(self) -> tuple[tuple[str, tuple[Individual, ...]], ...]:
        """``(run_id, ranked run)`` pairs, runs sorted by id."""
        return tuple((run_id, tuple(_ranked(self.runs[run_id])))
                     for run_id in sorted(self.runs))

    @cached_property
    def _digest(self) -> str:
        digest = hashlib.sha256()
        for text in _record_texts(ind for _, run in self._ranked_runs
                                  for ind in run):
            digest.update(text.encode())
        return digest.hexdigest()

    def content_hash(self) -> str:
        """sha256 of the record texts, runs by id, each run ranked."""
        return self._digest


@dataclass
class EliteSets:
    """The ``SET_NAMES`` slices of an archive, n per run each."""

    first: list[Individual]
    second: list[Individual]
    random: list[Individual]

    def by_name(self, name: str) -> list[Individual]:
        if name not in SET_NAMES:
            raise ValidationError(f"unknown set name {name!r}")
        return getattr(self, name)


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

    An ``archive-v1`` header, which must be the first line that is not
    blank, supplies the genotype configuration unless ``config``
    overrides it.  Each record is read straight into its key and row:
    once the configuration is known, a line that is exactly the text
    ``save_archive`` writes for a record with a float fitness and ``str``
    ids is read from that text (``_read_record_text``), and any other line
    through JSON.  Which path reads a line changes no individual,
    diagnostic or rejection.  Records whose genotypes fall outside the
    configured space are rejected and counted, after every line's
    diagnostics, by run.  An archive with no loadable runs at all is an
    error.
    """
    by_run: dict[str, tuple[list[Individual], list[str]]] = {}
    diagnostics: list[str] = []
    tails: dict[str, tuple[str, str]] = {}
    file_config = tables = reader = first = None
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            first = first or lineno
            record = reader and _read_record_text(line, reader, tails)
            if record:
                key, row, fitness, problem_id, run_id = record
                by_run.setdefault(run_id, ([], []))[0].append(Individual(
                    key, row, fitness, run_id, problem_id, effective))
                continue
            try:
                obj = read_json_line(line)
            except FormatError as exc:
                diagnostics.append(f"line {lineno}: {exc}")
                continue
            if isinstance(obj, dict) and obj.get("format") == ARCHIVE_FORMAT:
                if "config" not in obj:
                    raise FormatError(f"{path}: line {lineno}: "
                                      f"{ARCHIVE_FORMAT} header has no config")
                if lineno != first:
                    raise FormatError(f"{path}: line {lineno}: "
                                      f"{ARCHIVE_FORMAT} header after line "
                                      f"{first}; a header must come first")
                try:
                    file_config = GenotypeConfig.from_json_obj(obj["config"])
                except ValidationError as exc:
                    raise type(exc)(f"{path}: line {lineno}: {exc}") from None
                continue
            if tables is None:
                effective = config or file_config or GenotypeConfig.joint()
                tables = _value_tables(effective)
                reader = _gan_reader(effective)
            try:
                fields, fitness, run_id, problem_id = _parse_record(obj)
            except FormatError as exc:
                diagnostics.append(f"line {lineno}: {exc}")
                continue
            kept, rejects = by_run.setdefault(run_id, ([], []))
            try:
                key, row = _flatten_fields(*fields, effective, tables)
            except ValidationError as exc:
                rejects.append(f"run {run_id}: rejected record ({exc})")
                continue
            kept.append(Individual(key, row, fitness, run_id, problem_id,
                                   effective))
    rejections = [text for _, rejects in by_run.values() for text in rejects]
    diagnostics += rejections
    runs = {run_id: kept for run_id, (kept, _) in by_run.items() if kept}
    if not runs:
        raise ValidationError(f"no runs loadable from {path}")
    for message in diagnostics:
        logger.warning("%s: %s", path, message)
    return RunArchive(runs=runs, config=effective, diagnostics=diagnostics,
                      rejected=len(rejections))


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
    replacement from the whole run and may overlap the other two.

    Raises:
        ValidationError: if any run holds fewer than 2n individuals.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    first: list[Individual] = []
    second: list[Individual] = []
    random_set: list[Individual] = []
    for run_id, individuals in archive._ranked_runs:
        if len(individuals) < 2 * n:
            raise ValidationError(
                f"run {run_id!r} has {len(individuals)} individuals, "
                f"needs at least {2 * n}")
        first.extend(individuals[:n])
        second.extend(individuals[n:2 * n])
        rng = _run_rng(seed, run_id)
        chosen = rng.choice(len(individuals), size=n, replace=False)
        random_set.extend(individuals[int(i)] for i in sorted(chosen))
    return EliteSets(first=first, second=second, random=random_set)
