"""Two-level model over GAN genotypes.

A supermodel distributes mass over architecture depths and one Bayesian
network submodel per depth key (joint mode) or per role and depth
(per-network mode) models the remaining slots.  Learned from elite sets,
the metamodel scores genotypes, samples new ones and persists to a single
``mm-v2`` document.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .archive import Individual
from .bayesnet import (
    BayesNet,
    aracne_skeleton,
    bn_dag_from_json_obj,
    bn_from_json_obj,
    bn_to_json_obj,
    chow_liu,
    fit_cpts,
    log_likelihood_many,
    mi_matrix,
    orient,
    pls_sample_many,
    small_sample_correction,
)
from .errors import (
    FormatError,
    ValidationError,
    config_to_json,
    integer,
    parse_field,
    read_config,
    read_json,
)
from .genotype import (
    DepthKey,
    GanSpec,
    Genotype,
    GenotypeConfig,
    MODE_JOINT,
    ROLES,
    Schema,
    _batch,
    _per_key,
    flatten_joint,
    joint_schema,
    network_schema,
    unflatten_joint,
)

MM_FORMAT = "mm-v2"
MM_FORMAT_V1 = "mm-v1"  # whole CPTs only; still read

STRUCTURE_ARACNE = "aracne"
STRUCTURE_CHOW_LIU = "chow_liu"
STRUCTURES = (STRUCTURE_ARACNE, STRUCTURE_CHOW_LIU)

METHOD_MARGINALS = "marginals"
METHOD_UNIFORM = "uniform"
METHODS = STRUCTURES + (METHOD_MARGINALS, METHOD_UNIFORM)


@dataclass(frozen=True)
class LearnConfig:
    """Knobs for metamodel learning.

    Groups with fewer than min_samples rows fall back to independent
    smoothed marginals; MI estimates from fewer rows are noise.
    """

    genotype: GenotypeConfig
    structure: str = STRUCTURE_ARACNE
    min_samples: int = 10
    alpha: float = 1.0
    super_pseudocount: float = 1.0
    dpi_tolerance: float = 0.1
    mi_correction: bool = True

    def __post_init__(self) -> None:
        if self.structure not in STRUCTURES:
            raise ValidationError(f"unknown structure method {self.structure!r}")
        if self.min_samples < 1:
            raise ValidationError("min_samples must be >= 1")
        if self.alpha <= 0:
            raise ValidationError("alpha must be > 0")
        if self.super_pseudocount <= 0:
            raise ValidationError("super_pseudocount must be > 0")
        if not 0 <= self.dpi_tolerance <= 1:
            raise ValidationError("dpi_tolerance must lie in [0, 1]")

    to_json_obj = config_to_json
    from_json_obj = classmethod(read_config)


@dataclass(frozen=True)
class Categorical:
    """Smoothed categorical over hashable keys; probabilities sum to one."""

    support: tuple
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.support) != len(self.probs) or not self.support:
            raise ValidationError("support and probs must align and be non-empty")
        if not all(0 < p < math.inf for p in self.probs):
            raise ValidationError("probabilities must be positive and finite")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValidationError("probabilities must sum to 1")

    def sample_indices(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.choice(len(self.support), size=count, p=np.asarray(self.probs))

    @classmethod
    def from_counts(cls, support: Sequence, counts: Sequence[float],
                    pseudocount: float) -> "Categorical":
        raw = np.asarray(counts, dtype=float) + pseudocount
        return cls(support=tuple(support), probs=tuple(raw / raw.sum()))


@dataclass(frozen=True)
class Submodel:
    """One depth group: its schema, fitted network and training count."""

    key: tuple
    schema: Schema
    bn: BayesNet
    n_train: int
    method: str

    def __post_init__(self) -> None:
        if self.n_train < 0:
            raise ValidationError(f"submodel {list(self.key)}: n_train is "
                                  f"{self.n_train}, not a count")
        if self.method not in METHODS:
            raise ValidationError(f"submodel {list(self.key)}: unknown "
                                  f"method {self.method!r}")


@dataclass(frozen=True)
class ScoreBreakdown:
    """Joint log probability of a genotype, with its two factors.

    normalized divides by the number of modelled variables (depth choices
    plus slots) so candidates of different depths are comparable.
    """

    log_super: float
    log_sub: float
    depth_key: DepthKey
    n_variables: int

    @property
    def log_prob(self) -> float:
        return self.log_super + self.log_sub

    @property
    def normalized(self) -> float:
        return self.log_prob / self.n_variables


def learn_submodel(schema: Schema, rows: np.ndarray,
                   config: LearnConfig) -> Submodel:
    """Fit one depth group: BN structure when the sample supports it.

    Pure; groups may be learned concurrently.
    """
    rows = np.asarray(rows).reshape(-1, len(schema))  # fit_cpts checks it
    n = rows.shape[0]
    if n < config.min_samples:
        # Independent smoothed marginals; uniform rows when n is 0.
        edges, method = [], METHOD_MARGINALS if n else METHOD_UNIFORM
    else:
        cards = schema.cardinalities
        mi = mi_matrix(rows, cards)
        if config.structure == STRUCTURE_ARACNE:
            correction = (small_sample_correction(cards, n)
                          if config.mi_correction else None)
            edges = aracne_skeleton(mi, dpi_tolerance=config.dpi_tolerance,
                                    threshold_correction=correction)
        else:
            edges = chow_liu(mi)
        method = config.structure
    variables = tuple((s.name, s.cardinality) for s in schema.slots)
    bn = fit_cpts(orient(edges, variables), rows, alpha=config.alpha)
    return Submodel(key=tuple(schema.key), schema=schema, bn=bn,
                    n_train=n, method=method)


class _Part(NamedTuple):
    """One supermodel and the submodels beneath it.

    ``support`` lists the depth values the supermodel weighs; ``keys`` and
    ``schemas`` give the submodel key and slot layout of each value, and
    ``index`` maps every depth key to the support index it takes.
    """

    name: str
    support: tuple
    keys: tuple
    schemas: tuple[Schema, ...]
    index: dict


@lru_cache(maxsize=None)
def _parts(gc: GenotypeConfig) -> tuple[_Part, ...]:
    """The supermodels of ``gc``'s mode, in joint-vector column order.

    Joint mode has one supermodel over depth keys; per-network mode has one
    per role over that role's depths, the generator's first.  The table is
    cached per configuration and shared, so callers only read it.
    """
    depth_keys = gc.depth_keys()
    if gc.mode == MODE_JOINT:
        return (_Part("joint", depth_keys, tuple(map(tuple, depth_keys)),
                      tuple(joint_schema(gc, key) for key in depth_keys),
                      {key: i for i, key in enumerate(depth_keys)}),)
    parts = []
    for axis, role in enumerate(ROLES):
        depths = tuple(range(1, gc.depth_max(role) + 1))
        parts.append(_Part(
            role, depths, tuple((role, depth) for depth in depths),
            tuple(network_schema(gc, role, depth) for depth in depths),
            {key: key[axis] - 1 for key in depth_keys}))
    return tuple(parts)


@lru_cache(maxsize=None)
def _plans(gc: GenotypeConfig) -> dict[DepthKey, tuple]:
    """Per depth key, one ``(part, support index, joint columns)`` entry
    for each part."""
    plans = {}
    for key in gc.depth_keys():
        plan, start = [], 0
        for part in _parts(gc):
            index = part.index[key]
            stop = start + len(part.schemas[index])
            plan.append((part, index, slice(start, stop)))
            start = stop
        plans[key] = tuple(plan)
    return plans


class Metamodel:
    """Immutable two-level model; scoring and sampling are pure."""

    def __init__(self, learn_config: LearnConfig,
                 supermodels: dict[str, Categorical],
                 submodels: dict[tuple, Submodel],
                 provenance: dict | None = None):
        self.learn_config = learn_config
        self.config = learn_config.genotype
        self._parts = _parts(self.config)
        self._plans = _plans(self.config)
        self.supermodels = dict(supermodels)
        self.submodels = dict(submodels)
        self.provenance = dict(provenance or {})
        self._validate()
        # Each key's supermodel log mass, added in plan order.
        self._log_super = {}
        for key, plan in self._plans.items():
            log_super = 0.0
            for part, index, _ in plan:
                log_super += float(np.log(
                    self.supermodels[part.name].probs[index]))
            self._log_super[key] = log_super

    def __eq__(self, other) -> bool:
        if not isinstance(other, Metamodel):
            return NotImplemented
        return (self.learn_config == other.learn_config
                and self.supermodels == other.supermodels
                and self.submodels == other.submodels
                and self.provenance == other.provenance)

    def _validate(self) -> None:
        parts = self._parts
        names = [part.name for part in parts]
        if set(self.supermodels) != set(names):
            raise ValidationError(f"{self.config.mode} mode needs the "
                                  f"supermodels {', '.join(names)}")
        for part in parts:
            if self.supermodels[part.name].support != part.support:
                raise ValidationError(
                    f"supermodel {part.name!r} does not cover the "
                    f"configured depths in order")
        if set(self.submodels) != {key for part in parts for key in part.keys}:
            raise ValidationError("every supported key needs a submodel")

    # -- scoring -------------------------------------------------------------

    def _log_parts(self, key: DepthKey,
                   values: np.ndarray) -> tuple[float, np.ndarray]:
        """The supermodels' log mass of ``key`` and the submodels' log
        likelihood of each row of ``values``, each summed in plan order."""
        log_sub = 0.0
        for part, index, cols in self._plans[key]:
            log_sub += log_likelihood_many(
                self.submodels[part.keys[index]].bn, values[:, cols])
        return self._log_super[key], log_sub

    @property
    def n_depth_variables(self) -> int:
        return len(self._parts)

    def score_values(self, key: DepthKey,
                     values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log_prob, normalized) for a batch of joint rows at one key."""
        key, values = _batch(self.config, key, values)
        log_super, log_sub = self._log_parts(key, values)
        log_prob = log_super + log_sub
        return log_prob, log_prob / (self.n_depth_variables + values.shape[1])

    def _neighbor_scores(self, key: DepthKey, values: np.ndarray,
                         groups: list[tuple[DepthKey, np.ndarray]]
                         ) -> np.ndarray:
        """The normalized scores of ``groups``, the neighbourhood that
        ``search.neighbor_groups`` gives for ``(key, values)``, end to end:
        bit for bit ``score_values``' of each group, concatenated.

        The change group keeps the key and goes through ``score_values``.
        Every other group grows or shrinks one network, so in its rows a
        part whose submodel is the incumbent's holds the incumbent's
        slots.  That part is scored once per call, from the incumbent's
        row, and its ``(1,)`` term broadcasts.  The terms are added as
        ``_log_parts`` adds them, from 0.0 in plan order, and a row's log
        likelihood does not depend on its batch, so each row reads the
        float its own ``score_values`` would give.
        """
        values = np.asarray(values, dtype=np.int64)
        own_plan = self._plans[key]
        own_terms: dict[int, np.ndarray] = {}
        scores = []
        for group_key, rows in groups:
            if group_key == key:
                scores.append(self.score_values(group_key, rows)[1])
                continue
            log_sub = 0.0
            for at, (part, index, cols) in enumerate(self._plans[group_key]):
                bn = self.submodels[part.keys[index]].bn
                _, own_index, own_cols = own_plan[at]
                if index != own_index:
                    term = log_likelihood_many(bn, rows[:, cols])
                elif at in own_terms:
                    term = own_terms[at]
                else:
                    term = own_terms[at] = log_likelihood_many(
                        bn, values[None, own_cols])
                # Not +=: an in-place add cannot broadcast a (1,) sum.
                log_sub = log_sub + term
            log_prob = self._log_super[group_key] + log_sub
            scores.append(log_prob
                          / (self.n_depth_variables + rows.shape[1]))
        return np.concatenate(scores)

    def score_many(self, genotypes: Sequence[Genotype]) -> list[tuple]:
        """(log_prob, normalized) of each ``(key, row)`` pair, in order,
        with one ``score_values`` call per depth key."""
        return _per_key(genotypes, lambda key, rows: zip(
            *(a.tolist() for a in self.score_values(key, rows))))

    def score(self, gan: GanSpec) -> ScoreBreakdown:
        """Log probability of one genotype under the metamodel; bit for bit
        the row's ``score_values``."""
        key, values = flatten_joint(gan, self.config)
        log_super, log_sub = self._log_parts(
            key, np.array([values], dtype=np.int64))
        return ScoreBreakdown(log_super=log_super, log_sub=float(log_sub[0]),
                              depth_key=key,
                              n_variables=self.n_depth_variables + len(values))

    # -- sampling ------------------------------------------------------------

    def sample_genotypes(self, rng: np.random.Generator,
                         count: int) -> list[Genotype]:
        """Draw ``(key, row)`` pairs by ancestral sampling; deterministic
        given rng.

        Part by part, the supermodel draws every depth first, then each
        submodel samples the rows that drew its depth.
        """
        if count < 0:
            raise ValidationError("count must be >= 0")
        if count == 0:
            return []
        gc = self.config
        parts = self._parts
        picks, part_rows = [], []
        for part in parts:
            drawn = self.supermodels[part.name].sample_indices(rng, count)
            rows: list = [None] * count
            for index, key in enumerate(part.keys):
                where = np.flatnonzero(drawn == index)
                if where.size == 0:
                    continue
                sampled = pls_sample_many(self.submodels[key].bn, where.size,
                                          rng)
                for slot, row in zip(where, sampled.tolist()):
                    rows[slot] = row
            picks.append(drawn)
            part_rows.append(rows)
        # The depth key that each combination of part draws stands for.
        depth_keys = {tuple(part.index[key] for part in parts): key
                      for key in gc.depth_keys()}
        return [(depth_keys[tuple(int(drawn[i]) for drawn in picks)],
                 tuple(v for rows in part_rows for v in rows[i]))
                for i in range(count)]

    def sample_many(self, rng: np.random.Generator,
                    count: int) -> list[GanSpec]:
        """The trees of ``sample_genotypes``, from the same draws."""
        return [unflatten_joint(key, row, self.config)
                for key, row in self.sample_genotypes(rng, count)]

    def sample(self, rng: np.random.Generator) -> GanSpec:
        return self.sample_many(rng, 1)[0]

    # -- constructors ----------------------------------------------------------

    @classmethod
    def uniform(cls, learn_config: LearnConfig) -> "Metamodel":
        """Uninformative metamodel: every genotype gets the same score.

        Submodels are uniform at every depth key.  The depth prior is
        calibrated so the per-variable normalized score is one constant
        across all depths: a count-uniform prior would not be neutral
        here, because the supermodel term amortizes over more variables
        at deeper keys and would systematically favour them.
        """
        submodels: dict[tuple, Submodel] = {}
        parts: dict[str, tuple[tuple, np.ndarray, np.ndarray]] = {}
        for part in _parts(learn_config.genotype):
            for key, schema in zip(part.keys, part.schemas):
                submodels[key] = learn_submodel(
                    schema, np.empty((0, len(schema)), dtype=np.int64),
                    learn_config)
            parts[part.name] = (part.support, *_schema_volumes(part.schemas))
        return cls(learn_config=learn_config,
                   supermodels=_neutral_supermodels(parts),
                   submodels=submodels, provenance={"uniform": True})


def _schema_volumes(schemas: Sequence[Schema]) -> tuple[np.ndarray, np.ndarray]:
    """Per schema: supermodel-inclusive variable count and log volume."""
    counts = np.array([1 + len(schema) for schema in schemas], dtype=float)
    volumes = np.array([np.log(schema.cardinalities).sum()
                        for schema in schemas])
    return counts, volumes


def _neutral_supermodels(
        parts: dict[str, tuple[tuple, np.ndarray, np.ndarray]],
) -> dict[str, Categorical]:
    """Depth priors whose normalized score is constant across keys.

    Solves for the constant ``c`` with ``log p(key) = c * m + volume``
    summing to one jointly over all priors, so the normalized score of
    any genotype equals ``c`` exactly.
    """
    def gap(c: float) -> float:
        return float(sum(_logsumexp(c * m + s) for _, m, s in parts.values()))

    lo, hi = -2.0, 2.0
    while gap(lo) > 0:
        lo *= 2.0
    while gap(hi) < 0:
        hi *= 2.0
    c = _brent_root(gap, lo, hi, xtol=1e-14)
    out: dict[str, Categorical] = {}
    for name, (support, m, s) in parts.items():
        weights = c * m + s
        probs = np.exp(weights - _logsumexp(weights))
        out[name] = Categorical(support=support,
                                probs=tuple(probs / probs.sum()))
    return out


def _logsumexp(a: np.ndarray) -> np.float64:
    """``log(sum(exp(a)))`` for a finite ``a``, as scipy's ``logsumexp``
    computes it: the maxima are counted apart, and the rest are summed
    relative to them through ``log1p``."""
    top = a.max()
    at_top = a == top
    count = at_top.sum()
    rest = np.exp(np.where(at_top, -np.inf, a) - top).sum() / count
    return np.log1p(rest) + np.log(count) + top


def _brent_root(f, xpre: float, xcur: float, xtol: float) -> float:
    """A root of ``f`` between ``xpre`` and ``xcur``, where ``f`` changes
    sign, by Brent's method: a secant or inverse quadratic step where it
    is short enough, else bisection, until the bracket is narrower than
    ``xtol + 4 eps |x|``.  The steps are those of scipy's ``brentq``."""
    rtol = 4 * np.finfo(float).eps
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        short = abs(spre) > delta and abs(fcur) < abs(fpre)
        if short:
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise ValidationError("root search did not converge in 100 steps")


def learn(individuals: Sequence[Individual], config: LearnConfig,
          provenance: dict | None = None) -> Metamodel:
    """Learn the metamodel from an elite set.

    Individuals are grouped by depth key (joint mode) or each half by role
    and depth (per-network mode); the supermodel smooths the group counts
    with the configured pseudocount, so every supported depth stays
    reachable when sampling.  Their rows are read as they are, so every
    individual must carry the learn config's genotype config.
    """
    if not individuals:
        raise ValidationError("cannot learn from an empty set")
    gc = config.genotype
    parts, plans = _parts(gc), _plans(gc)
    rows_by_key: dict[tuple, list] = {key: [] for part in parts
                                      for key in part.keys}
    for ind in individuals:
        if ind.config != gc:
            raise ValidationError(
                "an individual's genotype config differs from the learn "
                "config's genotype config")
        for part, index, cols in plans[ind.key]:
            rows_by_key[part.keys[index]].append(ind.row[cols])
    supermodels: dict[str, Categorical] = {}
    submodels: dict[tuple, Submodel] = {}
    for part in parts:
        counts = [len(rows_by_key[key]) for key in part.keys]
        supermodels[part.name] = Categorical.from_counts(
            part.support, counts, config.super_pseudocount)
        for key, schema in zip(part.keys, part.schemas):
            rows = np.array(rows_by_key[key],
                            dtype=np.int64).reshape(-1, len(schema))
            submodels[key] = learn_submodel(schema, rows, config)
    meta = dict(provenance or {})
    meta.update({
        "n_individuals": len(individuals),
        "structure": config.structure,
        "fallback_keys": sorted(
            str(list(k)) for k, s in submodels.items()
            if s.method == METHOD_MARGINALS),
        "uniform_keys": sorted(
            str(list(k)) for k, s in submodels.items()
            if s.method == METHOD_UNIFORM),
        "genotype_fingerprint": gc.fingerprint(),
    })
    return Metamodel(learn_config=config, supermodels=supermodels,
                     submodels=submodels, provenance=meta)


# ---------------------------------------------------------------------------
# Persistence


def metamodel_to_json_obj(m: Metamodel) -> dict:
    supers = {}
    for name, cat in m.supermodels.items():
        keys = [list(k) if isinstance(k, tuple) else k for k in cat.support]
        supers[name] = {"keys": keys, "probs": list(cat.probs)}
    subs = []
    for key in sorted(m.submodels):
        sub = m.submodels[key]
        subs.append({"key": list(key), "n_train": sub.n_train,
                     "method": sub.method, "bn": bn_to_json_obj(sub.bn)})
    return {
        "format": MM_FORMAT,
        "learn": m.learn_config.to_json_obj(),
        "provenance": m.provenance,
        "supermodels": supers,
        "submodels": subs,
    }


def _json_key(key) -> str:
    """The JSON text of a supermodel support value or submodel key, for
    looking up a document's keys in the part table."""
    return json.dumps(list(key) if isinstance(key, tuple) else key)


def metamodel_from_json_obj(obj: dict) -> Metamodel:
    """Read an ``mm-v2`` document (or an ``mm-v1`` one, whose networks hold
    whole tables only).  Supermodel supports and submodel keys are read
    through the part table of the document's genotype configuration, so a
    depth or key the configuration lacks is rejected."""
    tag = obj.get("format") if isinstance(obj, dict) else None
    if tag not in (MM_FORMAT, MM_FORMAT_V1):
        raise FormatError(f"expected a {MM_FORMAT} or {MM_FORMAT_V1} "
                          f"document")
    try:
        try:
            learn_config = LearnConfig.from_json_obj(obj["learn"])
        except ValidationError as exc:
            raise type(exc)(f"learn: {exc}") from None
        parts = _parts(learn_config.genotype)
        names = [part.name for part in parts]
        if sorted(obj["supermodels"]) != sorted(names):
            raise FormatError(f"{learn_config.genotype.mode} mode needs the "
                              f"supermodels {', '.join(names)}")
        supermodels = {}
        for part in parts:
            doc = obj["supermodels"][part.name]
            if ([_json_key(k) for k in doc["keys"]]
                    != [_json_key(k) for k in part.support]):
                raise FormatError(f"supermodel {part.name!r} does not cover "
                                  f"the configured depths in order")
            supermodels[part.name] = Categorical(support=part.support,
                                                 probs=tuple(doc["probs"]))
        schemas = {_json_key(key): (key, schema) for part in parts
                   for key, schema in zip(part.keys, part.schemas)}
        submodels = {}
        for entry in obj["submodels"]:
            text = _json_key(entry["key"])
            if text not in schemas:
                raise FormatError(f"submodel key {text} is not a depth of "
                                  f"the configured genotype")
            key, schema = schemas[text]
            if key in submodels:
                raise FormatError(f"submodel key {text} appears twice")
            # The declared cardinalities size the tables: check them first.
            if bn_dag_from_json_obj(entry["bn"]).variables != tuple(
                    (s.name, s.cardinality) for s in schema.slots):
                raise ValidationError(
                    "submodel variables do not match the schema")
            submodels[key] = Submodel(
                key=key, schema=schema, bn=bn_from_json_obj(entry["bn"]),
                n_train=parse_field(entry, "n_train", integer,
                                    f"submodel {text}"),
                method=entry["method"])
        if not isinstance(obj["provenance"], dict):
            raise FormatError("provenance must be a JSON object")
        return Metamodel(learn_config=learn_config, supermodels=supermodels,
                         submodels=submodels, provenance=obj["provenance"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad {tag} document: {exc}") from exc


def save_metamodel(m: Metamodel, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        # One json.dumps call runs the C encoder; json.dump would stream
        # the same bytes through the pure-Python one, several times slower.
        handle.write(json.dumps(metamodel_to_json_obj(m), sort_keys=True)
                     + "\n")


def load_metamodel(path) -> Metamodel:
    """Read a model file; an error in its document names the file."""
    return read_json(path, metamodel_from_json_obj)


def provenance_mismatch(m: Metamodel, archive_hash: str | None,
                        genotype: GenotypeConfig) -> str | None:
    """Describe a provenance mismatch, or None when everything lines up."""
    problems = []
    recorded = m.provenance.get("archive_hash")
    if recorded is not None and recorded != archive_hash:
        problems.append("archive hash differs from the one learned from")
    recorded = m.provenance.get("genotype_fingerprint")
    if recorded is not None and recorded != genotype.fingerprint():
        problems.append("genotype configuration differs")
    return "; ".join(problems) or None
