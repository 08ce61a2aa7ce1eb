"""GAN genotype encoding: layer/network/GAN specs, discretization, flattening.

A GAN genotype is a pair of layered network specs (generator, discriminator)
plus one global train-frequency bin.  For model fitting the genotype is
flattened into a fixed-order vector of small categorical values whose layout
depends only on the depth key (generator depth, discriminator depth).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import groupby
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .errors import FormatError, ValidationError, parse_field

_T = TypeVar("_T")

GENOTYPE_SCHEMA_VERSION = "v1"

ROLE_GENERATOR = "generator"
ROLE_DISCRIMINATOR = "discriminator"
ROLES = (ROLE_GENERATOR, ROLE_DISCRIMINATOR)

DEFAULT_ACTIVATIONS = ("relu", "leaky_relu", "tanh", "sigmoid", "elu")
DEFAULT_WEIGHT_INITS = ("xavier", "normal", "uniform")
GENERATOR_KINDS = ("dense", "transposed_conv")
DISCRIMINATOR_KINDS = ("dense", "conv")

MODE_JOINT = "joint"
MODE_PER_NETWORK = "per_network"
MODES = (MODE_JOINT, MODE_PER_NETWORK)

# Layer attributes that ChangeLayer may rewrite; kind is add/delete-only.
MUTABLE_LAYER_ATTRS = ("activation", "weight_init", "size_bin")


class DepthKey(NamedTuple):
    """Depth of the two networks, the grouping key for submodels."""

    d_g: int
    d_d: int


class Slot(NamedTuple):
    """One categorical position in a flattened genotype.

    ``section`` is "global", "generator" or "discriminator"; ``layer`` is the
    layer index within its network (-1 for global slots); ``attr`` names the
    layer attribute the slot encodes.
    """

    name: str
    cardinality: int
    section: str
    layer: int
    attr: str


@dataclass(frozen=True)
class GenotypeConfig:
    """Vocabularies and depth bounds defining the genotype space.

    ``mode`` selects how genotypes are flattened for modeling: "joint" keeps
    one vector per GAN, "per_network" splits it into generator and
    discriminator halves (the global train-frequency slot travels with the
    generator half so the two halves partition the joint vector).
    """

    mode: str = MODE_JOINT
    arity: int = 5
    activations: tuple[str, ...] = DEFAULT_ACTIVATIONS
    weight_inits: tuple[str, ...] = DEFAULT_WEIGHT_INITS
    generator_kinds: tuple[str, ...] = GENERATOR_KINDS
    discriminator_kinds: tuple[str, ...] = DISCRIMINATOR_KINDS
    generator_depth_max: int = 3
    discriminator_depth_max: int = 4

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.arity < 1:
            raise ValidationError("arity must be >= 1")
        if self.generator_depth_max < 1 or self.discriminator_depth_max < 1:
            raise ValidationError("depth bounds must be >= 1")
        for vocab in (self.activations, self.weight_inits,
                      self.generator_kinds, self.discriminator_kinds):
            if len(vocab) == 0 or len(set(vocab)) != len(vocab):
                raise ValidationError("vocabularies must be non-empty and unique")

    @classmethod
    def joint(cls, **overrides) -> "GenotypeConfig":
        """Joint-mode default: one vector per GAN, depths up to 3/4."""
        params = dict(mode=MODE_JOINT, generator_depth_max=3,
                      discriminator_depth_max=4)
        params.update(overrides)
        return cls(**params)

    @classmethod
    def per_network(cls, **overrides) -> "GenotypeConfig":
        """Per-network default: split vectors, depths up to 6/6."""
        params = dict(mode=MODE_PER_NETWORK, generator_depth_max=6,
                      discriminator_depth_max=6)
        params.update(overrides)
        return cls(**params)

    def kinds(self, role: str) -> tuple[str, ...]:
        if role == ROLE_GENERATOR:
            return self.generator_kinds
        if role == ROLE_DISCRIMINATOR:
            return self.discriminator_kinds
        raise ValidationError(f"unknown role {role!r}")

    def depth_max(self, role: str) -> int:
        if role == ROLE_GENERATOR:
            return self.generator_depth_max
        if role == ROLE_DISCRIMINATOR:
            return self.discriminator_depth_max
        raise ValidationError(f"unknown role {role!r}")

    def depth_keys(self) -> tuple[DepthKey, ...]:
        """All supported depth keys, row-major in (d_g, d_d)."""
        return tuple(DepthKey(g, d)
                     for g in range(1, self.generator_depth_max + 1)
                     for d in range(1, self.discriminator_depth_max + 1))

    def to_json_obj(self) -> dict:
        return {
            "mode": self.mode,
            "arity": self.arity,
            "activations": list(self.activations),
            "weight_inits": list(self.weight_inits),
            "generator_kinds": list(self.generator_kinds),
            "discriminator_kinds": list(self.discriminator_kinds),
            "generator_depth_max": self.generator_depth_max,
            "discriminator_depth_max": self.discriminator_depth_max,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GenotypeConfig":
        what = "genotype config"
        try:
            return cls(
                mode=obj["mode"],
                arity=parse_field(obj, "arity", int, what),
                activations=tuple(obj["activations"]),
                weight_inits=tuple(obj["weight_inits"]),
                generator_kinds=tuple(obj["generator_kinds"]),
                discriminator_kinds=tuple(obj["discriminator_kinds"]),
                generator_depth_max=parse_field(obj, "generator_depth_max",
                                                int, what),
                discriminator_depth_max=parse_field(
                    obj, "discriminator_depth_max", int, what),
            )
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad {what}: {exc}") from exc

    def fingerprint(self) -> str:
        doc = json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(doc.encode()).hexdigest()


@dataclass(frozen=True)
class LayerSpec:
    """One layer: kind, activation, weight initializer and size bin."""

    kind: str
    activation: str
    weight_init: str
    size_bin: int

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "activation": self.activation,
                "weight_init": self.weight_init, "size_bin": self.size_bin}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LayerSpec":
        try:
            return cls(kind=obj["kind"], activation=obj["activation"],
                       weight_init=obj["weight_init"],
                       size_bin=int(obj["size_bin"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad layer record: {exc}") from exc


@dataclass(frozen=True)
class DnnSpec:
    """A layered network with a fixed role."""

    role: str
    layers: tuple[LayerSpec, ...]

    @property
    def depth(self) -> int:
        return len(self.layers)

    def to_json_obj(self) -> dict:
        return {"role": self.role,
                "layers": [layer.to_json_obj() for layer in self.layers]}

    @classmethod
    def from_json_obj(cls, obj: dict,
                      pool: LayerPool | None = None) -> "DnnSpec":
        make = LayerSpec.from_json_obj if pool is None else pool.layer
        try:
            layers = tuple(make(l) for l in obj["layers"])
            return cls(role=obj["role"], layers=layers)
        except (KeyError, TypeError) as exc:
            raise FormatError(f"bad network record: {exc}") from exc


class LayerPool:
    """Shares equal ``LayerSpec``s among the genotypes parsed in one load.

    A loaded archive repeats a few hundred distinct layers tens of thousands
    of times; parsing through a pool keeps one object per distinct layer.
    Only layers inside ``config``'s vocabulary enter the pool, keyed by
    their parsed fields, so it never holds more than the vocabulary's
    layers (225 for the joint default) whatever the input.  Any other layer
    is parsed afresh by ``LayerSpec.from_json_obj``, with its usual errors,
    and left for ``validate_gan`` to reject.
    """

    def __init__(self, config: GenotypeConfig) -> None:
        # Tuples, not sets: a parsed field may be an unhashable JSON list.
        self._kinds = config.generator_kinds + config.discriminator_kinds
        self._activations = config.activations
        self._weight_inits = config.weight_inits
        self._arity = config.arity
        self._layers: dict[tuple, LayerSpec] = {}

    def layer(self, obj: dict) -> LayerSpec:
        """The pooled layer equal to ``LayerSpec.from_json_obj(obj)``."""
        try:
            found = self._layers.get((obj["kind"], obj["activation"],
                                      obj["weight_init"], obj["size_bin"]))
        except (KeyError, TypeError):
            found = None
        # A raw key that only compares equal (size_bin 1.0 or true for 1)
        # finds the layer its fields parse to, so any hit is the right one.
        if found is not None:
            return found
        layer = LayerSpec.from_json_obj(obj)
        if (layer.kind in self._kinds and layer.activation in self._activations
                and layer.weight_init in self._weight_inits
                and 0 <= layer.size_bin < self._arity):
            key = (layer.kind, layer.activation, layer.weight_init,
                   layer.size_bin)
            return self._layers.setdefault(key, layer)
        return layer


@dataclass(frozen=True)
class GanSpec:
    """A full GAN genotype: two networks plus the global train-frequency bin."""

    generator: DnnSpec
    discriminator: DnnSpec
    train_freq_bin: int

    @property
    def depth_key(self) -> DepthKey:
        return DepthKey(self.generator.depth, self.discriminator.depth)

    def to_json_obj(self) -> dict:
        return {
            "schema": GENOTYPE_SCHEMA_VERSION,
            "train_freq_bin": self.train_freq_bin,
            "generator": self.generator.to_json_obj(),
            "discriminator": self.discriminator.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict,
                      pool: LayerPool | None = None) -> "GanSpec":
        version = obj.get("schema")
        if version != GENOTYPE_SCHEMA_VERSION:
            raise FormatError(f"unsupported genotype schema tag {version!r}")
        try:
            return cls(
                generator=DnnSpec.from_json_obj(obj["generator"], pool),
                discriminator=DnnSpec.from_json_obj(obj["discriminator"],
                                                    pool),
                train_freq_bin=int(obj["train_freq_bin"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad genotype record: {exc}") from exc

    @cached_property
    def _sha256(self) -> str:
        # The spec is frozen, so its hash is computed once per object.  The
        # value lives in the instance dict, outside the dataclass fields, so
        # equality, hash() and repr do not see it.
        return hashlib.sha256(canonical_json(self).encode()).hexdigest()


def canonical_json(gan: GanSpec) -> str:
    """Canonical single-line encoding used for hashing and tie-breaks."""
    return json.dumps(gan.to_json_obj(), sort_keys=True, separators=(",", ":"))


def gan_hash(gan: GanSpec) -> str:
    """sha256 of ``canonical_json(gan)``, computed once per object."""
    return gan._sha256


def sort_by_fitness(items: Iterable[_T],
                    key: Callable[[_T], tuple[GanSpec, float]] | None = None
                    ) -> list[_T]:
    """Items by ascending fitness, ties broken by the genotype hash.

    ``key`` maps an item to its ``(gan, fitness)`` pair; by default each
    item is that pair.  The result equals the stable
    ``sorted(items, key=lambda m: (fitness, gan_hash(gan)))``: a stable sort
    on fitness leaves every run of equal fitness in input order, and only
    those runs are re-sorted (stably) by hash, so a genotype is hashed only
    when another item has exactly its fitness.
    """
    pair = (lambda item: item) if key is None else key
    ranked = sorted(items, key=lambda item: pair(item)[1])
    result: list[_T] = []
    for _, run in groupby(ranked, key=lambda item: pair(item)[1]):
        run = list(run)
        if len(run) > 1:
            run.sort(key=lambda item: gan_hash(pair(item)[0]))
        result.extend(run)
    return result


def validate_gan(gan: GanSpec, config: GenotypeConfig) -> None:
    """Raise ValidationError unless ``gan`` lies inside the configured space."""
    for net in (gan.generator, gan.discriminator):
        if net.role not in ROLES:
            raise ValidationError(f"unknown role {net.role!r}")
        if not 1 <= net.depth <= config.depth_max(net.role):
            raise ValidationError(
                f"unsupported depth {net.depth} for {net.role} "
                f"(bounds 1..{config.depth_max(net.role)})")
        kinds = config.kinds(net.role)
        for i, layer in enumerate(net.layers):
            if layer.kind not in kinds:
                raise ValidationError(
                    f"layer kind {layer.kind!r} not legal for {net.role} "
                    f"(layer {i})")
            if layer.activation not in config.activations:
                raise ValidationError(f"unknown activation {layer.activation!r}")
            if layer.weight_init not in config.weight_inits:
                raise ValidationError(f"unknown weight_init {layer.weight_init!r}")
            if not 0 <= layer.size_bin < config.arity:
                raise ValidationError(
                    f"size_bin {layer.size_bin} outside [0, {config.arity})")
    if gan.generator.role != ROLE_GENERATOR:
        raise ValidationError("first network must have the generator role")
    if gan.discriminator.role != ROLE_DISCRIMINATOR:
        raise ValidationError("second network must have the discriminator role")
    if not 0 <= gan.train_freq_bin < config.arity:
        raise ValidationError(
            f"train_freq_bin {gan.train_freq_bin} outside [0, {config.arity})")


def _random_network(rng, config: GenotypeConfig, role: str,
                    depth: int) -> DnnSpec:
    kinds = config.kinds(role)
    layers = tuple(
        LayerSpec(kind=kinds[rng.integers(len(kinds))],
                  activation=config.activations[
                      rng.integers(len(config.activations))],
                  weight_init=config.weight_inits[
                      rng.integers(len(config.weight_inits))],
                  size_bin=int(rng.integers(config.arity)))
        for _ in range(depth))
    return DnnSpec(role=role, layers=layers)


def random_gan(rng, config: GenotypeConfig,
               depth_key: DepthKey | None = None) -> GanSpec:
    """Draw a genotype uniformly: a depth key first, then every slot.

    Args:
        rng: numpy Generator.
        config: the genotype space to draw from.
        depth_key: fix the architecture depths instead of drawing them.
    """
    if depth_key is None:
        keys = config.depth_keys()
        depth_key = keys[rng.integers(len(keys))]
    return GanSpec(
        generator=_random_network(rng, config, ROLE_GENERATOR, depth_key.d_g),
        discriminator=_random_network(rng, config, ROLE_DISCRIMINATOR,
                                      depth_key.d_d),
        train_freq_bin=int(rng.integers(config.arity)),
    )


# ---------------------------------------------------------------------------
# Discretization


@dataclass(frozen=True)
class DiscretizationScheme:
    """Ascending cut points for one continuous attribute.

    A value maps to the number of cut points strictly below it, so the bins
    are exhaustive over the real line with open-ended extremes.
    """

    cuts: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.cuts, self.cuts[1:])):
            raise ValidationError("cut points must be strictly ascending")

    @property
    def arity(self) -> int:
        return len(self.cuts) + 1


def fit_discretization(values: Sequence[float], k: int) -> DiscretizationScheme:
    """Fit equal-frequency cut points for ``k`` requested bins.

    Cut ``i`` is the midpoint between the order statistics around position
    ``floor(i * n / k)``, which keeps bin occupancies within one of each
    other.  Boundaries falling inside a run of duplicated values collapse,
    reducing the arity.

    Args:
        values: raw attribute observations, at least one.
        k: requested number of bins, >= 1.

    Returns:
        A DiscretizationScheme with at most ``k - 1`` cuts.
    """
    if len(values) == 0:
        raise ValidationError("cannot fit discretization on an empty sample")
    if k < 1:
        raise ValidationError("k must be >= 1")
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    cuts: list[float] = []
    for i in range(1, k):
        pos = (i * n) // k
        if pos < 1 or pos > n - 1:
            continue
        lo, hi = ordered[pos - 1], ordered[pos]
        if lo == hi:
            # Boundary inside a run of duplicates separates nothing.
            continue
        cut = (lo + hi) / 2.0
        if not cuts or cut > cuts[-1]:
            cuts.append(cut)
    return DiscretizationScheme(cuts=tuple(cuts))


def discretize(value: float, scheme: DiscretizationScheme) -> int:
    """Bin index of ``value``: the number of cuts strictly below it."""
    index = 0
    for cut in scheme.cuts:
        if cut < value:
            index += 1
        else:
            break
    return index


# ---------------------------------------------------------------------------
# Flattening


@dataclass(frozen=True)
class Schema:
    """Ordered slot layout for one depth key (or one network half)."""

    key: tuple
    slots: tuple[Slot, ...]

    def __len__(self) -> int:
        return len(self.slots)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(slot.cardinality for slot in self.slots)


@dataclass(frozen=True)
class AttributeVector:
    """A flattened genotype (or genotype half): values aligned to a schema."""

    depth_key: tuple
    values: tuple[int, ...]
    schema: Schema

    def __post_init__(self) -> None:
        if len(self.values) != len(self.schema):
            raise ValidationError("value count does not match schema")
        for value, slot in zip(self.values, self.schema.slots):
            if not 0 <= value < slot.cardinality:
                raise ValidationError(
                    f"value {value} outside cardinality of slot {slot.name}")


def _layer_slots(config: GenotypeConfig, role: str, depth: int) -> list[Slot]:
    prefix = "g" if role == ROLE_GENERATOR else "d"
    kinds = config.kinds(role)
    slots = []
    for i in range(depth):
        slots.append(Slot(f"{prefix}{i}.kind", len(kinds), role, i, "kind"))
        slots.append(Slot(f"{prefix}{i}.activation", len(config.activations),
                          role, i, "activation"))
        slots.append(Slot(f"{prefix}{i}.weight_init", len(config.weight_inits),
                          role, i, "weight_init"))
        slots.append(Slot(f"{prefix}{i}.size", config.arity, role, i,
                          "size_bin"))
    return slots


@lru_cache(maxsize=None)
def network_schema(config: GenotypeConfig, role: str, depth: int) -> Schema:
    """Schema of one network half; the generator half owns the global slots."""
    if not 1 <= depth <= config.depth_max(role):
        raise ValidationError(f"unsupported depth {depth} for {role}")
    slots: list[Slot] = []
    if role == ROLE_GENERATOR:
        slots.append(Slot("train_freq", config.arity, "global", -1, "train_freq"))
    slots.extend(_layer_slots(config, role, depth))
    return Schema(key=(role, depth), slots=tuple(slots))


@lru_cache(maxsize=None)
def joint_schema(config: GenotypeConfig, key: DepthKey) -> Schema:
    """Joint schema: global slots, then generator layers, then discriminator."""
    key = DepthKey(*key)
    gen = network_schema(config, ROLE_GENERATOR, key.d_g)
    disc = network_schema(config, ROLE_DISCRIMINATOR, key.d_d)
    return Schema(key=key, slots=gen.slots + disc.slots)


def _network_values(config: GenotypeConfig, net: DnnSpec) -> list[int]:
    kinds = config.kinds(net.role)
    values = []
    for layer in net.layers:
        values.append(kinds.index(layer.kind))
        values.append(config.activations.index(layer.activation))
        values.append(config.weight_inits.index(layer.weight_init))
        values.append(layer.size_bin)
    return values


def flatten_joint(gan: GanSpec, config: GenotypeConfig) -> AttributeVector:
    """Flatten a GAN into the joint vector for its depth key."""
    validate_gan(gan, config)
    key = gan.depth_key
    values = ([gan.train_freq_bin]
              + _network_values(config, gan.generator)
              + _network_values(config, gan.discriminator))
    return AttributeVector(depth_key=key, values=tuple(values),
                           schema=joint_schema(config, key))


def flatten(gan: GanSpec, config: GenotypeConfig):
    """Flatten per the configured mode.

    Joint mode returns one AttributeVector; per-network mode returns a
    (generator, discriminator) pair whose concatenation equals the joint
    vector.
    """
    joint = flatten_joint(gan, config)
    if config.mode == MODE_JOINT:
        return joint
    gen_schema = network_schema(config, ROLE_GENERATOR, gan.generator.depth)
    disc_schema = network_schema(config, ROLE_DISCRIMINATOR,
                                 gan.discriminator.depth)
    split = len(gen_schema)
    gen_av = AttributeVector(depth_key=gen_schema.key,
                             values=joint.values[:split], schema=gen_schema)
    disc_av = AttributeVector(depth_key=disc_schema.key,
                              values=joint.values[split:], schema=disc_schema)
    return gen_av, disc_av


def _layers_from_values(config: GenotypeConfig, role: str,
                        values: Sequence[int]) -> tuple[LayerSpec, ...]:
    kinds = config.kinds(role)
    layers = []
    for offset in range(0, len(values), 4):
        kind_i, act_i, init_i, size = values[offset:offset + 4]
        layers.append(LayerSpec(kind=kinds[kind_i],
                                activation=config.activations[act_i],
                                weight_init=config.weight_inits[init_i],
                                size_bin=int(size)))
    return tuple(layers)


def unflatten_joint(vector: AttributeVector, config: GenotypeConfig) -> GanSpec:
    """Inverse of flatten_joint."""
    key = DepthKey(*vector.depth_key)
    if joint_schema(config, key) != vector.schema:
        raise ValidationError("vector schema does not match the configuration")
    d_g = key.d_g
    values = vector.values
    gan = GanSpec(
        generator=DnnSpec(ROLE_GENERATOR,
                          _layers_from_values(config, ROLE_GENERATOR,
                                              values[1:1 + 4 * d_g])),
        discriminator=DnnSpec(ROLE_DISCRIMINATOR,
                              _layers_from_values(config, ROLE_DISCRIMINATOR,
                                                  values[1 + 4 * d_g:])),
        train_freq_bin=int(values[0]),
    )
    validate_gan(gan, config)
    return gan


def unflatten(vector_or_pair, config: GenotypeConfig) -> GanSpec:
    """Inverse of flatten for either mode."""
    if isinstance(vector_or_pair, AttributeVector):
        return unflatten_joint(vector_or_pair, config)
    gen_av, disc_av = vector_or_pair
    key = DepthKey(gen_av.depth_key[1], disc_av.depth_key[1])
    joint = AttributeVector(depth_key=key,
                            values=gen_av.values + disc_av.values,
                            schema=joint_schema(config, key))
    return unflatten_joint(joint, config)


# ---------------------------------------------------------------------------
# Serialization (line-delimited records, schema tag v1)


_SCHEMA_JSON = json.dumps(GENOTYPE_SCHEMA_VERSION)
_ROLE_JSON = {role: json.dumps(role) for role in ROLES}
_PLAIN_LAYER = (str, str, str, int)


def _value_json(value) -> str:
    """``json.dumps(value, sort_keys=True)``, without the call's overhead
    for an int or a finite float (``json`` writes any float, ``np.float64``
    included, with ``float.__repr__``)."""
    if type(value) is int:
        return repr(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, sort_keys=True)


def _network_json(net: DnnSpec, texts: dict) -> str:
    """``json.dumps(net.to_json_obj(), sort_keys=True)``; see ``_gan_json``.

    ``texts`` holds the text of plain layers only (three ``str`` fields and
    an ``int`` size bin) and is read only with an ``int`` size bin: equal
    ``str`` fields encode alike, while ``1``, ``1.0`` and ``True`` compare
    equal but encode differently.
    """
    parts = []
    for layer in net.layers:
        key = (layer.kind, layer.activation, layer.weight_init, layer.size_bin)
        text = None
        if type(key[3]) is int:
            try:
                text = texts.get(key)
            except TypeError:  # an unhashable field, such as a list
                pass
        if text is None:
            text = json.dumps(layer.to_json_obj(), sort_keys=True)
            if tuple(map(type, key)) == _PLAIN_LAYER:
                texts[key] = text
        parts.append(text)
    role = net.role
    role_text = _ROLE_JSON.get(role) if type(role) is str else None
    if role_text is None:
        role_text = _value_json(role)
    return f'{{"layers": [{", ".join(parts)}], "role": {role_text}}}'


def _gan_json(gan: GanSpec, texts: dict) -> str:
    """``json.dumps(gan.to_json_obj(), sort_keys=True)``, built from fragments.

    The keys are written in sorted order, and each layer's text is encoded
    once per distinct value into ``texts``, a cache the caller keeps for one
    encoding call (never per object or per module), so it holds at most the
    vocabulary's layers.
    """
    return (f'{{"discriminator": {_network_json(gan.discriminator, texts)}, '
            f'"generator": {_network_json(gan.generator, texts)}, '
            f'"schema": {_SCHEMA_JSON}, '
            f'"train_freq_bin": {_value_json(gan.train_freq_bin)}}}')


def dump_genotypes(gans: Iterable[GanSpec], path) -> None:
    """Write one ``json.dumps(gan.to_json_obj(), sort_keys=True)`` line per
    genotype."""
    texts: dict = {}
    with open(path, "w", encoding="utf-8") as handle:
        for gan in gans:
            handle.write(_gan_json(gan, texts) + "\n")


def load_genotypes(path) -> Iterator[GanSpec]:
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"line {lineno}: not valid JSON: {exc}") from exc
            yield GanSpec.from_json_obj(obj)
