"""GAN genotype encoding: layer/network/GAN specs and flattening.

A GAN genotype is a pair of layered network specs (generator, discriminator)
plus one global train-frequency bin.  For model fitting the genotype is
flattened into its depth key (generator depth, discriminator depth) and a
row: a fixed-order tuple of small categorical values whose layout depends
only on the depth key.

A genotype's text is written from its row through fixed text tables, and
text in exactly that form is read back through the same tables
(``_read_gan_text``); any other text is read as JSON, with the same
result and the same errors.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, astuple, dataclass
from functools import lru_cache
from itertools import groupby, product
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .errors import (FormatError, ValidationError, config_to_json, integer,
                     integers, open_text, parse_field, read_config,
                     read_json_line)

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


class DepthKey(NamedTuple):
    """Depth of the two networks, the grouping key for submodels."""

    d_g: int
    d_d: int


# The flat genotype form: a depth key and one value per slot of its schema.
Genotype = tuple[DepthKey, tuple[int, ...]]


@lru_cache(maxsize=None)
def _depth_key(d_g: int, d_d: int) -> DepthKey:
    """The one shared DepthKey of the depths ``(d_g, d_d)``, made when they
    are first read: one object per key read, not one per record."""
    return DepthKey(d_g, d_d)


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

    def __hash__(self) -> int:
        # Every lru_cache on the hot paths is keyed by a config: hash its
        # fields once, not on each lookup.  The cached value is not a
        # field, so ``config_to_json`` does not write it.
        try:
            return self._hash
        except AttributeError:
            value = hash(astuple(self))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        # A str's hash differs between processes: a copy hashes afresh.
        return asdict(self)

    to_json_obj = config_to_json
    from_json_obj = classmethod(read_config)

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


@dataclass(frozen=True)
class DnnSpec:
    """A layered network with a fixed role."""

    role: str
    layers: tuple[LayerSpec, ...]


@dataclass(frozen=True)
class GanSpec:
    """A full GAN genotype: two networks plus the global train-frequency bin."""

    generator: DnnSpec
    discriminator: DnnSpec
    train_freq_bin: int


def gan_hash(key: DepthKey, row: Sequence[int],
             config: GenotypeConfig) -> str:
    """A genotype's identity: the sha256 of its canonical JSON, the
    compact, sorted-key ``json.dumps`` of its record, written from the
    row."""
    text = _gan_text(key, tuple(row), _text_tables(config, True), ({}, {}))
    return hashlib.sha256(text.encode()).hexdigest()


def sort_by_fitness(items: Iterable[_T], fitness: Callable[[_T], float],
                    digest: Callable[[_T], str]) -> list[_T]:
    """Items by ascending fitness, ties broken by the genotype hash.

    ``fitness`` and ``digest`` map an item to its fitness and to its
    genotype's ``gan_hash``.  The result equals the stable
    ``sorted(items, key=lambda m: (fitness(m), digest(m)))``: a stable sort
    on fitness leaves every run of equal fitness in input order, and only
    those runs are re-sorted (stably) by hash, so ``digest`` is called only
    for an item that another item ties on fitness.
    """
    ranked = sorted(items, key=fitness)
    result: list[_T] = []
    for _, run in groupby(ranked, key=fitness):
        run = list(run)
        if len(run) > 1:
            run.sort(key=digest)
        result.extend(run)
    return result


def _per_key(genotypes: Sequence[Genotype],
             batch: Callable[[DepthKey, np.ndarray], Iterable[_T]]
             ) -> list[_T]:
    """``batch(key, rows)`` once per depth key of ``genotypes``, in the
    order the keys first appear, with ``rows`` the array of that key's rows
    (uncast: ``batch`` checks them); its results, one per row, in order."""
    by_key: dict[DepthKey, list[int]] = {}
    for index, (key, _) in enumerate(genotypes):
        by_key.setdefault(key, []).append(index)
    out: list = [None] * len(genotypes)
    for key, indices in by_key.items():
        rows = np.array([genotypes[i][1] for i in indices])
        for i, result in zip(indices, batch(key, rows)):
            out[i] = result
    return out


# ---------------------------------------------------------------------------
# Row layout and layer tables: the vocabulary's layers, listed once

_LAYER_KEYS = ("kind", "activation", "weight_init", "size_bin")
_LAYER_FIELDS = attrgetter(*_LAYER_KEYS)
# A row is the train bin, then each generator layer's values, then each
# discriminator layer's: one value per layer field.
_LAYER_WIDTH = len(_LAYER_KEYS)


def _layer_start(key, role: str) -> int:
    """The column of ``role``'s first layer in a row of depth key ``key``."""
    return 1 if role == ROLE_GENERATOR else 1 + _LAYER_WIDTH * key[0]


def _layer_radix(config: GenotypeConfig, role: str) -> tuple[int, int, int, int]:
    """Cardinalities of a layer's (kind, activation, weight_init, size_bin)
    indices; a layer's code is its indices read in this mixed radix."""
    return (len(config.kinds(role)), len(config.activations),
            len(config.weight_inits), config.arity)


class _Layers(NamedTuple):
    """The layers a role may hold, in code order: each one's row values by
    its fields, its ``LayerSpec`` by its row values (one object for a layer
    both roles may hold), and the row values of code c as row c of the
    read-only ``blocks`` and as item c of ``rows`` (the tuples ``values``
    holds)."""

    values: dict[tuple, tuple[int, ...]]
    specs: dict[tuple[int, ...], LayerSpec]
    blocks: np.ndarray
    rows: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _layers(config: GenotypeConfig, role: str) -> _Layers:
    """``role``'s layers in ``config``, codes in lexicographic index order."""
    values = dict(zip(product(config.kinds(role), config.activations,
                              config.weight_inits, range(config.arity)),
                      product(*map(range, _layer_radix(config, role)))))
    shared = {} if role == ROLE_GENERATOR else {
        _LAYER_FIELDS(spec): spec
        for spec in _layers(config, ROLE_GENERATOR).specs.values()}
    rows = tuple(values.values())
    blocks = np.array(rows, dtype=np.int64)
    blocks.flags.writeable = False
    return _Layers(values=values, blocks=blocks, rows=rows, specs={
        row: shared.get(fields) or LayerSpec(*fields)
        for fields, row in values.items()})


def random_genotype(rng, config: GenotypeConfig,
                    depth_key: DepthKey | None = None) -> Genotype:
    """The ``(key, row)`` of a uniform draw from ``config``'s space, made
    with numpy Generator ``rng``: the key's index (unless ``depth_key``
    fixes the depths), each generator layer's four values in slot order,
    then each discriminator layer's, then the train bin."""
    if depth_key is None:
        keys = config.depth_keys()
        depth_key = keys[rng.integers(len(keys))]
    layers = [int(rng.integers(card))
              for role, depth in zip(ROLES, depth_key)
              for _ in range(depth)
              for card in _layer_radix(config, role)]
    return DepthKey(*depth_key), (int(rng.integers(config.arity)), *layers)


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


def _layer_slots(config: GenotypeConfig, role: str, depth: int) -> list[Slot]:
    prefix = "g" if role == ROLE_GENERATOR else "d"
    return [Slot(f"{prefix}{i}.{attr.removesuffix('_bin')}", card, role, i,
                 attr)
            for i in range(depth)
            for attr, card in zip(_LAYER_KEYS, _layer_radix(config, role))]


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


@lru_cache(maxsize=None)
def _slot_bounds(config: GenotypeConfig, key: DepthKey) -> np.ndarray:
    return np.array(joint_schema(config, key).cardinalities, dtype=np.uint64)


@lru_cache(maxsize=None)
def _change_moves(config: GenotypeConfig,
                  key: DepthKey) -> tuple[np.ndarray, np.ndarray]:
    """Every value of every slot a change move may set at ``key``, as the
    slots' columns and the values, slots in schema order and values
    ascending.  A layer's kind is fixed at creation, so its slot is left
    out.  The arrays are cached and shared, so callers only read them."""
    slots = [(j, slot.cardinality)
             for j, slot in enumerate(joint_schema(config, key).slots)
             if slot.attr != "kind"]
    cols = np.repeat([j for j, _ in slots], [card for _, card in slots])
    new = np.concatenate([np.arange(card) for _, card in slots])
    cols.flags.writeable = new.flags.writeable = False
    return cols, new


class _Move(NamedTuple):
    """One role a mutation move may act on at a depth key: the role's
    depth, the column of its first layer, its ``_layer_radix``, the depth
    key after the move, the role and, for an add, its ``_layers`` rows."""

    depth: int
    start: int
    radix: tuple[int, int, int, int]
    key: DepthKey
    role: str
    blocks: tuple[tuple[int, ...], ...] = ()


@lru_cache(maxsize=None)
def _mutation_moves(config: GenotypeConfig,
                    key: DepthKey) -> tuple[tuple[str, tuple[_Move, ...]],
                                            ...]:
    """The move kinds a mutation may draw at ``key``, in draw order, each
    with the roles it may act on, generator first: change (either role),
    train_freq, then add (roles below their depth bound) and delete (roles
    deeper than one layer) where some role allows them.  train_freq acts
    on the train bin, not on a role: its one entry only keeps the key.
    The tables are cached and shared, and hold only tuples, ints and strs."""
    key = DepthKey(*key)

    def moves(grow: int) -> tuple[_Move, ...]:
        return tuple(
            _Move(depth, _layer_start(key, role), _layer_radix(config, role),
                  DepthKey(key.d_g + grow, key.d_d) if role == ROLE_GENERATOR
                  else DepthKey(key.d_g, key.d_d + grow), role,
                  _layers(config, role).rows if grow > 0 else ())
            for role, depth in zip(ROLES, key)
            if not grow or 1 <= depth + grow <= config.depth_max(role))

    kinds = (("change", moves(0)), ("train_freq", moves(0)[:1]),
             ("add", moves(1)), ("delete", moves(-1)))
    return tuple((kind, roles) for kind, roles in kinds if roles)


def _batch(config: GenotypeConfig, key, values) -> tuple[DepthKey, np.ndarray]:
    """``key`` as a DepthKey and ``values`` as int64 rows of its joint
    schema in ``config``, or the ValidationError of the first fault: the
    key, the shape, a non-integer value, then a value outside its slot."""
    key = DepthKey(*key)
    bounds = _slot_bounds(config, key)
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[1] != len(bounds):
        raise ValidationError(f"rows of shape {values.shape} do not hold the "
                              f"{len(bounds)} slots of depth key {tuple(key)}")
    rows = integers(values, lambda column:
                    f"slot {joint_schema(config, key).slots[column].name}")
    # A negative value viewed as uint64 is huge: one test checks both ends.
    bad = rows.view(np.uint64) >= bounds
    if np.count_nonzero(bad):  # cheaper than bad.any() on a few rows
        row, column = np.argwhere(bad)[0]
        slot = joint_schema(config, key).slots[column]
        raise ValidationError(f"value {values[row, column]} outside "
                              f"cardinality of slot {slot.name}")
    return key, rows


def _value_tables(config: GenotypeConfig) -> tuple[dict, dict]:
    """Each role's ``_layers(config, role).values``, generator first."""
    return (_layers(config, ROLE_GENERATOR).values,
            _layers(config, ROLE_DISCRIMINATOR).values)


def flatten_joint(gan: GanSpec, config: GenotypeConfig) -> Genotype:
    """The depth key of ``gan`` and its row: one value per slot of the
    key's joint schema.  A genotype outside ``config``'s space raises a
    ValidationError."""
    nets = tuple((net.role, list(map(_LAYER_FIELDS, net.layers)))
                 for net in (gan.generator, gan.discriminator))
    return _flatten_fields(nets, gan.train_freq_bin, config,
                           _value_tables(config))


def _flatten_fields(nets, train, config: GenotypeConfig, tables) -> Genotype:
    """The key and row of a genotype given as ``nets``, ``((role, layers),
    (role, layers))`` with each layer its fields, and its train bin, for
    ``tables = _value_tables(config)``: one lookup per layer, and only on
    a miss the checks of ``_space_error``, whose fault is raised."""
    (g_role, g_layers), (d_role, d_layers) = nets
    if (g_role == ROLE_GENERATOR and d_role == ROLE_DISCRIMINATOR
            and 0 < len(g_layers) <= config.generator_depth_max
            and 0 < len(d_layers) <= config.discriminator_depth_max
            and train in range(config.arity)):
        g_table, d_table = tables
        values = [train]
        try:
            for fields in g_layers:
                values += g_table[fields]
            for fields in d_layers:
                values += d_table[fields]
            return _depth_key(len(g_layers), len(d_layers)), tuple(values)
        except (KeyError, TypeError):  # a layer outside the vocabulary
            pass
    raise _space_error(nets, train, config)


def _space_error(nets, train, config: GenotypeConfig) -> ValidationError:
    """The first fault that puts a genotype's fields outside ``config``'s
    space: each network's role, depth and layers, generator first, then
    the roles' order, then the train bin."""
    for role, layers in nets:
        if role not in ROLES:
            return ValidationError(f"unknown role {role!r}")
        bound = config.depth_max(role)
        if not 1 <= len(layers) <= bound:
            return ValidationError(f"unsupported depth {len(layers)} for "
                                   f"{role} (bounds 1..{bound})")
        kinds = config.kinds(role)
        for i, (kind, activation, weight_init, size_bin) in enumerate(layers):
            if kind not in kinds:
                return ValidationError(
                    f"layer kind {kind!r} not legal for {role} (layer {i})")
            if activation not in config.activations:
                return ValidationError(f"unknown activation {activation!r}")
            if weight_init not in config.weight_inits:
                return ValidationError(f"unknown weight_init {weight_init!r}")
            if size_bin not in range(config.arity):
                return ValidationError(
                    f"size_bin {size_bin} outside [0, {config.arity})")
    for (role, _), want, nth in zip(nets, ROLES, ("first", "second")):
        if role != want:
            return ValidationError(f"{nth} network must have the {want} role")
    if train not in range(config.arity):
        return ValidationError(
            f"train_freq_bin {train} outside [0, {config.arity})")
    return ValidationError("layer fields outside the layer tables")


def _networks(key: DepthKey, row: tuple[int, ...],
              config: GenotypeConfig) -> Iterator[tuple[str, tuple]]:
    """Each network of ``(key, row)``, a genotype of ``config``'s space,
    generator first: its role and its layers, ``_layers``' specs."""
    for role, depth in zip(ROLES, key):
        specs, start = _layers(config, role).specs, _layer_start(key, role)
        yield role, tuple(specs[row[c:c + _LAYER_WIDTH]] for c in range(
            start, start + _LAYER_WIDTH * depth, _LAYER_WIDTH))


def unflatten_joint(key: DepthKey, values: Sequence[int],
                    config: GenotypeConfig) -> GanSpec:
    """Inverse of flatten_joint: the genotype whose row at ``key`` is
    ``values`` (a sequence of ints or a 1-D integer array)."""
    key, rows = _batch(config, key, [values])
    row = tuple(rows[0].tolist())
    nets = [DnnSpec(*net) for net in _networks(key, row, config)]
    return GanSpec(*nets, train_freq_bin=row[0])


# ---------------------------------------------------------------------------
# Serialization (line-delimited records, schema tag v1)


class _Texts(NamedTuple):
    """The fragments of a genotype's sorted-key JSON text, written with one
    pair of separators: for each role, generator first, every layer's
    text keyed by the layer's four row values, and the text around the
    layers; and the text around the two networks and the train bin."""

    item: str
    layers: tuple[dict[tuple[int, ...], str], dict[tuple[int, ...], str]]
    around_layers: tuple[tuple[str, str], tuple[str, str]]
    around_networks: tuple[str, str, str]


@lru_cache(maxsize=None)
def _text_tables(config: GenotypeConfig, compact: bool) -> _Texts:
    """The text fragments of ``config``'s genotypes, written with
    ``json.dumps``'s default separators or, if ``compact``, with
    ``(",", ":")``.  The layer tables hold only the vocabulary's layers."""
    item, colon = separators = (",", ":") if compact else (", ", ": ")
    return _Texts(
        item=item,
        layers=tuple(
            {values: json.dumps(dict(zip(_LAYER_KEYS, fields)),
                                sort_keys=True, separators=separators)
             for fields, values in _layers(config, role).values.items()}
            for role in ROLES),
        around_layers=tuple((f'{{"layers"{colon}[',
                             f']{item}"role"{colon}{json.dumps(role)}}}')
                            for role in ROLES),
        around_networks=(
            f'{{"discriminator"{colon}', f'{item}"generator"{colon}',
            f'{item}"schema"{colon}{json.dumps(GENOTYPE_SCHEMA_VERSION)}'
            f'{item}"train_freq_bin"{colon}'))


def _gan_text(key: DepthKey, row: tuple[int, ...], texts: _Texts,
              networks: tuple[dict, dict]) -> str:
    """The sorted-key ``json.dumps`` text of the record of ``(key, row)``
    with the separators of ``texts = _text_tables(config, compact)``,
    written from the row's layer texts; no tree is built.

    ``networks`` is a pair of caches (generator, discriminator), kept by
    the caller for one encoding call over one config's texts, of each
    distinct network's text by its values.
    """
    item, layers, around, (before, between, after) = texts
    split = _layer_start(key, ROLE_DISCRIMINATOR)
    gen, disc = row[1:split], row[split:]
    gen_text = networks[0].get(gen)
    if gen_text is None:
        gen_text = networks[0][gen] = _network_text(gen, layers[0],
                                                    around[0], item)
    disc_text = networks[1].get(disc)
    if disc_text is None:
        disc_text = networks[1][disc] = _network_text(disc, layers[1],
                                                      around[1], item)
    return f"{before}{disc_text}{between}{gen_text}{after}{row[0]}}}"


def _network_text(values: tuple[int, ...], layers: dict,
                  around: tuple[str, str], item: str) -> str:
    return around[0] + item.join([
        layers[values[i:i + _LAYER_WIDTH]]
        for i in range(0, len(values), _LAYER_WIDTH)]) + around[1]


class _Reader(NamedTuple):
    """The inverse of ``_gan_text`` with default separators: the text
    before the discriminator's layers, between the networks' layers and
    after the generator's, each with the braces of the layer next to it;
    the separator of two layers; per role, generator first, each layer's
    four row values keyed by its text without braces; the train bins by
    their text; and the depth bounds, generator first."""

    head: str
    middle: str
    tail: str
    separator: str
    layers: tuple[dict[str, tuple[int, ...]], dict[str, tuple[int, ...]]]
    bins: dict[str, int]
    depth_max: tuple[int, int]


@lru_cache(maxsize=None)
def _gan_reader(config: GenotypeConfig) -> _Reader:
    """The reader of ``config``'s genotype texts, built from the writer's
    text tables, ``_text_tables(config, False)``."""
    item, layers, around, (before, between, after) = _text_tables(config,
                                                                  False)
    (g_open, g_close), (d_open, d_close) = around
    return _Reader(
        head=before + d_open + "{",
        middle="}" + d_close + between + g_open + "{",
        tail="}" + g_close + after,
        separator="}" + item + "{",
        layers=tuple({text[1:-1]: values for values, text in table.items()}
                     for table in layers),
        bins={str(i): i for i in range(config.arity)},
        depth_max=(config.generator_depth_max,
                   config.discriminator_depth_max))


def _read_gan_text(text: str, reader: _Reader) -> Genotype | None:
    """The ``(key, row)`` whose ``_gan_text`` with default separators is
    exactly ``text``, for ``reader = _gan_reader(config)``; None if
    ``text`` is not that text for any genotype of ``config``'s space.

    ``text`` is cut at the first occurrence of each fixed fragment, and
    each cut piece must be a text of the writer's tables: so whenever a
    genotype is returned, its text is ``text``, and ``json.loads(text)``
    is its record.  Any other text is for the JSON reader to judge.
    """
    head, middle, tail, separator, (g_table, d_table), bins, bounds = reader
    mid = text.find(middle, len(head))
    end = text.find(tail, mid + len(middle))
    train = bins.get(text[end + len(tail):-1])
    if (mid < 0 or end < 0 or train is None or not text.endswith("}")
            or not text.startswith(head)):
        return None
    disc = text[len(head):mid].split(separator)
    gen = text[mid + len(middle):end].split(separator)
    # Each network holds at least one piece, so only the bounds can fail.
    if len(gen) > bounds[0] or len(disc) > bounds[1]:
        return None
    try:
        values = [train]
        for layer in gen:
            values += g_table[layer]
        for layer in disc:
            values += d_table[layer]
    except KeyError:
        return None
    return _depth_key(len(gen), len(disc)), tuple(values)


def parse_genotype(obj, config: GenotypeConfig) -> Genotype:
    """The depth key and row of a genotype record (a ``json.loads``
    result), the inverse of the row writer.  A record of the wrong shape
    raises a FormatError, and a genotype outside ``config``'s space a
    ValidationError, each naming its first fault."""
    return _flatten_fields(*_record_fields(obj), config, _value_tables(config))


def _record_fields(obj) -> tuple[tuple, int]:
    """The ``(nets, train)`` of a genotype record, as ``_flatten_fields``
    takes them, with int bins (an integral float such as ``1.0`` is read);
    a record of the wrong shape raises the FormatError of its first fault."""
    if not isinstance(obj, dict):
        raise FormatError(f"genotype record must be a JSON object, "
                          f"not {type(obj).__name__}")
    version = obj.get("schema")
    if version != GENOTYPE_SCHEMA_VERSION:
        raise FormatError(f"unsupported genotype schema tag {version!r}")
    try:
        return ((_network_fields(obj["generator"]),
                 _network_fields(obj["discriminator"])),
                _bin(obj, "train_freq_bin", "genotype record"))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad genotype record: {exc}") from exc


def _network_fields(obj) -> tuple:
    try:
        layers = [_layer_fields(layer) for layer in obj["layers"]]
        return obj["role"], layers
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad network record: {exc}") from exc


def _layer_fields(obj) -> tuple:
    try:
        return (obj["kind"], obj["activation"], obj["weight_init"],
                _bin(obj, "size_bin", "layer record"))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad layer record: {exc}") from exc


def _bin(obj: dict, name: str, what: str) -> int:
    """``obj[name]`` if it is an int, else parsed as one."""
    value = obj[name]
    return value if type(value) is int else parse_field(obj, name, integer,
                                                        what)


def dump_genotypes(genotypes: Iterable[Genotype], config: GenotypeConfig,
                   path) -> None:
    """Write each ``(key, row)`` pair of ``config``'s space as one line, its
    record's ``json.dumps`` with ``sort_keys``, written from the row."""
    texts, networks = _text_tables(config, False), ({}, {})
    with open(path, "w", encoding="utf-8") as handle:
        for key, row in genotypes:
            handle.write(_gan_text(key, tuple(row), texts, networks) + "\n")


def load_genotypes(path, config: GenotypeConfig) -> Iterator[Genotype]:
    """The ``parse_genotype`` of each non-blank line; a bad line raises a
    FormatError, or a ValidationError if its genotype lies outside
    ``config``'s space, naming the file and the line.

    A line in the form ``dump_genotypes`` writes is read straight from
    its text (``_read_gan_text``), and any other line through JSON; the
    genotypes and errors are the same either way.
    """
    reader = _gan_reader(config)
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            genotype = _read_gan_text(line, reader)
            if genotype is None:
                try:
                    genotype = parse_genotype(read_json_line(line), config)
                except ValidationError as exc:
                    raise type(exc)(f"{path}: line {lineno}: {exc}") from exc
            yield genotype
