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
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, product
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .errors import (FormatError, ValidationError, config_to_json, integer,
                     open_text, parse_field, read_config, read_json_line)

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
    order the keys first appear, with ``rows`` the int64 matrix of that
    key's rows; its results, one per row, in the order of ``genotypes``."""
    by_key: dict[DepthKey, list[int]] = {}
    for index, (key, _) in enumerate(genotypes):
        by_key.setdefault(key, []).append(index)
    out: list = [None] * len(genotypes)
    for key, indices in by_key.items():
        rows = np.array([genotypes[i][1] for i in indices], dtype=np.int64)
        for i, result in zip(indices, batch(key, rows)):
            out[i] = result
    return out


# ---------------------------------------------------------------------------
# Layer table: the vocabulary's layers, listed once


def _layer_radix(config: GenotypeConfig, role: str) -> tuple[int, int, int, int]:
    """Cardinalities of a layer's (kind, activation, weight_init, size_bin)
    indices; a layer's code is its indices read in this mixed radix."""
    return (len(config.kinds(role)), len(config.activations),
            len(config.weight_inits), config.arity)


@lru_cache(maxsize=None)
def _layer_table(config: GenotypeConfig,
                 role: str) -> tuple[LayerSpec, ...]:
    """The layers ``role`` may hold, indexed by layer code; unflattened
    genotypes take their layers from here, and a layer both roles may hold
    is one object."""
    shared = {} if role == ROLE_GENERATOR else dict(zip(
        _layer_values(config)[ROLE_GENERATOR],
        _layer_table(config, ROLE_GENERATOR)))
    return tuple(shared.get(fields) or LayerSpec(*fields)
                 for fields in _layer_values(config)[role])


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


@lru_cache(maxsize=None)
def _slot_bounds(config: GenotypeConfig, key: DepthKey) -> np.ndarray:
    return np.array(joint_schema(config, key).cardinalities, dtype=np.uint64)


def _batch(config: GenotypeConfig, key, values) -> tuple[DepthKey, np.ndarray]:
    """``key`` as a DepthKey and ``values`` as int64 rows of its joint
    schema in ``config``, or the ValidationError of the first fault: the
    key, the shape, or the first value (in row order) outside its slot."""
    key = DepthKey(*key)
    bounds = _slot_bounds(config, key)
    values = np.asarray(values, dtype=np.int64)
    if values.ndim != 2 or values.shape[1] != len(bounds):
        raise ValidationError(f"rows of shape {values.shape} do not hold the "
                              f"{len(bounds)} slots of depth key {tuple(key)}")
    # A negative value viewed as uint64 is huge: one test checks both ends.
    bad = values.view(np.uint64) >= bounds
    if np.count_nonzero(bad):  # cheaper than bad.any() on a few rows
        row, column = np.argwhere(bad)[0]
        slot = joint_schema(config, key).slots[column]
        raise ValidationError(f"value {values[row, column]} outside "
                              f"cardinality of slot {slot.name}")
    return key, values


_LAYER_KEYS = ("kind", "activation", "weight_init", "size_bin")
_LAYER_FIELDS = attrgetter(*_LAYER_KEYS)


@lru_cache(maxsize=None)
def _layer_values(config: GenotypeConfig) -> dict[str, dict[tuple, tuple]]:
    """Per role, the four row values of each layer the role may hold,
    keyed by the layer's fields (kind, activation, weight_init,
    size_bin)."""
    return {role: dict(zip(product(config.kinds(role), config.activations,
                                   config.weight_inits, range(config.arity)),
                           product(*map(range, _layer_radix(config, role)))))
            for role in ROLES}


def flatten_joint(gan: GanSpec, config: GenotypeConfig) -> Genotype:
    """The depth key of ``gan`` and its row: one value per slot of the
    key's joint schema.  A genotype outside ``config``'s space raises a
    ValidationError."""
    nets = tuple((net.role, list(map(_LAYER_FIELDS, net.layers)))
                 for net in (gan.generator, gan.discriminator))
    return _flatten_fields(nets, gan.train_freq_bin, config,
                           _layer_values(config))


def _flatten_fields(nets, train, config: GenotypeConfig, tables) -> Genotype:
    """The key and row of a genotype given as ``nets``, ``((role, layers),
    (role, layers))`` with each layer its fields, and its train bin, for
    ``tables = _layer_values(config)``: one lookup per layer, and only on
    a miss the checks of ``_space_error``, whose fault is raised."""
    (g_role, g_layers), (d_role, d_layers) = nets
    if (g_role == ROLE_GENERATOR and d_role == ROLE_DISCRIMINATOR
            and 0 < len(g_layers) <= config.generator_depth_max
            and 0 < len(d_layers) <= config.discriminator_depth_max
            and train in range(config.arity)):
        g_table, d_table = tables[ROLE_GENERATOR], tables[ROLE_DISCRIMINATOR]
        values = [train]
        try:
            for fields in g_layers:
                values += g_table[fields]
            for fields in d_layers:
                values += d_table[fields]
            return DepthKey(len(g_layers), len(d_layers)), tuple(values)
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


def _layers_from_values(config: GenotypeConfig, role: str,
                        values: Sequence[int]) -> tuple[LayerSpec, ...]:
    table = _layer_table(config, role)
    _, n_act, n_init, arity = _layer_radix(config, role)
    return tuple(table[((values[offset] * n_act + values[offset + 1]) * n_init
                        + values[offset + 2]) * arity + values[offset + 3]]
                 for offset in range(0, len(values), 4))


def unflatten_joint(key: DepthKey, values: Sequence[int],
                    config: GenotypeConfig) -> GanSpec:
    """Inverse of flatten_joint: the genotype whose row at ``key`` is
    ``values`` (a sequence of ints or a 1-D integer array)."""
    key, rows = _batch(config, key, [values])
    values = rows[0].tolist()
    split = 1 + 4 * key.d_g
    return GanSpec(
        generator=DnnSpec(ROLE_GENERATOR, _layers_from_values(
            config, ROLE_GENERATOR, values[1:split])),
        discriminator=DnnSpec(ROLE_DISCRIMINATOR, _layers_from_values(
            config, ROLE_DISCRIMINATOR, values[split:])),
        train_freq_bin=values[0],
    )


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
             for fields, values in _layer_values(config)[role].items()}
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
    split = 1 + 4 * key[0]
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
    return around[0] + item.join([layers[values[i:i + 4]] for i in
                                  range(0, len(values), 4)]) + around[1]


class _Reader(NamedTuple):
    """The inverse of ``_gan_text`` with default separators: the text
    before the discriminator's layers, between the networks' layers and
    after the generator's, each with the braces of the layer next to it;
    the separator of two layers; per role, generator first, each layer's
    four row values keyed by its text without braces; the train bins by
    their text; and the depth keys, indexed by depths."""

    head: str
    middle: str
    tail: str
    separator: str
    layers: tuple[dict[str, tuple[int, ...]], dict[str, tuple[int, ...]]]
    bins: dict[str, int]
    keys: tuple[tuple[DepthKey | None, ...], ...]


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
        keys=tuple(tuple(DepthKey(g, d) if g and d else None
                         for d in range(config.discriminator_depth_max + 1))
                   for g in range(config.generator_depth_max + 1)))


def _read_gan_text(text: str, reader: _Reader) -> Genotype | None:
    """The ``(key, row)`` whose ``_gan_text`` with default separators is
    exactly ``text``, for ``reader = _gan_reader(config)``; None if
    ``text`` is not that text for any genotype of ``config``'s space.

    ``text`` is cut at the first occurrence of each fixed fragment, and
    each cut piece must be a text of the writer's tables: so whenever a
    genotype is returned, its text is ``text``, and ``json.loads(text)``
    is its record.  Any other text is for the JSON reader to judge.
    """
    head, middle, tail, separator, (g_table, d_table), bins, keys = reader
    mid = text.find(middle, len(head))
    end = text.find(tail, mid + len(middle))
    train = bins.get(text[end + len(tail):-1])
    if (mid < 0 or end < 0 or train is None or not text.endswith("}")
            or not text.startswith(head)):
        return None
    disc = text[len(head):mid].split(separator)
    gen = text[mid + len(middle):end].split(separator)
    try:
        key = keys[len(gen)][len(disc)]
        values = [train]
        for layer in gen:
            values += g_table[layer]
        for layer in disc:
            values += d_table[layer]
    except (IndexError, KeyError):
        return None
    return key, tuple(values)


def parse_genotype(obj, config: GenotypeConfig) -> Genotype:
    """The depth key and row of a genotype record (a ``json.loads``
    result), the inverse of the row writer.  A record of the wrong shape
    raises a FormatError, and a genotype outside ``config``'s space a
    ValidationError, each naming its first fault."""
    return _flatten_fields(*_record_fields(obj), config, _layer_values(config))


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
