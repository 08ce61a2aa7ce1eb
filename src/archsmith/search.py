"""Mutation operators, hill climbing and a minimal evolutionary loop.

Search minimizes landscape fitness over genotypes.  Neighborhoods are the
distinct results of one mutation operator application; random hill climbing
draws neighbors uniformly while guided hill climbing ranks them by the
metamodel's normalized score.  All procedures are deterministic given their
generator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .errors import ValidationError
from .genotype import (
    AttributeVector,
    DepthKey,
    DnnSpec,
    GanSpec,
    GenotypeConfig,
    LayerSpec,
    MUTABLE_LAYER_ATTRS,
    ROLE_DISCRIMINATOR,
    ROLE_GENERATOR,
    flatten_joint,
    gan_hash,
    joint_schema,
    random_gan,
    sort_by_fitness,
    unflatten_joint,
    validate_gan,
)
from .landscape import SurrogateLandscape
from .metamodel import Metamodel

STRATEGY_RANDOM = "random"
STRATEGY_FROM_FIRST = "from_first"
STRATEGY_FROM_METAMODEL = "from_metamodel"
STRATEGIES = (STRATEGY_RANDOM, STRATEGY_FROM_FIRST, STRATEGY_FROM_METAMODEL)


# ---------------------------------------------------------------------------
# Mutation operators


@dataclass(frozen=True)
class AddLayer:
    role: str
    position: int
    layer: LayerSpec


@dataclass(frozen=True)
class DeleteLayer:
    role: str
    position: int


@dataclass(frozen=True)
class ChangeLayer:
    """Set one mutable attribute of one layer to a new vocabulary index."""

    role: str
    position: int
    attr: str
    value: int


@dataclass(frozen=True)
class ChangeTrainFreq:
    value: int


MutationOp = Union[AddLayer, DeleteLayer, ChangeLayer, ChangeTrainFreq]


@lru_cache(maxsize=None)
def _layer_variants(config: GenotypeConfig,
                    role: str) -> tuple[LayerSpec, ...]:
    return tuple(LayerSpec(kind=k, activation=a, weight_init=w, size_bin=s)
                 for k in config.kinds(role)
                 for a in config.activations
                 for w in config.weight_inits
                 for s in range(config.arity))


def _attr_index(config: GenotypeConfig, layer: LayerSpec, attr: str) -> int:
    if attr == "activation":
        return config.activations.index(layer.activation)
    if attr == "weight_init":
        return config.weight_inits.index(layer.weight_init)
    if attr == "size_bin":
        return layer.size_bin
    raise ValidationError(f"unknown mutable attribute {attr!r}")


def _attr_cardinality(config: GenotypeConfig, attr: str) -> int:
    return {"activation": len(config.activations),
            "weight_init": len(config.weight_inits),
            "size_bin": config.arity}[attr]


def legal_ops(gan: GanSpec, config: GenotypeConfig) -> list[MutationOp]:
    """Every operator application that keeps the genotype within bounds."""
    ops: list[MutationOp] = []
    for net in (gan.generator, gan.discriminator):
        role, depth = net.role, net.depth
        if depth < config.depth_max(role):
            for position in range(depth + 1):
                for layer in _layer_variants(config, role):
                    ops.append(AddLayer(role, position, layer))
        if depth > 1:
            for position in range(depth):
                ops.append(DeleteLayer(role, position))
        for position, layer in enumerate(net.layers):
            for attr in MUTABLE_LAYER_ATTRS:
                current = _attr_index(config, layer, attr)
                for value in range(_attr_cardinality(config, attr)):
                    if value != current:
                        ops.append(ChangeLayer(role, position, attr, value))
    for value in range(config.arity):
        if value != gan.train_freq_bin:
            ops.append(ChangeTrainFreq(value))
    return ops


def _net_of(gan: GanSpec, role: str) -> DnnSpec:
    return gan.generator if role == ROLE_GENERATOR else gan.discriminator


def _with_net(gan: GanSpec, role: str, net: DnnSpec) -> GanSpec:
    if role == ROLE_GENERATOR:
        return replace(gan, generator=net)
    return replace(gan, discriminator=net)


def apply_op(gan: GanSpec, op: MutationOp,
             config: GenotypeConfig) -> GanSpec:
    """Apply one operator; the result is validated against the bounds."""
    if isinstance(op, ChangeTrainFreq):
        result = replace(gan, train_freq_bin=op.value)
    elif isinstance(op, AddLayer):
        net = _net_of(gan, op.role)
        if not 0 <= op.position <= net.depth:
            raise ValidationError(f"bad insert position {op.position}")
        layers = (net.layers[:op.position] + (op.layer,)
                  + net.layers[op.position:])
        result = _with_net(gan, op.role, replace(net, layers=layers))
    elif isinstance(op, DeleteLayer):
        net = _net_of(gan, op.role)
        if net.depth <= 1:
            raise ValidationError("cannot delete the last layer")
        if not 0 <= op.position < net.depth:
            raise ValidationError(f"bad delete position {op.position}")
        layers = net.layers[:op.position] + net.layers[op.position + 1:]
        result = _with_net(gan, op.role, replace(net, layers=layers))
    elif isinstance(op, ChangeLayer):
        net = _net_of(gan, op.role)
        if not 0 <= op.position < net.depth:
            raise ValidationError(f"bad layer position {op.position}")
        layer = net.layers[op.position]
        if op.attr == "activation":
            layer = replace(layer, activation=config.activations[op.value])
        elif op.attr == "weight_init":
            layer = replace(layer, weight_init=config.weight_inits[op.value])
        elif op.attr == "size_bin":
            layer = replace(layer, size_bin=op.value)
        else:
            raise ValidationError(f"unknown mutable attribute {op.attr!r}")
        layers = (net.layers[:op.position] + (layer,)
                  + net.layers[op.position + 1:])
        result = _with_net(gan, op.role, replace(net, layers=layers))
    else:
        raise ValidationError(f"unknown operator {op!r}")
    validate_gan(result, config)
    return result


def neighbors(gan: GanSpec, config: GenotypeConfig) -> list[GanSpec]:
    """Distinct genotypes one operator away, excluding the genotype itself."""
    seen = {gan_hash(gan)}
    out = []
    for op in legal_ops(gan, config):
        candidate = apply_op(gan, op, config)
        digest = gan_hash(candidate)
        if digest not in seen:
            seen.add(digest)
            out.append(candidate)
    return out


# ---------------------------------------------------------------------------
# Vectorized neighborhoods (for scoring and evaluation in bulk)


@lru_cache(maxsize=None)
def _layer_blocks(config: GenotypeConfig, role: str) -> np.ndarray:
    """Every layer of ``role`` as a (kind, activation, init, size) row.

    Rows are in lexicographic order, so a layer's row index is its
    mixed-radix code.  The array is shared, hence read-only.
    """
    kinds = config.kinds(role)
    blocks = [(k, a, w, s)
              for k in range(len(kinds))
              for a in range(len(config.activations))
              for w in range(len(config.weight_inits))
              for s in range(config.arity)]
    out = np.array(blocks, dtype=np.int64)
    out.flags.writeable = False
    return out


def neighbor_groups(key: DepthKey, values: np.ndarray,
                    config: GenotypeConfig) -> list[tuple[DepthKey, np.ndarray]]:
    """One-mutation neighbors as per-depth-key int64 row matrices.

    Equivalent to neighbors() on the unflattened genotype: rows are distinct
    and the incumbent itself is excluded.  Groups come back sorted by key;
    the change group lists slots in schema order and values ascending, and
    every grow and shrink group is in strictly ascending lexicographic row
    order.

    No sort is needed for that order.  Inserting block B at position p
    gives the same row as inserting it at p + 1 exactly when B equals layer
    p, so the distinct inserts are those with B != layer p, plus every B at
    p = depth.  Two of them at p < q first differ where B meets layer p, so
    they compare as B against layer p.  Hence the order: for p ascending,
    the blocks below layer p; then every block at p = depth; then, for p
    descending, the blocks above layer p; each run in block order.
    """
    key = DepthKey(*key)
    values = np.asarray(values, dtype=np.int64)
    schema = joint_schema(config, key)
    out: list[tuple[DepthKey, np.ndarray]] = []

    # layer kind is fixed at creation; only add/delete changes it
    slots = [j for j, slot in enumerate(schema.slots) if slot.attr != "kind"]
    cards = [schema.slots[j].cardinality for j in slots]
    cols = np.repeat(slots, cards)
    new = np.concatenate([np.arange(card) for card in cards])
    keep = new != values[cols]
    if keep.any():
        change = np.tile(values, (int(keep.sum()), 1))
        change[np.arange(len(change)), cols[keep]] = new[keep]
        out.append((key, change))

    flat = values.tolist()
    sections = ((ROLE_GENERATOR, key.d_g, 1),
                (ROLE_DISCRIMINATOR, key.d_d, 1 + 4 * key.d_g))
    for role, depth, offset in sections:
        if depth < config.depth_max(role):
            grow = (DepthKey(key.d_g + 1, key.d_d) if role == ROLE_GENERATOR
                    else DepthKey(key.d_g, key.d_d + 1))
            out.append((grow, _grow_rows(values, depth, offset,
                                         config, role)))
        if depth > 1:
            shrink = (DepthKey(key.d_g - 1, key.d_d) if role == ROLE_GENERATOR
                      else DepthKey(key.d_g, key.d_d - 1))
            cuts = range(offset, offset + 4 * depth, 4)
            rows = sorted({tuple(flat[:c] + flat[c + 4:]) for c in cuts})
            out.append((shrink, np.array(rows, dtype=np.int64)))
    # The five keys (change, grow and shrink per network) never collide.
    out.sort(key=lambda group: group[0])
    return out


def _grow_rows(values: np.ndarray, depth: int, offset: int,
               config: GenotypeConfig, role: str) -> np.ndarray:
    """Distinct one-layer inserts into one network, lexicographically sorted.

    The network's ``depth`` layers start at column ``offset`` of ``values``.
    """
    blocks = _layer_blocks(config, role)
    radix = (len(config.kinds(role)), len(config.activations),
             len(config.weight_inits), config.arity)
    layers = values[offset:offset + 4 * depth].reshape(depth, 4)
    codes = np.ravel_multi_index(layers.T, radix).tolist()
    runs = ([(p, 0, codes[p]) for p in range(depth)]
            + [(depth, 0, len(blocks))]
            + [(p, codes[p] + 1, len(blocks))
               for p in range(depth - 1, -1, -1)])
    out = np.empty((depth * (len(blocks) - 1) + len(blocks),
                    len(values) + 4), dtype=np.int64)
    start = 0
    for position, lo, hi in runs:
        stop = start + hi - lo
        cut = offset + 4 * position
        out[start:stop, :cut] = values[:cut]
        out[start:stop, cut:cut + 4] = blocks[lo:hi]
        out[start:stop, cut + 4:] = values[cut:]
        start = stop
    return out


def _row_to_gan(key: DepthKey, row: np.ndarray,
                config: GenotypeConfig) -> GanSpec:
    schema = joint_schema(config, key)
    vector = AttributeVector(depth_key=key,
                             values=tuple(int(v) for v in row),
                             schema=schema)
    return unflatten_joint(vector, config)


def _row_offsets(groups: list[tuple[DepthKey, np.ndarray]]) -> np.ndarray:
    """Start of each group in the concatenated rows, plus the total."""
    return np.cumsum([0] + [len(rows) for _, rows in groups])


def _group_row(groups: list[tuple[DepthKey, np.ndarray]],
               offsets: np.ndarray, index: int) -> tuple[DepthKey, np.ndarray]:
    """Key and row of the ``index``-th row across the concatenated groups."""
    slot = int(np.searchsorted(offsets, index, side="right") - 1)
    return groups[slot][0], groups[slot][1][index - offsets[slot]]


def random_minimal_gan(rng: np.random.Generator,
                       config: GenotypeConfig) -> GanSpec:
    """One-layer generator and discriminator with seeded random slots."""
    return random_gan(rng, config, depth_key=DepthKey(1, 1))


# ---------------------------------------------------------------------------
# Hill climbing


@dataclass(frozen=True)
class TraceStep:
    step: int
    gan_hash: str
    fitness: float
    accepted: bool
    best: float
    exhausted: bool = False


@dataclass
class SearchTrace:
    """Evaluation-by-evaluation record; step 0 is the start genotype."""

    start_hash: str
    start_fitness: float
    steps: list[TraceStep] = field(default_factory=list)

    @property
    def final_best(self) -> float:
        return self.steps[-1].best if self.steps else self.start_fitness

    def best_at(self, step: int) -> float:
        """Best-so-far after ``step`` evaluations (0 = just the start)."""
        if step <= 0 or not self.steps:
            return self.start_fitness
        return self.steps[min(step, len(self.steps)) - 1].best

    @property
    def evaluations(self) -> int:
        return sum(1 for s in self.steps if not s.exhausted)


def random_hc(landscape: SurrogateLandscape, start: GanSpec, budget: int,
              rng: np.random.Generator) -> SearchTrace:
    """Uniform-neighbor hill climbing with strict-improvement acceptance.

    The start is evaluated at step 0 outside the budget; the trace then
    holds exactly ``budget`` neighbor evaluations.
    """
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    config = landscape.config.genotype
    av = flatten_joint(start, config)
    key = DepthKey(*av.depth_key)
    values = np.array(av.values, dtype=np.int64)
    best = landscape.evaluate(start)
    trace = SearchTrace(start_hash=gan_hash(start), start_fitness=best)
    groups = None
    for step in range(1, budget + 1):
        if groups is None:
            groups = neighbor_groups(key, values, config)
            offsets = _row_offsets(groups)
        cand_key, cand_row = _group_row(groups, offsets,
                                        int(rng.integers(offsets[-1])))
        fitness = float(landscape.evaluate_values(cand_key,
                                                  cand_row[None, :])[0])
        accepted = fitness < best
        digest = gan_hash(_row_to_gan(cand_key, cand_row, config))
        if accepted:
            best = fitness
            key, values = cand_key, cand_row.copy()
            groups = None
        trace.steps.append(TraceStep(step=step, gan_hash=digest,
                                     fitness=fitness, accepted=accepted,
                                     best=best))
    return trace


def guided_hc(landscape: SurrogateLandscape, metamodel: Metamodel,
              start: GanSpec, budget: int,
              rng: np.random.Generator) -> SearchTrace:
    """Metamodel-ranked hill climbing.

    Neighbors of the incumbent are ranked once by normalized score (ties
    broken by a seeded uniform draw) and evaluated top-down; rejects stay
    visited for the current incumbent.  When every neighbor has been
    visited the search stops and the trace is padded with rows flagged
    exhausted.
    """
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    config = landscape.config.genotype
    av = flatten_joint(start, config)
    key = DepthKey(*av.depth_key)
    values = np.array(av.values, dtype=np.int64)
    best = landscape.evaluate(start)
    trace = SearchTrace(start_hash=gan_hash(start), start_fitness=best)

    def ranked(inc_key, inc_values):
        """Neighbor groups, their row offsets, and the visiting order."""
        groups = neighbor_groups(inc_key, inc_values, config)
        scores = [metamodel.score_values(group_key, group_rows)[1]
                  for group_key, group_rows in groups]
        # Scores within 1e-6 count as tied so float summation noise
        # cannot leak a deterministic order into the tie break.
        score_vec = np.round(np.concatenate(scores) / 1e-6)
        tiebreak = rng.random(len(score_vec))
        order = np.lexsort((tiebreak, -score_vec))
        return groups, _row_offsets(groups), order

    groups, offsets, order = ranked(key, values)
    cursor = 0
    step = 0
    while step < budget:
        if cursor >= len(order):
            # Incumbent neighborhood exhausted; no-op padding to budget.
            while step < budget:
                step += 1
                trace.steps.append(TraceStep(
                    step=step, gan_hash="", fitness=float("nan"),
                    accepted=False, best=best, exhausted=True))
            break
        cand_key, cand_row = _group_row(groups, offsets, int(order[cursor]))
        cursor += 1
        step += 1
        fitness = float(landscape.evaluate_values(cand_key,
                                                  cand_row[None, :])[0])
        accepted = fitness < best
        digest = gan_hash(_row_to_gan(cand_key, cand_row, config))
        if accepted:
            best = fitness
            key, values = cand_key, cand_row
            groups, offsets, order = ranked(key, values)
            cursor = 0
        trace.steps.append(TraceStep(step=step, gan_hash=digest,
                                     fitness=fitness, accepted=accepted,
                                     best=best))
    return trace


# ---------------------------------------------------------------------------
# Evolutionary loop


@dataclass
class Population:
    """Fixed-size list of evaluated genotypes."""

    members: list[tuple[GanSpec, float]]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValidationError("population cannot be empty")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def best_fitness(self) -> float:
        return min(f for _, f in self.members)

    def best(self) -> tuple[GanSpec, float]:
        return min(self.members, key=lambda m: (m[1], gan_hash(m[0])))


@dataclass(frozen=True)
class EaConfig:
    crossover_rate: float = 0.5
    mutation_rate: float = 0.8
    tournament_size: int = 2
    elitism: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.crossover_rate <= 1:
            raise ValidationError("crossover_rate must lie in [0, 1]")
        if not 0 <= self.mutation_rate <= 1:
            raise ValidationError("mutation_rate must lie in [0, 1]")
        if self.tournament_size < 1 or self.elitism < 0:
            raise ValidationError("bad tournament_size or elitism")


@dataclass
class EaResult:
    best_per_generation: list[float]
    population: Population
    evaluations: int


def init_population(strategy: str, size: int,
                    landscape: SurrogateLandscape,
                    rng: np.random.Generator,
                    elite: Sequence[GanSpec] | None = None,
                    metamodel: Metamodel | None = None) -> Population:
    """Build and evaluate the starting population.

    random draws uniform genotypes, from_first resamples the elite set, and
    from_metamodel uses metamodel samples; every member is evaluated on the
    target landscape.
    """
    if size < 1:
        raise ValidationError("size must be >= 1")
    config = landscape.config.genotype
    if strategy == STRATEGY_RANDOM:
        gans = [random_gan(rng, config) for _ in range(size)]
    elif strategy == STRATEGY_FROM_FIRST:
        if not elite:
            raise ValidationError("from_first requires a non-empty elite set")
        picks = rng.integers(len(elite), size=size)
        gans = [elite[int(i)] for i in picks]
    elif strategy == STRATEGY_FROM_METAMODEL:
        if metamodel is None:
            raise ValidationError("from_metamodel requires a metamodel")
        gans = metamodel.sample_many(rng, size)
    else:
        raise ValidationError(f"unknown strategy {strategy!r}")
    return Population([(gan, landscape.evaluate(gan)) for gan in gans])


def _tournament(population: Population, rng: np.random.Generator,
                k: int) -> GanSpec:
    picks = rng.choice(population.size, size=min(k, population.size),
                       replace=False)
    return sort_by_fitness(population.members[int(i)] for i in picks)[0][0]


def _crossover(a: GanSpec, b: GanSpec) -> tuple[GanSpec, GanSpec]:
    # Swap whole networks; train frequency travels with the generator.
    return (GanSpec(generator=a.generator, discriminator=b.discriminator,
                    train_freq_bin=a.train_freq_bin),
            GanSpec(generator=b.generator, discriminator=a.discriminator,
                    train_freq_bin=b.train_freq_bin))


def mutate(gan: GanSpec, config: GenotypeConfig,
           rng: np.random.Generator) -> GanSpec:
    """One random operator: uniform over applicable kinds, then parameters."""
    kinds = ["change", "train_freq"]
    if (gan.generator.depth < config.generator_depth_max
            or gan.discriminator.depth < config.discriminator_depth_max):
        kinds.append("add")
    if gan.generator.depth > 1 or gan.discriminator.depth > 1:
        kinds.append("delete")
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "train_freq":
        shift = int(rng.integers(1, config.arity)) if config.arity > 1 else 0
        op: MutationOp = ChangeTrainFreq(
            (gan.train_freq_bin + shift) % config.arity)
    elif kind == "add":
        roles = [r for r, net in ((ROLE_GENERATOR, gan.generator),
                                  (ROLE_DISCRIMINATOR, gan.discriminator))
                 if net.depth < config.depth_max(r)]
        role = roles[int(rng.integers(len(roles)))]
        net = _net_of(gan, role)
        variants = _layer_variants(config, role)
        op = AddLayer(role, int(rng.integers(net.depth + 1)),
                      variants[int(rng.integers(len(variants)))])
    elif kind == "delete":
        roles = [r for r, net in ((ROLE_GENERATOR, gan.generator),
                                  (ROLE_DISCRIMINATOR, gan.discriminator))
                 if net.depth > 1]
        role = roles[int(rng.integers(len(roles)))]
        op = DeleteLayer(role, int(rng.integers(_net_of(gan, role).depth)))
    else:
        role = (ROLE_GENERATOR, ROLE_DISCRIMINATOR)[int(rng.integers(2))]
        net = _net_of(gan, role)
        position = int(rng.integers(net.depth))
        attr = MUTABLE_LAYER_ATTRS[int(rng.integers(len(MUTABLE_LAYER_ATTRS)))]
        card = _attr_cardinality(config, attr)
        current = _attr_index(config, net.layers[position], attr)
        shift = int(rng.integers(1, card)) if card > 1 else 0
        op = ChangeLayer(role, position, attr, (current + shift) % card)
    return apply_op(gan, op, config)


def simple_ea(landscape: SurrogateLandscape, population: Population,
              generations: int, rng: np.random.Generator,
              config: EaConfig = EaConfig(),
              on_evaluate=None) -> EaResult:
    """Tournament EA with whole-network crossover and single-op mutation.

    The incoming population is generation 0; each later generation
    evaluates (size − elitism) fresh offspring and carries the elite over
    unevaluated, so total evaluations stay predictable.  ``on_evaluate``
    is called with (gan, fitness) for every fresh evaluation.
    """
    if generations < 1:
        raise ValidationError("generations must be >= 1")
    gc = landscape.config.genotype
    size = population.size
    if config.elitism >= size:
        raise ValidationError("elitism must leave room for offspring")
    trace = [population.best_fitness]
    evaluations = 0
    for _ in range(generations):
        offspring: list[tuple[GanSpec, float]] = []
        need = size - config.elitism
        while len(offspring) < need:
            parent_a = _tournament(population, rng, config.tournament_size)
            parent_b = _tournament(population, rng, config.tournament_size)
            if rng.random() < config.crossover_rate:
                child_a, child_b = _crossover(parent_a, parent_b)
            else:
                child_a, child_b = parent_a, parent_b
            for child in (child_a, child_b):
                if len(offspring) >= need:
                    break
                if rng.random() < config.mutation_rate:
                    child = mutate(child, gc, rng)
                fitness = landscape.evaluate(child)
                if on_evaluate is not None:
                    on_evaluate(child, fitness)
                offspring.append((child, fitness))
                evaluations += 1
        elite = sort_by_fitness(population.members)[:config.elitism]
        population = Population(elite + offspring)
        trace.append(population.best_fitness)
    return EaResult(best_per_generation=trace, population=population,
                    evaluations=evaluations)


# ---------------------------------------------------------------------------
# Trace persistence


TRACE_COLUMNS = ("seed", "step", "fitness", "best", "accepted")


def save_traces(traces: Sequence[tuple[int, SearchTrace]], path) -> None:
    """CSV with one row per evaluation; floats use repr for stable reruns."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for seed, trace in traces:
            writer.writerow([seed, 0, repr(trace.start_fitness),
                             repr(trace.start_fitness), 1])
            for s in trace.steps:
                writer.writerow([seed, s.step, repr(s.fitness), repr(s.best),
                                 int(s.accepted)])


def load_traces(path) -> dict[int, list[dict]]:
    """Rows grouped by seed, typed back into numbers."""
    out: dict[int, list[dict]] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != list(TRACE_COLUMNS):
            raise ValidationError(f"unexpected trace columns {reader.fieldnames}")
        for row in reader:
            out.setdefault(int(row["seed"]), []).append({
                "step": int(row["step"]),
                "fitness": float(row["fitness"]),
                "best": float(row["best"]),
                "accepted": bool(int(row["accepted"])),
            })
    return out
