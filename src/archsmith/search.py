"""Mutation, hill climbing and a minimal evolutionary loop.

Search minimizes landscape fitness over genotypes, held as ``(DepthKey,
row)`` pairs.  Neighborhoods are the distinct results of one mutation move;
random hill climbing draws neighbors uniformly while guided hill climbing
ranks them by the metamodel's normalized score.  All procedures are
deterministic given their generator.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partialmethod
from operator import index, itemgetter
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .genotype import (
    DepthKey,
    Genotype,
    GenotypeConfig,
    ROLE_DISCRIMINATOR,
    _LAYER_WIDTH,
    _Move,
    _change_moves,
    _layer_start,
    _layers,
    _mutation_moves,
    random_genotype,
)
from .landscape import SurrogateLandscape
from .metamodel import Metamodel

STRATEGY_RANDOM = "random"
STRATEGY_FROM_FIRST = "from_first"
STRATEGY_FROM_METAMODEL = "from_metamodel"
STRATEGIES = (STRATEGY_RANDOM, STRATEGY_FROM_FIRST, STRATEGY_FROM_METAMODEL)


# ---------------------------------------------------------------------------
# Vectorized neighborhoods (for scoring and evaluation in bulk)


def neighbor_groups(key: DepthKey, values: np.ndarray,
                    config: GenotypeConfig) -> list[tuple[DepthKey, np.ndarray]]:
    """One-mutation neighbors as per-depth-key int64 row matrices.

    Every genotype one move of ``mutate``'s table (``_mutation_moves``)
    away: rows are distinct and the incumbent itself is excluded.  Groups
    come back sorted by key; the change group lists slots in schema order
    and values ascending, and every grow and shrink group is in strictly
    ascending lexicographic row order.

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
    out: list[tuple[DepthKey, np.ndarray]] = []

    cols, new = _change_moves(config, key)
    keep = new != values[cols]
    if keep.any():
        change = np.tile(values, (int(keep.sum()), 1))
        change[np.arange(len(change)), cols[keep]] = new[keep]
        out.append((key, change))

    moves = dict(_mutation_moves(config, key))
    for move in moves.get("add", ()):
        out.append((move.key, _grow_rows(values, move, config)))
    flat = values.tolist()
    for depth, start, _, shrink, _, _ in moves.get("delete", ()):
        cuts = range(start, start + _LAYER_WIDTH * depth, _LAYER_WIDTH)
        rows = sorted({(*flat[:c], *flat[c + _LAYER_WIDTH:]) for c in cuts})
        out.append((shrink, np.array(rows, dtype=np.int64)))
    # The five keys (change, grow and shrink per network) never collide.
    out.sort(key=lambda group: group[0])
    return out


def _grow_rows(values: np.ndarray, move: _Move,
               config: GenotypeConfig) -> np.ndarray:
    """Distinct one-layer inserts into one network, lexicographically sorted.

    ``move`` is the network's add move: its ``depth`` layers start at
    column ``start`` of ``values``, and ``_layers`` lists its blocks."""
    depth, offset = move.depth, move.start
    blocks = _layers(config, move.role).blocks
    layers = values[offset:offset + _LAYER_WIDTH * depth].reshape(depth, -1)
    codes = np.ravel_multi_index(layers.T, move.radix).tolist()
    runs = ([(p, 0, codes[p]) for p in range(depth)]
            + [(depth, 0, len(blocks))]
            + [(p, codes[p] + 1, len(blocks))
               for p in range(depth - 1, -1, -1)])
    out = np.empty((depth * (len(blocks) - 1) + len(blocks),
                    len(values) + _LAYER_WIDTH), dtype=np.int64)
    start = 0
    for position, lo, hi in runs:
        stop = start + hi - lo
        cut = offset + _LAYER_WIDTH * position
        out[start:stop, :cut] = values[:cut]
        out[start:stop, cut:cut + _LAYER_WIDTH] = blocks[lo:hi]
        out[start:stop, cut + _LAYER_WIDTH:] = values[cut:]
        start = stop
    return out


def _row_offsets(groups: list[tuple[DepthKey, np.ndarray]]) -> np.ndarray:
    """Start of each group in the concatenated rows, plus the total."""
    return np.cumsum([0] + [len(rows) for _, rows in groups])


def _group_row(groups: list[tuple[DepthKey, np.ndarray]],
               offsets: np.ndarray, index: int) -> tuple[DepthKey, np.ndarray]:
    """Key and row of the ``index``-th row across the concatenated groups."""
    slot = int(np.searchsorted(offsets, index, side="right") - 1)
    return groups[slot][0], groups[slot][1][index - offsets[slot]]


def _ranking(score: np.ndarray, tiebreak: np.ndarray) -> np.ndarray:
    """The order of ``np.lexsort((tiebreak, -score))``: by descending
    score, then ascending tie break, then position.

    One stable ``np.argsort`` of a complex key whose real part is the
    negated score and whose imaginary part is the tie break: numpy orders
    complex values by real part, then imaginary part.  Equal floats (0.0
    and -0.0 among them) compare equal in both, so ties fall through alike.
    """
    key = np.empty(len(score), dtype=np.complex128)
    key.real = -score
    key.imag = tiebreak
    return np.argsort(key, kind="stable")


# How many of a neighbourhood's best ``_ranked_prefix`` sorts first.  A
# guided climb reads a median of 4 ranked neighbours (p90 14) before it
# accepts one, out of about 950.
_RANKED_HEAD = 16


def _ranked_prefix(score: np.ndarray, tiebreak: np.ndarray) -> Iterator[int]:
    """``_ranking(score, tiebreak)`` as ints, sorted only as far as it is
    read.

    One ``np.partition`` finds the ``_RANKED_HEAD``-th best score.  Every
    position whose score is at least that good comes first, sorted by
    ``_ranking``; the rest, each scored strictly lower (or NaN), follow,
    sorted the same way once the head is used up.  Positions ascend in
    each part, so the stable sorts keep their order on full ties.
    """
    parts = [np.arange(len(score))]
    if len(score) > _RANKED_HEAD:
        negated = -score
        last = np.partition(negated, _RANKED_HEAD - 1)[_RANKED_HEAD - 1]
        head = negated <= last
        parts = [np.flatnonzero(head), np.flatnonzero(~head)]
    for where in parts:
        yield from where[_ranking(score[where], tiebreak[where])].tolist()


# ---------------------------------------------------------------------------
# Hill climbing


@dataclass(frozen=True)
class TraceStep:
    """One step of a climb; ``genotype`` is the ``(key, row)`` it
    evaluated, None on exhausted padding."""

    step: int
    genotype: Genotype | None
    fitness: float
    accepted: bool
    best: float
    exhausted: bool = False


@dataclass
class SearchTrace:
    """Evaluation-by-evaluation record; step 0 is the start genotype."""

    start: Genotype
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


def _climb(landscape: SurrogateLandscape, start: Genotype, budget: int,
           visits: Callable[[DepthKey, np.ndarray],
                            Iterator[tuple[DepthKey, np.ndarray]]]
           ) -> SearchTrace:
    """Hill climbing with strict-improvement acceptance.

    ``visits(key, values)`` gives the neighbors of the incumbent row, as
    ``(key, row)`` pairs in the order they are to be evaluated; it is asked
    again after every accepted move, except one on the budget's last step,
    whose neighbors no step would visit.  The start is evaluated at step 0
    outside the budget, and the trace holds exactly ``budget`` steps: when
    ``visits`` runs out, the rest are padding flagged exhausted.
    """
    if budget < 1:
        raise ValidationError("budget must be >= 1")
    best = landscape.evaluate(start)
    trace = SearchTrace(start=start, start_fitness=best)
    key, row = start
    candidates = visits(key, np.array(row, dtype=np.int64))
    for step in range(1, budget + 1):
        candidate = next(candidates, None)
        if candidate is None:
            # Incumbent neighborhood exhausted; no-op padding to budget.
            trace.steps.extend(
                TraceStep(step=pad, genotype=None, fitness=float("nan"),
                          accepted=False, best=best, exhausted=True)
                for pad in range(step, budget + 1))
            break
        cand_key, cand_row = candidate
        fitness = float(landscape.evaluate_values(cand_key,
                                                  cand_row[None, :])[0])
        accepted = fitness < best
        if accepted:
            best = fitness
            if step < budget:
                candidates = visits(cand_key, cand_row)
        # A tuple copy: a view would keep the whole neighborhood alive.
        genotype = (cand_key, tuple(cand_row.tolist()))
        trace.steps.append(TraceStep(step=step, genotype=genotype,
                                     fitness=fitness, accepted=accepted,
                                     best=best))
    return trace


def random_hc(landscape: SurrogateLandscape, start: Genotype, budget: int,
              rng: np.random.Generator) -> SearchTrace:
    """Uniform-neighbor hill climbing with strict-improvement acceptance.

    Each step draws a neighbor of the incumbent uniformly, with
    replacement.  The start is evaluated at step 0 outside the budget; the
    trace then holds exactly ``budget`` neighbor evaluations.
    """
    config = landscape.config.genotype

    def uniform(key, values):
        # A generator: the neighborhood is built at the first draw.
        groups = neighbor_groups(key, values, config)
        offsets = _row_offsets(groups)
        if not offsets[-1]:
            return  # no neighbours: the climb pads its trace
        while True:
            yield _group_row(groups, offsets, int(rng.integers(offsets[-1])))

    return _climb(landscape, start, budget, uniform)


def guided_hc(landscape: SurrogateLandscape, metamodel: Metamodel,
              start: Genotype, budget: int,
              rng: np.random.Generator) -> SearchTrace:
    """Metamodel-ranked hill climbing.

    Neighbors of the incumbent are ranked once by normalized score (ties
    broken by a seeded uniform draw) and evaluated top-down; rejects stay
    visited for the current incumbent.  The neighbourhood is scored once
    per network a group changes (``Metamodel._neighbor_scores``).  The
    ranking is the order of ``np.lexsort((tiebreak, -score))``, scores in
    quanta of 1e-6, taken by stable sorts of a complex key (``_ranking``):
    first of the best ``_RANKED_HEAD`` scores and their ties, then, if the
    climb reads past them, of the rest (``_ranked_prefix``).  When every
    neighbor has been visited, or there is none, the search stops and the
    trace is padded with rows flagged exhausted.  The metamodel must model
    the landscape's genotype config.
    """
    config = landscape.config.genotype
    if metamodel.config != config:
        raise ValidationError("metamodel genotype does not match landscape")

    def ranked(key, values):
        # Scored and drawn at once, so the tie-break draw follows each
        # acceptance.
        groups = neighbor_groups(key, values, config)
        if not groups:
            return iter(())  # no neighbours: the climb pads its trace
        # Scores within 1e-6 count as tied so float summation noise
        # cannot leak a deterministic order into the tie break.
        score_vec = np.round(
            metamodel._neighbor_scores(key, values, groups) / 1e-6)
        order = _ranked_prefix(score_vec, rng.random(len(score_vec)))
        offsets = _row_offsets(groups)
        return (_group_row(groups, offsets, index) for index in order)

    return _climb(landscape, start, budget, ranked)


# ---------------------------------------------------------------------------
# Evolutionary loop


@dataclass
class Population:
    """Fixed-size list of evaluated genotypes, as (key, row, fitness)."""

    members: list[tuple[DepthKey, tuple[int, ...], float]]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValidationError("population cannot be empty")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def best_fitness(self) -> float:
        return min(f for _, _, f in self.members)


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
                    elite: Sequence[Genotype] | None = None,
                    metamodel: Metamodel | None = None) -> Population:
    """Build and evaluate the starting population.

    random draws uniform genotypes, from_first resamples the elite set's
    ``(key, row)`` pairs, and from_metamodel uses metamodel samples; every
    member is evaluated on the target landscape.
    """
    if size < 1:
        raise ValidationError("size must be >= 1")
    if strategy == STRATEGY_RANDOM:
        genotypes = [random_genotype(rng, landscape.config.genotype)
                     for _ in range(size)]
    elif strategy == STRATEGY_FROM_FIRST:
        if not elite:
            raise ValidationError("from_first requires a non-empty elite set")
        picks = rng.integers(len(elite), size=size)
        genotypes = [elite[int(i)] for i in picks]
    elif strategy == STRATEGY_FROM_METAMODEL:
        if metamodel is None:
            raise ValidationError("from_metamodel requires a metamodel")
        if metamodel.config != landscape.config.genotype:
            raise ValidationError("metamodel genotype does not match "
                                  "landscape")
        genotypes = metamodel.sample_genotypes(rng, size)
    else:
        raise ValidationError(f"unknown strategy {strategy!r}")
    # One ``evaluate`` call per member, not a batch: the benchmark's
    # tracer counts evaluations there (ROADMAP item 1).
    return Population([(*genotype, landscape.evaluate(genotype))
                       for genotype in genotypes])


# Orders ``(key, row, fitness)`` members: by fitness, an exact tie going to
# the smaller ``(key, row)``.
_RANK = itemgetter(2, 0, 1)


class _Draws:
    """A PCG64 Generator's own ``random`` and ``choice``, and its scalar
    ``integers`` replayed at a third of numpy's cost: for n = high − low in
    [2, 2**32], low + (w·n >> 32) of a 32-bit word w, redrawn while w·n mod
    2**32 < (2**32 − n) % n (Lemire, ACM TOMACS 2019).  w is the high half
    of PCG64's last output if it holds one (``has_uint32``, ``uinteger``),
    else a fresh output's low half.  The held half is read on entering the
    context, and written back on leaving it and around numpy's own draws:
    ``choice``, and ``integers`` of any other n."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng, self.random = rng, rng.random
        self._raw = rng.bit_generator.random_raw

    def __enter__(self) -> "_Draws":
        state = self._rng.bit_generator.state
        self._has, self._half = state["has_uint32"], state["uinteger"]
        return self

    def __exit__(self, *exc) -> None:
        bits = self._rng.bit_generator
        bits.state = {**bits.state, "has_uint32": self._has,
                      "uinteger": self._half}

    def _numpy(self, name: str, *args, **kwargs):
        self.__exit__()
        out = getattr(self._rng, name)(*args, **kwargs)
        self.__enter__()
        return out

    choice = partialmethod(_numpy, "choice")

    def integers(self, low, high=None) -> int:
        # Python ints: an int64 n would overflow ``word * n``.
        lo, hi = (0, index(low)) if high is None else (index(low),
                                                        index(high))
        n = hi - lo
        if not (0 < n <= 1 << 32 and -1 << 63 <= lo and hi <= 1 << 63):
            return self._numpy("integers", low, high)
        while n > 1:
            if self._has:
                self._has, word = 0, self._half
            else:
                raw = self._raw()
                self._has, self._half, word = 1, raw >> 32, raw & 0xFFFFFFFF
            m = word * n
            if (m & 0xFFFFFFFF) >= n or (m & 0xFFFFFFFF) >= (2**32 - n) % n:
                return lo + (m >> 32)
        return lo


def _distinct_picks(rng: np.random.Generator, n: int, m: int) -> list[int]:
    """``rng.choice(n, size=m, replace=False)`` as ints, from scalar draws
    when that is cheaper.

    numpy picks with Floyd's sampling (Bentley & Floyd, CACM 1987): for j
    from n − m to n − 1 it draws v in [0, j] and takes j if v is already
    picked, else v.  It then shuffles the picks with Fisher–Yates swaps.
    Every step is one bounded draw, which a scalar ``rng.integers`` makes
    the same way (Lemire's method), so the picks, their order and the
    generator's state after them are ``choice``'s.  That takes 2m − 1
    scalar draws, of about 0.6 µs each in the EA (``_Draws``) and 1.4 µs
    through numpy, against about 7 µs for one ``choice`` call.  At numpy's
    cost only m <= 2 gains, so larger m goes to ``choice`` itself, and
    with it numpy's other method (shuffling an ``arange`` when n > 10,000
    and m > n // 50).
    """
    if m > 2:
        return rng.choice(n, size=m, replace=False).tolist()
    draw = rng.integers
    first = int(draw(n - m + 1))
    if m == 1:
        return [first]
    second = int(draw(n))
    if second == first:
        second = n - 1
    # The one swap: pick 1 with pick draw(2).
    return [first, second] if draw(2) else [second, first]


def _tournament(population: Population, rng: np.random.Generator,
                k: int) -> Genotype:
    """The fittest of k distinct picks, an exact tie going to the smaller
    ``(key, row)``.

    Two entrants, the default, are compared directly."""
    members = population.members
    n = len(members)
    picks = _distinct_picks(rng, n, min(k, n))
    if len(picks) == 2:
        a, b = members[picks[0]], members[picks[1]]
        best = a if a[2] < b[2] or (a[2] == b[2] and a[:2] <= b[:2]) else b
    else:
        best = min((members[i] for i in picks), key=_RANK)
    return best[:2]


def _crossover(a: Genotype, b: Genotype):
    """Swap whole networks; train frequency travels with the generator."""
    (key_a, row_a), (key_b, row_b) = a, b
    cut_a = _layer_start(key_a, ROLE_DISCRIMINATOR)
    cut_b = _layer_start(key_b, ROLE_DISCRIMINATOR)
    return ((DepthKey(key_a.d_g, key_b.d_d), row_a[:cut_a] + row_b[cut_b:]),
            (DepthKey(key_b.d_g, key_a.d_d), row_b[:cut_b] + row_a[cut_a:]))


def mutate(key: DepthKey, row: Sequence[int], config: GenotypeConfig,
           rng: np.random.Generator) -> Genotype:
    """One random move: uniform over the kinds the depths allow, then its
    parameters.

    The kinds are change (one layer's activation, weight init or size
    bin), train_freq, add (a layer of the vocabulary, inserted) and delete
    (one layer).  A change or train_freq shift is uniform over the other
    values of its slot.  Returns the new genotype's key and row.

    The kinds, roles and their columns come from a table cached per config
    and key (``_mutation_moves``); only the draws are made per call.
    """
    row = tuple(row)
    kinds = _mutation_moves(config, key)
    kind, moves = kinds[int(rng.integers(len(kinds)))]
    if kind == "train_freq":
        shift = int(rng.integers(1, config.arity)) if config.arity > 1 else 0
        return moves[0].key, ((row[0] + shift) % config.arity, *row[1:])
    depth, start, radix, key, _, blocks = moves[int(rng.integers(len(moves)))]
    if kind == "add":
        cut = start + _LAYER_WIDTH * int(rng.integers(depth + 1))
        block = blocks[int(rng.integers(len(blocks)))]
        return key, row[:cut] + block + row[cut:]
    cut = start + _LAYER_WIDTH * int(rng.integers(depth))
    if kind == "delete":
        return key, row[:cut] + row[cut + _LAYER_WIDTH:]
    attr = 1 + int(rng.integers(3))
    card = radix[attr]
    shift = int(rng.integers(1, card)) if card > 1 else 0
    cut += attr
    return key, (*row[:cut], (row[cut] + shift) % card, *row[cut + 1:])


def simple_ea(landscape: SurrogateLandscape, population: Population,
              generations: int, rng: np.random.Generator,
              config: EaConfig = EaConfig(),
              on_evaluate=None) -> EaResult:
    """Tournament EA with whole-network crossover and single-move mutation.

    The incoming population is generation 0; each later generation
    evaluates (size − elitism) fresh offspring and carries the elite over
    unevaluated, so total evaluations stay predictable.  A generation
    breeds all its offspring first, then evaluates them with one
    ``evaluate_many`` call, whatever their depth keys.  Evaluation draws
    nothing from ``rng``, and a row's fitness does not depend on its
    batch, so the result is that of evaluating each child as it is bred.
    A PCG64 ``rng`` breeds through ``_Draws``: numpy's draws and state.
    ``on_evaluate`` is called with (key, row, fitness) for every fresh
    evaluation, after the generation's batch, in breeding order.
    """
    if generations < 1:
        raise ValidationError("generations must be >= 1")
    gc = landscape.config.genotype
    size = population.size
    if config.elitism >= size:
        raise ValidationError("elitism must leave room for offspring")
    need = size - config.elitism
    trace = [population.best_fitness]
    evaluations = 0
    k = config.tournament_size
    pcg64 = type(rng.bit_generator) is np.random.PCG64
    for _ in range(generations):
        children: list[Genotype] = []
        with _Draws(rng) if pcg64 else nullcontext(rng) as draws:
            while len(children) < need:
                pair = (_tournament(population, draws, k),
                        _tournament(population, draws, k))
                if draws.random() < config.crossover_rate:
                    pair = _crossover(*pair)
                for key, row in pair:
                    if len(children) >= need:
                        break
                    if draws.random() < config.mutation_rate:
                        key, row = mutate(key, row, gc, draws)
                    children.append((key, row))
        offspring = [(key, row, fitness) for (key, row), fitness
                     in zip(children, landscape.evaluate_many(children))]
        if on_evaluate is not None:
            for member in offspring:
                on_evaluate(*member)
        evaluations += len(offspring)
        elite = sorted(population.members, key=_RANK)[:config.elitism]
        population = Population(elite + offspring)
        trace.append(population.best_fitness)
    return EaResult(best_per_generation=trace, population=population,
                    evaluations=evaluations)
