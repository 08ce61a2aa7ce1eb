"""Seeded synthetic fitness functions over the genotype space.

A landscape stands in for GAN training plus quality metrics: fitness is
minimized, deterministic given (seed, genotype), and built from a planted
elite pattern so tests and experiments know the ground truth.  Families of
landscapes share a master pattern and interaction structure (drawn from
``family_seed``); each problem seed flips a fraction of the pattern and
redraws the tables, so cross-problem data is coherent but not identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .bayesnet import _ordered_sum
from .errors import (
    FormatError,
    ValidationError,
    config_to_json,
    integer,
    integers,
    number,
    parse_field,
    parse_value,
    read_config,
    read_json,
    seed,
)
from .genotype import (
    DepthKey,
    Genotype,
    GenotypeConfig,
    ROLE_DISCRIMINATOR,
    _batch,
    _layer_start,
    _per_key,
    joint_schema,
)

LANDSCAPE_FORMAT = "land-v1"

# (section, layer, attr); layer is -1 for the global train-frequency slot.
Position = tuple[str, int, str]


@dataclass(frozen=True)
class LandscapeConfig:
    """Shape of a landscape family.

    margin is the guaranteed fitness gap between the planted value and any
    other value of a slot, so the planted pattern is the unique per-key
    argmin at sigma_noise = 0.  base_scale weights the depth-key penalty
    against the per-slot tables; flip_prob is the per-slot chance that a
    problem deviates from the family master pattern.
    """

    genotype: GenotypeConfig
    family_seed: int = 0
    sigma_noise: float = 0.05
    margin: float = 0.1
    base_scale: float = 50.0
    flip_prob: float = 0.2
    jitter: float = 0.05
    n_pairs: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.margin < 0.5:
            raise ValidationError("margin must lie in (0, 0.5)")
        if self.sigma_noise < 0:
            raise ValidationError("sigma_noise must be >= 0")
        if not 0 <= self.flip_prob <= 1:
            raise ValidationError("flip_prob must lie in [0, 1]")
        if self.base_scale < 0 or self.jitter < 0:
            raise ValidationError("base_scale and jitter must be >= 0")

    to_json_obj = config_to_json
    from_json_obj = classmethod(read_config)


def _max_key(config: GenotypeConfig) -> DepthKey:
    return DepthKey(config.generator_depth_max, config.discriminator_depth_max)


def _all_positions(config: GenotypeConfig) -> tuple[tuple[Position, int], ...]:
    """Every slot position at the deepest schema, with its cardinality."""
    schema = joint_schema(config, _max_key(config))
    return tuple(((s.section, s.layer, s.attr), s.cardinality)
                 for s in schema.slots)


def _position_str(pos: Position) -> str:
    return f"{pos[0]}:{pos[1]}:{pos[2]}"


class _Layout(NamedTuple):
    """A landscape's terms at every depth key, laid out for one gather.

    ``table`` holds, end to end: every depth key's base, by key index; each
    slot position's unary table followed by one −0.0 cell; and each pair's
    table with a −0.0 row and a −0.0 column added, raveled.  A padded row
    holds a key's index, then one value per slot position of the deepest
    schema, where a position the key lacks holds its cardinality, which
    selects its −0.0 cell.  Term t of a padded row ``x`` reads
    ``table[(radix @ x)[t] + offsets[t]]``: the base term has 1 in column
    0, position j's unary term has 1 in column 1 + j, and a pair term over
    positions (a, b) has the cardinality of b plus one in column 1 + a and
    1 in column 1 + b.  Terms run base, unaries in position order, pairs in
    ``pairs`` order, so a key reads its own terms in its order with −0.0
    terms between them; as x + (−0.0) is x bit for bit, a padded row sums
    to the bits of its key's own terms.

    ``bounds`` holds, per key index, one above the largest value each
    column of its padded rows may hold.  ``texts`` holds the noise text of
    each base and unary cell: a key's text prefix, a value's digits (after
    a comma, but for the first position), and "" for a −0.0 cell, so a
    row's noise text is the texts of its base and unary cells, end to end.
    """

    table: np.ndarray
    radix: np.ndarray     # (terms, 1 + positions)
    offsets: np.ndarray   # (terms, 1)
    bounds: np.ndarray    # (keys, 1 + positions), uint64
    texts: np.ndarray     # object
    pads: dict            # DepthKey -> _Pad


class _Pad(NamedTuple):
    """How a row of one depth key becomes a padded row: its key's index,
    the row's column where the discriminator starts (``split``), the pad
    values after its generator layers and after its discriminator layers,
    the padded columns that hold its slots, and ``template``, one padded
    row of the key's index and every position's cardinality."""

    index: int
    split: int
    gen_pad: tuple[int, ...]
    disc_pad: tuple[int, ...]
    cols: np.ndarray
    template: np.ndarray


class SurrogateLandscape:
    """Additive planted-pattern fitness: base(depth) + unary + pairwise + noise.

    Pure and immutable; evaluation may run concurrently.  Lower is better.
    ``make_landscape`` draws no negative cell, so its fitness is >= 0; a
    loaded document's cells may have either sign, but not a sum of their
    largest sizes that overflows.
    """

    def __init__(self, seed: int, config: LandscapeConfig,
                 target_key: DepthKey, master: dict[Position, int],
                 planted: dict[Position, int],
                 unary: dict[Position, np.ndarray],
                 pairs: tuple[tuple[Position, Position], ...],
                 pairwise: dict[tuple[Position, Position], np.ndarray],
                 base: dict[DepthKey, float]):
        self.seed = int(seed)
        self.config = config
        self.target_key = target_key
        self._master = dict(master)
        self._planted = dict(planted)
        self._unary = {p: np.asarray(t, dtype=float) for p, t in unary.items()}
        self._pairs = tuple(pairs)
        self._pairwise = {p: np.asarray(t, dtype=float)
                          for p, t in pairwise.items()}
        self._base = dict(base)
        # Rounding is monotone: no fitness is larger in size than its
        # terms' largest cells, added in evaluation order, and sigma_noise.
        bound = max(map(abs, self._base.values()))
        for table in [*(self._unary[p] for p, _ in _all_positions(
                config.genotype)), *map(self._pairwise.get, self._pairs)]:
            bound += float(np.abs(table).max())
        if not np.isfinite(bound + config.sigma_noise):
            raise ValidationError("landscape cells too large: a fitness "
                                  "could overflow to infinity")

    @property
    def pairs(self) -> tuple[tuple[Position, Position], ...]:
        return self._pairs

    # -- evaluation ----------------------------------------------------------

    @cached_property
    def _layout(self) -> _Layout:
        """The padded term layout, built on first use."""
        gc = self.config.genotype
        positions = _all_positions(gc)
        column = {pos: j for j, (pos, _) in enumerate(positions)}
        cards = [card for _, card in positions]
        keys = gc.depth_keys()
        n = len(positions)
        pairs = [(column[a], column[b]) for a, b in self._pairs]
        sizes = ([len(keys)] + [card + 1 for card in cards]
                 + [(cards[a] + 1) * (cards[b] + 1) for a, b in pairs])
        starts = np.cumsum(sizes) - sizes
        table = np.full(starts[-1] + sizes[-1], -0.0)
        table[:len(keys)] = [self._base[key] for key in keys]
        texts = np.full(starts[1 + n], "", dtype=object)
        texts[:len(keys)] = [f"{self.config.family_seed}|{self.seed}|"
                             f"{key.d_g}|{key.d_d}|" for key in keys]
        digits = [f",{v}" for v in range(max(cards))]
        for j, (pos, card) in enumerate(positions):
            table[starts[1 + j]:starts[1 + j] + card] = self._unary[pos]
            texts[starts[1 + j]:starts[1 + j] + card] = (
                digits[:card] if j else [str(v) for v in range(card)])
        radix = np.zeros((len(sizes), 1 + n))
        radix[np.arange(1 + n), np.arange(1 + n)] = 1
        for term, (a, b), pair in zip(range(1 + n, len(sizes)), pairs,
                                      self._pairs):
            block = table[starts[term]:starts[term] + sizes[term]]
            block.reshape(cards[a] + 1, cards[b] + 1)[:-1, :-1] = \
                self._pairwise[pair]
            radix[term, 1 + a] = cards[b] + 1
            radix[term, 1 + b] = 1
        # A key's slots are the deepest schema's up to its own split, then
        # as many from the deepest schema's split on.
        deep = _layer_start(_max_key(gc), ROLE_DISCRIMINATOR)
        bounds = np.array([[len(keys)] + [card + 1 for card in cards]]
                          * len(keys), dtype=np.uint64)
        pads = {}
        for index, key in enumerate(keys):
            split = _layer_start(key, ROLE_DISCRIMINATOR)
            end = deep + len(joint_schema(gc, key)) - split
            cols = np.array([*range(1, 1 + split), *range(1 + deep, 1 + end)])
            bounds[index, cols] -= 1
            pads[key] = _Pad(index, split, tuple(cards[split:deep]),
                             tuple(cards[end:]), cols,
                             np.array([[index, *cards]], dtype=np.int64))
        return _Layout(table=table, radix=radix,
                       offsets=starts.astype(np.float64)[:, None],
                       bounds=bounds, texts=texts, pads=pads)

    def evaluate_values(self, key: DepthKey,
                        values: np.ndarray) -> np.ndarray:
        """Fitness for a batch of slot-value rows at one depth key.

        A row's fitness is base + each unary term in slot order + each
        pairwise term in pair order + noise, added left to right, so its
        float depends on that row alone.  The rows are written into copies
        of the key's ``template`` and range-checked and summed as
        ``evaluate_many``'s are.  Only a fault, a key form only it reads or
        rows that are not int64 run ``_batch``, which casts the rows or
        raises their first fault.
        """
        layout = self._layout
        try:
            values = np.asarray(values)
            pad = layout.pads[key] if values.dtype == np.int64 else None
        except (KeyError, TypeError, ValueError):
            pad = None
        if pad is not None and values.shape[1:] == pad.cols.shape:
            padded = pad.template.repeat(len(values), axis=0)
            padded[:, pad.cols] = values
            if not np.count_nonzero(padded.view(np.uint64)
                                    >= layout.bounds[pad.index]):
                return self._fitness(padded)
        return self.evaluate_values(*_batch(self.config.genotype, key,
                                            values))

    def evaluate(self, genotype: Genotype) -> float:
        """Fitness of one ``(key, row)``; raises on an unsupported key or
        a row outside the key's schema."""
        key, row = genotype
        return float(self.evaluate_values(key, [row])[0])

    def evaluate_many(self, genotypes: Sequence[Genotype]) -> list[float]:
        """Fitness of each ``(key, row)``, in order, whatever their keys:
        one padded row each (an integral float read as its int), with one
        range check and one ``_fitness`` for the whole batch, so each value
        has the bits ``evaluate_values`` gives its row.  A fault (a key, a
        row's width or a value) raises ``evaluate_values``' error for the
        first faulty key, keys in the order they first appear."""
        if not genotypes:
            return []
        layout = self._layout
        pads = layout.pads
        try:
            rows = []
            for key, row in genotypes:
                pad = pads[key]
                rows.append((pad.index, *row[:pad.split], *pad.gen_pad,
                             *row[pad.split:], *pad.disc_pad))
            padded = integers(np.array(rows), "column {}".format)
        except (KeyError, TypeError, ValueError, OverflowError,
                ValidationError):
            return self._by_key(genotypes)
        if (padded.shape[1:] != layout.radix.shape[1:]
                or np.count_nonzero(padded.view(np.uint64)
                                    >= layout.bounds[padded[:, 0]])):
            return self._by_key(genotypes)
        return self._fitness(padded).tolist()

    def _fitness(self, padded: np.ndarray) -> np.ndarray:
        """Fitness of in-range padded rows: one product for their cells, one
        gather into a (term, row) array, ``_ordered_sum``, and sigma_noise
        times a uniform draw per row from the sha256 of its noise text."""
        layout, sigma = self._layout, self.config.sigma_noise
        cells = (layout.radix.dot(padded.T) + layout.offsets).astype(np.intp)
        total = _ordered_sum(layout.table[cells])
        if sigma > 0:
            total += [sigma * (int.from_bytes(hashlib.sha256(
                "".join(texts).encode()).digest()[:8], "big") / 2.0 ** 64)
                for texts in layout.texts[cells[:padded.shape[1]].T].tolist()]
        return total

    def _by_key(self, genotypes: Sequence[Genotype]) -> list[float]:
        """``evaluate_many`` for a refused batch: each key's rows through
        ``evaluate_values``, so the first faulty key to appear raises."""
        return _per_key(genotypes, lambda key, rows:
                        self.evaluate_values(key, rows).tolist())


def make_landscape(seed: int, config: LandscapeConfig) -> SurrogateLandscape:
    """Build the landscape for one problem seed within a family.

    Family-level draws (master pattern, target depth key, interaction pair
    locations) depend only on ``config.family_seed``; problem-level draws
    (flips, table contents, base jitter) depend on ``seed`` as well.
    """
    gc = config.genotype
    positions = _all_positions(gc)
    family_rng = np.random.default_rng([int(config.family_seed), 0x5EED])
    master = {pos: int(family_rng.integers(card))
              for pos, card in positions}
    lo_g = min(2, gc.generator_depth_max)
    lo_d = min(2, gc.discriminator_depth_max)
    target_key = DepthKey(
        int(family_rng.integers(lo_g, gc.generator_depth_max + 1)),
        int(family_rng.integers(lo_d, gc.discriminator_depth_max + 1)))
    all_pairs = [(positions[i][0], positions[j][0])
                 for i in range(len(positions))
                 for j in range(i + 1, len(positions))]
    n_pairs = (len(positions) // 2 if config.n_pairs is None
               else config.n_pairs)
    if not 0 <= n_pairs <= len(all_pairs):
        raise ValidationError(f"n_pairs must lie in [0, {len(all_pairs)}]")
    chosen = family_rng.choice(len(all_pairs), size=n_pairs, replace=False)
    pairs = tuple(all_pairs[i] for i in sorted(int(c) for c in chosen))

    problem_rng = np.random.default_rng(
        [int(seed), int(config.family_seed), 0xAB5])
    planted: dict[Position, int] = {}
    for pos, card in positions:
        value = master[pos]
        if card >= 2 and problem_rng.random() < config.flip_prob:
            shift = int(problem_rng.integers(1, card))
            value = (value + shift) % card
        planted[pos] = value
    unary: dict[Position, np.ndarray] = {}
    for pos, card in positions:
        table = problem_rng.uniform(config.margin, 1.0, size=card)
        table[planted[pos]] = 0.0
        if planted[pos] != master[pos]:
            # The abandoned family value stays nearly as good, giving
            # near-ties that reward systematic neighbourhood sweeps.
            table[master[pos]] = problem_rng.uniform(
                config.margin, 2 * config.margin)
        unary[pos] = table
    card_of = dict(positions)
    pairwise: dict[tuple[Position, Position], np.ndarray] = {}
    for a, b in pairs:
        table = problem_rng.uniform(config.margin, 1.0,
                                    size=(card_of[a], card_of[b]))
        table[planted[a], planted[b]] = 0.0
        pairwise[(a, b)] = table
    span_g = max(1, gc.generator_depth_max - 1)
    span_d = max(1, gc.discriminator_depth_max - 1)
    base: dict[DepthKey, float] = {}
    for key in gc.depth_keys():
        dist = 0.5 * (abs(key.d_g - target_key.d_g) / span_g
                      + abs(key.d_d - target_key.d_d) / span_d)
        wobble = problem_rng.uniform(0.0, config.jitter)
        base[key] = config.base_scale * (dist + wobble)
    return SurrogateLandscape(
        seed=seed, config=config, target_key=target_key, master=master,
        planted=planted, unary={p: unary[p] for p, _ in positions},
        pairs=pairs, pairwise=pairwise, base=base)


def landscape_to_json_obj(land: SurrogateLandscape) -> dict:
    return {
        "format": LANDSCAPE_FORMAT,
        "seed": land.seed,
        "config": land.config.to_json_obj(),
        "target_key": list(land.target_key),
        "master": {_position_str(p): v for p, v in land._master.items()},
        "planted": {_position_str(p): v for p, v in land._planted.items()},
        "unary": {_position_str(p): t.tolist()
                  for p, t in land._unary.items()},
        "pairs": [[_position_str(a), _position_str(b)]
                  for a, b in land.pairs],
        "pairwise": [land._pairwise[pair].tolist() for pair in land.pairs],
        "base": {f"{k.d_g},{k.d_d}": v for k, v in land._base.items()},
    }


def landscape_from_json_obj(obj: dict) -> SurrogateLandscape:
    """Parse a landscape document, checking it against its genotype config:
    ``unary``, ``master`` and ``planted`` hold one entry per slot position of
    the deepest schema, ``base`` one per depth key, ``pairs`` lists each pair
    of two distinct positions at most once (in either order), and every
    table's shape matches its slots' cardinalities."""
    what = f"{LANDSCAPE_FORMAT} document"
    if not isinstance(obj, dict) or obj.get("format") != LANDSCAPE_FORMAT:
        raise FormatError(f"expected a {what}")

    def keyed(name: str, keys: dict, parse) -> dict:
        """``obj[name]``, keyed by exactly the texts of ``keys``; each value
        parsed by ``parse(value, text)`` and keyed by what its text names."""
        entries = obj[name]
        if not isinstance(entries, dict) or set(entries) != set(keys):
            raise FormatError(f"bad {what}: {name} keys do not match the "
                              f"genotype config")
        return {keys[text]: parse(value, text)
                for text, value in entries.items()}

    def table(value, shape: tuple[int, ...], name: str) -> np.ndarray:
        cells = np.array(value, dtype=object)
        if cells.shape != shape:
            raise FormatError(f"bad {what}: {name} has shape {cells.shape}, "
                              f"not {shape}")
        return np.array([parse_value(v, number, f"{what}: {name} entry")
                         for v in cells.flat], dtype=float).reshape(shape)

    def slot_value(name: str):
        return lambda value, text: parse_value(
            value, integer, f"{what}: {name} value {text!r}")

    def depth_key(value) -> DepthKey:  # raises unless two integers
        return DepthKey(*map(integer, value))

    try:
        config = LandscapeConfig.from_json_obj(obj["config"])
        slots = _all_positions(config.genotype)
        positions = {_position_str(p): p for p, _ in slots}
        cards = {_position_str(p): card for p, card in slots}
        target_key = parse_field(obj, "target_key", depth_key, what)
        if target_key not in config.genotype.depth_keys():
            raise FormatError(f"bad {what}: target_key {list(target_key)} "
                              f"is not a depth key of its genotype config")
        pairs, tables = obj["pairs"], obj["pairwise"]
        if not (isinstance(pairs, list) and isinstance(tables, list)
                and len(pairs) == len(tables)
                and all(isinstance(pair, list) and len(pair) == 2
                        and all(isinstance(t, str) and t in positions
                                for t in pair) for pair in pairs)):
            raise FormatError(f"bad {what}: pairs must list two slot "
                              f"positions per pairwise table")
        seen: set[frozenset[str]] = set()
        for a, b in pairs:
            if a == b or frozenset((a, b)) in seen:
                raise FormatError(f"bad {what}: pairs list {a}/{b} "
                                  f"{'with itself' if a == b else 'twice'}")
            seen.add(frozenset((a, b)))
        return SurrogateLandscape(
            seed=parse_field(obj, "seed", seed, what),
            config=config,
            target_key=target_key,
            master=keyed("master", positions, slot_value("master")),
            planted=keyed("planted", positions, slot_value("planted")),
            unary=keyed("unary", positions, lambda value, text: table(
                value, (cards[text],), f"unary table {text!r}")),
            pairs=tuple((positions[a], positions[b]) for a, b in pairs),
            pairwise={(positions[a], positions[b]): table(
                          value, (cards[a], cards[b]),
                          f"pairwise table {a}/{b}")
                      for (a, b), value in zip(pairs, tables)},
            base=keyed("base", {f"{k.d_g},{k.d_d}": k
                                for k in config.genotype.depth_keys()},
                       lambda value, text: parse_value(
                           value, number, f"{what}: base value {text!r}")))
    except KeyError as exc:  # only a top-level key is read unchecked
        raise FormatError(f"bad {what}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad {what}: {exc}") from exc


def save_landscape(land: SurrogateLandscape, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(landscape_to_json_obj(land), sort_keys=True)
                     + "\n")


def load_landscape(path) -> SurrogateLandscape:
    """Read a landscape file; an error in its document names the file."""
    return read_json(path, landscape_from_json_obj)
