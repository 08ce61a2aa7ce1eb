"""Discrete Bayesian networks over small categorical variables.

Covers everything the metamodel needs: plug-in mutual information, Chow-Liu
and ARACNE structure learning, CPT fitting with Laplace smoothing, exact
enumeration, log-likelihood and probabilistic logic (forward) sampling.
All information quantities are in nats.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import FormatError, ValidationError, integer, parse_value

BN_FORMAT = "bn-v2"
BN_FORMAT_V1 = "bn-v1"

DEFAULT_ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over named categorical variables.

    ``parents[i]`` lists the parent indices of variable ``i`` in the order
    used to index its CPT rows.
    """

    variables: tuple[tuple[str, int], ...]
    parents: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.variables)
        if len(self.parents) != n:
            raise ValidationError("parents list must match variable count")
        for name, card in self.variables:
            if card < 1:
                raise ValidationError(f"variable {name!r} has cardinality < 1")
        for child, ps in enumerate(self.parents):
            if len(set(ps)) != len(ps):
                raise ValidationError("duplicate parent")
            for p in ps:
                if not 0 <= p < n or p == child:
                    raise ValidationError("parent index out of range")
        self.topological_order()  # raises on cycles

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(card for _, card in self.variables)

    def topological_order(self) -> tuple[int, ...]:
        """Kahn's algorithm, smallest index first for determinism."""
        n = len(self.variables)
        children: list[list[int]] = [[] for _ in range(n)]
        indegree = [0] * n
        for child, ps in enumerate(self.parents):
            indegree[child] = len(ps)
            for p in ps:
                children[p].append(child)
        ready = sorted(i for i in range(n) if indegree[i] == 0)
        order: list[int] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for child in children[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    insort(ready, child)
        if len(order) != n:
            raise ValidationError("graph contains a cycle")
        return tuple(order)


@dataclass(frozen=True, eq=False)
class BayesNet:
    """A Dag plus one conditional probability table per variable.

    A table is whole or keyed.  A whole table ``cpts[i]`` has one row per
    parent configuration, shape (n_parent_configs, cardinality_i); the
    configurations are numbered mixed-radix in the parent order of
    ``dag.parents[i]``, the first parent most significant.  A keyed table
    (``codes[i]`` is not None) stores only the rows of the configurations
    that ``codes[i]`` lists, as sorted configuration numbers: row ``j`` of
    ``cpts[i]`` belongs to configuration ``codes[i][j]``.  Every other
    configuration reads the variable's uniform row, the row ``fit_cpts``
    gives a configuration it never saw: ``alpha`` in every cell, divided by
    the row's sum.  ``codes`` None means every table is whole.

    Construction compiles the network once.  All stored rows (arrays or
    nested lists), each keyed table followed by its uniform row, are
    copied end to end into one read-only float64 array, and ``cpts[i]``
    become 2-D views into it.  A row ``x`` reads, for a whole table, cell
    ``offset_i + config * card_i + x_i``: the cells of a batch are
    ``x @ M + offsets`` with the mixed-radix index matrix
    ``M[p, i] = stride_p * card_i`` for each parent ``p`` of ``i`` and
    ``M[i, i] = 1``.  For a keyed table, column ``i`` of ``M`` holds the
    bare strides and ``offsets[i]`` the table's code base (the
    configuration counts of the keyed tables before it), so ``x @ M``
    gives a code that one ``np.searchsorted`` over all keyed tables' codes
    turns into a stored row or, if absent, the uniform row.
    """

    dag: Dag
    cpts: tuple[np.ndarray, ...]
    alpha: float
    codes: tuple[np.ndarray | None, ...] | None = None
    _flat: np.ndarray = field(init=False, repr=False)
    _plan: "_Plan" = field(init=False, repr=False)
    _cards: np.ndarray = field(init=False, repr=False)
    _order: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ValidationError("alpha must be a positive finite number")
        if self.dag.n_variables == 0:
            raise ValidationError("a network needs at least one variable")
        if len(self.cpts) != self.dag.n_variables:
            raise ValidationError("one CPT per variable required")
        if self.codes is None:
            codes = (None,) * self.dag.n_variables
        elif len(self.codes) != self.dag.n_variables:
            raise ValidationError("one code list (or None) per variable "
                                  "required")
        else:
            codes = tuple(None if c is None else _code_array(c, name)
                          for c, (name, _) in zip(self.codes,
                                                  self.dag.variables))
        object.__setattr__(self, "codes", codes)
        plan = _compile(self.dag, codes)
        uniform = [(int(miss), _uniform_row(self.dag.variables[v][1],
                                            self.alpha))
                   for v, miss in zip(plan.keyed, plan.misses[:, 0])]
        for i, (table, (rows, _)) in enumerate(zip(self.cpts, plan.shapes)):
            if len(table) != rows:
                raise ValidationError(
                    f"CPT of variable {i} has {len(table)} rows, not {rows}")
        # One table at a time, so a loaded document's lists are never all
        # held as arrays besides the flat copy.
        flat = np.empty(plan.size)
        for i, (view, table) in enumerate(zip(_views(flat, plan), self.cpts)):
            if view.size == 0:
                continue  # a keyed table without rows; its length is 0
            table = np.asarray(table)
            if table.dtype.kind not in "fiu":
                raise TypeError(f"CPT of variable {i} holds "
                                f"{table.dtype.name} values, not numbers")
            if table.shape != view.shape:
                raise ValidationError(
                    f"CPT shape {table.shape} wrong for variable {i}")
            view[...] = table
        for start, row in uniform:
            flat[start:start + row.size] = row.ravel()
        flat.flags.writeable = False
        object.__setattr__(self, "cpts", _views(flat, plan))
        if not flat.min() > 0:  # a NaN minimum fails too
            raise ValidationError("CPT entries must be strictly positive")
        row_cards = np.repeat(self.dag.cardinalities, plan.rows)
        row_sums = np.add.reduceat(flat, np.cumsum(row_cards) - row_cards)
        if not np.allclose(row_sums, 1.0, atol=1e-9):
            raise ValidationError("CPT rows must sum to 1")
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "_plan", plan)
        object.__setattr__(self, "_cards",
                           np.asarray(self.dag.cardinalities, dtype=np.uint64))
        object.__setattr__(self, "_order", self.dag.topological_order())

    def __eq__(self, other) -> bool:
        """Same DAG, alpha, keyed codes and table bytes."""
        if not isinstance(other, BayesNet):
            return NotImplemented
        return (self.dag == other.dag and self.alpha == other.alpha
                and all((a is None) == (b is None)
                        and (a is None or np.array_equal(a, b))
                        for a, b in zip(self.codes, other.codes))
                and self._flat.tobytes() == other._flat.tobytes())

    @property
    def n_variables(self) -> int:
        return self.dag.n_variables


def _as_rows(data, cards) -> np.ndarray:
    """``data`` as an int64 array of rows, one column per cardinality in
    ``cards``, after checking that every value lies in ``[0, cardinality)``
    of its column.  Empty data that is not 2-D (``[]``) is zero rows."""
    arr = np.asarray(data, dtype=np.int64)
    cards = np.asarray(cards).astype(np.uint64, copy=False)
    if arr.size == 0 and arr.ndim != 2:
        arr = arr.reshape(0, cards.size)
    if arr.ndim != 2 or arr.shape[1] != cards.size:
        raise ValidationError(f"data of shape {arr.shape} is not 2-D with "
                              f"one column per variable ({cards.size})")
    # A negative value viewed as uint64 is huge: one test checks both ends.
    bad = arr.view(np.uint64) >= cards
    if bad.any():
        column = int(np.flatnonzero(bad.any(axis=0))[0])
        raise ValidationError(f"value out of range in column {column}")
    return arr


def _square(mi) -> np.ndarray:
    """``mi`` as a float64 square matrix."""
    mi = np.asarray(mi, dtype=np.float64)
    if mi.ndim != 2 or mi.shape[0] != mi.shape[1]:
        raise ValidationError("MI matrix must be square")
    return mi


# ---------------------------------------------------------------------------
# Mutual information


# Pair codes built at once (64 KB of int64): a larger block adds to the
# peak memory of a learn and saves no time.
_PAIR_CODES = 1 << 13


def mi_matrix(data, cardinalities: Sequence[int]) -> np.ndarray:
    """Symmetric pairwise plug-in MI matrix (nats) with a zero diagonal.

    Every value must lie in ``[0, cardinality)`` of its column.  Pairs are
    grouped by their cardinalities ``(c_i, c_j)``.  Within a group, taken
    ``_PAIR_CODES // n`` pairs at a time for ``n`` rows, pair ``p``'s row
    codes ``p * c_i * c_j + x_i * c_j + x_j`` go through one
    ``np.bincount``, which gives those pairs' contingency tables at once
    as exact integer counts.  The floats are the plug-in expression evaluated
    on the group's ``(pairs, c_i, c_j)`` arrays: ``joint = counts / n``,
    row sums over the last axis, column sums over the middle one, and
    ``joint * log(joint / (p_i * p_j))`` over the non-zero cells.  numpy
    reduces each pair's slice of those arrays in the same order as it
    reduces that pair's table on its own.  Each pair's non-zero terms are
    packed in row-major order and summed with ``.sum(axis=1)`` together
    with the pairs that have as many terms, so numpy's pairwise summation
    runs over the same terms in the same order.  The result is clamped at
    0 so that round-off cannot produce tiny negatives.
    """
    cards = np.asarray(cardinalities, dtype=np.int64)
    arr = _as_rows(data, cards)
    rows, n_vars = arr.shape
    out = np.zeros((n_vars, n_vars), dtype=np.float64)
    first, second = np.triu_indices(n_vars, 1)
    if first.size == 0:
        return out
    if rows == 0:
        raise ValidationError("mutual information needs at least one row")
    columns = np.ascontiguousarray(arr.T)
    base = int(cards.max()) + 1
    shapes = cards[first] * base + cards[second]
    step = max(1, _PAIR_CODES // rows)
    pairs, terms, sizes = [], [], []
    for shape in np.flatnonzero(np.bincount(shapes)):
        ci, cj = divmod(int(shape), base)
        cells = ci * cj
        same_shape = np.flatnonzero(shapes == shape)
        for start in range(0, same_shape.size, step):
            group = same_shape[start:start + step]
            codes = columns[first[group]]
            codes *= cj
            codes += columns[second[group]]
            codes += (np.arange(group.size) * cells)[:, None]
            counts = np.bincount(codes.ravel(),
                                 minlength=group.size * cells)
            joint = counts.reshape(group.size, ci, cj) / rows
            pi = joint.sum(axis=2, keepdims=True)
            pj = joint.sum(axis=1, keepdims=True)
            mask = joint > 0
            terms.append(joint[mask]
                         * np.log(joint[mask] / (pi * pj)[mask]))
            sizes.append(mask.sum(axis=(1, 2)))
            pairs.append(group)
    pairs, terms, sizes = (np.concatenate(pairs), np.concatenate(terms),
                           np.concatenate(sizes))
    starts = np.cumsum(sizes) - sizes
    mi = np.empty(first.size)
    for size in np.flatnonzero(np.bincount(sizes)):
        same = np.flatnonzero(sizes == size)
        mi[pairs[same]] = terms[starts[same, None]
                                + np.arange(size)].sum(axis=1)
    mi = np.where(mi < 0.0, 0.0, mi)
    out[first, second] = out[second, first] = mi
    return out


def small_sample_correction(cardinalities: Sequence[int],
                            n_rows: int) -> np.ndarray:
    """Per-pair MI bias term ln(card_i * card_j) / (2N)."""
    if n_rows < 1:
        raise ValidationError("n_rows must be >= 1")
    cards = np.asarray(cardinalities, dtype=np.float64)
    return np.log(np.outer(cards, cards)) / (2.0 * n_rows)


# ---------------------------------------------------------------------------
# Structure learning


def chow_liu(mi: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-weight spanning tree over the MI matrix (Kruskal).

    One ``np.lexsort`` orders the pairs i < j by decreasing ``mi[i, j]``,
    then by ``(i, j)``, so equal weights give the lexicographically first
    tree (a star rooted at variable 0).  A pair whose ends carry different
    component labels joins the tree; the scan stops at n - 1 edges.
    """
    mi = _square(mi)
    n = mi.shape[0]
    if n < 2:
        raise ValidationError("need at least two variables for a tree")
    first, second = np.triu_indices(n, 1)
    order = np.lexsort((second, first, -mi[first, second]))
    label = np.arange(n)
    edges = []
    for i, j in zip(first[order].tolist(), second[order].tolist()):
        if label[i] != label[j]:
            label[label == label[j]] = label[i]
            edges.append((i, j))
            if len(edges) == n - 1:
                break
    return sorted(edges)


def aracne_skeleton(mi: np.ndarray, dpi_tolerance: float = 0.1,
                    threshold_correction: np.ndarray | None = None,
                    ) -> list[tuple[int, int]]:
    """ARACNE skeleton: MI thresholding followed by DPI triangle pruning.

    An edge (i, j), i < j, survives thresholding when its (optionally
    bias-corrected) MI ``mi[i, j]`` is strictly positive.  Every triangle
    of surviving edges is then scanned: its weakest edge, the first of
    (i, j), (i, k), (j, k) that holds its smallest MI, is marked for
    removal when its MI is below ``(1 - dpi_tolerance)`` times the smaller
    MI of the other two.  Marks are computed against the original MI
    matrix and applied only after all triangles have been scanned.

    The scan works on arrays.  The triangles are read off the boolean
    upper-triangular matrix of surviving edges: edge (i, j) closes one
    with each k whose edges (i, k) and (j, k) both survive.  Their MIs
    form a ``(t, 3)`` array in the edge order above.
    ``np.argmin`` along the rows returns the first minimum, which is the
    smallest ``(mi, edge)`` because a triangle's edges are listed in
    lexicographic order.  Only comparisons and one product per
    triangle touch the floats, so the edges are those of the scan one
    triangle at a time.

    Args:
        mi: symmetric pairwise MI matrix.
        dpi_tolerance: epsilon in [0, 1]; 1 disables pruning entirely.
        threshold_correction: per-pair penalty subtracted before
            thresholding only (DPI still compares raw MI values); the
            same shape as ``mi``.
    """
    mi = _square(mi)
    if not 0.0 <= dpi_tolerance <= 1.0:
        raise ValidationError("dpi_tolerance must lie in [0, 1]")
    corrected = mi
    if threshold_correction is not None:
        correction = np.asarray(threshold_correction, dtype=np.float64)
        if correction.shape != mi.shape:
            raise ValidationError(
                f"threshold_correction has shape {correction.shape}, "
                f"not the MI matrix's {mi.shape}")
        corrected = mi - correction
    kept = np.triu(corrected > 0.0, 1)
    # Edge (i, j) closes a triangle with every k that both i and j keep
    # an edge to; k > j as ``kept`` is upper triangular.
    i, j = np.nonzero(kept)
    edge, k = np.nonzero(kept[i] & kept[j])
    i, j = i[edge], j[edge]
    rows, cols = np.stack([i, i, j], axis=1), np.stack([j, k, k], axis=1)
    values = mi[rows, cols]
    t = np.arange(len(values))
    weakest = values.argmin(axis=1)
    others = np.minimum(values[t, (weakest + 1) % 3],
                        values[t, (weakest + 2) % 3])
    prune = values[t, weakest] < (1.0 - dpi_tolerance) * others
    kept[rows[prune, weakest[prune]], cols[prune, weakest[prune]]] = False
    return list(zip(*(axis.tolist() for axis in np.nonzero(kept))))


def orient(edges: Iterable[tuple[int, int]],
           variables: Sequence[tuple[str, int]]) -> Dag:
    """Direct every undirected edge from the lower variable index to the
    higher, which is the schema order for flattened genotypes.  Acyclicity
    is guaranteed because edge direction follows one global total order.
    """
    n = len(variables)
    parents: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise ValidationError(f"bad edge ({a}, {b})")
        # Edges are undirected; (a, b) and (b, a) describe the same edge.
        parents[max(a, b)].add(min(a, b))
    return Dag(variables=tuple(variables),
               parents=tuple(tuple(sorted(ps)) for ps in parents))


# ---------------------------------------------------------------------------
# Parameters and queries


# Every integer up to 2**53 is exact in float64, and so are sums and
# products of such integers that stay below it: the cell indices and
# configuration codes below are computed with float64 matrix products.
_EXACT = 2 ** 53


class _Plan(NamedTuple):
    """The compiled layout of a network's tables (see ``BayesNet``)."""

    radix: np.ndarray       # (V, V) index and code matrix M
    offsets: np.ndarray     # (V, 1) first cell (whole) or code base (keyed)
    keyed: np.ndarray       # the keyed variables, ascending
    slot: tuple[int, ...]   # each variable's position in ``keyed``, or -1
    keys: np.ndarray        # every keyed code plus its base, sorted, then inf
    hits: np.ndarray        # the first cell of the row each key names
    misses: np.ndarray      # (keyed, 1) first cell of each uniform row
    starts: tuple[int, ...]               # first cell of each table
    shapes: tuple[tuple[int, int], ...]   # stored rows x cardinality
    rows: tuple[int, ...]   # rows in the flat array: stored, plus uniform
    size: int               # cells in the flat array


def _code_array(codes, name: str) -> np.ndarray:
    """``codes`` as a read-only 1-D int64 array (kept if it is one)."""
    arr = np.asarray(codes)
    if arr.size == 0:
        arr = np.zeros(0, dtype=np.int64).reshape(arr.shape)
    if arr.ndim != 1 or arr.dtype.kind not in "iu" or (
            arr.size and arr.max() >= _EXACT):
        raise ValidationError(
            f"variable {name!r}: codes must be a list of integers below "
            f"its configuration count")
    if arr.dtype != np.int64 or arr.flags.writeable:
        arr = arr.astype(np.int64)
        arr.flags.writeable = False
    return arr


_NO_CODES = np.zeros(0, dtype=np.int64)  # a keyed table with no rows yet
_NO_CODES.flags.writeable = False


def _compile(dag: Dag, codes: Sequence[np.ndarray | None]) -> _Plan:
    """The flat layout of ``dag`` with the keyed tables that ``codes``
    gives; raises if a code is out of order or range, or if the keyed
    tables' configurations cannot all be numbered exactly."""
    cards = dag.cardinalities
    entries: list[tuple[int, int, int]] = []  # (row, column, value) of M
    offsets, slot, keyed, keys, hits, misses = [], [], [], [], [], []
    starts, shapes, rows = [], [], []
    size = base = 0
    for v, ((name, card), parents, code) in enumerate(
            zip(dag.variables, dag.parents, codes)):
        # A whole table's column of M counts cells, a keyed one's codes.
        stride = scale = card if code is None else 1
        for p in reversed(parents):
            entries.append((p, v, stride))
            stride *= cards[p]
        configs = stride // scale
        if (configs if code is None else base + configs) > _EXACT:
            raise ValidationError(
                f"variable {name!r}: its {configs} parent configurations "
                f"cannot be numbered exactly")
        starts.append(size)
        if code is None:
            entries.append((v, v, 1))
            offsets.append(size)
            slot.append(-1)
            shapes.append((configs, card))
            rows.append(configs)
            size += configs * card
            continue
        if code.size and (code[0] < 0 or code[-1] >= configs
                          or (np.diff(code) <= 0).any()):
            raise ValidationError(
                f"variable {name!r}: codes must be increasing, distinct "
                f"and below {configs}")
        offsets.append(base)
        slot.append(len(keyed))
        keyed.append(v)
        keys.append(code + base)
        hits.append(size + card * np.arange(code.size))
        shapes.append((code.size, card))
        rows.append(code.size + 1)
        size += code.size * card
        misses.append(size)
        size += card
        base += configs
    radix = np.zeros((len(cards), len(cards)))
    if entries:
        at = np.array(entries, dtype=np.float64)
        radix[at[:, 0].astype(np.intp), at[:, 1].astype(np.intp)] = at[:, 2]
    return _Plan(
        radix=radix, offsets=np.array(offsets, dtype=np.float64)[:, None],
        keyed=np.array(keyed, dtype=np.intp), slot=tuple(slot),
        keys=np.concatenate(keys + [[np.inf]]).astype(np.float64),
        hits=np.concatenate(hits + [[0]]).astype(np.float64),
        misses=np.array(misses, dtype=np.float64).reshape(-1, 1),
        starts=tuple(starts), shapes=tuple(shapes), rows=tuple(rows),
        size=size)


def _uniform_row(card: int, alpha: float) -> np.ndarray:
    """The row of a parent configuration without data, computed as
    ``fit_cpts`` normalises every row: smoothed zero counts over their
    sum."""
    row = np.full((1, card), alpha)
    return row / row.sum(axis=1, keepdims=True)


def _views(flat: np.ndarray, plan: _Plan,
           uniform: bool = False) -> tuple[np.ndarray, ...]:
    """Each table's stored rows (with its uniform row, if asked) as a
    2-D view of ``flat``."""
    rows = plan.rows if uniform else [stored for stored, _ in plan.shapes]
    return tuple(flat[start:start + r * card].reshape(r, card)
                 for start, r, (_, card) in zip(plan.starts, rows,
                                                plan.shapes))


def _cells(plan: _Plan, arr: np.ndarray) -> np.ndarray:
    """The flat cell (as a float64) that each variable reads for each row,
    shape (variables, rows)."""
    cells = plan.radix.T @ arr.T + plan.offsets
    if plan.keyed.size:
        keyed = plan.keyed
        codes = cells[keyed]
        pos = np.searchsorted(plan.keys, codes)
        cells[keyed] = (np.where(plan.keys[pos] == codes, plan.hits[pos],
                                 plan.misses) + arr.T[keyed])
    return cells


def fit_cpts(dag: Dag, data, alpha: float = 1.0) -> BayesNet:
    """Maximum likelihood CPTs with Laplace smoothing.

    P(x = v | pa = c) = (count(v, c) + alpha) / (count(c) + alpha * card(x));
    parent configurations never observed fall back to the uniform row.
    A table stays whole when it has at most ``max(1, n)`` parent
    configurations for ``n`` rows of data; a larger one is keyed and keeps
    only the rows of the configurations the data holds, so no table has
    more than ``max(1, n)`` rows.  All cells are counted with one
    ``np.bincount`` over the flat layout, and each table's rows are
    normalised in place in the flat array.

    Args:
        dag: network structure.
        data: rows x variables integer array (may be empty).
        alpha: smoothing pseudocount, must be > 0.
    """
    if alpha <= 0:
        raise ValidationError("alpha must be > 0")
    arr = _as_rows(data, dag.cardinalities)
    cards, limit = dag.cardinalities, max(1, arr.shape[0])
    codes = [_NO_CODES if math.prod(cards[p] for p in ps) > limit else None
             for ps in dag.parents]
    plan = _compile(dag, codes)
    if plan.keyed.size:
        bases = plan.offsets[plan.keyed]
        found = np.unique(plan.radix.T[plan.keyed] @ arr.T + bases)
        cuts = np.searchsorted(found, bases[1:, 0])
        for v, base, part in zip(plan.keyed, bases[:, 0],
                                 np.split(found, cuts)):
            codes[v] = _code_array((part - base).astype(np.int64),
                                   dag.variables[v][0])
        plan = _compile(dag, codes)
    cells = _cells(plan, arr).astype(np.intp).ravel()
    # Float counts (sums of 1.0, so exact) let the smoothing run in place;
    # bincount returns int64 for empty data even with weights.
    flat = np.bincount(cells, weights=np.ones(cells.size),
                       minlength=plan.size).astype(np.float64, copy=False)
    flat += alpha
    for table in _views(flat, plan, uniform=True):
        table /= table.sum(axis=1, keepdims=True)
    return BayesNet(dag=dag, cpts=_views(flat, plan), alpha=float(alpha),
                    codes=tuple(codes))


def log_likelihood_many(bn: BayesNet, data) -> np.ndarray:
    """Vectorized joint log-likelihood, one value per row.

    The cells are gathered one column per row, and the log-probabilities are
    added strictly in variable order (``np.add.accumulate``), so each value
    is bit for bit the running sum ``total += log P(x_v | pa_v)`` over
    v = 0, 1, ...  Keyed tables cost one ``np.searchsorted`` over their
    codes; a network without them runs one gather.
    """
    arr = _as_rows(data, bn._cards)
    probs = bn._flat[_cells(bn._plan, arr).astype(np.intp)]
    return np.add.accumulate(np.log(probs, out=probs), axis=0)[-1].copy()


def pls_sample_many(bn: BayesNet, n: int, rng: np.random.Generator) -> np.ndarray:
    """Forward-sample ``n`` full assignments in topological order.

    Each variable draws one uniform per row and takes the number of
    cumulative CPT-row probabilities below it as its value.
    """
    if n < 0:
        raise ValidationError("sample count must be >= 0")
    cards = bn.dag.cardinalities
    plan = bn._plan
    out = np.zeros((bn.n_variables, n))  # one row per variable
    for v in bn._order:
        # Variables not yet sampled are 0, so M's column gives each row's
        # first cell (whole table) or configuration code (keyed table).
        first = plan.radix[:, v] @ out + plan.offsets[v, 0]
        if plan.slot[v] >= 0:
            pos = np.searchsorted(plan.keys, first)
            first = np.where(plan.keys[pos] == first, plan.hits[pos],
                             plan.misses[plan.slot[v], 0])
        cells = np.add.outer(np.arange(cards[v]), first.astype(np.intp))
        cumulative = np.cumsum(bn._flat[cells], axis=0)
        out[v] = (cumulative < rng.random(n)).sum(axis=0)
    return out.T.astype(np.int64, order="C")


def enumerate_joint(bn: BayesNet) -> tuple[np.ndarray, np.ndarray]:
    """All assignments and their probabilities, for small state spaces.

    Returns (assignments, probabilities) where assignments has one row per
    joint state in row-major order.  Raises, before allocating anything,
    when the state space exceeds ``DEFAULT_ENUMERATION_CAP`` (1e6).
    """
    cards = bn.dag.cardinalities
    size = math.prod(cards)
    if size > DEFAULT_ENUMERATION_CAP:
        raise ValidationError(f"state space {size} exceeds enumeration cap "
                              f"{DEFAULT_ENUMERATION_CAP}")
    grids = np.indices(cards).reshape(len(cards), size).T
    probs = np.exp(log_likelihood_many(bn, grids))
    return grids, probs


# ---------------------------------------------------------------------------
# Serialization (format tag bn-v2, full-precision decimal entries; bn-v1,
# which has only whole tables, is still read)


def bn_to_json_obj(bn: BayesNet) -> dict:
    return {
        "format": BN_FORMAT,
        "alpha": bn.alpha,
        "variables": [[name, card] for name, card in bn.dag.variables],
        "parents": [list(ps) for ps in bn.dag.parents],
        "codes": [None if code is None else code.tolist()
                  for code in bn.codes],
        "cpts": [table.tolist() for table in bn.cpts],
    }


def bn_dag_from_json_obj(obj: dict) -> Dag:
    """The DAG of a network document, read without its tables."""
    tag = obj.get("format") if isinstance(obj, dict) else None
    if tag not in (BN_FORMAT, BN_FORMAT_V1):
        raise FormatError(f"expected a {BN_FORMAT} or {BN_FORMAT_V1} "
                          f"document")
    what = f"{tag} document"
    try:
        return Dag(variables=tuple(
            (str(name), parse_value(card, integer,
                                    f"{what}: cardinality of {name!r}"))
            for name, card in obj["variables"]),
            parents=tuple(
                tuple(parse_value(p, integer,
                                  f"{what}: parent of variable {v}")
                      for p in ps)
                for v, ps in enumerate(obj["parents"])))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad {what}: {exc}") from exc


def bn_from_json_obj(obj: dict) -> BayesNet:
    dag = bn_dag_from_json_obj(obj)
    what = f"{obj['format']} document"
    try:
        codes = None
        if obj["format"] == BN_FORMAT:
            codes = tuple(
                None if code is None else np.array(
                    [parse_value(c, integer, f"{what}: code of variable {v}")
                     for c in code], dtype=np.int64)
                for v, code in enumerate(obj["codes"]))
        alpha = obj["alpha"]
        # alpha's range is BayesNet's to check; its type is checked here.
        if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
            raise TypeError(f"alpha {alpha!r} is not a number")
        return BayesNet(dag=dag, cpts=tuple(obj["cpts"]), alpha=float(alpha),
                        codes=codes)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad {what}: {exc}") from exc
