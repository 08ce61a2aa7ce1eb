"""Discrete Bayesian networks over small categorical variables.

Covers everything the metamodel needs: plug-in mutual information, Chow-Liu
and ARACNE structure learning, CPT fitting with Laplace smoothing, exact
enumeration, log-likelihood and probabilistic logic (forward) sampling.
All information quantities are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError, ValidationError

BN_FORMAT = "bn-v1"

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

    def edges(self) -> list[tuple[int, int]]:
        """(parent, child) pairs, sorted."""
        return sorted((p, c) for c, ps in enumerate(self.parents) for p in ps)

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
                    # Insertion keeps the ready list sorted.
                    lo = 0
                    while lo < len(ready) and ready[lo] < child:
                        lo += 1
                    ready.insert(lo, child)
        if len(order) != n:
            raise ValidationError("graph contains a cycle")
        return tuple(order)


@dataclass(frozen=True)
class BayesNet:
    """A Dag plus one conditional probability table per variable.

    ``cpts[i]`` has shape (n_parent_configs, cardinality_i); parent configs
    are indexed mixed-radix in the parent order of ``dag.parents[i]``.

    Construction compiles the network once.  All tables (arrays or nested
    lists) are copied end to end into one read-only float64 array, and
    ``cpts[i]`` become 2-D views into it; tables that already are such
    views are kept, not copied.  Cell ``(config, x_i)`` of variable ``i``
    sits at ``offset_i + config * card_i + x_i``, so the cells a row ``x``
    reads are ``x @ M + offsets``, with the mixed-radix index matrix
    ``M[p, i] = stride_p * card_i`` for each parent ``p`` of ``i`` and
    ``M[i, i] = 1``.
    """

    dag: Dag
    cpts: tuple[np.ndarray, ...]
    alpha: float
    _flat: np.ndarray = field(init=False, repr=False, compare=False)
    _radix: np.ndarray = field(init=False, repr=False, compare=False)
    _offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _cards: np.ndarray = field(init=False, repr=False, compare=False)
    _order: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ValidationError("alpha must be a positive finite number")
        if self.dag.n_variables == 0:
            raise ValidationError("a network needs at least one variable")
        if len(self.cpts) != self.dag.n_variables:
            raise ValidationError("one CPT per variable required")
        radix, offsets, shapes = _layout(self.dag)
        flat = _packed_base(self.cpts, offsets, shapes)
        if flat is None:
            # One table at a time, so a loaded document's lists are never
            # all held as arrays besides the flat copy.
            flat = np.empty(offsets[-1])
            views = _views(flat, offsets, shapes)
            for i, (view, table) in enumerate(zip(views, self.cpts)):
                table = np.asarray(table, dtype=np.float64)
                if table.shape != view.shape:
                    raise ValidationError(
                        f"CPT shape {table.shape} wrong for variable {i}")
                view[...] = table
            flat.flags.writeable = False
            object.__setattr__(self, "cpts", _views(flat, offsets, shapes))
        if not flat.min() > 0:  # a NaN minimum fails too
            raise ValidationError("CPT entries must be strictly positive")
        row_cards = np.repeat([c for _, c in shapes], [r for r, _ in shapes])
        row_sums = np.add.reduceat(flat, np.cumsum(row_cards) - row_cards)
        if not np.allclose(row_sums, 1.0, atol=1e-9):
            raise ValidationError("CPT rows must sum to 1")
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "_radix", radix)
        object.__setattr__(self, "_offsets",
                           np.array(offsets[:-1], dtype=np.float64)[:, None])
        object.__setattr__(self, "_cards",
                           np.asarray(self.dag.cardinalities, dtype=np.uint64))
        object.__setattr__(self, "_order", self.dag.topological_order())

    @property
    def n_variables(self) -> int:
        return self.dag.n_variables


def _as_data(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.int64)
    if arr.ndim != 2:
        raise ValidationError("data must be a 2-D (rows x variables) array")
    return arr


# ---------------------------------------------------------------------------
# Mutual information


def mutual_information(data, i: int, j: int,
                       cardinalities: Sequence[int] | None = None) -> float:
    """Plug-in mutual information (nats) between columns ``i`` and ``j``.

    Zero-count cells contribute nothing; the result is clamped at 0 so
    floating-point round-off cannot produce tiny negatives.
    """
    arr = _as_data(data)
    if arr.shape[0] == 0:
        raise ValidationError("mutual information needs at least one row")
    if cardinalities is None:
        ci, cj = int(arr[:, i].max()) + 1, int(arr[:, j].max()) + 1
    else:
        ci, cj = int(cardinalities[i]), int(cardinalities[j])
    counts = np.zeros((ci, cj), dtype=np.float64)
    np.add.at(counts, (arr[:, i], arr[:, j]), 1.0)
    n = counts.sum()
    joint = counts / n
    pi = joint.sum(axis=1, keepdims=True)
    pj = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    mi = float(np.sum(joint[mask] * np.log(joint[mask] / (pi @ pj)[mask])))
    return max(mi, 0.0)


def mi_matrix(data, cardinalities: Sequence[int]) -> np.ndarray:
    """Symmetric pairwise MI matrix with a zero diagonal."""
    arr = _as_data(data)
    n_vars = arr.shape[1]
    if len(cardinalities) != n_vars:
        raise ValidationError("cardinalities must match the column count")
    out = np.zeros((n_vars, n_vars), dtype=np.float64)
    for i, j in combinations(range(n_vars), 2):
        value = mutual_information(arr, i, j, cardinalities)
        out[i, j] = out[j, i] = value
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


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def chow_liu(mi: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-weight spanning tree over the MI matrix.

    Ties are broken lexicographically by edge index, so equal weights give
    the lexicographically first tree (a star rooted at variable 0).
    """
    mi = np.asarray(mi, dtype=np.float64)
    n = mi.shape[0]
    if mi.shape != (n, n):
        raise ValidationError("MI matrix must be square")
    if n < 2:
        raise ValidationError("need at least two variables for a tree")
    candidates = sorted(((i, j) for i, j in combinations(range(n), 2)),
                        key=lambda e: (-mi[e[0], e[1]], e[0], e[1]))
    uf = _UnionFind(n)
    edges = [e for e in candidates if uf.union(*e)]
    return sorted(edges[: n - 1])


def aracne_skeleton(mi: np.ndarray, mi_threshold: float = 0.0,
                    dpi_tolerance: float = 0.1,
                    threshold_correction: np.ndarray | None = None,
                    ) -> list[tuple[int, int]]:
    """ARACNE skeleton: MI thresholding followed by DPI triangle pruning.

    An edge survives thresholding when its (optionally bias-corrected) MI is
    strictly above ``mi_threshold``.  Every triangle of surviving edges is
    then scanned: the weakest edge (i, j) is marked for removal when
    ``mi[i, j] < (1 - dpi_tolerance) * min(mi[i, k], mi[j, k])``.  Marks are
    computed against the original MI matrix and applied only after all
    triangles have been scanned.

    Args:
        mi: symmetric pairwise MI matrix.
        mi_threshold: minimum corrected MI for an edge to be considered.
        dpi_tolerance: epsilon in [0, 1]; 1 disables pruning entirely.
        threshold_correction: per-pair penalty subtracted before
            thresholding only (DPI still compares raw MI values).
    """
    mi = np.asarray(mi, dtype=np.float64)
    n = mi.shape[0]
    if mi.shape != (n, n):
        raise ValidationError("MI matrix must be square")
    if not 0.0 <= dpi_tolerance <= 1.0:
        raise ValidationError("dpi_tolerance must lie in [0, 1]")
    corrected = mi if threshold_correction is None else mi - threshold_correction
    edges = {(i, j) for i, j in combinations(range(n), 2)
             if corrected[i, j] > mi_threshold}
    marked: set[tuple[int, int]] = set()
    for i, j, k in combinations(range(n), 3):
        triangle = [(i, j), (i, k), (j, k)]
        if any(e not in edges for e in triangle):
            continue
        weakest = min(triangle, key=lambda e: (mi[e[0], e[1]], e))
        others = [mi[e[0], e[1]] for e in triangle if e != weakest]
        if mi[weakest[0], weakest[1]] < (1.0 - dpi_tolerance) * min(others):
            marked.add(weakest)
    return sorted(edges - marked)


def orient(edges: Iterable[tuple[int, int]],
           variables: Sequence[tuple[str, int]],
           canonical_order: Sequence[int] | None = None) -> Dag:
    """Direct every undirected edge from earlier to later in the order.

    The default canonical order is the variable index order itself, which is
    the schema order for flattened genotypes.  Acyclicity is guaranteed
    because edge direction follows one global total order.
    """
    n = len(variables)
    order = list(range(n)) if canonical_order is None else list(canonical_order)
    if sorted(order) != list(range(n)):
        raise ValidationError("canonical_order must be a permutation of all variables")
    position = {v: pos for pos, v in enumerate(order)}
    parents: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise ValidationError(f"bad edge ({a}, {b})")
        # Edges are undirected; (a, b) and (b, a) describe the same edge.
        parent, child = (a, b) if position[a] < position[b] else (b, a)
        parents[child].add(parent)
    return Dag(variables=tuple(variables),
               parents=tuple(tuple(sorted(ps)) for ps in parents))


# ---------------------------------------------------------------------------
# Parameters and queries


def _layout(dag: Dag) -> tuple[np.ndarray, list[int], list[tuple[int, int]]]:
    """The flat CPT layout of ``dag``: its mixed-radix index matrix M (float
    64, exact for every index below 2**53), the first cell of each table
    followed by the total cell count, and each table's shape."""
    cards = dag.cardinalities
    radix = np.zeros((len(cards), len(cards)))
    offsets, shapes, size = [], [], 0
    for v, parents in enumerate(dag.parents):
        radix[v, v] = 1.0
        step = cards[v]
        for p in reversed(parents):
            radix[p, v] = step
            step *= cards[p]
        offsets.append(size)
        shapes.append((step // cards[v], cards[v]))
        size += step
    return radix, offsets + [size], shapes


def _views(flat: np.ndarray, offsets: Sequence[int],
           shapes: Sequence[tuple[int, int]]) -> tuple[np.ndarray, ...]:
    return tuple(flat[o:o + r * c].reshape(r, c)
                 for o, (r, c) in zip(offsets, shapes))


def _packed_base(tables: Sequence, offsets: Sequence[int],
                 shapes: Sequence[tuple[int, int]]) -> np.ndarray | None:
    """The read-only float64 array that ``tables`` are the layout's views
    of, end to end; None if there is none."""
    base = getattr(tables[0], "base", None)
    if not (isinstance(base, np.ndarray) and base.ndim == 1
            and base.dtype == np.float64 and not base.flags.writeable
            and base.size == offsets[-1]):
        return None
    address = base.__array_interface__["data"][0]
    for table, offset, shape in zip(tables, offsets, shapes):
        if (getattr(table, "base", None) is not base
                or table.shape != shape or not table.flags.c_contiguous
                or table.__array_interface__["data"][0]
                != address + offset * base.itemsize):
            return None
    return base


def fit_cpts(dag: Dag, data, alpha: float = 1.0) -> BayesNet:
    """Maximum likelihood CPTs with Laplace smoothing.

    P(x = v | pa = c) = (count(v, c) + alpha) / (count(c) + alpha * card(x));
    parent configurations never observed fall back to the uniform row.
    All cells are counted with one ``np.bincount`` over the flat layout, and
    each table's rows are normalised in place in the flat array.

    Args:
        dag: network structure.
        data: rows x variables integer array (may be empty).
        alpha: smoothing pseudocount, must be > 0.
    """
    if alpha <= 0:
        raise ValidationError("alpha must be > 0")
    arr = np.asarray(data, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, dag.n_variables)
    if arr.ndim != 2 or arr.shape[1] != dag.n_variables:
        raise ValidationError("data must have one column per variable")
    # A negative value viewed as uint64 is huge: one test checks both ends.
    bad = arr.view(np.uint64) >= np.asarray(dag.cardinalities, np.uint64)
    if bad.any():
        column = int(np.flatnonzero(bad.any(axis=0))[0])
        raise ValidationError(f"value out of range in column {column}")
    radix, offsets, shapes = _layout(dag)
    cells = (arr @ radix + offsets[:-1]).astype(np.intp).ravel()
    # Float counts (sums of 1.0, so exact) let the smoothing run in place;
    # bincount returns int64 for empty data even with weights.
    flat = np.bincount(cells, weights=np.ones(cells.size),
                       minlength=offsets[-1]).astype(np.float64, copy=False)
    flat += alpha
    for table in _views(flat, offsets, shapes):
        table /= table.sum(axis=1, keepdims=True)
    flat.flags.writeable = False
    return BayesNet(dag=dag, cpts=_views(flat, offsets, shapes),
                    alpha=float(alpha))


def log_likelihood_many(bn: BayesNet, data) -> np.ndarray:
    """Vectorized joint log-likelihood, one value per row.

    The cells are gathered one column per row, and the log-probabilities are
    added strictly in variable order (``np.add.accumulate``), so each value
    is bit for bit the running sum ``total += log P(x_v | pa_v)`` over
    v = 0, 1, ...
    """
    arr = _as_data(data)
    if arr.shape[1] != bn.n_variables:
        raise ValidationError("assignment must cover every variable")
    # A negative value viewed as uint64 is huge: one test checks both ends.
    if (arr.view(np.uint64) >= bn._cards).any():
        raise ValidationError("assignment value out of range")
    probs = bn._flat[(bn._radix.T @ arr.T + bn._offsets).astype(np.intp)]
    return np.add.accumulate(np.log(probs, out=probs), axis=0)[-1].copy()


def pls_sample_many(bn: BayesNet, n: int, rng: np.random.Generator) -> np.ndarray:
    """Forward-sample ``n`` full assignments in topological order.

    Each variable draws one uniform per row and takes the number of
    cumulative CPT-row probabilities below it as its value.
    """
    if n < 0:
        raise ValidationError("sample count must be >= 0")
    cards = bn.dag.cardinalities
    out = np.zeros((bn.n_variables, n))  # one row per variable
    for v in bn._order:
        # Variables not yet sampled are 0, so M's column gives each row's
        # first cell within the table: config * card.
        start = int(bn._offsets[v, 0])
        first = (bn._radix[:, v] @ out).astype(np.intp)
        cells = np.add.outer(np.arange(start, start + cards[v]), first)
        cumulative = np.cumsum(bn._flat[cells], axis=0)
        out[v] = (cumulative < rng.random(n)).sum(axis=0)
    return out.T.astype(np.int64, order="C")


def enumerate_joint(bn: BayesNet,
                    cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[np.ndarray, np.ndarray]:
    """All assignments and their probabilities, for small state spaces.

    Returns (assignments, probabilities) where assignments has one row per
    joint state in row-major order.  Raises when the state space exceeds
    ``cap`` (default 1e6).
    """
    cards = bn.dag.cardinalities
    size = int(np.prod(cards, dtype=np.int64))
    if size > cap:
        raise ValidationError(
            f"state space {size} exceeds enumeration cap {cap}")
    grids = np.indices(cards).reshape(len(cards), size).T
    probs = np.exp(log_likelihood_many(bn, grids))
    return grids, probs


# ---------------------------------------------------------------------------
# Serialization (format tag bn-v1, full-precision decimal entries)


def bn_to_json_obj(bn: BayesNet) -> dict:
    return {
        "format": BN_FORMAT,
        "alpha": bn.alpha,
        "variables": [[name, card] for name, card in bn.dag.variables],
        "parents": [list(ps) for ps in bn.dag.parents],
        "cpts": [table.tolist() for table in bn.cpts],
    }


def bn_from_json_obj(obj: dict) -> BayesNet:
    if not isinstance(obj, dict) or obj.get("format") != BN_FORMAT:
        raise FormatError(f"expected a {BN_FORMAT} document")
    try:
        dag = Dag(variables=tuple((str(n), int(c)) for n, c in obj["variables"]),
                  parents=tuple(tuple(int(p) for p in ps)
                                for ps in obj["parents"]))
        return BayesNet(dag=dag, cpts=tuple(obj["cpts"]),
                        alpha=float(obj["alpha"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad {BN_FORMAT} document: {exc}") from exc
