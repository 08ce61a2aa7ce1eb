"""Discrete Bayesian networks over small categorical variables.

Covers everything the metamodel needs: plug-in mutual information, Chow-Liu
and ARACNE structure learning, CPT fitting with Laplace smoothing, exact
enumeration, log-likelihood and probabilistic logic (forward) sampling.
All information quantities are in nats.
"""

from __future__ import annotations

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
    The index plan for those lookups is computed once, at construction.
    """

    dag: Dag
    cpts: tuple[np.ndarray, ...]
    alpha: float
    # Per variable: parent columns and their mixed-radix strides.
    _plan: tuple[tuple[list[int], np.ndarray], ...] = field(
        init=False, repr=False, compare=False)
    _cards: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.cpts) != self.dag.n_variables:
            raise ValidationError("one CPT per variable required")
        cards = self.dag.cardinalities
        plan = []
        for i, table in enumerate(self.cpts):
            parents = self.dag.parents[i]
            strides, expected_rows = _parent_strides(cards, parents)
            if table.shape != (expected_rows, cards[i]):
                raise ValidationError(
                    f"CPT shape {table.shape} wrong for variable {i}")
            if np.any(table <= 0):
                raise ValidationError("CPT entries must be strictly positive")
            if not np.allclose(table.sum(axis=1), 1.0, atol=1e-9):
                raise ValidationError("CPT rows must sum to 1")
            plan.append((list(parents), strides))
        object.__setattr__(self, "_plan", tuple(plan))
        object.__setattr__(self, "_cards", np.asarray(cards, dtype=np.int64))

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


def _parent_strides(cards: Sequence[int],
                    parents: Sequence[int]) -> tuple[np.ndarray, int]:
    """Mixed-radix strides of a parent list and its configuration count."""
    pcards = [cards[p] for p in parents]
    strides = np.ones(len(pcards), dtype=np.int64)
    for i in range(len(pcards) - 2, -1, -1):
        strides[i] = strides[i + 1] * pcards[i + 1]
    return strides, int(np.prod(pcards, dtype=np.int64)) if pcards else 1


def fit_cpts(dag: Dag, data, alpha: float = 1.0) -> BayesNet:
    """Maximum likelihood CPTs with Laplace smoothing.

    P(x = v | pa = c) = (count(v, c) + alpha) / (count(c) + alpha * card(x));
    parent configurations never observed fall back to the uniform row.

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
    cards = dag.cardinalities
    if arr.shape[0] > 0:
        for v in range(dag.n_variables):
            col = arr[:, v]
            if col.min() < 0 or col.max() >= cards[v]:
                raise ValidationError(f"value out of range in column {v}")
    tables = []
    for v in range(dag.n_variables):
        strides, n_configs = _parent_strides(cards, dag.parents[v])
        counts = np.zeros((n_configs, cards[v]), dtype=np.float64)
        if arr.shape[0] > 0:
            if dag.parents[v]:
                config = arr[:, list(dag.parents[v])] @ strides
            else:
                config = np.zeros(arr.shape[0], dtype=np.int64)
            np.add.at(counts, (config, arr[:, v]), 1.0)
        counts += alpha
        tables.append(counts / counts.sum(axis=1, keepdims=True))
    return BayesNet(dag=dag, cpts=tuple(tables), alpha=float(alpha))


def _validate_assignment(bn: BayesNet, arr: np.ndarray) -> None:
    if arr.shape[-1] != bn.n_variables:
        raise ValidationError("assignment must cover every variable")
    if np.any(arr < 0) or np.any(arr >= bn._cards):
        raise ValidationError("assignment value out of range")


def _parent_configs(bn: BayesNet, var: int, arr: np.ndarray):
    """CPT row of ``var`` for every row of ``arr``; 0 for a root."""
    parents, strides = bn._plan[var]
    return arr[:, parents] @ strides if parents else 0


def log_likelihood_many(bn: BayesNet, data) -> np.ndarray:
    """Vectorized joint log-likelihood, one value per row."""
    arr = _as_data(data)
    _validate_assignment(bn, arr)
    total = np.zeros(arr.shape[0], dtype=np.float64)
    for v in range(bn.n_variables):
        total += np.log(bn.cpts[v][_parent_configs(bn, v, arr), arr[:, v]])
    return total


def pls_sample_many(bn: BayesNet, n: int, rng: np.random.Generator) -> np.ndarray:
    """Forward-sample ``n`` full assignments in topological order."""
    if n < 0:
        raise ValidationError("sample count must be >= 0")
    out = np.zeros((n, bn.n_variables), dtype=np.int64)
    for v in bn.dag.topological_order():
        rows = bn.cpts[v][_parent_configs(bn, v, out)]
        cumulative = np.cumsum(rows, axis=-1)
        draws = rng.random((n, 1))
        out[:, v] = (cumulative < draws).sum(axis=1)
    return out


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
        cpts = tuple(np.asarray(t, dtype=np.float64) for t in obj["cpts"])
        return BayesNet(dag=dag, cpts=cpts, alpha=float(obj["alpha"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad {BN_FORMAT} document: {exc}") from exc
