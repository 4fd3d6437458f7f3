"""Labeled simple graphs over Z_n and the line/total transforms."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

import numpy as np

from .errors import DomainError
from .rings import factorize, nilpotents, zero_divisors


@dataclass(frozen=True, order=True)
class Residue:
    k: int

    def render(self) -> str:
        return str(self.k)


@dataclass(frozen=True, order=True)
class EdgePair:
    a: int
    b: int

    def __post_init__(self):
        # endpoints stored ascending so labels are canonical
        if not self.a < self.b:
            raise ValueError(f"edge endpoints must satisfy a < b, got ({self.a},{self.b})")

    def render(self) -> str:
        return f"({self.a},{self.b})"


# a total graph's vertices are residues and edge pairs too; its old label names stay
TotalOriginal, TotalEdge = Residue, EdgePair

VertexLabel = Union[Residue, EdgePair]

# side of the square blocks LabeledGraph compares for symmetry
_SYMMETRY_TILE = 256


class LabeledGraph:
    """Simple undirected graph; vertex ids are 0..|V|-1 fixed by label order.

    Adjacency is a dense boolean matrix, frozen after construction. `modulus`
    records the n the graph derives from and survives the line/total transforms.
    """

    __slots__ = ("labels", "adj", "modulus", "_deg", "_id_of", "_names")

    def __init__(self, labels: Iterable[VertexLabel], adj, modulus: int | None = None):
        self._init(labels, np.array(adj, dtype=bool), modulus)

    @classmethod
    def _adopt(cls, labels: Iterable[VertexLabel], adj: np.ndarray,
               modulus: int | None = None) -> "LabeledGraph":
        """A graph that takes `adj`, a fresh bool matrix that nothing else
        holds, as its own without the copy `__init__` makes."""
        g = cls.__new__(cls)
        g._init(labels, adj, modulus)
        return g

    def _init(self, labels: Iterable[VertexLabel], a: np.ndarray, modulus: int | None) -> None:
        self.labels: tuple[VertexLabel, ...] = tuple(labels)
        nv = len(self.labels)
        if a.shape != (nv, nv):
            raise ValueError(f"adjacency shape {a.shape} does not match {nv} labels")
        if not _is_symmetric(a):
            raise ValueError("adjacency must be symmetric")
        if a.diagonal().any():
            raise ValueError("self-loops are not allowed")
        self._id_of = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._id_of) != nv:
            raise ValueError("labels must be pairwise distinct")
        a.setflags(write=False)
        self.adj = a
        self.modulus = modulus
        # int32 row sums run about twice as fast as int64 ones; |V| fits
        deg = a.sum(axis=1, dtype=np.int32).astype(np.int64)
        deg.setflags(write=False)
        self._deg = deg
        self._names: tuple[str, ...] | None = None

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def degrees(self) -> np.ndarray:
        return self._deg

    def degree(self, v: int) -> int:
        return int(self._deg[v])

    def neighbors(self, v: int) -> np.ndarray:
        return np.flatnonzero(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u, v])

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (i, j) with i < j, sorted lexicographically."""
        iu, iv = np.nonzero(np.triu(self.adj))
        return list(zip(iu.tolist(), iv.tolist()))

    def n_edges(self) -> int:
        return int(self._deg.sum()) // 2

    def id_of(self, label: VertexLabel) -> int:
        return self._id_of[label]

    def names(self) -> tuple[str, ...]:
        """Every label rendered, by vertex id; rendered on first use only."""
        if self._names is None:
            self._names = tuple([lab.render() for lab in self.labels])
        return self._names

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.labels == other.labels and bool((self.adj == other.adj).all())

    __hash__ = None

    def __repr__(self) -> str:
        return f"LabeledGraph(|V|={self.n_vertices}, |E|={self.n_edges()}, modulus={self.modulus})"


def _is_symmetric(a: np.ndarray) -> bool:
    # tile against mirrored tile: no |V|^2 temporary, and each transposed read
    # stays within a cache-sized block
    t = _SYMMETRY_TILE
    for i in range(0, a.shape[0], t):
        for j in range(i, a.shape[0], t):
            if (a[i:i + t, j:j + t] != a[j:j + t, i:i + t].T).any():
                return False
    return True


def _residue_graph(n: int, residues: np.ndarray) -> LabeledGraph:
    """Residues adjacent iff n | u*v. For every prime power p^e of n,
    v_p(uv) >= e iff min(v_p(u), e) + min(v_p(v), e) >= e, so n | u*v iff
    n | gcd(u, n) * gcd(v, n): adjacency is fixed by a table over the
    divisor classes gcd(k, n), the compressed zero-divisor graph."""
    vs = np.asarray(residues, dtype=np.int64)
    gs = np.gcd(vs, n)
    divisors = np.flatnonzero(np.bincount(gs, minlength=n + 1))
    cls = np.searchsorted(divisors, gs)
    table = (divisors[:, None] * divisors[None, :]) % n == 0
    # row c of table[:, cls] is a class-c vertex's adjacency row: gather rows
    adj = np.take(table[:, cls], cls, axis=0)
    np.fill_diagonal(adj, False)
    return LabeledGraph._adopt([Residue(k) for k in vs.tolist()], adj, modulus=n)


def gamma(n: int) -> LabeledGraph:
    """Zero-divisor graph: vertices gcd(k,n) > 1, edge iff u*v = 0 mod n."""
    return _residue_graph(n, zero_divisors(n))


def nilradical_graph(n: int) -> LabeledGraph:
    """Induced on the nonzero nilpotents (multiples of rad(n))."""
    return _residue_graph(n, nilpotents(n))


def non_nilradical_graph(n: int) -> LabeledGraph:
    """Induced on the zero divisors that are not nilpotent."""
    zs = zero_divisors(n)
    rad = factorize(n).radical
    return _residue_graph(n, zs[zs % rad != 0])


def _shared_endpoint_adj(inc: np.ndarray) -> np.ndarray:
    # inc is the |V| x |E| incidence matrix; distinct edges share at most one endpoint
    shared = inc.T.astype(np.float32) @ inc.astype(np.float32)
    adj = shared > 0.5
    np.fill_diagonal(adj, False)
    return adj


def _edge_vertices(g: LabeledGraph, op: str) -> tuple[list[EdgePair], np.ndarray]:
    """One EdgePair label per edge of g, in edge order, and g's |V| x |E|
    incidence matrix; `op` names the caller when g is not residue-labeled."""
    for lab in g.labels:
        if not isinstance(lab, Residue):
            raise DomainError(f"{op} expects a residue-labeled graph, found {type(lab).__name__}")
    es = g.edges()
    inc = np.zeros((g.n_vertices, len(es)), dtype=bool)
    labels = []
    for k, (i, j) in enumerate(es):
        inc[i, k] = inc[j, k] = True
        lo, hi = sorted((g.labels[i].k, g.labels[j].k))
        labels.append(EdgePair(lo, hi))
    return labels, inc


def line_graph(g: LabeledGraph) -> LabeledGraph:
    """One vertex per edge of g; adjacency iff the edges share an endpoint."""
    labels, inc = _edge_vertices(g, "line_graph")
    return LabeledGraph._adopt(labels, _shared_endpoint_adj(inc), modulus=g.modulus)


def total_graph(g: LabeledGraph) -> LabeledGraph:
    """Vertices of g plus edges of g; all vertex-vertex, edge-edge, vertex-edge adjacencies."""
    edge_labels, inc = _edge_vertices(g, "total_graph")
    adj = np.block([[g.adj, inc], [inc.T, _shared_endpoint_adj(inc)]])
    return LabeledGraph._adopt(g.labels + tuple(edge_labels), adj, modulus=g.modulus)


def isolated_vertices(g: LabeledGraph) -> list[VertexLabel]:
    """Labels of all degree-0 vertices, in vertex-id order."""
    return [g.labels[i] for i in np.flatnonzero(g.degrees() == 0)]


class GraphFamily(Enum):
    GAMMA = "gamma"
    NILRADICAL = "nilradical"
    OMEGA = "omega"
    LINE_OF_GAMMA = "line-of-gamma"
    TOTAL_OF_GAMMA = "total-of-gamma"


def build_family(n: int, family: GraphFamily) -> LabeledGraph:
    family = GraphFamily(family)
    if family is GraphFamily.GAMMA:
        return gamma(n)
    if family is GraphFamily.NILRADICAL:
        return nilradical_graph(n)
    if family is GraphFamily.OMEGA:
        return non_nilradical_graph(n)
    if family is GraphFamily.LINE_OF_GAMMA:
        return line_graph(gamma(n))
    return total_graph(gamma(n))
