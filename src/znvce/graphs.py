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

# most bytes of rows that one gather of the line-graph builder copies at once:
# blocks of 256 KiB built the shared-endpoint block of line-of-gamma(1500)
# fastest of 64 KiB..4 MiB tried (18 ms, 2-core Xeon)
_GATHER_BYTES = 1 << 18


class LabeledGraph:
    """Simple undirected graph; vertex ids are 0..|V|-1 fixed by label order.

    Adjacency is a dense boolean matrix, frozen after construction. Labels are
    held as a read-only (|V|, 2) int64 key array: `Residue(k)` is the row
    (k, k) and `EdgePair(a, b)` the row (a, b), a < b, so the two kinds never
    share a key. The label objects are built from the keys on first use.
    `modulus` records the n the graph derives from and survives the
    line/total transforms.
    """

    __slots__ = ("_keys", "adj", "modulus", "_deg", "_labels", "_id_of", "_names")

    def __init__(self, labels: Iterable[VertexLabel], adj, modulus: int | None = None):
        self._init(_keys_of(labels), np.array(adj, dtype=bool), modulus)

    @classmethod
    def _from_keys(cls, keys: np.ndarray, adj: np.ndarray,
                   modulus: int | None = None) -> "LabeledGraph":
        """A graph that takes `keys` and `adj`, a fresh bool matrix that
        nothing else holds, as its own without the copies `__init__` makes."""
        g = cls.__new__(cls)
        g._init(keys, adj, modulus)
        return g

    def _init(self, keys: np.ndarray, a: np.ndarray, modulus: int | None) -> None:
        nv = len(keys)
        if keys.shape != (nv, 2):
            raise ValueError(f"label keys must have shape (|V|, 2), got {keys.shape}")
        if a.shape != (nv, nv):
            raise ValueError(f"adjacency shape {a.shape} does not match {nv} labels")
        if not _is_symmetric(a):
            raise ValueError("adjacency must be symmetric")
        if a.diagonal().any():
            raise ValueError("self-loops are not allowed")
        if (keys[:, 0] > keys[:, 1]).any():
            raise ValueError("label keys must be residues (k, k) or ascending pairs (a, b)")
        # the rows are distinct iff no two adjacent rows, once sorted, are equal
        s = keys[np.lexsort((keys[:, 1], keys[:, 0]))]
        if (s[1:] == s[:-1]).all(axis=1).any():
            raise ValueError("labels must be pairwise distinct")
        keys.setflags(write=False)
        a.setflags(write=False)
        self._keys = keys
        self.adj = a
        self.modulus = modulus
        # int32 row sums run about twice as fast as int64 ones; |V| fits
        deg = a.sum(axis=1, dtype=np.int32).astype(np.int64)
        deg.setflags(write=False)
        self._deg = deg
        self._labels: tuple[VertexLabel, ...] | None = None
        self._id_of: dict[VertexLabel, int] | None = None
        self._names: tuple[str, ...] | None = None

    @property
    def labels(self) -> tuple[VertexLabel, ...]:
        """Every label by vertex id; built from the keys on first use only."""
        if self._labels is None:
            self._labels = tuple(map(_label, *self._keys.T.tolist()))
        return self._labels

    def label(self, v: int) -> VertexLabel:
        """The label of vertex v, without building the others."""
        return _label(*self._keys[v].tolist())

    def keys(self) -> np.ndarray:
        """The read-only (|V|, 2) label keys: (k, k) for Residue(k), (a, b)
        for EdgePair(a, b)."""
        return self._keys

    @property
    def n_vertices(self) -> int:
        return len(self._keys)

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
        if self._id_of is None:
            self._id_of = dict(zip(self.labels, range(self.n_vertices)))
        return self._id_of[label]

    def names(self) -> tuple[str, ...]:
        """Every label rendered as `render()` does, by vertex id, straight
        from the keys; rendered on first use only."""
        if self._names is None:
            self._names = tuple([str(a) if a == b else f"({a},{b})"
                                 for a, b in self._keys.tolist()])
        return self._names

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (np.array_equal(self._keys, other._keys)
                and bool((self.adj == other.adj).all()))

    __hash__ = None

    def __repr__(self) -> str:
        return f"LabeledGraph(|V|={self.n_vertices}, |E|={self.n_edges()}, modulus={self.modulus})"


def _label(a: int, b: int) -> VertexLabel:
    return Residue(a) if a == b else EdgePair(a, b)


def _int_array(values) -> np.ndarray:
    """`values` as int64, or as Python ints where int64 cannot hold them
    (residues read from a file)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _residue_keys(ks) -> np.ndarray:
    """The keys of Residue(k) for each k in `ks`."""
    ks = _int_array(ks)
    return np.stack([ks, ks], axis=1)


def _keys_of(labels: Iterable[VertexLabel]) -> np.ndarray:
    rows = []
    for lab in labels:
        if isinstance(lab, Residue):
            rows.append((lab.k, lab.k))
        elif isinstance(lab, EdgePair):
            rows.append((lab.a, lab.b))
        else:
            raise ValueError(f"labels must be Residue or EdgePair, got {type(lab).__name__}")
    return _int_array(rows).reshape(-1, 2)


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
    return LabeledGraph._from_keys(_residue_keys(vs), adj, modulus=n)


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


def _edge_vertices(g: LabeledGraph, op: str,
                   lead: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The keys of g's edges as EdgePair labels, in edge order; g's |V| x |E|
    incidence matrix; and a fresh (lead + |E|)-square bool matrix whose last
    |E| rows and columns hold g's line-graph adjacency, in which two edges
    are adjacent iff they share an endpoint. Its first `lead` rows and
    columns are left for the caller to fill. `op` names the caller when g is
    not residue-labeled."""
    keys = g.keys()
    if (keys[:, 0] != keys[:, 1]).any():
        raise DomainError(f"{op} expects a residue-labeled graph, found EdgePair")
    iu, iv = np.nonzero(np.triu(g.adj))
    ku, kv = keys[iu, 0], keys[iv, 0]
    edge_keys = np.stack([np.minimum(ku, kv), np.maximum(ku, kv)], axis=1)
    ne = iu.size
    inc = np.zeros((g.n_vertices, ne), dtype=bool)
    es = np.arange(ne)
    inc[iu, es] = inc[iv, es] = True
    adj = np.empty((lead + ne, lead + ne), dtype=bool)
    # row e of inc[iu] marks the edges at e's first end; OR in those at its
    # second end, and e itself, which is at both, is no neighbour; a block of
    # rows at a time, so no temporary outgrows _GATHER_BYTES
    rows = max(1, _GATHER_BYTES // max(1, ne))
    for a in range(0, ne, rows):
        e = es[a:a + rows]
        blk = adj[lead + a:lead + a + e.size, lead:]
        blk[...] = inc[iu[e]]
        blk |= inc[iv[e]]
        blk[e - a, e] = False
    return edge_keys, inc, adj


def line_graph(g: LabeledGraph) -> LabeledGraph:
    """One vertex per edge of g; adjacency iff the edges share an endpoint."""
    edge_keys, _, adj = _edge_vertices(g, "line_graph")
    return LabeledGraph._from_keys(edge_keys, adj, modulus=g.modulus)


def total_graph(g: LabeledGraph) -> LabeledGraph:
    """Vertices of g plus edges of g; all vertex-vertex, edge-edge, vertex-edge adjacencies."""
    nv = g.n_vertices
    edge_keys, inc, adj = _edge_vertices(g, "total_graph", lead=nv)
    adj[:nv, :nv] = g.adj
    adj[:nv, nv:] = inc
    adj[nv:, :nv] = inc.T
    return LabeledGraph._from_keys(np.concatenate([g.keys(), edge_keys]), adj,
                                   modulus=g.modulus)


def isolated_vertices(g: LabeledGraph) -> list[VertexLabel]:
    """Labels of all degree-0 vertices, in vertex-id order."""
    return [g.label(v) for v in np.flatnonzero(g.degrees() == 0).tolist()]


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
