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


VertexLabel = Union[Residue, EdgePair]

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
    line/total transforms. Degrees are summed from the adjacency on first use.
    """

    __slots__ = ("_keys", "adj", "modulus", "_deg", "_labels", "_id_of", "_names")

    def __init__(self, labels: Iterable[VertexLabel], adj, modulus: int | None = None):
        keys, a = _keys_of(labels), np.array(adj, dtype=bool)
        if a.shape != (len(keys), len(keys)):
            raise ValueError(f"adjacency shape {a.shape} does not match {len(keys)} labels")
        # one |V|^2 temporary, no larger than the copy above
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if a.diagonal().any():
            raise ValueError("self-loops are not allowed")
        _check_distinct(keys)
        self._init(keys, a, modulus)

    @classmethod
    def _from_keys(cls, keys: np.ndarray, adj: np.ndarray,
                   modulus: int | None = None) -> "LabeledGraph":
        """A graph that takes `keys` and `adj` as its own without the copies
        and checks `__init__` makes; nothing is checked.

        The caller hands in an (|V|, 2) int key array whose rows are (k, k)
        or (a, b) with a < b, pairwise distinct, and a fresh |V|-square bool
        matrix that nothing else holds, symmetric with a clear diagonal. The
        family builders (`_residue_graph`, `line_graph`, `total_graph` and
        the gathers of `family_graphs`) build both so. `serialize._graph`
        checks distinctness itself, takes its rows from `_rendered_keys` or
        `parse_label`, which both check a < b, and sets both halves of each
        edge it has checked to satisfy 0 <= i < j < |V|."""
        g = cls.__new__(cls)
        g._init(keys, adj, modulus)
        return g

    def _init(self, keys: np.ndarray, a: np.ndarray, modulus: int | None) -> None:
        keys.setflags(write=False)
        a.setflags(write=False)
        self._keys = keys
        self.adj = a
        self.modulus = modulus
        self._deg: np.ndarray | None = None
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
        """The read-only int64 degrees by vertex id; summed on first use only."""
        if self._deg is None:
            # int32 row sums run about twice as fast as int64 ones; |V| fits
            deg = self.adj.sum(axis=1, dtype=np.int32).astype(np.int64)
            deg.setflags(write=False)
            self._deg = deg
        return self._deg

    def degree(self, v: int) -> int:
        return int(self.degrees()[v])

    def neighbors(self, v: int) -> np.ndarray:
        return np.flatnonzero(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u, v])

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (i, j) with i < j, sorted lexicographically."""
        iu, iv = np.nonzero(np.triu(self.adj))
        return list(zip(iu.tolist(), iv.tolist()))

    def n_edges(self) -> int:
        return int(self.degrees().sum()) // 2

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


def _check_distinct(keys: np.ndarray) -> None:
    """Raise ValueError when two rows of `keys` name the same label."""
    # the rows are distinct iff no two adjacent rows, once sorted, are equal
    s = keys[np.lexsort((keys[:, 1], keys[:, 0]))]
    if (s[1:] == s[:-1]).all(axis=1).any():
        raise ValueError("labels must be pairwise distinct")


def _keys_of(labels: Iterable[VertexLabel]) -> np.ndarray:
    """The (|V|, 2) keys of `labels` as int64, or as Python ints where int64
    cannot hold a residue (one read from a file or handed in by a caller)."""
    rows = []
    for lab in labels:
        if isinstance(lab, Residue):
            rows.append((lab.k, lab.k))
        elif isinstance(lab, EdgePair):
            rows.append((lab.a, lab.b))
        else:
            raise ValueError(f"labels must be Residue or EdgePair, got {type(lab).__name__}")
    try:
        keys = np.array(rows, dtype=np.int64)
    except OverflowError:
        keys = np.array(rows, dtype=object)
    return keys.reshape(-1, 2)


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
    return LabeledGraph._from_keys(np.stack([vs, vs], axis=1), adj, modulus=n)


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


class GraphFamily(Enum):
    GAMMA = "gamma"
    NILRADICAL = "nilradical"
    OMEGA = "omega"
    LINE_OF_GAMMA = "line-of-gamma"
    TOTAL_OF_GAMMA = "total-of-gamma"


_OF_GAMMA = frozenset({GraphFamily.GAMMA, GraphFamily.LINE_OF_GAMMA,
                       GraphFamily.TOTAL_OF_GAMMA})


def _induced(g: LabeledGraph, rows: np.ndarray) -> LabeledGraph:
    """The subgraph of g induced on the vertices where `rows` is True, in
    g's vertex order, gathered into fresh arrays."""
    ids = np.flatnonzero(rows)
    # rows, then columns: the C-ordered matrix of one np.ix_ gather, which
    # took 2-5x as long on 40 to 1000 vertices (2-core Xeon)
    adj = g.adj.take(ids, axis=0).take(ids, axis=1)
    return LabeledGraph._from_keys(g.keys()[ids], adj, modulus=g.modulus)


def family_graphs(n: int, families: Iterable[GraphFamily]) -> dict[GraphFamily, LabeledGraph]:
    """`build_family(n, f)` for every f in `families`, keyed by f, with the
    work shared between them. Gamma is built once when any of gamma,
    line-of-gamma and total-of-gamma is asked for, and the nilradical and
    omega graphs are then its rows whose residue is, or is not, a multiple of
    rad(n); without gamma they are built directly. When both are asked for,
    the line graph is a copy of the total graph's edge-edge block."""
    fams = {GraphFamily(f) for f in families}
    F = GraphFamily
    out: dict[GraphFamily, LabeledGraph] = {}
    if fams.isdisjoint(_OF_GAMMA):
        if F.NILRADICAL in fams:
            out[F.NILRADICAL] = nilradical_graph(n)
        if F.OMEGA in fams:
            out[F.OMEGA] = non_nilradical_graph(n)
        return out
    g = gamma(n)
    if F.GAMMA in fams:
        out[F.GAMMA] = g
    if {F.NILRADICAL, F.OMEGA} & fams:
        nil = g.keys()[:, 0] % factorize(n).radical == 0
        if F.NILRADICAL in fams:
            out[F.NILRADICAL] = _induced(g, nil)
        if F.OMEGA in fams:
            out[F.OMEGA] = _induced(g, ~nil)
    if F.TOTAL_OF_GAMMA in fams:
        t = out[F.TOTAL_OF_GAMMA] = total_graph(g)
        if F.LINE_OF_GAMMA in fams:
            nv = g.n_vertices
            out[F.LINE_OF_GAMMA] = LabeledGraph._from_keys(
                t.keys()[nv:].copy(), t.adj[nv:, nv:].copy(), modulus=n)
    elif F.LINE_OF_GAMMA in fams:
        out[F.LINE_OF_GAMMA] = line_graph(g)
    return out


def build_family(n: int, family: GraphFamily) -> LabeledGraph:
    family = GraphFamily(family)
    return family_graphs(n, (family,))[family]
