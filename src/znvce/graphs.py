"""Labeled simple graphs over Z_n and the line/total transforms."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

import numpy as np

from .errors import DomainError
from .rings import factorize, gcd_sieve


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

# byte masks that clear bit 128 >> i of a packed row, by i = u % 8
_CLEAR_BIT = ~(128 >> np.arange(8)).astype(np.uint8)

# most bytes of rows that one gather of the line-graph builder copies at once:
# blocks of 256 KiB built the shared-endpoint block of line-of-gamma(1500)
# fastest of 64 KiB..4 MiB tried (18 ms, 2-core Xeon)
_GATHER_BYTES = 1 << 18


class LabeledGraph:
    """Simple undirected graph; vertex ids are 0..|V|-1 fixed by label order.

    Adjacency has two read-only forms: `adj`, a dense |V|-square bool matrix,
    and `rows()`, the same rows packed to bytes as `np.packbits(adj, axis=1)`
    packs them (vertex u is bit 128 >> u % 8 of byte u // 8, padding bits
    zero, diagonal clear). A graph is handed exactly one form; the other is
    derived from it on first use and kept, so the two never disagree. Labels
    are held as a read-only (|V|, 2) int64 key array: `Residue(k)` is the row
    (k, k) and `EdgePair(a, b)` the row (a, b), a < b, so the two kinds never
    share a key. The label objects are built from the keys on first use.
    `modulus` records the n the graph derives from and survives the
    line/total transforms. Degrees are counted on first use.
    """

    __slots__ = ("_keys", "_adj", "_rows", "modulus", "_deg", "_labels", "_id_of",
                 "_names")

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
        self._init(keys, a, None, modulus)

    @classmethod
    def _from_keys(cls, keys: np.ndarray, adj: np.ndarray | None = None,
                   modulus: int | None = None, *,
                   rows: np.ndarray | None = None) -> "LabeledGraph":
        """A graph that takes `keys` and exactly one of `adj` and `rows` as
        its own without the copies and checks `__init__` makes; nothing is
        checked.

        The caller hands in an (|V|, 2) int key array whose rows are (k, k)
        or (a, b) with a < b, pairwise distinct, and a fresh array that
        nothing else holds: either a |V|-square bool matrix `adj`, symmetric
        with a clear diagonal, or a C-contiguous uint8 array `rows` of shape
        (|V|, ceil(|V| / 8)) that is exactly `np.packbits` of such a matrix
        along axis 1: every padding bit past |V| zero and every diagonal bit
        clear. `_residue_graphs` builds rows so; `line_graph`, `total_graph`
        and `family_graphs`' copy of the line graph build a dense matrix.
        `serialize._graph` checks distinctness itself, takes its rows from
        `_rendered_keys` or `parse_label`, which both check a < b, and sets
        both halves of each edge it has checked to satisfy
        0 <= i < j < |V|."""
        g = cls.__new__(cls)
        g._init(keys, adj, rows, modulus)
        return g

    def _init(self, keys: np.ndarray, a: np.ndarray | None, rows: np.ndarray | None,
              modulus: int | None) -> None:
        for arr in (keys, a, rows):
            if arr is not None:
                arr.setflags(write=False)
        self._keys = keys
        self._adj = a
        self._rows = rows
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

    @property
    def adj(self) -> np.ndarray:
        """The read-only |V|-square bool adjacency; unpacked from the rows on
        first read when the graph was built from rows."""
        if self._adj is None:
            # a bool view of a fresh uint8 matrix: no view into the rows
            a = np.unpackbits(self._rows, axis=1, count=self.n_vertices).view(bool)
            a.setflags(write=False)
            self._adj = a
        return self._adj

    def rows(self) -> np.ndarray:
        """The read-only adjacency rows packed to bytes, (|V|, ceil(|V| / 8))
        uint8: vertex u is bit 128 >> u % 8 of byte u // 8, padding bits zero.
        Packed from `adj` on first use when the graph was built dense."""
        if self._rows is None:
            r = np.packbits(self._adj, axis=1)
            r.setflags(write=False)
            self._rows = r
        return self._rows

    def degrees(self) -> np.ndarray:
        """The read-only int64 degrees by vertex id; counted on first use
        only, by popcount over the rows."""
        if self._deg is None:
            # packing and counting a dense graph's rows took half the time of
            # summing its bools on 700-2400 vertices (2-core Xeon), and the
            # rows are kept for the checker. int32 row sums run about twice
            # as fast as int64 ones; |V| fits
            deg = np.bitwise_count(self.rows()).sum(axis=1, dtype=np.int32).astype(np.int64)
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
        # rows are canonical, so equal rows are equal adjacencies
        return (np.array_equal(self._keys, other._keys)
                and np.array_equal(self.rows(), other.rows()))

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


class GraphFamily(Enum):
    GAMMA = "gamma"
    NILRADICAL = "nilradical"
    OMEGA = "omega"
    LINE_OF_GAMMA = "line-of-gamma"
    TOTAL_OF_GAMMA = "total-of-gamma"


# the divisor classes d = gcd(k, n) whose residues each residue graph keeps,
# by rad = rad(n): the zero divisors, the nonzero nilpotents and the zero
# divisors that are not nilpotent
_KEEP = {
    GraphFamily.GAMMA: lambda d, rad: d > 1,
    GraphFamily.NILRADICAL: lambda d, rad: d % rad == 0,
    GraphFamily.OMEGA: lambda d, rad: (d > 1) & (d % rad != 0),
}


def _residue_graphs(n: int, families: Iterable[GraphFamily]) -> dict[GraphFamily, LabeledGraph]:
    """For each f of gamma, nilradical and omega in `families`, the residues
    k in [1, n) whose class gcd(k, n) `_KEEP[f]` keeps, ascending, adjacent
    iff n | u*v. For every prime power p^e of n, v_p(uv) >= e iff
    min(v_p(u), e) + min(v_p(v), e) >= e, so n | u*v iff
    n | gcd(u, n) * gcd(v, n): adjacency is fixed by a table over the
    divisor classes, the compressed zero-divisor graph. The sieve, the
    classes and the table are shared by every graph asked for, and each is
    built as rows: the table's columns gathered by class and packed once,
    its rows gathered by class, and the diagonal bits cleared."""
    gcds = gcd_sieve(n)[1:]
    # every proper divisor d of n is gcd(d, n), so these are all the classes.
    # Array methods here, not np.flatnonzero and the like: their wrappers
    # cost as much as the work on a survey-sized modulus
    divisors = np.bincount(gcds, minlength=n).nonzero()[0]
    cls = divisors.searchsorted(gcds)
    table = np.multiply.outer(divisors, divisors) % n == 0
    # only a vertex u with u^2 = 0 mod n has its own bit set
    self_adjacent = table.diagonal()
    rad = factorize(n).radical
    out = {}
    for f in families:
        kept = _KEEP[f](divisors, rad)
        vs = kept[cls].nonzero()[0]
        c = cls[vs]
        # row c of the class table, its columns gathered by class and packed,
        # is a class-c vertex's row: gather rows. `take` keeps the gathered
        # columns C-ordered, which packs 3-4x as fast as a fancy-indexed
        # column gather
        rows = np.packbits(table.take(c, axis=1), axis=1).take(c, axis=0)
        if (kept & self_adjacent).any():
            v = self_adjacent[c].nonzero()[0]
            rows[v, v >> 3] &= _CLEAR_BIT[v & 7]
        out[f] = LabeledGraph._from_keys((vs + 1).repeat(2).reshape(-1, 2), rows=rows,
                                         modulus=n)
    return out


def gamma(n: int) -> LabeledGraph:
    """Zero-divisor graph: vertices gcd(k,n) > 1, edge iff u*v = 0 mod n."""
    return _residue_graphs(n, (GraphFamily.GAMMA,))[GraphFamily.GAMMA]


def nilradical_graph(n: int) -> LabeledGraph:
    """Induced on the nonzero nilpotents (multiples of rad(n))."""
    return _residue_graphs(n, (GraphFamily.NILRADICAL,))[GraphFamily.NILRADICAL]


def non_nilradical_graph(n: int) -> LabeledGraph:
    """Induced on the zero divisors that are not nilpotent."""
    return _residue_graphs(n, (GraphFamily.OMEGA,))[GraphFamily.OMEGA]


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


def family_graphs(n: int, families: Iterable[GraphFamily]) -> dict[GraphFamily, LabeledGraph]:
    """`build_family(n, f)` for every f in `families`, keyed by f, with the
    work shared between them. Gamma, the nilradical and the omega graph come
    from one `_residue_graphs` call, gamma built once when any of gamma,
    line-of-gamma and total-of-gamma is asked for. When both are asked for,
    the line graph is a copy of the total graph's edge-edge block."""
    fams = {GraphFamily(f) for f in families}
    F = GraphFamily
    need_gamma = bool({F.GAMMA, F.LINE_OF_GAMMA, F.TOTAL_OF_GAMMA} & fams)
    out = _residue_graphs(n, [f for f in _KEEP if f in fams
                              or (f is F.GAMMA and need_gamma)])
    if not need_gamma:
        return out
    g = out[F.GAMMA] if F.GAMMA in fams else out.pop(F.GAMMA)
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
