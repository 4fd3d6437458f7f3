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

# the byte that holds bit 128 >> i of a packed row, and the mask that clears
# it, by i = u % 8
_BIT = (128 >> np.arange(8)).astype(np.uint8)
_CLEAR_BIT = ~_BIT

# most bytes of rows that one gather of the line and total graph builder
# writes, or one block of `edge_ends` unpacks, at once
_GATHER_BYTES = 1 << 18


class LabeledGraph:
    """Simple undirected graph; vertex ids are 0..|V|-1 fixed by label order.

    Adjacency is held as `rows()`, read-only rows packed to bytes as
    `np.packbits(adj, axis=1)` packs a |V|-square bool matrix (vertex u is
    bit 128 >> u % 8 of byte u // 8, padding bits zero, diagonal clear).
    `adj`, that dense matrix, is unpacked from the rows on first read and
    kept, so the two never disagree. Labels are held as a read-only (|V|, 2)
    int64 key array: `Residue(k)` is the row (k, k) and `EdgePair(a, b)` the
    row (a, b), a < b, so the two kinds never share a key. The label objects
    are built from the keys on first use.
    `modulus` records the n the graph derives from and survives the
    line/total transforms. A built graph keeps what `degrees_in()` counts
    from in place of the rows: a residue graph its divisor-class table
    (`_classes`), a line or total graph Γ and Γ's edge ends (`_base`); a
    residue graph's `neighbors` and a line or total graph's `twins` read
    them too. `degrees()` is `degrees_in()` of every vertex. No other module
    reads how a graph is stored.
    """

    __slots__ = ("_keys", "_adj", "_rows", "modulus", "_deg", "_labels", "_id_of",
                 "_names", "_classes", "_base")

    def __init__(self, labels: Iterable[VertexLabel], adj, modulus: int | None = None):
        keys, a = _keys_of(labels), np.asarray(adj, dtype=bool)
        if a.shape != (len(keys), len(keys)):
            raise ValueError(f"adjacency shape {a.shape} does not match {len(keys)} labels")
        # one |V|^2 temporary
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if a.diagonal().any():
            raise ValueError("self-loops are not allowed")
        _check_distinct(keys)
        self._init(keys, np.packbits(a, axis=1), modulus)

    @classmethod
    def _from_keys(cls, keys: np.ndarray, rows: np.ndarray | None, modulus: int | None = None,
                   **structure) -> "LabeledGraph":
        """A graph that takes `keys`, `rows` and `structure` as its own without
        the checks `__init__` makes; nothing is checked.

        The caller hands in an (|V|, 2) int key array whose rows are (k, k)
        or (a, b) with a < b, pairwise distinct, and a fresh C-contiguous
        uint8 array `rows` of shape (|V|, ceil(|V| / 8)) that nothing else
        holds and that is exactly `np.packbits` along axis 1 of a symmetric
        |V|-square bool matrix with a clear diagonal: every padding bit past
        |V| zero and every diagonal bit clear; or None and the `classes`
        (`_residue_graphs`) or `base` (`_edge_graphs`) from which `rows()`
        builds them so. `serialize._graph` checks distinctness itself, takes
        its keys from `_rendered_keys` or `parse_label`, which both check
        a < b, and packs a matrix in which it sets both halves of each edge
        it has checked to satisfy 0 <= i < j < |V|."""
        g = cls.__new__(cls)
        g._init(keys, rows, modulus, **structure)
        return g

    def _init(self, keys: np.ndarray, rows: np.ndarray | None, modulus: int | None,
              classes: tuple | None = None, base: tuple | None = None) -> None:
        keys.setflags(write=False)
        if rows is not None:
            rows.setflags(write=False)
        self._keys = keys
        self._adj: np.ndarray | None = None
        self._rows = rows
        self.modulus = modulus
        self._deg: np.ndarray | None = None
        self._labels: tuple[VertexLabel, ...] | None = None
        self._id_of: dict[VertexLabel, int] | None = None
        self._names: tuple[str, ...] | None = None
        self._classes = classes
        self._base = base

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
        first read."""
        if self._adj is None:
            # a bool view of a fresh uint8 matrix: no view into the rows
            a = np.unpackbits(self.rows(), axis=1, count=self.n_vertices).view(bool)
            a.setflags(write=False)
            self._adj = a
        return self._adj

    def rows(self) -> np.ndarray:
        """The read-only adjacency rows packed to bytes, (|V|, ceil(|V| / 8))
        uint8: vertex u is bit 128 >> u % 8 of byte u // 8, padding bits zero.
        A built graph builds them on first use only, from its class table or
        from Γ."""
        if self._rows is None:
            if self._classes is not None:
                c, class_rows, loop = self._classes
                rows = class_rows.take(c, axis=0)
                v = loop[c].nonzero()[0]
                rows[v, v >> 3] &= _CLEAR_BIT[v & 7]
            else:
                g, iu, iv = self._base
                rows = _edge_rows(g, iu, iv, self.n_vertices - iu.size)
            rows.setflags(write=False)
            self._rows = rows
        return self._rows

    def degrees(self) -> np.ndarray:
        """The read-only int64 degrees by vertex id: `degrees_in` of every
        vertex, counted on first use only."""
        if self._deg is None:
            deg = self.degrees_in(np.ones(self.n_vertices, dtype=bool))
            deg.setflags(write=False)
            self._deg = deg
        return self._deg

    def degrees_in(self, in_set: np.ndarray) -> np.ndarray:
        """Each vertex's neighbours in `in_set`, a bool mask by vertex id, as
        a fresh int64 array: from the class table or Γ's edges when the graph
        keeps them, built rows or not, else by popcount over the rows."""
        if self._classes is not None:
            # a class row less a self-adjacent vertex's own bit
            c, class_rows, loop = self._classes
            return _row_popcounts(class_rows & np.packbits(in_set))[c] - (loop[c] & in_set)
        if self._base is not None:
            # a line or total graph of Γ: at(x) counts the in-set edges at
            # residue x, and an edge uv meets at(u) + at(v) of them, itself
            # twice when in the set
            g, iu, iv = self._base
            lead = self.n_vertices - iu.size
            on = in_set[lead:]
            at = np.bincount(np.concatenate([iu[on], iv[on]]), minlength=g.n_vertices)
            ne = at[iu] + at[iv] - 2 * on
            if not lead:
                return ne
            # in the total graph an edge also meets its two ends, and a
            # residue its Γ-neighbours and its incident edges
            res = in_set[:lead]
            return np.concatenate([g.degrees_in(res) + at, ne + res[iu] + res[iv]])
        # the mask's padding bits meet the rows' zero padding
        t = self.rows() & np.packbits(in_set)
        return _row_popcounts(t, out=t)

    def degree(self, v: int) -> int:
        return int(self.degrees()[v])

    # A residue graph reads a vertex's row from its class table, its class
    # row less its own bit, and builds no rows. range() raises IndexError for
    # an id in a row's padding bits too.
    def neighbors(self, v: int) -> np.ndarray:
        v = range(self.n_vertices)[v]
        if self._classes is None:
            row = self.rows()[v]
        else:
            c, class_rows, _ = self._classes
            row = class_rows[c[v]].copy()
            row[v >> 3] &= _CLEAR_BIT[v & 7]
        return np.unpackbits(row, count=self.n_vertices).nonzero()[0]

    def has_edge(self, u: int, v: int) -> bool:
        u, v = range(self.n_vertices)[u], range(self.n_vertices)[v]
        if self._classes is None:
            return bool(self.rows()[u, v >> 3] & _BIT[v & 7])
        c, class_rows, _ = self._classes
        return u != v and bool(class_rows[c[u], v >> 3] & _BIT[v & 7])

    def twins(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The twin classes of `search.twin_classes` (class id by vertex,
        clique flag by class) and each class's smallest vertex. A line or
        total graph whose Γ passes `_edge_twins`' guard takes them from Γ's
        degrees, with no rows built; any other graph sorts its rows
        (`_row_twins`)."""
        found = None if self._base is None else _edge_twins(
            *self._base, self.n_vertices - self._base[1].size)
        rep, clique = _row_twins(self.rows()) if found is None else found
        reps = (rep == np.arange(rep.size)).nonzero()[0]
        return reps.searchsorted(rep), clique[reps], reps

    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The ends i < j of every edge as two intp arrays, in lexicographic
        order, as `np.nonzero(np.triu(adj))` gives them. They are read from
        the rows, a block of at most _GATHER_BYTES // |V| rows at a time:
        first the set bytes of the block, in order, then their set bits, so
        `adj` is never unpacked and no temporary grows with |V|^2."""
        nv, rows = self.n_vertices, self.rows()
        step = max(1, _GATHER_BYTES // max(1, nv))
        iu, iv = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
        for a in range(0, nv, step):
            blk = rows[a:a + step]
            r, c = blk.nonzero()
            k, bit = np.unpackbits(blk[r, c][:, None], axis=1).nonzero()
            i, j = r[k] + a, c[k] * 8 + bit
            upper = j > i
            iu.append(i[upper])
            iv.append(j[upper])
        return np.concatenate(iu), np.concatenate(iv)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (i, j) with i < j, sorted lexicographically."""
        iu, iv = self.edge_ends()
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


def _row_popcounts(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each row's set bits of packed uint8 `rows` as int64, popcounted into
    `out` when given. int32 sums any row exactly that fits in memory, one of
    under 2^28 bytes."""
    return np.bitwise_count(rows, out=out).sum(axis=1, dtype=np.int32).astype(np.int64)


def _row_twins(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's smallest twin, and whether its class is a clique, from
    the packed rows by one stable sort.

    Slot v < |V| holds the open row of v, its packed row, slot |V| + v its
    closed row (the open row with v's own bit set); each row is one
    byte-string key. In sorted order a run of equal keys starts wherever two
    neighbours differ, and since ties keep slot order, the first slot of a
    run is its smallest. No open row equals a closed one, because
    N(u) = N[v] would put u in N(u).
    """
    nv = packed.shape[0]
    v = np.arange(nv)
    rows = np.concatenate((packed, packed))
    rows[nv + v, v >> 3] |= _BIT[v & 7]
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.ones(2 * nv, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    run = np.empty(2 * nv, dtype=np.intp)
    run[order] = np.cumsum(first) - 1
    lead, size = order[first], np.bincount(run)
    # a closed run of two or more is a clique class; every other vertex
    # belongs to its open run, an independent class or a vertex alone
    clique = size[run[nv:]] > 1
    return np.where(clique, lead[run[nv:]] - nv, lead[run[:nv]]), clique


def _edge_twins(g: LabeledGraph, iu: np.ndarray, iv: np.ndarray,
                lead: int) -> tuple[np.ndarray, np.ndarray] | None:
    """`_row_twins` of g's line graph (`lead` 0) or total graph (`lead` |V|),
    whose edges have the ends `iu`, `iv`, from g's degrees alone; None when
    g has an edge with no end of degree 4 or more, or, for the total graph,
    an isolated vertex (one leaves no trace in the line graph).

    Past that guard (README, "Twin classes of the line and total graphs")
    the total graph has no twins, and in the line graph the edges from a
    vertex to its neighbours of degree 1 are closed twins, a clique class
    when there are two or more; every other edge is a class of its own."""
    deg = g.degrees()
    du, dv = deg[iu], deg[iv]
    if (lead and not deg.all()) or (np.maximum(du, dv) < 4).any():
        return None
    rep = np.arange(lead + iu.size)
    clique = np.zeros(rep.size, dtype=bool)
    if lead:
        return rep, clique
    # a pendant edge's centre is its end of degree over 1; the pendant
    # edges at one centre are led by the first of them
    centre = np.where(du == 1, iv, np.where(dv == 1, iu, -1))
    pendant = (centre >= 0).nonzero()[0]
    at = centre[pendant]
    first = np.full(g.n_vertices, rep.size)
    np.minimum.at(first, at, pendant)
    rep[pendant] = first[at]
    clique[pendant] = np.bincount(at, minlength=g.n_vertices)[at] > 1
    return rep, clique


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
    classes and the table are shared by every graph asked for. Each graph
    keeps its class table as `_classes`: every vertex's class id, the
    table's columns gathered by class and packed once (the class rows) and
    the self-adjacent flags, by class; `rows()` gathers the class rows by
    class and clears the diagonal bits on first use only."""
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
        # is a class-c vertex's row. `take` keeps the gathered columns
        # C-ordered, which packs 3-4x as fast as a fancy-indexed column gather
        class_rows = np.packbits(table.take(c, axis=1), axis=1)
        out[f] = LabeledGraph._from_keys((vs + 1).repeat(2).reshape(-1, 2), None, n,
                                         classes=(c, class_rows, self_adjacent))
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


def _edge_graphs(g: LabeledGraph, families: set[GraphFamily]) -> dict[GraphFamily, LabeledGraph]:
    """g's line graph, in which two edges are adjacent iff they share an
    endpoint, and its total graph, the one or both of them `families` asks
    for, keyed by family. Both keep g and its edge ends (`edge_ends`) as
    `_base`, count from them and build their rows (`_edge_rows`) from them
    on first use."""
    keys = g.keys()
    if (keys[:, 0] != keys[:, 1]).any():
        raise DomainError("line and total graphs need a residue-labeled graph, found EdgePair")
    iu, iv = g.edge_ends()
    ku, kv = keys[iu, 0], keys[iv, 0]
    edge_keys = np.stack([np.minimum(ku, kv), np.maximum(ku, kv)], axis=1)
    return {f: LabeledGraph._from_keys(
        edge_keys if f is GraphFamily.LINE_OF_GAMMA else np.concatenate([keys, edge_keys]),
        None, g.modulus, base=(g, iu, iv)) for f in families}


def _edge_rows(g: LabeledGraph, iu: np.ndarray, iv: np.ndarray, lead: int) -> np.ndarray:
    """The rows of g's line graph (`lead` 0) or total graph (`lead` |V|),
    whose edges have the ends `iu`, `iv`. Vertex u's incident edges are
    packed once as the bits lead + e of a row. An edge's row is the XOR of
    its ends' rows, gathered a block of at most _GATHER_BYTES at a time,
    with its ends' bits set in the total graph. The total graph's residue
    rows are the incidence rows OR-ed with g's rows, so g is never
    unpacked."""
    nv, ne = g.n_vertices, iu.size
    w = (lead + ne + 7) >> 3
    # every byte is written below; the rows, the largest array, come first,
    # so a graph too large for memory fails before any work
    rows = np.empty((lead + ne, w), dtype=np.uint8)
    # the total graph's residue rows hold the incidence until g's rows are
    # OR-ed in, last
    inc = rows[:nv] if lead else np.empty((nv, w), dtype=np.uint8)
    inc[...] = 0
    col = lead + np.arange(ne)
    byte, bit = col >> 3, _BIT[col & 7]
    # an end's edges can share a byte, so the bits are OR-ed unbuffered
    np.bitwise_or.at(inc, (iu, byte), bit)
    np.bitwise_or.at(inc, (iv, byte), bit)
    # two edges of a simple graph share at most one end, so the XOR of an
    # edge's two ends' rows holds every edge adjacent to it, and not itself,
    # the one edge at both
    step = max(1, _GATHER_BYTES // max(1, w))
    for a in range(0, ne, step):
        np.bitwise_xor(inc[iu[a:a + step]], inc[iv[a:a + step]],
                       out=rows[lead + a:lead + a + step])
    if lead:
        for end in (iu, iv):
            rows[col, end >> 3] |= _BIT[end & 7]
        inc[:, :g.rows().shape[1]] |= g.rows()
    return rows


def line_graph(g: LabeledGraph) -> LabeledGraph:
    """One vertex per edge of g; adjacency iff the edges share an endpoint."""
    return _edge_graphs(g, {GraphFamily.LINE_OF_GAMMA})[GraphFamily.LINE_OF_GAMMA]


def total_graph(g: LabeledGraph) -> LabeledGraph:
    """Vertices of g plus edges of g; all vertex-vertex, edge-edge, vertex-edge adjacencies."""
    return _edge_graphs(g, {GraphFamily.TOTAL_OF_GAMMA})[GraphFamily.TOTAL_OF_GAMMA]


def family_graphs(n: int, families: Iterable[GraphFamily]) -> dict[GraphFamily, LabeledGraph]:
    """`build_family(n, f)` for every f in `families`, keyed by f, with the
    work shared between them. Gamma, the nilradical and the omega graph come
    from one `_residue_graphs` call, gamma built once when any of gamma,
    line-of-gamma and total-of-gamma is asked for; the line and total graphs
    come from one walk of gamma's edges."""
    fams = {GraphFamily(f) for f in families}
    F = GraphFamily
    edge_fams = {F.LINE_OF_GAMMA, F.TOTAL_OF_GAMMA} & fams
    out = _residue_graphs(n, [f for f in _KEEP if f in fams or (f is F.GAMMA and edge_fams)])
    if edge_fams:
        g = out[F.GAMMA] if F.GAMMA in fams else out.pop(F.GAMMA)
        out.update(_edge_graphs(g, edge_fams))
    return out


def build_family(n: int, family: GraphFamily) -> LabeledGraph:
    family = GraphFamily(family)
    return family_graphs(n, (family,))[family]
