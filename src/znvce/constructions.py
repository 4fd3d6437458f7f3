"""Explicit very-cost-effective bipartitions, one per modulus shape, plus a
dispatcher that picks the applicable construction (or falls back to search).

One table, `_TABLE`, maps (family, modulus shape) to a split and its
`ConstructionId`; `dispatch` and the public `vce_*` builders both read it.
Every partition is verified through the checker exactly once before it
leaves the module, by the `Exists` certificate that wraps it: `dispatch`
returns that certificate, a `vce_*` builder its partition. A verification
failure is a ConstructionError, never a silently wrong result.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import ConstructionError, DomainError, ShapeError
from .graphs import GraphFamily, LabeledGraph, build_family
from .rings import ModulusShape, ShapeKind, is_prime, modulus_shape
# brute_force stays a name of this module for perfbench's tracer test
from .search import (
    DEFAULT_VERTEX_CAP,
    ExhaustedSearch,
    IsolatedVertex,
    SearchOutcome,
    SearchStatus,
    brute_force,
    exact_search,
)
from .vce import Bipartition, is_vce


class ConstructionId(Enum):
    THM2_1_SQUAREFREE = "Thm2_1_Squarefree"
    COR2_2_PQ = "Cor2_2_PQ"
    THM2_3I_P2Q = "Thm2_3i_P2Q"
    THM2_3II_P2Q2 = "Thm2_3ii_P2Q2"
    THM2_4_LINE_PQ = "Thm2_4_LinePQ"
    THM3_3I_P2 = "Thm3_3i_P2"
    THM3_3II_P2Q2_NIL = "Thm3_3ii_P2Q2_Nil"
    THM3_3III_P3 = "Thm3_3iii_P3"
    THM3_3IV_P2Q_NIL = "Thm3_3iv_P2Q_Nil"
    THM3_5_OMEGA_SQUAREFREE = "Thm3_5_OmegaSquarefree"
    THM4_2_TOTAL_PQ = "Thm4_2_TotalPQ"
    LINE_4Q = "Line4Q"
    TOTAL_4Q = "Total4Q"


@dataclass(frozen=True, eq=False)
class Exists:
    """A verified very-cost-effective bipartition. source None means search."""

    graph: LabeledGraph
    partition: Bipartition
    source: ConstructionId | None = None

    def __post_init__(self):
        if not is_vce(self.graph, self.partition):
            raise ConstructionError("certificate partition failed verification")

    @property
    def source_tag(self) -> str:
        return self.source.value if self.source is not None else "Search"


@dataclass(frozen=True, eq=False)
class NotVce:
    """Proof that no very-cost-effective bipartition exists.

    An isolated vertex is checked against the graph. An exhausted search is
    checked for consistency only: `brute_force`, its one source, examines
    every bipartition but the all-R one, 2^(|V| - 1) - 1 in all, and any
    other count is refused. The search itself is not replayed."""

    graph: LabeledGraph
    witness: IsolatedVertex | ExhaustedSearch

    def __post_init__(self):
        w = self.witness
        nv = self.graph.n_vertices
        if isinstance(w, IsolatedVertex):
            # a negative id would wrap around to a vertex from the end
            if not 0 <= w.vertex < nv:
                raise ConstructionError(f"witness vertex id {w.vertex} is out of range")
            if self.graph.degree(w.vertex) != 0:
                raise ConstructionError(
                    f"claimed isolated vertex {w.label.render()} has neighbors")
            if self.graph.label(w.vertex) != w.label:
                raise ConstructionError("witness label does not match its vertex id")
        elif w.partitions_examined != (whole := max(0, (1 << nv) // 2 - 1)):
            raise ConstructionError(f"an exhaustive search of {nv} vertices examines "
                                    f"{whole} bipartitions, not {w.partitions_examined}")


Certificate = Union[Exists, NotVce]


def _residues(g: LabeledGraph) -> np.ndarray:
    return g.keys()[:, 0]


def _squarefree_split(g: LabeledGraph, s: ModulusShape) -> Bipartition:
    # R = the multiples of the largest prime factor; they form an independent
    # set whose neighbors all sit in B, and B-side products cannot reach 0
    # often enough to tip any tally
    return Bipartition(_residues(g) % s.primes[-1] != 0)


def _p2q_split(g: LabeledGraph, s: ModulusShape) -> Bipartition:
    # R = multiples of q; B = multiples of p not q; together all zero divisors
    return Bipartition(_residues(g) % s.q != 0)


def _p2q2_split(g: LabeledGraph, s: ModulusShape) -> Bipartition:
    p, q = s.p, s.q
    ks = _residues(g)
    pure = (ks % (p * q) == 0) & (ks % (p * p) != 0) & (ks % (q * q) != 0)
    n_pure = int(pure.sum())
    if n_pure != (p - 1) * (q - 1):
        raise ConstructionError(
            f"expected {(p - 1) * (q - 1)} pure pq-multiples, found {n_pure}")
    in_r = (ks % (p * p) == 0) | ((ks % p == 0) & (ks % q != 0))
    # the pure pq-multiples share one common neighborhood, so only the split
    # sizes matter; take the smallest (q(p-2)+1)/2 of them for R
    r3 = np.flatnonzero(pure)[: (q * (p - 2) + 1) // 2]
    in_r[r3] = True
    return Bipartition(~in_r)


def _line_side_in_r(a: np.ndarray, b: np.ndarray, p: int, q: int) -> np.ndarray:
    # per edge (a, b): u is its end that p divides, v its other end
    a_is_u = a % p == 0
    i, j = np.where(a_is_u, a, b) // p, np.where(a_is_u, b, a) // q
    low_half = (1 <= j) & (j <= (p - 1) // 2)
    return (i % 2 == 1) == low_half


def _line_split(g: LabeledGraph, s: ModulusShape) -> Bipartition:
    if s.p == 2:
        # the line graph of the star on q vertices is K_{q-1}, even order;
        # any balanced split works, ascending label order keeps it canonical
        return _balanced_split(g, s)
    ks = g.keys()
    return Bipartition(~_line_side_in_r(ks[:, 0], ks[:, 1], s.p, s.q))


def _balanced_split(g: LabeledGraph, s: ModulusShape) -> Bipartition:
    nv = g.n_vertices
    return Bipartition(np.arange(nv) >= nv // 2)


def _p3_split(g: LabeledGraph, s: ModulusShape) -> Bipartition:
    # B = multiples of p^2 (p-1 of them), R = the rest (p(p-1) of them)
    return Bipartition(_residues(g) % (s.p * s.p) == 0)


def _total_split(g: LabeledGraph, s: ModulusShape) -> Bipartition:
    a, b = g.keys().T
    in_r = np.where(a == b, a % s.p == 0, _line_side_in_r(a, b, s.p, s.q))
    return Bipartition(~in_r)


def _4q_split(g: LabeledGraph, s: ModulusShape) -> Bipartition:
    # n = 4q: B holds the residues q does not divide (classes 2 and 4) and
    # each edge from a residue 4i to 2q, to q when i is odd, or to 3q when i
    # is even; every other vertex is on R (README, "Line and total graphs of
    # Γ(Z_4q)"). No edge joins two multiples of 4, so x, the end 4 divides
    # when there is one, is well defined
    a, b = g.keys().T
    q = s.q
    a_is_x = a % 4 == 0
    x, y = np.where(a_is_x, a, b), np.where(a_is_x, b, a)
    edge_on_b = (x % 4 == 0) & ((y == 2 * q) | (y == np.where(x % 8 == 4, q, 3 * q)))
    return Bipartition(np.where(a == b, a % q != 0, edge_on_b))


class _Row(NamedTuple):
    """One construction: the graphs it covers and the split it applies.

    It covers the `family` graph of every n whose shape has kind `kind`, and
    exactly `primes` distinct primes when that is not None. `p2_refusal` is
    the reason p = 2 (the shape's p) is left out, or None when it is not;
    `p2_only` covers p = 2 alone. `split` makes the partition from the graph
    and the shape. A `past_cap_only` row applies in `dispatch` only to a
    graph with more vertices than the vertex cap, so that a graph that search
    decides within the cap keeps its search answer; the builders ignore it.
    """

    family: GraphFamily
    kind: ShapeKind
    primes: int | None
    p2_refusal: str | None
    split: Callable[[LabeledGraph, ModulusShape], Bipartition]
    cid: ConstructionId
    p2_only: bool = False
    past_cap_only: bool = False


_F, _K, _C = GraphFamily, ShapeKind, ConstructionId

# The first row that covers (family, shape) applies. A refusal that says no
# very-cost-effective split exists is checked against a search oracle in
# tests/test_routing_table.py; the gamma p^2 q^2 one says only that p = 2
# lies outside the theorem (gamma(100) has such a split).
_TABLE = (
    _Row(_F.GAMMA, _K.SQUAREFREE_COMPOSITE, 2, None, _squarefree_split, _C.COR2_2_PQ),
    _Row(_F.GAMMA, _K.SQUAREFREE_COMPOSITE, None, None, _squarefree_split, _C.THM2_1_SQUAREFREE),
    _Row(_F.GAMMA, _K.P_SQUARED_Q, None, None, _p2q_split, _C.THM2_3I_P2Q),
    _Row(_F.GAMMA, _K.P_SQUARED_Q_SQUARED, None,
         "p = 2 is not covered; both primes must be odd", _p2q2_split, _C.THM2_3II_P2Q2),
    _Row(_F.LINE_OF_GAMMA, _K.SQUAREFREE_COMPOSITE, 2, None, _line_split, _C.THM2_4_LINE_PQ),
    _Row(_F.NILRADICAL, _K.P_SQUARED, None,
         "the nilpotent graph of 4 is a single vertex; no bipartition",
         _balanced_split, _C.THM3_3I_P2),
    _Row(_F.NILRADICAL, _K.P_SQUARED_Q_SQUARED, None,
         "p = 2 gives the complete graph on 2q - 1 vertices, odd order, "
         "which has no very-cost-effective split (n = 36 checked exhaustively)",
         _balanced_split, _C.THM3_3II_P2Q2_NIL),
    _Row(_F.NILRADICAL, _K.P_CUBED, None, None, _p3_split, _C.THM3_3III_P3),
    _Row(_F.NILRADICAL, _K.P_SQUARED_Q, None,
         "the squared prime must be odd; 4q leaves a single vertex",
         _balanced_split, _C.THM3_3IV_P2Q_NIL),
    _Row(_F.OMEGA, _K.SQUAREFREE_COMPOSITE, None, None,
         _squarefree_split, _C.THM3_5_OMEGA_SQUAREFREE),
    _Row(_F.TOTAL_OF_GAMMA, _K.SQUAREFREE_COMPOSITE, 2,
         "p = 2 total graphs are never very cost effective; no construction",
         _total_split, _C.THM4_2_TOTAL_PQ),
    # search decides line-of-gamma 12, 20 and 28 and total-of-gamma 12
    # within the cap, and those answers stay
    _Row(_F.LINE_OF_GAMMA, _K.P_SQUARED_Q, None, None, _4q_split, _C.LINE_4Q,
         p2_only=True, past_cap_only=True),
    _Row(_F.TOTAL_OF_GAMMA, _K.P_SQUARED_Q, None, None, _4q_split, _C.TOTAL_4Q,
         p2_only=True, past_cap_only=True),
)


def _row(shape: ModulusShape, family: GraphFamily) -> _Row | None:
    """The first row that covers (shape, family), whether or not it refuses p = 2."""
    return next((r for r in _TABLE if r.family is family and r.kind is shape.kind
                 and r.primes in (None, len(shape.primes))
                 and (not r.p2_only or shape.p == 2)), None)


def _route(shape: ModulusShape, family: GraphFamily,
           past_cap: bool = True) -> tuple[Callable, ConstructionId] | None:
    """The split and id that apply to (shape, family), for a graph past the
    vertex cap when `past_cap` (the builders' view, which ignores the cap);
    None when no row covers it, or its row refuses p = 2 or waits for the cap."""
    row = _row(shape, family)
    if (row is None or (row.p2_refusal is not None and shape.p == 2)
            or (row.past_cap_only and not past_cap)):
        return None
    return row.split, row.cid


def _construct(n: int, family: GraphFamily, kind: ShapeKind | None = None) -> Bipartition:
    """The verified partition of the row that covers the `family` graph of n,
    when that row has kind `kind` (any kind when None). The shape is checked,
    and a ShapeError raised, before any graph is built."""
    shape = modulus_shape(n)
    row = _row(shape, family)
    if row is None or kind not in (None, row.kind):
        scope = (f"this {family.value} construction, which needs {kind.value}" if kind
                 else f"every {family.value} construction")
        raise ShapeError(f"n = {n} (shape {shape.kind.value}) is outside {scope}")
    if _route(shape, family) is None:  # the row refuses p = 2
        raise ShapeError(row.p2_refusal)
    g = build_family(n, family)
    return Exists(g, row.split(g, shape), row.cid).partition


def vce_squarefree(n: int) -> Bipartition:
    """R = zero divisors divisible by the largest prime factor, B = the rest."""
    return _construct(n, GraphFamily.GAMMA, ShapeKind.SQUAREFREE_COMPOSITE)


def vce_p2q(n: int) -> Bipartition:
    """R = multiples of q, B = multiples of p not q, over the zero-divisor graph."""
    return _construct(n, GraphFamily.GAMMA, ShapeKind.P_SQUARED_Q)


def vce_p2q2(n: int) -> Bipartition:
    """Six-block split of the zero-divisor graph of p^2 q^2, odd p < q."""
    return _construct(n, GraphFamily.GAMMA, ShapeKind.P_SQUARED_Q_SQUARED)


def _require_prime_pair(p: int, q: int) -> None:
    if not (is_prime(p) and is_prime(q) and p != q):
        raise ShapeError(f"({p}, {q}) is not a pair of distinct primes")
    if not p < q:
        raise ShapeError(f"expected p < q, got p = {p}, q = {q}")


def vce_line_pq(p: int, q: int) -> Bipartition:
    """Half-split of the line graph of the complete bipartite zero-divisor
    graph of pq; for p = 2 a balanced split of the complete line graph."""
    _require_prime_pair(p, q)
    return _construct(p * q, GraphFamily.LINE_OF_GAMMA)


def vce_nilradical(n: int) -> Bipartition:
    """Balanced or layered split of the graph on nonzero nilpotents."""
    return _construct(n, GraphFamily.NILRADICAL)


def vce_omega_squarefree(n: int) -> Bipartition:
    """For squarefree n the non-nilpotent graph coincides with the whole
    zero-divisor graph, so the same split applies vertex for vertex."""
    return _construct(n, GraphFamily.OMEGA)


def vce_total_pq(p: int, q: int) -> Bipartition:
    """Original vertices split by p- versus q-multiples; edge vertices reuse
    the line-graph half-split. Requires odd p < q."""
    _require_prime_pair(p, q)
    return _construct(p * q, GraphFamily.TOTAL_OF_GAMMA)


def _require_odd_prime(q: int) -> None:
    if not (q > 2 and is_prime(q)):
        raise ShapeError(f"{q} is not an odd prime")


def vce_line_4q(q: int) -> Bipartition:
    """Split of the line graph of the zero-divisor graph of 4q, q an odd
    prime: each edge from a multiple 4i of 4 to 2q, and to q or 3q as i is
    odd or even, on B; every other edge on R."""
    _require_odd_prime(q)
    return _construct(4 * q, GraphFamily.LINE_OF_GAMMA, ShapeKind.P_SQUARED_Q)


def vce_total_4q(q: int) -> Bipartition:
    """The line graph's split of 4q, q an odd prime, with the residues that
    q does not divide on B and the multiples of q on R."""
    _require_odd_prime(q)
    return _construct(4 * q, GraphFamily.TOTAL_OF_GAMMA, ShapeKind.P_SQUARED_Q)


def certify(g: LabeledGraph, out: SearchOutcome) -> Certificate | None:
    """The certificate of the search outcome `out` on g: `Exists` for a found
    partition, verified as every partition is; `NotVce` for a witness that
    none exists; otherwise None."""
    if out.status is SearchStatus.FOUND:
        return Exists(g, out.partition)
    return None if out.witness is None else NotVce(g, out.witness)


def dispatch(n: int, family: GraphFamily, vertex_cap: int = DEFAULT_VERTEX_CAP, *,
             graph: LabeledGraph | None = None) -> Certificate | None:
    """Certificate for (n, family): the construction when one applies (a
    past-cap-only one to a graph of more than `vertex_cap` vertices), else
    the certificate of `search.exact_search(g, vertex_cap)`. None means that
    search found no partition and handed over no witness that none exists.

    `graph` is `build_family(n, family)` when the caller has built it already;
    it is not rebuilt. A partition is still verified against it."""
    family = GraphFamily(family)
    g = build_family(n, family) if graph is None else graph
    if g.n_vertices == 0:
        raise DomainError(f"the {family.value} graph of {n} is empty; no bipartition possible")
    shape = modulus_shape(n)
    route = _route(shape, family, g.n_vertices > vertex_cap)
    if route is not None:
        split, cid = route
        return Exists(g, split(g, shape), source=cid)
    return certify(g, exact_search(g, vertex_cap))
