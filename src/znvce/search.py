"""Ground truth for very-cost-effective existence: exhaustive enumeration,
the exact search over twin classes and the choice between the two, the witnesses
that none exists, and a greedy local-search heuristic."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import prod
from time import perf_counter
from typing import ClassVar

import numpy as np

from .errors import DomainError
from .graphs import LabeledGraph, VertexLabel
from .vce import Bipartition

DEFAULT_VERTEX_CAP = 26

# _first_vce tabulates up to _LO_VECTORS low vectors once per call (more only
# when class 0 alone has more digits) and checks them against a few high
# vectors at a time, about _BLOCK candidates in all (2^12 and 2^14 were the
# fastest of 2^11..2^13 and 2^13..2^16 tried on masks, 2-core Xeon); the high
# vectors' sums are gathered _HI_CHUNK at a time. Indices are int64, so a
# space spans at most 2^_MAX_FREE vectors
_LO_VECTORS, _BLOCK, _HI_CHUNK, _MAX_FREE = 1 << 12, 1 << 14, 1 << 8, 62

# brute_force asks _first_mask before every scan. A branch node costs about
# as much as 2500 masks of the kernel (11 us against 230 M masks/s on
# total-of-gamma(49), 2-core Xeon), so a node budget of 1/2^_NODES_SHIFT of
# the masks to scan, but at least _NODES_MIN, costs a search that gives up
# about 4% of the scan
_NODES_SHIFT, _NODES_MIN = 16, 16

# local_search climbs its first restart alone and the rest _WAVE at a time
_WAVE = 32


class SearchStatus(Enum):
    FOUND = "Found"
    NONE_EXISTS = "NoneExists"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class IsolatedVertex:
    """A vertex with no neighbours, which no side makes very cost effective."""

    vertex: int
    label: VertexLabel
    tag: ClassVar[str] = "isolated-vertex"

    def render(self) -> str:
        return f"isolated vertex {self.label.render()}"


@dataclass(frozen=True)
class ExhaustedSearch:
    """Every bipartition examined, none very cost effective."""

    partitions_examined: int
    tag: ClassVar[str] = "exhausted-search"

    def render(self) -> str:
        return (f"exhaustive search examined {self.partitions_examined} "
                "bipartitions, none very cost effective")


@dataclass(frozen=True, eq=False)
class SearchOutcome:
    """What a search did; `witness` is a NoneExists's proof, when it has one."""

    status: SearchStatus
    partition: Bipartition | None
    partitions_examined: int
    elapsed: float
    reason: str = ""
    witness: IsolatedVertex | ExhaustedSearch | None = None


def isolated_obstruction(g: LabeledGraph) -> int | None:
    """Smallest isolated vertex id, or None. Its presence rules out any
    very-cost-effective bipartition without enumerating."""
    deg0 = np.flatnonzero(g.degrees() == 0)
    return int(deg0[0]) if deg0.size else None


def _unsearched(g: LabeledGraph, t0: float) -> SearchOutcome | None:
    """NoneExists with nothing examined, and the smallest isolated vertex (if
    any) as witness, when g has fewer than two vertices or an isolated one."""
    v = isolated_obstruction(g)
    if v is None and g.n_vertices > 1:
        return None
    witness = None if v is None else IsolatedVertex(v, g.label(v))
    reason = (witness.render() if g.n_vertices > 1
              else "no valid bipartition on fewer than two vertices")
    return SearchOutcome(SearchStatus.NONE_EXISTS, None, 0, perf_counter() - t0,
                         reason=reason, witness=witness)


def _components(nbrs: list[list[int]]) -> list[list[int]]:
    """The connected components, each as a list of vertex ids, smallest
    component first (ties by smallest vertex)."""
    seen = [False] * len(nbrs)
    comps = []
    for root in range(len(nbrs)):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for v in comp:
            for u in nbrs[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
        comps.append(comp)
    return sorted(comps, key=len)


def _first_mask(adj: np.ndarray, budget: int | None = None) -> int | None:
    """brute_force's first very-cost-effective mask of `adj` (vertex 0 on R,
    bit v - 1 putting vertex v on B), by forced-side propagation and a
    depth-first search: None when there is none, and -1 when the search has
    tried `budget` branch nodes (None: no limit) without a mask or a proof.

    A vertex of degree d may have at most (d - 1) // 2 neighbours on its own
    side. An unassigned vertex over that limit on one side is forced to the
    other, and an assigned vertex at its limit forces its unassigned
    neighbours to the other side; propagation runs to a fixed point or a
    conflict. Swapping the sides of one connected component keeps a
    bipartition very cost effective, and components share no bits, so the
    first mask ORs each component's first, which has its highest vertex on
    R. Each component, smallest first, pins vertex 0 or else its highest
    vertex to R and is searched on its own; one refuted component refutes
    the graph. A branch node takes the component's highest unassigned
    vertex, R first, so complete assignments come in increasing mask order.
    An explicit stack of undo marks keeps long chains of assignments clear
    of Python's recursion limit. With a budget of 0 only the pins'
    propagation runs.
    """
    ends = np.cumsum(adj.sum(axis=1)).tolist()
    cols = np.nonzero(adj)[1].tolist()
    nbrs = [cols[a:b] for a, b in zip([0] + ends, ends)]
    lim = [(len(ns) - 1) // 2 for ns in nbrs]
    side = [-1] * len(nbrs)
    count = ([0] * len(nbrs), [0] * len(nbrs))  # assigned neighbours on R, on B
    trail: list[int] = []  # assigned vertices, in order, for undoing

    def assign(v: int, s: int) -> bool:
        # put v on side s and propagate; False on a conflict
        todo = [(v, s)]
        while todo:
            v, s = todo.pop()
            if side[v] >= 0:
                if side[v] != s:
                    return False
                continue
            side[v] = s
            trail.append(v)
            same = count[s]
            for u in nbrs[v]:
                same[u] += 1
            if same[v] > lim[v]:
                return False
            full = [v] if same[v] == lim[v] else []
            for u in nbrs[v]:
                if side[u] == s:
                    if same[u] > lim[u]:
                        return False
                    if same[u] == lim[u]:
                        full.append(u)
                elif side[u] < 0 and same[u] > lim[u]:
                    todo.append((u, 1 - s))
            for w in full:
                todo.extend((u, 1 - s) for u in nbrs[w] if side[u] < 0)
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            v = trail.pop()
            dec = count[side[v]]
            side[v] = -1
            for u in nbrs[v]:
                dec[u] -= 1

    nodes = 0
    for comp in _components(nbrs):
        comp.sort(reverse=True)
        ok = assign(0 if comp[-1] == 0 else comp[0], 0)
        stack: list[tuple[int, int]] = []  # (undo mark, vertex) whose B side is left to try
        while True:
            if ok:
                v = next((u for u in comp if side[u] < 0), -1)
                if v < 0:
                    break  # the component's first very-cost-effective assignment
                s = 0
                stack.append((len(trail), v))
            elif not stack:
                return None
            else:
                mark, v = stack.pop()
                s = 1
                undo(mark)
            if budget is not None and nodes >= budget:
                break  # given up, with v unassigned
            nodes += 1
            ok = assign(v, s)
    return -1 if -1 in side else sum(1 << (v - 1) for v in range(1, len(side)) if side[v] == 1)


def brute_force(g: LabeledGraph, vertex_cap: int = DEFAULT_VERTEX_CAP) -> SearchOutcome:
    """Enumerate bipartitions in binary-counting order over vertex ids.

    Vertex 0 stays on side R, and bit i of mask k puts vertex i + 1 on side
    B, so masks 1 .. 2^(|V|-1) - 1 are scanned. A found partition is the
    first in this order and partitions_examined is its mask, so runs are
    deterministic. As in class_search, an isolated vertex is NoneExists with
    none examined and that vertex as the witness.

    The scan is the class search's kernel, _first_vce, run over singleton
    classes: a class of radix 2 per free vertex and of radix 1 for vertex 0,
    so a vector's index is its mask. Each candidate costs one add and one
    bitwise OR per vertex, and memory stays bounded whatever the cap. More
    than 62 free vertices is a DomainError, raised before anything is
    allocated.

    _first_mask is asked first, with a node budget of 1/2^16 of the masks
    (at least 16), and the scan runs only when it gives up. Either way the
    count of a NoneExists outcome covers every mask, each one evaluated or
    ruled out by a neighbour-count bound, and its witness is an
    ExhaustedSearch of that count.
    """
    t0 = perf_counter()
    out = _unsearched(g, t0)
    if out is not None:
        return out
    nv = g.n_vertices
    if nv > vertex_cap:
        return SearchOutcome(SearchStatus.INCONCLUSIVE, None, 0, perf_counter() - t0,
                             reason=f"{nv} vertices exceeds the exhaustive cap {vertex_cap}")
    free = nv - 1
    if free > _MAX_FREE:
        raise DomainError("exhaustive search needs one mask bit per free vertex; "
                          f"{free} exceeds the limit of {_MAX_FREE}")
    # mask 0 (all on R) is never very cost effective, so scanning it changes
    # no outcome; the examined count starts at mask 1
    space = 1 << free
    mask = _first_mask(g.adj, max(_NODES_MIN, space >> _NODES_SHIFT))
    if mask == -1:
        ones, radix = np.ones(nv, dtype=np.int64), np.full(nv, 2)
        radix[0] = 1
        mask = _first_vce(g.adj, ones, ones == 0, radix)
    if mask is None:
        return SearchOutcome(SearchStatus.NONE_EXISTS, None, space - 1, perf_counter() - t0,
                             reason="enumeration exhausted", witness=ExhaustedSearch(space - 1))
    in_b = np.zeros(nv, dtype=bool)
    in_b[1:] = [(mask >> i) & 1 for i in range(free)]
    return SearchOutcome(SearchStatus.FOUND, Bipartition(in_b), mask, perf_counter() - t0)


def local_search(
    g: LabeledGraph,
    max_restarts: int = 32,
    max_steps: int = 1024,
    rng_seed: int = 0,
) -> SearchOutcome:
    """Hill climbing from random balanced starts.

    Each restart puts a random half of the vertices (one rng.permutation per
    restart, drawn in restart order) on side B. Each step flips the vertex
    with the largest margin, same-side minus other-side neighbours (ties to
    the smallest id), skipping a vertex alone on its side. A restart stops
    when every margin is negative, which is a very-cost-effective partition;
    when it would flip back the vertex it just flipped, since the climb would
    then alternate between two states until its steps ran out; or when it
    has no vertex to flip, which happens only on two vertices.

    The first restart climbs alone (_climb_one), and the rest climb in waves
    of up to _WAVE restarts, each step of a wave advancing all of its climbs
    at once (_climb). Outcomes are those of running the restarts one after
    another, as earlier releases did: the earliest restart that finds a
    partition wins, and partitions_examined adds up the steps of that
    restart and of every restart before it. A restart that stops on a
    repeat, or runs out of steps, counts its whole step budget; one with no
    vertex to flip counts only the steps it took. Never claims NoneExists;
    deterministic for a fixed seed. A negative seed, or fewer than one
    restart or step, is a DomainError.
    """
    t0 = perf_counter()
    nv = g.n_vertices
    if nv < 2:
        raise DomainError("local_search needs at least two vertices")
    if rng_seed < 0 or max_restarts < 1 or max_steps < 1:
        raise DomainError("local_search needs rng_seed >= 0, max_restarts >= 1 and "
                          f"max_steps >= 1; got {rng_seed}, {max_restarts}, {max_steps}")
    rng = np.random.default_rng(rng_seed)
    a2 = np.multiply(g.adj, 2, dtype=np.float32)  # one float32 allocation
    examined, in_b = _climb_one(a2, _starts(rng, 1, nv)[0], max_steps)
    begun = 1
    while in_b is None and begun < max_restarts:
        wave = min(_WAVE, max_restarts - begun)
        steps, in_b = _climb(a2, _starts(rng, wave, nv), max_steps)
        examined += steps
        begun += wave
    if in_b is None:
        return SearchOutcome(SearchStatus.INCONCLUSIVE, None, examined, perf_counter() - t0,
                             reason="restart and step budget exhausted")
    return SearchOutcome(SearchStatus.FOUND, Bipartition(in_b), examined, perf_counter() - t0)


def _starts(rng: np.random.Generator, w: int, nv: int) -> np.ndarray:
    """The next w random balanced starts, as rows of sides (+1 on B, -1 on
    R): a row's side B is the first nv // 2 entries of one
    rng.permutation(nv). rng.permuted shuffles the rows of a tiled arange
    one after another, drawing what that many rng.permutation calls draw,
    in a sixth of their time at 32 rows."""
    order = rng.permuted(np.tile(np.arange(nv), (w, 1)), axis=1)
    s = np.full((w, nv), -1, dtype=np.float32)
    np.put_along_axis(s, order[:, : nv // 2], 1, axis=1)
    return s


def _climb_one(a2: np.ndarray, s: np.ndarray,
               max_steps: int) -> tuple[int, np.ndarray | None]:
    """_climb from the single start `s`, with scalar indices. A first restart
    that finds takes about half the time that _climb takes over one row
    (0.11 against 0.23 ms on line-of-gamma(36), 2-core Xeon), whose
    per-step array calls cost more than the row's own work."""
    nv = s.size
    m = s @ a2
    m *= 0.5
    last = -1
    for step in range(max_steps):
        margin = m * s
        v = int(margin.argmax())
        if margin[v] < 0:
            return step + 1, s > 0
        side = s[v]
        if step >= nv // 2 - 1 and side * s.sum() == 2 - nv:
            if nv == 2:
                return step + 1, None
            margin[s == side] = -nv  # the lone vertex must stay
            v, side = int(margin.argmax()), -side
        if v == last:
            return max_steps, None
        s[v] = -side
        m -= side * a2[v]
        last = v
    return max_steps, None


def _climb(a2: np.ndarray, s: np.ndarray,
           max_steps: int) -> tuple[int, np.ndarray | None]:
    """local_search's climbs from the rows of sides `s` (+1 on B, -1 on R),
    side by side: the steps counted, and side B of the earliest row that
    found a very-cost-effective partition (None if none did).

    Each row keeps m = 2|N(v) & B| - deg(v) = (s @ a2) / 2 per vertex, so
    that its margins are m * s; a2 is the adjacency times 2 in float32,
    whose integer sums are exact below 2^24. A side can hold a lone vertex
    only after nv // 2 - 1 flips, and then s sums to 2 - nv times that
    vertex's side. A row leaves the wave when it stops; once a row has
    found, so does every later row, whose steps the one-after-another order
    would never have taken.
    """
    w, nv = s.shape
    m = s @ a2
    m *= 0.5
    start = np.arange(w)  # each live row's restart
    base = start * nv  # each live row's offset in m and s
    last = np.full(w, -1)
    counts = np.full(w, max_steps)
    win, win_b = w, None
    for step in range(max_steps):
        margin = m * s
        v = margin.argmax(axis=1)
        at = base + v
        side = s.take(at)
        stop = margin.take(at) < 0
        if np.count_nonzero(stop):
            r = int(stop.argmax())
            win, win_b = int(start[r]), s[r] > 0
            counts[win] = step + 1
            stop = start >= win
        if step >= nv // 2 - 1:
            lone = (side * s.sum(axis=1) == 2 - nv) & ~stop
            if np.count_nonzero(lone):
                if nv == 2:
                    counts[start[lone]] = step + 1
                    stop |= lone
                else:
                    for r in np.flatnonzero(lone).tolist():
                        margin[r, s[r] == side[r]] = -nv  # the lone vertex must stay
                        v[r] = margin[r].argmax()
                    side[lone] = -side[lone]
                    at = base + v
        stop |= v == last
        s.put(at, -side)
        m -= a2.take(v, axis=0) * side[:, None]
        last = v
        if np.count_nonzero(stop):
            keep = ~stop
            if not keep.any():
                break
            m, s, start, last = m[keep], s[keep], start[keep], last[keep]
            base = np.arange(start.size) * nv
    return int(counts[: win + 1].sum()), win_b


def twin_classes(g: LabeledGraph) -> tuple[np.ndarray, np.ndarray]:
    """Vertices with equal neighbourhoods, as (class id per vertex, per class
    whether it is a clique).

    Independent classes are open twins, N(u) = N(v); clique classes are
    closed twins, N[u] = N[v]. No vertex has twins of both kinds, and no
    open neighbourhood equals a closed one. A vertex with no twin is a class
    of its own (not a clique). Classes are numbered by their smallest vertex.
    `LabeledGraph.twins` finds them exactly: from Γ's degrees for most line
    and total graphs, else by one stable sort of the packed open and closed
    rows.
    """
    return g.twins()[:2]


def class_search(g: LabeledGraph, max_vectors: int) -> SearchOutcome:
    """Exact existence search over the twin classes of `g`.

    A class-i vertex with t B-neighbours and degree D passes on side B when
    2t < D and on side R when 2t > D. Twins share t up to their own side, so
    an independent class lies wholly on one side and a clique class splits
    only when 2t = D + 1 for its B members. The search enumerates the vectors
    of per-class B-counts b_i, 0 or m_i for an independent class of m_i
    members and 0..m_i for a clique, in mixed-radix order with class 0 the
    lowest digit, with the kernel brute_force scans masks with. The first
    very-cost-effective vector puts the b_i smallest ids of each class on
    side B; partitions_examined counts the vectors up to and including it,
    or all of them; nothing recounts a class space, so its NoneExists has no
    witness. An isolated vertex is answered as in brute_force. A class space
    over max_vectors is Inconclusive before anything is enumerated; one over
    2^62 within the budget is a DomainError.
    """
    t0 = perf_counter()
    out = _unsearched(g, t0)
    if out is not None:
        return out
    cls, clique, reps = g.twins()
    size = np.bincount(cls)
    radix = np.where(clique, size + 1, 2)
    # one shift for the radix-2 classes: a product over hundreds of
    # thousands of them, one bignum at a time, takes seconds
    space = prod(radix[clique].tolist()) << int(np.count_nonzero(~clique))
    if space > max_vectors:
        return SearchOutcome(SearchStatus.INCONCLUSIVE, None, 0, perf_counter() - t0,
                             reason=f"{size.size} twin classes span {_decimal(space)} "
                                    f"B-count vectors, over the budget of {_decimal(max_vectors)}")
    if space > 1 << _MAX_FREE:
        raise DomainError(f"class search needs an int64 index per vector; {_decimal(space)} "
                          f"vectors exceeds the limit of 2^{_MAX_FREE}")
    # classes are complete or empty to each other, so one member's row speaks
    # for its class; only the members' rows are unpacked
    rep_rows = np.unpackbits(g.rows()[reps], axis=1, count=g.n_vertices).view(bool)
    index = _first_vce(rep_rows[:, reps] | np.diag(clique), size, clique, radix)
    if index is None:
        return SearchOutcome(SearchStatus.NONE_EXISTS, None, space, perf_counter() - t0,
                             reason="class space exhausted")
    digit = index // (np.cumprod(radix) // radix) % radix
    b = np.where(clique, digit, digit * size)
    return SearchOutcome(SearchStatus.FOUND, _expand(cls, b), index + 1, perf_counter() - t0)


def _decimal(x: int) -> str:
    """x in decimal, or as a power-of-two bound past Python's int-to-str limit."""
    try:
        return str(x)
    except ValueError:
        return f"at least 2^{x.bit_length() - 1}"


def exact_search(g: LabeledGraph, vertex_cap: int = DEFAULT_VERTEX_CAP) -> SearchOutcome:
    """The fallback of `dispatch` and `znvce search`: `brute_force` within
    `vertex_cap` vertices, and past the cap `class_search` with the budget
    `brute_force` has at the cap, its 2^(vertex_cap - 1) masks (0 for a cap
    below one). Either answers an isolated vertex before its scan."""
    if g.n_vertices <= vertex_cap:
        return brute_force(g, vertex_cap)
    return class_search(g, 1 << (vertex_cap - 1) if vertex_cap > 0 else 0)


def _first_vce(m: np.ndarray, size: np.ndarray, clique: np.ndarray,
               radix: np.ndarray) -> int | None:
    """Smallest index of a very-cost-effective vector, or None.

    A vector holds a digit d_i < radix_i per class, numbered in mixed-radix
    order with class 0 the lowest digit, and puts b_i = d_i members of a
    clique class, or d_i * size_i of any other, on side B. m is the class
    adjacency with the clique classes' diagonal set, so S = m @ b counts a
    class vertex's B-neighbours, itself included when it is a B-side clique
    vertex, and its degree is D = m @ size - clique. Class i passes when its
    R members (b_i < size_i) have S_i >= D_i // 2 + 1 and its B members
    (b_i > 0) have S_i <= (D_i - 1) // 2 + clique_i.

    Each bound is a window [E, E + P) on S, P the smallest power of two over
    |V|: a lower bound puts the window's top past any S, an upper bound its
    bottom below 0, and a bound that does not apply takes in every S. A
    class that is not a clique has all its members on one side, so it has
    one check row, whose E moves with its digit; a clique class has a row
    per bound. A vector passes when every row's S - E lies in [0, P), that
    is, when their bitwise OR does. S - E is a sum over the classes' digits,
    so the sums of the low classes (class 0 and the next ones up to
    _LO_VECTORS vectors) are tabulated once by doubling, the high classes'
    are gathered _HI_CHUNK vectors at a time, and about _BLOCK candidates
    are checked at once. Counts are int16 below 2^14 vertices, where S - E
    cannot overflow, and int32 from there. The all-R and all-B vectors never
    pass (they would need D < 0), so scanning them changes no outcome.
    """
    k, nv = size.size, int(size.sum())
    dt, ut = (np.int16, np.uint16) if nv < 1 << 14 else (np.int32, np.uint32)
    span = 1 << nv.bit_length()
    deg = m @ size - clique
    lo_end, hi_end = deg // 2 + 1, (deg - 1) // 2 + clique
    # one column per (class, digit), class by class: what the digit adds to
    # each row's S - E over digit 0. It adds b times the class's column of m
    # to S; a vertex's or an independent class's digit 1 also moves its row's
    # E from the R members' bound to the B members'
    first = np.cumsum(radix) - radix
    of = np.repeat(np.arange(k), radix)
    digit = np.arange(of.size) - first[of]
    cq = np.flatnonzero(clique)
    per_digit = m * np.where(clique, 1, size) + np.diag(
        np.where(clique, 0, lo_end + span - 1 - hi_end))
    inc = per_digit[np.concatenate((np.arange(k), cq))][:, of] * digit
    if cq.size:
        # a clique's R-bound row drops its bound at the last digit, where no
        # R member is left; its B-bound row takes its bound from digit 1 on
        inc[cq, first[cq] + radix[cq] - 1] += lo_end[cq]
        inc[k:] += (of == cq[:, None]) * (digit > 0) * (nv - hi_end[cq, None])
    inc = inc.astype(dt)
    n_chk = inc.shape[0]

    radix_l, first_l = radix.tolist(), first.tolist()
    n_lo_cls, n_lo = 0, 1
    while n_lo_cls < k and (n_lo_cls == 0 or n_lo * radix_l[n_lo_cls] <= _LO_VECTORS):
        n_lo, n_lo_cls = n_lo * radix_l[n_lo_cls], n_lo_cls + 1
    lo_tab = np.empty((n_chk, n_lo), dtype=dt)
    lo_tab[:, 0] = np.concatenate((-lo_end, np.full(cq.size, span - 1 - nv)))
    w = 1
    for c in range(n_lo_cls):
        r, f = radix_l[c], first_l[c]
        np.add(lo_tab[:, None, :w], inc[:, f + 1: f + r, None],
               out=lo_tab[:, w: r * w].reshape(n_chk, r - 1, w))
        w *= r
    n_hi = prod(radix_l[n_lo_cls:])  # the high vectors
    rows = max(1, min(_BLOCK // n_lo, n_hi))
    sums = np.empty((n_chk, rows, n_lo), dtype=dt)  # written in place, block by block
    ors = np.empty((rows, n_lo), dtype=dt)
    for g0 in range(0, n_hi, _HI_CHUNK):
        gs = np.arange(g0, min(g0 + _HI_CHUNK, n_hi))
        hi_tab, stride = np.zeros((n_chk, gs.size), dtype=dt), 1
        for c in range(n_lo_cls, k):
            hi_tab += inc[:, first_l[c] + gs // stride % radix_l[c]]
            stride *= radix_l[c]
        for h in range(0, gs.size, rows):
            r = min(rows, gs.size - h)
            np.add(lo_tab[:, None, :], hi_tab[:, h: h + r, None], out=sums[:, :r])
            np.bitwise_or.reduce(sums[:, :r], axis=0, out=ors[:r])
            ok = ors[:r].ravel().view(ut) < span
            if ok.any():
                return (g0 + h) * n_lo + int(ok.argmax())
    return None


def _expand(cls: np.ndarray, b: np.ndarray) -> Bipartition:
    """Side B holds the b[c] smallest ids of every class c."""
    order = np.argsort(cls, kind="stable")
    counts = np.bincount(cls, minlength=b.size)
    rank = np.empty_like(cls)
    rank[order] = np.arange(cls.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return Bipartition(rank < b[cls])
