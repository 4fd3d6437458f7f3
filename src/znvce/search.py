"""Ground truth for very-cost-effective existence: exhaustive enumeration,
the exact search over twin classes, the isolated-vertex obstruction, and a
greedy local-search heuristic."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import prod
from time import perf_counter

import numpy as np

from .errors import DomainError
from .graphs import LabeledGraph
from .vce import Bipartition

DEFAULT_VERTEX_CAP = 26

# _first_vce tabulates up to _LO_VECTORS low vectors once per call (more only
# when class 0 alone has more digits) and checks them against a few high
# vectors at a time, about _BLOCK candidates in all (2^12 and 2^14 were the
# fastest of 2^11..2^13 and 2^13..2^16 tried on masks, 2-core Xeon); the high
# vectors' sums are gathered _HI_CHUNK at a time. Indices are int64, so a
# space spans at most 2^_MAX_FREE vectors
_LO_VECTORS, _BLOCK, _HI_CHUNK, _MAX_FREE = 1 << 12, 1 << 14, 1 << 8, 62

# brute_force asks the refuter on scans of _REFUTE_FROM masks or more. A
# branch node costs about as much as 2500 masks of the kernel (11 us against
# 230 M masks/s on total-of-gamma(49), 2-core Xeon), so a node budget of
# 1/2^_REFUTE_SHIFT of the masks left to scan, but at least _REFUTE_MIN,
# costs a refuter that gives up about 4% of the scan
_REFUTE_FROM, _REFUTE_SHIFT, _REFUTE_MIN = 1 << 17, 16, 16


class SearchStatus(Enum):
    FOUND = "Found"
    NONE_EXISTS = "NoneExists"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True, eq=False)
class SearchOutcome:
    status: SearchStatus
    partition: Bipartition | None
    partitions_examined: int
    elapsed: float
    reason: str = ""


def isolated_obstruction(g: LabeledGraph) -> int | None:
    """Smallest isolated vertex id, or None. Its presence rules out any
    very-cost-effective bipartition without enumerating."""
    deg0 = np.flatnonzero(g.degrees() == 0)
    return int(deg0[0]) if deg0.size else None


def _unsearched(g: LabeledGraph, t0: float, isolated_shortcut: bool) -> SearchOutcome | None:
    """NoneExists with nothing examined when g has fewer than two vertices
    or, with isolated_shortcut, an isolated vertex; otherwise None."""
    if g.n_vertices < 2:
        reason = "no valid bipartition on fewer than two vertices"
    else:
        v = isolated_obstruction(g) if isolated_shortcut else None
        if v is None:
            return None
        reason = f"isolated vertex {g.label(v).render()}"
    return SearchOutcome(SearchStatus.NONE_EXISTS, None, 0, perf_counter() - t0, reason=reason)


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


def _refute(adj: np.ndarray, budget: int | None = None) -> bool:
    """Whether forced-side propagation and a depth-first search prove that
    no bipartition of `adj` is very cost effective; False when a component
    has a very-cost-effective assignment of its own or the search has tried
    `budget` branch nodes (None: no limit) without a proof.

    A vertex of degree d may have at most (d - 1) // 2 neighbours on its own
    side. An unassigned vertex over that limit on one side is forced to the
    other, and an assigned vertex at its limit forces its unassigned
    neighbours to the other side; propagation runs to a fixed point or a
    conflict. Swapping the sides of one connected component keeps a
    bipartition very cost effective, so each component, smallest first, pins
    a vertex of the largest degree to R and is searched on its own: the
    graph is refuted as soon as one component is. Past the propagation, a
    branch node assigns the unassigned vertex with the least room left on
    its roomier side (then the most assigned neighbours, the largest degree,
    the smallest id), trying that side first. Branching keeps an explicit
    stack of undo marks, so no chain of assignments can hit Python's
    recursion limit. With a budget of 0 only the pins' propagation runs.
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
        ok = assign(max(comp, key=lambda v: len(nbrs[v])), 0)
        stack: list[tuple[int, int, int]] = []  # (undo mark, vertex, side left to try)
        while True:
            if ok:
                r, b = count
                free = [(max(lim[u] - r[u], lim[u] - b[u]), -r[u] - b[u], -len(nbrs[u]), u)
                        for u in comp if side[u] < 0]
                if not free:
                    break  # this component has a very-cost-effective assignment
                v = min(free)[3]
                s = int(r[v] > b[v])
                stack.append((len(trail), v, 1 - s))
            else:
                while stack and stack[-1][2] < 0:
                    stack.pop()
                if not stack:
                    return True
                mark, v, s = stack[-1]
                stack[-1] = (mark, v, -1)
                undo(mark)
            if budget is not None and nodes >= budget:
                break
            nodes += 1
            ok = assign(v, s)
    return False


def brute_force(
    g: LabeledGraph,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
    *,
    symmetry_reduction: bool = True,
    isolated_shortcut: bool = True,
) -> SearchOutcome:
    """Enumerate bipartitions in binary-counting order over vertex ids.

    Mask k puts vertex v on side B when bit v of k is set. With
    symmetry_reduction, vertex 0 is pinned to side R and bit i stands for
    vertex i + 1, so masks 1 .. 2^(|V|-1) - 1 are scanned; without it, masks
    1 .. 2^|V| - 2. A found partition is the first in this order and
    partitions_examined is its mask, so runs are deterministic either way.

    The scan is the class search's kernel, _first_vce, run over singleton
    classes: a class of radix 2 per free vertex and of radix 1 for a pinned
    one, so a vector's index is its mask. Each candidate costs one add and
    one bitwise OR per vertex, and memory stays bounded whatever the cap.
    More than 62 free vertices is a DomainError, raised before anything is
    allocated.

    A scan of 2^17 masks or more first tries to refute the graph by
    forced-side propagation alone, and again, with a bounded number of
    branch nodes, if its first eighth has no hit. So the count of a
    NoneExists outcome covers every mask, each one either evaluated or ruled
    out by a neighbour-count bound; a refuter that gives up leaves the scan
    to go on where it stopped.
    """
    t0 = perf_counter()
    out = _unsearched(g, t0, isolated_shortcut)
    if out is not None:
        return out
    nv = g.n_vertices
    if nv > vertex_cap:
        return SearchOutcome(SearchStatus.INCONCLUSIVE, None, 0, perf_counter() - t0,
                             reason=f"{nv} vertices exceeds the exhaustive cap {vertex_cap}")
    pinned = 1 if symmetry_reduction else 0
    free = nv - pinned
    if free > _MAX_FREE:
        raise DomainError("exhaustive search needs one mask bit per free vertex; "
                          f"{free} exceeds the limit of {_MAX_FREE}")
    # mask 0 (all on R) and the all-B mask are never very cost effective, so
    # scanning them changes no outcome; the examined count starts at mask 1
    ones = np.ones(nv, dtype=np.int64)
    radix = np.full(nv, 2)
    radix[:pinned] = 1

    def scan(start: int, stop: int) -> int | None:
        return _first_vce(g.adj, ones, ones == 0, radix, start, stop)

    space = 1 << free
    if space < _REFUTE_FROM:
        mask = scan(0, space)
    elif _refute(g.adj, 0):
        mask = None
    else:
        eighth = space >> 3
        mask = scan(0, eighth)
        if mask is None and not _refute(
                g.adj, max(_REFUTE_MIN, (space - eighth) >> _REFUTE_SHIFT)):
            mask = scan(eighth, space)
    if mask is None:
        last = space - 1 if symmetry_reduction else space - 2
        return SearchOutcome(SearchStatus.NONE_EXISTS, None, last, perf_counter() - t0,
                             reason="enumeration exhausted")
    in_b = np.zeros(nv, dtype=bool)
    in_b[pinned:] = [(mask >> i) & 1 for i in range(free)]
    return SearchOutcome(SearchStatus.FOUND, Bipartition(in_b), mask, perf_counter() - t0)


def local_search(
    g: LabeledGraph,
    max_restarts: int = 32,
    max_steps: int = 1024,
    rng_seed: int = 0,
) -> SearchOutcome:
    """Hill climbing from random balanced starts.

    Each restart puts a random half of the vertices (one rng.permutation per
    restart) on side B. Each step flips the vertex with the largest margin,
    same-side minus other-side neighbours (ties to the smallest id), skipping
    a vertex alone on its side; neighbour counts are updated by one adjacency
    row per flip. A restart that would flip back the vertex it just flipped
    stops, but partitions_examined still counts its whole step budget, as if
    it had run every step. Never claims NoneExists; deterministic for a fixed
    seed. A negative seed, or fewer than one restart or step, is a DomainError.
    """
    t0 = perf_counter()
    nv = g.n_vertices
    if nv < 2:
        raise DomainError("local_search needs at least two vertices")
    if rng_seed < 0 or max_restarts < 1 or max_steps < 1:
        raise DomainError("local_search needs rng_seed >= 0, max_restarts >= 1 and "
                          f"max_steps >= 1; got {rng_seed}, {max_restarts}, {max_steps}")
    rng = np.random.default_rng(rng_seed)
    a2 = np.multiply(g.adj, 2, dtype=np.int32)  # one int32 allocation
    deg = g.degrees()
    examined = 0
    for _ in range(max_restarts):
        in_b = np.zeros(nv, dtype=bool)
        in_b[rng.permutation(nv)[: nv // 2]] = True
        n_b = nv // 2
        # m = 2|N(v) & B| - deg(v); the margin of v is m on side B, -m on R
        m = a2 @ in_b - deg
        last = -1
        for step in range(max_steps):
            margin = np.where(in_b, m, -m)
            examined += 1
            v = int(margin.argmax())
            if margin[v] < 0:
                return SearchOutcome(SearchStatus.FOUND, Bipartition(in_b), examined,
                                     perf_counter() - t0)
            if n_b == 1 or n_b == nv - 1:
                if nv == 2:
                    break
                margin[in_b == (n_b == 1)] = -nv  # the lone vertex must stay
                v = int(margin.argmax())
            if v == last:
                # the climb is deterministic, so from here it would alternate
                # between this state and the one before until its steps ran out
                examined += max_steps - step - 1
                break
            in_b[v] = not in_b[v]
            n_b += 1 if in_b[v] else -1
            m += a2[v] if in_b[v] else -a2[v]
            last = v
    return SearchOutcome(SearchStatus.INCONCLUSIVE, None, examined, perf_counter() - t0,
                         reason="restart and step budget exhausted")


def _twins(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """twin_classes, plus each class's smallest vertex, from one stable sort.

    Slot v < |V| holds the open row of v packed to bytes (vertex u is bit
    128 >> u % 8 of byte u // 8), slot |V| + v its closed row (the open row
    with v's own bit set); each row is one byte-string key. In sorted order a
    run of equal keys starts wherever two neighbours differ, and since ties
    keep slot order, the first slot of a run is its smallest. No open row
    equals a closed one, because N(u) = N[v] would put u in N(u).
    """
    nv = adj.shape[0]
    v = np.arange(nv)
    packed = np.packbits(adj, axis=1)
    rows = np.concatenate((packed, packed))
    rows[nv + v, v // 8] |= (128 >> v % 8).astype(np.uint8)
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
    rep = np.where(clique, lead[run[nv:]] - nv, lead[run[:nv]])
    reps = np.flatnonzero(rep == v)
    return np.searchsorted(reps, rep), clique[reps], reps


def twin_classes(g: LabeledGraph) -> tuple[np.ndarray, np.ndarray]:
    """Vertices with equal neighbourhoods, as (class id per vertex, per class
    whether it is a clique).

    Independent classes are open twins, N(u) = N(v); clique classes are
    closed twins, N[u] = N[v]. No vertex has twins of both kinds, and no
    open neighbourhood equals a closed one. A vertex with no twin is a class
    of its own (not a clique). Classes are numbered by their smallest vertex,
    and one stable sort of the packed open and closed rows finds them exactly.
    """
    return _twins(g.adj)[:2]


def class_budget(vertex_cap: int) -> int:
    """The class_search budget that matches brute_force at vertex_cap: the
    2^(vertex_cap - 1) masks it scans there, or 0 for a cap below one."""
    return 1 << (vertex_cap - 1) if vertex_cap > 0 else 0


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
    or all of them. As in brute_force, an isolated vertex is NoneExists with
    none examined. A class space over max_vectors is Inconclusive before
    anything is enumerated; one over 2^62 within the budget is a DomainError.
    """
    t0 = perf_counter()
    out = _unsearched(g, t0, isolated_shortcut=True)
    if out is not None:
        return out
    cls, clique, reps = _twins(g.adj)
    size = np.bincount(cls)
    radix = np.where(clique, size + 1, 2)
    space = prod(radix.tolist())
    if space > max_vectors:
        return SearchOutcome(SearchStatus.INCONCLUSIVE, None, 0, perf_counter() - t0,
                             reason=f"{size.size} twin classes span {space} B-count vectors, "
                                    f"over the budget of {max_vectors}")
    if space > 1 << _MAX_FREE:
        raise DomainError(f"class search needs an int64 index per vector; {space} "
                          f"vectors exceeds the limit of 2^{_MAX_FREE}")
    # classes are complete or empty to each other, so one member's row speaks
    # for its class
    index = _first_vce(g.adj[np.ix_(reps, reps)] | np.diag(clique), size, clique, radix,
                       0, space)
    if index is None:
        return SearchOutcome(SearchStatus.NONE_EXISTS, None, space, perf_counter() - t0,
                             reason="class space exhausted")
    digit = index // (np.cumprod(radix) // radix) % radix
    b = np.where(clique, digit, digit * size)
    return SearchOutcome(SearchStatus.FOUND, _expand(cls, b), index + 1, perf_counter() - t0)


def _first_vce(m: np.ndarray, size: np.ndarray, clique: np.ndarray, radix: np.ndarray,
               start: int, stop: int) -> int | None:
    """Smallest index in [start, stop) of a very-cost-effective vector, or None.

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
    g_start, g_stop = start // n_lo, -(-stop // n_lo)  # the high vectors in range
    rows = max(1, min(_BLOCK // n_lo, g_stop - g_start))
    sums = np.empty((n_chk, rows, n_lo), dtype=dt)  # written in place, block by block
    ors = np.empty((rows, n_lo), dtype=dt)
    for g0 in range(g_start, g_stop, _HI_CHUNK):
        gs = np.arange(g0, min(g0 + _HI_CHUNK, g_stop))
        hi_tab, stride = np.zeros((n_chk, gs.size), dtype=dt), 1
        for c in range(n_lo_cls, k):
            hi_tab += inc[:, first_l[c] + gs // stride % radix_l[c]]
            stride *= radix_l[c]
        for h in range(0, gs.size, rows):
            r = min(rows, gs.size - h)
            np.add(lo_tab[:, None, :], hi_tab[:, h: h + r, None], out=sums[:, :r])
            np.bitwise_or.reduce(sums[:, :r], axis=0, out=ors[:r])
            at = (g0 + h) * n_lo
            ok = ors[:r].ravel()[max(0, start - at): stop - at].view(ut) < span
            if ok.any():
                return max(at, start) + int(ok.argmax())
    return None


def _expand(cls: np.ndarray, b: np.ndarray) -> Bipartition:
    """Side B holds the b[c] smallest ids of every class c."""
    order = np.argsort(cls, kind="stable")
    counts = np.bincount(cls, minlength=b.size)
    rank = np.empty_like(cls)
    rank[order] = np.arange(cls.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return Bipartition(rank < b[cls])
