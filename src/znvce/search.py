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

# the low _LO_BITS mask bits are tabulated once per call and the high bits are
# walked _HI_ROWS values at a time: blocks of 2^14 candidates were the fastest
# of 2^12..2^18 tried (2-core Xeon); masks are int64, so at most _MAX_FREE bits
_LO_BITS, _HI_ROWS, _MAX_FREE = 12, 4, 62

# class_search checks candidates in blocks of at most _BLOCK_BYTES per
# array, and tabulates the vectors of its low classes up to _LO_VECTORS of them
_BLOCK_BYTES, _LO_VECTORS = 1 << 18, 1 << 10

# a refuter branch node costs about as much as 2000 masks of the kernel
# (23 us against 80 M masks/s, 2-core Xeon), so a node budget of
# 1/2^_REFUTE_SHIFT of the masks left to scan, but at least _REFUTE_MIN,
# costs a refuter that gives up about 3% of the scan
_REFUTE_SHIFT, _REFUTE_MIN = 16, 16


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


def _bits(values: np.ndarray, width: int) -> np.ndarray:
    """(width, len(values)) int16 matrix: row i holds bit i of each value."""
    return ((values[None, :] >> np.arange(width)[:, None]) & 1).astype(np.int16)


def _all_negative(own: np.ndarray, other: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Per candidate, whether own + other * sign < 0 on every vertex row (axis 0)."""
    x = other * sign
    x += own
    return np.logical_and.reduce(x < 0, axis=0)


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


def _first_vce_mask(adj: np.ndarray, pinned: int) -> int | None:
    """Smallest mask whose bipartition is very cost effective, or None.

    Bit i of a mask puts vertex pinned + i on side B; vertices below pinned
    stay on R. Vertex v passes when s(v) * m(v) < 0, with s = +1 on B and -1
    on R, and margin m = 2|N(v) & B| - deg(v) = m_lo + m_hi split over the
    low and high mask bits. Rows whose side the low bits fix take s * m_lo
    from the low table and multiply m_hi by their sign; high rows the reverse.

    A scan of 2^17 masks or more, where the first eighth of the high values
    is a block boundary, asks _refute twice and stops as soon as it proves
    that no mask is very cost effective: before the first mask with a budget
    of no branch nodes, so only propagation from the pinned vertices runs,
    and on reaching that eighth without a hit with a node budget of
    1/2^_REFUTE_SHIFT of the masks still to scan.
    """
    nv = adj.shape[0]
    a2 = 2 * adj.astype(np.int16)
    n_lo = min(nv - pinned, _LO_BITS)
    split, n_hi = pinned + n_lo, nv - pinned - n_lo
    # m_lo of every vertex for every low value, by doubling over the low bits
    m_lo = np.empty((nv, 1 << n_lo), dtype=np.int16)
    m_lo[:, 0] = -adj.sum(axis=1)
    for i in range(n_lo):
        m_lo[:, 1 << i: 2 << i] = m_lo[:, : 1 << i] + a2[:, pinned + i, None]
    s_lo = np.vstack([np.full((pinned, 1 << n_lo), -1, dtype=np.int16),
                      2 * _bits(np.arange(1 << n_lo), n_lo) - 1])
    own_lo = s_lo * m_lo[:split]
    refute_at = (1 << n_hi) >> 3
    if refute_at >= _HI_ROWS and _refute(adj, 0):
        return None
    for h0 in range(0, 1 << n_hi, _HI_ROWS):
        if h0 and h0 == refute_at and _refute(
                adj, max(_REFUTE_MIN, ((1 << n_hi) - h0) << n_lo >> _REFUTE_SHIFT)):
            return None
        hi_bits = _bits(np.arange(h0, min(h0 + _HI_ROWS, 1 << n_hi)), n_hi)
        m_hi, s_hi = a2[:, split:] @ hi_bits, 2 * hi_bits - 1
        # ok[h, lo] over candidates (h0 + h, lo); with no high rows the second
        # reduction is over zero rows and is all True
        ok = (_all_negative(own_lo[:, None, :], m_hi[:split, :, None], s_lo[:, None, :])
              & _all_negative((s_hi * m_hi[split:])[:, :, None], m_lo[split:, None, :],
                              s_hi[:, :, None]))
        hit = np.flatnonzero(ok)
        if hit.size:
            return (h0 << n_lo) + int(hit[0])
    return None


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

    The kernel tabulates the margins of the low 12 mask bits once per call
    and those of the high bits a few values at a time, so each candidate
    costs one add, one sign multiply and one compare per vertex, and memory
    stays bounded whatever the cap. More than 62 free vertices is a
    DomainError, raised before anything is allocated.

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
    mask = _first_vce_mask(g.adj, pinned)
    if mask is None:
        last = (1 << free) - 1 if symmetry_reduction else (1 << free) - 2
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
    lowest digit. The first very-cost-effective vector puts the b_i
    smallest ids of each class on side B; partitions_examined counts the
    vectors up to and including it, or all of them. As in brute_force, an
    isolated vertex is NoneExists with none examined. A class space over
    max_vectors is Inconclusive before anything is enumerated; one over 2^62
    within the budget is a DomainError.
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
    hit = _first_vce_vector(g.adj[np.ix_(reps, reps)] | np.diag(clique), size, clique, radix)
    if hit is None:
        return SearchOutcome(SearchStatus.NONE_EXISTS, None, space, perf_counter() - t0,
                             reason="class space exhausted")
    index, b = hit
    return SearchOutcome(SearchStatus.FOUND, _expand(cls, b), index + 1, perf_counter() - t0)


def _counts(idx: np.ndarray, radix: np.ndarray, step: np.ndarray) -> np.ndarray:
    """(classes, len(idx)) B-counts of the vectors numbered idx: the digit of
    each class, lowest class first, times its step."""
    strides = np.cumprod(np.concatenate(([1], radix[:-1])))
    digits = idx[None, :] // strides[:, None] % radix[:, None]
    return digits.astype(step.dtype) * step[:, None]


def _within(lo: np.ndarray, x: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per candidate, whether lo <= x <= hi on every class row (axis 0)."""
    return np.logical_and.reduce((lo <= x) & (x <= hi), axis=0)


def _first_vce_vector(m: np.ndarray, size: np.ndarray,
                      clique: np.ndarray, radix: np.ndarray) -> tuple[int, np.ndarray] | None:
    """Index and B-counts of the first very-cost-effective vector, or None.

    m is the class adjacency with the clique classes' diagonal set, so that
    S = m @ b counts a class vertex's B-neighbours, itself included when it
    is a B-side clique vertex, and its degree is D = m @ size - clique. Given
    b_i, class i passes when S_i lies in a window: S_i > D_i / 2 for its R
    members (b_i < size_i), S_i - clique_i < D_i / 2 for its B members
    (b_i > 0). As in brute_force, the low classes' vectors are tabulated once
    (S over every class, windows over their own) and the high classes' are
    walked a block at a time; a candidate passes when each side's S lies in
    the other side's windows. The all-R and all-B vectors never pass (they
    would need D < 0), so scanning them changes no outcome.
    """
    # int32 counts run about 1.5x faster than int64 ones here; |V| fits
    k = size.size
    m, size = m.astype(np.int32), size.astype(np.int32)
    step = np.where(clique, 1, size)
    deg = m @ size - clique
    # S never leaves 0..|V|, so these ends leave a window open on that side
    lo_end, hi_end = deg // 2 + 1, (deg - 1) // 2 + clique
    open_lo, open_hi = 0, int(size.sum())

    def windows(b: np.ndarray, part: slice, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # where the other side's share of S must lie, given this side's share s
        lo = np.where(b < size[part, None], lo_end[part, None], open_lo) - s[part]
        hi = np.where(b > 0, hi_end[part, None], open_hi) - s[part]
        return lo, hi

    n_lo_cls = max(1, int(np.searchsorted(np.cumprod(radix), _LO_VECTORS, side="right")))
    lo, hi = slice(0, n_lo_cls), slice(n_lo_cls, k)
    n_lo, n_hi = prod(radix[lo].tolist()), prod(radix[hi].tolist())
    b_lo = _counts(np.arange(n_lo), radix[lo], step[lo])
    s_lo = m[:, lo] @ b_lo
    lo_min, lo_max = windows(b_lo, lo, s_lo)
    # blocks of high vectors double from one, so that an early hit is cheap,
    # up to _BLOCK_BYTES per (class, candidate) array
    h0, rows, max_rows = 0, 1, max(1, _BLOCK_BYTES // (n_lo * k))
    while h0 < n_hi:
        b_hi = _counts(np.arange(h0, min(h0 + rows, n_hi)), radix[hi], step[hi])
        s_hi = m[:, hi] @ b_hi
        hi_min, hi_max = windows(b_hi, hi, s_hi)
        # ok[h, l] over candidates (h0 + h) * n_lo + l
        ok = (_within(lo_min[:, None, :], s_hi[lo, :, None], lo_max[:, None, :])
              & _within(hi_min[:, :, None], s_lo[hi, None, :], hi_max[:, :, None]))
        hit = np.flatnonzero(ok)
        if hit.size:
            h, l = divmod(int(hit[0]), n_lo)
            return h0 * n_lo + int(hit[0]), np.concatenate([b_lo[:, l], b_hi[:, h]])
        h0, rows = h0 + rows, min(2 * rows, max_rows)
    return None


def _expand(cls: np.ndarray, b: np.ndarray) -> Bipartition:
    """Side B holds the b[c] smallest ids of every class c."""
    order = np.argsort(cls, kind="stable")
    counts = np.bincount(cls, minlength=b.size)
    rank = np.empty_like(cls)
    rank[order] = np.arange(cls.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return Bipartition(rank < b[cls])
