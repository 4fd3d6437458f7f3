"""Ground truth for very-cost-effective existence: exhaustive enumeration,
the isolated-vertex obstruction, and a greedy local-search heuristic."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
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


def _bits(values: np.ndarray, width: int) -> np.ndarray:
    """(width, len(values)) int16 matrix: row i holds bit i of each value."""
    return ((values[None, :] >> np.arange(width)[:, None]) & 1).astype(np.int16)


def _all_negative(own: np.ndarray, other: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Per candidate, whether own + other * sign < 0 on every vertex row (axis 0)."""
    x = other * sign
    x += own
    return np.logical_and.reduce(x < 0, axis=0)


def _first_vce_mask(adj: np.ndarray, pinned: int) -> int | None:
    """Smallest mask whose bipartition is very cost effective, or None.

    Bit i of a mask puts vertex pinned + i on side B; vertices below pinned
    stay on R. Vertex v passes when s(v) * m(v) < 0, with s = +1 on B and -1
    on R, and margin m = 2|N(v) & B| - deg(v) = m_lo + m_hi split over the
    low and high mask bits. Rows whose side the low bits fix take s * m_lo
    from the low table and multiply m_hi by their sign; high rows the reverse.
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
    for h0 in range(0, 1 << n_hi, _HI_ROWS):
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
    """
    t0 = perf_counter()
    nv = g.n_vertices
    if nv < 2:
        return SearchOutcome(SearchStatus.NONE_EXISTS, None, 0, perf_counter() - t0,
                             reason="no valid bipartition on fewer than two vertices")
    if isolated_shortcut:
        v = isolated_obstruction(g)
        if v is not None:
            return SearchOutcome(SearchStatus.NONE_EXISTS, None, 0, perf_counter() - t0,
                                 reason=f"isolated vertex {g.labels[v].render()}")
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
