"""Shared test fixtures: small canned graphs and independent reference code.

The reference functions here recompute results straight from the definitions
(pairwise products, repeated squaring, full bipartition enumeration) so the
package under test is never used to verify itself.
"""
import io

import numpy as np

from znvce import Bipartition, LabeledGraph, PartitionVerdict, Residue, Verdict, VertexTally


def complete_graph(m: int) -> LabeledGraph:
    return LabeledGraph([Residue(i + 1) for i in range(m)], ~np.eye(m, dtype=bool))


def edge_residues(g) -> set[tuple[int, int]]:
    return {(g.labels[i].k, g.labels[j].k) for i, j in g.edges()}


def residues(g) -> list[int]:
    return [lab.k for lab in g.labels]


def side_residues(g, part: Bipartition) -> tuple[list[int], list[int]]:
    r = sorted(g.labels[int(i)].k for i in part.r_ids)
    b = sorted(g.labels[int(i)].k for i in part.b_ids)
    return r, b


def ref_residue_adj(n: int, ks) -> np.ndarray:
    """Residue adjacency straight from the definition: u ~ v iff u != v and
    n | u*v, from the full table of products."""
    vs = np.asarray(ks, dtype=np.int64)
    adj = (vs[:, None] * vs[None, :]) % n == 0
    np.fill_diagonal(adj, False)
    return adj


def phi_by_gcd(n: int) -> int:
    ks = np.arange(1, n + 1, dtype=np.int64)
    return int(np.count_nonzero(np.gcd(ks, n) == 1))


def ref_zero_divisors(n: int) -> list[int]:
    """Literal definition: k is a zero divisor iff k*r = 0 mod n for nonzero r."""
    out = []
    for k in range(1, n):
        if any(k * r % n == 0 for r in range(1, n)):
            out.append(k)
    return out


def all_bipartitions(nv: int):
    """Every side assignment with both sides nonempty, as bool masks."""
    for mask in range(1, 2**nv - 1):
        yield np.array([(mask >> v) & 1 for v in range(nv)], dtype=bool)


def ref_has_vce(adj: np.ndarray) -> bool:
    """Existence by full enumeration, written independently of the package."""
    nv = adj.shape[0]
    deg = adj.sum(axis=1)
    for in_b in all_bipartitions(nv):
        nb_b = adj[:, in_b].sum(axis=1)
        inside = np.where(in_b, nb_b, deg - nb_b)
        if (2 * inside < deg).all():
            return True
    return False


def ref_first_vce(adj: np.ndarray, pin_first: bool) -> tuple[int | None, int]:
    """First very-cost-effective mask in binary-counting order, and how many
    masks were examined up to it (all of them when there is none).

    Bit i of a mask puts vertex i on side B, or vertex i + 1 when pin_first
    keeps vertex 0 on side R. Masks run from 1; without pin_first the all-B
    mask is left out.
    """
    nv = adj.shape[0]
    free = nv - 1 if pin_first else nv
    last = 2**free - 1 if pin_first else 2**free - 2
    examined = 0
    for mask in range(1, last + 1):
        examined += 1
        side = [False] * (nv - free) + [bool((mask >> i) & 1) for i in range(free)]
        good = True
        for v in range(nv):
            same = sum(1 for u in range(nv) if adj[v][u] and side[u] == side[v])
            other = sum(1 for u in range(nv) if adj[v][u] and side[u] != side[v])
            if not same < other:
                good = False
                break
        if good:
            return mask, examined
    return None, examined


def ref_vce_masks(adj: np.ndarray, pin_first: bool) -> np.ndarray:
    """Every very-cost-effective mask of ref_first_vce's order, ascending,
    from all masks at once: one bool side matrix with a row per mask, one
    matmul for every vertex's B-neighbours under every mask."""
    nv = adj.shape[0]
    free = nv - 1 if pin_first else nv
    masks = np.arange(1, 2**free)
    side = np.zeros((masks.size, nv), dtype=bool)
    side[:, nv - free:] = (masks[:, None] >> np.arange(free)) & 1
    nb_b = side.astype(np.float32) @ adj.astype(np.float32)
    deg = adj.sum(axis=1)
    inside = np.where(side, nb_b, deg - nb_b)
    return masks[(2 * inside < deg).all(axis=1)]


def ref_local_search(adj: np.ndarray, max_restarts: int, max_steps: int,
                     rng_seed: int) -> tuple[np.ndarray | None, int]:
    """The hill climber as first written, for equivalence tests: side B as a
    bool mask (None when the budget runs out) and the states examined.

    Every step recounts each side densely, orders the vertices by descending
    margin with a stable sort, and flips the first one whose side has more
    than one vertex. Every restart runs until it finds a partition, has no
    vertex to flip, or has used all its steps.
    """
    nv = adj.shape[0]
    rng = np.random.default_rng(rng_seed)
    adjf = adj.astype(np.float32)
    deg = adj.sum(axis=1, dtype=np.int64)
    examined = 0
    for _ in range(max_restarts):
        in_b = np.zeros(nv, dtype=bool)
        in_b[rng.permutation(nv)[: nv // 2]] = True
        n_b = nv // 2
        for _ in range(max_steps):
            nb_b = (adjf @ in_b.astype(np.float32)).astype(np.int64)
            inside = np.where(in_b, nb_b, deg - nb_b)
            margin = 2 * inside - deg
            examined += 1
            if (margin < 0).all():
                return in_b, examined
            flipped = False
            for v in np.argsort(-margin, kind="stable"):
                side_count = n_b if in_b[v] else nv - n_b
                if side_count > 1:
                    n_b += -1 if in_b[v] else 1
                    in_b[v] = not in_b[v]
                    flipped = True
                    break
            if not flipped:
                break
    return None, examined


def random_graph(nv: int, seed: int, p: float = 0.4) -> LabeledGraph:
    rng = np.random.default_rng(seed)
    adj = rng.random((nv, nv)) < p
    adj = np.triu(adj, 1)
    adj = adj | adj.T
    return LabeledGraph([Residue(i + 1) for i in range(nv)], adj)


def ref_tallies(g, part: Bipartition) -> tuple:
    """One VertexTally per vertex, counted from the adjacency rows and
    judged by the definition, one vertex at a time."""
    out = []
    for v in range(g.n_vertices):
        nbrs = np.flatnonzero(g.adj[v])
        inside = int(np.count_nonzero(part.in_b[nbrs] == part.in_b[v]))
        outside = nbrs.size - inside
        if inside < outside:
            verdict = Verdict.VERY_COST_EFFECTIVE
        elif inside == outside:
            verdict = Verdict.COST_EFFECTIVE_ONLY
        else:
            verdict = Verdict.NOT_COST_EFFECTIVE
        out.append(VertexTally(v, inside, outside, verdict))
    return tuple(out)


def ref_check_text(g, part: Bipartition) -> tuple[str, int]:
    """`znvce check`'s output and exit code as first written: a line per
    VertexTally, each rendered on its own. The tallies come from
    ref_tallies, so nothing of the package's report is used."""
    tallies = ref_tallies(g, part)
    if all(t.verdict is Verdict.VERY_COST_EFFECTIVE for t in tallies):
        partition_verdict = PartitionVerdict.VERY_COST_EFFECTIVE
    elif all(t.verdict is not Verdict.NOT_COST_EFFECTIVE for t in tallies):
        partition_verdict = PartitionVerdict.COST_EFFECTIVE_ONLY
    else:
        partition_verdict = PartitionVerdict.NEITHER
    witnesses = [t.vertex for t in tallies if t.verdict is not Verdict.VERY_COST_EFFECTIVE]
    out = io.StringIO()
    for t in tallies:
        lab = g.labels[t.vertex].render()
        side = part.side_of(t.vertex)
        out.write(f"{lab} [{side}]: inside {t.inside} outside {t.outside} {t.verdict.value}\n")
    out.write(f"partition verdict: {partition_verdict.value}\n")
    if witnesses:
        names = " ".join(g.labels[v].render() for v in witnesses)
        out.write(f"witnesses: {names}\n")
    code = 0 if partition_verdict is PartitionVerdict.VERY_COST_EFFECTIVE else 1
    return out.getvalue(), code
