"""Shared test fixtures: small canned graphs and independent reference code.

The reference functions here recompute results straight from the definitions
(pairwise products, repeated squaring, full bipartition enumeration) so the
package under test is never used to verify itself.
"""
import numpy as np

from znvce import Bipartition, LabeledGraph, Residue


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


def random_graph(nv: int, seed: int, p: float = 0.4) -> LabeledGraph:
    rng = np.random.default_rng(seed)
    adj = rng.random((nv, nv)) < p
    adj = np.triu(adj, 1)
    adj = adj | adj.T
    return LabeledGraph([Residue(i + 1) for i in range(nv)], adj)
