"""Independent reference for the benchmark's correctness gate.

Everything here is recomputed from the definitions with numpy and never calls
into znvce, so a defect in the package cannot vouch for itself:

- the vertex labels and adjacency of each graph family, from gcd classes;
- the neighbour recount that decides whether a partition is very cost
  effective, and which vertices witness that it is not, without building
  the line or total graph's adjacency;
- the shape rules under which the paper gives a construction, used to pick
  the certify sample;
- the golden survey comparison.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod

import numpy as np

FAMILIES = ("gamma", "line-of-gamma", "nilradical", "omega", "total-of-gamma")


@lru_cache(maxsize=None)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n, primes ascending."""
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def has_construction(n: int, family: str) -> bool:
    """Whether the paper gives an explicit very-cost-effective split for (n, family)."""
    fs = factor(n)
    ps = [p for p, _ in fs]
    es = [e for _, e in fs]
    squarefree_composite = len(fs) >= 2 and all(e == 1 for e in es)
    pq = squarefree_composite and len(fs) == 2
    if family in ("gamma", "omega") and squarefree_composite:
        return True
    if family == "gamma" and len(fs) == 2:
        # p^2 q with either prime squared; p^2 q^2 with both primes odd
        return sorted(es) == [1, 2] or (es == [2, 2] and ps[0] > 2)
    if family == "nilradical":
        if fs == ((ps[0], 3),):
            return True
        squared = [p for p, e in fs if e == 2]
        odd_square = bool(squared) and min(squared) > 2
        if len(fs) == 1:
            return es == [2] and odd_square
        return len(fs) == 2 and sorted(es) in ([1, 2], [2, 2]) and odd_square
    if family == "line-of-gamma":
        return pq
    if family == "total-of-gamma":
        return pq and ps[0] > 2
    return False


def _residues(n: int, family: str) -> np.ndarray:
    ks = np.arange(1, n, dtype=np.int64)
    zero_div = ks[np.gcd(ks, n) > 1]
    rad = prod(p for p, _ in factor(n))
    if family == "nilradical":
        return zero_div[zero_div % rad == 0]
    if family == "omega":
        return zero_div[zero_div % rad != 0]
    return zero_div


def _meets(n: int, classes: np.ndarray) -> np.ndarray:
    # n | k*l exactly when n | gcd(k, n) * gcd(l, n), so one small table over
    # the gcd classes decides every pair of residues
    return (classes[:, None] * classes[None, :]) % n == 0


def _residue_adjacency(n: int, ks: np.ndarray) -> np.ndarray:
    classes, idx = np.unique(np.gcd(ks, n), return_inverse=True)
    adj = _meets(n, classes)[idx][:, idx]
    np.fill_diagonal(adj, False)
    return adj


@dataclass(frozen=True)
class Graph:
    """A family graph as the recount sees it: rendered vertex labels in
    vertex-id order, the boolean adjacency of the residues, and for the line
    and total graphs the residue indices of each zero-divisor-graph edge.

    The line and total adjacencies are never built. Two distinct edges of a
    simple graph share at most one endpoint, so every neighbour count of an
    edge vertex follows from per-residue counts over the edge ends."""

    family: str
    labels: list[str]
    adj: np.ndarray
    ends: np.ndarray


def family_graph(n: int, family: str) -> Graph:
    ks = _residues(n, family)
    adj = _residue_adjacency(n, ks)
    labels = [str(k) for k in ks.tolist()]
    ends = np.argwhere(np.triu(adj))
    if family in ("gamma", "nilradical", "omega"):
        return Graph(family, labels, adj, ends)
    lo, hi = ks[ends[:, 0]], ks[ends[:, 1]]
    pair_labels = [f"({a},{b})" for a, b in zip(lo.tolist(), hi.tolist())]
    if family == "line-of-gamma":
        return Graph(family, pair_labels, adj, ends)
    return Graph(family, labels + pair_labels, adj, ends)


def _per_edge(g: Graph, on_edge: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a value per edge: per edge, its sum over the edges that share an
    endpoint with it; per residue, its sum over the edges at that residue."""
    nv = len(g.adj)
    at = (np.bincount(g.ends[:, 0], on_edge, nv)
          + np.bincount(g.ends[:, 1], on_edge, nv)).astype(np.int64)
    a, b = g.ends[:, 0], g.ends[:, 1]
    return at[a] + at[b] - 2 * on_edge, at


def _counts(g: Graph, in_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(degree, neighbours in B) of every vertex."""
    nv = len(g.adj)
    if g.family in ("gamma", "nilradical", "omega"):
        return (np.count_nonzero(g.adj, axis=1),
                np.count_nonzero(g.adj & in_b[None, :], axis=1))
    edge_b = in_b[nv:] if g.family == "total-of-gamma" else in_b
    line_deg, edge_deg = _per_edge(g, np.ones(len(g.ends), dtype=np.int64))
    line_b, res_b = _per_edge(g, edge_b.astype(np.int64))
    if g.family == "line-of-gamma":
        return line_deg, line_b
    # a residue also meets its incident edges; an edge also meets its ends
    res_in_b = in_b[:nv]
    a, b = g.ends[:, 0], g.ends[:, 1]
    deg = np.concatenate([np.count_nonzero(g.adj, axis=1) + edge_deg, line_deg + 2])
    nb_b = np.concatenate([np.count_nonzero(g.adj & res_in_b[None, :], axis=1) + res_b,
                           line_b + res_in_b[a] + res_in_b[b]])
    return deg, nb_b


def _class_counts(n: int, family: str) -> tuple[np.ndarray, np.ndarray]:
    # the residues k with gcd(k, n) = d number phi(n / d), so the classes
    # follow from the divisors of n without listing any residue
    fs = factor(n)
    rad = prod(p for p, _ in fs)
    classes, counts = [], []
    for exps in product(*(range(e + 1) for _, e in fs)):
        d = prod(p ** x for (p, _), x in zip(fs, exps))
        nil = d % rad == 0
        if d in (1, n) or (family == "nilradical" and not nil) or (family == "omega" and nil):
            continue
        m = n // d
        classes.append(d)
        counts.append(m * prod(p - 1 for p, _ in fs if m % p == 0)
                      // prod(p for p, _ in fs if m % p == 0))
    order = np.argsort(classes)
    return np.array(classes, dtype=np.int64)[order], np.array(counts, dtype=np.int64)[order]


def size(n: int, family: str) -> tuple[int, int]:
    """(vertices, edges) of the family graph, counted over gcd classes."""
    classes, counts = _class_counts(n, family)
    meets = _meets(n, classes).astype(np.int64)
    deg = meets @ counts - np.diag(meets)
    edges = int(counts @ deg) // 2
    vertices = int(counts.sum())
    if family in ("gamma", "nilradical", "omega"):
        return vertices, edges
    # two distinct edges share at most one endpoint, so each vertex of degree
    # d contributes d(d-1)/2 line-graph edges
    line_edges = int(counts @ (deg * (deg - 1))) // 2
    if family == "line-of-gamma":
        return edges, line_edges
    return vertices + edges, 3 * edges + line_edges


def degrees(g: Graph) -> np.ndarray:
    return _counts(g, np.zeros(len(g.labels), dtype=bool))[0]


def witnesses(g: Graph, in_b: np.ndarray) -> np.ndarray:
    """Vertex ids that are not very cost effective: no strictly fewer
    neighbours on their own side than on the other. A mask that does not fit
    the graph leaves every vertex a witness."""
    in_b = np.asarray(in_b)
    if in_b.dtype != bool or in_b.shape != (len(g.labels),):
        return np.arange(len(g.labels))
    deg, nb_b = _counts(g, in_b)
    same = np.where(in_b, nb_b, deg - nb_b)
    return np.flatnonzero(same >= deg - same)


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def survey_failures(rows: list[dict[str, str]],
                    golden: list[dict[str, str]]) -> set[tuple[str, str]]:
    """(n, family) of the rows that disagree with the golden survey. A golden
    Unknown row may become decided; every other column must match exactly.
    What a newly decided row claims is for the certificate recount to check."""
    if len(rows) != len(golden):
        return {(r["n"], r["family"]) for r in golden}
    bad = set()
    for row, ref in zip(rows, golden):
        same_key = all(row[k] == ref[k] for k in ("n", "family", "shape", "vertices"))
        same_verdict = row["verdict"] == ref["verdict"] and row["source"] == ref["source"]
        if not same_key or not (same_verdict or ref["verdict"] == "Unknown"):
            bad.add((ref["n"], ref["family"]))
    return bad
