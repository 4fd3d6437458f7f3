"""Acceptance suite: eleven go/no-go checks, each printing one PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every check asserts both the
mathematical outcome and a wall-clock budget, so a pass means the package is
correct and desk-scale fast on this machine.
"""
import time

import numpy as np
import pytest

from helpers import all_bipartitions, complete_graph, random_graph, ref_has_vce
from znvce import (
    Bipartition,
    EdgePair,
    GraphFamily,
    IsolatedVertex,
    NotVce,
    Residue,
    SearchStatus,
    ShapeError,
    Verdict,
    brute_force,
    check_bipartition,
    dispatch,
    factorize,
    gamma,
    is_prime,
    is_vce,
    line_graph,
    nilradical_graph,
    non_nilradical_graph,
    total_graph,
    vce_line_pq,
    vce_nilradical,
    vce_omega_squarefree,
    vce_p2q,
    vce_p2q2,
    vce_squarefree,
    vce_total_pq,
)


def _report(num: int, label: str, t0: float, budget: float) -> None:
    dt = time.perf_counter() - t0
    assert dt < budget, f"criterion {num} took {dt:.1f}s, budget {budget:.0f}s"
    print(f"\n[criterion {num}] {label}: PASS ({dt:.2f}s < {budget:.0f}s)")


def _primes_upto(limit: int) -> list[int]:
    return [k for k in range(2, limit + 1) if is_prime(k)]


def _phi(n: int) -> int:
    out = 1
    for p, e in factorize(n).factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def _squarefree_composites(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        f = factorize(n)
        if f.is_squarefree and len(f.factors) >= 2:
            out.append(n)
    return out


def _p2q_moduli(limit: int, odd_p_only: bool = False) -> list[tuple[int, int, int]]:
    """(n, p, q) with n = p^2 q <= limit, p the squared prime."""
    out = []
    for p in _primes_upto(int(limit ** 0.5)):
        if odd_p_only and p == 2:
            continue
        for q in _primes_upto(limit // (p * p)):
            if q != p and p * p * q <= limit:
                out.append((p * p * q, p, q))
    return sorted(out)


def _p2q2_moduli(limit: int) -> list[tuple[int, int, int]]:
    out = []
    ps = _primes_upto(int(limit ** 0.5))
    for i, p in enumerate(ps):
        if p == 2:
            continue
        for q in ps[i + 1:]:
            n = (p * q) ** 2
            if n <= limit:
                out.append((n, p, q))
    return sorted(out)


def _line_pairs(product_cap: int) -> list[tuple[int, int]]:
    """Odd prime pairs p < q with (p-1)(q-1) <= product_cap."""
    out = []
    for p in _primes_upto(product_cap):
        if p == 2:
            continue
        for q in _primes_upto(product_cap // (p - 1) + 1):
            if q > p and (p - 1) * (q - 1) <= product_cap:
                out.append((p, q))
    return sorted(out)


def test_criterion_01_figure_fixtures():
    t0 = time.perf_counter()
    g16 = gamma(16)
    edges = {(g16.labels[i].k, g16.labels[j].k) for i, j in g16.edges()}
    assert edges == {(2, 8), (4, 8), (4, 12), (6, 8), (8, 10), (8, 12), (8, 14)}

    lg = line_graph(g16)
    assert lg.n_vertices == 7
    v = lg.id_of(EdgePair(4, 12))
    nbrs = {lg.labels[int(u)] for u in lg.neighbors(v)}
    assert nbrs == {EdgePair(4, 8), EdgePair(8, 12)}

    om18 = non_nilradical_graph(18)
    e18 = [(om18.labels[i].k, om18.labels[j].k) for i, j in om18.edges()]
    assert len(e18) == 6
    assert all(9 in pair for pair in e18)
    assert [om18.labels[v].k for v in np.flatnonzero(om18.degrees() == 0)] == [3, 15]
    _report(1, "figure fixtures (zero-divisor, line, non-nilpotent)", t0, 1.0)


def test_criterion_02_squarefree_suite():
    t0 = time.perf_counter()
    moduli = _squarefree_composites(1000)
    assert len(moduli) > 300
    for n in moduli:
        assert is_vce(gamma(n), vce_squarefree(n)), n
    _report(2, f"squarefree construction on {len(moduli)} moduli <= 1000", t0, 30.0)


def test_criterion_03_two_prime_structure():
    t0 = time.perf_counter()
    pairs = [(p, q) for p in _primes_upto(31) for q in _primes_upto(1000 // p)
             if p < q and p * q <= 1000]
    assert len(pairs) > 200
    for p, q in pairs:
        g = gamma(p * q)
        ks = np.array([lab.k for lab in g.labels])
        in_p = ks % p == 0
        assert int(in_p.sum()) == q - 1 and int((~in_p).sum()) == p - 1
        expect = in_p[:, None] != in_p[None, :]
        assert np.array_equal(g.adj, expect), (p, q)
        lg = line_graph(g)
        assert lg.n_vertices == (p - 1) * (q - 1)
        assert (lg.degrees() == p + q - 4).all(), (p, q)
    _report(3, f"complete-bipartite and line regularity on {len(pairs)} prime pairs", t0, 10.0)


def test_criterion_04_p2q_and_p2q2_suite():
    t0 = time.perf_counter()
    moduli = _p2q_moduli(2000)
    assert len(moduli) > 150
    for n, p, q in moduli:
        assert is_vce(gamma(n), vce_p2q(n)), n
    for n, p, q in [(225, 3, 5), (441, 3, 7), (1089, 3, 11), (1225, 5, 7)]:
        g = gamma(n)
        part = vce_p2q2(n)
        assert is_vce(g, part), n
        ks = np.array([lab.k for lab in g.labels])
        pure = (ks % (p * q) == 0) & (ks % (p * p) != 0) & (ks % (q * q) != 0)
        in_r = np.zeros(g.n_vertices, dtype=bool)
        in_r[part.r_ids] = True
        assert int((pure & in_r).sum()) == (q * (p - 2) + 1) // 2, n
        assert int((pure & ~in_r).sum()) == (p * (q - 2) + 1) // 2, n
    _report(4, f"p^2 q construction on {len(moduli)} moduli and p^2 q^2 cardinality laws", t0, 60.0)


def test_criterion_05_line_graph_suite():
    t0 = time.perf_counter()
    pairs = _line_pairs(400)
    assert len(pairs) > 80
    for p, q in pairs:
        assert is_vce(line_graph(gamma(p * q)), vce_line_pq(p, q)), (p, q)
    fallback = [q for q in _primes_upto(50) if q > 2]
    for q in fallback:
        assert is_vce(line_graph(gamma(2 * q)), vce_line_pq(2, q)), q
    _report(5, f"line-graph construction on {len(pairs)} odd pairs and {len(fallback)} star fallbacks",
            t0, 30.0)


def test_criterion_06_nilpotent_suite():
    t0 = time.perf_counter()
    count = 0
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        assert is_vce(nilradical_graph(p * p), vce_nilradical(p * p)), p
        count += 1
    for p in (2, 3, 5, 7, 11, 13):
        assert is_vce(nilradical_graph(p ** 3), vce_nilradical(p ** 3)), p
        count += 1
    for n, p, q in _p2q_moduli(2000, odd_p_only=True):
        assert is_vce(nilradical_graph(n), vce_nilradical(n)), n
        count += 1
    for n, p, q in _p2q2_moduli(5000):
        assert is_vce(nilradical_graph(n), vce_nilradical(n)), n
        count += 1
    with pytest.raises(ShapeError):
        vce_nilradical(36)
    out = brute_force(nilradical_graph(36))
    assert out.status is SearchStatus.NONE_EXISTS
    _report(6, f"nilpotent-graph construction on {count} moduli plus the n=36 refusal", t0, 60.0)


def test_criterion_07_non_nilpotent_suite():
    t0 = time.perf_counter()
    obstructed = _p2q_moduli(1000)
    for n, p, q in obstructed:
        cert = dispatch(n, GraphFamily.OMEGA)
        assert isinstance(cert, NotVce), n
        assert isinstance(cert.witness, IsolatedVertex), n
        k = cert.witness.label.k
        assert k % p == 0 and k % q != 0, n
    identical = 0
    for n in range(2, 1001):
        f = factorize(n)
        if not f.is_squarefree:
            continue
        og = non_nilradical_graph(n)
        assert og == gamma(n), n
        identical += 1
        if len(f.factors) >= 2:
            part = vce_omega_squarefree(n)
            assert part == vce_squarefree(n), n
            assert is_vce(og, part) and is_vce(gamma(n), part), n
    _report(7, f"isolated-vertex obstruction on {len(obstructed)} moduli; "
               f"graph identity on {identical} squarefree moduli", t0, 30.0)


def test_criterion_08_total_graph_nonexistence():
    t0 = time.perf_counter()
    for p in (3, 5, 7):
        tg = total_graph(gamma(2 * p))
        assert tg.n_vertices == 2 * p - 1
        out = brute_force(tg)
        assert out.status is SearchStatus.NONE_EXISTS, p
    _report(8, "exhaustive nonexistence for total graphs of 2p", t0, 60.0)


def test_criterion_09_total_graph_construction():
    t0 = time.perf_counter()
    sizes = {(3, 5): 14, (3, 7): 20, (3, 11): 32, (5, 7): 34}
    for (p, q), nv in sizes.items():
        tg = total_graph(gamma(p * q))
        assert tg.n_vertices == nv
        assert is_vce(tg, vce_total_pq(p, q)), (p, q)
    _report(9, "total-graph construction on four odd prime pairs", t0, 10.0)


def _oracle_corpus():
    """Every graph the suites above touch, with its expected existence verdict,
    restricted to at most 20 vertices so exhaustive search stays cheap.

    Sizes come from closed forms (no graph is built unless it qualifies):
    |V(gamma(n))| = n - 1 - phi(n); the nilpotent graph has n/rad(n) - 1
    vertices; the non-nilpotent graph the difference; line/total sizes follow
    from the complete-bipartite edge count (p-1)(q-1).
    """
    corpus = []
    for n in _squarefree_composites(1000):
        if n - 1 - _phi(n) <= 20:
            corpus.append((f"gamma({n})", gamma(n), True))
            corpus.append((f"omega({n})", non_nilradical_graph(n), True))
    for n, p, q in _p2q_moduli(2000):
        if n - 1 - _phi(n) <= 20:
            corpus.append((f"gamma({n})", gamma(n), True))
    for p, q in _line_pairs(20):
        corpus.append((f"line({p * q})", line_graph(gamma(p * q)), True))
    for q in (3, 5, 7, 11, 13, 17, 19):
        corpus.append((f"line({2 * q})", line_graph(gamma(2 * q)), True))
    for p in (3, 5, 7, 11, 13, 17, 19):
        corpus.append((f"nil({p * p})", nilradical_graph(p * p), True))
    for p in (2, 3):
        corpus.append((f"nil({p ** 3})", nilradical_graph(p ** 3), True))
    for n, p, q in _p2q_moduli(2000, odd_p_only=True):
        if p - 1 <= 20 and p > 2:
            corpus.append((f"nil({n})", nilradical_graph(n), True))
    for n, p, q in _p2q2_moduli(5000):
        if p * q - 1 <= 20:
            corpus.append((f"nil({n})", nilradical_graph(n), True))
    corpus.append(("nil(36)", nilradical_graph(36), False))
    for n, p, q in _p2q_moduli(1000):
        gsize = n - 1 - _phi(n)
        if gsize - (n // (p * q) - 1) <= 20:
            corpus.append((f"omega({n})", non_nilradical_graph(n), False))
    for p, q in ((3, 5), (3, 7)):
        corpus.append((f"total({p * q})", total_graph(gamma(p * q)), True))
    for p in (3, 5, 7):
        corpus.append((f"total({2 * p})", total_graph(gamma(2 * p)), False))
    return corpus


def test_criterion_10_oracle_cross_check():
    t0 = time.perf_counter()
    corpus = _oracle_corpus()
    assert len(corpus) > 60
    small = 0
    for name, g, expected in corpus:
        assert g.n_vertices <= 20, name
        out = brute_force(g)
        assert (out.status is SearchStatus.FOUND) == expected, name
        if expected:
            assert is_vce(g, out.partition), name
        if g.n_vertices <= 12:
            assert ref_has_vce(g.adj) == expected, name
            small += 1
    _report(10, f"search oracle agrees on {len(corpus)} graphs "
                f"({small} double-checked by reference enumeration)", t0, 300.0)


def test_criterion_11_checker_laws():
    t0 = time.perf_counter()
    # swap symmetry and the inside+outside = degree law on a fixed random corpus
    for seed in range(30):
        g = random_graph(8, seed=seed)
        in_b = np.array([bool((seed >> v) & 1) for v in range(8)])
        if in_b.all() or not in_b.any():
            in_b[0] = not in_b[0]
        part = Bipartition(in_b)
        rep, swapped = check_bipartition(g, part), check_bipartition(g, part.swapped())
        assert rep.partition_verdict is swapped.partition_verdict
        assert rep.inside.tolist() == swapped.inside.tolist()
        assert rep.outside.tolist() == swapped.outside.tolist()
        assert (rep.inside + rep.outside).tolist() == g.degrees().tolist()

    # an isolated vertex blocks every bipartition of the n=12 non-nilpotent graph
    om12 = non_nilradical_graph(12)
    iso = om12.id_of(Residue(2))
    for in_b in all_bipartitions(om12.n_vertices):
        rep = check_bipartition(om12, Bipartition(in_b))
        assert rep.partition_verdict is not Verdict.VERY_COST_EFFECTIVE
        assert iso in rep.witnesses

    # complete graphs: very cost effective exactly in even order
    for m in range(2, 11):
        g = complete_graph(m)
        found = any(is_vce(g, Bipartition(in_b)) for in_b in all_bipartitions(m))
        assert found == (m % 2 == 0), m
    _report(11, "checker laws (swap, degree sum, isolation, K_m parity)", t0, 5.0)
