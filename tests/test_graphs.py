import tracemalloc

import numpy as np
import pytest

from helpers import complete_graph, edge_residues, phi_by_gcd, ref_residue_adj, residues
from znvce import (
    DomainError,
    EdgePair,
    GraphFamily,
    LabeledGraph,
    Residue,
    TotalEdge,
    TotalOriginal,
    build_family,
    gamma,
    isolated_vertices,
    line_graph,
    nilradical_graph,
    non_nilradical_graph,
    total_graph,
    zero_divisors,
)
from znvce import graphs
from znvce.graphs import _SYMMETRY_TILE

GAMMA_16_EDGES = {(2, 8), (4, 8), (4, 12), (6, 8), (8, 10), (8, 12), (8, 14)}


def test_gamma_16_fixture():
    g = gamma(16)
    assert residues(g) == [2, 4, 6, 8, 10, 12, 14]
    assert edge_residues(g) == GAMMA_16_EDGES


def test_gamma_small_cases():
    g = gamma(6)
    assert residues(g) == [2, 3, 4]
    assert edge_residues(g) == {(2, 3), (3, 4)}
    assert gamma(7).n_vertices == 0
    g15 = gamma(15)
    assert edge_residues(g15) == {
        (3, 5), (3, 10), (5, 6), (5, 9), (5, 12), (6, 10), (9, 10), (10, 12)}


def test_gamma_vertex_count_law():
    for n in range(2, 501):
        assert gamma(n).n_vertices == n - phi_by_gcd(n) - 1


def test_nilradical_graph_cases():
    assert nilradical_graph(16) == gamma(16)
    g = nilradical_graph(12)
    assert residues(g) == [6] and g.n_edges() == 0
    g27 = nilradical_graph(27)
    assert residues(g27) == [3, 6, 9, 12, 15, 18, 21, 24]
    assert edge_residues(g27) == {
        (3, 9), (3, 18), (6, 9), (6, 18), (9, 12), (9, 15), (9, 18),
        (9, 21), (9, 24), (12, 18), (15, 18), (18, 21), (18, 24)}
    # 9 and 18 adjacent to all others, the rest mutually non-adjacent
    for i, j in g27.edges():
        assert 9 in (g27.labels[i].k, g27.labels[j].k) or 18 in (g27.labels[i].k, g27.labels[j].k)


def test_non_nilradical_graph_cases():
    g18 = non_nilradical_graph(18)
    assert residues(g18) == [2, 3, 4, 8, 9, 10, 14, 15, 16]
    assert edge_residues(g18) == {(2, 9), (4, 9), (8, 9), (9, 10), (9, 14), (9, 16)}
    assert non_nilradical_graph(30) == gamma(30)
    g12 = non_nilradical_graph(12)
    assert residues(g12) == [2, 3, 4, 8, 9, 10]
    assert edge_residues(g12) == {(3, 4), (3, 8), (4, 9), (8, 9)}


def test_nilpotent_split_is_an_induced_partition():
    for n in range(2, 2001):
        g = gamma(n)
        nil = nilradical_graph(n)
        om = non_nilradical_graph(n)
        ks = np.array(residues(g))
        nil_ks = np.array(residues(nil), dtype=np.int64)
        om_ks = np.array(residues(om), dtype=np.int64)
        assert np.concatenate([nil_ks, om_ks]).size == ks.size
        assert set(nil_ks.tolist()) | set(om_ks.tolist()) == set(ks.tolist())
        nil_idx = np.flatnonzero(np.isin(ks, nil_ks))
        om_idx = np.flatnonzero(np.isin(ks, om_ks))
        assert (nil.adj == g.adj[np.ix_(nil_idx, nil_idx)]).all()
        assert (om.adj == g.adj[np.ix_(om_idx, om_idx)]).all()


def test_residue_adjacency_matches_the_product_definition():
    # the class-table build against n | u*v computed product by product
    for n in range(2, 601):
        for build in (gamma, nilradical_graph, non_nilradical_graph):
            g = build(n)
            assert (g.adj == ref_residue_adj(n, residues(g))).all(), (n, build.__name__)


def test_line_graph_of_gamma_16():
    lg = line_graph(gamma(16))
    assert lg.n_vertices == 7
    assert lg.n_edges() == 17
    v = lg.id_of(EdgePair(4, 12))
    assert {lg.labels[int(i)].render() for i in lg.neighbors(v)} == {"(4,8)", "(8,12)"}


def test_line_graph_of_gamma_15_is_regular():
    lg = line_graph(gamma(15))
    assert lg.n_vertices == 8
    assert (lg.degrees() == 4).all()


def test_line_graph_degenerate_cases():
    single_edge = LabeledGraph([Residue(1), Residue(2)], [[False, True], [True, False]])
    lg = line_graph(single_edge)
    assert lg.n_vertices == 1 and lg.n_edges() == 0
    assert lg.labels == (EdgePair(1, 2),)
    assert line_graph(gamma(7)).n_vertices == 0


def test_line_graph_degree_law():
    for n in (12, 15, 16, 24, 30, 60):
        g = gamma(n)
        lg = line_graph(g)
        for v, (i, j) in enumerate(g.edges()):
            assert lg.degree(v) == g.degree(i) + g.degree(j) - 2


def test_total_graph_of_gamma_10():
    t = total_graph(gamma(10))
    assert t.n_vertices == 9
    assert sorted(t.degrees().tolist()) == [2, 2, 2, 2, 5, 5, 5, 5, 8]
    assert t.degree(t.id_of(TotalOriginal(5))) == 8
    for k in (2, 4, 6, 8):
        assert t.degree(t.id_of(TotalOriginal(k))) == 2
    for lab in t.labels:
        if isinstance(lab, TotalEdge):
            assert t.degree(t.id_of(lab)) == 5


def test_total_graph_single_vertex():
    t = total_graph(gamma(4))
    assert t.n_vertices == 1
    assert t.labels == (TotalOriginal(2),)


def test_total_graph_labels_are_residues_and_edge_pairs():
    # one label type per kind: a total graph's vertices are gamma's residues,
    # then its edges as pairs, so an edgeless graph is its own total graph
    assert TotalOriginal is Residue and TotalEdge is EdgePair
    t = total_graph(gamma(15))
    assert t.labels[:6] == gamma(15).labels
    assert t.labels[6:] == line_graph(gamma(15)).labels
    assert total_graph(gamma(4)) == gamma(4)
    assert total_graph(total_graph(gamma(4))) == gamma(4)
    assert line_graph(total_graph(gamma(4))).n_vertices == 0


def test_total_graph_degree_laws():
    for n in range(2, 501):
        g = gamma(n)
        t = total_graph(g)
        nv = g.n_vertices
        deg_g = g.degrees()
        deg_t = t.degrees()
        assert (deg_t[:nv] == 2 * deg_g).all()
        for k, (i, j) in enumerate(g.edges()):
            assert deg_t[nv + k] == deg_g[i] + deg_g[j]


def test_transforms_reject_non_residue_labels():
    t = total_graph(gamma(10))
    with pytest.raises(DomainError):
        line_graph(t)
    with pytest.raises(DomainError):
        total_graph(line_graph(gamma(16)))


def test_isolated_vertices():
    assert [lab.k for lab in isolated_vertices(non_nilradical_graph(18))] == [3, 15]
    assert isolated_vertices(gamma(16)) == []
    assert [lab.k for lab in isolated_vertices(non_nilradical_graph(12))] == [2, 10]


def test_complete_bipartite_structure_for_pq():
    for p, q in ((2, 3), (3, 5), (5, 7), (3, 11)):
        g = gamma(p * q)
        ks = np.array(residues(g))
        part_p = ks % p == 0
        assert int(part_p.sum()) == q - 1
        assert int((~part_p).sum()) == p - 1
        expect = part_p[:, None] != part_p[None, :]
        assert (g.adj == expect).all()
        lg = line_graph(g)
        assert lg.n_vertices == (p - 1) * (q - 1)
        assert (lg.degrees() == p + q - 4).all()


def test_graph_validation():
    with pytest.raises(ValueError):
        LabeledGraph([Residue(1), Residue(1)], np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        LabeledGraph([Residue(1), Residue(2)], [[False, True], [False, False]])
    with pytest.raises(ValueError):
        LabeledGraph([Residue(1)], [[True]])
    with pytest.raises(ValueError):
        LabeledGraph([Residue(1), Residue(2)], np.zeros((3, 3), dtype=bool))


def test_caller_adjacency_is_copied():
    a = np.array([[False, True], [True, False]])
    g = LabeledGraph([Residue(1), Residue(2)], a)
    assert not np.shares_memory(g.adj, a) and a.flags.writeable
    a[0, 1] = a[1, 0] = False
    assert g.has_edge(0, 1)


def test_adopted_adjacency_is_checked_and_kept():
    # the key constructor adopts its keys and adjacency without a copy, and
    # checks them for repeated labels, asymmetry, self-loops and a shape
    # that does not match the labels
    keys, a = np.array([[1, 1], [1, 2]]), np.array([[False, True], [True, False]])
    g = LabeledGraph._from_keys(keys, a)
    assert g.keys() is keys and g.adj is a and not (keys.flags.writeable or a.flags.writeable)
    assert g.labels == (Residue(1), EdgePair(1, 2))
    bad_keys = [
        (np.array([[1, 1], [1, 1]]), np.zeros((2, 2), dtype=bool)),
        (np.array([[1, 2], [3, 4], [1, 2]]), np.zeros((3, 3), dtype=bool)),
        (np.array([[1, 1], [2, 2]]), np.array([[False, True], [False, False]])),
        (np.array([[1, 1]]), np.array([[True]])),
        (np.array([[1, 1], [2, 2]]), np.zeros((3, 3), dtype=bool)),
        (np.array([[1, 1], [2, 2]]), np.zeros((2, 3), dtype=bool)),
    ]
    for keys, adj in bad_keys:
        with pytest.raises(ValueError):
            LabeledGraph._from_keys(keys, adj)


def test_keys_must_be_residues_or_ascending_pairs():
    for keys in ([[2, 1]], [[1, 2, 3]], [1, 2]):
        with pytest.raises(ValueError):
            LabeledGraph._from_keys(np.array(keys), np.zeros((1, 1), dtype=bool))


def test_residue_and_pair_keys_never_collide():
    span = range(-3, 6)
    residues = [Residue(k) for k in span]
    pairs = [EdgePair(a, b) for a in span for b in span if a < b]
    labels = residues + pairs
    g = LabeledGraph(labels, np.zeros((len(labels), len(labels)), dtype=bool))
    ks = g.keys()
    assert (ks[:len(residues), 0] == ks[:len(residues), 1]).all()
    assert (ks[len(residues):, 0] < ks[len(residues):, 1]).all()
    assert len({tuple(k) for k in ks.tolist()}) == len(labels)
    rebuilt = LabeledGraph._from_keys(ks.copy(), g.adj.copy())
    assert rebuilt.labels == tuple(labels)
    assert [rebuilt.label(v) for v in range(len(labels))] == labels


def test_residues_past_int64_keep_their_labels():
    big = [Residue(10**30), Residue(-10**30), Residue(3)]
    g = LabeledGraph(big, np.zeros((3, 3), dtype=bool))
    assert g.labels == tuple(big) and g.names() == (str(10**30), str(-10**30), "3")
    assert LabeledGraph._from_keys(g.keys().copy(), g.adj.copy()).labels == tuple(big)
    with pytest.raises(ValueError):
        LabeledGraph(big + [Residue(10**30)], np.zeros((4, 4), dtype=bool))


def test_object_constructor_rebuilds_every_family_graph():
    # labels and keys are two views of one thing: rebuilding a graph from its
    # label objects gives the same graph, names and ids
    for family in GraphFamily:
        for n in range(2, 201):
            g = build_family(n, family)
            r = LabeledGraph(g.labels, g.adj, modulus=g.modulus)
            assert r == g and r.names() == g.names()
            assert np.array_equal(r.keys(), g.keys())
            assert r.names() == tuple(lab.render() for lab in g.labels)
            ids = list(range(g.n_vertices))
            assert [r.id_of(lab) for lab in g.labels] == ids
            assert [g.id_of(lab) for lab in r.labels] == ids


def test_line_graph_memory_stays_near_two_edge_squared_bools():
    # the shared-endpoint adjacency is an OR of two incidence gathers, |E|^2
    # bools each; a float32 or wider integer |E| x |E| product would pass 4|E|^2
    g = gamma(1500)
    ne = g.n_edges()
    tracemalloc.start()
    try:
        lg = line_graph(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lg.n_vertices == ne
    assert peak < 3 * ne * ne


def test_total_graph_memory_stays_near_one_adjacency():
    # the blocks are written into one preallocated (|V|+|E|)^2 matrix, a
    # bounded block of rows at a time; assembling them with np.block after
    # building the |E| x |E| block on its own peaks near 1.9 (|V|+|E|)^2
    g = gamma(600)
    tracemalloc.start()
    try:
        t = total_graph(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.n_vertices == g.n_vertices + g.n_edges()
    assert peak < 1.4 * t.n_vertices ** 2


@pytest.mark.parametrize("gather_bytes", [graphs._GATHER_BYTES, 200])
def test_line_and_total_graphs_match_the_block_definition(monkeypatch, gather_bytes):
    # incidence from the edge list, shared endpoints from its product, and
    # the total graph as np.block of the four, for every n in 2..120; with
    # 200 bytes the shared block is gathered in blocks of one to a few rows
    monkeypatch.setattr(graphs, "_GATHER_BYTES", gather_bytes)
    for n in range(2, 121):
        g = gamma(n)
        inc = np.zeros((g.n_vertices, g.n_edges()), dtype=bool)
        for e, (i, j) in enumerate(g.edges()):
            inc[[i, j], e] = True
        shared = inc.T.astype(np.int64) @ inc.astype(np.int64) > 0
        np.fill_diagonal(shared, False)
        assert np.array_equal(line_graph(g).adj, shared), n
        assert np.array_equal(total_graph(g).adj, np.block([[g.adj, inc], [inc.T, shared]])), n


_T = _SYMMETRY_TILE


@pytest.mark.parametrize("u, v", [
    (2 * _T + 87, 2 * _T + 86),  # far-corner tile, on the diagonal of tiles
    (2 * _T + 87, 0),            # far-corner tile below the diagonal
    (0, 2 * _T + 87),            # and its mirror above it
    (_T - 1, _T),                # straddling a tile boundary
    (_T, _T - 1),
    (2 * _T - 1, 2 * _T),
])
def test_symmetry_is_checked_in_every_tile(u, v):
    nv = 2 * _T + 88
    a = np.zeros((nv, nv), dtype=bool)
    a[u, v] = True
    labels = [Residue(i + 1) for i in range(nv)]
    with pytest.raises(ValueError, match="symmetric"):
        LabeledGraph(labels, a)
    a[v, u] = True
    assert LabeledGraph(labels, a).has_edge(v, u)


def test_adjacency_is_frozen():
    g = gamma(12)
    with pytest.raises(ValueError):
        g.adj[0, 1] = True


def test_labels_must_be_ascending_pairs():
    with pytest.raises(ValueError):
        EdgePair(5, 3)
    with pytest.raises(ValueError):
        TotalEdge(4, 4)


def test_modulus_survives_transforms():
    assert gamma(16).modulus == 16
    assert line_graph(gamma(16)).modulus == 16
    assert total_graph(gamma(10)).modulus == 10


def test_build_family_matches_direct_builders():
    n = 20
    assert build_family(n, GraphFamily.GAMMA) == gamma(n)
    assert build_family(n, GraphFamily.NILRADICAL) == nilradical_graph(n)
    assert build_family(n, GraphFamily.OMEGA) == non_nilradical_graph(n)
    assert build_family(n, GraphFamily.LINE_OF_GAMMA) == line_graph(gamma(n))
    assert build_family(n, GraphFamily.TOTAL_OF_GAMMA) == total_graph(gamma(n))


def test_graph_equality_and_neighbors():
    g = gamma(12)
    assert g == gamma(12)
    assert g != gamma(18)
    v8 = g.id_of(Residue(8))
    assert [g.labels[int(i)].k for i in g.neighbors(v8)] == [3, 6, 9]
    assert g.has_edge(g.id_of(Residue(3)), g.id_of(Residue(4)))
    assert not g.has_edge(g.id_of(Residue(2)), g.id_of(Residue(3)))


def test_zero_divisors_are_the_gamma_vertices():
    for n in (12, 16, 30, 72, 210):
        assert residues(gamma(n)) == zero_divisors(n).tolist()
