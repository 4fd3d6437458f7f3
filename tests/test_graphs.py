import json
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
    build_family,
    family_graphs,
    gamma,
    graph_from_json,
    graph_to_json,
    line_graph,
    nilradical_graph,
    non_nilradical_graph,
    total_graph,
    zero_divisors,
)
from znvce import graphs, serialize

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
    # the class-table build against n | u*v computed product by product, in
    # both forms: the rows the builder writes are exactly np.packbits of the
    # reference, so every padding bit is zero, for every |V| % 8, and every
    # diagonal bit clear, also where u^2 = 0 (n = 4, 8, 9, 16, ...)
    tails = set()
    for n in range(2, 601):
        for build in (gamma, nilradical_graph, non_nilradical_graph):
            g = build(n)
            ref = ref_residue_adj(n, residues(g))
            rows = g.rows()
            assert rows.dtype == np.uint8 and rows.flags.c_contiguous, (n, build.__name__)
            assert np.array_equal(rows, np.packbits(ref, axis=1)), (n, build.__name__)
            assert (g.adj == ref).all(), (n, build.__name__)
            tails.add(g.n_vertices % 8)
    assert tails == set(range(8))


def test_row_built_adjacency_is_frozen_kept_and_its_own():
    g = gamma(36)
    assert g._adj is None  # built as rows, nothing unpacked yet
    a = g.adj
    assert a is g.adj and a.dtype == bool and not a.flags.writeable
    assert a.flags.c_contiguous and not np.may_share_memory(a, g.rows())
    with pytest.raises(ValueError):
        g.rows()[0, 0] = 0
    # a graph handed a dense matrix packs it once and keeps only the rows
    d = LabeledGraph(g.labels, g.adj)
    assert d._adj is None
    r = d.rows()
    assert r is d.rows() and not r.flags.writeable
    assert np.array_equal(r, g.rows()) and not np.may_share_memory(r, d.adj)


@pytest.mark.parametrize("n", [2, 4, 12, 16, 36, 105, 210, 243, 600, 1001])
def test_row_and_dense_builds_are_equal(n):
    for build in (gamma, nilradical_graph, non_nilradical_graph):
        g = build(n)
        d = LabeledGraph(g.labels, ref_residue_adj(n, residues(g)), modulus=n)
        assert g == d and d == g, (n, build.__name__)
        if g.n_edges():
            a = ref_residue_adj(n, residues(g))
            u, v = np.argwhere(a)[0]
            a[u, v] = a[v, u] = False
            assert g != LabeledGraph(g.labels, a, modulus=n), (n, build.__name__)


def test_degrees_are_row_sums_on_every_family():
    # every built graph counts its degrees from its class table or from
    # gamma's, and they are the adjacency's row sums; no adj is unpacked
    for n in range(2, 201):
        for family, g in family_graphs(n, GraphFamily).items():
            fresh = build_family(n, family)
            deg = fresh.degrees()
            assert deg.dtype == np.int64 and not deg.flags.writeable
            assert fresh._adj is None, (n, family)
            assert deg.tolist() == g.adj.sum(axis=1).tolist(), (n, family)
            assert fresh.n_edges() == int(g.adj.sum()) // 2, (n, family)


def _upper_edges(g):
    return np.nonzero(np.triu(g.adj))


def _assert_same_edges(g, what):
    got, want = g.edge_ends(), _upper_edges(g)
    for x, y in zip(got, want):
        assert x.dtype == np.intp and np.array_equal(x, y), what


def test_edge_ends_are_the_upper_triangle_on_every_family():
    # read from the rows: no graph is unpacked for its edges
    tails = set()
    for n in range(2, 201):
        for family, g in family_graphs(n, GraphFamily).items():
            fresh = build_family(n, family)
            iu, iv = fresh.edge_ends()
            assert fresh._adj is None, (n, family)
            _assert_same_edges(g, (n, family))
            assert fresh.edges() == list(zip(iu.tolist(), iv.tolist())), (n, family)
            tails.add(g.n_vertices % 8)
    assert tails == set(range(8))


def test_edge_ends_of_the_empty_graph():
    for g in (gamma(7), LabeledGraph([], np.zeros((0, 0), dtype=bool))):
        iu, iv = g.edge_ends()
        assert iu.dtype == iv.dtype == np.intp and iu.size == iv.size == 0
        assert g.edges() == []


@pytest.mark.parametrize("gather_bytes", [1, 64, 1 << 10])
def test_edge_ends_in_blocks_of_one_row_and_more(monkeypatch, gather_bytes):
    # a budget under |V| bytes reads one row per block
    monkeypatch.setattr(graphs, "_GATHER_BYTES", gather_bytes)
    for n in (16, 30, 36, 64, 105, 120):
        for family, g in family_graphs(n, GraphFamily).items():
            _assert_same_edges(g, (n, family, gather_bytes))


def test_graph_json_and_dot_list_the_edge_ends():
    for n, family in ((36, GraphFamily.GAMMA), (30, GraphFamily.TOTAL_OF_GAMMA)):
        g = build_family(n, family)
        iu, iv = _upper_edges(g)
        assert json.loads(graph_to_json(g, family))["edges"] == np.stack((iu, iv), 1).tolist()
        assert serialize.graph_to_dot(g, family).count(" -- ") == iu.size


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
    assert t.degree(t.id_of(Residue(5))) == 8
    for k in (2, 4, 6, 8):
        assert t.degree(t.id_of(Residue(k))) == 2
    for lab in t.labels:
        if isinstance(lab, EdgePair):
            assert t.degree(t.id_of(lab)) == 5


def test_total_graph_single_vertex():
    t = total_graph(gamma(4))
    assert t.n_vertices == 1
    assert t.labels == (Residue(2),)


def test_total_graph_labels_are_residues_and_edge_pairs():
    # one label type per kind: a total graph's vertices are gamma's residues,
    # then its edges as pairs, so an edgeless graph is its own total graph
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


@pytest.mark.parametrize("n", [-5, 0, 1])
def test_moduli_below_two_are_a_domain_error(n):
    for build in (gamma, nilradical_graph, non_nilradical_graph):
        with pytest.raises(DomainError):
            build(n)
    for family in GraphFamily:
        with pytest.raises(DomainError):
            build_family(n, family)
    with pytest.raises(DomainError):
        family_graphs(n, GraphFamily)


def test_transforms_reject_non_residue_labels():
    t = total_graph(gamma(10))
    text = "^line and total graphs need a residue-labeled graph, found EdgePair$"
    with pytest.raises(DomainError, match=text):
        line_graph(t)
    with pytest.raises(DomainError, match=text):
        total_graph(line_graph(gamma(16)))


def test_isolated_vertices():
    def isolated(g):
        return [g.labels[v].k for v in np.flatnonzero(g.degrees() == 0)]

    assert isolated(non_nilradical_graph(18)) == [3, 15]
    assert isolated(gamma(16)) == []
    assert isolated(non_nilradical_graph(12)) == [2, 10]


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


def test_adopted_arrays_are_kept_and_caller_labels_are_checked():
    # the key constructor adopts its keys and rows without a copy or a
    # check; its callers build both right. Labels a caller hands in are
    # checked for repeats
    keys, rows = np.array([[1, 1], [1, 2]]), np.array([[0b01000000], [0b10000000]], np.uint8)
    g = LabeledGraph._from_keys(keys, rows)
    assert g.keys() is keys and g.rows() is rows
    assert not (keys.flags.writeable or rows.flags.writeable)
    assert g._adj is None and g.adj.tolist() == [[False, True], [True, False]]
    assert g.labels == (Residue(1), EdgePair(1, 2))
    repeated = [
        [Residue(1), Residue(1)],
        [EdgePair(1, 2), EdgePair(3, 4), EdgePair(1, 2)],
    ]
    for labels in repeated:
        with pytest.raises(ValueError, match="labels must be pairwise distinct"):
            LabeledGraph(labels, np.zeros((len(labels), len(labels)), dtype=bool))


def test_labels_are_checked_for_repeats_only_where_they_come_in(monkeypatch):
    # the builders make distinct keys by construction and are not checked;
    # a caller's labels are checked once, and a graph file's once on either
    # reader path
    calls, check = [], graphs._check_distinct

    def counted(keys):
        calls.append(len(keys))
        return check(keys)

    monkeypatch.setattr(graphs, "_check_distinct", counted)
    monkeypatch.setattr(serialize, "_check_distinct", counted)
    for family in GraphFamily:
        for n in range(2, 61):
            build_family(n, family)
    assert calls == []
    g = total_graph(gamma(15))
    LabeledGraph(g.labels, g.adj)
    assert calls == [g.n_vertices]
    text = graph_to_json(g, GraphFamily.TOTAL_OF_GAMMA)
    indented = json.dumps(json.loads(text), indent=1)
    for t in (text, indented):
        calls.clear()
        assert graph_from_json(t) == (g, GraphFamily.TOTAL_OF_GAMMA)
        assert calls == [g.n_vertices]


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
    rebuilt = LabeledGraph._from_keys(ks.copy(), g.rows().copy())
    assert rebuilt.labels == tuple(labels)
    assert [rebuilt.label(v) for v in range(len(labels))] == labels


def test_residues_past_int64_keep_their_labels():
    big = [Residue(10**30), Residue(-10**30), Residue(3)]
    g = LabeledGraph(big, np.zeros((3, 3), dtype=bool))
    assert g.labels == tuple(big) and g.names() == (str(10**30), str(-10**30), "3")
    assert LabeledGraph._from_keys(g.keys().copy(), g.rows().copy()).labels == tuple(big)
    with pytest.raises(ValueError):
        LabeledGraph(big + [Residue(10**30)], np.zeros((4, 4), dtype=bool))


def test_object_constructor_rebuilds_every_family_graph():
    # labels and keys are two views of one thing: rebuilding a graph from its
    # label objects gives the same graph, names and ids. The builders hand
    # their keys and adjacency to the key constructor unchecked, so passing
    # them through the checked one here is the check that they build
    # distinct labels and a symmetric, loop-free adjacency
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


@pytest.mark.parametrize("build", [line_graph, total_graph])
def test_line_and_total_graph_memory_stays_near_their_rows(build):
    # built on first use straight into |V|^2 / 8 bytes of rows, with the
    # incidence packed and the edge rows gathered a bounded block at a time;
    # a dense |V|^2 bool matrix alone would pass the bound
    g = gamma(1500)
    tracemalloc.start()
    try:
        h = build(g)
        h.rows()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.n_vertices == g.n_edges() + (build is total_graph) * g.n_vertices
    assert peak < 0.4 * h.n_vertices ** 2


@pytest.mark.parametrize("n", [4, 10, 36, 600])
def test_line_and_total_graphs_never_unpack_gamma(n):
    # the total graph ORs gamma's rows into its own; neither transform reads
    # gamma's dense adjacency or unpacks its own
    g = gamma(n)
    built = [line_graph(g), total_graph(g)]
    assert g._adj is None and all(h._adj is None for h in built)


@pytest.mark.parametrize("gather_bytes", [graphs._GATHER_BYTES, 16, 1])
def test_line_and_total_graphs_match_the_block_definition(monkeypatch, gather_bytes):
    # incidence from the edge list, shared endpoints from its product, and
    # the total graph as np.block of the four, for every n in 2..120; with
    # 16 bytes the edge rows are gathered a few at a time, with 1 one by one
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


# corners and boundaries of 256-wide tiles: where a tiled check would slip,
# and any symmetry check must still catch a one-sided edge
_T = 256


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
        EdgePair(4, 4)


def test_modulus_survives_transforms():
    assert gamma(16).modulus == 16
    assert line_graph(gamma(16)).modulus == 16
    assert total_graph(gamma(10)).modulus == 10


_DIRECT = {
    GraphFamily.GAMMA: gamma,
    GraphFamily.NILRADICAL: nilradical_graph,
    GraphFamily.OMEGA: non_nilradical_graph,
    GraphFamily.LINE_OF_GAMMA: lambda n: line_graph(gamma(n)),
    GraphFamily.TOTAL_OF_GAMMA: lambda n: total_graph(gamma(n)),
}


def _same_graph(a, b):
    return (a.keys().dtype == b.keys().dtype and np.array_equal(a.keys(), b.keys())
            and np.array_equal(a.adj, b.adj) and a.modulus == b.modulus)


def test_build_family_matches_direct_builders():
    # build_family is family_graphs asked for one family, by enum or by name
    for n in range(2, 61):
        for family in GraphFamily:
            assert _same_graph(build_family(n, family), _DIRECT[family](n)), (n, family)
            assert _same_graph(build_family(n, family.value), _DIRECT[family](n)), (n, family)


def test_family_graphs_match_the_direct_builders():
    # the three residue graphs built from one shared sieve, and the line and
    # total graphs from one walk of gamma's edges, against each family built
    # on its own
    for n in range(2, 301):
        built = family_graphs(n, GraphFamily)
        assert set(built) == set(GraphFamily)
        for family, g in built.items():
            # every graph is built as rows that it owns, and unpacks them into
            # a uint8 buffer of its own, viewed as bool, that holds the
            # adjacency and nothing more
            r = g.rows()
            assert r.flags.owndata and r.flags.c_contiguous and not r.flags.writeable
            assert g._adj is None, (n, family)
            assert _same_graph(g, _DIRECT[family](n)), (n, family)
            a = g.adj
            assert a.dtype == bool and not a.flags.writeable, (n, family)
            assert a.flags.c_contiguous, (n, family)
            assert a.base.flags.owndata and a.base.base is None, (n, family)
            assert a.base.nbytes == a.nbytes, (n, family)
        # _from_keys takes arrays that nothing else holds, and an unpacked
        # adjacency gets a buffer of its own, so no graph's adjacency or rows
        # overlap another's, nor a graph's adjacency its own rows
        arrays = [x for g in built.values() for x in (g.adj, g.rows())]
        for i, x in enumerate(arrays):
            assert not any(np.may_share_memory(x, y) for y in arrays[i + 1:]), n


@pytest.mark.parametrize("subset, absent", [
    ({"nilradical"}, "gamma"),
    ({"omega"}, "gamma"),
    ({"nilradical", "omega"}, "gamma"),
    ({"line-of-gamma"}, "total_graph"),
    ({"total-of-gamma"}, "line_graph"),
    ({"line-of-gamma", "total-of-gamma"}, "line_graph"),
])
def test_family_subsets_build_only_what_they_need(monkeypatch, subset, absent):
    full = {n: family_graphs(n, GraphFamily) for n in range(2, 121)}

    def forbidden(*args):
        raise AssertionError(f"{absent} ran for {sorted(subset)}")

    if absent == "gamma":
        # the residue graphs come from one shared build, which cannot make
        # gamma without its entry here
        monkeypatch.delitem(graphs._KEEP, GraphFamily.GAMMA)
    else:
        monkeypatch.setattr(graphs, absent, forbidden)
    for n in range(2, 121):
        built = family_graphs(n, subset)
        assert set(built) == {GraphFamily(f) for f in subset}
        for family, g in built.items():
            assert _same_graph(g, full[n][family]), (n, family)


def test_family_graphs_memory_stays_under_half_a_total_adjacency():
    # every graph is held as rows, the total graph's (|V| + |E|)^2 / 8 bytes
    # and the line graph's |E|^2 / 8 the largest; about 0.3 (|V| + |E|)^2
    # at n = 600, where a dense total graph alone would take 1
    tracemalloc.start()
    try:
        built = family_graphs(600, GraphFamily)
        for g in built.values():
            g.rows()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * built[GraphFamily.TOTAL_OF_GAMMA].n_vertices ** 2


def test_unknown_family_name_is_rejected():
    with pytest.raises(ValueError):
        family_graphs(12, ["gamma", "no-such-family"])
    with pytest.raises(ValueError):
        build_family(12, "no-such-family")


def test_graph_equality_and_neighbors():
    g = gamma(12)
    assert g == gamma(12)
    assert g != gamma(18)
    v8 = g.id_of(Residue(8))
    assert [g.labels[int(i)].k for i in g.neighbors(v8)] == [3, 6, 9]
    assert g.has_edge(g.id_of(Residue(3)), g.id_of(Residue(4)))
    assert not g.has_edge(g.id_of(Residue(2)), g.id_of(Residue(3)))


def test_neighbors_and_has_edge_read_rows_not_adj():
    padded = 0
    for n in range(2, 31):
        built, ref = family_graphs(n, GraphFamily), family_graphs(n, GraphFamily)
        for family, g in built.items():
            a, nv = ref[family].adj, g.n_vertices
            for u in range(nv):
                assert g.neighbors(u).tolist() == np.flatnonzero(a[u]).tolist(), (n, family)
                assert [g.has_edge(u, v) for v in range(nv)] == a[u].tolist(), (n, family)
            if nv:
                # negative ids keep numpy's meaning
                assert g.neighbors(-1).tolist() == np.flatnonzero(a[-1]).tolist()
                assert g.has_edge(-1, 0) == a[-1, 0] and g.has_edge(0, -nv) == a[0, 0]
            # an id past |V| raises, one in a row's padding bits too
            for bad in (nv, nv + 1, -nv - 1):
                with pytest.raises(IndexError):
                    g.neighbors(bad)
                if nv:
                    with pytest.raises(IndexError):
                        g.has_edge(0, bad)
                    with pytest.raises(IndexError):
                        g.has_edge(bad, 0)
            padded += nv % 8 != 0
            assert g._adj is None, (n, family)
    assert padded > 50


def test_residue_neighbors_and_has_edge_read_the_class_table():
    # a residue graph's row is its class row less its own bit: no rows built
    for n in range(2, 201):
        for family, g in family_graphs(n, (GraphFamily.GAMMA, GraphFamily.NILRADICAL,
                                           GraphFamily.OMEGA)).items():
            a, nv = ref_residue_adj(n, residues(g)), g.n_vertices
            for u in range(nv):
                nb = g.neighbors(u)
                assert nb.tolist() == np.flatnonzero(a[u]).tolist(), (n, family, u)
                # its own bit, its neighbours' and the ids on either side of it
                for v in {u, (u + 1) % nv, u - 1, *nb[:3].tolist()}:
                    assert g.has_edge(u, v) == a[u, v], (n, family, u, v)
            assert g._rows is None, (n, family)


def test_zero_divisors_are_the_gamma_vertices():
    for n in (12, 16, 30, 72, 210):
        assert residues(gamma(n)) == zero_divisors(n).tolist()
