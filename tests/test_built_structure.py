"""The structure the builders keep, against the rows: a residue graph's
divisor-class table and a line or total graph's Γ edges each give the
counts `degrees_in` returns, which must equal those a copy that keeps only
the rows counts by popcount. `degrees` is `degrees_in` of every vertex. A
line or total graph's twin classes, taken from Γ's degrees, must equal
those the copy sorts from its rows."""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from znvce import (
    Bipartition,
    ConstructionId,
    GraphFamily,
    LabeledGraph,
    Residue,
    check_bipartition,
    dispatch,
    is_vce,
    line_graph,
    total_graph,
)
from znvce.constructions import _route
from znvce.graphs import family_graphs
from znvce.rings import modulus_shape
from znvce.search import DEFAULT_VERTEX_CAP, twin_classes

RESIDUE = (GraphFamily.GAMMA, GraphFamily.NILRADICAL, GraphFamily.OMEGA)
EDGE = (GraphFamily.LINE_OF_GAMMA, GraphFamily.TOTAL_OF_GAMMA)


def definition(n: int, g: LabeledGraph) -> np.ndarray:
    """g's adjacency from its labels alone: two residues u, v are adjacent iff
    n | u*v, a residue and an edge iff the edge ends at it, two edges iff
    they share an end."""
    a, b = g.keys().T
    res = a == b
    share = (a[:, None] == a) | (a[:, None] == b) | (b[:, None] == a) | (b[:, None] == b)
    adj = np.where(res[:, None] & res, np.multiply.outer(a, a) % n == 0, share)
    np.fill_diagonal(adj, False)
    return adj


def partitions(n: int, family: GraphFamily, g: LabeledGraph, rng):
    """Three random side masks and, when a construction covers the graph, its
    partition and four one-vertex flips of it."""
    nv = g.n_vertices
    for share in (0.25, 0.5, 0.75):
        in_b = rng.random(nv) < share
        in_b[0], in_b[-1] = False, True
        yield in_b
    shape = modulus_shape(n)
    route = _route(shape, family)
    if route is None:
        return
    built = route[0](g, shape).in_b
    yield built
    for v in rng.choice(nv, size=min(nv, 4), replace=False).tolist():
        flip = built.copy()
        flip[v] = not flip[v]
        if flip.any() and not flip.all():
            yield flip


def test_class_edge_and_row_counts_agree_on_every_graph():
    rng = np.random.default_rng(27)
    seen = {f: [0, 0, 0] for f in GraphFamily}  # graphs, VCE masks, others
    for n in range(2, 401):
        for family, g in family_graphs(n, GraphFamily).items():
            if g.n_vertices < 2:
                continue
            edge_graph = family not in RESIDUE
            assert (g._base if edge_graph else g._classes) is not None, (n, family)
            masks = list(partitions(n, family, g, rng))
            got = [(g.degrees_in(m), check_bipartition(g, Bipartition(m))) for m in masks]
            deg = g.degrees()
            # degrees() is degrees_in of every vertex by definition: this
            # holds its mask to every vertex, the last one included
            assert deg.tolist() == g.degrees_in(np.ones(g.n_vertices, bool)).tolist(), (n, family)
            # every built graph counts from its structure without building
            # rows, except that gamma's were read for the line and total
            # graphs' edges; the rows built later are those of the definition
            assert g._rows is None or family is GraphFamily.GAMMA, (n, family)
            rows = g.rows()
            assert np.array_equal(rows, np.packbits(definition(n, g), axis=1)), (n, family)
            copy = LabeledGraph._from_keys(g.keys().copy(), rows.copy(), n)
            assert copy._classes is None and copy._base is None
            assert deg.tolist() == copy.degrees().tolist(), (n, family)
            for m, (nb, rep) in zip(masks, got):
                part = Bipartition(m)
                assert nb.tolist() == copy.degrees_in(m).tolist(), (n, family)
                # counted again now that its rows are built, as after a search
                assert nb.tolist() == g.degrees_in(m).tolist(), (n, family)
                want = check_bipartition(copy, part)
                assert rep.inside.tolist() == want.inside.tolist(), (n, family)
                assert rep.outside.tolist() == want.outside.tolist(), (n, family)
                assert rep.witnesses == want.witnesses, (n, family)
                assert is_vce(g, part) == is_vce(copy, part) == (not rep.witnesses)
                seen[family][1 + bool(rep.witnesses)] += 1
            seen[family][0] += 1
    # every family is covered by graphs, partitions that pass and ones that fail
    assert all(x > 50 for s in seen.values() for x in s), seen


def test_a_routed_dispatch_builds_no_rows():
    # a construction is verified from the class table alone; a residue
    # graph's rows, built later, are those of the definition
    routed = 0
    for n in range(2, 201):
        for family in RESIDUE:
            if _route(modulus_shape(n), family) is None:
                continue
            g = dispatch(n, family).graph
            assert g._rows is None, (n, family)
            assert np.array_equal(g.rows(), np.packbits(definition(n, g), axis=1)), (n, family)
            routed += 1
    assert routed > 100
    # a line or total graph past the cap is verified from Γ's edge ends
    # alone, the pq and the 4q rows alike
    sources = Counter()
    for n in range(2, 201):
        for family, g in family_graphs(n, EDGE).items():
            if g.n_vertices <= DEFAULT_VERTEX_CAP or _route(modulus_shape(n), family) is None:
                continue
            sources[dispatch(n, family, graph=g).source] += 1
            assert g._rows is None, (n, family)
    assert sources[ConstructionId.LINE_4Q] == 11 and sources[ConstructionId.TOTAL_4Q] == 13
    assert None not in sources and sum(sources.values()) == 97
    # 4641 = 3 * 7 * 13 * 17: 2336 vertices, whose rows would take 666 KiB
    g = dispatch(4641, GraphFamily.GAMMA).graph
    assert g.n_vertices == 2336 and g._rows is None
    # an unrouted line or total graph past the cap goes to the twin-class
    # search, whose classes come from Γ's degrees and whose space is over
    # the budget: its rows are never built either
    unrouted = 0
    for n in range(2, 201):
        for family, g in family_graphs(n, EDGE).items():
            if g.n_vertices <= DEFAULT_VERTEX_CAP or _route(modulus_shape(n), family):
                continue
            assert dispatch(n, family, graph=g) is None, (n, family)
            assert g._rows is None, (n, family)
            unrouted += 1
    assert unrouted > 150


def test_divisor_classes_lie_inside_twin_classes():
    # vertices of one divisor class share their row in the class table, so
    # they are twins: open ones in an independent class, closed ones in a
    # self-adjacent class. Twin classes may merge divisor classes, never cut one
    coarser = []
    for n in range(2, 401):
        for family, g in family_graphs(n, RESIDUE).items():
            if g.n_vertices == 0:
                continue
            c, _, loop = g._classes
            twin, clique = twin_classes(g)
            # each divisor class meets one twin class
            pairs = np.unique(np.stack([c, twin]), axis=1)
            assert pairs.shape[1] == np.unique(c).size, (n, family)
            # a self-adjacent class of two or more is a clique twin class
            many = np.bincount(c)[c] > 1
            assert (clique[twin][many] == loop[c][many]).all(), (n, family)
            if pairs.shape[1] > np.unique(twin).size:
                coarser.append((n, family.value))
    assert len(coarser) == 82
    assert not [p for p in coarser if p[1] == "gamma"]
    assert coarser[:3] == [(24, "omega"), (36, "nilradical"), (36, "omega")]


def row_sorted_twins(g: LabeledGraph) -> list[list]:
    """g's twin classes as a copy that keeps only g's rows sorts them."""
    copy = LabeledGraph._from_keys(g.keys().copy(), g.rows().copy(), g.modulus)
    assert copy._classes is None and copy._base is None
    return [a.tolist() for a in copy.twins()]


def twins_and_source(g: LabeledGraph) -> tuple[list[list], bool]:
    """g's twin classes, and whether they came from Γ's degrees: the row sort
    builds the rows, the closed form does not."""
    assert g._rows is None
    got = [a.tolist() for a in g.twins()]
    return got, g._rows is None


def test_edge_graph_twins_equal_the_row_sort():
    closed = 0
    for n in range(2, 401):
        for family, g in family_graphs(n, EDGE).items():
            got, from_degrees = twins_and_source(g)
            assert got == row_sorted_twins(g), (n, family)
            closed += from_degrees
    # Γ(Z_n) is connected and, past n = 9, has an end of degree 4 or more on
    # every edge but for a handful of moduli
    assert closed > 760


def residue_graph(nv: int, edges) -> LabeledGraph:
    adj = np.zeros((nv, nv), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return LabeledGraph([Residue(k + 1) for k in range(nv)], adj)


# components on vertices 0.. whose edges do not all have an end of degree 4
# or more. Each line graph of theirs has twins that are not pendant edges at
# one centre: L(K3) = K3 is one clique of non-pendant edges, L(K4) has three
# open pairs (opposite edges), L(C4) = C4 two. In the pendant triangle hung
# on a hub of degree 5, the hub's two triangle edges are closed twins
LOW = {
    "K2": (2, [(0, 1)]),
    "P3": (3, [(0, 1), (1, 2)]),
    "K3": (3, [(0, 1), (0, 2), (1, 2)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "K4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "pendant triangle": (6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (4, 5)]),
}
# isolated vertices, open twins in the total graph; the line graph has no
# trace of them, so only the total graph's guard refuses them
ISOLATED = {
    "isolated vertex": (1, []),
    "two isolated vertices": (2, []),
}


def star(leaves: int) -> tuple[int, list]:
    return 1 + leaves, [(0, i) for i in range(1, 1 + leaves)]


def union(*parts) -> LabeledGraph:
    """The disjoint union of (vertex count, edges) parts, in order."""
    nv, edges = 0, []
    for size, es in parts:
        edges += [(i + nv, j + nv) for i, j in es]
        nv += size
    return residue_graph(nv, edges)


@pytest.mark.parametrize("name", list(LOW) + list(ISOLATED))
def test_the_guard_sends_low_degree_components_to_the_row_sort(name):
    # beside a star of 5 leaves, which alone passes the guard, every such
    # component still sends the total graph, and but for isolated vertices
    # the line graph, to the row sort
    part = LOW.get(name) or ISOLATED[name]
    for base in (union(part), union(star(5), part)):
        for g, refused in ((line_graph(base), name in LOW), (total_graph(base), True)):
            got, from_degrees = twins_and_source(g)
            assert from_degrees is not refused, name
            assert got == row_sorted_twins(g), name


def test_twins_past_the_guard():
    # two stars and a vertex joined to all of K5: L has one clique class per
    # star, of its pendant edges, and every K6 edge alone; T has no twins
    base = union(star(5), star(4), (6, [(i, j) for i in range(6) for j in range(i + 1, 6)]))
    lg, tg = line_graph(base), total_graph(base)
    (cls, clique, reps), from_degrees = twins_and_source(lg)
    assert from_degrees and [cls, clique, reps] == row_sorted_twins(lg)
    assert cls[:9] == [0] * 5 + [1] * 4 and clique[:2] == [True, True]
    assert len(reps) == 2 + 15 and not any(clique[2:])
    (cls, clique, reps), from_degrees = twins_and_source(tg)
    assert from_degrees and [cls, clique, reps] == row_sorted_twins(tg)
    assert cls == reps == list(range(tg.n_vertices)) and not any(clique)


@st.composite
def component_unions(draw):
    """Disjoint unions of up to four components, shuffled: the LOW and
    ISOLATED shapes, stars of 1 to 6 leaves, and graphs on 5 to 8 vertices
    in which vertex 0 sees every other and the rest are joined at random."""
    shapes = {**LOW, **ISOLATED}
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["low", "star", "hub"]))
        if kind == "low":
            parts.append(shapes[draw(st.sampled_from(sorted(shapes)))])
        elif kind == "star":
            parts.append(star(draw(st.integers(1, 6))))
        else:
            m = draw(st.integers(5, 8))
            pairs = [(i, j) for i in range(1, m) for j in range(i + 1, m)]
            joined = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
            parts.append((m, [(0, i) for i in range(1, m)]
                          + [p for p, j in zip(pairs, joined) if j]))
    g = union(*parts)
    perm = np.array(draw(st.permutations(range(g.n_vertices))))
    return residue_graph(g.n_vertices, [(perm[i], perm[j]) for i, j in g.edges()])


@settings(max_examples=200, deadline=None)
@given(component_unions())
def test_edge_graph_twins_equal_the_row_sort_on_residue_graphs(base):
    low = any(max(base.degree(i), base.degree(j)) < 4 for i, j in base.edges())
    isolated = bool((base.degrees() == 0).any())
    for g, refused in ((line_graph(base), low), (total_graph(base), low or isolated)):
        got, from_degrees = twins_and_source(g)
        assert from_degrees is not refused
        assert got == row_sorted_twins(g)
