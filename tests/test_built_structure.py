"""The structure the builders keep, against the rows: a residue graph's
divisor-class table and a line or total graph's Γ edges each give the
counts `degrees_in` returns, which must equal those a copy that keeps only
the rows counts by popcount. `degrees` is `degrees_in` of every vertex."""
import numpy as np

from znvce import Bipartition, GraphFamily, LabeledGraph, check_bipartition, dispatch, is_vce
from znvce.constructions import _route
from znvce.graphs import family_graphs
from znvce.rings import modulus_shape
from znvce.search import twin_classes

RESIDUE = (GraphFamily.GAMMA, GraphFamily.NILRADICAL, GraphFamily.OMEGA)


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
    # 4641 = 3 * 7 * 13 * 17: 2336 vertices, whose rows would take 666 KiB
    g = dispatch(4641, GraphFamily.GAMMA).graph
    assert g.n_vertices == 2336 and g._rows is None


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
