import numpy as np
import pytest

from helpers import side_residues
from znvce import (
    Bipartition,
    ConstructionError,
    ConstructionId,
    DomainError,
    ExhaustedSearch,
    Exists,
    GraphFamily,
    IsolatedVertex,
    NotVce,
    Residue,
    SearchStatus,
    ShapeError,
    TotalOriginal,
    brute_force,
    dispatch,
    gamma,
    is_vce,
    line_graph,
    nilradical_graph,
    non_nilradical_graph,
    tally,
    total_graph,
    vce_line_pq,
    vce_nilradical,
    vce_omega_squarefree,
    vce_p2q,
    vce_p2q2,
    vce_squarefree,
    vce_total_pq,
)
from znvce import constructions


class TestSquarefree:
    def test_n_30(self):
        g = gamma(30)
        part = vce_squarefree(30)
        r, b = side_residues(g, part)
        assert r == [5, 10, 15, 20, 25]
        assert len(b) == 16
        assert is_vce(g, part)

    def test_n_15(self):
        r, b = side_residues(gamma(15), vce_squarefree(15))
        assert r == [5, 10]
        assert b == [3, 6, 9, 12]

    def test_n_105(self):
        g = gamma(105)
        part = vce_squarefree(105)
        r, _ = side_residues(g, part)
        assert all(k % 7 == 0 for k in r)
        assert is_vce(g, part)

    def test_rejects_wrong_shape(self):
        for n in (7, 12, 4, 49):
            with pytest.raises(ShapeError):
                vce_squarefree(n)

    def test_small_sweep(self):
        for n in (6, 10, 14, 21, 33, 35, 42, 66, 70, 110, 210, 330, 770):
            assert is_vce(gamma(n), vce_squarefree(n))


class TestP2Q:
    def test_n_12(self):
        r, b = side_residues(gamma(12), vce_p2q(12))
        assert r == [3, 6, 9]
        assert b == [2, 4, 8, 10]

    def test_n_18(self):
        r, b = side_residues(gamma(18), vce_p2q(18))
        assert r == [2, 4, 6, 8, 10, 12, 14, 16]
        assert b == [3, 9, 15]

    def test_n_75(self):
        g = gamma(75)
        r, b = side_residues(g, vce_p2q(75))
        assert all(k % 3 == 0 for k in r)
        assert all(k % 5 == 0 and k % 3 != 0 for k in b)
        assert is_vce(g, vce_p2q(75))

    def test_rejects_wrong_shape(self):
        for n in (30, 8, 36, 25):
            with pytest.raises(ShapeError):
                vce_p2q(n)

    def test_small_sweep(self):
        for n in (12, 18, 20, 28, 45, 50, 63, 98, 99, 147, 242, 245):
            assert is_vce(gamma(n), vce_p2q(n))


class TestP2Q2:
    def test_n_225_block_sizes(self):
        g = gamma(225)
        part = vce_p2q2(225)
        r, b = side_residues(g, part)
        pure = [k for k in r + b if k % 15 == 0 and k % 9 != 0 and k % 25 != 0]
        assert len(pure) == 8  # (p-1)(q-1)
        r3 = sorted(set(pure) & set(r))
        b3 = sorted(set(pure) & set(b))
        assert r3 == [15, 30, 60]  # the (q(p-2)+1)/2 = 3 smallest
        assert len(b3) == 5  # (p(q-2)+1)/2
        assert is_vce(g, part)

    def test_n_225_tally_law(self):
        # vertices in the R-side pure block: inside (pq-3)/2, outside at least (pq-1)/2
        g = gamma(225)
        part = vce_p2q2(225)
        t = tally(g, part, g.id_of(Residue(15)))
        assert t.inside == 6
        assert t.outside >= 7

    def test_n_441(self):
        g = gamma(441)
        part = vce_p2q2(441)
        r, b = side_residues(g, part)
        pure = [k for k in r + b if k % 21 == 0 and k % 9 != 0 and k % 49 != 0]
        assert len(set(pure) & set(r)) == 4
        assert len(set(pure) & set(b)) == 8
        assert is_vce(g, part)

    def test_rejects_wrong_shape_and_even_p(self):
        for n in (100, 45, 54, 225 * 2):
            with pytest.raises(ShapeError):
                vce_p2q2(n)


class TestLinePQ:
    def test_3_5(self):
        g = line_graph(gamma(15))
        part = vce_line_pq(3, 5)
        assert g.n_vertices == 8
        assert part.r_ids.size == 4 and part.b_ids.size == 4
        r_labels = {g.labels[int(i)].render() for i in part.r_ids}
        assert r_labels == {"(3,5)", "(5,9)", "(6,10)", "(10,12)"}
        for i in part.r_ids:
            t = tally(g, part, int(i))
            assert (t.inside, t.outside) == (1, 3)  # (p+q)/2 - 3 and (p+q)/2 - 1

    def test_3_7(self):
        g = line_graph(gamma(21))
        part = vce_line_pq(3, 7)
        assert g.n_vertices == 12
        assert part.r_ids.size == 6
        assert is_vce(g, part)

    def test_2_5_fallback(self):
        # star zero-divisor graph; its line graph is the complete graph K_4
        g = line_graph(gamma(10))
        part = vce_line_pq(2, 5)
        assert g.n_vertices == 4
        assert g.degrees().tolist() == [3, 3, 3, 3]
        assert part.b_ids.tolist() == [2, 3]
        assert is_vce(g, part)

    def test_balanced_halves_for_odd_p(self):
        for p, q in ((3, 5), (3, 11), (5, 7), (5, 11)):
            part = vce_line_pq(p, q)
            assert part.r_ids.size == (p - 1) * (q - 1) // 2
            assert part.b_ids.size == (p - 1) * (q - 1) // 2

    def test_rejects_bad_pairs(self):
        for p, q in ((4, 6), (5, 3), (3, 3), (2, 9)):
            with pytest.raises(ShapeError):
                vce_line_pq(p, q)


class TestNilradical:
    def test_25_balanced_k4(self):
        g = nilradical_graph(25)
        part = vce_nilradical(25)
        r, b = side_residues(g, part)
        assert (r, b) == ([5, 10], [15, 20])
        assert is_vce(g, part)

    def test_27_layered(self):
        g = nilradical_graph(27)
        part = vce_nilradical(27)
        r, b = side_residues(g, part)
        assert r == [3, 6, 12, 15, 21, 24]  # p(p-1) elements
        assert b == [9, 18]  # p-1 elements
        t = tally(g, part, g.id_of(Residue(9)))
        assert (t.inside, t.outside) == (1, 6)  # p-2 and p(p-1)

    def test_8_layered(self):
        g = nilradical_graph(8)
        part = vce_nilradical(8)
        r, b = side_residues(g, part)
        assert (r, b) == ([2, 6], [4])
        assert is_vce(g, part)

    def test_125_cardinality_law(self):
        part = vce_nilradical(125)
        assert part.r_ids.size == 20  # p(p-1)
        assert part.b_ids.size == 4  # p-1

    def test_p2q_and_p2q2(self):
        g75 = nilradical_graph(75)
        assert is_vce(g75, vce_nilradical(75))
        g1225 = nilradical_graph(1225)
        part = vce_nilradical(1225)
        assert g1225.n_vertices == 34  # K_{pq-1}
        assert is_vce(g1225, part)

    def test_36_refused_and_counterexample_confirmed(self):
        with pytest.raises(ShapeError, match="no very-cost-effective split"):
            vce_nilradical(36)
        out = brute_force(nilradical_graph(36))
        assert out.status is SearchStatus.NONE_EXISTS
        assert out.partitions_examined == 15

    def test_even_squared_prime_refused(self):
        with pytest.raises(ShapeError):
            vce_nilradical(4)
        with pytest.raises(ShapeError):
            vce_nilradical(12)

    def test_rejects_wrong_shape(self):
        for n in (30, 16, 7, 2_310):
            with pytest.raises(ShapeError):
                vce_nilradical(n)


class TestOmegaSquarefree:
    def test_delegation_identity(self):
        for n in (15, 30, 105):
            og = non_nilradical_graph(n)
            assert og == gamma(n)
            op = vce_omega_squarefree(n)
            gp = vce_squarefree(n)
            assert op == gp
            assert is_vce(og, op)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeError):
            vce_omega_squarefree(12)


class TestTotalPQ:
    def test_3_5(self):
        g = total_graph(gamma(15))
        part = vce_total_pq(3, 5)
        assert g.n_vertices == 14  # pq - 1
        t = tally(g, part, g.id_of(TotalOriginal(3)))
        assert (t.inside, t.outside) == (1, 3)
        assert is_vce(g, part)

    def test_original_vertices_split_by_prime(self):
        g = total_graph(gamma(15))
        part = vce_total_pq(3, 5)
        r_orig = {g.labels[int(i)].k for i in part.r_ids
                  if isinstance(g.labels[int(i)], TotalOriginal)}
        b_orig = {g.labels[int(i)].k for i in part.b_ids
                  if isinstance(g.labels[int(i)], TotalOriginal)}
        assert r_orig == {3, 6, 9, 12}
        assert b_orig == {5, 10}

    def test_5_7(self):
        g = total_graph(gamma(35))
        part = vce_total_pq(5, 7)
        assert g.n_vertices == 34
        assert is_vce(g, part)

    def test_rejects_even_p_and_non_primes(self):
        for p, q in ((2, 5), (4, 9), (7, 5), (3, 3)):
            with pytest.raises(ShapeError):
                vce_total_pq(p, q)


class TestDispatch:
    def test_gamma_routes(self):
        cases = [
            (30, ConstructionId.THM2_1_SQUAREFREE),
            (15, ConstructionId.COR2_2_PQ),
            (12, ConstructionId.THM2_3I_P2Q),
            (225, ConstructionId.THM2_3II_P2Q2),
        ]
        for n, cid in cases:
            cert = dispatch(n, GraphFamily.GAMMA)
            assert isinstance(cert, Exists)
            assert cert.source is cid
            assert cert.source_tag == cid.value

    def test_nilradical_routes(self):
        cases = [
            (25, ConstructionId.THM3_3I_P2),
            (1225, ConstructionId.THM3_3II_P2Q2_NIL),
            (27, ConstructionId.THM3_3III_P3),
            (75, ConstructionId.THM3_3IV_P2Q_NIL),
        ]
        for n, cid in cases:
            cert = dispatch(n, GraphFamily.NILRADICAL)
            assert isinstance(cert, Exists) and cert.source is cid

    def test_line_and_total_routes(self):
        assert dispatch(15, GraphFamily.LINE_OF_GAMMA).source is ConstructionId.THM2_4_LINE_PQ
        assert dispatch(10, GraphFamily.LINE_OF_GAMMA).source is ConstructionId.THM2_4_LINE_PQ
        assert dispatch(15, GraphFamily.TOTAL_OF_GAMMA).source is ConstructionId.THM4_2_TOTAL_PQ

    def test_omega_isolated_witness(self):
        cert = dispatch(12, GraphFamily.OMEGA)
        assert isinstance(cert, NotVce)
        assert isinstance(cert.witness, IsolatedVertex)
        assert cert.witness.label == Residue(2)

    def test_total_2p_exhausted(self):
        cert = dispatch(10, GraphFamily.TOTAL_OF_GAMMA)
        assert isinstance(cert, NotVce)
        assert cert.graph.n_vertices == 9
        assert cert.witness == ExhaustedSearch(partitions_examined=255)

    def test_search_fallback_found(self):
        cert = dispatch(49, GraphFamily.GAMMA)
        assert isinstance(cert, Exists)
        assert cert.source is None
        assert cert.source_tag == "Search"
        cert24 = dispatch(24, GraphFamily.GAMMA)
        assert isinstance(cert24, Exists) and cert24.source is None

    def test_search_fallback_exhausted(self):
        cert = dispatch(16, GraphFamily.GAMMA)
        assert isinstance(cert, NotVce)
        assert cert.witness == ExhaustedSearch(partitions_examined=63)

    def test_nilradical_36_exhausted(self):
        cert = dispatch(36, GraphFamily.NILRADICAL)
        assert isinstance(cert, NotVce)
        assert cert.witness == ExhaustedSearch(partitions_examined=15)

    def test_single_vertex_blocked_by_isolation(self):
        cert = dispatch(4, GraphFamily.NILRADICAL)
        assert isinstance(cert, NotVce)
        assert isinstance(cert.witness, IsolatedVertex)
        assert cert.witness.label == Residue(2)

    def test_empty_graph_raises(self):
        with pytest.raises(DomainError):
            dispatch(7, GraphFamily.GAMMA)
        with pytest.raises(DomainError):
            dispatch(15, GraphFamily.NILRADICAL)

    def test_unknown_when_beyond_cap(self):
        # total-of-gamma(36): 69 vertices, no construction, no isolated vertex,
        # and a twin-class space far over the budget
        assert dispatch(36, GraphFamily.TOTAL_OF_GAMMA) is None
        # the same shape resolves once the graph fits under the cap
        assert dispatch(16, GraphFamily.GAMMA, vertex_cap=4) is None
        assert isinstance(dispatch(16, GraphFamily.GAMMA), NotVce)

    @pytest.mark.parametrize("n", [48, 54, 56, 60, 72, 80, 84, 88, 90, 96, 100, 104, 108,
                                   112, 120])
    def test_class_search_past_the_cap(self, n):
        cert = dispatch(n, GraphFamily.GAMMA)
        assert isinstance(cert, Exists) and cert.source is None
        assert cert.graph.n_vertices > 26 and is_vce(cert.graph, cert.partition)

    def test_class_search_proof_of_none_stays_unknown(self):
        # class_search proves both NotVce, but no certificate carries that yet
        assert dispatch(64, GraphFamily.GAMMA) is None
        assert dispatch(64, GraphFamily.NILRADICAL) is None

    def test_cap_sets_the_class_budget(self):
        # gamma(100) spans 800 class vectors: over 2^9, within 2^10
        assert dispatch(100, GraphFamily.GAMMA, vertex_cap=10) is None
        assert isinstance(dispatch(100, GraphFamily.GAMMA, vertex_cap=11), Exists)
        assert dispatch(100, GraphFamily.GAMMA, vertex_cap=0) is None

    def test_accepts_family_value_strings(self):
        cert = dispatch(30, "gamma")
        assert isinstance(cert, Exists)


class TestCertificateValidation:
    def test_exists_rejects_failing_partition(self):
        g = gamma(15)
        bad = Bipartition.from_sides(6, [0, 1, 2, 3, 5], [4])
        with pytest.raises(ConstructionError):
            Exists(g, bad)

    def test_notvce_rejects_connected_witness(self):
        g = gamma(15)
        with pytest.raises(ConstructionError):
            NotVce(g, IsolatedVertex(0, g.labels[0]))

    def test_notvce_rejects_mismatched_label(self):
        g = non_nilradical_graph(12)
        with pytest.raises(ConstructionError):
            NotVce(g, IsolatedVertex(0, Residue(10)))

    def test_notvce_accepts_true_witness(self):
        g = non_nilradical_graph(12)
        cert = NotVce(g, IsolatedVertex(0, Residue(2)))
        assert cert.witness.vertex == 0


def _lone_first_vertex(g, *args):
    # vertex 0 alone on side B: every vertex of R with a neighbour in R fails
    return Bipartition(np.arange(g.n_vertices) == 0)


@pytest.mark.parametrize("split, n, family, public", [
    ("_squarefree_split", 30, GraphFamily.GAMMA, lambda: vce_squarefree(30)),
    ("_p2q_split", 75, GraphFamily.GAMMA, lambda: vce_p2q(75)),
    ("_balanced_split", 49, GraphFamily.NILRADICAL, lambda: vce_nilradical(49)),
    ("_p3_split", 125, GraphFamily.NILRADICAL, lambda: vce_nilradical(125)),
    ("_total_split", 15, GraphFamily.TOTAL_OF_GAMMA, lambda: vce_total_pq(3, 5)),
])
def test_failing_split_never_leaves_unverified(monkeypatch, split, n, family, public):
    """A construction whose split is wrong must raise, from dispatch and
    from the public builder alike, rather than return the partition."""
    monkeypatch.setattr(constructions, split, _lone_first_vertex)
    with pytest.raises(ConstructionError):
        dispatch(n, family)
    with pytest.raises(ConstructionError):
        public()


def test_dispatch_verifies_a_construction_once(monkeypatch):
    calls = []

    def counting_is_vce(g, part):
        calls.append(g.n_vertices)
        return is_vce(g, part)

    monkeypatch.setattr(constructions, "is_vce", counting_is_vce)
    cert = dispatch(30, GraphFamily.GAMMA)
    assert isinstance(cert, Exists) and calls == [21]
    vce_squarefree(30)
    assert calls == [21, 21]


def test_dispatch_takes_a_prebuilt_graph(monkeypatch):
    g = gamma(30)
    monkeypatch.setattr(constructions, "build_family", None)
    cert = dispatch(30, GraphFamily.GAMMA, graph=g)
    assert cert.graph is g and cert.source is ConstructionId.THM2_1_SQUAREFREE


def test_constructed_small_graphs_agree_with_brute_force():
    """Construction and exhaustive search must agree wherever both apply."""
    small = [(12, vce_p2q), (18, vce_p2q), (15, vce_squarefree), (25, vce_nilradical),
             (27, vce_nilradical), (8, vce_nilradical)]
    for n, builder in small:
        part = builder(n)
        g = {vce_p2q: gamma, vce_squarefree: gamma, vce_nilradical: nilradical_graph}[builder](n)
        if g.n_vertices <= 20:
            out = brute_force(g)
            assert out.status is SearchStatus.FOUND
    assert brute_force(line_graph(gamma(15))).status is SearchStatus.FOUND
    assert brute_force(total_graph(gamma(15))).status is SearchStatus.FOUND
