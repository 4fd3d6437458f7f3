"""The routing table in `znvce.constructions`: the public builders and
`dispatch` read the same rows, and every p = 2 refusal that claims no
very-cost-effective bipartition exists is confirmed by an oracle."""
import pytest

from znvce import (
    ConstructionId,
    DomainError,
    Exists,
    GraphFamily,
    IsolatedVertex,
    NotVce,
    SearchStatus,
    ShapeError,
    brute_force,
    class_search,
    classify,
    dispatch,
    factorize,
    gamma,
    is_prime,
    nilradical_graph,
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

C = ConstructionId


def _prime_pair(n):
    """(p, q) with p < q when n = pq, else None."""
    f = factorize(n)
    return f.primes if f.is_squarefree and len(f.primes) == 2 else None


def _by_pair(builder):
    # n = pq builds from (p, q); any other n has no call, so no partition
    return lambda n: builder(*_prime_pair(n)) if _prime_pair(n) else None


# each public builder: the family it builds, the ids it covers, and a call by n
# (None when the builder takes a prime pair and n is not one)
BUILDERS = {
    "vce_squarefree": (GraphFamily.GAMMA, {C.THM2_1_SQUAREFREE, C.COR2_2_PQ},
                       vce_squarefree),
    "vce_p2q": (GraphFamily.GAMMA, {C.THM2_3I_P2Q}, vce_p2q),
    "vce_p2q2": (GraphFamily.GAMMA, {C.THM2_3II_P2Q2}, vce_p2q2),
    "vce_line_pq": (GraphFamily.LINE_OF_GAMMA, {C.THM2_4_LINE_PQ}, _by_pair(vce_line_pq)),
    "vce_nilradical": (GraphFamily.NILRADICAL,
                       {C.THM3_3I_P2, C.THM3_3II_P2Q2_NIL, C.THM3_3III_P3,
                        C.THM3_3IV_P2Q_NIL}, vce_nilradical),
    "vce_omega_squarefree": (GraphFamily.OMEGA, {C.THM3_5_OMEGA_SQUAREFREE},
                             vce_omega_squarefree),
    "vce_total_pq": (GraphFamily.TOTAL_OF_GAMMA, {C.THM4_2_TOTAL_PQ}, _by_pair(vce_total_pq)),
}


def test_one_row_per_construction_and_every_row_has_a_builder():
    ids = [row.cid for row in constructions._TABLE]
    assert sorted(ids, key=lambda c: c.value) == sorted(C, key=lambda c: c.value)
    assert set().union(*(cover for _, cover, _ in BUILDERS.values())) == set(C)
    for row in constructions._TABLE:
        families = {fam for fam, cover, _ in BUILDERS.values() if row.cid in cover}
        assert families == {row.family}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_succeeds_exactly_where_dispatch_constructs(name):
    """For n = 2..400: the builder returns a partition exactly when the table
    routes the (n, family) graph to an id the builder covers; there
    `dispatch` returns an Exists with that id and the same partition."""
    family, cover, build = BUILDERS[name]
    built = 0
    for n in range(2, 401):
        route = constructions._route(classify(factorize(n)), family)
        routed = route[1] if route is not None else None
        try:
            part = build(n)
        except ShapeError:
            part = None
        if routed not in cover:
            assert part is None, (name, n, routed)
            continue
        assert part is not None, (name, n, routed)
        cert = dispatch(n, family)
        assert isinstance(cert, Exists) and cert.source is routed, (name, n)
        assert cert.partition == part, (name, n)
        built += 1
    assert built > 0


@pytest.mark.parametrize("family", [GraphFamily.GAMMA, GraphFamily.NILRADICAL,
                                    GraphFamily.OMEGA])
def test_unrouted_residue_graphs_get_no_construction(family):
    """Where the table routes nothing, `dispatch` gives no construction id
    (searches held to a zero budget, so only the routing is exercised)."""
    for n in range(2, 401):
        if constructions._route(classify(factorize(n)), family) is not None:
            continue
        try:
            cert = dispatch(n, family, vertex_cap=0)
        except DomainError:  # an empty graph
            continue
        assert not (isinstance(cert, Exists) and cert.source is not None), (family, n)


def _refusal(cid):
    return next(row.p2_refusal for row in constructions._TABLE if row.cid is cid)


ODD_PRIMES_TO_31 = [q for q in range(3, 32) if is_prime(q)]

# each id whose row refuses p = 2, and the test below that checks its text
REFUSALS_CHECKED = {C.THM2_3II_P2Q2, C.THM3_3I_P2, C.THM3_3II_P2Q2_NIL, C.THM3_3IV_P2Q_NIL,
                    C.THM4_2_TOTAL_PQ}


def test_every_refusal_is_checked_below():
    refusing = {row.cid for row in constructions._TABLE if row.p2_refusal is not None}
    assert refusing == REFUSALS_CHECKED


@pytest.mark.parametrize("q", ODD_PRIMES_TO_31)
def test_nilradical_4q2_has_no_vce_bipartition(q):
    n = 4 * q * q
    with pytest.raises(ShapeError) as exc:
        vce_nilradical(n)
    assert str(exc.value) == _refusal(C.THM3_3II_P2Q2_NIL)
    g = nilradical_graph(n)
    assert g.n_vertices == 2 * q - 1
    assert class_search(g, 1 << 20).status is SearchStatus.NONE_EXISTS


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_total_graph_of_2q_has_no_vce_bipartition(q):
    with pytest.raises(ShapeError) as exc:
        vce_total_pq(2, q)
    assert str(exc.value) == _refusal(C.THM4_2_TOTAL_PQ)
    assert brute_force(total_graph(gamma(2 * q))).status is SearchStatus.NONE_EXISTS


@pytest.mark.parametrize("n, cid", [(4, C.THM3_3I_P2)]
                         + [(4 * q, C.THM3_3IV_P2Q_NIL) for q in ODD_PRIMES_TO_31])
def test_nilradical_4_and_4q_are_a_single_isolated_vertex(n, cid):
    with pytest.raises(ShapeError) as exc:
        vce_nilradical(n)
    assert str(exc.value) == _refusal(cid)
    cert = dispatch(n, GraphFamily.NILRADICAL)
    assert isinstance(cert, NotVce) and isinstance(cert.witness, IsolatedVertex)
    assert cert.graph.n_vertices == 1


def test_gamma_p2q2_refusal_is_no_nonexistence_claim():
    """gamma(100) lies outside the p^2 q^2 theorem, yet it is very cost
    effective: the refusal says only that p = 2 is not covered."""
    with pytest.raises(ShapeError) as exc:
        vce_p2q2(100)
    assert str(exc.value) == _refusal(C.THM2_3II_P2Q2)
    assert "not covered" in str(exc.value) and "never" not in str(exc.value)
    cert = dispatch(100, GraphFamily.GAMMA)
    assert isinstance(cert, Exists) and cert.source is None
