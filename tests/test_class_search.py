"""The twin-class quotient: twin_classes and the exact class_search."""
import re
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import complete_graph, random_graph, ref_has_vce
from znvce import (
    DomainError,
    GraphFamily,
    LabeledGraph,
    Residue,
    SearchStatus,
    brute_force,
    build_family,
    class_search,
    gamma,
    is_vce,
    nilradical_graph,
    twin_classes,
)
from znvce import search


def graph(nv: int, edges) -> LabeledGraph:
    adj = np.zeros((nv, nv), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return LabeledGraph([Residue(i + 1) for i in range(nv)], adj)


def ref_twin_classes(adj: np.ndarray) -> tuple[list[int], list[bool]]:
    """Classes straight from the definition, pair by pair: u and v are twins
    when their open or their closed neighbourhoods are equal. Classes are
    numbered by smallest member."""
    nv = adj.shape[0]
    closed = adj | np.eye(nv, dtype=bool)
    cls = [-1] * nv
    kinds = []
    for u in range(nv):
        if cls[u] >= 0:
            continue
        cls[u] = len(kinds)
        kind = False
        for v in range(u + 1, nv):
            if (adj[u] == adj[v]).all() or (closed[u] == closed[v]).all():
                cls[v] = cls[u]
                kind = bool(adj[u, v])
        kinds.append(kind)
    return cls, kinds


# 0, 1, 2 see only {3, 4}: open twins. 3 and 4 see each other, 0..2 and 5:
# closed twins. 5 and 6 have no twin.
PLANTED = graph(7, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5),
                    (5, 6)])


class TestTwinClasses:
    def test_planted_open_and_closed_twins(self):
        cls, clique = twin_classes(PLANTED)
        assert cls.tolist() == [0, 0, 0, 1, 1, 2, 3]
        assert clique.tolist() == [False, True, False, False]

    def test_complete_and_empty_graphs_are_one_class(self):
        for g, kind in ((complete_graph(5), True), (graph(4, []), False)):
            cls, clique = twin_classes(g)
            assert cls.tolist() == [0] * g.n_vertices and clique.tolist() == [kind]

    def test_graphs_with_fewer_than_two_vertices(self):
        cls, clique = twin_classes(gamma(2))
        assert cls.tolist() == [] and clique.tolist() == []
        cls, clique = twin_classes(gamma(4))
        assert cls.tolist() == [0] and clique.tolist() == [False]

    def test_equal_degrees_never_merge_classes(self):
        # every vertex of C4 has degree 2, and of P4's, two share each degree,
        # yet only equal rows make twins
        cycle = graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        cls, clique = twin_classes(cycle)
        assert cls.tolist() == [0, 1, 0, 1] and clique.tolist() == [False, False]
        path = graph(4, [(0, 1), (1, 2), (2, 3)])
        cls, clique = twin_classes(path)
        assert cls.tolist() == [0, 1, 2, 3] and not clique.any()
        cls, clique = twin_classes(PLANTED)
        assert cls.tolist() == [0, 0, 0, 1, 1, 2, 3]
        assert clique.tolist() == [False, True, False, False]

    @pytest.mark.parametrize("n", [12, 30, 48, 64, 100, 120])
    def test_matches_the_definition_on_residue_graphs(self, n):
        for fam in GraphFamily:
            g = build_family(n, fam)
            cls, clique = twin_classes(g)
            ref_cls, ref_kinds = ref_twin_classes(g.adj)
            assert cls.tolist() == ref_cls and clique.tolist() == ref_kinds


def ref_first_vector(g: LabeledGraph) -> tuple[int, np.ndarray | None]:
    """class_search's answer by plain enumeration: the 1-based position of
    the first B-count vector (class 0 the fastest digit) whose partition,
    the smallest ids of each class on side B, passes the definition, with
    that partition's side-B mask; or the size of the space and None."""
    cls, kinds = ref_twin_classes(g.adj)
    cls = np.array(cls)
    size = np.bincount(cls)
    options = [range(m + 1) if clique else (0, m) for m, clique in zip(size, kinds)]
    rank = np.array([int(np.count_nonzero(cls[:v] == cls[v])) for v in range(g.n_vertices)])
    deg = g.adj.sum(axis=1)
    pos = 0
    for pos, digits in enumerate(product(*options[::-1]), 1):
        in_b = rank < np.array(digits[::-1])[cls]
        nb_b = g.adj[:, in_b].sum(axis=1)
        inside = np.where(in_b, nb_b, deg - nb_b)
        if in_b.any() and not in_b.all() and (2 * inside < deg).all():
            return pos, in_b
    return pos, None


def ref_class_hits(join: np.ndarray, size, clique) -> np.ndarray:
    """0-based positions, class 0 the fastest digit, of every B-count vector
    whose partition is very cost effective, counted at class level for all
    vectors at once: under a vector, a class's R members and its B members
    (where it has any) each need fewer neighbours on their own side than on
    the other. join is the class adjacency without its diagonal; no graph is
    built, so classes may hold thousands of vertices."""
    size, clique = np.asarray(size), np.asarray(clique, dtype=bool)
    options = [np.arange(m + 1) if q else np.array([0, m]) for m, q in zip(size, clique)]
    grids = np.meshgrid(*options[::-1], indexing="ij")
    b = np.stack([grid.ravel() for grid in grids[::-1]], axis=1)
    r = size - b
    b_out, r_out = b @ join.T.astype(np.int64), r @ join.T.astype(np.int64)
    own = clique.astype(np.int64)
    r_ok = (r == 0) | (r_out + own * (r - 1) < b_out + own * b)
    b_ok = (b == 0) | (b_out + own * (b - 1) < r_out + own * r)
    return np.flatnonzero((r_ok & b_ok).all(axis=1))


def kernel_first(join: np.ndarray, size, clique) -> int | None:
    """class_search's kernel on a class structure given outright."""
    size, clique = np.asarray(size), np.asarray(clique, dtype=bool)
    radix = np.where(clique, size + 1, 2)
    return search._first_vce(join | np.diag(clique), size, clique, radix)


def small_residue_graphs():
    for n in range(2, 121):
        for fam in (GraphFamily.GAMMA, GraphFamily.NILRADICAL, GraphFamily.OMEGA):
            g = build_family(n, fam)
            if 2 <= g.n_vertices <= 26:
                yield n, fam, g


class TestClassSearch:
    def test_agrees_with_brute_force_within_the_cap(self):
        seen = 0
        for n, fam, g in small_residue_graphs():
            out, ref = class_search(g, 1 << 25), brute_force(g)
            assert out.status is ref.status, (n, fam)
            if out.status is SearchStatus.FOUND:
                assert is_vce(g, out.partition), (n, fam)
            seen += 1
        assert seen == 113

    def test_b_side_takes_the_smallest_ids_of_each_class(self):
        g = gamma(48)
        out = class_search(g, 1 << 25)
        assert out.status is SearchStatus.FOUND and is_vce(g, out.partition)
        cls, _ = twin_classes(g)
        for c in range(cls.max() + 1):
            sides = out.partition.in_b[cls == c]
            assert (sides[:-1] >= sides[1:]).all()

    @pytest.mark.parametrize("n, family", [(48, "gamma"), (120, "gamma"), (240, "gamma"),
                                           (288, "gamma"), (64, "nilradical"), (70, "omega")])
    def test_first_hit_matches_a_plain_enumeration(self, n, family):
        # gamma(240) and gamma(288) span 393 216 and 552 960 vectors. gamma(240)
        # finds its first partition at 1792, inside its 4096-vector low table;
        # gamma(288), whose low table ends at a radix-5 clique class (2560
        # vectors), finds it at 5488, in the third high vector
        g = build_family(n, family)
        pos, in_b = ref_first_vector(g)
        out = class_search(g, 1 << 25)
        assert out.partitions_examined == pos
        if in_b is None:
            assert out.status is SearchStatus.NONE_EXISTS
        else:
            assert out.status is SearchStatus.FOUND
            assert out.partition.in_b.tolist() == in_b.tolist()

    def test_found_count_is_the_position_of_the_hit(self):
        # K4 is one clique class: vectors b = 0, 1, 2, and b = 2 is the first hit
        out = class_search(complete_graph(4), 10)
        assert out.status is SearchStatus.FOUND and out.partitions_examined == 3
        assert out.partition.b_ids.tolist() == [0, 1]
        out = class_search(complete_graph(5), 10)
        assert out.status is SearchStatus.NONE_EXISTS and out.partitions_examined == 6
        assert out.reason == "class space exhausted"

    def test_isolated_vertex_is_answered_before_the_classes(self, monkeypatch):
        # omega(420) has 48 isolated vertices among 2 097 152 class vectors
        def no_classes(g):
            raise AssertionError("computed the classes of a graph with an isolated vertex")
        monkeypatch.setattr(LabeledGraph, "twins", no_classes)
        out = class_search(build_family(420, GraphFamily.OMEGA), 1 << 25)
        assert out.status is SearchStatus.NONE_EXISTS and out.partitions_examined == 0
        assert out.reason == "isolated vertex 2"

    def test_fewer_than_two_vertices(self):
        out = class_search(gamma(4), 10)
        assert out.status is SearchStatus.NONE_EXISTS and "fewer than two" in out.reason

    def test_over_budget_is_inconclusive_before_enumerating(self):
        # 70 vertices without twins span 2^70 vectors: enumerating any real
        # share of them would never return
        g = random_graph(70, seed=0)
        assert twin_classes(g)[1].size == 70
        out = class_search(g, 1 << 69)
        assert out.status is SearchStatus.INCONCLUSIVE and out.partitions_examined == 0
        assert out.reason == (f"70 twin classes span {1 << 70} B-count vectors, "
                              f"over the budget of {1 << 69}")
        with pytest.raises(DomainError, match="exceeds the limit of 2\\^62"):
            class_search(g, 1 << 70)

    def test_a_space_past_the_int_to_str_limit_still_has_a_reason(self):
        # line-of-gamma(2160): 15 331 vertices in so many twin classes that
        # the space has more decimal digits than Python converts; the reason
        # gives it as a power-of-two bound, and so does the error for a
        # budget as large
        g = build_family(2160, GraphFamily.LINE_OF_GAMMA)
        cls, clique = twin_classes(g)
        space = prod(np.where(clique, np.bincount(cls) + 1, 2).tolist())
        assert space > 10 ** 4300
        bound = f"at least 2^{space.bit_length() - 1}"
        out = class_search(g, 1 << 25)
        assert out.status is SearchStatus.INCONCLUSIVE and out.partitions_examined == 0
        assert out.reason == (f"{clique.size} twin classes span {bound} B-count vectors, "
                              "over the budget of 33554432")
        b = space.bit_length() - 2
        out = class_search(g, 1 << b)
        assert out.reason.endswith(f"span {bound} B-count vectors, over the budget of "
                                   f"at least 2^{b}")
        with pytest.raises(DomainError, match=re.escape(f"; {bound} vectors exceeds the limit")):
            class_search(g, space)

    def test_budget_is_inclusive(self):
        g = gamma(64)  # 120 vectors
        out = class_search(g, 119)
        assert out.status is SearchStatus.INCONCLUSIVE and out.partitions_examined == 0
        assert out.reason == "5 twin classes span 120 B-count vectors, over the budget of 119"
        out = class_search(g, 120)
        assert out.status is SearchStatus.NONE_EXISTS and out.partitions_examined == 120
        g = random_graph(20, seed=1)  # 20 vertices without twins
        assert twin_classes(g)[1].size == 20
        assert class_search(g, 1 << 20).status is not SearchStatus.INCONCLUSIVE
        out = class_search(g, (1 << 20) - 1)
        assert out.status is SearchStatus.INCONCLUSIVE
        assert out.reason == ("20 twin classes span 1048576 B-count vectors, "
                              "over the budget of 1048575")

    def test_nilradical_64_has_none(self):
        out = class_search(nilradical_graph(64), 1 << 25)
        assert out.status is SearchStatus.NONE_EXISTS and out.partitions_examined == 120

    def test_gamma_64_has_none_by_brute_force_too(self):
        # 31 vertices: 2^30 masks, about 15 s
        g = gamma(64)
        assert class_search(g, 1 << 25).status is SearchStatus.NONE_EXISTS
        assert brute_force(g, vertex_cap=31).status is SearchStatus.NONE_EXISTS


@st.composite
def planted_twin_graphs(draw):
    """Random graphs over up to 6 planted classes of 1..3 vertices each,
    each class a clique or independent, classes joined completely or not at
    all, at most 12 vertices in all."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    cliques = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    k = len(sizes)
    joins = draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))
    of = np.repeat(np.arange(k), sizes)
    join = np.array(joins).reshape(k, k)
    join = np.triu(join, 1) | np.triu(join, 1).T | np.diag(cliques)
    adj = join[np.ix_(of, of)]
    np.fill_diagonal(adj, False)
    perm = np.array(draw(st.permutations(range(of.size))))
    return LabeledGraph([Residue(i + 1) for i in range(of.size)], adj[np.ix_(perm, perm)])


@settings(max_examples=150, deadline=None)
@given(planted_twin_graphs())
def test_class_search_matches_full_enumeration_on_planted_twins(g):
    cls, clique = twin_classes(g)
    assert (cls.tolist(), clique.tolist()) == ref_twin_classes(g.adj)
    if g.n_vertices < 2:
        return
    out = class_search(g, 1 << 25)
    assert out.status in (SearchStatus.FOUND, SearchStatus.NONE_EXISTS)
    assert (out.status is SearchStatus.FOUND) == ref_has_vce(g.adj)
    if out.status is SearchStatus.FOUND:
        assert is_vce(g, out.partition)


@settings(max_examples=100, deadline=None)
@given(planted_twin_graphs())
def test_class_reference_matches_the_plain_enumeration(g):
    # ref_class_hits, which the tests below use, counts the same first hit
    # as ref_first_vector, which expands every vector into a partition
    if g.n_vertices < 2:
        return
    cls, kinds = ref_twin_classes(g.adj)
    reps = [cls.index(c) for c in range(len(kinds))]
    size = np.bincount(cls)
    join = g.adj[np.ix_(reps, reps)] & ~np.eye(len(reps), dtype=bool)
    hits = ref_class_hits(join, size, kinds)
    pos, in_b = ref_first_vector(g)
    assert (int(hits[0]) + 1 if hits.size else None) == (pos if in_b is not None else None)


@st.composite
def class_structures(draw):
    """Up to 7 classes of 1..4 vertices, cliques among them, joined at random."""
    k = draw(st.integers(1, 7))
    size = np.array(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
    clique = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    upper = np.triu(np.array(draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k)))
                    .reshape(k, k), 1)
    return upper | upper.T, size, clique


@settings(max_examples=200, deadline=None)
@given(class_structures(), st.sampled_from([(1, 1, 1), (2, 4, 1), (3, 6, 2), (4, 4, 3),
                                            (6, 12, 2), (12, 24, 5), (1 << 12, 1 << 14, 1 << 8)]))
def test_clique_radices_straddling_the_low_table(classes, sizes):
    # table sizes from 1 vector up put the low/high split before, after and
    # at clique classes of radix 2 to 5, with many blocks and chunks
    join, size, clique = classes
    hits = ref_class_hits(join, size, clique)
    with pytest.MonkeyPatch.context() as mp:
        for name, value in zip(("_LO_VECTORS", "_BLOCK", "_HI_CHUNK"), sizes):
            mp.setattr(search, name, value)
        assert kernel_first(join, size, clique) == (int(hits[0]) if hits.size else None)


def test_a_clique_past_a_full_low_table():
    # eleven vertices fill 2048 low vectors; a clique of three (radix 4)
    # would make 8192, so it is the first high class
    k = 12
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(20):
        upper = np.triu(rng.random((k, k)) < 0.5, 1)
        size, clique = np.array([1] * 11 + [3]), np.array([False] * 11 + [True])
        hits = ref_class_hits(upper | upper.T, size, clique)
        first = int(hits[0]) if hits.size else None
        assert kernel_first(upper | upper.T, size, clique) == first
        seen.add(None if first is None else first >= 2048)
    assert seen == {None, False, True}


def test_kernel_counts_in_int32_from_2_to_the_14_vertices():
    # three independent classes of thousands of vertices and three small
    # ones, some of them cliques; no graph is built. Past 2^15 vertices S - E
    # spans more than 2^16 values, which int16 counts could not tell apart
    rng = np.random.default_rng(7)
    found = []
    for big in [(5500, 9000)] * 12 + [(11000, 16000)] * 12:
        size = np.concatenate((rng.integers(*big, 3), rng.integers(1, 4, 3)))
        clique = np.array([False] * 3 + list(rng.random(3) < 0.5))
        upper = np.triu(rng.random((6, 6)) < 0.6, 1)
        join = upper | upper.T
        assert size.sum() >= 1 << 14
        hits = ref_class_hits(join, size, clique)
        first = int(hits[0]) if hits.size else None
        assert kernel_first(join, size, clique) == first
        found.append(first is not None)
    assert True in found and False in found
