import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    complete_graph,
    random_graph,
    random_graph_without_isolated,
    ref_first_vce,
    ref_has_vce,
    ref_local_search,
    ref_vce_masks,
    side_residues,
)
from znvce import (
    DEFAULT_VERTEX_CAP,
    DomainError,
    ExhaustedSearch,
    GraphFamily,
    IsolatedVertex,
    LabeledGraph,
    Residue,
    SearchStatus,
    brute_force,
    build_family,
    class_search,
    exact_search,
    gamma,
    graph_from_json,
    is_vce,
    isolated_obstruction,
    local_search,
    nilradical_graph,
    non_nilradical_graph,
    total_graph,
)
from znvce import search
from znvce.cli import cmd_survey


class TestIsolatedObstruction:
    def test_smallest_isolated_id(self):
        g = non_nilradical_graph(12)
        v = isolated_obstruction(g)
        assert v == 0 and g.labels[v].k == 2

    def test_none_when_connected(self):
        assert isolated_obstruction(complete_graph(4)) is None
        assert isolated_obstruction(gamma(15)) is None


class TestBruteForce:
    def test_k4_found_first_in_order(self):
        out = brute_force(complete_graph(4))
        assert out.status is SearchStatus.FOUND
        assert out.partitions_examined == 3
        assert out.partition.b_ids.tolist() == [1, 2]
        assert is_vce(complete_graph(4), out.partition)

    def test_k5_exhausts(self):
        out = brute_force(complete_graph(5))
        assert out.status is SearchStatus.NONE_EXISTS
        assert out.partition is None
        assert out.partitions_examined == 15
        assert out.reason == "enumeration exhausted"

    def test_gamma_16_exhausts(self):
        out = brute_force(gamma(16))
        assert out.status is SearchStatus.NONE_EXISTS
        assert out.partitions_examined == 63

    def test_total_graph_of_path_exhausts(self):
        out = brute_force(total_graph(gamma(6)))
        assert out.status is SearchStatus.NONE_EXISTS
        assert out.partitions_examined == 15

    def test_single_vertex_has_no_bipartition(self):
        out = brute_force(gamma(4))
        assert out.status is SearchStatus.NONE_EXISTS
        assert out.partitions_examined == 0
        assert "fewer than two" in out.reason

    def test_cap_gives_inconclusive(self):
        out = brute_force(gamma(60), vertex_cap=10)
        assert out.status is SearchStatus.INCONCLUSIVE
        assert out.partition is None
        assert "exceeds the exhaustive cap 10" in out.reason

    def test_isolated_shortcut(self):
        g = non_nilradical_graph(12)
        out = brute_force(g)
        assert out.status is SearchStatus.NONE_EXISTS
        assert out.partitions_examined == 0
        assert out.reason == "isolated vertex 2"

    def test_graph_and_cap_are_the_only_parameters(self):
        params = inspect.signature(brute_force).parameters
        assert list(params) == ["g", "vertex_cap"]
        assert params["vertex_cap"].default == DEFAULT_VERTEX_CAP

    def test_gamma_30_partition_content(self):
        g = gamma(30)
        out = brute_force(g)
        assert out.status is SearchStatus.FOUND
        r, b = side_residues(g, out.partition)
        assert set(r) | set(b) == {lab.k for lab in g.labels}
        assert is_vce(g, out.partition)

    def test_elapsed_is_recorded(self):
        out = brute_force(complete_graph(6))
        assert out.elapsed >= 0.0

    def test_more_than_62_free_vertices_is_a_domain_error(self):
        g = random_graph(70, seed=0)
        assert isolated_obstruction(g) is None
        with pytest.raises(DomainError, match="exceeds the limit of 62"):
            brute_force(g, vertex_cap=100)
        # the cap is checked first: a graph over it is Inconclusive, not an error
        assert brute_force(g, vertex_cap=69).status is SearchStatus.INCONCLUSIVE


class TestBlockBoundaries:
    """Outcomes pinned across the low table (4096 masks) and many high blocks."""

    def test_gamma_63_hit_past_the_first_block(self):
        out = brute_force(gamma(63))
        assert out.status is SearchStatus.FOUND
        assert out.partitions_examined == 2_310_852
        assert out.partition.b_ids.tolist() == [3, 7, 8, 10, 15, 17, 18, 22]

    def test_gamma_40(self):
        out = brute_force(gamma(40))
        assert out.status is SearchStatus.FOUND
        assert out.partitions_examined == 599_186

    def test_total_graph_of_gamma_18_exhausts(self):
        out = brute_force(total_graph(gamma(18)))
        assert out.status is SearchStatus.NONE_EXISTS
        assert out.partitions_examined == 8_388_607


@given(st.integers(2, 10), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_brute_force_matches_reference_enumeration(nv, seed):
    g = random_graph_without_isolated(nv, seed=seed)
    out = brute_force(g)
    expected = ref_has_vce(np.asarray(g.adj, dtype=np.int64))
    assert (out.status is SearchStatus.FOUND) == expected
    if expected:
        assert is_vce(g, out.partition)


@given(st.integers(2, 12), st.integers(0, 10_000), st.sampled_from([0.25, 0.4, 0.6]))
@settings(max_examples=100, deadline=None)
def test_brute_force_matches_reference_order(nv, seed, p):
    g = random_graph_without_isolated(nv, seed=seed, p=p)
    out = brute_force(g)
    mask, examined = ref_first_vce(g.adj)
    assert out.status is (SearchStatus.FOUND if mask is not None else SearchStatus.NONE_EXISTS)
    assert out.partitions_examined == examined
    if mask is not None:
        b = [v for v in range(1, nv) if (mask >> (v - 1)) & 1]
        assert out.partition.b_ids.tolist() == b
    # the vectorised reference that the larger graphs below use agrees
    hits = ref_vce_masks(g.adj, pin_first=True)
    assert (int(hits[0]) if hits.size else None) == mask


def _assert_first_mask(g: LabeledGraph) -> int | None:
    """brute_force's outcome against ref_vce_masks; the first mask or None."""
    nv = g.n_vertices
    out = brute_force(g)
    hits = ref_vce_masks(g.adj, pin_first=True)
    if not hits.size:
        assert out.status is SearchStatus.NONE_EXISTS
        assert out.partitions_examined == 2**(nv - 1) - 1
        return None
    mask = int(hits[0])
    assert out.status is SearchStatus.FOUND and out.partitions_examined == mask
    assert out.partition.b_ids.tolist() == [v for v in range(1, nv) if (mask >> (v - 1)) & 1]
    return mask


@given(st.integers(13, 17), st.integers(0, 10_000), st.sampled_from([0.25, 0.4, 0.6]))
@settings(max_examples=40, deadline=None)
def test_brute_force_matches_reference_order_past_the_low_table(nv, seed, p):
    # 13 to 17 vertices put 0 to 4 mask bits past the kernel's 4096-mask low
    # table
    _assert_first_mask(random_graph_without_isolated(nv, seed=seed, p=p))


def test_first_masks_past_the_low_table():
    # sparse graphs of 15 to 17 vertices often find their first partition
    # past mask 4096
    masks = [_assert_first_mask(random_graph_without_isolated(nv, seed=seed, p=0.25))
             for nv in (15, 16, 17) for seed in range(4)]
    assert sum(m is not None and m > 4096 for m in masks) >= 8


@given(st.integers(2, 14), st.integers(0, 10_000), st.booleans(),
       st.sampled_from([(1 << 12, 1 << 14, 1 << 8), (1, 1, 1), (4, 8, 2), (8, 16, 3)]))
@settings(max_examples=100, deadline=None)
def test_kernel_finds_the_first_mask_across_block_ends(nv, seed, pin_first, sizes):
    # the first very-cost-effective mask of the whole space, with the real
    # table sizes and with tiny ones that put many block and chunk ends
    # before it; without pin_first the first class has radix 2, as a twin
    # class of class_search does
    g = random_graph(nv, seed=seed, p=0.3)
    hits = ref_vce_masks(g.adj, pin_first)
    ones = np.ones(nv, dtype=np.int64)
    radix = np.full(nv, 2)
    radix[0] = 1 if pin_first else 2
    with pytest.MonkeyPatch.context() as mp:
        for name, value in zip(("_LO_VECTORS", "_BLOCK", "_HI_CHUNK"), sizes):
            mp.setattr(search, name, value)
        got = search._first_vce(g.adj, ones, ones == 0, radix)
    assert got == (int(hits[0]) if hits.size else None)


def _refuter_graph(nv: int, seed: int, kind: str) -> np.ndarray:
    if kind == "complete":
        return complete_graph(nv).adj
    if kind in ("components", "odd-clique"):
        # a random graph beside a second random one or beside a K_3 or K_5
        k = 3 + 2 * (seed % 2) if kind == "odd-clique" else nv // 2
        k = min(k, nv - 1)
        adj = np.zeros((nv, nv), dtype=bool)
        adj[:nv - k, :nv - k] = random_graph(nv - k, seed=seed, p=0.5).adj
        adj[nv - k:, nv - k:] = (~np.eye(k, dtype=bool) if kind == "odd-clique"
                                 else random_graph(k, seed=seed + 1, p=0.6).adj)
        return adj
    adj = random_graph(nv, seed=seed, p={"sparse": 0.2, "dense": 0.75}.get(kind, 0.4)).adj
    if kind == "isolated":
        adj = adj.copy()
        adj[seed % nv, :] = adj[:, seed % nv] = False
    return adj


@given(st.integers(2, 12), st.integers(0, 10_000),
       st.sampled_from(["sparse", "dense", "complete", "isolated", "components", "odd-clique"]),
       st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_refuter_matches_reference_enumeration(nv, seed, kind, budget):
    # with no budget the refuter is exact; with any budget it is sound, as a
    # search that runs out of nodes proves nothing
    adj = _refuter_graph(nv, seed, kind)
    has_vce = ref_has_vce(adj)
    assert search._refute(adj) is not has_vce
    assert not (has_vce and search._refute(adj, budget))


def _cycle(nv: int) -> np.ndarray:
    adj = np.zeros((nv, nv), dtype=bool)
    v = np.arange(nv)
    adj[v, (v + 1) % nv] = adj[(v + 1) % nv, v] = True
    return adj


def test_refuter_on_long_cycles():
    # a vertex of degree 2 may have no neighbour on its own side, so a cycle
    # has a very-cost-effective bipartition iff it is even; propagation from
    # the pin walks the whole cycle with no branch node and no recursion
    assert search._refute(_cycle(2001), 0)
    assert not search._refute(_cycle(2000))


def _outcome(out) -> tuple:
    part = None if out.partition is None else out.partition.in_b.tolist()
    return out.status, out.partitions_examined, part, out.reason


def _with_odd_clique(nv: int, seed: int, k: int, p: float) -> LabeledGraph:
    """A random graph with no isolated vertex beside a disjoint K_k, k odd:
    no bipartition of K_k, so none of the whole graph, is very cost
    effective."""
    adj = np.zeros((nv, nv), dtype=bool)
    adj[:nv - k, :nv - k] = random_graph_without_isolated(nv - k, seed=seed, p=p).adj
    adj[nv - k:, nv - k:] = ~np.eye(k, dtype=bool)
    return LabeledGraph([Residue(i + 1) for i in range(nv)], adj)


def _k5_beside_c20() -> LabeledGraph:
    """K_5 on vertices 0-4 beside a 20-cycle on vertices 5-24."""
    adj = np.zeros((25, 25), dtype=bool)
    adj[:5, :5] = ~np.eye(5, dtype=bool)
    adj[5:, 5:] = _cycle(20)
    return LabeledGraph([Residue(i + 1) for i in range(25)], adj)


def _survey_graphs_within_the_cap():
    for n in range(2, 121):
        for fam in GraphFamily:
            g = build_family(n, fam)
            if 2 <= g.n_vertices <= DEFAULT_VERTEX_CAP:
                yield g


def _budget(nv: int) -> int:
    """The node budget brute_force gives the refuter on |V| = nv."""
    return max(16, 2**(nv - 1) >> 16)


class TestWitness:
    """A NoneExists hands over its proof, where it has one; no other outcome
    carries a witness."""

    def test_isolated_vertex(self):
        g = non_nilradical_graph(12)
        for out in (brute_force(g), class_search(g, 1 << 25), exact_search(g)):
            assert out.status is SearchStatus.NONE_EXISTS and out.partitions_examined == 0
            assert out.witness == IsolatedVertex(0, Residue(2))
            assert out.reason == out.witness.render() == "isolated vertex 2"

    @pytest.mark.parametrize("build", [gamma, nilradical_graph])
    def test_one_vertex_is_isolated(self, build):
        g = build(4)
        for out in (brute_force(g), class_search(g, 1 << 25), exact_search(g)):
            assert out.status is SearchStatus.NONE_EXISTS
            assert out.witness == IsolatedVertex(0, Residue(2))
            assert out.reason == "no valid bipartition on fewer than two vertices"

    def test_zero_vertex_graph_file_has_none(self):
        g, _ = graph_from_json('{"n": 7, "family": "gamma", "vertices": [], "edges": []}')
        for out in (brute_force(g), class_search(g, 1 << 25), exact_search(g)):
            assert out.status is SearchStatus.NONE_EXISTS and out.witness is None

    def test_exhausted_scan(self):
        for g, examined in ((gamma(16), 63), (complete_graph(5), 15),
                            (build_family(26, GraphFamily.TOTAL_OF_GAMMA), 16_777_215)):
            out = brute_force(g)
            assert out.status is SearchStatus.NONE_EXISTS
            assert out.witness == ExhaustedSearch(examined) and out.partitions_examined == examined
            assert exact_search(g).witness == out.witness

    def test_exhausted_class_space_has_none(self):
        g = gamma(64)
        for out in (class_search(g, 1 << 25), exact_search(g)):
            assert out.status is SearchStatus.NONE_EXISTS and out.partitions_examined == 120
            assert out.witness is None

    def test_found_and_inconclusive_have_none(self):
        outs = [brute_force(gamma(30)), brute_force(gamma(60), vertex_cap=10),
                class_search(gamma(48), 1 << 25), class_search(gamma(100), 512),
                exact_search(gamma(48)), exact_search(gamma(100), vertex_cap=10),
                local_search(gamma(15)), local_search(gamma(16), max_restarts=1, max_steps=1)]
        assert [o.status.value for o in outs] == ["Found", "Inconclusive"] * 4
        assert all(o.witness is None for o in outs)

    def test_witnesses_render_their_lines_and_survey_tags(self):
        iso, ex = IsolatedVertex(3, Residue(10)), ExhaustedSearch(255)
        assert (iso.tag, iso.render()) == ("isolated-vertex", "isolated vertex 10")
        assert (ex.tag, ex.render()) == (
            "exhausted-search", "exhaustive search examined 255 bipartitions, none very cost effective")


class TestExactSearch:
    """brute_force within the cap, then class_search with 2^(cap - 1) vectors."""

    @pytest.mark.parametrize("n, cap, first, then", [
        (16, 26, "NoneExists", None),
        (30, 26, "Found", None),
        (48, 26, "Inconclusive", "Found"),
        (64, 26, "Inconclusive", "NoneExists"),
        (100, 10, "Inconclusive", "Inconclusive"),
        (100, 0, "Inconclusive", "Inconclusive"),
    ])
    def test_chain(self, monkeypatch, n, cap, first, then):
        calls = []
        for name in ("brute_force", "class_search"):
            def spy(g, limit, real=getattr(search, name), name=name):
                out = real(g, limit)
                calls.append((name, limit, out.status.value))
                return out
            monkeypatch.setattr(search, name, spy)
        out = exact_search(gamma(n), cap)
        assert calls[0] == ("brute_force", cap, first)
        if then is None:
            assert len(calls) == 1
        else:
            budget = 1 << (cap - 1) if cap > 0 else 0
            assert calls[1:] == [("class_search", budget, then)]
        assert out.status.value == calls[-1][2]


class TestRefuter:
    """The bounded refutation that brute_force asks for once, before it
    scans 2^17 masks or more, with a node budget of 1/2^16 of the masks (at
    least 16): it may only make exhaustive negatives faster, never change an
    outcome."""

    @staticmethod
    def _spy(monkeypatch, decide=search._refute) -> list[tuple[int, int | None, bool]]:
        # one (|V|, budget, result) per call
        calls = []

        def spy(adj, budget=None):
            calls.append((adj.shape[0], budget, decide(adj, budget)))
            return calls[-1][2]
        monkeypatch.setattr(search, "_refute", spy)
        return calls

    def _assert_same_outcomes(self, monkeypatch, graphs):
        """The refuter's calls for each graph, after checking that stubbing
        it to give up leaves every outcome as it was."""
        def run(calls):
            outcomes, per_graph = [], []
            for g in graphs:
                before = len(calls)
                outcomes.append(_outcome(brute_force(g)))
                per_graph.append(calls[before:])
            return outcomes, per_graph

        live, per_graph = run(self._spy(monkeypatch))
        stubbed, _ = run(self._spy(monkeypatch, lambda adj, budget=None: False))
        assert stubbed == live
        return per_graph

    def test_survey_outcomes_unchanged(self, monkeypatch):
        graphs = list(_survey_graphs_within_the_cap())
        assert len(graphs) == 152
        per_graph = self._assert_same_outcomes(monkeypatch, graphs)
        results = [r for calls in per_graph for _, _, r in calls]
        assert True in results and False in results

    def test_random_outcomes_unchanged(self, monkeypatch):
        # each component is searched on its own, smallest first, so a K_5
        # (4 branch nodes) is refuted by the one call, whatever lies beside
        # it, once the scan is long enough (18 vertices up) to call the
        # refuter at all
        graphs = [g for nv in range(16, 25, 2)
                  for g in (random_graph_without_isolated(nv, seed=nv),
                            random_graph_without_isolated(nv, seed=nv, p=0.7),
                            _with_odd_clique(nv, nv, 5, 0.4), _with_odd_clique(nv, nv, 7, 0.15))]
        per_graph = self._assert_same_outcomes(monkeypatch, graphs)
        assert all(len(calls) <= 1 for calls in per_graph)
        assert per_graph[2::4] == [[]] + [[(nv, _budget(nv), True)] for nv in range(18, 25, 2)]
        results = [r for calls in per_graph for _, _, r in calls]
        assert True in results and False in results

    @pytest.mark.parametrize("n, examined", [(18, 8_388_607), (22, 1_048_575),
                                             (26, 16_777_215)])
    def test_decides_total_of_gamma_by_propagation(self, monkeypatch, n, examined):
        g = build_family(n, GraphFamily.TOTAL_OF_GAMMA)
        calls = self._spy(monkeypatch)
        out = brute_force(g)
        assert calls == [(g.n_vertices, _budget(g.n_vertices), True)]
        assert _outcome(out) == (SearchStatus.NONE_EXISTS, examined, None,
                                 "enumeration exhausted")

    def test_k5_beside_c20_is_refuted_by_branch_nodes(self, monkeypatch):
        # propagation from the pins leaves K_5 open; 4 branch nodes close it
        g = _k5_beside_c20()
        assert not search._refute(g.adj, 0) and search._refute(g.adj, 4)
        calls = self._spy(monkeypatch)
        out = brute_force(g)
        assert calls == [(25, _budget(25), True)]
        assert _outcome(out) == (SearchStatus.NONE_EXISTS, 16_777_215, None,
                                 "enumeration exhausted")

    @pytest.mark.parametrize("nv", [17, 18])
    def test_asked_only_on_scans_of_2_to_the_17_masks(self, monkeypatch, nv):
        # K_17 scans 2^16 masks with no call; K_18 scans 2^17 and asks once,
        # with the least budget, and the refuter gives up on its partition
        calls = self._spy(monkeypatch)
        out = brute_force(complete_graph(nv))
        assert calls == ([] if nv == 17 else [(18, 16, False)])
        assert out.status is (SearchStatus.NONE_EXISTS if nv == 17 else SearchStatus.FOUND)

    def test_isolated_vertex_stops_before_the_refuter_and_the_scan(self, monkeypatch):
        adj = np.zeros((26, 26), dtype=bool)
        adj[:25, :25] = _k5_beside_c20().adj
        g = LabeledGraph([Residue(i + 1) for i in range(26)], adj)
        calls = self._spy(monkeypatch)
        monkeypatch.setattr(search, "_first_vce", None)
        assert _outcome(brute_force(g)) == (SearchStatus.NONE_EXISTS, 0, None,
                                            "isolated vertex 26")
        assert calls == []

    def test_one_scan_over_the_whole_space(self, monkeypatch):
        # a refuter that gives up leaves one kernel call, vertex 0 of radix 1
        calls = self._spy(monkeypatch)
        scans = []

        def kernel(m, size, clique, radix):
            scans.append(radix.tolist())
            return first_vce(m, size, clique, radix)
        first_vce = search._first_vce
        monkeypatch.setattr(search, "_first_vce", kernel)
        g = gamma(40)
        out = brute_force(g)
        assert calls == [(g.n_vertices, _budget(g.n_vertices), False)]
        assert scans == [[1] + [2] * (g.n_vertices - 1)]
        assert out.status is SearchStatus.FOUND and out.partitions_examined == 599_186

    def test_survey_27_to_39_asks_the_refuter_at_most_once_per_scan(self, monkeypatch):
        # a brute_force call asks at most once, and only on scans of 2^17
        # masks or more: 18 vertices or more, vertex 0 pinned
        calls = self._spy(monkeypatch)
        per_call = []

        def counted(g, vertex_cap=DEFAULT_VERTEX_CAP):
            before = len(calls)
            out = brute_force(g, vertex_cap)
            per_call.append((g.n_vertices, calls[before:]))
            return out
        monkeypatch.setattr(search, "brute_force", counted)
        cmd_survey(27, 39)
        assert calls and len(per_call) > len(calls)
        assert all(len(asked) <= 1 for _, asked in per_call)
        assert all(nv - 1 >= 17 for nv, asked in per_call if asked)


class TestLocalSearch:
    def test_finds_gamma_15(self):
        g = gamma(15)
        out = local_search(g)
        assert out.status is SearchStatus.FOUND
        assert is_vce(g, out.partition)

    def test_deterministic_per_seed(self):
        g = gamma(15)
        a = local_search(g, rng_seed=7)
        b = local_search(g, rng_seed=7)
        assert a.status is b.status
        assert a.partitions_examined == b.partitions_examined
        assert a.partition == b.partition

    def test_many_seeds_succeed(self):
        g = gamma(15)
        for seed in range(40):
            out = local_search(g, rng_seed=seed)
            assert out.status is SearchStatus.FOUND
            assert is_vce(g, out.partition)

    def test_balanced_start_solves_k10_immediately(self):
        out = local_search(complete_graph(10))
        assert out.status is SearchStatus.FOUND
        assert out.partitions_examined == 1

    def test_k5_is_inconclusive_never_none_exists(self):
        out = local_search(complete_graph(5), max_restarts=4, max_steps=16)
        assert out.status is SearchStatus.INCONCLUSIVE
        assert out.partition is None
        assert "budget exhausted" in out.reason

    def test_rejects_tiny_graphs(self):
        with pytest.raises(DomainError):
            local_search(gamma(4))

    def test_found_on_larger_modulus(self):
        g = gamma(1155)  # squarefree, 3*5*7*11
        out = local_search(g, rng_seed=1)
        assert out.status is SearchStatus.FOUND
        assert is_vce(g, out.partition)

    def test_rejects_bad_budgets_and_seeds(self):
        g = gamma(15)
        for kwargs in ({"rng_seed": -1}, {"max_restarts": 0}, {"max_steps": 0},
                       {"max_restarts": -2}, {"max_steps": -5}):
            with pytest.raises(DomainError):
                local_search(g, **kwargs)


class TestLocalSearchPins:
    """Outcomes with the default budget and seed, as first released."""

    def test_gamma_100(self):
        out = local_search(build_family(100, GraphFamily.GAMMA))
        assert out.status is SearchStatus.FOUND
        assert out.partitions_examined == 5155
        assert out.partition.b_ids.tolist() == [11, 14, 23, 29, 35, 44, 47]

    def test_total_of_gamma_81(self):
        out = local_search(build_family(81, GraphFamily.TOTAL_OF_GAMMA))
        assert out.status is SearchStatus.FOUND
        assert out.partitions_examined == 7189
        assert out.partition.b_ids.tolist() == [
            0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 13, 14, 15, 16, 18, 19, 21, 22, 23, 24,
            25, 27, 29, 31, 32, 34, 38, 39, 44, 45, 46, 47, 49, 51, 53, 56, 57, 59, 62,
            63, 66, 67, 69, 72, 73, 74, 76, 77, 81, 82, 85, 86]

    def test_nilradical_64_uses_the_whole_budget(self):
        out = local_search(build_family(64, GraphFamily.NILRADICAL))
        assert out.status is SearchStatus.INCONCLUSIVE
        assert out.partitions_examined == 32 * 1024
        assert out.partition is None
        assert out.reason == "restart and step budget exhausted"


def _assert_matches_reference(g, restarts, steps, seed):
    out = local_search(g, max_restarts=restarts, max_steps=steps, rng_seed=seed)
    in_b, examined = ref_local_search(g.adj, restarts, steps, seed)
    assert out.partitions_examined == examined
    if in_b is None:
        assert out.status is SearchStatus.INCONCLUSIVE and out.partition is None
        assert out.reason == "restart and step budget exhausted"
    else:
        assert out.status is SearchStatus.FOUND and out.reason == ""
        assert out.partition.b_ids.tolist() == np.flatnonzero(in_b).tolist()


@given(st.integers(2, 40), st.integers(0, 10_000),
       st.sampled_from([0.1, 0.25, 0.4, 0.6, 0.85, 1.0]),
       st.integers(1, 5), st.integers(1, 70), st.integers(0, 20))
@settings(max_examples=150, deadline=None)
def test_local_search_matches_reference_climber(nv, graph_seed, p, restarts, steps, seed):
    g = complete_graph(nv) if p == 1.0 else random_graph(nv, seed=graph_seed, p=p)
    _assert_matches_reference(g, restarts, steps, seed)


@pytest.mark.parametrize("nv", [2, 3])
def test_local_search_matches_reference_with_a_lone_vertex(nv):
    # a balanced start on 2 or 3 vertices leaves one vertex alone on a side
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    for edges in range(1 << len(pairs)):
        adj = np.zeros((nv, nv), dtype=bool)
        for i, (u, v) in enumerate(pairs):
            adj[u, v] = adj[v, u] = bool((edges >> i) & 1)
        g = LabeledGraph([Residue(i + 1) for i in range(nv)], adj)
        for seed in range(6):
            _assert_matches_reference(g, 40, 9, seed)


# the first restart climbs alone, then restarts 1..32, 33..64 and 65.. climb in
# waves; with 24 steps the seeds put the first restart that finds at 4, 31,
# 52, 65, 67 and 68, and the other seeds find none within 70 restarts
_WAVE_CASES = [
    (64, GraphFamily.GAMMA, (0, 1)),
    (64, GraphFamily.NILRADICAL, (0, 1)),
    (20, GraphFamily.TOTAL_OF_GAMMA, (0, 7, 13, 21)),
    (30, GraphFamily.LINE_OF_GAMMA, (0, 1, 4, 8)),
]


@pytest.mark.parametrize("restarts", [31, 32, 33, 64, 65, 70])
@pytest.mark.parametrize("n, family, seeds", _WAVE_CASES)
def test_local_search_matches_reference_across_waves(n, family, seeds, restarts):
    g = build_family(n, family)
    for seed in seeds:
        _assert_matches_reference(g, restarts, 24, seed)


def test_local_search_an_earlier_restart_wins_over_a_later_one():
    # restarts 2, 3 and 4 all find in the first wave, restart 4 in 4 steps,
    # before restart 2 finds in 11; restart 2 still wins, after restarts 0
    # and 1 used their 64 steps each
    g = random_graph(15, seed=38, p=0.3)
    a2 = np.multiply(g.adj, 2, dtype=np.float32)
    rng = np.random.default_rng(3)
    first, wave = search._starts(rng, 1, 15), search._starts(rng, 32, 15)
    assert search._climb_one(a2, first[0], 64) == (64, None)
    alone = [search._climb(a2, wave[[r - 1]], 64) for r in (1, 2, 4)]
    assert [steps for steps, _ in alone] == [64, 11, 4]
    assert np.flatnonzero(alone[1][1]).tolist() == [1, 2, 3, 5, 10, 12, 13]
    assert np.flatnonzero(alone[2][1]).tolist() == [0, 4, 6, 7, 8, 9, 11, 14]
    out = local_search(g, max_restarts=33, max_steps=64, rng_seed=3)
    assert out.status is SearchStatus.FOUND
    assert out.partitions_examined == 64 + 64 + 11
    assert out.partition.b_ids.tolist() == [1, 2, 3, 5, 10, 12, 13]
    _assert_matches_reference(g, 33, 64, 3)


def test_local_search_memory_does_not_grow_with_restarts():
    g = build_family(195, GraphFamily.GAMMA)  # 98 vertices
    nv = g.n_vertices
    local_search(g, max_restarts=33, max_steps=2)  # first-call allocations
    tracemalloc.start()
    try:
        out = local_search(g, max_restarts=2000, max_steps=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.partitions_examined == 2000 * 2
    # the float32 doubled adjacency, plus a wave's handful of 32-row arrays
    # of at most 8 bytes an entry; float32 sides for all 2000 restarts at
    # once would take 2000 * 4 * nv bytes, over three times the bound
    assert peak < 4 * nv * nv + 8 * (32 * nv * 8)
