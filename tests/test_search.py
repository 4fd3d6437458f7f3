import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    complete_graph,
    random_graph,
    ref_first_vce,
    ref_has_vce,
    ref_local_search,
    ref_vce_masks,
    side_residues,
)
from znvce import (
    DEFAULT_VERTEX_CAP,
    DomainError,
    GraphFamily,
    LabeledGraph,
    Residue,
    SearchStatus,
    brute_force,
    build_family,
    gamma,
    is_vce,
    isolated_obstruction,
    local_search,
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

    def test_shortcut_off_agrees_by_enumeration(self):
        for n, expect_examined in ((12, 31), (18, 255)):
            g = non_nilradical_graph(n)
            out = brute_force(g, isolated_shortcut=False)
            assert out.status is SearchStatus.NONE_EXISTS
            assert out.partitions_examined == expect_examined
            assert out.reason == "enumeration exhausted"

    def test_unreduced_k4(self):
        out = brute_force(complete_graph(4), symmetry_reduction=False)
        assert out.status is SearchStatus.FOUND
        assert out.partitions_examined == 3
        assert out.partition.b_ids.tolist() == [0, 1]

    def test_reduced_and_unreduced_agree(self):
        for n in (15, 16, 21, 24, 25, 27, 30):
            g = gamma(n)
            red = brute_force(g)
            unred = brute_force(g, symmetry_reduction=False)
            assert red.status is unred.status
            if red.status is SearchStatus.FOUND:
                assert is_vce(g, red.partition) and is_vce(g, unred.partition)

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
        with pytest.raises(DomainError):
            brute_force(random_graph(63, seed=0), vertex_cap=100, symmetry_reduction=False)
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
    g = random_graph(nv, seed=seed)
    out = brute_force(g, isolated_shortcut=False)
    expected = ref_has_vce(np.asarray(g.adj, dtype=np.int64))
    assert (out.status is SearchStatus.FOUND) == expected
    if expected:
        assert is_vce(g, out.partition)
    unred = brute_force(g, symmetry_reduction=False, isolated_shortcut=False)
    assert unred.status is out.status


@given(st.integers(2, 12), st.integers(0, 10_000), st.sampled_from([0.25, 0.4, 0.6]),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_brute_force_matches_reference_order(nv, seed, p, pin_first):
    g = random_graph(nv, seed=seed, p=p)
    out = brute_force(g, symmetry_reduction=pin_first, isolated_shortcut=False)
    mask, examined = ref_first_vce(g.adj, pin_first)
    assert out.status is (SearchStatus.FOUND if mask is not None else SearchStatus.NONE_EXISTS)
    assert out.partitions_examined == examined
    if mask is not None:
        first = 1 if pin_first else 0
        b = [v for v in range(first, nv) if (mask >> (v - first)) & 1]
        assert out.partition.b_ids.tolist() == b
    # the vectorised reference that the larger graphs below use agrees
    hits = ref_vce_masks(g.adj, pin_first)
    assert (int(hits[0]) if hits.size else None) == mask


def _assert_first_mask(g: LabeledGraph, pin_first: bool) -> int | None:
    """brute_force's outcome against ref_vce_masks; the first mask or None."""
    nv = g.n_vertices
    out = brute_force(g, symmetry_reduction=pin_first, isolated_shortcut=False)
    hits = ref_vce_masks(g.adj, pin_first)
    free = nv - 1 if pin_first else nv
    if not hits.size:
        assert out.status is SearchStatus.NONE_EXISTS
        assert out.partitions_examined == 2**free - (1 if pin_first else 2)
        return None
    mask = int(hits[0])
    assert out.status is SearchStatus.FOUND and out.partitions_examined == mask
    assert out.partition.b_ids.tolist() == [v for v in range(nv - free, nv)
                                           if (mask >> (v - nv + free)) & 1]
    return mask


@given(st.integers(13, 17), st.integers(0, 10_000), st.sampled_from([0.25, 0.4, 0.6]),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_brute_force_matches_reference_order_past_the_low_table(nv, seed, p, pin_first):
    # 13 to 17 vertices put 1 to 5 mask bits past the kernel's 4096-mask low
    # table; 17 unpinned is the shortest scan that asks the refuter
    _assert_first_mask(random_graph(nv, seed=seed, p=p), pin_first)


def test_first_masks_past_the_low_table_and_the_eighth():
    # sparse graphs of 15 to 17 vertices often find their first partition
    # past mask 4096, and 17 unpinned ones past the refuter's eighth, 2^14
    masks = [_assert_first_mask(random_graph(nv, seed=seed, p=0.25), pin_first)
             for nv in (15, 16, 17) for pin_first in (True, False) for seed in range(4)]
    assert sum(m is not None and m > 4096 for m in masks) >= 8
    assert any(m is not None and m > 1 << 14 for m in masks[-4:])


@given(st.integers(2, 14), st.integers(0, 10_000), st.booleans(),
       st.sampled_from([(1 << 12, 1 << 14, 1 << 8), (1, 1, 1), (4, 8, 2), (8, 16, 3)]),
       st.data())
@settings(max_examples=100, deadline=None)
def test_kernel_scans_exactly_its_index_range(nv, seed, pin_first, sizes, data):
    # the first very-cost-effective mask in [start, stop), with the real
    # table sizes and with tiny ones that put many block and chunk ends
    # inside the range
    g = random_graph(nv, seed=seed, p=0.3)
    free = nv - 1 if pin_first else nv
    start = data.draw(st.integers(0, 1 << free))
    stop = data.draw(st.integers(start, 1 << free))
    hits = ref_vce_masks(g.adj, pin_first)
    hits = hits[(hits >= start) & (hits < stop)]
    ones = np.ones(nv, dtype=np.int64)
    radix = np.full(nv, 2)
    radix[:nv - free] = 1
    with pytest.MonkeyPatch.context() as mp:
        for name, value in zip(("_LO_VECTORS", "_BLOCK", "_HI_CHUNK"), sizes):
            mp.setattr(search, name, value)
        got = search._first_vce(g.adj, ones, ones == 0, radix, start, stop)
    assert got == (int(hits[0]) if hits.size else None)


@given(st.integers(2, 10), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_shortcut_never_changes_the_answer(nv, seed):
    g = random_graph(nv, seed=seed, p=0.25)
    with_cut = brute_force(g)
    without = brute_force(g, isolated_shortcut=False)
    assert with_cut.status is without.status


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
    """A random graph beside a disjoint K_k, k odd: no bipartition of K_k, so
    none of the whole graph, is very cost effective."""
    adj = np.zeros((nv, nv), dtype=bool)
    adj[:nv - k, :nv - k] = random_graph(nv - k, seed=seed, p=p).adj
    adj[nv - k:, nv - k:] = ~np.eye(k, dtype=bool)
    return LabeledGraph([Residue(i + 1) for i in range(nv)], adj)


def _survey_graphs_within_the_cap():
    for n in range(2, 121):
        for fam in GraphFamily:
            g = build_family(n, fam)
            if 2 <= g.n_vertices <= DEFAULT_VERTEX_CAP:
                yield g


class TestRefuter:
    """The bounded refutation that brute_force tries in a long scan, by
    propagation alone before the first mask and with a node budget at the
    first eighth: it may only make exhaustive negatives faster, never change
    an outcome."""

    @staticmethod
    def _spy(monkeypatch, decide=search._refute) -> list[tuple[int, int | None, bool]]:
        # one (|V|, budget, result) per call
        calls = []

        def spy(adj, budget=None):
            calls.append((adj.shape[0], budget, decide(adj, budget)))
            return calls[-1][2]
        monkeypatch.setattr(search, "_refute", spy)
        return calls

    def _assert_same_outcomes(self, monkeypatch, graphs, symmetry_reduction):
        """The refuter's calls for each graph, after checking that stubbing
        it to give up leaves every outcome as it was."""
        def run(calls):
            outcomes, per_graph = [], []
            for g in graphs:
                before = len(calls)
                outcomes.append(_outcome(brute_force(g, symmetry_reduction=symmetry_reduction,
                                                     isolated_shortcut=False)))
                per_graph.append(calls[before:])
            return outcomes, per_graph

        live, per_graph = run(self._spy(monkeypatch))
        stubbed, _ = run(self._spy(monkeypatch, lambda adj, budget=None: False))
        assert stubbed == live
        return per_graph

    @pytest.mark.parametrize("symmetry_reduction", [True, False])
    def test_survey_outcomes_unchanged(self, monkeypatch, symmetry_reduction):
        graphs = list(_survey_graphs_within_the_cap())
        assert len(graphs) == 152
        per_graph = self._assert_same_outcomes(monkeypatch, graphs, symmetry_reduction)
        results = [r for calls in per_graph for _, _, r in calls]
        assert True in results and False in results

    @pytest.mark.parametrize("symmetry_reduction", [True, False])
    def test_random_outcomes_unchanged(self, monkeypatch, symmetry_reduction):
        # each component is searched on its own, smallest first, so a K_5
        # (4 branch nodes) is refuted whatever lies beside it, once the scan
        # is long enough (18 vertices up) to call the refuter at all
        graphs = [g for nv in range(16, 25, 2)
                  for g in (random_graph(nv, seed=nv), random_graph(nv, seed=nv, p=0.7),
                            _with_odd_clique(nv, nv, 5, 0.4), _with_odd_clique(nv, nv, 7, 0.15))]
        per_graph = self._assert_same_outcomes(monkeypatch, graphs, symmetry_reduction)
        k5 = per_graph[2::4]
        assert k5[0] == [] and [calls[-1][2] for calls in k5[1:]] == [True] * 4
        results = [r for calls in per_graph for _, _, r in calls]
        assert True in results and False in results

    @pytest.mark.parametrize("n, examined", [(18, 8_388_607), (22, 1_048_575),
                                             (26, 16_777_215)])
    def test_decides_total_of_gamma_by_propagation(self, monkeypatch, n, examined):
        g = build_family(n, GraphFamily.TOTAL_OF_GAMMA)
        calls = self._spy(monkeypatch)
        out = brute_force(g)
        assert calls == [(g.n_vertices, 0, True)]
        assert _outcome(out) == (SearchStatus.NONE_EXISTS, examined, None,
                                 "enumeration exhausted")

    def test_survey_27_to_39_never_branches(self, monkeypatch):
        # only the propagation pass runs, and only on scans of 2^17 masks or
        # more: 18 vertices or more, one of them pinned
        calls = self._spy(monkeypatch)
        cmd_survey(27, 39)
        assert calls
        assert all(budget == 0 and nv - 1 >= 17 for nv, budget, _ in calls)


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
            _assert_matches_reference(g, 3, 9, seed)
