import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (all_bipartitions, complete_graph, random_graph, ref_partition_verdict,
                     ref_residue_adj, ref_tallies, residues)
from znvce import (
    Bipartition,
    GraphFamily,
    LabeledGraph,
    PartitionError,
    Residue,
    Verdict,
    build_family,
    check_bipartition,
    dispatch,
    gamma,
    graph_to_json,
    is_vce,
    nilradical_graph,
    non_nilradical_graph,
    partition_to_json,
)
from znvce import graphs
from znvce.cli import cmd_check


def mult_split(g, d):
    """Bipartition with R = residues divisible by d."""
    ks = np.array([lab.k for lab in g.labels])
    return Bipartition(ks % d != 0)


class TestBipartition:
    def test_from_sides_roundtrip(self):
        p = Bipartition.from_sides(4, [0, 2], [1, 3])
        assert p.r_ids.tolist() == [0, 2]
        assert p.b_ids.tolist() == [1, 3]
        assert p.side_of(0) == "R" and p.side_of(3) == "B"

    def test_swap(self):
        p = Bipartition.from_sides(4, [0, 2], [1, 3])
        q = p.swapped()
        assert q.r_ids.tolist() == [1, 3]
        assert p == q.swapped()

    def test_rejects_empty_side(self):
        with pytest.raises(PartitionError):
            Bipartition(np.ones(4, dtype=bool))
        with pytest.raises(PartitionError):
            Bipartition(np.zeros(4, dtype=bool))
        with pytest.raises(PartitionError):
            Bipartition.from_sides(3, [0, 1, 2], [])

    def test_rejects_bad_ids(self):
        with pytest.raises(PartitionError):
            Bipartition.from_sides(3, [0, 5], [1])
        with pytest.raises(PartitionError):
            Bipartition.from_sides(3, [0, 1], [1, 2])
        with pytest.raises(PartitionError):
            Bipartition.from_sides(4, [0, 1], [2])
        with pytest.raises(PartitionError):
            Bipartition.from_sides(1, [0], [])

    def test_mask_is_frozen(self):
        p = Bipartition.from_sides(3, [0], [1, 2])
        with pytest.raises(ValueError):
            p.in_b[0] = True


def test_report_gamma_6():
    g = gamma(6)  # labels 2, 3, 4
    p = Bipartition.from_sides(3, [1], [0, 2])
    rep = check_bipartition(g, p)
    assert (rep.inside[1], rep.outside[1]) == (0, 2)
    assert rep.vertex_verdicts()[1] is Verdict.VERY_COST_EFFECTIVE


def test_isolated_vertex_is_cost_effective_only():
    g = non_nilradical_graph(12)  # vertex 2 (id 0) is isolated
    p = Bipartition.from_sides(6, [0, 1, 2], [3, 4, 5])
    rep = check_bipartition(g, p)
    assert (rep.inside[0], rep.outside[0]) == (0, 0)
    assert rep.vertex_verdicts()[0] is Verdict.COST_EFFECTIVE_ONLY


def test_report_gamma_16_multiples_of_4():
    g = gamma(16)
    p = mult_split(g, 4)  # R = {4, 8, 12}
    rep = check_bipartition(g, p)
    v8, v4 = g.id_of(Residue(8)), g.id_of(Residue(4))
    assert (rep.inside[v8], rep.outside[v8]) == (2, 4)
    assert rep.vertex_verdicts()[v8] is Verdict.VERY_COST_EFFECTIVE
    assert (rep.inside[v4], rep.outside[v4]) == (2, 0)
    assert rep.vertex_verdicts()[v4] is Verdict.NOT_COST_EFFECTIVE


def test_check_gamma_15_natural_split():
    g = gamma(15)
    rep = check_bipartition(g, mult_split(g, 3))
    assert rep.partition_verdict is Verdict.VERY_COST_EFFECTIVE
    assert rep.witnesses == ()
    assert rep.inside.size == rep.outside.size == 6


def test_check_gamma_15_failing_split():
    g = gamma(15)  # labels 3, 5, 6, 9, 10, 12
    p = Bipartition.from_sides(6, [0, 1, 2, 3, 5], [4])  # R = {3,5,6,9,12}, B = {10}
    rep = check_bipartition(g, p)
    assert rep.partition_verdict is Verdict.NOT_COST_EFFECTIVE
    verdicts = rep.vertex_verdicts()
    by_label = {lab.k: (rep.inside[v], rep.outside[v], verdicts[v])
                for v, lab in enumerate(g.labels)}
    assert by_label[5] == (4, 0, Verdict.NOT_COST_EFFECTIVE)
    assert by_label[10] == (0, 4, Verdict.VERY_COST_EFFECTIVE)
    for k in (3, 6, 9, 12):
        assert by_label[k] == (1, 1, Verdict.COST_EFFECTIVE_ONLY)
    assert [g.labels[w].k for w in rep.witnesses] == [3, 5, 6, 9, 12]


def test_check_complete_graphs():
    k3 = complete_graph(3)
    for in_b in all_bipartitions(3):
        rep = check_bipartition(k3, Bipartition(in_b))
        assert rep.partition_verdict in (
            Verdict.COST_EFFECTIVE_ONLY, Verdict.NOT_COST_EFFECTIVE)
    k4 = complete_graph(4)
    rep = check_bipartition(k4, Bipartition.from_sides(4, [0, 1], [2, 3]))
    assert rep.partition_verdict is Verdict.VERY_COST_EFFECTIVE
    assert rep.inside.tolist() == [1] * 4 and rep.outside.tolist() == [2] * 4


def test_check_rejects_size_mismatch():
    with pytest.raises(PartitionError):
        check_bipartition(gamma(15), Bipartition.from_sides(3, [0], [1, 2]))


def _report_tuples(rep) -> tuple:
    """The report's counts and verdicts in ref_tallies' shape."""
    verdicts = rep.verdict_texts()
    assert verdicts == [v.value for v in rep.vertex_verdicts()]
    return tuple(zip(range(rep.inside.size), rep.inside.tolist(), rep.outside.tolist(),
                     verdicts))


def _small_family_graphs():
    """Every family graph of 2 to 8 vertices for n <= 120."""
    return [g for fam in GraphFamily for n in range(2, 121)
            if 2 <= (g := build_family(n, fam)).n_vertices <= 8]


def _small_random_graphs():
    """Random graphs of 2 to 8 vertices, sparse to dense."""
    return [random_graph(nv, seed=seed, p=p) for nv in range(2, 9)
            for seed, p in enumerate((0.2, 0.5, 0.8))]


@pytest.mark.parametrize("graphs", [_small_family_graphs, _small_random_graphs])
def test_partition_takes_its_worst_vertex_verdict(graphs):
    # each graph under every bipartition
    order, seen = list(Verdict), set()
    for g in graphs():
        for in_b in all_bipartitions(g.n_vertices):
            part = Bipartition(in_b)
            rep = check_bipartition(g, part)
            seen.add(rep.partition_verdict)
            assert rep.partition_verdict is max(rep.vertex_verdicts(), key=order.index)
            ref = ref_tallies(g, part)
            assert rep.partition_verdict.value == ref_partition_verdict(ref)
            assert _report_tuples(rep) == ref
            assert rep.witnesses == tuple(
                v for v, _, _, verdict in ref if verdict != "VeryCostEffective")
    assert seen == set(Verdict)


@pytest.mark.parametrize("n, family", [
    (15, "gamma"), (60, "gamma"), (72, "nilradical"), (90, "omega"),
    (21, "line-of-gamma"), (20, "total-of-gamma"),
])
def test_counts_match_the_reference(n, family):
    g = build_family(n, family)
    rng = np.random.default_rng(n)
    for _ in range(4):
        in_b = np.arange(g.n_vertices) == 0
        in_b ^= rng.random(g.n_vertices) < 0.5
        part = Bipartition(in_b)
        rep = check_bipartition(g, part)
        assert _report_tuples(rep) == ref_tallies(g, part)


def test_report_arrays_are_read_only():
    g = gamma(15)
    rep = check_bipartition(g, mult_split(g, 3))
    for arr in (rep.inside, rep.outside):
        with pytest.raises(ValueError):
            arr[0] = 7


def _random_side(nv: int, seed: int) -> Bipartition:
    rng = np.random.default_rng(seed)
    in_b = rng.random(nv) < 0.5
    if in_b.all() or not in_b.any():
        in_b[0] = not in_b[0]
    return Bipartition(in_b)


def _assert_matches_the_reference(g, part):
    rep = check_bipartition(g, part)
    for arr in (rep.inside, rep.outside):
        assert arr.dtype == np.int64 and not arr.flags.writeable
    ref = ref_tallies(g, part)
    assert _report_tuples(rep) == ref
    assert rep.witnesses == tuple(v for v, _, _, verdict in ref if verdict != "VeryCostEffective")
    assert is_vce(g, part) == (ref_partition_verdict(ref) == "VeryCostEffective")


# the kernel packs eight vertices to a byte, so the examples put every |V|
# mod 8 through it, sparse and dense, past a whole 64-bit word of them
@given(st.integers(2, 70), st.sampled_from((0.05, 0.5, 0.95)),
       st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
@example(63, 0.05, 1, 2)
@example(63, 0.95, 3, 4)
@example(64, 0.05, 5, 6)
@example(64, 0.95, 7, 8)
@example(65, 0.05, 9, 10)
@example(65, 0.95, 11, 12)
@example(66, 0.05, 13, 14)
@example(66, 0.95, 15, 16)
@example(67, 0.05, 17, 18)
@example(67, 0.95, 19, 20)
@example(68, 0.05, 21, 22)
@example(68, 0.95, 23, 24)
@example(69, 0.05, 25, 26)
@example(69, 0.95, 27, 28)
@example(70, 0.05, 29, 30)
@example(70, 0.95, 31, 32)
def test_counts_across_byte_boundaries(nv, p, gseed, mseed):
    _assert_matches_the_reference(random_graph(nv, seed=gseed, p=p), _random_side(nv, mseed))


def test_family_graphs_match_the_reference():
    # every family graph of n <= 60 with two vertices or more, under random
    # partitions
    for fam in GraphFamily:
        for n in range(2, 61):
            g = build_family(n, fam)
            if g.n_vertices < 2:
                continue
            for seed in range(2):
                _assert_matches_the_reference(g, _random_side(g.n_vertices, n * 2 + seed))


def test_certify_path_counts_from_the_structure(monkeypatch, tmp_path):
    # dispatch verifies a line or total graph from gamma's edges with no
    # rows built, and a residue graph from its class rows; a graph read
    # from a file keeps neither, and cmd_check counts its degrees in one pass
    def refuse(*args):
        raise AssertionError("rows built")

    monkeypatch.setattr(graphs, "_edge_rows", refuse)
    line = dispatch(1357, "line-of-gamma")
    total = dispatch(1333, "total-of-gamma")
    assert line.source and total.source and line.graph._rows is None is total.graph._rows
    monkeypatch.setattr(LabeledGraph, "rows", refuse)
    cert = dispatch(4641, "gamma")
    assert is_vce(cert.graph, cert.partition)
    assert not is_vce(cert.graph, Bipartition(np.roll(cert.partition.in_b, 1)))
    monkeypatch.undo()
    passes, degrees = [], LabeledGraph.degrees

    def counted(self):
        passes.append(self._deg is None)
        return degrees(self)

    monkeypatch.setattr(LabeledGraph, "degrees", counted)
    gp, pp = tmp_path / "g.json", tmp_path / "p.json"
    gp.write_text(graph_to_json(line.graph, GraphFamily.LINE_OF_GAMMA))
    pp.write_text(partition_to_json(line.graph, line.partition))
    text, code = cmd_check(str(gp), str(pp))
    assert code == 0 and text.endswith("partition verdict: VeryCostEffective\n")
    assert passes == [True]


@pytest.mark.parametrize("keep", ["class table", "rows only"])
def test_kernel_allocates_no_square_bool_temporary(keep):
    # a copy that keeps only the rows counts by popcount, with its degree pass
    cert = dispatch(4641, "gamma")
    g, part = cert.graph, cert.partition
    if keep == "rows only":
        g = LabeledGraph._from_keys(g.keys().copy(), g.rows().copy())
    tracemalloc.start()
    try:
        assert is_vce(g, part)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.n_vertices ** 2 / (2 if keep == "rows only" else 50)


@given(st.integers(2, 10), st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_swap_symmetry_and_sum_law(nv, gseed, mseed):
    g = random_graph(nv, seed=gseed)
    rng = np.random.default_rng(mseed)
    in_b = rng.random(nv) < 0.5
    if in_b.all() or not in_b.any():
        in_b[0] = not in_b[0]
    p = Bipartition(in_b)
    rep = check_bipartition(g, p)
    rep_swapped = check_bipartition(g, p.swapped())
    assert rep.partition_verdict is rep_swapped.partition_verdict
    assert _report_tuples(rep) == _report_tuples(rep_swapped)
    assert rep.witnesses == rep_swapped.witnesses
    # per-vertex counts always sum to the degree
    for v in range(nv):
        assert rep.inside[v] + rep.outside[v] == g.degree(v)
    # total inside count is twice the number of intra-side edges
    intra = sum(1 for i, j in g.edges() if p.in_b[i] == p.in_b[j])
    assert int(rep.inside.sum()) == 2 * intra
    # the boolean fast path agrees with the full report
    assert is_vce(g, p) == (rep.partition_verdict is Verdict.VERY_COST_EFFECTIVE)


def test_isolated_vertex_blocks_every_bipartition():
    for g in (non_nilradical_graph(12), non_nilradical_graph(18)):
        iso = int(np.flatnonzero(g.degrees() == 0)[0])
        assert g.n_vertices <= 12
        for in_b in all_bipartitions(g.n_vertices):
            rep = check_bipartition(g, Bipartition(in_b))
            assert rep.partition_verdict is not Verdict.VERY_COST_EFFECTIVE
            assert iso in rep.witnesses


def test_complete_graph_balanced_split_law():
    # a balanced split of K_m is very cost effective exactly when m is even,
    # and no split at all works when m is odd
    for m in range(2, 11):
        g = complete_graph(m)
        balanced = Bipartition(np.arange(m) >= m // 2)
        assert is_vce(g, balanced) == (m % 2 == 0)
        found = any(is_vce(g, Bipartition(in_b)) for in_b in all_bipartitions(m))
        assert found == (m % 2 == 0)


@settings(max_examples=150, deadline=None)
@given(st.integers(4, 700), st.sampled_from([gamma, nilradical_graph, non_nilradical_graph]),
       st.integers(0, 2**32 - 1), st.sampled_from([0.2, 0.5, 0.8]))
def test_row_and_dense_builds_give_identical_reports(n, build, seed, share):
    # the counting kernel reads a residue graph's rows as built, and a dense
    # graph's rows as packed from its matrix: the reports must not differ
    g = build(n)
    if g.n_vertices < 2:
        return
    d = LabeledGraph(g.labels, ref_residue_adj(n, residues(g)), modulus=n)
    in_b = np.random.default_rng(seed).random(g.n_vertices) < share
    in_b[0], in_b[-1] = False, True
    part = Bipartition(in_b)
    got, want = check_bipartition(g, part), check_bipartition(d, part)
    assert got.inside.tolist() == want.inside.tolist()
    assert got.outside.tolist() == want.outside.tolist()
    assert got.partition_verdict is want.partition_verdict
    assert got.witnesses == want.witnesses
    assert is_vce(g, part) == is_vce(d, part)
    assert g._adj is None
