import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_bipartitions, complete_graph, random_graph, ref_tallies
from znvce import (
    Bipartition,
    DomainError,
    PartitionError,
    PartitionVerdict,
    Residue,
    Verdict,
    build_family,
    check_bipartition,
    gamma,
    is_vce,
    non_nilradical_graph,
    tally,
)


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


def test_tally_gamma_6():
    g = gamma(6)  # labels 2, 3, 4
    p = Bipartition.from_sides(3, [1], [0, 2])
    t = tally(g, p, 1)
    assert (t.inside, t.outside) == (0, 2)
    assert t.verdict is Verdict.VERY_COST_EFFECTIVE


def test_tally_isolated_vertex_is_cost_effective_only():
    g = non_nilradical_graph(12)  # vertex 2 (id 0) is isolated
    p = Bipartition.from_sides(6, [0, 1, 2], [3, 4, 5])
    t = tally(g, p, 0)
    assert (t.inside, t.outside) == (0, 0)
    assert t.verdict is Verdict.COST_EFFECTIVE_ONLY


def test_tally_gamma_16_multiples_of_4():
    g = gamma(16)
    p = mult_split(g, 4)  # R = {4, 8, 12}
    t8 = tally(g, p, g.id_of(Residue(8)))
    assert (t8.inside, t8.outside) == (2, 4)
    assert t8.verdict is Verdict.VERY_COST_EFFECTIVE
    t4 = tally(g, p, g.id_of(Residue(4)))
    assert (t4.inside, t4.outside) == (2, 0)
    assert t4.verdict is Verdict.NOT_COST_EFFECTIVE


def test_tally_errors():
    g = gamma(6)
    p = Bipartition.from_sides(3, [0], [1, 2])
    with pytest.raises(DomainError):
        tally(g, p, 3)
    with pytest.raises(PartitionError):
        tally(gamma(16), p, 0)


def test_check_gamma_15_natural_split():
    g = gamma(15)
    rep = check_bipartition(g, mult_split(g, 3))
    assert rep.partition_verdict is PartitionVerdict.VERY_COST_EFFECTIVE
    assert rep.witnesses == ()
    assert len(rep.tallies) == 6


def test_check_gamma_15_failing_split():
    g = gamma(15)  # labels 3, 5, 6, 9, 10, 12
    p = Bipartition.from_sides(6, [0, 1, 2, 3, 5], [4])  # R = {3,5,6,9,12}, B = {10}
    rep = check_bipartition(g, p)
    assert rep.partition_verdict is PartitionVerdict.NEITHER
    by_label = {g.labels[t.vertex].k: t for t in rep.tallies}
    assert (by_label[5].inside, by_label[5].outside) == (4, 0)
    assert by_label[5].verdict is Verdict.NOT_COST_EFFECTIVE
    assert (by_label[10].inside, by_label[10].outside) == (0, 4)
    assert by_label[10].verdict is Verdict.VERY_COST_EFFECTIVE
    for k in (3, 6, 9, 12):
        assert (by_label[k].inside, by_label[k].outside) == (1, 1)
    assert [g.labels[w].k for w in rep.witnesses] == [3, 5, 6, 9, 12]


def test_check_complete_graphs():
    k3 = complete_graph(3)
    for in_b in all_bipartitions(3):
        rep = check_bipartition(k3, Bipartition(in_b))
        assert rep.partition_verdict in (
            PartitionVerdict.COST_EFFECTIVE_ONLY, PartitionVerdict.NEITHER)
    k4 = complete_graph(4)
    rep = check_bipartition(k4, Bipartition.from_sides(4, [0, 1], [2, 3]))
    assert rep.partition_verdict is PartitionVerdict.VERY_COST_EFFECTIVE
    assert all((t.inside, t.outside) == (1, 2) for t in rep.tallies)


def test_check_rejects_size_mismatch():
    with pytest.raises(PartitionError):
        check_bipartition(gamma(15), Bipartition.from_sides(3, [0], [1, 2]))


def test_report_verdict_matches_tallies():
    g = random_graph(9, seed=5)
    for in_b in (np.arange(9) < 4, np.arange(9) % 2 == 0, np.arange(9) < 1):
        rep = check_bipartition(g, Bipartition(in_b))
        all_vce = all(t.verdict is Verdict.VERY_COST_EFFECTIVE for t in rep.tallies)
        none_bad = all(t.verdict is not Verdict.NOT_COST_EFFECTIVE for t in rep.tallies)
        if all_vce:
            assert rep.partition_verdict is PartitionVerdict.VERY_COST_EFFECTIVE
        elif none_bad:
            assert rep.partition_verdict is PartitionVerdict.COST_EFFECTIVE_ONLY
        else:
            assert rep.partition_verdict is PartitionVerdict.NEITHER
        assert rep.witnesses == tuple(
            t.vertex for t in rep.tallies if t.verdict is not Verdict.VERY_COST_EFFECTIVE)


@pytest.mark.parametrize("n, family", [
    (15, "gamma"), (60, "gamma"), (72, "nilradical"), (90, "omega"),
    (21, "line-of-gamma"), (20, "total-of-gamma"),
])
def test_tallies_match_the_reference(n, family):
    g = build_family(n, family)
    rng = np.random.default_rng(n)
    for _ in range(4):
        in_b = np.arange(g.n_vertices) == 0
        in_b ^= rng.random(g.n_vertices) < 0.5
        part = Bipartition(in_b)
        rep = check_bipartition(g, part)
        assert rep.tallies == ref_tallies(g, part)
        assert [t.verdict for t in rep.tallies] == rep.vertex_verdicts()
        assert rep.inside.tolist() == [t.inside for t in rep.tallies]
        assert rep.outside.tolist() == [t.outside for t in rep.tallies]


def test_report_arrays_are_read_only_and_tallies_cached():
    g = gamma(15)
    rep = check_bipartition(g, mult_split(g, 3))
    for arr in (rep.inside, rep.outside):
        with pytest.raises(ValueError):
            arr[0] = 7
    assert rep.tallies is rep.tallies


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
    assert rep.tallies == rep_swapped.tallies
    assert rep.witnesses == rep_swapped.witnesses
    # per-vertex counts always sum to the degree
    for t in rep.tallies:
        assert t.inside + t.outside == g.degree(t.vertex)
    # total inside count is twice the number of intra-side edges
    intra = sum(1 for i, j in g.edges() if p.in_b[i] == p.in_b[j])
    assert sum(t.inside for t in rep.tallies) == 2 * intra
    # the boolean fast path agrees with the full report
    assert is_vce(g, p) == (rep.partition_verdict is PartitionVerdict.VERY_COST_EFFECTIVE)
    assert [tally(g, p, v) for v in range(nv)] == list(rep.tallies)


def test_isolated_vertex_blocks_every_bipartition():
    for g in (non_nilradical_graph(12), non_nilradical_graph(18)):
        iso = int(np.flatnonzero(g.degrees() == 0)[0])
        assert g.n_vertices <= 12
        for in_b in all_bipartitions(g.n_vertices):
            rep = check_bipartition(g, Bipartition(in_b))
            assert rep.partition_verdict is not PartitionVerdict.VERY_COST_EFFECTIVE
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
