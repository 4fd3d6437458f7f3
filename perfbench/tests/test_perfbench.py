"""Tests of the benchmark itself, at a reduced size so they run in seconds.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import phases  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import znvce  # noqa: E402
import znvce.cli as cli  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink every phase: survey 27..32, a 3-row local batch, short probes."""
    monkeypatch.setattr(run, "SURVEY_FULL", (27, 32))
    monkeypatch.setattr(run, "SURVEY_PROBE", (27, 30))
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "PROBE_REPEATS", 2)
    monkeypatch.setattr(run, "CERT_STRATA", 1)
    monkeypatch.setattr(run, "CERT_PROBE_STRATA", 1)
    monkeypatch.setattr(run, "LOCAL_PROBE_ROWS", [(36, "line-of-gamma")])
    monkeypatch.setattr(phases, "CERT_V_MAX", 200)
    monkeypatch.setattr(phases, "CERT_N_MAX", 400)
    monkeypatch.setattr(phases, "local_batch", lambda stride: [
        (30, "line-of-gamma"), (48, "gamma"), (64, "nilradical")])
    monkeypatch.setattr(run, "OUT", HERE.parent / ".perfbench_out" / "test")


def _value(result, name):
    return result["metrics"][name]["value"]


@pytest.mark.parametrize("workload", ["survey", "local"])
def test_same_seed_repeats_exactly(small, workload):
    untraced = [run.run(workload, 7, 0.1, False) for _ in range(2)]
    traced = [run.run(workload, 7, 0.1, True) for _ in range(2)]
    for res in untraced + traced:
        assert res["correct"], res["record"]["errors"]
    for name in ("unknown_rows", "local_found_ratio"):
        assert _value(untraced[0], name) == _value(untraced[1], name)
    for name in ("search.brute_force.examined", "search.local_search.steps"):
        assert _value(traced[0], name) == _value(traced[1], name)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(untraced[0]["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    assert list(traced[0]["metrics"]) == [m["name"] for m in bench["per_layer"]]


def test_traced_certify_makes_no_brute_force_calls(small):
    res = run.run("certify", 3, 0.1, True)
    assert res["correct"], res["record"]["errors"]
    assert _value(res, "search.brute_force.calls") == 0
    assert _value(res, "vce.is_vce.calls_per_dispatch") == 2.0


def test_tracer_restores_the_package():
    before = znvce.constructions.brute_force
    with Tracer() as tracer:
        assert znvce.constructions.brute_force is not before
        znvce.dispatch(16, "gamma")
    assert znvce.constructions.brute_force is before
    names = {s.name for s in tracer.spans}
    assert {"constructions.dispatch", "graphs.build_family", "search.brute_force"} <= names


def _dense_witnesses(adj: np.ndarray, in_b: np.ndarray) -> np.ndarray:
    nb_b = np.count_nonzero(adj & in_b[None, :], axis=1)
    deg = np.count_nonzero(adj, axis=1)
    same = np.where(in_b, nb_b, deg - nb_b)
    return np.flatnonzero(same >= deg - same)


@pytest.mark.parametrize("n", [12, 30, 36, 64, 72, 105, 210])
@pytest.mark.parametrize("family", reference.FAMILIES)
def test_reference_graphs_agree_with_the_package(n, family):
    g = znvce.build_family(n, family)
    ref = reference.family_graph(n, family)
    assert ref.labels == [lab.render() for lab in g.labels]
    assert (reference.degrees(ref) == g.degrees()).all()
    assert reference.size(n, family) == (g.n_vertices, g.n_edges())
    rng = np.random.default_rng(n)
    for _ in range(5):
        in_b = rng.random(g.n_vertices) < 0.5
        assert (reference.witnesses(ref, in_b) == _dense_witnesses(g.adj, in_b)).all()


def test_recount_flags_a_flipped_vertex():
    cert = znvce.dispatch(30, "gamma")
    ref = reference.family_graph(30, "gamma")
    in_b = cert.partition.in_b.copy()
    assert reference.witnesses(ref, in_b).size == 0
    v = int(np.flatnonzero(in_b)[0])
    in_b[v] = False
    assert v in reference.witnesses(ref, in_b)


def test_survey_gate_allows_only_unknown_to_become_decided():
    golden = [r for r in phases.GOLDEN if int(r["n"]) <= 20]
    decided = [dict(r) for r in golden]
    unknown = [dict(r) for r in golden]
    i = next(k for k, r in enumerate(golden) if r["verdict"] == "Unknown")
    j = next(k for k, r in enumerate(golden) if r["verdict"] == "Not-VCE")
    decided[i].update(verdict="VCE-by-search", source="Search")
    unknown[j].update(verdict="Unknown", source="")
    assert reference.survey_failures(decided, golden) == set()
    assert reference.survey_failures(unknown, golden) == {(golden[j]["n"], golden[j]["family"])}


def _forge(cls, **fields):
    # certificates verify themselves on construction; a forged one must not
    forged = object.__new__(cls)
    for k, v in fields.items():
        object.__setattr__(forged, k, v)
    return forged


@pytest.mark.parametrize("claim", ["vce", "isolated", "exhausted"])
def test_survey_recount_rejects_a_forged_unknown_row(monkeypatch, claim):
    """(30, line-of-gamma) is Unknown in the golden survey; a certificate that
    decides it wrongly must fail the run even though the CSV gate allows a
    decided verdict there."""
    real = cli.dispatch
    row = (30, "line-of-gamma")
    g = znvce.build_family(*row)

    def forged_dispatch(n, family, *args, **kwargs):
        if (n, znvce.GraphFamily(family).value) != row:
            return real(n, family, *args, **kwargs)
        if claim == "vce":
            part = znvce.Bipartition(np.arange(g.n_vertices) % 2 == 0)
            return _forge(znvce.Exists, graph=g, partition=part, source=None)
        witness = (znvce.IsolatedVertex(0, g.labels[0]) if claim == "isolated"
                   else znvce.ExhaustedSearch(1 << 20))
        return _forge(znvce.NotVce, graph=g, witness=witness)

    monkeypatch.setattr(cli, "dispatch", forged_dispatch)
    tally = phases.Tally()
    phases.Survey(27, 32).unit(tally, NullTracer())
    assert tally.failed == 1, tally.errors
    assert "(30, line-of-gamma)" in tally.errors[0]
    assert cli.dispatch is forged_dispatch


def test_survey_recounts_every_certificate(monkeypatch):
    checked = []
    real = phases.certificate_error

    def counting(n, fam, cert, verdict):
        checked.append((n, fam))
        return real(n, fam, cert, verdict)

    monkeypatch.setattr(phases, "certificate_error", counting)
    tally = phases.Tally()
    phases.Survey(27, 32).unit(tally, NullTracer())
    assert tally.failed == 0, tally.errors
    dispatched = [(int(r["n"]), r["family"]) for r in phases.GOLDEN
                  if 27 <= int(r["n"]) <= 32 and r["verdict"] != "Empty-graph"]
    assert sorted(checked) == sorted(dispatched)


def test_survey_fails_rows_whose_certificate_bypasses_the_recount(monkeypatch):
    real_row = cli._survey_row

    def bypassing_row(n, family, cap):
        with monkeypatch.context() as m:
            m.setattr(cli, "dispatch", znvce.constructions.dispatch)
            return real_row(n, family, cap)

    monkeypatch.setattr(cli, "_survey_row", bypassing_row)
    tally = phases.Tally()
    phases.Survey(27, 32).unit(tally, NullTracer())
    dispatched = [r for r in phases.GOLDEN
                  if 27 <= int(r["n"]) <= 32 and r["verdict"] != "Empty-graph"]
    assert tally.failed == len(dispatched)
