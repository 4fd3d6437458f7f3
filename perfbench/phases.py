"""The three phases a benchmark run is made of: survey, certify and local.

Each phase drives znvce through its public API the way a user does, times
every call from outside, and checks every answer against `reference`. Calls
go through module attributes at call time (`znvce.dispatch`, `cli.cmd_check`)
so that a traced run sees them through the tracer's wrappers.

A phase does its work one unit at a time (a range of the survey, a certify
pass, a slice of the local batch) and keeps its samples; `cycle` units make
one whole batch of its work. `drive` runs a workload's own phase for whole
cycles and spreads the probe units of the other phases evenly between them.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
import znvce
import znvce.cli as cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = reference.parse_csv((Path(__file__).parent / "golden_survey.csv").read_text())

# certify draws from every (n, family) with a construction, n <= CERT_N_MAX,
# whose graph has CERT_V_MIN..CERT_V_MAX vertices and at most CERT_E_MAX edges.
# The edge cap keeps JSON parsing in `check` to well under a second per graph.
CERT_N_MAX = 8000
CERT_V_MIN, CERT_V_MAX, CERT_E_MAX = 24, 2400, 50_000
CERT_TAMPER_SHARE = 0.25

# the local batch is every over-cap gamma and nilradical row of the golden
# survey plus every LOCAL_STRIDE-th of its Unknown line and total rows (27 to
# 417 vertices). The rows are the same on every seed, so that local_s compares
# like with like while the seed moves the random starts.
LOCAL_STRIDE = 4


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


class Phase:
    """Samples of one phase: `times` holds the duration of each unit."""

    cycle = 1

    def __init__(self) -> None:
        self.times: list[float] = []
        self.ops = 0

    def cycle_times(self) -> list[float]:
        """Time spent in each whole cycle of units."""
        k = self.cycle
        return [sum(self.times[i:i + k]) for i in range(0, len(self.times) - k + 1, k)]


def drive(own: Phase, probes: list[Phase], seconds: float, repeats: int,
          tally: Tally, tracer) -> None:
    """Run `own` in whole cycles, at least one, while another cycle fits in
    `seconds`; run `repeats` cycles of each probe, their units spread evenly
    over the same time and interleaved with each other, so that no single slow
    or fast spell of the machine decides a probe's median."""
    t0 = cycle_start = perf_counter()
    plan = [(probe, repeats * probe.cycle) for probe in probes]

    def catch_up(share: float) -> None:
        # the probe furthest behind its own schedule goes first
        while True:
            due = [(len(p.times) / units, i) for i, (p, units) in enumerate(plan)
                   if len(p.times) < min(units, 1 + int(units * share))]
            if not due:
                return
            plan[min(due)[1]][0].unit(tally, tracer)

    while True:
        catch_up((perf_counter() - t0) / seconds)
        own.unit(tally, tracer)
        now = perf_counter()
        if len(own.times) % own.cycle == 0:
            if now - t0 + (now - cycle_start) > seconds:
                break
            cycle_start = now
    catch_up(1.0)


def setup_seconds(runs: int) -> float:
    """Median over fresh interpreters of importing numpy and znvce plus the
    first dispatch, timed inside the child."""
    code = ("import time; t0 = time.perf_counter(); import numpy, znvce; "
            "znvce.dispatch(30, 'gamma'); print(time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def certificate_error(n: int, fam: str, cert, golden_verdict: str | None) -> str | None:
    """Recounts what a survey row's certificate claims; None when it holds.

    A very-cost-effective partition must pass the recount, and an isolated
    vertex must have no neighbours in the reference graph. An exhausted search
    is taken on the golden verdict; on a golden Unknown row, which is over the
    exhaustive cap, the benchmark has no independent proof of it, so it fails."""
    row = f"survey row ({n}, {fam})"
    if cert is None:
        return None
    if isinstance(cert, znvce.Exists):
        g = reference.family_graph(n, fam)
        if g.labels != [lab.render() for lab in cert.graph.labels]:
            return f"{row}: the certificate's graph has the wrong vertices"
        if reference.witnesses(g, cert.partition.in_b).size:
            return f"{row}: the VCE partition fails the recount"
        return None
    witness = cert.witness
    if isinstance(witness, znvce.IsolatedVertex):
        g = reference.family_graph(n, fam)
        v = witness.vertex
        if not (0 <= v < len(g.labels) and g.labels[v] == witness.label.render()
                and reference.degrees(g)[v] == 0):
            return f"{row}: the isolated-vertex witness has neighbours in the recount"
        return None
    if golden_verdict == "Unknown":
        return f"{row}: an exhausted search over the cap has no independent check"
    return None


class Survey(Phase):
    """cmd_survey over lo..hi and all families, in `chunks` ranges of n, each
    compared row by row with the golden CSV, every certificate behind a row
    then recounted."""

    def __init__(self, lo: int, hi: int, chunks: int = 1):
        super().__init__()
        edges = np.linspace(lo, hi + 1, chunks + 1).astype(int).tolist()
        self.ranges = list(zip(edges, [b - 1 for b in edges[1:]]))
        self.cycle = len(self.ranges)
        self.unknown = [0] * self.cycle

    def unit(self, tally: Tally, tracer) -> None:
        i = len(self.times) % self.cycle
        lo, hi = self.ranges[i]
        golden = [r for r in GOLDEN if lo <= int(r["n"]) <= hi]
        tally.attempted += len(golden)
        self.ops += len(golden)
        # keep each row's certificate, through the name _survey_row calls
        # dispatch by, for the recount after the timed call
        certs = {}
        real = cli.dispatch

        def keep(n, family, *args, **kwargs):
            cert = real(n, family, *args, **kwargs)
            certs[(str(n), znvce.GraphFamily(family).value)] = cert
            return cert

        cli.dispatch = keep
        t0 = perf_counter()
        try:
            text = cli.cmd_survey(lo, hi)
        except Exception:
            tally.errors.append(traceback.format_exc())
            tally.failed += len(golden)
            return
        finally:
            self.times.append(perf_counter() - t0)
            cli.dispatch = real
        rows = reference.parse_csv(text)
        bad = reference.survey_failures(rows, golden)
        if bad:
            tally.errors.append(f"survey {lo}..{hi}: {len(bad)} rows differ from the golden CSV")
        verdicts = {(r["n"], r["family"]): r["verdict"] for r in golden}
        for row in rows:
            key = (row["n"], row["family"])
            if row["verdict"] != "Empty-graph" and key not in certs:
                bad.add(key)
                tally.errors.append(f"survey row {key}: no certificate reached the recount")
        for key, cert in certs.items():
            try:
                err = certificate_error(int(key[0]), key[1], cert, verdicts.get(key))
            except Exception:
                err = traceback.format_exc()
            if err is not None:
                bad.add(key)
                tally.errors.append(err)
        tally.failed += len(bad)
        self.unknown[i] = sum(r["verdict"] == "Unknown" for r in rows)

    def metrics(self) -> dict:
        return {"survey_s": statistics.median(self.cycle_times()),
                "unknown_rows": sum(self.unknown)}


def certify_pool() -> dict[str, list[tuple[int, int, str, int]]]:
    """Per family, (cost, n, family, vertices) sorted by cost, in edge
    equivalents: building the dense graph costs about one edge's JSON parse
    per 200 adjacency entries."""
    pool: dict[str, list[tuple[int, int, str, int]]] = {f: [] for f in reference.FAMILIES}
    for n in range(4, CERT_N_MAX + 1):
        for fam in reference.FAMILIES:
            if not reference.has_construction(n, fam):
                continue
            v, e = reference.size(n, fam)
            if CERT_V_MIN <= v <= CERT_V_MAX and e <= CERT_E_MAX:
                pool[fam].append((v * v // 200 + e, n, fam, v))
    for entries in pool.values():
        entries.sort()
    return pool


def _witness_line(text: str) -> set[str]:
    for line in text.splitlines():
        if line.startswith("witnesses: "):
            return set(line[len("witnesses: "):].split())
    return set()


class Certify(Phase):
    """dispatch, write the graph and partition JSON, cmd_check on the files.

    Each pass takes one pair per cost stratum of each family, at a seeded
    position in every stratum, so that the sample follows the pool's cost
    distribution whatever the seed; every pass repeats the same pairs, in
    `slices` units. When `anchored`, the first pass starts with the graph with
    the most vertices and each family's costliest graph, so that peak memory
    compares like with like across seeds.
    """

    def __init__(self, pool, seed: int, strata: int, workdir: Path, *, anchored: bool,
                 slices: int = 1):
        super().__init__()
        self.pool, self.strata, self.workdir = pool, strata, workdir
        self.cycle = slices
        self.queue: list[list[tuple[int, str]]] = []
        self.lat: dict[str, dict[tuple[int, str], list[float]]] = {"construct": {}, "check": {}}
        self.passes = 0
        self.rng = np.random.default_rng(seed)
        # an independent position in every stratum, so that a seed does not
        # shift the whole sample towards the cheap or the costly end
        self.offsets = {fam: self.rng.random(strata) for fam in reference.FAMILIES}
        self.anchors = []
        if anchored:
            _, n, fam = max((v, n, f) for entries in pool.values() for _, n, f, v in entries)
            self.anchors = [(n, fam)] + [e[-1][1:3] for e in pool.values()
                                         if e[-1][1:3] != (n, fam)]

    def next_pass(self) -> list[tuple[int, str]]:
        ops = []
        for fam in reference.FAMILIES:
            entries = self.pool[fam]
            bounds = np.linspace(0, len(entries), self.strata + 1).astype(int)
            ops += [entries[a + int(u * (b - a))][1:3]
                    for a, b, u in zip(bounds, bounds[1:], self.offsets[fam]) if b > a]
        # the same interleaving on every seed: heap growth, and so peak
        # memory, depends on the order of sizes as much as on the sizes
        ops = [ops[i] for i in np.random.default_rng(self.passes).permutation(len(ops))]
        if self.passes == 0:
            ops = self.anchors + ops
        self.passes += 1
        return ops

    def unit(self, tally: Tally, tracer) -> None:
        if not self.queue:
            ops, k = self.next_pass(), self.cycle
            self.queue = [ops[len(ops) * i // k:len(ops) * (i + 1) // k] for i in range(k)]
        t0 = perf_counter()
        for n, fam in self.queue.pop(0):
            tracer.begin_op()
            try:
                err = self.op(n, fam, self.rng.random() < CERT_TAMPER_SHARE)
            except Exception:
                err = traceback.format_exc()
            self.ops += 1
            tally.record(err is None, err or "")
        self.times.append(perf_counter() - t0)

    def op(self, n: int, fam: str, tamper: bool) -> str | None:
        """Returns None when every answer is right, else what went wrong."""
        t0 = perf_counter()
        cert = znvce.dispatch(n, fam)
        self.lat["construct"].setdefault((n, fam), []).append(perf_counter() - t0)
        if not (isinstance(cert, znvce.Exists) and cert.source is not None):
            return f"dispatch({n}, {fam}) gave {cert!r}, expected a construction certificate"
        ref = reference.family_graph(n, fam)
        labels = ref.labels
        if labels != [lab.render() for lab in cert.graph.labels]:
            return f"dispatch({n}, {fam}) built a graph with the wrong vertices"
        in_b = cert.partition.in_b.copy()
        if reference.witnesses(ref, in_b).size:
            return f"dispatch({n}, {fam}) returned a partition that fails the recount"
        flipped = None
        if tamper:
            larger = in_b if 2 * in_b.sum() > in_b.size else ~in_b
            flipped = int(self.rng.choice(np.flatnonzero(larger)))
            in_b[flipped] = not in_b[flipped]
        gpath, ppath = self.workdir / "graph.json", self.workdir / "partition.json"
        gpath.write_text(znvce.graph_to_json(cert.graph, fam))
        ppath.write_text(znvce.partition_to_json(cert.graph, znvce.Bipartition(in_b)))
        t0 = perf_counter()
        text, code = cli.cmd_check(str(gpath), str(ppath))
        self.lat["check"].setdefault((n, fam), []).append(perf_counter() - t0)
        if flipped is None:
            if code != 0 or "partition verdict: VeryCostEffective" not in text:
                return f"check rejected the certificate of ({n}, {fam}) with exit {code}"
            return None
        expected = {labels[v] for v in reference.witnesses(ref, in_b).tolist()}
        if code != 1 or labels[flipped] not in expected or _witness_line(text) != expected:
            return f"check accepted or misreported the tampered partition of ({n}, {fam})"
        return None

    def metrics(self) -> dict:
        # percentiles over the distinct pairs, each at its median latency, so
        # that a pair drawn twice counts once and a repeated pass steadies it
        ms = {k: np.array([statistics.median(v) for v in by_pair.values()]) * 1e3
              for k, by_pair in self.lat.items()}
        return {"construct_p50_ms": float(np.percentile(ms["construct"], 50)),
                "construct_p90_ms": float(np.percentile(ms["construct"], 90)),
                "check_p50_ms": float(np.percentile(ms["check"], 50)),
                "check_p90_ms": float(np.percentile(ms["check"], 90))}


def local_batch(stride: int) -> list[tuple[int, str]]:
    unknown = [(int(r["n"]), r["family"]) for r in GOLDEN if r["verdict"] == "Unknown"]
    every = {"gamma": 1, "nilradical": 1}
    return sorted(row for fam in reference.FAMILIES
                  for row in [r for r in unknown if r[1] == fam][::every.get(fam, stride)])


class Local(Phase):
    """build_family and local_search with the CLI defaults over a batch of
    rows, in `slices` interleaved slices of the batch."""

    def __init__(self, rows: list[tuple[int, str]], rng_seed: int, slices: int = 1):
        super().__init__()
        self.rows, self.rng_seed, self.cycle = rows, rng_seed, slices
        self.found = 0

    def unit(self, tally: Tally, tracer) -> None:
        busy = 0.0
        for n, fam in self.rows[len(self.times) % self.cycle::self.cycle]:
            tracer.begin_op()
            try:
                t0 = perf_counter()
                g = znvce.build_family(n, fam)
                out = znvce.local_search(g, rng_seed=self.rng_seed)
                busy += perf_counter() - t0
                err = self.recount(n, fam, g, out)
            except Exception:
                err = traceback.format_exc()
            self.ops += 1
            tally.record(err is None, err or "")
        self.times.append(busy)

    def recount(self, n: int, fam: str, g, out) -> str | None:
        if out.status.value != "Found":
            return None
        self.found += 1
        ref = reference.family_graph(n, fam)
        if (ref.labels != [lab.render() for lab in g.labels]
                or reference.witnesses(ref, out.partition.in_b).size):
            return f"local_search on ({n}, {fam}) returned a partition that fails the recount"
        return None

    def metrics(self) -> dict:
        return {"local_s": statistics.median(self.cycle_times()),
                "local_found_ratio": self.found / self.ops}
