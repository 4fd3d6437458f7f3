"""znvce benchmark: one closed-loop client driving the public API.

    python3 perfbench/run.py --workload survey|certify|local --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from `src/`.
Every run has three phases. The workload's own phase runs in whole batches
for about `--seconds` (at least one batch); the other two run as small fixed
probes, six passes each, their units spread evenly over the same time, so
that every end-to-end metric has a value on every workload:

- survey:  cmd_survey(2, 120) over all five families, in six ranges of n
           (probe: 27..39, x6)
- certify: dispatch, write JSON, cmd_check, on seeded stratified passes
           over the (n, family) pairs that have a construction (probe: the
           same 10 pairs per family of at most 600 vertices, x6, each pass
           in three units)
- local:   local_search with the CLI defaults over a fixed batch of the
           golden survey's Unknown rows, rng_seed = --seed, in six slices
           (probe: 4 fixed rows, x6, one row a unit)

With --trace 1 only the workload's own phase runs, under the tracer, and
the result holds the per-layer metrics. The last line of standard output is
the JSON result; a fuller record (environment, errors, survey row costs,
spans) goes to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

# float32 matmul runs in brute_force, local_search and the line/total
# builders; one BLAS thread keeps runs comparable and never exceeds nproc
BLAS_THREADS = 1

SETUP_RUNS = 21
PROBE_REPEATS = 6
OWN_SLICES = 6
SURVEY_FULL = (2, 120)
SURVEY_PROBE = (27, 39)
CERT_STRATA = 60
CERT_PROBE_SEED, CERT_PROBE_STRATA = 0, 10
# the certify probe keeps to graphs of at most CERT_PROBE_V_MAX vertices, so
# that its percentiles fall among many pairs of like cost rather than between
# a few small graphs and a few of thousands of vertices
CERT_PROBE_V_MAX, CERT_PROBE_SLICES = 600, 3
LOCAL_PROBE_ROWS = [(20, "total-of-gamma"), (30, "line-of-gamma"),
                    (36, "line-of-gamma"), (48, "gamma")]
LOCAL_PROBE_SEED = 1

WORKLOADS = ("survey", "certify", "local")
END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mib": "MiB", "survey_s": "s", "unknown_rows": "count",
    "construct_p50_ms": "ms", "construct_p90_ms": "ms", "check_p50_ms": "ms",
    "check_p90_ms": "ms", "local_s": "s", "local_found_ratio": "ratio",
}


def _pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    reported = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            reported = fn()
    cpu = "unknown"
    if Path("/proc/cpuinfo").exists():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_pinned": BLAS_THREADS, "blas_threads_reported": reported,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import resource

    import phases
    from tracing import NullTracer, Tracer, layer_metrics, row_costs

    tally = phases.Tally()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    pool = phases.certify_pool() if workload == "certify" or not trace else None
    phase = {
        "survey": lambda: phases.Survey(*SURVEY_FULL, chunks=OWN_SLICES),
        "certify": lambda: phases.Certify(pool, seed, CERT_STRATA, workdir, anchored=True,
                                          slices=OWN_SLICES),
        "local": lambda: phases.Local(phases.local_batch(phases.LOCAL_STRIDE), seed,
                                      slices=OWN_SLICES),
        "survey-probe": lambda: phases.Survey(*SURVEY_PROBE),
        "certify-probe": lambda: phases.Certify(
            {f: [e for e in entries if e[3] <= CERT_PROBE_V_MAX] for f, entries in pool.items()},
            CERT_PROBE_SEED, CERT_PROBE_STRATA, workdir, anchored=False, slices=CERT_PROBE_SLICES),
        "local-probe": lambda: phases.Local(LOCAL_PROBE_ROWS, LOCAL_PROBE_SEED,
                                            slices=len(LOCAL_PROBE_ROWS)),
    }
    own = phase[workload]()
    probes = [] if trace else [phase[f"{w}-probe"]() for w in WORKLOADS if w != workload]
    tracer = Tracer() if trace else NullTracer()
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    try:
        setup = None if trace else phases.setup_seconds(SETUP_RUNS)
        t0 = perf_counter()
        with tracer:
            phases.drive(own, probes, seconds, PROBE_REPEATS, tally, tracer)
        record["own_phase"] = {"wall_s": perf_counter() - t0, "busy_s": sum(own.times),
                               "ops": own.ops}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        layers = layer_metrics(tracer.spans, record["own_phase"]["wall_s"], tracer.op)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["survey_row_costs"] = row_costs(tracer.spans)
        (OUT / f"spans-{workload}-{seed}.json").write_text(json.dumps(tracer.dump()))
    else:
        values = {"setup_s": setup,
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        for p in (own, *probes):
            values.update(p.metrics())
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    record.update(errors=tally.errors[:20], metrics=metrics)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics, "record": record}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    if not (ROOT / "src" / "znvce" / "__init__.py").is_file():
        print(f"error: no znvce package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = result.pop("record")
    record["environment"] = environment()
    record["failed_ratio"] = result["failed"] / result["attempted"]
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"environment: {json.dumps(record['environment'])}")
    for err in record["errors"]:
        print(f"FAILED: {err.strip()}")
    for row in record.get("survey_row_costs", [])[:5]:
        print(f"survey row {row['row']}: {row['s']:.3f} s")
    print(f"failed_ratio: {record['failed_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
