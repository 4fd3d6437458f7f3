"""Command-line front end: build, construct, check, search, survey."""
from __future__ import annotations

import argparse
import csv
import io
import sys

from .constructions import Exists, certify, dispatch
from .errors import DomainError, FormatError, PartitionError
from .graphs import GraphFamily, LabeledGraph, build_family, family_graphs
from .rings import modulus_shape
from .search import DEFAULT_VERTEX_CAP, SearchStatus, exact_search, local_search
from .serialize import (
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    partition_from_json,
)
from .vce import Bipartition, Verdict, check_bipartition

_FAMILY_CHOICES = [f.value for f in GraphFamily]


def cmd_build(n: int, family: GraphFamily, fmt: str) -> str:
    g = build_family(n, family)
    if fmt == "dot":
        return graph_to_dot(g, family)
    if fmt == "json":
        return graph_to_json(g, family)
    raise DomainError(f"unknown format {fmt!r}")


def _side_lines(g: LabeledGraph, part: Bipartition) -> list[str]:
    """The `R: …` and `B: …` lines, each side's labels by vertex id."""
    names = g.names()
    return [f"{side}: " + " ".join(names[i] for i in ids.tolist())
            for side, ids in (("R", part.r_ids), ("B", part.b_ids))]


def cmd_construct(n: int, family: GraphFamily, cap: int = DEFAULT_VERTEX_CAP) -> tuple[str, int]:
    try:
        cert = dispatch(n, family, vertex_cap=cap)
    except DomainError as exc:
        return f"error: {exc}\n", 2
    if cert is None:
        return ("unknown: no construction applies, the graph exceeds the exhaustive cap, "
                "and the twin-class search within 2^(cap-1) vectors found no partition\n"), 2
    if not isinstance(cert, Exists):
        return f"NotVce: {cert.witness.render()}\n", 1
    lines = _side_lines(cert.graph, cert.partition) + [
        "verdict: VeryCostEffective",
        f"source: {cert.source_tag}",
    ]
    return "\n".join(lines) + "\n", 0


def _read_text(path: str, what: str) -> str:
    """The file at `path` decoded as UTF-8; FormatError if it is not."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise FormatError(f"{what} file is not UTF-8 text") from None


def cmd_check(graph_path: str, partition_path: str) -> tuple[str, int]:
    try:
        g, family = graph_from_json(_read_text(graph_path, "graph"))
        part = partition_from_json(_read_text(partition_path, "partition"), g, family)
    except (OSError, FormatError, PartitionError) as exc:
        return f"error: {exc}\n", 3
    report = check_bipartition(g, part)
    names = g.names()
    text = "".join([f"{name} [{'RB'[b]}]: inside {i} outside {o} {verdict}\n"
                    for name, b, i, o, verdict in zip(names, part.in_b.tolist(), report.inside.tolist(),
                                                      report.outside.tolist(), report.verdict_texts())])
    text += f"partition verdict: {report.partition_verdict.value}\n"
    if report.witnesses:
        text += "witnesses: " + " ".join(names[v] for v in report.witnesses) + "\n"
    code = 0 if report.partition_verdict is Verdict.VERY_COST_EFFECTIVE else 1
    return text, code


def cmd_search(
    n: int | None = None,
    family: GraphFamily = GraphFamily.GAMMA,
    graph_path: str | None = None,
    cap: int = DEFAULT_VERTEX_CAP,
    local: bool = False,
    seed: int = 0,
    restarts: int = 32,
    steps: int = 1024,
) -> tuple[str, int]:
    try:
        if graph_path is not None:
            g, family = graph_from_json(_read_text(graph_path, "graph"))
        else:
            if n is None:
                return "error: provide either a modulus or a graph file\n", 2
            g = build_family(n, family)
        if local:
            out = local_search(g, max_restarts=restarts, max_steps=steps, rng_seed=seed)
        else:
            out = exact_search(g, cap)
    except (OSError, FormatError, DomainError) as exc:
        return f"error: {exc}\n", 2
    cert = certify(g, out)  # verifies a found partition, as construct does
    lines = [f"status: {out.status.value}",
             f"examined: {out.partitions_examined}"]
    if out.reason:
        lines.append(f"reason: {out.reason}")
    if isinstance(cert, Exists):
        lines += _side_lines(g, cert.partition)
    code = {SearchStatus.FOUND: 0, SearchStatus.NONE_EXISTS: 1,
            SearchStatus.INCONCLUSIVE: 2}[out.status]
    return "\n".join(lines) + "\n", code


def _survey_row(n: int, family: GraphFamily, cap: int, g: LabeledGraph) -> list:
    """The survey CSV row of (n, family), whose graph is g: n, family, shape,
    vertices, verdict and source."""
    row = [n, family.value, modulus_shape(n).kind.value, g.n_vertices]
    if g.n_vertices == 0:
        return row + ["Empty-graph", ""]
    cert = dispatch(n, family, vertex_cap=cap, graph=g)
    if cert is None:
        return row + ["Unknown", ""]
    if isinstance(cert, Exists):
        verdict = "VCE-by-construction" if cert.source is not None else "VCE-by-search"
        return row + [verdict, cert.source_tag]
    return row + ["Not-VCE", cert.witness.tag]


def cmd_survey(n_min: int, n_max: int, families: list[GraphFamily] | None = None,
               cap: int = DEFAULT_VERTEX_CAP) -> str:
    if not 2 <= n_min <= n_max:
        raise DomainError(f"need 2 <= n_min <= n_max, got {n_min}..{n_max}")
    fams = sorted({GraphFamily(f) for f in families or GraphFamily}, key=lambda f: f.value)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", "family", "shape", "vertices", "verdict", "source"])
    for n in range(n_min, n_max + 1):
        # each modulus's graphs come from one build; a row lets go of its own
        graphs = family_graphs(n, fams)
        for fam in fams:
            writer.writerow(_survey_row(n, fam, cap, graphs.pop(fam)))
    return out.getvalue()


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="znvce",
        description="Zero-divisor graph families over Z_n and very-cost-effective bipartitions")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a graph and print DOT or JSON")
    b.add_argument("n", type=int)
    b.add_argument("--family", choices=_FAMILY_CHOICES, default="gamma")
    b.add_argument("--format", choices=["dot", "json"], default="json")
    b.add_argument("--out", help="write to a file instead of stdout")

    c = sub.add_parser("construct", help="run the applicable construction and certify")
    c.add_argument("n", type=int)
    c.add_argument("--family", choices=_FAMILY_CHOICES, default="gamma")
    cap_help = ("vertex cap of the exhaustive fallback; past it, the twin-class "
                "search examines at most 2^(cap-1) vectors")
    c.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP, help=cap_help)

    k = sub.add_parser("check", help="verify a partition file against a graph file")
    k.add_argument("graph", help="graph JSON path")
    k.add_argument("partition", help="partition JSON path")

    s = sub.add_parser("search", help="search for a very-cost-effective bipartition")
    s.add_argument("--n", type=int)
    s.add_argument("--family", choices=_FAMILY_CHOICES, default="gamma")
    s.add_argument("--graph", help="graph JSON path (alternative to --n)")
    s.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP, help=cap_help)
    s.add_argument("--local", action="store_true", help="hill climbing instead of exhaustive")
    s.add_argument("--seed", type=int, default=0, help="seed of the --local starts (>= 0)")
    s.add_argument("--restarts", type=int, default=32, help="--local random starts (>= 1)")
    s.add_argument("--steps", type=int, default=1024, help="--local flips per start (>= 1)")

    v = sub.add_parser("survey", help="tabulate verdicts over a range of moduli")
    v.add_argument("n_min", type=int)
    v.add_argument("n_max", type=int)
    v.add_argument("--families", nargs="+", choices=_FAMILY_CHOICES)
    v.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP, help=cap_help)
    v.add_argument("--out", help="write CSV to a file instead of stdout")

    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "build":
            text = cmd_build(args.n, GraphFamily(args.family), args.format)
            code = 0
        elif args.command == "construct":
            text, code = cmd_construct(args.n, GraphFamily(args.family), args.cap)
        elif args.command == "check":
            text, code = cmd_check(args.graph, args.partition)
        elif args.command == "search":
            text, code = cmd_search(
                n=args.n, family=GraphFamily(args.family), graph_path=args.graph,
                cap=args.cap, local=args.local, seed=args.seed,
                restarts=args.restarts, steps=args.steps)
        else:
            families = [GraphFamily(f) for f in args.families] if args.families else None
            text = cmd_survey(args.n_min, args.n_max, families, args.cap)
            code = 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's says how much it could not allocate; a bare one says nothing
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2
    out_path = getattr(args, "out", None)
    if text.startswith("error:"):
        sys.stderr.write(text)
    elif out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
