"""JSON interchange and DOT export for graphs and partitions.

Graph schema: {"n": int, "family": str, "vertices": [label…], "edges": [[i,j]…]}
with i < j and edges sorted lexicographically. Partition schema:
{"R": [label…], "B": [label…]} where every vertex appears exactly once.
Labels render as decimal residues or "(a,b)" pairs; the family decides how
a string parses back.
"""
from __future__ import annotations

import json
import re

import numpy as np

from .errors import FormatError
from .graphs import (
    EdgePair,
    GraphFamily,
    LabeledGraph,
    Residue,
    VertexLabel,
    _check_distinct,
    _keys_of,
)
from .vce import Bipartition

_PAIR_RE = re.compile(r"^\((\d+),(\d+)\)$")

_RESIDUE_FAMILIES = (GraphFamily.GAMMA, GraphFamily.NILRADICAL, GraphFamily.OMEGA)


def parse_label(text, family: GraphFamily) -> VertexLabel:
    """Inverse of VertexLabel.render for the given family; accepts bare ints too."""
    s = text if isinstance(text, str) else str(text)
    m = _PAIR_RE.match(s)
    if m is None:
        if family is GraphFamily.LINE_OF_GAMMA:
            raise FormatError(f"family {family.value} has pair labels, got {s!r}")
        return Residue(_parse_residue(s))
    if family in _RESIDUE_FAMILIES:
        raise FormatError(f"family {family.value} has residue labels, got {s!r}")
    a, b = int(m.group(1)), int(m.group(2))
    if not a < b:
        raise FormatError(f"pair label {s!r} is not ascending")
    return EdgePair(a, b)


def _parse_residue(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise FormatError(f"cannot parse vertex label {s!r}") from None


def graph_to_json_obj(g: LabeledGraph, family: GraphFamily) -> dict:
    return {
        "n": g.modulus,
        "family": GraphFamily(family).value,
        "vertices": list(g.names()),
        "edges": np.stack(g.edge_ends(), axis=1).tolist(),
    }


def graph_to_json(g: LabeledGraph, family: GraphFamily) -> str:
    return json.dumps(graph_to_json_obj(g, family))


def _load(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what} file is not valid JSON: {exc}") from None
    except ValueError:
        # Python's int-string limit, 4300 digits by default
        raise FormatError(f"{what} file holds an integer too long to read") from None
    except RecursionError:
        raise FormatError(f"{what} file nests lists or objects too deeply to read") from None


def graph_from_json(text: str) -> tuple[LabeledGraph, GraphFamily]:
    """Read a graph file. Text laid out exactly as graph_to_json writes it,
    whose labels are all rendered ones and whose edges are ascending and in
    range, has both its labels and its edge list read by digit-run scans
    (_digit_runs); only the rest goes to json.loads. Any other text is read
    whole as graph_from_json_obj reads json.loads(text). Both give the same
    graph, or raise the same error."""
    split = _split_edges(text)
    if split is not None:
        obj, ends = split
        family = _family_of(obj)
        keys = _rendered_keys(obj["vertices"], family)
        if keys is not None and _ascending_in_range(ends, len(keys)):
            return _graph(keys, ends, obj.get("n")), family
    return graph_from_json_obj(_load(text, "graph"))


def graph_from_json_obj(obj) -> tuple[LabeledGraph, GraphFamily]:
    family = _family_of(obj)
    keys = _keys_of([parse_label(s, family) for s in obj["vertices"]])
    return _graph(keys, _edge_ends(obj["edges"], len(keys)), obj.get("n")), family


def _family_of(obj) -> GraphFamily:
    """The family of a graph object, once its keys and lists are checked."""
    if not isinstance(obj, dict):
        raise FormatError("graph JSON must be an object")
    for key in ("family", "vertices", "edges"):
        if key not in obj:
            raise FormatError(f"graph JSON is missing the {key!r} key")
    for key in ("vertices", "edges"):
        if not isinstance(obj[key], (list, tuple)):
            raise FormatError(f"graph JSON {key!r} must be a list, got {type(obj[key]).__name__}")
    try:
        return GraphFamily(obj["family"])
    except ValueError:
        raise FormatError(f"unknown graph family {obj['family']!r}") from None


def _graph(keys: np.ndarray, ends: np.ndarray, modulus) -> LabeledGraph:
    try:
        _check_distinct(keys)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    nv = len(keys)
    adj = np.zeros((nv, nv), dtype=bool)
    adj[ends[:, 0], ends[:, 1]] = True
    adj[ends[:, 1], ends[:, 0]] = True
    return LabeledGraph._from_keys(keys, np.packbits(adj, axis=1), modulus)


_EDGES_KEY = ', "edges": '

# digits of the longest id _digit_runs reads: 10**18 - 1 < 2**63
_MAX_DIGITS = 18

# bytes of edge list one _digit_runs call scans: pieces of 64 KiB read
# total-of-gamma(695)'s 40 296 edges in 2.3 ms, against 3.9 ms in one piece
# and 2.4-3.3 ms for 32 KiB..256 KiB (2-core Xeon); small pieces keep the
# temporaries in cache and off fresh pages
_SCAN_BYTES = 1 << 16


def _split_edges(text: str) -> tuple[dict, np.ndarray] | None:
    """The graph object with its edge list left empty, and that list as an
    (|E|, 2) int64 array, when `text` ends with the list as json.dumps
    writes it: `, "edges": [[i, j], …]}` or `, "edges": []}`. None for any
    other text.

    Only the head, with `[]` put in for the list, goes to json.loads. The
    space before `"edges"` shows its quote is unescaped, so if the head
    parses, the key is a member of the top-level object and the last one:
    json.loads(text) is that object with the scanned list for "edges"."""
    k = text.rfind(_EDGES_KEY)
    if k < 0:
        return None
    start = k + len(_EDGES_KEY)
    if text.endswith(_EDGES_KEY + "[]}"):
        flat = np.empty(0, dtype=np.int64)
    elif text.startswith("[[", start) and text.endswith("]]}"):
        # cut at the first "], [" past every _SCAN_BYTES: each piece must
        # read as pairs without their outer brackets, so the pieces joined
        # by "], [" are the whole list
        start, stop, pieces = start + 2, len(text) - 3, []
        while True:
            cut = text.find("], [", start + _SCAN_BYTES, stop)
            values = _digit_runs(text[start:stop if cut < 0 else cut], (", ", "], ["))
            if values is None:
                return None
            pieces.append(values)
            if cut < 0:
                break
            start = cut + 4
        flat = np.concatenate(pieces)
    else:
        return None
    try:
        obj = json.loads(text[:k] + _EDGES_KEY + "[]}")
    except (ValueError, RecursionError):
        return None
    if not isinstance(obj, dict) or obj.get("edges") != []:
        return None
    return obj, flat.reshape(-1, 2)


def _rendered_keys(entries, family: GraphFamily) -> np.ndarray | None:
    """The label keys of `entries` when every entry is a str as render()
    writes it for `family`: residues, then "(a,b)" pairs with a < b, each
    kind read by one _digit_runs scan. None for anything else."""
    if not set(map(type, entries)) <= {str}:
        return None
    if family in _RESIDUE_FAMILIES:
        split = len(entries)
    elif family is GraphFamily.LINE_OF_GAMMA:
        split = 0
    else:
        split = next((i for i, s in enumerate(entries) if s[:1] == "("), len(entries))
    residues, pairs = entries[:split], entries[split:]
    # each kind joined by a separator no rendered label of it holds, so a
    # label is what lies between two
    ks = ab = np.empty(0, dtype=np.int64)
    if residues:
        ks = _digit_runs(",".join(residues), (",",))
    if pairs:
        joined = " ".join(pairs)
        ab = (_digit_runs(joined[1:-1], (",", ") ("))
              if joined.startswith("(") and joined.endswith(")") else None)
    if ks is None or ab is None or len(ks) != len(residues) or len(ab) != 2 * len(pairs):
        return None
    ab = ab.reshape(-1, 2)
    if not (ab[:, 0] < ab[:, 1]).all():
        return None
    return np.concatenate([np.stack([ks, ks], axis=1), ab])


def _digit_runs(text: str, seps: tuple[str, ...]) -> np.ndarray | None:
    """The m values of `text` as int64 when it is exactly
    d0 s0 d1 s1 … d(m-1), with separator s_i = seps[i % len(seps)]
    and m >= 1 a multiple of len(seps). Every d must be an ASCII digit run as
    str(int) writes it: no leading zero, at most _MAX_DIGITS digits. The
    separators hold no digit. None for any other text.

    One pass over the bytes finds the digit runs. Each gap between two runs
    must open with the separator due there, read by position, and the gaps
    must hold as many bytes as those separators, so each is exactly its
    separator. The values accumulate one digit column at a time."""
    if not text.isascii():
        return None
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # less "0", the digits read 0..9 and every other byte wraps past 9
    dig = np.concatenate(([False], (b - np.uint8(ord("0"))) < 10, [False]))
    bounds = np.flatnonzero(dig[1:] != dig[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    m, p = len(starts), len(seps)
    if m == 0 or m % p or starts[0] != 0 or ends[-1] != len(b):
        return None
    width = ends - starts
    if width.max() > _MAX_DIGITS or ((b[starts] == ord("0")) & (width > 1)).any():
        return None
    if len(b) - width.sum() != sum(map(len, seps)) * (m // p) - len(seps[-1]):
        return None
    for r, sep in enumerate(seps):
        # clipped reads past the end land on the last digit, which no separator holds
        at = ends[:-1][r::p]
        for c, ch in enumerate(sep.encode("ascii")):
            if not (b.take(at + c, mode="clip") == ch).all():
                return None
    # column `col` counts from each run's last digit; a read before a run's
    # first digit is masked to "0"
    e = ends - 1
    values = b[e].astype(np.int64) - ord("0")
    for col in range(1, int(width.max())):
        e -= 1
        values += (np.where(width > col, b[e], ord("0")).astype(np.int64) - ord("0")) * 10**col
    return values


def _ascending_in_range(ends: np.ndarray, nv: int) -> bool:
    i, j = ends[:, 0], ends[:, 1]
    return bool(((0 <= i) & (i < j) & (j < nv)).all())


def _edge_ends(edges, nv: int) -> np.ndarray:
    """The edge list as an (|E|, 2) int64 array, every entry a pair of ints
    (bools count, as for isinstance) with 0 <= i < j < nv; FormatError
    names the first bad entry."""
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2):
            raise FormatError(f"malformed edge entry {e!r}")
        i, j = e
        if not (isinstance(i, int) and isinstance(j, int) and 0 <= i < j < nv):
            raise FormatError(f"edge {e!r} is out of range or not ascending")
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def _dot_name(s: str) -> str:
    return s if s.isdigit() else f'"{s}"'


def graph_to_dot(g: LabeledGraph, family: GraphFamily) -> str:
    """Undirected DOT; residue names bare, pair names quoted."""
    name = f"{GraphFamily(family).value}_{g.modulus}".replace("-", "_")
    lines = [f"graph {name} {{"]
    dot_names = [_dot_name(s) for s in g.names()]
    for s in dot_names:
        lines.append(f"  {s};")
    for i, j in g.edges():
        lines.append(f"  {dot_names[i]} -- {dot_names[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def partition_to_json_obj(g: LabeledGraph, part: Bipartition) -> dict:
    names = g.names()
    return {
        "R": [names[i] for i in part.r_ids.tolist()],
        "B": [names[i] for i in part.b_ids.tolist()],
    }


def partition_to_json(g: LabeledGraph, part: Bipartition) -> str:
    return json.dumps(partition_to_json_obj(g, part))


def partition_from_json(text: str, g: LabeledGraph, family: GraphFamily) -> Bipartition:
    """Parse {"R": […], "B": […]} against a known graph.

    Entries that render a vertex's label exactly are matched in bulk; any
    other entry is parsed by `family`, which also names a bad entry.
    Raises FormatError for unparseable input, unknown labels, or a vertex
    listed twice or missing; PartitionError (from Bipartition) for empty sides.
    """
    obj = _load(text, "partition")
    if not isinstance(obj, dict) or "R" not in obj or "B" not in obj:
        raise FormatError('partition JSON must be an object with "R" and "B" lists')
    for side in ("R", "B"):
        if not isinstance(obj[side], list):
            raise FormatError(
                f"partition JSON {side!r} must be a list, got {type(obj[side]).__name__}")
    # entries that are all rendered labels, each vertex once, are looked up
    # in bulk; anything else takes the walk below, which names a bad entry
    r, b = obj["R"], obj["B"]
    if set(map(type, r)) | set(map(type, b)) <= {str}:
        ids = dict(zip(g.names(), range(g.n_vertices)))
        try:
            r_ids, b_ids = list(map(ids.__getitem__, r)), list(map(ids.__getitem__, b))
        except KeyError:
            pass
        else:
            if len(r) + len(b) == g.n_vertices == len(set(r_ids).union(b_ids)):
                in_b = np.zeros(g.n_vertices, dtype=bool)
                in_b[b_ids] = True
                return Bipartition(in_b)
    seen: set[int] = set()
    sides: dict[str, list[int]] = {"R": [], "B": []}
    for side in ("R", "B"):
        for entry in obj[side]:
            lab = parse_label(entry, family)
            try:
                v = g.id_of(lab)
            except KeyError:
                raise FormatError(f"unknown vertex label {lab.render()!r}") from None
            if v in seen:
                raise FormatError(f"vertex {lab.render()} is listed twice")
            seen.add(v)
            sides[side].append(v)
    if len(seen) != g.n_vertices:
        raise FormatError(
            f"partition covers {len(seen)} of {g.n_vertices} vertices; "
            "every vertex must appear exactly once")
    return Bipartition.from_sides(g.n_vertices, sides["R"], sides["B"])
