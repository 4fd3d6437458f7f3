import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import edge_residues
from znvce import (
    Bipartition,
    EdgePair,
    FormatError,
    GraphFamily,
    PartitionError,
    Residue,
    TotalEdge,
    TotalOriginal,
    build_family,
    gamma,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    line_graph,
    parse_label,
    partition_from_json,
    partition_to_json,
    total_graph,
    vce_squarefree,
)
from znvce import serialize
from znvce.serialize import _load, graph_from_json_obj


class TestParseLabel:
    def test_residue_families(self):
        for fam in (GraphFamily.GAMMA, GraphFamily.NILRADICAL, GraphFamily.OMEGA):
            assert parse_label("12", fam) == Residue(12)
            assert parse_label(12, fam) == Residue(12)
            with pytest.raises(FormatError, match="residue labels"):
                parse_label("(3,5)", fam)

    def test_line_family(self):
        assert parse_label("(3,5)", GraphFamily.LINE_OF_GAMMA) == EdgePair(3, 5)
        with pytest.raises(FormatError, match="pair labels"):
            parse_label("15", GraphFamily.LINE_OF_GAMMA)

    def test_total_family_accepts_both(self):
        assert parse_label("15", GraphFamily.TOTAL_OF_GAMMA) == TotalOriginal(15)
        assert parse_label("(3,15)", GraphFamily.TOTAL_OF_GAMMA) == TotalEdge(3, 15)

    def test_garbage(self):
        with pytest.raises(FormatError):
            parse_label("x7", GraphFamily.GAMMA)


def test_json_object_shape():
    obj = json.loads(graph_to_json(gamma(15), GraphFamily.GAMMA))
    assert obj == {
        "n": 15,
        "family": "gamma",
        "vertices": ["3", "5", "6", "9", "10", "12"],
        "edges": [[0, 1], [0, 4], [1, 2], [1, 3], [1, 5], [2, 4], [3, 4], [4, 5]],
    }


def test_empty_graph_json():
    obj = json.loads(graph_to_json(gamma(7), GraphFamily.GAMMA))
    assert obj["vertices"] == [] and obj["edges"] == []


def test_roundtrip_residue_families():
    for n in range(2, 501):
        for fam in (GraphFamily.GAMMA, GraphFamily.NILRADICAL, GraphFamily.OMEGA):
            g = build_family(n, fam)
            back, fam_back = graph_from_json(graph_to_json(g, fam))
            assert fam_back is fam
            assert back == g
            assert back.modulus == n


def test_roundtrip_line_and_total():
    for n in range(2, 151):
        for fam in (GraphFamily.LINE_OF_GAMMA, GraphFamily.TOTAL_OF_GAMMA):
            g = build_family(n, fam)
            back, _ = graph_from_json(graph_to_json(g, fam))
            assert back == g


def test_roundtrip_large_spots():
    lg = line_graph(gamma(210))
    back, fam = graph_from_json(graph_to_json(lg, GraphFamily.LINE_OF_GAMMA))
    assert fam is GraphFamily.LINE_OF_GAMMA and back == lg
    tg = total_graph(gamma(480))
    back, _ = graph_from_json(graph_to_json(tg, GraphFamily.TOTAL_OF_GAMMA))
    assert back == tg


def test_serialization_is_byte_deterministic():
    a = graph_to_json(gamma(60), GraphFamily.GAMMA)
    b = graph_to_json(gamma(60), GraphFamily.GAMMA)
    assert a == b
    assert graph_to_dot(gamma(60), GraphFamily.GAMMA) == graph_to_dot(gamma(60), GraphFamily.GAMMA)


class TestGraphFromJsonErrors:
    def test_not_json(self):
        with pytest.raises(FormatError, match="not valid JSON"):
            graph_from_json("nope{")

    def test_not_an_object(self):
        with pytest.raises(FormatError, match="must be an object"):
            graph_from_json("[1,2]")

    def test_missing_keys(self):
        with pytest.raises(FormatError, match="missing"):
            graph_from_json('{"family": "gamma", "vertices": []}')

    def test_unknown_family(self):
        with pytest.raises(FormatError, match="unknown graph family"):
            graph_from_json('{"family": "cayley", "vertices": [], "edges": []}')

    def test_bad_edges(self):
        base = '{"family": "gamma", "vertices": ["2", "3"], "edges": %s}'
        for bad in ("[[0]]", "[[1, 0]]", "[[0, 5]]", "[[0, 0]]", '[["a", 1]]'):
            with pytest.raises(FormatError):
                graph_from_json(base % bad)

    @pytest.mark.parametrize("edges, message", [
        ("[[0]]", "malformed edge entry [0]"),
        ("[[0, 1, 2]]", "malformed edge entry [0, 1, 2]"),
        ("[[1, 0]]", "edge [1, 0] is out of range or not ascending"),
        ("[[0, 5]]", "edge [0, 5] is out of range or not ascending"),
        ("[[-1, 1]]", "edge [-1, 1] is out of range or not ascending"),
        ("[[0, 0]]", "edge [0, 0] is out of range or not ascending"),
        ('[["a", 1]]', "edge ['a', 1] is out of range or not ascending"),
        ("[[0, 1.0]]", "edge [0, 1.0] is out of range or not ascending"),
        ("[[0, [1]]]", "edge [0, [1]] is out of range or not ascending"),
        ("[[[0, 1]]]", "malformed edge entry [[0, 1]]"),
        ("[[0, 18446744073709551616]]",
         "edge [0, 18446744073709551616] is out of range or not ascending"),
        ("[[0, 1], [1, 0], [0, 9]]", "edge [1, 0] is out of range or not ascending"),
        ("[[0, 1], null]", "malformed edge entry None"),
        ("[[0, 1], [1, 2.0]]", "edge [1, 2.0] is out of range or not ascending"),
        ('[["0", "1"]]', "edge ['0', '1'] is out of range or not ascending"),
        ('[[0, 1], "12"]', "malformed edge entry '12'"),
        ("[[true, true]]", "edge [True, True] is out of range or not ascending"),
        ("[[false, true], [0, 1.5]]", "edge [0, 1.5] is out of range or not ascending"),
        ("[[0, null]]", "edge [0, None] is out of range or not ascending"),
        ("[[[0, 1], [1, 2]]]", "edge [[0, 1], [1, 2]] is out of range or not ascending"),
        ("[[0, 9223372036854775807]]",
         "edge [0, 9223372036854775807] is out of range or not ascending"),
        ("[[0, 9223372036854775808]]",
         "edge [0, 9223372036854775808] is out of range or not ascending"),
        ("[[true, 9223372036854775808]]",
         "edge [True, 9223372036854775808] is out of range or not ascending"),
        ("[[-9223372036854775809, 1]]",
         "edge [-9223372036854775809, 1] is out of range or not ascending"),
        ("5", "graph JSON 'edges' must be a list, got int"),
        ('{"0": 1}', "graph JSON 'edges' must be a list, got dict"),
        ('"01"', "graph JSON 'edges' must be a list, got str"),
    ])
    def test_bad_edge_names_the_first_bad_entry(self, edges, message):
        text = '{"family": "gamma", "vertices": ["2", "3", "4"], "edges": %s}' % edges
        with pytest.raises(FormatError) as exc:
            graph_from_json(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("vertices, kind", [("5", "int"), ("null", "NoneType"), ('"23"', "str")])
    def test_vertices_must_be_a_list(self, vertices, kind):
        text = '{"family": "gamma", "vertices": %s, "edges": []}' % vertices
        with pytest.raises(FormatError) as exc:
            graph_from_json(text)
        assert str(exc.value) == f"graph JSON 'vertices' must be a list, got {kind}"

    def test_bool_endpoints_count_as_ints(self):
        text = '{"family": "gamma", "vertices": ["2", "3", "4"], "edges": [[false, true], [1, 2]]}'
        g, _ = graph_from_json(text)
        assert g.edges() == [(0, 1), (1, 2)]

    def test_duplicate_labels(self):
        with pytest.raises(FormatError):
            graph_from_json('{"family": "gamma", "vertices": ["2", "2"], "edges": []}')

    @pytest.mark.parametrize("family", ["gamma", "nilradical", "omega"])
    @pytest.mark.parametrize("vertices, message", [
        ('["(3,5)", "5"]', "has residue labels, got '(3,5)'"),
        ('[3, "5", "(3,5)"]', "has residue labels, got '(3,5)'"),
        ('["3", "3.0"]', "cannot parse vertex label '3.0'"),
        ('["3", true]', "cannot parse vertex label 'True'"),
        ('["3", 5.0]', "cannot parse vertex label '5.0'"),
        ('["3", null]', "cannot parse vertex label 'None'"),
        ('["3", [5]]', "cannot parse vertex label '[5]'"),
        ('["3", 3]', "labels must be pairwise distinct"),
        ('["3", "003"]', "labels must be pairwise distinct"),
    ])
    def test_bad_residue_label_message(self, family, vertices, message):
        text = '{"family": "%s", "vertices": %s, "edges": []}' % (family, vertices)
        with pytest.raises(FormatError) as exc:
            graph_from_json(text)
        if message.startswith("has"):
            message = f"family {family} {message}"
        assert str(exc.value) == message

    @pytest.mark.parametrize("family", ["gamma", "nilradical", "omega"])
    def test_residue_labels_parse_as_ints(self, family):
        text = '{"family": "%s", "vertices": ["007", 5, "-3", " 4"], "edges": []}' % family
        g, _ = graph_from_json(text)
        assert g.labels == (Residue(7), Residue(5), Residue(-3), Residue(4))


def _outcome(read, text):
    """What a reader makes of `text`: the graph's keys, adjacency, modulus
    and family, or the exception's type and message."""
    try:
        g, family = read(text)
    except Exception as exc:
        return type(exc), str(exc)
    keys = g.keys()
    return keys.dtype, keys.tolist(), g.adj.tolist(), g.modulus, family


def _reference(text):
    return graph_from_json_obj(_load(text, "graph"))


def _assert_reads_as_reference(text):
    assert _outcome(graph_from_json, text) == _outcome(_reference, text)


# small graph files of every family, one of them empty, for the mutations below
_BASE_TEXTS = [graph_to_json(build_family(n, fam), fam) for fam, ns in [
    (GraphFamily.GAMMA, (7, 12, 36)), (GraphFamily.NILRADICAL, (16, 36)),
    (GraphFamily.OMEGA, (12, 36)), (GraphFamily.LINE_OF_GAMMA, (12, 15)),
    (GraphFamily.TOTAL_OF_GAMMA, (12, 15))] for n in ns]

# 19 digits, an Arabic-Indic three, (by `{nv}`) an id one past the last
# vertex, a backslash and an escaped "3"
_TOKENS = ["7", " ", "\n", "-", ".", "e", "0", "[", "]", ",", '"',
           "1234567890123456789", "\u0663", "{nv}", "\\", "\\u0033"]


@st.composite
def mutated_graph_texts(draw):
    text = draw(st.sampled_from(_BASE_TEXTS))
    nv = str(len(json.loads(text)["vertices"]))
    for _ in range(draw(st.integers(1, 3))):
        token = draw(st.sampled_from(_TOKENS)).replace("{nv}", nv)
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1)) if at < len(text) else 0
        text = text[:at] + token + text[at + cut:]
    return text


# piece sizes of the edge-list scan: small ones put cuts all through these files
_SCAN_SIZES = st.sampled_from([1, 5, 16, 64, serialize._SCAN_BYTES])


@settings(max_examples=1500, deadline=None)
@given(mutated_graph_texts(), _SCAN_SIZES)
def test_mutated_files_read_as_the_reference_reader_reads_them(text, scan_bytes):
    with mock.patch.object(serialize, "_SCAN_BYTES", scan_bytes):
        _assert_reads_as_reference(text)


@st.composite
def rearranged_graph_texts(draw):
    text = draw(st.sampled_from(_BASE_TEXTS[1:]))  # each has vertices and edges
    obj = json.loads(text)
    how = draw(st.sampled_from(["reversed", "earlier key", "key in a label", "trailing"]))
    if how == "reversed":
        e = draw(st.integers(0, len(obj["edges"]) - 1))
        obj["edges"][e].reverse()
        return json.dumps(obj)
    if how == "earlier key":
        edges = draw(st.sampled_from(["[]", "[[0, 1]]", "5", "null"]))
        return text.replace('"vertices": ', f'"edges": {edges}, "vertices": ', 1)
    if how == "key in a label":
        v = draw(st.integers(0, len(obj["vertices"]) - 1))
        obj["vertices"][v] += ', "edges": [[0, 1]]'
        return json.dumps(obj)
    return text + draw(st.sampled_from([" ", "\n", "}", "x", " \n\t"]))


@settings(max_examples=300, deadline=None)
@given(rearranged_graph_texts(), _SCAN_SIZES)
def test_rearranged_files_read_as_the_reference_reader_reads_them(text, scan_bytes):
    with mock.patch.object(serialize, "_SCAN_BYTES", scan_bytes):
        _assert_reads_as_reference(text)


def _refuse(*args, **kwargs):
    raise AssertionError("a file graph_to_json writes should not reach the general reader")


def test_files_graph_to_json_writes_take_the_bulk_path(monkeypatch):
    graphs = [(build_family(n, fam), fam) for fam in GraphFamily for n in range(2, 201)]
    graphs += [(build_family(695, GraphFamily.TOTAL_OF_GAMMA), GraphFamily.TOTAL_OF_GAMMA),
               (build_family(1207, GraphFamily.LINE_OF_GAMMA), GraphFamily.LINE_OF_GAMMA)]
    texts = [graph_to_json(g, fam) for g, fam in graphs]
    for name in ("_load", "_edge_ends", "_parse_keys", "parse_label"):
        monkeypatch.setattr(serialize, name, _refuse)
    for (g, fam), text in zip(graphs, texts):
        if g.n_vertices:
            back, fam_back = graph_from_json(text)
            assert back == g and fam_back is fam and back.modulus == g.modulus


@pytest.mark.parametrize("scan_bytes", [1, 7, 100])
def test_the_edge_list_scan_reads_across_its_pieces(monkeypatch, scan_bytes):
    graphs = [(build_family(n, fam), fam) for fam in GraphFamily for n in (30, 36, 64)]
    texts = [graph_to_json(g, fam) for g, fam in graphs]
    monkeypatch.setattr(serialize, "_SCAN_BYTES", scan_bytes)
    monkeypatch.setattr(serialize, "_load", _refuse)
    for (g, fam), text in zip(graphs, texts):
        if g.n_vertices:
            assert graph_from_json(text) == (g, fam)


@pytest.mark.parametrize("family, vertices", [
    ("gamma", '["3,5", "6", "9"]'),
    ("line-of-gamma", '["(3,5) (5,6)", "(6,9)", "(9,12)"]'),
    ("total-of-gamma", '["3", "(3,5) (5,6)", "(6,9)"]'),
    ("gamma", '["2", "9999999999999999999", "4"]'),
    ("total-of-gamma", '["2", "(2,9999999999999999999)", "(3,4)"]'),
])
def test_labels_the_scan_does_not_take_read_as_the_reference(family, vertices):
    # labels holding the separator that joins them, and values past int64
    text = '{"n": 15, "family": "%s", "vertices": %s, "edges": [[0, 1]]}' % (family, vertices)
    _assert_reads_as_reference(text)


_TOTAL_15 = graph_to_json(total_graph(gamma(15)), GraphFamily.TOTAL_OF_GAMMA)


@pytest.mark.parametrize("text, error", [
    (json.dumps(json.loads(_TOTAL_15), indent=1), None),
    (json.dumps(json.loads(_TOTAL_15), separators=(",", ":")), None),
    (_TOTAL_15.replace("[0, 1]", "[00, 1]", 1), "graph file is not valid JSON"),
    (_TOTAL_15.replace("[0, 1]", "[0, 1000000000000000000]", 1),
     r"edge \[0, 1000000000000000000\] is out of range or not ascending"),
])
def test_other_layouts_and_ids_fall_back_to_the_general_reader(monkeypatch, text, error):
    calls = []
    monkeypatch.setattr(serialize, "_load", lambda *a: calls.append(a) or _load(*a))
    if error is None:
        assert graph_from_json(text) == (total_graph(gamma(15)), GraphFamily.TOTAL_OF_GAMMA)
    else:
        with pytest.raises(FormatError, match=error):
            graph_from_json(text)
    assert calls == [(text, "graph")]


def test_dot_output_gamma_16():
    text = graph_to_dot(gamma(16), GraphFamily.GAMMA)
    lines = text.splitlines()
    assert lines[0] == "graph gamma_16 {"
    assert lines[-1] == "}"
    assert "  8 -- 10;" in lines
    assert sum(1 for ln in lines if "--" in ln) == 7
    assert sum(1 for ln in lines if ln.endswith(";") and "--" not in ln) == 7


def test_dot_quotes_pair_labels():
    text = graph_to_dot(line_graph(gamma(15)), GraphFamily.LINE_OF_GAMMA)
    assert 'graph line_of_gamma_15 {' in text
    assert '  "(3,5)";' in text
    assert '"(3,5)" -- "(5,6)";' in text


class TestPartitionSerialization:
    def test_roundtrip(self):
        g = gamma(15)
        part = vce_squarefree(15)
        text = partition_to_json(g, part)
        assert json.loads(text) == {"R": ["5", "10"], "B": ["3", "6", "9", "12"]}
        back = partition_from_json(text, g, GraphFamily.GAMMA)
        assert back == part

    def test_not_json(self):
        with pytest.raises(FormatError, match="not valid JSON"):
            partition_from_json("{", gamma(15), GraphFamily.GAMMA)

    def test_missing_sides(self):
        with pytest.raises(FormatError, match='"R" and "B"'):
            partition_from_json('{"R": ["3"]}', gamma(15), GraphFamily.GAMMA)

    def test_unknown_label(self):
        with pytest.raises(FormatError, match="unknown vertex label"):
            partition_from_json('{"R": ["3", "7"], "B": ["5"]}', gamma(15), GraphFamily.GAMMA)

    def test_listed_twice(self):
        g = gamma(15)
        with pytest.raises(FormatError, match="listed twice"):
            partition_from_json(
                '{"R": ["3", "5", "3"], "B": ["6", "9", "10", "12"]}', g, GraphFamily.GAMMA)

    def test_incomplete_cover(self):
        with pytest.raises(FormatError, match="covers 2 of 6"):
            partition_from_json('{"R": ["3"], "B": ["5"]}', gamma(15), GraphFamily.GAMMA)

    def test_empty_side(self):
        g = gamma(15)
        full = '{"R": ["3", "5", "6", "9", "10", "12"], "B": []}'
        with pytest.raises(PartitionError):
            partition_from_json(full, g, GraphFamily.GAMMA)

    @pytest.mark.parametrize("text, message", [
        ('{"R": ["3", "5", "3"], "B": ["6", "9", "10", "12"]}', "vertex 3 is listed twice"),
        ('{"R": ["5", "10"], "B": ["3", "6", "9", "012", "12"]}', "vertex 12 is listed twice"),
        ('{"R": ["5", "10", 5], "B": ["3", "6", "9", "12"]}', "vertex 5 is listed twice"),
        ('{"R": ["3"], "B": ["5"]}',
         "partition covers 2 of 6 vertices; every vertex must appear exactly once"),
        ('{"R": ["5", "10"], "B": ["3", "6", "9"]}',
         "partition covers 5 of 6 vertices; every vertex must appear exactly once"),
        ('{"R": ["3", "7"], "B": ["5"]}', "unknown vertex label '7'"),
        ('{"R": ["5", "10"], "B": ["3", "6", "9", "12", "15"]}', "unknown vertex label '15'"),
        ('{"R": ["5", "10"], "B": ["3", "6", "9", "(3,5)"]}',
         "family gamma has residue labels, got '(3,5)'"),
        ('{"R": ["5", "10", "x"], "B": ["3", "6", "9", "12"]}', "cannot parse vertex label 'x'"),
        ('{"R": [5.0], "B": ["3"]}', "cannot parse vertex label '5.0'"),
        ('{"R": ["5", "10", null], "B": ["3", "6", "9", "12"]}',
         "cannot parse vertex label 'None'"),
    ])
    def test_bad_entry_message(self, text, message):
        with pytest.raises(FormatError) as exc:
            partition_from_json(text, gamma(15), GraphFamily.GAMMA)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text", [
        '{"R": ["05", "10"], "B": ["3", "6", "9", "12"]}',
        '{"R": [5, 10], "B": ["3", "6", "9", "12"]}',
        '{"R": ["10", "5"], "B": ["12", "9", "6", "3"]}',
    ])
    def test_entries_need_not_be_canonical_or_ordered(self, text):
        back = partition_from_json(text, gamma(15), GraphFamily.GAMMA)
        assert back == vce_squarefree(15)
