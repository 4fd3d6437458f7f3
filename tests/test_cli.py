import json
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import ref_check_text
from znvce import (
    Bipartition,
    GraphFamily,
    build_family,
    cli,
    constructions,
    dispatch,
    gamma,
    graph_to_json,
    partition_to_json,
    total_graph,
)
from znvce.cli import (
    cmd_build,
    cmd_check,
    cmd_construct,
    cmd_search,
    cmd_survey,
    main,
)


def write(path, text):
    path.write_text(text)
    return str(path)


GAMMA_15_JSON = graph_to_json(gamma(15), GraphFamily.GAMMA)
GOOD_PARTITION = '{"R": ["3", "6", "9", "12"], "B": ["5", "10"]}'
BAD_PARTITION = '{"R": ["3", "6", "9", "12", "5"], "B": ["10"]}'


class TestBuild:
    def test_dot_gamma_16(self):
        text = cmd_build(16, GraphFamily.GAMMA, "dot")
        assert text.startswith("graph gamma_16 {")
        assert "  8 -- 10;" in text
        assert text.count("--") == 7

    def test_json_prime_is_empty(self):
        obj = json.loads(cmd_build(7, GraphFamily.GAMMA, "json"))
        assert obj == {"n": 7, "family": "gamma", "vertices": [], "edges": []}

    def test_json_line_of_gamma_15(self):
        obj = json.loads(cmd_build(15, GraphFamily.LINE_OF_GAMMA, "json"))
        assert len(obj["vertices"]) == 8
        assert len(obj["edges"]) == 16  # 4-regular: 8*4/2

    def test_byte_determinism(self):
        for fmt in ("dot", "json"):
            assert cmd_build(60, GraphFamily.GAMMA, fmt) == cmd_build(60, GraphFamily.GAMMA, fmt)

    def test_unknown_format(self):
        from znvce import DomainError
        with pytest.raises(DomainError):
            cmd_build(15, GraphFamily.GAMMA, "xml")


class TestConstruct:
    def test_squarefree_certificate(self):
        text, code = cmd_construct(30, GraphFamily.GAMMA)
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "R: 5 10 15 20 25"
        assert lines[2] == "verdict: VeryCostEffective"
        assert lines[3] == "source: Thm2_1_Squarefree"

    def test_omega_isolated(self):
        text, code = cmd_construct(12, GraphFamily.OMEGA)
        assert code == 1
        assert text == "NotVce: isolated vertex 2\n"

    def test_search_fallback(self):
        text, code = cmd_construct(49, GraphFamily.GAMMA)
        assert code == 0
        assert "source: Search" in text

    def test_exhausted(self):
        text, code = cmd_construct(10, GraphFamily.TOTAL_OF_GAMMA)
        assert code == 1
        assert "exhaustive search examined 255 bipartitions" in text

    def test_empty_graph(self):
        text, code = cmd_construct(7, GraphFamily.GAMMA)
        assert code == 2
        assert text.startswith("error:")

    def test_unknown_beyond_cap(self):
        text, code = cmd_construct(36, GraphFamily.TOTAL_OF_GAMMA)
        assert code == 2
        assert text.startswith("unknown:")

    def test_class_search_beyond_cap(self):
        text, code = cmd_construct(100, GraphFamily.GAMMA)
        assert code == 0
        assert text.splitlines()[-2:] == ["verdict: VeryCostEffective", "source: Search"]


class TestCheck:
    def test_passing_partition(self, tmp_path):
        gp = write(tmp_path / "g.json", GAMMA_15_JSON)
        pp = write(tmp_path / "p.json", GOOD_PARTITION)
        text, code = cmd_check(gp, pp)
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "3 [R]: inside 0 outside 2 VeryCostEffective"
        assert "partition verdict: VeryCostEffective" in lines
        assert not any(ln.startswith("witnesses") for ln in lines)

    def test_failing_partition_lists_witnesses(self, tmp_path):
        gp = write(tmp_path / "g.json", GAMMA_15_JSON)
        pp = write(tmp_path / "p.json", BAD_PARTITION)
        text, code = cmd_check(gp, pp)
        assert code == 1
        lines = text.splitlines()
        assert "5 [R]: inside 4 outside 0 NotCostEffective" in lines
        assert "10 [B]: inside 0 outside 4 VeryCostEffective" in lines
        assert "partition verdict: Neither" in lines
        assert lines[-1] == "witnesses: 3 5 6 9 12"

    def test_missing_file(self, tmp_path):
        pp = write(tmp_path / "p.json", GOOD_PARTITION)
        text, code = cmd_check(str(tmp_path / "absent.json"), pp)
        assert code == 3 and text.startswith("error:")

    def test_unparseable_graph(self, tmp_path):
        gp = write(tmp_path / "g.json", "{broken")
        pp = write(tmp_path / "p.json", GOOD_PARTITION)
        text, code = cmd_check(gp, pp)
        assert code == 3 and "not valid JSON" in text

    @pytest.mark.parametrize("which", ["graph", "partition"])
    def test_integer_literal_past_the_int_string_limit(self, tmp_path, capsys, which):
        # json.loads refuses integer literals of more than 4300 digits
        huge = "9" * 5000
        graph = GAMMA_15_JSON.replace("[4, 5]", f"[4, {huge}]")
        partition = GOOD_PARTITION.replace('"12"', huge)
        assert graph != GAMMA_15_JSON and partition != GOOD_PARTITION
        gp = write(tmp_path / "g.json", graph if which == "graph" else GAMMA_15_JSON)
        pp = write(tmp_path / "p.json", partition if which == "partition" else GOOD_PARTITION)
        text, code = cmd_check(gp, pp)
        assert code == 3
        assert text == f"error: {which} file holds an integer too long to read\n"
        assert main(["check", gp, pp]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == text

    @pytest.mark.parametrize("which", ["graph", "partition"])
    def test_nesting_past_the_recursion_limit(self, tmp_path, capsys, which):
        deep = "[" * 100_000 + "]" * 100_000
        gp = write(tmp_path / "g.json", deep if which == "graph" else GAMMA_15_JSON)
        pp = write(tmp_path / "p.json", deep if which == "partition" else GOOD_PARTITION)
        text, code = cmd_check(gp, pp)
        assert code == 3
        assert text == f"error: {which} file nests lists or objects too deeply to read\n"
        assert main(["check", gp, pp]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == text

    @pytest.mark.parametrize("which", ["graph", "partition"])
    def test_file_that_is_not_utf8(self, tmp_path, capsys, which):
        binary = tmp_path / "bin.json"
        binary.write_bytes(b"\xff" + GAMMA_15_JSON.encode())
        gp = str(binary) if which == "graph" else write(tmp_path / "g.json", GAMMA_15_JSON)
        pp = str(binary) if which == "partition" else write(tmp_path / "p.json", GOOD_PARTITION)
        text, code = cmd_check(gp, pp)
        assert code == 3
        assert text == f"error: {which} file is not UTF-8 text\n"
        assert main(["check", gp, pp]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == text

    def test_files_are_read_as_utf8_whatever_the_locale(self, tmp_path):
        # a residue label in Arabic-Indic digits, read under an ASCII locale
        graph = '{"n": 15, "family": "gamma", "vertices": ["3", "\u0665"], "edges": [[0, 1]]}'
        (tmp_path / "g.json").write_bytes(graph.encode("utf-8"))
        write(tmp_path / "p.json", '{"R": ["3"], "B": ["5"]}')
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run([sys.executable, "-m", "znvce.cli", "check", "g.json", "p.json"],
                             cwd=tmp_path, env=env, capture_output=True, text=True)
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout.splitlines()[1] == "5 [B]: inside 0 outside 1 VeryCostEffective"

    def test_vertex_listed_twice(self, tmp_path):
        gp = write(tmp_path / "g.json", GAMMA_15_JSON)
        pp = write(tmp_path / "p.json", '{"R": ["3", "3", "6", "9", "12"], "B": ["5", "10"]}')
        text, code = cmd_check(gp, pp)
        assert code == 3 and "listed twice" in text

    def test_empty_side(self, tmp_path):
        gp = write(tmp_path / "g.json", GAMMA_15_JSON)
        pp = write(tmp_path / "p.json", '{"R": ["3", "5", "6", "9", "10", "12"], "B": []}')
        text, code = cmd_check(gp, pp)
        assert code == 3 and text.startswith("error:")

    def test_label_family_mismatch(self, tmp_path):
        gp = write(tmp_path / "g.json", GAMMA_15_JSON)
        pp = write(tmp_path / "p.json", '{"R": ["(3,5)"], "B": ["5"]}')
        text, code = cmd_check(gp, pp)
        assert code == 3 and "residue labels" in text


class TestCheckMatchesReference:
    """`check` output and exit code, byte for byte, against the renderer
    as first written (helpers.ref_check_text)."""

    @pytest.mark.parametrize("n, family", [
        (210, "gamma"), (75, "gamma"), (225, "nilradical"), (125, "nilradical"),
        (210, "omega"), (35, "line-of-gamma"), (77, "line-of-gamma"),
        (35, "total-of-gamma"), (21, "total-of-gamma"),
    ])
    def test_intact_and_tampered_partitions(self, tmp_path, n, family):
        cert = dispatch(n, family)
        g = cert.graph
        gp = write(tmp_path / "g.json", graph_to_json(g, family))
        rng = np.random.default_rng(n)
        masks = [cert.partition.in_b]
        for v in rng.choice(g.n_vertices, size=3, replace=False):
            flipped = cert.partition.in_b.copy()
            flipped[v] = not flipped[v]
            masks.append(flipped)
        masks += [rng.random(g.n_vertices) < 0.5 for _ in range(3)]
        codes = set()
        for in_b in masks:
            if in_b.all() or not in_b.any():
                continue
            part = Bipartition(in_b)
            pp = write(tmp_path / "p.json", partition_to_json(g, part))
            got = cmd_check(gp, pp)
            assert got == ref_check_text(g, part)
            codes.add(got[1])
        assert codes == {0, 1}

    def test_cost_effective_only(self, tmp_path):
        gp = write(tmp_path / "g.json", GAMMA_15_JSON)
        pp = write(tmp_path / "p.json", BAD_PARTITION)
        g = gamma(15)
        part = Bipartition(np.array([False, False, False, False, True, False]))
        assert cmd_check(gp, pp) == ref_check_text(g, part)
        pp = write(tmp_path / "p.json", '{"R": ["3", "6", "5"], "B": ["9", "12", "10"]}')
        text, code = cmd_check(gp, pp)
        assert "partition verdict: CostEffectiveOnly" in text
        part = Bipartition(np.array([False, False, False, True, True, True]))
        assert (text, code) == ref_check_text(g, part)

    @pytest.mark.parametrize("vertices, partition", [
        ('["003", 5, "006", "9", 10, "0012"]', '{"R": ["5", "10"], "B": ["3", "6", "9", "12"]}'),
        ('[3, 5, 6, 9, 10, 12]', '{"R": ["05", 10], "B": [3, "6", "009", "12"]}'),
        ('["3", "5", "6", "9", "10", "12"]', '{"R": ["5", "10", "3"], "B": [6, "9", "12"]}'),
    ])
    def test_non_canonical_labels(self, tmp_path, vertices, partition):
        g = gamma(15)
        edges = json.dumps([list(e) for e in g.edges()])
        gp = write(tmp_path / "g.json",
                   '{"n": 15, "family": "gamma", "vertices": %s, "edges": %s}' % (vertices, edges))
        pp = write(tmp_path / "p.json", partition)
        obj = json.loads(partition)
        in_b = np.isin([lab.k for lab in g.labels], [int(x) for x in obj["B"]])
        assert cmd_check(gp, pp) == ref_check_text(g, Bipartition(in_b))

    def test_bare_int_labels_in_a_total_graph(self, tmp_path):
        g = total_graph(gamma(15))
        obj = json.loads(graph_to_json(g, GraphFamily.TOTAL_OF_GAMMA))
        obj["vertices"] = [int(s) if s.isdigit() else s for s in obj["vertices"]]
        gp = write(tmp_path / "g.json", json.dumps(obj))
        cert = dispatch(15, "total-of-gamma")
        pp = write(tmp_path / "p.json", partition_to_json(g, cert.partition))
        assert cmd_check(gp, pp) == ref_check_text(g, cert.partition)


class TestCheckBadFiles:
    """Malformed input is an `error:` line and exit 3, never a traceback."""

    @pytest.mark.parametrize("family, vertices, bad", [
        ("line-of-gamma", '["(3,5)", "(5,3)"]', "(5,3)"),
        ("line-of-gamma", '["(3,3)"]', "(3,3)"),
        ("total-of-gamma", '["3", "5", "(5,3)"]', "(5,3)"),
    ])
    def test_reversed_pair_label_in_graph_file(self, tmp_path, family, vertices, bad):
        gp = write(tmp_path / "g.json",
                   '{"family": "%s", "vertices": %s, "edges": []}' % (family, vertices))
        pp = write(tmp_path / "p.json", '{"R": [], "B": []}')
        assert cmd_check(gp, pp) == (f"error: pair label '{bad}' is not ascending\n", 3)

    @pytest.mark.parametrize("family", ["line-of-gamma", "total-of-gamma"])
    def test_reversed_pair_label_in_partition_file(self, tmp_path, family):
        g = build_family(15, family)
        gp = write(tmp_path / "g.json", graph_to_json(g, family))
        obj = json.loads(partition_to_json(g, dispatch(15, family).partition))
        obj["R"][-1] = "(%s,%s)" % tuple(reversed(obj["R"][-1][1:-1].split(",")))
        pp = write(tmp_path / "p.json", json.dumps(obj))
        assert cmd_check(gp, pp) == (f"error: pair label {obj['R'][-1]!r} is not ascending\n", 3)

    @pytest.mark.parametrize("partition, message", [
        ('{"R": 5, "B": ["3"]}', "partition JSON 'R' must be a list, got int"),
        ('{"R": "3", "B": ["5", "6", "9", "10", "12"]}', "partition JSON 'R' must be a list, got str"),
        ('{"R": ["3"], "B": "5691012"}', "partition JSON 'B' must be a list, got str"),
        ('{"R": ["3", "6", "9", "12"], "B": {"5": 1, "10": 2}}',
         "partition JSON 'B' must be a list, got dict"),
        ('{"R": null, "B": []}', "partition JSON 'R' must be a list, got NoneType"),
    ])
    def test_sides_must_be_lists(self, tmp_path, partition, message):
        gp = write(tmp_path / "g.json", GAMMA_15_JSON)
        pp = write(tmp_path / "p.json", partition)
        assert cmd_check(gp, pp) == (f"error: {message}\n", 3)

    def test_reversed_pair_label_exits_3_from_main(self, tmp_path, capsys):
        gp = write(tmp_path / "g.json", '{"family": "line-of-gamma", "vertices": ["(5,3)"], "edges": []}')
        pp = write(tmp_path / "p.json", '{"R": [], "B": []}')
        assert main(["check", gp, pp]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: pair label '(5,3)' is not ascending\n"


class TestSearch:
    def test_found(self):
        text, code = cmd_search(n=15)
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "status: Found"
        assert lines[2].startswith("R: ")

    def test_none_exists_from_file(self, tmp_path):
        gp = write(tmp_path / "g16.json", graph_to_json(gamma(16), GraphFamily.GAMMA))
        text, code = cmd_search(graph_path=gp)
        assert code == 1
        assert "status: NoneExists" in text
        assert "examined: 63" in text

    def test_inconclusive_beyond_cap(self):
        # gamma(100) has 7 twin classes and 800 > 2^9 class vectors
        text, code = cmd_search(n=100, cap=10)
        assert code == 2
        assert text == ("status: Inconclusive\nexamined: 0\nreason: 7 twin classes span "
                        "800 B-count vectors, over the budget of 512\n")

    def test_class_search_beyond_cap(self):
        # the same answers as construct, which falls back the same way
        text, code = cmd_search(n=48)
        assert code == 0 and text.startswith("status: Found\nexamined: 76\nR: ")
        assert text.splitlines()[2:] == cmd_construct(48, GraphFamily.GAMMA)[0].splitlines()[:2]
        text, code = cmd_search(n=64)
        assert code == 1
        assert text == "status: NoneExists\nexamined: 120\nreason: class space exhausted\n"

    def test_local_mode(self):
        text, code = cmd_search(n=15, local=True, seed=3)
        assert code == 0
        assert "status: Found" in text

    def test_requires_target(self):
        text, code = cmd_search()
        assert code == 2 and text.startswith("error:")

    def test_unreadable_graph(self, tmp_path):
        text, code = cmd_search(graph_path=str(tmp_path / "none.json"))
        assert code == 2 and text.startswith("error:")

    def test_graph_file_that_is_not_utf8(self, tmp_path, capsys):
        binary = tmp_path / "bin.json"
        binary.write_bytes(b"\xff" + GAMMA_15_JSON.encode())
        text, code = cmd_search(graph_path=str(binary))
        assert (text, code) == ("error: graph file is not UTF-8 text\n", 2)
        assert main(["search", "--graph", str(binary)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == text


class TestSurvey:
    def test_gamma_6_to_30(self):
        text = cmd_survey(6, 30, [GraphFamily.GAMMA])
        lines = text.splitlines()
        assert lines[0] == "n,family,shape,vertices,verdict,source"
        assert len(lines) == 26
        rows = {ln.split(",")[0]: ln for ln in lines[1:]}
        assert rows["7"] == "7,gamma,Prime,0,Empty-graph,"
        assert rows["12"] == "12,gamma,PSquaredQ,7,VCE-by-construction,Thm2_3i_P2Q"
        assert rows["15"] == "15,gamma,SquarefreeComposite,6,VCE-by-construction,Cor2_2_PQ"
        assert rows["16"] == "16,gamma,Other,7,Not-VCE,exhausted-search"
        assert rows["24"] == "24,gamma,Other,15,VCE-by-search,Search"
        assert rows["30"] == "30,gamma,SquarefreeComposite,21,VCE-by-construction,Thm2_1_Squarefree"

    def test_omega_12(self):
        text = cmd_survey(12, 12, [GraphFamily.OMEGA])
        assert text.splitlines()[1] == "12,omega,PSquaredQ,6,Not-VCE,isolated-vertex"

    def test_all_families_row_order(self):
        text = cmd_survey(10, 11, None)
        lines = text.splitlines()[1:]
        assert [ln.split(",")[:2] for ln in lines] == [
            ["10", "gamma"], ["10", "line-of-gamma"], ["10", "nilradical"],
            ["10", "omega"], ["10", "total-of-gamma"],
            ["11", "gamma"], ["11", "line-of-gamma"], ["11", "nilradical"],
            ["11", "omega"], ["11", "total-of-gamma"],
        ]

    def test_unknown_row(self):
        text = cmd_survey(36, 36, [GraphFamily.TOTAL_OF_GAMMA])
        assert text.splitlines()[1] == "36,total-of-gamma,PSquaredQSquared,69,Unknown,"

    def test_class_search_row(self):
        text = cmd_survey(100, 100, [GraphFamily.GAMMA])
        assert text.splitlines()[1] == "100,gamma,PSquaredQSquared,59,VCE-by-search,Search"

    def test_each_row_builds_its_graph_once(self, monkeypatch):
        built = []

        def counting_build(n, family):
            built.append((n, GraphFamily(family).value))
            return build_family(n, family)

        monkeypatch.setattr(cli, "build_family", counting_build)
        monkeypatch.setattr(constructions, "build_family", counting_build)
        # 2..30 holds empty, constructed, searched, isolated-vertex and Unknown rows
        rows = cmd_survey(2, 30).splitlines()[1:]
        assert "Unknown" in {row.split(",")[4] for row in rows}
        assert sorted(built) == sorted((int(r.split(",")[0]), r.split(",")[1]) for r in rows)

    def test_determinism(self):
        assert cmd_survey(6, 40, [GraphFamily.GAMMA]) == cmd_survey(6, 40, [GraphFamily.GAMMA])

    def test_bad_range(self):
        from znvce import DomainError
        with pytest.raises(DomainError):
            cmd_survey(9, 6)


class TestMain:
    def test_build_to_stdout(self, capsys):
        rc = main(["build", "16", "--format", "dot"])
        assert rc == 0
        assert "8 -- 10;" in capsys.readouterr().out

    def test_build_to_file(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        rc = main(["build", "15", "--format", "json", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["n"] == 15

    def test_error_lines_go_to_stderr(self, tmp_path, capsys):
        # a non-list vertex or edge field used to escape as a TypeError traceback
        gp = write(tmp_path / "g.json", '{"family": "gamma", "vertices": 5, "edges": []}')
        pp = write(tmp_path / "p.json", GOOD_PARTITION)
        for argv, code in ((["check", gp, pp], 3), (["construct", "7"], 2),
                           (["search", "--n", "30", "--local", "--seed", "-1"], 2)):
            assert main(argv) == code
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:")

    def test_construct_exit_codes(self, capsys):
        assert main(["construct", "30"]) == 0
        assert main(["construct", "12", "--family", "omega"]) == 1
        assert main(["construct", "7"]) == 2
        capsys.readouterr()

    def test_check_flow(self, tmp_path, capsys):
        gp = write(tmp_path / "g.json", GAMMA_15_JSON)
        pp = write(tmp_path / "p.json", GOOD_PARTITION)
        assert main(["check", gp, pp]) == 0
        assert "partition verdict: VeryCostEffective" in capsys.readouterr().out

    def test_search_flags(self, capsys):
        assert main(["search", "--n", "15"]) == 0
        assert main(["search", "--n", "16"]) == 1
        assert main(["search", "--n", "15", "--local", "--seed", "2"]) == 0
        capsys.readouterr()

    def test_survey_to_file(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(["survey", "6", "10", "--families", "gamma", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,family,shape,vertices,verdict,source"
        assert len(lines) == 6

    def test_survey_bad_range_errors(self, capsys):
        rc = main(["survey", "9", "6"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_cap_flag(self, capsys):
        assert main(["construct", "100", "--cap", "10"]) == 2
        assert main(["search", "--n", "100", "--cap", "10"]) == 2
        capsys.readouterr()

    def test_cap_beyond_mask_width_errors(self, capsys):
        # total-of-gamma(36) has 69 vertices, no isolated vertex and no construction
        for argv in (["search", "--n", "36", "--family", "total-of-gamma", "--cap", "100"],
                     ["construct", "36", "--family", "total-of-gamma", "--cap", "100"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "exceeds the limit of 62" in err

    @pytest.mark.parametrize("argv", [
        ["build", "10000", "--family", "line-of-gamma", "--format", "json"],
        ["construct", "10000", "--family", "line-of-gamma"],
        ["search", "--n", "10000", "--family", "line-of-gamma"],
        ["survey", "10000", "10000", "--families", "line-of-gamma"],
    ])
    @pytest.mark.parametrize("exc", [
        MemoryError("Unable to allocate 2.61 GiB for an array with shape (52920, 52920) "
                    "and data type bool"),
        MemoryError(),
    ])
    def test_out_of_memory_is_one_error_line(self, monkeypatch, capsys, argv, exc):
        def no_memory(n, family):
            raise exc
        monkeypatch.setattr(cli, "build_family", no_memory)
        monkeypatch.setattr(constructions, "build_family", no_memory)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: out of memory")
        assert str(exc) in captured.err

    def test_local_bad_seed_errors_without_traceback(self, capsys):
        for flags in (["--seed", "-1"], ["--restarts", "0"], ["--steps", "0"],
                      ["--restarts", "-1"], ["--steps", "-4"]):
            assert main(["search", "--n", "30", "--local", *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "local_search needs" in err
