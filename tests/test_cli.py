import json

import pytest

from znvce import GraphFamily, build_family, cli, constructions, gamma, graph_to_json
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
        text, code = cmd_construct(100, GraphFamily.GAMMA)
        assert code == 2
        assert text.startswith("unknown:")


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
        text, code = cmd_search(n=100)
        assert code == 2
        assert "status: Inconclusive" in text
        assert "exceeds the exhaustive cap" in text

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
        text = cmd_survey(100, 100, [GraphFamily.GAMMA])
        assert text.splitlines()[1] == "100,gamma,PSquaredQSquared,59,Unknown,"

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

    def test_local_bad_seed_errors_without_traceback(self, capsys):
        for flags in (["--seed", "-1"], ["--restarts", "0"], ["--steps", "0"],
                      ["--restarts", "-1"], ["--steps", "-4"]):
            assert main(["search", "--n", "30", "--local", *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "local_search needs" in err
