import json
import random
from pathlib import Path

import pytest

import circarc.oracle
import circarc.recognizer
from circarc.cli import main
from circarc.check import InternalError
from circarc.formats import parse_edge_list, write_graph6
from conftest import BICLAW_EDGES, NEAR_BICLAW_EDGES, arc_model, planted_negative


NOT_UTF8 = b"a b\n\xff\xfe c\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text)
    return str(p)


class TestRecognizeCommand:
    def test_positive_exit(self, tmp_path, capsys):
        f = write(tmp_path, "g.txt", NEAR_BICLAW_EDGES)
        assert main(["recognize", f]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "CircularArc"

    def test_negative_exit(self, tmp_path, capsys):
        f = write(tmp_path, "g.txt", BICLAW_EDGES)
        assert main(["recognize", f]) == 10
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "NotCircularArc"

    def test_graph6_input(self, tmp_path, capsys):
        f = write(tmp_path, "g.g6", "Cl\n")
        assert main(["recognize", f, "--format", "graph6"]) == 0
        capsys.readouterr()

    def test_long_form_graph6_input(self, tmp_path, capsys):
        # 63 and 70 vertices need the long-form '~' header
        rng = random.Random(7)
        for G, code in ((arc_model(rng, 63), 0),
                        (planted_negative(rng, 63, "biclaw"), 10)):
            text = write_graph6(G)
            assert text.startswith("~")
            f = write(tmp_path, "g.g6", text + "\n")
            out = str(tmp_path / "cert.json")
            assert main(["recognize", f, "--format", "graph6", "--out", out]) == code
            assert main(["verify", f, out, "--format", "graph6"]) == 0
            assert "certificate OK" in capsys.readouterr().out

    def test_out_file(self, tmp_path):
        f = write(tmp_path, "g.txt", NEAR_BICLAW_EDGES)
        out = str(tmp_path / "cert.json")
        assert main(["recognize", f, "--out", out]) == 0
        assert json.loads(Path(out).read_text())["verdict"] == "CircularArc"

    def test_missing_file(self, capsys):
        assert main(["recognize", "/no/such/file"]) == 2
        capsys.readouterr()

    def test_graph_not_utf8(self, tmp_path, capsys):
        f = write(tmp_path, "bad.txt", NOT_UTF8)
        assert main(["recognize", f]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_out_dir_missing(self, tmp_path, capsys):
        f = write(tmp_path, "g.txt", NEAR_BICLAW_EDGES)
        out = str(tmp_path / "missing" / "c.json")
        assert main(["recognize", f, "--out", out]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_added_name_already_taken(self, tmp_path, capsys):
        # b renamed "~a", the name a's added partner would have taken
        f = write(tmp_path, "g.txt", BICLAW_EDGES.replace("b", "~a"))
        out = str(tmp_path / "cert.json")
        assert main(["recognize", f, "--out", out]) == 10
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads(Path(out).read_text())["verdict"] == "NotCircularArc"
        assert main(["verify", f, out]) == 0
        assert "OK" in capsys.readouterr().out

    def test_internal_error_prints_replayable_input(self, tmp_path, capsys,
                                                    monkeypatch):
        def broken(T):
            raise InternalError("planted failure")
        monkeypatch.setattr(circarc.recognizer, "complete", broken)
        f = write(tmp_path, "g.txt", BICLAW_EDGES + "\nlone")
        assert main(["recognize", f]) == 70
        err = capsys.readouterr().err
        assert "planted failure" in err
        assert "Traceback" not in err
        G, replay = parse_edge_list(BICLAW_EDGES + "\nlone"), parse_edge_list(err)
        assert replay.names == G.names
        assert (replay.adj == G.adj).all()


class TestVerifyCommand:
    def test_round_trip(self, tmp_path, capsys):
        g = write(tmp_path, "g.txt", BICLAW_EDGES)
        out = str(tmp_path / "cert.json")
        main(["recognize", g, "--out", out])
        assert main(["verify", g, out]) == 0
        assert "certificate OK" in capsys.readouterr().out

    def test_wrong_graph(self, tmp_path, capsys):
        g = write(tmp_path, "g.txt", BICLAW_EDGES)
        other = write(tmp_path, "h.txt", NEAR_BICLAW_EDGES)
        out = str(tmp_path / "cert.json")
        main(["recognize", g, "--out", out])
        assert main(["verify", other, out]) == 1
        capsys.readouterr()

    def test_tampered(self, tmp_path, capsys):
        g = write(tmp_path, "g.txt", NEAR_BICLAW_EDGES)
        out = tmp_path / "cert.json"
        main(["recognize", g, "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["positive"]["arcs"]["d"] = [0, 1]
        out.write_text(json.dumps(doc))
        assert main(["verify", g, str(out)]) == 1
        capsys.readouterr()

    def test_walk_step_replaced_by_anchor(self, tmp_path, capsys):
        # the reason goes to stderr; stdout stays the bare verdict line
        g = write(tmp_path, "g.txt", BICLAW_EDGES)
        out = tmp_path / "cert.json"
        main(["recognize", g, "--out", str(out)])
        doc = json.loads(out.read_text())
        neg = doc["negative"]
        neg["walk_p"][1] = neg["anchor"]
        out.write_text(json.dumps(doc))
        assert main(["verify", g, str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "certificate REJECTED\n"
        assert "walk check failed" in captured.err

    def test_copied_arc(self, tmp_path, capsys):
        g = write(tmp_path, "g.txt", NEAR_BICLAW_EDGES)
        out = tmp_path / "cert.json"
        main(["recognize", g, "--out", str(out)])
        doc = json.loads(out.read_text())
        arcs = doc["positive"]["arcs"]
        first, second = sorted(arcs)[:2]
        arcs[second] = list(arcs[first])
        out.write_text(json.dumps(doc))
        assert main(["verify", g, str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "certificate REJECTED\n"
        assert "share endpoint" in captured.err

    @pytest.mark.parametrize("field,value", [
        ("arc", [1]),
        ("arc", ["x", 1]),
        ("arc", [True, 3]),
        ("circle_size", "9"),
    ])
    def test_malformed_positive_field(self, tmp_path, capsys, field, value):
        g = write(tmp_path, "g.txt", NEAR_BICLAW_EDGES)
        out = tmp_path / "cert.json"
        main(["recognize", g, "--out", str(out)])
        doc = json.loads(out.read_text())
        if field == "arc":
            doc["positive"]["arcs"]["d"] = value
        else:
            doc["positive"]["circle_size"] = value
        out.write_text(json.dumps(doc))
        assert main(["verify", g, str(out)]) == 1
        captured = capsys.readouterr()
        assert "invalid certificate" in captured.err
        assert "Traceback" not in captured.out + captured.err


    def test_certificate_not_utf8(self, tmp_path, capsys):
        f = write(tmp_path, "g.txt", NEAR_BICLAW_EDGES)
        cert = write(tmp_path, "bad.txt", NOT_UTF8)
        assert main(["verify", f, cert]) == 1
        assert "invalid certificate" in capsys.readouterr().err


class TestOracleCommand:
    def test_positive(self, tmp_path, capsys):
        f = write(tmp_path, "g.txt", NEAR_BICLAW_EDGES)
        assert main(["oracle", f]) == 0
        assert "not" not in capsys.readouterr().out

    def test_negative(self, tmp_path, capsys):
        f = write(tmp_path, "g.txt", BICLAW_EDGES)
        assert main(["oracle", f]) == 10
        capsys.readouterr()

    def test_too_big(self, tmp_path, capsys):
        lines = "\n".join(f"v{i} v{i + 1}" for i in range(9))
        f = write(tmp_path, "g.txt", lines)
        assert main(["oracle", f]) == 2
        capsys.readouterr()


class TestCrossCheckCommand:
    def test_small(self, capsys):
        assert main(["crosscheck", "--max-n", "3"]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary == {"checked": 11, "disagreements": 0}

    def test_bad_random_spec(self, capsys):
        assert main(["crosscheck", "--random", "nope"]) == 2
        capsys.readouterr()

    def test_max_n_over_cap(self, capsys):
        assert main(["crosscheck", "--max-n", "6"]) == 2
        assert "capped" in capsys.readouterr().err

    def test_random_n_over_cap(self, capsys):
        assert main(["crosscheck", "--random", "9,1,0.5,1"]) == 2
        assert "capped" in capsys.readouterr().err

    def test_random_n_over_cap_fails_before_any_work(self, monkeypatch, capsys):
        # a 1500-vertex batch is refused before a graph is built or recognized
        def refuse(G):
            raise AssertionError("recognize ran before the size check")

        monkeypatch.setattr(circarc.oracle, "recognize", refuse)
        for n in ("1500", "-1"):
            assert main(["crosscheck", "--max-n", "0", f"--random={n},1,0.5,1"]) == 2
            assert "oracle capped at 8 vertices" in capsys.readouterr().err

    def test_negative_max_n(self, capsys):
        assert main(["crosscheck", "--max-n", "-1"]) == 2
        assert "max_n" in capsys.readouterr().err

    def test_negative_random_count(self, capsys):
        assert main(["crosscheck", "--random", "5,-1,0.5,1"]) == 2
        assert "count" in capsys.readouterr().err

    def test_edge_probability_out_of_range(self, capsys):
        assert main(["crosscheck", "--random", "5,1,2.5,1"]) == 2
        assert "probability" in capsys.readouterr().err

    def test_random_batch_alone(self, capsys):
        assert main(["crosscheck", "--max-n", "0", "--random", "5,3,0.5,1"]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary == {"checked": 3, "disagreements": 0}


class TestCompleteCommand:
    def test_biclaw(self, tmp_path, capsys):
        f = write(tmp_path, "g.txt", BICLAW_EDGES)
        assert main(["complete", f]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 14
        assert ["a", "~a"] in doc["pairs"]

    def test_trivial_rejected(self, tmp_path, capsys):
        f = write(tmp_path, "g.txt", "a b")
        assert main(["complete", f]) == 2
        capsys.readouterr()


class TestKnottingCommand:
    def test_biclaw_anchor_f(self, tmp_path, capsys):
        f = write(tmp_path, "g.txt", BICLAW_EDGES)
        assert main(["knotting", f, "--anchor", "f"]) == 10
        assert "NOT bipartite" in capsys.readouterr().out

    def test_near_biclaw_anchor_f_with_dot(self, tmp_path, capsys):
        f = write(tmp_path, "g.txt", NEAR_BICLAW_EDGES)
        dot = tmp_path / "k.dot"
        assert main(["knotting", f, "--anchor", "f", "--dot", str(dot)]) == 0
        assert "bipartite" in capsys.readouterr().out
        text = dot.read_text()
        assert text.startswith("graph knotting {")
        assert '"~f/2"' in text

    def test_dot_dir_missing(self, tmp_path, capsys):
        f = write(tmp_path, "g.txt", NEAR_BICLAW_EDGES)
        dot = str(tmp_path / "missing" / "x.dot")
        assert main(["knotting", f, "--anchor", "f", "--dot", dot]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_unknown_anchor(self, tmp_path, capsys):
        f = write(tmp_path, "g.txt", BICLAW_EDGES)
        assert main(["knotting", f, "--anchor", "zz"]) == 2
        capsys.readouterr()


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_is_ok(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
