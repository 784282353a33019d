import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import circarc.oracle
import circarc.recognizer
from circarc.cli import _knotting_dot, main
from circarc.check import NEGATIVE, InternalError, circular_pairs, classify_all, typed_graph
from circarc.formats import parse_edge_list, write_edge_list, write_graph6
from circarc.graph import Graph, reduce as reduce_graph
from circarc.knotting import build_knotting
from circarc.recognizer import recognize
from arc_model_edges import edge_lines
from conftest import (BICLAW_EDGES, NEAR_BICLAW_EDGES, arc_model, completion_of,
                      disjoint_union, planted_negative)


NOT_UTF8 = b"a b\n\xff\xfe c\n"

# two disjoint near-biclaws, the second's names suffixed 2: the reduced
# graph splits into two pieces
TWO_NEAR_BICLAWS_EDGES = "\n".join(
    NEAR_BICLAW_EDGES.splitlines()
    + [" ".join(v + "2" for v in line.split()) for line in NEAR_BICLAW_EDGES.splitlines()])

# `circarc knotting --dot` at anchor f, byte for byte
NEAR_BICLAW_DOT = (
    'graph knotting {\n'
    '  "d/1";\n'
    '  "g/1";\n'
    '  "g/2";\n'
    '  "h/1";\n'
    '  "b/1";\n'
    '  "~d/1";\n'
    '  "~f/1";\n'
    '  "~f/2";\n'
    '  "~a/1";\n'
    '  "d/1" -- "g/1";\n'
    '  "d/1" -- "b/1";\n'
    '  "d/1" -- "~d/1";\n'
    '  "d/1" -- "~f/1";\n'
    '  "g/1" -- "h/1";\n'
    '  "g/2" -- "~d/1";\n'
    '  "h/1" -- "b/1";\n'
    '  "h/1" -- "~d/1";\n'
    '  "~d/1" -- "~f/2";\n'
    '  "~d/1" -- "~a/1";\n'
    '}\n'
)

BICLAW_DOT = (
    'graph knotting {\n'
    '  "d/1";\n'
    '  "g/1";\n'
    '  "h/1";\n'
    '  "b/1";\n'
    '  "c/1";\n'
    '  "~d/1";\n'
    '  "~f/1";\n'
    '  "~f/2";\n'
    '  "~a/1";\n'
    '  "d/1" -- "g/1";\n'
    '  "d/1" -- "h/1";\n'
    '  "d/1" -- "b/1";\n'
    '  "d/1" -- "c/1";\n'
    '  "d/1" -- "~d/1";\n'
    '  "d/1" -- "~f/1";\n'
    '  "g/1" -- "h/1";\n'
    '  "g/1" -- "c/1";\n'
    '  "g/1" -- "~d/1";\n'
    '  "h/1" -- "b/1";\n'
    '  "h/1" -- "~d/1";\n'
    '  "b/1" -- "c/1";\n'
    '  "~d/1" -- "~f/2";\n'
    '  "~d/1" -- "~a/1";\n'
    '}\n'
)

# `circarc complete` on the biclaw, byte for byte
BICLAW_COMPLETE = (
    '{"edges": [["d", "f"], ["d", "g"], ["d", "h"], ["d", "~f"], ["d", "~a"], '
    '["d", "~g"], ["d", "~h"], ["d", "~b"], ["d", "~c"], ["f", "a"], ["f", "~d"], '
    '["f", "~a"], ["f", "~g"], ["f", "~h"], ["f", "~b"], ["f", "~c"], ["a", "~d"], '
    '["a", "~g"], ["a", "~h"], ["a", "~b"], ["a", "~c"], ["g", "b"], ["g", "~d"], '
    '["g", "~f"], ["g", "~a"], ["g", "~h"], ["g", "~b"], ["g", "~c"], ["h", "c"], '
    '["h", "~d"], ["h", "~f"], ["h", "~a"], ["h", "~g"], ["h", "~b"], ["h", "~c"], '
    '["b", "~d"], ["b", "~f"], ["b", "~a"], ["b", "~h"], ["b", "~c"], ["c", "~d"], '
    '["c", "~f"], ["c", "~a"], ["c", "~g"], ["c", "~b"], ["~d", "~f"], ["~d", "~a"], '
    '["~d", "~g"], ["~d", "~h"], ["~d", "~b"], ["~d", "~c"], ["~f", "~a"], ["~f", "~g"], '
    '["~f", "~h"], ["~f", "~b"], ["~f", "~c"], ["~a", "~g"], ["~a", "~h"], ["~a", "~b"], '
    '["~a", "~c"], ["~g", "~h"], ["~g", "~b"], ["~g", "~c"], ["~h", "~b"], ["~h", "~c"], '
    '["~b", "~c"]], "n": 14, "pairs": [["a", "~a"], ["b", "~b"], ["c", "~c"], '
    '["d", "~d"], ["f", "~f"], ["g", "~g"], ["h", "~h"]], '
    '"vertices": ["d", "f", "a", "g", "h", "b", "c", "~d", "~f", "~a", "~g", "~h", "~b", "~c"]}\n'
)


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


def _toggle_first_to_last(out):
    """complete's output with the edge between its first and last vertex
    toggled, classified afresh."""
    H, partner = out
    adj = H.graph.adj.copy()
    adj[0, -1] = adj[-1, 0] = not adj[0, -1]
    return classify_all(Graph(H.graph.n, adj, H.graph.names)), partner


def _flip_derived(field, a, b):
    """A corruption of complete's output: the entry (a, b) of its contains
    or spanning, named by vertex, flipped (spanning's (b, a) with it), and
    the types made afresh from both."""
    def corrupt(out):
        H, partner = out
        arrays = {"contains": H.contains.copy(), "spanning": H.spanning.copy()}
        u, v = H.graph.index_of(a), H.graph.index_of(b)
        M = arrays[field]
        M[u, v] = not M[u, v]
        if field == "spanning":
            M[v, u] = M[u, v]
        retyped = typed_graph(H.graph, arrays["contains"], arrays["spanning"],
                              H.graph.closed_adj())
        return retyped, partner
    return corrupt


def _swap_first_two_arcs(out):
    """lift_to_circle's circle size and arcs, the first two rows swapped."""
    circle_size, ends = out
    return circle_size, ends[[1, 0, *range(2, len(ends))]]


def _raise(exc):
    def stage(*args):
        raise exc
    return stage


class TestStageFaults:
    """A fault in a stage's output reaches exit 70 through the certificate
    check, which then names the first stage whose own check fails, piece by
    piece on a split input."""

    # each stage's output, corrupted so that the certificate check fails
    CORRUPT = {
        "complete": _toggle_first_to_last,
        "forcing_classes": lambda classes: classes._replace(cid=0 * classes.cid),
        "interval_orientation": lambda order: order[::-1],
        "build_intervals": lambda iv: iv[[1, 0, *range(2, len(iv))]],
        "lift_to_circle": _swap_first_two_arcs,
    }
    # the reason each stage's own check gives; a corruption that crashes
    # the check instead would name the stage with the exception's type
    REASON = {
        "complete": "completion check failed",
        "forcing_classes": "classes differ from implication_classes",
        "interval_orientation": "constructed order fails pattern check",
        "build_intervals": "built intervals inconsistent with labels",
        "lift_to_circle": "lifted arcs fail verification",
    }

    def run_with(self, tmp_path, capsys, monkeypatch, stage, replacement,
                 edges=NEAR_BICLAW_EDGES):
        monkeypatch.setattr(circarc.recognizer, stage, replacement)
        f = write(tmp_path, "g.txt", edges)
        code = main(["recognize", f])
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        G, replay = parse_edge_list(edges), parse_edge_list(err)
        assert replay.names == G.names and (replay.adj == G.adj).all()
        return code, err.splitlines()[0]

    @pytest.mark.parametrize("stage,edges", [
        *(pytest.param(stage, NEAR_BICLAW_EDGES, id=stage) for stage in CORRUPT),
        *(pytest.param(stage, TWO_NEAR_BICLAWS_EDGES, id=f"{stage}-two-near-biclaws")
          for stage in CORRUPT)])
    def test_corrupt_output_names_the_stage(self, tmp_path, capsys, monkeypatch, stage, edges):
        original, corrupt = getattr(circarc.recognizer, stage), self.CORRUPT[stage]
        code, first = self.run_with(tmp_path, capsys, monkeypatch, stage,
                                    lambda *args: corrupt(original(*args)), edges)
        assert code == 70
        assert first.startswith(f"# internal error: {stage}: {self.REASON[stage]}: "), first

    # in the near-biclaw (d - f - a, g and h at d, b at g), d and ~f, the
    # partner added for f, are a 1-overlap.  Flipping spanning there makes
    # a 2-overlap inside Z, and flipping contains[~f, d] a wrong arc; the
    # completion's check names the stage before either is found
    @pytest.mark.parametrize("field,a,b", [("spanning", "d", "~f"), ("contains", "~f", "d")])
    def test_derived_block_fault_names_complete(self, tmp_path, capsys, monkeypatch,
                                                field, a, b):
        original, corrupt = circarc.recognizer.complete, _flip_derived(field, a, b)
        code, first = self.run_with(tmp_path, capsys, monkeypatch, "complete",
                                    lambda T: corrupt(original(T)))
        assert (code, first) == (70, f"# internal error: complete: {self.REASON['complete']}: "
                                     f"{field} differs")

    def test_stray_exception_names_the_stage(self, tmp_path, capsys, monkeypatch):
        code, first = self.run_with(tmp_path, capsys, monkeypatch, "expand_arcs",
                                    _raise(IndexError("planted")))
        assert (code, first) == (70, "# internal error: expand_arcs: IndexError: planted")

    def test_out_of_memory_passes_through(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(circarc.recognizer, "build_intervals", _raise(MemoryError()))
        f = write(tmp_path, "g.txt", NEAR_BICLAW_EDGES)
        assert main(["recognize", f]) == 71
        assert capsys.readouterr() == ("", "error: out of memory\n")


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
        doc["positive"]["arcs"][:2] = [0, 1]  # d's arc: d is vertex 0
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
        # the anchor indexes the completion, as `circarc complete` lists
        # it; the reason names it
        names = json.loads(BICLAW_COMPLETE)["vertices"]
        assert repr(names[neg["anchor"]]) in captured.err

    def test_copied_arc(self, tmp_path, capsys):
        g = write(tmp_path, "g.txt", NEAR_BICLAW_EDGES)
        out = tmp_path / "cert.json"
        main(["recognize", g, "--out", str(out)])
        doc = json.loads(out.read_text())
        arcs = doc["positive"]["arcs"]
        arcs[2:4] = arcs[:2]  # vertex 1's arc made vertex 0's
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
            doc["positive"]["arcs"][:2] = value  # d's arc
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
        assert capsys.readouterr().out == BICLAW_COMPLETE

    def test_trivial_rejected(self, tmp_path, capsys):
        f = write(tmp_path, "g.txt", "a b")
        assert main(["complete", f]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("pattern", ["biclaw", "c4+k1"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_split_negative_lists_the_certified_piece(self, tmp_path, capsys, pattern, seed):
        # the reduced graph splits, so the certificate indexes the completion
        # of one piece; `circarc complete` lists that one, its edges and its
        # pairs, and at the anchor the certificate names the knotting graph
        # has an odd cycle
        G = planted_negative(random.Random(seed), 30, pattern)
        cert = recognize(G)
        assert cert.verdict == NEGATIVE and len(cert.vertices) < G.n
        f = write(tmp_path, "g.txt", write_edge_list(G))
        assert main(["complete", f]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = doc["vertices"]
        assert names == list(cert.completion.names)
        assert doc["edges"] == [[names[u], names[v]] for u, v in cert.completion.edges()]
        partner = circular_pairs(classify_all(cert.completion)).tolist()
        assert doc["pairs"] == sorted(sorted((names[u], names[v]))
                                      for u, v in enumerate(partner) if u < v)
        assert main(["knotting", f, "--anchor", names[cert.obstruction.anchor]]) == 10
        assert "NOT bipartite" in capsys.readouterr().out

    def test_split_positive_lists_the_whole_completion(self, tmp_path, capsys):
        G = disjoint_union(arc_model(random.Random(4), 12), arc_model(random.Random(5), 9),
                           seed=6)
        assert len(circarc.recognizer._pieces(reduce_graph(G)[0])[0]) == 2
        f = write(tmp_path, "g.txt", write_edge_list(G))
        assert main(["complete", f]) == 0
        names = json.loads(capsys.readouterr().out)["vertices"]
        assert names == list(completion_of(G)[2].graph.names)


class TestKnottingCommand:
    def test_biclaw_anchor_f(self, tmp_path, capsys):
        f = write(tmp_path, "g.txt", BICLAW_EDGES)
        assert main(["knotting", f, "--anchor", "f"]) == 10
        assert "NOT bipartite" in capsys.readouterr().out

    def test_near_biclaw_anchor_f_with_dot(self, tmp_path, capsys):
        f = write(tmp_path, "g.txt", NEAR_BICLAW_EDGES)
        dot = tmp_path / "k.dot"
        assert main(["knotting", f, "--anchor", "f", "--dot", str(dot)]) == 0
        assert capsys.readouterr().out == "knotting graph at anchor 'f': bipartite\n"
        assert dot.read_text() == NEAR_BICLAW_DOT

    def test_biclaw_anchor_f_with_dot(self, tmp_path, capsys):
        f = write(tmp_path, "g.txt", BICLAW_EDGES)
        dot = tmp_path / "k.dot"
        assert main(["knotting", f, "--anchor", "f", "--dot", str(dot)]) == 10
        assert capsys.readouterr().out == ("knotting graph at anchor 'f': NOT bipartite "
                                           "(odd cycle: g/1, d/1, h/1)\n")
        assert dot.read_text() == BICLAW_DOT

    def test_dot_escapes_quotes_and_backslashes(self, tmp_path, capsys):
        # the biclaw with d named 'd"q' and g named 'g\': each line of the
        # DOT file must still read as quoted IDs that unescape to the names
        edges = BICLAW_EDGES.replace("d", 'd"q').replace("g", "g\\")
        f = write(tmp_path, "g.txt", edges)
        dot = tmp_path / "k.dot"
        assert main(["knotting", f, "--anchor", "f", "--dot", str(dot)]) == 10
        capsys.readouterr()
        quoted = r'"((?:[^"\\]|\\.)*)"'
        ids = []
        for line in dot.read_text().splitlines()[1:-1]:
            m = re.fullmatch(rf"  {quoted}(?: -- {quoted})?;", line)
            assert m, line
            ids += [re.sub(r"\\(.)", r"\1", g) for g in m.groups() if g is not None]
        plain = BICLAW_DOT.splitlines()[1:-1]
        want = [x.replace("d", 'd"q').replace("g", "g\\")
                for line in plain for x in re.findall(r'"([^"]*)"', line)]
        assert ids == want

    def test_dot_edges_in_adjacency_order(self):
        # each knotting edge once, from its lower copy, by that copy and then
        # by the other: the order of K.adjacency, on an arc model whose
        # owners have several copies, so the order of K.pairs differs
        H = completion_of(arc_model(random.Random(3), 30))[2]
        reordered = 0
        for z in range(H.graph.n):
            K = build_knotting(H, z)
            lines = _knotting_dot(K, H.graph.names).splitlines()[1:-1]
            node = {line[2:-1]: c for c, line in enumerate(lines[:len(K.copies)])}
            got = [tuple(node[x] for x in line[2:-1].split(" -- "))
                   for line in lines[len(K.copies):]]
            want = [(a, b) for a, nbrs in enumerate(K.adjacency) for b in nbrs if b > a]
            assert got == want, z
            reordered += want != [tuple(p) for p in K.pairs.tolist()]
        assert reordered

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


def child_env() -> dict[str, str]:
    """The environment of a child Python that imports this circarc."""
    src = str(Path(circarc.oracle.__file__).resolve().parents[1])
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# Caps its own address space at its size after the import plus argv[2] MB,
# then runs `circarc recognize argv[1] --out argv[3]`.
OUT_OF_MEMORY_CHILD = """
import resource, sys
from circarc.cli import main
with open("/proc/self/status") as fh:
    size_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
cap = (size_kb + int(sys.argv[2]) * 1024) * 1024
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.exit(main(["recognize", sys.argv[1], "--out", sys.argv[3]]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
class TestOutOfMemory:
    # the 1000-vertex arc model: with 60 MB to spare the edge-list parser
    # runs out of memory, with 77 MB a later stage does (build_knotting
    # from 68 MB, interval_orientation from 80 MB; from 87 MB the run completes)
    @pytest.mark.parametrize("spare_mb", [60, 77])
    def test_one_line_and_exit_71(self, tmp_path, spare_mb):
        f = write(tmp_path, "g.txt", "\n".join(edge_lines(1000, 1000, False)) + "\n")
        run = subprocess.run([sys.executable, "-c", OUT_OF_MEMORY_CHILD, f, str(spare_mb),
                              str(tmp_path / "c.json")],
                             env=child_env(), capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stderr) == (71, "error: out of memory\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="writes to /dev/full")
class TestUnwritableStdout:
    """Each command that writes standard output, and --help, exits 2 with
    one line on stderr when it cannot: a full disk is not a rejected
    certificate, and help text that cannot be written is no success."""

    @pytest.mark.parametrize("argv", [
        ["recognize", "{g}"], ["verify", "{g}", "{c}"], ["oracle", "{g}"],
        ["crosscheck", "--max-n", "2"], ["complete", "{g}"],
        ["knotting", "{g}", "--anchor", "f"],
        pytest.param(["--help"], id="help"),
        pytest.param(["recognize", "--help"], id="recognize-help")], ids=lambda argv: argv[0])
    def test_one_line_and_exit_2(self, tmp_path, argv):
        g, c = write(tmp_path, "g.txt", NEAR_BICLAW_EDGES), str(tmp_path / "c.json")
        assert main(["recognize", g, "--out", c]) == 0
        with open("/dev/full", "w") as full:
            run = subprocess.run([sys.executable, "-m", "circarc.cli",
                                  *(arg.format(g=g, c=c) for arg in argv)],
                                 env=child_env(), stdout=full, stderr=subprocess.PIPE,
                                 text=True, timeout=120)
        assert run.returncode == 2
        assert re.fullmatch(r"error: cannot write standard output: [^\n]*\n", run.stderr)
