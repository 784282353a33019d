import itertools
import json

import pytest

from circarc.formats import (FormatError, certificate_from_doc,
                             certificate_to_doc, parse_certificate,
                             parse_edge_list, parse_graph6,
                             serialize_certificate, write_edge_list,
                             write_graph6)
from circarc.cli import main
from circarc.graph import build_graph
from circarc.recognizer import (recognize, verify_negative, verify_positive)


class TestEdgeList:
    def test_biclaw_text(self, biclaw):
        assert biclaw.names == ("d", "f", "a", "g", "h", "b", "c")
        assert len(biclaw.edges()) == 6

    def test_comments_and_isolated(self):
        G = parse_edge_list("a b  # an edge\nc\n\n# full comment line\n")
        assert G.names == ("a", "b", "c")
        assert G.edges() == [(0, 1)]

    def test_loop_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("a a")

    def test_too_many_tokens(self):
        with pytest.raises(FormatError):
            parse_edge_list("a b c")


class TestGraph6:
    def test_c4(self, c4):
        assert write_graph6(c4) == "Cl"
        back = parse_graph6("Cl")
        assert back.n == 4
        assert back.edges() == c4.edges()

    def test_single_vertex(self):
        assert write_graph6(build_graph(1, [])) == "@"
        assert parse_graph6("@").n == 1

    def test_round_trip_small(self):
        for n in range(5):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                G = build_graph(n, [p for i, p in enumerate(pairs)
                                    if mask >> i & 1])
                back = parse_graph6(write_graph6(G))
                assert back.n == G.n and back.edges() == G.edges()

    def test_bad_bytes(self):
        with pytest.raises(FormatError):
            parse_graph6("C\x1f")

    def test_wrong_length(self):
        with pytest.raises(FormatError):
            parse_graph6("C")


class TestCertificateDocs:
    def test_positive_round_trip(self, c4):
        cert = recognize(c4)
        text = serialize_certificate(c4, cert)
        back = parse_certificate(c4, text)
        assert verify_positive(c4, back)
        assert serialize_certificate(c4, back) == text

    def test_negative_round_trip(self, biclaw):
        cert = recognize(biclaw)
        text = serialize_certificate(biclaw, cert)
        back = parse_certificate(biclaw, text)
        assert verify_negative(biclaw, back)
        assert serialize_certificate(biclaw, back) == text

    def test_canonical_bytes(self, biclaw):
        a = serialize_certificate(biclaw, recognize(biclaw))
        b = serialize_certificate(biclaw, recognize(biclaw))
        assert a == b

    def test_wrong_graph_rejected(self, c4, p4):
        text = serialize_certificate(c4, recognize(c4))
        with pytest.raises(FormatError):
            parse_certificate(p4, text)

    def test_bad_tag(self, c4):
        doc = certificate_to_doc(c4, recognize(c4))
        doc["format"] = "nope"
        with pytest.raises(FormatError):
            certificate_from_doc(c4, doc)

    def test_bad_json(self, c4):
        with pytest.raises(FormatError):
            parse_certificate(c4, "{not json")

    def test_tampered_partner_rejected(self, biclaw):
        doc = certificate_to_doc(biclaw, recognize(biclaw))
        added = doc["negative"]["completion"]["added"]
        added[0]["partner"], added[1]["partner"] = (added[1]["partner"],
                                                    added[0]["partner"])
        with pytest.raises(FormatError):
            certificate_from_doc(biclaw, doc)

    def test_doc_is_json(self, biclaw):
        text = serialize_certificate(biclaw, recognize(biclaw))
        doc = json.loads(text)
        assert doc["verdict"] == "NotCircularArc"
        assert doc["format"] == "ca-cert/1"


def _drop_first(edges):
    del edges[0]


class TestEdgeEcho:
    @pytest.mark.parametrize("edit,message", [
        (_drop_first, "does not match"),
        (lambda edges: edges.append(["v1", "v3"]), "does not match"),
        (lambda edges: edges.append(["v1", "zz"]), "unknown vertex"),
        (lambda edges: edges.append(["v1", ["v2"]]), "unknown vertex"),
        (lambda edges: edges.append(["v2", "v2"]), "loop at 'v2'"),
        (lambda edges: edges.append(["v1", "v2", "v3"]), "pair of names"),
        (lambda edges: edges.append("v1v2"), "pair of names"),
        (lambda edges: edges.append(["v1"]), "pair of names"),
    ], ids=["missing", "extra", "unknown", "unhashable", "loop", "triple",
            "string", "single"])
    def test_bad_echo_rejected(self, c4, tmp_path, capsys, edit, message):
        doc = certificate_to_doc(c4, recognize(c4))
        edit(doc["input"]["edges"])
        with pytest.raises(FormatError, match=message):
            certificate_from_doc(c4, doc)
        g, cert = tmp_path / "g.txt", tmp_path / "c.json"
        g.write_text(write_edge_list(c4))
        cert.write_text(json.dumps(doc))
        assert main(["verify", str(g), str(cert)]) == 1
        err = capsys.readouterr().err
        assert "invalid certificate" in err and message in err
        assert "Traceback" not in err

    def test_duplicate_and_reversed_entries_accepted(self, c4):
        doc = certificate_to_doc(c4, recognize(c4))
        edges = doc["input"]["edges"]
        edges += [edges[0], edges[1][::-1]]
        assert verify_positive(c4, certificate_from_doc(c4, doc))


def _parse_doc(G, doc):
    return parse_certificate(G, json.dumps(doc))


class TestNamesInCertificate:
    def test_unknown_neighbor(self, biclaw):
        doc = certificate_to_doc(biclaw, recognize(biclaw))
        doc["negative"]["completion"]["added"][1]["neighbors"].append("zz")
        with pytest.raises(FormatError, match="unknown neighbor 'zz' in completion"):
            certificate_from_doc(biclaw, doc)

    def test_loop_in_completion(self, biclaw):
        doc = certificate_to_doc(biclaw, recognize(biclaw))
        entry = doc["negative"]["completion"]["added"][2]
        entry["neighbors"].append(entry["name"])
        with pytest.raises(FormatError, match="completion lists a loop"):
            certificate_from_doc(biclaw, doc)

    @pytest.mark.parametrize("first", ["loop", "unknown"])
    def test_first_fault_in_reading_order(self, biclaw, first):
        doc = certificate_to_doc(biclaw, recognize(biclaw))
        added = doc["negative"]["completion"]["added"]
        loop, unknown = (added[0], added[1]) if first == "loop" else (added[1], added[0])
        loop["neighbors"].insert(0, loop["name"])
        unknown["neighbors"].insert(0, "zz")
        message = "lists a loop" if first == "loop" else "unknown neighbor 'zz'"
        with pytest.raises(FormatError, match=message):
            certificate_from_doc(biclaw, doc)

    def test_neighbors_not_a_list(self, biclaw):
        doc = certificate_to_doc(biclaw, recognize(biclaw))
        doc["negative"]["completion"]["added"][0]["neighbors"] = 5
        with pytest.raises(FormatError, match="malformed certificate document"):
            _parse_doc(biclaw, doc)

    def test_unknown_arc_vertex(self, c4):
        doc = certificate_to_doc(c4, recognize(c4))
        doc["positive"]["arcs"]["zz"] = [0, 1]
        with pytest.raises(FormatError, match="unknown vertex name: 'zz'"):
            _parse_doc(c4, doc)

    @pytest.mark.parametrize("step", [
        {"kind": "remove_universal", "vertex": "zz"},
        {"kind": "merge_twins", "kept": "v1", "removed": ["v2"]},
    ], ids=["unknown", "unhashable"])
    def test_unknown_reduction_vertex(self, c4, step):
        doc = certificate_to_doc(c4, recognize(c4))
        doc["reduction"].append(step)
        with pytest.raises(FormatError, match="unknown vertex name"):
            _parse_doc(c4, doc)
