import hashlib
import itertools
import json
import re
from types import SimpleNamespace

import networkx as nx
import pytest

from circarc.formats import (FormatError, certificate_from_doc,
                             certificate_to_doc, graph_digest,
                             parse_certificate, parse_edge_list, parse_graph6,
                             serialize_certificate, write_edge_list,
                             write_graph6)
from circarc.check import G6_MAX_N, negative_error
from circarc.cli import main
from circarc.graph import Graph, build_graph
from circarc.recognizer import (recognize, verify_negative, verify_positive)
from conftest import BICLAW_EDGES


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

    def test_too_many_vertices_to_write(self):
        # the bound is checked on G.n before the adjacency is read
        too_big = SimpleNamespace(n=G6_MAX_N + 1)
        with pytest.raises(ValueError, match=f"^graph6 handles at most {G6_MAX_N} vertices here$"):
            write_graph6(too_big)

    def test_wrong_length(self):
        with pytest.raises(FormatError):
            parse_graph6("C")

    @pytest.mark.parametrize("text,code", [("C\u00e9", 233), ("C\ud800", 55296)])
    def test_non_ascii_rejected(self, text, code):
        with pytest.raises(FormatError, match=f"byte {code} outside"):
            parse_graph6(text)

    @pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 180])
    def test_matches_networkx(self, n):
        for seed in range(3):
            g = nx.gnp_random_graph(n, 0.3 * seed + 0.1, seed=seed)
            G = build_graph(n, list(g.edges()))
            text = write_graph6(G)
            assert text == nx.to_graph6_bytes(g, header=False).decode().rstrip("\n")
            assert (text[0] == "~") == (n > 62)
            back = parse_graph6(text + "\n")
            assert back.n == n and back.edges() == G.edges()
            assert back.names == G.names

    def test_long_form_header_cut_short(self):
        with pytest.raises(FormatError, match="header is cut short"):
            parse_graph6("~??")

    def test_beyond_four_byte_header(self):
        with pytest.raises(FormatError, match="at most 258047 vertices"):
            parse_graph6("~~??????")

    def test_long_form_wrong_length(self):
        text = write_graph6(build_graph(70, [(0, 69)]))
        with pytest.raises(FormatError, match="wrong length"):
            parse_graph6(text[:-1])

    def test_nonzero_padding(self):
        # 5 vertices: 10 bits in two 6-bit groups, the last two bits padding
        with pytest.raises(FormatError, match="nonzero padding"):
            parse_graph6("D?@")


# The certificate of P_4 (the p4 fixture) as the recognizer wrote it
# before it ranked its endpoints: arcs in the same circular order as today's,
# on a circle of 24 slots.  The reader and the checker take any circle size.
P4_SPARSE_DOC = ('{"format":"ca-cert/4","input":{"n":4,"sha256":"10a0529557edccb636c0530ab6414c'
                 '2442ed570d824605a54f388632f9142044"},"positive":{"arcs":[17,3,13,7,4,16,8,12],'
                 '"circle_size":24},"verdict":"CircularArc"}\n')


class TestCertificateDocs:
    def test_positive_round_trip(self, c4, p4):
        for G, old in ((c4, None), (p4, P4_SPARSE_DOC)):
            text = serialize_certificate(G, recognize(G))
            assert json.loads(text)["positive"]["circle_size"] == 2 * G.n
            for doc in filter(None, (text, old)):
                back = parse_certificate(G, doc)
                assert verify_positive(G, back)
                assert serialize_certificate(G, back) == doc

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

    def test_nested_too_deeply(self, c4, tmp_path, capsys):
        # the JSON decoder recurses once per level and stops at Python's
        # recursion limit; the document is refused, without a traceback
        text = "[" * 100_000 + "]" * 100_000
        with pytest.raises(FormatError, match="bad JSON: nested too deeply"):
            parse_certificate(c4, text)
        g, cert = tmp_path / "g.txt", tmp_path / "c.json"
        g.write_text(write_edge_list(c4))
        cert.write_text(text)
        assert main(["verify", str(g), str(cert)]) == 1
        err = capsys.readouterr().err
        assert "nested too deeply" in err and "Traceback" not in err

    def test_tampered_partner_rejected(self, biclaw):
        # the completion is rebuilt by the reader, not read; one with an edge
        # between two added vertices toggled still fails the verifier's
        # first-principles completion check, which derives the pairing
        cert = parse_certificate(biclaw, serialize_certificate(biclaw, recognize(biclaw)))
        assert verify_negative(biclaw, cert)
        H = cert.completion
        u, v = H.n - 2, H.n - 1  # added vertices come last
        adj = H.adj.copy()
        adj[u, v] = adj[v, u] = not adj[u, v]
        cert.completion = Graph(H.n, adj, H.names)
        assert not verify_negative(biclaw, cert)

    def test_input_is_bound_by_digest(self, biclaw):
        doc = certificate_to_doc(biclaw, recognize(biclaw))
        assert doc["input"] == {"n": 7, "sha256": graph_digest(biclaw)}
        # the recipe needs only hashlib and networkx
        g = nx.Graph()
        g.add_nodes_from(range(biclaw.n))
        g.add_edges_from(biclaw.edges())
        g6 = nx.to_graph6_bytes(g, header=False).decode().rstrip("\n")
        text = json.dumps([list(biclaw.names), g6], separators=(",", ":"))
        assert doc["input"]["sha256"] == hashlib.sha256(text.encode()).hexdigest()

    def test_negative_names_only_the_obstruction(self, biclaw):
        cert = recognize(biclaw)
        doc = certificate_to_doc(biclaw, cert)
        assert set(doc) == {"format", "input", "verdict", "negative"}
        neg = doc["negative"]
        assert set(neg) == {"vertices", "anchor", "pair", "walk_p", "walk_q"}
        # every vertex by index: of the input in S, of the completion after
        assert neg["vertices"] == list(range(biclaw.n))
        awp = cert.obstruction
        assert (neg["anchor"], neg["pair"], neg["walk_p"], neg["walk_q"]) == (
            awp.anchor, list(awp.pair), awp.walk_p, awp.walk_q)

    def test_positive_names_only_the_arcs(self, c4):
        cert = recognize(c4)
        doc = certificate_to_doc(c4, cert)
        assert set(doc) == {"format", "input", "verdict", "positive"}
        assert set(doc["positive"]) == {"circle_size", "arcs"}
        # one flat list in input vertex order: v's arc is arcs[2v], arcs[2v+1]
        arcs = doc["positive"]["arcs"]
        assert arcs == [end for v in range(c4.n) for end in cert.arcs.arcs[v]]

    def test_vertices_are_the_survivors_in_input_order(self):
        # h2 is a true twin of h, and u is universal: neither survives
        G = parse_edge_list(BICLAW_EDGES + "\nh2 h\nh2 d\nh2 c"
                            + "".join(f"\nu {v}" for v in "dfaghbc") + "\nu h2")
        doc = certificate_to_doc(G, recognize(G))
        assert [G.names[v] for v in doc["negative"]["vertices"]] == [
            "d", "f", "a", "g", "h", "b", "c"]
        assert doc["negative"]["vertices"] == list(range(7))

    def test_doc_is_json(self, biclaw):
        text = serialize_certificate(biclaw, recognize(biclaw))
        doc = json.loads(text)
        assert doc["verdict"] == "NotCircularArc"
        assert doc["format"] == "ca-cert/4"


def _parse_doc(G, doc):
    return parse_certificate(G, json.dumps(doc))


def _with_edge_flipped(G, u, v):
    adj = G.adj.copy()
    adj[u, v] = adj[v, u] = not adj[u, v]
    return Graph(G.n, adj, G.names)


def _with_names_swapped(G, u, v):
    names = list(G.names)
    names[u], names[v] = names[v], names[u]
    return Graph(G.n, G.adj, tuple(names))


def _with_name(G, u, name):
    names = list(G.names)
    names[u] = name
    return Graph(G.n, G.adj, tuple(names))


def _set_digest(other):
    def edit(doc, G):
        doc["input"]["sha256"] = graph_digest(other(G))
    return edit


class TestEdgeEcho:
    """The input echo is {"n", "sha256"}: a digest of some other graph, or
    an echo of the wrong shape, is rejected before any other check."""

    @pytest.mark.parametrize("edit,message", [
        (_set_digest(lambda G: _with_edge_flipped(G, 0, 1)), "different graph"),
        (_set_digest(lambda G: _with_edge_flipped(G, 0, 2)), "different graph"),
        (_set_digest(lambda G: _with_name(G, 3, "zz")), "different graph"),
        (lambda doc, G: doc["input"].update(sha256=[doc["input"]["sha256"]]),
         "different graph"),
        (lambda doc, G: doc.update(input=[G.n, graph_digest(G), G.n]),
         "malformed certificate document"),
        (lambda doc, G: doc.update(input=graph_digest(G)),
         "malformed certificate document"),
        (lambda doc, G: doc["input"].pop("n"), "malformed certificate document"),
    ], ids=["missing", "extra", "unknown", "unhashable", "triple", "string",
            "single"])
    def test_bad_echo_rejected(self, c4, tmp_path, capsys, edit, message):
        doc = certificate_to_doc(c4, recognize(c4))
        edit(doc, c4)
        with pytest.raises(FormatError, match=message):
            _parse_doc(c4, doc)
        g, cert = tmp_path / "g.txt", tmp_path / "c.json"
        g.write_text(write_edge_list(c4))
        cert.write_text(json.dumps(doc))
        assert main(["verify", str(g), str(cert)]) == 1
        err = capsys.readouterr().err
        assert "invalid certificate" in err and message in err
        assert "Traceback" not in err

    def test_duplicate_and_reversed_entries_accepted(self, c4):
        # the digest binds the graph, not the text it was read from
        text = write_edge_list(c4) + "v1 v2\nv2 v1\nv4 v3\n"
        G = parse_edge_list(text)
        assert graph_digest(G) == graph_digest(c4)
        doc = certificate_to_doc(c4, recognize(c4))
        assert verify_positive(G, _parse_doc(G, doc))


class TestNamesInCertificate:
    """A document names every vertex by its index, a JSON integer: the
    input binding fixes which name each index stands for."""

    def test_unknown_arc_vertex(self, c4):
        # an arc past the last vertex: the list must hold exactly 2n ends
        doc = certificate_to_doc(c4, recognize(c4))
        doc["positive"]["arcs"] += [0, 1]
        with pytest.raises(FormatError, match="arcs must hold 2n = 8 integers, not 10$"):
            _parse_doc(c4, doc)

    @pytest.mark.parametrize("edit,length", [
        (lambda arcs: arcs.append(30), 9),
        (lambda arcs: arcs.pop(), 7),
        (lambda arcs: arcs.clear(), 0),
    ], ids=["one-longer", "one-shorter", "empty"])
    def test_arcs_hold_two_ends_per_vertex(self, c4, edit, length):
        doc = certificate_to_doc(c4, recognize(c4))
        edit(doc["positive"]["arcs"])
        with pytest.raises(FormatError, match=f"arcs must hold 2n = 8 integers, not {length}$"):
            _parse_doc(c4, doc)

    @pytest.mark.parametrize("arcs,message", [
        ([0, True, 2, 3, "zz", 5, 6, 7], "arcs[1] must be an integer, not True"),
        ([0, "zz", 2, 3, True, 5, 6, 7], "arcs[1] must be an integer, not 'zz'"),
        ([0, 1, "zz", True, 4, 5, 6], "arcs[2] must be an integer, not 'zz'"),
    ], ids=["bad-arc-first", "unknown-name-first", "both-in-one-item"])
    def test_first_error_in_document_order(self, c4, arcs, message):
        # the first bad entry of the list is reported, before its length
        doc = certificate_to_doc(c4, recognize(c4))
        doc["positive"]["arcs"] = arcs
        with pytest.raises(FormatError, match=f"{re.escape(message)}$"):
            _parse_doc(c4, doc)

    @pytest.mark.parametrize("name", [7, ["d"]], ids=["unknown", "unhashable"])
    def test_unknown_reduction_vertex(self, biclaw, name):
        # the vertex set S holds survivors of the reduction, by input index
        doc = certificate_to_doc(biclaw, recognize(biclaw))
        doc["negative"]["vertices"].append(name)
        message = ("vertices holds 7, not an index of the 7 input vertices"
                   if name == 7 else "vertices[7] must be an integer")
        with pytest.raises(FormatError, match=re.escape(message)):
            _parse_doc(biclaw, doc)

    @pytest.mark.parametrize("value,message", [
        (-1, "vertices holds -1, not an index"),
        (2 ** 70, f"vertices holds {2 ** 70}, not an index"),
        (True, "vertices[0] must be an integer, not True"),
        (0.0, "vertices[0] must be an integer, not 0.0"),
    ], ids=["minus-one", "past-int64", "bool", "float"])
    def test_reduction_vertex_is_an_input_index(self, biclaw, value, message):
        # checked before G[S] is built: numpy would take -1 for the last
        # vertex, and overflow on 2**70
        doc = certificate_to_doc(biclaw, recognize(biclaw))
        doc["negative"]["vertices"][0] = value
        with pytest.raises(FormatError, match=re.escape(message)):
            _parse_doc(biclaw, doc)

    @pytest.mark.parametrize("field", ["anchor", "pair", "walk_p", "walk_q"])
    @pytest.mark.parametrize("value", [True, 1.0, "1"], ids=["bool", "float", "string"])
    def test_completion_index_is_an_integer(self, biclaw, field, value):
        doc = certificate_to_doc(biclaw, recognize(biclaw))
        neg = doc["negative"]
        if field == "anchor":
            neg[field] = value
        else:
            neg[field][-1] = value
        where = field if field == "anchor" else f"{field}[{len(neg[field]) - 1}]"
        with pytest.raises(FormatError, match=re.escape(f"{where} must be an integer, not {value!r}")):
            _parse_doc(biclaw, doc)

    @pytest.mark.parametrize("field", ["anchor", "pair", "walk_p", "walk_q"])
    @pytest.mark.parametrize("value", [-1, 14, 2 ** 70], ids=["minus-one", "size", "past-int64"])
    def test_completion_index_out_of_range(self, biclaw, field, value):
        # the completion has 14 vertices; its ranges are the checker's
        doc = certificate_to_doc(biclaw, recognize(biclaw))
        neg = doc["negative"]
        if field == "anchor":
            neg[field] = value
        else:
            neg[field][-1] = value
        cert = _parse_doc(biclaw, doc)
        assert cert.completion.n == 14
        assert negative_error(biclaw, cert) == f"walk check failed: vertex {value} out of range"

    @pytest.mark.parametrize("edit", [
        lambda S: S.append(S[0]),
        lambda S: S.__setitem__(1, S[0]),
    ], ids=["extra", "replaced"])
    def test_repeated_vertex(self, biclaw, edit):
        doc = certificate_to_doc(biclaw, recognize(biclaw))
        edit(doc["negative"]["vertices"])
        with pytest.raises(FormatError, match="vertices must name each vertex once"):
            _parse_doc(biclaw, doc)

    @pytest.mark.parametrize("field", ["vertices", "pair", "walk_p", "walk_q"])
    def test_names_must_be_a_list(self, biclaw, field):
        doc = certificate_to_doc(biclaw, recognize(biclaw))
        neg = doc["negative"]
        neg[field] = ",".join(map(str, neg[field]))
        with pytest.raises(FormatError, match=f"{field} must be a list"):
            _parse_doc(biclaw, doc)

    def test_pair_of_three(self, biclaw):
        doc = certificate_to_doc(biclaw, recognize(biclaw))
        doc["negative"]["pair"].append(doc["negative"]["anchor"])
        with pytest.raises(FormatError, match="pair must name two vertices"):
            _parse_doc(biclaw, doc)


def _replace_walk_vertex(doc):
    neg = doc["negative"]
    neg["walk_p"][1] = neg["anchor"]  # the anchor never avoids itself


def _anchor_on_walk(doc):
    neg = doc["negative"]
    neg["anchor"] = neg["walk_q"][1]


def _swap_pair(doc):
    doc["negative"]["pair"].reverse()


def _unknown_walk_name(doc):
    # a name where an index belongs
    doc["negative"]["walk_q"][1] = "zz"


def _tamper_digest(doc):
    digest = doc["input"]["sha256"]
    doc["input"]["sha256"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")


def _old_format(doc):
    doc["format"] = "ca-cert/1"


def _trace_format(doc):
    # ca-cert/2 carried the reduction trace and no vertex set
    doc["format"] = "ca-cert/2"
    doc["reduction"] = []
    del doc["negative"]["vertices"]


def _v3(doc):
    # ca-cert/3 named every vertex by name
    doc["format"] = "ca-cert/3"


def _drop_centre(doc):
    # G[S] must be reduced; f and a are true twins once d (index 0) is gone
    doc["negative"]["vertices"].remove(0)


class TestCertificateSafety:
    """Tampered ca-cert/4 documents, or the right one against another
    graph: "invalid" or "REJECTED", never "OK", and never a traceback."""

    @staticmethod
    def outcome(G, doc):
        try:
            cert = parse_certificate(G, json.dumps(doc))
        except FormatError as exc:
            return f"invalid: {exc}"
        ok = (verify_positive(G, cert) if cert.verdict == "CircularArc"
              else verify_negative(G, cert))
        return "OK" if ok else "REJECTED"

    @staticmethod
    def cli_outcome(tmp_path, capsys, G, doc):
        g, c = tmp_path / "g.txt", tmp_path / "c.json"
        g.write_text(write_edge_list(G))
        c.write_text(json.dumps(doc))
        code = main(["verify", str(g), str(c)])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        return code, out + err

    @pytest.mark.parametrize("edit,message", [
        (_tamper_digest, "issued for a different graph"),
        (_replace_walk_vertex, "REJECTED"),
        (_anchor_on_walk, "REJECTED"),
        (_swap_pair, "REJECTED"),
        (_unknown_walk_name, "walk_q[1] must be an integer, not 'zz'"),
        (_old_format, "ca-cert/1 certificates are no longer read; "
                      "re-run `circarc recognize`"),
        (_trace_format, "ca-cert/2 certificates are no longer read; "
                        "re-run `circarc recognize`"),
        (_v3, "ca-cert/3 certificates are no longer read; "
              "re-run `circarc recognize` to issue a ca-cert/4 one"),
        (_drop_centre, "true twins 'f', 'a'"),
    ], ids=["digest", "walk-vertex", "anchor", "pair-swapped", "unknown-name",
            "ca-cert-1", "ca-cert-2", "ca-cert-3", "unreduced"])
    def test_tampered_document(self, biclaw, tmp_path, capsys, edit, message):
        doc = certificate_to_doc(biclaw, recognize(biclaw))
        edit(doc)
        got = self.outcome(biclaw, doc)
        assert got != "OK" and message in got
        code, text = self.cli_outcome(tmp_path, capsys, biclaw, doc)
        assert code == 1 and message in text

    @pytest.mark.parametrize("graph", ["c4", "biclaw"])
    @pytest.mark.parametrize("other", [
        lambda G: _with_edge_flipped(G, 0, 2),
        lambda G: _with_names_swapped(G, 0, 1),
    ], ids=["edge-flipped", "names-swapped"])
    def test_other_graph(self, request, tmp_path, capsys, graph, other):
        G = request.getfixturevalue(graph)
        doc = certificate_to_doc(G, recognize(G))
        H = other(G)
        assert self.outcome(H, doc) == "invalid: certificate was issued for a different graph"
        code, text = self.cli_outcome(tmp_path, capsys, H, doc)
        assert code == 1 and "different graph" in text
