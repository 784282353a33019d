import importlib
import inspect
import itertools
import json
import random
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from circarc import recognizer
from circarc.arcs import ArcRepresentation
from circarc.check import (NEGATIVE, POSITIVE, AvoidWalkPair, Certificate, InternalError,
                           circular_pairs, classify_all, negative_error, positive_error,
                           representation_error, verify_negative, verify_positive)
from circarc.cli import main
from circarc.formats import (FormatError, parse_certificate, parse_edge_list,
                             serialize_certificate)
from circarc.graph import Graph, build_graph, reduce
from circarc.recognizer import recognize
from arc_model_edges import command_lines, edge_lines, nested_lines, short_lines
from conftest import (ARC_LENGTHS, BICLAW_EDGES, NEAR_BICLAW_EDGES, arc_length_model, arc_model,
                      bfs, covers, disjoint_union, interval_model, is_compact, planted_negative)
from test_ground_truth import cycle_plus_vertex


class TestRecognize:
    def test_biclaw_negative(self, biclaw):
        cert = recognize(biclaw)
        assert cert.verdict == NEGATIVE
        assert cert.completion.n == 14
        assert verify_negative(biclaw, cert)

    def test_near_biclaw_positive(self, near_biclaw):
        cert = recognize(near_biclaw)
        assert cert.verdict == POSITIVE
        assert verify_positive(near_biclaw, cert)

    def test_c4_positive(self, c4):
        cert = recognize(c4)
        assert cert.verdict == POSITIVE
        assert verify_positive(c4, cert)
        # the four arcs jointly cover the whole circle
        m = cert.arcs.circle_size
        assert all(any(covers(m, cert.arcs.arcs[v], s) for v in range(4))
                   for s in range(m))

    def test_c4_plus_isolated_negative(self):
        G = build_graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
        cert = recognize(G)
        assert cert.verdict == NEGATIVE
        assert verify_negative(G, cert)

    def test_trivial_graphs(self):
        # K_5 reduces to one survivor and four universal vertices, so its
        # circle is 10 slots; the empty graph's is one slot
        for n, edges in ((0, []), (1, []), (2, [(0, 1)]), (3, []),
                         (5, list(itertools.combinations(range(5), 2)))):
            G = build_graph(n, edges)
            cert = recognize(G)
            assert cert.verdict == POSITIVE
            assert verify_positive(G, cert)
            assert is_compact(G, cert.arcs)

    def test_short_arc_model(self):
        # a sparse model whose Δ-orientation splits off 74 modules
        G = parse_edge_list("\n".join(short_lines(200, 1)))
        cert = recognize(G)
        assert cert.verdict == POSITIVE
        assert verify_positive(G, cert)

    @pytest.mark.parametrize("exc,raised,message", [
        (RuntimeError("boom"), InternalError, "^complete: RuntimeError: boom$"),
        (MemoryError(), MemoryError, None),
    ], ids=["runtime", "memory"])
    def test_stage_check_that_raises(self, monkeypatch, near_biclaw, exc, raised, message):
        # a planted row swap in build_intervals fails the run; its diagnosis
        # then meets a raising completion check, which names the complete
        # stage, or passes straight through if it is out of memory
        build = recognizer.build_intervals
        monkeypatch.setattr(recognizer, "build_intervals",
                            lambda L, order: build(L, order)[[1, 0, *range(2, L.n)]])

        def completion_error(*args):
            raise exc
        monkeypatch.setattr(recognizer, "completion_error", completion_error)
        with pytest.raises(raised, match=message):
            recognize(near_biclaw)

    def test_deterministic(self, biclaw, near_biclaw):
        from circarc.formats import serialize_certificate
        for G in (biclaw, near_biclaw):
            a, b = recognize(G), recognize(G)
            assert serialize_certificate(G, a) == serialize_certificate(G, b)


def count_calls(monkeypatch, names):
    """Count the calls of each "module.function" of circarc, wrapped at every
    circarc module that binds it, so internal calls are counted too."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        module, _, attr = name.rpartition(".")
        original = getattr(importlib.import_module(f"circarc.{module}"), attr)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "circarc" or mod_name.startswith("circarc."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counted)
    return counts


class TestSelfChecksRunOnce:
    """A valid run checks only its certificate: no stage checks its own
    output."""
    NAMES = ("delta.implication_classes", "delta.ordering_violation",
             "knotting.walk_pair_error", "arcs.representation_error",
             "check.completion_error", "check.circular_pairs",
             "check.classify_all", "check.negative_error")

    def test_positive_route(self, monkeypatch):
        counts = count_calls(monkeypatch, self.NAMES)
        nested = parse_edge_list("\n".join(nested_lines(60)))  # 28 modules deep
        # the forcing classes come off the knotting graph where the anchor
        # overlaps no vertex; seed 8's anchor overlaps two, so they are
        # labelled once
        graphs = [(arc_model(random.Random(seed), 30), 0) for seed in range(3)]
        for G, labelled in graphs + [(nested, 0), (arc_model(random.Random(8), 30), 1)]:
            counts.update(dict.fromkeys(counts, 0))
            assert recognize(G).verdict == POSITIVE
            # the pairing once, for the lift; the arcs once, with the emitted
            # certificate; the reduced graph is classified once, and its
            # completion's classification and pairing are derived from it
            assert counts == {"delta.implication_classes": labelled,
                              "delta.ordering_violation": 0,
                              "knotting.walk_pair_error": 0,
                              "arcs.representation_error": 1,
                              "check.completion_error": 0,
                              "check.circular_pairs": 1,
                              "check.classify_all": 1,
                              "check.negative_error": 0}

    def test_two_component_positive(self, monkeypatch):
        counts = count_calls(monkeypatch, self.NAMES)
        G = disjoint_union(interval_model(random.Random(1), 20),
                           interval_model(random.Random(2), 30))
        assert recognize(G).verdict == POSITIVE
        # each piece, a component plus one vertex of the other, is
        # classified once and completed, and paired for its lift, on its
        # own; the arcs laid side by side are checked once, on G
        assert counts == {"delta.implication_classes": 0,
                          "delta.ordering_violation": 0,
                          "knotting.walk_pair_error": 0,
                          "arcs.representation_error": 1,
                          "check.completion_error": 0,
                          "check.circular_pairs": 2,
                          "check.classify_all": 2,
                          "check.negative_error": 0}

    def test_negative_route(self, monkeypatch):
        counts = count_calls(monkeypatch, self.NAMES)
        for seed, pattern in enumerate(["biclaw", "c4+k1"]):
            counts.update(dict.fromkeys(counts, 0))
            G = planted_negative(random.Random(seed), 30, pattern)
            assert recognize(G).verdict == NEGATIVE
            # the completion and the walks are checked once, with the
            # emitted certificate, whose completion check pairs G[S] and the
            # completion; complete pairs the reduced graph, which is G[S].
            # The run classifies G[S] and derives its completion's
            # classification; the check classifies both itself
            assert counts == {"delta.implication_classes": 0,
                              "delta.ordering_violation": 0,
                              "knotting.walk_pair_error": 1,
                              "arcs.representation_error": 0,
                              "check.completion_error": 1,
                              "check.circular_pairs": 3,
                              "check.classify_all": 3,
                              "check.negative_error": 1}


def cycle(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestPieces:
    """A reduced graph with two or more components of two or more vertices
    is certified piece by piece: each such component C plus the least
    vertex x outside it, smallest C first, ties by least vertex."""

    @staticmethod
    def component(G: Graph, v: int) -> set[int]:
        return set(bfs({}, v, lambda u: np.flatnonzero(G.adj[u]).tolist()))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_smallest_component_plus_least_outside_vertex(self, seed):
        # C4, C5 and K1, shuffled: the C4 is the smallest multi-vertex
        # component, so its piece runs first, and it is not circular-arc
        G = disjoint_union(cycle(4), cycle(5), build_graph(1, []), seed=seed)
        c4 = self.component(G, next(v for v in range(G.n)
                                    if len(self.component(G, v)) == 4))
        cert = recognize(G)
        assert cert.verdict == NEGATIVE
        assert cert.vertices == sorted(c4 | {min(set(range(G.n)) - c4)})
        assert cert.completion.n == 10
        assert verify_negative(G, cert)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tie_goes_to_least_vertex(self, seed):
        G = disjoint_union(cycle(4), cycle(4), seed=seed)
        first = self.component(G, 0)
        cert = recognize(G)
        assert cert.vertices == sorted(first | {min(set(range(G.n)) - first)})
        assert verify_negative(G, cert)

    @pytest.mark.parametrize("graph", ["2K1", "nested"])
    def test_one_multi_vertex_component_stays_whole(self, graph):
        # nested intervals lose their universal vertex and keep one
        # isolated vertex beside the rest; the whole reduced graph is the
        # one piece, so the run keeps one piece record
        G = (build_graph(2, []) if graph == "2K1"
             else parse_edge_list("\n".join(nested_lines(60))))
        run = recognizer._Run()
        cert = recognizer._certificate(G, run)
        assert len(run) == 1 and "lift_to_circle" in run[0]
        assert run[0]["classify_all"].graph.n == reduce(G)[0].n
        assert positive_error(G, cert) is None

    def test_positive_pieces_side_by_side(self):
        # two interval models, a path and two isolated vertices
        parts = (interval_model(random.Random(3), 12), build_graph(3, [(0, 1), (1, 2)]),
                 interval_model(random.Random(4), 9), build_graph(2, []))
        G = disjoint_union(*parts, seed=5)
        run = recognizer._Run()
        cert = recognizer._certificate(G, run)
        assert len(run) == 3 and all("lift_to_circle" in piece for piece in run)
        assert representation_error(G, cert.arcs) is None
        # no arc wraps: each piece's own circle is cut just past its added
        # vertex, and expanding twins nests their arcs inside their kept one
        assert all(l < r for l, r in cert.arcs.arcs.values())

    @pytest.mark.parametrize("pattern,size", [("biclaw", 8), ("c4+k1", 5)])
    def test_planted_negative_names_its_piece(self, pattern, size):
        for seed in range(3):
            G = planted_negative(random.Random(seed), 30, pattern)
            cert = recognize(G)
            assert cert.verdict == NEGATIVE
            assert len(cert.vertices) == size
            assert verify_negative(G, parse_certificate(G, serialize_certificate(G, cert)))

    def test_planted_fault_is_named(self, monkeypatch, tmp_path, capsys):
        # the CI's row swap in build_intervals, on two disjoint near-biclaws:
        # the check of the arcs laid side by side fails, and the diagnosis
        # over the pieces names the stage
        edges = NEAR_BICLAW_EDGES.splitlines()
        path = tmp_path / "two.txt"
        path.write_text("\n".join(edges + [" ".join(v + "2" for v in e.split())
                                          for e in edges]) + "\n")
        build = recognizer.build_intervals
        monkeypatch.setattr(recognizer, "build_intervals",
                            lambda L, order: build(L, order)[[1, 0, *range(2, L.n)]])
        assert main(["recognize", str(path)]) == 70
        assert capsys.readouterr().err.startswith("# internal error: build_intervals: ")


def sweep_inputs():
    """Seeded inputs of the stage-check sweep: arc models of 4 to 30 arcs in
    each arc-length family, then negatives, a biclaw joined to an arc model
    by one edge that keeps it induced and C_n + K_1."""
    for family in ARC_LENGTHS:
        rng = random.Random(family)
        for _ in range(400):
            yield arc_length_model(rng, rng.randint(4, 30), family)
    for n in range(1, 25, 4):
        yield parse_edge_list("\n".join(command_lines([str(n), str(n), "--biclaw", "--join"])))
    for n in range(4, 25, 4):
        yield cycle_plus_vertex(n)


def test_every_stage_check_passes_on_every_piece():
    # every stage a piece ran is checked; a positive piece ran all five
    # checked stages, a negative one the completion alone
    passed = {stage: None for stage, _, _ in recognizer._STAGE_CHECKS}
    ran = {POSITIVE: 0, NEGATIVE: 0}
    for G in sweep_inputs():
        run = recognizer._Run()
        cert = recognizer._certificate(G, run)
        for piece in run:
            errors = {stage: check(piece) for stage, _, check in recognizer._STAGE_CHECKS
                      if stage in piece}
            assert errors == (passed if "lift_to_circle" in piece else {"complete": None})
        ran[cert.verdict] += 1
        if cert.verdict == POSITIVE:
            assert is_compact(G, cert.arcs)
            assert positive_error(G, cert) is None
        else:
            assert negative_error(G, cert) is None
    assert ran == {POSITIVE: 1600, NEGATIVE: 12}


class TestNegativeCheckWork:
    def test_parse_and_verify(self, monkeypatch):
        # an 85-arc model beside a biclaw on b0..b6, as the bench's planted
        # negatives
        G = parse_edge_list("\n".join(edge_lines(85, 1, biclaw=True)))
        text = serialize_certificate(G, recognize(G))
        counts = count_calls(monkeypatch, ("check.classify_all", "check.circular_pairs"))
        assert verify_negative(G, parse_certificate(G, text))
        # the reader classifies G[S] to build the completion; the checker
        # classifies G[S] again and the completion, and pairs each once
        assert counts == {"check.classify_all": 3, "check.circular_pairs": 2}
        # without the biclaw centre b0, G[S] has true twins: the reader
        # refuses it, naming them by input name, not by index
        doc = json.loads(text)
        doc["negative"]["vertices"].remove(G.index_of("b0"))
        with pytest.raises(FormatError, match=r"true twins 'b\d+', 'b\d+'"):
            parse_certificate(G, json.dumps(doc))


class TestCheckReadsInputAndCertificateOnly:
    """negative_error takes the input and the certificate, nothing more: it
    classifies G[S] and the completion itself, so no classification that a
    run or a reader made can stand in for them."""

    def test_no_classification_is_handed_in(self):
        assert list(inspect.signature(negative_error).parameters) == ["G", "cert"]
        assert [f.name for f in fields(Certificate)] == [
            "verdict", "arcs", "vertices", "completion", "obstruction"]

    @staticmethod
    def path_beside_biclaw_completion():
        # P_14 is circular-arc.  A completion that holds it beside the
        # biclaw's 14-vertex completion, with the biclaw's walks shifted
        # past it, has the right size and keeps P_14's types, but P_14's
        # vertices have no circular partner in it
        P = build_graph(14, [(i, i + 1) for i in range(13)], [f"g{i}" for i in range(14)])
        cert = recognize(parse_edge_list(BICLAW_EDGES))
        H, awp = cert.completion, cert.obstruction
        assert H.n == 14
        adj = np.zeros((28, 28), dtype=bool)
        adj[:14, :14], adj[14:, 14:] = P.adj, H.adj

        def shift(walk):
            return [v + 14 for v in walk]
        return P, Certificate(NEGATIVE, vertices=list(range(14)),
                              completion=Graph(28, adj, P.names + H.names),
                              obstruction=AvoidWalkPair(awp.anchor + 14, tuple(shift(awp.pair)),
                                                        shift(awp.walk_p), shift(awp.walk_q)))

    @staticmethod
    def biclaw_edge_added():
        # the biclaw's certificate, for the biclaw plus the edge d-c
        G = parse_edge_list(BICLAW_EDGES)
        adj = G.adj.copy()
        adj[0, -1] = adj[-1, 0] = True
        return Graph(G.n, adj, G.names), recognize(G)

    @staticmethod
    def biclaw_vertices_rotated():
        G = parse_edge_list(BICLAW_EDGES)
        cert = recognize(G)
        return G, replace(cert, vertices=cert.vertices[1:] + cert.vertices[:1])

    @pytest.mark.parametrize("case, reason", [
        ("path_beside_biclaw_completion",
         "completion check failed: vertex 'g0' has no circular partner"),
        ("biclaw_edge_added", "true twins 'h', 'c'"),
        ("biclaw_vertices_rotated",
         "completion check failed: input graph is not induced in the completion"),
    ])
    def test_forged_certificate(self, case, reason):
        G, cert = getattr(self, case)()
        assert negative_error(G, cert) == reason


class TestNegativeFaults:
    """A fault on the negative route reaches InternalError through the
    certificate check, named by the stage that made it."""

    def test_walk_step_replaced_by_anchor(self, monkeypatch, biclaw):
        extract = recognizer.extract_invertible_pair

        def broken(K, cycle):
            awp = extract(K, cycle)
            awp.walk_p[1] = awp.anchor
            return awp
        monkeypatch.setattr(recognizer, "extract_invertible_pair", broken)
        with pytest.raises(InternalError) as info:
            recognize(biclaw)
        assert str(info.value).startswith(
            "extract_invertible_pair: emitted certificate invalid: walk check failed")

    def test_completion_missing_its_last_vertex(self, monkeypatch, biclaw):
        original = recognizer.complete

        def broken(T):
            H, _ = original(T)
            assert H.graph.n > T.graph.n  # its last vertex is an added one
            short = classify_all(H.graph.induced(range(H.graph.n - 1)))
            return short, circular_pairs(short)
        monkeypatch.setattr(recognizer, "complete", broken)
        with pytest.raises(InternalError) as info:
            recognize(biclaw)
        assert str(info.value).startswith(
            "complete: completion check failed: wrong completion cardinality")


class TestVerifyPositive:
    def test_wrong_graph(self, c4, p4):
        cert = recognize(c4)
        assert not verify_positive(p4, cert)

    def test_single_vertex(self):
        G = build_graph(1, [])
        cert = Certificate(POSITIVE, arcs=ArcRepresentation(4, {0: (0, 1)}))
        assert verify_positive(G, cert)

    def test_verdict_mismatch(self, biclaw):
        assert not verify_positive(biclaw, recognize(biclaw))

    def test_missing_arcs(self, c4):
        assert positive_error(c4, Certificate(POSITIVE)) == "missing arcs"


def broken_obstructions(awp):
    """awp, then awp with a walk broken by hand, each under a name."""
    p, q = awp.walk_p, awp.walk_q
    yield "emitted", awp
    yield "step replaced by the anchor", replace(awp, walk_p=[p[0], awp.anchor, *p[2:]])
    yield "walk cut short", replace(awp, walk_q=q[:-1])
    yield "walks swapped", replace(awp, walk_p=q, walk_q=p)


NEGATIVES = {
    "biclaw": lambda: parse_edge_list(BICLAW_EDGES),
    **{f"planted {pattern}": (lambda pattern=pattern:
                              planted_negative(random.Random(1), 30, pattern))
       for pattern in ("biclaw", "c4+k1")},
    **{f"C{n}+K1": (lambda n=n: cycle_plus_vertex(n)) for n in (4, 5, 50)},
}


class TestVerifyNegative:
    def test_perturbed_walk_rejected(self, biclaw):
        cert = recognize(biclaw)
        awp = cert.obstruction
        bad_walk = list(awp.walk_p)
        bad_walk[0] = awp.anchor
        broken = Certificate(NEGATIVE, vertices=cert.vertices,
                             completion=cert.completion,
                             obstruction=AvoidWalkPair(
                                 awp.anchor, (awp.anchor, awp.pair[1]),
                                 bad_walk, awp.walk_q))
        assert not verify_negative(biclaw, broken)

    def test_hand_certificate(self, biclaw):
        # hand-built obstruction, independent of what recognize emits
        cert = recognize(biclaw)
        H = cert.completion
        idx = H.index_of
        hand = Certificate(
            NEGATIVE, vertices=cert.vertices, completion=H,
            obstruction=AvoidWalkPair(
                idx("c"), (idx("a"), idx("b")),
                [idx(v) for v in ["a", "f", "d", "d", "g", "b"]],
                [idx(v) for v in ["b", "b", "b", "~h", "a", "a"]]))
        assert verify_negative(biclaw, hand)

    def test_verdict_mismatch(self, c4):
        assert not verify_negative(c4, recognize(c4))

    @pytest.mark.parametrize("field", ["vertices", "completion", "obstruction"])
    def test_missing_payload(self, biclaw, field):
        cert = replace(recognize(biclaw), **{field: None})
        assert negative_error(biclaw, cert) == "missing negative payload"

    @pytest.mark.parametrize("edit,message", [
        (lambda S: S[:-1] + [7], "outside the input"),
        (lambda S: [-1] + S[1:], "outside the input"),
        (lambda S: S[:-1] + S[:1], "repeats a vertex"),
        (lambda S: S + S[:1], "repeats a vertex"),
    ], ids=["past-the-end", "negative", "repeated", "repeated-extra"])
    def test_bad_vertex_set(self, biclaw, edit, message):
        # an index past the end would raise, and -1 would wrap, in G.induced
        cert = recognize(biclaw)
        assert cert.vertices == list(range(7))
        cert.vertices = edit(cert.vertices)
        assert message in negative_error(biclaw, cert)

    @pytest.mark.parametrize("graph", list(NEGATIVES))
    def test_broken_walks(self, graph):
        G = NEGATIVES[graph]()
        cert = recognize(G)
        names, awp = cert.completion.names, cert.obstruction
        want = {
            "emitted": None,
            "step replaced by the anchor": (f"walk check failed: step {names[awp.walk_p[0]]!r}-"
                                            f"{names[awp.anchor]!r} is not an edge"),
            "walk cut short": "walk check failed: walks must be nonempty and of equal length",
            "walks swapped": "walk check failed: walk endpoints do not match the pair",
        }
        for name, broken in broken_obstructions(awp):
            assert negative_error(G, replace(cert, obstruction=broken)) == want[name], name


PATH_EDGES = "a b\nb c"  # a: (0, 2), b: (1, 4) and c: (3, 5) on a circle of 6


def _path_cert(arcs=None, circle_size=6):
    """The certificate of a-b-c above, with some arcs replaced."""
    model = {0: (0, 2), 1: (1, 4), 2: (3, 5), **(arcs or {})}
    return Certificate(POSITIVE, arcs=ArcRepresentation(circle_size, model))


def _biclaw_cert(obstruction=None, **fields):
    """The biclaw's certificate with some fields, or obstruction fields, replaced."""
    cert = recognize(parse_edge_list(BICLAW_EDGES))
    awp = replace(cert.obstruction, **(obstruction or {}))
    return replace(cert, obstruction=awp, **fields)


NOT_A_PAIR = "arc of vertex {!r} is not a pair of endpoints"
WALK_SEQUENCES = "walk check failed: the pair must be two vertices and each walk a sequence of them"
WRONG_TYPES = "negative payload of the wrong types"
HAND_BUILT = {
    "path as built": (_path_cert, None),
    "one end": (lambda: _path_cert({0: (0,)}), NOT_A_PAIR.format("a")),
    "three ends": (lambda: _path_cert({2: (3, 5, 0)}), NOT_A_PAIR.format("c")),
    "None arc": (lambda: _path_cert({1: None}), NOT_A_PAIR.format("b")),
    "int arc": (lambda: _path_cert({1: 1}), NOT_A_PAIR.format("b")),
    "float end": (lambda: _path_cert({1: (1.5, 4)}),
                  "endpoint 1.5 of vertex 'b' is not an integer"),
    "whole float end": (lambda: _path_cert({0: (0.0, 2)}),
                        "endpoint 0.0 of vertex 'a' is not an integer"),
    "str end": (lambda: _path_cert({2: (3, "5")}),
                "endpoint '5' of vertex 'c' is not an integer"),
    "str circle": (lambda: _path_cert(circle_size="10"), "circle size '10' is not an integer"),
    "None circle": (lambda: _path_cert(circle_size=None), "circle size None is not an integer"),
    "float circle": (lambda: _path_cert(circle_size=6.0), "circle size 6.0 is not an integer"),
    "arcs not a dict": (lambda: Certificate(POSITIVE, arcs=ArcRepresentation(6, None)),
                        "arc set does not match vertex set"),
    "biclaw as built": (_biclaw_cert, None),
    "float anchor": (lambda: _biclaw_cert({"anchor": 1.0}),
                     "walk check failed: vertex 1.0 is not an integer"),
    "str anchor": (lambda: _biclaw_cert({"anchor": "x"}),
                   "walk check failed: vertex 'x' is not an integer"),
    "None walk": (lambda: _biclaw_cert({"walk_p": None}), WALK_SEQUENCES),
    "None pair": (lambda: _biclaw_cert({"pair": None}), WALK_SEQUENCES),
    "three in pair": (lambda: _biclaw_cert({"pair": (0, 1, 2)}), WALK_SEQUENCES),
    "float in S": (lambda: _biclaw_cert(vertices=[0.0, *range(1, 7)]),
                   "vertex set holds 0.0, not an integer"),
    "str in S": (lambda: _biclaw_cert(vertices=["0", *range(1, 7)]),
                 "vertex set holds '0', not an integer"),
    "S not a list": (lambda: _biclaw_cert(vertices=7), WRONG_TYPES),
    "completion not a graph": (lambda: _biclaw_cert(completion="H"), WRONG_TYPES),
    "obstruction not a walk pair": (lambda: replace(_biclaw_cert(), obstruction=(0, 1)),
                                    WRONG_TYPES),
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_certificate_gets_a_reason(name):
    # every malformed field is named, never an exception nor a float truncated
    build, reason = HAND_BUILT[name]
    cert = build()
    G = parse_edge_list(PATH_EDGES if cert.verdict == POSITIVE else BICLAW_EDGES)
    error, verify = ((positive_error, verify_positive) if cert.verdict == POSITIVE
                     else (negative_error, verify_negative))
    assert error(G, cert) == reason
    assert verify(G, cert) == (reason is None)


class TestOracleAgreementSmall:
    def test_all_four_vertex_graphs(self):
        from circarc.oracle import oracle_is_ca
        pairs = list(itertools.combinations(range(4), 2))
        for mask in range(1 << len(pairs)):
            G = build_graph(4, [p for i, p in enumerate(pairs)
                                if mask >> i & 1])
            cert = recognize(G)
            assert (cert.verdict == POSITIVE) == oracle_is_ca(G)
            if cert.verdict == POSITIVE:
                assert verify_positive(G, cert)
            else:
                assert verify_negative(G, cert)
