import importlib
import itertools
import json
import random
import sys
from dataclasses import replace
from types import SimpleNamespace

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
from circarc.graph import Graph, build_graph
from circarc.recognizer import recognize
from arc_model_edges import edge_lines, nested_lines, short_lines
from conftest import (BICLAW_EDGES, NEAR_BICLAW_EDGES, arc_model, bfs, covers, disjoint_union,
                      interval_model, planted_negative)
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
        for n in (0, 1, 2):
            edges = [(0, 1)] if n == 2 else []
            G = build_graph(n, edges)
            cert = recognize(G)
            assert cert.verdict == POSITIVE
            assert verify_positive(G, cert)

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
            # certificate; the reduced graph and its completion are
            # classified once each
            assert counts == {"delta.implication_classes": labelled,
                              "delta.ordering_violation": 0,
                              "knotting.walk_pair_error": 0,
                              "arcs.representation_error": 1,
                              "check.completion_error": 0,
                              "check.circular_pairs": 1,
                              "check.classify_all": 2,
                              "check.negative_error": 0}

    def test_two_component_positive(self, monkeypatch):
        counts = count_calls(monkeypatch, self.NAMES)
        G = disjoint_union(interval_model(random.Random(1), 20),
                           interval_model(random.Random(2), 30))
        assert recognize(G).verdict == POSITIVE
        # each piece, a component plus one vertex of the other, is
        # classified and completed, and paired for its lift, on its own; the
        # arcs laid side by side are checked once, on G
        assert counts == {"delta.implication_classes": 0,
                          "delta.ordering_violation": 0,
                          "knotting.walk_pair_error": 0,
                          "arcs.representation_error": 1,
                          "check.completion_error": 0,
                          "check.circular_pairs": 2,
                          "check.classify_all": 4,
                          "check.negative_error": 0}

    def test_negative_route(self, monkeypatch):
        counts = count_calls(monkeypatch, self.NAMES)
        for seed, pattern in enumerate(["biclaw", "c4+k1"]):
            counts.update(dict.fromkeys(counts, 0))
            G = planted_negative(random.Random(seed), 30, pattern)
            assert recognize(G).verdict == NEGATIVE
            # the completion and the walks are checked once, with the
            # emitted certificate, whose completion check pairs G[S] and the
            # completion; complete pairs the completion once more.  The
            # check reads the run's own classifications of the reduced
            # graph, which is G[S], and of the completion, and classifies
            # neither again
            assert counts == {"delta.implication_classes": 0,
                              "delta.ordering_violation": 0,
                              "knotting.walk_pair_error": 1,
                              "arcs.representation_error": 0,
                              "check.completion_error": 1,
                              "check.circular_pairs": 3,
                              "check.classify_all": 2,
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
        # isolated vertex beside the rest
        G = (build_graph(2, []) if graph == "2K1"
             else parse_edge_list("\n".join(nested_lines(60))))
        run = recognizer._Run()
        cert = recognizer._certificate(G, run)
        assert run.pieces == [] and "classify_all" in run
        assert positive_error(G, cert) is None

    def test_positive_pieces_side_by_side(self):
        # two interval models, a path and two isolated vertices
        parts = (interval_model(random.Random(3), 12), build_graph(3, [(0, 1), (1, 2)]),
                 interval_model(random.Random(4), 9), build_graph(2, []))
        G = disjoint_union(*parts, seed=5)
        run = recognizer._Run()
        cert = recognizer._certificate(G, run)
        assert len(run.pieces) == 3
        assert representation_error(G, cert.arcs) is None
        # no arc wraps: each piece's own circle is cut just past its added
        # vertex, and expanding twins nests their arcs inside their kept one
        assert all(l < r for l, r in run["expand_arcs"].arcs.values())

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


def fresh_error(G, cert):
    """negative_error with every classification made afresh."""
    return negative_error(G, replace(cert, reduced=None))


class TestNegativeCheckWork:
    def test_parse_and_verify(self, monkeypatch):
        # an 85-arc model beside a biclaw on b0..b6, as the bench's planted
        # negatives
        G = parse_edge_list("\n".join(edge_lines(85, 1, biclaw=True)))
        text = serialize_certificate(G, recognize(G))
        counts = count_calls(monkeypatch, ("check.classify_all", "check.circular_pairs"))
        assert verify_negative(G, parse_certificate(G, text))
        # the reader classifies G[S] to build the completion and hands it
        # on; the checker classifies the completion, and pairs each once
        assert counts == {"check.classify_all": 2, "check.circular_pairs": 2}
        # without the biclaw centre b0, G[S] has true twins: the reader
        # refuses it, naming them by input name, not by index
        doc = json.loads(text)
        doc["negative"]["vertices"].remove(G.index_of("b0"))
        with pytest.raises(FormatError, match=r"true twins 'b\d+', 'b\d+'"):
            parse_certificate(G, json.dumps(doc))

    def test_unconfirmed_classifications_are_made_afresh(self, monkeypatch, biclaw):
        parsed = parse_certificate(biclaw, serialize_certificate(biclaw, recognize(biclaw)))
        T = parsed.reduced
        counts = count_calls(monkeypatch, ("check.classify_all",))
        for name, awp in broken_obstructions(parsed.obstruction):
            cert = replace(parsed, obstruction=awp)
            cases = {
                "no reduced": replace(cert, reduced=None),
                "vertices changed after parsing": replace(cert, vertices=cert.vertices[::-1]),
                "reduced not a TypedGraph": replace(cert, reduced=SimpleNamespace(**vars(T))),
                "reduced with a writable array": replace(
                    cert, reduced=replace(T, types=T.types.copy())),
            }
            for case, other in cases.items():
                counts["check.classify_all"] = 0
                got = negative_error(biclaw, other)
                # G[S] afresh: one more than the completion alone, which
                # the reader leaves unclassified
                assert counts == {"check.classify_all": 2}, (name, case)
                assert got == fresh_error(biclaw, other), (name, case)


def run_parts(G):
    """G's negative certificate, unchecked, with the run's classification
    of the completion; its reduced is the run's of the reduced graph."""
    run = recognizer._Run()
    cert = recognizer._certificate(G, run)
    assert cert.verdict == NEGATIVE
    assert cert.reduced is run["classify_all"]
    return cert, run["complete"][0]


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


class TestHeldNegativeCheck:
    """negative_error on a run's own classifications answers as it does on
    classifications made afresh."""

    @pytest.mark.parametrize("graph", list(NEGATIVES))
    def test_same_answer_as_negative_error(self, monkeypatch, graph):
        G = NEGATIVES[graph]()
        cert, H = run_parts(G)
        broken = {name: replace(cert, obstruction=awp)  # the same completion object
                  for name, awp in broken_obstructions(cert.obstruction)}
        want = {name: fresh_error(G, other) for name, other in broken.items()}
        counts = count_calls(monkeypatch, ("check.classify_all",))
        for name, other in broken.items():
            got = negative_error(G, other, H)
            assert counts == {"check.classify_all": 0}, name
            assert got == want[name], name
            assert (got is None) == (name == "emitted"), (name, got)

    def test_other_graphs_get_the_full_check(self, monkeypatch, biclaw):
        cert, H = run_parts(biclaw)
        Hg = H.graph
        renamed = Graph(biclaw.n, biclaw.adj, tuple(n + "'" for n in biclaw.names))
        toggled = biclaw.adj.copy()
        toggled[0, -1] = toggled[-1, 0] = not toggled[0, -1]
        cases = {
            "completion copied": (biclaw, replace(
                cert, completion=Graph(Hg.n, Hg.adj.copy(), Hg.names))),
            "vertex set reordered": (biclaw, replace(cert, vertices=cert.vertices[1:] + [0])),
            "input renamed": (renamed, cert),
            "input edge toggled": (Graph(biclaw.n, toggled, biclaw.names), cert),
        }
        counts = count_calls(monkeypatch, ("check.classify_all",))
        for name, (G, other) in cases.items():
            counts["check.classify_all"] = 0
            got = negative_error(G, other, H)
            # the one classification that does not match is made afresh
            assert counts == {"check.classify_all": 1}, name
            assert got == fresh_error(G, other), name


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
        # an index past the end would raise, and -1 would wrap, in G.induced;
        # the check on a run's own classifications gives the same reason
        cert, H = run_parts(biclaw)
        assert cert.vertices == list(range(7))
        cert.vertices = edit(cert.vertices)
        assert message in fresh_error(biclaw, cert)
        assert negative_error(biclaw, cert, H) == fresh_error(biclaw, cert)


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
