"""Acceptance gate: the ten headline checks, one pass line each."""

import itertools
import random
import time

import numpy as np

from circarc.formats import (parse_edge_list, parse_graph6,
                             serialize_certificate, write_graph6)
from circarc.graph import build_graph, reduce as reduce_graph
from circarc.edgetypes import classify_all, complete, circular_pairs
from circarc.knotting import (AvoidWalkPair, bipartite_or_odd_cycle,
                              build_knotting, walk_pair_error)
from circarc.oracle import cross_check, enumerate_labelled_graphs, oracle_is_ca
from circarc.recognizer import (NEGATIVE, POSITIVE, recognize,
                                verify_negative, verify_positive)
from conftest import BICLAW_EDGES, NEAR_BICLAW_EDGES, completion_of


def report(line):
    print(f"PASS {line}")


def test_criterion_01_biclaw_negative():
    start = time.monotonic()
    G = parse_edge_list(BICLAW_EDGES)
    cert = recognize(G)
    assert cert.verdict == NEGATIVE
    H = cert.completion
    assert H.n == 14
    for name in "abcd":
        bar = H.index_of("~" + name)
        assert H.closed_neighborhood(bar) == set(range(14)) - {H.index_of(name)}
    assert verify_negative(G, cert)
    K = build_knotting(classify_all(H), H.index_of("f"))
    assert isinstance(bipartite_or_odd_cycle(K), list)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(f"criterion 1: biclaw rejected with verified obstruction, "
           f"14-vertex completion, anchor f non-bipartite ({elapsed:.2f}s)")


def test_criterion_02_near_biclaw_positive():
    start = time.monotonic()
    G = parse_edge_list(NEAR_BICLAW_EDGES)
    cert = recognize(G)
    assert cert.verdict == POSITIVE
    assert verify_positive(G, cert)
    H = completion_of(G)[2]
    assert H.graph.n == 12
    K = build_knotting(H, H.graph.index_of("f"))
    assert isinstance(bipartite_or_odd_cycle(K), np.ndarray)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(f"criterion 2: biclaw minus one edge accepted, 12-vertex "
           f"completion, anchor f bipartite ({elapsed:.2f}s)")


def test_criterion_03_hand_written_walks():
    G = parse_edge_list(BICLAW_EDGES)
    H = completion_of(G)[2]
    idx = H.graph.index_of
    awp = AvoidWalkPair(
        idx("c"), (idx("a"), idx("b")),
        [idx(v) for v in ["a", "f", "d", "d", "g", "b"]],
        [idx(v) for v in ["b", "b", "b", "~h", "a", "a"]])
    assert walk_pair_error(H, awp) is None
    report("criterion 3: hand-built pair {a,b} anchored at c with its two "
           "length-6 walks passes the walk checker verbatim")


def test_criterion_04_exhaustive_oracle_agreement():
    start = time.monotonic()
    report_obj = cross_check(5)
    assert report_obj.checked == 1 + 2 + 8 + 64 + 1024
    assert report_obj.ok, report_obj.disagreements
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(f"criterion 4: all 1099 graphs on <=5 vertices agree with the "
           f"oracle, certificates verified ({elapsed:.1f}s)")


def test_criterion_05_randomized_oracle_agreement():
    start = time.monotonic()
    r6 = cross_check(1, {"n": 6, "count": 300, "edge_prob": 0.5, "seed": 606})
    r7 = cross_check(1, {"n": 7, "count": 200, "edge_prob": 0.5, "seed": 707})
    assert r6.ok, r6.disagreements
    assert r7.ok, r7.disagreements
    assert r6.checked == 301 and r7.checked == 201
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(f"criterion 5: 300 random graphs at n=6 and 200 at n=7 agree "
           f"with the oracle ({elapsed:.1f}s)")


def test_criterion_06_completion_law_and_uniqueness():
    import networkx as nx
    checked = 0
    for n in range(2, 6):
        for G in enumerate_labelled_graphs(n):
            reduced, _ = reduce_graph(G)
            if reduced.n < 2:
                continue
            T = classify_all(reduced)
            H, _ = complete(T)
            s = (circular_pairs(T) >= 0).sum()
            assert H.graph.n == 2 * reduced.n - s
            H2, _ = complete(classify_all(reduced.induced(
                list(range(reduced.n))[::-1])))
            assert nx.is_isomorphic(nx.from_numpy_array(H.graph.adj),
                                    nx.from_numpy_array(H2.graph.adj))
            checked += 1
    report(f"criterion 6: completion size law and ordering-independence "
           f"hold on {checked} reduced graphs up to 5 vertices")


def test_criterion_07_interval_ordering_oracle():
    from circarc.delta import (DeltaInvertiblePair, interval_orientation,
                               verify_interval_ordering)
    from test_delta import random_labelled
    rng = random.Random(77)
    disagreements = 0
    for _ in range(1000):
        L = random_labelled(rng, rng.randint(1, 5))
        try:
            interval_orientation(L)
            ok = True
        except DeltaInvertiblePair:
            ok = False
        brute = any(verify_interval_ordering(L, list(p))
                    for p in itertools.permutations(range(L.n)))
        if ok != brute:
            disagreements += 1
    assert disagreements == 0
    report("criterion 7: 1000 random consistently labelled graphs, "
           "orientation success matches brute force every time")


def test_criterion_08_bipartiteness_characterization():
    checked_pos = checked_neg = 0
    for n in range(2, 6):
        for G in enumerate_labelled_graphs(n):
            reduced, _ = reduce_graph(G)
            if reduced.n < 2:
                continue
            H, _ = complete(classify_all(reduced))
            if oracle_is_ca(G):
                for z in range(H.graph.n):
                    res = bipartite_or_odd_cycle(build_knotting(H, z))
                    assert isinstance(res, np.ndarray), (G.edges(), z)
                checked_pos += 1
            else:
                z = min(range(H.graph.n),
                        key=lambda v: (H.graph.degree(v), v))
                res = bipartite_or_odd_cycle(build_knotting(H, z))
                assert isinstance(res, list), G.edges()
                checked_neg += 1
    report(f"criterion 8: knotting bipartite at every anchor for "
           f"{checked_pos} accepted graphs, non-bipartite at the min-degree "
           f"anchor for {checked_neg} rejected ones")


def _random_interval_graph(rng, count):
    points = rng.sample(range(4 * count), 2 * count)
    ivals = [tuple(sorted(points[2 * i:2 * i + 2])) for i in range(count)]
    edges = [(i, j) for i in range(count) for j in range(i + 1, count)
             if ivals[i][0] <= ivals[j][1] and ivals[j][0] <= ivals[i][1]]
    return build_graph(count, edges)


def test_criterion_09_scale_smoke():
    rng = random.Random(99)
    worst_iv = 0.0
    for _ in range(5):
        G = _random_interval_graph(rng, 50)
        start = time.monotonic()
        cert = recognize(G)
        elapsed = time.monotonic() - start
        assert cert.verdict == POSITIVE
        assert verify_positive(G, cert)
        assert elapsed < 10
        worst_iv = max(worst_iv, elapsed)
    worst_rand = 0.0
    for seed in (1, 2, 3):
        r = random.Random(seed)
        edges = [e for e in itertools.combinations(range(100), 2)
                 if r.random() < 0.5]
        G = build_graph(100, edges)
        start = time.monotonic()
        cert = recognize(G)
        elapsed = time.monotonic() - start
        ok = (verify_positive(G, cert) if cert.verdict == POSITIVE
              else verify_negative(G, cert))
        assert ok
        assert elapsed < 60
        worst_rand = max(worst_rand, elapsed)
    report(f"criterion 9: fifty-interval graphs accepted in <= "
           f"{worst_iv:.2f}s, dense n=100 graphs certified in <= "
           f"{worst_rand:.2f}s")


def test_criterion_10_determinism_and_formats():
    for text in (BICLAW_EDGES, NEAR_BICLAW_EDGES):
        G = parse_edge_list(text)
        a = serialize_certificate(G, recognize(G))
        b = serialize_certificate(G, recognize(G))
        assert a == b
    count = 0
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            G = build_graph(n, [p for i, p in enumerate(pairs)
                                if mask >> i & 1])
            back = parse_graph6(write_graph6(G))
            assert back.n == G.n and back.edges() == G.edges()
            count += 1
    C4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert write_graph6(C4) == "Cl"
    assert parse_graph6("Cl").edges() == C4.edges()
    report(f"criterion 10: byte-identical certificates on repeat runs, "
           f"graph6 round trip exact on {count} graphs, C4 <-> 'Cl'")
