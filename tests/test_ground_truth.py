"""Ground truth beyond the oracle's reach: C_n + K_1, a minimal obstruction
at every n >= 4.

A disconnected circular-arc graph has a component whose arcs miss a point
of the circle; cut there, that component is an interval graph.  C_n is
not an interval graph, so C_n plus an isolated vertex is not circular-arc.
Every proper induced subgraph is C_n itself or a disjoint union of paths
(plus perhaps the isolated vertex), which is circular-arc.  So the verdict
of the graph and of each one-vertex deletion is known at any n.

The path P_n and the nested intervals of ``nested_lines`` are interval
graphs, so circular-arc, at every n.  These three deep families are also
checked with their vertex ids shuffled, as the labeller's restarts and the
Δ loop's pair order depend on the ids.

A graph of two or more components is circular-arc exactly when every
component is an interval graph, so the recognizer certifies such a graph
one component at a time.  Disjoint unions of two small graphs check that
route against the oracle; short-arc models, which fall apart into many
components, check it at scale.
"""

import random

import networkx as nx
import numpy as np
import pytest

from arc_model_edges import cycle_lines, nested_lines, path_lines, short_lines, shuffled
from circarc.check import (NEGATIVE, POSITIVE, representation_error, verify_negative,
                           verify_positive)
from circarc.formats import parse_certificate, parse_edge_list, serialize_certificate
from circarc.graph import Graph, build_graph
from circarc.oracle import ORACLE_CAP, oracle_is_ca
from circarc.recognizer import recognize
from conftest import disjoint_union


def cycle_plus_vertex(n: int) -> Graph:
    """The cycle c0 - c1 - ... - c(n-1) - c0 and the isolated vertex k."""
    return build_graph(n + 1, [(i, (i + 1) % n) for i in range(n)],
                       [f"c{i}" for i in range(n)] + ["k"])


def certified_verdict(G: Graph) -> str:
    """The verdict, once its serialized certificate has parsed and verified."""
    cert = parse_certificate(G, serialize_certificate(G, recognize(G)))
    verify = verify_positive if cert.verdict == POSITIVE else verify_negative
    assert verify(G, cert), cert.verdict
    return cert.verdict


@pytest.mark.parametrize("n", [4, 5, 7, 50, 200])
def test_cycle_plus_vertex_is_not_circular_arc(n):
    assert certified_verdict(cycle_plus_vertex(n)) == NEGATIVE


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_every_vertex_deletion_is_circular_arc(n):
    G = cycle_plus_vertex(n)
    assert G.n <= ORACLE_CAP and not oracle_is_ca(G)
    for v in range(G.n):
        H = G.induced([u for u in range(G.n) if u != v])
        assert oracle_is_ca(H), H.names
        assert certified_verdict(H) == POSITIVE, H.names


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("lines,verdict", [(path_lines, POSITIVE), (cycle_lines, NEGATIVE),
                                           (nested_lines, POSITIVE)],
                         ids=["path", "cycle", "nested"])
def test_deep_family_with_shuffled_ids(lines, verdict, seed):
    G = parse_edge_list("\n".join(shuffled(lines(200), seed)))
    plain = parse_edge_list("\n".join(lines(200)))
    assert G.names != plain.names
    assert np.array_equal(G.induced([G.index_of(v) for v in plain.names]).adj, plain.adj)
    assert certified_verdict(G) == verdict


def disjoint_pairs(seed: int, count: int):
    """count disjoint unions of two atlas graphs, on at most ORACLE_CAP
    vertices, drawn by random.Random(seed), with their vertex ids shuffled.
    Each graph is connected and not complete, so it keeps two or more
    vertices once its true twins merge, and the union splits."""
    atlas = [build_graph(g.number_of_nodes(), list(g.edges())) for g in nx.graph_atlas_g()
             if 3 <= g.number_of_nodes() <= ORACLE_CAP - 3 and nx.is_connected(g)
             and nx.density(g) < 1]
    rng = random.Random(seed)
    for _ in range(count):
        a = rng.choice(atlas)
        b = rng.choice([g for g in atlas if g.n <= ORACLE_CAP - a.n])
        yield disjoint_union(a, b, seed=rng.randrange(1 << 32))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_disjoint_unions_agree_with_oracle(seed):
    for G in disjoint_pairs(seed, 30):
        assert G.n <= ORACLE_CAP
        want = POSITIVE if oracle_is_ca(G) else NEGATIVE
        assert certified_verdict(G) == want, G.edges()


@pytest.mark.parametrize("n,seed", [(400, 2), (800, 1)])
def test_short_arc_model_is_certified(n, seed):
    G = parse_edge_list("\n".join(short_lines(n, seed)))
    cert = recognize(G)
    assert cert.verdict == POSITIVE
    assert representation_error(G, cert.arcs) is None
