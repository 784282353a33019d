"""Ground truth beyond the oracle's reach: C_n + K_1, a minimal obstruction
at every n >= 4.

A disconnected circular-arc graph has a component whose arcs miss a point
of the circle; cut there, that component is an interval graph.  C_n is
not an interval graph, so C_n plus an isolated vertex is not circular-arc.
Every proper induced subgraph is C_n itself or a disjoint union of paths
(plus perhaps the isolated vertex), which is circular-arc.  So the verdict
of the graph and of each one-vertex deletion is known at any n.
"""

import pytest

from circarc.check import NEGATIVE, POSITIVE, verify_negative, verify_positive
from circarc.formats import parse_certificate, serialize_certificate
from circarc.graph import Graph, build_graph
from circarc.oracle import ORACLE_CAP, oracle_is_ca
from circarc.recognizer import recognize


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
