import numpy as np
import pytest

from circarc.delta import Label, LabelledGraph
from circarc.edgetypes import circular_pairs, classify_all, complete
from circarc.formats import parse_edge_list
from circarc.graph import build_graph, reduce as reduce_graph
from circarc.knotting import bipartite_or_odd_cycle, build_knotting, overlap_side

BICLAW_EDGES = "d f\nf a\nd g\nd h\ng b\nh c"
NEAR_BICLAW_EDGES = "d f\nf a\nd g\nd h\ng b"


@pytest.fixture
def biclaw():
    return parse_edge_list(BICLAW_EDGES)


@pytest.fixture
def near_biclaw():
    return parse_edge_list(NEAR_BICLAW_EDGES)


@pytest.fixture
def c4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                       ["v1", "v2", "v3", "v4"])


@pytest.fixture
def p4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3)], ["a", "b", "c", "d"])


def completion_of(G):
    """Reduce, classify and complete; returns (reduced, trace, H, pairing)."""
    reduced, trace = reduce_graph(G)
    H, pairing = complete(classify_all(reduced))
    return reduced, trace, H, pairing


def side_at(T, z):
    """The side Y of z's overlappers, read from the knotting 2-colouring."""
    K = build_knotting(T, z)
    colouring = bipartite_or_odd_cycle(K)
    assert isinstance(colouring, dict), "knotting graph is not bipartite"
    return overlap_side(T, K, colouring, circular_pairs(T).partner[z])


def make_labelled(n, overlaps=(), inclusions=()):
    """Labelled graph from explicit pair lists.

    overlaps: unordered Overlap pairs; inclusions: ordered (outer, inner)
    pairs, closed under transitivity by the caller.
    """
    labels = np.zeros((n, n), dtype=np.int8)
    inside = np.zeros((n, n), dtype=bool)
    for u, v in overlaps:
        labels[u, v] = labels[v, u] = Label.OVERLAP
    for u, v in inclusions:
        labels[u, v] = labels[v, u] = Label.INCLUSION
        inside[u, v] = True
    np.fill_diagonal(labels, Label.INCLUSION)
    return LabelledGraph(n, labels, inside)
