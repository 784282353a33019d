import random
from typing import Callable, Hashable, Iterable, Mapping, MutableMapping, Optional, TypeVar

import numpy as np
import pytest

from circarc.delta import Label, LabelledGraph, labelled_from_typed
from circarc.check import EdgeType, circular_pairs, classify_all, completion_error
from circarc.edgetypes import avoiding_rows, complete, completion_graph
from circarc.formats import parse_edge_list
from circarc.graph import (Graph, build_graph, pack_rows, reduce as reduce_graph,
                           unpack_rows)
from circarc.knotting import (bipartite_or_odd_cycle, build_knotting, build_Z,
                              overlap_side)

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


Node = TypeVar("Node", bound=Hashable)


def bfs(parent: MutableMapping[Node, Optional[Node]], root: Node,
        neighbours: Callable[[Node], Iterable[Node]]) -> list[Node]:
    """Breadth-first search from root over the nodes not yet keys of parent.

    Records each reached node's tree parent in parent (root maps to None)
    and returns the reached nodes in visit order.  Calls that share one
    parent mapping grow a forest and never revisit a node.  The reference
    search of the tests' Python-object graph searches.
    """
    parent[root] = None
    order = [root]
    for cur in order:  # order doubles as the queue
        for nxt in neighbours(cur):
            if nxt not in parent:
                parent[nxt] = cur
                order.append(nxt)
    return order


def tree_path(parent: Mapping[Node, Optional[Node]], a: Node, b: Node) -> list[Node]:
    """Path from a to b in a search forest given by parent links.

    Roots map to None; a and b must lie in the same tree.  The path runs up
    from a to the lowest common ancestor and down to b.
    """
    def to_root(v: Node) -> list[Node]:
        path = [v]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    up, down = to_root(a), to_root(b)
    if up[-1] != down[-1]:
        raise ValueError(f"{a!r} and {b!r} lie in different trees")
    while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
        up.pop()
        down.pop()
    return up + down[-2::-1]


def _dense_avoiding(closed, overlap, included, z):
    """[x, y] = the edge xy (a loop when x = y) avoids z, from dense boolean
    matrices: the reference for the bit-packed rows of
    edgetypes.avoiding_rows."""
    free, ov = ~included[z], overlap[z]
    return (closed & free[:, None] & free[None, :]
            & ~(overlap & ov[:, None] & ov[None, :]))


def packed_avoiding(closed, overlap, included, zs):
    """[x, y] = the edge xy avoids every anchor in zs, from dense boolean
    matrices by way of edgetypes.avoiding_rows on their packed rows, one
    anchor at a time, then with the rows and columns included with an
    anchor cleared, as in _dense_avoiding."""
    n, rows, packed = len(closed), pack_rows(closed), pack_rows(overlap)
    for z in zs:
        rows = avoiding_rows(rows, packed, np.arange(n), packed[z], overlap[:, z])
    M = unpack_rows(rows, n)
    off = included[zs].any(axis=0)
    M[off] = False
    M[:, off] = False
    return M


def fold_anchor(packed, also):
    """Packed closed, overlap and included rows with the anchor also folded
    in, as build_knotting folds its anchor: the closed rows avoiding also
    by edgetypes.avoiding_rows over every row, off also's inclusions."""
    closed, overlap, included = packed
    n = len(closed)
    return (avoiding_rows(closed, overlap, np.arange(n), overlap[also],
                          unpack_rows(overlap[also], n)),
            overlap, included | included[also])


def _bfs_components(M):
    """Least member per component of the graph a boolean symmetric matrix
    induces on its diagonal, len(M) off it; one breadth-first search per
    component: the reference for the labeller edgetypes.avoiding_labels."""
    n = M.shape[0]
    label = np.full(n, n, dtype=np.intp)
    reach = ~M.diagonal()  # off-diagonal vertices are never reached
    for s in np.flatnonzero(~reach).tolist():
        if reach[s]:
            continue
        front = np.zeros(n, dtype=bool)
        front[s] = True
        comp = front.copy()
        while front.any():
            reach |= front
            front = M[front].any(axis=0) & ~reach
            comp |= front
        label[comp] = s
    return label


def pairing_completion_error(Gt, Ht, partner):
    """First problem found in (Ht, partner) as a completion of Gt, or None:
    the check of certificates that carried their pairing, less its checks
    for a universal vertex and true twins, which ``classify_all`` makes
    first.  The reference for ``check.completion_error``, which derives the
    pairing from Ht."""
    n, m = Gt.graph.n, Ht.graph.n
    if m < n:
        return "completion smaller than input"
    if not np.array_equal(Ht.graph.adj[:n, :n], Gt.graph.adj):
        return "input graph is not induced in the completion"
    if not np.array_equal(Ht.types[:n, :n], Gt.types):
        return "edge types not preserved"
    if m != 2 * n - (circular_pairs(Gt) >= 0).sum():
        return "wrong completion cardinality"
    if len(partner) != m or (partner < 0).any():
        return "pairing does not cover the completion"
    for u, v in enumerate(partner.tolist()):
        if u == v or partner[v] != u:
            return "pairing is not an involution without fixed points"
        if Ht.graph.adj[u, v] or not Ht.spanning[u, v]:
            return f"{u}, {v} paired but not a circular pair"
        if u >= n and v >= n:
            return f"added vertices {u}, {v} paired together"
    return None


def _overlaps(T, u, v):
    return T.types[u, v] in (EdgeType.OVERLAP1, EdgeType.OVERLAP2)


def stepwise_avoids(T, z, walk):
    """Does z avoid the walk, vertex by vertex and step by step: the
    reference for the array ``check.avoids``."""
    for a, b in zip(walk, walk[1:]):
        if a != b and not T.graph.adj[a, b]:
            raise ValueError(f"not a walk: {a} and {b} are non-adjacent")
    closed = T.graph.closed_adj()
    for x in walk:
        if closed[z, x] and not _overlaps(T, z, x):
            return False
    for a, b in zip(walk, walk[1:]):
        if a != b and _overlaps(T, z, a) and _overlaps(T, z, b) and _overlaps(T, a, b):
            return False
    return True


def stepwise_walk_pair_error(H, awp):
    """First problem found in an anchored pair of avoiding walks, one step at
    a time: the reference for the array ``check.walk_pair_error``."""
    n = H.graph.n
    (x, y), z, p, q = awp.pair, awp.anchor, awp.walk_p, awp.walk_q
    for v in [x, y, z, *p, *q]:
        if not 0 <= v < n:
            return f"vertex {v} out of range"
    if x == y:
        return "pair members must be distinct"
    if z in (x, y):
        return "anchor may not belong to the pair"
    if len(p) != len(q) or not p:
        return "walks must be nonempty and of equal length"
    if p[0] != x or p[-1] != y or q[0] != y or q[-1] != x:
        return "walk endpoints do not match the pair"
    names = H.graph.names
    for walk in (p, q):
        for a, b in zip(walk, walk[1:]):
            if a != b and not H.graph.adj[a, b]:
                return f"step {names[a]!r}-{names[b]!r} is not an edge"
    if not stepwise_avoids(H, z, p):
        return f"anchor {names[z]!r} does not avoid the first walk"
    if not stepwise_avoids(H, z, q):
        return f"anchor {names[z]!r} does not avoid the second walk"
    for i in range(len(p) - 1):
        if not stepwise_avoids(H, p[i], [q[i], q[i + 1]]):
            return f"{names[p[i]]!r} does not avoid step {i} of the second walk"
        if not stepwise_avoids(H, q[i + 1], [p[i], p[i + 1]]):
            return f"{names[q[i + 1]]!r} does not avoid step {i} of the first walk"
    return None


def classified_completion(T):
    """complete(T), asserted equal to ``classify_all`` of its graph and
    ``circular_pairs`` of that: names, and each array's values, dtype and
    read-only flag."""
    H, partner = complete(T)
    want = classify_all(completion_graph(T))
    assert H.graph.names == want.graph.names
    for got, ref in [(H.types, want.types), (H.contains, want.contains),
                     (H.spanning, want.spanning), (partner, circular_pairs(want))]:
        assert got.dtype == ref.dtype and got.flags.writeable == ref.flags.writeable
        assert np.array_equal(got, ref)
    return H, partner


def completion_of(G):
    """Reduce, classify and complete, checking the completion and its
    derived classification; returns (reduced, trace, H, partner)."""
    reduced, trace = reduce_graph(G)
    T = classify_all(reduced)
    H, partner = classified_completion(T)
    assert completion_error(T, H) is None
    return reduced, trace, H, partner


def side_at(T, z):
    """The side Y of z's overlappers, read from the knotting 2-colouring."""
    K = build_knotting(T, z)
    side = bipartite_or_odd_cycle(K)
    assert isinstance(side, np.ndarray), "knotting graph is not bipartite"
    return overlap_side(T, K, side, circular_pairs(T)[z])


def labels_on_Z(G):
    """Run the pipeline up to the labelled graph on the non-inverting set."""
    _, _, H, partner = completion_of(G)
    z = min(range(H.graph.n), key=lambda v: (H.graph.degree(v), v))
    side = side_at(H, z)
    zset = build_Z(H, z, side, partner)
    return H, partner, zset, labelled_from_typed(H, zset)


def covers(m, arc, slot):
    """The arc (l, r) on a circle of m slots covers the slot: the clockwise
    run l, l+1, ..., r holds it.  Works elementwise on numpy arrays."""
    l, r = arc
    return (slot - l) % m <= (r - l) % m


def arcs_meet(rep, u: int, v: int) -> bool:
    """The arcs of u and v share a slot: one covers the other's left end."""
    m, au, av = rep.circle_size, rep.arcs[u], rep.arcs[v]
    return covers(m, au, av[0]) or covers(m, av, au[0])


def arc_model(rng: random.Random, n: int) -> Graph:
    """Intersection graph of n arcs whose 2n ends are shuffled over 2n slots.

    The arc of v runs clockwise from slot ends[2v] to slot ends[2v+1].
    """
    ends = list(range(2 * n))
    rng.shuffle(ends)
    left, right = np.array(ends[0::2]), np.array(ends[1::2])
    # arc u meets arc v when it covers v's left end, or v covers u's
    cov = covers(2 * n, (left[:, None], right[:, None]), left[None, :])
    adj = cov | cov.T
    np.fill_diagonal(adj, False)
    return Graph(n, adj, tuple(map(str, range(n))))


def interval_model(rng: random.Random, n: int) -> Graph:
    """The intersection graph of n intervals whose 2n ends are shuffled."""
    ends = list(range(2 * n))
    rng.shuffle(ends)
    ivs = [sorted(ends[2 * v:2 * v + 2]) for v in range(n)]
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if ivs[u][0] < ivs[v][1] and ivs[v][0] < ivs[u][1]])


# each family's arc length, as a share of the circle
ARC_LENGTHS = {"uniform": lambda rng: rng.random(),
               "short": lambda rng: rng.uniform(0.01, 0.1),
               "near-equal": lambda rng: rng.uniform(0.38, 0.42),
               "long": lambda rng: rng.uniform(0.5, 0.95)}


def arc_length_model(rng: random.Random, n: int, family: str) -> Graph:
    """The intersection graph of n arcs on a circle of circumference 1, each
    running clockwise from a random start over a length drawn by
    ARC_LENGTHS[family]."""
    start = np.array([rng.random() for _ in range(n)])
    length = np.array([ARC_LENGTHS[family](rng) for _ in range(n)])
    cov = (start[None, :] - start[:, None]) % 1 <= length[:, None]  # u covers v's start
    adj = cov | cov.T
    np.fill_diagonal(adj, False)
    return Graph(n, adj, tuple(map(str, range(n))))


def is_compact(G: Graph, rep) -> bool:
    """rep's endpoints are exactly the slots 0, 1, ..., 2n - 1 of its circle,
    as on every positive certificate the recognizer writes (one slot if
    n = 0)."""
    ends = sorted(e for arc in rep.arcs.values() for e in arc)
    return rep.circle_size == max(2 * G.n, 1) and ends == list(range(2 * G.n))


# minimal non-circular-arc graphs, as (vertex count, edges)
PLANTED = {"biclaw": (7, [(0, 1), (1, 2), (0, 3), (0, 4), (3, 5), (4, 6)]),
           "c4+k1": (5, [(0, 1), (1, 2), (2, 3), (3, 0)])}


def planted_negative(rng: random.Random, n: int, pattern: str) -> Graph:
    """An arc model on n vertices beside a disjoint obstruction, shuffled."""
    k, edges = PLANTED[pattern]
    adj = np.zeros((n + k, n + k), dtype=bool)
    adj[:n, :n] = arc_model(rng, n).adj
    for u, v in edges:
        adj[n + u, n + v] = adj[n + v, n + u] = True
    perm = list(range(n + k))
    rng.shuffle(perm)
    return Graph(n + k, adj[np.ix_(perm, perm)], tuple(map(str, range(n + k))))


def disjoint_union(*graphs: Graph, seed: Optional[int] = None) -> Graph:
    """The disjoint union of graphs, named 0, 1, ... in order, its vertex
    ids shuffled by random.Random(seed) if a seed is given."""
    n = sum(g.n for g in graphs)
    adj = np.zeros((n, n), dtype=bool)
    at = 0
    for g in graphs:
        adj[at:at + g.n, at:at + g.n] = g.adj
        at += g.n
    perm = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(perm)
    return Graph(n, adj[perm][:, perm], tuple(map(str, range(n))))


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
