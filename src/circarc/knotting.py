"""Anchored knotting graph, its 2-colouring, and the set Z.

For a fixed anchor z of a completed graph, every vertex u that z does not
include gets one copy per component of the "safe" subgraph around u: the
edges, loops included, that avoid both u and z.  z is folded into H's
packed rows once (``edgetypes.avoiding_rows``), and one
``edgetypes.avoiding_labels`` call over those rows, which K keeps, labels
the safe subgraph of every u.  Its loops mark its vertices, so walks
inside a component avoid both u and z.  The knotting graph K is held as
its list of edges, one per tolerated pair of vertices, and 2-coloured by
one ``graph.union_find`` call over its bipartite double cover.  An odd
cycle among the copies rolls out into two mutually avoiding walks
anchored at z; bipartiteness certifies there are none, and the
2-colouring splits the overlappers of z so that one side joins the
non-inverting set Z.  When z overlaps no vertex, Z is every vertex z
tolerates, K's copies are the blocks of L's Δ-forcing, and the
2-colouring's side ids name L's forcing classes (``forcing_classes``), so
the positive route labels the avoiding edges once.  The odd cycle and the
walks inside a component come from one breadth-first search,
``_search``, over rows packed by ``graph.pack_rows``, unpacked one level
at a time; a walk's rows are the kept rows with u folded in as z was.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .check import AvoidWalkPair, EdgeType, InternalError, TypedGraph
from .check import walk_pair_error  # re-exported under its old name
from .delta import DeltaClasses, LabelledGraph, implication_classes
from .edgetypes import avoiding_labels, avoiding_rows
from .graph import pack_rows, union_find, unpack_rows


def _search(rows: np.ndarray, n: int, a: int,
            stop: Optional[int] = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Breadth-first search from a over a symmetric relation on n vertices,
    its rows packed by ``graph.pack_rows``, level by level, ended after the
    level that reaches stop, if given.

    Returns each vertex's tree parent (-1 for a and the unreached) and the
    levels in visit order.  A new vertex's parent is the first vertex of
    the level before that sees it, and a level is visited by parent, then
    by index: the tree of a first-in first-out search that scans
    neighbours by index.
    """
    parent = np.full(n, -1, dtype=np.intp)
    todo = np.ones(n, dtype=bool)
    todo[a] = False
    levels = [np.array([a])]
    while levels[-1].size and (stop is None or todo[stop]):
        sees = unpack_rows(rows[levels[-1]], n) & todo  # (level, n): who in level sees whom
        new = np.flatnonzero(sees.any(axis=0))
        first = sees[:, new].argmax(axis=0)  # first seer in visit order
        parent[new] = levels[-1][first]
        todo[new] = False
        levels.append(new[np.lexsort((new, first))])
    return parent, levels


@dataclass
class KnottingGraph:
    anchor: int
    copies: np.ndarray   # int (m, 2): copy c is the component copies[c, 1] of copies[c, 0]
    copy_at: np.ndarray  # int32 [u, v]: the copy of u whose component holds v, or -1
    pairs: np.ndarray    # int32 (e, 2): an edge per tolerated pair x < y, copy of x first
    avoid: tuple[np.ndarray, ...]  # packed rows: closed avoiding the anchor, overlap,
    # and included ORed with the anchor's

    @property
    def adjacency(self) -> list[list[int]]:
        """The sorted neighbours of each copy, as Python lists."""
        both = np.concatenate((self.pairs, self.pairs[:, ::-1]))
        both = both[np.lexsort(both.T[::-1])]  # by copy, then neighbour
        ends = np.searchsorted(both[:, 0], np.arange(len(self.copies) + 1)).tolist()
        flat = both[:, 1].tolist()
        return [flat[i:j] for i, j in zip(ends[:-1], ends[1:])]

    def component_path(self, c: int, a: int, b: int) -> list[int]:
        """Shortest a-b path inside copy c's component of its owner u's safe
        subgraph, read off a ``_search`` from a over the kept rows with u
        folded in: ``avoiding_rows`` at u, the columns included with u or
        the anchor cleared."""
        u, comp = self.copies[c].tolist()
        if (self.copy_at[u, [a, b]] != c).any():
            raise InternalError(f"path endpoints outside component {u}/{comp}")
        closed, overlap, included = self.avoid
        n = len(closed)
        rows = avoiding_rows(closed, overlap, np.arange(n), overlap[u], unpack_rows(overlap[u], n))
        parent, _ = _search(rows & ~included[u], n, a, b)
        if a != b and parent[b] < 0:
            raise InternalError(f"no path {a}-{b} in component {u}/{comp}")
        path = [b]
        while path[-1] != a:
            path.append(int(parent[path[-1]]))
        return path[::-1]


def build_knotting(H: TypedGraph, z: int) -> KnottingGraph:
    """Assemble the anchored knotting graph of H at z.

    The copies of u are numbered, and listed, in order of their
    components' least members, the roots where a label names its own
    vertex: row-major order lists them by u, then by least member.
    """
    n = H.graph.n
    # plain ints: numpy compares with an IntEnum member several times slower
    overlap = (H.types == EdgeType.OVERLAP1.value) | (H.types == EdgeType.OVERLAP2.value)
    included = H.types == EdgeType.INCLUSION.value
    closed, ov, inc = map(pack_rows, (H.graph.closed_adj(), overlap, included))
    avoid = (avoiding_rows(closed, ov, np.arange(n), ov[z], overlap[z]), ov, inc | inc[z])
    us = np.flatnonzero(~included[z])  # the vertices z tolerates, z itself excluded
    label = avoiding_labels(*avoid, us)  # n off each safe subgraph
    i, v = np.divmod(np.flatnonzero(label == np.arange(n)), n)
    copies = np.stack((us[i], np.arange(i.size) - np.searchsorted(i, i)), axis=1)
    at = np.full(us.size * (n + 1), -1, dtype=np.int32)  # [i * (n + 1) + label]: copy, n -> -1
    at[i * (n + 1) + v] = np.arange(i.size)
    copy_at = np.full((n, n), -1, dtype=np.int32)
    copy_at[us] = at[label + (n + 1) * np.arange(us.size)[:, None]]
    # copies meet for every non-inclusion pair, adjacent or not; a copy
    # names its owner, so no two pairs x < y give the same edge; us is
    # increasing, so the pairs come in row-major order
    x, y = np.divmod(np.flatnonzero(np.triu(~included[us][:, us], 1)), us.size)
    xs, ys = us[x], us[y]
    flat = copy_at.reshape(-1)
    pairs = np.stack((flat[xs * n + ys], flat[ys * n + xs]), axis=1)
    if (pairs < 0).any():
        raise InternalError("a tolerated pair lies outside a safe subgraph")
    return KnottingGraph(z, copies, copy_at, pairs, avoid)


def bipartite_or_odd_cycle(K: KnottingGraph) -> Union[np.ndarray, list[int]]:
    """Each copy's side id, as an array, or an odd closed walk of copy indices.

    One ``union_find`` labels the bipartite double cover of K: copy c
    becomes the nodes 2c and 2c + 1, and an edge ab joins 2a to 2b + 1 and
    2a + 1 to 2b.  K is bipartite iff no copy has both nodes in one
    component.  Then the side id of c is the least node of 2c's component,
    2r + (c's depth parity in a breadth-first search from r), where r is
    the least copy of c's component of K: side % 2 is a 2-colouring and
    side // 2 names the component.  Otherwise the cycle lies in the
    conflicting component of least r.  It is the first edge, in visit
    order, that joins two copies of one depth in a ``_search`` from r,
    closed through both tree paths to their common ancestor.
    """
    m = len(K.copies)
    a, b = K.pairs.T
    f = union_find(2 * m, np.concatenate((2 * a, 2 * b)),
                   np.concatenate((2 * b + 1, 2 * a + 1)))
    side = f[0::2]
    odd = side == f[1::2]
    if not odd.any():
        return side
    r = side[odd].min() // 2
    members = np.flatnonzero(side // 2 == r)  # increasing, so r is member 0
    at = np.full(m, -1)
    at[members] = np.arange(members.size)
    a, b = at[a], at[b]
    inside = a >= 0
    adj = np.zeros((members.size, members.size), dtype=bool)
    adj[a[inside], b[inside]] = adj[b[inside], a[inside]] = True
    parent, levels = _search(pack_rows(adj), members.size, 0)
    depth = np.empty(members.size, dtype=np.intp)
    for d, level in enumerate(levels):
        depth[level] = d
    same = adj & (depth[:, None] == depth)
    order = np.concatenate(levels)
    up = [order[same[order].any(axis=1).argmax()]]
    down = [same[up[0]].argmax()]  # its least neighbour of the same depth
    while up[-1] != down[-1]:  # both climb in lock-step, so the cycle is odd
        up.append(parent[up[-1]])
        down.append(parent[down[-1]])
    return members[up + down[-2::-1]].tolist()


def overlap_side(H: TypedGraph, K: KnottingGraph, side: np.ndarray,
                 zbar: int) -> set[int]:
    """One side Y of the overlappers of the anchor, read off the side ids.

    Each overlapper x stands for its copy whose component holds zbar, the
    anchor's circular partner.  In each component of the knotting graph
    (side // 2), whose colouring is fixed only up to a swap, Y takes the
    least overlapper and those whose copies share its side id.
    """
    z = K.anchor
    tz = H.types[:, z]
    xs = np.flatnonzero((tz == EdgeType.OVERLAP1.value) | (tz == EdgeType.OVERLAP2.value)).tolist()
    copies = K.copy_at[xs, zbar]
    for x, c in zip(xs, copies.tolist()):
        if tz[x] != EdgeType.OVERLAP1:
            raise InternalError(f"overlapper {x} of a minimum-degree anchor "
                                "must form a 1-overlap edge")
        if c < 0:
            raise InternalError(f"partner {zbar} of the anchor lies outside "
                                f"the safe subgraph of overlapper {x}")
    lead: dict[int, int] = {}  # component -> side of its least overlapper
    return {x for x, s in zip(xs, side[copies].tolist()) if lead.setdefault(s // 2, s) == s}


def extract_invertible_pair(K: KnottingGraph, cycle: list[int]) -> AvoidWalkPair:
    """Roll an odd copy cycle out into two mutually avoiding walks.

    For each cycle position j, a path inside that copy's component links the
    neighbouring cycle vertices; the two walks take turns following these
    paths while the other side waits, looping in place.  The walks are
    checked with the rest of the negative certificate, not here.
    """
    k = len(cycle)
    us = K.copies[cycle, 0].tolist()
    walk_p = [us[0]]
    walk_q = [us[-1]]
    for j, c in enumerate(cycle):
        path = K.component_path(c, us[j - 1], us[(j + 1) % k])
        moving, waiting = (walk_q, walk_p) if j % 2 == 0 else (walk_p, walk_q)
        moving += path[1:]  # path[0] is us[j - 1], where moving stands
        waiting += [us[j]] * (len(path) - 1)
    return AvoidWalkPair(K.anchor, (us[0], us[-1]), walk_p, walk_q)


def forcing_classes(K: KnottingGraph, side: np.ndarray, zset: list[int],
                    L: LabelledGraph) -> DeltaClasses:
    """The Δ-forcing classes of L, the labelled graph on zset, read off the
    bipartite K and its side ids when the anchor z overlaps no vertex, and
    ``delta.implication_classes(L)`` otherwise.

    If z overlaps nothing, Y is empty and zset is exactly the vertices z
    tolerates, the owners of K's copies.  An edge between two of them
    avoids z, as neither end is included with z and z has no overlapper,
    so the safe subgraph at u in zset is L's avoidance graph at u, and the
    copies of u are the blocks of ``implication_classes`` at u.  The
    active pair (a, b) lies in the block copy_at[a, b] of the pairs (a, y)
    and in the block copy_at[b, a] of the pairs (x, b), so it is the
    double-cover edge from 2 copy_at[a, b] to 2 copy_at[b, a] + 1, and
    (b, a) is its mirror.  The classes are the components of the double
    cover: the class of (a, b) is side[copy_at[a, b]].  A copy's component
    holds some vertex its owner tolerates, so every copy meets an edge,
    each component of K has both side ids 2r and 2r + 1, and the class of
    the reversals is the side id with its last bit flipped.  Copies are
    listed by owner, then by least member, so a class's least pair is
    (owner, least member) of its least copy, and the classes are numbered
    by first occurrence in side.

    If z overlaps some vertex, the read-off can split a class of L, so
    the labelling stays.  K's safe subgraphs drop every overlap edge
    between two overlappers of z; inside zset those are the overlap edges
    within Y, which L's avoidance graph at u keeps wherever they avoid u.
    The complement of P_6 + K_2, circular-arc on 8 vertices, is such an
    input: its anchor overlaps four vertices, Y holds two that overlap
    each other, and the side ids split each of L's two classes in two.
    No graph on 7 or fewer vertices splits a class.
    """
    if K.avoid[1][K.anchor].any():
        return implication_classes(L)
    zs = np.asarray(zset)
    at = K.copy_at.take(zs, axis=0).take(zs, axis=1)  # [a, b], by index into zset
    active = at >= 0
    m = side.size
    first = np.full(2 * m, m)  # by side id: its least copy
    np.minimum.at(first, side, np.arange(m))
    lead = np.flatnonzero(first[side] == np.arange(m))  # each class's least copy
    number = np.empty(2 * m, dtype=np.intp)  # by side id: its class
    number[side[lead]] = np.arange(lead.size)
    a, b = np.divmod(np.flatnonzero(active), zs.size)  # in lexicographic order
    return DeltaClasses(a, b, number[side].take(at[active]), number[side[lead] ^ 1])


def build_Z(H: TypedGraph, z: int, Y: set[int], partner: np.ndarray) -> list[int]:
    """Non-inverting set: everything z does not see, plus one side of Y."""
    inz = ~H.graph.adj[z]
    inz[z] = False
    inz[sorted(Y)] = True
    zset = np.flatnonzero(inz).tolist()
    if not zset:
        raise InternalError("non-inverting set came out empty")
    unsplit = np.flatnonzero(inz == inz[partner])
    if unsplit.size:
        u = int(unsplit[0])
        raise InternalError(f"pair {u},{partner[u]} not split by Z")
    inside = np.flatnonzero(np.triu(H.types[zset][:, zset] == EdgeType.OVERLAP2.value, 1))
    if inside.size:
        i, j = divmod(int(inside[0]), len(zset))
        raise InternalError(f"2-overlap edge {zset[i]},{zset[j]} inside Z")
    return zset
