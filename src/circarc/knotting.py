"""Anchored knotting graph, its 2-colouring, and the set Z.

For a fixed anchor z of a completed graph, every vertex u that z does not
include gets one copy per component of the "safe" subgraph around u: the
edges, loops included, that avoid both u and z, labelled for every u by
one ``edgetypes.avoiding_labels`` call.  Its loops mark its vertices,
so walks inside a component avoid both u and z.  An odd cycle among the
copies rolls out into two mutually avoiding walks anchored at z;
bipartiteness certifies there are none, and the 2-colouring splits the
overlappers of z so that one side joins the non-inverting set Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .check import AvoidWalkPair, EdgeType, InternalError, TypedGraph
from .check import walk_pair_error  # re-exported under its old name
from .edgetypes import avoiding, avoiding_labels
from .graph import bfs, pack_rows, sorted_unique, tree_path, unpack_rows

Copy = tuple[int, int]  # (vertex, component index)


@dataclass
class KnottingGraph:
    anchor: int
    copies: list[Copy]
    copy_at: np.ndarray         # int32 [u, v]: the copy of u whose component holds v, or -1
    adjacency: list[list[int]]  # by copy index, sorted
    avoid: tuple[np.ndarray, ...]  # H's packed closed, overlap and included rows

    def component_path(self, u: int, comp: int, a: int, b: int) -> list[int]:
        """Shortest a-b path inside component comp of u's safe subgraph.

        A search level by level over the dense safe matrix, stopped once b
        is reached: each new vertex's parent is the first vertex of the
        level before, in visit order, that sees it, and a level is visited
        by parent, then by index.  This is the tree ``graph.bfs`` grows
        from a, so the path is the one ``graph.tree_path`` reads off it.
        """
        at = self.copy_at[u, [a, b]]
        if at[0] != at[1] or at[0] < 0 or self.copies[at[0]] != (u, comp):
            raise InternalError(f"path endpoints outside component {u}/{comp}")
        rows, _ = avoiding(*self.avoid, np.array([u, self.anchor]))
        safe = unpack_rows(rows[0] & rows[1], len(self.copy_at))
        parent = np.full(len(safe), -1, dtype=np.intp)
        todo = np.ones(len(safe), dtype=bool)
        todo[a] = False
        level = np.array([a])
        while todo[b] and level.size:
            sees = safe[level] & todo  # (level, n): who in level sees whom
            new = np.flatnonzero(sees.any(axis=0))
            first = sees[:, new].argmax(axis=0)  # first seer in visit order
            parent[new] = level[first]
            todo[new] = False
            level = new[np.lexsort((new, first))]
        if todo[b]:
            raise InternalError(f"no path {a}-{b} in component {u}/{comp}")
        path = [b]
        while path[-1] != a:
            path.append(int(parent[path[-1]]))
        return path[::-1]


def build_knotting(H: TypedGraph, z: int) -> KnottingGraph:
    """Assemble the anchored knotting graph of H at z.

    The copies of u are numbered, and listed, in order of their
    components' least members.
    """
    n = H.graph.n
    overlap = (H.types == EdgeType.OVERLAP1) | (H.types == EdgeType.OVERLAP2)
    included = H.types == EdgeType.INCLUSION
    avoid = tuple(map(pack_rows, (H.graph.closed_adj(), overlap, included)))
    az = ~included[z]  # the vertices z tolerates, z itself excluded
    us = np.flatnonzero(az)
    label = avoiding_labels(*avoid, us, also=z)  # n off each safe subgraph
    i, v = np.nonzero(label < n)
    # one copy per (u, least member), numbered by u, then by least member
    keys, copy = np.unique(i * n + label[i, v], return_inverse=True)
    copy_at = np.full((n, n), -1, dtype=np.int32)
    copy_at[us[i], v] = copy.reshape(-1)
    owner = keys // n
    rank = np.arange(keys.size) - np.searchsorted(owner, owner)
    copies = list(zip(us[owner].tolist(), rank.tolist()))
    # copies meet for every non-inclusion pair, adjacent or not
    xs, ys = np.nonzero(~included & az[:, None] & az[None, :])
    a, b = copy_at[xs, ys].astype(np.int64), copy_at[ys, xs].astype(np.int64)
    if (a < 0).any():
        raise InternalError("a tolerated pair lies outside a safe subgraph")
    # both directions are listed; one sort of the int64 keys a*m + b groups them
    m = len(copies)
    heads, tails = np.divmod(sorted_unique(a * m + b), m)
    ends = np.searchsorted(heads, np.arange(m + 1)).tolist()
    flat = tails.tolist()
    adjacency = [flat[i:j] for i, j in zip(ends[:-1], ends[1:])]
    return KnottingGraph(z, copies, copy_at, adjacency, avoid)


def bipartite_or_odd_cycle(K: KnottingGraph) -> Union[dict[Copy, int], list[Copy]]:
    """Two-color the copies, or return an odd closed walk of copies."""
    parent: dict[int, Optional[int]] = {}
    order: list[int] = []
    for root in range(len(K.copies)):
        if root not in parent:
            order += bfs(parent, root, K.adjacency.__getitem__)
    color: dict[int, int] = {}
    for v in order:  # parents come first: colour is the depth parity
        color[v] = 0 if parent[v] is None else 1 - color[parent[v]]
    for cur in order:
        for nxt in K.adjacency[cur]:
            if color[nxt] == color[cur]:
                # both tree paths to the common ancestor plus the edge
                cycle = tree_path(parent, cur, nxt)
                if len(cycle) % 2 == 0 or len(cycle) < 3:
                    raise InternalError("odd cycle extraction produced an even walk")
                return [K.copies[i] for i in cycle]
    return {K.copies[i]: c for i, c in color.items()}


def overlap_side(H: TypedGraph, K: KnottingGraph, colouring: dict[Copy, int],
                 zbar: int) -> set[int]:
    """One side Y of the overlappers of the anchor, read off the 2-colouring.

    Each overlapper x stands for its copy whose component holds zbar, the
    anchor's circular partner.  In each component of the knotting graph,
    whose colouring is fixed only up to a swap, Y takes the least
    overlapper and those whose copies share its colour.
    """
    z = K.anchor
    tz = H.types[:, z]
    xs = np.flatnonzero((tz == EdgeType.OVERLAP1) | (tz == EdgeType.OVERLAP2)).tolist()
    copies = K.copy_at[xs, zbar].tolist()
    for x, c in zip(xs, copies):
        if tz[x] != EdgeType.OVERLAP1:
            raise InternalError(f"overlapper {x} of a minimum-degree anchor "
                                "must form a 1-overlap edge")
        if c < 0:
            raise InternalError(f"partner {zbar} of the anchor lies outside "
                                f"the safe subgraph of overlapper {x}")
    parent: dict[int, Optional[int]] = {}
    lead: dict[int, int] = {}  # copy -> copy of the least overlapper in its component
    for c in copies:
        if c not in parent:
            lead.update(dict.fromkeys(bfs(parent, c, K.adjacency.__getitem__), c))
    return {x for x, c in zip(xs, copies)
            if colouring[K.copies[c]] == colouring[K.copies[lead[c]]]}


def extract_invertible_pair(K: KnottingGraph, cycle: list[Copy]) -> AvoidWalkPair:
    """Roll an odd copy cycle out into two mutually avoiding walks.

    For each cycle position j, a path inside that copy's component links the
    neighbouring cycle vertices; the two walks take turns following these
    paths while the other side waits, looping in place.  The walks are
    checked with the rest of the negative certificate, not here.
    """
    k = len(cycle)
    if k < 3 or k % 2 == 0:
        raise InternalError("need an odd cycle of length at least 3")
    us = [c[0] for c in cycle]
    walk_p = [us[0]]
    walk_q = [us[-1]]
    for j in range(k):
        u, comp = cycle[j]
        path = K.component_path(u, comp, us[j - 1], us[(j + 1) % k])
        if j % 2 == 0:
            if walk_q[-1] != path[0]:
                raise InternalError("walk assembly lost continuity")
            for w in path[1:]:
                walk_q.append(w)
                walk_p.append(u)
        else:
            if walk_p[-1] != path[0]:
                raise InternalError("walk assembly lost continuity")
            for w in path[1:]:
                walk_p.append(w)
                walk_q.append(u)
    return AvoidWalkPair(K.anchor, (us[0], us[-1]), walk_p, walk_q)


def build_Z(H: TypedGraph, z: int, Y: set[int],
            pairing: dict[int, int]) -> list[int]:
    """Non-inverting set: everything z does not see, plus one side of Y."""
    inz = ~H.graph.adj[z]
    inz[z] = False
    inz[sorted(Y)] = True
    zset = np.flatnonzero(inz).tolist()
    if not zset:
        raise InternalError("non-inverting set came out empty")
    partner = [pairing[u] for u in range(H.graph.n)]
    unsplit = np.flatnonzero(inz == inz[partner])
    if unsplit.size:
        u = int(unsplit[0])
        raise InternalError(f"pair {u},{pairing[u]} not split by Z")
    inside = np.argwhere(np.triu(H.types[np.ix_(zset, zset)] == EdgeType.OVERLAP2, 1))
    if inside.size:
        i, j = inside[0]
        raise InternalError(f"2-overlap edge {zset[i]},{zset[j]} inside Z")
    return zset
