"""Edge classification, spanning pairs, and the circular completion.

Every edge of a reduced graph is either an inclusion (one closed
neighbourhood inside the other) or an overlap, and an overlap is a
2-overlap exactly when its ends form a spanning pair.  Non-adjacent
spanning pairs are circular pairs; the circular completion gives each
vertex without one a new partner vertex, all built in one pass from the
containment and closed-adjacency matrices of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Sequence

import numpy as np

from .graph import Graph, disjoint_rows, unpack_rows


class EdgeType(IntEnum):
    NONEDGE = 0
    OVERLAP1 = 1
    OVERLAP2 = 2
    INCLUSION = 3


class UnreducedGraphError(ValueError):
    """Raised when classification meets a universal vertex or true twins."""


class InternalError(AssertionError):
    """A structural guarantee failed; indicates a bug, not bad input."""


def _matrices(closed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """contains[u,v] = N[v] subset of N[u]; spanning[u,v] = spanning pair."""
    contains = disjoint_rows(~closed, closed)
    # (C1) for (u,v): every x outside N[v] has N[x] inside N[u]
    span_c1 = disjoint_rows(~contains, ~closed)
    return contains, span_c1 & span_c1.T


@dataclass(frozen=True)
class TypedGraph:
    graph: Graph
    types: np.ndarray    # int8 (n, n); diagonal INCLUSION
    contains: np.ndarray  # bool (n, n); contains[u,v] = N[v] subset of N[u]
    spanning: np.ndarray  # bool (n, n)

    def overlaps(self, u: int, v: int) -> bool:
        return self.types[u, v] in (EdgeType.OVERLAP1, EdgeType.OVERLAP2)


def classify_all(G: Graph) -> TypedGraph:
    """Classify every vertex pair of a reduced graph.

    Raises UnreducedGraphError if G still has a universal vertex or true
    twins (their edges would admit no type).  Graphs with at most one
    vertex pass trivially.
    """
    closed = G.closed_adj()
    contains, spanning = _matrices(closed)
    if G.n >= 2:
        universal = np.flatnonzero(closed.all(axis=1))
        if universal.size:
            raise UnreducedGraphError(f"universal vertex {int(universal[0])}")
        twins = contains & contains.T & G.adj
        if twins.any():
            u, v = map(int, np.argwhere(twins)[0])
            raise UnreducedGraphError(f"true twins {u}, {v}")
    types = np.zeros((G.n, G.n), dtype=np.int8)
    incl = G.adj & (contains | contains.T)
    types[incl] = EdgeType.INCLUSION
    types[G.adj & ~incl & spanning] = EdgeType.OVERLAP2
    types[G.adj & ~incl & ~spanning] = EdgeType.OVERLAP1
    np.fill_diagonal(types, EdgeType.INCLUSION)
    return TypedGraph(G, types, contains, spanning)


@dataclass(frozen=True)
class CircularPairing:
    partner: dict[int, int]


def circular_pairs(T: TypedGraph) -> CircularPairing:
    """Match each vertex with its circular partner, if it has one."""
    circ = T.spanning & ~T.graph.closed_adj()
    counts = circ.sum(axis=1)
    if (counts > 1).any():
        v = int(np.flatnonzero(counts > 1)[0])
        raise InternalError(f"vertex {v} has two circular partners")
    us, vs = np.nonzero(circ)  # at most one v per u, u increasing
    return CircularPairing(dict(zip(us.tolist(), vs.tolist())))


def complete(T: TypedGraph) -> tuple[TypedGraph, dict[int, int]]:
    """Build the circular completion of T and its full pairing.

    Each vertex v without a circular partner gets a partner ~v, placed after
    the originals in increasing order of v.  ~v sees the originals u != v
    with N[u] not inside N[v]; ~v and ~w are non-adjacent iff N[v] is not
    inside N[w] and N[w] contains N[u] for every u outside N[v].  ~v is
    named "~" + v's name, with more "~" prefixed while that name is taken.
    """
    n0 = T.graph.n
    s0 = len(circular_pairs(T).partner)
    not_c, not_n = ~T.contains, ~T.graph.closed_adj()
    unpaired = np.flatnonzero(~(T.spanning & not_n).any(axis=1))
    # not_c[v, v] is False, so no added vertex sees its own partner
    cross = not_c[unpaired]
    covered = disjoint_rows(cross, not_n[unpaired])
    apart = not_c[np.ix_(unpaired, unpaired)] & covered
    if not np.array_equal(apart, apart.T):
        raise InternalError("added vertices have an asymmetric adjacency")
    added = ~apart
    np.fill_diagonal(added, False)
    adj = np.block([[T.graph.adj, cross.T], [cross, added]])
    names = list(T.graph.names)
    taken = set(names)
    for v in unpaired:
        name = "~" + names[v]
        while name in taken:
            name = "~" + name
        taken.add(name)
        names.append(name)
    m = adj.shape[0]
    if m != 2 * n0 - s0:
        raise InternalError("completion has the wrong cardinality")
    H = classify_all(Graph(m, adj, tuple(names)))
    if not np.array_equal(H.types[:n0, :n0], T.types):
        raise InternalError("completion changed an edge type")
    pairing = circular_pairs(H).partner
    if len(pairing) != m:
        raise InternalError("completion is not circularly paired")
    if [pairing[u] for u in range(n0, m)] != unpaired.tolist():
        raise InternalError("an added vertex is not paired with its origin")
    return H, pairing


AVOID_WORDS = 1 << 20  # words of packed avoidance rows built per block of anchors


def anchor_blocks(zs: np.ndarray, n: int) -> list[np.ndarray]:
    """Split the anchors zs of an n-vertex graph into blocks whose packed
    avoidance rows hold at most AVOID_WORDS words (one anchor at least)."""
    step = max(1, AVOID_WORDS // max(1, n * ((n + 63) // 64)))
    return [zs[i:i + step] for i in range(0, len(zs), step)]


def avoiding(closed: np.ndarray, overlap: np.ndarray, included: np.ndarray,
             zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges (loops included) that avoid each anchor z in zs, bit-packed.

    closed is the adjacency with loops, overlap marks the overlap edges and
    included the inclusion pairs, loops included, each as (n, w) rows
    packed by ``graph.pack_rows``.  xy avoids z when neither end is
    included with z and xy is not an overlap edge between two vertices that
    both overlap z, so no edge at z avoids z.  Returns rows, (k, n, w):
    rows[i, x] packs the y with xy avoiding zs[i], and on, (k, n): on[i, x]
    says the loop at x avoids zs[i], that is x is not included with it.
    """
    n = closed.shape[0]
    free, ov = ~included[zs], overlap[zs]  # padding bits meet none of closed
    on = ~unpack_rows(included[zs], n)
    rows = closed & free[:, None]
    rows[~on] = 0
    cut = overlap & ov[:, None]
    cut[~unpack_rows(ov, n)] = 0  # only rows of z's overlappers lose edges
    rows &= np.invert(cut, out=cut)
    return rows, on


def avoids(T: TypedGraph, z: int, walk: Sequence[int]) -> bool:
    """Does z avoid the given walk?

    Requires every neighbour of z on the walk (including z itself, which
    never overlaps itself) to overlap z, and forbids the walk from using an
    overlap edge between two vertices that both overlap z.  Repeated
    vertices in the walk denote loops and are allowed.
    """
    for a, b in zip(walk, walk[1:]):
        if a != b and not T.graph.adjacent(a, b):
            raise ValueError(f"not a walk: {a} and {b} are non-adjacent")
    for x in walk:
        if T.graph.adjacent(z, x) and not T.overlaps(z, x):
            return False
    for a, b in zip(walk, walk[1:]):
        if a != b and T.overlaps(z, a) and T.overlaps(z, b) and T.overlaps(a, b):
            return False
    return True


def completion_error(Gt: TypedGraph, Ht: TypedGraph,
                     pairing: dict[int, int]) -> Optional[str]:
    """First-principles check that (Ht, pairing) completes Gt; None if OK.

    Gt's vertices must be the first vertices of Ht.
    """
    n, m = Gt.graph.n, Ht.graph.n
    if m < n:
        return "completion smaller than input"
    if not np.array_equal(Ht.graph.adj[:n, :n], Gt.graph.adj):
        return "input graph is not induced in the completion"
    if not np.array_equal(Ht.types[:n, :n], Gt.types):
        return "edge types not preserved"
    if m != 2 * n - len(circular_pairs(Gt).partner):
        return "wrong completion cardinality"
    if set(pairing) != set(range(m)):
        return "pairing does not cover the completion"
    for u, v in pairing.items():
        if u == v or pairing.get(v) != u:
            return "pairing is not an involution without fixed points"
        if Ht.graph.adjacent(u, v) or not Ht.spanning[u, v]:
            return f"{u}, {v} paired but not a circular pair"
        if u >= n and v >= n:
            return f"added vertices {u}, {v} paired together"
    closed = Ht.graph.closed_adj()
    if m >= 2 and closed.all(axis=1).any():
        return "completion has a universal vertex"
    twins = Ht.contains & Ht.contains.T & Ht.graph.adj
    if twins.any():
        return "completion has true twins"
    return None
