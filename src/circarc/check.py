"""The certificate checker: every first-principles check of a certificate.

Trusting a verdict means trusting this module and ``graph``, the only
module of the package it imports.  A certificate binds its input by
``graph_digest``; a positive one is checked by ``representation_error``,
a negative one by ``negative_error``, neither relying on how it was made.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Protocol, Sequence

import numpy as np

from .graph import Graph, disjoint_rows

G6_MAX_N = 258047  # the largest n of a 4-byte graph6 header


def write_graph6(G: Graph) -> str:
    """graph6 of G without a trailing newline, as networkx.to_graph6_bytes
    writes it: short form up to 62 vertices, long form above."""
    n = G.n
    if n > G6_MAX_N:
        raise ValueError(f"graph6 handles at most {G6_MAX_N} vertices here")
    head = [n] if n <= 62 else [63, n >> 12, n >> 6 & 63, n & 63]
    bits = G.adj[np.tril_indices(n, -1)]
    six = np.zeros(-(-bits.size // 6) * 6, dtype=np.uint8)
    six[:bits.size] = bits
    body = six.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    return bytes(np.concatenate((head, body)).astype(np.uint8) + 63).decode("ascii")


def graph_digest(G: Graph) -> str:
    """SHA-256 of the JSON text [names, graph6] that binds a certificate to G."""
    text = json.dumps([list(G.names), write_graph6(G)], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


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

    Every edge is an inclusion (one closed neighbourhood inside the other)
    or an overlap, and an overlap is a 2-overlap exactly when its ends
    form a spanning pair.  Raises UnreducedGraphError, naming the vertices
    by G.names, if G still has a universal vertex or true twins (their
    edges would admit no type).  Graphs with at most one vertex pass
    trivially.  The types are int8 arithmetic on the boolean matrices
    viewed as int8, with no masked assignment.
    """
    closed = G.closed_adj()
    contains, spanning = _matrices(closed)
    if G.n >= 2:
        universal = np.flatnonzero(closed.all(axis=1))
        if universal.size:
            raise UnreducedGraphError(f"universal vertex {G.names[universal[0]]!r}")
        twins = contains & contains.T & G.adj
        if twins.any():
            u, v = np.argwhere(twins)[0]
            raise UnreducedGraphError(f"true twins {G.names[u]!r}, {G.names[v]!r}")
    # 1 + spanning is the overlap type, raised to INCLUSION where either
    # neighbourhood holds the other (the diagonal among them), and 0 off
    # the closed adjacency
    types = spanning.view(np.int8) + np.int8(EdgeType.OVERLAP1)
    incl = (contains | contains.T).view(np.int8)
    np.maximum(types, incl * np.int8(EdgeType.INCLUSION), out=types)
    types *= closed.view(np.int8)
    return TypedGraph(G, types, contains, spanning)


@dataclass(frozen=True)
class CircularPairing:
    partner: dict[int, int]


def circular_pairs(T: TypedGraph) -> CircularPairing:
    """Match each vertex with its circular partner, if it has one."""
    circ = T.spanning & ~T.graph.closed_adj()
    many = np.flatnonzero(circ.sum(axis=1) > 1)
    if many.size:
        raise InternalError(f"vertex {many[0]} has two circular partners")
    us, vs = np.nonzero(circ)  # at most one v per u, u increasing
    return CircularPairing(dict(zip(us.tolist(), vs.tolist())))


class Arcs(Protocol):  # what the checker reads of an arcs.ArcRepresentation
    circle_size: int
    arcs: dict[int, tuple[int, int]]  # vertex -> (left slot, right slot)


def representation_error(G, rep: Arcs) -> Optional[str]:
    """First problem found in rep as a model of G, or None if it is valid.

    G only needs .n and .adj (boolean, False diagonal); the check is
    first-principles and does not rely on how the representation was
    produced.  Endpoints are read vertex by vertex, left before right; the
    first one outside the circle or already used is reported, then the
    first vertex pair u < v, in row order, that meets wrongly.
    """
    if rep.circle_size < 1:
        return "circle has no slots"
    if set(rep.arcs) != set(range(G.n)):
        return "arc set does not match vertex set"
    flat = [e for v in range(G.n) for e in rep.arcs[v]]
    try:
        ends = np.array(flat, dtype=np.int64)
    except OverflowError:  # integers past 64 bits, as a JSON document may hold
        ends = np.array(flat, dtype=object)
    order = ends.argsort(kind="stable")
    outside = (ends < 0) | (ends >= rep.circle_size)
    if outside.any() or (ends[order[1:]] == ends[order[:-1]]).any():
        # first[rank[i]]: the first position holding the value at position i
        _, first, rank = np.unique(ends, return_index=True, return_inverse=True)
        i = int(np.flatnonzero(outside | (first[rank] < np.arange(ends.size)))[0])
        e, v = flat[i], i // 2
        if outside[i]:
            return f"endpoint {e} of vertex {v} outside circle"
        return f"vertices {first[rank[i]] // 2} and {v} share endpoint {e}"
    # The endpoints are distinct, so only their circular order matters:
    # replace each by its rank on a circle of 2n slots.
    m = ends.size
    rank = np.empty(m, dtype=np.intp)
    rank[order] = np.arange(m)
    left, right = rank[0::2], rank[1::2]
    covers_left = (left[None, :] - left[:, None]) % m <= ((right - left) % m)[:, None]
    wrong = (covers_left | covers_left.T) != G.adj
    np.fill_diagonal(wrong, False)
    if wrong.any():
        # wrong is symmetric, so its first entry in row order has u < v
        u, v = divmod(int(wrong.argmax()), G.n)
        want = "intersect" if G.adj[u, v] else "be disjoint"
        return f"arcs of {u} and {v} should {want}"
    return None


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
    if m >= 2 and Ht.graph.closed_adj().all(axis=1).any():
        return "completion has a universal vertex"
    if (Ht.contains & Ht.contains.T & Ht.graph.adj).any():
        return "completion has true twins"
    return None


@dataclass(frozen=True)
class AvoidWalkPair:
    anchor: int
    pair: tuple[int, int]
    walk_p: list[int]  # pair[0] -> pair[1]
    walk_q: list[int]  # pair[1] -> pair[0]


def walk_pair_error(H: TypedGraph, awp: AvoidWalkPair) -> Optional[str]:
    """First-principles check of an anchored pair of avoiding walks."""
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
    for walk in (p, q):
        for a, b in zip(walk, walk[1:]):
            if a != b and not H.graph.adjacent(a, b):
                return f"step {a}-{b} is not an edge"
    if not avoids(H, z, p):
        return "anchor does not avoid the first walk"
    if not avoids(H, z, q):
        return "anchor does not avoid the second walk"
    for i in range(len(p) - 1):
        if not avoids(H, p[i], [q[i], q[i + 1]]):
            return f"{p[i]} does not avoid step {i} of the second walk"
        if not avoids(H, q[i + 1], [p[i], p[i + 1]]):
            return f"{q[i + 1]} does not avoid step {i} of the first walk"
    return None


POSITIVE = "CircularArc"
NEGATIVE = "NotCircularArc"


@dataclass
class Certificate:
    verdict: str
    arcs: Optional[Arcs] = None                         # positive: for the input graph
    vertices: Optional[list[int]] = None                # negative: S, by input index
    completion: Optional[TypedGraph] = None             # negative: of G[S], as are
    pairing: Optional[dict[int, int]] = None            # the pairing and the walks
    obstruction: Optional[AvoidWalkPair] = None


def positive_error(G: Graph, cert: Certificate) -> Optional[str]:
    if cert.verdict != POSITIVE:
        return "not a positive certificate"
    if cert.arcs is None:
        return "missing arcs"
    return representation_error(G, cert.arcs)


def verify_positive(G: Graph, cert: Certificate) -> bool:
    return positive_error(G, cert) is None


def negative_error(G: Graph, cert: Certificate) -> Optional[str]:
    """Check a negative certificate from first principles.

    The certificate names a vertex set S of G.  Induced subgraphs inherit
    circular-arc-ness, so an obstruction for G[S] condemns G, whichever S
    it is.  G[S] must be reduced, its completion is re-verified with types
    recomputed from adjacency alone, and the walks are checked stepwise.
    """
    if cert.verdict != NEGATIVE:
        return "not a negative certificate"
    if (cert.vertices is None or cert.completion is None
            or cert.pairing is None or cert.obstruction is None):
        return "missing negative payload"
    S = cert.vertices
    if not all(0 <= v < G.n for v in S):
        return "vertex set names a vertex outside the input"
    if len(set(S)) != len(S):
        return "vertex set repeats a vertex"
    try:
        Gt = classify_all(G.induced(S))
        Ht = classify_all(cert.completion.graph)
        err = completion_error(Gt, Ht, cert.pairing)
        if err is not None:
            return f"completion check failed: {err}"
        err = walk_pair_error(Ht, cert.obstruction)
        if err is not None:
            return f"walk check failed: {err}"
    except (ValueError, UnreducedGraphError, InternalError) as exc:
        return str(exc)
    return None


def verify_negative(G: Graph, cert: Certificate) -> bool:
    return negative_error(G, cert) is None
