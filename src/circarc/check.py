"""The certificate checker: every first-principles check of a certificate.

Trusting a verdict means trusting this module and ``graph``, the only
module of the package it imports.  A certificate binds its input by
``graph_digest``; a positive one is checked by ``representation_error``,
a negative one by ``negative_error``, neither relying on how it was made.
``negative_error`` checks a completion of G[S] and two walks in it on two
classifications, of G[S] and of the completion.  Those the certificate's
reader or maker already holds, which must be ``classify_all``'s output,
it reuses only after confirming them: read-only arrays, and a graph with
G[S]'s names and adjacency or the certificate's very completion graph.
Otherwise it classifies afresh.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
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
    bits = G.adj[np.tri(n, n, -1, dtype=bool)]  # row-major, as graph6 orders them
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


def classify_all(G: Graph) -> TypedGraph:
    """Classify every vertex pair of a reduced graph.

    Every edge is an inclusion (one closed neighbourhood inside the other)
    or an overlap, and an overlap is a 2-overlap exactly when its ends
    form a spanning pair.  Raises UnreducedGraphError, naming the vertices
    by G.names, if G still has a universal vertex or true twins (their
    edges would admit no type).  Graphs with at most one vertex pass
    trivially.  The types are int8 arithmetic on the boolean matrices
    viewed as int8, with no masked assignment.  All three arrays are
    read-only, so no caller changes what a later check reads.
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
    for a in (types, contains, spanning):
        a.flags.writeable = False
    return TypedGraph(G, types, contains, spanning)


def circular_pairs(T: TypedGraph) -> np.ndarray:
    """Each vertex's circular partner, or -1 where it has none."""
    circ = T.spanning & ~T.graph.closed_adj()
    many = np.flatnonzero(circ.sum(axis=1) > 1)
    if many.size:
        raise InternalError(f"vertex {T.graph.names[many[0]]!r} has two circular partners")
    us, vs = np.divmod(np.flatnonzero(circ), len(circ))  # at most one v per u
    partner = np.full(len(circ), -1, dtype=np.intp)
    partner[us] = vs
    return partner


class Arcs(Protocol):  # what the checker reads of an arcs.ArcRepresentation
    circle_size: int
    arcs: dict[int, tuple[int, int]]  # vertex -> (left slot, right slot)


def _is_index(v) -> bool:
    """Is v an integer, as a certificate gives vertices and slots?"""
    return isinstance(v, (int, np.integer))


def representation_error(G, rep: Arcs) -> Optional[str]:
    """First problem found in rep as a model of G, or None if it is valid.

    G only needs .n, .adj (boolean, False diagonal) and .names, by which
    the reasons name vertices; the check is first-principles and does not
    rely on how the representation was produced.  An arc that is not a
    pair, then an endpoint that is not an integer, is reported first.
    Endpoints are then read vertex by vertex, left before right; the first
    one outside the circle or already used is reported, then the first
    vertex pair u < v, in row order, that meets wrongly.
    """
    size = rep.circle_size
    if not _is_index(size):
        return f"circle size {size!r} is not an integer"
    if size < 1:
        return "circle has no slots"
    if not isinstance(rep.arcs, dict) or set(rep.arcs) != set(range(G.n)):
        return "arc set does not match vertex set"
    flat = []
    for v in range(G.n):
        arc = rep.arcs[v]
        if not isinstance(arc, (tuple, list)) or len(arc) != 2:
            return f"arc of vertex {G.names[v]!r} is not a pair of endpoints"
        flat += arc
    try:
        ends = np.array(flat)
        kind = ends.dtype.kind if ends.ndim == 1 else "O"
    except ValueError:  # an endpoint that is itself a sequence
        kind = "O"
    if kind not in "iu":
        # no integer array: some endpoint is no integer, or some integer
        # is past 64 bits, as a JSON document may hold
        i = next((i for i, e in enumerate(flat) if not _is_index(e)), None)
        if i is not None:
            return f"endpoint {flat[i]!r} of vertex {G.names[i // 2]!r} is not an integer"
        ends = np.array(flat, dtype=object)
    order = ends.argsort(kind="stable")
    outside = (ends < 0) | (ends >= size)
    if outside.any() or (ends[order[1:]] == ends[order[:-1]]).any():
        # first[rank[i]]: the first position holding the value at position i
        _, first, rank = np.unique(ends, return_index=True, return_inverse=True)
        i = int(np.flatnonzero(outside | (first[rank] < np.arange(ends.size)))[0])
        e, v, names = flat[i], i // 2, G.names
        if outside[i]:
            return f"endpoint {e} of vertex {names[v]!r} outside circle"
        return f"vertices {names[first[rank[i]] // 2]!r} and {names[v]!r} share endpoint {e}"
    # The endpoints are distinct, so only their circular order matters:
    # replace each by its rank on a circle of 2n slots.
    m = ends.size
    rank = np.empty(m, dtype=np.int32)
    rank[order] = np.arange(m, dtype=np.int32)
    left, right = rank[0::2], rank[1::2]
    # u's arc reaches v's left end p when p >= left[u] and p <= right[u]
    # both hold, if it does not wrap (left < right), where one always
    # holds; or when either holds, if it wraps, where never both do.  So
    # it reaches p exactly when the two comparisons differ on a wrapping
    # arc and agree on any other.
    covers_left = left[None, :] >= left[:, None]
    covers_left ^= left[None, :] <= right[:, None]
    covers_left ^= (left < right)[:, None]
    wrong = (covers_left | covers_left.T) != G.adj
    np.fill_diagonal(wrong, False)
    if wrong.any():
        # wrong is symmetric, so its first entry in row order has u < v
        u, v = divmod(int(wrong.argmax()), G.n)
        want = "intersect" if G.adj[u, v] else "be disjoint"
        return f"arcs of {G.names[u]!r} and {G.names[v]!r} should {want}"
    return None


def _fails(types: np.ndarray, z, a, b) -> np.ndarray:
    """Where z fails to avoid the step a-b, elementwise over index arrays:
    an end is included with z (z itself among them), or z, a and b
    pairwise overlap (a loop a-a never overlaps itself).  The callers find
    the steps that are no edge in types too: it is NONEDGE exactly off the
    closed adjacency."""
    t = np.stack([types[z, a], types[z, b], types[a, b]])
    # plain ints: numpy compares with an IntEnum member several times slower
    overlap = (t == EdgeType.OVERLAP1.value) | (t == EdgeType.OVERLAP2.value)
    return (t[:2] == EdgeType.INCLUSION.value).any(axis=0) | overlap.all(axis=0)


def avoids(T: TypedGraph, z: int, walk: Sequence[int]) -> bool:
    """Does z avoid the given walk?

    Requires every neighbour of z on the walk (including z itself, which
    never overlaps itself) to overlap z, and forbids the walk from using an
    overlap edge between two vertices that both overlap z.  Repeated
    vertices in the walk denote loops and are allowed.
    """
    w = np.asarray(walk, dtype=np.intp)
    apart = T.types[w[:-1], w[1:]] == EdgeType.NONEDGE.value
    if apart.any():
        i = int(apart.argmax())
        raise ValueError(f"not a walk: {w[i]} and {w[i + 1]} are non-adjacent")
    # a one-vertex walk is the loop at that vertex; an empty one has no step
    a, b = (w, w) if w.size == 1 else (w[:-1], w[1:])
    return not _fails(T.types, z, a, b).any()


def completion_error(Gt: TypedGraph, Ht: TypedGraph) -> Optional[str]:
    """First-principles check that Ht completes Gt; None if it does.

    Gt's vertices come first in Ht; each vertex of Ht needs one circular
    partner (circular_pairs raises InternalError on two).  Spanning pairs
    stay spanning in induced subgraphs, so only Gt's circular pairs join
    originals, and by the cardinality each added vertex pairs an original.
    """
    n, m = Gt.graph.n, Ht.graph.n
    if m < n:
        return "completion smaller than input"
    if not np.array_equal(Ht.graph.adj[:n, :n], Gt.graph.adj):
        return "input graph is not induced in the completion"
    if not np.array_equal(Ht.types[:n, :n], Gt.types):
        return "edge types not preserved"
    if m != 2 * n - (circular_pairs(Gt) >= 0).sum():
        return "wrong completion cardinality"
    unpaired = np.flatnonzero(circular_pairs(Ht) < 0)
    if unpaired.size:
        return f"vertex {Ht.graph.names[unpaired[0]]!r} has no circular partner"
    return None


@dataclass(frozen=True)
class AvoidWalkPair:
    anchor: int
    pair: tuple[int, int]
    walk_p: list[int]  # pair[0] -> pair[1]
    walk_q: list[int]  # pair[1] -> pair[0]


def walk_pair_error(H: TypedGraph, awp: AvoidWalkPair) -> Optional[str]:
    """First-principles check of an anchored pair of avoiding walks.

    Each check reads the edge types of all steps at once.  The first
    failure is reported: a step that is no edge (the first walk first), the
    anchor against either walk, then for each i in turn p[i] against step i
    of q and q[i+1] against step i of p.  Reasons name the completion's
    vertices by name, except an index out of range.
    """
    n = H.graph.n
    try:
        (x, y), z, p, q = awp.pair, awp.anchor, list(awp.walk_p), list(awp.walk_q)
    except (TypeError, ValueError):
        return "the pair must be two vertices and each walk a sequence of them"
    for v in [x, y, z, *p, *q]:
        if not _is_index(v):
            return f"vertex {v!r} is not an integer"
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
    P, Q = np.array(p, dtype=np.intp), np.array(q, dtype=np.intp)
    a, b = np.concatenate((P[:-1], Q[:-1])), np.concatenate((P[1:], Q[1:]))
    apart = H.types[a, b] == EdgeType.NONEDGE.value
    if apart.any():
        i = int(apart.argmax())
        return f"step {names[a[i]]!r}-{names[b[i]]!r} is not an edge"
    # rows: the anchor against each step of p, then of q; p[i] against
    # step i of q; q[i+1] against step i of p
    P0, P1, Q0, Q1, Z = P[:-1], P[1:], Q[:-1], Q[1:], np.full(len(p) - 1, z)
    fails = _fails(H.types, np.stack([Z, Z, P0, Q1]),
                   np.stack([P0, Q0, Q0, P0]), np.stack([P1, Q1, Q1, P1]))
    if fails[0].any():
        return f"anchor {names[z]!r} does not avoid the first walk"
    if fails[1].any():
        return f"anchor {names[z]!r} does not avoid the second walk"
    mutual = fails[2:].T  # row-major: step i's two checks before step i+1's
    if mutual.any():
        i, j = divmod(int(mutual.argmax()), 2)
        if j == 0:
            return f"{names[p[i]]!r} does not avoid step {i} of the second walk"
        return f"{names[q[i + 1]]!r} does not avoid step {i} of the first walk"
    return None


POSITIVE = "CircularArc"
NEGATIVE = "NotCircularArc"


@dataclass
class Certificate:
    verdict: str
    arcs: Optional[Arcs] = None                         # positive: for the input graph
    vertices: Optional[list[int]] = None                # negative: S, by input index
    completion: Optional[Graph] = None                  # negative: of G[S], re-classified
    obstruction: Optional[AvoidWalkPair] = None         # by the checker; the walks index it
    # negative: classify_all(G[S]) as its maker or reader computed it; the
    # checker reuses it only once _is_reduced confirms it
    reduced: Optional[TypedGraph] = field(default=None, compare=False, repr=False)


def positive_error(G: Graph, cert: Certificate) -> Optional[str]:
    if cert.verdict != POSITIVE:
        return "not a positive certificate"
    if cert.arcs is None:
        return "missing arcs"
    return representation_error(G, cert.arcs)


def verify_positive(G: Graph, cert: Certificate) -> bool:
    return positive_error(G, cert) is None


def _vertex_set_error(G: Graph, cert: Certificate) -> Optional[str]:
    """First problem with a negative certificate's verdict, payload or
    vertex set S, or None."""
    if cert.verdict != NEGATIVE:
        return "not a negative certificate"
    if cert.vertices is None or cert.completion is None or cert.obstruction is None:
        return "missing negative payload"
    if not (isinstance(cert.vertices, (list, tuple)) and isinstance(cert.completion, Graph)
            and isinstance(cert.obstruction, AvoidWalkPair)):
        return "negative payload of the wrong types"
    S = cert.vertices
    for v in S:
        if not _is_index(v):
            return f"vertex set holds {v!r}, not an integer"
        if not 0 <= v < G.n:
            return "vertex set names a vertex outside the input"
    if len(set(S)) != len(S):
        return "vertex set repeats a vertex"
    return None


def _read_only(Xt) -> bool:
    """Is Xt a TypedGraph whose three arrays are still read-only, as
    ``classify_all`` leaves them?"""
    return isinstance(Xt, TypedGraph) and not any(
        not isinstance(a, np.ndarray) or a.flags.writeable
        for a in (Xt.types, Xt.contains, Xt.spanning))


def _is_reduced(G: Graph, vertices: list[int], Gt) -> bool:
    """Does Gt stand for classify_all(G[S]), S the given vertices?  It must
    be read-only (``_read_only``) and its graph must have G[S]'s names and
    adjacency."""
    S = np.asarray(vertices, dtype=np.intp)
    return (_read_only(Gt) and isinstance(Gt.graph, Graph)
            and Gt.graph.names == tuple(G.names[v] for v in vertices)
            and np.array_equal(Gt.graph.adj, G.adj[S][:, S]))


def negative_error(G: Graph, cert: Certificate,
                   completion: Optional[TypedGraph] = None) -> Optional[str]:
    """Check a negative certificate from first principles.

    The certificate names a vertex set S of G.  Induced subgraphs inherit
    circular-arc-ness, so an obstruction for G[S] condemns G, whichever S
    it is.  G[S] must be reduced, its completion is re-verified from its
    adjacency alone, types and pairing included (``completion_error``),
    and the walks stepwise (``walk_pair_error``).

    Both checks read ``classify_all`` of G[S] and of the completion.
    cert.reduced stands in for the first when ``_is_reduced`` confirms it,
    and completion, the run's classified completion, for the second when
    it is read-only and its graph is cert.completion itself; each must be
    ``classify_all``'s output.  Otherwise the graph is classified afresh,
    so a certificate built by hand is checked from its adjacency alone.
    """
    err = _vertex_set_error(G, cert)
    if err is not None:
        return err
    Gt, Ht = cert.reduced, completion
    try:
        if not _is_reduced(G, cert.vertices, Gt):
            Gt = classify_all(G.induced(cert.vertices))
        if not (_read_only(Ht) and Ht.graph is cert.completion):
            Ht = classify_all(cert.completion)
        err = completion_error(Gt, Ht)
        if err is not None:
            return f"completion check failed: {err}"
        err = walk_pair_error(Ht, cert.obstruction)
        if err is not None:
            return f"walk check failed: {err}"
    except (ValueError, InternalError) as exc:
        return str(exc)
    return None


def verify_negative(G: Graph, cert: Certificate) -> bool:
    return negative_error(G, cert) is None
