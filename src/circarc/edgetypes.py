"""The circular completion and the edges that avoid an anchor.

The circular completion gives each vertex without a circular partner
(``check.circular_pairs``) a new partner vertex, all built in one pass
from the containment and closed-adjacency matrices of the input.  It is
not trusted: ``check.completion_error`` re-checks a certificate's.
``avoiding_labels`` labels the components of the edges that avoid
each anchor, for the knotting graph and the Δ-forcing classes alike.
"""

from __future__ import annotations

import numpy as np

from .check import InternalError, TypedGraph, circular_pairs, classify_all
from .graph import Graph, components, disjoint_rows, unpack_rows


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

    The stack is built word-major, (k, w, n), so every broadcast runs along
    the long vertex axis, and rows are cleared by multiplying with 0/1
    masks rather than through boolean indexing; rows is its (k, n, w)
    transposed view, whose last axis is strided.
    """
    n = closed.shape[0]
    free, ov = ~included[zs], overlap[zs]  # padding bits meet none of closed
    on = ~unpack_rows(included[zs], n)
    rows = free[:, :, None] & np.ascontiguousarray(closed.T)
    rows *= on[:, None, :]
    cut = ov[:, :, None] & np.ascontiguousarray(overlap.T)
    cut *= unpack_rows(ov, n)[:, None, :]  # only rows of z's overlappers lose edges
    rows &= np.invert(cut, out=cut)
    return rows.transpose(0, 2, 1), on


def avoiding_labels(closed: np.ndarray, overlap: np.ndarray, included: np.ndarray,
                    zs: np.ndarray, also: int | None = None) -> np.ndarray:
    """Label each vertex, for each anchor z in zs, with the least vertex of
    its component among the edges (loops included) avoiding z, and also if
    given, or with n where its loop does not.  The relations are packed for
    ``avoiding``; blocks of anchors whose packed rows hold at most
    AVOID_WORDS words (one anchor at least) go to ``graph.components``."""
    labels = []
    if also is not None:
        also_rows, also_on = avoiding(closed, overlap, included, np.array([also]))
    step = max(1, AVOID_WORDS // max(1, closed.size))
    for i in range(0, max(1, len(zs)), step):  # no anchors: one empty block
        rows, on = avoiding(closed, overlap, included, zs[i:i + step])
        if also is not None:
            rows &= also_rows
            on &= also_on
        labels.append(components(rows, on))
    return labels[0] if len(labels) == 1 else np.concatenate(labels)
