"""The circular completion and the edges that avoid an anchor.

The circular completion gives each vertex without a circular partner
(``check.circular_pairs``) a new partner vertex, all built in one pass
from the containment and closed-adjacency matrices of the input
(``completion_graph``).  It is not trusted, and neither ``complete`` nor
the reader of certificates checks it: ``check.completion_error`` does,
from the completion alone, as part of a negative certificate's check.
``avoiding_labels`` labels the components of the edges that avoid
each anchor, for the knotting graph and the Δ-forcing classes alike, in
one lock-step breadth-first search per block of anchors.  Each level
reads its frontier's rows straight off the packed closed and overlap
matrices (``avoiding_rows``), so no anchor's avoidance matrix is ever
built.  A caller folds in a second anchor, as the knotting graph does,
once: ``avoiding_rows`` at it over every row, its included row ORed in.
"""

from __future__ import annotations

import numpy as np

from .check import TypedGraph, circular_pairs, classify_all
from .graph import Graph, disjoint_rows, unpack_rows


def completion_graph(T: TypedGraph) -> Graph:
    """Build the circular completion of T, unchecked.

    Each vertex v without a circular partner gets a partner ~v, placed after
    the originals in increasing order of v.  ~v sees the originals u != v
    with N[u] not inside N[v]; ~v and ~w are non-adjacent iff N[v] is not
    inside N[w] and N[w] contains N[u] for every u outside N[v].  ~v is
    named "~" + v's name, with more "~" prefixed while that name is taken.
    """
    not_c, not_n = ~T.contains, ~T.graph.closed_adj()
    unpaired = np.flatnonzero(~(T.spanning & not_n).any(axis=1))
    # not_c[v, v] is False, so no added vertex sees its own partner
    cross = not_c[unpaired]
    covered = disjoint_rows(cross, not_n[unpaired])
    apart = cross[:, unpaired] & covered
    n, k = T.graph.n, len(unpaired)
    adj = np.empty((n + k, n + k), dtype=bool)
    adj[:n, :n] = T.graph.adj
    adj[n:, :n] = cross
    adj[:n, n:] = cross.T
    added = adj[n:, n:]
    np.logical_not(apart, out=added)
    np.fill_diagonal(added, False)
    names = list(T.graph.names)
    taken = set(names)
    for v in unpaired:
        name = "~" + names[v]
        while name in taken:
            name = "~" + name
        taken.add(name)
        names.append(name)
    return Graph(n + k, adj, tuple(names))


def complete(T: TypedGraph) -> tuple[TypedGraph, np.ndarray]:
    """The circular completion of T, classified but unchecked, and each of
    its vertices' circular partner (-1 where it has none)."""
    H = classify_all(completion_graph(T))
    return H, circular_pairs(H)


AVOID_WORDS = 1 << 20  # words of packed rows a block of anchors gathers per level


def avoiding_rows(closed: np.ndarray, overlap: np.ndarray, vs: np.ndarray,
                  zrows: np.ndarray, meets: np.ndarray) -> np.ndarray:
    """Rows vs of the edges (loops included) that avoid an anchor z, packed,
    but for the columns included with z, which the caller clears.

    closed is the adjacency with loops and overlap marks the overlap edges,
    each as (n, w) rows packed by ``graph.pack_rows``.  zrows is z's packed
    overlap row, or one per row of vs, and meets says whether each v in vs
    overlaps z.  An edge at a vertex not included with z avoids z unless
    it is an overlap edge between two overlappers of z, so v's row is
    closed[v] less overlap[v] & overlap[z] when v overlaps z.  Given the
    rows that avoid another anchor as closed, it gives those avoiding both.
    """
    return closed[vs] & ~(overlap[vs] & (zrows * meets[:, None]))


def _label_block(closed: np.ndarray, overlap: np.ndarray, included: np.ndarray,
                 zs: np.ndarray) -> np.ndarray:
    """``avoiding_labels`` for one block of anchors.

    Every anchor's graph grows its components in lock-step, one
    breadth-first level at a time: the frontier's ``avoiding_rows`` are
    ORed per anchor, and a graph whose component is done starts the next at
    its least unreached vertex, which is therefore the least vertex of that
    component.  Each graph's frontier is one run, for the per-anchor OR:
    a decode emits the runs in graph order, and seeds are appended only for
    graphs without one.  The (anchor, vertex) arrays are read and written
    through flat indices g * n + v: a level finds its new vertices with one
    ``np.flatnonzero`` of its contiguous seen block, divided by n.
    """
    n = closed.shape[0]
    todo = ~unpack_rows(included[zs], n)  # the vertices not yet reached
    ovz = overlap[zs]
    meets = unpack_rows(ovz, n).reshape(-1)  # meets[g * n + v]: v overlaps zs[g]
    label = np.full(todo.shape, n, dtype=np.intp)
    flat_todo, flat_label = todo.reshape(-1), label.reshape(-1)
    lead = np.zeros(len(zs), dtype=np.intp)  # the start of each graph's component
    fg = fv = np.zeros(0, dtype=np.intp)  # the frontier, by graph
    while True:
        idle = todo.any(axis=1)
        idle[fg] = False
        idle = np.flatnonzero(idle)
        if idle.size:
            s = todo[idle].argmax(axis=1)
            at = idle * n + s
            lead[idle] = flat_label[at] = s
            flat_todo[at] = False
            fg, fv = np.concatenate((fg, idle)), np.concatenate((fv, s))
        if not fg.size:
            return label
        first = np.flatnonzero(np.concatenate(([True], fg[1:] != fg[:-1])))  # one run per graph
        gs = fg[first]
        rows = avoiding_rows(closed, overlap, fv, ovz[fg], meets[fg * n + fv])
        seen = unpack_rows(np.bitwise_or.reduceat(rows, first), n)
        seen &= todo[gs]
        i, fv = np.divmod(np.flatnonzero(seen), n)
        fg = gs[i]
        at = fg * n + fv
        flat_todo[at] = False
        flat_label[at] = lead[fg]


def avoiding_labels(closed: np.ndarray, overlap: np.ndarray, included: np.ndarray,
                    zs: np.ndarray) -> np.ndarray:
    """Label each vertex, for each anchor z in zs, with the least vertex of
    its component among the edges (loops included) avoiding z, or with n
    where its loop does not.

    closed is the adjacency with loops, overlap marks the overlap edges and
    included the inclusion pairs, loops included, each as (n, w) rows
    packed by ``graph.pack_rows``; no anchor's avoidance matrix is built.
    The anchors go to ``_label_block`` in blocks whose frontier rows hold
    at most AVOID_WORDS words per level (one anchor at least).
    """
    step = max(1, AVOID_WORDS // max(1, closed.size))
    labels = [_label_block(closed, overlap, included, zs[i:i + step])
              for i in range(0, max(1, len(zs)), step)]  # no anchors: one empty block
    return np.concatenate(labels)
