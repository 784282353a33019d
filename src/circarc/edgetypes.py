"""The circular completion and the edges that avoid an anchor.

The circular completion gives each vertex without a circular partner
(``check.circular_pairs``) a new partner vertex.  Its edges are read off
the input's containment and spanning matrices, with no product
(``completion_graph``), and ``complete`` classifies it with none
either: each block of its containment and spanning matrices is a block
of the input's containment, spanning or closed adjacency, its complement
or its transpose, as its docstring argues.  It is not trusted, and
neither ``complete`` nor the reader of certificates checks it:
``check.completion_error`` does, from the completion alone, as part of a
negative certificate's check, and the recognizer's diagnosis compares it
with ``classify_all`` of the completion.
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

from .check import TypedGraph, circular_pairs, typed_graph
from .check import classify_all  # noqa: F401  re-exported: the benchmark traces it here
from .graph import Graph, unpack_rows


def completion_graph(T: TypedGraph) -> Graph:
    """Build the circular completion of T, unchecked, from T's containment
    C = T.contains and spanning S = T.spanning alone.

    Each vertex v without a circular partner gets a partner ~v, placed after
    the originals in increasing order of v.  ~v sees the originals u with
    not C[v, u], N[u] not inside N[v]; ~v and ~w (v != w) are adjacent iff
    not S[v, w].  ~v is named "~" + v's name, with more "~" prefixed while
    that name is taken.
    """
    S = T.spanning
    unpaired = np.flatnonzero(~(S & ~T.graph.closed_adj()).any(axis=1))
    n, k = T.graph.n, len(unpaired)
    adj = np.empty((n + k, n + k), dtype=bool)
    adj[:n, :n] = T.graph.adj
    # C[v, v] holds, so no added vertex sees its own partner
    np.logical_not(T.contains[unpaired], out=adj[n:, :n])
    adj[:n, n:] = adj[n:, :n].T
    added = adj[n:, n:]
    np.logical_not(S[unpaired][:, unpaired], out=added)
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
    its vertices' circular partner (-1 where it has none).

    H is ``completion_graph(T)``; its classification is assembled block by
    block from T's, with no product over H.  T is reduced: classified on
    two or more vertices, it has no universal vertex and no true twins.
    Write N[x] for x's closed neighbourhood in T, x <= y for N[x] inside
    N[y] (C[y, x], C = T.contains), U for T's unpaired vertices and ~v for
    the partner added for v in U.  In any graph, "every x outside N[b] has
    N[x] inside N[a]" says that no x outside N[a] and y outside N[b] have
    x in N[y]; that is symmetric in a and b, so it is the spanning
    relation S = T.spanning itself.  Three facts follow:

    (i) S[a, b] gives a, b not <= each other: some x lies outside N[b], as
        b is not universal, and a <= b would put x outside N[a] too.
    (ii) S[a, b] and a <= a' give S[a', b]: N[a'] leaves out less.
    (iii) S[a, a] holds exactly when a is universal.

    In this notation ``completion_graph`` puts u ~ ~v in H iff u is not
    <= v, and ~v ~ ~w (v != w) iff not S[v, w].  contains_H[a, b] says
    N_H[b] lies inside N_H[a]:

    - [u, w] = C[u, w]: N[w] inside N[u] is needed, and then u <= y gives
      w <= y.
    - [u, ~v] = S[u, v] and u != v: the originals of N_H[~v], the x not
      <= v, lie in N[u] iff S[v, u]; ~v is in N_H[u] iff u is not <= v,
      which S[u, v] gives by (i); and ~w outside N_H[u], u <= w, is
      outside N_H[~v], S[v, w], by (ii).
    - [~v, u] = not N[v, u]: if u is in N[v], so is v in N[u], and v <= v;
      else no x in N[u] is <= v (u would be in N[v]), and ~w in N_H[u], u
      not <= w, has not S[v, w], by x = u and some y in N[u] - N[w].
    - [~v, ~w] = C[w, v]: the x not <= w are all not <= v iff v <= w; then
      not S[v, w] by (i), so ~w is in N_H[~v], and S[v, y] gives S[w, y]
      by (ii).

    spanning_H[a, b] says each x outside N_H[b] has N_H[x] inside N_H[a]:

    - [u, w] = S[u, w]: x outside N[w] needs C[u, x], and ~y with w <= y
      needs S[u, y] and u != y, which (ii) and (i) give.
    - [~v, u] = [u, ~v] = C[u, v]: x outside N[u] needs x outside N[v],
      which is v <= u, and then u <= y gives v <= y.
    - [~v, ~w] = not N[v, w]: x <= w needs x outside N[v], which is w
      outside N[v]; then S[w, y] puts every x outside N[y] outside N[v],
      so v <= y.

    Its diagonal is False, by (iii) in H.  S's is too, by (iii) in T, but
    for K_1, whose completion is 2K_1.  Off T's pairs, spanning_H and no
    edge meet only at (v, ~v): v <= u <= v gives u = v, as T has no true
    twins, and S[v, w] off N[v, w] would pair v and w in T.  So the
    partners are T's pairs and v <-> ~v.  ``check.typed_graph`` makes the
    types and refuses a universal vertex or true twins of H, as
    ``classify_all(H)`` would.
    """
    G = completion_graph(T)
    n, m = T.graph.n, G.n
    C, S, N = T.contains, T.spanning, T.graph.closed_adj()
    pairs = circular_pairs(T)
    unpaired = np.flatnonzero(pairs < 0)
    added = np.arange(n, m)
    contains = np.empty((m, m), dtype=bool)
    contains[:n, :n] = C
    contains[:n, n:] = S[:, unpaired]
    contains[unpaired, added] = False
    apart = ~N[unpaired]
    contains[n:, :n] = apart
    contains[n:, n:] = C[unpaired][:, unpaired].T  # np.ix_ gathers several times slower
    spanning = np.empty((m, m), dtype=bool)
    spanning[:n, :n] = S
    spanning[:n, n:] = C[:, unpaired]
    spanning[n:, :n] = spanning[:n, n:].T
    spanning[n:, n:] = apart[:, unpaired]
    np.fill_diagonal(spanning, False)
    partner = np.concatenate((pairs, unpaired))
    partner[unpaired] = added
    return typed_graph(G, contains, spanning, G.closed_adj()), partner


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
