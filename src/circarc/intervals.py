"""Intervals from an interval ordering, and the lift onto a circle.

Left ends come in the order given.  A right end has one place it can go:
the gap after the left end of the last vertex it meets and before the next
left end, which it misses.  Within a gap the labels rank the right ends.
Endpoint positions are integers 1..2n, all distinct; the intervals are an
(n, 2) array whose row v is (l, r) of vertex v.  The lift keeps that form:
the arcs of the completion leave it as one (|H|, 2) array of slots, which
the recognizer lays out side by side and ``arcs.expand_arcs`` ranks
into the certificate's dict.
"""

from __future__ import annotations

import numpy as np

from .check import InternalError
from .delta import Label, LabelledGraph


def _consistency_error(L: LabelledGraph, lr: np.ndarray) -> str | None:
    """First disagreement of the intervals with the labels, by (u, v) order.

    Vertex u's own interval is checked just before its pairs (u, v), v > u.
    """
    l, r = lr[:, 0], lr[:, 1]
    disjoint = (r[:, None] < l[None, :]) | (r[None, :] < l[:, None])
    inner = (l[:, None] < l[None, :]) & (r[None, :] < r[:, None])  # v inside u
    lab = L.labels
    # plain ints: numpy compares with an IntEnum member several times slower
    faults = [
        ((lab == Label.NONEDGE.value) & ~disjoint, "labelled non-edge but intervals meet"),
        ((lab == Label.OVERLAP.value) & (disjoint | inner | inner.T),
         "labelled overlap but intervals do not overlap"),
        ((lab == Label.INCLUSION.value) & ~np.where(L.inside, inner, inner.T),
         "containment direction wrong"),
    ]
    bad = np.triu(np.logical_or.reduce([m for m, _ in faults]), 1)
    bad[np.diag_indices(L.n)] = l >= r
    if not bad.any():
        return None
    u, v = map(int, np.argwhere(bad)[0])
    if u == v:
        return f"degenerate interval for {u}"
    return next(f"{u},{v} {msg}" for m, msg in faults if m[u, v])


def build_intervals(L: LabelledGraph, order: list[int]) -> np.ndarray:
    """Realize an interval ordering as concrete integer intervals.

    Vertices are named by position, k for order[k].  L(k) comes k-th among
    the left ends; R(k) falls in the gap after L(last[k]), last[k] the last
    vertex from k on that k meets, and before the next left end, which k
    misses.  Two vertices in one gap both meet the gap's vertex, so with no
    forbidden pattern they meet each other and their label orders their
    right ends: R(i) is first when i < k and k is not inside i, or when
    i > k and i is inside k.  So L(j) has the key (j, -1) and R(k) the key
    (last[k], r[k]), r[k] counting the right ends of its gap before it.
    An inner interval before its outer one is an internal error; the rest
    of the labels are not checked here (see ``_consistency_error``).
    """
    n = L.n
    idx = np.array(order, dtype=np.intp)
    lab = L.labels[idx][:, idx]  # rows, then columns, by position
    # the loop at k is never a non-edge, so last[k] >= k
    last = np.where(np.triu(lab != Label.NONEDGE.value), np.arange(n), 0).max(axis=1, initial=0)
    incl = np.triu(lab == Label.INCLUSION.value, 1)
    outer = incl & ~L.inside[idx][:, idx]
    if outer.any():
        k = int(np.flatnonzero(outer.any(axis=1))[-1])
        v = order[int(np.argmax(outer[k]))]
        raise InternalError(
            f"vertex {v} inclusion-tied to leftmost {order[k]} but not inside it")
    before = np.where(np.tri(n, k=-1, dtype=bool), ~incl.T, incl)  # R(col) before R(row)
    r = ((last[:, None] == last) & before).sum(axis=1)
    ends = np.lexsort((np.concatenate((np.full(n, -1), r)),
                       np.concatenate((np.arange(n), last))))
    rank = np.empty(2 * n, dtype=np.intp)
    rank[ends] = np.arange(1, 2 * n + 1)
    lr = np.empty((n, 2), dtype=np.intp)
    lr[idx] = rank.reshape(2, n).T
    return lr


def lift_to_circle(ivals: np.ndarray, zmap: list[int],
                   partner: np.ndarray) -> tuple[int, np.ndarray]:
    """Lift intervals on one side of every circular pair to arcs for all of
    the completion H, unchecked (its check is ``representation_error``).

    zmap sends the interval vertices, the rows of ivals, to their H indices.
    Each lifted interval is scaled by 4 onto a circle of m = 8|Z|+8 slots;
    the partner of each vertex gets the complementary arc shrunk by one slot
    at both ends.  Returns m and the arcs as an (|H|, 2) array whose row v
    is (l, r) of vertex v; a row that no pair reaches stays (-1, -1).
    """
    m = 8 * len(zmap) + 8
    ends = np.full((len(partner), 2), -1)
    ends[zmap] = 4 * ivals
    ends[partner[zmap]] = (ends[zmap, ::-1] + [1, -1]) % m
    return m, ends
