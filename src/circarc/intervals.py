"""Intervals from an interval ordering, and the lift onto a circle.

The builder processes the ordering right to left, always giving the new
leftmost vertex a fresh global-minimum left endpoint and a right endpoint
squeezed into a fresh slot just past everything it must reach.  Endpoint
positions are integers 1..2n, all distinct; the intervals are an (n, 2)
array whose row v is (l, r) of vertex v.
"""

from __future__ import annotations

import numpy as np

from .arcs import ArcRepresentation
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
    faults = [
        ((lab == Label.NONEDGE) & ~disjoint, "labelled non-edge but intervals meet"),
        ((lab == Label.OVERLAP) & (disjoint | inner | inner.T),
         "labelled overlap but intervals do not overlap"),
        ((lab == Label.INCLUSION) & ~np.where(L.inside, inner, inner.T),
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

    Left endpoints come out in exactly the given order, by construction.
    An inner interval before its outer one is an internal error; the rest
    of the labels are not checked here (see ``_consistency_error``).
    """
    n = L.n
    idx = np.array(order, dtype=np.intp)
    lab = L.labels[idx][:, idx]  # rows, then columns, by position
    # last[k]: the position of y, the last vertex from order[k] on that
    # meets order[k]; the loop at order[k] is never a non-edge
    last = np.where(np.triu(lab != Label.NONEDGE), np.arange(n), 0).max(axis=1, initial=0)
    incl = np.triu(lab == Label.INCLUSION, 1)
    outer = incl & ~L.inside[idx][:, idx]
    if outer.any():
        k = int(np.flatnonzero(outer.any(axis=1))[-1])
        v = order[int(np.argmax(outer[k]))]
        raise InternalError(
            f"vertex {v} inclusion-tied to leftmost {order[k]} but not inside it")
    # Right to left, L(order[k]) goes first and R(order[k]) right after the
    # latest of L(y) and the R(i) of the vertices i inside it.  Insertions
    # never reorder what is placed, so the sequence is a preorder: L(order[j])
    # has key (j,) and R(order[k]) the key of that anchor extended by k.
    rows, inner = np.divmod(np.flatnonzero(incl), n)
    starts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    inner, last = inner.tolist(), last.tolist()
    lkey = [(j,) for j in range(n)]
    rkey: list[tuple[int, ...]] = [()] * n
    for k in range(n - 1, -1, -1):
        anchor = max([lkey[last[k]]] + [rkey[i] for i in inner[starts[k]:starts[k + 1]]])
        rkey[k] = anchor + (k,)
    keys = lkey + rkey
    rank = np.empty(2 * n, dtype=np.intp)
    rank[sorted(range(2 * n), key=keys.__getitem__)] = np.arange(1, 2 * n + 1)
    lr = np.empty((n, 2), dtype=np.intp)
    lr[idx] = rank.reshape(2, n).T
    return lr


def lift_to_circle(ivals: np.ndarray, zmap: list[int],
                   partner: np.ndarray) -> ArcRepresentation:
    """Lift intervals on one side of every circular pair to arcs for all of
    the completion H, unchecked (its check is ``representation_error``).

    zmap sends the interval vertices, the rows of ivals, to their H indices.
    Each lifted interval is scaled by 4 onto a circle of 8|Z|+8 slots; the
    partner of each vertex gets the complementary arc shrunk by one slot at
    both ends.
    """
    m = 8 * len(zmap) + 8
    arcs: dict[int, tuple[int, int]] = {}
    for u, w, (l, r) in zip(zmap, partner[zmap].tolist(), (4 * ivals).tolist()):
        arcs[u] = (l, r)
        arcs[w] = ((r + 1) % m, (l - 1) % m)
    return ArcRepresentation(m, arcs)
