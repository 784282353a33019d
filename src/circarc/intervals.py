"""Intervals from an interval ordering, and the lift onto a circle.

The builder processes the ordering right to left, always giving the new
leftmost vertex a fresh global-minimum left endpoint and a right endpoint
squeezed into a fresh slot just past everything it must reach.  Endpoint
positions are integers 1..2n, all distinct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arcs import ArcRepresentation
from .check import InternalError, TypedGraph, representation_error
from .delta import Label, LabelledGraph


@dataclass(frozen=True)
class IntervalRepresentation:
    intervals: dict[int, tuple[int, int]]  # vertex -> (l, r), l < r


def _consistency_error(L: LabelledGraph, iv: dict[int, tuple[int, int]]) -> str | None:
    """First disagreement of the intervals with the labels, by (u, v) order.

    Vertex u's own interval is checked just before its pairs (u, v), v > u.
    """
    lr = np.array([iv[u] for u in range(L.n)], dtype=np.int64).reshape(L.n, 2)
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


def build_intervals(L: LabelledGraph, order: list[int]) -> IntervalRepresentation:
    """Realize an interval ordering as concrete integer intervals.

    Left endpoints come out in exactly the given order, by construction.
    The result is checked against the labels; a failure means the ordering
    was not an interval ordering and is reported as an internal error.
    """
    n = L.n
    # pos[x] and pos[n + x]: the places, from 1, of L(x) and R(x) in the
    # sequence built so far, negative until placed; an insertion shifts
    # everything after it, so relative order never changes
    pos = np.full(2 * n, -2 * n, dtype=np.intp)
    idx = np.array(order, dtype=np.intp)
    for k in range(n - 1, -1, -1):
        x = order[k]
        pos += 1
        pos[x] = 1
        row = L.labels[x, idx[k:]]  # row[0] is the loop at x, never a non-edge
        y = order[k + int(np.flatnonzero(row != Label.NONEDGE)[-1])]
        incl = idx[k + 1:][row[1:] == Label.INCLUSION]
        outer = incl[~L.inside[x, incl]]
        if outer.size:
            raise InternalError(
                f"vertex {outer[0]} inclusion-tied to leftmost {x} but not inside it")
        t = max(pos[y], pos[n + incl].max(initial=0))
        pos[pos > t] += 1
        pos[n + x] = t + 1
    iv = dict(enumerate(zip(pos[:n].tolist(), pos[n:].tolist())))
    err = _consistency_error(L, iv)
    if err is not None:
        raise InternalError(f"built intervals inconsistent with labels: {err}")
    return IntervalRepresentation(iv)


def lift_to_circle(ivals: IntervalRepresentation, zmap: list[int],
                   pairing: dict[int, int], H: TypedGraph) -> ArcRepresentation:
    """Lift intervals on one side of every circular pair to arcs for all of H.

    zmap sends the interval vertices (0..|Z|-1) to their H indices.  Each
    lifted interval is scaled by 4 onto a circle of 8|Z|+8 slots; the
    partner of each vertex gets the complementary arc shrunk by one slot at
    both ends.  The result must verify against H, else the pipeline is
    broken.
    """
    k = len(zmap)
    m = 8 * k + 8
    arcs: dict[int, tuple[int, int]] = {}
    for i, u in enumerate(zmap):
        l, r = ivals.intervals[i]
        arcs[u] = (4 * l, 4 * r)
        arcs[pairing[u]] = ((4 * r + 1) % m, (4 * l - 1) % m)
    err = representation_error(H.graph, ArcRepresentation(m, arcs))
    if err is not None:
        raise InternalError(f"lifted arcs fail verification: {err}")
    return ArcRepresentation(m, arcs)
