"""Circular-arc representations over a discrete circle of slots.

An arc (l, r) covers the slots l, l+1, ..., r clockwise, indices taken
modulo the circle size.  Two arcs intersect when they share a slot.  A
representation is valid for a graph when arcs pairwise intersect exactly
for (closed-)adjacent vertex pairs, and all endpoints are distinct
(``check.representation_error``).

A certificate, the reader, the writer and the checker hold the arcs as an
``ArcRepresentation``, a dict by vertex.  The recognizer's positive route
hands them on as one (n, 2) array of slots instead, from the lift to
``expand_arcs``, which ranks the endpoints into the certificate's dict:
only their circular order decides which arcs meet, so the circle is 2n slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .check import representation_error  # re-exported under its old name


@dataclass(frozen=True)
class ArcRepresentation:
    circle_size: int
    arcs: dict[int, tuple[int, int]]  # vertex -> (left slot, right slot)


def expand_arcs(trace, ends: np.ndarray) -> ArcRepresentation:
    """Undo a reduction trace on arcs of the reduced graph, on a circle of
    any size: an (n_r, 2) integer array whose row i is survivor i's (l, r).

    Returns a representation of the original graph, indexed by its
    vertices, on a circle of exactly its 2n endpoints (one slot if n = 0).
    Each endpoint placed gets a key (reduced slot, offset), and one sort of
    the keys ranks them: a survivor's end has offset 0, and the removed twin
    of the i-th twin step (from 1, universal steps not counted) has its ends
    at offsets -i and +i of its kept vertex's ends, so earlier steps sit
    innermost.  Each universal vertex then takes two slots at the end, in
    reverse step order, and its arc covers the whole circle.  Every kept
    vertex must be a survivor.
    """
    surv = trace.survivors
    if ends.shape != (len(surv), 2):
        raise ValueError("representation does not match the reduced graph")
    kept, removed = trace.steps.T
    twin = kept >= 0
    universal, kept, removed = removed[~twin], kept[twin], removed[twin]
    at = np.searchsorted(surv, kept)  # each kept vertex's survivor rank
    n, e, t = trace.n_original, ends.size, kept.size
    everyone = np.sort(np.concatenate((surv, trace.steps[:, 1])))
    if not (np.array_equal(everyone, np.arange(n)) and np.array_equal(np.r_[surv, -1][at], kept)):
        raise ValueError("malformed reduction trace")
    i = np.arange(1, t + 1)
    major = np.concatenate((ends.reshape(-1), ends[at].T.reshape(-1)))
    minor = np.concatenate((np.zeros(e, dtype=np.intp), -i, i))
    rank = np.empty(e + 2 * t, dtype=np.intp)
    rank[np.lexsort((minor, major))] = np.arange(e + 2 * t)
    arcs = dict(zip(surv, zip(rank[:e:2].tolist(), rank[1:e:2].tolist())))
    arcs.update(zip(removed.tolist(), zip(rank[e:e + t].tolist(), rank[e + t:].tolist())))
    # the q-th universal step (from 0) runs from slot 2n - 2q - 1 all the way round to 2n - 2q - 2
    arcs.update(zip(universal.tolist(), zip(range(2 * n - 1, -1, -2), range(2 * n - 2, -1, -2))))
    return ArcRepresentation(max(2 * n, 1), arcs)
