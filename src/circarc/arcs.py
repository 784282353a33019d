"""Circular-arc representations over a discrete circle of slots.

An arc (l, r) covers the slots l, l+1, ..., r clockwise, indices taken
modulo the circle size.  Two arcs intersect when they share a slot.  A
representation is valid for a graph when arcs pairwise intersect exactly
for (closed-)adjacent vertex pairs, and all endpoints are distinct
(``check.representation_error``).

A certificate, the reader, the writer and the checker hold the arcs as an
``ArcRepresentation``, a dict by vertex.  The recognizer's positive route
hands them on as one (n, 2) array of slots instead, from the lift to
``expand_arcs``, which makes the certificate's dict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .check import representation_error  # re-exported under its old name


@dataclass(frozen=True)
class ArcRepresentation:
    circle_size: int
    arcs: dict[int, tuple[int, int]]  # vertex -> (left slot, right slot)


def expand_arcs(trace, circle_size: int, ends: np.ndarray) -> ArcRepresentation:
    """Undo a reduction trace on arcs of the reduced graph: a circle of
    circle_size slots and an (n_r, 2) integer array whose row i is the arc
    (l, r) of survivor i.

    Returns a representation of the original graph, indexed by its vertices.
    Each slot gets a key (reduced slot, offset), and one sort of the keys
    places every endpoint: a reduced slot has offset 0, and the removed twin
    of the i-th twin step (from 1, universal steps not counted) has its ends
    at offsets -i and +i of its kept vertex's ends, so earlier steps sit
    innermost.  Each universal vertex then adds three slots at the end, in
    reverse step order, and covers all but the middle one.  Every kept
    vertex must be a survivor.
    """
    surv = trace.survivors
    if ends.shape != (len(surv), 2):
        raise ValueError("representation does not match the reduced graph")
    kept, removed = trace.steps.T
    twin = kept >= 0
    universal, kept, removed = removed[~twin], kept[twin], removed[twin]
    at = np.searchsorted(surv, kept)  # each kept vertex's survivor rank
    n, c, t = trace.n_original, circle_size, kept.size
    everyone = np.sort(np.concatenate((surv, trace.steps[:, 1])))
    if not (np.array_equal(everyone, np.arange(n)) and np.array_equal(np.r_[surv, -1][at], kept)):
        raise ValueError("malformed reduction trace")
    i = np.arange(1, t + 1)
    major = np.concatenate((np.arange(c), ends[at].T.reshape(-1)))
    minor = np.concatenate((np.zeros(c, dtype=np.intp), -i, i))
    pos = np.empty(c + 2 * t, dtype=np.intp)
    pos[np.lexsort((minor, major))] = np.arange(c + 2 * t)
    size = c + 2 * t + 3 * universal.size
    arcs = dict(zip(surv, zip(*pos[ends].T.tolist())))
    arcs.update(zip(removed.tolist(), zip(pos[c:c + t].tolist(), pos[c + t:].tolist())))
    # the q-th universal step (from 0) gets slots size - 3q - 3..1 and misses the middle one
    arcs.update(zip(universal.tolist(), zip(range(size - 1, -1, -3), range(size - 3, -1, -3))))
    return ArcRepresentation(size, arcs)
