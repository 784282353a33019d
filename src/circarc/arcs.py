"""Circular-arc representations over a discrete circle of slots.

An arc (l, r) covers the slots l, l+1, ..., r clockwise, indices taken
modulo the circle size.  Two arcs intersect when they share a slot.  A
representation is valid for a graph when arcs pairwise intersect exactly
for (closed-)adjacent vertex pairs, and all endpoints are distinct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import MergeTwins, RemoveUniversal


@dataclass(frozen=True)
class ArcRepresentation:
    circle_size: int
    arcs: dict[int, tuple[int, int]]  # vertex -> (left slot, right slot)

    def covers(self, v: int, slot: int) -> bool:
        l, r = self.arcs[v]
        m = self.circle_size
        return (slot - l) % m <= (r - l) % m

    def intersects(self, u: int, v: int) -> bool:
        lu, _ = self.arcs[u]
        lv, _ = self.arcs[v]
        return self.covers(u, lv) or self.covers(v, lu)


def representation_error(G, rep: ArcRepresentation) -> Optional[str]:
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


def expand_arcs(trace, rep: ArcRepresentation) -> ArcRepresentation:
    """Undo a reduction trace on a representation of the reduced graph.

    Returns a representation of the original graph, indexed by its vertices.
    Steps are undone in reverse.  A reinstated twin gets an arc one fresh
    slot wider than its partner on each side; a reinstated universal vertex
    gets an arc covering all but one fresh slot.
    """
    if set(rep.arcs) != set(range(len(trace.survivors))):
        raise ValueError("representation does not match the reduced graph")
    next_tag = rep.circle_size
    circle = list(range(rep.circle_size))
    arcs = {trace.survivors[i]: lr for i, lr in rep.arcs.items()}
    for step in reversed(trace.steps):
        if isinstance(step, MergeTwins):
            l_k, r_k = arcs[step.kept]
            a, b = next_tag, next_tag + 1
            next_tag += 2
            circle.insert(circle.index(l_k), a)
            circle.insert(circle.index(r_k) + 1, b)
            arcs[step.removed] = (a, b)
        else:
            assert isinstance(step, RemoveUniversal)
            s1, s2, s3 = next_tag, next_tag + 1, next_tag + 2
            next_tag += 3
            circle.extend([s1, s2, s3])
            # wraps the whole circle, missing only s2
            arcs[step.vertex] = (s3, s1)
    pos = {tag: i for i, tag in enumerate(circle)}
    out = {v: (pos[l], pos[r]) for v, (l, r) in arcs.items()}
    return ArcRepresentation(len(circle), out)
