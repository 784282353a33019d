"""Circular-arc representations over a discrete circle of slots.

An arc (l, r) covers the slots l, l+1, ..., r clockwise, indices taken
modulo the circle size.  Two arcs intersect when they share a slot.  A
representation is valid for a graph when arcs pairwise intersect exactly
for (closed-)adjacent vertex pairs, and all endpoints are distinct
(``check.representation_error``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .check import representation_error  # re-exported under its old name
from .graph import MergeTwins, RemoveUniversal


@dataclass(frozen=True)
class ArcRepresentation:
    circle_size: int
    arcs: dict[int, tuple[int, int]]  # vertex -> (left slot, right slot)


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
