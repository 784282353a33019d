"""Seeded graph families whose circular-arc verdict is known by construction.

Every generator returns ``Case`` records: the graph, the verdict it must get,
and the witness that makes the verdict known.  A positive witness is the arc
model the graph was drawn from; a negative witness is a planted vertex set
that induces a biclaw or C4+K1, minimal non-circular-arc graphs (the class is
hereditary, so any graph containing one is not circular-arc).
``check_witness`` re-checks the witness before anything is timed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from circarc.arcs import ArcRepresentation, representation_error
from circarc.graph import Graph
from circarc.recognizer import NEGATIVE, POSITIVE

# Planted obstructions as edge lists on their own vertex indices.
BICLAW = (7, ((0, 1), (1, 2), (0, 3), (0, 4), (3, 5), (4, 6)))
C4_K1 = (5, ((0, 1), (1, 2), (2, 3), (3, 0)))


class WitnessError(RuntimeError):
    """A generated graph does not carry the witness of its known verdict."""


@dataclass(frozen=True)
class Case:
    graph: Graph
    verdict: str
    arcs: Optional[ArcRepresentation] = None        # positive witness
    planted: Optional[tuple[int, ...]] = None       # negative witness
    pattern: Optional[tuple[int, tuple]] = None     # what `planted` induces


def _arc_adjacency(lefts: list[int], rights: list[int], m: int) -> np.ndarray:
    """Intersection graph of arcs (l, r) covering slots l..r clockwise mod m."""
    l = np.array(lefts, dtype=np.int64)
    r = np.array(rights, dtype=np.int64)
    covers_left = (l[None, :] - l[:, None]) % m <= ((r - l) % m)[:, None]
    adj = covers_left | covers_left.T
    np.fill_diagonal(adj, False)
    return adj


def _relabel(adj: np.ndarray, order: list[int]) -> np.ndarray:
    """Adjacency with vertex order[i] renamed to i."""
    idx = np.array(order, dtype=np.int64)
    return adj[np.ix_(idx, idx)]


def _graph(adj: np.ndarray) -> Graph:
    n = adj.shape[0]
    return Graph(n, np.ascontiguousarray(adj, dtype=bool),
                 tuple(str(i) for i in range(n)))


def random_arc_model(rng: random.Random, n: int) -> Case:
    """n arcs with all 2n endpoints shuffled over a circle of 2n slots."""
    slots = list(range(2 * n))
    rng.shuffle(slots)
    arcs = {v: (slots[2 * v], slots[2 * v + 1]) for v in range(n)}
    adj = _arc_adjacency([a[0] for a in arcs.values()],
                         [a[1] for a in arcs.values()], 2 * n)
    return Case(_graph(adj), POSITIVE, arcs=ArcRepresentation(2 * n, arcs))


def random_interval_graph(rng: random.Random, n: int) -> Case:
    """n intervals with distinct endpoints drawn from 0..4n-1.

    An interval (a, b) is the arc (a, b) on a circle of 4n + 1 slots whose
    last slot no interval reaches.
    """
    points = rng.sample(range(4 * n), 2 * n)
    arcs = {v: tuple(sorted(points[2 * v:2 * v + 2])) for v in range(n)}
    m = 4 * n + 1
    adj = _arc_adjacency([a[0] for a in arcs.values()],
                         [a[1] for a in arcs.values()], m)
    return Case(_graph(adj), POSITIVE, arcs=ArcRepresentation(m, arcs))


def twin_blowup(rng: random.Random, k: int, t: int) -> Case:
    """A random k-arc model with every arc copied into t true twins, labels
    shuffled.

    On a circle refined 2t-fold, copy j of the arc (l, r) runs from j fine
    slots before l to j fine slots after r.  The copies widen each arc by less
    than half an original slot on each side, so two copies meet exactly when
    their originals do, and the t copies of an arc are true twins.
    """
    ends = []
    for l, r in random_arc_model(rng, k).arcs.arcs.values():
        for j in range(t):
            ends.append(((2 * t * l - j) % (4 * k * t), 2 * t * r + j))
    slot = {p: i for i, p in enumerate(sorted(p for e in ends for p in e))}
    order = list(range(k * t))
    rng.shuffle(order)
    arcs = {i: (slot[ends[v][0]], slot[ends[v][1]]) for i, v in enumerate(order)}
    m = 2 * k * t
    adj = _arc_adjacency([a[0] for a in arcs.values()],
                         [a[1] for a in arcs.values()], m)
    return Case(_graph(adj), POSITIVE, arcs=ArcRepresentation(m, arcs))


def planted_negative(rng: random.Random, n: int, pattern: tuple[int, tuple]) -> Case:
    """A random n-arc model plus a disjoint copy of `pattern`, labels shuffled."""
    host = random_arc_model(rng, n).graph.adj
    k, edges = pattern
    adj = np.zeros((n + k, n + k), dtype=bool)
    adj[:n, :n] = host
    for u, v in edges:
        adj[n + u, n + v] = adj[n + v, n + u] = True
    order = list(range(n + k))
    rng.shuffle(order)
    new_index = {v: i for i, v in enumerate(order)}
    planted = tuple(new_index[n + u] for u in range(k))
    return Case(_graph(_relabel(adj, order)), NEGATIVE,
                planted=planted, pattern=pattern)


def check_witness(case: Case) -> None:
    """Raise WitnessError unless the case carries a valid witness."""
    if case.verdict == POSITIVE:
        err = representation_error(case.graph, case.arcs)
        if err is not None:
            raise WitnessError(f"generating arc model is invalid: {err}")
        return
    k, edges = case.pattern
    want = np.zeros((k, k), dtype=bool)
    for u, v in edges:
        want[u, v] = want[v, u] = True
    idx = np.array(case.planted, dtype=np.int64)
    if len(set(case.planted)) != k or not np.array_equal(
            case.graph.adj[np.ix_(idx, idx)], want):
        raise WitnessError("planted vertices do not induce the pattern")


def _arc_positive(rng: random.Random, i: int) -> Case:
    # Interval graphs are sized to cost about what the arc models cost, so the
    # median per-graph time does not fall between two clusters.
    return random_arc_model(rng, 100) if i % 2 == 0 else random_interval_graph(rng, 84)


def _planted_negative(rng: random.Random, i: int) -> Case:
    return planted_negative(rng, 85, BICLAW if i % 2 == 0 else C4_K1)


def _twin_blowup(rng: random.Random, i: int) -> Case:
    return twin_blowup(rng, 36, 5)


# name -> (i-th graph of the workload, full-pipeline seconds per graph on a
# 2-core Xeon VM).  The cost sizes the pool so that a run takes about as long
# as asked; see pool_size.  Graphs are as small as keeps edgetypes.complete
# ahead of Delta-orientation on arc-positive (below n = 100 it falls behind,
# which would misrepresent larger inputs), so that a run holds many of them:
# per-graph times spread by a fifth to a quarter within a workload.
# twin-blowup (n = 180) reduces to a core of about 25 vertices, so that
# graph.reduce takes most of recognize.
WORKLOADS = {
    "arc-positive": (_arc_positive, 0.7),
    "planted-negative": (_planted_negative, 0.55),
    "twin-blowup": (_twin_blowup, 0.65),
}


def pool_size(workload: str, seconds: float) -> int:
    """Graphs that one pass certifies in about 0.8 * `seconds`; at least four."""
    return max(4, round(0.8 * seconds / WORKLOADS[workload][1]))


def make_cases(workload: str, seed: int, pool: int) -> list[Case]:
    """The first `pool` graphs of the workload for `seed`, witnesses checked.

    Graph i depends only on the workload, the seed and i, so a larger pool
    extends a smaller one.
    """
    make = WORKLOADS[workload][0]
    cases = [make(random.Random(f"{workload}/{seed}/{i}"), i) for i in range(pool)]
    for case in cases:
        check_witness(case)
    return cases
