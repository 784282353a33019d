"""Forcing machinery on edge-labelled graphs.

A labelled graph carries a {NonEdge, Overlap, Inclusion} label per vertex
pair plus a transitive orientation of its inclusion edges.  The labels are
data: they may come from an ambient graph and need not agree with the
neighborhoods of the labelled graph itself.

Ordered pairs with Overlap or NonEdge labels force each other: (x,z) and
(y,z) must orient the same way whenever the edge xy avoids z.  The
connected classes of this forcing relation drive the construction of an
interval ordering, recursing on modules (vertex sets seen uniformly from
outside), or fail by exhibiting a pair forced into both orientations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

import numpy as np

from .edgetypes import EdgeType, InternalError, TypedGraph, avoiding
from .graph import bfs, tree_path

Pair = tuple[int, int]


class Label(IntEnum):
    NONEDGE = 0
    OVERLAP = 1
    INCLUSION = 2


class DeltaInvertiblePair(Exception):
    """A pair is forced into both orientations; no interval ordering exists.

    chain is a forcing sequence of ordered pairs from .pair to its reversal,
    each consecutive two related by a single step.
    """

    def __init__(self, pair: Pair, chain: list[Pair]):
        super().__init__(f"pair {pair} is forced onto its own reversal")
        self.pair = pair
        self.chain = chain


class NonUniformQuotientLabel(InternalError):
    pass


class TournamentNotTransitive(InternalError):
    pass


@dataclass(frozen=True)
class LabelledGraph:
    n: int
    labels: np.ndarray  # int8 (n, n), symmetric, diagonal INCLUSION
    inside: np.ndarray  # bool (n, n); inside[u,v]: v's interval must sit inside u's

    def __post_init__(self):
        lb, ins = self.labels, self.inside
        if not np.array_equal(lb, lb.T):
            raise ValueError("labels must be symmetric")
        if self.n and not (lb.diagonal() == Label.INCLUSION).all():
            raise ValueError("loops must be labelled inclusion")
        incl = (lb == Label.INCLUSION) & ~np.eye(self.n, dtype=bool)
        if not np.array_equal(incl, ins | ins.T):
            raise ValueError("orientation must cover exactly the inclusion edges")
        if (ins & ins.T).any():
            raise ValueError("orientation must be antisymmetric")
        via = (ins.astype(np.int32) @ ins.astype(np.int32)) > 0
        if (via & ~ins).any():
            raise ValueError("orientation must be transitive")

    def label(self, u: int, v: int) -> Label:
        return Label(int(self.labels[u, v]))

    def induced(self, vertices: list[int]) -> "LabelledGraph":
        idx = np.array(vertices, dtype=int)
        if len(vertices) == 0:
            return LabelledGraph(0, np.zeros((0, 0), np.int8), np.zeros((0, 0), bool))
        return LabelledGraph(len(vertices), self.labels[np.ix_(idx, idx)],
                             self.inside[np.ix_(idx, idx)])


def labelled_from_typed(T: TypedGraph, vertices: list[int]) -> LabelledGraph:
    """Restrict a typed graph to a vertex subset, keeping the ambient types.

    1-overlap and 2-overlap collapse to Overlap; inclusion edges are
    oriented by the ambient closed-neighborhood containment.
    """
    idx = np.array(vertices, dtype=int)
    k = len(vertices)
    if k == 0:
        return LabelledGraph(0, np.zeros((0, 0), np.int8), np.zeros((0, 0), bool))
    t = T.types[np.ix_(idx, idx)]
    labels = np.zeros((k, k), dtype=np.int8)
    labels[(t == EdgeType.OVERLAP1) | (t == EdgeType.OVERLAP2)] = Label.OVERLAP
    labels[t == EdgeType.INCLUSION] = Label.INCLUSION
    incl = (labels == Label.INCLUSION) & ~np.eye(k, dtype=bool)
    inside = incl & T.contains[np.ix_(idx, idx)]
    if not np.array_equal(incl, inside | inside.T):
        raise InternalError("ambient containment does not orient an inclusion edge")
    return LabelledGraph(k, labels, inside)


@dataclass(frozen=True)
class PairClass:
    id: int
    pairs: frozenset[Pair]
    inverse_id: int


@dataclass
class DeltaClasses:
    classes: list[PairClass]
    class_of: dict[Pair, int]
    parent: dict[Pair, Optional[Pair]] = field(default_factory=dict)

    def chain(self, p: Pair, q: Pair) -> list[Pair]:
        """Forcing chain from p to q inside their common class."""
        return tree_path(self.parent, p, q)


def span(c: PairClass) -> frozenset[int]:
    return frozenset(v for p in c.pairs for v in p)


def implication_classes(L: LabelledGraph) -> DeltaClasses:
    """Partition the ordered Overlap/NonEdge pairs into forcing classes.

    Breadth-first closure of the single forcing step, seeded in
    lexicographic order; a BFS forest is kept so chains between class
    members can be replayed.
    """
    n = L.n
    # avoid[z, x, y]: the edge xy (a loop when x = y) label-avoids z
    closed, overlap = L.labels != Label.NONEDGE, L.labels == Label.OVERLAP
    included = L.labels == Label.INCLUSION
    avoid = np.empty((n, n, n), dtype=bool)
    for z in range(n):
        avoid[z] = avoiding(closed, overlap, included, z)
    active = [(int(a), int(b)) for a in range(n) for b in range(n)
              if a != b and L.labels[a, b] != Label.INCLUSION]

    def forced(p: Pair) -> list[Pair]:
        # (a,b) -> (c,b) when edge ac avoids b; -> (a,c) when bc avoids a
        a, b = p
        return ([(c, b) for c in np.flatnonzero(avoid[b, a]).tolist()]
                + [(a, c) for c in np.flatnonzero(avoid[a, b]).tolist()])

    class_of: dict[Pair, int] = {}
    parent: dict[Pair, Optional[Pair]] = {}
    classes: list[frozenset[Pair]] = []
    for seed in active:
        if seed in parent:
            continue
        members = bfs(parent, seed, forced)
        class_of.update(dict.fromkeys(members, len(classes)))
        classes.append(frozenset(members))
    out = []
    for cid, members in enumerate(classes):
        a, b = min(members)
        out.append(PairClass(cid, members, class_of[(b, a)]))
    return DeltaClasses(out, class_of, parent)


def _order_vertices(L: LabelledGraph) -> list[int]:
    n = L.n
    if n <= 1:
        return list(range(n))
    cls = implication_classes(L)
    for c in cls.classes:
        if c.inverse_id == c.id:
            pair = min(c.pairs)
            raise DeltaInvertiblePair(pair, cls.chain(pair, (pair[1], pair[0])))
    spans = [(len(span(c)), min(c.pairs), c) for c in cls.classes]
    proper = [s for s in spans if s[0] < n]
    if proper:
        _, _, c = min(proper, key=lambda s: (s[0], s[1]))
        return _splice_module(L, sorted(span(c)))
    rel = np.zeros((n, n), dtype=bool)
    if cls.classes:
        # every class spans all vertices: a single class and its inverse remain
        if len(cls.classes) != 2 or cls.classes[0].inverse_id != 1:
            raise InternalError("expected exactly one spanning class up to reversal")
        least = min(min(c.pairs) for c in cls.classes)
        for a, b in cls.classes[cls.class_of[least]].pairs:
            rel[a, b] = True
        if (rel & rel.T).any():
            raise InternalError("spanning class contains a pair and its reversal")
    # with no classes every pair is inclusion-labelled and 'inside' alone
    # must be a transitive tournament
    tournament = rel | L.inside
    deg = tournament.sum(axis=1)
    order = sorted(range(n), key=lambda u: (-int(deg[u]), u))
    gaps = np.argwhere(np.triu(~tournament[np.ix_(order, order)], 1))
    if gaps.size:
        i, j = gaps[0]
        raise TournamentNotTransitive(f"orientation cyclic at {order[i]},{order[j]}")
    return order


def _splice_module(L: LabelledGraph, module: list[int]) -> list[int]:
    """Order L by contracting the module to its least vertex and recursing."""
    rep = module[0]
    inside_set = set(module)
    outside = [v for v in range(L.n) if v not in inside_set]
    for x in outside:
        labs = {int(L.labels[x, s]) for s in module}
        if len(labs) != 1:
            raise NonUniformQuotientLabel(f"vertex {x} sees mixed labels in module")
        if labs == {int(Label.INCLUSION)}:
            dirs = {bool(L.inside[x, s]) for s in module}
            if len(dirs) != 1:
                raise NonUniformQuotientLabel(f"vertex {x} sees mixed directions")
    quotient_verts = sorted(outside + [rep])
    qorder = _order_vertices(L.induced(quotient_verts))
    sorder = _order_vertices(L.induced(module))
    order: list[int] = []
    for qi in qorder:
        v = quotient_verts[qi]
        if v == rep:
            order.extend(module[si] for si in sorder)
        else:
            order.append(v)
    return order


def interval_orientation(L: LabelledGraph) -> list[int]:
    """Construct an interval ordering, or fail with DeltaInvertiblePair.

    The derived linear order is checked to agree with the inclusion
    orientation and to avoid every pattern of ordering_violation; those
    patterns include an avoided vertex placed between the ends of the edge
    it avoids.
    """
    order = _order_vertices(L)
    pos = np.empty(L.n, dtype=int)
    for i, v in enumerate(order):
        pos[v] = i
    inside_bad = L.inside & (pos[:, None] > pos[None, :])
    if inside_bad.any():
        u, v = map(int, np.argwhere(inside_bad)[0])
        raise TournamentNotTransitive(f"order contradicts containment at {u},{v}")
    violation = ordering_violation(L, order)
    if violation is not None:
        raise InternalError(f"constructed order fails pattern check: {violation}")
    return order


def ordering_violation(L: LabelledGraph, order: list[int]) -> Optional[tuple]:
    """First forbidden triple in the candidate interval ordering, if any."""
    n = L.n
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the vertices")
    idx = np.array(order, dtype=int)
    lab = L.labels[np.ix_(idx, idx)]
    non = lab == Label.NONEDGE
    ov = lab == Label.OVERLAP
    inc = lab == Label.INCLUSION
    np.fill_diagonal(inc, False)
    edge = ov | inc
    for bpos in range(1, n - 1):
        a_rng = slice(0, bpos)
        c_rng = slice(bpos + 1, n)
        an, ao, ai = non[a_rng, bpos], ov[a_rng, bpos], inc[a_rng, bpos]
        cn, co, ci = non[bpos, c_rng], ov[bpos, c_rng], inc[bpos, c_rng]
        ac_n = non[a_rng, c_rng]
        ac_e = edge[a_rng, c_rng]
        ac_o = ov[a_rng, c_rng]
        ac_i = inc[a_rng, c_rng]
        pats = [
            (an[:, None] & ac_e, "i"),
            (ai[:, None] & ac_n & (co | ci)[None, :], "ii"),
            (ao[:, None] & ac_e & cn[None, :], "iii"),
            (ao[:, None] & co[None, :] & ac_i, "iv"),
            (ai[:, None] & ci[None, :] & ac_o, "v"),
        ]
        for m, name in pats:
            if m.any():
                ai_, ci_ = map(int, np.argwhere(m)[0])
                return (name, order[ai_], order[bpos], order[ci_ + bpos + 1])
    return None


def verify_interval_ordering(L: LabelledGraph, order: list[int]) -> bool:
    return ordering_violation(L, order) is None
