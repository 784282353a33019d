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
from functools import lru_cache, partial
import itertools
from typing import Callable, Optional

import numpy as np

from .edgetypes import EdgeType, InternalError, TypedGraph, avoiding
from .graph import bfs, components, tree_path

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
    avoid_at: Callable[[int], np.ndarray]  # z -> the label-avoidance matrix at z
    _parent: dict[Pair, Optional[Pair]] = field(default_factory=dict, init=False,
                                                repr=False)

    def chain(self, p: Pair, q: Pair) -> list[Pair]:
        """Forcing chain from p to q inside their common class.

        The first chain asked of a class grows its breadth-first tree from
        the class's least pair; the chain runs through their common ancestor.
        """
        if self.class_of[p] != self.class_of[q]:
            raise ValueError(f"{p} and {q} lie in different classes")
        if p not in self._parent:
            bfs(self._parent, min(self.classes[self.class_of[p]].pairs), self._forced)
        return tree_path(self._parent, p, q)

    def _forced(self, p: Pair) -> list[Pair]:
        # (a,b) -> (c,b) when edge ac avoids b; -> (a,c) when bc avoids a
        a, b = p
        return ([(c, b) for c in np.flatnonzero(self.avoid_at(b)[a]).tolist()]
                + [(a, c) for c in np.flatnonzero(self.avoid_at(a)[b]).tolist()])


def span(c: PairClass) -> frozenset[int]:
    return frozenset(itertools.chain.from_iterable(c.pairs))


def _merge(n: int, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Least member of each component of the union of two partitions of 0..n-1.

    first[i] and second[i] name a member of i's block in each partition.
    Union-find over arrays: every root hooks to the least root it meets
    through either partition, then pointers jump until each points at its
    root; the least member is the root, as pointers only ever go down.
    """
    src = np.concatenate([np.arange(n), np.arange(n)])
    dst = np.concatenate([first, second])
    f = np.minimum(np.arange(n), np.minimum(first, second))
    while True:
        while True:
            jumped = f[f]
            if np.array_equal(jumped, f):
                break
            f = jumped
        fs, fd = f[src], f[dst]
        if np.array_equal(fs, fd):
            return f
        np.minimum.at(f, fs, fd)
        np.minimum.at(f, fd, fs)


def implication_classes(L: LabelledGraph) -> DeltaClasses:
    """Partition the ordered Overlap/NonEdge pairs into forcing classes.

    A step (a,b) -> (c,b) needs the edge ac to avoid b, and (a,b) -> (a,c)
    needs bc to avoid a, so each kind of step stays inside one anchor's
    avoidance matrix.  Labelling the components of that matrix once per
    anchor z gives two partitions of the pairs: the pairs (x, z) joined by
    the first kind of step, and the pairs (z, x) joined by the second.  The
    classes are the components of the two together, found by an array
    union-find over the pair ids a*n + b, and are numbered by least pair.
    """
    n = L.n
    avoid_at = partial(avoiding, L.labels != Label.NONEDGE,
                       L.labels == Label.OVERLAP, L.labels == Label.INCLUSION)
    # lab[z, x]: least vertex of x's component in the matrix at z, n when the
    # loop at x does not avoid z, that is when (x, z) is not an active pair
    lab = np.empty((n, n), dtype=np.intp)
    for z in range(n):
        lab[z] = components(avoid_at(z))
    a, b = np.nonzero(lab.T < n)  # the active pairs, in lexicographic order
    rank = np.full((n, n), -1, dtype=np.intp)
    rank[a, b] = np.arange(a.size)
    # ranks keep the pair order, so the least rank is the least pair
    least = _merge(a.size, rank[lab[b, a], b], rank[a, lab[a, b]])
    roots, cid = np.unique(least, return_inverse=True)
    cid = cid.reshape(-1)
    pairs = list(zip(a.tolist(), b.tolist()))
    class_of = dict(zip(pairs, cid.tolist()))
    by_class = [pairs[i] for i in np.argsort(cid, kind="stable").tolist()]
    ends = np.cumsum(np.bincount(cid, minlength=roots.size)).tolist()
    inverse = cid[rank[b[roots], a[roots]]].tolist()
    classes = [PairClass(k, frozenset(by_class[start:end]), inverse[k])
               for k, (start, end) in enumerate(zip([0] + ends, ends))]
    # chain searches revisit anchors; a bounded cache keeps that O(n^2) too
    return DeltaClasses(classes, class_of, lru_cache(maxsize=64)(avoid_at))


def _order_vertices(L: LabelledGraph) -> list[int]:
    n = L.n
    if n <= 1:
        return list(range(n))
    cls = implication_classes(L)
    for c in cls.classes:
        if c.inverse_id == c.id:
            pair = min(c.pairs)
            raise DeltaInvertiblePair(pair, cls.chain(pair, (pair[1], pair[0])))
    spans = [span(c) for c in cls.classes]
    # classes are numbered by least pair: the least id breaks ties in size
    proper = [(len(s), k) for k, s in enumerate(spans) if len(s) < n]
    if proper:
        return _splice_module(L, sorted(spans[min(proper)[1]]))
    rel = np.zeros((n, n), dtype=bool)
    if cls.classes:
        # every class spans all vertices: a single class and its inverse remain
        if len(cls.classes) != 2 or cls.classes[0].inverse_id != 1:
            raise InternalError("expected exactly one spanning class up to reversal")
        a, b = np.array(list(cls.classes[0].pairs)).T  # the class of the least pair
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
