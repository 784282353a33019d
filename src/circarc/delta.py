"""Forcing machinery on edge-labelled graphs.

A labelled graph carries a {NonEdge, Overlap, Inclusion} label per vertex
pair plus a transitive orientation of its inclusion edges.  The labels are
data: they may come from an ambient graph and need not agree with the
neighborhoods of the labelled graph itself, but ``interval_orientation``
needs each Inclusion label to hold as containment, in its direction, in
the edge graph (the pairs not labelled NonEdge); ``labelled_from_typed``
meets this, since containment restricts to a vertex subset.

Ordered pairs with Overlap or NonEdge labels force each other: (x,z) and
(y,z) must orient the same way whenever the edge xy avoids z.  The
connected classes of this relation, computed once, either name a pair
forced onto its reversal or build an interval ordering through a stack of
modules (vertex sets seen uniformly from outside), each reading the classes
restricted to it.  ``implication_classes`` labels them from the labels
alone; the recognizer reads the same classes off its knotting graph
(``knotting.forcing_classes``) where it can, and falls back to
``implication_classes`` elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Optional

import numpy as np

from .check import InternalError, TypedGraph
from .edgetypes import avoiding_labels
from .graph import disjoint_rows, pack_rows, sorted_unique, union_find

Pair = tuple[int, int]


class Label(IntEnum):
    NONEDGE = 0
    OVERLAP = 1
    INCLUSION = 2


class DeltaInvertiblePair(Exception):
    """A pair is forced onto its own reversal; no interval ordering exists."""

    def __init__(self, pair: Pair):
        super().__init__(f"pair {pair} is forced onto its own reversal")
        self.pair = pair


@dataclass(frozen=True)
class LabelledGraph:
    n: int
    labels: np.ndarray  # int8 (n, n), symmetric, diagonal INCLUSION
    inside: np.ndarray  # bool (n, n); inside[u,v]: v's interval must sit inside u's

    def __post_init__(self):
        lb, ins = self.labels, self.inside
        if not np.array_equal(lb, lb.T):
            raise ValueError("labels must be symmetric")
        # plain ints: numpy compares with an IntEnum member several times slower
        if self.n and not (lb.diagonal() == Label.INCLUSION.value).all():
            raise ValueError("loops must be labelled inclusion")
        incl = (lb == Label.INCLUSION.value) & ~np.eye(self.n, dtype=bool)
        if not np.array_equal(incl, ins | ins.T):
            raise ValueError("orientation must cover exactly the inclusion edges")
        if (ins & ins.T).any():
            raise ValueError("orientation must be antisymmetric")
        via = ~disjoint_rows(ins, ins.T)
        if (via & ~ins).any():
            raise ValueError("orientation must be transitive")


def labelled_from_typed(T: TypedGraph, vertices: list[int]) -> LabelledGraph:
    """Restrict a typed graph to a vertex subset, keeping the ambient types.

    Rows, then columns, as in ``Graph.induced``.  One table lookup collapses
    1-overlap and 2-overlap to Overlap; inside is the ambient closed-
    neighborhood containment off the diagonal, which LabelledGraph checks
    orients exactly the inclusion edges.
    """
    idx = np.array(vertices, dtype=np.intp)
    table = np.array([Label.NONEDGE, Label.OVERLAP, Label.OVERLAP, Label.INCLUSION], np.int8)
    labels = table[T.types[idx][:, idx]]  # indexed by EdgeType
    inside = T.contains[idx][:, idx]
    np.fill_diagonal(inside, False)
    return LabelledGraph(len(idx), labels, inside)


class DeltaClasses(NamedTuple):
    """The forcing classes of the active (Overlap or NonEdge) ordered pairs.

    The active pairs are (a[i], b[i]) in lexicographic order; cid[i] is the
    class of pair i, classes numbered by least pair; inverse[k] is the class
    that holds the reversals of class k's pairs.
    """
    a: np.ndarray
    b: np.ndarray
    cid: np.ndarray
    inverse: np.ndarray


def implication_classes(L: LabelledGraph) -> DeltaClasses:
    """Partition the ordered Overlap/NonEdge pairs into forcing classes.

    A step (a,b) -> (c,b) needs the edge ac to avoid b, and (a,b) -> (a,c)
    needs bc to avoid a, so each kind of step stays inside one anchor's
    avoidance matrix.  Labelling the components of those matrices
    (``edgetypes.avoiding_labels``) gives two partitions of the pairs into
    blocks: the pairs (x, b) joined by the first kind of step, and the
    pairs (a, y) joined by the second, each block rooted at its least
    pair.  The classes are the components of the two together:
    ``graph.union_find`` over one edge per pair, joining the roots of its
    two blocks.  A class's least pair roots its own block at b, so it is
    the least member of the roots' component, and the classes are numbered
    by least pair with a running count of those roots.  Pairs (a, b) are
    read through flat indices a * n + b.
    """
    n = L.n
    # lab[z, x]: least vertex of x's component in the matrix at z, n when the
    # loop at x does not avoid z, that is when (x, z) is not an active pair;
    # an active pair's reversal is active, so lab < n is symmetric
    lab = avoiding_labels(pack_rows(L.labels != Label.NONEDGE.value),
                          pack_rows(L.labels == Label.OVERLAP.value),
                          pack_rows(L.labels == Label.INCLUSION.value), np.arange(n)).reshape(-1)
    a, b = np.divmod(np.flatnonzero(lab < n), n)  # the active pairs, in lexicographic order
    rank = np.full(n * n, -1, dtype=np.intp)
    rank[a * n + b] = np.arange(a.size)
    # ranks keep the pair order, so the least rank is the least pair; each
    # pair joins its block's root at b, (lab[b, a], b), to its root at a, (a, lab[a, b])
    src = rank[lab[b * n + a] * n + b]
    least = union_find(a.size, src, rank[a * n + lab[a * n + b]])[src]
    root = least == np.arange(a.size)
    cid = (np.cumsum(root) - 1)[least]
    return DeltaClasses(a, b, cid, cid[rank[b[root] * n + a[root]]])


def interval_orientation(L: LabelledGraph,
                         classes: Optional[DeltaClasses] = None) -> list[int]:
    """Construct an interval ordering, or fail with DeltaInvertiblePair.

    The order is not checked here (see ``ordering_violation``), and it may
    fail that check off the module's precondition on L.  It comes
    from a loop over a stack of sorted vertex sets of L.  The forcing
    classes are ``implication_classes(L)``, or classes equal to them given
    by the caller, computed once, on L: as in modular decomposition, a
    module's or a quotient's classes are the whole graph's restricted to
    it, ranked by their least pair there.  A set is read through a
    membership mask, its class spans keyed by class, then vertex, so each
    class's size is the length of its run of sorted keys; a set whose
    narrowest proper class (the first in rank among equal sizes, found
    through a mask over the classes) spans a module M pushes M, then the
    quotient that keeps only M's least vertex, read off the membership
    mask, so the quotient's subtree is ordered first.  A set with only a spanning
    class, the class of its least pair, gives its p-th vertex in the
    class's tournament, ranked by out-degrees counted off its pairs and
    inside, the key of its least vertex extended by p.  These
    are preorder keys: one sort splices each module into the slot of its
    least vertex.  A module of one vertex, which only a fault can give,
    raises InternalError, so every set pushed is smaller than the set popped.
    """
    a, b, cid, inverse = implication_classes(L) if classes is None else classes
    self_inverse = np.flatnonzero(inverse[cid] == cid)
    if self_inverse.size:
        i = self_inverse[0]  # the least pair of the least self-inverse class
        raise DeltaInvertiblePair((int(a[i]), int(b[i])))
    n = L.n
    key: list[tuple[int, ...]] = [()] * n
    held = np.zeros(n, dtype=bool)  # the popped set
    narrow = np.zeros(inverse.size, dtype=bool)  # the narrowest proper classes
    # a class spans two vertices, so no set pushed below has fewer
    stack = [np.arange(n)] if n > 1 else []
    while stack:
        vs = stack.pop()
        held[vs] = True
        keep = np.flatnonzero(held[a] & held[b])
        c = cid[keep]  # the kept pairs stay in lexicographic order
        # span members as keys c*n + v, sorted by class and then by vertex
        members = sorted_unique(np.concatenate([c * n + a[keep], c * n + b[keep]]))
        cls = members // n
        starts = np.flatnonzero(np.diff(cls, prepend=-1))  # each class's run
        classes, size = cls[starts], np.diff(starts, append=cls.size)
        proper = size < vs.size
        if proper.any():
            # of the narrowest proper classes, the one with the least pair in vs
            narrow[classes[proper & (size == size[proper].min())]] = True
            narrowest = c[narrow[c].argmax()]
            narrow[classes] = False
            module = members[cls == narrowest] % n
            if module.size < 2:
                raise InternalError(f"class {narrowest} spans one vertex, {module[0]}")
            held[module[1:]] = False
            quotient = vs[held[vs]]
            held[vs] = False
            stack += [module, quotient]
            continue
        # every class spans vs, so one class and its inverse remain; the
        # least pair's class and 'inside' make a transitive tournament, and
        # its active pairs are never inclusion pairs, so out-degrees add;
        # with no classes every pair is inclusion-labelled
        out = L.inside[vs].sum(axis=1, where=held)
        held[vs] = False
        if classes.size:
            out += np.bincount(a[keep[c == c[0]]], minlength=n)[vs]
        head = key[vs[0]]
        for p, u in enumerate(vs[np.argsort(-out, kind="stable")].tolist()):
            key[u] = head + (p,)
    return sorted(range(n), key=key.__getitem__)


def ordering_violation(L: LabelledGraph, order: list[int]) -> Optional[tuple]:
    """First forbidden triple (pattern, a, b, c) of a candidate interval ordering.

    With a < b < c in the order, the patterns are, as labels of (a, b),
    (b, c) and (a, c):
      i    non-edge, any,        edge
      ii   inclusion, edge,      non-edge
      iii  overlap, non-edge,    edge
      iv   overlap, overlap,     inclusion
      v    inclusion, inclusion, overlap
    where an edge is an overlap or an inclusion.  Each pattern is one 0/1
    product over the middle b, masked by the (a, c) label.  "First" means
    the first pattern that occurs, then its first (a, c) in row order by
    position, then the least b between them.
    """
    n = L.n
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the vertices")
    idx = np.array(order, dtype=np.intp)
    lab = L.labels[idx][:, idx]
    # rows and columns by position; the diagonal drops out of every triu
    non = np.triu(lab == Label.NONEDGE.value, 1)
    ov = np.triu(lab == Label.OVERLAP.value, 1)
    inc = np.triu(lab == Label.INCLUSION.value, 1)
    edge = ov | inc
    pats = [
        ("i", non, np.triu(np.ones((n, n), dtype=bool), 1), edge),
        ("ii", inc, edge, non),
        ("iii", ov, non, edge),
        ("iv", ov, ov, inc),
        ("v", inc, inc, ov),
    ]
    for name, ab, bc, ac in pats:
        # some b has ab[a, b] and bc[b, c]; both are above the diagonal,
        # so a < b < c
        hit = ac & ~disjoint_rows(ab, bc.T)
        if hit.any():
            a, c = map(int, np.argwhere(hit)[0])
            b = int(np.argmax(ab[a] & bc[:, c]))
            return (name, order[a], order[b], order[c])
    return None


def verify_interval_ordering(L: LabelledGraph, order: list[int]) -> bool:
    return ordering_violation(L, order) is None
