"""End-to-end certifying recognition.

recognize() either produces an arc representation of the input or a pair
of mutually avoiding walks, anchored at a minimum-degree vertex of the
circular completion of the reduced input.  On the positive route the
Δ-forcing classes of the labelled graph on Z come off the bipartite
knotting graph when the anchor overlaps no vertex (``forcing_classes``),
and from ``delta.implication_classes`` otherwise.  Only the certificate is
checked, by the independent checker in ``check``; the stage checks run
only to name the failing stage.  A positive certificate gets
``positive_error``, a negative one ``negative_error``, as ``circarc
verify`` runs them: on the input and the certificate alone.  The stages
classify a piece once: ``complete`` derives its completion's
classification from the piece's.  So a positive run classifies once per
piece, and a negative run three times: G[S] in its stages, and G[S] and
its completion in the check.

A reduced graph G_r on two or more vertices is certified piece by piece.
If two or more of its components have two or more vertices, each such
component C gives the piece G_r[C + x], x the least vertex of G_r outside
C, and its isolated vertices are laid apart; otherwise G_r is the one
piece, with no x.  The pieces run every stage from ``classify_all`` on, by
|C|, then by least vertex, and the first that is not circular-arc gives
the certificate: S is its vertices, by input index in input order, and its
anchor, pair and walks index the completion of G[S].  If every piece is
circular-arc, each piece's arcs are turned so that x's right end, if it
has an x, is its circle's last slot, x is dropped, and the pieces, then
two slots per vertex laid apart, are laid side by side on one circle.
This is exact:

1. In an arc model of a graph with two or more components, no
   component's arcs cover the circle, for an arc of another component
   would meet one of them.  So every component is an interval graph, and
   interval models laid side by side on a circle model their union.
2. So G_r[C + x] is circular-arc exactly when C is an interval graph.  In
   its model x's arc meets no other, so once x's right end is the last
   slot no arc of C wraps, and the pieces laid side by side stay apart.
3. A piece is reduced, so ``classify_all`` does not refuse it: the closed
   neighbourhoods of C's vertices lie inside C, and x is isolated.
4. The checker accepts any vertex set S of G: induced subgraphs inherit
   circular-arc-ness.

The arcs go from ``lift_to_circle`` to ``expand_arcs`` as integer arrays
of (left, right) slots, one row per vertex: the layout fills one array
for G_r, whose ends ``expand_arcs`` ranks into the certificate's dict.  A run
keeps one record, ``_Run``: a dict of stage outputs for each piece, in
run order, on which a failure is diagnosed; the lift's stage check alone
reads its array as a dict.  Every G_r on two or more vertices has its
components labelled once, by ``graph.union_find``.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .arcs import ArcRepresentation, expand_arcs
from .check import (NEGATIVE, POSITIVE, Certificate, InternalError, circular_pairs,
                    classify_all, completion_error, negative_error, positive_error,
                    representation_error)
from .check import verify_negative, verify_positive  # re-exported under their old names
from .delta import (implication_classes, interval_orientation, labelled_from_typed,
                    ordering_violation)
from .edgetypes import complete
from .graph import Graph, reduce, union_find
from .intervals import _consistency_error, build_intervals, lift_to_circle
from .knotting import (bipartite_or_odd_cycle, build_knotting, build_Z,
                       extract_invertible_pair, forcing_classes, overlap_side)


class _Run(list):
    """One run's stage outputs: a dict by stage name for each piece, in run
    order.  .stage is the stage started last, of a piece or not."""
    stage = "recognize"

    def __call__(self, stage: str, fn, *args):
        self.stage = stage
        self[-1][stage] = out = fn(*args)
        return out


def _piece(P: Graph, S: list[int], run: _Run) -> Union[Certificate, tuple[int, np.ndarray]]:
    """The stages from classify_all on of a reduced graph P on two or more
    vertices, the input's G[S], each kept in a new piece dict of run: its
    negative certificate, unchecked, or the circle size and the (|H|, 2)
    array of arcs of its completion H, whose first rows are P's."""
    run.append({})
    T = run("classify_all", classify_all, P)
    H, partner = run("complete", complete, T)
    z = int(H.graph.adj.sum(axis=1).argmin())  # the first vertex of least degree
    K = run("build_knotting", build_knotting, H, z)
    res = run("bipartite_or_odd_cycle", bipartite_or_odd_cycle, K)
    if isinstance(res, list):
        awp = run("extract_invertible_pair", extract_invertible_pair, K, res)
        return Certificate(NEGATIVE, vertices=S, completion=H.graph, obstruction=awp)
    side = run("overlap_side", overlap_side, H, K, res, partner[z])
    zset = run("build_Z", build_Z, H, z, side, partner)
    L = run("labelled_from_typed", labelled_from_typed, H, zset)
    classes = run("forcing_classes", forcing_classes, K, res, zset, L)
    order = run("interval_orientation", interval_orientation, L, classes)
    ivals = run("build_intervals", build_intervals, L, order)
    return run("lift_to_circle", lift_to_circle, ivals, zset, partner)


def _pieces(G_r: Graph) -> tuple[list[tuple[np.ndarray, Optional[int]]], np.ndarray]:
    """The pieces of G_r, on two or more vertices, each as its sorted
    vertices and the position xi of its added vertex x among them, and the
    isolated vertices laid apart.  With two or more components of two or
    more vertices, a piece is such a component C plus the least vertex x
    outside it, by |C|, then by least vertex, and every isolated vertex is
    laid apart; otherwise G_r is the one piece, with no x."""
    n = G_r.n
    label = union_find(n, *np.nonzero(G_r.adj))  # each vertex's component's least member
    size = np.bincount(label, minlength=n)
    roots = np.flatnonzero(size >= 2)
    if roots.size < 2:
        return [(np.arange(n), None)], roots[:0]
    pieces = []
    for r in roots[np.argsort(size[roots], kind="stable")].tolist():
        x = int(np.argmax(label != r))
        vs = np.flatnonzero((label == r) | (np.arange(n) == x))
        pieces.append((vs, int(np.searchsorted(vs, x))))
    return pieces, np.flatnonzero(size[label] == 1)


def _certificate(G: Graph, run: _Run) -> Certificate:
    """G's certificate, unchecked.  Each piece of G's reduced graph runs its
    stages through run, in turn, and the first negative one gives the
    certificate; if none does, the pieces' arcs and the vertices laid apart
    share one circle."""
    run.stage = "reduce"
    G_r, trace = reduce(G)
    ends = np.tile([0, 1], (G_r.n, 1))
    if G_r.n >= 2:
        pieces, lone = _pieces(G_r)
        size = 0  # the slots the pieces before this one take
        for vs, xi in pieces:
            S = np.asarray(trace.survivors)[vs].tolist()
            out = _piece(G_r if xi is None else G_r.induced(vs), S, run)
            if isinstance(out, Certificate):
                return out
            m, own = out[0], out[1][:len(vs)]  # P's arcs, not its partners'
            if xi is not None:  # else P is all of G_r, alone on its circle
                # x meets no arc, so no arc wraps once x's right end is the
                # last slot; x is dropped and the piece moved past those before it
                turned = size + (own - own[xi, 1] - 1) % m
                own, vs = np.delete(turned, xi, axis=0), np.delete(vs, xi)
            ends[vs] = own
            size += m
        ends[lone] = size + np.arange(2 * lone.size).reshape(-1, 2)
    run.stage = "expand_arcs"
    return Certificate(POSITIVE, arcs=expand_arcs(trace, ends))


_STAGE_CHECKS = (
    ("complete", "completion check failed",
     lambda run: _completion_error(run["classify_all"], run["complete"])),
    ("forcing_classes", "classes differ from implication_classes",
     lambda run: _classes_error(run["labelled_from_typed"], run["forcing_classes"])),
    ("interval_orientation", "constructed order fails pattern check",
     lambda run: ordering_violation(run["labelled_from_typed"], run["interval_orientation"])),
    ("build_intervals", "built intervals inconsistent with labels",
     lambda run: _consistency_error(run["labelled_from_typed"], run["build_intervals"])),
    ("lift_to_circle", "lifted arcs fail verification",
     lambda run: representation_error(run["complete"][0].graph, ArcRepresentation(
         run["lift_to_circle"][0], dict(enumerate(run["lift_to_circle"][1].tolist()))))),
)


def _completion_error(T, out) -> Optional[str]:
    """The first field of complete's output that differs from
    ``classify_all`` of its graph and that classification's
    ``circular_pairs``, else ``completion_error``'s reason."""
    H, partner = out
    want = classify_all(H.graph)
    got = (H.contains, H.spanning, H.types, partner)
    ref = (want.contains, want.spanning, want.types, circular_pairs(want))
    return next((f"{name} differs" for name, a, b in
                 zip(("contains", "spanning", "types", "partner"), got, ref)
                 if not np.array_equal(a, b)), None) or completion_error(T, H)


def _classes_error(L, classes) -> Optional[str]:
    """The first field of classes that differs from ``implication_classes(L)``."""
    want = implication_classes(L)
    return next((f"{name} differs" for name, got, ref in zip(want._fields, classes, want)
                 if not np.array_equal(got, ref)), None)


def _reason(exc: Exception) -> str:
    return str(exc) if isinstance(exc, InternalError) else f"{type(exc).__name__}: {exc}"


def _diagnosis(run: _Run, reason: str) -> InternalError:
    """The error of a failed run: the first stage, by piece in run order,
    then in pipeline order, whose check (stage, reason prefix, check) in
    _STAGE_CHECKS rejects or raises on the piece's outputs, with its
    reason; if none, the stage started last, which raised or made the
    certificate, with reason."""
    for piece in run:
        for stage, prefix, check in _STAGE_CHECKS:
            if stage in piece:
                try:
                    err = check(piece)
                except MemoryError:
                    raise
                except Exception as exc:
                    return InternalError(f"{stage}: {_reason(exc)}")
                if err is not None:
                    return InternalError(f"{stage}: {prefix}: {err}")
    return InternalError(f"{run.stage}: {reason}")


def recognize(G: Graph) -> Certificate:
    """Decide circular-arc-ness of G with a verified certificate, or raise
    InternalError naming the failing stage (MemoryError passes through)."""
    run = _Run()
    try:
        cert = _certificate(G, run)
        err = (positive_error if cert.verdict == POSITIVE else negative_error)(G, cert)
        if err is not None:
            raise InternalError(f"emitted certificate invalid: {err}")
        return cert
    except MemoryError:
        raise
    except Exception as exc:
        raise _diagnosis(run, _reason(exc)) from exc
