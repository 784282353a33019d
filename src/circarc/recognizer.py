"""End-to-end certifying recognition.

recognize() either produces an arc representation of the input or a pair
of mutually avoiding walks, anchored at a minimum-degree vertex of the
circular completion of the reduced input.  Both certificate kinds are
checked by independent verifiers before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .arcs import ArcRepresentation, expand_arcs, representation_error
from .delta import DeltaInvertiblePair, interval_orientation, labelled_from_typed
from .edgetypes import (InternalError, TypedGraph, UnreducedGraphError,
                        classify_all, complete, completion_error)
from .graph import Graph, ReductionTrace, reduce
from .intervals import build_intervals, lift_to_circle
from .knotting import (AvoidWalkPair, bipartite_or_odd_cycle, build_knotting,
                       build_Z, extract_invertible_pair, overlap_side,
                       walk_pair_error)

POSITIVE = "CircularArc"
NEGATIVE = "NotCircularArc"


@dataclass
class Certificate:
    verdict: str
    arcs: Optional[ArcRepresentation] = None            # positive: for the input graph
    vertices: Optional[list[int]] = None                # negative: S, by input index
    completion: Optional[TypedGraph] = None             # negative: of G[S], as are
    pairing: Optional[dict[int, int]] = None            # the pairing and the walks
    obstruction: Optional[AvoidWalkPair] = None


def _negative(G: Graph, trace: ReductionTrace, H: TypedGraph,
              pairing: dict[int, int], awp: AvoidWalkPair) -> Certificate:
    cert = Certificate(NEGATIVE, vertices=trace.survivors, completion=H,
                       pairing=pairing, obstruction=awp)
    err = negative_error(G, cert)
    if err is not None:
        raise InternalError(f"emitted negative certificate invalid: {err}")
    return cert


def _positive(G: Graph, trace: ReductionTrace, reduced_rep: ArcRepresentation) -> Certificate:
    full = expand_arcs(trace, reduced_rep)
    cert = Certificate(POSITIVE, arcs=full)
    err = representation_error(G, full)
    if err is not None:
        raise InternalError(f"emitted positive certificate invalid: {err}")
    return cert


def recognize(G: Graph) -> Certificate:
    """Decide circular-arc-ness of G with a verified certificate."""
    G_r, trace = reduce(G)
    if G_r.n == 0:
        return _positive(G, trace, ArcRepresentation(4, {}))
    if G_r.n == 1:
        return _positive(G, trace, ArcRepresentation(4, {0: (0, 1)}))
    T = classify_all(G_r)
    H, pairing = complete(T)
    z = int(H.graph.adj.sum(axis=1).argmin())
    K = build_knotting(H, z)
    res = bipartite_or_odd_cycle(K)
    if isinstance(res, list):
        awp = extract_invertible_pair(H, K, res)
        return _negative(G, trace, H, pairing, awp)
    zset = build_Z(H, z, overlap_side(H, K, res, pairing[z]), pairing)
    L = labelled_from_typed(H, zset)
    try:
        order = interval_orientation(L)
    except DeltaInvertiblePair as exc:
        raise InternalError(
            "interval orientation failed although the knotting graph "
            f"is bipartite: {exc}") from exc
    ivals = build_intervals(L, order)
    arcs_h = lift_to_circle(ivals, zset, pairing, H)
    reduced_rep = ArcRepresentation(arcs_h.circle_size,
                                    {v: arcs_h.arcs[v] for v in range(G_r.n)})
    return _positive(G, trace, reduced_rep)


def positive_error(G: Graph, cert: Certificate) -> Optional[str]:
    if cert.verdict != POSITIVE:
        return "not a positive certificate"
    if cert.arcs is None:
        return "missing arcs"
    return representation_error(G, cert.arcs)


def verify_positive(G: Graph, cert: Certificate) -> bool:
    return positive_error(G, cert) is None


def negative_error(G: Graph, cert: Certificate) -> Optional[str]:
    """Check a negative certificate from first principles.

    The certificate names a vertex set S of G.  Induced subgraphs inherit
    circular-arc-ness, so an obstruction for G[S] condemns G, whichever S
    it is.  G[S] must be reduced, its completion is re-verified with types
    recomputed from adjacency alone, and the walks are checked stepwise.
    """
    if cert.verdict != NEGATIVE:
        return "not a negative certificate"
    if (cert.vertices is None or cert.completion is None
            or cert.pairing is None or cert.obstruction is None):
        return "missing negative payload"
    S = cert.vertices
    if not all(0 <= v < G.n for v in S):
        return "vertex set names a vertex outside the input"
    if len(set(S)) != len(S):
        return "vertex set repeats a vertex"
    try:
        Gt = classify_all(G.induced(S))
        Ht = classify_all(cert.completion.graph)
        err = completion_error(Gt, Ht, cert.pairing)
        if err is not None:
            return f"completion check failed: {err}"
        err = walk_pair_error(Ht, cert.obstruction)
        if err is not None:
            return f"walk check failed: {err}"
    except (ValueError, UnreducedGraphError, InternalError) as exc:
        return str(exc)
    return None


def verify_negative(G: Graph, cert: Certificate) -> bool:
    return negative_error(G, cert) is None
