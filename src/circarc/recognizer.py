"""End-to-end certifying recognition.

recognize() either produces an arc representation of the input or a pair
of mutually avoiding walks, anchored at a minimum-degree vertex of the
circular completion of the reduced input.  Both certificate kinds are
checked by the independent checker in ``check`` before being returned.
"""

from __future__ import annotations

from .arcs import ArcRepresentation, expand_arcs
from .check import (NEGATIVE, POSITIVE, Certificate, InternalError, classify_all,
                    negative_error, positive_error)
from .check import verify_negative, verify_positive  # re-exported under their old names
from .delta import DeltaInvertiblePair, interval_orientation, labelled_from_typed
from .edgetypes import complete
from .graph import Graph, ReductionTrace, reduce
from .intervals import build_intervals, lift_to_circle
from .knotting import (bipartite_or_odd_cycle, build_knotting, build_Z,
                       extract_invertible_pair, overlap_side)


def _checked(G: Graph, cert: Certificate) -> Certificate:
    """cert, once the checker accepts it for G."""
    err = (positive_error if cert.verdict == POSITIVE else negative_error)(G, cert)
    if err is not None:
        raise InternalError(f"emitted certificate invalid: {err}")
    return cert


def _positive(G: Graph, trace: ReductionTrace, reduced_rep: ArcRepresentation) -> Certificate:
    return _checked(G, Certificate(POSITIVE, arcs=expand_arcs(trace, reduced_rep)))


def recognize(G: Graph) -> Certificate:
    """Decide circular-arc-ness of G with a verified certificate."""
    G_r, trace = reduce(G)
    if G_r.n == 0:
        return _positive(G, trace, ArcRepresentation(4, {}))
    if G_r.n == 1:
        return _positive(G, trace, ArcRepresentation(4, {0: (0, 1)}))
    T = classify_all(G_r)
    H, partner = complete(T)
    z = int(H.graph.adj.sum(axis=1).argmin())
    K = build_knotting(H, z)
    res = bipartite_or_odd_cycle(K)
    if isinstance(res, list):
        awp = extract_invertible_pair(K, res)
        return _checked(G, Certificate(NEGATIVE, vertices=trace.survivors, completion=H.graph,
                                       obstruction=awp))
    zset = build_Z(H, z, overlap_side(H, K, res, partner[z]), partner)
    L = labelled_from_typed(H, zset)
    try:
        order = interval_orientation(L)
    except DeltaInvertiblePair as exc:
        raise InternalError(
            "interval orientation failed although the knotting graph "
            f"is bipartite: {exc}") from exc
    ivals = build_intervals(L, order)
    arcs_h = lift_to_circle(ivals, zset, partner, H)
    reduced_rep = ArcRepresentation(arcs_h.circle_size,
                                    {v: arcs_h.arcs[v] for v in range(G_r.n)})
    return _positive(G, trace, reduced_rep)
