"""End-to-end certifying recognition.

recognize() either produces an arc representation of the input or a pair
of mutually avoiding walks, anchored at a minimum-degree vertex of the
circular completion of the reduced input.  On the positive route the
Δ-forcing classes of the labelled graph on Z come off the bipartite
knotting graph when the anchor overlaps no vertex (``forcing_classes``),
and from ``delta.implication_classes`` otherwise.  Only the certificate is
checked, by the independent checker in ``check``; the stage checks run
only to name the failing stage.  A positive certificate gets
``positive_error``, a negative one ``negative_error``.  A negative
certificate carries the run's classification of the reduced graph, which
is G[S], as its ``reduced``, and ``negative_error`` is handed the
classified completion; it confirms both before it reads them, so a
negative run classifies twice.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .arcs import ArcRepresentation, expand_arcs
from .check import (NEGATIVE, POSITIVE, Certificate, InternalError, classify_all,
                    completion_error, negative_error, positive_error, representation_error)
from .check import verify_negative, verify_positive  # re-exported under their old names
from .delta import (implication_classes, interval_orientation, labelled_from_typed,
                    ordering_violation)
from .edgetypes import complete
from .graph import Graph, reduce
from .intervals import _consistency_error, build_intervals, lift_to_circle
from .knotting import (bipartite_or_odd_cycle, build_knotting, build_Z,
                       extract_invertible_pair, forcing_classes, overlap_side)


class _Run(dict):
    """One run's stage outputs by stage name; .stage is the stage started last."""
    stage = "recognize"

    def __call__(self, stage: str, fn, *args):
        self.stage = stage
        self[stage] = out = fn(*args)
        return out


def _certificate(G: Graph, run: _Run) -> Certificate:
    """G's certificate, unchecked, each stage run through run."""
    G_r, trace = run("reduce", reduce, G)
    if G_r.n <= 1:
        reduced_rep = ArcRepresentation(4, {v: (0, 1) for v in range(G_r.n)})
    else:
        T = run("classify_all", classify_all, G_r)
        H, partner = run("complete", complete, T)
        z = int(H.graph.adj.sum(axis=1).argmin())
        K = run("build_knotting", build_knotting, H, z)
        res = run("bipartite_or_odd_cycle", bipartite_or_odd_cycle, K)
        if isinstance(res, list):
            awp = run("extract_invertible_pair", extract_invertible_pair, K, res)
            return Certificate(NEGATIVE, vertices=trace.survivors, completion=H.graph,
                               obstruction=awp, reduced=T)
        side = run("overlap_side", overlap_side, H, K, res, partner[z])
        zset = run("build_Z", build_Z, H, z, side, partner)
        L = run("labelled_from_typed", labelled_from_typed, H, zset)
        classes = run("forcing_classes", forcing_classes, K, res, zset, L)
        order = run("interval_orientation", interval_orientation, L, classes)
        ivals = run("build_intervals", build_intervals, L, order)
        arcs_h = run("lift_to_circle", lift_to_circle, ivals, zset, partner)
        reduced_rep = ArcRepresentation(arcs_h.circle_size,
                                        {v: arcs_h.arcs[v] for v in range(G_r.n)})
    return Certificate(POSITIVE, arcs=run("expand_arcs", expand_arcs, trace, reduced_rep))


_STAGE_CHECKS = (
    ("complete", "completion check failed",
     lambda run: completion_error(run["classify_all"], run["complete"][0])),
    ("forcing_classes", "classes differ from implication_classes",
     lambda run: _classes_error(run["labelled_from_typed"], run["forcing_classes"])),
    ("interval_orientation", "constructed order fails pattern check",
     lambda run: ordering_violation(run["labelled_from_typed"], run["interval_orientation"])),
    ("build_intervals", "built intervals inconsistent with labels",
     lambda run: _consistency_error(run["labelled_from_typed"], run["build_intervals"])),
    ("lift_to_circle", "lifted arcs fail verification",
     lambda run: representation_error(run["complete"][0].graph, run["lift_to_circle"])),
)


def _classes_error(L, classes) -> Optional[str]:
    """The first field of classes that differs from ``implication_classes(L)``."""
    want = implication_classes(L)
    return next((f"{name} differs" for name, got, ref in zip(want._fields, classes, want)
                 if not np.array_equal(got, ref)), None)


def _reason(exc: Exception) -> str:
    return str(exc) if isinstance(exc, InternalError) else f"{type(exc).__name__}: {exc}"


def _diagnosis(run: _Run, reason: str) -> InternalError:
    """The error of a failed run: the first stage, in pipeline order, whose
    check (stage, reason prefix, check) in _STAGE_CHECKS rejects or raises
    on the outputs run recorded, with its reason; if none, the stage started
    last, which raised or made the certificate, with reason."""
    for stage, prefix, check in _STAGE_CHECKS:
        if stage in run:
            try:
                err = check(run)
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
        if cert.verdict == POSITIVE:
            err = positive_error(G, cert)
        else:
            err = negative_error(G, cert, run["complete"][0])
        if err is not None:
            raise InternalError(f"emitted certificate invalid: {err}")
        return cert
    except MemoryError:
        raise
    except Exception as exc:
        raise _diagnosis(run, _reason(exc)) from exc
