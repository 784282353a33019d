"""Certifying recognition of circular-arc graphs."""

from .arcs import ArcRepresentation, expand_arcs
from .check import (AvoidWalkPair, Certificate, EdgeType, TypedGraph, avoids,
                    circular_pairs, classify_all, verify_negative, verify_positive)
from .edgetypes import complete
from .graph import Graph, ReductionTrace, build_graph, reduce
from .knotting import (KnottingGraph, bipartite_or_odd_cycle, build_knotting,
                       build_Z, extract_invertible_pair, overlap_side)
from .oracle import cross_check, enumerate_labelled_graphs, oracle_is_ca
from .recognizer import recognize

__all__ = [
    "ArcRepresentation", "AvoidWalkPair", "Certificate", "EdgeType", "Graph",
    "KnottingGraph", "ReductionTrace", "TypedGraph", "avoids",
    "bipartite_or_odd_cycle", "build_Z", "build_graph", "build_knotting",
    "circular_pairs", "classify_all", "complete", "cross_check",
    "enumerate_labelled_graphs", "expand_arcs", "extract_invertible_pair",
    "oracle_is_ca", "overlap_side", "recognize", "reduce",
    "verify_negative", "verify_positive",
]

__version__ = "0.1.0"
