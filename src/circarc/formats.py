"""Text formats: edge lists, graph6, and certificate documents.

Certificate documents are JSON with format tag "ca-cert/3".  Serialization
is canonical (sorted keys, fixed separators) so identical certificates are
byte-identical on disk.

A document binds its input graph G by ``{"n": n, "sha256": graph_digest(G)}``,
the SHA-256 of the compact JSON text ``[names, graph6]``; graph6 is written
as ``networkx.to_graph6_bytes(g, header=False)`` writes it, less the final
newline (``check.graph_digest``).  Beyond that a document holds only what
its checker reads.  A positive one holds the arcs of every input vertex.
A negative one holds a vertex set S, named in input order (the
reduction's survivors), and the anchor, the pair and the two walks, named
in the circular completion of G[S].  The reader classifies G[S], which
it must do to rebuild the completion with the untrusted
``edgetypes.completion_graph``, and checks nothing of either.  It hands
that classification, ``classify_all``'s output, on as the certificate's
``reduced``.  ``check.negative_error`` reuses it only once it confirms
that its arrays are still read-only and its graph has G[S]'s names and
adjacency; it classifies the completion from its adjacency and checks
it before it checks the walks.  So a negative parse plus verify
classifies twice.  "ca-cert/1" and "ca-cert/2" documents, which carried
the reduction trace, are no longer read.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .arcs import ArcRepresentation
from .check import (G6_MAX_N, NEGATIVE, POSITIVE, AvoidWalkPair, Certificate,
                    InternalError, classify_all, graph_digest)
from .check import write_graph6  # re-exported: the writer graph_digest relies on
from .edgetypes import completion_graph
from .graph import Graph, GraphError, build_graph

FORMAT_TAG = "ca-cert/3"


class FormatError(ValueError):
    pass


def parse_edge_list(text: str) -> Graph:
    """Vertices named by first appearance; '#' starts a comment."""
    names: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []

    def vertex(tok: str) -> int:
        if tok not in index:
            index[tok] = len(names)
            names.append(tok)
        return index[tok]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            vertex(parts[0])  # isolated vertex declaration
            continue
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected two vertex tokens")
        u, v = vertex(parts[0]), vertex(parts[1])
        if u == v:
            raise FormatError(f"line {lineno}: loops are implicit, {parts[0]!r} repeated")
        edges.append((u, v))
    return build_graph(len(names), edges, names)


def parse_graph6(line: str) -> Graph:
    """graph6, short form (n <= 62) or long form ('~' header, n <= 258047)."""
    data = line.strip()
    if not data:
        raise FormatError("empty graph6 input")
    codes = np.frombuffer(data.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    bad = np.flatnonzero((codes < 63) | (codes > 126))
    if bad.size:
        raise FormatError(f"byte {codes[bad[0]]} outside graph6 range")
    vals = codes.astype(np.uint8) - 63
    n, head = int(vals[0]), 1
    if n == 63:  # long form: three more 6-bit bytes of n
        if vals.size < 4:
            raise FormatError("graph6 header is cut short")
        if vals[1] == 63:
            raise FormatError(f"graph6 handles at most {G6_MAX_N} vertices here")
        n, head = int(vals[1]) << 12 | int(vals[2]) << 6 | int(vals[3]), 4
    k = n * (n - 1) // 2
    if vals.size - head != (k + 5) // 6:
        raise FormatError("graph6 bit stream has the wrong length")
    bits = np.unpackbits(vals[head:, None], axis=1)[:, 2:].reshape(-1)
    if bits[k:].any():
        raise FormatError("nonzero padding bits")
    adj = np.zeros((n, n), dtype=bool)
    adj[np.tril_indices(n, -1)] = bits[:k]
    return Graph(n, adj | adj.T, tuple(map(str, range(n))))


def write_edge_list(G: Graph) -> str:
    """Each vertex on a line of its own, then the edges: parses back as G."""
    edges = [f"{G.names[u]} {G.names[v]}" for u, v in G.edges()]
    return "\n".join([*G.names, *edges]) + "\n"


def _vertex(index: dict[str, int], name: Any) -> int:
    """Index of the input vertex called name; GraphError, as from
    Graph.index_of, when there is none."""
    try:
        return index[name]
    except (KeyError, TypeError):
        raise GraphError(f"unknown vertex name: {name!r}") from None


def certificate_to_doc(G: Graph, cert: Certificate) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "format": FORMAT_TAG,
        "input": {"n": G.n, "sha256": graph_digest(G)},
        "verdict": cert.verdict,
    }
    if cert.verdict == POSITIVE:
        doc["positive"] = {
            "circle_size": cert.arcs.circle_size,
            "arcs": {G.names[v]: list(lr) for v, lr in sorted(cert.arcs.arcs.items())},
        }
    else:
        names = cert.completion.names
        awp = cert.obstruction
        doc["negative"] = {
            "vertices": [G.names[v] for v in cert.vertices],
            "anchor": names[awp.anchor],
            "pair": [names[awp.pair[0]], names[awp.pair[1]]],
            "walk_p": [names[v] for v in awp.walk_p],
            "walk_q": [names[v] for v in awp.walk_q],
        }
    return doc


def _vertices(index: dict[str, int], names: Any, what: str) -> list[int]:
    if not isinstance(names, list):
        raise FormatError(f"{what} must be a list of vertex names")
    return [_vertex(index, name) for name in names]


def certificate_from_doc(G: Graph, doc: dict[str, Any]) -> Certificate:
    """Rebuild a certificate against G, checking that it was issued for G.

    A negative certificate names a vertex set S of G, then vertices of the
    circular completion of G[S], which is rebuilt here from
    ``classify_all(G[S])``; that classification becomes the certificate's
    ``reduced``, and negative_error checks the completion from first
    principles like any other, on it once it has confirmed it.
    """
    tag = doc.get("format")
    if tag in ("ca-cert/1", "ca-cert/2"):
        raise FormatError(f"{tag} certificates are no longer read; re-run "
                          f"`circarc recognize` to issue a {FORMAT_TAG} one")
    if tag != FORMAT_TAG:
        raise FormatError("unknown certificate format tag")
    binding = doc["input"]
    if binding["n"] != G.n or binding["sha256"] != graph_digest(G):
        raise FormatError("certificate was issued for a different graph")
    index = {name: i for i, name in enumerate(G.names)}
    verdict = doc["verdict"]
    if verdict == POSITIVE:
        pos = doc["positive"]
        if type(pos["circle_size"]) is not int:  # JSON integers; bool is not one
            raise FormatError("circle_size must be an integer")
        arcs = {}
        # in document order, each item's arc before its name
        for name, lr in pos["arcs"].items():
            if not (type(lr) is list and len(lr) == 2
                    and type(lr[0]) is int and type(lr[1]) is int):
                raise FormatError(f"arc of {name!r} must be a pair of integers")
            arcs[_vertex(index, name)] = (lr[0], lr[1])
        return Certificate(POSITIVE, arcs=ArcRepresentation(pos["circle_size"], arcs))
    if verdict != NEGATIVE:
        raise FormatError(f"unknown verdict {verdict!r}")
    neg = doc["negative"]
    S = _vertices(index, neg["vertices"], "vertices")
    if len(set(S)) != len(S):
        raise FormatError("vertices must name each vertex once")
    Gt = classify_all(G.induced(S))
    H = completion_graph(Gt)
    h_index = {name: i for i, name in enumerate(H.names)}
    pair = _vertices(h_index, neg["pair"], "pair")
    if len(pair) != 2:
        raise FormatError("pair must name two vertices")
    awp = AvoidWalkPair(_vertex(h_index, neg["anchor"]), (pair[0], pair[1]),
                        _vertices(h_index, neg["walk_p"], "walk_p"),
                        _vertices(h_index, neg["walk_q"], "walk_q"))
    return Certificate(NEGATIVE, vertices=S, completion=H, obstruction=awp, reduced=Gt)


def serialize_certificate(G: Graph, cert: Certificate) -> str:
    return json.dumps(certificate_to_doc(G, cert), sort_keys=True,
                      separators=(",", ":")) + "\n"


def parse_certificate(G: Graph, text: str) -> Certificate:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from exc
    try:
        return certificate_from_doc(G, doc)
    except FormatError:
        raise
    except (KeyError, TypeError, AttributeError, IndexError,
            ValueError, InternalError) as exc:
        raise FormatError(f"malformed certificate document: {exc}") from exc
