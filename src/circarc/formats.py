"""Text formats: edge lists, graph6, and certificate documents.

Certificate documents are JSON with format tag "ca-cert/4".  Serialization
is canonical (sorted keys, fixed separators) so identical certificates are
byte-identical on disk.

A document binds its input graph G by ``{"n": n, "sha256": graph_digest(G)}``,
the SHA-256 of the compact JSON text ``[names, graph6]``; graph6 is written
as ``networkx.to_graph6_bytes(g, header=False)`` writes it, less the final
newline (``check.graph_digest``).  The binding fixes G's names, so a
document names every vertex by its index, a JSON integer: position i
stands for ``names[i]``.  Beyond that a document holds only what its
checker reads.  A positive one holds ``arcs``, a flat list of 2n integers
in input vertex order: vertex v's arc is ``(arcs[2v], arcs[2v+1])``, on a
circle of ``circle_size`` slots.  The recognizer writes a compact circle,
2n slots, one per endpoint; the reader and the checker accept any size.  A
negative one holds a vertex set S, as input indices in input order, and
the anchor, the pair and the two walks, as indices into the circular
completion of G[S] in the order that ``edgetypes.completion_graph`` gives
it: G[S]'s vertices first, then the added ones.  S is the reduction's
survivors, or, when the reduced graph splits, the survivors of one
piece: a component plus one vertex outside it (``recognizer``).

The reader takes a list only if every entry is a JSON integer (``bool`` is
not one), the arcs only if there are 2n of them, and S only if every entry
indexes G, which it checks before ``Graph.induced`` reads S.  The ranges of
the anchor, the pair and the walks are ``check.walk_pair_error``'s to check.
The reader classifies G[S], which it must do to rebuild the completion
with the untrusted ``edgetypes.completion_graph``, and checks nothing of
either.  ``check.negative_error`` classifies G[S] again, and the
completion, from their adjacency, and checks the completion before it
checks the walks.  So a negative parse plus verify runs ``classify_all``
three times.  "ca-cert/1" and "ca-cert/2" documents, which carried the
reduction trace, and "ca-cert/3" ones, which named vertices by name, are
no longer read.
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
from .graph import Graph, build_graph

FORMAT_TAG = "ca-cert/4"


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


def certificate_to_doc(G: Graph, cert: Certificate) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "format": FORMAT_TAG,
        "input": {"n": G.n, "sha256": graph_digest(G)},
        "verdict": cert.verdict,
    }
    if cert.verdict == POSITIVE:
        arcs = cert.arcs.arcs
        doc["positive"] = {
            "circle_size": cert.arcs.circle_size,
            "arcs": [end for v in range(G.n) for end in arcs[v]],
        }
    else:
        awp = cert.obstruction
        doc["negative"] = {
            "vertices": list(cert.vertices),
            "anchor": awp.anchor,
            "pair": list(awp.pair),
            "walk_p": list(awp.walk_p),
            "walk_q": list(awp.walk_q),
        }
    return doc


def _integers(values: Any, what: str) -> list[int]:
    """values, if it is a list of JSON integers; otherwise FormatError,
    naming the first entry that is not one."""
    if type(values) is not list:
        raise FormatError(f"{what} must be a list of integers")
    if not {*map(type, values)} <= {int}:  # bool is no JSON integer
        i = next(i for i, x in enumerate(values) if type(x) is not int)
        raise FormatError(f"{what}[{i}] must be an integer, not {values[i]!r}")
    return values


def certificate_from_doc(G: Graph, doc: dict[str, Any]) -> Certificate:
    """Rebuild a certificate against G, checking that it was issued for G.

    A negative certificate gives a vertex set S of G by index, then
    vertices of the circular completion of G[S] by index, which is rebuilt
    here from ``classify_all(G[S])``; negative_error checks the completion
    from first principles like any other.
    """
    tag = doc.get("format")
    if tag in ("ca-cert/1", "ca-cert/2", "ca-cert/3"):
        raise FormatError(f"{tag} certificates are no longer read; re-run "
                          f"`circarc recognize` to issue a {FORMAT_TAG} one")
    if tag != FORMAT_TAG:
        raise FormatError("unknown certificate format tag")
    binding = doc["input"]
    if binding["n"] != G.n or binding["sha256"] != graph_digest(G):
        raise FormatError("certificate was issued for a different graph")
    verdict = doc["verdict"]
    if verdict == POSITIVE:
        pos = doc["positive"]
        if type(pos["circle_size"]) is not int:  # JSON integers; bool is not one
            raise FormatError("circle_size must be an integer")
        ends = _integers(pos["arcs"], "arcs")
        if len(ends) != 2 * G.n:
            raise FormatError(f"arcs must hold 2n = {2 * G.n} integers, not {len(ends)}")
        arcs = dict(enumerate(zip(ends[0::2], ends[1::2])))
        return Certificate(POSITIVE, arcs=ArcRepresentation(pos["circle_size"], arcs))
    if verdict != NEGATIVE:
        raise FormatError(f"unknown verdict {verdict!r}")
    neg = doc["negative"]
    S = _integers(neg["vertices"], "vertices")
    # before G.induced: numpy would wrap -1 round, and overflow on 2**70
    outside = [v for v in S if not 0 <= v < G.n]
    if outside:
        raise FormatError(f"vertices holds {outside[0]}, not an index of the "
                          f"{G.n} input vertices")
    if len(set(S)) != len(S):
        raise FormatError("vertices must name each vertex once")
    anchor = neg["anchor"]
    if type(anchor) is not int:
        raise FormatError(f"anchor must be an integer, not {anchor!r}")
    pair = _integers(neg["pair"], "pair")
    if len(pair) != 2:
        raise FormatError("pair must name two vertices")
    awp = AvoidWalkPair(anchor, (pair[0], pair[1]), _integers(neg["walk_p"], "walk_p"),
                        _integers(neg["walk_q"], "walk_q"))
    return Certificate(NEGATIVE, vertices=S,
                       completion=completion_graph(classify_all(G.induced(S))),
                       obstruction=awp)


def serialize_certificate(G: Graph, cert: Certificate) -> str:
    return json.dumps(certificate_to_doc(G, cert), sort_keys=True,
                      separators=(",", ":")) + "\n"


def parse_certificate(G: Graph, text: str) -> Certificate:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from exc
    except RecursionError:  # arrays or objects nested about 1000 deep
        raise FormatError("bad JSON: nested too deeply") from None
    try:
        return certificate_from_doc(G, doc)
    except FormatError:
        raise
    except (KeyError, TypeError, AttributeError, IndexError,
            ValueError, InternalError) as exc:
        raise FormatError(f"malformed certificate document: {exc}") from exc
