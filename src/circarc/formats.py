"""Text formats: edge lists, graph6, and certificate documents.

Certificate documents are JSON with format tag "ca-cert/1".  Serialization
is canonical (sorted keys, fixed separators) so identical certificates are
byte-identical on disk.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from typing import Any

import numpy as np

from .arcs import ArcRepresentation
from .edgetypes import InternalError, circular_pairs, classify_all
from .graph import (Graph, GraphError, MergeTwins, ReductionTrace,
                    RemoveUniversal, build_graph)
from .knotting import AvoidWalkPair
from .recognizer import NEGATIVE, POSITIVE, Certificate

FORMAT_TAG = "ca-cert/1"


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
    """Short-form graph6 (n <= 62)."""
    data = line.strip()
    if not data:
        raise FormatError("empty graph6 input")
    vals = []
    for ch in data:
        o = ord(ch)
        if not 63 <= o <= 126:
            raise FormatError(f"byte {o} outside graph6 range")
        vals.append(o - 63)
    n = vals[0]
    if n == 63:
        raise FormatError("long-form graph6 not supported")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(vals) - 1 != need:
        raise FormatError("graph6 bit stream has the wrong length")
    bits = []
    for v in vals[1:]:
        bits.extend((v >> k) & 1 for k in range(5, -1, -1))
    edges = []
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bits[i]:
                edges.append((row, col))
            i += 1
    if any(bits[i:]):
        raise FormatError("nonzero padding bits")
    return build_graph(n, edges)


def write_edge_list(G: Graph) -> str:
    """Each vertex on a line of its own, then the edges: parses back as G."""
    edges = [f"{G.names[u]} {G.names[v]}" for u, v in G.edges()]
    return "\n".join([*G.names, *edges]) + "\n"


def write_graph6(G: Graph) -> str:
    if G.n > 62:
        raise FormatError("short-form graph6 handles at most 62 vertices")
    bits = []
    for col in range(1, G.n):
        for row in range(col):
            bits.append(1 if G.adj[row, col] else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(G.n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def _trace_to_doc(G: Graph, trace: ReductionTrace) -> list[dict]:
    steps = []
    for step in trace.steps:
        if isinstance(step, RemoveUniversal):
            steps.append({"kind": "remove_universal", "vertex": G.names[step.vertex]})
        else:
            steps.append({"kind": "merge_twins", "kept": G.names[step.kept],
                          "removed": G.names[step.removed]})
    return steps


def _vertex(index: dict[str, int], name: Any) -> int:
    """Index of the input vertex called name; GraphError, as from
    Graph.index_of, when there is none."""
    try:
        return index[name]
    except (KeyError, TypeError):
        raise GraphError(f"unknown vertex name: {name!r}") from None


def _trace_from_doc(index: dict[str, int], doc: list[dict]) -> ReductionTrace:
    steps = []
    removed = set()
    for item in doc:
        if item["kind"] == "remove_universal":
            v = _vertex(index, item["vertex"])
            steps.append(RemoveUniversal(v))
            removed.add(v)
        elif item["kind"] == "merge_twins":
            k, r = _vertex(index, item["kept"]), _vertex(index, item["removed"])
            steps.append(MergeTwins(k, r))
            removed.add(r)
        else:
            raise FormatError(f"unknown reduction step kind {item.get('kind')!r}")
    survivors = [v for v in range(len(index)) if v not in removed]
    return ReductionTrace(len(index), steps, survivors)


def certificate_to_doc(G: Graph, cert: Certificate) -> dict[str, Any]:
    names = np.array(G.names, dtype=object)
    doc: dict[str, Any] = {
        "format": FORMAT_TAG,
        "input": {
            "n": G.n,
            "vertices": list(G.names),
            "edges": names[np.stack(np.nonzero(np.triu(G.adj)), axis=1)].tolist(),
        },
        "verdict": cert.verdict,
        "reduction": _trace_to_doc(G, cert.reduction),
    }
    if cert.verdict == POSITIVE:
        doc["positive"] = {
            "circle_size": cert.arcs.circle_size,
            "arcs": {G.names[v]: list(lr) for v, lr in sorted(cert.arcs.arcs.items())},
        }
    else:
        H = cert.completion.graph
        h_names = np.array(H.names, dtype=object)
        added = [{"name": H.names[v], "partner": H.names[cert.pairing[v]],
                  "neighbors": h_names[H.adj[v]].tolist()}
                 for v in range(len(cert.reduction.survivors), H.n)]
        awp = cert.obstruction
        doc["negative"] = {
            "completion": {"added": added},
            "anchor": H.names[awp.anchor],
            "pair": [H.names[awp.pair[0]], H.names[awp.pair[1]]],
            "walk_p": [H.names[v] for v in awp.walk_p],
            "walk_q": [H.names[v] for v in awp.walk_q],
        }
    return doc


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def certificate_from_doc(G: Graph, doc: dict[str, Any]) -> Certificate:
    """Rebuild a certificate against G, checking the input echo."""
    if doc.get("format") != FORMAT_TAG:
        raise FormatError("unknown certificate format tag")
    echo = doc["input"]
    if echo["n"] != G.n or list(G.names) != echo["vertices"]:
        raise FormatError("certificate was issued for a different graph")
    edges = echo["edges"]
    if set(map(type, edges)) - {list} or set(map(len, edges)) - {2}:
        raise FormatError("each edge echo entry must be a pair of names")
    index = {name: i for i, name in enumerate(G.names)}
    try:
        ends = np.fromiter(map(index.__getitem__, chain.from_iterable(edges)),
                           dtype=np.intp, count=2 * len(edges)).reshape(-1, 2)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"edge echo names an unknown vertex: {exc}") from None
    u, v = ends[:, 0], ends[:, 1]
    if (u == v).any():
        raise FormatError(f"edge echo lists a loop at {G.names[u[u == v][0]]!r}")
    echoed = np.zeros((G.n, G.n), dtype=bool)
    echoed[u, v] = echoed[v, u] = True
    if not np.array_equal(echoed, G.adj):
        raise FormatError("certificate edge echo does not match the graph")
    trace = _trace_from_doc(index, doc["reduction"])
    verdict = doc["verdict"]
    if verdict == POSITIVE:
        pos = doc["positive"]
        if not _is_int(pos["circle_size"]):
            raise FormatError("circle_size must be an integer")
        arcs = {}
        for name, lr in pos["arcs"].items():
            if not (isinstance(lr, list) and len(lr) == 2 and all(map(_is_int, lr))):
                raise FormatError(f"arc of {name!r} must be a pair of integers")
            arcs[_vertex(index, name)] = tuple(lr)
        return Certificate(POSITIVE, trace,
                           arcs=ArcRepresentation(pos["circle_size"], arcs))
    if verdict != NEGATIVE:
        raise FormatError(f"unknown verdict {verdict!r}")
    neg = doc["negative"]
    G_r = G.induced(trace.survivors)
    added = neg["completion"]["added"]
    names = list(G_r.names) + [a["name"] for a in added]
    if len(set(names)) != len(names):
        raise FormatError("duplicate vertex names in completion")
    m = len(names)
    idx = {name: i for i, name in enumerate(names)}
    lists = [a["neighbors"] for a in added]
    u = np.fromiter(map(idx.get, chain.from_iterable(lists), repeat(-1)),
                    dtype=np.intp)
    v = np.repeat(np.arange(G_r.n, m), list(map(len, lists)))
    bad = np.flatnonzero((u < 0) | (u == v))
    if bad.size:
        i = bad[0]
        if u[i] < 0:
            nb = list(chain.from_iterable(lists))[i]
            raise FormatError(f"unknown neighbor {nb!r} in completion")
        raise FormatError("completion lists a loop")
    adj = np.zeros((m, m), dtype=bool)
    adj[:G_r.n, :G_r.n] = G_r.adj
    adj[u, v] = adj[v, u] = True
    H = classify_all(Graph(m, adj, tuple(names)))
    pairing = dict(circular_pairs(H).partner)
    for a in added:
        if pairing.get(idx[a["name"]]) != idx[a["partner"]]:
            raise FormatError(f"stored partner of {a['name']!r} is not its "
                              "circular partner")
    awp = AvoidWalkPair(
        idx[neg["anchor"]],
        (idx[neg["pair"][0]], idx[neg["pair"][1]]),
        [idx[v] for v in neg["walk_p"]],
        [idx[v] for v in neg["walk_q"]],
    )
    return Certificate(NEGATIVE, trace, completion=H, pairing=pairing,
                       obstruction=awp)


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
