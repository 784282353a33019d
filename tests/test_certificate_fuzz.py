"""Hypothesis fuzz of ca-cert/4 certificate documents.

A document names every vertex by its index, a JSON integer.  Each example
takes the certificate of a small graph and mutates its document: a field
is deleted, retyped or replaced; an index is replaced by a bool, a float,
a string, -1, n, |H| (the completion's size) or 2**70; the positive
``arcs`` list gets one entry more or one fewer; or a negative
certificate's vertex set S is extended (a merged twin or a universal
vertex comes back, or -1 or 2**70 is added) or truncated (0, 1 or 2
vertices are left).  Most examples of a negative certificate only move
its walks, which keeps the document readable so that it reaches the walk
checker: the anchor, a pair member or a walk step is moved to another
index of the same completion, or a walk step is repeated or dropped.
parse_certificate and the verifier must answer "invalid" (FormatError)
or "REJECTED" (False), or accept a certificate whose verdict the
brute-force oracle confirms; any other exception fails.  A document whose
walks alone moved must parse, and its answer must come from the walk
checker.
"""

import copy
import json
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from circarc.check import negative_error
from circarc.formats import (FormatError, certificate_to_doc,
                             parse_certificate, parse_edge_list)
from circarc.oracle import oracle_is_ca
from circarc.recognizer import NEGATIVE, POSITIVE, recognize, verify_positive
from conftest import BICLAW_EDGES, NEAR_BICLAW_EDGES


def _with_universal(edges: str, name: str) -> str:
    names = dict.fromkeys(edges.split())
    return edges + "".join(f"\n{name} {v}" for v in names)


C4_EDGES = "v1 v2\nv2 v3\nv3 v4\nv4 v1"
GRAPHS = {
    "biclaw": BICLAW_EDGES,                                   # negative
    "biclaw+twin": BICLAW_EDGES + "\nh2 h\nh2 d\nh2 c",       # merges twins
    "biclaw+universal": _with_universal(BICLAW_EDGES, "u"),  # drops u
    "c4+twin+universal": _with_universal(C4_EDGES + "\nt v1\nt v2\nt v4", "u"),
    "near-biclaw+universal": _with_universal(NEAR_BICLAW_EDGES, "u"),
}


@lru_cache(maxsize=None)
def case(name):
    """(graph, certificate document as JSON text, oracle verdict, size of
    the negative certificate's completion)."""
    G = parse_edge_list(GRAPHS[name])
    cert = recognize(G)
    verdict = POSITIVE if oracle_is_ca(G) else NEGATIVE
    assert cert.verdict == verdict
    size = cert.completion.n if verdict == NEGATIVE else 0
    return G, json.dumps(certificate_to_doc(G, cert)), verdict, size


def paths(doc, prefix=()):
    """Every (container, key) path into a JSON document."""
    items = (doc.items() if isinstance(doc, dict) else enumerate(doc)
             if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def indices(doc):
    """Every path to an integer that stands for a vertex or an arc end."""
    for path in paths(doc):
        if path[0] in ("positive", "negative") and path[1:] != ("circle_size",):
            value = doc
            for key in path:
                value = value[key]
            if type(value) is int:
                yield path


ODD_VALUES = [None, True, 0, -1, 2 ** 70, 1.5, "", "zz", "~zz", [], {}, [[]],
              ["zz", "zz"], {"kind": "merge_twins"}, {"kind": "nope"}]
BAD_INDICES = [True, False, 1.5, "zz", -1, 2 ** 70]  # and n, |H|
DOCUMENT_KINDS = ["delete", "retype", "replace", "index", "resize", "truncate", "extend"]
WALK_KINDS = ["rename", "repeat", "drop"]


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(sorted(GRAPHS)))
    G, text, verdict, h_size = case(name)
    doc = json.loads(text)
    all_names = list(G.names) + ["~" + v for v in G.names]
    kinds = DOCUMENT_KINDS
    if verdict == NEGATIVE:  # two examples in three move only the walks
        kinds = draw(st.sampled_from([DOCUMENT_KINDS, WALK_KINDS, WALK_KINDS]))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind in WALK_KINDS:
            neg = doc["negative"]
            keys = ["walk_p", "walk_q"] + (["anchor", "pair"] if kind == "rename" else [])
            key = draw(st.sampled_from(keys))
            h_index = st.integers(0, h_size - 1)
            if key == "anchor":
                neg[key] = draw(h_index)
                continue
            seq = neg[key]
            if not seq:
                continue
            i = draw(st.integers(0, len(seq) - 1))
            if kind == "rename":
                seq[i] = draw(h_index)
            elif kind == "repeat":
                seq.insert(i, seq[i])
            else:
                del seq[i]
            continue
        if kind in ("delete", "retype", "replace", "index"):
            options = list(indices(doc) if kind == "index" else paths(doc))
            if not options:
                continue
            path = draw(st.sampled_from(options))
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if kind == "delete":
                del parent[path[-1]]
            elif kind == "retype":
                parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
            elif kind == "index":
                parent[path[-1]] = draw(st.sampled_from(BAD_INDICES + [G.n, h_size]))
            else:
                parent[path[-1]] = draw(st.sampled_from(all_names)
                                        | st.integers(-2, 2 * G.n + 2))
            continue
        if kind == "resize":  # one end more or one fewer
            pos = doc.get("positive")
            arcs = pos.get("arcs") if isinstance(pos, dict) else None
            if isinstance(arcs, list):
                if draw(st.booleans()):
                    arcs.append(draw(st.integers(0, 4 * G.n)))
                elif arcs:
                    arcs.pop(draw(st.integers(0, len(arcs) - 1)))
            continue
        neg = doc.get("negative")
        S = neg.get("vertices") if isinstance(neg, dict) else None
        if not isinstance(S, list):
            continue
        if kind == "truncate":  # keep 0, 1 or 2 vertices of S, in order
            picked = draw(st.permutations(range(len(S))))[:draw(st.integers(0, 2))]
            S[:] = [S[i] for i in sorted(picked)]
        else:  # a vertex the reduction removed comes back, or no vertex
            gone = [v for v in range(G.n) if v not in S] + [-1, 2 ** 70]
            S.insert(draw(st.integers(0, len(S))), draw(st.sampled_from(gone)))
    return name, doc, kinds == WALK_KINDS


@settings(max_examples=300, deadline=None)
@given(mutated())
def test_mutated_certificates_never_crash(example):
    name, doc, walks_only = example
    G, _, verdict, _ = case(name)
    try:
        cert = parse_certificate(G, json.dumps(doc))
    except FormatError:
        assert not walks_only  # walks that moved inside H still parse
        return
    if cert.verdict == POSITIVE:
        ok = verify_positive(G, cert)
    else:
        err = negative_error(G, cert)
        assert err is None or not walks_only or err.startswith("walk check failed: ")
        ok = err is None
    assert ok in (True, False)
    if ok:
        # an accepted certificate, however mangled, tells the truth
        assert cert.verdict == verdict
