"""Hypothesis fuzz of ca-cert/3 certificate documents.

Each example takes the certificate of a small graph and mutates its
document: a field is deleted, retyped or replaced, or a negative
certificate's vertex set S is extended (a merged twin or a universal
vertex comes back) or truncated (0, 1 or 2 vertices are left).
parse_certificate and the verifier must answer "invalid" (FormatError)
or "REJECTED" (False), or accept a certificate whose verdict the
brute-force oracle confirms; any other exception fails.
"""

import copy
import json
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from circarc.formats import (FormatError, certificate_to_doc,
                             parse_certificate, parse_edge_list)
from circarc.oracle import oracle_is_ca
from circarc.recognizer import (NEGATIVE, POSITIVE, recognize,
                                verify_negative, verify_positive)
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
    """(graph, certificate document as JSON text, oracle verdict)."""
    G = parse_edge_list(GRAPHS[name])
    cert = recognize(G)
    verdict = POSITIVE if oracle_is_ca(G) else NEGATIVE
    assert cert.verdict == verdict
    return G, json.dumps(certificate_to_doc(G, cert)), verdict


def paths(doc, prefix=()):
    """Every (container, key) path into a JSON document."""
    items = (doc.items() if isinstance(doc, dict) else enumerate(doc)
             if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


ODD_VALUES = [None, True, 0, -1, 2 ** 70, 1.5, "", "zz", "~zz", [], {}, [[]],
              ["zz", "zz"], {"kind": "merge_twins"}, {"kind": "nope"}]


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(sorted(GRAPHS)))
    G, text, verdict = case(name)
    doc = json.loads(text)
    all_names = list(G.names) + ["~" + v for v in G.names]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "retype", "replace",
                                     "truncate", "extend"]))
        if kind in ("delete", "retype", "replace"):
            options = list(paths(doc))
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
            else:
                parent[path[-1]] = draw(st.sampled_from(all_names)
                                        | st.integers(-2, 2 * G.n + 2))
            continue
        neg = doc.get("negative")
        S = neg.get("vertices") if isinstance(neg, dict) else None
        if not isinstance(S, list):
            continue
        if kind == "truncate":  # keep 0, 1 or 2 vertices of S, in order
            picked = draw(st.permutations(range(len(S))))[:draw(st.integers(0, 2))]
            S[:] = [S[i] for i in sorted(picked)]
        else:  # a vertex the reduction removed comes back
            gone = [v for v in G.names if v not in S]
            if gone:
                S.insert(draw(st.integers(0, len(S))), draw(st.sampled_from(gone)))
    return name, doc


@settings(max_examples=300, deadline=None)
@given(mutated())
def test_mutated_certificates_never_crash(example):
    name, doc = example
    G, _, verdict = case(name)
    try:
        cert = parse_certificate(G, json.dumps(doc))
    except FormatError:
        return
    ok = (verify_positive(G, cert) if cert.verdict == POSITIVE
          else verify_negative(G, cert))
    assert ok in (True, False)
    if ok:
        # an accepted certificate, however mangled, tells the truth
        assert cert.verdict == verdict
