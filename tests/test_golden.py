"""Golden certificates: the recognizer's output pinned byte for byte.

Three corpora are pinned by the SHA-256 of their concatenated canonical
certificates.  The atlas holds every graph of networkx's atlas (1 to 7
vertices), each verdict checked against the brute-force oracle.  At 7
vertices Δ-forcing rarely recurses into modules and safe subgraphs rarely
split, so the scale corpus takes seeded arc models with 60 to 100 vertices
and arc models with a planted biclaw or C4+K1 beside them, whose verdicts
are known by construction.  The twin corpus takes 36-arc models blown up
into 5 true twins per arc, one with two universal vertices added, and so
pins the undoing of ~150-step reduction traces by ``expand_arcs``.

``DEEP`` then pins single inputs of hundreds of vertices, each given by
its command line for ``arc_model_edges.py``: deep breadth-first levels,
nested modules, sparse pieces, the Δ-classes fallback and negative
certificates whose walks cross large completions.  Each row is
recognized, serialized, hashed, parsed back and verified, within a wall
time.  Every positive certificate is checked to lie on a circle of
exactly its 2n endpoints.  A change that alters any pinned certificate
must say why and update its digest.
"""

import hashlib
import random
import time
from collections import Counter

import networkx as nx
import pytest

from arc_model_edges import command_lines, edge_lines
from circarc.check import negative_error, positive_error
from circarc.formats import parse_certificate, parse_edge_list, serialize_certificate
from circarc.graph import build_graph
from circarc.oracle import oracle_is_ca
from circarc.recognizer import NEGATIVE, POSITIVE, recognize
from conftest import arc_model, is_compact, planted_negative

ATLAS_SHA256 = "cc1876c6fd786cec422a6fee632659080fef8fdee5ac4d1540d822de3c145299"
SCALE_SHA256 = "f69a81b1cafc5d53acf6b1ceb4920f9b48dc877246e3149f3ab413d35fffa06c"
TWIN_SHA256 = "17514f273c4483c469da2dd4c8bac5967440da8e9a8c9ccacb631206b0c8030f"


def test_atlas_certificates_are_unchanged():
    digest = hashlib.sha256()
    verdicts = Counter()
    for g in nx.graph_atlas_g()[1:]:
        G = build_graph(g.number_of_nodes(), list(g.edges()))
        cert = recognize(G)
        verdicts[cert.verdict] += 1
        assert oracle_is_ca(G) == (cert.verdict == POSITIVE), list(g.edges())
        assert cert.verdict == NEGATIVE or is_compact(G, cert.arcs)
        digest.update(serialize_certificate(G, cert).encode())
    assert verdicts == {POSITIVE: 826, NEGATIVE: 426}
    assert digest.hexdigest() == ATLAS_SHA256


def corpus():
    rng = random.Random(2024)
    for n in (60, 68, 76, 84, 92, 100):
        yield arc_model(rng, n), POSITIVE
    for n, pattern in ((60, "biclaw"), (70, "c4+k1"), (80, "biclaw"), (90, "c4+k1")):
        yield planted_negative(rng, n, pattern), NEGATIVE


def test_scale_certificates_are_unchanged():
    digest = hashlib.sha256()
    for G, verdict in corpus():
        cert = recognize(G)
        assert cert.verdict == verdict
        assert verdict == NEGATIVE or is_compact(G, cert.arcs)
        digest.update(serialize_certificate(G, cert).encode())
    assert digest.hexdigest() == SCALE_SHA256


def twin_corpus():
    for seed in (1, 2, 3):
        yield edge_lines(36, seed, False, twins=5)
    lines = edge_lines(36, 4, False, twins=5)
    names = [line for line in lines if " " not in line]
    yield lines + [f"u{i} {v}" for i in (0, 1) for v in names] + ["u0 u1"]


def test_twin_certificates_are_unchanged():
    digest = hashlib.sha256()
    for lines in twin_corpus():
        G = parse_edge_list("\n".join(lines))
        cert = recognize(G)
        assert cert.verdict == POSITIVE and is_compact(G, cert.arcs)
        digest.update(serialize_certificate(G, cert).encode())
    assert digest.hexdigest() == TWIN_SHA256


# (arc_model_edges.py arguments, verdict, SHA-256 of the certificate or
# None, seconds allowed)
DEEP = [
    # C_n + K_1 is a minimal non-circular-arc graph, and its walks run
    # through component_path; the path's order runs through the labeller
    # and the Δ loop; both run hundreds of breadth-first levels
    ("400 0 --cycle", NEGATIVE,
     "b9d71d0a425a9554e14b9374d4ced8c9f4306d7b84c3612d7a510d96789c6e00", 120),
    ("400 0 --path", POSITIVE,
     "88b4a82c4e4effb60fdaffd9c31d69be25f282b7f67b3cba1bd5837973b38f00", 120),
    ("400 0 --cycle --shuffle 1", NEGATIVE, None, 120),
    ("400 0 --path --shuffle 1", POSITIVE, None, 120),
    # the order comes from 198 nested modules
    ("400 0 --nested", POSITIVE,
     "d94e08c3b9d565b8255140b54ecd18ef05d2a9d51852281bac9ce98e53f4db70", 300),
    # the model falls apart into components, each certified on its own and
    # laid side by side
    ("800 1 --short", POSITIVE,
     "4f666ff0cd6d7510c6dd1b996abd6ceb1597761bfcbd020e991c9415a33f73ae", 120),
    # the backbone keeps the short arcs in one piece of 500 vertices
    ("400 1 --short --backbone", POSITIVE,
     "d155bdac96f367b78e091c7aab3f3013b533c1ebbc2605fae25ba4e2b2a845c3", 120),
    # the anchor overlaps 4 vertices, so the Δ-forcing classes come from
    # delta.implication_classes, not off the knotting graph: an arc model,
    # and the plain cycle C_600
    ("300 19", POSITIVE,
     "2b263c484e1a57a30940a9eebf74fa7b86a79793490617c7a3b82078ddc65976", 120),
    ("600 0 --ring", POSITIVE,
     "6cd16b44abf55803f6c845a0aad809ef4f5d63f365687fe20d6f4869831eba03", 120),
    # 100 arcs, each as 10 true twins
    ("100 100 --twins 10", POSITIVE, None, 120),
    # the edge b2 v0 keeps the biclaw induced and the graph connected, so
    # the whole reduced graph is completed and its walks run through
    # component_path; at n = 1007 (|H| = 1,870) the knotting stage labels
    # its anchors 18 at a time, in 52 blocks
    ("293 293 --biclaw --join", NEGATIVE,
     "d31b1a4ef6454df8613791751d06d4d72d6c2493fa39a0057db256394522052f", 300),
    ("1000 1000 --biclaw --join", NEGATIVE,
     "c24e89cf54de5d2e1d7542687aa68d72c64070c286ffffe38e48e26b30bb577b", 300),
]


@pytest.mark.parametrize("argv, verdict, sha256, seconds", DEEP,
                         ids=[row[0] for row in DEEP])
def test_deep_certificates_are_unchanged(argv, verdict, sha256, seconds):
    G = parse_edge_list("\n".join(command_lines(argv.split())))
    start = time.perf_counter()
    cert = recognize(G)
    doc = serialize_certificate(G, cert)
    error = (positive_error if verdict == POSITIVE else negative_error)
    err = error(G, parse_certificate(G, doc))
    elapsed = time.perf_counter() - start
    assert cert.verdict == verdict
    assert verdict == NEGATIVE or is_compact(G, cert.arcs)
    if sha256 is not None:
        assert hashlib.sha256(doc.encode()).hexdigest() == sha256
    assert err is None
    assert elapsed < seconds
