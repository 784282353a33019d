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
time.  A change that alters any pinned certificate must say why and
update its digest.
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
from conftest import arc_model, planted_negative

ATLAS_SHA256 = "383151ffc431a03a60ecb8eecc54901fcd601eaa248f1cdee7d4f256e2744ae3"
SCALE_SHA256 = "7d7a18e79d50439a8677ef22977daa0af2e8ed2ff9680d483afc5bddb0777434"
TWIN_SHA256 = "2a0c552dfa8cbd7dc457a398f92eba5971fe2f27057726f2439a5eccea55ec28"


def test_atlas_certificates_are_unchanged():
    digest = hashlib.sha256()
    verdicts = Counter()
    for g in nx.graph_atlas_g()[1:]:
        G = build_graph(g.number_of_nodes(), list(g.edges()))
        cert = recognize(G)
        verdicts[cert.verdict] += 1
        assert oracle_is_ca(G) == (cert.verdict == POSITIVE), list(g.edges())
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
        assert cert.verdict == POSITIVE
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
     "bd8fa6a8d306e41771aa2a23e9fc2a44aee17a7edb8fdc72135f27ccf9f50007", 120),
    ("400 0 --cycle --shuffle 1", NEGATIVE, None, 120),
    ("400 0 --path --shuffle 1", POSITIVE, None, 120),
    # the order comes from 198 nested modules
    ("400 0 --nested", POSITIVE,
     "658d09878ef8f2edf13a458f98e100363a7254b8e32ca25252357d0883a126ee", 300),
    # the model falls apart into components, each certified on its own and
    # laid side by side
    ("800 1 --short", POSITIVE,
     "efbfd6fe786e332d3b2c5efe453711d0d0fae98197e9aa1451944b48989c3563", 120),
    # the backbone keeps the short arcs in one piece of 500 vertices
    ("400 1 --short --backbone", POSITIVE,
     "cb83413db7f288866272b0f2a2daa5368d7af5f1a4034007b8162a369684176f", 120),
    # the anchor overlaps 4 vertices, so the Δ-forcing classes come from
    # delta.implication_classes, not off the knotting graph: an arc model,
    # and the plain cycle C_600
    ("300 19", POSITIVE,
     "f2a84e9795c6d62e4743dbc51b2039ff155455171d042e031eaf624b0435a0e4", 120),
    ("600 0 --ring", POSITIVE,
     "0c4bd1ac1032345ab7dd81b5b10e78d59729989a8f98e9ed0c475d458cf956d2", 120),
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
    if sha256 is not None:
        assert hashlib.sha256(doc.encode()).hexdigest() == sha256
    assert err is None
    assert elapsed < seconds
