"""Golden certificates at benchmark scale.

The atlas corpus of test_golden.py stops at 7 vertices, where Δ-forcing
rarely recurses into modules and safe subgraphs rarely split into several
components.  This corpus takes seeded arc models with 60 to 100 vertices
and arc models with a planted biclaw or C4+K1 beside them, whose verdicts
are known by construction, and pins the SHA-256 of their concatenated
canonical certificates.  A twin corpus of 36-arc models blown up into 5
true twins per arc, one with two universal vertices added, pins the undoing
of ~150-step reduction traces by ``expand_arcs``.  A change that alters any
of them must say why and update the digest.
"""

import hashlib
import random

from arc_model_edges import edge_lines
from circarc.formats import parse_edge_list, serialize_certificate
from circarc.recognizer import NEGATIVE, POSITIVE, recognize
from conftest import arc_model, planted_negative

SCALE_SHA256 = "7d7a18e79d50439a8677ef22977daa0af2e8ed2ff9680d483afc5bddb0777434"
TWIN_SHA256 = "2a0c552dfa8cbd7dc457a398f92eba5971fe2f27057726f2439a5eccea55ec28"


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
