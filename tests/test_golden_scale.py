"""Golden certificates at benchmark scale.

The atlas corpus of test_golden.py stops at 7 vertices, where Δ-forcing
rarely recurses into modules and safe subgraphs rarely split into several
components.  This corpus takes seeded arc models with 60 to 100 vertices
and arc models with a planted biclaw or C4+K1 beside them, whose verdicts
are known by construction, and pins the SHA-256 of their concatenated
canonical certificates.  A change that alters any of them must say why
and update the digest.
"""

import hashlib
import random

from circarc.formats import serialize_certificate
from circarc.recognizer import NEGATIVE, POSITIVE, recognize
from conftest import arc_model, planted_negative

SCALE_SHA256 = "4d59392c5aa33c9009c19c15ad4b7cc6606ff1ae3c2ff04919dce25178bf22d4"


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
