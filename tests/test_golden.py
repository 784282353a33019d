"""Golden certificate corpus: every graph of networkx's atlas (1 to 7 vertices).

Each verdict must match the brute-force oracle.  The verdict counts and
the SHA-256 of the concatenated canonical certificates pin the
recognizer's output byte for byte.  A change that
alters any certificate on this corpus must say why and update the digest.
"""

import hashlib
from collections import Counter

import networkx as nx

from circarc.formats import serialize_certificate
from circarc.graph import build_graph
from circarc.oracle import oracle_is_ca
from circarc.recognizer import NEGATIVE, POSITIVE, recognize

ATLAS_SHA256 = "383151ffc431a03a60ecb8eecc54901fcd601eaa248f1cdee7d4f256e2744ae3"


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
