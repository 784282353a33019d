import random

import pytest

from circarc.arcs import ArcRepresentation
from circarc.check import representation_error
from circarc.graph import Graph, build_graph
from circarc.recognizer import POSITIVE, recognize
from conftest import arc_model, arcs_meet


def _loop_representation_error(G: Graph, rep: ArcRepresentation):
    """The check as a loop over endpoints and vertex pairs: the reference
    for its array form."""
    if rep.circle_size < 1:
        return "circle has no slots"
    if set(rep.arcs) != set(range(G.n)):
        return "arc set does not match vertex set"
    names = G.names
    seen: dict[int, int] = {}
    for v, (l, r) in sorted(rep.arcs.items()):
        for e in (l, r):
            if not (0 <= e < rep.circle_size):
                return f"endpoint {e} of vertex {names[v]!r} outside circle"
            if e in seen:
                return f"vertices {names[seen[e]]!r} and {names[v]!r} share endpoint {e}"
            seen[e] = v
    for u in range(G.n):
        for v in range(u + 1, G.n):
            if arcs_meet(rep, u, v) != G.adj[u, v]:
                want = "intersect" if G.adj[u, v] else "be disjoint"
                return f"arcs of {names[u]!r} and {names[v]!r} should {want}"
    return None


def random_model(rng: random.Random, n: int) -> tuple[Graph, ArcRepresentation]:
    """n arcs with distinct ends among 3n slots, and their intersection
    graph, whose vertex v is named "v" + v."""
    m = 3 * n + 1
    ends = rng.sample(range(m), 2 * n)
    rep = ArcRepresentation(m, {v: (ends[2 * v], ends[2 * v + 1]) for v in range(n)})
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if arcs_meet(rep, u, v)]
    return build_graph(n, edges, [f"v{v}" for v in range(n)]), rep


def valid_models():
    rng = random.Random(7)
    for n in (0, 1, 2, 3, 5, 8, 13, 30):
        yield random_model(rng, n)
    for n in (6, 12, 40):
        G = arc_model(rng, n)
        cert = recognize(G)
        assert cert.verdict == POSITIVE
        yield G, cert.arcs


def with_arcs(rep: ArcRepresentation, arcs: dict) -> ArcRepresentation:
    """rep with the arcs of some vertices replaced."""
    return ArcRepresentation(rep.circle_size, {**rep.arcs, **arcs})


def rotated(rep: ArcRepresentation, k: int) -> ArcRepresentation:
    """rep turned k slots clockwise."""
    m = rep.circle_size
    return ArcRepresentation(m, {v: ((l + k) % m, (r + k) % m) for v, (l, r) in rep.arcs.items()})


def with_edge_flipped(G: Graph, u: int, v: int) -> Graph:
    adj = G.adj.copy()
    adj[u, v] = adj[v, u] = not adj[u, v]
    return Graph(G.n, adj, G.names)


def check(G, rep, message_start=None):
    got = representation_error(G, rep)
    assert got == _loop_representation_error(G, rep)
    if message_start is None:
        assert got is None
    else:
        assert got is not None and got.startswith(message_start), got


class TestRepresentationError:
    def test_valid_models(self):
        for G, rep in valid_models():
            check(G, rep)

    def test_no_slots_and_wrong_arc_set(self):
        G, rep = random_model(random.Random(1), 4)
        check(G, ArcRepresentation(0, rep.arcs), "circle has no slots")
        check(G, ArcRepresentation(rep.circle_size, {}), "arc set does not match")
        check(G, with_arcs(rep, {4: (0, 1)}), "arc set does not match")

    def test_swapped_endpoints(self):
        rng = random.Random(2)
        for G, rep in valid_models():
            for v in list(rep.arcs)[:3]:
                l, r = rep.arcs[v]
                bad = with_arcs(rep, {v: (r, l)})
                assert representation_error(G, bad) == _loop_representation_error(G, bad)
        G, rep = random_model(rng, 6)
        l, r = rep.arcs[2]
        check(G, with_arcs(rep, {2: (r, l)}), "arcs of")

    def test_shared_endpoint(self):
        G, rep = random_model(random.Random(3), 6)
        l1, r1 = rep.arcs[1]
        l4, r4 = rep.arcs[4]
        check(G, with_arcs(rep, {4: (r1, r4)}), f"vertices 'v1' and 'v4' share endpoint {r1}")
        check(G, with_arcs(rep, {4: (l4, l1)}), f"vertices 'v1' and 'v4' share endpoint {l1}")
        check(G, with_arcs(rep, {4: (l4, l4)}), f"vertices 'v4' and 'v4' share endpoint {l4}")
        check(G, with_arcs(rep, {0: (l4, l4)}), f"vertices 'v0' and 'v0' share endpoint {l4}")

    def test_outside_before_and_after_a_duplicate(self):
        G, rep = random_model(random.Random(4), 6)
        m = rep.circle_size
        l1, r1 = rep.arcs[1]
        # vertex 3 reuses vertex 1's end; vertex 2 (read first) or 5 (read
        # later) has an end off the circle
        dup = {3: (rep.arcs[3][0], l1)}
        check(G, with_arcs(rep, {**dup, 2: (rep.arcs[2][0], m)}),
              f"endpoint {m} of vertex 'v2' outside circle")
        check(G, with_arcs(rep, {**dup, 5: (-1, rep.arcs[5][1])}),
              f"vertices 'v1' and 'v3' share endpoint {l1}")
        # an end off the circle and repeated: reported as off the circle
        check(G, with_arcs(rep, {2: (m + 5, r1), 3: (m + 5, 0)}),
              f"endpoint {m + 5} of vertex 'v2' outside circle")
        check(G, with_arcs(rep, {0: (2 ** 70, 1)}),
              f"endpoint {2 ** 70} of vertex 'v0' outside circle")

    def test_one_flipped_edge(self):
        rng = random.Random(5)
        for G, rep in valid_models():
            if G.n < 2:
                continue
            u, v = sorted(rng.sample(range(G.n), 2))
            H = with_edge_flipped(G, u, v)
            want = "intersect" if H.adj[u, v] else "be disjoint"
            check(H, rep, f"arcs of {G.names[u]!r} and {G.names[v]!r} should {want}")

    @pytest.mark.parametrize("seed", range(30))
    def test_random_corruptions_match_loop(self, seed):
        rng = random.Random(seed)
        G, rep = random_model(rng, rng.randint(2, 12))
        m = rep.circle_size
        arcs = dict(rep.arcs)
        for _ in range(rng.randint(1, 3)):
            v = rng.randrange(G.n)
            pick = rng.randrange(4)
            if pick == 0:
                arcs[v] = arcs[v][::-1]
            elif pick == 1:
                arcs[v] = (arcs[v][0], arcs[rng.randrange(G.n)][rng.randrange(2)])
            elif pick == 2:
                arcs[v] = (rng.choice([-1, m, m + 3]), arcs[v][1])
            else:
                arcs[v] = (rng.randrange(m), rng.randrange(m))
        bad = ArcRepresentation(m, arcs)
        assert representation_error(G, bad) == _loop_representation_error(G, bad)

    def test_huge_circle(self):
        G = build_graph(3, [(0, 1)])
        big = 2 ** 80
        rep = ArcRepresentation(big, {0: (0, 2 ** 70), 1: (2 ** 65, 2 ** 75),
                                      2: (2 ** 76, 2 ** 77)})
        check(G, rep)
        check(build_graph(3, []), rep, "arcs of '0' and '1' should be disjoint")


class TestWrappingArcs:
    """A model turned around the circle stays a model of its graph.  Turning
    it by -r, for r the right end of some arc, makes that arc wrap (its left
    end comes after its right end), so over all such turns every arc wraps
    in some rotation."""

    @staticmethod
    def models():
        yield from valid_models()
        yield random_model(random.Random(11), 150)

    def test_every_arc_wraps_and_the_model_stays_valid(self):
        for G, rep in self.models():
            wrapped = set()
            for k in sorted({-r % rep.circle_size for _, r in rep.arcs.values()}):
                turned = rotated(rep, k)
                assert representation_error(G, turned) is None
                wrapped |= {v for v, (l, r) in turned.arcs.items() if l > r}
            assert wrapped == set(rep.arcs)

    def test_flipped_edge_at_a_wrapping_arc(self):
        rng = random.Random(12)
        for G, rep in self.models():
            if G.n < 2:
                continue
            for _ in range(3):
                # u's arc wraps in the turned model; u-v is flipped in G
                u, v = rng.sample(range(G.n), 2)
                turned = rotated(rep, -rep.arcs[u][1] % rep.circle_size)
                assert turned.arcs[u][0] > turned.arcs[u][1]
                H = with_edge_flipped(G, u, v)
                a, b = sorted((u, v))
                want = "intersect" if H.adj[u, v] else "be disjoint"
                check(H, turned, f"arcs of {G.names[a]!r} and {G.names[b]!r} should {want}")
