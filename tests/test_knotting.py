import dataclasses
import itertools
import random

import networkx as nx
import pytest

import numpy as np

from circarc.check import (AvoidWalkPair, EdgeType, InternalError, avoids,
                           circular_pairs, classify_all, walk_pair_error)
from circarc.edgetypes import complete
from circarc.formats import parse_edge_list
from circarc.graph import bfs, build_graph, reduce as reduce_graph, tree_path
from circarc.knotting import (bipartite_or_odd_cycle, build_Z, build_knotting,
                              extract_invertible_pair, overlap_side)
from arc_model_edges import short_lines
from conftest import (_dense_avoiding, arc_model, completion_of,
                      planted_negative, side_at)


def knotting_at(G, name):
    H = completion_of(G)[2]
    return H, build_knotting(H, H.graph.index_of(name))


def gamma_of(K):
    """(u, v) -> the component of v around u, read off copy_at."""
    gamma = {}
    for u, v in np.argwhere(K.copy_at >= 0).tolist():
        w, comp = K.copies[K.copy_at[u, v]]
        assert w == u
        gamma[(u, v)] = comp
    return gamma


def components(K):
    """Vertex set of each copy's component, read off copy_at."""
    groups = {}
    for (u, v), i in sorted(gamma_of(K).items()):
        groups.setdefault((u, i), []).append(v)
    return groups


def copy_counts(H, K):
    counts = {}
    for u, _ in K.copies:
        nm = H.graph.names[u]
        counts[nm] = counts.get(nm, 0) + 1
    return counts


def _bfs_knotting(H, z):
    """Copies, gamma and adjacency by one breadth-first search per copy:
    the reference for build_knotting."""
    overlap = (H.types == EdgeType.OVERLAP1) | (H.types == EdgeType.OVERLAP2)

    def avoid(v):
        return _dense_avoiding(H.graph.closed_adj(), overlap,
                               H.types == EdgeType.INCLUSION, v)

    avoid_z = avoid(z)
    az = avoid_z.diagonal()
    az_list = np.flatnonzero(az).tolist()
    copies = []
    gamma = {}
    for u in az_list:
        safe = avoid(u) & avoid_z
        seen = {}
        comp = 0
        for s in np.flatnonzero(safe.diagonal()).tolist():
            if s in seen:
                continue
            for v in bfs(seen, s, lambda cur: np.flatnonzero(safe[cur]).tolist()):
                gamma[(u, v)] = comp
            copies.append((u, comp))
            comp += 1
    copy_index = {c: i for i, c in enumerate(copies)}
    adjacency = [set() for _ in copies]
    ni = np.asarray(H.types != EdgeType.INCLUSION)
    for u in az_list:
        for v in np.flatnonzero(ni[u]).tolist():
            if v <= u or not az[v]:
                continue
            a = copy_index[(u, gamma[(u, v)])]
            b = copy_index[(v, gamma[(v, u)])]
            adjacency[a].add(b)
            adjacency[b].add(a)
    return copies, gamma, [sorted(s) for s in adjacency]


def _bfs_component_path(H, K, u, a, b):
    """a-b path by graph.bfs from a and graph.tree_path over the dense
    safe subgraph of u: the reference for KnottingGraph.component_path."""
    overlap = (H.types == EdgeType.OVERLAP1) | (H.types == EdgeType.OVERLAP2)
    included = H.types == EdgeType.INCLUSION
    closed = H.graph.closed_adj()
    safe = (_dense_avoiding(closed, overlap, included, u)
            & _dense_avoiding(closed, overlap, included, K.anchor))
    prev = {}
    bfs(prev, a, lambda cur: np.flatnonzero(safe[cur]).tolist())
    return tree_path(prev, a, b)


def assert_matches_bfs_reference(H, anchors):
    split = 0
    for z in anchors:
        K = build_knotting(H, z)
        copies, gamma, adjacency = _bfs_knotting(H, z)
        assert K.copies == copies
        assert gamma_of(K) == gamma
        assert K.adjacency == adjacency
        split += len(copies) - len({u for u, _ in copies})
    return split


class TestBuildKnotting:
    def test_matches_bfs_reference_atlas(self):
        # every anchor up to 6 vertices; at 7, the anchor recognize takes
        split = 0
        for g in nx.graph_atlas_g()[1:]:
            G = build_graph(g.number_of_nodes(), list(g.edges()))
            if reduce_graph(G)[0].n < 2:
                continue
            H = completion_of(G)[2]
            degree = H.graph.adj.sum(axis=1)
            anchors = range(H.graph.n) if G.n <= 6 else [int(degree.argmin())]
            split += assert_matches_bfs_reference(H, anchors)
        assert split > 0  # some safe subgraphs have several components

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bfs_reference_seeded(self, seed):
        rng = random.Random(seed)
        for G in (arc_model(rng, 40), planted_negative(rng, 30, "biclaw")):
            H = completion_of(G)[2]
            anchors = rng.sample(range(H.graph.n), 4)
            assert assert_matches_bfs_reference(H, anchors) > 0


    def test_biclaw_anchor_f(self, biclaw):
        H, K = knotting_at(biclaw, "f")
        assert copy_counts(H, K) == {"d": 1, "g": 1, "h": 1, "b": 1, "c": 1,
                                     "~d": 1, "~f": 2, "~a": 1}
        assert isinstance(bipartite_or_odd_cycle(K), list)

    def test_near_biclaw_anchor_f(self, near_biclaw):
        H, K = knotting_at(near_biclaw, "f")
        assert copy_counts(H, K) == {"d": 1, "g": 2, "h": 1, "b": 1,
                                     "~d": 1, "~f": 2, "~a": 1}
        assert isinstance(bipartite_or_odd_cycle(K), dict)

    def test_c4(self, c4):
        T = classify_all(c4)
        K = build_knotting(T, 0)
        assert {u for u, _ in K.copies} == {1, 2, 3}
        assert isinstance(bipartite_or_odd_cycle(K), dict)

    def test_gamma_locates_members(self, biclaw):
        # copy_at's groups are the components of the edges avoiding u and z
        H, K = knotting_at(biclaw, "f")
        groups = components(K)
        assert set(groups) == set(K.copies)
        z = K.anchor
        for u in {u for u, _ in K.copies}:
            safe = nx.Graph()
            safe.add_nodes_from(v for v in range(H.graph.n)
                                if avoids(H, u, [v]) and avoids(H, z, [v]))
            safe.add_edges_from(
                (a, b) for a, b in H.graph.edges()
                if a in safe and b in safe
                and avoids(H, u, [a, b]) and avoids(H, z, [a, b]))
            want = {frozenset(c) for c in nx.connected_components(safe)}
            assert {frozenset(g) for (w, _), g in groups.items() if w == u} == want

    def test_component_paths_avoid_both(self, biclaw):
        H, K = knotting_at(biclaw, "f")
        rng = random.Random(2)
        z = K.anchor
        for (u, i), group in components(K).items():
            a, b = rng.choice(group), rng.choice(group)
            path = K.component_path(u, i, a, b)
            assert path[0] == a and path[-1] == b
            assert avoids(H, u, path) if len(path) > 1 else True
            if len(path) > 1:
                assert avoids(H, z, path)

    @staticmethod
    def assert_paths_match_bfs_reference(G):
        # every (u, comp, a, b), a = b included, at a minimum-degree anchor
        H = completion_of(G)[2]
        K = build_knotting(H, int(H.graph.adj.sum(axis=1).argmin()))
        for (u, i), group in components(K).items():
            for a, b in itertools.product(group, repeat=2):
                assert (K.component_path(u, i, a, b)
                        == _bfs_component_path(H, K, u, a, b))

    @pytest.mark.parametrize("seed", range(3))
    def test_component_paths_match_bfs_reference(self, seed):
        rng = random.Random(seed)
        for G in (arc_model(rng, 14), planted_negative(rng, 10, "biclaw"),
                  planted_negative(rng, 10, "c4+k1")):
            self.assert_paths_match_bfs_reference(G)

    def test_long_component_paths_match_bfs_reference(self):
        # paths of up to 12 vertices in the path's safe subgraphs
        self.assert_paths_match_bfs_reference(
            build_graph(16, [(i, i + 1) for i in range(15)]))
        self.assert_paths_match_bfs_reference(
            parse_edge_list("\n".join(short_lines(24, 1))))

    def test_component_path_checks_endpoints(self, biclaw):
        H, K = knotting_at(biclaw, "f")
        (u, i), group = next(iter(components(K).items()))
        with pytest.raises(InternalError):
            K.component_path(u, i, group[0], u)


class TestOddCycle:
    def test_edgeless(self, c4):
        T = classify_all(c4)
        K = build_knotting(T, 0)
        K2 = dataclasses.replace(K, adjacency=[[] for _ in K.copies])
        coloring = bipartite_or_odd_cycle(K2)
        assert set(coloring.values()) == {0}

    def test_extracted_pair_verifies(self, biclaw):
        H, K = knotting_at(biclaw, "f")
        cycle = bipartite_or_odd_cycle(K)
        awp = extract_invertible_pair(K, cycle)
        assert walk_pair_error(H, awp) is None
        assert awp.anchor == H.graph.index_of("f")

    def test_short_cycle_rejected(self, biclaw):
        _, K = knotting_at(biclaw, "f")
        with pytest.raises(InternalError):
            extract_invertible_pair(K, [K.copies[0]])


class TestWalkPairChecker:
    def test_hand_built_walks(self, biclaw):
        # hand-built obstruction: pair {a,b} anchored at c
        H = completion_of(biclaw)[2]
        idx = H.graph.index_of
        awp = AvoidWalkPair(
            idx("c"), (idx("a"), idx("b")),
            [idx(v) for v in ["a", "f", "d", "d", "g", "b"]],
            [idx(v) for v in ["b", "b", "b", "~h", "a", "a"]])
        assert walk_pair_error(H, awp) is None

    def test_rejects_broken_step(self, biclaw):
        H = completion_of(biclaw)[2]
        idx = H.graph.index_of
        awp = AvoidWalkPair(
            idx("c"), (idx("a"), idx("b")),
            [idx(v) for v in ["a", "c", "d", "d", "g", "b"]],
            [idx(v) for v in ["b", "b", "b", "~h", "a", "a"]])
        assert walk_pair_error(H, awp) is not None

    def test_rejects_anchor_in_pair(self, biclaw):
        H = completion_of(biclaw)[2]
        idx = H.graph.index_of
        awp = AvoidWalkPair(idx("a"), (idx("a"), idx("b")),
                            [idx("a")], [idx("b")])
        assert walk_pair_error(H, awp) is not None


class TestDisagreement:
    def test_c4(self, c4):
        T = classify_all(c4)
        Y = side_at(T, 0)
        assert isinstance(Y, set)
        assert Y == {1}

    def test_near_biclaw_positive_branch(self, near_biclaw):
        H = completion_of(near_biclaw)[2]
        z = min(range(H.graph.n), key=lambda v: (H.graph.degree(v), v))
        Y = side_at(H, z)
        assert isinstance(Y, set)

    def test_no_overlappers(self):
        # two isolated vertices: each is the other's circular partner
        T = classify_all(build_graph(2, []))
        assert side_at(T, 0) == set()

    def test_partner_outside_safe_subgraph(self, c4):
        T = classify_all(c4)
        K = build_knotting(T, 0)
        colouring = bipartite_or_odd_cycle(K)
        K.copy_at[1, 2] = -1
        with pytest.raises(InternalError):
            overlap_side(T, K, colouring, 2)


def loop_build_Z(H, z, Y, pairing):
    """build_Z's checks as plain loops: the reference for its array form."""
    n = H.graph.n
    zset = sorted(set(range(n)) - H.graph.closed_neighborhood(z) | set(Y))
    if not zset:
        raise InternalError("non-inverting set came out empty")
    for u in range(n):
        if (u in zset) == (pairing[u] in zset):
            raise InternalError(f"pair {u},{pairing[u]} not split by Z")
    for i, u in enumerate(zset):
        for v in zset[i + 1:]:
            if H.types[u, v] == EdgeType.OVERLAP2:
                raise InternalError(f"2-overlap edge {u},{v} inside Z")
    return zset


def outcome(f, *args):
    try:
        return f(*args)
    except InternalError as exc:
        return str(exc)


class TestBuildZ:
    def test_c4(self, c4):
        T = classify_all(c4)
        Y = side_at(T, 0)
        assert build_Z(T, 0, Y, circular_pairs(T).partner) == [1, 2]

    def test_p4(self, p4):
        T = classify_all(p4)
        z = min(range(4), key=lambda v: (T.graph.degree(v), v))
        assert z == 0
        Y = side_at(T, z)
        assert Y <= {1}
        zset = build_Z(T, z, Y, circular_pairs(T).partner)
        assert set(zset) >= {2, 3}
        assert set(zset) - {2, 3} <= {1}

    def test_never_empty(self):
        T = classify_all(build_graph(2, []))
        assert build_Z(T, 0, set(), circular_pairs(T).partner) == [1]

    def test_matches_loop_reference(self):
        # random sides Y of the anchor's neighbours trip either guard or none
        rng = random.Random(5)
        seen = set()
        for _ in range(40):
            n = rng.randint(3, 12)
            G = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < 0.4])
            if reduce_graph(G)[0].n < 2:
                continue
            _, _, H, pairing = completion_of(G)
            for z in range(H.graph.n):
                nbrs = sorted(H.graph.closed_neighborhood(z) - {z})
                Y = {v for v in nbrs if rng.random() < 0.5}
                got = outcome(build_Z, H, z, Y, pairing)
                assert got == outcome(loop_build_Z, H, z, Y, pairing)
                seen.add(type(got) if isinstance(got, list) else got.split()[0])
        assert seen == {list, "pair", "2-overlap"}

    def test_two_overlap_inside_rejected(self):
        # three isolated vertices: anchor ~0 (3) misses only 0, and the
        # added vertices ~1 (4) and ~2 (5) form a 2-overlap edge
        H, pairing = complete(classify_all(build_graph(3, [])))
        assert H.types[4, 5] == EdgeType.OVERLAP2
        with pytest.raises(InternalError, match="2-overlap edge 4,5 inside Z"):
            build_Z(H, 3, {4, 5}, pairing)


class TestBothDirections:
    def test_desk_scale(self):
        # bipartite at every anchor iff representable, non-bipartite at the
        # min-degree anchor always yields a checked walk pair
        from circarc.oracle import oracle_is_ca
        pairs = list(itertools.combinations(range(4), 2))
        for mask in range(1 << len(pairs)):
            G = build_graph(4, [p for i, p in enumerate(pairs)
                                if mask >> i & 1])
            reduced, _ = reduce_graph(G)
            if reduced.n < 2:
                continue
            H = completion_of(G)[2]
            flags = []
            for z in range(H.graph.n):
                res = bipartite_or_odd_cycle(build_knotting(H, z))
                flags.append(isinstance(res, dict))
                if not flags[-1]:
                    K = build_knotting(H, z)
                    cycle = bipartite_or_odd_cycle(K)
                    awp = extract_invertible_pair(K, cycle)
                    assert walk_pair_error(H, awp) is None
            assert all(flags) == oracle_is_ca(G)
