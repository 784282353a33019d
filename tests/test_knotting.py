import dataclasses
import itertools
import random
import re
import tracemalloc

import networkx as nx
import pytest

import numpy as np

import circarc.knotting
from circarc.check import (POSITIVE, AvoidWalkPair, EdgeType, InternalError, avoids,
                           circular_pairs, classify_all, walk_pair_error)
from circarc.delta import implication_classes, labelled_from_typed
from circarc.edgetypes import complete
from circarc.formats import parse_edge_list
from circarc.graph import build_graph, pack_rows, reduce as reduce_graph, unpack_rows
from circarc.knotting import (bipartite_or_odd_cycle, build_Z, build_knotting,
                              extract_invertible_pair, forcing_classes, overlap_side)
from circarc.recognizer import recognize
from arc_model_edges import edge_lines, nested_lines, path_lines, short_lines, shuffled
from conftest import (_dense_avoiding, arc_model, bfs, completion_of, interval_model,
                      planted_negative, side_at, stepwise_walk_pair_error,
                      tree_path)
from test_golden import corpus, twin_corpus


def knotting_at(G, name):
    H = completion_of(G)[2]
    return H, build_knotting(H, H.graph.index_of(name))


def gamma_of(K):
    """(u, v) -> the component of v around u, read off copy_at."""
    gamma = {}
    copies = K.copies.tolist()
    for u, v in np.argwhere(K.copy_at >= 0).tolist():
        w, comp = copies[K.copy_at[u, v]]
        assert w == u
        gamma[(u, v)] = comp
    return gamma


def components(K):
    """Copy index -> the vertex set of its component, read off copy_at."""
    groups = {}
    for u, v in np.argwhere(K.copy_at >= 0).tolist():
        groups.setdefault(int(K.copy_at[u, v]), []).append(v)
    return groups


def copy_counts(H, K):
    counts = {}
    for u in K.copies[:, 0].tolist():
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
            copies.append([u, comp])
            comp += 1
    copy_index = {tuple(c): i for i, c in enumerate(copies)}
    adjacency = [set() for _ in copies]
    ni = np.asarray(H.types != EdgeType.INCLUSION)
    for u in az_list:
        for v in np.flatnonzero(ni[u]).tolist():
            if v <= u or not az[v]:
                continue
            a = copy_index[u, gamma[(u, v)]]
            b = copy_index[v, gamma[(v, u)]]
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
        assert K.copies.tolist() == copies
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
        assert isinstance(bipartite_or_odd_cycle(K), np.ndarray)

    def test_c4(self, c4):
        T = classify_all(c4)
        K = build_knotting(T, 0)
        assert set(K.copies[:, 0].tolist()) == {1, 2, 3}
        assert isinstance(bipartite_or_odd_cycle(K), np.ndarray)

    def test_gamma_locates_members(self, biclaw):
        # copy_at's groups are the components of the edges avoiding u and z
        H, K = knotting_at(biclaw, "f")
        groups = components(K)
        assert set(groups) == set(range(len(K.copies)))
        z = K.anchor
        for u in set(K.copies[:, 0].tolist()):
            safe = nx.Graph()
            safe.add_nodes_from(v for v in range(H.graph.n)
                                if avoids(H, u, [v]) and avoids(H, z, [v]))
            safe.add_edges_from(
                (a, b) for a, b in H.graph.edges()
                if a in safe and b in safe
                and avoids(H, u, [a, b]) and avoids(H, z, [a, b]))
            want = {frozenset(c) for c in nx.connected_components(safe)}
            assert {frozenset(g) for c, g in groups.items() if K.copies[c, 0] == u} == want

    def test_component_paths_avoid_both(self, biclaw):
        H, K = knotting_at(biclaw, "f")
        rng = random.Random(2)
        z = K.anchor
        for c, group in components(K).items():
            u = K.copies[c, 0]
            a, b = rng.choice(group), rng.choice(group)
            path = K.component_path(c, a, b)
            assert path[0] == a and path[-1] == b
            assert avoids(H, u, path) if len(path) > 1 else True
            if len(path) > 1:
                assert avoids(H, z, path)

    @staticmethod
    def assert_paths_match_bfs_reference(G, every_anchor=False):
        # every (copy, a, b), a = b included, at a minimum-degree anchor
        # or at every anchor
        H = completion_of(G)[2]
        anchors = (range(H.graph.n) if every_anchor
                   else [int(H.graph.adj.sum(axis=1).argmin())])
        for z in anchors:
            K = build_knotting(H, z)
            for c, group in components(K).items():
                for a, b in itertools.product(group, repeat=2):
                    assert (K.component_path(c, a, b)
                            == _bfs_component_path(H, K, K.copies[c, 0], a, b))

    @pytest.mark.parametrize("seed", range(3))
    def test_component_paths_match_bfs_reference(self, seed):
        rng = random.Random(seed)
        for G in (arc_model(rng, 14), planted_negative(rng, 10, "biclaw"),
                  planted_negative(rng, 10, "c4+k1")):
            self.assert_paths_match_bfs_reference(G)

    def test_component_paths_match_bfs_reference_at_every_anchor(self):
        # the cut by the anchor's own overlap row shapes some paths only at
        # anchors other than the minimum-degree one
        rng = random.Random(5)
        for G in (arc_model(rng, 10), planted_negative(rng, 6, "biclaw")):
            self.assert_paths_match_bfs_reference(G, every_anchor=True)

    def test_long_component_paths_match_bfs_reference(self):
        # paths of up to 12 vertices in the path's safe subgraphs
        self.assert_paths_match_bfs_reference(
            build_graph(16, [(i, i + 1) for i in range(15)]))
        self.assert_paths_match_bfs_reference(
            parse_edge_list("\n".join(short_lines(24, 1))))

    def test_component_path_checks_endpoints(self, biclaw):
        H, K = knotting_at(biclaw, "f")
        c, group = next(iter(components(K).items()))
        with pytest.raises(InternalError):
            K.component_path(c, group[0], K.copies[c, 0])

    @pytest.mark.parametrize("seed", range(3))
    def test_keeps_the_rows_with_its_anchor_folded_in(self, seed):
        # at every anchor: the closed rows avoiding it, less the rows and
        # columns included with it; H's overlap rows; the included rows
        # ORed with the anchor's
        rng = random.Random(seed)
        for G in (arc_model(rng, 20), planted_negative(rng, 12, "biclaw"),
                  planted_negative(rng, 12, "c4+k1")):
            H = completion_of(G)[2]
            n = H.graph.n
            closed = H.graph.closed_adj()
            overlap = (H.types == EdgeType.OVERLAP1) | (H.types == EdgeType.OVERLAP2)
            included = H.types == EdgeType.INCLUSION
            for z in range(n):
                K = build_knotting(H, z)
                rows = unpack_rows(K.avoid[0], n)
                rows[included[z]] = False
                rows[:, included[z]] = False
                assert np.array_equal(rows, _dense_avoiding(closed, overlap, included, z))
                assert np.array_equal(K.avoid[1], pack_rows(overlap))
                assert np.array_equal(K.avoid[2], pack_rows(included | included[z]))

    def test_component_paths_peak_below_a_safe_matrix(self):
        # each path of the walks at |H| = 532 allocates less than one
        # unpacked |H| x |H| safe matrix: the search unpacks a level at a time
        H = completion_of(parse_edge_list("\n".join(edge_lines(300, 1, biclaw=True))))[2]
        n = H.graph.n
        K = build_knotting(H, int(H.graph.adj.sum(axis=1).argmin()))
        cycle = bipartite_or_odd_cycle(K)
        assert n == 532 and isinstance(cycle, list)
        us = K.copies[cycle, 0].tolist()
        peaks = []
        for j, c in enumerate(cycle):  # the calls extract_invertible_pair makes
            tracemalloc.start()
            try:
                K.component_path(c, us[j - 1], us[(j + 1) % len(cycle)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < n * n, peaks


def _forest_bipartite_or_odd_cycle(K):
    """Depth-parity colours of a breadth-first forest over K's adjacency
    lists, rooted at each component's least copy, as a list by copy, or
    the odd cycle of copies through the first same-coloured edge in visit
    order: the reference for bipartite_or_odd_cycle."""
    adjacency = K.adjacency
    parent, order = {}, []
    for root in range(len(K.copies)):
        if root not in parent:
            order += bfs(parent, root, adjacency.__getitem__)
    color = {}
    for v in order:  # parents come first: colour is the depth parity
        color[v] = 0 if parent[v] is None else 1 - color[parent[v]]
    for cur in order:
        for nxt in adjacency[cur]:
            if color[nxt] == color[cur]:
                return tree_path(parent, cur, nxt)
    return [color[i] for i in range(len(K.copies))]


def _forest_overlap_side(H, K, colouring, zbar):
    """overlap_side with its components found by a breadth-first forest
    over K from each overlapper's copy, least overlapper first, and
    colouring a 0/1 colour by copy index: the reference for overlap_side."""
    tz = H.types[:, K.anchor]
    xs = np.flatnonzero((tz == EdgeType.OVERLAP1) | (tz == EdgeType.OVERLAP2)).tolist()
    copies = K.copy_at[xs, zbar].tolist()
    for x, c in zip(xs, copies):
        if tz[x] != EdgeType.OVERLAP1:
            raise InternalError(f"overlapper {x} of a minimum-degree anchor "
                                "must form a 1-overlap edge")
        if c < 0:
            raise InternalError(f"partner {zbar} of the anchor lies outside "
                                f"the safe subgraph of overlapper {x}")
    adjacency = K.adjacency
    parent, lead = {}, {}  # copy -> copy of the least overlapper in its component
    for c in copies:
        if c not in parent:
            lead.update(dict.fromkeys(bfs(parent, c, adjacency.__getitem__), c))
    return {x for x, c in zip(xs, copies)
            if colouring[c] == colouring[lead[c]]}


def assert_colouring_matches_reference(H, anchors, partner):
    """bipartite_or_odd_cycle and overlap_side against the forest
    references at each anchor, plus the side-id and cycle properties.
    Returns the number of empty and of multi-component knotting graphs."""
    empty = split = 0
    for z in anchors:
        K = build_knotting(H, z)
        adjacency = K.adjacency
        graph = nx.empty_graph(len(adjacency))
        graph.add_edges_from((a, b) for a, nbrs in enumerate(adjacency) for b in nbrs)
        parts = nx.number_connected_components(graph)
        empty += parts == 0
        split += parts > 1
        got, want = bipartite_or_odd_cycle(K), _forest_bipartite_or_odd_cycle(K)
        if not isinstance(got, np.ndarray):
            assert got == want
            # a closed walk in K of odd length at least 3
            assert len(got) % 2 == 1 and len(got) >= 3
            assert all(b in adjacency[a] for a, b in zip(got, got[1:] + got[:1]))
            continue
        assert (got % 2).tolist() == want
        sides = got.tolist()
        # no edge joins one side id; a component's ids are 2r and 2r + 1
        assert all(sides[a] != sides[b] for a, nbrs in enumerate(adjacency) for b in nbrs)
        assert all(sides[a] // 2 == sides[b] // 2 for a, nbrs in enumerate(adjacency)
                   for b in nbrs)
        assert all(s // 2 <= i for i, s in enumerate(sides))
        assert len({s // 2 for s in sides}) == parts
        assert (outcome(overlap_side, H, K, got, partner[z])
                == outcome(_forest_overlap_side, H, K, want, partner[z]))
    return empty, split


class TestColouringReference:
    def test_atlas(self):
        # every anchor up to 6 vertices; at 7, the anchor recognize takes
        empty = split = anchors = 0
        for g in nx.graph_atlas_g()[1:]:
            G = build_graph(g.number_of_nodes(), list(g.edges()))
            if reduce_graph(G)[0].n < 2:
                continue
            _, _, H, partner = completion_of(G)
            degree = H.graph.adj.sum(axis=1)
            zs = range(H.graph.n) if G.n <= 6 else [int(degree.argmin())]
            e, s = assert_colouring_matches_reference(H, zs, partner)
            empty, split, anchors = empty + e, split + s, anchors + len(zs)
        # all anchors of these graphs, at 7 vertices too, are 12,676, with
        # 226 empty and 3,914 multi-component knotting graphs
        assert (anchors, empty, split) == (2551, 137, 643)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded(self, seed):
        rng = random.Random(seed)
        for G in (arc_model(rng, 40), planted_negative(rng, 30, "biclaw"),
                  planted_negative(rng, 30, "c4+k1")):
            _, _, H, partner = completion_of(G)
            degree = H.graph.adj.sum(axis=1)
            zs = [int(degree.argmin())] + rng.sample(range(H.graph.n), 6)
            assert_colouring_matches_reference(H, zs, partner)

    @pytest.mark.parametrize("lines", [nested_lines(60), short_lines(120, 1)],
                             ids=["nested", "short"])
    def test_deep_and_sparse(self, lines):
        _, _, H, partner = completion_of(parse_edge_list("\n".join(lines)))
        degree = H.graph.adj.sum(axis=1)
        zs = [int(degree.argmin())] + random.Random(1).sample(range(H.graph.n), 4)
        assert assert_colouring_matches_reference(H, zs, partner)[1] > 0

    def test_cycles_of_five(self):
        # C_n beside an isolated vertex: some anchors have an odd cycle of 5
        lengths = set()
        for n in range(4, 13):
            G = build_graph(n + 1, [(i, (i + 1) % n) for i in range(n)])
            _, _, H, partner = completion_of(G)
            assert_colouring_matches_reference(H, range(H.graph.n), partner)
            for z in range(H.graph.n):
                res = bipartite_or_odd_cycle(build_knotting(H, z))
                lengths.add(0 if isinstance(res, np.ndarray) else len(res))
        assert lengths == {0, 3, 5}


class TestOddCycle:
    def test_edgeless(self, c4):
        # with no edges, each copy alone is a component: copy i gets side 2i
        T = classify_all(c4)
        K = build_knotting(T, 0)
        K2 = dataclasses.replace(K, pairs=np.zeros((0, 2), dtype=np.int32))
        coloring = bipartite_or_odd_cycle(K2)
        assert coloring.tolist() == [2 * i for i in range(len(K.copies))]

    def test_extracted_pair_verifies(self, biclaw):
        H, K = knotting_at(biclaw, "f")
        cycle = bipartite_or_odd_cycle(K)
        awp = extract_invertible_pair(K, cycle)
        assert walk_pair_error(H, awp) is None
        assert awp.anchor == H.graph.index_of("f")

    def test_short_cycle_rejected(self, biclaw):
        _, K = knotting_at(biclaw, "f")
        with pytest.raises(InternalError):
            extract_invertible_pair(K, [0])


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

    def test_names_vertices_in_reasons(self, biclaw):
        # the hand-built walks with a bad anchor or a moved step, each
        # reason naming the offending vertex
        H = completion_of(biclaw)[2]
        idx = H.graph.index_of
        p, q = ["a", "f", "d", "d", "g", "b"], ["b", "b", "b", "~h", "a", "a"]

        def reason(z, pair, p, q):
            return walk_pair_error(H, AvoidWalkPair(
                idx(z), (idx(pair[0]), idx(pair[1])),
                [idx(v) for v in p], [idx(v) for v in q]))

        assert reason("f", "ab", p, q) == "anchor 'f' does not avoid the first walk"
        assert reason("d", "ba", q, p) == "anchor 'd' does not avoid the second walk"
        assert (reason("c", "ab", p, ["b", "b", "~h", "~h", "a", "a"])
                == "'f' does not avoid step 1 of the second walk")
        assert (reason("c", "ab", p, ["b", "b", "b", "b", "~h", "a"])
                == "'~h' does not avoid step 3 of the first walk")

    def test_rejects_anchor_in_pair(self, biclaw):
        H = completion_of(biclaw)[2]
        idx = H.graph.index_of
        awp = AvoidWalkPair(idx("a"), (idx("a"), idx("b")),
                            [idx("a")], [idx("b")])
        assert walk_pair_error(H, awp) is not None


def walk_mutations(awp, m):
    """awp with one thing changed: each walk position renamed to every
    vertex (and to -1 and m, out of range), repeated or dropped; each
    position of the first walk repeated together with each of the second,
    keeping the lengths equal; the anchor and each pair member renamed, the
    anchor also with the pair and the walks swapped."""
    p, q = awp.walk_p, awp.walk_q
    for k, walk in enumerate((p, q)):
        for i in range(len(walk)):
            variants = [walk[:i] + [v] + walk[i + 1:] for v in range(-1, m + 1)]
            variants += [walk[:i + 1] + walk[i:], walk[:i] + walk[i + 1:]]
            for w in variants:
                yield dataclasses.replace(awp, **{("walk_p", "walk_q")[k]: w})
    for i, j in itertools.product(range(len(p)), range(len(q))):
        yield dataclasses.replace(awp, walk_p=p[:i + 1] + p[i:], walk_q=q[:j + 1] + q[j:])
    swapped = AvoidWalkPair(awp.anchor, awp.pair[::-1], q, p)
    for v in range(-1, m + 1):
        yield dataclasses.replace(awp, anchor=v)
        yield dataclasses.replace(swapped, anchor=v)
        yield dataclasses.replace(awp, pair=(v, awp.pair[1]))
        yield dataclasses.replace(awp, pair=(awp.pair[0], v))


class TestWalkCheckerDifferential:
    """The array walk checker returns the stepwise reference's reason, None
    included, on every single mutation of emitted obstructions."""

    # each reason with its vertex names and numbers blanked
    KINDS = {None, "vertex # out of range", "pair members must be distinct",
             "anchor may not belong to the pair",
             "walks must be nonempty and of equal length",
             "walk endpoints do not match the pair", "step #-# is not an edge",
             "anchor # does not avoid the first walk",
             "anchor # does not avoid the second walk",
             "# does not avoid step # of the second walk",
             "# does not avoid step # of the first walk"}

    @staticmethod
    def check(G):
        """The kinds of reason met over G's obstruction and its mutations."""
        cert = recognize(G)
        H = classify_all(cert.completion)
        kinds = set()
        for awp in [cert.obstruction, *walk_mutations(cert.obstruction, H.graph.n)]:
            want = stepwise_walk_pair_error(H, awp)
            assert walk_pair_error(H, awp) == want, awp
            kinds.add(want and re.sub(r"'[^']*'|-?\d+", "#", want))
        return kinds

    def test_biclaw(self, biclaw):
        assert self.check(biclaw) == self.KINDS

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_planted_biclaw(self, seed):
        # an 85-arc model beside a biclaw, as the bench's planted negatives
        G = parse_edge_list("\n".join(edge_lines(85, seed, biclaw=True)))
        assert self.check(G) == self.KINDS


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


def loop_build_Z(H, z, Y, partner):
    """build_Z's checks as plain loops: the reference for its array form."""
    n = H.graph.n
    zset = sorted(set(range(n)) - H.graph.closed_neighborhood(z) | set(Y))
    if not zset:
        raise InternalError("non-inverting set came out empty")
    for u, v in enumerate(partner.tolist()):
        if (u in zset) == (v in zset):
            raise InternalError(f"pair {u},{v} not split by Z")
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
        assert build_Z(T, 0, Y, circular_pairs(T)) == [1, 2]

    def test_p4(self, p4):
        T = classify_all(p4)
        z = min(range(4), key=lambda v: (T.graph.degree(v), v))
        assert z == 0
        Y = side_at(T, z)
        assert Y <= {1}
        zset = build_Z(T, z, Y, circular_pairs(T))
        assert set(zset) >= {2, 3}
        assert set(zset) - {2, 3} <= {1}

    def test_never_empty(self):
        T = classify_all(build_graph(2, []))
        assert build_Z(T, 0, set(), circular_pairs(T)) == [1]

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
            _, _, H, partner = completion_of(G)
            for z in range(H.graph.n):
                nbrs = sorted(H.graph.closed_neighborhood(z) - {z})
                Y = {v for v in nbrs if rng.random() < 0.5}
                got = outcome(build_Z, H, z, Y, partner)
                assert got == outcome(loop_build_Z, H, z, Y, partner)
                seen.add(type(got) if isinstance(got, list) else got.split()[0])
        assert seen == {list, "pair", "2-overlap"}

    def test_two_overlap_inside_rejected(self):
        # three isolated vertices: anchor ~0 (3) misses only 0, and the
        # added vertices ~1 (4) and ~2 (5) form a 2-overlap edge
        H, partner = complete(classify_all(build_graph(3, [])))
        assert H.types[4, 5] == EdgeType.OVERLAP2
        with pytest.raises(InternalError, match="2-overlap edge 4,5 inside Z"):
            build_Z(H, 3, {4, 5}, partner)


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
                flags.append(isinstance(res, np.ndarray))
                if not flags[-1]:
                    K = build_knotting(H, z)
                    cycle = bipartite_or_odd_cycle(K)
                    awp = extract_invertible_pair(K, cycle)
                    assert walk_pair_error(H, awp) is None
            assert all(flags) == oracle_is_ca(G)


def assert_forcing_classes_match(monkeypatch, graphs):
    """forcing_classes, at the anchor and on the Z that recognize takes,
    equals implication_classes on L array for array, dtypes included, and
    falls back to it exactly when the anchor overlaps some vertex.  Returns
    the number of graphs that reach L, how many of them fell back, and on
    how many the side ids alone, side[copy_at[a, b]] without the fallback,
    would not partition the active pairs as L's classes do."""
    calls = []
    monkeypatch.setattr(circarc.knotting, "implication_classes",
                        lambda L: calls.append(L) or implication_classes(L))
    reached = fell = split = 0
    for G in graphs:
        if reduce_graph(G)[0].n < 2:
            continue
        _, _, H, partner = completion_of(G)
        z = int(H.graph.adj.sum(axis=1).argmin())
        K = build_knotting(H, z)
        side = bipartite_or_odd_cycle(K)
        if not isinstance(side, np.ndarray):
            continue
        zset = build_Z(H, z, overlap_side(H, K, side, partner[z]), partner)
        L = labelled_from_typed(H, zset)
        calls.clear()
        got = forcing_classes(K, side, zset, L)
        overlapped = bool(np.isin(H.types[z], [EdgeType.OVERLAP1, EdgeType.OVERLAP2]).any())
        assert len(calls) == overlapped
        want = implication_classes(L)
        for name, x, y in zip(got._fields, got, want):
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        zs = np.asarray(zset)
        links = set(zip(side[K.copy_at[zs[want.a], zs[want.b]]].tolist(), want.cid.tolist()))
        split += not len(links) == len(dict(links)) == len({c for _, c in links})
        reached += 1
        fell += overlapped
    return reached, fell, split


def cycle_power(n: int, k: int):
    """C_n^k: vertex i sees i ± 1, ..., i ± k modulo n."""
    return build_graph(n, [(i, (i + d) % n) for i in range(n) for d in range(1, k + 1)])


class TestForcingClasses:
    def test_atlas(self, monkeypatch):
        graphs = (build_graph(g.number_of_nodes(), list(g.edges()))
                  for g in nx.graph_atlas_g()[1:])
        assert assert_forcing_classes_match(monkeypatch, graphs) == (819, 65, 0)

    def test_golden_corpora(self, monkeypatch):
        graphs = [G for G, _ in corpus()] + [parse_edge_list("\n".join(lines))
                                             for lines in twin_corpus()]
        reached, _, split = assert_forcing_classes_match(monkeypatch, graphs)
        assert (reached, split) == (10, 0)

    @pytest.mark.parametrize("lines", [path_lines(200), nested_lines(200)],
                             ids=["path", "nested"])
    def test_deep_shuffled(self, monkeypatch, lines):
        G = parse_edge_list("\n".join(shuffled(lines, 1)))
        assert assert_forcing_classes_match(monkeypatch, [G]) == (1, 0, 0)

    def test_fallback(self, monkeypatch):
        # the anchor overlaps 4 vertices, and Z takes 2 of them: 245 of the
        # 247 vertices it tolerates
        G = parse_edge_list("\n".join(edge_lines(300, 19, False)))
        assert assert_forcing_classes_match(monkeypatch, [G]) == (1, 1, 0)

    def test_cycles_and_powers(self, monkeypatch):
        # proper circular-arc inputs, C_n for n = 4..59 and C_n^k for
        # k = 2..4, on each of which the anchor overlaps some vertex
        graphs = [cycle_power(n, 1) for n in range(4, 60)]
        graphs += [cycle_power(n, k) for k in (2, 3, 4) for n in range(2 * k + 2, 60)]
        assert assert_forcing_classes_match(monkeypatch, graphs) == (212, 212, 0)

    def test_random_models(self, monkeypatch):
        # 400 seeded models on 4..60 vertices; 8 reduce to one vertex
        rng = random.Random(41)
        graphs = [model(rng, rng.randint(4, 60)) for model in (arc_model, interval_model)
                  for _ in range(200)]
        assert assert_forcing_classes_match(monkeypatch, graphs) == (392, 9, 0)

    def test_side_ids_split_a_class_past_an_overlapper(self, monkeypatch):
        # the complement of P_6 + K_2 is circular-arc; its anchor overlaps
        # four vertices and Y holds two that overlap each other.  K's safe
        # subgraphs drop that edge, which L's avoidance graphs keep, so the
        # side ids alone would split a class, and forcing_classes falls back
        g = nx.complement(nx.disjoint_union(nx.path_graph(6), nx.path_graph(2)))
        G = build_graph(8, sorted(g.edges()))
        assert recognize(G).verdict == POSITIVE
        assert assert_forcing_classes_match(monkeypatch, [G]) == (1, 1, 1)
