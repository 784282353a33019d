import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings

from circarc.arcs import ArcRepresentation
from circarc.check import (EdgeType, InternalError, TypedGraph, UnreducedGraphError,
                           _matrices, avoids, circular_pairs, classify_all,
                           completion_error)
from circarc import edgetypes
from circarc.delta import implication_classes, labelled_from_typed
from circarc.edgetypes import avoiding_labels, avoiding_rows, complete, completion_graph
from circarc.graph import (Graph, build_graph, disjoint_rows, pack_rows,
                           reduce as reduce_graph, unpack_rows)
from circarc.formats import parse_edge_list
from circarc.knotting import build_knotting
from arc_model_edges import nested_lines
from conftest import (ARC_LENGTHS, BICLAW_EDGES, _bfs_components, _dense_avoiding,
                      arc_length_model, arc_model, arcs_meet, classified_completion,
                      completion_of, fold_anchor, packed_avoiding, pairing_completion_error,
                      planted_negative, stepwise_avoids)
from test_golden import corpus as scale_corpus
from test_graph import random_graph_strategy


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def reduced_graphs(max_n):
    """All irreducible graphs on 2..max_n vertices (classifiable directly)."""
    for n in range(2, max_n + 1):
        for G in all_graphs(n):
            reduced, _ = reduce_graph(G)
            if reduced.n == G.n:
                yield G


def _iterative_completion(T):
    """Reference completion: one added vertex per step, types recomputed.

    Each step gives the least unpaired vertex v a new partner adjacent to
    every vertex whose closed neighbourhood is not inside N[v].
    """
    adj, names = T.graph.adj, list(T.graph.names)
    for _ in range(T.graph.n + 1):
        m = adj.shape[0]
        closed = adj | np.eye(m, dtype=bool)
        contains, spanning = _matrices(closed)
        unpaired = np.flatnonzero(~(spanning & ~closed).any(axis=1))
        if unpaired.size == 0:
            H = classify_all(Graph(m, adj, tuple(names)))
            return H, circular_pairs(H)
        v = int(unpaired[0])
        assert v < T.graph.n, "an added vertex failed to stay paired"
        row = ~contains[v]
        row[v] = False
        adj = np.block([[adj, row[:, None]], [row[None, :], np.zeros((1, 1), bool)]])
        names.append("~" + names[v])
    raise AssertionError("completion did not converge")


def random_arc_model(rng, n):
    """Graph of n arcs with distinct endpoints on a circle of 2n slots."""
    ends = list(range(2 * n))
    rng.shuffle(ends)
    rep = ArcRepresentation(2 * n, {v: (ends[2 * v], ends[2 * v + 1])
                                    for v in range(n)})
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if arcs_meet(rep, u, v)])


def seeded_graphs(count, seed=3):
    """Seeded G(n, p) graphs alternating with arc models, n <= 30."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(2, 30)
        if i % 2:
            yield random_arc_model(rng, n)
        else:
            p = rng.random()
            yield build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                  if rng.random() < p])


def _masked_types(G):
    """Edge types by masked assignment, one mask per type: the reference
    for classify_all's int8 arithmetic."""
    contains, spanning = _matrices(G.closed_adj())
    types = np.zeros((G.n, G.n), dtype=np.int8)
    incl = G.adj & (contains | contains.T)
    types[incl] = EdgeType.INCLUSION
    types[G.adj & ~incl & spanning] = EdgeType.OVERLAP2
    types[G.adj & ~incl & ~spanning] = EdgeType.OVERLAP1
    np.fill_diagonal(types, EdgeType.INCLUSION)
    return types


def reduced_gnp(rng, n):
    """A seeded G(n, 1/2) with no universal vertex and no true twins; at
    n = 2 only the edgeless graph qualifies."""
    while True:
        M = np.triu(rng.random((n, n)) < 0.5, 1)
        G = Graph(n, M | M.T, tuple(map(str, range(n))))
        if reduce_graph(G)[0].n == n:
            return G


class TestClassifyArithmetic:
    @staticmethod
    def assert_matches_masked(G):
        types = classify_all(G).types
        assert types.dtype == np.int8
        assert np.array_equal(types, _masked_types(G))

    def test_reduced_atlas(self):
        import networkx as nx
        for g in nx.graph_atlas_g():
            G = build_graph(g.number_of_nodes(), list(g.edges()))
            self.assert_matches_masked(reduce_graph(G)[0])

    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 150])
    def test_seeded(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            self.assert_matches_masked(reduced_gnp(rng, n))

    @pytest.mark.parametrize("seed", range(3))
    def test_bench_sized_completions(self, seed):
        rng = random.Random(seed)
        for G in (arc_model(rng, 100), planted_negative(rng, 85, "biclaw"),
                  planted_negative(rng, 85, "c4+k1")):
            self.assert_matches_masked(completion_of(G)[2].graph)


class TestClassify:
    def test_path_leaf_inclusion(self, p4):
        T = classify_all(p4)
        assert EdgeType(int(T.types[0, 1])) == EdgeType.INCLUSION
        assert T.contains[1, 0]  # N[a] inside N[b]

    def test_p3_middle_is_universal(self):
        P3 = build_graph(3, [(0, 1), (1, 2)], ["a", "b", "c"])
        with pytest.raises(UnreducedGraphError, match="universal vertex 'b'"):
            classify_all(P3)

    def test_biclaw_df_overlap1(self, biclaw):
        T = classify_all(biclaw)
        d, f = biclaw.index_of("d"), biclaw.index_of("f")
        assert EdgeType(int(T.types[d, f])) == EdgeType.OVERLAP1

    def test_p4_middle_overlap2(self, p4):
        T = classify_all(p4)
        assert EdgeType(int(T.types[1, 2])) == EdgeType.OVERLAP2

    def test_loops_are_inclusion(self, c4):
        T = classify_all(c4)
        assert all(EdgeType(int(T.types[v, v])) == EdgeType.INCLUSION for v in range(4))

    def test_universal_vertex_rejected(self):
        with pytest.raises(UnreducedGraphError):
            classify_all(build_graph(3, [(0, 1), (0, 2)]))

    @pytest.mark.parametrize("field", ["types", "contains", "spanning"])
    def test_arrays_are_read_only(self, biclaw, field):
        # a run's stage checks read the classifications its stages made,
        # so no stage may write into them
        with pytest.raises(ValueError, match="read-only"):
            getattr(classify_all(biclaw), field)[0, 1] = 0

    def test_true_twins_rejected(self):
        # triangle abc with a path c-d-e: a and b are true twins, named as in G
        G = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], list("abcde"))
        with pytest.raises(UnreducedGraphError, match="true twins 'a', 'b'"):
            classify_all(G)

    def test_trichotomy(self):
        for G in reduced_graphs(4):
            T = classify_all(G)
            for u in range(G.n):
                for v in range(u + 1, G.n):
                    t = EdgeType(int(T.types[u, v]))
                    assert (t == EdgeType.NONEDGE) == (not G.adj[u, v])
                    if t == EdgeType.OVERLAP2:
                        assert T.spanning[u, v]
                    if t == EdgeType.INCLUSION:
                        assert T.contains[u, v] or T.contains[v, u]


class TestCircularPairs:
    def test_c4(self, c4):
        assert circular_pairs(classify_all(c4)).tolist() == [2, 3, 0, 1]

    def test_biclaw_none(self, biclaw):
        assert circular_pairs(classify_all(biclaw)).tolist() == [-1] * 7

    def test_p4(self, p4):
        assert circular_pairs(classify_all(p4)).tolist() == [2, 3, 0, 1]

    def test_two_partners_named(self):
        # the InternalError guards a structural guarantee, so the spanning
        # matrix is made by hand: x spans with y and with z
        G = build_graph(3, [], ["x", "y", "z"])
        spanning = ~np.eye(3, dtype=bool)
        T = TypedGraph(G, np.zeros((3, 3), dtype=np.int8), np.eye(3, dtype=bool), spanning)
        with pytest.raises(InternalError, match="^vertex 'x' has two circular partners$"):
            circular_pairs(T)


class TestComplete:
    def test_biclaw_completion(self, biclaw):
        H, partner = complete(classify_all(biclaw))
        assert H.graph.n == 14
        idx = H.graph.index_of
        for name in "abcd":
            bar = idx("~" + name)
            missing = H.graph.closed_neighborhood(bar) ^ set(range(14))
            assert missing == {idx(name)}
        assert (partner >= 0).sum() == 14

    def test_added_names_stay_distinct(self):
        # b renamed "~a": a's partner takes one more "~"
        G = parse_edge_list(BICLAW_EDGES.replace("b", "~a"))
        H, partner = complete(classify_all(G))
        names = H.graph.names
        assert len(set(names)) == len(names)
        assert partner[names.index("~~a")] == names.index("a")
        assert partner[names.index("~~~a")] == names.index("~a")

    def test_near_biclaw_completion(self, near_biclaw):
        H, _ = complete(classify_all(near_biclaw))
        assert H.graph.n == 12

    def test_p4_is_its_own_completion(self, p4):
        T = classify_all(p4)
        H, _ = complete(T)
        assert H.graph.n == 4
        assert np.array_equal(H.graph.adj, p4.adj)

    def test_cardinality_law(self):
        for G in reduced_graphs(4):
            T = classify_all(G)
            s = (circular_pairs(T) >= 0).sum()
            H, _ = complete(T)
            assert H.graph.n == 2 * G.n - s

    def test_types_preserved(self):
        for G in reduced_graphs(4):
            T = classify_all(G)
            H, _ = complete(T)
            assert np.array_equal(H.types[:G.n, :G.n], T.types)

    def test_idempotent(self):
        for G in reduced_graphs(4):
            H, _ = complete(classify_all(G))
            H2, _ = complete(H)
            assert H2.graph.n == H.graph.n

    def test_passes_the_completion_check(self):
        # complete does not check its output; the certificate checker's
        # completion check accepts it, and each added vertex is paired with
        # the original it was added for
        for G in reduced_graphs(4):
            T = classify_all(G)
            H, partner = complete(T)
            assert completion_error(T, H) is None
            assert np.array_equal(partner[G.n:], np.flatnonzero(partner[:G.n] >= G.n))

    def test_original_circular_pairs_survive(self):
        for G in reduced_graphs(4):
            T = classify_all(G)
            before = circular_pairs(T)
            H, partner = complete(T)
            paired = before >= 0
            assert np.array_equal(partner[:G.n][paired], before[paired])


class TestClosedFormCompletion:
    @staticmethod
    def assert_matches_reference(G):
        T = classify_all(G)
        H, partner = complete(T)
        H_ref, partner_ref = _iterative_completion(T)
        assert np.array_equal(H.graph.adj, H_ref.graph.adj)
        assert H.graph.names == H_ref.graph.names
        assert np.array_equal(partner, partner_ref)

    def test_reduced_graphs(self):
        for G in reduced_graphs(5):
            self.assert_matches_reference(G)

    def test_atlas(self):
        import networkx as nx
        checked = 0
        for g in nx.graph_atlas_g():
            G = build_graph(g.number_of_nodes(), list(g.edges()))
            reduced, _ = reduce_graph(G)
            if reduced.n >= 2:
                self.assert_matches_reference(reduced)
                checked += 1
        assert checked == 1245

    def test_seeded_random_and_arc_models(self):
        checked = 0
        for G in seeded_graphs(200):
            reduced, _ = reduce_graph(G)
            if reduced.n >= 2:
                self.assert_matches_reference(reduced)
                checked += 1
        assert checked >= 150

    @settings(max_examples=150, deadline=None)
    @given(random_graph_strategy(max_n=12))
    def test_first_principles(self, G):
        reduced, _ = reduce_graph(G)
        assume(reduced.n >= 2)
        T = classify_all(reduced)
        H, partner = complete(T)
        assert completion_error(T, H) is None
        n0 = reduced.n
        nbhd = [reduced.closed_neighborhood(u) for u in range(n0)]
        for bar in range(n0, H.graph.n):
            v = partner[bar]
            seen = {u for u in range(n0) if H.graph.adj[bar, u]}
            assert seen == {u for u in range(n0)
                            if u != v and not nbhd[u] <= nbhd[v]}


def _product_completion_graph(T):
    """The completion's adjacency by the completion's rule as written, a
    packed product over the unpaired rows: the reference for
    ``completion_graph``, which reads it off T's spanning relation.

    ~v sees the originals u != v with N[u] not inside N[v]; ~v and ~w are
    apart iff N[v] is not inside N[w] and N[w] holds N[u] for every u
    outside N[v].
    """
    not_c, not_n = ~T.contains, ~T.graph.closed_adj()
    unpaired = np.flatnonzero(~(T.spanning & not_n).any(axis=1))
    cross = not_c[unpaired]
    apart = cross[:, unpaired] & disjoint_rows(cross, not_n[unpaired])
    n, k = T.graph.n, len(unpaired)
    added = ~apart
    np.fill_diagonal(added, False)
    adj = np.block([[T.graph.adj, cross.T], [cross, added]])
    names = list(T.graph.names)
    for v in unpaired:
        name = "~" + names[v]
        while name in names:
            name = "~" + name
        names.append(name)
    return Graph(n + k, adj, tuple(names))


class TestDerivedClassification:
    """complete derives the completion's classification and pairing from
    the input's; they equal ``classify_all`` of the completion graph and
    its ``circular_pairs`` (``conftest.classified_completion``).  The
    completion graph, read off the input's relations, equals the product
    reference ``_product_completion_graph``: adjacency and names."""

    @staticmethod
    def check(G):
        reduced = reduce_graph(G)[0]
        if reduced.n < 2:
            return 0
        T = classify_all(reduced)
        classified_completion(T)
        got, want = completion_graph(T), _product_completion_graph(T)
        assert np.array_equal(got.adj, want.adj) and got.names == want.names
        return 1

    def test_reduced_graphs(self):
        assert sum(map(self.check, reduced_graphs(4))) == 30

    def test_atlas(self):
        import networkx as nx
        graphs = (build_graph(g.number_of_nodes(), list(g.edges())) for g in nx.graph_atlas_g())
        assert sum(map(self.check, graphs)) == 1245

    def test_arc_length_models(self):
        checked = {}
        for family in ARC_LENGTHS:
            rng = random.Random(family)
            graphs = [arc_length_model(rng, rng.randint(2, 30), family) for _ in range(150)]
            checked[family] = sum(map(self.check, graphs))
        assert checked == {"uniform": 140, "short": 150, "near-equal": 130, "long": 127}

    def test_seeded_gnp(self):
        rng = np.random.default_rng(47)
        graphs = []
        for _ in range(300):
            n, p = int(rng.integers(2, 41)), rng.random()
            M = np.triu(rng.random((n, n)) < p, 1)
            graphs.append(Graph(n, M | M.T, tuple(map(str, range(n)))))
        assert sum(map(self.check, graphs)) == 289

    def test_scale_corpus(self):
        assert sum(self.check(G) for G, _ in scale_corpus()) == 10


def _toggled(H, u, v):
    """H's graph with the edge uv toggled, classified afresh."""
    adj = H.graph.adj.copy()
    adj[u, v] = adj[v, u] = not adj[u, v]
    return classify_all(Graph(H.graph.n, adj, H.graph.names))


class TestVerifyCompletion:
    def test_accepts_constructed(self, biclaw):
        T = classify_all(biclaw)
        H, _ = complete(T)
        assert completion_error(T, H) is None

    def test_rejects_wrong_cardinality(self, biclaw):
        T = classify_all(biclaw)
        assert completion_error(T, T) == "wrong completion cardinality"

    def test_c4_self_completion(self, c4):
        T = classify_all(c4)
        assert completion_error(T, T) is None

    def test_names_first_clause(self, biclaw, c4):
        T = classify_all(biclaw)
        err = completion_error(T, classify_all(c4))
        assert err == "completion smaller than input"

    def test_rejects_missing_last_added_vertex(self, biclaw):
        T = classify_all(biclaw)
        H, _ = complete(T)
        Ht = classify_all(H.graph.induced(range(H.graph.n - 1)))
        assert completion_error(T, Ht) == "wrong completion cardinality"

    def test_rejects_toggled_original_to_added_edge(self, biclaw):
        T = classify_all(biclaw)
        H, _ = complete(T)
        idx = H.graph.index_of
        Ht = _toggled(H, idx("f"), idx("~d"))
        assert completion_error(T, Ht) == "edge types not preserved"

    def test_names_vertex_without_partner(self, biclaw):
        # ~a and ~g become adjacent; a, the least vertex left unpaired,
        # is named by its name
        T = classify_all(biclaw)
        H, _ = complete(T)
        idx = H.graph.index_of
        Ht = _toggled(H, idx("~a"), idx("~g"))
        assert completion_error(T, Ht) == "vertex 'a' has no circular partner"


def _completion_verdicts(Gt, Ht):
    """(old, new): whether the pairing-based reference, given the pairing
    circular_pairs derives, and completion_error accept Ht as a completion
    of Gt.  A vertex with two circular partners rejects under both."""
    try:
        old = pairing_completion_error(Gt, Ht, circular_pairs(Ht)) is None
    except InternalError:
        old = False
    try:
        new = completion_error(Gt, Ht) is None
    except InternalError:
        new = False
    return old, new


class TestCompletionCheckReference:
    """completion_error(Gt, Ht) accepts exactly what the pairing-based check
    accepted when handed the pairing circular_pairs derives from Ht."""

    def test_atlas_completions_and_added_edge_toggles(self):
        import networkx as nx
        completions = toggles = rejected = 0
        for g in nx.graph_atlas_g():
            G = build_graph(g.number_of_nodes(), list(g.edges()))
            reduced, _ = reduce_graph(G)
            if reduced.n < 2:
                continue
            T = classify_all(reduced)
            H, _ = complete(T)
            assert _completion_verdicts(T, H) == (True, True)
            completions += 1
            if reduced.n > 6:
                continue
            for u, v in itertools.combinations(range(reduced.n, H.graph.n), 2):
                try:
                    Ht = _toggled(H, u, v)
                except UnreducedGraphError:
                    continue  # classify_all rejects it before any completion check
                old, new = _completion_verdicts(T, Ht)
                assert old == new, (g.edges(), u, v)
                toggles += 1
                rejected += not new
        assert completions == 1245
        assert (toggles, rejected) == (4158, 4158)

    def test_spanning_pairs_span_in_induced_subgraphs(self):
        # why completion_error needs no check that two added vertices are
        # partners: Ht's circular pairs among Gt's vertices are Gt's own
        import networkx as nx
        checked = 0
        for g in nx.graph_atlas_g():
            G = build_graph(g.number_of_nodes(), list(g.edges()))
            if G.n > 6:
                break
            spanning = _matrices(G.closed_adj())[1]
            for w in range(G.n):
                S = [v for v in range(G.n) if v != w]
                sub = _matrices(G.induced(S).closed_adj())[1]
                assert not (spanning[np.ix_(S, S)] & ~sub).any()
                checked += 1
        assert checked == 1167


class TestAvoids:
    def test_asteroidal_path(self, biclaw):
        T = classify_all(biclaw)
        idx = biclaw.index_of
        walk = [idx(v) for v in "afdgb"]
        assert avoids(T, idx("c"), walk)

    def test_loop_convention(self, p4):
        T = classify_all(p4)
        assert avoids(T, 3, [0, 0])       # d non-adjacent to a
        assert avoids(T, 2, [1, 1])       # c overlaps b
        assert not avoids(T, 1, [0, 0])   # b includes a

    def test_overlap_neighbor_ok(self, p4):
        T = classify_all(p4)
        assert avoids(T, 2, [0, 1])

    def test_vertex_never_avoids_itself(self, p4):
        T = classify_all(p4)
        assert not avoids(T, 1, [0, 1, 2])

    def test_jumped_overlap_edge(self):
        # z overlaps both ends of the overlap edge x-y; private leaves
        # w1, w2, w3 keep the three neighborhoods incomparable
        z, x, y, w1, w2, w3 = range(6)
        G = build_graph(6, [(z, x), (z, y), (x, y), (x, w1), (y, w2), (z, w3)])
        T = classify_all(G)
        assert avoids(T, z, [x, x])
        assert not avoids(T, z, [x, y])

    def test_malformed_walk(self, p4):
        T = classify_all(p4)
        with pytest.raises(ValueError):
            avoids(T, 3, [0, 2])

    def test_matches_stepwise_reference(self):
        # every one- and two-vertex walk, and seeded longer walks (most
        # along edges), at six seeded anchors of a completion
        rng = random.Random(5)
        H = completion_of(planted_negative(rng, 20, "biclaw"))[2]
        m = H.graph.n
        walks = [[x] for x in range(m)] + [list(e) for e in itertools.product(range(m), repeat=2)]
        closed = H.graph.closed_adj()
        for _ in range(500):
            walk = [rng.randrange(m)]
            for _ in range(rng.randint(2, 5)):  # along edges, or anywhere
                at = np.flatnonzero(closed[walk[-1]]) if rng.random() < 0.9 else range(m)
                walk.append(int(rng.choice(at)))
            walks.append(walk)
        for z in rng.sample(range(m), 6):
            for walk in walks:
                try:
                    want = stepwise_avoids(H, z, walk)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc)):
                        avoids(H, z, walk)
                else:
                    assert avoids(H, z, walk) == want, (z, walk)

    def test_matrix_matches_walk_check(self):
        # the matrix form agrees with the walk check on every edge and loop,
        # at six seeded anchors of each completion
        rng = random.Random(21)
        for G in seeded_graphs(12, seed=21):
            reduced, _ = reduce_graph(G)
            if reduced.n < 2:
                continue
            H, _ = complete(classify_all(reduced))
            closed = H.graph.closed_adj()
            overlap = ((H.types == EdgeType.OVERLAP1)
                       | (H.types == EdgeType.OVERLAP2))
            included = H.types == EdgeType.INCLUSION
            edges = np.argwhere(closed).tolist()
            for z in rng.sample(range(H.graph.n), min(H.graph.n, 6)):
                M = _dense_avoiding(closed, overlap, included, z)
                assert not (M & ~closed).any()
                assert [bool(M[x, y]) for x, y in edges] == \
                    [avoids(H, z, [x, y]) for x, y in edges]

    @staticmethod
    def masks(H):
        overlap = (H.types == EdgeType.OVERLAP1) | (H.types == EdgeType.OVERLAP2)
        return H.graph.closed_adj(), overlap, H.types == EdgeType.INCLUSION

    def test_packed_rows_unpack_to_dense_reference(self):
        # |H| > 128, so every row spans three or more words; one anchor, and
        # two as the knotting graph's safe subgraphs take them
        H = completion_of(arc_model(random.Random(7), 100))[2]
        n = H.graph.n
        assert n > 128
        dense = self.masks(H)
        for z in range(n):
            want = _dense_avoiding(*dense, z)
            assert np.array_equal(packed_avoiding(*dense, [z]), want)
            also = (7 * z + 3) % n
            assert np.array_equal(packed_avoiding(*dense, [z, also]),
                                  want & _dense_avoiding(*dense, also))
        # the padding past column n stays clear
        closed, overlap, _ = map(pack_rows, dense)
        rows = avoiding_rows(closed, overlap, np.arange(n), overlap[0], dense[1][:, 0])
        assert not (rows & ~pack_rows(np.ones(n, dtype=bool))).any()

    def test_packed_rows_of_an_anchor_subset(self):
        # one anchor row per row of vs, as the labeller gathers a frontier
        # over a block of anchors; anchors may repeat
        H = completion_of(arc_model(random.Random(6), 30))[2]
        n = H.graph.n
        dense = self.masks(H)
        closed, overlap, _ = map(pack_rows, dense)
        zs = np.array([4, 0, 4, n - 1])
        vs = np.tile(np.arange(n), len(zs))
        by_row = np.repeat(zs, n)
        rows = avoiding_rows(closed, overlap, vs, overlap[by_row], dense[1][vs, by_row])
        for i, z in enumerate(zs.tolist()):
            want = _dense_avoiding(*dense, z)
            got = unpack_rows(rows[i * n:(i + 1) * n], n)
            on = ~dense[2][z]  # avoiding_rows leaves these to the caller
            assert np.array_equal(got & on & on[:, None], want)


class TestAvoidingLabels:
    @staticmethod
    def counted_blocks(monkeypatch):
        """The anchor count of every block labelled from now on."""
        sizes = []
        real = edgetypes._label_block

        def counted(closed, overlap, included, zs):
            sizes.append(len(zs))
            return real(closed, overlap, included, zs)

        monkeypatch.setattr(edgetypes, "_label_block", counted)
        return sizes

    def test_matches_dense_reference(self, monkeypatch):
        # each anchor's labels are its avoidance matrix's, ANDed with also's
        H = completion_of(arc_model(random.Random(8), 30))[2]
        n = H.graph.n
        dense = TestAvoids.masks(H)
        packed = tuple(map(pack_rows, dense))
        sizes = self.counted_blocks(monkeypatch)
        for also in (None, 0, n - 1):
            rows = packed if also is None else fold_anchor(packed, also)
            got = avoiding_labels(*rows, np.arange(n))
            for z in range(n):
                M = _dense_avoiding(*dense, z)
                if also is not None:
                    M &= _dense_avoiding(*dense, also)
                assert got[z].tolist() == _bfs_components(M).tolist()
        assert sizes == [n] * 3  # every anchor in one block
        zs = np.array([5, 2, 5])
        folded = fold_anchor(packed, 3)
        got = avoiding_labels(*folded, zs)
        assert np.array_equal(got, avoiding_labels(*folded, np.arange(n))[zs])
        assert avoiding_labels(*packed, zs[:0]).shape == (0, n)

    def test_blocks_of_one_anchor_keep_the_labels(self, monkeypatch):
        # the knotting graph and the delta classes, labelled a block of
        # anchors at a time, do not depend on the block size
        rng = random.Random(11)
        graphs = [arc_model(rng, 40), arc_model(rng, 25),
                  planted_negative(rng, 30, "biclaw"),
                  planted_negative(rng, 30, "c4+k1"),
                  parse_edge_list("\n".join(nested_lines(60)))]
        cases = []
        for G in graphs:
            H = completion_of(G)[2]
            zs = np.flatnonzero(H.graph.adj.sum(axis=1) > 0)[:3].tolist()
            cases.append((H, zs, labelled_from_typed(H, list(range(0, H.graph.n, 2)))))

        def run():
            out = []
            for H, zs, L in cases:
                Ks = [build_knotting(H, z) for z in zs]
                out.append(([(K.copies.tolist(), K.copy_at.tolist(), K.adjacency) for K in Ks],
                            [x.tolist() for x in implication_classes(L)]))
            return out

        sizes = self.counted_blocks(monkeypatch)
        whole = run()
        assert max(sizes) > 1
        anchors = sum(sizes)
        sizes.clear()
        monkeypatch.setattr(edgetypes, "AVOID_WORDS", 1)
        assert run() == whole
        assert set(sizes) == {1} and len(sizes) == anchors


class TestDeepLabels:
    """The labeller on graphs whose avoidance components are long paths,
    so that it runs about n lock-step levels, not the handful of dense
    random graphs."""

    @pytest.mark.parametrize("graph", ["path", "cycle", "path-shuffled", "cycle-shuffled"])
    @pytest.mark.parametrize("words", [None, 1])
    def test_matches_dense_reference(self, monkeypatch, graph, words):
        # P_200, and C_200 + K_1 with the isolated vertex last; both are
        # reduced, so their own classification is the one to label.  Shuffled
        # ids put the restarts of a block's graphs in other orders
        n = 200
        if graph.startswith("path"):
            G = build_graph(n, [(i, i + 1) for i in range(n - 1)])
        else:
            G = build_graph(n + 1, [(i, (i + 1) % n) for i in range(n)])
        if graph.endswith("shuffled"):
            ids = list(range(G.n))
            random.Random(1).shuffle(ids)
            G = G.induced(ids)
        H = classify_all(G)
        m = H.graph.n
        dense = TestAvoids.masks(H)
        packed = tuple(map(pack_rows, dense))
        zs = np.array([0, 1, 57, m // 2, m - 2, m - 1])
        if words is not None:
            monkeypatch.setattr(edgetypes, "AVOID_WORDS", words)
        levels = []
        real = edgetypes.avoiding_rows

        def counted(*args):  # called once per level of a block
            levels.append(1)
            return real(*args)

        monkeypatch.setattr(edgetypes, "avoiding_rows", counted)
        for also in (None, 3, m - 1):
            rows = packed if also is None else fold_anchor(packed, also)
            levels.clear()
            got = avoiding_labels(*rows, zs)
            assert len(levels) >= n // 2 * (1 if words is None else len(zs))
            for k, z in enumerate(zs.tolist()):
                M = _dense_avoiding(*dense, z)
                if also is not None:
                    M &= _dense_avoiding(*dense, also)
                assert got[k].tolist() == _bfs_components(M).tolist(), (also, z)


class TestCompletionUniqueness:
    def test_isomorphic_under_reversal(self):
        import networkx as nx
        for G in reduced_graphs(4):
            H1, _ = complete(classify_all(G))
            perm = list(range(G.n))[::-1]
            G2 = G.induced(perm)
            H2, _ = complete(classify_all(G2))
            g1 = nx.from_numpy_array(H1.graph.adj)
            g2 = nx.from_numpy_array(H2.graph.adj)
            assert nx.is_isomorphic(g1, g2)


class TestPairNeighborhoodLaws:
    def test_pair_neighborhood_laws(self):
        for n in range(2, 5):
            for G in all_graphs(n):
                reduced, _ = reduce_graph(G)
                if reduced.n < 2:
                    continue
                H, partner = completion_of(G)[2:]
                closed = H.graph.closed_adj()
                for u, v in enumerate(partner.tolist()):
                    for w in range(H.graph.n):
                        if w in (u, v):
                            continue
                        contains_uw = not (closed[w] & ~closed[u]).any()
                        assert contains_uw == (not closed[v, w])
                        inside_uw = not (closed[u] & ~closed[w]).any()
                        assert inside_uw == bool(
                            H.types[v, w] == 2 and H.graph.adj[v, w])
                        assert (H.types[u, w] == 1) == (H.types[v, w] == 1)
