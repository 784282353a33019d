import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circarc.arcs import ArcRepresentation, expand_arcs
from circarc.check import representation_error
from circarc.graph import (Graph, GraphError, MergeTwins, ReductionStep,
                           ReductionTrace, RemoveUniversal, bfs, build_graph,
                           components, disjoint_rows, pack_rows, reduce,
                           sorted_unique, tree_path, unpack_rows)
from conftest import _bfs_components


def random_graph_strategy(max_n=7):
    @st.composite
    def graphs(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        return build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
    return graphs()


def seeded_gnp(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 30)
    return nx.gnp_random_graph(n, rng.uniform(0.03, 0.4), seed=seed), rng


def _loop_reduce(G: Graph) -> tuple[Graph, ReductionTrace]:
    """Reference reduction: one step at a time to a fixed point.

    Universal removals are preferred over twin merges at each step; ties go
    to the smallest index.  Twin merges keep the smaller index.  Reduction
    stops once fewer than two vertices remain.
    """
    live = list(range(G.n))
    adj = G.adj.copy()
    steps: list[ReductionStep] = []
    while len(live) >= 2:
        idx = np.array(live, dtype=int)
        sub = adj[np.ix_(idx, idx)]
        closed = sub | np.eye(len(live), dtype=bool)
        universal = np.flatnonzero(closed.all(axis=1))
        if universal.size:
            pos = int(universal[0])
            steps.append(RemoveUniversal(live[pos]))
            del live[pos]
            continue
        twin = None
        for a in range(len(live)):
            for b in range(a + 1, len(live)):
                if sub[a, b] and np.array_equal(closed[a], closed[b]):
                    twin = (a, b)
                    break
            if twin:
                break
        if twin is None:
            break
        a, b = twin
        steps.append(MergeTwins(live[a], live[b]))
        del live[b]
    reduced = G.induced(live)
    return reduced, ReductionTrace(G.n, steps, list(live))


def _loop_expand(trace: ReductionTrace, rep: ArcRepresentation) -> ArcRepresentation:
    """Reference expansion: undo the steps in reverse on a list of slot tags.

    A reinstated twin gets a fresh tag inserted just before its kept
    vertex's left tag and one just after its right tag; a reinstated
    universal vertex appends three fresh tags and covers all but the middle
    one.  The circle is the final tag list.
    """
    if set(rep.arcs) != set(range(len(trace.survivors))):
        raise ValueError("representation does not match the reduced graph")
    next_tag = rep.circle_size
    circle = list(range(rep.circle_size))
    arcs = {trace.survivors[i]: lr for i, lr in rep.arcs.items()}
    for step in reversed(trace.steps):
        if isinstance(step, MergeTwins):
            l_k, r_k = arcs[step.kept]
            a, b = next_tag, next_tag + 1
            next_tag += 2
            circle.insert(circle.index(l_k), a)
            circle.insert(circle.index(r_k) + 1, b)
            arcs[step.removed] = (a, b)
        else:
            assert isinstance(step, RemoveUniversal)
            s1, s2, s3 = next_tag, next_tag + 1, next_tag + 2
            next_tag += 3
            circle.extend([s1, s2, s3])
            # wraps the whole circle, missing only s2
            arcs[step.vertex] = (s3, s1)
    pos = {tag: i for i, tag in enumerate(circle)}
    out = {v: (pos[l], pos[r]) for v, (l, r) in arcs.items()}
    return ArcRepresentation(len(circle), out)


def planted_blowup(seed):
    """Random graph with true-twin classes and universal vertices planted,
    its vertex indices shuffled."""
    rng = random.Random(seed)
    k = rng.randint(1, 14)
    base = nx.gnp_random_graph(k, rng.uniform(0.1, 0.9), seed=seed)
    cls = [c for v in range(k) for c in [v] * rng.randint(1, 4)]
    cls += [k] * rng.randint(0, 2)  # class k: universal vertices
    n = len(cls)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
             if k in (cls[i], cls[j]) or cls[i] == cls[j]
             or base.has_edge(cls[i], cls[j])]
    return build_graph(n, edges)


def wide_blowup(n, seed):
    """Random graph on exactly n >= 4 vertices with true-twin classes and
    universal vertices planted, so that its closed rows fill several 64-bit
    words.  Vertex n - 1 is z, alone in its class.  Classes 0 and 1 form a
    clique, meet every other class alike, and differ only in that class 0
    meets z: their closed rows differ only at column n - 1, in the last word.
    The other vertices are shuffled over 0..n-2."""
    rng = random.Random(seed)
    cls = [0] * rng.randint(1, 3) + [1] * rng.randint(1, 3) + [2]
    while len(cls) < n - 1:  # classes of 1-6 twins; about 1 in 40 is universal
        cls += [-1 if rng.random() < 0.025 else max(cls) + 1] * rng.randint(1, 6)
    cls = cls[:n - 1]
    rng.shuffle(cls)
    z, k = n - 1, max(cls) + 1
    base = nx.gnp_random_graph(k, rng.uniform(0.2, 0.8), seed=seed)
    base.add_edge(0, 1)
    base.remove_edges_from([(0, 2), (1, 2)])  # so neither class is universal
    for c in range(2, k):  # class 1 meets other classes as class 0 does
        if base.has_edge(0, c) != base.has_edge(1, c):
            base.remove_edge(*((0, c) if base.has_edge(0, c) else (1, c)))
    meets_z = [c == 0 or (c > 1 and rng.random() < 0.5) for c in range(k)]
    edges = [(i, j) for i in range(n - 1) for j in range(i + 1, n - 1)
             if -1 in (cls[i], cls[j]) or cls[i] == cls[j]
             or base.has_edge(cls[i], cls[j])]
    edges += [(i, z) for i in range(n - 1) if cls[i] == -1 or meets_z[cls[i]]]
    return build_graph(n, edges)


def random_reduced_rep(rng, s):
    """Arcs for vertices 0..s-1 with distinct endpoints on a circle with up
    to three spare slots, dealt at random so that about half of them wrap
    (l > r); when s > 0, one arc ends on the last slot."""
    c = 2 * s + rng.randint(0, 3)
    slots = rng.sample(range(c - 1), 2 * s - 1) + [c - 1] if s else []
    rng.shuffle(slots)
    i = slots.index(c - 1) if s else 0
    if i % 2 == 0 and s:  # c - 1 is a left end: swap it with its right end
        slots[i], slots[i + 1] = slots[i + 1], slots[i]
    return ArcRepresentation(c, {v: (slots[2 * v], slots[2 * v + 1]) for v in range(s)})


def depths(parent, order):
    depth = {}
    for v in order:
        depth[v] = 0 if parent[v] is None else depth[parent[v]] + 1
    return depth


class TestSearch:
    @pytest.mark.parametrize("seed", range(12))
    def test_depth_is_distance(self, seed):
        G, rng = seeded_gnp(seed)
        root = rng.randrange(G.number_of_nodes())
        parent = {}
        order = bfs(parent, root, lambda v: sorted(G[v]))
        assert depths(parent, order) == nx.single_source_shortest_path_length(G, root)
        assert set(parent) == set(order) and len(order) == len(set(order))

    @pytest.mark.parametrize("seed", range(12))
    def test_visit_order_is_breadth_first(self, seed):
        G, rng = seeded_gnp(seed)
        root = rng.randrange(G.number_of_nodes())
        parent = {}
        order = bfs(parent, root, lambda v: sorted(G[v]))
        pos = {v: i for i, v in enumerate(order)}
        # a first-in first-out queue: each node hangs off its earliest-visited
        # neighbour, and children come in the order of their parents
        for v in order[1:]:
            assert parent[v] == min(G[v], key=pos.__getitem__)
        assert [pos[parent[v]] for v in order[1:]] == sorted(pos[parent[v]] for v in order[1:])
        for v in order:  # siblings in the order neighbours lists them
            kids = [w for w in order if parent[w] == v]
            assert kids == [w for w in sorted(G[v]) if w in kids]

    def test_known_nodes_are_not_revisited(self):
        arcs = {"a": ["b", "e"], "b": ["c"], "c": ["d"], "d": [], "e": ["c"]}
        parent = {}
        assert bfs(parent, "b", arcs.__getitem__) == ["b", "c", "d"]
        assert bfs(parent, "a", arcs.__getitem__) == ["a", "e"]
        assert parent == {"b": None, "c": "b", "d": "c", "a": None, "e": "a"}

    @pytest.mark.parametrize("seed", range(6))
    def test_forest_across_roots(self, seed):
        G, _ = seeded_gnp(seed)
        parent = {}
        trees = [bfs(parent, r, lambda v: sorted(G[v]))
                 for r in G if r not in parent]
        assert sorted(map(set, trees), key=min) == sorted(nx.connected_components(G), key=min)
        assert all(parent[t[0]] is None for t in trees)

    @pytest.mark.parametrize("seed", range(6))
    def test_tree_path(self, seed):
        G, rng = seeded_gnp(seed)
        parent = {}
        trees = [bfs(parent, r, lambda v: sorted(G[v]))
                 for r in G if r not in parent]
        for tree in trees:
            a, b = rng.choice(tree), rng.choice(tree)
            path = tree_path(parent, a, b)
            assert path[0] == a and path[-1] == b
            assert all(G.has_edge(x, y) for x, y in zip(path, path[1:]))
            assert len(path) == len(set(path))
            assert len(tree_path(parent, tree[0], b)) - 1 == nx.shortest_path_length(G, tree[0], b)

    def test_tree_path_across_trees_raises(self):
        G = nx.Graph([(0, 1), (2, 3)])
        parent = {}
        bfs(parent, 0, G.neighbors)
        bfs(parent, 2, G.neighbors)
        with pytest.raises(ValueError, match="different trees"):
            tree_path(parent, 1, 3)


class TestComponents:
    @staticmethod
    def networkx_labels(M):
        """Least member per component of the graph M induces on its
        diagonal, len(M) off the diagonal."""
        n = M.shape[0]
        on = np.flatnonzero(M.diagonal()).tolist()
        G = nx.Graph()
        G.add_nodes_from(on)
        G.add_edges_from((u, v) for u in on for v in on if u != v and M[u, v])
        want = np.full(n, n)
        for comp in nx.connected_components(G):
            want[list(comp)] = min(comp)
        return want

    @staticmethod
    def labellers(M):
        """The labels of M from the reference and from the stack labeller,
        which reads M as a stack of one graph whose vertices are M's
        diagonal."""
        return (_bfs_components(M).tolist(),
                components(pack_rows(M)[None], M.diagonal()[None])[0].tolist())

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_networkx(self, seed):
        G, rng = seeded_gnp(seed)
        n = G.number_of_nodes()
        M = nx.to_numpy_array(G, nodelist=range(n), dtype=bool)
        # off-diagonal vertices keep their edges, which must not join anything
        M[np.diag_indices(n)] = [rng.random() < 0.8 for _ in range(n)]
        want = self.networkx_labels(M).tolist()
        assert self.labellers(M) == (want, want)

    def test_off_diagonal_vertex_does_not_bridge(self):
        # 0 - 1 - 2 is a path, but 1 is off the diagonal
        M = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=bool)
        assert self.labellers(M) == ([0, 3, 2], [0, 3, 2])

    def test_empty(self):
        assert _bfs_components(np.zeros((0, 0), dtype=bool)).shape == (0,)
        rows = np.zeros((2, 0, 0), dtype=np.uint64)
        assert components(rows, np.zeros((2, 0), dtype=bool)).shape == (2, 0)

    def test_no_members(self):
        M = np.ones((3, 3), dtype=bool) & ~np.eye(3, dtype=bool)
        assert self.labellers(M) == ([3, 3, 3], [3, 3, 3])

    @staticmethod
    def random_stack(rng, k, n):
        """k random graphs on subsets of 0..n-1: each a boolean matrix,
        symmetric among its vertices (its diagonal), with random bits in the
        rows and columns of the other vertices."""
        stack = np.zeros((k, n, n), dtype=bool)
        for g in range(k):
            p = rng.choice([0.0, 1.5 / max(n, 1), 4.0 / max(n, 1), 0.3])
            M = np.triu(rng.random((n, n)) < p, 1)
            M |= M.T
            off = rng.random(n) >= 0.7
            M |= (rng.random((n, n)) < 0.5) & (off[:, None] | off[None, :])
            M[np.diag_indices(n)] = ~off
            stack[g] = M
        return stack

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
    def test_stack_matches_reference(self, n):
        rng = np.random.default_rng(n)
        stack = self.random_stack(rng, 7, n)
        on = stack.diagonal(axis1=1, axis2=2)
        got = components(pack_rows(stack), on)
        assert got.shape == (7, n)
        for g in range(7):
            assert got[g].tolist() == _bfs_components(stack[g]).tolist()

    def test_padding_bits_are_ignored(self):
        # bits past column n in the last word name no vertex
        rng = np.random.default_rng(7)
        stack = self.random_stack(rng, 4, 70)
        on = stack.diagonal(axis1=1, axis2=2)
        rows = pack_rows(stack)
        rows[..., -1] |= ~pack_rows(np.ones(70, dtype=bool))[-1]
        assert np.array_equal(components(rows, on), components(pack_rows(stack), on))

    @pytest.mark.parametrize("n", [65, 130, 200])
    def test_strided_word_major_stack(self, n):
        # edgetypes.avoiding returns the (k, n, w) view of a (k, w, n) stack
        rng = np.random.default_rng(n)
        stack = self.random_stack(rng, 5, n)
        on = stack.diagonal(axis1=1, axis2=2)
        rows = pack_rows(stack)
        strided = np.ascontiguousarray(rows.transpose(0, 2, 1)).transpose(0, 2, 1)
        assert not strided.flags.c_contiguous and np.array_equal(strided, rows)
        assert np.array_equal(unpack_rows(strided, n), stack)
        assert np.array_equal(components(strided, on), components(rows, on))

    def test_pack_round_trip(self):
        rng = np.random.default_rng(3)
        for c in (0, 1, 63, 64, 65, 130):
            M = rng.random((3, 4, c)) < 0.5
            words = pack_rows(M)
            assert words.shape == (3, 4, (c + 63) // 64)
            assert np.array_equal(unpack_rows(words, c), M)


def _product_disjoint_rows(A, B):
    """The int32 0/1 product: the reference for the bit-packed kernel."""
    return (A.astype(np.int32) @ B.T.astype(np.int32)) == 0


def random_rows(rng, p, k):
    """p boolean rows of width k, dense enough that two rows meet about half
    the time."""
    density = (1 - 0.5 ** (1 / k)) ** 0.5 if k else 0.0
    return rng.random((p, k)) < density


class TestDisjointRows:
    @pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 130])
    def test_matches_product(self, width):
        rng = np.random.default_rng(width)
        for p, q in [(0, 0), (0, 4), (4, 0), (1, 1), (9, 5), (40, 70)]:
            A, B = random_rows(rng, p, width), random_rows(rng, q, width)
            got = disjoint_rows(A, B)
            assert got.dtype == np.bool_ and got.shape == (p, q)
            assert np.array_equal(got, _product_disjoint_rows(A, B))
        if width:
            assert 0 < got.sum() < got.size  # both outcomes occur

    @pytest.mark.parametrize("width", [2, 63, 64, 65, 130])
    def test_transposed_inputs(self, width):
        rng = np.random.default_rng(100 + width)
        A = random_rows(rng, width, 50).T  # 50 rows of the given width
        B = random_rows(rng, width, 30).T
        assert not A.flags.c_contiguous
        assert np.array_equal(disjoint_rows(A, B), _product_disjoint_rows(A, B))
        S = random_rows(rng, width, width)
        assert np.array_equal(disjoint_rows(S, S.T), _product_disjoint_rows(S, S.T))

    def test_more_rows_than_one_block(self):
        rng = np.random.default_rng(3)
        # 2**13 words per block: 200 rows of B give 40 rows of A a block
        for width in (64, 130):
            A, B = random_rows(rng, 500, width), random_rows(rng, 200, width)
            assert np.array_equal(disjoint_rows(A, B), _product_disjoint_rows(A, B))

    def test_identity_and_complement(self):
        eye = np.eye(70, dtype=bool)
        assert np.array_equal(disjoint_rows(eye, eye), ~eye)
        assert np.array_equal(disjoint_rows(eye, ~eye), eye)


class TestSortedUnique:
    def test_matches_np_unique(self):
        rng = np.random.default_rng(5)
        for size, high in [(0, 1), (1, 1), (7, 3), (1000, 50), (5000, 10**9)]:
            for dtype in (np.intp, np.int64, np.int32):
                keys = rng.integers(-high, high, size, endpoint=True).astype(dtype)
                got = sorted_unique(keys)
                want = np.unique(keys)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
                if size > high:  # repeats were drawn
                    assert got.size < size


class TestBuildGraph:
    def test_biclaw(self, biclaw):
        assert biclaw.n == 7
        assert len(biclaw.edges()) == 6
        d, f = biclaw.index_of("d"), biclaw.index_of("f")
        assert biclaw.adjacent(d, f)

    def test_single_vertex_has_implicit_loop(self):
        G = build_graph(1, [])
        assert G.adjacent(0, 0)
        assert not G.adj[0, 0]

    def test_c4(self, c4):
        assert sorted(c4.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_duplicate_edge_tolerated(self):
        G = build_graph(2, [(0, 1), (1, 0), (0, 1)])
        assert G.edges() == [(0, 1)]

    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            build_graph(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            build_graph(2, [(0, 2)])


class TestClosedNeighborhood:
    def test_biclaw_d(self, biclaw):
        idx = biclaw.index_of
        assert biclaw.closed_neighborhood(idx("d")) == {
            idx("d"), idx("f"), idx("g"), idx("h")}

    def test_single_vertex(self):
        G = build_graph(1, [])
        assert G.closed_neighborhood(0) == {0}

    def test_c4(self, c4):
        assert c4.closed_neighborhood(0) == {3, 0, 1}

    def test_always_contains_self(self, biclaw):
        for v in range(biclaw.n):
            assert v in biclaw.closed_neighborhood(v)


class TestReduce:
    def test_k3_collapses(self):
        K3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        reduced, trace = reduce(K3)
        assert reduced.n == 1
        assert trace.steps == [RemoveUniversal(0), RemoveUniversal(1)]

    def test_biclaw_irreducible(self, biclaw):
        reduced, trace = reduce(biclaw)
        assert reduced.n == 7
        assert trace.steps == []

    def test_c4_irreducible(self, c4):
        reduced, trace = reduce(c4)
        assert reduced.n == 4
        assert trace.steps == []

    def test_universal_first_then_classes_by_least_member(self):
        # 1 and 4 are universal; {0, 3, 5} and {2, 6} are true-twin classes
        edges = [(u, v) for u in (1, 4) for v in range(7) if u != v]
        edges += [(0, 3), (0, 5), (3, 5), (2, 6)]
        reduced, trace = reduce(build_graph(7, edges))
        assert trace.steps == [RemoveUniversal(1), RemoveUniversal(4),
                               MergeTwins(0, 3), MergeTwins(0, 5),
                               MergeTwins(2, 6)]
        assert trace.survivors == [0, 2]
        assert reduced.names == ("0", "2") and not reduced.adj.any()

    def test_matches_loop_reference(self):
        graphs = [build_graph(g.number_of_nodes(), list(g.edges()))
                  for g in nx.graph_atlas_g()]
        graphs += [planted_blowup(seed) for seed in range(150)]
        for G in graphs:
            reduced, trace = reduce(G)
            ref, ref_trace = _loop_reduce(G)
            assert (trace.steps, trace.survivors, trace.n_original) == (
                ref_trace.steps, ref_trace.survivors, ref_trace.n_original)
            assert np.array_equal(reduced.adj, ref.adj) and reduced.names == ref.names
        assert sum(G.n == 0 for G in graphs) == 1 and max(G.n for G in graphs) > 40

    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129, 200])
    def test_rows_of_several_words_match_loop_reference(self, n):
        for seed in range(3):
            G = wide_blowup(n, seed)
            reduced, trace = reduce(G)
            ref, ref_trace = _loop_reduce(G)
            assert (trace.steps, trace.survivors, trace.n_original) == (
                ref_trace.steps, ref_trace.survivors, ref_trace.n_original)
            assert np.array_equal(reduced.adj, ref.adj) and reduced.names == ref.names
            # two adjacent survivors whose closed rows differ only in the last
            # column, so only in the last word, are kept apart
            rows = G.closed_adj()[trace.survivors]
            near = (rows[:, None, :-1] == rows[None, :, :-1]).all(axis=2)
            assert (near & reduced.adj).any()
            assert len(trace.steps) > n // 3

    @given(random_graph_strategy())
    @settings(deadline=None, max_examples=60)
    def test_idempotent(self, G):
        reduced, _ = reduce(G)
        again, trace = reduce(reduced)
        assert trace.steps == []
        assert np.array_equal(again.adj, reduced.adj)

    @given(random_graph_strategy())
    @settings(deadline=None, max_examples=60)
    def test_no_universal_no_twins_left(self, G):
        reduced, _ = reduce(G)
        if reduced.n < 2:
            return
        closed = reduced.closed_adj()
        assert not closed.all(axis=1).any()
        for a in range(reduced.n):
            for b in range(a + 1, reduced.n):
                if reduced.adj[a, b]:
                    assert not np.array_equal(closed[a], closed[b])


class TestExpandArcs:
    def test_identity_on_empty_trace(self, c4):
        _, trace = reduce(c4)
        rep = ArcRepresentation(8, {0: (0, 2), 1: (1, 4), 2: (3, 6), 3: (5, 7)})
        out = expand_arcs(trace, rep)
        assert out.arcs == rep.arcs

    def test_k2_twin(self):
        K2 = build_graph(2, [(0, 1)])
        _, trace = reduce(K2)
        rep = ArcRepresentation(4, {0: (0, 1)})
        out = expand_arcs(trace, rep)
        assert representation_error(K2, out) is None

    def test_k3(self):
        K3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        _, trace = reduce(K3)
        out = expand_arcs(trace, ArcRepresentation(4, {0: (0, 1)}))
        assert representation_error(K3, out) is None

    def test_universal_vertex(self):
        # star plus center: center is universal, leaves become twins
        G = build_graph(3, [(0, 1), (0, 2)])
        reduced, trace = reduce(G)
        assert any(isinstance(s, RemoveUniversal) for s in trace.steps)
        base = ArcRepresentation(4, {i: (2 * i, 2 * i + 1)
                                     for i in range(reduced.n)})
        assert representation_error(G, expand_arcs(trace, base)) is None

    def test_mismatched_representation(self):
        K2 = build_graph(2, [(0, 1)])
        _, trace = reduce(K2)
        with pytest.raises(ValueError):
            expand_arcs(trace, ArcRepresentation(4, {0: (0, 1), 1: (2, 3)}))

    @staticmethod
    def assert_matches_loop(trace, rep):
        got, want = expand_arcs(trace, rep), _loop_expand(trace, rep)
        assert got.circle_size == want.circle_size
        assert got.arcs == want.arcs

    def test_matches_loop_reference(self):
        graphs = [build_graph(g.number_of_nodes(), list(g.edges()))
                  for g in nx.graph_atlas_g()]
        graphs += [planted_blowup(seed) for seed in range(150)]
        rng = random.Random(5)
        wraps = last = 0
        for G in graphs:
            _, trace = reduce(G)
            rep = random_reduced_rep(rng, len(trace.survivors))
            self.assert_matches_loop(trace, rep)
            wraps += sum(l > r for l, r in rep.arcs.values())
            last += any(r == rep.circle_size - 1 for _, r in rep.arcs.values())
        assert wraps > 1000 and last == len(graphs) - 1  # all but the empty graph

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_complete_graph_keeps_its_last_vertex(self, n):
        _, trace = reduce(build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)]))
        assert trace.survivors == [n - 1]
        assert trace.steps == [RemoveUniversal(v) for v in range(n - 1)]
        for rep in (ArcRepresentation(2, {0: (0, 1)}), ArcRepresentation(3, {0: (2, 0)})):
            self.assert_matches_loop(trace, rep)

    def test_many_twins_per_kept_vertex(self):
        rng = random.Random(11)
        for n in (65, 129, 200):
            G = wide_blowup(n, n)
            _, trace = reduce(G)
            kept = [s.kept for s in trace.steps if isinstance(s, MergeTwins)]
            assert max(map(kept.count, kept)) >= 4
            for _ in range(3):
                self.assert_matches_loop(trace, random_reduced_rep(rng, len(trace.survivors)))

    def test_steps_not_grouped_by_kept_vertex(self):
        rng = random.Random(13)
        for seed in range(40):
            _, trace = reduce(planted_blowup(seed))
            steps = trace.steps[:]
            rng.shuffle(steps)  # twins of one kept vertex and universal vertices interleave
            shuffled = ReductionTrace(trace.n_original, steps, trace.survivors)
            self.assert_matches_loop(shuffled, random_reduced_rep(rng, len(trace.survivors)))

    @pytest.mark.parametrize("trace", [
        ReductionTrace(3, [MergeTwins(0, 2), MergeTwins(2, 1)], [0]),  # kept 2 was removed
        ReductionTrace(3, [MergeTwins(2, 1), MergeTwins(0, 2)], [0]),
        ReductionTrace(3, [RemoveUniversal(1), MergeTwins(1, 2)], [0]),  # kept 1 is universal
        ReductionTrace(2, [MergeTwins(0, 1)], [0, 1]),  # removed 1 survives
        ReductionTrace(2, [RemoveUniversal(1)], [0, 1]),  # universal 1 survives
        ReductionTrace(3, [MergeTwins(0, 1), MergeTwins(0, 1)], [0, 2]),  # 1 removed twice
        ReductionTrace(3, [MergeTwins(0, 1)], [0]),  # 2 is missing
        ReductionTrace(2, [MergeTwins(0, 5)], [0, 1]),  # 5 is out of range
        ReductionTrace(2, [MergeTwins(7, 1)], [0]),
    ])
    def test_malformed_trace(self, trace):
        rep = ArcRepresentation(2 * len(trace.survivors),
                                {i: (2 * i, 2 * i + 1) for i in range(len(trace.survivors))})
        with pytest.raises(ValueError, match="malformed reduction trace"):
            expand_arcs(trace, rep)


class TestGraphValidation:
    def test_asymmetric_rejected(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(GraphError):
            Graph(2, adj, ("a", "b"))

    def test_duplicate_names_rejected(self):
        with pytest.raises(GraphError):
            build_graph(2, [], ["x", "x"])

    def test_induced_subgraph(self, biclaw):
        sub = biclaw.induced([0, 1, 2])
        assert sub.names == ("d", "f", "a")
        assert sub.adjacent(0, 1) and not sub.adjacent(0, 2)
