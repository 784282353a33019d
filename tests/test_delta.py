import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import networkx as nx
from hypothesis import assume, given, settings, strategies as st

import circarc
from circarc import delta
from circarc.delta import (DeltaInvertiblePair, Label, LabelledGraph, Pair,
                           implication_classes, interval_orientation,
                           labelled_from_typed, ordering_violation,
                           verify_interval_ordering)
from circarc.check import EdgeType, InternalError, classify_all
from circarc.edgetypes import complete
from circarc.formats import parse_edge_list, write_edge_list
from circarc.graph import build_graph, sorted_unique
from circarc.knotting import build_knotting, build_Z, overlap_side
from arc_model_edges import nested_lines, short_lines
from conftest import (_dense_avoiding, arc_model, bfs, completion_of, labels_on_Z,
                      make_labelled, packed_avoiding, tree_path)


def overlap_path():
    # ab Overlap, bc Overlap, ac NonEdge
    return make_labelled(3, overlaps=[(0, 1), (1, 2)])


def random_labelled(rng, n):
    """Random consistent labelling: an edge may carry the Inclusion label
    only when the containment it asserts holds in the edge graph itself,
    and the chosen inclusion edges are closed under chaining."""
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(u + 1, n):
            adj[u, v] = adj[v, u] = rng.random() < 0.5
    closed = adj.copy()
    np.fill_diagonal(closed, True)

    def outer(u, v):
        # u's closed neighborhood covers v's, ties broken by index
        if (closed[v] & ~closed[u]).any():
            return False
        return not np.array_equal(closed[u], closed[v]) or u < v

    inside = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(n):
            if u != v and adj[u, v] and outer(u, v) and rng.random() < 0.5:
                inside[u, v] = True
    changed = True
    while changed:
        changed = False
        for a, b, c in itertools.permutations(range(n), 3):
            if inside[a, b] and inside[b, c] and not inside[a, c]:
                inside[a, c] = True
                changed = True
    labels = np.where(adj, Label.OVERLAP, Label.NONEDGE).astype(np.int8)
    labels[inside | inside.T] = Label.INCLUSION
    np.fill_diagonal(labels, Label.INCLUSION)
    return LabelledGraph(n, labels, inside)


def label_avoids(L: LabelledGraph, x: int, y: int, z: int) -> bool:
    """Reference for edgetypes.avoiding_rows, one triple at a time from the labels."""
    if x != y and L.labels[x, y] == Label.NONEDGE:
        return False
    if L.labels[x, z] == Label.INCLUSION or L.labels[y, z] == Label.INCLUSION:
        return False
    if z in (x, y):
        return False
    if (L.labels[x, z] == Label.OVERLAP and L.labels[y, z] == Label.OVERLAP
            and x != y and L.labels[x, y] == Label.OVERLAP):
        return False
    return True


def delta_step(L: LabelledGraph, p: Pair, q: Pair) -> bool:
    """Single forcing step between two ordered pairs sharing a coordinate."""
    if p[1] == q[1] and label_avoids(L, p[0], q[0], p[1]):
        return True
    if p[0] == q[0] and label_avoids(L, p[1], q[1], p[0]):
        return True
    return False


def avoid_at(L, z):
    """The shared avoidance matrix of L's labels at anchor z."""
    return _dense_avoiding(L.labels != Label.NONEDGE, L.labels == Label.OVERLAP,
                           L.labels == Label.INCLUSION, z)


def _bfs_implication_classes(L: LabelledGraph):
    """Breadth-first closure of the single forcing step, seeded in
    lexicographic order: the reference for implication_classes.  Returns
    the classes as pair sets, each class's inverse, class_of and the BFS
    forest, whose trees are the classes, each rooted at its least pair."""
    n = L.n
    # avoid[z, x, y]: the edge xy (a loop when x = y) label-avoids z
    closed, overlap = L.labels != Label.NONEDGE, L.labels == Label.OVERLAP
    included = L.labels == Label.INCLUSION
    avoid = np.empty((n, n, n), dtype=bool)
    for z in range(n):
        avoid[z] = _dense_avoiding(closed, overlap, included, z)
    active = [(int(a), int(b)) for a in range(n) for b in range(n)
              if a != b and L.labels[a, b] != Label.INCLUSION]

    def forced(p: Pair) -> list[Pair]:
        # (a,b) -> (c,b) when edge ac avoids b; -> (a,c) when bc avoids a
        a, b = p
        return ([(c, b) for c in np.flatnonzero(avoid[b, a]).tolist()]
                + [(a, c) for c in np.flatnonzero(avoid[a, b]).tolist()])

    class_of: dict[Pair, int] = {}
    parent: dict = {}
    classes: list[frozenset[Pair]] = []
    for seed in active:
        if seed in parent:
            continue
        members = bfs(parent, seed, forced)
        class_of.update(dict.fromkeys(members, len(classes)))
        classes.append(frozenset(members))
    inverse = [class_of[(b, a)] for a, b in map(min, classes)]
    return classes, inverse, class_of, parent


def forcing_chain(L: LabelledGraph, p: Pair, q: Pair) -> list[Pair]:
    """Forcing chain from p to q, replayed over the reference's BFS forest:
    up from p to the common ancestor and down to q."""
    return tree_path(_bfs_implication_classes(L)[3], p, q)


def class_sets(cls):
    """The arrays of implication_classes as Python sets: each class's pair
    set, in class order, and class_of."""
    pairs = list(zip(cls.a.tolist(), cls.b.tolist()))
    classes = [set() for _ in range(cls.inverse.size)]
    for p, k in zip(pairs, cls.cid.tolist()):
        classes[k].add(p)
    return [frozenset(c) for c in classes], dict(zip(pairs, cls.cid.tolist()))


def span(pairs) -> frozenset[int]:
    return frozenset(itertools.chain.from_iterable(pairs))


class NonUniformQuotientLabel(InternalError):
    """A vertex outside a module of the recursive reference sees it unevenly."""


class TournamentNotTransitive(InternalError):
    """A spanning class of the recursive reference orients a cycle."""


def check_module(L: LabelledGraph, module: list[int]) -> None:
    """The recursive reference's module check: every vertex outside the
    module sees it with one label and, on inclusion edges, one direction."""
    inside_set = set(module)
    for x in [v for v in range(L.n) if v not in inside_set]:
        labs = {int(L.labels[x, s]) for s in module}
        if len(labs) != 1:
            raise NonUniformQuotientLabel(f"vertex {x} sees mixed labels in module")
        if labs == {int(Label.INCLUSION)}:
            dirs = {bool(L.inside[x, s]) for s in module}
            if len(dirs) != 1:
                raise NonUniformQuotientLabel(f"vertex {x} sees mixed directions")


def induced(L: LabelledGraph, vertices: list[int]) -> LabelledGraph:
    """The labelled subgraph of L on a vertex list, validated afresh."""
    idx = np.ix_(vertices, vertices)
    return LabelledGraph(len(vertices), L.labels[idx], L.inside[idx])


def _recursive_order_vertices(L: LabelledGraph, visit=None,
                              vertices=None) -> list[int]:
    """Order L by recursing on modules, a stack frame per module level, with
    the classes of each level computed afresh: the reference for the
    work-stack delta.interval_orientation.  Exceptions name vertices of the level
    that raised them.  visit, if given, is called with each level's vertices
    as the list of their indices in the outermost L."""
    n = L.n
    vertices = list(range(n)) if vertices is None else vertices
    if visit is not None:
        visit(vertices)
    if n <= 1:
        return list(range(n))
    a, b, cid, inverse = implication_classes(L)
    k = inverse.size
    self_inverse = np.flatnonzero(inverse == np.arange(k))
    if self_inverse.size:
        i = int(np.argmax(cid == self_inverse[0]))  # the class's least pair
        raise DeltaInvertiblePair((int(a[i]), int(b[i])))
    # span members as keys cid*n + v, sorted by class and then by vertex
    members = sorted_unique(np.concatenate([cid * n + a, cid * n + b]))
    size = np.bincount(members // n, minlength=k)
    proper = np.flatnonzero(size < n)
    if proper.size:
        narrowest = proper[np.argmin(size[proper])]
        return _recursive_splice_module(
            L, (members[members // n == narrowest] % n).tolist(), visit, vertices)
    rel = np.zeros((n, n), dtype=bool)
    if k:
        if k != 2 or inverse[0] != 1:
            raise InternalError("expected exactly one spanning class up to reversal")
        first = cid == 0  # the class of the least pair
        rel[a[first], b[first]] = True
        if (rel & rel.T).any():
            raise InternalError("spanning class contains a pair and its reversal")
    tournament = rel | L.inside
    deg = tournament.sum(axis=1)
    order = sorted(range(n), key=lambda u: (-int(deg[u]), u))
    gaps = np.argwhere(np.triu(~tournament[np.ix_(order, order)], 1))
    if gaps.size:
        i, j = gaps[0]
        raise TournamentNotTransitive(f"orientation cyclic at {order[i]},{order[j]}")
    return order


def _recursive_splice_module(L: LabelledGraph, module: list[int], visit,
                             vertices: list[int]) -> list[int]:
    """Order L by contracting the module to its least vertex and recursing
    on the quotient, then on the module."""
    check_module(L, module)
    rep = module[0]
    quotient = [v for v in range(L.n) if v == rep or v not in module]
    qorder = _recursive_order_vertices(induced(L, quotient), visit,
                                       [vertices[v] for v in quotient])
    sorder = _recursive_order_vertices(induced(L, module), visit,
                                       [vertices[v] for v in module])
    order: list[int] = []
    for qi in qorder:
        v = quotient[qi]
        order.extend([module[si] for si in sorder] if v == rep else [v])
    return order


def _loop_ordering_violation(L: LabelledGraph, order: list[int]):
    """The pattern check as a loop over the middle position, five masks per
    step: the reference for ordering_violation.  Its first triple is by
    middle position, then pattern, then (a, c)."""
    n = L.n
    idx = np.array(order, dtype=int)
    lab = L.labels[np.ix_(idx, idx)]
    non = lab == Label.NONEDGE
    ov = lab == Label.OVERLAP
    inc = lab == Label.INCLUSION
    np.fill_diagonal(inc, False)
    edge = ov | inc
    for bpos in range(1, n - 1):
        a_rng = slice(0, bpos)
        c_rng = slice(bpos + 1, n)
        an, ao, ai = non[a_rng, bpos], ov[a_rng, bpos], inc[a_rng, bpos]
        cn, co, ci = non[bpos, c_rng], ov[bpos, c_rng], inc[bpos, c_rng]
        ac_n = non[a_rng, c_rng]
        ac_e = edge[a_rng, c_rng]
        ac_o = ov[a_rng, c_rng]
        ac_i = inc[a_rng, c_rng]
        pats = [
            (an[:, None] & ac_e, "i"),
            (ai[:, None] & ac_n & (co | ci)[None, :], "ii"),
            (ao[:, None] & ac_e & cn[None, :], "iii"),
            (ao[:, None] & co[None, :] & ac_i, "iv"),
            (ai[:, None] & ci[None, :] & ac_o, "v"),
        ]
        for m, name in pats:
            if m.any():
                ai_, ci_ = map(int, np.argwhere(m)[0])
                return (name, order[ai_], order[bpos], order[ci_ + bpos + 1])
    return None


EDGE = {Label.OVERLAP, Label.INCLUSION}
# the labels of (a, b), (b, c) and (a, c) in each forbidden pattern
PATTERNS = {
    "i": ({Label.NONEDGE}, set(Label), EDGE),
    "ii": ({Label.INCLUSION}, EDGE, {Label.NONEDGE}),
    "iii": ({Label.OVERLAP}, {Label.NONEDGE}, EDGE),
    "iv": ({Label.OVERLAP}, {Label.OVERLAP}, {Label.INCLUSION}),
    "v": ({Label.INCLUSION}, {Label.INCLUSION}, {Label.OVERLAP}),
}


def matches_pattern(L: LabelledGraph, order: list[int], triple) -> bool:
    """The triple (name, a, b, c) has a < b < c in the order and the labels
    of its named pattern."""
    name, a, b, c = triple
    if not order.index(a) < order.index(b) < order.index(c):
        return False
    return all(int(L.labels[u, v]) in want
               for (u, v), want in zip(((a, b), (b, c), (a, c)), PATTERNS[name]))


def orders_to_check(seed: int):
    """(L, order) cases for the interval stage: every order of random
    labelled graphs on at most six vertices, then the constructed order of
    a few seeded arc models and perturbed copies of it (a swap of two
    vertices or one vertex moved)."""
    rng = random.Random(seed)
    for n in [1, 2, 3, 3, 4, 4, 4, 5, 5, 5, 5, 6, 6]:
        L = random_labelled(rng, n)
        for p in itertools.permutations(range(n)):
            yield L, list(p)
    for model in range(3):
        L = labels_on_Z(arc_model(random.Random(model), 36))[3]
        order = interval_orientation(L)
        yield L, order
        for _ in range(40):
            moved = list(order)
            i, j = rng.sample(range(L.n), 2)
            if rng.random() < 0.5:
                moved[i], moved[j] = moved[j], moved[i]
            else:
                moved.insert(j, moved.pop(i))
            yield L, moved


class TestLabelledGraph:
    @staticmethod
    def fan(middles):
        # 0 -> v -> last for every middle v, but 0 -> last missing
        n = middles + 2
        inside = np.zeros((n, n), dtype=bool)
        inside[0, 1:-1] = inside[1:-1, -1] = True
        labels = np.full((n, n), Label.NONEDGE, dtype=np.int8)
        labels[inside | inside.T] = Label.INCLUSION
        np.fill_diagonal(labels, Label.INCLUSION)
        return n, labels, inside

    @pytest.mark.parametrize("middles", [127, 128])
    def test_non_transitive_orientation_rejected(self, middles):
        # 128 two-step paths once wrapped an int8 product to -128
        with pytest.raises(ValueError, match="transitive"):
            LabelledGraph(*self.fan(middles))

    @pytest.mark.parametrize("array,cell,value,message", [
        ("labels", (0, 2), Label.OVERLAP, "labels must be symmetric"),
        ("labels", (2, 2), Label.OVERLAP, "loops must be labelled inclusion"),
        ("inside", (0, 1), False, "orientation must cover exactly the inclusion edges"),
        ("inside", (1, 0), True, "orientation must be antisymmetric"),
    ], ids=["asymmetric", "loop", "uncovered", "both-ways"])
    def test_malformed_labelling_rejected(self, array, cell, value, message):
        # 0 contains 1, 1 overlaps 2, 0 misses 2, with one entry changed
        L = make_labelled(3, overlaps=[(1, 2)], inclusions=[(0, 1)])
        arrays = {"labels": L.labels.copy(), "inside": L.inside.copy()}
        arrays[array][cell] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            LabelledGraph(3, arrays["labels"], arrays["inside"])


class TestAvoiding:
    def test_matches_label_avoids(self):
        rng = random.Random(13)
        for _ in range(60):
            L = random_labelled(rng, rng.randint(1, 6))
            dense = (L.labels != Label.NONEDGE, L.labels == Label.OVERLAP,
                     L.labels == Label.INCLUSION)
            for z in range(L.n):
                M = avoid_at(L, z)
                assert np.array_equal(packed_avoiding(*dense, [z]), M)
                for x in range(L.n):
                    for y in range(L.n):
                        assert M[x, y] == label_avoids(L, x, y, z)

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(3, 6))
    def test_straddled_avoided_edge_violates_ordering(self, rng, n):
        # a vertex strictly inside an edge it avoids always matches pattern
        # (i), (iii) or (iv), so interval_orientation needs no separate check
        L = random_labelled(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        pos = {v: i for i, v in enumerate(order)}
        assume(any(avoid_at(L, z)[x, y]
                   for x, y, z in itertools.permutations(range(n), 3)
                   if pos[x] < pos[z] < pos[y]))
        assert ordering_violation(L, order) is not None


class TestOrderingViolation:
    def test_matches_loop_reference(self):
        seen = set()
        for L, order in orders_to_check(7):
            got = ordering_violation(L, order)
            want = _loop_ordering_violation(L, order)
            assert (got is None) == (want is None), (L.labels, order)
            if got is not None:
                assert matches_pattern(L, order, got), (L.labels, order, got)
            seen.add(got and got[0])
        assert seen == {None, *PATTERNS}

    def test_first_by_pattern_then_pair_then_middle(self):
        # pattern iii at (0, 1, 2) and pattern i at (1, 2, 3): the first
        # pattern wins, where the loop took the first middle position
        L = make_labelled(4, overlaps=[(0, 1), (0, 2), (1, 3)])
        assert ordering_violation(L, [0, 1, 2, 3]) == ("i", 1, 2, 3)
        assert _loop_ordering_violation(L, [0, 1, 2, 3]) == ("iii", 0, 1, 2)
        # both 1 and 2 fit as b in (0, b, 3): the least is named
        L = make_labelled(4, overlaps=[(0, 3)])
        assert ordering_violation(L, [0, 1, 2, 3]) == ("i", 0, 1, 3)

    @pytest.mark.parametrize("order", [[0, 1], [0, 1, 1], [0, 1, 3]])
    def test_not_a_permutation(self, order):
        with pytest.raises(ValueError, match="^order must be a permutation of the vertices$"):
            ordering_violation(make_labelled(3), order)


class TestDeltaStep:
    def test_avoiding_edge_forces(self):
        L = overlap_path()
        assert delta_step(L, (0, 2), (1, 2))

    def test_loop_step(self):
        L = overlap_path()
        assert delta_step(L, (0, 1), (0, 1))
        assert not delta_step(L, (0, 0), (0, 0))

    def test_double_overlap_blocks(self):
        L = make_labelled(3, overlaps=[(0, 1), (1, 2), (0, 2)])
        assert not delta_step(L, (0, 2), (1, 2))

    def test_inclusion_end_blocks(self):
        L = make_labelled(3, overlaps=[(0, 1)], inclusions=[(1, 2)])
        assert not label_avoids(L, 0, 1, 2)


class TestImplicationClasses:
    def test_single_overlap_edge(self):
        L = make_labelled(2, overlaps=[(0, 1)])
        cls = implication_classes(L)
        classes, _ = class_sets(cls)
        assert classes == [frozenset({(0, 1)}), frozenset({(1, 0)})]
        assert cls.inverse.tolist() == [1, 0]

    def test_overlap_path_closure(self):
        classes, _ = class_sets(implication_classes(overlap_path()))
        assert frozenset({(0, 1), (0, 2), (1, 2)}) in classes
        assert frozenset({(1, 0), (2, 0), (2, 1)}) in classes

    def test_all_inclusion_no_classes(self):
        L = make_labelled(3, inclusions=[(0, 1), (1, 2), (0, 2)])
        cls = implication_classes(L)
        assert cls.a.size == cls.b.size == cls.cid.size == cls.inverse.size == 0

    def test_partition_and_inverse_bijection(self):
        rng = random.Random(5)
        for _ in range(30):
            L = random_labelled(rng, rng.randint(2, 5))
            cls = implication_classes(L)
            classes, _ = class_sets(cls)
            seen = set()
            for k, c in enumerate(classes):
                assert c and not (c & seen)
                seen |= c
                inv = classes[cls.inverse[k]]
                assert inv == frozenset((b, a) for a, b in c)
            want = {(a, b) for a in range(L.n) for b in range(L.n)
                    if a != b and L.labels[a, b] != Label.INCLUSION}
            assert seen == want

    @staticmethod
    def assert_matches_reference(L, chains):
        cls = implication_classes(L)
        classes, inverse, class_of, parent = _bfs_implication_classes(L)
        pairs = sorted(class_of)
        assert list(zip(cls.a.tolist(), cls.b.tolist())) == pairs
        assert cls.cid.tolist() == [class_of[p] for p in pairs]
        assert cls.inverse.tolist() == inverse
        for c in classes[:chains]:
            root, *rest = sorted(c)
            for q in rest[:3]:
                # the chain runs inside the class, step by step, from root to q
                chain = tree_path(parent, root, q)
                assert chain[0] == root and chain[-1] == q
                assert all(class_of[p] == class_of[root] for p in chain)
                for p, r in zip(chain, chain[1:]):
                    assert delta_step(L, p, r)
                assert tree_path(parent, q, root) == chain[::-1]

    def test_matches_bfs_reference_random(self):
        rng = random.Random(17)
        for _ in range(200):
            self.assert_matches_reference(random_labelled(rng, rng.randint(0, 12)), 3)

    @pytest.mark.parametrize("seed,n", [(5, 40), (2, 56), (3, 68), (4, 80)])
    def test_matches_bfs_reference_arc_models(self, seed, n):
        L = labels_on_Z(arc_model(random.Random(seed), n))[3]
        assert L.n >= 20
        self.assert_matches_reference(L, 5)

    @pytest.mark.parametrize("seed,n", [(7, 35), (2, 35), (17, 34), (17, 38),
                                        (19, 30), (19, 38), (27, 30)])
    def test_matches_bfs_reference_mid_arc_models(self, seed, n):
        # |Z| of 14-26: more than two classes at (7, 35) and (2, 35), and
        # two hooking rounds of union_find at the others
        L = labels_on_Z(arc_model(random.Random(seed), n))[3]
        assert L.n >= 12
        self.assert_matches_reference(L, 5)

    def test_one_union_find_edge_per_active_pair(self, monkeypatch):
        calls = []
        real = delta.union_find

        def spy(m, src, dst):
            calls.append((m, len(src), len(dst)))
            return real(m, src, dst)

        monkeypatch.setattr(delta, "union_find", spy)
        rng = random.Random(23)
        cases = [random_labelled(rng, rng.randint(2, 9)) for _ in range(20)]
        cases.append(labels_on_Z(arc_model(random.Random(7), 35))[3])
        for L in cases:
            calls.clear()
            cls = implication_classes(L)
            assert calls == [(cls.a.size,) * 3]

    def test_chain_across_classes_rejected(self):
        # the reference forest has one tree per class
        L = make_labelled(2, overlaps=[(0, 1)])
        with pytest.raises(ValueError, match="different trees"):
            forcing_chain(L, (0, 1), (1, 0))

    def test_chain_replay(self):
        L = overlap_path()
        chain = forcing_chain(L, (0, 1), (1, 2))
        assert chain[0] == (0, 1) and chain[-1] == (1, 2)
        for p, q in zip(chain, chain[1:]):
            assert delta_step(L, p, q)


class TestSpan:
    def test_singleton(self):
        L = make_labelled(2, overlaps=[(0, 1)])
        classes, _ = class_sets(implication_classes(L))
        assert span(classes[0]) == {0, 1}

    def test_closure_span(self):
        classes, _ = class_sets(implication_classes(overlap_path()))
        assert span(max(classes, key=len)) == {0, 1, 2}

    def test_span_equals_inverse_span(self):
        rng = random.Random(11)
        for _ in range(20):
            L = random_labelled(rng, rng.randint(2, 5))
            cls = implication_classes(L)
            classes, _ = class_sets(cls)
            for k, c in enumerate(classes):
                assert span(c) == span(classes[cls.inverse[k]])


def _loop_labelled_from_typed(T, vertices: list[int]):
    """(labels, inside) of T restricted to vertices, pair by pair: the
    reference for labelled_from_typed."""
    label_of = {EdgeType.NONEDGE: Label.NONEDGE, EdgeType.OVERLAP1: Label.OVERLAP,
                EdgeType.OVERLAP2: Label.OVERLAP, EdgeType.INCLUSION: Label.INCLUSION}
    k = len(vertices)
    labels = np.zeros((k, k), dtype=np.int8)
    inside = np.zeros((k, k), dtype=bool)
    for i, u in enumerate(vertices):
        for j, v in enumerate(vertices):
            labels[i, j] = label_of[EdgeType(int(T.types[u, v]))]
            inside[i, j] = u != v and bool(T.contains[u, v])
    return labels, inside


class TestLabelledFromTyped:
    def test_matches_loop_reference_on_atlas_completions(self):
        # every atlas graph's completion, at its full vertex set and at two
        # random subsets in random order
        rng = random.Random(59)
        restrictions = 0
        for g in nx.graph_atlas_g()[1:]:
            H = completion_of(build_graph(g.number_of_nodes(), list(g.edges())))[2]
            n = H.graph.n
            for vertices in [list(range(n))] + [rng.sample(range(n), rng.randint(0, n))
                                                for _ in range(2)]:
                L = labelled_from_typed(H, vertices)
                labels, inside = _loop_labelled_from_typed(H, vertices)
                assert L.n == len(vertices)
                assert L.labels.dtype == np.int8 and np.array_equal(L.labels, labels), vertices
                assert np.array_equal(L.inside, inside), vertices
                restrictions += 1
        assert restrictions == 3 * 1252


class TestOrdering:
    def test_overlap_path_order(self):
        L = overlap_path()
        order = interval_orientation(L)
        assert order in ([0, 1, 2], [2, 1, 0])
        assert verify_interval_ordering(L, order)

    def test_all_inclusion(self):
        L = make_labelled(3, inclusions=[(0, 1), (1, 2), (0, 2)])
        order = interval_orientation(L)
        assert order == [0, 1, 2]

    def test_invertible_pair_from_pipeline_labels(self, biclaw):
        # the forcing in the biclaw completion must trip an invertible pair
        H, partner = complete(classify_all(biclaw))
        z = min(range(H.graph.n), key=lambda v: (H.graph.degree(v), v))
        # the knotting graph at z has an odd cycle, so there is no
        # 2-colouring; z has no overlappers, so overlap_side reads no side id
        side = overlap_side(H, build_knotting(H, z), np.empty(0, dtype=np.intp), partner[z])
        zset = build_Z(H, z, side, partner)
        L = labelled_from_typed(H, zset)
        with pytest.raises(DeltaInvertiblePair) as exc:
            interval_orientation(L)
        a, b = exc.value.pair
        # the pair's class is its own inverse: a chain leads to the reversal
        chain = forcing_chain(L, (a, b), (b, a))
        assert chain[0] == (a, b) and chain[-1] == (b, a)
        for p, q in zip(chain, chain[1:]):
            assert delta_step(L, p, q)

    def test_verify_examples(self):
        L = overlap_path()
        assert verify_interval_ordering(L, [0, 1, 2])
        violation = ordering_violation(L, [1, 0, 2])
        assert violation is not None and violation[0] == "iii"

    def test_single_vertex(self):
        L = make_labelled(1)
        assert verify_interval_ordering(L, [0])
        assert interval_orientation(L) == [0]

    def test_empty_vertex_set(self, c4):
        L = labelled_from_typed(classify_all(c4), [])
        assert (L.n, L.labels.shape, L.inside.shape) == (0, (0, 0), (0, 0))
        assert interval_orientation(L) == []

    def test_module_recursion(self):
        # vertices 2,3 overlap each other and look identical from 0,1
        L = make_labelled(4, overlaps=[(2, 3)],
                          inclusions=[(0, 2), (0, 3), (1, 2), (1, 3), (0, 1)])
        order = interval_orientation(L)
        assert verify_interval_ordering(L, order)

    def test_orders_pass_the_pattern_check(self):
        # interval_orientation does not check its order; on criterion 7's
        # family every order it returns has no forbidden pattern and puts
        # each container before its contents
        rng = random.Random(77)
        built = 0
        for _ in range(1000):
            L = random_labelled(rng, rng.randint(1, 5))
            try:
                order = interval_orientation(L)
            except DeltaInvertiblePair:
                continue
            assert ordering_violation(L, order) is None, (L.labels, L.inside, order)
            pos = np.argsort(order)
            assert not (L.inside & (pos[:, None] > pos[None, :])).any(), (L.labels, order)
            built += 1
        assert built > 900

    def test_brute_force_agreement(self):
        rng = random.Random(23)
        for _ in range(150):
            L = random_labelled(rng, rng.randint(1, 5))
            try:
                ok = verify_interval_ordering(L, interval_orientation(L))
                assert ok, L.labels
            except DeltaInvertiblePair:
                ok = False
            brute = any(
                verify_interval_ordering(L, list(p))
                for p in itertools.permutations(range(L.n)))
            assert ok == brute


def every_labelled_graph(n: int):
    """Every LabelledGraph on n vertices: each pair a NonEdge, an Overlap
    or an Inclusion either way, kept when the orientation is transitive."""
    pairs = list(itertools.combinations(range(n), 2))
    for choice in itertools.product(range(4), repeat=len(pairs)):
        labels = np.full((n, n), Label.NONEDGE, dtype=np.int8)
        np.fill_diagonal(labels, Label.INCLUSION)
        inside = np.zeros((n, n), dtype=bool)
        for (u, v), c in zip(pairs, choice):
            labels[u, v] = labels[v, u] = min(c, Label.INCLUSION)
            if c >= Label.INCLUSION:
                inside[(u, v) if c == Label.INCLUSION else (v, u)] = True
        try:
            L = LabelledGraph(n, labels, inside)
        except ValueError:
            continue  # the orientation is not transitive
        yield L


def inclusion_is_containment(L: LabelledGraph) -> bool:
    """inside[u, v] implies N[v] within N[u] in L's edge graph (the pairs
    not labelled NonEdge): interval_orientation's precondition."""
    closed = L.labels != Label.NONEDGE
    u, v = np.nonzero(L.inside)
    return not (closed[v] & ~closed[u]).any()


class TestEveryLabelledGraph:
    def test_up_to_four_vertices(self):
        # any labelling gets an order or DeltaInvertiblePair, nothing else;
        # under the precondition the verdict is brute force's and the order
        # has no forbidden pattern
        graphs = meeting = 0
        for n in range(1, 5):
            perms = [list(p) for p in itertools.permutations(range(n))]
            for L in every_labelled_graph(n):
                graphs += 1
                try:
                    order = interval_orientation(L)
                    assert sorted(order) == list(range(n))
                except DeltaInvertiblePair:
                    order = None
                if not inclusion_is_containment(L):
                    continue
                meeting += 1
                brute = any(ordering_violation(L, p) is None for p in perms)
                assert (order is not None) == brute, (L.labels, L.inside)
                assert order is None or ordering_violation(L, order) is None, L.labels
        assert (graphs, meeting) == (1839, 962)


class TestDisjointClassSpans:
    def test_disjoint_class_avoids_shared_vertex(self):
        # three distinct classes meeting pairwise cannot all touch one vertex
        rng = random.Random(31)
        for _ in range(40):
            L = random_labelled(rng, rng.randint(3, 5))
            cls = implication_classes(L)
            classes, class_of = class_sets(cls)
            for a in range(L.n):
                for b in range(L.n):
                    for c in range(L.n):
                        if len({a, b, c}) != 3:
                            continue
                        pab, pbc, pac = (a, b), (b, c), (a, c)
                        if not all(p in class_of for p in (pab, pbc, pac)):
                            continue
                        C = class_of[pab]
                        A = class_of[pbc]
                        B = class_of[pac]
                        if A in (B, C, cls.inverse[C]):
                            continue
                        touched = span(classes[A])
                        assert a not in touched


def planted(rng):
    """A random labelled graph and a proper module, with an outside vertex
    whose labels or directions towards the module often differ."""
    n = rng.randint(3, 8)
    if rng.random() < 0.5:
        L = random_labelled(rng, n)
    else:
        # a chain x -> s, t -> x: uniform Inclusion, mixed directions,
        # the rest random labels towards a module {s, t, ...}
        x, s, t = rng.sample(range(n), 3)
        L = make_labelled(n, overlaps=[(u, v) for u in range(n)
                                       for v in range(u + 1, n)
                                       if {u, v} & {x, s, t} == set()
                                       and rng.random() < 0.5],
                          inclusions=[(x, s), (t, x), (t, s)])
        rest = [v for v in range(n) if v not in (x, s, t)]
        return L, sorted([s, t] + rng.sample(rest, rng.randint(0, len(rest))))
    return L, sorted(rng.sample(range(n), rng.randint(2, n - 1)))


def outcome(order_vertices, L):
    """("order", the order) or (the exception's type, the pair of a
    DeltaInvertiblePair or None).  Only types are compared, because below
    the top level the reference names vertices of that level."""
    try:
        return "order", order_vertices(L)
    except DeltaInvertiblePair as exc:
        return DeltaInvertiblePair, exc.pair
    except InternalError as exc:
        return type(exc), None


class TestOrderVertices:
    """The work-stack ordering against the recursive reference."""

    @staticmethod
    def assert_matches_recursion(L):
        want = outcome(_recursive_order_vertices, L)
        assert outcome(delta.interval_orientation, L) == want, L.labels
        return want[0]

    def test_random_labelled(self):
        rng = random.Random(43)
        seen = {self.assert_matches_recursion(random_labelled(rng, rng.randint(0, 8)))
                for _ in range(2000)}
        assert seen == {"order", DeltaInvertiblePair}

    def test_planted(self):
        rng = random.Random(47)
        seen = {self.assert_matches_recursion(planted(rng)[0])
                for _ in range(400)}
        assert seen == {"order", DeltaInvertiblePair}

    @pytest.mark.parametrize("seed,n", [(1, 30), (2, 60), (3, 100)])
    def test_arc_models(self, seed, n):
        self.assert_matches_recursion(labels_on_Z(arc_model(random.Random(seed), n))[3])

    def test_nested_intervals(self):
        # 28 nested modules
        G = parse_edge_list("\n".join(nested_lines(60)))
        assert self.assert_matches_recursion(labels_on_Z(G)[3]) == "order"

    @pytest.mark.parametrize("n", [60, 120])
    def test_short_arc_models(self, n):
        G = parse_edge_list("\n".join(short_lines(n, 1)))
        assert self.assert_matches_recursion(labels_on_Z(G)[3]) == "order"

    def test_deep_modules_under_a_low_recursion_limit(self):
        # 98 nested modules: two stack frames per module would exceed 150
        code = "\n".join([
            "import sys",
            "from arc_model_edges import nested_lines",
            "from circarc.formats import parse_edge_list",
            "from circarc.recognizer import POSITIVE, recognize",
            "G = parse_edge_list('\\n'.join(nested_lines(200)))",
            "sys.setrecursionlimit(150)",
            "sys.exit(recognize(G).verdict != POSITIVE)",
        ])
        paths = [Path(circarc.__file__).parents[1], Path(__file__).parent]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr


    def test_span_fault_ends_in_exit_70(self, tmp_path):
        # every span loses its last key, so some class spans one vertex:
        # the loop must stop there rather than push its set back unchanged
        f = tmp_path / "arcs.txt"
        f.write_text(write_edge_list(arc_model(random.Random(0), 40)))
        code = "\n".join([
            "import sys",
            "from circarc import delta",
            "from circarc.cli import main",
            "unique = delta.sorted_unique",
            "delta.sorted_unique = lambda keys: unique(keys)[:-1]",
            "sys.exit(main(['recognize', sys.argv[1]]))",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(circarc.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", code, str(f)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 70, run.stderr
        assert run.stderr.startswith("# internal error: interval_orientation: "), run.stderr
        assert "Traceback" not in run.stderr


def pair_partition(a, b, cid) -> set[frozenset[Pair]]:
    """The classes given by arrays of pairs (a[i], b[i]) and class ids cid[i],
    as a set of pair sets: the numbering drops out."""
    classes: dict[int, set[Pair]] = {}
    for x, y, k in zip(a.tolist(), b.tolist(), cid.tolist()):
        classes.setdefault(k, set()).add((x, y))
    return {frozenset(c) for c in classes.values()}


class TestRestrictedClasses:
    """delta.interval_orientation computes the forcing classes once, on L: it
    rests on the classes of every set the recursion visits being L's
    classes restricted to the pairs inside that set."""

    @staticmethod
    def visited_sets_match(L) -> int:
        """Check every set the recursive reference visits; return how many."""
        sets: list[list[int]] = []
        try:
            _recursive_order_vertices(L, sets.append)
        except (DeltaInvertiblePair, InternalError):
            pass
        a, b, cid, _ = implication_classes(L)
        for vertices in sets:
            inside = np.isin(a, vertices) & np.isin(b, vertices)
            sub = implication_classes(induced(L, vertices))
            names = np.array(vertices, dtype=int)
            assert (pair_partition(names[sub.a], names[sub.b], sub.cid)
                    == pair_partition(a[inside], b[inside], cid[inside])), vertices
        return len(sets)

    def test_random_labelled(self):
        rng = random.Random(53)
        graphs = 2000
        visited = sum(self.visited_sets_match(random_labelled(rng, rng.randint(2, 8)))
                      for _ in range(graphs))
        assert visited > graphs  # some graphs split into modules

    def test_nested_intervals(self):
        G = parse_edge_list("\n".join(nested_lines(60)))
        assert self.visited_sets_match(labels_on_Z(G)[3]) > 50

    @pytest.mark.parametrize("n", [60, 120])
    def test_short_arc_models(self, n):
        G = parse_edge_list("\n".join(short_lines(n, 1)))
        assert self.visited_sets_match(labels_on_Z(G)[3]) >= n // 2
