import importlib.util
import itertools
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from circarc import recognizer
from circarc.arcs import ArcRepresentation
from circarc.check import InternalError, representation_error
from circarc.delta import (DeltaInvertiblePair, Label, interval_orientation,
                           ordering_violation, verify_interval_ordering)
from circarc.intervals import _consistency_error, build_intervals, lift_to_circle
from conftest import arc_model, labels_on_Z, make_labelled


def _loop_consistency_error(L, iv):
    """The label check as a loop over pairs: the reference for its array form."""
    for u in range(L.n):
        lu, ru = iv[u]
        if not lu < ru:
            return f"degenerate interval for {u}"
        for v in range(u + 1, L.n):
            lv, rv = iv[v]
            disjoint = ru < lv or rv < lu
            contained = (lu < lv and rv < ru) or (lv < lu and ru < rv)
            lab = L.labels[u, v]
            if lab == Label.NONEDGE and not disjoint:
                return f"{u},{v} labelled non-edge but intervals meet"
            if lab == Label.OVERLAP and (disjoint or contained):
                return f"{u},{v} labelled overlap but intervals do not overlap"
            if lab == Label.INCLUSION:
                want = (lu < lv and rv < ru) if L.inside[u, v] else (lv < lu and ru < rv)
                if not want:
                    return f"{u},{v} containment direction wrong"
    return None


def corrupted(rng, iv):
    """iv with one random fault: two intervals swapped, an interval flipped
    or two endpoints exchanged."""
    iv = iv.copy()
    u, v = rng.randrange(len(iv)), rng.randrange(len(iv))
    kind = rng.randrange(3)
    if kind == 0:
        iv[[u, v]] = iv[[v, u]]
    elif kind == 1:
        iv[u] = iv[u, ::-1]
    else:
        # with u == v and su != sv this copies one endpoint over the
        # other, an interval with l == r
        su, sv = rng.randrange(2), rng.randrange(2)
        a, b = iv[v, sv], iv[u, su]
        iv[u, su] = a
        if u != v:
            iv[v, sv] = b
    return iv


def checked_build_intervals(L, order):
    """build_intervals, then its label check, raised as the recognizer's
    diagnosis reports it."""
    iv = build_intervals(L, order)
    err = _consistency_error(L, iv)
    if err is not None:
        raise InternalError(f"built intervals inconsistent with labels: {err}")
    return iv


def _list_build_intervals(L, order):
    """The builder over a list of ("L" | "R", vertex) events, each insertion
    point found with list.index: the reference for build_intervals."""
    seq = []
    idx = np.array(order, dtype=np.intp)
    for k in range(L.n - 1, -1, -1):
        x = order[k]
        seq.insert(0, ("L", x))
        row = L.labels[x, idx[k:]]
        y = order[k + int(np.flatnonzero(row != Label.NONEDGE)[-1])]
        incl = idx[k + 1:][row[1:] == Label.INCLUSION]
        t = seq.index(("L", y))
        for v in incl.tolist():
            t = max(t, seq.index(("R", v)))
        seq.insert(t + 1, ("R", x))
    iv = np.zeros((L.n, 2), dtype=np.intp)
    for pos, (side, v) in enumerate(seq, start=1):
        iv[v, int(side == "R")] = pos
    return iv


def _loop_build_intervals(L, order):
    """The builder right to left with an int position array, one insertion
    per step: the reference for build_intervals."""
    n = L.n
    # pos[x] and pos[n + x]: the places, from 1, of L(x) and R(x) in the
    # sequence built so far, negative until placed; an insertion shifts
    # everything after it, so relative order never changes
    pos = np.full(2 * n, -2 * n, dtype=np.intp)
    idx = np.array(order, dtype=np.intp)
    for k in range(n - 1, -1, -1):
        x = order[k]
        pos += 1
        pos[x] = 1
        row = L.labels[x, idx[k:]]  # row[0] is the loop at x, never a non-edge
        y = order[k + int(np.flatnonzero(row != Label.NONEDGE)[-1])]
        incl = idx[k + 1:][row[1:] == Label.INCLUSION]
        outer = incl[~L.inside[x, incl]]
        if outer.size:
            raise InternalError(
                f"vertex {outer[0]} inclusion-tied to leftmost {x} but not inside it")
        t = max(pos[y], pos[n + incl].max(initial=0))
        pos[pos > t] += 1
        pos[n + x] = t + 1
    iv = np.stack((pos[:n], pos[n:]), axis=1)
    err = _consistency_error(L, iv)
    if err is not None:
        raise InternalError(f"built intervals inconsistent with labels: {err}")
    return iv


def _loop_lift_to_circle(ivals, zmap, partner):
    """The lift as a loop over the interval vertices into a dict of arcs:
    the reference for lift_to_circle.  Returns the circle size and the dict."""
    m = 8 * len(zmap) + 8
    arcs: dict[int, tuple[int, int]] = {}
    for u, w, (l, r) in zip(zmap, partner[zmap].tolist(), (4 * ivals).tolist()):
        arcs[u] = (l, r)
        arcs[w] = ((r + 1) % m, (l - 1) % m)
    return m, arcs


def lifted(ivals, zmap, partner) -> ArcRepresentation:
    """lift_to_circle's arcs as a representation, checked against the loop
    reference."""
    m, ends = lift_to_circle(ivals, zmap, partner)
    rep = ArcRepresentation(m, dict(enumerate(map(tuple, ends.tolist()))))
    assert (rep.circle_size, rep.arcs) == _loop_lift_to_circle(ivals, zmap, partner)
    return rep


def bench_pool(workload: str) -> list:
    """The graphs of a benchmark workload's pool at seed 1, as
    ``bench/run.py --seed 1`` draws them for a 35-second run."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cases = workloads.make_cases(workload, 1, workloads.pool_size(workload, 35))
    return [case.graph for case in cases]


class TestBuildIntervals:
    def test_matches_list_reference(self):
        rng = random.Random(12)
        from test_delta import random_labelled
        cases = [labels_on_Z(arc_model(random.Random(seed), 60))[3] for seed in range(4)]
        cases += [random_labelled(rng, rng.randint(1, 7)) for _ in range(80)]
        built = 0
        for L in cases:
            try:
                order = interval_orientation(L)
            except DeltaInvertiblePair:
                continue
            assert np.array_equal(checked_build_intervals(L, order),
                                  _list_build_intervals(L, order))
            built += 1
        assert built >= 20

    def test_matches_loop_reference(self):
        # exactly, message included, on orders with no forbidden pattern;
        # elsewhere the label check may name a different first pair, so both
        # only have to reject
        from test_delta import orders_to_check
        seen = set()
        for L, order in orders_to_check(9):
            try:
                want = _loop_build_intervals(L, order).tolist()
            except InternalError as exc:
                want = str(exc)
            try:
                got = checked_build_intervals(L, order).tolist()
            except InternalError as exc:
                got = str(exc)
            if ordering_violation(L, order) is None:
                assert got == want, (L.labels, L.inside, order)
            else:
                assert isinstance(got, str) and isinstance(want, str), (L.labels, L.inside, order)
            seen.add("inclusion-tied" in want if isinstance(want, str) else None)
        assert seen == {None, False, True}

    def test_overlap_path(self):
        L = make_labelled(3, overlaps=[(0, 1), (1, 2)])
        iv = build_intervals(L, [0, 1, 2])
        assert iv.tolist() == [[1, 3], [2, 5], [4, 6]]

    def test_single_vertex(self):
        L = make_labelled(1)
        assert build_intervals(L, [0]).tolist() == [[1, 2]]

    def test_containment(self):
        L = make_labelled(2, inclusions=[(0, 1)])
        iv = build_intervals(L, [0, 1])
        assert iv.tolist() == [[1, 4], [2, 3]]

    def test_rejects_bad_order(self):
        L = make_labelled(3, overlaps=[(0, 1), (1, 2)])
        with pytest.raises(InternalError):
            checked_build_intervals(L, [1, 0, 2])

    def test_rejects_exactly_the_bad_orders(self):
        # build_intervals and its label check reject an order exactly when
        # it has a forbidden pattern or puts an inner interval before its outer
        rng = random.Random(12)
        from test_delta import every_labelled_graph, random_labelled
        cases = [random_labelled(rng, rng.randint(2, 5)) for _ in range(40)]
        cases += [L for n in range(1, 4) for L in every_labelled_graph(n)]
        seen = set()
        for L in cases:
            for p in itertools.permutations(range(L.n)):
                order = list(p)
                pos = np.argsort(order)
                bad = (ordering_violation(L, order) is not None
                       or (L.inside & (pos[:, None] > pos[None, :])).any())
                try:
                    checked_build_intervals(L, order)
                    raised = False
                except InternalError:
                    raised = True
                assert raised == bad, (L.labels, L.inside, order)
                seen.add(bad)
        assert seen == {False, True}

    def test_left_endpoints_follow_order(self):
        rng = random.Random(3)
        from test_delta import random_labelled
        for _ in range(60):
            L = random_labelled(rng, rng.randint(1, 5))
            order = next(
                (list(p) for p in itertools.permutations(range(L.n))
                 if verify_interval_ordering(L, list(p))), None)
            if order is None:
                continue
            iv = checked_build_intervals(L, order)
            assert np.argsort(iv[:, 0]).tolist() == order
            assert np.sort(iv, axis=None).tolist() == list(range(1, 2 * L.n + 1))


class TestConsistencyError:
    def test_matches_loop_reference(self):
        rng = random.Random(8)
        from test_delta import random_labelled
        cases = [labels_on_Z(arc_model(random.Random(seed), 40))[3] for seed in range(3)]
        cases += [random_labelled(rng, rng.randint(1, 7)) for _ in range(60)]
        kinds = ("degenerate", "non-edge", "overlap", "containment")
        seen = set()
        for L in cases:
            try:
                iv = build_intervals(L, interval_orientation(L))
            except DeltaInvertiblePair:
                continue
            assert _consistency_error(L, iv) is None
            for _ in range(30):
                bad = corrupted(rng, iv)
                got = _consistency_error(L, bad)
                assert got == _loop_consistency_error(L, bad)
                seen.add(got and next(k for k in kinds if k in got))
        assert seen == {None, *kinds}


class TestLiftToCircle:
    def test_c4_pipeline_arcs(self, c4):
        H, partner, zset, L = labels_on_Z(c4)
        assert [H.graph.names[v] for v in zset] == ["v2", "v3"]
        order = interval_orientation(L)
        iv = build_intervals(L, order)
        rep = lifted(iv, zset, partner)
        assert rep.circle_size == 24
        by_name = {H.graph.names[v]: a for v, a in rep.arcs.items()}
        assert by_name == {"v2": (4, 12), "v3": (8, 16),
                           "v4": (13, 3), "v1": (17, 7)}
        assert representation_error(H.graph, rep) is None

    def test_single_pair(self):
        # one vertex and its partner split the circle into two arcs
        from circarc.graph import build_graph
        H, partner, zset, L = labels_on_Z(build_graph(2, []))
        iv = build_intervals(L, [0])
        rep = lifted(iv, zset, partner)
        assert representation_error(H.graph, rep) is None
        assert rep.circle_size == 16
        u = zset[0]
        assert rep.arcs[u] == (4, 8)
        assert rep.arcs[int(partner[u])] == (9, 3)

    def test_near_biclaw_end_to_end(self, near_biclaw):
        H, partner, zset, L = labels_on_Z(near_biclaw)
        order = interval_orientation(L)
        rep = lifted(build_intervals(L, order), zset, partner)
        assert len(rep.arcs) == 12
        assert representation_error(H.graph, rep) is None
        covers = H.graph.closed_adj()
        for u, v in enumerate(partner.tolist()):
            assert not covers[u, v] or u == v

    def test_mismatched_pairing_fails(self, c4):
        H, partner, zset, L = labels_on_Z(c4)
        iv = build_intervals(L, interval_orientation(L))
        broken = partner.copy()
        a, b = zset
        broken[a], broken[b] = partner[b], partner[a]
        broken[partner[b]], broken[partner[a]] = a, b
        # lift_to_circle does not check its arcs; their check on H rejects them
        assert representation_error(H.graph, lifted(iv, zset, broken)) is not None

    @pytest.mark.parametrize("workload", ["arc-positive", "twin-blowup"])
    def test_matches_loop_reference_on_bench_pools(self, workload, monkeypatch):
        # every Z graph that a positive run lifts, piece by piece
        lifts = []

        def checked(ivals, zmap, partner):
            lifts.append(lifted(ivals, zmap, partner))
            return lift_to_circle(ivals, zmap, partner)

        monkeypatch.setattr(recognizer, "lift_to_circle", checked)
        graphs = bench_pool(workload)
        for G in graphs:
            assert recognizer.recognize(G).verdict == recognizer.POSITIVE
        assert len(lifts) >= len(graphs)


class TestVerifyRepresentation:
    def test_c4_true(self, c4):
        rep = ArcRepresentation(24, {1: (4, 12), 2: (8, 16),
                                     3: (13, 3), 0: (17, 7)})
        assert representation_error(c4, rep) is None

    def test_c4_equal_arcs_false(self, c4):
        rep = ArcRepresentation(24, {v: (0, 5) for v in range(4)})
        assert representation_error(c4, rep) is not None

    def test_single_vertex(self):
        from circarc.graph import build_graph
        rep = ArcRepresentation(4, {0: (0, 1)})
        assert representation_error(build_graph(1, []), rep) is None
