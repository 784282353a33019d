"""Independent ground truth for small graphs.

The oracle searches circular words of arc endpoints directly: position 0
always holds the left endpoint of vertex 0 (rotation symmetry), wrapping
arcs are chosen up front as a clique inside vertex 0's neighborhood, and
the scan prunes as soon as a placed endpoint contradicts the adjacency it
has determined.  Reflections are searched twice; the cap at 8 vertices
keeps this immaterial.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .arcs import ArcRepresentation
from .check import representation_error, verify_negative, verify_positive
from .graph import Graph, build_graph
from .recognizer import recognize

ORACLE_CAP = 8


@dataclass(frozen=True)
class EndpointSequence:
    symbols: tuple[tuple[str, int], ...]  # ("L"|"R", vertex), clockwise

    def arcs(self) -> dict[int, tuple[int, int]]:
        out: dict[int, list[int]] = {}
        for pos, (side, v) in enumerate(self.symbols):
            out.setdefault(v, [0, 0])
            out[v][0 if side == "L" else 1] = pos
        return {v: (l, r) for v, (l, r) in out.items()}

    def realizes(self, G: Graph) -> bool:
        rep = ArcRepresentation(len(self.symbols), self.arcs())
        return representation_error(G, rep) is None


def _search(G: Graph, wrap: tuple[int, ...]) -> Optional[list[tuple[str, int]]]:
    n = G.n
    adj = [frozenset(i for i in range(n) if G.adj[v, i]) for v in range(n)]
    wrap_set = set(wrap)
    seq: list[tuple[str, int]] = [("L", 0)]
    open_set = {0, *wrap}
    got = {v: set() for v in range(n)}
    for a, b in itertools.combinations(sorted(open_set), 2):
        got[a].add(b)
        got[b].add(a)
    closed_l: set[int] = set()  # wrap vertices whose leading segment has ended
    done: set[int] = set()

    def open_arc(v: int, depth: int) -> bool:
        # any arc covering this slot must be a neighbor of v
        if not adj[v] >= open_set:
            return False
        seq.append(("L", v))
        # a reopened wrap arc can meet a vertex it already met at the seam
        recorded = [w for w in open_set if v not in got[w]]
        for w in recorded:
            got[w].add(v)
            got[v].add(w)
        open_set.add(v)
        ok = place(depth + 1)
        if not ok:
            open_set.discard(v)
            for w in recorded:
                got[w].discard(v)
                got[v].discard(w)
            seq.pop()
        return ok

    def place(depth: int) -> bool:
        if depth == 2 * n:
            return all(got[w] == adj[w] for w in wrap_set)
        for v in range(n):
            if v in wrap_set:
                if v in open_set and v not in closed_l:
                    # end the leading segment; the arc resumes at its L later
                    seq.append(("R", v))
                    open_set.discard(v)
                    closed_l.add(v)
                    if place(depth + 1):
                        return True
                    closed_l.discard(v)
                    open_set.add(v)
                    seq.pop()
                elif v in closed_l and v not in open_set:
                    if open_arc(v, depth):  # reopen; runs to the scan end
                        return True
            elif v in open_set:
                # close a plain arc; its neighborhood must be fully realized
                if got[v] == adj[v]:
                    seq.append(("R", v))
                    open_set.discard(v)
                    done.add(v)
                    if place(depth + 1):
                        return True
                    done.discard(v)
                    open_set.add(v)
                    seq.pop()
            elif v != 0 and v not in done:
                if open_arc(v, depth):
                    return True
        return False

    if place(1):
        return seq
    return None


def oracle_sequence(G: Graph) -> Optional[EndpointSequence]:
    """A realizing endpoint sequence, or None if no arc model exists."""
    if G.n > ORACLE_CAP:
        raise ValueError(f"oracle capped at {ORACLE_CAP} vertices")
    if G.n == 0:
        return EndpointSequence(())
    neighbors = sorted(i for i in range(G.n) if G.adj[0, i])
    for size in range(len(neighbors) + 1):
        for wrap in itertools.combinations(neighbors, size):
            if any(not G.adj[a, b] for a, b in itertools.combinations(wrap, 2)):
                continue  # wrapping arcs pairwise intersect
            found = _search(G, wrap)
            if found is not None:
                seq = EndpointSequence(tuple(found))
                if not seq.realizes(G):
                    raise AssertionError("oracle produced a non-realizing word")
                return seq
    return None


def oracle_is_ca(G: Graph) -> bool:
    return oracle_sequence(G) is not None


def enumerate_labelled_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n choose 2) graphs on vertices 0..n-1, lexicographic edge masks."""
    if n > 6:
        raise ValueError("enumeration capped at 6 vertices")
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@dataclass
class CrossCheckReport:
    checked: int = 0
    disagreements: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements


def _check_one(G: Graph, report: CrossCheckReport, tag: str) -> None:
    cert = recognize(G)
    expected = oracle_is_ca(G)
    got = cert.verdict == "CircularArc"
    verified = (verify_positive(G, cert) if got else verify_negative(G, cert))
    report.checked += 1
    if got != expected or not verified:
        report.disagreements.append({
            "graph": tag,
            "edges": G.edges(),
            "oracle": expected,
            "recognizer": got,
            "certificate_ok": verified,
        })


def cross_check(max_n: int, random_spec: Optional[dict] = None) -> CrossCheckReport:
    """Compare recognize with the oracle, exhaustively and/or at random.

    random_spec: {"n": int, "count": int, "edge_prob": float, "seed": int}.
    """
    if max_n > 5:
        raise ValueError("exhaustive cross-check capped at 5 vertices")
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if random_spec is not None:
        if not 0 <= random_spec["n"] <= ORACLE_CAP:
            raise ValueError(f"oracle capped at {ORACLE_CAP} vertices")
        if random_spec["count"] < 0:
            raise ValueError("random count must be nonnegative")
        if not 0 <= random_spec["edge_prob"] <= 1:
            raise ValueError("edge probability must lie in [0, 1]")
    report = CrossCheckReport()
    for n in range(1, max_n + 1):
        for i, G in enumerate(enumerate_labelled_graphs(n)):
            _check_one(G, report, f"n{n}#{i}")
    if random_spec is not None:
        rng = random.Random(random_spec["seed"])
        n = random_spec["n"]
        p = random_spec["edge_prob"]
        for i in range(random_spec["count"]):
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < p]
            _check_one(build_graph(n, edges), report, f"rand-n{n}#{i}")
    return report
