"""Loopless simple graphs with implicit loops at every vertex.

All adjacency questions are asked about closed neighbourhoods: a vertex is
always considered adjacent to itself.  The adjacency matrix we store has a
False diagonal; helpers that need the closed version OR in the identity.
``components`` labels a whole stack of graphs given by bit-packed rows in
one lock-step breadth-first search, each level an OR of the frontier's
uint64 rows per graph, for ``edgetypes.avoiding_labels`` alone;
``bfs`` and ``tree_path`` are the search-path helpers of the Python-object
searches (the knotting graph's 2-colouring and its odd cycle).
``knotting.KnottingGraph.component_path`` runs its own level-by-level
search over a dense safe matrix, which grows the same tree as ``bfs``.
``disjoint_rows`` is the only 0/1 matrix product: bit-packed, because numpy
multiplies integer matrices without BLAS.  Both use ``pack_rows``.

``reduce`` strips universal vertices and merges true twins in closed form:
neither step creates or destroys universality or twinness among the
vertices that survive it, so one look at the input finds every step.
Twins are grouped by one sort of packed closed rows as opaque byte strings:
``np.unique(axis=0)`` sorts rows as records of one field per column, which
is ~10x slower at n = 180.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Hashable, Iterable, Mapping, MutableMapping,
                    Optional, Sequence, TypeVar)

import numpy as np


class GraphError(ValueError):
    pass


Node = TypeVar("Node", bound=Hashable)


def bfs(parent: MutableMapping[Node, Optional[Node]], root: Node,
        neighbours: Callable[[Node], Iterable[Node]]) -> list[Node]:
    """Breadth-first search from root over the nodes not yet keys of parent.

    Records each reached node's tree parent in parent (root maps to None)
    and returns the reached nodes in visit order.  Calls that share one
    parent mapping grow a forest and never revisit a node.
    """
    parent[root] = None
    order = [root]
    for cur in order:  # order doubles as the queue
        for nxt in neighbours(cur):
            if nxt not in parent:
                parent[nxt] = cur
                order.append(nxt)
    return order


def pack_rows(M: np.ndarray) -> np.ndarray:
    """The rows of a boolean array, np.packbits'd into zero-padded 64-bit words."""
    c = M.shape[-1]
    words = np.zeros(M.shape[:-1] + (8 * ((c + 63) // 64),), dtype=np.uint8)
    words[..., :(c + 7) // 8] = np.packbits(M, axis=-1)
    return words.view(np.uint64)


def unpack_rows(words: np.ndarray, c: int) -> np.ndarray:
    """The first c columns of rows packed by ``pack_rows``, as booleans.

    The words of a row need not be adjacent in memory (a transposed
    word-major stack); such rows are copied to C order first.
    """
    words = np.ascontiguousarray(words)
    return np.unpackbits(words.view(np.uint8), axis=-1, count=c).view(bool)


def components(rows: np.ndarray, on: np.ndarray) -> np.ndarray:
    """Label the components of a stack of graphs given by bit-packed rows.

    rows is (k, n, w) uint64: row v of graph g, packed by ``pack_rows``,
    lists v's neighbours and must be symmetric among the vertices of g,
    which are those where on (k, n) is True; bits of other rows and
    columns are ignored.  Each vertex gets the least vertex of its
    component, and every non-vertex gets n.

    All graphs grow their components in lock-step, one breadth-first level
    at a time: the frontier rows of every graph are ORed per graph, and a
    graph whose component is done starts the next at its least unreached
    vertex, which is therefore the least vertex of that component.
    """
    k, n = on.shape
    label = np.full((k, n), n, dtype=np.intp)
    todo = on.copy()  # the vertices not yet reached
    lead = np.zeros(k, dtype=np.intp)  # the start of each graph's component
    fg = fv = np.zeros(0, dtype=np.intp)  # the frontier, by graph
    while True:
        idle = todo.any(axis=1)
        idle[fg] = False
        idle = np.flatnonzero(idle)
        if idle.size:
            s = todo[idle].argmax(axis=1)
            lead[idle] = label[idle, s] = s
            todo[idle, s] = False
            fg, fv = np.concatenate((fg, idle)), np.concatenate((fv, s))
            by_graph = np.argsort(fg, kind="stable")
            fg, fv = fg[by_graph], fv[by_graph]
        if not fg.size:
            return label
        first = np.flatnonzero(np.r_[True, fg[1:] != fg[:-1]])  # fg is sorted
        gs = fg[first]
        seen = unpack_rows(np.bitwise_or.reduceat(rows[fg, fv], first), n)
        seen &= todo[gs]
        i, fv = np.nonzero(seen)
        fg = gs[i]
        todo[fg, fv] = False
        label[fg, fv] = lead[fg]


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, in increasing order."""
    # np.unique without return arrays hashes in numpy 2.x: 25-75x slower than a sort
    keys = np.sort(keys, axis=None)
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def disjoint_rows(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[i, j] = rows A[i] and B[j] of two boolean matrices share no column.

    The 0/1 product A @ B.T is zero exactly there.  Rows are bit-packed
    into zero-padded 64-bit words and ANDed one word at a time, a block of
    A's rows at a time, so each temporary holds at most 2**13 words (64 KB).
    """
    p, q, w = A.shape[0], B.shape[0], (A.shape[1] + 63) // 64
    if not (p and q and w):
        return np.ones((p, q), dtype=bool)
    words = pack_rows(np.concatenate((A, B)))
    a, b = words[:p], words[p:].T.copy()  # b: one row per word
    step = max(1, (1 << 13) // q)
    blocks = []
    for i in range(0, p, step):
        rows = a[i:i + step]
        acc = rows[:, :1] & b[0]
        if w > 1:
            tmp = np.empty_like(acc)
            for t in range(1, w):
                np.bitwise_and(rows[:, t:t + 1], b[t], out=tmp)
                acc |= tmp
        blocks.append(acc == 0)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def tree_path(parent: Mapping[Node, Optional[Node]], a: Node, b: Node) -> list[Node]:
    """Path from a to b in a search forest given by parent links.

    Roots map to None; a and b must lie in the same tree.  The path runs up
    from a to the lowest common ancestor and down to b.
    """
    def to_root(v: Node) -> list[Node]:
        path = [v]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    up, down = to_root(a), to_root(b)
    if up[-1] != down[-1]:
        raise ValueError(f"{a!r} and {b!r} lie in different trees")
    while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
        up.pop()
        down.pop()
    return up + down[-2::-1]


@dataclass(frozen=True)
class Graph:
    n: int
    adj: np.ndarray  # bool (n, n), symmetric, False diagonal
    names: tuple[str, ...]

    def __post_init__(self):
        if self.adj.shape != (self.n, self.n):
            raise GraphError("adjacency shape does not match vertex count")
        if self.adj.dtype != np.bool_:
            raise GraphError("adjacency must be boolean")
        if self.n and not np.array_equal(self.adj, self.adj.T):
            raise GraphError("adjacency must be symmetric")
        if self.n and self.adj.diagonal().any():
            raise GraphError("no explicit loops; loops are implicit")
        if len(self.names) != self.n:
            raise GraphError("one name per vertex required")
        if len(set(self.names)) != self.n:
            raise GraphError("vertex names must be distinct")

    def adjacent(self, u: int, v: int) -> bool:
        """Closed adjacency: every vertex is adjacent to itself."""
        return u == v or bool(self.adj[u, v])

    def closed_adj(self) -> np.ndarray:
        return self.adj | np.eye(self.n, dtype=bool)

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.adj[v])) | {v}

    def degree(self, v: int) -> int:
        """Closed degree |N[v]|."""
        return int(self.adj[v].sum()) + 1

    def edges(self) -> list[tuple[int, int]]:
        iu, ju = np.nonzero(np.triu(self.adj))
        return list(zip(iu.tolist(), ju.tolist()))

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise GraphError(f"unknown vertex name: {name!r}") from None

    def induced(self, vertices: Sequence[int]) -> "Graph":
        vs = list(vertices)
        idx = np.array(vs, dtype=int)
        sub = self.adj[np.ix_(idx, idx)] if vs else np.zeros((0, 0), dtype=bool)
        return Graph(len(vs), sub, tuple(self.names[v] for v in vs))


def build_graph(n: int, edges: Iterable[tuple[int, int]],
                names: Optional[Sequence[str]] = None) -> Graph:
    """Build a graph from an edge list, rejecting loops and out-of-range ends."""
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    if names is None:
        names = [str(i) for i in range(n)]
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range")
        if u == v:
            raise GraphError(f"explicit loop at {u} not allowed")
        adj[u, v] = adj[v, u] = True
    return Graph(n, adj, tuple(names))


@dataclass(frozen=True)
class RemoveUniversal:
    vertex: int  # index in the graph the step was applied to


@dataclass(frozen=True)
class MergeTwins:
    kept: int
    removed: int


ReductionStep = RemoveUniversal | MergeTwins


@dataclass
class ReductionTrace:
    """Record of a reduction run.

    Each step stores vertex indices of the original graph.  ``survivors``
    lists the original indices that remain, in increasing order; the reduced
    graph uses their rank in that list as its vertex index.
    """
    n_original: int
    steps: list[ReductionStep] = field(default_factory=list)
    survivors: list[int] = field(default_factory=list)


def reduce(G: Graph) -> tuple[Graph, ReductionTrace]:
    """Strip universal vertices and merge true twins, in one pass.

    The steps are: every universal vertex in increasing order (a complete
    graph keeps its last vertex), then for each true-twin class in order of
    its least member, MergeTwins(least, other) for the other members in
    increasing order.  This is the fixed point of removing the least
    universal vertex while one exists, else merging the lexicographically
    least twin pair, until fewer than two vertices remain.
    """
    closed = G.closed_adj()
    universal = closed.all(axis=1)
    if universal.all():
        universal[-1:] = False  # a complete graph keeps its last vertex
    # One scan of G finds every step: a universal vertex lies in every closed
    # neighbourhood, and a merged twin in exactly those that hold its kept
    # twin, so removing either never makes a surviving row full or not full,
    # nor two surviving rows equal or unequal.  Universality and twinness
    # among the survivors are those of G.
    steps: list[ReductionStep] = [
        RemoveUniversal(v) for v in np.flatnonzero(universal).tolist()]
    rest = least = np.flatnonzero(~universal)
    if rest.size:
        words = pack_rows(closed[rest])
        rows = words.view(np.dtype((np.void, words.strides[0]))).reshape(-1)
        _, first, label = np.unique(rows, return_index=True, return_inverse=True)
        least = rest[first[label]]  # least member of each twin class
        order = np.lexsort((rest, least))
        steps += [MergeTwins(k, v) for k, v in zip(least[order].tolist(),
                                                   rest[order].tolist()) if k != v]
    survivors = sorted_unique(least).tolist()
    return G.induced(survivors), ReductionTrace(G.n, steps, survivors)

