"""Loopless simple graphs with implicit loops at every vertex.

All adjacency questions are asked about closed neighbourhoods: a vertex is
always considered adjacent to itself.  The adjacency matrix we store has a
False diagonal; helpers that need the closed version OR in the identity.
``union_find`` labels the components of a graph given as an edge list by
hook-and-jump over arrays; it is the package's one union-find, for the
Δ-forcing classes and the knotting graph's 2-colouring; it gives each
node its component's least member.
``disjoint_rows`` is the only 0/1 matrix product: bit-packed by
``pack_rows``, because numpy multiplies integer matrices without BLAS.

``reduce`` strips universal vertices and merges true twins in closed form:
neither step creates or destroys universality or twinness among the
vertices that survive it, so one look at the input finds every step.
Twins are grouped by one sort of packed closed rows as opaque byte strings:
``np.unique(axis=0)`` sorts rows as records of one field per column, which
is ~10x slower at n = 180.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


class GraphError(ValueError):
    pass


def pack_rows(M: np.ndarray) -> np.ndarray:
    """The rows of a boolean array, np.packbits'd into zero-padded 64-bit words."""
    c = M.shape[-1]
    words = np.zeros(M.shape[:-1] + (8 * ((c + 63) // 64),), dtype=np.uint8)
    words[..., :(c + 7) // 8] = np.packbits(M, axis=-1)
    return words.view(np.uint64)


def unpack_rows(words: np.ndarray, c: int) -> np.ndarray:
    """The first c columns of rows packed by ``pack_rows``, as booleans."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=c).view(bool)


def union_find(m: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Least member of each node's component in the graph on nodes 0..m-1
    whose edges are src[i]-dst[i].

    Shiloach-Vishkin over arrays: every root hooks to the least root it
    meets along an edge, then pointers jump until each points at its root;
    the least member is the root, as pointers only ever go down.
    """
    f = np.arange(m)
    while True:
        fs, fd = f[src], f[dst]
        if np.array_equal(fs, fd):
            return f
        np.minimum.at(f, fs, fd)
        np.minimum.at(f, fd, fs)
        while True:
            jumped = f[f]
            if np.array_equal(jumped, f):
                break
            f = jumped


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
        tmp = np.empty_like(acc)
        for t in range(1, w):
            np.bitwise_and(rows[:, t:t + 1], b[t], out=tmp)
            acc |= tmp
        blocks.append(acc == 0)
    return np.concatenate(blocks)


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
        idx = np.array(vs, dtype=np.intp)
        # rows, then columns: a quarter of the time of an open-mesh (ix_) index at n ~ 100
        return Graph(len(vs), self.adj[idx][:, idx], tuple(self.names[v] for v in vs))


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


@dataclass
class ReductionTrace:
    """Record of a reduction run.

    ``steps`` is an int array of shape (s, 2) with one row (kept, removed)
    per step, in step order, by vertex index of the original graph; kept is
    -1 when the removed vertex was universal.  ``survivors`` lists the
    original indices that remain, in increasing order; the reduced graph
    uses their rank in that list as its vertex index.
    """
    n_original: int
    steps: np.ndarray
    survivors: list[int]


def reduce(G: Graph) -> tuple[Graph, ReductionTrace]:
    """Strip universal vertices and merge true twins, in one pass.

    The steps are: every universal vertex in increasing order (a complete
    graph keeps its last vertex), then for each true-twin class in order of
    its least member, (least, other) for the other members in increasing
    order.  This is the fixed point of removing the least universal vertex
    while one exists, else merging the lexicographically least twin pair,
    until fewer than two vertices remain.
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
    rest = least = np.flatnonzero(~universal)
    if rest.size:
        words = pack_rows(closed[rest])
        rows = words.view(np.dtype((np.void, words.strides[0]))).reshape(-1)
        _, first, label = np.unique(rows, return_index=True, return_inverse=True)
        least = rest[first[label]]  # least member of each twin class
    uni = np.flatnonzero(universal)
    order = np.lexsort((rest, least))
    kept = np.concatenate((np.full(uni.size, -1, dtype=np.intp), least[order]))
    removed = np.concatenate((uni, rest[order]))
    steps = np.stack((kept, removed), axis=1)[kept != removed]
    survivors = sorted_unique(least).tolist()
    return G.induced(survivors), ReductionTrace(G.n, steps, survivors)
