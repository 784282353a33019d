"""Print the edge list of a seeded random arc model, for the CI smokes.

Usage: python tests/arc_model_edges.py N SEED [--biclaw | --nested | --short]

The arcs of v0..v(N-1) have their 2N ends shuffled over 2N slots by
random.Random(SEED).  The vertices are listed first, then every
intersecting pair; --biclaw appends a disjoint biclaw on b0..b6, which
makes the graph not circular-arc.  --nested prints the interval graph of
nested_lines instead, whose Δ-orientation is about N/2 modules deep; SEED is
then unused.  --short prints the sparse model of short_lines instead.
"""

import argparse
import random

BICLAW = ["b0 b1", "b1 b2", "b0 b3", "b0 b4", "b3 b5", "b4 b6"]


def edge_lines(n: int, seed: int, biclaw: bool) -> list[str]:
    rng = random.Random(seed)
    ends = list(range(2 * n))
    rng.shuffle(ends)
    arcs = [(ends[2 * v], (ends[2 * v + 1] - ends[2 * v]) % (2 * n)) for v in range(n)]
    return ([f"v{v}" for v in range(n)]
            + [f"v{u} v{v}" for u in range(n) for v in range(u + 1, n)
               if (arcs[v][0] - arcs[u][0]) % (2 * n) <= arcs[u][1]
               or (arcs[u][0] - arcs[v][0]) % (2 * n) <= arcs[v][1]]
            + (BICLAW if biclaw else []))


def nested_lines(n: int) -> list[str]:
    """Nested intervals (2i, 4n-2i) and point intervals (2i+1, 2i+1) for
    i < n/2: vertex v is the interval whose left end is v."""
    ivs = [(v, 4 * n - v) if v % 2 == 0 else (v, v) for v in range(n)]
    return ([f"v{v}" for v in range(n)]
            + [f"v{u} v{v}" for u in range(n) for v in range(u + 1, n)
               if ivs[v][0] <= ivs[u][1] and ivs[u][0] <= ivs[v][1]])


def short_lines(n: int, seed: int) -> list[str]:
    """Short arcs: v covers the 1-12 consecutive slots from a start slot on a
    circle of 4N slots, both drawn by random.Random(SEED).  The graph is
    sparse and its Δ-orientation nests many modules."""
    rng = random.Random(seed)
    m = 4 * n
    arcs = [(rng.randrange(m), rng.randint(1, 12)) for _ in range(n)]
    return ([f"v{v}" for v in range(n)]
            + [f"v{u} v{v}" for u in range(n) for v in range(u + 1, n)
               if (arcs[v][0] - arcs[u][0]) % m < arcs[u][1]
               or (arcs[u][0] - arcs[v][0]) % m < arcs[v][1]])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int)
    parser.add_argument("seed", type=int)
    family = parser.add_mutually_exclusive_group()
    family.add_argument("--biclaw", action="store_true")
    family.add_argument("--nested", action="store_true")
    family.add_argument("--short", action="store_true")
    args = parser.parse_args()
    lines = (nested_lines(args.n) if args.nested
             else short_lines(args.n, args.seed) if args.short
             else edge_lines(args.n, args.seed, args.biclaw))
    print("\n".join(lines))
