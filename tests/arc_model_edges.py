"""Print the edge list of a seeded random arc model, for the CI smokes.

Usage: python tests/arc_model_edges.py N SEED [--twins T]
           [--biclaw [--join] | --nested | --short | --path | --cycle | --ring]
           [--shuffle S]

The N arcs have their 2N ends shuffled over 2N slots by random.Random(SEED).
--twins T makes each arc T true twins: on the circle refined 2T-fold, copy j
of an arc starts j fine slots before it and ends j fine slots after it, which
is less than half an old slot, so copies meet exactly when their arcs do.
Copy j of arc a is v(aT + j), so the vertices are v0..v(NT-1), listed first,
then every intersecting pair; --biclaw appends a disjoint biclaw on b0..b6,
which makes the graph not circular-arc.  --join then adds the edge b2 v0: the
biclaw stays induced, so the graph is still not circular-arc, but it is no
longer split into components, which the recognizer would certify apart.  --nested prints the interval graph of
nested_lines instead, whose Δ-orientation is about N/2 modules deep; SEED is
then unused.  --short prints the sparse model of short_lines instead.
--path prints the path P_N and --cycle C_N beside an isolated vertex, which
is not circular-arc; --ring prints the plain cycle C_N, which is; SEED is
unused by all three.  --shuffle S first declares every vertex in
random.Random(S) order, then prints the same lines, so the graph is the
same but its vertex ids are shuffled.
"""

import argparse
import random

BICLAW = ["b0 b1", "b1 b2", "b0 b3", "b0 b4", "b3 b5", "b4 b6"]


def edge_lines(n: int, seed: int, biclaw: bool, twins: int = 1) -> list[str]:
    rng = random.Random(seed)
    ends = list(range(2 * n))
    rng.shuffle(ends)
    t, m = twins, 4 * n * twins  # arcs as (start, length) on m fine slots
    arcs = [((2 * t * ends[2 * a] - j) % m,
             2 * t * ((ends[2 * a + 1] - ends[2 * a]) % (2 * n)) + 2 * j)
            for a in range(n) for j in range(t)]
    return ([f"v{v}" for v in range(n * t)]
            + [f"v{u} v{v}" for u in range(n * t) for v in range(u + 1, n * t)
               if (arcs[v][0] - arcs[u][0]) % m <= arcs[u][1]
               or (arcs[u][0] - arcs[v][0]) % m <= arcs[v][1]]
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


def path_lines(n: int) -> list[str]:
    """The path p0 - p1 - ... - p(N-1)."""
    return [f"p{i} p{i + 1}" for i in range(n - 1)]


def ring_lines(n: int) -> list[str]:
    """The cycle c0 - c1 - ... - c(N-1) - c0."""
    return [f"c{i} c{(i + 1) % n}" for i in range(n)]


def cycle_lines(n: int) -> list[str]:
    """The isolated vertex k, then the cycle c0 - c1 - ... - c(N-1) - c0."""
    return ["k"] + ring_lines(n)


def shuffled(lines: list[str], seed: int) -> list[str]:
    """Every vertex of lines declared in random.Random(SEED) order, then lines."""
    names = list(dict.fromkeys(name for line in lines for name in line.split()))
    random.Random(seed).shuffle(names)
    return names + lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int)
    parser.add_argument("seed", type=int)
    family = parser.add_mutually_exclusive_group()
    family.add_argument("--biclaw", action="store_true")
    family.add_argument("--nested", action="store_true")
    family.add_argument("--short", action="store_true")
    family.add_argument("--path", action="store_true")
    family.add_argument("--cycle", action="store_true")
    family.add_argument("--ring", action="store_true")
    parser.add_argument("--join", action="store_true")
    parser.add_argument("--twins", type=int, default=1, metavar="T")
    parser.add_argument("--shuffle", type=int, metavar="S")
    args = parser.parse_args()
    if args.twins < 1 or (args.twins > 1 and (args.nested or args.short
                                              or args.path or args.cycle or args.ring)):
        parser.error("--twins takes T >= 1 and applies to the arc model alone")
    if args.join and not args.biclaw:
        parser.error("--join applies to --biclaw alone")
    lines = (nested_lines(args.n) if args.nested
             else short_lines(args.n, args.seed) if args.short
             else path_lines(args.n) if args.path
             else cycle_lines(args.n) if args.cycle
             else ring_lines(args.n) if args.ring
             else edge_lines(args.n, args.seed, args.biclaw, args.twins)
             + (["b2 v0"] if args.join else []))
    if args.shuffle is not None:
        lines = shuffled(lines, args.shuffle)
    print("\n".join(lines))
