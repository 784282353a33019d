"""Command-line front end.

Exit codes: 0 = circular-arc (or success), 10 = not circular-arc,
1 = failed verification / cross-check disagreement, 2 = usage error or
standard output that cannot be written,
70 = internal error, reported as '#' comments naming the failing stage and,
if a graph was read, the graph as an edge list: `circarc recognize` input.
71 = out of memory, reported as one line without the input, whose writing
may itself need memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from typing import Optional

import numpy as np

from .check import (NEGATIVE, POSITIVE, InternalError, circular_pairs, classify_all,
                    negative_error, positive_error)
from .edgetypes import complete
from .formats import (FormatError, parse_certificate, parse_edge_list,
                      parse_graph6, serialize_certificate, write_edge_list)
from .graph import Graph, GraphError, reduce as reduce_graph
from .knotting import KnottingGraph, bipartite_or_odd_cycle, build_knotting
from .oracle import cross_check, oracle_is_ca
from .recognizer import recognize

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_NOT_CA = 10
EXIT_INTERNAL = 70
EXIT_OUT_OF_MEMORY = 71  # sysexits EX_OSERR


class UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    """The text of path, or UsageError if it cannot be read; bytes that are
    not UTF-8 raise UnicodeDecodeError for the caller to report."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _print(text: str, end: str = "\n") -> None:
    """Write text to standard output, flushed, or raise UsageError if it
    cannot be written, as on a full disk or a closed pipe."""
    try:
        print(text, end=end, flush=True)
    except OSError as exc:
        # what stdout still holds goes to the null device, so that the
        # flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write standard output: {exc}") from exc


def _load_graph(path: str, fmt: str) -> Graph:
    try:
        return (parse_graph6 if fmt == "graph6" else parse_edge_list)(_read_text(path))
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (FormatError, GraphError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _cmd_recognize(args, G: Graph) -> int:
    cert = recognize(G)
    doc = serialize_certificate(G, cert)
    if args.out:
        _write_text(args.out, doc)
    else:
        _print(doc, end="")
    return EXIT_OK if cert.verdict == POSITIVE else EXIT_NOT_CA


def _cmd_verify(args, G: Graph) -> int:
    try:
        cert = parse_certificate(G, _read_text(args.cert))
    except (FormatError, UnicodeDecodeError) as exc:
        print(f"invalid certificate: {exc}", file=sys.stderr)
        return EXIT_INVALID
    err = (positive_error if cert.verdict == POSITIVE else negative_error)(G, cert)
    if err is not None:
        print(err, file=sys.stderr)
    _print("certificate OK" if err is None else "certificate REJECTED")
    return EXIT_OK if err is None else EXIT_INVALID


def _cmd_oracle(args, G: Graph) -> int:
    try:
        is_ca = oracle_is_ca(G)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _print("circular-arc" if is_ca else "not-circular-arc")
    return EXIT_OK if is_ca else EXIT_NOT_CA


def _cmd_crosscheck(args, _graph) -> int:
    spec: Optional[dict] = None
    if args.random:
        try:
            n, count, prob, seed = args.random.split(",")
            spec = {"n": int(n), "count": int(count),
                    "edge_prob": float(prob), "seed": int(seed)}
        except ValueError as exc:
            raise UsageError("--random expects N,COUNT,P,SEED") from exc
    try:
        report = cross_check(args.max_n, spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for item in report.disagreements:
        _print(json.dumps(item, sort_keys=True))
    _print(json.dumps({"checked": report.checked,
                      "disagreements": len(report.disagreements)}, sort_keys=True))
    return EXIT_OK if report.ok else EXIT_INVALID


def _completion_of(G: Graph):
    """The completion, with its partner array, that G's certificate from
    ``recognize`` indexes: for a negative one, the certificate's own
    completion of G[S]; otherwise that of G's reduction."""
    cert = recognize(G)
    if cert.verdict == NEGATIVE:
        H = classify_all(cert.completion)
        return H, circular_pairs(H)
    reduced, _ = reduce_graph(G)
    if reduced.n <= 1:
        raise UsageError("graph reduces to a trivial graph; nothing to complete")
    return complete(classify_all(reduced))


def _cmd_complete(args, G: Graph) -> int:
    H, partner = _completion_of(G)
    names = H.graph.names
    doc = {
        "n": H.graph.n,
        "vertices": list(names),
        "edges": [[names[u], names[v]] for u, v in H.graph.edges()],
        "pairs": sorted([sorted((names[u], names[v]))
                         for u, v in enumerate(partner.tolist()) if u < v]),
    }
    _print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def _knotting_dot(K: KnottingGraph, names) -> str:
    # a raw '"' would end a quoted DOT ID, and a backslash escapes the next one
    ids = ['"{}/{}"'.format(names[u].replace("\\", "\\\\").replace('"', '\\"'), i + 1)
           for u, i in K.copies.tolist()]
    lines = ["graph knotting {"] + [f"  {node};" for node in ids]
    edges = np.sort(K.pairs, axis=1)
    edges = edges[np.lexsort(edges.T[::-1])]  # by first copy, then second
    lines += [f"  {ids[a]} -- {ids[b]};" for a, b in edges.tolist()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_knotting(args, G: Graph) -> int:
    H, _ = _completion_of(G)
    try:
        z = H.graph.index_of(args.anchor)
    except GraphError as exc:
        raise UsageError(str(exc)) from exc
    K = build_knotting(H, z)
    result = bipartite_or_odd_cycle(K)
    if args.dot:
        _write_text(args.dot, _knotting_dot(K, H.graph.names))
    if not isinstance(result, list):
        _print(f"knotting graph at anchor {args.anchor!r}: bipartite")
        return EXIT_OK
    cyc = ", ".join(f"{H.graph.names[u]}/{i + 1}" for u, i in K.copies[result].tolist())
    _print(f"knotting graph at anchor {args.anchor!r}: NOT bipartite (odd cycle: {cyc})")
    return EXIT_NOT_CA


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="circarc",
                                description="certifying circular-arc graph recognition")
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=["edgelist", "graph6"],
                        default="edgelist")

    sp = sub.add_parser("recognize", help="recognize a graph, emit a certificate")
    sp.add_argument("file")
    add_format(sp)
    sp.add_argument("--out", help="write the certificate here instead of stdout")
    sp.set_defaults(func=_cmd_recognize, graph_arg="file")

    sp = sub.add_parser("verify", help="check a certificate against a graph")
    sp.add_argument("graph")
    sp.add_argument("cert")
    add_format(sp)
    sp.set_defaults(func=_cmd_verify, graph_arg="graph")

    sp = sub.add_parser("oracle", help="brute-force ground truth (small graphs)")
    sp.add_argument("file")
    add_format(sp)
    sp.set_defaults(func=_cmd_oracle, graph_arg="file")

    sp = sub.add_parser("crosscheck", help="compare recognizer with the oracle")
    sp.add_argument("--max-n", type=int, default=4)
    sp.add_argument("--random", help="N,COUNT,P,SEED for a randomized batch")
    sp.set_defaults(func=_cmd_crosscheck, graph_arg=None)

    sp = sub.add_parser("complete", help="print the circular completion")
    sp.add_argument("file")
    add_format(sp)
    sp.set_defaults(func=_cmd_complete, graph_arg="file")

    sp = sub.add_parser("knotting", help="inspect the knotting graph at an anchor")
    sp.add_argument("file")
    sp.add_argument("--anchor", required=True,
                    help="vertex name in the completion")
    sp.add_argument("--dot", help="write the knotting graph as DOT")
    add_format(sp)
    sp.set_defaults(func=_cmd_knotting, graph_arg="file")
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    G: Optional[Graph] = None
    try:
        try:  # argparse drops an error writing --help, so its text goes through _print
            with contextlib.redirect_stdout(io.StringIO()) as shown:
                args = parser.parse_args(argv)
        except SystemExit as exc:
            if exc.code:  # a usage error, already on stderr
                return EXIT_USAGE
            _print(shown.getvalue(), end="")
            return EXIT_OK
        if args.graph_arg is not None:
            G = _load_graph(getattr(args, args.graph_arg), args.format)
        return args.func(args, G)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"# internal error: {exc}".replace("\n", "\n# "), file=sys.stderr)
        if G is not None:
            sys.stderr.write(write_edge_list(G))
        return EXIT_INTERNAL
    except MemoryError:  # numpy's _ArrayMemoryError too
        print("error: out of memory", file=sys.stderr)
        return EXIT_OUT_OF_MEMORY


if __name__ == "__main__":
    sys.exit(main())
