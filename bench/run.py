"""circarc benchmark: certify graphs with known verdicts in a closed loop.

    python3 bench/run.py --workload arc-positive --seed 1 --seconds 35 --trace 0

One client, one thread, one graph at a time.  Per graph the loop calls the
library from outside: recognize, serialize_certificate, parse_certificate,
then verify_positive or verify_negative, and checks the verdict against the
answer known by construction.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it certifies every graph once untraced and once
traced and prints per-layer self times, call counts, structural counts and
the tracing overhead.  Times are in nominal seconds, measured seconds
corrected for the speed of the shared host (see host_ref).  The last line
of stdout is one JSON result object; earlier lines describe the
environment, the sample counts and the certificate digest.  See
bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

T_START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

# An untraced run certifies every graph of its pool once.  A traced run
# always certifies the pool's first DIGEST_GRAPHS graphs; its counts and
# digest are taken over exactly these, so they repeat for a given seed however
# fast the host is.
DIGEST_GRAPHS = 8
CHILD_SETUPS = 4
VERIFY_REPEATS = 3
# Seconds the host reference kernel typically takes on a 2-core Xeon VM;
# see host_ref.
REF_NOMINAL_S = 0.035
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# Traced functions, as "<module>.<function>" of the circarc package, each
# with an optional reader of structural counts from its return value.
TRACED = {
    "recognizer.recognize": None,
    "graph.reduce": lambda args, res: {"graph.reduce.steps": len(res[1].steps)},
    "edgetypes.classify_all": None,
    "edgetypes.complete": lambda args, res: {
        "edgetypes.complete.added": res[0].graph.n - args[0].graph.n},
    "knotting.build_knotting": lambda args, res: {
        "knotting.copies": len(res.copies),
        "knotting.edges": sum(map(len, res.adjacency)) // 2},
    "knotting.bipartite_or_odd_cycle": None,
    "knotting.extract_invertible_pair": lambda args, res: {
        "knotting.walk_len": len(res.walk_p)},
    "knotting.walk_pair_error": None,
    "knotting.disagreement_partition": None,
    "knotting.build_Z": lambda args, res: {"knotting.z_size": len(res)},
    "delta.labelled_from_typed": None,
    "delta.interval_orientation": None,
    "delta.implication_classes": None,
    "intervals.build_intervals": None,
    "intervals.lift_to_circle": None,
    "arcs.expand_arcs": lambda args, res: {"arcs.circle_size": res.circle_size},
    "arcs.representation_error": None,
    "recognizer.verify_positive": None,
    "recognizer.verify_negative": None,
    "recognizer.negative_error": None,
    "formats.serialize_certificate": None,
    "formats.parse_certificate": None,
}
STRUCTURAL_COUNTS = ("graph.reduce.steps", "edgetypes.complete.added",
                     "knotting.copies", "knotting.edges", "knotting.z_size",
                     "knotting.walk_len", "arcs.circle_size")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _import_library():
    try:
        import circarc
        from circarc import formats, recognizer
    except ImportError as exc:
        raise BenchError(f"cannot import circarc from {ROOT / 'src'}: {exc}") from exc
    if not Path(circarc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"circarc imported from {circarc.__file__}, not {ROOT / 'src'}")
    return formats, recognizer


def setup(workload: str, seed: int, seconds: float):
    """Import the library and build the workload's graphs, witnesses checked.

    Returns the two modules, the graphs and the set-up time since the
    process started: the imports in measured seconds, because starting a
    process and importing spend much of their time in the kernel and do not
    follow the reference kernel, and drawing and checking the graphs, which
    is Python and numpy work, in nominal seconds (see host_ref).
    """
    formats, recognizer = _import_library()
    import workloads
    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    pool = workloads.pool_size(workload, seconds)
    imported = time.perf_counter()
    try:
        cases = workloads.make_cases(workload, seed, pool)
    except workloads.WitnessError as exc:
        raise BenchError(f"input generation is broken: {exc}") from exc
    drawn = time.perf_counter()
    scale = REF_NOMINAL_S / statistics.median(host_ref() for _ in range(3))
    return formats, recognizer, cases, imported - T_START + (drawn - imported) * scale


def setup_seconds_in_child(workload: str, seed: int, seconds: float) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up in a fresh process failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def certify(formats, recognizer, case) -> tuple[float, float, float, str, str]:
    """One graph through the public pipeline.

    The certificate is parsed and verified VERIFY_REPEATS times, each of
    which must accept; the fastest counts, because a check this short is
    easily slowed by other load on the host.  Returns (recognize s,
    parse+verify s, whole pipeline s, certificate text, problem or "").
    """
    G = case.graph
    t0 = time.perf_counter()
    cert = recognizer.recognize(G)
    t1 = time.perf_counter()
    text = formats.serialize_certificate(G, cert)
    t2 = time.perf_counter()
    verify_s = float("inf")
    accepted = True
    for _ in range(VERIFY_REPEATS):
        t3 = time.perf_counter()
        parsed = formats.parse_certificate(G, text)
        if parsed.verdict == recognizer.POSITIVE:
            accepted &= recognizer.verify_positive(G, parsed)
        else:
            accepted &= recognizer.verify_negative(G, parsed)
        verify_s = min(verify_s, time.perf_counter() - t3)
    problem = ""
    if cert.verdict != case.verdict:
        problem = f"verdict {cert.verdict}, known answer {case.verdict}"
    elif parsed.verdict != cert.verdict or not accepted:
        problem = "certificate rejected by the verifier"
    return t1 - t0, verify_s, t2 - t0 + verify_s, text, problem


class Loop:
    """Closed-loop state shared by the untraced and traced runs."""

    def __init__(self, formats, recognizer, cases, digest_graphs: int):
        self.formats, self.recognizer, self.cases = formats, recognizer, cases
        self.attempted = 0
        self.failed = 0
        self.first_sha: dict[int, str] = {}
        # The certificates of the pool's first `digest_graphs` graphs are
        # hashed as they are first certified, which is in pool order, rather
        # than kept: holding them would add to the peak RSS being measured.
        self.digest_graphs = digest_graphs
        self._digest = hashlib.sha256()
        self._digest_count = self._digest_bytes = 0

    def one(self, idx: int):
        """Certify graph idx of the pool: (recognize s, verify s, total s), or
        None if it failed."""
        self.attempted += 1
        try:
            rec, ver, total, text, problem = certify(
                self.formats, self.recognizer, self.cases[idx])
        except Exception:  # a crash of the library counts as a failed graph
            print(f"graph {idx}: exception\n{traceback.format_exc()}", file=sys.stderr)
            self.failed += 1
            return None
        data = text.encode()
        sha = hashlib.sha256(data).hexdigest()
        first = idx not in self.first_sha
        if not problem and self.first_sha.setdefault(idx, sha) != sha:
            problem = "certificate differs from an earlier run on the same graph"
        if problem:
            print(f"graph {idx}: {problem}", file=sys.stderr)
            self.failed += 1
            return None
        if first and idx < self.digest_graphs:
            self._digest.update(data)
            self._digest_count += 1
            self._digest_bytes += len(data)
        return rec, ver, total

    def digest(self) -> dict:
        """SHA-256 and size of the certificates of the pool's first
        `digest_graphs` graphs, in pool order; a graph that failed is left out."""
        return {"graphs": self._digest_count, "sha256": self._digest.hexdigest(),
                "bytes": self._digest_bytes}


@functools.cache
def _ref_matrix():
    import numpy
    rng = numpy.random.default_rng(0)
    return (rng.random((160, 160)) < 0.5).astype(numpy.int32)


def host_ref() -> float:
    """Seconds a fixed reference kernel takes now: a pure-Python dict loop and
    integer matrix products, the two kinds of work circarc does.

    The shared host this runs on changes speed by up to a factor of two,
    from one second to the next and for minutes at a time, and circarc's
    Python and numpy code slow down with it alike.  Each timing is therefore reported in nominal seconds: measured
    seconds times REF_NOMINAL_S over the mean of this kernel's time just
    before and just after the timed call, i.e. what the call would take on
    a host where the kernel takes REF_NOMINAL_S.  The kernel is the
    benchmark's own code, so a change to circarc does not move it.
    """
    matrix = _ref_matrix()
    t0 = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(60000):
        acc[i & 1023] = acc.get(i & 1023, 0) + i
    for _ in range(4):
        matrix @ matrix.T
    return time.perf_counter() - t0


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of p50..p99.9 with at least ten samples above it."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        k = int(len(ordered) * p / 100)
        if len(ordered) - k - 1 >= 10:
            return p, ordered[k]
    return None


def env_record() -> dict:
    import numpy
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": cpus, "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def run_untraced(loop: Loop, seconds: float) -> dict:
    """Certify every graph of the pool once, in pool order.

    The pool is sized from `seconds`, so every graph gets one sample however
    fast the host or the program is, and a faster program finishes the same
    work sooner.  Only on a host so slow that `seconds` have gone does the
    run stop before the end of the pool.  Times are in nominal seconds
    (see host_ref); the `timing` line also gives the measured ones.
    """
    times, measured, refs = [], [], [host_ref()]
    start = time.perf_counter()
    for idx in range(len(loop.cases)):
        if time.perf_counter() - start > seconds:
            break
        out = loop.one(idx)
        refs.append(host_ref())
        if out is not None:
            scale = REF_NOMINAL_S / statistics.fmean(refs[-2:])
            times.append(tuple(t * scale for t in out))
            measured.append(out)
    wall = time.perf_counter() - start
    if not times:
        raise BenchError("no graph was certified")
    info = {"graphs": len(times), "wall_s": wall,
            "ref_p50_s": statistics.median(refs),
            "measured_recognize_p50_s": statistics.median(t[0] for t in measured),
            "measured_graphs_per_s": len(measured) / sum(t[2] for t in measured)}
    tail = tail_percentile([t[0] for t in times])
    if tail is not None:
        info[f"recognize_p{tail[0]:g}_s"] = tail[1]
    print(json.dumps({"timing": info}))
    graphs = len(times)
    return {
        "graphs_per_s": (graphs, "1/s", graphs / sum(t[2] for t in times)),
        "recognize_p50_s": (graphs, "s", statistics.median(t[0] for t in times)),
        "verify_p50_s": (graphs, "s", statistics.median(t[1] for t in times)),
    }


def run_traced(loop: Loop, seconds: float) -> dict:
    from spans import Tracer, instrumented, self_times

    tracer = Tracer()
    plain = traced = 0.0
    graphs = 0
    counted_spans = 0
    counts: dict[str, int] = {}
    per_graph: dict[str, float] = {}
    refs = [host_ref()]
    start = time.perf_counter()
    i = 0
    while i < DIGEST_GRAPHS or time.perf_counter() - start < seconds:
        # The same graph untraced, then traced; both runs are checked, and
        # the ratio of their times is the tracing overhead.
        idx = i % len(loop.cases)
        first_span = len(tracer.spans)
        untraced = loop.one(idx)
        with instrumented(tracer, "circarc", TRACED) as absent:
            out = loop.one(idx)
        refs.append(host_ref())
        if untraced is not None and out is not None:
            plain += untraced[2]
            traced += out[2]
            graphs += 1
        # Self times in nominal seconds (see host_ref), from this graph's
        # spans; a span's parent always belongs to the same graph.
        scale = REF_NOMINAL_S / statistics.fmean(refs[-2:])
        own = [replace(span, parent=span.parent - first_span if span.parent >= 0 else -1)
               for span in tracer.spans[first_span:]]
        for name, (t, _) in self_times(own).items():
            per_graph[name] = per_graph.get(name, 0.0) + t * scale
        i += 1
        if i == DIGEST_GRAPHS:
            counted_spans = len(tracer.spans)
            counts = dict(tracer.counts)
    if not graphs:
        raise BenchError("no graph was certified")
    calls = self_times(tracer.spans[:counted_spans])
    print(json.dumps({"trace": {"graphs": graphs, "count_graphs": DIGEST_GRAPHS,
                                "ref_p50_s": statistics.median(refs),
                                "absent": absent}}))
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.self_s"] = (graphs, "s", per_graph.get(name, 0.0) / graphs)
        metrics[f"{name}.calls"] = (DIGEST_GRAPHS, "count", calls.get(name, (0.0, 0))[1])
    for name in STRUCTURAL_COUNTS:
        metrics[name] = (DIGEST_GRAPHS, "count", counts.get(name, 0))
    metrics["trace.overhead_ratio"] = (graphs, "ratio", traced / plain - 1.0)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        formats, recognizer, cases, setup_s = setup(args.workload, args.seed, args.seconds)
        if args.setup_only:
            print(setup_s)
            return 0
        print(f"bench workload={args.workload} seed={args.seed} "
              f"graphs={len(cases)} seconds={args.seconds:g} trace={args.trace}")
        print(json.dumps({"env": env_record()}))
        loop = Loop(formats, recognizer, cases,
                    DIGEST_GRAPHS if args.trace else len(cases))
        if args.trace:
            metrics = run_traced(loop, args.seconds)
            digest = loop.digest()
        else:
            metrics = run_untraced(loop, args.seconds)
            digest = loop.digest()
            # Set-up is timed again in fresh processes, and the median kept.
            setups = [setup_s] + [
                setup_seconds_in_child(args.workload, args.seed, args.seconds)
                for _ in range(CHILD_SETUPS)]
            metrics["peak_rss_mb"] = (
                1, "MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            metrics["cert_kb"] = (digest["graphs"], "KB", digest["bytes"] / 1024)
            metrics["setup_s"] = (len(setups), "s", statistics.median(setups))
        print(json.dumps({"certificates": digest,
                          "failed_ratio": loop.failed / loop.attempted}))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"samples": {k: v[0] for k, v in metrics.items()}}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v[2], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
