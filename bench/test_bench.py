"""Tests of the benchmark's own code, at small n."""

import json
import random

import pytest

import run
import workloads
from circarc.oracle import oracle_is_ca
from circarc.recognizer import POSITIVE
from spans import Span, Tracer, instrumented, self_times

SMALL_FAMILIES = {
    "arc model": lambda rng: workloads.random_arc_model(rng, rng.randint(1, 8)),
    "interval graph": lambda rng: workloads.random_interval_graph(rng, rng.randint(1, 8)),
    "biclaw": lambda rng: workloads.planted_negative(rng, 1, workloads.BICLAW),
    "c4+k1": lambda rng: workloads.planted_negative(rng, rng.randint(1, 3), workloads.C4_K1),
    "twin blowup": lambda rng: workloads.twin_blowup(rng, rng.randint(1, 4), 2),
}


@pytest.mark.parametrize("family", sorted(SMALL_FAMILIES))
def test_known_answers_agree_with_oracle(family):
    rng = random.Random(family)
    for _ in range(40):
        case = SMALL_FAMILIES[family](rng)
        assert case.graph.n <= 8
        workloads.check_witness(case)
        assert oracle_is_ca(case.graph) == (case.verdict == POSITIVE)


def test_broken_witness_is_caught():
    case = workloads.random_arc_model(random.Random(3), 6)
    arcs = dict(case.arcs.arcs)
    arcs[0] = arcs[1]
    with pytest.raises(workloads.WitnessError):
        workloads.check_witness(workloads.Case(
            case.graph, case.verdict, arcs=workloads.ArcRepresentation(
                case.arcs.circle_size, arcs)))


def test_self_time_subtracts_direct_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 5.0, parent=0),
        Span("b", 2.0, 3.0, parent=1),
        Span("b", 3.5, 4.0, parent=1),
        Span("a", 6.0, 9.0, parent=0),
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx((3.0, 1))
    assert got["a"] == pytest.approx((5.5, 2))
    assert got["b"] == pytest.approx((1.5, 2))


def test_wrapper_nests_spans_and_restores_bindings():
    from circarc import edgetypes, recognizer

    original = recognizer.complete
    tracer = Tracer()
    targets = {"recognizer.recognize": None, "edgetypes.complete": None,
               "knotting.no_such_function": None, "no_such_module.f": None}
    with instrumented(tracer, "circarc", targets) as absent:
        assert recognizer.complete is edgetypes.complete is not original
        recognizer.recognize(workloads.random_arc_model(random.Random(1), 10).graph)
    assert absent == ["knotting.no_such_function", "no_such_module.f"]
    assert recognizer.complete is original
    names = [s.name for s in tracer.spans]
    assert names == ["recognizer.recognize", "edgetypes.complete"]
    assert tracer.spans[1].parent == 0


def _small_traced_run(seed):
    rng = random.Random(seed)
    cases = [workloads.random_arc_model(rng, 12), workloads.random_interval_graph(rng, 10),
             workloads.planted_negative(rng, 10, workloads.BICLAW),
             workloads.planted_negative(rng, 10, workloads.C4_K1)]
    formats, recognizer = run._import_library()
    loop = run.Loop(formats, recognizer, cases, len(cases))
    metrics = run.run_traced(loop, seconds=0)
    counts = {k: v[2] for k, v in metrics.items() if not k.endswith(("self_s", "ratio"))}
    return loop, counts


def test_same_seed_gives_same_counts_and_digest():
    loop_a, counts_a = _small_traced_run(5)
    loop_b, counts_b = _small_traced_run(5)
    assert loop_a.failed == loop_b.failed == 0
    assert loop_a.attempted == 2 * run.DIGEST_GRAPHS
    assert counts_a == counts_b
    assert loop_a.digest() == loop_b.digest()
    assert loop_a.digest()["graphs"] == len(loop_a.cases)
    assert counts_a["knotting.walk_len"] > 0 and counts_a["knotting.z_size"] > 0
    _, counts_c = _small_traced_run(6)
    assert counts_c != counts_a


def test_times_are_scaled_by_the_host_reference(monkeypatch, capsys):
    # A host on which the reference kernel takes twice its nominal time
    # halves every reported time.
    monkeypatch.setattr(run, "host_ref", lambda: 2 * run.REF_NOMINAL_S)
    rng = random.Random(2)
    cases = [workloads.random_arc_model(rng, 12), workloads.random_interval_graph(rng, 10)]
    formats, recognizer = run._import_library()
    metrics = run.run_untraced(run.Loop(formats, recognizer, cases, len(cases)), 60)
    timing = json.loads(capsys.readouterr().out.splitlines()[-1])["timing"]
    assert timing["graphs"] == 2
    assert metrics["recognize_p50_s"][2] == pytest.approx(timing["measured_recognize_p50_s"] / 2)
    assert metrics["graphs_per_s"][2] == pytest.approx(timing["measured_graphs_per_s"] * 2)


def test_workload_inputs_repeat_for_a_seed():
    pool = workloads.pool_size("planted-negative", 45)
    a = workloads.make_cases("planted-negative", 3, pool)
    b = workloads.make_cases("planted-negative", 3, pool)
    assert [c.graph.adj.tobytes() for c in a] == [c.graph.adj.tobytes() for c in b]
    assert [c.planted for c in a] == [c.planted for c in b]
