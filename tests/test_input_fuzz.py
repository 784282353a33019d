"""Hypothesis fuzz of graph input files.

Each example takes a small edge-list or graph6 seed text (at most 16
vertices) and inserts, replaces or deletes a few characters.  `circarc
recognize` must answer 0 (circular-arc), 10 (not circular-arc) or 2 (the
input is not a graph), and no exception may escape; a certificate it
writes must pass `circarc verify`.
"""

import os
import random
import tempfile

from hypothesis import given, settings, strategies as st

from circarc.cli import main
from circarc.formats import write_edge_list, write_graph6
from conftest import BICLAW_EDGES, NEAR_BICLAW_EDGES, arc_model, planted_negative

_rng = random.Random(4)
_GRAPHS = [arc_model(_rng, 9), arc_model(_rng, 16), planted_negative(_rng, 9, "biclaw"),
           planted_negative(_rng, 11, "c4+k1")]
SEEDS = {
    "edgelist": [BICLAW_EDGES, NEAR_BICLAW_EDGES, "a b\nb c\nc d\nd a\n# C4\ne",
                 *map(write_edge_list, _GRAPHS)],
    "graph6": ["Cl", "?", "@", "F?B~w", *map(write_graph6, _GRAPHS)],
}
# characters the parsers treat specially, beside any other character
SPECIAL = list(" \t\n\r#~?@_}\x7f\x00") + ["é"]


@st.composite
def mutated(draw):
    fmt = draw(st.sampled_from(sorted(SEEDS)))
    text = list(draw(st.sampled_from(SEEDS[fmt])))
    chars = st.sampled_from(SPECIAL) | st.characters(codec="utf-8", max_codepoint=0x2ff)
    if fmt == "graph6":  # a replaced byte in range 63-126 keeps the graph6 length
        chars |= st.characters(min_codepoint=63, max_codepoint=126)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["insert", "replace", "delete"]))
        if kind == "insert":
            text.insert(draw(st.integers(0, len(text))), draw(chars))
        elif text:
            i = draw(st.integers(0, len(text) - 1))
            if kind == "replace":
                text[i] = draw(chars)
            else:
                del text[i]
    return fmt, "".join(text)


@settings(max_examples=150, deadline=None)
@given(mutated())
def test_mutated_inputs_never_crash(example):
    fmt, text = example
    with tempfile.TemporaryDirectory() as tmp:
        graph, cert = os.path.join(tmp, "g.txt"), os.path.join(tmp, "cert.json")
        with open(graph, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        code = main(["recognize", graph, "--format", fmt, "--out", cert])
        assert code in (0, 2, 10)
        if code != 2:
            assert main(["verify", graph, cert, "--format", fmt]) == 0
