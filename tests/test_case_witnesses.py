"""Pinned witnesses for the exits of the case machine's blow-up endings.

Cases 2.2, 3.1 and 3.2.2 blow a face pair apart and then either merge at
a vertex that now lies on three antifaces (case 1), stop because no loop
appeared, or try a big-moderate merge that may fail its size hypotheses.
A step that stops with the embedding unchanged (a no-op blow up and no
loop) ends the run as a dead end, because the next step would repeat it.
Each start in ``fixtures/case_witnesses.json`` reaches one of those exits,
named by its ``case`` and ``exit`` fields.  They are small circulants and
their circuits and start rotations come from the benchmark's
``small-certify`` build: ``seed`` is the build's seed and ``index`` the
instance's position in it.

For every start the fixture holds the digraph's arcs, the circuits, the
start rotations and what a best-effort ``reduce_embedding`` gives: its
``trace.to_dicts()``, and either the final rotations or the dead-end text.
The runs here verify the embedding after every step.

Regenerate the expected outputs only when a change of behaviour is
intended:

    PYTHONPATH=src python tests/test_case_witnesses.py
"""

import json
import os

import pytest

from eulergenus import (
    BEST_EFFORT,
    CircuitDecomposition,
    Digraph,
    NoProgressError,
    OrientedDirectedEmbedding,
    ReductionTrace,
    TypeTable,
    classify,
    find_vertex_on_three_antifaces,
    iter_relative_embeddings,
    reduce_embedding,
    verify_embedding,
)
from eulergenus import reduce as reduce_module

from conftest import all_decompositions, three_vertex_eulerian_digraphs
from test_reduction_traces import build_traces

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "case_witnesses.json")


def load():
    with open(FIXTURE) as fh:
        return json.load(fh)


def start(witness):
    digraph = Digraph(witness["n"], [tuple(a) for a in witness["arcs"]])
    decomposition = CircuitDecomposition.from_arc_lists(digraph, witness["circuits"])
    return OrientedDirectedEmbedding(digraph, witness["start"]), decomposition


def expected(witness):
    """The fixture's expected fields for one witness start."""
    embedding, decomposition = start(witness)
    try:
        final, trace = reduce_embedding(embedding, decomposition, BEST_EFFORT,
                                        validate_steps=True)
    except NoProgressError as exc:
        return {"trace": exc.trace.to_dicts(), "rotations": None, "dead_end": str(exc)}
    if not verify_embedding(final, decomposition).ok:
        raise AssertionError(f"{witness['label']}: the final embedding does not verify")
    return {"trace": trace.to_dicts(), "rotations": [list(rot) for rot in final.rotations],
            "dead_end": None}


def render(witnesses):
    return json.dumps(witnesses, sort_keys=True, separators=(",", ":")).replace(
        '},{"arcs"', '},\n{"arcs"'
    ) + "\n"


WITNESSES = load()
IDS = [f"{w['case']}: {w['exit']}" for w in WITNESSES]


@pytest.mark.parametrize("witness", WITNESSES, ids=IDS)
def test_witness_replays_its_exit(witness):
    got = expected(witness)
    assert got["trace"] == witness["trace"]
    assert got["dead_end"] == witness["dead_end"]
    assert got["rotations"] == witness["rotations"]


def test_every_witness_runs_its_case():
    """Each start reaches its case's blow up, so its exit is exercised.  The
    two no-op starts are the exception: the reducer drops a step that left
    the embedding unchanged, so their traces end in the dead-end text."""
    for witness in WITNESSES:
        if (witness["seed"], witness["index"]) in {(3, 32), (4, 25)}:
            assert witness["dead_end"] == "case 2.2: the step left the embedding unchanged"
            continue
        blow_ups = [step for step in witness["trace"] if step["operation"] == "blow_up"]
        assert witness["case"] in {step["case"] for step in blow_ups}, witness["label"]


@pytest.mark.parametrize("witness", WITNESSES, ids=IDS)
def test_witness_trace_passes_validate(witness):
    """Dead ends included, no trace holds three count-preserving steps in a
    row; the replay above ties the fixture's trace to the run's."""
    trace = ReductionTrace()
    for row in witness["trace"]:
        trace.record(row["case"], row["operation"], row["witness"],
                     row["antifaces_before"], row["antifaces_after"])
    assert trace.validate() == []


def test_the_heaviest_pair_of_a_star_is_its_center_and_heaviest_neighbor(
        tournament7, sts7, monkeypatch):
    """Case 2.2 takes its partner from ``classify``: in a loop-free star
    every link holds the center, so the heaviest pair is the center and its
    heaviest neighbor, lowest key on ties.  The shapes are the ones the
    reducer reads on every witness run, among them where the case-2.2
    witnesses enter the case, and those of the irreducible 7-tournament and
    Steiner 7 states."""
    shapes, entered = [], []
    real_classify = reduce_module.classify
    real_case = reduce_module._Reducer.case_no_loops_star

    def recording_classify(touch):
        shape = real_classify(touch)
        shapes.append((touch, shape))
        return shape

    def recording_case(reducer, touch, shape):
        entered.append((touch, shape))
        return real_case(reducer, touch, shape)

    monkeypatch.setattr(reduce_module, "classify", recording_classify)
    monkeypatch.setattr(reduce_module._Reducer, "case_no_loops_star", recording_case)
    for witness in WITNESSES:
        before = len(entered)
        try:
            reduce_embedding(*start(witness), BEST_EFFORT)
        except NoProgressError:
            pass
        assert (len(entered) > before) == (witness["case"] == "2.2"), witness["label"]
    monkeypatch.undo()
    for digraph, decomposition in (tournament7, sts7):
        for emb in iter_relative_embeddings(digraph, decomposition):
            if find_vertex_on_three_antifaces(emb) is None:
                touch = TypeTable(emb)
                shapes.append((touch, classify(touch)))
    checked = 0
    for touch, shape in shapes:
        if shape.loop_nodes or not shape.is_star or len(touch.nodes) < 3:
            continue
        center = shape.star_center
        weight = {key: len(touch.link_vertices(center, key))
                  for key in touch.neighbors(center)}
        heaviest = min(weight, key=lambda key: (-weight[key], key))
        assert center in shape.heaviest_pair
        assert set(shape.heaviest_pair) == {center, heaviest}
        checked += 1
    assert checked >= len(entered) >= 3


def _connected(touch):
    seen = {touch.nodes[0]}
    stack = [touch.nodes[0]]
    while stack:
        for key in touch.neighbors(stack.pop()):
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return len(seen) == len(touch.nodes)


def test_every_touch_graph_the_reducer_reads_is_connected(monkeypatch):
    """The lemma that rules out the case machine's other dead ends: in a
    locally irreducible embedding of a connected digraph the touch graph is
    connected.  Checked on every touch graph the reducer builds on the
    golden-trace corpus, the witness starts, and every start of every
    three-vertex eulerian digraph with at most six arcs."""
    checked = []
    real_build = reduce_module.build_touch_graph

    def checking_build(embedding):
        touch = real_build(embedding)
        assert _connected(touch), [sorted(f.vertex_set()) for f in embedding.antifaces]
        checked.append(len(touch.nodes))
        return touch

    monkeypatch.setattr(reduce_module, "build_touch_graph", checking_build)
    build_traces()
    golden = len(checked)
    for witness in WITNESSES:
        try:
            reduce_embedding(*start(witness), BEST_EFFORT)
        except NoProgressError:
            pass
    witnesses = len(checked) - golden
    for digraph in three_vertex_eulerian_digraphs(6):
        for decomposition in all_decompositions(digraph):
            for emb in iter_relative_embeddings(digraph, decomposition):
                try:
                    reduce_embedding(emb, decomposition, BEST_EFFORT)
                except NoProgressError:
                    pass
    three_vertex = len(checked) - golden - witnesses
    assert min(golden, witnesses, three_vertex) >= 1 and min(checked) >= 3

if __name__ == "__main__":
    witnesses = load()
    for witness in witnesses:
        witness.update(expected(witness))
    with open(FIXTURE, "w") as fh:
        fh.write(render(witnesses))
