"""Input readers: each arc list, circuit and rotation is read once, by one
reader per input type, and a malformed one raises only the library's errors."""

import json
import tracemalloc
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from eulergenus import (
    BEST_EFFORT,
    CircuitDecomposition,
    Digraph,
    DirectedCircuit,
    EmbeddingError,
    GraphError,
    HypothesisError,
    OrientedDirectedEmbedding,
    UndirectedGraph,
    blow_up,
    embed_from_decomposition,
    euler_circuit,
    eulerian_orientation,
    extract_dense_subgraph,
    gen_rotational_tournament,
    merge_interlaced,
    merge_three_at_vertex,
    reduce_to_upper_embedding,
    relative_upper_from_partial,
    split_circuit_at,
    undirected_euler_circuit,
    undirected_upper_embedding,
)
from eulergenus.embedding import euler_genus
from eulergenus import digraph as digraph_module
from eulergenus import embedding as embedding_module

from conftest import circuit_set


@pytest.fixture(scope="module")
def t7():
    """The 7-tournament, one euler circuit, and its canonical embedding,
    whose antifaces 0, 2 and 4 visit {0, 1, 4, 6}, {0, 1, 2, 3, 5, 6} and
    every vertex."""
    digraph = gen_rotational_tournament(7)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    return digraph, decomposition, embed_from_decomposition(digraph, decomposition)


@cache
def _pendant():
    """A 5-cycle with a chord digon and a digon to vertex 5, whose one
    neighbor puts k + 3 = 7 above the order: the canonical embedding,
    antifaces 0 on {0, 1, 2, 3, 4} and 10 on {0, 5}."""
    digraph = Digraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 0),
                          (1, 3), (3, 1)])
    emb = embed_from_decomposition(digraph, CircuitDecomposition(digraph, [euler_circuit(digraph)]))
    return emb, emb.antiface(0), emb.antiface(10)


_TWO_LOOPS = Digraph(2, [(0, 0), (1, 1)])
_ONE_VERTEX = Digraph(1, [])


@pytest.mark.parametrize("build, error, message", [
    (lambda d, c, e: Digraph(3, [(0, 1, 2)]),
     GraphError, "the vertex count and arc endpoints must be integers: "
                 "arc 0 is (0, 1, 2), not a pair"),
    (lambda d, c, e: Digraph(3, [(0, 1), 5]),
     GraphError, "the vertex count and arc endpoints must be integers: "
                 "arc 1 is 5, not a pair"),
    (lambda d, c, e: Digraph(3, 5),
     GraphError, "the vertex count and arc endpoints must be integers: "
                 "the arc list is 5, not a sequence"),
    (lambda d, c, e: UndirectedGraph(3, [(0, 1, 2)]),
     GraphError, "the vertex count and edge endpoints must be integers: "
                 "edge 0 is (0, 1, 2), not a pair"),
    (lambda d, c, e: OrientedDirectedEmbedding(d, [5] * 7),
     EmbeddingError, "rotation half-arcs must be integers: the rotation at vertex 0 is 5, "
                     "not a sequence"),
    (lambda d, c, e: OrientedDirectedEmbedding(d, None),
     EmbeddingError, "rotation half-arcs must be integers: the rotation list is None, "
                     "not a sequence"),
    (lambda d, c, e: e.with_rotation(0, None),
     EmbeddingError, "rotation half-arcs must be integers: the rotation at vertex 0 is None, "
                     "not a sequence"),
    (lambda d, c, e: e.with_rotation(-1, e.rotations[6]),
     EmbeddingError, "vertex -1 is outside 0..6"),
    (lambda d, c, e: e.with_rotation(7, e.rotations[0]),
     EmbeddingError, "vertex 7 is outside 0..6"),
    (lambda d, c, e: e.with_rotation(True, e.rotations[1]),
     EmbeddingError, "vertex True is outside 0..6"),
    (lambda d, c, e: DirectedCircuit(d, 5),
     GraphError, "circuit arc ids must be integers: the circuit is 5, not a sequence"),
    (lambda d, c, e: CircuitDecomposition.from_arc_lists(d, [5]),
     GraphError, "circuit arc ids must be integers: the circuit is 5, not a sequence"),
    (lambda d, c, e: CircuitDecomposition.from_arc_lists(d, 5),
     GraphError, "the circuit list is 5, not a sequence"),
    (lambda d, c, e: CircuitDecomposition(d, [1, 2]),
     GraphError, "circuit 0 is 1, not a DirectedCircuit"),
    (lambda d, c, e: CircuitDecomposition(d, None),
     GraphError, "the circuit list is None, not a sequence"),
    (lambda d, c, e: split_circuit_at(c, 1, 0),
     GraphError, "circuit index 1 is outside 0..0"),
    (lambda d, c, e: split_circuit_at(c, -1, 0),
     GraphError, "circuit index -1 is outside 0..0"),
    (lambda d, c, e: split_circuit_at(c, 0, 7),
     GraphError, "vertex 7 is outside 0..6"),
    (lambda d, c, e: split_circuit_at(c, 0, -1),
     GraphError, "vertex -1 is outside 0..6"),
    (lambda d, c, e: split_circuit_at(c, 0, True),
     GraphError, "vertex True is outside 0..6"),
    (lambda d, c, e: split_circuit_at(c, 0, 0, pieces="2"),
     GraphError, "piece count '2' is not a positive integer"),
    (lambda d, c, e: split_circuit_at(c, 0, 0, pieces=None),
     GraphError, "piece count None is not a positive integer"),
    (lambda d, c, e: split_circuit_at(c, 0, 0, pieces=2.0),
     GraphError, "piece count 2.0 is not a positive integer"),
    (lambda d, c, e: split_circuit_at(c, 0, 0, pieces=0),
     GraphError, "piece count 0 is not a positive integer"),
    (lambda d, c, e: split_circuit_at(c, 0, 0, pieces=-1),
     GraphError, "piece count -1 is not a positive integer"),
    (lambda d, c, e: split_circuit_at(c, 0, 0, pieces=True),
     GraphError, "piece count True is not a positive integer"),
    (lambda d, c, e: relative_upper_from_partial(d, 5),
     GraphError, "the circuit list is 5, not a sequence"),
    (lambda d, c, e: relative_upper_from_partial(d, None),
     GraphError, "the circuit list is None, not a sequence"),
    (lambda d, c, e: relative_upper_from_partial(d, [DirectedCircuit(_TWO_LOOPS, [0])]),
     GraphError, "partial circuit belongs to a different digraph"),
    (lambda d, c, e: relative_upper_from_partial(Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 1)]),
                                                 [[0, 1, 2]]),
     GraphError, "leftover arcs are unbalanced at vertices [0, 1]"),
    (lambda d, c, e: CircuitDecomposition(d, [DirectedCircuit(_TWO_LOOPS, [0])]),
     GraphError, "circuit belongs to a different digraph"),
    (lambda d, c, e: embed_from_decomposition(_TWO_LOOPS, c),
     GraphError, "decomposition belongs to a different digraph"),
    (lambda d, c, e: euler_genus(embed_from_decomposition(
        _TWO_LOOPS, CircuitDecomposition.from_arc_lists(_TWO_LOOPS, [[0], [1]]))),
     GraphError, "genus is defined for connected digraphs only"),
    (lambda d, c, e: UndirectedGraph(3, [(0, 1), (2, 2)]),
     GraphError, "edge 1 is a loop; orientation input must be loop-free"),
    (lambda d, c, e: undirected_euler_circuit(UndirectedGraph(3, [])),
     GraphError, "graph has no edges"),
    (lambda d, c, e: undirected_euler_circuit(
        UndirectedGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])),
     GraphError, "graph is not connected"),
    (lambda d, c, e: UndirectedGraph(3, [(0, 1)]).other_end(0, 2),
     GraphError, "edge 0 is not incident with vertex 2"),
    (lambda d, c, e: extract_dense_subgraph({0: set()}, 1),
     HypothesisError, "1 vertices, need at least 2"),
    (lambda d, c, e: merge_three_at_vertex(e, 0, e.antiface(0), e.antiface(0), e.antiface(2)),
     EmbeddingError, "the three antifaces must be distinct"),
    (lambda d, c, e: merge_interlaced(e, e.antiface(4), e.antiface(0), e.antiface(2), 0, 4),
     HypothesisError, "vertex 4 must lie on the third face"),
    (lambda d, c, e: merge_interlaced(e, e.antiface(0), e.antiface(2), e.antiface(4), 0, 1),
     HypothesisError, "vertices 0 and 1 do not interlace on the face to split"),
    (lambda d, c, e: blow_up(_pendant()[0], _pendant()[1], _pendant()[1], 0),
     HypothesisError, "the two antifaces must be distinct"),
    (lambda d, c, e: blow_up(*_pendant(), 2),
     HypothesisError, "vertex 2 must lie on both antifaces"),
    (lambda d, c, e: blow_up(*_pendant(), 0),
     HypothesisError, "order 6 below k + 3 = 7"),
    (lambda d, c, e: reduce_to_upper_embedding(
        _ONE_VERTEX, CircuitDecomposition(_ONE_VERTEX, []), BEST_EFFORT),
     GraphError, "digraph has no arcs"),
    (lambda d, c, e: relative_upper_from_partial(_ONE_VERTEX, [], BEST_EFFORT),
     GraphError, "digraph has no arcs"),
], ids=["digraph-triple", "digraph-int-arc", "digraph-int-arcs", "undirected-triple",
        "embedding-int-rotations", "embedding-none", "with-rotation-none",
        "with-rotation-vertex-below", "with-rotation-vertex-above", "with-rotation-bool-vertex",
        "circuit-int", "arc-lists-int-circuit", "arc-lists-int", "decomposition-int-items",
        "decomposition-none", "split-index-above", "split-index-below",
        "split-vertex-above", "split-vertex-below", "split-bool-vertex", "split-str-pieces",
        "split-none-pieces", "split-float-pieces", "split-zero-pieces", "split-negative-pieces",
        "split-bool-pieces", "partial-int", "partial-none", "partial-other-digraph",
        "partial-unbalanced-leftover", "decomposition-other-digraph",
        "embed-other-digraph", "genus-disconnected", "undirected-loop",
        "undirected-circuit-edgeless", "undirected-circuit-disconnected",
        "undirected-other-end", "dense-subgraph-few-vertices", "merge-three-repeated-face",
        "merge-interlaced-y-off-third-face", "merge-interlaced-no-interlacing",
        "blow-up-repeated-face", "blow-up-vertex-off-partner", "blow-up-order-below-k-plus-3",
        "reduce-arcless", "partial-arcless"])
def test_malformed_inputs_raise_library_errors(t7, build, error, message):
    with pytest.raises(error) as info:
        build(*t7)
    assert str(info.value) == message


_TRIANGLE = UndirectedGraph(3, [(0, 1), (1, 2), (2, 0)])


@pytest.mark.parametrize("orient", [
    eulerian_orientation,
    lambda graph, walks: undirected_upper_embedding(graph, walks, BEST_EFFORT),
], ids=["eulerian-orientation", "undirected-upper"])
@pytest.mark.parametrize("walks, message", [
    ([[0, "a", 0]], "walk 0 vertices must be integers: 'a' is not an integer"),
    ([5], "walk 0 is 5, not a sequence"),
    (None, "the walk list is None, not a sequence"),
    ([[0, 1, 2, 0.0]], "walk 0 vertices must be integers: 0.0 is not an integer"),
], ids=["str-vertex", "int-walk", "none", "float-vertex"])
def test_malformed_walks_raise_graph_errors(orient, walks, message):
    with pytest.raises(GraphError) as info:
        orient(_TRIANGLE, walks)
    assert str(info.value) == message


@pytest.mark.parametrize("load, data, message", [
    (lambda d, data: Digraph.from_json_dict(data), {"n": 3, "arcs": [[0, 1, 2]]},
     "bad digraph JSON: arc 0 is [0, 1, 2], not a pair"),
    (lambda d, data: Digraph.from_json_dict(data), {"n": 3, "arcs": 7},
     "bad digraph JSON: the arc list is 7, not a sequence"),
    (CircuitDecomposition.from_json_dict, {"circuits": [5]},
     "bad circuits JSON: the circuit is 5, not a sequence"),
    (CircuitDecomposition.from_json_dict, {"circuits": None},
     "bad circuits JSON: the circuit list is None, not a sequence"),
    (OrientedDirectedEmbedding.from_json_dict, {"rotations": [5] * 7},
     "bad embedding JSON: the rotation at vertex 0 is 5, not a sequence"),
], ids=["digraph-triple", "digraph-int-arcs", "circuits-int", "circuits-null", "rotations-int"])
def test_loaders_word_the_readers_failure(t7, load, data, message):
    with pytest.raises((GraphError, EmbeddingError)) as info:
        load(t7[0], data)
    assert str(info.value) == message


# Anything a caller or a JSON file might hand over: ints in and out of range
# (small enough that no reader is asked to allocate much), bools, floats,
# strings, None, and lists or tuples of these.
_scalars = st.one_of(
    st.integers(-3, 45), st.booleans(), st.floats(allow_nan=False, width=16),
    st.text(max_size=2), st.none(),
)
_junk = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner)),
    max_leaves=12,
)


@st.composite
def _spoiled(draw, valid):
    """``valid`` as it is, replaced by junk, or, for a list, with one of its
    items spoiled in turn."""
    how = draw(st.sampled_from(["keep", "replace", "inside"]))
    if how == "replace":
        return draw(_junk)
    if how == "inside" and isinstance(valid, list) and valid:
        i = draw(st.integers(0, len(valid) - 1))
        return valid[:i] + [draw(_spoiled(valid[i]))] + valid[i + 1:]
    return valid


def _entry_points():
    """Per entry point: its error, a valid input, and a call taking the
    input in place of the valid one; every constructor, every loader,
    ``with_rotation`` (its vertex and its rotation) and the walks of
    ``eulerian_orientation`` are here."""
    digraph = gen_rotational_tournament(7)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    emb = embed_from_decomposition(digraph, decomposition)
    arcs = [list(a) for a in digraph.arcs]
    circuits = [list(c.arc_ids) for c in decomposition.circuits]
    rotations = [list(r) for r in emb.rotations]
    return {
        "digraph": (GraphError, arcs, lambda x: Digraph(7, x)),
        "digraph-n": (GraphError, 7, lambda x: Digraph(x, arcs)),
        "undirected": (GraphError, [[0, 1], [1, 2], [2, 0]], lambda x: UndirectedGraph(3, x)),
        "undirected-n": (GraphError, 3, lambda x: UndirectedGraph(x, [[0, 1], [1, 2], [2, 0]])),
        "circuit": (GraphError, circuits[0], lambda x: DirectedCircuit(digraph, x)),
        "arc-lists": (GraphError, circuits,
                      lambda x: CircuitDecomposition.from_arc_lists(digraph, x)),
        "decomposition": (GraphError, list(decomposition.circuits),
                          lambda x: CircuitDecomposition(digraph, x)),
        "embedding": (EmbeddingError, rotations,
                      lambda x: OrientedDirectedEmbedding(digraph, x)),
        "with-rotation": (EmbeddingError, rotations[2], lambda x: emb.with_rotation(2, x)),
        "with-rotation-vertex": (EmbeddingError, 2,
                                 lambda x: emb.with_rotation(x, rotations[2])),
        "digraph-json": (GraphError, {"n": 7, "arcs": arcs}, Digraph.from_json_dict),
        "circuits-json": (GraphError, {"circuits": circuits},
                          lambda x: CircuitDecomposition.from_json_dict(digraph, x)),
        "embedding-json": (EmbeddingError, {"rotations": rotations},
                           lambda x: OrientedDirectedEmbedding.from_json_dict(digraph, x)),
        "walks": (GraphError, [[0, 1, 2, 0]], lambda x: eulerian_orientation(_TRIANGLE, x)),
    }


_ENTRY_POINTS = _entry_points()


@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
@given(data=st.data())
def test_malformed_input_raises_only_the_library_error(name, data):
    error, valid, call = _ENTRY_POINTS[name]
    if isinstance(valid, dict):
        # a loader: spoil the value under the one key, or the whole dict
        (key, inner), = [(k, v) for k, v in valid.items() if k != "n"]
        value = data.draw(st.one_of(
            _spoiled(inner).map(lambda x: {**valid, key: x}), _junk))
    else:
        value = data.draw(_spoiled(valid))
    try:
        call(value)
    except error:
        pass


def test_each_int_is_read_once(monkeypatch):
    """Loading tournament 201's circuits and embedding passes each int of
    the JSON through the int check exactly once."""
    digraph = gen_rotational_tournament(201)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    emb = embed_from_decomposition(digraph, decomposition)
    circuits = json.loads(json.dumps(decomposition.to_json_dict()))
    rotations = json.loads(json.dumps(emb.to_json_dict()))
    visited = []
    real = digraph_module.check_json_ints

    def counting(rows):
        rows = [list(row) for row in rows]
        visited.append(sum(map(len, rows)))
        return real(rows)

    for module in (digraph_module, embedding_module):
        if hasattr(module, "check_json_ints"):
            monkeypatch.setattr(module, "check_json_ints", counting)
    again = CircuitDecomposition.from_json_dict(digraph, circuits)
    assert sum(visited) == digraph.m
    visited.clear()
    loaded = OrientedDirectedEmbedding.from_json_dict(digraph, rotations)
    assert sum(visited) == 2 * digraph.m
    assert circuit_set(again) == circuit_set(decomposition)
    assert loaded == emb


@pytest.mark.parametrize("n, bound_mb", [(201, 0.40), (801, 5.6)])
def test_an_embedding_is_built_one_rotation_at_a_time(n, bound_mb):
    """Building an embedding from list rotations holds one rotation's copy
    at a time beside the halves it keeps, never a copy of them all."""
    digraph = gen_rotational_tournament(n)
    # any alternating rotation will do: each outgoing half before one incoming
    rotations = [
        [h for pair in zip(digraph.out_half_arcs(v), digraph.in_half_arcs(v)) for h in pair]
        for v in range(digraph.n)
    ]
    tracemalloc.start()
    try:
        emb = OrientedDirectedEmbedding(digraph, rotations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(emb.halves) == n
    assert peak <= bound_mb * 1e6


def test_the_canonical_embedding_is_built_from_its_halves():
    """``embed_from_decomposition`` builds each vertex's halves straight from
    the circuits, sharing the digraph's incoming halves, and holds no pair
    or rotation beside them; the result equals the one read from the
    circuit-fixed rotations."""
    digraph = gen_rotational_tournament(201)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    tracemalloc.start()
    try:
        emb = embed_from_decomposition(digraph, decomposition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25e6
    assert all(incoming is digraph.in_half_arcs(v)
               for v, (_, incoming) in enumerate(emb.halves))
    blocks = embedding_module.decomposition_blocks(digraph, decomposition)
    read = OrientedDirectedEmbedding(digraph, map(embedding_module.flat_rotation, blocks))
    assert emb.halves == read.halves
