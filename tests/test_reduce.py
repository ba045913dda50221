"""The reduction machine: case dispatch, traces, and entry points."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from eulergenus import (
    BEST_EFFORT,
    STRICT,
    CircuitDecomposition,
    Digraph,
    DirectedCircuit,
    EmbeddingError,
    GraphError,
    HypothesisError,
    NoProgressError,
    OrientedDirectedEmbedding,
    UndirectedGraph,
    certify_maximal,
    embed_from_decomposition,
    euler_circuit,
    euler_genus,
    find_vertex_on_three_antifaces,
    gen_kn_minus_pm,
    gen_random_dense_eulerian,
    gen_rotational_tournament,
    gen_sts,
    iter_relative_embeddings,
    merge_three_at_vertex,
    reduce_embedding,
    reduce_to_upper_embedding,
    relative_upper_from_partial,
    undirected_euler_circuit,
    undirected_upper_embedding,
    verify_embedding,
)
from eulergenus.embedding import flat_rotation
from eulergenus.reduce import ReductionStep, ReductionTrace, _AntifaceCore, _Reducer
from eulergenus.surgery import _rewire_three
from eulergenus.touch import build_touch_graph, classify

from conftest import circuit_set, circulant, nth_state, raise_antifaces, shuffled_blocks


@pytest.fixture(scope="module")
def circ11():
    digraph = circulant(11, (1, 2, 3))
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    return digraph, decomposition


def test_strict_mode_rejects_sparse_digraphs(circ11):
    digraph, decomposition = circ11
    start = embed_from_decomposition(digraph, decomposition)
    assert len(start.antifaces) > 2
    for attempt in (
        lambda: reduce_to_upper_embedding(digraph, decomposition, mode=STRICT),
        lambda: reduce_embedding(start, decomposition, mode=STRICT),
    ):
        with pytest.raises(HypothesisError) as err:
            attempt()
        assert str(err.value) == (
            "strict mode needs order >= 7 and 5 * min_degree >= 4n + 2; "
            "got n = 11, min_degree = 6, k = 4"
        )


def test_strict_mode_rejects_small_orders():
    digraph = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    with pytest.raises(HypothesisError, match="order >= 7"):
        reduce_to_upper_embedding(digraph, decomposition, mode=STRICT)
    start = embed_from_decomposition(digraph, decomposition)
    with pytest.raises(HypothesisError, match="order >= 7"):
        reduce_embedding(start, decomposition, mode=STRICT)


def test_unknown_mode_is_a_value_error(tournament7):
    digraph, decomposition = tournament7
    with pytest.raises(ValueError, match="unknown mode"):
        reduce_to_upper_embedding(digraph, decomposition, mode="lenient")


def test_disconnected_digraphs_are_rejected():
    digraph = Digraph(2, [(0, 0), (1, 1)])
    decomposition = CircuitDecomposition.from_arc_lists(digraph, [[0], [1]])
    with pytest.raises(GraphError, match="not connected"):
        reduce_to_upper_embedding(digraph, decomposition)


def test_reduce_embedding_rejects_a_decomposition_of_another_digraph(tournament7):
    digraph, decomposition = tournament7
    start = embed_from_decomposition(digraph, decomposition)
    other = Digraph(8, digraph.arcs)  # the same arcs plus an isolated vertex
    foreign = CircuitDecomposition.from_arc_lists(
        other, [c.arc_ids for c in decomposition.circuits]
    )
    with pytest.raises(GraphError, match="decomposition belongs to a different digraph"):
        reduce_embedding(start, foreign)


def test_reduce_embedding_rejects_a_disconnected_digraph():
    # two bidirected triangles, each 2-cycle a circuit: four antifaces
    arcs = [(u, w) for base in (0, 3) for i in range(3)
            for u, w in ((base + i, base + (i + 1) % 3), (base + (i + 1) % 3, base + i))]
    digraph = Digraph(6, arcs)
    decomposition = CircuitDecomposition.from_arc_lists(
        digraph, [[2 * i, 2 * i + 1] for i in range(6)]
    )
    start = embed_from_decomposition(digraph, decomposition)
    assert len(start.antifaces) == 4
    with pytest.raises(GraphError, match="digraph is not connected"):
        reduce_embedding(start, decomposition, mode=BEST_EFFORT)


def test_strict_tournament_reaches_one_antiface(tournament7):
    digraph, decomposition = tournament7
    emb, trace = reduce_to_upper_embedding(
        digraph, decomposition, mode=STRICT, validate_steps=True
    )
    assert len(emb.antifaces) == 1
    assert trace.validate() == []
    assert verify_embedding(emb, decomposition).ok
    assert euler_genus(emb) == 7  # 7 - 21 + 2 = 2 - 2 * 7


def test_trace_steps_serialize(tournament7):
    digraph, decomposition = tournament7
    _, trace = reduce_to_upper_embedding(digraph, decomposition, mode=STRICT)
    rows = trace.to_dicts()
    assert rows
    for row in rows:
        assert set(row) == {
            "case", "operation", "witness", "antifaces_before", "antifaces_after"
        }
        assert row["antifaces_after"] in (
            row["antifaces_before"], row["antifaces_before"] - 2
        )


def test_trace_validation_flags_bad_logs():
    trace = ReductionTrace()
    trace.record("1", "merge_three_at_vertex", {}, 5, 4)
    trace.record("2.2", "blow_up", {}, 3, 3)
    problems = trace.validate()
    assert any("changed the count" in p for p in problems)
    assert any("do not stitch" in p for p in problems)

    stuck = ReductionTrace()
    for i in range(3):
        stuck.record("2.2", "blow_up", {}, 7, 7)
    assert any("three consecutive" in p for p in stuck.validate())

    alien = ReductionTrace()
    alien.record("9", "teleport", {}, 3, 1)
    assert any("unknown operation" in p for p in alien.validate())


def test_step_repr_and_dict_round_trip():
    step = ReductionStep("2.2", "blow_up", {"x": 4}, 5, 5)
    assert step.to_dict()["witness"] == {"x": 4}
    assert "2.2" in repr(step)


def test_case_one_success_exemplar(tournament7):
    digraph, decomposition = tournament7
    emb = nth_state(digraph, decomposition, 0)
    reduced, trace = reduce_embedding(
        emb, decomposition, mode=STRICT, validate_steps=True
    )
    assert [s.case for s in trace.steps] == ["1"]
    assert len(reduced.antifaces) == 1


def test_case_star_success_exemplar(tournament7):
    digraph, decomposition = tournament7
    emb = nth_state(digraph, decomposition, 11)
    reduced, trace = reduce_embedding(
        emb, decomposition, mode=STRICT, validate_steps=True
    )
    assert [s.case for s in trace.steps] == ["2.2"]
    assert len(reduced.antifaces) == 1


def test_case_star_margin_route_second_witness():
    """A second state whose star centre carries the margin certificate, so
    case 2.2 merges at once instead of blowing the centre apart."""
    digraph = circulant(7, (1, 4, 5))
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    emb = nth_state(digraph, decomposition, 75)
    reduced, trace = reduce_embedding(
        emb, decomposition, mode=STRICT, validate_steps=True
    )
    assert trace.to_dicts() == [{
        "case": "2.2", "operation": "merge_interlaced", "witness": {"x": 5, "y": 6},
        "antifaces_before": 3, "antifaces_after": 1,
    }]
    assert len(reduced.antifaces) == 1


def test_case_wide_gap_success_exemplar(sts7):
    digraph, decomposition = sts7
    emb = nth_state(digraph, decomposition, 55)
    reduced, trace = reduce_embedding(
        emb, decomposition, mode=STRICT, validate_steps=True
    )
    assert [s.case for s in trace.steps] == ["2.1.2"]
    assert len(reduced.antifaces) == 1


def test_case_lone_loop_success_exemplar(sts7):
    digraph, decomposition = sts7
    emb = nth_state(digraph, decomposition, 63)
    reduced, trace = reduce_embedding(
        emb, decomposition, mode=STRICT, validate_steps=True
    )
    assert [s.case for s in trace.steps] == ["3.2.2", "1"]
    assert len(reduced.antifaces) == 1
    assert trace.validate() == []


def test_dead_end_applicability_exemplars(circ11):
    digraph, decomposition = circ11
    emb = nth_state(digraph, decomposition, 10)
    with pytest.raises(NoProgressError) as err:
        reduce_embedding(emb, decomposition)
    assert str(err.value) == "case 2.1.4: applicability check failed"
    assert err.value.trace is not None

    emb = nth_state(digraph, decomposition, 1466)
    with pytest.raises(NoProgressError) as err:
        reduce_embedding(emb, decomposition)
    assert str(err.value) == "case 2.1.1: applicability check failed"


def test_dead_end_size_hypotheses_exemplar(circ11):
    digraph, decomposition = circ11
    emb = nth_state(digraph, decomposition, 108)
    with pytest.raises(NoProgressError) as err:
        reduce_embedding(emb, decomposition)
    assert str(err.value) == "case 3.2.2: size hypotheses fail after the blow ups"
    assert [s.case for s in err.value.trace.steps] == ["3.2.2", "3.2.2"]


def test_dead_end_no_progress_exemplar(circ11, monkeypatch):
    """Case 2.2's blow up is a no-op and no loop appears, so the next step
    would repeat this one: the run ends at once, and the operations of the
    step that changed nothing are not kept."""
    from eulergenus import reduce as reduce_module

    digraph, decomposition = circ11
    emb = nth_state(digraph, decomposition, 1369)
    blown = []
    real_blow_up = reduce_module.blow_up

    def counting_blow_up(*args):
        result = real_blow_up(*args)
        blown.append(result.branch)
        return result

    monkeypatch.setattr(reduce_module, "blow_up", counting_blow_up)
    with pytest.raises(NoProgressError) as err:
        reduce_embedding(emb, decomposition)
    assert str(err.value) == "case 2.2: the step left the embedding unchanged"
    assert blown == ["no-op"]
    assert err.value.trace.steps == []


def test_a_hypothesis_error_inside_a_step_ends_the_run_at_a_dead_end(monkeypatch):
    """An operation whose precondition fails inside a step ends the run with
    a dead end that carries every step recorded before it."""
    from eulergenus import reduce as reduce_module

    digraph = gen_random_dense_eulerian(21, 2, seed=5)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    rng = random.Random("random-21-k2/1")
    start = raise_antifaces(shuffled_blocks(digraph, decomposition, rng), rng)
    _, full = reduce_embedding(start, decomposition, mode=STRICT)
    case_one = list(itertools.takewhile(lambda step: step.case == "1", full.steps))
    assert 0 < len(case_one) < len(full.steps)

    refused = HypothesisError("no touch graph today")

    def refusing(embedding):
        raise refused

    # case-1 steps build no touch graph, so the first other step is refused
    monkeypatch.setattr(reduce_module, "build_touch_graph", refusing)
    with pytest.raises(NoProgressError) as err:
        reduce_embedding(start, decomposition, mode=STRICT)
    assert str(err.value) == "dead end: no touch graph today"
    assert err.value.__cause__ is refused
    assert [step.to_dict() for step in err.value.trace.steps] == [
        step.to_dict() for step in case_one
    ]


# (order, seed): case 2.1.3's bipartite core route, run on the heaviest pair
# of a seeded start merged to local irreducibility, stops in the three-
# neighbour search.  Each start keeps a face with loop vertices, which the
# route takes as private candidates although they lie on that face alone;
# the case machine runs 2.1.3 only when no face has loop vertices, and no
# seeded start was found that reaches the route from there.
BIPARTITE_ROUTE_OUTCOMES = {
    (17, 2): "candidate 0 is not on the face plus exactly one other antiface",
    (19, 1): "candidate 0 is not on the face plus exactly one other antiface",
    (20, 2): "candidate 1 is not on the face plus exactly one other antiface",
    (23, 1): "candidate 1 is not on the face plus exactly one other antiface",
}


@pytest.mark.parametrize("n, seed", sorted(BIPARTITE_ROUTE_OUTCOMES))
def test_the_bipartite_core_route_on_seeded_irreducible_starts(n, seed):
    digraph = gen_random_dense_eulerian(n, 2, seed)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    rng = random.Random(f"{n}/{seed}")
    start = raise_antifaces(shuffled_blocks(digraph, decomposition, rng), rng)
    reducer = _Reducer(start, decomposition, validate_steps=False)
    while reducer.merge_reducible_vertex():
        pass
    assert reducer.profile.k >= 1
    emb = reducer.emb
    touch = build_touch_graph(emb)
    p, q = classify(touch).heaviest_pair
    big, partner = emb.antiface(p), emb.antiface(q)
    if len(partner.vertex_set()) > len(big.vertex_set()):
        big, partner = partner, big
    with pytest.raises(HypothesisError) as err:
        reducer.bipartite_core_route(touch, big, partner)
    assert str(err.value) == BIPARTITE_ROUTE_OUTCOMES[n, seed]


def test_the_safety_bound_stops_a_run_that_keeps_changing(circ11, monkeypatch):
    """Steps that change the embedding but never the count run into the
    step budget, eight steps per antiface at the start."""
    digraph, decomposition = circ11
    emb = nth_state(digraph, decomposition, 1369)

    def idle_step(reducer):
        before = reducer.core.count
        current = reducer.core.current
        reducer.adopt(current.with_rotation(0, current.rotations[0]))
        reducer.record("2.2", "blow_up", {"x": 0, "branch": "no-op"}, before)

    monkeypatch.setattr(_Reducer, "step", idle_step)
    with pytest.raises(NoProgressError) as err:
        reduce_embedding(emb, decomposition)
    assert str(err.value) == "exceeded the safety bound of 24 steps"
    assert len(err.value.trace.steps) == 24


def test_validate_steps_reaches_the_small_order_route(monkeypatch):
    """``reduce_to_upper_embedding`` on two vertices verifies every step
    when asked to, as the general route does."""
    from eulergenus import reduce as reduce_module

    digraph = Digraph(2, [(0, 1), (1, 0)] * 3)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    verified = []
    real_verify = reduce_module.verify_embedding

    def counting_verify(*args):
        verified.append(args[0])
        return real_verify(*args)

    monkeypatch.setattr(reduce_module, "verify_embedding", counting_verify)
    emb, trace = reduce_to_upper_embedding(digraph, decomposition, mode=BEST_EFFORT,
                                           validate_steps=True)
    assert len(trace.steps) >= 1
    assert len(verified) == len(trace.steps)
    assert verified[-1] is emb


def test_validate_steps_raises_on_a_corrupted_step(tournament7, monkeypatch):
    """The per-step check is an exception, not an assert, so ``-O`` keeps it."""
    digraph, decomposition = tournament7
    real_merge = _AntifaceCore.merge_lowest

    def corrupting_merge(core):
        v = real_merge(core)
        if v is not None:
            (g0, h0), (g1, h1), *rest = core.current.blocks_at(0)
            # re-pair two blocks: profaces change
            core.current = core.current.with_rotation(
                0, flat_rotation([(g1, h0), (g0, h1), *rest]))
        return v

    monkeypatch.setattr(_AntifaceCore, "merge_lowest", corrupting_merge)
    emb = nth_state(digraph, decomposition, 0)
    with pytest.raises(EmbeddingError, match="profaces-match"):
        reduce_embedding(emb, decomposition, mode=STRICT, validate_steps=True)


@pytest.mark.parametrize("validate_steps", [False, True])
@pytest.mark.parametrize("corruption", ["unmerged", "wrong-root", "miscounted"])
def test_a_core_that_disagrees_with_its_embedding_raises(
        tournament7, monkeypatch, corruption, validate_steps):
    """A built embedding must have exactly the core's orbits as antifaces;
    the check is an exception, so ``-O`` keeps it."""
    digraph, decomposition = tournament7
    real_merge = _AntifaceCore.merge_lowest

    def corrupting_merge(core):
        before = list(core.parent)
        v = real_merge(core)
        if v is None:
            return v
        parent = core.parent
        mid, high = (a for a in range(len(parent)) if before[a] == a != parent[a])
        low = parent[mid]
        if corruption == "unmerged":
            parent[mid], parent[high] = mid, high  # three orbits, right count
        elif corruption == "wrong-root":
            parent[low] = parent[mid] = parent[high] = high  # right count, wrong key
        else:
            core.count += 2  # the core still counts three faces
        return v

    monkeypatch.setattr(_AntifaceCore, "merge_lowest", corrupting_merge)
    emb = nth_state(digraph, decomposition, 0)  # one case-1 merge, 3 -> 1
    with pytest.raises(EmbeddingError, match="antifaces are not the core's"):
        reduce_embedding(emb, decomposition, mode=STRICT, validate_steps=validate_steps)


def _dense_graphs():
    graphs = (gen_rotational_tournament(11), gen_kn_minus_pm(10),
              gen_random_dense_eulerian(9, 0, seed=3))
    return tuple(
        (digraph, CircuitDecomposition(digraph, [euler_circuit(digraph)]))
        for digraph in graphs
    ) + (gen_sts(9),)


DENSE_GRAPHS = _dense_graphs()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(range(len(DENSE_GRAPHS))),
    st.integers(0, 2**32 - 1),
    st.integers(0, 12),
)
def test_core_merges_match_merge_three_at_vertex(graph_index, seed, splits):
    """Each core merge picks the vertex and faces ``find_vertex_on_three_antifaces``
    picks, and builds the embedding ``merge_three_at_vertex`` returns; a core
    that never builds in between ends at the same embedding."""
    digraph, decomposition = DENSE_GRAPHS[graph_index]
    rng = random.Random(seed)
    emb = shuffled_blocks(digraph, decomposition, rng)
    for _ in range(splits):  # 3-cycles at three corners of one antiface
        face = rng.choice(emb.antifaces)
        v = face.corners[rng.randrange(len(face))]
        positions = face.corner_positions(v)
        if len(positions) >= 3:
            arrivals = [face.walk[j] | 1 for j in rng.sample(positions, 3)]
            emb = _rewire_three(emb, v, *arrivals)
    stepped = _AntifaceCore(emb)
    unbuilt = _AntifaceCore(emb)
    while True:
        want = find_vertex_on_three_antifaces(emb)
        v = stepped.merge_lowest()
        assert unbuilt.merge_lowest() == v
        if want is None:
            assert v is None
            break
        assert v == want[0]
        faces = want[1]
        emb = merge_three_at_vertex(emb, v, *faces).embedding
        # the three faces' orbits are now one, rooted at the least of them
        assert {stepped.find(face.key >> 1) for face in faces} == {faces[0].key >> 1}
        built = stepped.embedding()
        assert built.rotations[v] == emb.rotations[v]
        assert built.rotations == emb.rotations
        assert [f.key for f in built.antifaces] == [f.key for f in emb.antifaces]
        assert stepped.count == len(built.antifaces) == len(emb.antifaces)
    assert unbuilt.embedding().rotations == emb.rotations


def test_the_core_merges_again_at_a_vertex_that_stays_crowded():
    """A merge takes two orbits off its vertex, so a vertex on five is
    merged twice before the scan moves past it."""
    digraph = Digraph(1, [(0, 0)] * 5)
    decomposition = CircuitDecomposition.from_arc_lists(digraph, [[0, 1, 2, 3, 4]])
    (start,) = [emb for emb in iter_relative_embeddings(digraph, decomposition)
                if len(emb.antifaces) == 5]
    core = _AntifaceCore(start)
    assert [core.merge_lowest() for _ in range(3)] == [0, 0, None]
    assert core.count == 1
    assert len(core.embedding().antifaces) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(range(len(DENSE_GRAPHS))),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2),
)
def test_the_block_pairing_check_matches_the_traced_profaces(graph_index, seed, repairs):
    """``reduce_embedding`` reads the profaces off the block pairing; it must
    reject exactly the embeddings whose traced profaces are not the circuits."""
    digraph, decomposition = DENSE_GRAPHS[graph_index]
    rng = random.Random(seed)
    emb = shuffled_blocks(digraph, decomposition, rng)
    rotations = list(emb.rotations)
    for _ in range(repairs):  # swap the outgoing halves of two blocks
        v = rng.randrange(digraph.n)
        blocks = list(emb.blocks_at(v))
        i, j = rng.sample(range(len(blocks)), 2)
        (gi, hi), (gj, hj) = blocks[i], blocks[j]
        blocks[i], blocks[j] = (gj, hi), (gi, hj)
        rotations[v] = tuple(h for block in blocks for h in block)
        emb = OrientedDirectedEmbedding(digraph, rotations)
    matches = {f.arcs() for f in emb.profaces} == circuit_set(decomposition)
    try:
        reduce_embedding(OrientedDirectedEmbedding(digraph, rotations), decomposition)
        rejected = False
    except EmbeddingError as exc:
        rejected = "do not match" in str(exc)
    except NoProgressError:
        rejected = False
    assert rejected == (not matches)


@pytest.mark.parametrize("n", [41, 81])
def test_case_one_steps_trace_no_faces(n, monkeypatch):
    """Full face traces during a strict reduction: the start, the final
    embedding and one per other step at most, however many case-1 steps."""
    digraph = gen_rotational_tournament(n)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    rng = random.Random(f"tournament-{n}")
    start = raise_antifaces(shuffled_blocks(digraph, decomposition, rng), rng)
    real_trace = OrientedDirectedEmbedding._trace
    traced = []

    def counting_trace(embedding):
        if embedding._faces is None:
            traced.append(embedding)
        return real_trace(embedding)

    monkeypatch.setattr(OrientedDirectedEmbedding, "_trace", counting_trace)
    final, trace = reduce_embedding(start, decomposition, mode=STRICT)
    monkeypatch.undo()
    others = sum(step.case != "1" for step in trace.steps)
    assert len(trace.steps) - others >= 10
    assert len(traced) <= 2 + others
    assert len(final.antifaces) <= 2
    assert verify_embedding(final, decomposition).ok


@pytest.mark.parametrize("validate_steps", [False, True])
def test_each_rotation_is_read_once_per_built_embedding(validate_steps, monkeypatch):
    """A reduction reads no rotation: it builds no embedding through the
    constructor or ``with_rotation``, and ``_blocks`` never runs, also
    when ``verify_embedding`` checks every step."""
    from eulergenus import embedding as embedding_module
    from eulergenus import reduce as reduce_module

    digraph = gen_random_dense_eulerian(21, 2, seed=5)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    rng = random.Random("random-21-k2/1")
    start = raise_antifaces(shuffled_blocks(digraph, decomposition, rng), rng)
    calls = dict.fromkeys(("blocks", "built", "children", "verified"), 0)

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(embedding_module, "_blocks",
                        counting("blocks", embedding_module._blocks))
    monkeypatch.setattr(OrientedDirectedEmbedding, "__init__",
                        counting("built", OrientedDirectedEmbedding.__init__))
    monkeypatch.setattr(OrientedDirectedEmbedding, "with_rotation",
                        counting("children", OrientedDirectedEmbedding.with_rotation))
    monkeypatch.setattr(reduce_module, "verify_embedding",
                        counting("verified", reduce_module.verify_embedding))
    final, trace = reduce_embedding(start, decomposition, mode=STRICT,
                                    validate_steps=validate_steps)
    monkeypatch.undo()
    assert any(step.case != "1" for step in trace.steps)
    assert calls["built"] == calls["children"] == calls["blocks"] == 0
    assert calls["verified"] == (len(trace.steps) if validate_steps else 0)
    assert verify_embedding(final, decomposition).ok


def test_a_loop_off_the_blown_up_faces_raises(circ11, monkeypatch):
    """Keys are reused across surgeries, so a loop on a face the blow up did
    not touch is an error, also under ``-O``."""
    from eulergenus import reduce as reduce_module

    real_classify = reduce_module.classify
    shapes = []

    def foreign_loops(touch):
        shape = real_classify(touch)
        shapes.append(shape)
        if len(shapes) == 2:  # the shape read right after the first blow up
            shape.loop_nodes = touch.nodes
        return shape

    monkeypatch.setattr(reduce_module, "classify", foreign_loops)
    digraph, decomposition = circ11
    emb = nth_state(digraph, decomposition, 108)  # case 3.2.2, no merge after the blow up
    with pytest.raises(EmbeddingError, match="a face the blow up did not touch"):
        reduce_embedding(emb, decomposition)
    assert len(shapes) == 2


def test_reduce_embedding_guards_the_profaces(double_digon, four_loops):
    digraph, decomposition = double_digon
    other = CircuitDecomposition.from_arc_lists(digraph, [[0, 3], [2, 1]])
    emb = embed_from_decomposition(digraph, decomposition)
    with pytest.raises(EmbeddingError, match="do not match"):
        reduce_embedding(emb, other)


def test_small_orders_reject_foreign_decompositions():
    loop = Digraph(1, [(0, 0)])
    loop_dec = CircuitDecomposition.from_arc_lists(loop, [[0]])
    with pytest.raises(GraphError, match="different digraph"):
        reduce_to_upper_embedding(Digraph(1, [(0, 0), (0, 0)]), loop_dec, BEST_EFFORT)


def test_small_order_handles_single_vertices(three_loops):
    digraph, decomposition = three_loops
    emb, trace = reduce_to_upper_embedding(digraph, decomposition, BEST_EFFORT)
    assert len(emb.antifaces) == 1
    assert verify_embedding(emb, decomposition).ok


def test_a_two_cut_start_is_continued_not_replaced():
    """One arc each way: the run merges from the caller's start, and its
    trace begins at the start's antiface count."""
    digraph = Digraph(2, [(0, 1), (1, 0)] + [(0, 0)] * 3 + [(1, 1)] * 3)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    start = max(iter_relative_embeddings(digraph, decomposition),
                key=lambda emb: len(emb.antifaces))
    assert len(start.antifaces) == 7
    emb, trace = reduce_embedding(start, decomposition, BEST_EFFORT, validate_steps=True)
    assert trace.steps[0].count_before == 7
    assert trace.steps[-1].count_after == len(emb.antifaces) == 3
    assert {step.case for step in trace.steps} == {"1"}
    assert trace.validate() == []
    assert "splice" not in trace.metadata
    assert certify_maximal(emb, digraph, decomposition).passed


def _two_vertex_starts():
    """One arc each way and one to three loops at each end: nine digraphs,
    81 starting embeddings."""
    for near, far in itertools.product((1, 2, 3), repeat=2):
        digraph = Digraph(2, [(0, 1), (1, 0)] + [(0, 0)] * near + [(1, 1)] * far)
        decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
        for start in iter_relative_embeddings(digraph, decomposition):
            yield digraph, decomposition, start


def test_best_effort_reduces_every_two_vertex_start():
    """Every one of the 81 two-vertex starts reduced to the oracle minimum."""
    starts = 0
    for digraph, decomposition, start in _two_vertex_starts():
        emb, trace = reduce_embedding(start, decomposition, BEST_EFFORT)
        assert verify_embedding(emb, decomposition).ok
        assert trace.validate() == []
        assert certify_maximal(emb, digraph, decomposition).passed
        starts += 1
    assert starts == 81


def test_a_two_vertex_state_left_with_three_antifaces_is_the_path_configuration(
        monkeypatch):
    """When the case-1 merges stop on two vertices with three or more
    antifaces left, those are one face on both vertices and one on each
    vertex alone: a face holding an arc between the vertices visits both,
    and two such faces would leave no room for a third."""
    left = []
    real_merge = _Reducer.merge_reducible_vertex

    def recording_merge(reducer):
        merged = real_merge(reducer)
        if not merged:
            left.append(reducer.emb)
        return merged

    monkeypatch.setattr(_Reducer, "merge_reducible_vertex", recording_merge)
    for _, decomposition, start in _two_vertex_starts():
        reduce_embedding(start, decomposition, BEST_EFFORT)
    assert len(left) == 81
    crowded = [emb for emb in left if len(emb.antifaces) >= 3]
    for emb in crowded:
        assert sorted(sorted(face.vertex_set()) for face in emb.antifaces) == [[0], [0, 1], [1]]
    assert crowded


def test_validate_steps_checks_the_small_order_path_merge(monkeypatch):
    """The interlaced merge that closes the two-vertex path configuration
    is verified like every other step."""
    from eulergenus import reduce as reduce_module

    digraph = Digraph(2, [(0, 1), (1, 0), (0, 1), (1, 0), (0, 0), (1, 1)])
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    start = list(iter_relative_embeddings(digraph, decomposition))[3]
    emb, trace = reduce_embedding(start, decomposition, BEST_EFFORT, validate_steps=True)
    assert [(s.case, s.count_before, s.count_after) for s in trace.steps] == [("small-a", 3, 1)]
    real_merge = reduce_module.merge_interlaced

    def corrupting_merge(*args):
        result = real_merge(*args)
        (g0, h0), (g1, h1), *rest = result.embedding.blocks_at(0)
        # re-pair two blocks: profaces change
        result.embedding = result.embedding.with_rotation(
            0, flat_rotation([(g1, h0), (g0, h1), *rest]))
        return result

    monkeypatch.setattr(reduce_module, "merge_interlaced", corrupting_merge)
    with pytest.raises(EmbeddingError, match="profaces-match"):
        reduce_embedding(start, decomposition, BEST_EFFORT, validate_steps=True)


def test_reduce_dispatches_small_orders(double_digon):
    digraph, decomposition = double_digon
    emb, trace = reduce_to_upper_embedding(digraph, decomposition, mode=BEST_EFFORT)
    assert len(emb.antifaces) <= 2
    assert verify_embedding(emb, decomposition).ok


def test_partial_decomposition_completion(tournament7):
    digraph, _ = tournament7
    arc = {digraph.arcs[a]: a for a in range(digraph.m)}
    triangle = DirectedCircuit(
        digraph, [arc[(0, 1)], arc[(1, 4)], arc[(4, 0)]]
    )
    emb, trace = relative_upper_from_partial(digraph, [triangle])
    assert trace.metadata["completion"] == {"given": 1, "added": 1}
    assert len(emb.profaces) == 2
    assert len(emb.antifaces) == 2
    assert verify_embedding(emb).ok


def test_partial_circuits_must_be_arc_disjoint(tournament7):
    digraph, _ = tournament7
    arc = {digraph.arcs[a]: a for a in range(digraph.m)}
    triangle = [arc[(0, 1)], arc[(1, 4)], arc[(4, 0)]]
    with pytest.raises(GraphError, match="appears in two partial circuits"):
        relative_upper_from_partial(digraph, [triangle, triangle])


def test_undirected_complete_graph_upper_embedding():
    k7 = UndirectedGraph(7, [(i, j) for i in range(7) for j in range(i + 1, 7)])
    walk = undirected_euler_circuit(k7)
    emb, trace = undirected_upper_embedding(k7, [walk])
    assert len(emb.profaces) == 1
    assert len(emb.antifaces) == 1
    assert euler_genus(emb) == 7
    assert verify_embedding(emb).ok


def test_undirected_upper_embedding_respects_strict_gate():
    k5 = UndirectedGraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    walk = undirected_euler_circuit(k5)
    with pytest.raises(HypothesisError, match="order >= 7"):
        undirected_upper_embedding(k5, [walk])
