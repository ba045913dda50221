"""Exhaustive state-space enumeration used to certify small instances."""

import gc
import itertools
import tracemalloc
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from eulergenus import (
    CircuitDecomposition,
    Digraph,
    EmbeddingError,
    GraphError,
    StateSpaceError,
    certify_maximal,
    embed_from_decomposition,
    enumerate_relative_embeddings,
    euler_circuit,
    gen_rotational_tournament,
    iter_relative_embeddings,
    reduce_to_upper_embedding,
    state_count,
)
from eulergenus import oracle
from eulergenus.embedding import decomposition_blocks, flat_rotation

from conftest import all_decompositions, circuit_set, circulant


def _reference_tally(digraph, decomposition):
    counts = {}
    for emb in iter_relative_embeddings(digraph, decomposition):
        c = emb.antiface_count()
        counts[c] = counts.get(c, 0) + 1
    return counts


def _certify_first_state(digraph, decomposition, **limit):
    """The minimum-only tally, run by certifying the first state."""
    embedding = embed_from_decomposition(digraph, decomposition)
    return certify_maximal(embedding, digraph, decomposition, **limit)


def _assert_minimum_matches(digraph, decomposition, reference):
    cert = _certify_first_state(digraph, decomposition)
    assert cert.minimum == min(reference)
    assert cert.states == state_count(digraph)


def test_state_count_is_a_product_of_factorials(tournament7, sts7):
    t7_digraph, _ = tournament7
    sts_digraph, _ = sts7
    assert state_count(t7_digraph) == 128  # (3 - 1)! ** 7
    assert state_count(sts_digraph) == 128
    assert state_count(gen_rotational_tournament(5)) == 1
    assert state_count(Digraph(1, [(0, 0)] * 3)) == 2
    assert state_count(Digraph(1, [(0, 0)] * 4)) == 6


def test_iterator_length_matches_state_count(three_loops, four_loops):
    for digraph, decomposition in (three_loops, four_loops):
        states = list(iter_relative_embeddings(digraph, decomposition))
        assert len(states) == state_count(digraph)
        # both read decomposition_blocks; the first state keeps their order
        assert states[0].rotations == embed_from_decomposition(digraph, decomposition).rotations
        want = circuit_set(decomposition)
        for emb in states:
            assert {f.arcs() for f in emb.profaces} == want


def test_consecutive_states_share_the_halves_of_unturned_wheels():
    """Each state replaces the halves of the vertices whose wheel turned
    and shares every other vertex's with the state before it."""
    digraph = gen_rotational_tournament(7)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    states = list(iter_relative_embeddings(digraph, decomposition))
    assert states[0] == embed_from_decomposition(digraph, decomposition)
    for before, after in zip(states, states[1:]):
        turned = [v for v in range(digraph.n) if after.halves[v] != before.halves[v]]
        assert turned
        assert all(after.halves[v] is before.halves[v]
                   for v in range(digraph.n) if v not in turned)


def test_iterator_yields_distinct_rotation_systems(four_loops):
    digraph, decomposition = four_loops
    seen = {emb.rotations for emb in iter_relative_embeddings(digraph, decomposition)}
    assert len(seen) == 6


def test_tournament7_distribution(tournament7):
    digraph, decomposition = tournament7
    summary = enumerate_relative_embeddings(digraph, decomposition)
    assert summary.distribution == {1: 63, 3: 62, 5: 3}
    assert summary.states == 128
    assert summary.min_antifaces == 1
    assert summary.max_antifaces == 5


def test_sts7_distribution(sts7):
    digraph, decomposition = sts7
    summary = enumerate_relative_embeddings(digraph, decomposition)
    assert summary.distribution == {1: 32, 3: 88, 5: 8}


def test_three_loop_distribution(three_loops):
    digraph, decomposition = three_loops
    summary = enumerate_relative_embeddings(digraph, decomposition)
    assert summary.distribution == {1: 1, 3: 1}


def test_tournament5_has_a_single_rigid_state():
    digraph = gen_rotational_tournament(5)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    summary = enumerate_relative_embeddings(digraph, decomposition)
    assert summary.states == 1
    assert summary.distribution == {2: 1}


def test_antiface_counts_share_one_parity(tournament7):
    digraph, decomposition = tournament7
    summary = enumerate_relative_embeddings(digraph, decomposition)
    # euler's formula fixes the face-count parity once n, m, P are fixed
    parity = (2 - digraph.n + digraph.m - len(decomposition.circuits)) % 2
    assert all(count % 2 == parity for count in summary.distribution)


def test_summary_json_dict(three_loops):
    digraph, decomposition = three_loops
    summary = enumerate_relative_embeddings(digraph, decomposition)
    assert summary.to_json_dict() == {
        "distribution": {"1": 1, "3": 1},
        "states": 2,
        "min": 1,
        "max": 3,
    }


def test_enumeration_limit_guard(tournament7):
    digraph, decomposition = tournament7
    with pytest.raises(StateSpaceError) as err:
        enumerate_relative_embeddings(digraph, decomposition, limit=5)
    assert str(err.value) == "128 embeddings exceed the enumeration limit of 5"
    with pytest.raises(StateSpaceError) as err:
        _certify_first_state(digraph, decomposition, limit=5)
    assert str(err.value) == "128 embeddings exceed the enumeration limit of 5"
    with pytest.raises(StateSpaceError):
        next(iter_relative_embeddings(digraph, decomposition, limit=5))


def test_stream_checks_its_inputs_at_the_call(tournament7, sts7):
    """Both errors raise before any state is asked for."""
    digraph, decomposition = tournament7
    _, sts_decomposition = sts7
    with pytest.raises(StateSpaceError, match="^128 embeddings exceed the enumeration limit of 5$"):
        iter_relative_embeddings(digraph, decomposition, limit=5)
    with pytest.raises(GraphError, match="different digraph"):
        iter_relative_embeddings(digraph, sts_decomposition)


def test_enumeration_rejects_foreign_decompositions(tournament7, sts7):
    t7_digraph, _ = tournament7
    _, sts_decomposition = sts7
    with pytest.raises(GraphError, match="different digraph"):
        enumerate_relative_embeddings(t7_digraph, sts_decomposition)


def test_tally_matches_the_embedding_stream():
    digraph = Digraph(2, [(0, 1), (1, 0), (0, 0), (1, 1), (0, 1), (1, 0)])
    for decomposition in all_decompositions(digraph):
        summary = enumerate_relative_embeddings(digraph, decomposition)
        reference = _reference_tally(digraph, decomposition)
        assert reference == summary.distribution
        _assert_minimum_matches(digraph, decomposition, reference)


STATE_CAP = 2000


@st.composite
def small_eulerian_instances(draw):
    """A multidigraph built from closed walks, with a random decomposition.

    A drawn walk is laid twice (parallel arcs) and a loop is always added;
    walks that would lift an in-degree above 5 or the state count above
    STATE_CAP are dropped.  Vertex n - 1 is isolated when asked.
    """
    busy = draw(st.integers(1, 4), label="busy")
    n = busy + draw(st.booleans(), label="isolated")
    loop = draw(st.integers(0, busy - 1), label="loop")
    first = draw(st.lists(st.integers(0, busy - 1), min_size=1, max_size=3), label="first")
    walks = [[loop], first, first] + draw(
        st.lists(st.lists(st.integers(0, busy - 1), min_size=1, max_size=5), max_size=6),
        label="walks",
    )
    indeg = [0] * n
    arcs = []
    for walk in walks:
        grown = indeg[:]
        for v in walk:
            grown[v] += 1
        states = prod(factorial(max(d - 1, 0)) for d in grown)
        if max(grown) > 5 or states > STATE_CAP:
            continue
        indeg = grown
        arcs += [(v, walk[(i + 1) % len(walk)]) for i, v in enumerate(walk)]
    digraph = Digraph(n, arcs)
    successor = {}
    for v in range(n):
        outs = draw(st.permutations(digraph.out_half_arcs(v)), label=f"pairing {v}")
        for h, g in zip(digraph.in_half_arcs(v), outs):
            successor[h >> 1] = g >> 1
    circuits = []
    left = set(range(digraph.m))
    while left:
        a = min(left)
        walk = []
        while a in left:
            left.discard(a)
            walk.append(a)
            a = successor[a]
        circuits.append(walk)
    return digraph, CircuitDecomposition.from_arc_lists(digraph, circuits)


@settings(max_examples=60, deadline=None)
@given(small_eulerian_instances())
def test_elimination_tally_matches_the_lexicographic_stream(instance):
    digraph, decomposition = instance
    summary = enumerate_relative_embeddings(digraph, decomposition)
    reference = _reference_tally(digraph, decomposition)
    assert summary.distribution == reference
    assert summary.states == state_count(digraph)
    _assert_minimum_matches(digraph, decomposition, reference)


def _hub_with_loops(loops):
    """Vertex 0 with ``loops`` loops and a triangle 0 -> 1 -> 2 -> 0 plus a
    digon 0 <-> 2: in-degrees loops + 2, 1 and 2."""
    return Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 0)] + [(0, 0)] * loops)


@pytest.mark.parametrize("loops", [4, 5, 6], ids=["indeg6", "indeg7", "indeg8"])
def test_tally_of_a_wide_vertex_matches_the_stream(loops):
    """120, 720 and 5,040 arrangements at vertex 0, beside rigid vertices,
    through both tallies; the hypothesis property caps in-degree at 5."""
    digraph = _hub_with_loops(loops)
    assert state_count(digraph) == factorial(loops + 1)
    one_circuit = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    loops_apart = CircuitDecomposition.from_arc_lists(
        digraph, [[0, 1, 2], [3, 4]] + [[a] for a in range(5, digraph.m)])
    for decomposition in (one_circuit, loops_apart):
        summary = enumerate_relative_embeddings(digraph, decomposition)
        reference = _reference_tally(digraph, decomposition)
        assert summary.distribution == reference
        _assert_minimum_matches(digraph, decomposition, reference)


def test_tally_of_one_vertex_keeps_no_arrangements():
    """Arrangements are made one at a time: 40,320 of them fit in 64 KB,
    where building them all took megabytes."""
    digraph = Digraph(1, [(0, 0)] * 9)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    tracemalloc.start()
    try:
        summary = enumerate_relative_embeddings(digraph, decomposition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.states == 40320
    assert peak < 64 * 1024


def test_stream_keeps_no_arrangement_lists():
    """The call and its first state fit in 64 KB on one vertex with 9 loops,
    where listing its 40,320 arrangements up front took 4.84 MB."""
    digraph = Digraph(1, [(0, 0)] * 9)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    tracemalloc.start()
    try:
        stream = iter_relative_embeddings(digraph, decomposition)
        first = next(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.rotations == embed_from_decomposition(digraph, decomposition).rotations
    assert peak < 64 * 1024


def test_stream_is_the_product_of_the_arrangement_lists():
    """Free vertices of in-degree 3, 4 and 3 around a rigid one of
    in-degree 2: the stream is the product over each vertex's list of
    arrangements, vertex 0 varying slowest."""
    digraph = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]
                      + [(0, 0)] * 2 + [(1, 1)] + [(2, 2)] * 3 + [(3, 3)] * 2)
    one_circuit = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    loops_apart = CircuitDecomposition.from_arc_lists(
        digraph, [[0, 1, 2, 3]] + [[a] for a in range(4, digraph.m)])
    for decomposition in (one_circuit, loops_apart):
        options = [[flat_rotation((*pairs[:1], *rest))
                    for rest in itertools.permutations(pairs[1:])]
                   for pairs in decomposition_blocks(digraph, decomposition)]
        want = list(itertools.product(*options))
        assert len(want) == state_count(digraph) == 24
        assert [emb.rotations for emb in iter_relative_embeddings(digraph, decomposition)] == want


def test_tally_without_arcs():
    digraph = Digraph(1, [])
    decomposition = CircuitDecomposition(digraph, [])
    summary = enumerate_relative_embeddings(digraph, decomposition)
    assert summary.distribution == {0: 1} == _reference_tally(digraph, decomposition)
    assert summary.states == 1
    _assert_minimum_matches(digraph, decomposition, summary.distribution)


def test_tally_raises_when_it_misses_the_state_count(monkeypatch, tournament7):
    digraph, decomposition = tournament7
    real = oracle.state_count
    monkeypatch.setattr(oracle, "state_count", lambda d: real(d) + 1)
    with pytest.raises(EmbeddingError, match="the tally visited 128 states, not 129"):
        enumerate_relative_embeddings(digraph, decomposition)
    with pytest.raises(EmbeddingError, match="the tally visited 128 states, not 129"):
        _certify_first_state(digraph, decomposition)


def test_certify_raises_when_the_minimum_has_the_other_parity(monkeypatch, tournament7):
    """Every count of one proface family shares a parity, so a certified
    count of the other parity means a fault; the minimum here is 1."""
    digraph, decomposition = tournament7
    embedding = embed_from_decomposition(digraph, decomposition)
    monkeypatch.setattr(type(embedding), "antiface_count", lambda self: 2)
    with pytest.raises(EmbeddingError, match="^2 antifaces and the minimum 1 differ in parity$"):
        certify_maximal(embedding, digraph, decomposition)


@pytest.mark.parametrize("digraph, distribution", [
    (gen_rotational_tournament(9), {2: 5576785, 4: 4106793, 6: 388332, 8: 5778, 10: 8}),
    (circulant(23, (1, 7, 11)), {1: 1691941, 3: 5520773, 5: 1151436, 7: 24458}),
], ids=["tournament9", "circulant23"])
def test_large_distributions_match_the_state_by_state_tally(digraph, distribution):
    """Pinned from a tally that walked all 10,077,696 and 8,388,608 states;
    the minimum-only tally must agree."""
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    states = state_count(digraph)
    summary = enumerate_relative_embeddings(digraph, decomposition, limit=states)
    assert summary.distribution == distribution
    assert summary.states == states == sum(distribution.values())
    cert = _certify_first_state(digraph, decomposition, limit=states)
    assert (cert.minimum, cert.states) == (min(distribution), states)


def test_tally_leaves_no_cyclic_garbage(tournament7):
    """Both tallies' memos must go with the call, not wait for a collection."""
    digraph, decomposition = tournament7
    embedding = embed_from_decomposition(digraph, decomposition)
    gc.collect()
    gc.disable()
    try:
        enumerate_relative_embeddings(digraph, decomposition)
        assert gc.collect() == 0
        certify_maximal(embedding, digraph, decomposition)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_certify_a_reduced_tournament(tournament7):
    digraph, decomposition = tournament7
    embedding, _ = reduce_to_upper_embedding(digraph, decomposition)
    cert = certify_maximal(embedding, digraph, decomposition)
    assert cert.achieved == 1
    assert cert.minimum == 1
    assert cert.passed
    assert cert.states == 128
    assert "passed=True" in repr(cert)


def test_certify_flags_a_suboptimal_state(tournament7):
    digraph, decomposition = tournament7
    for emb in iter_relative_embeddings(digraph, decomposition):
        if emb.antiface_count() == 5:
            cert = certify_maximal(emb, digraph, decomposition)
            assert cert.achieved == 5
            assert not cert.passed
            break
    else:
        pytest.fail("no five-antiface state found")


def test_certify_rejects_a_proface_mismatch(double_digon):
    digraph, decomposition = double_digon
    other = CircuitDecomposition.from_arc_lists(digraph, [[0, 3], [2, 1]])
    emb = next(iter_relative_embeddings(digraph, other))
    with pytest.raises(EmbeddingError, match="not the given circuits"):
        certify_maximal(emb, digraph, decomposition)
