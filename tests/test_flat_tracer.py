"""Fast paths against written-out references.

The flat tracer, the sliced alternation rule, the arc-set arrival lookup,
the counting three-face search and the block test of proface identity
each have a plain reference here that follows the definition step by
step.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from eulergenus import (
    CircuitDecomposition,
    Digraph,
    EmbeddingError,
    OrientedDirectedEmbedding,
    euler_circuit,
    find_vertex_on_three_antifaces,
    gen_rotational_tournament,
    gen_sts,
)
from eulergenus.embedding import FaceWalk, flat_rotation
from eulergenus.surgery import _arrival_at, _rewire_three

from conftest import circuit_set, circulant, reference_find_three, shuffled_blocks


def _graphs():
    tournament = gen_rotational_tournament(9)
    sts, _ = gen_sts(9)
    circ = circulant(7, (1, 2, 3))
    loops = Digraph(2, [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (0, 1), (1, 0)])
    isolated = Digraph(3, [(0, 1), (1, 0), (0, 0)])  # vertex 2 has an empty rotation
    return (tournament, sts, circ, loops, isolated)


GRAPHS = _graphs()
# vertex 0 has odd degree, so no rotation there alternates
UNBALANCED = Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])


def _reference_fault(digraph, rotations):
    """The message for the first rotation that is not a permutation of its
    vertex's half-arcs or, failing that, has two cyclically consecutive
    half-arcs of one direction; or None."""
    for v, rot in enumerate(rotations):
        if sorted(rot) != sorted(digraph.out_half_arcs(v) + digraph.in_half_arcs(v)):
            return f"rotation at vertex {v} is not a permutation of its half-arcs"
        if len(rot) % 2 == 1 or any(
                (h & 1) == (rot[(i + 1) % len(rot)] & 1) for i, h in enumerate(rot)):
            return f"rotation at vertex {v} does not alternate"
    return None


def _reference_faces(embedding):
    """Orbit walk over next_cw / prev_cw, one method call per arc."""
    families = []
    for color, step in (("pro", embedding.prev_cw), ("anti", embedding.next_cw)):
        seen = set()
        faces = []
        for h0 in range(0, 2 * embedding.digraph.m, 2):
            if h0 in seen:
                continue
            orbit = []
            h = h0
            while h not in seen:
                seen.add(h)
                orbit.append(h)
                h = step(h ^ 1)
            assert h == h0
            faces.append(FaceWalk(embedding.digraph, orbit, color))
        faces.sort(key=lambda f: f.walk)
        families.append(faces)
    return families


def _snapshot(faces):
    return [(f.color, f.walk, f.corners, f.vertex_set()) for f in faces]


def _interleaved(outs, ins, shift):
    rotation = [h for pair in zip(outs, ins) for h in pair]
    return rotation[shift:] + rotation[:shift]


def _alternating(digraph, v, rng):
    outs = list(digraph.out_half_arcs(v))
    ins = list(digraph.in_half_arcs(v))
    rng.shuffle(outs)
    rng.shuffle(ins)
    return _interleaved(outs, ins, rng.randrange(len(outs + ins)) if outs + ins else 0)


def _scrambled(digraph, v, rng):
    rotation = list(digraph.incident_half_arcs(v))
    rng.shuffle(rotation)
    return rotation


def _random_rotations(digraph, rng, scramble=0.0):
    """Alternating rotations, each scrambled instead with the given chance."""
    rotations = []
    for v in range(digraph.n):
        make = _scrambled if rng.random() < scramble else _alternating
        rotations.append(make(digraph, v, rng))
    return rotations


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(len(GRAPHS))), st.integers(0, 2**32 - 1))
def test_flat_tracer_equals_the_reference_orbit_walk(graph_index, seed):
    digraph = GRAPHS[graph_index]
    emb = OrientedDirectedEmbedding(digraph, _random_rotations(digraph, random.Random(seed)))
    want = _reference_faces(emb)
    got = emb._trace()
    assert [_snapshot(faces) for faces in got] == [_snapshot(faces) for faces in want]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(len(GRAPHS))), st.integers(0, 2**32 - 1))
def test_traced_corners_are_the_heads_of_the_walk(graph_index, seed):
    """A face builds its corners and vertex set on first read; either may
    be read first, and both come from the heads of the walk's arcs."""
    digraph = GRAPHS[graph_index]
    emb = OrientedDirectedEmbedding(digraph, _random_rotations(digraph, random.Random(seed)))
    for faces in emb._trace():
        for i, face in enumerate(faces):
            heads = tuple(digraph.arcs[h >> 1][1] for h in face.walk)
            if i % 2:
                assert face.vertex_set() == frozenset(heads)
            assert face.corners == heads
            assert face.vertex_set() == frozenset(heads)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(GRAPHS + (UNBALANCED,)),
    st.integers(0, 2**32 - 1),
    st.sampled_from((0.1, 0.5, 1.0)),
)
def test_flat_tracer_raises_like_the_reference(digraph, seed, scramble):
    rotations = _random_rotations(digraph, random.Random(seed), scramble)
    want = _reference_fault(digraph, rotations)
    if want is not None:
        # the rotations are read when the embedding is built, before a trace
        with pytest.raises(EmbeddingError) as caught:
            OrientedDirectedEmbedding(digraph, rotations)
        assert str(caught.value) == want
    else:
        emb = OrientedDirectedEmbedding(digraph, rotations)
        got = emb._trace()
        want = _reference_faces(emb)
        assert [_snapshot(faces) for faces in got] == [_snapshot(faces) for faces in want]


def _any_rotation(digraph, v):
    """An alternating arrangement of v's half-arcs, any arrangement of
    them, or any short list of half-arc ids."""
    outs, ins = digraph.out_half_arcs(v), digraph.in_half_arcs(v)
    return st.one_of(
        st.builds(_interleaved, st.permutations(outs), st.permutations(ins),
                  st.integers(0, len(outs + ins))),
        st.permutations(outs + ins),
        st.lists(st.integers(0, 2 * digraph.m + 1), max_size=len(outs + ins) + 1),
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_alternation_rule_equals_the_per_pair_definition(data):
    digraph = data.draw(st.sampled_from(GRAPHS + (UNBALANCED,)))
    rotations = data.draw(st.tuples(*(_any_rotation(digraph, v) for v in range(digraph.n))))
    # construction rejects exactly what the reference rejects, at the same
    # first vertex and with the same message
    want = _reference_fault(digraph, rotations)
    if want is not None:
        with pytest.raises(EmbeddingError) as caught:
            OrientedDirectedEmbedding(digraph, rotations)
        assert str(caught.value) == want
        return
    emb = OrientedDirectedEmbedding(digraph, rotations)
    # blocks_at lays each rotation back out from its first outgoing half
    for v, rot in enumerate(rotations):
        start = next((i for i, h in enumerate(rot) if h & 1 == 0), 0)
        turned = tuple(rot[start:]) + tuple(rot[:start])
        assert flat_rotation(emb.blocks_at(v)) == turned


def _least_in_half_on_walk(face, v):
    """The least incoming half-arc at v whose arc the face walks, read from
    the digraph's half-arc lists rather than the face's corners; None when
    the face walks no arc into v."""
    on_walk = set(face.arcs())
    return min((h for h in face.digraph.in_half_arcs(v) if h >> 1 in on_walk), default=None)


def _walked_embedding(digraph, seed, rewires):
    """Random start with fixed profaces, then random 3-cycles of the antiface pairing."""
    rng = random.Random(seed)
    emb = shuffled_blocks(digraph, CircuitDecomposition(digraph, [euler_circuit(digraph)]), rng)
    for _ in range(rewires):
        v = rng.randrange(digraph.n)
        ins = list(digraph.in_half_arcs(v))
        if len(ins) >= 3:
            emb = _rewire_three(emb, v, *rng.sample(ins, 3))
    return emb


EULERIAN = GRAPHS[:4]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(range(len(EULERIAN))),
    st.integers(0, 2**32 - 1),
    st.integers(0, 6),
)
def test_arrival_lookup_equals_the_corner_scan(graph_index, seed, rewires):
    digraph = EULERIAN[graph_index]
    emb = _walked_embedding(digraph, seed, rewires)
    for face in emb.antifaces:
        for v in range(digraph.n):
            want = _least_in_half_on_walk(face, v)
            assert face.visits(v) == (want is not None)
            if want is not None:
                assert _arrival_at(face, v) == want
            else:
                with pytest.raises(EmbeddingError, match=f"does not visit vertex {v}"):
                    _arrival_at(face, v)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(range(len(EULERIAN))),
    st.integers(0, 2**32 - 1),
    st.integers(0, 6),
)
def test_three_face_search_equals_the_membership_scan(graph_index, seed, rewires):
    emb = _walked_embedding(EULERIAN[graph_index], seed, rewires)
    assert find_vertex_on_three_antifaces(emb) == reference_find_three(emb)


def _transition_decomposition(digraph, rng):
    """The circuits of a random pairing of in- and out-halves at each vertex."""
    fw = {}
    for v in range(digraph.n):
        outs = list(digraph.out_half_arcs(v))
        rng.shuffle(outs)
        fw.update(zip(digraph.in_half_arcs(v), outs))
    circuits, seen = [], set()
    for start in range(digraph.m):
        walk = []
        a = start
        while a not in seen:
            seen.add(a)
            walk.append(a)
            a = fw[2 * a + 1] >> 1
        if walk:
            circuits.append(walk)
    return CircuitDecomposition.from_arc_lists(digraph, circuits)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(range(len(GRAPHS))),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["own", "other", "re-paired", "random"]),
)
def test_proface_identity_from_blocks_equals_the_traced_comparison(graph_index, seed, state):
    digraph = GRAPHS[graph_index]
    rng = random.Random(seed)
    decomposition = _transition_decomposition(digraph, rng)
    if state == "random":
        emb = OrientedDirectedEmbedding(digraph, _random_rotations(digraph, rng))
    else:
        emb = shuffled_blocks(digraph, decomposition, rng)
    if state == "other":
        # another decomposition of the same digraph, at times the same one
        decomposition = _transition_decomposition(digraph, rng)
    elif state == "re-paired":
        v = rng.choice([v for v in range(digraph.n) if digraph.outdeg(v) >= 2])
        (g0, h0), (g1, h1), *rest = emb.blocks_at(v)
        emb = emb.with_rotation(v, flat_rotation([(g1, h0), (g0, h1), *rest]))
    traced = frozenset(f.arcs() for f in emb.profaces)
    same = traced == circuit_set(decomposition)
    assert emb.profaces_are(decomposition) is same
    if state in ("own", "re-paired"):
        assert same is (state == "own")


def test_a_decomposition_of_another_digraph_is_never_the_profaces():
    """Arc ids can trace the same circuits in two digraphs; only the
    embedding's own digraph counts."""
    digraph = Digraph(2, [(0, 1), (1, 0)])
    other = Digraph(2, [(1, 0), (0, 1)])
    emb = OrientedDirectedEmbedding(digraph, [(0, 3), (2, 1)])
    foreign = CircuitDecomposition.from_arc_lists(other, [[0, 1]])
    assert {f.arcs() for f in emb.profaces} == circuit_set(foreign)
    assert not emb.profaces_are(foreign)
    assert emb.profaces_are(CircuitDecomposition.from_arc_lists(digraph, [[0, 1]]))
