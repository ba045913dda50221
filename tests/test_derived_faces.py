"""Faces derived by with_rotation against the reference tracer."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from eulergenus import (
    CircuitDecomposition,
    Digraph,
    EmbeddingError,
    OrientedDirectedEmbedding,
    embed_from_decomposition,
    euler_circuit,
    gen_rotational_tournament,
    gen_sts,
    trace_faces,
    verify_embedding,
)
from eulergenus.surgery import _rewire_three

from conftest import circulant


def _graphs():
    tournament = gen_rotational_tournament(9)
    sts, _ = gen_sts(9)
    circ = circulant(7, (1, 2, 3))
    loops = Digraph(2, [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1), (0, 1), (1, 0)])
    return (tournament, sts, circ, loops)


GRAPHS = _graphs()
OPS = ("reorder", "rewire", "break", "unalternate")


def _flat(blocks):
    return [h for block in blocks for h in block]


def _replace(embedding, v, rotation):
    rotations = list(embedding.rotations)
    rotations[v] = tuple(rotation)
    return OrientedDirectedEmbedding(embedding.digraph, rotations)


def _snapshot(faces):
    """Everything a face carries, so equal snapshots mean identical faces."""
    return [(f.color, f.walk, f.corners, f.vertex_set()) for f in faces]


def _random_start(digraph, rng):
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    canonical = embed_from_decomposition(digraph, decomposition)
    rotations = []
    for v in range(digraph.n):
        blocks = list(canonical.blocks_at(v))
        rng.shuffle(blocks)
        rotations.append(_flat(blocks))
    return OrientedDirectedEmbedding(digraph, rotations)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(range(len(GRAPHS))),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 2**32 - 1)), max_size=10),
)
def test_derived_faces_equal_a_fresh_trace(graph_index, start_seed, ops):
    digraph = GRAPHS[graph_index]
    emb = _random_start(digraph, random.Random(start_seed))
    trace_faces(emb)
    for op, seed in ops:
        rng = random.Random(seed)
        v = rng.randrange(digraph.n)
        blocks = list(emb.blocks_at(v))
        if op == "reorder":
            rng.shuffle(blocks)
            rotation = _flat(blocks)
            shift = rng.randrange(len(rotation))
            child = emb.with_rotation(v, rotation[shift:] + rotation[:shift])
        elif op == "rewire":
            if len(blocks) < 3:
                continue
            ins = [h for _, h in blocks]
            child = _rewire_three(emb, v, *rng.sample(ins, 3))
        elif op == "break":
            if len(blocks) < 2:
                continue
            i, j = rng.sample(range(len(blocks)), 2)
            (gi, hi), (gj, hj) = blocks[i], blocks[j]
            blocks[i], blocks[j] = (gj, hi), (gi, hj)
            child = emb.with_rotation(v, _flat(blocks))
            assert child._faces is None
        else:
            if len(blocks) < 2:
                continue
            rotation = _flat(blocks)
            rotation[0], rotation[1] = rotation[1], rotation[0]
            child = emb.with_rotation(v, rotation)
            assert child._faces is None
            with pytest.raises(EmbeddingError, match="does not alternate"):
                child.antifaces
            continue
        assert child._derived == (op != "break")
        fresh = OrientedDirectedEmbedding(digraph, child.rotations)
        for mine, theirs in zip(trace_faces(child), trace_faces(fresh)):
            assert _snapshot(mine) == _snapshot(theirs)
        for face in child.antifaces:
            assert child.antiface(face.key) is face
        assert verify_embedding(child).ok
        emb = child


def test_faces_unknown_in_the_parent_are_traced_on_demand():
    digraph = GRAPHS[0]
    emb = _random_start(digraph, random.Random(3))
    ins = [h for _, h in emb.blocks_at(0)]
    child = _rewire_three(emb, 0, *ins[:3])
    assert child._faces is None and not child._derived
    assert child.antifaces == trace_faces(OrientedDirectedEmbedding(digraph, child.rotations))[1]


def test_with_rotation_validates_the_new_rotation_only():
    digraph = GRAPHS[0]
    emb = _random_start(digraph, random.Random(4))
    with pytest.raises(EmbeddingError, match="not a permutation"):
        emb.with_rotation(2, emb.rotations[2][1:])
    child = emb.with_rotation(2, emb.rotations[2][::-1])
    assert child.rotations[3] is emb.rotations[3]


def test_antiface_lookup_by_key():
    digraph = GRAPHS[0]
    emb = _random_start(digraph, random.Random(5))
    for face in emb.antifaces:
        assert emb.antiface(face.key) is face
        assert emb.own_antiface(face) is face
    # an incoming half-arc starts no walk
    with pytest.raises(EmbeddingError, match="is not an antiface of this embedding"):
        emb.antiface(1)
    with pytest.raises(EmbeddingError, match="is not an antiface of this embedding"):
        emb.own_antiface(emb.profaces[0])
    ins = [h for _, h in emb.blocks_at(1)]
    child = _rewire_three(emb, 1, *ins[:3])
    for face in child.antifaces:
        assert child.antiface(face.key) is face
    gone = [f for f in emb.antifaces if f not in child.antifaces]
    assert gone
    for face in gone:
        with pytest.raises(EmbeddingError):
            child.own_antiface(face)


def _fake_parent(emb, faces):
    fake = OrientedDirectedEmbedding(emb.digraph, emb.rotations)
    fake._faces = faces
    return fake


def test_splice_rejects_faces_missing_a_re_paired_arrival():
    digraph = GRAPHS[0]
    emb = embed_from_decomposition(
        digraph, CircuitDecomposition(digraph, [euler_circuit(digraph)])
    )
    ins = [h for _, h in emb.blocks_at(0)]
    pro, anti = trace_faces(emb)
    missing = tuple(f for f in anti if (ins[0] ^ 1) not in f.walk)
    with pytest.raises(EmbeddingError, match="do not cover the re-paired arrivals"):
        _rewire_three(_fake_parent(emb, (pro, missing)), 0, *ins[:3])


def test_splice_rejects_slices_that_do_not_close():
    digraph = GRAPHS[0]
    emb = embed_from_decomposition(
        digraph, CircuitDecomposition(digraph, [euler_circuit(digraph)])
    )
    blocks = list(emb.blocks_at(0))
    ins = [h for _, h in blocks]
    swapped = _replace(emb, 0, _flat([blocks[1], blocks[0]] + blocks[2:]))
    with pytest.raises(EmbeddingError, match="do not close"):
        _rewire_three(_fake_parent(emb, trace_faces(swapped)), 0, *ins[:3])


def test_splice_rejects_faces_that_overlap():
    digraph = GRAPHS[0]
    emb = embed_from_decomposition(
        digraph, CircuitDecomposition(digraph, [euler_circuit(digraph)])
    )
    ins = [h for _, h in emb.blocks_at(0)]
    pro, anti = trace_faces(emb)
    doubled = tuple(sorted(anti + anti, key=lambda f: f.walk))
    with pytest.raises(EmbeddingError, match="do not cover exactly the arcs"):
        _rewire_three(_fake_parent(emb, (pro, doubled)), 0, *ins[:3])


def test_verify_traces_derived_faces_afresh(monkeypatch):
    digraph = GRAPHS[1]
    emb = _random_start(digraph, random.Random(6))
    traced = []
    original = OrientedDirectedEmbedding._trace

    def counting(self):
        if self._faces is None:
            traced.append(self)
        return original(self)

    monkeypatch.setattr(OrientedDirectedEmbedding, "_trace", counting)
    trace_faces(emb)
    assert verify_embedding(emb).ok
    assert traced == [emb]

    ins = [h for _, h in emb.blocks_at(2)]
    child = _rewire_three(emb, 2, *ins[:3])
    assert child._derived and len(traced) == 1
    assert verify_embedding(child).ok
    assert len(traced) == 2 and traced[1] is not child
    assert child.rotations == traced[1].rotations

    child._faces = emb._faces
    report = verify_embedding(child)
    assert [kind for kind, _ in report.failures] == ["derived-faces"]
