"""Face walks, rotation systems, face tracing, genus, and verification."""

import json
import random

import pytest

from eulergenus import (
    CircuitDecomposition,
    Digraph,
    DirectedCircuit,
    EmbeddingError,
    FaceWalk,
    GraphError,
    OrientedDirectedEmbedding,
    UndirectedGraph,
    embed_from_decomposition,
    euler_circuit,
    euler_genus,
    gen_rotational_tournament,
    iter_relative_embeddings,
    verify_embedding,
)
from eulergenus.surgery import _rewire_three

from conftest import circuit_set, nth_state


def test_face_walk_canonicalizes_to_min_rotation(three_loops):
    digraph, _ = three_loops
    walk = FaceWalk(digraph, (4, 0, 2), "anti")
    assert walk.walk == (0, 2, 4)
    assert walk.key == 0
    assert walk.color == "anti"


def test_face_walk_accessors(three_loops):
    digraph, decomposition = three_loops
    emb = embed_from_decomposition(digraph, decomposition)
    face = emb.antifaces[0]
    assert face.walk == (0, 4, 2)
    assert face.corners == (0, 0, 0)
    assert face.corner_positions(0) == (0, 1, 2)
    assert face.visits(0)
    assert face.arcs() == (0, 2, 1)
    assert face.vertex_set() == frozenset({0})
    # a face traced again is equal and hashes alike
    again = embed_from_decomposition(digraph, decomposition).antifaces[0]
    assert again is not face and {again} == {face}


def test_alternation_positions_exist_for_interlaced_visits():
    digraph = Digraph(2, [(0, 1), (0, 1), (1, 0), (1, 0), (0, 0), (1, 1)])
    face = FaceWalk(digraph, (0, 4, 2, 6), "anti")
    positions = face.alternation_positions(0, 1)
    assert positions is not None
    p1, p2, p3, p4 = positions
    assert face.corners[p1] == 0 and face.corners[p3] == 0
    assert face.corners[p2] == 1 and face.corners[p4] == 1


def _walk_through(corners):
    """A face whose j-th corner is ``corners[j]``: arc j runs from the
    previous corner to this one, and the walk takes the arcs in order."""
    arcs = [(corners[j - 1], corners[j]) for j in range(len(corners))]
    digraph = Digraph(max(corners) + 1, arcs)
    return FaceWalk(digraph, tuple(2 * a for a in range(len(arcs))), "anti")


def test_alternation_positions_count_a_loop_run_once():
    # arc 1 is a loop at 0, so the face passes 0 twice in a row: the runs
    # are 0 at {0, 1}, 1 at {2}, 0 at {3}, 1 at {4}
    face = _walk_through((0, 0, 1, 0, 1))
    assert face.corners == (0, 0, 1, 0, 1)
    assert face.alternation_positions(0, 1) == (0, 2, 3, 4)
    assert face.alternation_positions(1, 0) == (2, 3, 4, 0)
    # the same visits without the second run of 1 do not interlace
    assert _walk_through((0, 0, 1, 0)).alternation_positions(0, 1) is None
    # nor do vertices the face never visits
    assert face.alternation_positions(2, 3) is None


def test_alternation_positions_join_a_run_across_the_walk_end():
    # arc 0 is a loop at 1, so the run of 1 at {5, 0} wraps round the end;
    # it counts once, by its position 0, and four runs remain
    face = _walk_through((1, 2, 0, 1, 0, 1))
    assert face.corners == (1, 2, 0, 1, 0, 1)
    assert face.alternation_positions(0, 1) == (2, 3, 4, 0)
    assert face.alternation_positions(1, 0) == (0, 2, 3, 4)
    # five runs whose last joins the first leave four
    assert _walk_through((1, 0, 1, 0, 1)).alternation_positions(0, 1) == (1, 2, 3, 0)
    # 1 at {3, 0} and 0 at {1} are only two runs
    assert _walk_through((1, 0, 2, 1)).alternation_positions(0, 1) is None


def test_alternation_positions_absent_for_single_visits(double_digon):
    digraph, decomposition = double_digon
    emb = nth_state(digraph, decomposition, 0)
    for face in emb.antifaces:
        assert face.alternation_positions(0, 1) is None


def test_rotation_must_permute_incident_half_arcs(three_loops):
    digraph, _ = three_loops
    with pytest.raises(EmbeddingError, match="not a permutation"):
        OrientedDirectedEmbedding(digraph, [(0, 1, 2, 3, 4, 4)])


def test_clockwise_neighbors(three_loops):
    digraph, decomposition = three_loops
    emb = embed_from_decomposition(digraph, decomposition)
    assert emb.rotations == ((2, 1, 4, 3, 0, 5),)
    assert emb.next_cw(1) == 4
    assert emb.prev_cw(1) == 2
    assert emb.prev_cw(2) == 5
    assert emb.next_cw(5) == 2
    assert emb.next_cw(0) == 5
    assert emb.prev_cw(0) == 3
    assert emb.blocks_at(0) == ((2, 1), (4, 3), (0, 5))


def test_manual_rotation_traces_expected_faces(three_loops):
    digraph, _ = three_loops
    emb = OrientedDirectedEmbedding(digraph, [(2, 1, 0, 5, 4, 3)])
    assert [f.walk for f in emb.profaces] == [(0, 2, 4)]
    assert [f.walk for f in emb.antifaces] == [(0,), (2,), (4,)]
    pro, anti = emb._trace()
    assert [f.key for f in pro] == [0]
    assert [f.key for f in anti] == [0, 2, 4]


def test_embed_from_decomposition_realizes_the_circuits(three_loops):
    digraph, decomposition = three_loops
    emb = embed_from_decomposition(digraph, decomposition)
    assert {f.arcs() for f in emb.profaces} == circuit_set(decomposition)
    assert [f.walk for f in emb.antifaces] == [(0, 4, 2)]


def test_every_arc_lies_on_one_face_of_each_color(tournament7):
    digraph, decomposition = tournament7
    emb = embed_from_decomposition(digraph, decomposition)
    for faces in (emb.profaces, emb.antifaces):
        covered = sorted(a for f in faces for a in f.arcs())
        assert covered == list(range(digraph.m))


def test_profaces_are_invariant_across_oracle_states(double_digon):
    digraph, decomposition = double_digon
    want = circuit_set(decomposition)
    for emb in iter_relative_embeddings(digraph, decomposition, 10**6):
        assert {f.arcs() for f in emb.profaces} == want


def test_with_rotation_replaces_one_vertex(four_loops):
    digraph, decomposition = four_loops
    emb = embed_from_decomposition(digraph, decomposition)
    other = emb.with_rotation(0, emb.rotations[0][2:] + emb.rotations[0][:2])
    assert other.digraph is digraph
    assert other.rotations != emb.rotations
    # same cyclic order, so the faces cannot change
    assert {f.walk for f in other.antifaces} == {f.walk for f in emb.antifaces}


def _random_start(digraph, rng):
    """The canonical embedding of one euler circuit, blocks shuffled at
    every vertex."""
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    canonical = embed_from_decomposition(digraph, decomposition)
    rotations = []
    for v in range(digraph.n):
        blocks = list(canonical.blocks_at(v))
        rng.shuffle(blocks)
        rotations.append([h for block in blocks for h in block])
    return OrientedDirectedEmbedding(digraph, rotations)


def test_with_rotation_validates_the_new_rotation_only():
    emb = _random_start(gen_rotational_tournament(9), random.Random(4))
    with pytest.raises(EmbeddingError, match="not a permutation"):
        emb.with_rotation(2, emb.rotations[2][1:])
    child = emb.with_rotation(2, emb.rotations[2][::-1])
    assert child.halves[3] is emb.halves[3]


def _nudged(rotation):
    return (rotation[0] + 0.7,) + rotation[1:]


@pytest.mark.parametrize("build, error, message", [
    (lambda emb: OrientedDirectedEmbedding(
        emb.digraph, (_nudged(emb.rotations[0]),) + emb.rotations[1:]),
     EmbeddingError, "rotation half-arcs must be integers: 0.7 is not"),
    (lambda emb: emb.with_rotation(3, _nudged(emb.rotations[3])),
     EmbeddingError, "rotation half-arcs must be integers: 22.7 is not"),
    (lambda emb: Digraph(3, [(0, 1.5), (1.5, 0)]),
     GraphError, "arc endpoints must be integers: 1.5 is not"),
    (lambda emb: Digraph(True, [(0, 0)]),
     GraphError, "arc endpoints must be integers: True is not"),
    (lambda emb: DirectedCircuit(emb.digraph, ["0", True, 2]),
     GraphError, "circuit arc ids must be integers: '0' is not"),
    (lambda emb: UndirectedGraph(3, [(0, 1), (1, 2.0), (2, 0)]),
     GraphError, "edge endpoints must be integers: 2.0 is not"),
], ids=["embedding", "with_rotation", "digraph", "vertex-count", "circuit", "undirected"])
def test_constructors_refuse_non_integer_ids(tournament7, build, error, message):
    """Ids are checked, not truncated: ``int`` would turn h + 0.7 back into h."""
    digraph, decomposition = tournament7
    emb = embed_from_decomposition(digraph, decomposition)
    with pytest.raises(error, match=message):
        build(emb)


def test_a_rewired_child_is_traced_once_when_first_read(monkeypatch):
    digraph = gen_rotational_tournament(9)
    emb = _random_start(digraph, random.Random(3))
    emb._trace()
    ins = [h for _, h in emb.blocks_at(0)]
    child = _rewire_three(emb, 0, *ins[:3])
    assert child._faces is None
    fresh = OrientedDirectedEmbedding(digraph, child.rotations)._trace()

    traced = []
    original = OrientedDirectedEmbedding._trace

    def counting(self):
        if self._faces is None:
            traced.append(self)
        return original(self)

    monkeypatch.setattr(OrientedDirectedEmbedding, "_trace", counting)
    assert (child.profaces, child.antifaces) == fresh
    assert traced == [child]
    assert verify_embedding(child).ok
    assert traced == [child]

    rotation = list(emb.rotations[0])
    rotation[0], rotation[1] = rotation[1], rotation[0]
    with pytest.raises(EmbeddingError, match="vertex 0 does not alternate"):
        emb.with_rotation(0, rotation)


def test_a_rewired_child_replaces_only_its_vertex_halves(monkeypatch):
    """``_rewire_three`` reads no rotation, checks the new halves once and
    shares every other vertex's."""
    from eulergenus import embedding as embedding_module

    emb = _random_start(gen_rotational_tournament(9), random.Random(6))
    (outgoing, incoming), v = emb.halves[4], 4
    checked = []
    check_halves = embedding_module._check_halves

    def counting(*args):
        checked.append(args[1])
        return check_halves(*args)

    def no_rotation(*args):
        pytest.fail("a rotation was read")

    monkeypatch.setattr(embedding_module, "_blocks", no_rotation)
    monkeypatch.setattr(embedding_module, "_check_halves", counting)
    child = _rewire_three(emb, v, incoming[3], incoming[0], incoming[1])
    monkeypatch.undo()
    assert checked == [v]
    # blocks 0, 1 and 3 reorder to B_0, B_2..3, B_1
    order = (0, 2, 3, 1)
    assert child.halves[v] == (tuple(outgoing[i] for i in order),
                               tuple(incoming[i] for i in order))
    assert all(child.halves[u] is emb.halves[u] for u in range(emb.digraph.n) if u != v)
    assert verify_embedding(child).ok


def test_antiface_lookup_by_key():
    emb = _random_start(gen_rotational_tournament(9), random.Random(5))
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


def test_embedding_json_round_trip(tournament7):
    digraph, decomposition = tournament7
    emb = embed_from_decomposition(digraph, decomposition)
    data = json.loads(json.dumps(emb.to_json_dict()))
    again = OrientedDirectedEmbedding.from_json_dict(digraph, data)
    assert again.rotations == emb.rotations
    assert again == emb and hash(again) == hash(emb)


def test_a_rotation_starting_on_an_incoming_half_reads_back_turned(tournament7):
    """Only the blocks are stored, so a rotation is written back from its
    first outgoing half."""
    digraph, decomposition = tournament7
    emb = _random_start(digraph, random.Random(6))
    given = [rot[-1:] + rot[:-1] for rot in emb.rotations]
    assert all(rot[0] & 1 for rot in given)
    turned = OrientedDirectedEmbedding(digraph, given)
    assert turned.rotations == emb.rotations
    assert turned.to_json_dict() == {"rotations": [list(rot) for rot in emb.rotations]}
    assert turned == emb and hash(turned) == hash(emb)
    assert {f.walk for f in turned.antifaces} == {f.walk for f in emb.antifaces}


def test_euler_genus_matches_the_face_count(tournament7):
    digraph, decomposition = tournament7
    emb = embed_from_decomposition(digraph, decomposition)
    faces = len(emb.profaces) + len(emb.antifaces)
    gamma = 2 - (digraph.n - digraph.m + faces)
    assert gamma % 2 == 0
    assert euler_genus(emb) == gamma // 2


def test_verify_accepts_the_constructed_embedding(tournament7):
    digraph, decomposition = tournament7
    emb = embed_from_decomposition(digraph, decomposition)
    report = verify_embedding(emb, decomposition)
    assert report.ok
    assert report.proface_count == 1
    assert report.antiface_count == len(emb.antifaces)
    assert report.summary().startswith("ok: 1 profaces")


def test_verify_flags_proface_mismatch(three_loops):
    digraph, decomposition = three_loops
    emb = embed_from_decomposition(digraph, decomposition)
    singletons = CircuitDecomposition.from_arc_lists(digraph, [[0], [1], [2]])
    report = verify_embedding(emb, singletons)
    assert not report.ok
    assert [kind for kind, _ in report.failures] == ["profaces-match"]
    assert report.summary().startswith("FAILED")


def _with_halves(emb, v, outgoing, incoming):
    """``emb`` with the stored halves at v replaced, the constructor
    bypassed to exercise the verifier on a malformed state."""
    broken = OrientedDirectedEmbedding.__new__(OrientedDirectedEmbedding)
    broken.digraph = emb.digraph
    broken.halves = emb.halves[:v] + ((tuple(outgoing), tuple(incoming)),) + emb.halves[v + 1:]
    return broken


def test_verify_flags_corrupted_rotation(tournament7):
    digraph, decomposition = tournament7
    emb = embed_from_decomposition(digraph, decomposition)
    outgoing, incoming = map(list, emb.halves[0])
    outgoing[0] = outgoing[1]
    report = verify_embedding(_with_halves(emb, 0, outgoing, incoming), decomposition)
    assert not report.ok
    assert report.failures == (
        ("rotation-structure", "rotation at vertex 0 is not a permutation of its half-arcs"),
    )


def test_verify_flags_rotation_that_does_not_alternate(tournament7):
    digraph, decomposition = tournament7
    emb = embed_from_decomposition(digraph, decomposition)
    # a permutation whose first two halves are swapped no longer alternates
    outgoing, incoming = map(list, emb.halves[1])
    outgoing[0], incoming[0] = incoming[0], outgoing[0]
    report = verify_embedding(_with_halves(emb, 1, outgoing, incoming), decomposition)
    assert report.failures == (("alternation", "rotation at vertex 1 does not alternate"),)
    assert report.summary() == "FAILED\nalternation: rotation at vertex 1 does not alternate"


def test_verify_flags_a_wrong_number_of_stored_halves(tournament7):
    """``halves`` of the wrong length is a rotation-structure failure, not
    an IndexError."""
    digraph, decomposition = tournament7
    emb = embed_from_decomposition(digraph, decomposition)
    for halves in (emb.halves * 2, emb.halves[:-1]):
        broken = OrientedDirectedEmbedding.__new__(OrientedDirectedEmbedding)
        broken.digraph = digraph
        broken.halves = halves
        report = verify_embedding(broken, decomposition)
        assert report.failures == (
            ("rotation-structure", f"expected 7 rotations, got {len(halves)}"),
        )


class _ForcedFaces(OrientedDirectedEmbedding):
    """Embedding whose traced antifaces are overridden for negative tests.

    A rotation system can never produce an odd face count of the wrong
    parity, so the parity and genus-integrality branches are reachable only
    through a fabricated trace.
    """

    forced = None

    def _trace(self):
        pro, anti = super()._trace()
        return pro, self.forced(anti)


def test_verify_flags_parity_and_genus_violations(double_digon):
    digraph, decomposition = double_digon
    base = nth_state(digraph, decomposition, 0)
    a, b = base.antifaces

    class Glued(_ForcedFaces):
        forced = staticmethod(
            lambda anti: (FaceWalk(digraph, a.walk + b.walk, "anti"),)
        )

    emb = Glued(digraph, base.rotations)
    report = verify_embedding(emb, decomposition)
    kinds = {kind for kind, _ in report.failures}
    assert "parity" in kinds
    assert "genus-integrality" in kinds


def test_verify_flags_arc_coverage_gaps(double_digon):
    digraph, decomposition = double_digon
    base = nth_state(digraph, decomposition, 0)
    a, b = base.antifaces

    class Dropped(_ForcedFaces):
        forced = staticmethod(lambda anti: (anti[0], anti[0]))

    emb = Dropped(digraph, base.rotations)
    report = verify_embedding(emb, decomposition)
    assert any(kind == "arc-coverage" for kind, _ in report.failures)


@pytest.mark.parametrize("forced", [
    lambda anti: anti + anti[:1],  # every arc, and one face's arcs twice
    lambda anti: anti[1:],         # one face's arcs missing
], ids=["repeated", "missing"])
def test_verify_flags_repeated_or_missing_arcs(double_digon, forced):
    digraph, decomposition = double_digon
    base = nth_state(digraph, decomposition, 0)

    class Forced(_ForcedFaces):
        pass

    Forced.forced = staticmethod(forced)
    report = verify_embedding(Forced(digraph, base.rotations), decomposition)
    assert ("arc-coverage", "antifaces do not cover each arc exactly once") in report.failures
    assert verify_embedding(base, decomposition).ok
