"""Face surgeries: three-way merges, split-and-swap, blow-ups, division."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eulergenus import (
    BLACK,
    RED,
    WHITE,
    CircuitDecomposition,
    Digraph,
    DirectedCircuit,
    EmbeddingError,
    HypothesisError,
    LocalIrreducibilityError,
    OrientedDirectedEmbedding,
    blow_up,
    check_big_moderate,
    check_diamond_corollary,
    check_three_neighbor_corollary,
    density_profile,
    division_search,
    find_vertex_on_three_antifaces,
    iter_relative_embeddings,
    merge_interlaced,
    merge_three_at_vertex,
    split_swap,
    verify_embedding,
)
from eulergenus import surgery as surgery_module
from eulergenus.embedding import FaceWalk, flat_rotation

from conftest import circuit_set, nth_state


def test_merge_three_drops_the_count_by_two(tournament7):
    digraph, decomposition = tournament7
    emb = nth_state(digraph, decomposition, 0)
    v, (a, b, c) = find_vertex_on_three_antifaces(emb)
    before = len(emb.antifaces)
    result = merge_three_at_vertex(emb, v, a, b, c)
    assert result.changed
    assert len(result.embedding.antifaces) == before - 2
    assert set(result.merged.arcs()) == set(a.arcs()) | set(b.arcs()) | set(c.arcs())
    assert verify_embedding(result.embedding, decomposition).ok


def test_merge_three_collapses_three_loops(three_loops):
    digraph, decomposition = three_loops
    emb = OrientedDirectedEmbedding(digraph, [(2, 1, 0, 5, 4, 3)])
    v, (a, b, c) = find_vertex_on_three_antifaces(emb)
    result = merge_three_at_vertex(emb, v, a, b, c)
    assert len(result.embedding.antifaces) == 1
    assert verify_embedding(result.embedding, decomposition).ok


def test_split_swap_on_a_doubly_visited_face(four_loops):
    digraph, decomposition = four_loops
    emb = nth_state(digraph, decomposition, 0)
    assert emb.rotations == ((2, 1, 4, 3, 6, 5, 0, 7),)
    a, b = emb.antifaces
    assert a.walk == (0, 4) and b.walk == (2, 6)
    cut1, cut2 = a.corner_positions(0)[:2]
    result = split_swap(emb, 0, a, cut1, cut2, b)
    assert result.changed
    assert [f.walk for f in result.embedding.antifaces] == [(0, 6, 2), (4,)]
    assert result.merged.walk == (0, 6, 2)
    assert result.kept.walk == (4,)
    assert len(result.embedding.antifaces) == 2
    assert verify_embedding(result.embedding, decomposition).ok


def test_split_swap_preserves_profaces(four_loops):
    digraph, decomposition = four_loops
    emb = nth_state(digraph, decomposition, 0)
    a, b = emb.antifaces
    cut1, cut2 = a.corner_positions(0)[:2]
    result = split_swap(emb, 0, a, cut1, cut2, b)
    want = circuit_set(decomposition)
    assert {f.arcs() for f in result.embedding.profaces} == want


def _re_pair_after_rewiring(monkeypatch, at):
    """Have ``_rewire_three`` swap the outgoing halves of the first two
    blocks of its child at the vertex ``at`` picks from the moved one."""
    real = surgery_module._rewire_three

    def rewire(embedding, v, *halves):
        child = real(embedding, v, *halves)
        u = at(v, embedding.digraph.n)
        (g0, h0), (g1, h1), *rest = child.blocks_at(u)
        # re-pair two blocks: profaces change
        return child.with_rotation(u, flat_rotation([(g1, h0), (g0, h1), *rest]))

    monkeypatch.setattr(surgery_module, "_rewire_three", rewire)


@pytest.mark.parametrize("at", [lambda v, n: v, lambda v, n: (v + 1) % n],
                         ids=["moved-vertex", "other-vertex"])
def test_merge_three_rejects_re_paired_blocks(tournament7, monkeypatch, at):
    digraph, decomposition = tournament7
    emb = nth_state(digraph, decomposition, 0)
    v, inputs = find_vertex_on_three_antifaces(emb)
    _re_pair_after_rewiring(monkeypatch, at)
    with pytest.raises(EmbeddingError, match=f"merge at vertex {v} changed the profaces"):
        merge_three_at_vertex(emb, v, *inputs)


def test_split_swap_rejects_re_paired_blocks(four_loops, monkeypatch):
    digraph, decomposition = four_loops
    emb = nth_state(digraph, decomposition, 0)
    a, b = emb.antifaces
    cut1, cut2 = a.corner_positions(0)[:2]
    _re_pair_after_rewiring(monkeypatch, lambda v, n: v)
    with pytest.raises(EmbeddingError, match="split at vertex 0 changed the profaces"):
        split_swap(emb, 0, a, cut1, cut2, b)


def _corrupt_derived_faces(monkeypatch, parent, corrupt):
    """Have every embedding derived from ``parent`` replace, when first
    traced, the antifaces that ``parent`` does not have."""
    original = OrientedDirectedEmbedding._trace
    # a new face may keep an input's key, so pick the new faces by walk
    old = {f.walk for f in parent.antifaces}

    def trace(self):
        if self is parent or self._faces is not None:
            return original(self)
        profaces, antifaces = original(self)
        faces = [f if f.walk in old else corrupt(f, parent) for f in antifaces]
        self._faces = (profaces, tuple(sorted(faces, key=lambda f: f.walk)))
        return self._faces

    monkeypatch.setattr(OrientedDirectedEmbedding, "_trace", trace)


def _drop_last_arc(face, parent):
    return FaceWalk(parent.digraph, face.walk[:-1], "anti")


def _repeat_first_arc(face, parent):
    return FaceWalk(parent.digraph, face.walk[:-1] + face.walk[:1], "anti")


def _foreign_last_arc(face, parent):
    # an id outside every input face keeps the length and has no repeat
    return FaceWalk(parent.digraph, face.walk[:-1] + (2 * parent.digraph.m,), "anti")


@pytest.mark.parametrize("corrupt", [_drop_last_arc, _repeat_first_arc, _foreign_last_arc])
def test_merge_three_rejects_a_corrupted_merged_face(tournament7, monkeypatch, corrupt):
    digraph, decomposition = tournament7
    emb = nth_state(digraph, decomposition, 0)
    v, (a, b, c) = find_vertex_on_three_antifaces(emb)
    _corrupt_derived_faces(monkeypatch, emb, corrupt)
    with pytest.raises(EmbeddingError, match=f"merge at vertex {v} did not yield the predicted"):
        merge_three_at_vertex(emb, v, a, b, c)


def test_split_swap_rejects_a_corrupted_merged_face(four_loops, monkeypatch):
    digraph, decomposition = four_loops
    emb = nth_state(digraph, decomposition, 0)
    a, b = emb.antifaces
    cut1, cut2 = a.corner_positions(0)[:2]
    _corrupt_derived_faces(monkeypatch, emb, _foreign_last_arc)
    with pytest.raises(EmbeddingError, match="split at vertex 0 did not yield the predicted"):
        split_swap(emb, 0, a, cut1, cut2, b)


def _reverse_after_first_arc(face, parent):
    # same least arc and arc set, so only a whole-walk comparison notices
    return FaceWalk(parent.digraph, face.walk[:1] + face.walk[:0:-1], "anti")


def _reverse_face(walk):
    """A corruption that reverses, after its first arc, only the face on ``walk``."""
    return lambda face, parent: (_reverse_after_first_arc(face, parent)
                                 if face.walk == walk else face)


def test_split_swap_rejects_a_reordered_merged_face(four_loops, monkeypatch):
    digraph, decomposition = four_loops
    emb = nth_state(digraph, decomposition, 0)
    a, b = emb.antifaces
    cut1, cut2 = a.corner_positions(0)[:2]
    merged = split_swap(emb, 0, a, cut1, cut2, b).merged
    assert len(merged) >= 3  # reversing a walk of two arcs keeps its cyclic order
    _corrupt_derived_faces(monkeypatch, emb, _reverse_face(merged.walk))
    with pytest.raises(EmbeddingError, match="split at vertex 0 did not yield the predicted"):
        split_swap(emb, 0, a, cut1, cut2, b)


def test_merge_three_rejects_a_reordered_merged_face(tournament7, monkeypatch):
    digraph, decomposition = tournament7
    emb = nth_state(digraph, decomposition, 0)
    v, inputs = find_vertex_on_three_antifaces(emb)
    merged = merge_three_at_vertex(emb, v, *inputs).merged
    assert len(merged) >= 3  # reversing a walk of two arcs keeps its cyclic order
    _corrupt_derived_faces(monkeypatch, emb, _reverse_face(merged.walk))
    with pytest.raises(EmbeddingError, match=f"merge at vertex {v} did not yield the predicted"):
        merge_three_at_vertex(emb, v, *inputs)


def test_merge_three_rejects_a_reordered_untouched_face(tournament7, monkeypatch):
    digraph, decomposition = tournament7
    emb = nth_state(digraph, decomposition, 24)
    v, inputs = find_vertex_on_three_antifaces(emb)
    untouched = next(f for f in emb.antifaces if f not in inputs and len(f) >= 3)
    original = OrientedDirectedEmbedding._trace

    def trace(self):
        if self is emb or self._faces is not None:
            return original(self)
        profaces, antifaces = original(self)
        faces = [_reverse_after_first_arc(f, emb) if f == untouched else f
                 for f in antifaces]
        self._faces = (profaces, tuple(faces))
        return self._faces

    monkeypatch.setattr(OrientedDirectedEmbedding, "_trace", trace)
    with pytest.raises(EmbeddingError, match="changed an antiface it did not touch"):
        merge_three_at_vertex(emb, v, *inputs)


def _stale_face_calls(child, face, other):
    """Every surgery and check that takes antifaces, handed one foreign face."""
    return (
        lambda: split_swap(child, 0, face, 0, 1, other),
        lambda: split_swap(child, 0, other, 0, 1, face),
        lambda: merge_three_at_vertex(child, 0, face, other, other),
        lambda: merge_three_at_vertex(child, 0, other, other, face),
        lambda: check_big_moderate(child, face, other, other),
        lambda: check_big_moderate(child, other, other, face),
        lambda: check_three_neighbor_corollary(child, face),
        lambda: check_diamond_corollary(child, other, face),
        lambda: blow_up(child, face, other, 0),
        lambda: blow_up(child, other, face, 0),
    )


def test_stale_and_foreign_faces_are_rejected(tournament7):
    digraph, decomposition = tournament7
    emb = nth_state(digraph, decomposition, 0)
    v, inputs = find_vertex_on_three_antifaces(emb)
    result = merge_three_at_vertex(emb, v, *inputs)
    child, merged = result.embedding, result.merged
    # the merged face keeps the least key of its inputs
    assert merged.key in {f.key for f in inputs}
    assert child.antiface(merged.key) is merged
    for face in inputs + child.profaces[:1]:
        for call in _stale_face_calls(child, face, merged):
            with pytest.raises(EmbeddingError, match="is not an antiface"):
                call()


def test_split_swap_needs_two_distinct_corners(double_digon):
    digraph, decomposition = double_digon
    emb = nth_state(digraph, decomposition, 0)
    a, b = emb.antifaces
    # each antiface passes each vertex once, so no two cut corners exist
    (only,) = a.corner_positions(0)
    with pytest.raises(EmbeddingError, match="two distinct corner positions"):
        split_swap(emb, 0, a, only, only, b)


def test_split_swap_rejects_merging_a_face_with_itself(four_loops):
    digraph, decomposition = four_loops
    emb = nth_state(digraph, decomposition, 0)
    a, _ = emb.antifaces
    cut1, cut2 = a.corner_positions(0)[:2]
    with pytest.raises(EmbeddingError, match="must be distinct"):
        split_swap(emb, 0, a, cut1, cut2, a)


def test_split_swap_checks_cut_corners_sit_at_the_vertex():
    digraph, decomposition, emb = _interlaced_fixture()
    faces = {f.walk: f for f in emb.antifaces}
    a, b = faces[(0, 4, 2, 6)], faces[(8,)]
    assert a.corners == (1, 0, 1, 0)
    with pytest.raises(EmbeddingError, match="must lie at vertex"):
        split_swap(emb, 0, a, 0, 1, b)


def test_split_swap_checks_partner_visits_the_vertex():
    digraph, decomposition, emb = _interlaced_fixture()
    faces = {f.walk: f for f in emb.antifaces}
    a, c = faces[(0, 4, 2, 6)], faces[(10,)]
    # the loop face at vertex 1 never passes vertex 0
    with pytest.raises(EmbeddingError, match="does not visit"):
        split_swap(emb, 0, a, 1, 3, c)


def _interlaced_fixture():
    digraph = Digraph(2, [(0, 1), (0, 1), (1, 0), (1, 0), (0, 0), (1, 1)])
    decomposition = CircuitDecomposition.from_arc_lists(
        digraph, [[0, 3, 4, 1, 5, 2]]
    )
    emb = nth_state(digraph, decomposition, 3)
    assert emb.rotations == ((0, 5, 2, 9, 8, 7), (6, 1, 4, 11, 10, 3))
    return digraph, decomposition, emb


def test_merge_interlaced_collapses_three_faces():
    digraph, decomposition, emb = _interlaced_fixture()
    faces = {f.walk: f for f in emb.antifaces}
    a, b, c = faces[(0, 4, 2, 6)], faces[(8,)], faces[(10,)]
    result = merge_interlaced(emb, a, b, c, 0, 1)
    assert [f.walk for f in result.embedding.antifaces] == [(0, 10, 6, 2, 4, 8)]
    assert result.merged.walk == (0, 10, 6, 2, 4, 8)
    assert verify_embedding(result.embedding, decomposition).ok


def test_merge_interlaced_requires_distinct_faces():
    digraph, decomposition, emb = _interlaced_fixture()
    faces = {f.walk: f for f in emb.antifaces}
    a, b = faces[(0, 4, 2, 6)], faces[(8,)]
    with pytest.raises(EmbeddingError, match="must be distinct"):
        merge_interlaced(emb, a, b, b, 0, 1)


def test_merge_interlaced_requires_distinct_vertices():
    digraph, decomposition, emb = _interlaced_fixture()
    faces = {f.walk: f for f in emb.antifaces}
    a, b, c = faces[(0, 4, 2, 6)], faces[(8,)], faces[(10,)]
    with pytest.raises(HypothesisError, match="distinct vertices"):
        merge_interlaced(emb, a, b, c, 0, 0)


def test_merge_interlaced_checks_side_face_visits():
    digraph, decomposition, emb = _interlaced_fixture()
    faces = {f.walk: f for f in emb.antifaces}
    a, b, c = faces[(0, 4, 2, 6)], faces[(8,)], faces[(10,)]
    # b lives at vertex 0 only, so asking for x = 1 must fail
    with pytest.raises(HypothesisError, match="must lie on the second face"):
        merge_interlaced(emb, a, b, c, 1, 0)


def test_merge_interlaced_needs_alternation(double_digon):
    digraph, decomposition = double_digon
    emb = nth_state(digraph, decomposition, 0)
    a, b = emb.antifaces

    class Extra:
        key = ("fake",)

    with pytest.raises(EmbeddingError):
        merge_interlaced(emb, a, b, Extra(), 0, 1)


def test_blow_up_splits_a_big_face(sts7):
    digraph, decomposition = sts7
    emb = nth_state(digraph, decomposition, 55)
    faces = {f.walk: f for f in emb.antifaces}
    a = faces[(4, 22, 12, 32, 20, 24, 40, 16, 6, 26, 14)]
    b = faces[(2, 36, 34, 10, 18, 38, 8)]
    shared = sorted(a.vertex_set() & b.vertex_set())
    for x in shared:
        result = blow_up(emb, a, b, x)
        if not result.changed:
            continue
        assert result.branch in ("y-majority-split", "y-minority-split")
        assert len(result.embedding.antifaces) == len(emb.antifaces)
        assert verify_embedding(result.embedding, decomposition).ok
        # both sides of the split stay reasonably large
        n, k = digraph.n, density_profile(digraph).k
        a_size = len(a.vertex_set())
        floor = min(a_size - 2, n - k - 1)
        for f in result.embedding.antifaces:
            if f.key in (result.merged.key if result.merged else (), ):
                assert 2 * len(f.vertex_set()) >= floor


class _FaceOn:
    """Stand-in face that only answers vertex questions."""

    def __init__(self, vertices):
        self.vertices = frozenset(vertices)

    def vertex_set(self):
        return self.vertices

    def visits(self, v):
        return v in self.vertices


@pytest.mark.parametrize("kept_on, message", [
    ({2}, "on 1 vertices, fewer than half of 4"),
    ({0, 1, 3}, "off vertex 2"),
    ({2, 3, 4}, "changed the vertices the two faces cover"),
], ids=["too-small", "off-x", "lost-vertex"])
def test_blow_up_rejects_a_corrupted_result(sts7, monkeypatch, kept_on, message):
    digraph, decomposition = sts7
    emb = nth_state(digraph, decomposition, 55)
    faces = {f.walk: f for f in emb.antifaces}
    a = faces[(4, 22, 12, 32, 20, 24, 40, 16, 6, 26, 14)]
    b = faces[(2, 36, 34, 10, 18, 38, 8)]
    original = surgery_module.split_swap

    def corrupting_split(*args):
        result = original(*args)
        result.kept = _FaceOn(kept_on)
        return result

    monkeypatch.setattr(surgery_module, "split_swap", corrupting_split)
    with pytest.raises(EmbeddingError, match=message):
        blow_up(emb, a, b, 2)


def test_blow_up_no_op_branch(sts7):
    digraph, decomposition = sts7
    emb = nth_state(digraph, decomposition, 55)
    faces = {f.walk: f for f in emb.antifaces}
    b = faces[(4, 22, 12, 32, 20, 24, 40, 16, 6, 26, 14)]
    a = faces[(2, 36, 34, 10, 18, 38, 8)]
    result = blow_up(emb, a, b, 2)
    assert result.branch == "no-op"
    assert not result.changed
    assert result.embedding.rotations == emb.rotations


def test_blow_up_requires_local_irreducibility(three_loops):
    digraph, _ = three_loops
    emb = OrientedDirectedEmbedding(digraph, [(2, 1, 0, 5, 4, 3)])
    a, b = emb.antifaces[:2]
    with pytest.raises(LocalIrreducibilityError) as err:
        blow_up(emb, a, b, 0)
    assert err.value.vertex == 0
    assert err.value.faces == (0, 2, 4)


def test_blow_up_requires_a_big_face(double_digon):
    digraph, decomposition = double_digon
    emb = nth_state(digraph, decomposition, 0)
    a, b = emb.antifaces
    with pytest.raises(HypothesisError):
        blow_up(emb, a, b, 0)


def test_division_z9_sharpness():
    points = [BLACK, WHITE, WHITE, BLACK, WHITE, WHITE, RED, RED, RED]
    result = division_search(points, 2, 3)
    assert (result.first, result.second) == (0, 3)
    assert result.colored_between == 2
    # no black pair comes closer than m - 1 to p
    blacks = [0, 3]
    for i in blacks:
        for j in blacks:
            if i != j:
                q = _brute_colored(points, i, j)
                assert abs(q - 3) >= 1


def test_division_z9_other_target():
    points = [BLACK, WHITE, WHITE, BLACK, WHITE, WHITE, RED, RED, RED]
    result = division_search(points, 2, 4)
    assert (result.first, result.second) == (3, 0)
    assert result.colored_between == 5


def _brute_colored(points, i, j):
    n = len(points)
    count = 0
    pos = i
    while True:
        if points[pos] != BLACK:
            count += 1
        if pos == j:
            return count
        pos = (pos + 1) % n


def test_division_integer_target_bound():
    points = [BLACK, WHITE, BLACK, WHITE, RED]
    result = division_search(points, 1, 1)
    assert abs(result.colored_between - 1) <= 0  # m - 1 = 0 forces q = p


def test_division_half_integer_target_bound():
    points = [BLACK, WHITE, BLACK, WHITE, RED]
    result = division_search(points, 1, Fraction(3, 2))
    assert abs(Fraction(result.colored_between) - Fraction(3, 2)) <= Fraction(1, 2)


def test_division_rejects_unknown_colors():
    with pytest.raises(HypothesisError, match="unknown color"):
        division_search(["black", "green"], 1, 1)


def test_division_rejects_non_integer_m():
    with pytest.raises(HypothesisError, match="positive integer"):
        division_search([BLACK, WHITE], Fraction(1, 2), 1)


def test_division_reports_each_violated_hypothesis():
    with pytest.raises(HypothesisError, match="no black points"):
        division_search([WHITE, WHITE, RED], 1, 1)
    with pytest.raises(HypothesisError, match="whites > m"):
        division_search([BLACK, WHITE, WHITE, BLACK, RED], 1, 1)
    with pytest.raises(HypothesisError, match="do not outnumber"):
        division_search([BLACK, WHITE, BLACK, RED, RED], 1, 1)
    with pytest.raises(HypothesisError, match="outside"):
        division_search([BLACK, WHITE, BLACK, WHITE, RED], 1, 99)


def test_division_scans_blacks_in_index_order():
    # several feasible pairs exist; the lexicographically first must win
    points = [BLACK, WHITE, BLACK, WHITE, BLACK, WHITE, RED, RED]
    result = division_search(points, 2, 2)
    options = []
    blacks = [0, 2, 4]
    for i in blacks:
        for j in blacks:
            if i != j and 0 < _brute_colored(points, i, j) < 4:
                options.append((i, j))
    assert options and (result.first, result.second) == options[0]


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_division_matches_brute_force(data):
    colors = data.draw(
        st.lists(st.sampled_from([BLACK, WHITE, RED]), min_size=3, max_size=14)
    )
    m = data.draw(st.integers(1, 3))
    blacks = [i for i, c in enumerate(colors) if c == BLACK]
    whites = sum(1 for c in colors if c == WHITE)
    reds = sum(1 for c in colors if c == RED)
    total = whites + reds
    valid = bool(blacks) and whites > reds and m <= total - m
    if valid:
        for idx, start in enumerate(blacks):
            end = blacks[(idx + 1) % len(blacks)]
            inside = 0
            pos = start
            while True:
                if colors[pos] == WHITE:
                    inside += 1
                if pos == end and (pos != start or len(blacks) == 1):
                    break
                pos = (pos + 1) % len(colors)
                if pos == start:
                    break
            if len(blacks) == 1:
                inside = whites
            if inside > m:
                valid = False
                break
    if not valid:
        with pytest.raises(HypothesisError):
            division_search(colors, m, m)
        return
    result = division_search(colors, m, m)
    q = _brute_colored(colors, result.first, result.second)
    assert q == result.colored_between
    assert m - m < q < m + m
