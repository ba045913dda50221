"""Touch graph construction, classification, and DOT output."""

import pytest

from eulergenus import (
    CircuitDecomposition,
    Digraph,
    EmbeddingError,
    TypeTable,
    build_touch_graph,
    classify,
    euler_circuit,
    gen_rotational_tournament,
    reduce_to_upper_embedding,
    touch_graph_dot,
)

from conftest import nth_state


class _Stub:
    """An embedding reduced to hand-written face membership, for shapes real
    states rarely reach; ``digraph`` is there for ``build_touch_graph``."""

    def __init__(self, faces, membership, digraph=None):
        self.faces = {key: None for key in faces}
        self.membership = membership
        self.digraph = digraph

    def antiface_index(self):
        return self.faces, self.membership


def test_two_antifaces_sharing_both_vertices(double_digon):
    digraph, decomposition = double_digon
    emb = nth_state(digraph, decomposition, 0)
    touch = build_touch_graph(emb)
    assert len(touch.nodes) == 2
    a, b = touch.nodes
    assert touch.loops == {a: (), b: ()}
    assert touch.links == {(a, b): (0, 1)}
    assert touch.link_vertices(a, b) == (0, 1)
    assert touch.link_vertices(b, a) == (0, 1)
    assert touch.loop_vertices(a) == ()
    assert touch.neighbors(a) == (b,)
    assert touch.edge_count() == 2 == digraph.n


def test_single_antiface_is_all_loops(tournament7):
    digraph, decomposition = tournament7
    emb, _ = reduce_to_upper_embedding(digraph, decomposition)
    assert len(emb.antifaces) == 1
    touch = build_touch_graph(emb)
    (key,) = touch.nodes
    assert touch.loop_vertices(key) == tuple(range(7))
    assert touch.links == {}
    assert touch.edge_count() == 7


def test_edge_count_must_equal_vertex_count():
    stub = _Stub(faces=[("a",), ("b",)], membership={0: (("a",),)},
                 digraph=Digraph(2, [(0, 1), (1, 0)]))
    with pytest.raises(EmbeddingError, match="touch graph has 1 edges but the digraph has 2"):
        build_touch_graph(stub)


class _Vertices:
    def __init__(self, vertices):
        self.vertices = frozenset(vertices)

    def vertex_set(self):
        return self.vertices


def test_a_private_vertex_needs_a_face_on_all_its_neighbours(tournament7):
    # every vertex of the 7-tournament has 6 simple neighbours, so a face
    # holding a private vertex must visit all 7 vertices
    digraph, _ = tournament7
    stub = _Stub(faces=[("a",)], membership={v: (("a",),) for v in range(7)},
                 digraph=digraph)
    stub.faces[("a",)] = _Vertices(range(3))
    with pytest.raises(EmbeddingError, match="visits 3 vertices, fewer than 7"):
        build_touch_graph(stub)


def test_classification_of_a_shared_pair(double_digon):
    digraph, decomposition = double_digon
    emb = nth_state(digraph, decomposition, 0)
    shape = classify(build_touch_graph(emb))
    assert shape.loop_nodes == ()
    assert shape.is_star
    assert shape.heaviest_pair == tuple(sorted({f.key for f in emb.antifaces}))
    assert shape.heaviest_count == 2


def test_single_node_counts_as_a_star(tournament7):
    digraph, decomposition = tournament7
    emb, _ = reduce_to_upper_embedding(digraph, decomposition)
    shape = classify(build_touch_graph(emb))
    assert shape.is_star
    assert shape.star_center == emb.antifaces[0].key
    assert shape.loop_nodes == (emb.antifaces[0].key,)
    assert shape.heaviest_pair is None
    assert shape.heaviest_count == 0


def test_classify_star_with_three_leaves():
    a, b, c, d = ("a",), ("b",), ("c",), ("d",)
    stub = _Stub(
        faces=[a, b, c, d],
        membership={0: (a, b), 1: (a, c), 2: (a, d), 3: (a, b)},
    )
    shape = classify(TypeTable(stub))
    assert shape.is_star and shape.star_center == a
    assert shape.loop_nodes == ()
    assert shape.heaviest_pair == (a, b)
    assert shape.heaviest_count == 2


def test_classify_path_centers_on_the_middle():
    a, b, c = ("a",), ("b",), ("c",)
    stub = _Stub(
        faces=[a, b, c],
        membership={0: (a, b), 1: (b, c), 2: (a, b), 3: (b, c)},
    )
    shape = classify(TypeTable(stub))
    # b sits on every link, so a three-node path is a star centered there
    assert shape.is_star
    assert shape.star_center == b


def test_classify_triangle_is_not_a_star():
    a, b, c = ("a",), ("b",), ("c",)
    stub = _Stub(
        faces=[a, b, c],
        membership={0: (a, b), 1: (b, c), 2: (a, c)},
    )
    shape = classify(TypeTable(stub))
    assert not shape.is_star
    assert shape.star_center is None
    assert shape.loop_nodes == ()
    # all pairs tie at one vertex; the lexicographically smallest pair wins
    assert shape.heaviest_pair == (a, b)
    assert shape.heaviest_count == 1


def test_classify_two_looped_faces():
    a, b = ("a",), ("b",)
    stub = _Stub(
        faces=[a, b],
        membership={0: (a,), 1: (b,), 2: (a, b)},
    )
    shape = classify(TypeTable(stub))
    assert shape.loop_nodes == (a, b)
    assert not shape.is_star


def test_classify_loop_with_a_single_neighbor():
    a, b, c = ("a",), ("b",), ("c",)
    stub = _Stub(
        faces=[a, b, c],
        membership={0: (a,), 1: (a, b), 2: (b, c)},
    )
    touch = TypeTable(stub)
    shape = classify(touch)
    assert shape.loop_nodes == (a,)
    assert touch.neighbors(a) == (b,)
    assert not shape.is_star


def test_classify_loop_with_two_neighbors():
    a, b, c = ("a",), ("b",), ("c",)
    stub = _Stub(
        faces=[a, b, c],
        membership={0: (a,), 1: (a, b), 2: (a, c)},
    )
    touch = TypeTable(stub)
    shape = classify(touch)
    assert shape.loop_nodes == (a,)
    assert touch.neighbors(a) == (b, c)


def test_looped_faces_span_almost_everything(tournament7):
    # a face with a private vertex must cover that vertex and all neighbors
    digraph, decomposition = tournament7
    emb, _ = reduce_to_upper_embedding(digraph, decomposition)
    touch = build_touch_graph(emb)
    for key in touch.nodes:
        if touch.loop_vertices(key):
            covered = {digraph.arcs[h >> 1][1] for h in touch.faces[key].walk}
            assert len(covered) == digraph.n


def test_dot_output_for_a_link_pair(double_digon):
    digraph, decomposition = double_digon
    emb = nth_state(digraph, decomposition, 0)
    dot = touch_graph_dot(build_touch_graph(emb))
    assert dot == (
        "graph touch {\n"
        '  f0 [label="face 0 (2 arcs)"];\n'
        '  f1 [label="face 1 (2 arcs)"];\n'
        '  f0 -- f1 [label="2"];\n'
        "}\n"
    )


def test_dot_output_renders_loops(tournament7):
    digraph, decomposition = tournament7
    emb, _ = reduce_to_upper_embedding(digraph, decomposition)
    dot = touch_graph_dot(build_touch_graph(emb))
    assert 'f0 -- f0 [label="7"];' in dot
    assert dot.startswith("graph touch {")
