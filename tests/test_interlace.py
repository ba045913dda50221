"""Type tables, interlacing searches, and the dense-subgraph extractor."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from eulergenus import (
    CircuitDecomposition,
    Digraph,
    FaceWalk,
    GraphError,
    HypothesisError,
    LocalIrreducibilityError,
    OrientedDirectedEmbedding,
    TypeTable,
    blow_up,
    check_big_moderate,
    check_diamond_corollary,
    check_three_neighbor_corollary,
    density_profile,
    embed_from_decomposition,
    euler_circuit,
    extract_dense_subgraph,
    find_vertex_on_three_antifaces,
    gen_kn_minus_pm,
    gen_rotational_tournament,
    iter_relative_embeddings,
    merge_interlaced,
    merge_three_at_vertex,
    reduce_to_upper_embedding,
    three_neighbor_search,
    underlying_simple_graph,
    usg_walk,
)
from eulergenus import interlace
from eulergenus.interlace import walk_edge_pairs

from conftest import (circulant, merge_to_irreducible, nth_state, reference_find_three,
                      shuffled_blocks)


def test_type_table_records_membership(double_digon):
    digraph, decomposition = double_digon
    emb = nth_state(digraph, decomposition, 0)
    table = TypeTable(emb)
    a, b = sorted(table.faces)
    assert table.faces_at(0) == (a, b)
    assert table.faces_at(1) == (a, b)
    assert table.link_vertices(a, b) == (0, 1)
    assert table.link_vertices(b, a) == (0, 1)
    assert table.loop_vertices(a) == ()
    assert table.two_face_vertices(a) == (0, 1)
    assert table.partner(0, a) == b
    with pytest.raises(Exception, match="does not lie on the given face"):
        table.partner(0, 99)


def test_type_table_rejects_a_three_face_vertex(three_loops):
    digraph, _ = three_loops
    emb = OrientedDirectedEmbedding(digraph, [(2, 1, 0, 5, 4, 3)])
    assert len(emb.antifaces) == 3
    with pytest.raises(LocalIrreducibilityError, match="vertex 0 lies on 3 antifaces"):
        TypeTable(emb)


def test_find_vertex_on_three_antifaces(three_loops):
    digraph, _ = three_loops
    emb = OrientedDirectedEmbedding(digraph, [(2, 1, 0, 5, 4, 3)])
    hit = find_vertex_on_three_antifaces(emb)
    assert hit is not None
    v, faces = hit
    assert v == 0
    assert [f.walk for f in faces] == [(0,), (2,), (4,)]


def test_find_vertex_none_when_locally_irreducible(double_digon):
    digraph, decomposition = double_digon
    emb = nth_state(digraph, decomposition, 0)
    assert find_vertex_on_three_antifaces(emb) is None


def _reference_on_faces(embedding):
    """Each vertex's antifaces in walk order, gathered face by face."""
    on_faces = {}
    for f in sorted(embedding.antifaces, key=lambda f: f.walk):
        for v in f.vertex_set():
            on_faces.setdefault(v, []).append(f)
    return on_faces


def _shuffled(rng, embedding, v):
    blocks = list(embedding.blocks_at(v))
    rng.shuffle(blocks)
    return [h for block in blocks for h in block]


def _membership_starts():
    """Seeded starts: tournament states, then random block orders on
    circulants and bouquets of loops, each climbed to more antifaces."""
    rng = random.Random(11)
    digraph = gen_rotational_tournament(7)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    starts = [nth_state(digraph, decomposition, i) for i in sorted(rng.sample(range(128), 6))]
    graphs = [circulant(7, (1, 2, 3)), circulant(9, (1, 2, 4)), circulant(11, (1, 3, 4))]
    graphs += [Digraph(1, [(0, 0)] * loops) for loops in (5, 6, 7)]
    for digraph in graphs:
        canonical = embed_from_decomposition(
            digraph, CircuitDecomposition(digraph, [euler_circuit(digraph)])
        )
        for _ in range(4):
            rotations = [_shuffled(rng, canonical, v) for v in range(digraph.n)]
            starts.append(OrientedDirectedEmbedding(digraph, rotations))
    for emb in starts:
        yield emb
        for _ in range(40):
            v = rng.randrange(emb.digraph.n)
            child = emb.with_rotation(v, _shuffled(rng, emb, v))
            if len(child.antifaces) > len(emb.antifaces):
                emb = child
        yield emb


def _assert_types_match_the_scans(table, membership):
    """The grouped touch graph against per-query scans of every vertex."""

    def link_scan(key_a, key_b):
        pair = tuple(sorted((key_a, key_b)))
        return tuple(v for v in sorted(membership) if membership[v] == pair)

    def loop_scan(key):
        return tuple(v for v in sorted(membership) if membership[v] == (key,))

    def two_face_scan(key):
        return tuple(
            v for v in sorted(membership)
            if len(membership[v]) == 2 and key in membership[v]
        )

    keys = sorted(table.faces)
    assert table.nodes == tuple(keys)
    assert table.loops == {key: loop_scan(key) for key in keys}
    links = {}
    for a, b in itertools.combinations(keys, 2):
        shared = link_scan(a, b)
        assert table.link_vertices(a, b) == shared == table.link_vertices(b, a)
        if shared:
            links[(a, b)] = shared
    assert table.links == links
    for key in keys:
        assert table.loop_vertices(key) == loop_scan(key)
        assert table.two_face_vertices(key) == two_face_scan(key)
        assert table.neighbors(key) == tuple(
            other for other in keys if other != key and link_scan(key, other)
        )


def test_one_membership_structure_matches_the_reference_scans():
    checked_irreducible = 0
    crowded = Counter()
    for emb in _membership_starts():
        while True:
            anti = emb.antifaces
            keys = [f.key for f in anti]
            assert len(set(keys)) == len(keys)
            assert list(anti) == sorted(anti, key=lambda f: f.walk)
            assert keys == sorted(keys)
            on_faces = _reference_on_faces(emb)
            reference = {v: tuple(f.key for f in fs) for v, fs in on_faces.items()}
            assert emb.antiface_index()[1] == reference
            hit = find_vertex_on_three_antifaces(emb)
            want = reference_find_three(emb)
            if want is None:
                assert hit is None
                table = TypeTable(emb)
                assert table.membership == reference
                _assert_types_match_the_scans(table, reference)
                checked_irreducible += 1
                break
            assert hit[0] == want[0]
            crowded[len(reference[want[0]])] += 1
            assert len(hit[1]) == 3 and all(got is ref for got, ref in zip(hit[1], want[1]))
            for attempt in (lambda: TypeTable(emb),
                            lambda: blow_up(emb, anti[0], anti[1], 0)):
                with pytest.raises(LocalIrreducibilityError) as err:
                    attempt()
                assert err.value.vertex == want[0]
                assert err.value.faces == reference[want[0]]
            emb = merge_three_at_vertex(emb, hit[0], *hit[1]).embedding
    assert checked_irreducible == 60
    assert crowded[3] and sum(crowded.values()) > crowded[3]


def test_usg_walk_collapses_consecutive_repeats():
    dg = Digraph(2, [(0, 1), (1, 1), (1, 0)])
    face = FaceWalk(dg, (0, 2, 4), "anti")
    assert face.corners == (1, 1, 0)
    assert usg_walk(face) == [1, 0]


def test_usg_walk_single_vertex(three_loops):
    digraph, _ = three_loops
    face = FaceWalk(digraph, (0, 2, 4), "anti")
    assert usg_walk(face) == [0]


def test_walk_edge_pairs_are_unordered_and_cyclic():
    assert walk_edge_pairs([0]) == frozenset()
    assert walk_edge_pairs([1, 0]) == frozenset({frozenset({0, 1})})
    pairs = walk_edge_pairs([0, 1, 2])
    assert pairs == {frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})}


def test_three_neighbor_search_rejects_empty_candidates(tournament7):
    digraph, decomposition = tournament7
    emb = nth_state(digraph, decomposition, 11)
    face = emb.antifaces[0]
    with pytest.raises(HypothesisError, match="candidate set is empty"):
        three_neighbor_search(emb, face, [])


def test_three_neighbor_search_rejects_off_face_candidates(tournament7):
    digraph, decomposition = tournament7
    emb = nth_state(digraph, decomposition, 11)
    table = TypeTable(emb)
    face = emb.antifaces[0]
    pool = table.two_face_vertices(face.key)
    outside = [v for v in range(digraph.n) if v not in pool]
    if outside:
        with pytest.raises(HypothesisError, match="exactly one other antiface"):
            three_neighbor_search(emb, face, [outside[0]])


def test_three_neighbor_search_needs_three_cross_neighbors(tournament7):
    digraph, decomposition = tournament7
    emb = nth_state(digraph, decomposition, 11)
    table = TypeTable(emb)
    face = emb.antifaces[0]
    pool = table.two_face_vertices(face.key)
    # a single candidate has zero cross-type candidate neighbors
    with pytest.raises(HypothesisError, match="has only 0 cross-type"):
        three_neighbor_search(emb, face, [pool[0]])


def _irreducible_states(digraph, decomposition):
    for emb in iter_relative_embeddings(digraph, decomposition, 10**7):
        if len(emb.antifaces) < 3:
            continue
        if find_vertex_on_three_antifaces(emb) is not None:
            continue
        yield emb, TypeTable(emb)


def test_touch_groups_match_the_scans_where_faces_have_several_neighbours(tournament7, sts7):
    # the climbed states above link few faces; in these every state has a
    # face touching two or more others
    states = 0
    for digraph, decomposition in (tournament7, sts7):
        for emb, table in _irreducible_states(digraph, decomposition):
            reference = {v: tuple(f.key for f in fs)
                         for v, fs in _reference_on_faces(emb).items()}
            assert any(len(table.neighbors(key)) >= 2 for key in table.nodes)
            _assert_types_match_the_scans(table, reference)
            states += 1
    assert states == 7


def test_margin_gate_matches_the_returned_value(tournament7, sts7):
    # the margin route answers None exactly when the pool is empty or the
    # pool minus the heaviest overlap drops below k + 3
    certificates = 0
    for digraph, decomposition in (tournament7, sts7):
        k = density_profile(digraph).k
        for emb, table in _irreducible_states(digraph, decomposition):
            for face in emb.antifaces:
                pool = table.two_face_vertices(face.key)
                overlap = max(
                    (
                        len(table.link_vertices(face.key, other))
                        for other in table.faces
                        if other != face.key
                    ),
                    default=0,
                )
                gated = not pool or len(pool) - overlap < k + 3
                got = check_three_neighbor_corollary(emb, face)
                if gated:
                    assert got is None
                else:
                    assert got is not None
                    certificates += 1
    assert certificates >= 1


def test_size_gate_matches_the_returned_value(tournament7, sts7):
    certificates = 0
    for digraph, decomposition in (tournament7, sts7):
        profile = density_profile(digraph)
        n, k = profile.n, profile.k
        for emb, table in _irreducible_states(digraph, decomposition):
            a, b, c = emb.antifaces[:3]
            small = (
                len(a.vertex_set()) < n - k
                or len(b.vertex_set()) < 2 * k + 3
                or len(c.vertex_set()) < 2 * k + 3
            )
            got = check_big_moderate(emb, a, b, c)
            if small:
                assert got is None
            else:
                assert got is not None
                certificates += 1
    assert certificates >= 1


def test_shared_vertex_gate_matches_the_returned_value(tournament7, sts7, monkeypatch):
    # the diamond search checks none of its premises: its one caller, the
    # diamond route's check, must hand it every one at each call
    calls = []
    search = interlace.diamond_search

    def checked(table, face, t, u, v, x):
        assert table.faces[face.key] is face
        assert len({t, u, v}) == 3
        second = {table.partner(w, face.key) for w in (t, u, v)}
        assert len(second) == 1 and None not in second
        assert table.partner(x, face.key) not in second | {None}
        adjacency = underlying_simple_graph(face.digraph)
        assert all(w in adjacency[x] for w in (t, u, v))
        edges = walk_edge_pairs(usg_walk(face))
        assert frozenset((t, u)) in edges and frozenset((u, v)) in edges
        calls.append((t, u, v, x))
        return search(table, face, t, u, v, x)

    monkeypatch.setattr(interlace, "diamond_search", checked)
    certificates = 0
    for digraph, decomposition in (tournament7, sts7):
        k = density_profile(digraph).k
        for emb, table in _irreducible_states(digraph, decomposition):
            for a, b in itertools.combinations(emb.antifaces, 2):
                shared = table.link_vertices(a.key, b.key)
                few = not (
                    (k == 0 and len(shared) >= 3) or len(shared) >= 3 * k + 4
                )
                got = check_diamond_corollary(emb, a, b)
                if few:
                    assert got is None
                elif got is not None:
                    certificates += 1
    assert certificates >= 1
    assert calls


def test_route_checks_decline_a_repeated_face_or_an_empty_pool(tournament7):
    """Handed one face twice, or the only antiface, whose pool of two-face
    vertices is empty, a route check returns None rather than raising."""
    emb, _ = next(_irreducible_states(*tournament7))
    a, b = emb.antifaces[:2]
    assert check_big_moderate(emb, a, a, b) is None
    assert check_diamond_corollary(emb, a, a) is None
    one, _ = reduce_to_upper_embedding(*tournament7)
    assert len(one.antifaces) == 1
    assert check_three_neighbor_corollary(one, one.antifaces[0]) is None


@pytest.mark.parametrize("seed, pair", [(2936, (5, 1)), (10497, (4, 3)), (10538, (2, 3))])
def test_the_diamond_route_with_k_at_least_one(seed, pair):
    """K_10 minus a perfect matching has k = 1.  From one euler circuit with
    seeded block orders, merging at crowded vertices leaves three antifaces,
    and the first two certify through the diamond route's k >= 1 branch,
    which reads its pool and its hub's neighbours from their walks."""
    digraph = gen_kn_minus_pm(10)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    emb = merge_to_irreducible(shuffled_blocks(digraph, decomposition, random.Random(seed)))
    assert density_profile(digraph).k == 1
    first, second, third = emb.antifaces
    cert = check_diamond_corollary(emb, first, second)
    assert (cert.x, cert.y) == pair
    assert check_diamond_corollary(emb, first, third) is None
    merged = merge_interlaced(emb, cert.face, cert.face_x, cert.face_y, cert.x, cert.y)
    assert len(merged.embedding.antifaces) == 1


LEMMA_DIGRAPHS = (
    gen_kn_minus_pm(8), gen_kn_minus_pm(10),
    gen_rotational_tournament(7), gen_rotational_tournament(9),
    circulant(7, (0, 1, 1, 3)), circulant(8, (0, 0, 1, 3, 3)),
)


def test_adjacent_vertices_are_consecutive_on_a_shared_antiface():
    """The fact the interlacing routes read adjacency by: an arc lies on one
    antiface, which visits both its ends, so two vertices are adjacent
    exactly when they are consecutive on the walk of an antiface they share.
    Checked against ``underlying_simple_graph`` on seeded locally
    irreducible embeddings; the circulants have loops and parallel arcs."""
    seen = Counter()
    for digraph in LEMMA_DIGRAPHS:
        decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
        adjacency = underlying_simple_graph(digraph)
        for seed in range(30):
            emb = merge_to_irreducible(
                shuffled_blocks(digraph, decomposition, random.Random(seed)))
            faces, membership = emb.antiface_index()
            steps = {key: walk_edge_pairs(usg_walk(face)) for key, face in faces.items()}
            for u, w in itertools.combinations(range(digraph.n), 2):
                shared = set(membership[u]) & set(membership[w])
                consecutive = any(frozenset((u, w)) in steps[key] for key in shared)
                assert consecutive == (w in adjacency[u]), (digraph.arcs, seed, u, w)
                seen[len(shared), consecutive] += 1
    # pairs on one shared face and on two, adjacent or not
    assert min(seen[1, True], seen[1, False], seen[2, True], seen[2, False]) >= 1


def test_certificates_really_interlace(tournament7, sts7):
    for digraph, decomposition in (tournament7, sts7):
        for emb, table in _irreducible_states(digraph, decomposition):
            for face in emb.antifaces:
                cert = check_three_neighbor_corollary(emb, face)
                if cert is None:
                    continue
                assert cert.face.key == face.key
                assert cert.face.alternation_positions(cert.x, cert.y) is not None
                assert table.partner(cert.x, face.key) == cert.face_x.key
                assert table.partner(cert.y, face.key) == cert.face_y.key
                assert cert.face_x.key != cert.face_y.key


def _random_bipartite(rng, left, right, extra):
    """Bipartite adjacency with every left-right pair kept with bias."""
    adjacency = {v: set() for v in range(left + right)}
    edges = set()
    for u in range(left):
        for w in range(left, left + right):
            if rng.random() < extra:
                edges.add((u, w))
    for u, w in edges:
        adjacency[u].add(w)
        adjacency[w].add(u)
    return adjacency, len(edges)


def test_extractor_validates_symmetry():
    with pytest.raises(GraphError, match="not symmetric"):
        extract_dense_subgraph({0: {1}, 1: set()}, 1)


def test_extractor_rejects_self_loops():
    with pytest.raises(GraphError, match="self-loop"):
        extract_dense_subgraph({0: {0, 1}, 1: {0}}, 1)


def test_extractor_rejects_odd_cycles():
    triangle = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
    with pytest.raises(GraphError, match="not bipartite"):
        extract_dense_subgraph(triangle, 1)


def test_extractor_rejects_complete_bipartite_at_the_bound():
    # K_{d, n-d} has exactly d(n - d) edges, one short of the hypothesis
    k23 = {0: {2, 3, 4}, 1: {2, 3, 4}, 2: {0, 1}, 3: {0, 1}, 4: {0, 1}}
    with pytest.raises(HypothesisError, match="do not exceed"):
        extract_dense_subgraph(k23, 2)


def test_extractor_skips_a_vertex_queued_twice():
    # both ends of the edge {5, 6} start on the queue, and peeling 6 queues 5 again
    graph = {0: {2, 3, 4}, 1: {2, 3, 4}, 2: {0, 1}, 3: {0, 1}, 4: {0, 1}, 5: {6}, 6: {5}}
    assert extract_dense_subgraph(graph, 1) == frozenset(range(5))


def test_extractor_keeps_a_high_min_degree_core():
    k33 = {i: {3, 4, 5} for i in range(3)}
    k33.update({j: {0, 1, 2} for j in (3, 4, 5)})
    core = extract_dense_subgraph(k33, 2)
    assert core == frozenset(range(6))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_extractor_core_has_min_degree_above_d(seed, d):
    rng = random.Random(seed)
    adjacency, edges = _random_bipartite(rng, 4 + d, 4 + d, 0.8)
    n = len(adjacency)
    if edges <= d * (n - d):
        with pytest.raises(HypothesisError):
            extract_dense_subgraph(adjacency, d)
        return
    core = extract_dense_subgraph(adjacency, d)
    assert core
    for v in core:
        assert len(adjacency[v] & core) >= d + 1
