"""Digraph model, half-arc conventions, circuits, and density arithmetic."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from eulergenus import (
    CircuitDecomposition,
    Digraph,
    DirectedCircuit,
    GraphError,
    UndirectedGraph,
    density_profile,
    euler_circuit,
    eulerian_orientation,
    undirected_euler_circuit,
    underlying_simple_graph,
)

from conftest import circuit_set, circulant


def test_vertex_count_must_be_positive():
    with pytest.raises(GraphError, match="vertex count must be positive"):
        Digraph(0, [])


def test_arc_endpoints_are_range_checked():
    with pytest.raises(GraphError, match="endpoint outside"):
        Digraph(2, [(0, 3)])


def test_half_arc_conventions():
    dg = Digraph(3, [(0, 1), (1, 2), (2, 0), (1, 1)])
    # arc a owns outgoing half 2a at its tail and incoming half 2a+1 at its head
    assert dg.out_half_arcs(0) == (0,)
    assert dg.out_half_arcs(1) == (2, 6)
    assert dg.in_half_arcs(1) == (1, 7)
    assert dg.half_arc_vertex(4) == 2
    assert dg.half_arc_vertex(5) == 0


def test_incident_half_arc_lists_are_sorted():
    dg = Digraph(2, [(1, 0), (0, 1), (0, 0), (1, 1)])
    for v in range(2):
        incident = dg.incident_half_arcs(v)
        assert incident == tuple(sorted(incident))


def test_loops_contribute_both_halves_at_one_vertex():
    dg = Digraph(1, [(0, 0), (0, 0)])
    assert dg.out_half_arcs(0) == (0, 2)
    assert dg.in_half_arcs(0) == (1, 3)
    assert dg.is_eulerian()


def test_balance_and_connectivity_predicates():
    path = Digraph(2, [(0, 1), (0, 1)])
    assert not path.is_balanced()
    assert not path.is_eulerian()
    two_islands = Digraph(2, [(0, 0), (1, 1)])
    assert two_islands.is_balanced()
    assert not two_islands.is_connected()
    assert not two_islands.is_eulerian()
    digon = Digraph(2, [(0, 1), (1, 0)])
    assert digon.is_balanced() and digon.is_connected() and digon.is_eulerian()


def test_json_round_trip():
    dg = circulant(5, (1, 2))
    again = Digraph.from_json_dict(json.loads(json.dumps(dg.to_json_dict())))
    assert again.n == dg.n and again.arcs == dg.arcs


@given(st.integers(2, 5), st.data())
def test_json_round_trip_random(n, data):
    arcs = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=1,
            max_size=8,
        )
    )
    dg = Digraph(n, arcs)
    if n > len(arcs):
        # too few arcs to connect every vertex: refused before allocating
        with pytest.raises(GraphError, match=f"{n} vertices but only"):
            Digraph.from_json_dict(dg.to_json_dict())
    else:
        assert Digraph.from_json_dict(dg.to_json_dict()).arcs == dg.arcs


def test_circuit_must_be_nonempty():
    dg = Digraph(1, [(0, 0)])
    with pytest.raises(GraphError, match="at least one arc"):
        DirectedCircuit(dg, [])


def test_circuit_may_not_repeat_an_arc():
    dg = Digraph(1, [(0, 0)])
    with pytest.raises(GraphError, match="may not repeat"):
        DirectedCircuit(dg, [0, 0])


def test_circuit_must_close_head_to_tail():
    dg = Digraph(2, [(0, 1), (1, 0)])
    with pytest.raises(GraphError, match="not closed"):
        DirectedCircuit(dg, [0])
    circuit = DirectedCircuit(dg, [0, 1])
    assert circuit.arc_ids == (0, 1)
    assert len(circuit) == 2


def test_circuit_error_texts():
    dg = Digraph(3, [(0, 1), (1, 2), (2, 0), (1, 0)])
    cases = (
        ([0, 5, 7], "circuit references unknown arc 5"),
        ([0, -1], "circuit references unknown arc -1"),
        ([0, 2, 1], "circuit not closed: arc 0 ends at 1 but arc 2 starts at 2"),
        # the pair that wraps around from the last arc to the first
        ([0, 1], "circuit not closed: arc 1 ends at 2 but arc 0 starts at 0"),
    )
    for arc_ids, text in cases:
        with pytest.raises(GraphError) as info:
            DirectedCircuit(dg, arc_ids)
        assert str(info.value) == text


def test_circuit_canonical_rotation_starts_at_min_arc():
    dg = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    a = DirectedCircuit(dg, [1, 2, 0])
    b = DirectedCircuit(dg, [0, 1, 2])
    assert a.canonical() == b.canonical() == (0, 1, 2)


def test_decomposition_must_cover_every_arc():
    dg = Digraph(2, [(0, 1), (1, 0), (0, 0)])
    with pytest.raises(GraphError, match="not covered"):
        CircuitDecomposition(dg, [DirectedCircuit(dg, [0, 1])])


def test_decomposition_rejects_arc_reuse_across_circuits():
    dg = Digraph(1, [(0, 0), (0, 0)])
    c0 = DirectedCircuit(dg, [0])
    c1 = DirectedCircuit(dg, [1])
    with pytest.raises(GraphError):
        CircuitDecomposition(dg, [c0, c0, c1])


def test_digraphs_share_their_id_ints():
    """Ids past 256 are one object in every digraph, circuit and forward
    map, so a process holding many digraphs pays for each id once."""
    first = circulant(101, (1, 2, 3))
    second = circulant(103, (1, 2, 3))
    first_dec = CircuitDecomposition(first, [euler_circuit(first)])
    second_dec = CircuitDecomposition(second, [euler_circuit(second)])

    def half(digraph, h):
        t, head = digraph.arcs[h >> 1]
        halves = digraph.in_half_arcs(head) if h & 1 else digraph.out_half_arcs(t)
        return next(g for g in halves if g == h)

    for h in (300, 301, 605):
        assert half(first, h) is half(second, h)
    for dec in (first_dec, second_dec):
        digraph = dec.digraph
        # the odd half-arcs, as the digraph holds them
        for h in (h for v in range(digraph.n) for h in digraph.in_half_arcs(v)):
            g = dec.fw[h]
            assert h is half(digraph, h) and g is half(digraph, g)
    arc = next(a for a in first_dec.circuits[0].arc_ids if a == 280)
    assert arc is next(a for a in second_dec.circuits[0].arc_ids if a == 280)


def test_digraphs_on_few_vertices_share_their_arc_pairs():
    """Up to 256 vertices, equal (tail, head) pairs are one object across
    digraphs; the arcs read as before."""
    first = circulant(101, (1, 2, 3))
    second = circulant(101, (1, 2, 4))
    assert first.arcs[0] == (0, 1)
    # both list the jumps of 1 and 2 first
    assert all(a is b for a, b in zip(first.arcs[:202], second.arcs[:202]))
    big = [circulant(257, (1, 2, 3)) for _ in range(2)]
    assert big[0].arcs == big[1].arcs and big[0].arcs[0] is not big[1].arcs[0]


def test_decomposition_successor_maps_incoming_to_next_outgoing():
    dg = Digraph(2, [(0, 1), (1, 0), (0, 0)])
    dec = CircuitDecomposition.from_arc_lists(dg, [[0, 1], [2]])
    # arc 0 arrives at 1 (half 1) and the circuit continues with arc 1 (half 2)
    assert dec.fw[1] == 2
    assert dec.fw[3] == 0
    assert dec.fw[5] == 4


def test_decomposition_json_round_trip():
    dg = circulant(4, (1,))
    dec = CircuitDecomposition(dg, [euler_circuit(dg)])
    data = json.loads(json.dumps(dec.to_json_dict()))
    again = CircuitDecomposition.from_json_dict(dg, data)
    assert circuit_set(again) == circuit_set(dec)


def test_underlying_simple_graph_drops_loops_and_parallels():
    dg = Digraph(3, [(0, 1), (1, 0), (0, 0), (1, 2), (1, 2)])
    adjacency = underlying_simple_graph(dg)
    assert adjacency[0] == {1}
    assert adjacency[1] == {0, 2}
    assert adjacency[2] == {1}


def test_density_profile_tournament_is_dense():
    prof = density_profile(circulant(7, (1, 2, 3)))
    assert prof.n == 7 and prof.min_degree == 6 and prof.k == 0
    assert prof.dense


def test_density_profile_sparse_circulant():
    prof = density_profile(circulant(11, (1, 2, 3)))
    assert prof.min_degree == 6 and prof.k == 4
    assert not prof.dense


def test_density_forms_agree_on_circulant_grid():
    # 5 * min_degree >= 4n + 2 is the same cut as n >= 5k + 7
    for n in range(3, 26):
        for width in range(1, (n - 1) // 2 + 1):
            prof = density_profile(circulant(n, tuple(range(1, width + 1))))
            by_degree = 5 * prof.min_degree >= 4 * prof.n + 2
            by_k = prof.n >= 5 * prof.k + 7
            assert by_degree == by_k == prof.dense


def _reference_connected(n, arcs):
    component = list(range(n))

    def root(v):
        while component[v] != v:
            v = component[v]
        return v

    for t, h in arcs:
        component[root(t)] = root(h)
    return len({root(v) for v in range(n)}) == 1


def _reference_min_degree(n, arcs):
    neighbours = [set() for _ in range(n)]
    for t, h in arcs:
        if t != h:
            neighbours[t].add(h)
            neighbours[h].add(t)
    return min(len(ns) for ns in neighbours)


@given(st.data())
def test_remembered_facts_match_references(data):
    n = data.draw(st.integers(1, 8), label="n")
    isolated = data.draw(st.booleans(), label="isolated") and n > 1
    busy = n - isolated
    arcs = data.draw(
        st.lists(st.tuples(st.integers(0, busy - 1), st.integers(0, busy - 1)),
                 min_size=1, max_size=24),
        label="arcs",
    )
    loop = data.draw(st.integers(0, busy - 1), label="loop")
    # always a loop and a parallel arc; vertex n - 1 is isolated when asked
    arcs = arcs + [(loop, loop), arcs[0]]
    dg = Digraph(n, arcs)
    for _ in range(2):
        assert dg.is_connected() == _reference_connected(n, arcs)
    if isolated:
        assert not dg.is_connected()
    profile = density_profile(dg)
    min_degree = _reference_min_degree(n, arcs)
    assert (profile.n, profile.min_degree, profile.k, profile.dense) == (
        n, min_degree, n - 1 - min_degree, 5 * min_degree >= 4 * n + 2
    )
    assert density_profile(dg) is profile


def test_euler_circuit_covers_all_arcs_once():
    dg = circulant(5, (1, 2))
    circuit = euler_circuit(dg)
    assert sorted(circuit.arc_ids) == list(range(dg.m))
    assert circuit.arc_ids[0] == 0


def test_euler_circuit_requires_arcs():
    with pytest.raises(GraphError, match="no arcs"):
        euler_circuit(Digraph(1, []))


def test_euler_circuit_requires_balance():
    with pytest.raises(GraphError, match="not balanced"):
        euler_circuit(Digraph(2, [(0, 1), (0, 1)]))


def test_euler_circuit_requires_connectivity():
    with pytest.raises(GraphError):
        euler_circuit(Digraph(2, [(0, 0), (1, 1)]))


@given(st.integers(3, 8), st.integers(1, 3))
def test_euler_circuit_on_circulants(n, width):
    width = min(width, (n - 1) // 2)
    if width == 0:
        return
    dg = circulant(n, tuple(range(1, width + 1)))
    circuit = euler_circuit(dg)
    assert sorted(circuit.arc_ids) == list(range(dg.m))


def test_undirected_euler_circuit_needs_even_degrees():
    k4 = UndirectedGraph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    with pytest.raises(GraphError, match="odd degree"):
        undirected_euler_circuit(k4)


def test_eulerian_orientation_balances_the_walk():
    k5 = UndirectedGraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    walk = undirected_euler_circuit(k5)
    dg, dec = eulerian_orientation(k5, [walk])
    assert dg.n == 5 and dg.m == 10
    assert dg.is_eulerian()
    assert len(dec.circuits) == 1
    # each undirected edge appears exactly once, in one direction
    seen = {tuple(sorted(arc)) for arc in dg.arcs}
    assert len(seen) == 10


def _scan_orientation(graph, walks):
    """``eulerian_orientation`` as first written: every step rescans u's
    incident edges from the start for the lowest-id unused one to v."""
    used = [False] * graph.m
    direction = [None] * graph.m
    circuits_arcs = []
    for w_index, walk in enumerate(walks):
        if len(walk) < 2 or walk[0] != walk[-1]:
            raise GraphError(f"walk {w_index} is not closed")
        seq = []
        for u, v in zip(walk, walk[1:]):
            choice = None
            for e in graph.incident_edges(u):
                if not used[e] and graph.other_end(e, u) == v:
                    choice = e
                    break
            if choice is None:
                raise GraphError(
                    f"walk {w_index} needs an unused edge between {u} and {v}, none left"
                )
            used[choice] = True
            direction[choice] = (u, v)
            seq.append(choice)
        circuits_arcs.append(seq)
    if not all(used):
        missing = [e for e in range(graph.m) if not used[e]]
        raise GraphError(f"edges not covered by any walk: {missing[:8]}")
    digraph = Digraph(graph.n, direction)
    decomposition = CircuitDecomposition.from_arc_lists(digraph, circuits_arcs)
    return digraph, decomposition


def _outcome(orient, graph, walks):
    try:
        digraph, decomposition = orient(graph, walks)
    except GraphError as exc:
        return str(exc)
    return digraph.arcs, [c.arc_ids for c in decomposition.circuits]


@st.composite
def _walks_and_graph(draw):
    """Closed walks on up to 6 vertices, often along one vertex pair many
    times, and the even multigraph of their edges in a drawn order; then
    maybe one edge dropped or added, or one walk left open."""
    n = draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    walks = []
    for _ in range(draw(st.integers(1, 3))):
        walk = [draw(vertex)]
        for _ in range(draw(st.integers(1, 7))):
            walk.append(draw(vertex.filter(lambda v, last=walk[-1]: v != last)))
        if walk[-1] != walk[0]:
            walk.append(walk[0])
        walks.append(walk)
    edges = [(u, v) if draw(st.booleans()) else (v, u)
             for walk in walks for u, v in zip(walk, walk[1:])]
    edges = draw(st.permutations(edges))
    change = draw(st.sampled_from(["none", "drop", "add", "open"]))
    if change == "drop":
        del edges[draw(st.integers(0, len(edges) - 1))]
    elif change == "add":
        u = draw(vertex)
        edges.insert(draw(st.integers(0, len(edges))),
                     (u, draw(vertex.filter(lambda v: v != u))))
    elif change == "open":
        walks[draw(st.integers(0, len(walks) - 1))].pop()
    return UndirectedGraph(n, edges), walks


@settings(max_examples=150, deadline=None)
@given(_walks_and_graph())
def test_eulerian_orientation_equals_the_incident_edge_scan(drawn):
    graph, walks = drawn
    want = _outcome(_scan_orientation, graph, walks)
    assert _outcome(eulerian_orientation, graph, walks) == want


@pytest.mark.parametrize("edges, walk, message", [
    ([(0, 1), (1, 2), (2, 0)], [0, 1, 0], "needs an unused edge between 1 and 0"),
    ([(0, 1), (1, 0), (0, 1)], [0, 1, 0], r"edges not covered by any walk: \[2\]"),
    ([(0, 1), (1, 0)], [0, 1], "walk 0 is not closed"),
])
def test_eulerian_orientation_errors(edges, walk, message):
    graph = UndirectedGraph(3, edges)
    for orient in (eulerian_orientation, _scan_orientation):
        with pytest.raises(GraphError, match=message):
            orient(graph, [walk])
