"""End-to-end checks tying generators, reducer, oracle, and searches together."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from eulergenus import (
    BEST_EFFORT,
    BLACK,
    RED,
    STRICT,
    WHITE,
    CircuitDecomposition,
    Digraph,
    HypothesisError,
    NoProgressError,
    division_search,
    enumerate_relative_embeddings,
    euler_circuit,
    euler_genus,
    extract_dense_subgraph,
    find_vertex_on_three_antifaces,
    gen_kn_minus_pm,
    gen_random_dense_eulerian,
    gen_rotational_tournament,
    gen_sts,
    iter_relative_embeddings,
    merge_three_at_vertex,
    reduce_embedding,
    reduce_to_upper_embedding,
    split_circuit_at,
    split_swap,
    verify_embedding,
)

from conftest import all_decompositions


@pytest.mark.parametrize("n,antifaces,genus", [
    (7, 1, 7), (9, 2, 13), (11, 1, 22), (13, 2, 32),
])
def test_rotational_tournaments_reach_the_parity_floor(n, antifaces, genus):
    digraph = gen_rotational_tournament(n)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    started = time.perf_counter()
    emb, trace = reduce_to_upper_embedding(digraph, decomposition, mode=STRICT)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    assert len(emb.antifaces) == antifaces
    assert euler_genus(emb) == genus
    assert verify_embedding(emb, decomposition).ok
    # the antiface count parity is forced by n + m + 1
    assert (digraph.n + digraph.m + 1 + antifaces) % 2 == 0


@pytest.mark.parametrize("n", [7, 9, 13])
def test_oriented_triple_systems_leave_one_euler_antiface(n):
    digraph, decomposition = gen_sts(n)
    started = time.perf_counter()
    emb, trace = reduce_to_upper_embedding(digraph, decomposition, mode=STRICT)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    assert len(emb.antifaces) == 1
    (antiface,) = emb.antifaces
    # the lone antiface traverses every arc exactly once
    assert sorted(antiface.arcs()) == list(range(digraph.m))
    assert verify_embedding(emb, decomposition).ok


def test_matching_removal_with_a_two_circuit_decomposition():
    digraph = gen_kn_minus_pm(12)
    euler = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    decomposition = split_circuit_at(euler, 0, 0, pieces=2)
    assert len(decomposition.circuits) == 2
    emb, trace = reduce_to_upper_embedding(digraph, decomposition, mode=STRICT)
    assert len(emb.antifaces) == 2
    assert len(emb.profaces) == 2
    # 12 - 60 + 4 = 2 - 2 * 23
    assert euler_genus(emb) == 23
    assert verify_embedding(emb, decomposition).ok


def _tiny_eulerian_digraphs():
    for m in range(1, 7):
        yield Digraph(1, [(0, 0)] * m)
    for f in range(1, 4):
        for l0 in range(0, 7 - 2 * f):
            for l1 in range(0, 7 - 2 * f - l0):
                arcs = [(0, 1)] * f + [(1, 0)] * f
                arcs += [(0, 0)] * l0 + [(1, 1)] * l1
                yield Digraph(2, arcs)


def test_reducer_matches_the_oracle_on_small_instances():
    started = time.perf_counter()
    digraphs = 0
    decompositions = 0
    for digraph in _tiny_eulerian_digraphs():
        digraphs += 1
        forward = [a for a in range(digraph.m) if digraph.arcs[a] == (0, 1)]
        two_cut = digraph.n == 2 and len(forward) == 1
        loops0 = {a for a in range(digraph.m) if digraph.arcs[a] == (0, 0)}
        loops1 = {a for a in range(digraph.m) if digraph.arcs[a] == (1, 1)}
        for decomposition in all_decompositions(digraph):
            decompositions += 1
            summary = enumerate_relative_embeddings(digraph, decomposition)
            emb, trace = reduce_to_upper_embedding(
                digraph, decomposition, mode=BEST_EFFORT
            )
            assert len(emb.antifaces) == summary.min_antifaces, (
                digraph.arcs, [c.arc_ids for c in decomposition.circuits]
            )
            assert verify_embedding(emb, decomposition).ok
            if two_cut:
                # two one-vertex halves joined by a single arc each way:
                # the minimum is set by the loop parities on the two sides
                a1 = sum(1 for c in decomposition.circuits
                         if set(c.arc_ids) <= loops0)
                a2 = sum(1 for c in decomposition.circuits
                         if set(c.arc_ids) <= loops1)
                formula = ((a1 + len(loops0)) % 2) + ((a2 + len(loops1)) % 2) + 1
                assert summary.min_antifaces == formula

    assert digraphs == 28
    assert decompositions == 1534

    sts_digraph, sts_decomposition = gen_sts(7)
    summary = enumerate_relative_embeddings(sts_digraph, sts_decomposition)
    emb, _ = reduce_to_upper_embedding(sts_digraph, sts_decomposition, mode=STRICT)
    assert summary.states == 128
    assert len(emb.antifaces) == summary.min_antifaces == 1

    t5 = gen_rotational_tournament(5)
    t5_decomposition = CircuitDecomposition(t5, [euler_circuit(t5)])
    summary = enumerate_relative_embeddings(t5, t5_decomposition)
    emb, _ = reduce_to_upper_embedding(t5, t5_decomposition, mode=BEST_EFFORT)
    assert summary.states == 1
    assert len(emb.antifaces) == summary.min_antifaces == 2

    assert time.perf_counter() - started < 60.0


def test_best_effort_reaches_the_oracle_minimum_from_every_small_start():
    """Every start of every decomposition of the one- and two-vertex
    digraphs with at most five arcs reduces to the oracle minimum, each
    step verified."""
    decompositions = starts = 0
    for digraph in _tiny_eulerian_digraphs():
        if digraph.m > 5:
            continue
        for decomposition in all_decompositions(digraph):
            decompositions += 1
            minimum = enumerate_relative_embeddings(digraph, decomposition).min_antifaces
            for start in iter_relative_embeddings(digraph, decomposition):
                starts += 1
                emb, trace = reduce_embedding(start, decomposition, BEST_EFFORT,
                                              validate_steps=True)
                assert len(emb.antifaces) == minimum, (
                    digraph.arcs, [c.arc_ids for c in decomposition.circuits],
                    start.halves,
                )
                assert trace.validate() == []
    assert (decompositions, starts) == (274, 3460)


def _three_vertex_eulerian_digraphs(max_arcs):
    """Every connected balanced multiset of at most ``max_arcs`` arcs on
    three vertices, loops and parallel arcs allowed, once up to relabelling."""
    kinds = list(itertools.product(range(3), repeat=2))
    seen = set()
    for m in range(1, max_arcs + 1):
        for arcs in itertools.combinations_with_replacement(kinds, m):
            least = min(tuple(sorted((p[t], p[h]) for t, h in arcs))
                        for p in itertools.permutations(range(3)))
            if least not in seen:
                seen.add(least)
                digraph = Digraph(3, least)
                if digraph.is_eulerian():
                    yield digraph


def test_best_effort_on_every_three_vertex_start_ends_at_a_count_it_may():
    """Every start of every decomposition of every three-vertex eulerian
    digraph with at most six arcs, each step verified: a run finishes or
    raises NoProgressError, and either way its last count is at least the
    tally's minimum and of the same parity."""
    digraphs = decompositions = 0
    outcomes = {}
    for digraph in _three_vertex_eulerian_digraphs(6):
        digraphs += 1
        for decomposition in all_decompositions(digraph):
            decompositions += 1
            minimum = enumerate_relative_embeddings(digraph, decomposition).min_antifaces
            for start in iter_relative_embeddings(digraph, decomposition):
                try:
                    emb, trace = reduce_embedding(start, decomposition, BEST_EFFORT,
                                                  validate_steps=True)
                except NoProgressError as exc:
                    outcome = "dead end"
                    steps = exc.trace.steps
                    count = steps[-1].count_after if steps else len(start.antifaces)
                else:
                    outcome = "finished"
                    count = len(emb.antifaces)
                    assert trace.validate() == []
                witness = (digraph.arcs, [c.arc_ids for c in decomposition.circuits],
                           start.halves, outcome)
                assert count >= minimum and (count - minimum) % 2 == 0, witness
                at = "minimum" if count == minimum else "above"
                outcomes[outcome, at] = outcomes.get((outcome, at), 0) + 1
    assert (digraphs, decompositions) == (22, 201)
    assert outcomes == {("finished", "minimum"): 500, ("dead end", "minimum"): 37}


def _split_swap_moves(emb):
    moves = []
    for a in emb.antifaces:
        for v in sorted(a.vertex_set()):
            positions = a.corner_positions(v)
            if len(positions) < 2:
                continue
            for b in emb.antifaces:
                if b.key != a.key and b.visits(v):
                    moves.append((v, a.key, positions[0], positions[1], b.key))
    return moves


def _storm(digraph, decomposition, rng, budget=10):
    applications = 0
    for emb in iter_relative_embeddings(digraph, decomposition):
        current = emb
        for step in range(budget):
            swaps = _split_swap_moves(current)
            hit = find_vertex_on_three_antifaces(current)
            # spend most of the budget on count-preserving swaps, then merge
            if swaps and (step < budget - 2 or hit is None):
                v, a_key, cut1, cut2, b_key = rng.choice(swaps)
                faces = {f.key: f for f in current.antifaces}
                result = split_swap(
                    current, v, faces[a_key], cut1, cut2, faces[b_key]
                )
            elif hit is not None:
                result = merge_three_at_vertex(current, hit[0], *hit[1])
            else:
                break
            current = result.embedding
            report = verify_embedding(current, decomposition)
            assert report.ok, report.summary()
            applications += 1
    return applications


def test_randomized_surgeries_never_break_an_embedding():
    rng = random.Random(20260817)
    t7 = gen_rotational_tournament(7)
    t7_decomposition = CircuitDecomposition(t7, [euler_circuit(t7)])
    sts_digraph, sts_decomposition = gen_sts(7)
    applications = _storm(t7, t7_decomposition, rng)
    applications += _storm(sts_digraph, sts_decomposition, rng)
    assert applications >= 1000


def test_random_dense_instances_reduce_cleanly():
    pairs = [(n, 0) for n in (7, 9, 11, 13, 15, 17, 19)]
    pairs += [(n, 1) for n in range(12, 21)]
    pairs += [(n, 2) for n in range(17, 21)]
    assert len(pairs) == 20
    instances = 0
    for n, k in pairs:
        for seed in range(5):
            digraph = gen_random_dense_eulerian(n, k, seed=seed)
            decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
            emb, trace = reduce_to_upper_embedding(
                digraph, decomposition, mode=STRICT, validate_steps=True
            )
            assert len(emb.antifaces) <= 2
            assert trace.validate() == []
            assert verify_embedding(emb, decomposition).ok
            instances += 1
    assert instances == 100


def _random_division_instance(rng):
    while True:
        m = rng.randint(1, 3)
        black_count = rng.randint(1, 5)
        gap_whites = [rng.randint(0, m) for _ in range(black_count)]
        whites = sum(gap_whites)
        if whites == 0:
            continue
        reds = rng.randint(0, whites - 1)
        total = whites + reds
        if total < 2 * m:
            continue
        gaps = [[WHITE] * w for w in gap_whites]
        for _ in range(reds):
            gaps[rng.randrange(black_count)].append(RED)
        points = []
        for gap in gaps:
            rng.shuffle(gap)
            points.append(BLACK)
            points.extend(gap)
        doubled = rng.randint(2 * m, 2 * (total - m))
        return points, m, Fraction(doubled, 2)


def _colored_between(points, i, j):
    count = 0
    pos = i
    while True:
        if points[pos] != BLACK:
            count += 1
        if pos == j:
            return count
        pos = (pos + 1) % len(points)


def test_division_search_on_random_instances():
    rng = random.Random(404)
    for _ in range(500):
        points, m, p = _random_division_instance(rng)
        result = division_search(points, m, p)
        assert points[result.first] == BLACK
        assert points[result.second] == BLACK
        q = _colored_between(points, result.first, result.second)
        assert q == result.colored_between
        assert p - m < q < p + m
        # the scan reports the first feasible pair in black index order
        blacks = [i for i, c in enumerate(points) if c == BLACK]
        for i in blacks:
            for j in blacks:
                if i == j:
                    continue
                if p - m < _colored_between(points, i, j) < p + m:
                    assert (result.first, result.second) == (i, j)
                    break
            else:
                continue
            break


def test_division_search_sharpness_cycle():
    points = [BLACK, WHITE, WHITE, BLACK, WHITE, WHITE, RED, RED, RED]
    result = division_search(points, 2, 3)
    assert result.colored_between == 2
    # no pair lands strictly closer than m - 1 to the target
    for i in (0, 3):
        for j in (0, 3):
            if i != j:
                assert abs(_colored_between(points, i, j) - 3) >= 1


def _random_bipartite(rng):
    left = rng.randint(2, 6)
    right = rng.randint(2, 6)
    adjacency = {v: set() for v in range(left + right)}
    for u in range(left):
        for w in range(left, left + right):
            if rng.random() < 0.7:
                adjacency[u].add(w)
                adjacency[w].add(u)
    return adjacency


def test_dense_bipartite_cores_exist_above_the_edge_bound():
    rng = random.Random(77)
    checked = 0
    while checked < 60:
        adjacency = _random_bipartite(rng)
        n = len(adjacency)
        edges = sum(len(s) for s in adjacency.values()) // 2
        for d in range(1, n // 2 + 1):
            if edges <= d * (n - d):
                continue
            core = extract_dense_subgraph(adjacency, d)
            assert core
            for v in core:
                assert len(adjacency[v] & core) >= d + 1
            checked += 1
    assert checked >= 60


@pytest.mark.parametrize("d,n", [(2, 7), (3, 9), (1, 5)])
def test_complete_bipartite_graphs_sit_exactly_on_the_bound(d, n):
    adjacency = {v: set() for v in range(n)}
    for u in range(d):
        for w in range(d, n):
            adjacency[u].add(w)
            adjacency[w].add(u)
    with pytest.raises(HypothesisError, match="do not exceed"):
        extract_dense_subgraph(adjacency, d)
