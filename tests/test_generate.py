"""Instance generators and decomposition helpers."""

import pytest
from hypothesis import given, settings, strategies as st

from eulergenus import (
    CircuitDecomposition,
    Digraph,
    GraphError,
    density_profile,
    euler_circuit,
    gen_kn_minus_pm,
    gen_random_dense_eulerian,
    gen_rotational_tournament,
    gen_sts,
    split_circuit_at,
    steiner_triple_system,
)

from conftest import circuit_set


def test_smallest_tournament_is_the_directed_triangle():
    digraph = gen_rotational_tournament(3)
    assert digraph.arcs == ((0, 1), (1, 2), (2, 0))


def test_tournament_structure():
    digraph = gen_rotational_tournament(9)
    assert digraph.n == 9 and digraph.m == 36
    assert digraph.is_eulerian()
    # exactly one arc between each unordered pair
    pairs = {frozenset(arc) for arc in digraph.arcs}
    assert len(pairs) == 36
    assert all(digraph.outdeg(v) == 4 for v in range(9))


def test_tournament_rejects_even_orders():
    with pytest.raises(GraphError) as err:
        gen_rotational_tournament(4)
    assert str(err.value) == "rotational tournament needs odd order >= 3, got 4"


def test_smallest_matching_removal():
    digraph = gen_kn_minus_pm(4)
    assert digraph.arcs == ((0, 1), (3, 0), (1, 2), (2, 3))


def test_matching_removal_structure():
    digraph = gen_kn_minus_pm(12)
    assert digraph.n == 12 and digraph.m == 60
    assert digraph.is_eulerian()
    missing = {frozenset((v, (v + 6) % 12)) for v in range(12)}
    present = {frozenset(arc) for arc in digraph.arcs}
    assert not missing & present
    assert len(present) == 60


def test_matching_removal_rejects_odd_orders():
    with pytest.raises(GraphError) as err:
        gen_kn_minus_pm(5)
    assert str(err.value) == "matching removal needs even order >= 4, got 5"


def test_triple_system_order_seven():
    assert steiner_triple_system(7) == [
        (0, 1, 2), (6, 3, 1), (6, 4, 2), (6, 5, 0),
        (0, 3, 4), (1, 4, 5), (2, 5, 3),
    ]


@pytest.mark.parametrize("n", [3, 7, 9, 13, 15, 19, 21])
def test_triple_systems_cover_every_pair_once(n):
    triples = steiner_triple_system(n)
    assert len(triples) == n * (n - 1) // 6
    seen = set()
    for t in triples:
        assert len(set(t)) == 3
        for i in range(3):
            for j in range(i + 1, 3):
                pair = frozenset((t[i], t[j]))
                assert pair not in seen
                seen.add(pair)
    assert len(seen) == n * (n - 1) // 2


def test_triple_system_rejects_bad_orders():
    with pytest.raises(GraphError) as err:
        steiner_triple_system(11)
    assert str(err.value) == "a triple system needs n = 1 or 3 (mod 6) and n >= 3, got 11"


def test_sts_digraphs_decompose_into_triangles(sts7):
    digraph, decomposition = sts7
    assert digraph.n == 7 and digraph.m == 21
    assert digraph.is_eulerian()
    assert all(len(c.arc_ids) == 3 for c in decomposition.circuits)
    assert len(decomposition.circuits) == 7
    profile = density_profile(digraph)
    assert profile.dense and profile.k == 0


def test_split_circuit_produces_the_requested_pieces():
    digraph = gen_kn_minus_pm(12)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    split = split_circuit_at(decomposition, 0, 0, pieces=2)
    lengths = sorted(len(c.arc_ids) for c in split.circuits)
    assert lengths == [3, 57]
    assert circuit_set(split) != circuit_set(decomposition)
    # both decompositions cover the same arcs
    assert sorted(a for c in split.circuits for a in c.arc_ids) == list(range(60))


def test_split_circuit_keeps_other_circuits(sts7):
    digraph, decomposition = sts7
    with_loop = split_circuit_at(decomposition, 0, decomposition.circuits[0].arc_ids[0], pieces=1)
    assert circuit_set(with_loop) == circuit_set(decomposition)


def test_split_circuit_needs_enough_occurrences(tournament7):
    digraph, decomposition = tournament7
    with pytest.raises(GraphError) as err:
        split_circuit_at(decomposition, 0, 0, pieces=4)
    assert str(err.value) == (
        "circuit 0 passes through vertex 0 only 3 times, need 4"
    )


def test_random_dense_generator_is_deterministic():
    a = gen_random_dense_eulerian(17, 2, seed=5)
    b = gen_random_dense_eulerian(17, 2, seed=5)
    assert a.arcs == b.arcs
    c = gen_random_dense_eulerian(17, 2, seed=6)
    assert a.arcs != c.arcs


def test_random_dense_generator_meets_its_advertised_profile():
    for n, k in [(7, 0), (12, 1), (15, 1), (17, 2), (20, 2)]:
        digraph = gen_random_dense_eulerian(n, k, seed=1)
        assert digraph.n == n
        assert digraph.is_eulerian()
        assert digraph.is_connected()
        profile = density_profile(digraph)
        assert profile.dense
        assert profile.k <= k


def test_random_dense_generator_rejects_negative_offsets():
    with pytest.raises(GraphError, match="nonnegative"):
        gen_random_dense_eulerian(9, -1)


def test_random_dense_generator_enforces_the_density_threshold():
    with pytest.raises(GraphError) as err:
        gen_random_dense_eulerian(11, 1)
    assert str(err.value) == "order 11 below the density threshold 12 for offset 1"


def test_random_dense_generator_rejects_unfixable_parity():
    # even order means odd full degree; removing nothing cannot fix it
    with pytest.raises(GraphError, match="cannot make every degree even"):
        gen_random_dense_eulerian(8, 0)


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(7, 19).filter(lambda n: n % 2 == 1),
    seed=st.integers(0, 50),
)
def test_random_dense_generator_property(n, seed):
    digraph = gen_random_dense_eulerian(n, 0, seed=seed)
    assert digraph.is_eulerian()
    assert {digraph.outdeg(v) for v in range(n)} == {(n - 1) // 2}
