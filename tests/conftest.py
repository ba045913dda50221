"""Shared instance builders for the test suite."""

import itertools
from collections import Counter

import pytest

from eulergenus import (
    CircuitDecomposition,
    Digraph,
    DirectedCircuit,
    OrientedDirectedEmbedding,
    euler_circuit,
    find_vertex_on_three_antifaces,
    gen_rotational_tournament,
    gen_sts,
    iter_relative_embeddings,
    merge_three_at_vertex,
)
from eulergenus.embedding import decomposition_blocks, flat_rotation
from eulergenus.surgery import _rewire_three

RAISE_TARGET = 31
RAISE_ATTEMPTS = 400


def circulant(n, steps):
    """Directed circulant: arcs i -> i + s (mod n) for each step s."""
    return Digraph(n, [(i, (i + s) % n) for s in steps for i in range(n)])


def all_decompositions(digraph):
    """Every circuit decomposition, via the in -> out bijections per vertex.

    Bijection choices whose functional graph does not close into arc-disjoint
    circuits are skipped; the remainder is exactly the decomposition set.
    """
    ins = [digraph.in_half_arcs(v) for v in range(digraph.n)]
    outs = [digraph.out_half_arcs(v) for v in range(digraph.n)]
    pools = [itertools.permutations(outs[v]) for v in range(digraph.n)]
    for perms in itertools.product(*pools):
        fw = {}
        for v in range(digraph.n):
            for h_in, h_out in zip(ins[v], perms[v]):
                fw[h_in] = h_out
        remaining = set(range(digraph.m))
        circuits = []
        closed = True
        while remaining and closed:
            start = min(remaining)
            walk = []
            a = start
            while True:
                if a not in remaining:
                    closed = False
                    break
                walk.append(a)
                remaining.discard(a)
                a = fw[2 * a + 1] >> 1
                if a == start:
                    break
            if closed:
                circuits.append(walk)
        if closed:
            yield CircuitDecomposition.from_arc_lists(digraph, circuits)


def three_vertex_eulerian_digraphs(max_arcs):
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


def circuit_set(decomposition):
    """The decomposition's circuits as a set of arc tuples, each turned to
    start at its least arc, for comparisons that ignore circuit order and
    starting arc."""
    return frozenset(c.canonical() for c in decomposition.circuits)


def nth_state(digraph, decomposition, index):
    """The index-th embedding in enumeration order over the fixed profaces."""
    for i, emb in enumerate(iter_relative_embeddings(digraph, decomposition, 10**7)):
        if i == index:
            return emb
    raise IndexError(index)


def shuffled_blocks(digraph, decomposition, rng):
    """An embedding of the circuits with every vertex's blocks shuffled."""
    rotations = []
    for blocks in decomposition_blocks(digraph, decomposition):
        rng.shuffle(blocks)
        rotations.append(flat_rotation(blocks))
    return OrientedDirectedEmbedding(digraph, rotations)


def raise_antifaces(embedding, rng):
    """Apply seeded 3-cycles at three corners of one antiface, keeping
    those that split it into three."""
    for _ in range(RAISE_ATTEMPTS):
        if len(embedding.antifaces) >= RAISE_TARGET:
            break
        face = rng.choice(embedding.antifaces)
        v = face.corners[rng.randrange(len(face))]
        positions = face.corner_positions(v)
        if len(positions) < 3:
            continue
        arrivals = [face.walk[j] | 1 for j in rng.sample(positions, 3)]
        candidate = _rewire_three(embedding, v, *arrivals)
        if len(candidate.antifaces) > len(embedding.antifaces):
            embedding = candidate
    return embedding


def merge_to_irreducible(embedding):
    """Merge at the lowest vertex on three antifaces until none is left."""
    while True:
        hit = find_vertex_on_three_antifaces(embedding)
        if hit is None:
            return embedding
        embedding = merge_three_at_vertex(embedding, hit[0], *hit[1]).embedding


def reference_find_three(embedding):
    """The lowest vertex on three antifaces and its first three, by counting."""
    antifaces = embedding.antifaces
    counts = Counter(itertools.chain.from_iterable(f.vertex_set() for f in antifaces))
    v = min((u for u, count in counts.items() if count >= 3), default=None)
    if v is None:
        return None
    return v, tuple(f for f in antifaces if f.visits(v))[:3]


@pytest.fixture
def double_digon():
    """Two vertices joined by two arcs each way; circuits = the two digons."""
    digraph = Digraph(2, [(0, 1), (1, 0), (0, 1), (1, 0)])
    decomposition = CircuitDecomposition.from_arc_lists(digraph, [[0, 1], [2, 3]])
    return digraph, decomposition


@pytest.fixture
def three_loops():
    """One vertex with three loops, all in a single circuit."""
    digraph = Digraph(1, [(0, 0)] * 3)
    decomposition = CircuitDecomposition(
        digraph, [DirectedCircuit(digraph, [0, 1, 2])]
    )
    return digraph, decomposition


@pytest.fixture
def four_loops():
    """One vertex with four loops, all in a single circuit."""
    digraph = Digraph(1, [(0, 0)] * 4)
    decomposition = CircuitDecomposition(
        digraph, [DirectedCircuit(digraph, [0, 1, 2, 3])]
    )
    return digraph, decomposition


@pytest.fixture
def tournament7():
    digraph = gen_rotational_tournament(7)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    return digraph, decomposition


@pytest.fixture
def sts7():
    return gen_sts(7)
