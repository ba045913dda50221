"""Instance generators: dense eulerian digraphs and circuit decompositions.

``gen_sts`` returns a ``(digraph, decomposition)`` pair, its directed
triangles.  The other generators return a digraph alone; pair it with a
decomposition such as ``CircuitDecomposition(digraph, [euler_circuit(digraph)])``
before handing it to the reducer or the verifier.  ``split_circuit_at``
derives a finer decomposition from a given one.
"""

import random

from .digraph import (CircuitDecomposition, Digraph, UndirectedGraph, _orient,
                      undirected_euler_circuit)
from .errors import GraphError


def gen_rotational_tournament(n):
    """Tournament on odd ``n`` with arcs i -> i + j (mod n) for j up to (n-1)/2.

    Vertex-transitive, balanced, and complete underneath, so it is eulerian
    with degeneracy offset zero.
    """
    if n < 3 or n % 2 == 0:
        raise GraphError(f"rotational tournament needs odd order >= 3, got {n}")
    arcs = [(i, (i + j) % n) for i in range(n) for j in range(1, (n - 1) // 2 + 1)]
    return Digraph(n, arcs)


def gen_kn_minus_pm(n):
    """Complete graph on even ``n`` minus the matching {i, i + n/2},
    oriented along its euler circuit so every vertex is balanced."""
    if n < 4 or n % 2 == 1:
        raise GraphError(f"matching removal needs even order >= 4, got {n}")
    return _complete_minus_classes(n, (), True)


def _complete_minus_classes(n, removed, drop_matching):
    """K_n minus the difference classes in ``removed`` and, when
    ``drop_matching``, the antipodal matching of even ``n``, oriented along
    its euler circuit."""
    half = n // 2 if n % 2 == 0 else None
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            diff = min(v - u, n - (v - u))
            if diff not in removed and not (drop_matching and diff == half):
                edges.append((u, v))
    graph = UndirectedGraph(n, edges)
    digraph, _ = _orient(graph, [undirected_euler_circuit(graph)])
    return digraph


def _halving(q):
    """x -> x/2 in Z_q for odd q, as a callable."""
    inv2 = (q + 1) // 2
    return lambda s: (s * inv2) % q


def steiner_triple_system(n):
    """Point triples covering every pair of 0..n-1 exactly once.

    Uses the quasigroup constructions over Z_q: the idempotent one when
    n = 6t + 3 and the half-idempotent one plus an extra point when
    n = 6t + 1.  Points (x, i) with i in {0, 1, 2} are numbered 3x + i and
    the extra point, when present, is n - 1.
    """
    if n < 3 or n % 6 not in (1, 3):
        raise GraphError(f"a triple system needs n = 1 or 3 (mod 6) and n >= 3, got {n}")
    triples = []
    point = lambda x, i: 3 * x + i
    if n % 6 == 3:
        t = (n - 3) // 6
        q = 2 * t + 1
        halve = _halving(q)
        for x in range(q):
            triples.append((point(x, 0), point(x, 1), point(x, 2)))
    else:
        t = (n - 1) // 6
        q = 2 * t

        def halve(s):
            s %= q
            return s // 2 if s % 2 == 0 else t + (s - 1) // 2

        extra = n - 1
        for x in range(t):
            triples.append((point(x, 0), point(x, 1), point(x, 2)))
        for x in range(t):
            for i in range(3):
                triples.append((extra, point(t + x, i), point(x, (i + 1) % 3)))
    for x in range(q):
        for y in range(x + 1, q):
            z = halve(x + y)
            for i in range(3):
                triples.append((point(x, i), point(y, i), point(z, (i + 1) % 3)))
    if len(triples) != n * (n - 1) // 6:
        raise GraphError(f"{len(triples)} triples do not cover the pairs of {n} points once")
    return triples


def gen_sts(n):
    """Orient each triple of a Steiner system as a directed 3-cycle.

    Every pair of points lies in one triple, so the underlying graph is the
    complete graph and each vertex is balanced with degree (n - 1) / 2 both
    ways.  The decomposition is the family of directed triangles.
    """
    triples = steiner_triple_system(n)
    arcs = []
    circuits = []
    for p, q, r in triples:
        base = len(arcs)
        arcs.extend([(p, q), (q, r), (r, p)])
        circuits.append([base, base + 1, base + 2])
    digraph = Digraph(n, arcs)
    decomposition = CircuitDecomposition.from_arc_lists(digraph, circuits)
    return digraph, decomposition


def gen_random_dense_eulerian(n, k_target=0, seed=0):
    """Dense eulerian digraph: K_n minus a random graph of degree <= k_target.

    Removes random difference classes (each 2-regular) from the complete
    graph, plus the antipodal matching when a degree of odd parity is
    needed, then orients the remainder along its euler circuit.  The
    removed degree is k_target or k_target - 1, whichever leaves every
    vertex with even degree.  Deterministic per seed.
    """
    if k_target < 0:
        raise GraphError(f"degeneracy offset must be nonnegative, got {k_target}")
    if n < 5 * k_target + 7:
        raise GraphError(
            f"order {n} below the density threshold {5 * k_target + 7} "
            f"for offset {k_target}"
        )
    removed_degree = k_target if (n - 1 - k_target) % 2 == 0 else k_target - 1
    if removed_degree < 0:
        raise GraphError(
            f"even order {n} leaves odd degree n - 1; removing a graph of "
            f"degree at most {k_target} cannot make every degree even"
        )
    rng = random.Random(seed)
    use_matching = removed_degree % 2 == 1
    spare_classes = (n - 1) // 2 if n % 2 == 1 else n // 2 - 1
    pairs_needed = removed_degree // 2
    removed = set(rng.sample(range(1, spare_classes + 1), pairs_needed))
    return _complete_minus_classes(n, removed, use_matching)


def split_circuit_at(decomposition, index, vertex, pieces=2):
    """Split one circuit of a decomposition at occurrences of ``vertex``.

    The circuit is cut at its first ``pieces`` tail-occurrences of the
    vertex, giving that many circuits; all other circuits carry over.
    """
    digraph = decomposition.digraph
    count = len(decomposition.circuits)
    if type(index) is not int or not 0 <= index < count:
        raise GraphError(f"circuit index {index!r} is outside 0..{count - 1}")
    if type(vertex) is not int or not 0 <= vertex < digraph.n:
        raise GraphError(f"vertex {vertex!r} is outside 0..{digraph.n - 1}")
    if type(pieces) is not int or pieces < 1:
        raise GraphError(f"piece count {pieces!r} is not a positive integer")
    circuit = decomposition.circuits[index]
    ids = circuit.arc_ids
    cuts = [j for j, a in enumerate(ids) if digraph.tail(a) == vertex]
    if len(cuts) < pieces:
        raise GraphError(
            f"circuit {index} passes through vertex {vertex} only {len(cuts)} times, "
            f"need {pieces}"
        )
    cuts = cuts[:pieces]
    parts = []
    for j in range(pieces):
        lo = cuts[j]
        hi = cuts[j + 1] if j + 1 < pieces else cuts[0] + len(ids)
        parts.append([ids[p % len(ids)] for p in range(lo, hi)])
    replaced = [
        list(c.arc_ids) for i, c in enumerate(decomposition.circuits) if i != index
    ]
    return CircuitDecomposition.from_arc_lists(digraph, replaced + parts)
