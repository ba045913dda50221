"""Exhaustive enumeration of embeddings with a fixed proface family.

Fixing the profaces to a circuit decomposition C pins, at every vertex, the
pairing of each incoming half-arc with the outgoing half-arc its circuit
continues to.  What remains free is the cyclic arrangement of those pairs
around each vertex, so the state space has exactly prod (indeg(v) - 1)!
points.  The lowest pair at each vertex is anchored first.

:func:`iter_relative_embeddings` yields the states in lexicographic order,
a deterministic stream that callers can index.  The tally in
:func:`enumerate_relative_embeddings` builds no state: it places one vertex
at a time and counts, once per way the open antiface strands cross the cut
to the vertices left, how those vertices can close them.
"""

from itertools import permutations, product
from math import factorial, prod
from operator import itemgetter

from .embedding import (OrientedDirectedEmbedding, decomposition_blocks,
                        flat_rotation)
from .errors import EmbeddingError, GraphError, StateSpaceError


def state_count(digraph):
    """Number of embeddings sharing any fixed proface family."""
    return prod(factorial(digraph.indeg(v) - 1) for v in range(digraph.n) if digraph.indeg(v) > 0)


def _check_feasible(digraph, decomposition, limit):
    if decomposition.digraph != digraph:
        raise GraphError("decomposition belongs to a different digraph")
    states = state_count(digraph)
    if states > limit:
        raise StateSpaceError(
            f"{states} embeddings exceed the enumeration limit of {limit}"
        )
    return states


def _arrangements(pairs):
    if not pairs:
        return [()]
    head = pairs[0]
    return [(head,) + rest for rest in permutations(pairs[1:])]


def iter_relative_embeddings(digraph, decomposition, limit=10_000_000):
    """Yield every embedding whose profaces are the given circuits.

    The order is lexicographic in the arrangements, vertex 0 varying
    slowest, and is kept stable because callers pick states by index.
    """
    _check_feasible(digraph, decomposition, limit)
    options = map(_arrangements, decomposition_blocks(digraph, decomposition))
    for combo in product(*options):
        yield OrientedDirectedEmbedding(digraph, map(flat_rotation, combo))


class OracleSummary:
    """Distribution of antiface counts over the full state space."""

    __slots__ = ("distribution", "states", "min_antifaces", "max_antifaces")

    def __init__(self, distribution, states):
        self.distribution = dict(sorted(distribution.items()))
        self.states = states
        self.min_antifaces = min(distribution)
        self.max_antifaces = max(distribution)

    def to_json_dict(self):
        return {
            "distribution": {str(k): v for k, v in self.distribution.items()},
            "states": self.states,
            "min": self.min_antifaces,
            "max": self.max_antifaces,
        }

    def __repr__(self):
        return (
            f"OracleSummary(states={self.states}, min={self.min_antifaces}, "
            f"max={self.max_antifaces})"
        )


def _place(outs, ins, order, first, last, log):
    """Join each block's incoming arc to the next block's outgoing arc,
    the blocks after block 0 taken in ``order``; returns how many strands
    this closes into antifaces.

    A strand is an open antiface path: ``first[a]`` is the first arc of
    the strand ending at arc a, ``last[a]`` the last arc of the strand
    starting at a.  Each merge of two strands goes to ``log`` to be undone.
    """
    closed = 0
    a = ins[0]
    for block in order + (0,):
        g = outs[block]
        f = first[a]
        if f == g:
            closed += 1
        else:
            end = last[g]
            last[f] = end
            first[end] = f
            log.append((f, a, end, g))
        a = ins[block]
    return closed


def _closures(levels, depth, first, last):
    """How many ways the free vertices from ``depth`` on can close the open
    strands, keyed by the number of strands they close.

    ``levels[i]`` holds the i-th free vertex's arcs by block, and for the
    cut just before it a key getter and the memo of this function; the
    entry after the last free vertex has the empty cut and its one way.
    """
    outs, ins = levels[depth][:2]
    cut, memo = levels[depth + 1][2:]
    tally = {}
    log = []
    for order in permutations(range(1, len(outs))):
        closed = _place(outs, ins, order, first, last, log)
        key = cut(first)
        rest = memo.get(key)
        if rest is None:
            rest = memo[key] = _closures(levels, depth + 1, first, last)
        for count, ways in rest.items():
            count += closed
            tally[count] = tally.get(count, 0) + ways
        while log:
            f, a, end, g = log.pop()
            last[f] = a
            first[end] = g
    return tally


def _elimination_order(digraph, blocks):
    """The free vertices, of in-degree at least 3, in placing order: each
    next has the most arcs to the vertices placed, ties to the lowest."""
    arcs = digraph.arcs
    placed = [len(ins) < 3 for _, ins in blocks]
    weight = [0] * digraph.n
    for t, h in arcs:
        if placed[t] != placed[h]:
            weight[h if placed[t] else t] += 1
    left = {v for v in range(digraph.n) if not placed[v]}
    order = []
    while left:
        v = max(left, key=lambda u: (weight[u], -u))
        left.remove(v)
        order.append(v)
        outs, ins = blocks[v]
        for u in [arcs[a][1] for a in outs] + [arcs[a][0] for a in ins]:
            weight[u] += 1
    return order


def enumerate_relative_embeddings(digraph, decomposition, limit=10_000_000):
    """Tally antiface counts across all embeddings with profaces C.

    The antifaces are the cycles of a successor map on arcs made of one
    local bijection per vertex arrangement.  Placing vertices one at a
    time joins arcs into strands, and the ways the rest can close them
    depend only on how the open strands pair the arcs across the cut.
    Vertices with one arrangement (in-degree at most 2) are joined up
    front, the free ones depth first in a greedy order that keeps cuts
    narrow, and each cut pairing's result is memoised until return.  So
    the cost follows the distinct cut pairings, not the states:
    rotational tournament 9 (10,077,696 states) takes under a second, but
    a single vertex still tries all its arrangements.  Each free vertex
    at least doubles the state count, so the recursion is fewer than
    log2(limit) levels deep.
    """
    states = _check_feasible(digraph, decomposition, limit)
    blocks = [([g >> 1 for g, _ in pairs], [h >> 1 for _, h in pairs])
              for pairs in decomposition_blocks(digraph, decomposition)]
    first = list(range(digraph.m))
    last = list(range(digraph.m))
    closed = 0
    for outs, ins in blocks:
        if 0 < len(ins) < 3:
            closed += _place(outs, ins, tuple(range(1, len(ins))), first, last, [])
    order = _elimination_order(digraph, blocks)
    stage = [-1] * digraph.n  # the level that places v, -1 up front
    for i, v in enumerate(order):
        stage[v] = i
    cuts = [[] for _ in order]
    for a, (t, h) in enumerate(digraph.arcs):
        for i in range(stage[t] + 1, stage[h] + 1):
            cuts[i].append(a)
    levels = [(*blocks[v], itemgetter(*cut) if cut else lambda first: (), {})
              for v, cut in zip(order, cuts)]
    levels.append((None, None, lambda first: (), {(): {0: 1}}))
    rest = _closures(levels, 0, first, last) if order else {0: 1}
    distribution = {closed + count: ways for count, ways in rest.items()}
    if len({count % 2 for count in distribution}) != 1:
        raise EmbeddingError(
            f"antiface counts {sorted(distribution)} do not share one parity"
        )
    if sum(distribution.values()) != states:
        raise EmbeddingError(
            f"the tally visited {sum(distribution.values())} states, not {states}"
        )
    return OracleSummary(distribution, states)


class CertificationResult:
    """Comparison of one embedding against the exhaustive minimum."""

    __slots__ = ("achieved", "minimum", "distribution", "states")

    def __init__(self, achieved, summary):
        self.achieved = achieved
        self.minimum = summary.min_antifaces
        self.distribution = summary.distribution
        self.states = summary.states

    @property
    def passed(self):
        return self.achieved == self.minimum

    def __repr__(self):
        return (
            f"CertificationResult(achieved={self.achieved}, "
            f"minimum={self.minimum}, passed={self.passed})"
        )


def certify_maximal(embedding, digraph, decomposition, limit=10_000_000):
    """Certify that an embedding attains the minimum antiface count for C."""
    if not embedding.profaces_are(decomposition):
        raise EmbeddingError("embedding's profaces are not the given circuits")
    summary = enumerate_relative_embeddings(digraph, decomposition, limit)
    return CertificationResult(embedding.antiface_count(), summary)
