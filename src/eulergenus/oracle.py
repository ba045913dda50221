"""Exhaustive enumeration of embeddings with a fixed proface family.

Fixing the profaces to a circuit decomposition C pins, at every vertex, the
pairing of each incoming half-arc with the outgoing half-arc its circuit
continues to.  What remains free is the cyclic arrangement of those pairs
around each vertex, so the state space has exactly prod (indeg(v) - 1)!
points.  The lowest pair at each vertex is anchored first.

:func:`iter_relative_embeddings` yields the states in lexicographic order,
a deterministic stream that callers can index, made one state at a time.
The tally in :func:`enumerate_relative_embeddings` builds no state: it
joins one vertex at a time in place and counts, once per way the open
antiface strands cross the cut to the vertices left, how those vertices
can close them.  :func:`certify_maximal` needs only the fewest antifaces,
the maximum genus relative to the circuits, so it runs the same levels
(:func:`_on_levels`) through a (min, +) tally that keeps, per cut pairing,
the fewest closures below and the number of states below.
"""

from itertools import islice, permutations
from math import factorial, prod
from operator import itemgetter

from .embedding import decomposition_blocks, embed_from_decomposition
from .errors import EmbeddingError, GraphError, StateSpaceError


def state_count(digraph):
    """Number of embeddings sharing any fixed proface family."""
    return prod(factorial(d - 1) for d in map(digraph.indeg, range(digraph.n)) if d)


def _check_feasible(digraph, decomposition, limit):
    if decomposition.digraph != digraph:
        raise GraphError("decomposition belongs to a different digraph")
    states = state_count(digraph)
    if states > limit:
        raise StateSpaceError(
            f"{states} embeddings exceed the enumeration limit of {limit}")
    return states


def iter_relative_embeddings(digraph, decomposition, limit=10_000_000):
    """Stream every embedding whose profaces are the given circuits,
    checking the inputs and the limit at the call.

    The order is lexicographic in the arrangements, vertex 0 varying
    slowest, and is kept stable because callers pick states by index.
    """
    _check_feasible(digraph, decomposition, limit)
    return _stream(embed_from_decomposition(digraph, decomposition))


def _stream(embedding):
    """An odometer whose wheels are the vertices of in-degree at least 3,
    the last turning fastest through its lazily made arrangements; a wheel
    that wraps round carries to the one before it.  ``embedding`` is the
    first state, and each turn replaces the halves of its wheel's vertex."""
    first = embedding.halves  # each vertex's first arrangement
    wheels = [v for v in reversed(range(len(first))) if len(first[v][1]) > 2]
    blocks = {v: tuple(zip(*first[v])) for v in wheels}
    later = {v: islice(permutations(blocks[v][1:]), 1, None) for v in wheels}
    while True:
        yield embedding
        for v in wheels:
            rest = next(later[v], None)
            if rest is not None:
                embedding = embedding._with_halves(v, *zip(blocks[v][0], *rest))
                break
            later[v] = islice(permutations(blocks[v][1:]), 1, None)
            embedding = embedding._with_halves(v, *first[v])
        else:
            return


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


def _closures(level, first, last, orders=None):
    """How many ways the vertices from ``level`` on can close the open
    strands, keyed by the number of strands they close.

    A strand is an open antiface path: ``first[a]`` is the first arc of the
    strand ending at arc a, ``last[a]`` the last arc of the strand starting
    at a.  A level is its vertex's block 0 (outgoing, incoming arc), its
    other blocks as such pairs, the key getter and memo of the cut after
    it, and the next level.  Each arrangement of the pairs (or of
    ``orders``) joins the running incoming arc to each outgoing arc, then
    closes back to block 0; a joined arc's entries stay as they are, so
    walking the joins back from the last undoes them.
    """
    g0, a0, pairs, cut, memo, below = level
    tally = {}
    for order in orders or permutations(pairs):
        closed = 0
        a = a0
        for g, h in order:
            f = first[a]
            if f == g:
                closed += 1
            else:
                end = last[g]
                last[f] = end
                first[end] = f
            a = h
        f = first[a]
        if f == g0:
            closed += 1
        else:
            end = last[g0]
            last[f] = end
            first[end] = f
        key = cut(first)
        rest = memo.get(key)
        if rest is None:
            rest = memo[key] = _closures(below, first, last)
        for count, ways in rest.items():
            count += closed
            tally[count] = tally.get(count, 0) + ways
        g = g0  # walk the joins back, from the last
        for before, h in reversed(order):
            f = first[h]
            if f != g:
                end = last[g]
                last[f] = h
                first[end] = g
            g = before
        f = first[a0]
        if f != g:
            end = last[g]
            last[f] = a0
            first[end] = g
    return tally


def _fewest(level, first, last, orders=None):
    """The fewest strands the vertices from ``level`` on can close, and the
    number of their states: :func:`_closures` as a (min, +) tally, whose
    memos hold (fewest closures, states) pairs of the same cuts."""
    g0, a0, pairs, cut, memo, below = level
    least, states = len(first), 0  # no arrangement closes more strands than arcs
    for order in orders or permutations(pairs):
        closed = 0
        a = a0
        for g, h in order:
            f = first[a]
            if f == g:
                closed += 1
            else:
                end = last[g]
                last[f] = end
                first[end] = f
            a = h
        f = first[a]
        if f == g0:
            closed += 1
        else:
            end = last[g0]
            last[f] = end
            first[end] = f
        key = cut(first)
        rest = memo.get(key)
        if rest is None:
            rest = memo[key] = _fewest(below, first, last)
        fewest, ways = rest
        closed += fewest
        if closed < least:
            least = closed
        states += ways
        g = g0  # walk the joins back, from the last
        for before, h in reversed(order):
            f = first[h]
            if f != g:
                end = last[g]
                last[f] = h
                first[end] = g
            g = before
        f = first[a0]
        if f != g:
            end = last[g]
            last[f] = a0
            first[end] = g
    return least, states


def _elimination_order(digraph, blocks):
    """The free vertices, of in-degree at least 3, in placing order: each
    next has the most arcs to the vertices placed, ties to the lowest."""
    arcs = digraph.arcs
    placed = [len(pairs) < 3 for pairs in blocks]
    weight = [0] * digraph.n
    for t, h in arcs:
        if placed[t] != placed[h]:
            weight[h if placed[t] else t] += 1
    left = [v for v in range(digraph.n) if not placed[v]]
    order = []
    while left:
        v = max(left, key=weight.__getitem__)  # the first maximum: lowest v
        left.remove(v)
        order.append(v)
        for g, h in blocks[v]:
            weight[arcs[g][1]] += 1
            weight[arcs[h][0]] += 1
    return order


def _on_levels(tally, digraph, decomposition, base):
    """Build the chain of levels and run ``tally`` (:func:`_closures` or
    :func:`_fewest`) down it from every arc as its own strand.  ``base`` is
    the value of the empty cut after the last level, and the answer when
    the digraph has no arcs and so no level.

    Vertices of in-degree at most 2 have one arrangement each, chained into
    a first level whose one order is their joins; the free ones follow in a
    greedy order that keeps cuts narrow.  A cut's key getter reads, for
    each arc crossing it, the first arc of the strand ending there.
    """
    blocks = [[(g >> 1, h >> 1) for g, h in pairs]
              for pairs in decomposition_blocks(digraph, decomposition)]
    order = _elimination_order(digraph, blocks)
    stage = [-1] * digraph.n  # the level that places v, -1 up front
    for i, v in enumerate(order):
        stage[v] = i
    cuts = [[] for _ in range(len(order) + 1)]  # cut i lies before level i
    for a, (t, h) in enumerate(digraph.arcs):
        i = stage[t] + 1
        while i <= stage[h]:
            cuts[i].append(a)
            i += 1
    keys = [itemgetter(*cut) if cut else lambda first: () for cut in cuts]
    level, memo = None, {(): base}  # the empty cut after the last level
    for v, key in zip(reversed(order), reversed(keys)):
        level, memo = (*blocks[v][0], blocks[v][1:], key, memo, level), {}
    # the rigid vertices' joins (incoming, outgoing), chained as one order
    joins = [(pairs[i - 1][1], pairs[i][0]) for pairs in blocks
             if 0 < len(pairs) < 3 for i in range(len(pairs))]
    orders = None
    if joins:
        ins, outs = zip(*joins)
        orders = [tuple(zip(outs, ins[1:]))]
        level = (outs[-1], ins[0], None, keys[0], memo, level)
    if level is None:
        return base
    return tally(level, list(range(digraph.m)), list(range(digraph.m)), orders)


def enumerate_relative_embeddings(digraph, decomposition, limit=10_000_000):
    """Tally antiface counts across all embeddings with profaces C.

    The antifaces are the cycles of a successor map on arcs made of one
    local bijection per vertex arrangement.  Placing vertices one at a
    time joins arcs into strands, and the ways the rest can close them
    depend only on how the open strands pair the arcs across the cut.
    The rigid vertices come first as one level, the free ones follow depth
    first (see :func:`_on_levels`), and each cut pairing's result is
    memoised until return.  So the cost follows the distinct cut pairings,
    not the states (tournament 9, 10,077,696 states, takes under a
    second), but a free vertex tries each of its lazily made arrangements.
    Each free vertex at least doubles the state count: fewer than
    log2(limit) levels recurse.
    """
    states = _check_feasible(digraph, decomposition, limit)
    distribution = _on_levels(_closures, digraph, decomposition, {0: 1})
    if len({count % 2 for count in distribution}) != 1:
        raise EmbeddingError(
            f"antiface counts {sorted(distribution)} do not share one parity")
    if sum(distribution.values()) != states:
        raise EmbeddingError(
            f"the tally visited {sum(distribution.values())} states, not {states}")
    return OracleSummary(distribution, states)


class CertificationResult:
    """Comparison of one embedding against the exhaustive minimum: the
    embedding's antiface count, the fewest of any embedding with the same
    profaces, and the number of those embeddings."""

    __slots__ = ("achieved", "minimum", "states")

    def __init__(self, achieved, minimum, states):
        self.achieved = achieved
        self.minimum = minimum
        self.states = states

    @property
    def passed(self):
        return self.achieved == self.minimum

    def __repr__(self):
        return (
            f"CertificationResult(achieved={self.achieved}, "
            f"minimum={self.minimum}, passed={self.passed})"
        )


def certify_maximal(embedding, digraph, decomposition, limit=10_000_000):
    """Certify that an embedding attains the minimum antiface count for C.

    The minimum comes from :func:`_fewest`, the (min, +) form of the
    distribution tally on the same levels: every one of the
    :func:`state_count` embeddings is counted, and none is built.
    """
    if not embedding.profaces_are(decomposition):
        raise EmbeddingError("embedding's profaces are not the given circuits")
    states = _check_feasible(digraph, decomposition, limit)
    minimum, visited = _on_levels(_fewest, digraph, decomposition, (0, 1))
    if visited != states:
        raise EmbeddingError(f"the tally visited {visited} states, not {states}")
    achieved = embedding.antiface_count()
    if (achieved - minimum) % 2:
        raise EmbeddingError(
            f"{achieved} antifaces and the minimum {minimum} differ in parity")
    return CertificationResult(achieved, minimum, states)
