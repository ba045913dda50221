"""Exhaustive enumeration of embeddings with a fixed proface family.

Fixing the profaces to a circuit decomposition C pins, at every vertex, the
pairing of each incoming half-arc with the outgoing half-arc its circuit
continues to.  What remains free is the cyclic arrangement of those pairs
around each vertex, so the state space has exactly prod (indeg(v) - 1)!
points.  The lowest pair at each vertex is anchored first.

:func:`iter_relative_embeddings` yields the states in lexicographic order,
a deterministic stream that callers can index.  It builds an embedding per
state anyway, so the order costs it nothing.  The tally in
:func:`enumerate_relative_embeddings` visits the same states in a Gray
order instead, where consecutive states differ by one swap of adjacent
pairs at one vertex, so each state re-walks only the antifaces that swap
touches.
"""

from itertools import permutations, product
from math import factorial, prod

from .embedding import (OrientedDirectedEmbedding, decomposition_blocks,
                        flat_rotation, successors)
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


def _sjt_swaps(k):
    """Adjacent swaps that walk the k! orders of k items in plain changes.

    Swap ``p`` exchanges the items at positions p and p + 1.  From any
    order the k! - 1 swaps visit every order of the same items once
    (Steinhaus-Johnson-Trotter): the largest item sweeps end to end, and
    between sweeps the order of the other k - 1 items takes one step of
    the same walk.  Each swap is its own inverse, so replaying the swaps
    backwards walks the orders backwards, back to the start.
    """
    swaps = b""
    for j in range(2, k + 1):
        walk = bytearray()
        for s in range(len(swaps) + 1):
            to_front = s % 2 == 0
            walk += bytes(range(j - 2, -1, -1) if to_front else range(j - 1))
            if s < len(swaps):
                # the others sit behind the largest item when it is in front
                walk.append(swaps[s] + to_front)
        swaps = bytes(walk)
    return swaps


def enumerate_relative_embeddings(digraph, decomposition, limit=10_000_000):
    """Tally antiface counts across all embeddings with profaces C.

    Counting an antiface orbit needs only the successor map on arcs, so
    states are processed on flat arrays without building embedding
    objects.  The states are visited in reflected mixed-radix Gray order
    (Knuth's loopless Algorithm H, TAOCP 7.2.1.1) with one digit per
    vertex of in-degree at least 3, whose arrangements of non-anchor
    pairs run in plain-changes order.  Each step thus swaps two adjacent
    pairs at one vertex, which rewrites three successors; only the
    antifaces through those three arcs are walked again, and the count
    moves by the new orbits found less the old orbits they replace.
    :func:`iter_relative_embeddings` keeps the lexicographic order.
    """
    states = _check_feasible(digraph, decomposition, limit)
    m = digraph.m
    halves = [([g for g, _ in pairs], [h for _, h in pairs])
              for pairs in decomposition_blocks(digraph, decomposition)]
    # nxt[a] = the arc an antiface takes after arc a
    nxt = [g >> 1 for g in successors(halves, m, "anti")]
    digits = []  # (outs, ins, swaps) per vertex with a free arrangement
    swaps_of = {}
    for outgoing, incoming in halves:
        d = len(outgoing)
        if d >= 3:
            if d not in swaps_of:
                swaps_of[d] = _sjt_swaps(d - 1)
            outs = [g >> 1 for g in outgoing]
            ins = [h >> 1 for h in incoming]
            # the anchor repeated at the end closes the cycle for the swaps
            digits.append((outs + outs[:1], ins + ins[:1], swaps_of[d]))
    label = [-1] * m  # label[a] = the antiface orbit arc a lies on
    fresh = 0
    for a in range(m):
        if label[a] < 0:
            label[a] = fresh
            b = nxt[a]
            while b != a:
                label[b] = fresh
                b = nxt[b]
            fresh += 1
    faces = fresh
    tally = [0] * (m + 1)
    n = len(digits)
    value = [0] * n
    forward = [True] * n
    focus = list(range(n + 1))
    while True:
        tally[faces] += 1
        j = focus[0]
        if j == n:
            break
        focus[0] = 0
        outs, ins, swaps = digits[j]
        if forward[j]:
            p = swaps[value[j]] + 1
            value[j] += 1
            turn = value[j] == len(swaps)
        else:
            value[j] -= 1
            p = swaps[value[j]] + 1
            turn = value[j] == 0
        if turn:
            forward[j] = not forward[j]
            focus[j] = focus[j + 1]
            focus[j + 1] = j + 1
        # pairs B, C at p, p + 1 trade places between A before and D after
        x, y, z = ins[p - 1], ins[p], ins[p + 1]
        out_b, out_c = outs[p], outs[p + 1]
        nxt[x] = out_c
        nxt[z] = out_b
        nxt[y] = outs[p + 2]
        outs[p], outs[p + 1] = out_c, out_b
        ins[p], ins[p + 1] = z, y
        lx, ly, lz = label[x], label[y], label[z]
        if lx == ly == lz:
            old = 1
        elif lx != ly and ly != lz and lx != lz:
            old = 3
        else:
            old = 2
        base = fresh
        for a in (x, y, z):
            if label[a] < base:
                label[a] = fresh
                b = nxt[a]
                while b != a:
                    label[b] = fresh
                    b = nxt[b]
                fresh += 1
        faces += fresh - base - old
    distribution = {count: k for count, k in enumerate(tally) if k}
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
    traced = frozenset(f.arcs() for f in embedding.profaces)
    if traced != decomposition.canonical_set():
        raise EmbeddingError("embedding's profaces are not the given circuits")
    summary = enumerate_relative_embeddings(digraph, decomposition, limit)
    return CertificationResult(embedding.antiface_count(), summary)
