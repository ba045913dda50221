"""Antiface surgeries that leave every proface untouched.

All four operations rewrite an embedding only at whole-block granularity:
a block is one (outgoing, incoming) pair at a vertex, and proface pairing
lives inside blocks while antiface pairing crosses block boundaries.
Permuting blocks at a vertex therefore rewires antifaces and nothing else,
which each operation checks on the blocks.  Every move is one 3-cycle,
``_rewire_three``, which reorders both halves tuples of one vertex; the
result shares its parent's other halves and traces its own faces.  A
surgery predicts the walks it creates before the child is traced: three
faces joined in rotation order, or a split face's kept part and the part
that absorbs the partner.  ``_created_antifaces`` is the one antiface
postcondition: the fresh trace must show exactly those walks, and every
other antiface unchanged.  No rotation is read or written here.  A failed
check raises ``EmbeddingError``, also under ``python -O``.
"""

from fractions import Fraction

from .digraph import density_profile, least_first
from .errors import EmbeddingError, HypothesisError, LocalIrreducibilityError
from .interlace import _crowded_vertex


class SurgeryResult:
    """Outcome of one surgery: the new embedding and the faces it made.

    ``merged`` is the face the inputs merged into; a split also reports
    ``kept``, the part of the split face that stayed a face of its own.
    A new face may carry an input's key, so read the new faces here.
    """

    __slots__ = ("embedding", "merged", "kept", "changed", "branch")

    def __init__(self, embedding, merged=None, kept=None, changed=True, branch=None):
        self.embedding = embedding
        self.merged = merged
        self.kept = kept
        self.changed = changed
        self.branch = branch

    def __repr__(self):
        return f"SurgeryResult(changed={self.changed}, branch={self.branch})"


def _cyclic_slice(seq, i, j):
    """Elements from index i through index j inclusive, wrapping."""
    n = len(seq)
    i %= n
    j %= n
    if i <= j:
        return tuple(seq[i:j + 1])
    return tuple(seq[i:]) + tuple(seq[:j + 1])


def _rewire_three(embedding, v, h1, h2, h3):
    """Advance the antiface departures after three incoming half-arcs at v.

    The blocks that hold them, at positions a < b < c, are reordered to
    B_a, B_(b+1..c), B_(a+1..b), B_(c+1..a-1), by the same reorder of the
    outgoing and of the incoming halves.  The effect is a 3-cycle on the
    antiface pairing: each of the three incoming halves now continues to
    the old continuation of the clockwise-next one.  All blocks stay
    intact, so profaces are untouched.
    """
    outgoing, incoming = embedding.halves[v]
    for h in (h1, h2, h3):
        if h not in incoming:
            raise EmbeddingError(f"half-arc {h} is not incoming at vertex {v}")
    if len({h1, h2, h3}) != 3:
        raise EmbeddingError("the three incoming half-arcs must be distinct")
    a, b, c = sorted(map(incoming.index, (h1, h2, h3)))

    def reordered(half):
        return half[a:a + 1] + half[b + 1:c + 1] + half[a + 1:b + 1] + half[c + 1:] + half[:a]

    return embedding._with_halves(v, reordered(outgoing), reordered(incoming))


def _created_antifaces(embedding, child, inputs, v, operation, predicted):
    """The antifaces of ``child`` that replace ``inputs``, in the order of
    the ``predicted`` walks.

    Raises unless the profaces and every antiface but ``inputs`` survive
    as an equal walk, and the created faces are exactly the predicted
    walks; a created face keeps an input's key.  The profaces survive
    exactly when v keeps its blocks, in any order, and every other vertex
    its halves: a proface leaves on its own block's outgoing half.
    """
    old, new = embedding.halves, child.halves
    if (old[:v] != new[:v] or old[v + 1:] != new[v + 1:]
            or set(zip(*old[v])) != set(zip(*new[v]))):
        raise EmbeddingError(f"{operation} at vertex {v} changed the profaces")
    old_faces = embedding.antiface_index()[0]
    gone = {f.key for f in inputs}
    created = []
    for face in child.antifaces:
        old = old_faces.get(face.key)
        if old is None or face.key in gone or old != face:
            created.append(face)
    if len(child.antifaces) - len(created) != len(old_faces) - len(gone):
        raise EmbeddingError(f"{operation} at vertex {v} changed an antiface it did not touch")
    walks = [least_first(walk) for walk in predicted]
    if sorted(f.walk for f in created) != sorted(walks):
        raise EmbeddingError(f"{operation} at vertex {v} did not yield the predicted antifaces")
    return sorted(created, key=lambda f: walks.index(f.walk))


def _arrival_at(face, v):
    """Lowest incoming half-arc on which the face reaches v."""
    arrival = min((h | 1 for h, c in zip(face.walk, face.corners) if c == v), default=None)
    if arrival is None:
        raise EmbeddingError(f"face does not visit vertex {v}")
    return arrival


def _walk_after(face, arrival):
    """The face's walk from the arc after the one arriving on ``arrival``."""
    anchor = face.walk.index(arrival & ~1)
    return _cyclic_slice(face.walk, anchor + 1, anchor)


def merge_three_at_vertex(embedding, v, face_a, face_b, face_c):
    """Merge three antifaces meeting at v into one; count drops by two."""
    a = embedding.own_antiface(face_a)
    b = embedding.own_antiface(face_b)
    c = embedding.own_antiface(face_c)
    if len({a.key, b.key, c.key}) != 3:
        raise EmbeddingError("the three antifaces must be distinct")
    arrivals = {_arrival_at(f, v): f for f in (a, b, c)}
    ordered = sorted(arrivals, key=embedding.halves[v][1].index)
    new_embedding = _rewire_three(embedding, v, *ordered)
    # each arrival now departs where the rotation-next one did, so the
    # merged face walks each input from its arrival's old departure, in turn
    merged_walk = sum((_walk_after(arrivals[h], h) for h in ordered), ())
    (merged,) = _created_antifaces(
        embedding, new_embedding, (a, b, c), v, "merge", [merged_walk])
    return SurgeryResult(new_embedding, merged=merged)


def split_swap(embedding, v, face_a, cut1, cut2, face_b):
    """Split antiface A at two of its corners at v and merge one part into B.

    ``cut1`` and ``cut2`` are distinct corner positions of A lying at v,
    splitting A into part 1 (corner cut1 to corner cut2) and part 2 (corner
    cut2 to corner cut1).  Which part merges with B is forced by the
    clockwise rotation at v and reported, never assumed: ``kept`` is the
    part that stayed a face of its own.  The antiface count is unchanged.
    """
    a = embedding.own_antiface(face_a)
    b = embedding.own_antiface(face_b)
    if a.key == b.key:
        raise EmbeddingError("split and partner antifaces must be distinct")
    size = len(a.walk)
    if not (0 <= cut1 < size and 0 <= cut2 < size) or cut1 == cut2:
        raise EmbeddingError("cuts must be two distinct corner positions of the split face")
    if a.corners[cut1] != v or a.corners[cut2] != v:
        raise EmbeddingError(f"both cut corners must lie at vertex {v}")
    if not b.visits(v):
        raise EmbeddingError(f"partner face does not visit vertex {v}")

    in_a1 = a.walk[cut1] | 1
    in_a2 = a.walk[cut2] | 1
    in_b = _arrival_at(b, v)
    part1 = _cyclic_slice(a.walk, cut1 + 1, cut2)
    part2 = _cyclic_slice(a.walk, cut2 + 1, cut1)
    b_from_corner = _walk_after(b, in_b)

    # the part whose closing corner the rotation reaches first (clockwise
    # from in_a1) is the part that absorbs B; all three halves are incoming at v
    incoming = embedding.halves[v][1]
    start, d = incoming.index(in_a1), len(incoming)
    if (incoming.index(in_a2) - start) % d < (incoming.index(in_b) - start) % d:
        merged_walk, kept_walk = part1 + b_from_corner, part2
    else:
        merged_walk, kept_walk = part2 + b_from_corner, part1

    new_embedding = _rewire_three(embedding, v, in_a1, in_a2, in_b)
    merged, kept = _created_antifaces(
        embedding, new_embedding, (a, b), v, "split", [merged_walk, kept_walk])
    return SurgeryResult(new_embedding, merged=merged, kept=kept)


def merge_interlaced(embedding, face_a, face_b, face_c, x, y):
    """Merge A, B, C into one antiface given x, y interlaced on A.

    Needs four corners of A in cyclic order x, y, x, y with x also on B and
    y also on C.  A is split at the two x corners, one part swallows B, and
    the three faces now at y are merged.  Net antiface count drops by two.
    """
    a = embedding.own_antiface(face_a)
    b = embedding.own_antiface(face_b)
    c = embedding.own_antiface(face_c)
    if len({a.key, b.key, c.key}) != 3:
        raise EmbeddingError("the three antifaces must be distinct")
    if x == y:
        raise HypothesisError("interlacing needs two distinct vertices")
    if not b.visits(x):
        raise HypothesisError(f"vertex {x} must lie on the second face")
    if not c.visits(y):
        raise HypothesisError(f"vertex {y} must lie on the third face")
    positions = a.alternation_positions(x, y)
    if positions is None:
        raise HypothesisError(
            f"vertices {x} and {y} do not interlace on the face to split"
        )
    p1, _, p3, _ = positions

    first = split_swap(embedding, x, a, p1, p3, b)
    c_now = first.embedding.own_antiface(c)
    second = merge_three_at_vertex(first.embedding, y, first.merged, first.kept, c_now)
    return SurgeryResult(second.embedding, merged=second.merged)


class DivisionResult:
    """Feasible black pair found by division_search."""

    __slots__ = ("first", "second", "colored_between")

    def __init__(self, first, second, colored_between):
        self.first = first
        self.second = second
        self.colored_between = colored_between

    def __repr__(self):
        return (
            f"DivisionResult(first={self.first}, second={self.second}, "
            f"q={self.colored_between})"
        )


BLACK, WHITE, RED = "black", "white", "red"


def division_search(points, m, p):
    """Find black points b_i, b_j with p - m < q < p + m colored points between.

    ``points`` is the cyclic sequence of colors ("black", "white", "red");
    q counts white and red points on the closed cyclic segment from b_i
    forward to b_j.  Hypotheses: every closed interval between consecutive
    black points carries at most m whites, whites outnumber reds, and
    m <= p <= l - m where l is the total number of whites and reds.  Each
    violated hypothesis is reported.  Under the hypotheses a feasible pair
    always exists; the scan returns the lexicographically first one as
    indices into ``points``.
    """
    points = list(points)
    for label in points:
        if label not in (BLACK, WHITE, RED):
            raise HypothesisError(f"unknown color {label!r}")
    if not (isinstance(m, int) and m >= 1):
        raise HypothesisError(f"m must be a positive integer, got {m!r}")
    p = Fraction(p)
    blacks = [i for i, label in enumerate(points) if label == BLACK]
    n_white = sum(1 for label in points if label == WHITE)
    n_red = sum(1 for label in points if label == RED)
    total = n_white + n_red

    violations = []
    if len(blacks) == 0:
        violations.append("no black points, so no black interval bounds the whites")
    else:
        for i, start in enumerate(blacks):
            end = blacks[(i + 1) % len(blacks)]
            segment = _cyclic_slice(points, start, end) if len(blacks) > 1 else points
            whites_inside = sum(1 for label in segment if label == WHITE)
            if whites_inside > m:
                violations.append(
                    f"interval from position {start} to {end} holds "
                    f"{whites_inside} whites > m = {m}"
                )
                break
    if n_white <= n_red:
        violations.append(f"{n_white} whites do not outnumber {n_red} reds")
    if not (m <= p <= total - m):
        violations.append(f"p = {p} outside [{m}, {total - m}]")
    if violations:
        raise HypothesisError("; ".join(violations))

    colored_prefix = [0]
    for label in points:
        colored_prefix.append(colored_prefix[-1] + (label != BLACK))

    def colored_between(i, j):
        if i <= j:
            return colored_prefix[j + 1] - colored_prefix[i]
        return colored_prefix[-1] - colored_prefix[i] + colored_prefix[j + 1]

    for i in blacks:
        for j in blacks:
            if i == j:
                continue
            q = colored_between(i, j)
            if p - m < q < p + m:
                return DivisionResult(i, j, q)
    raise RuntimeError("no feasible black pair despite valid hypotheses")


def blow_up(embedding, face_a, face_b, x):
    """Split a big antiface A at a shared vertex x and rebalance with B.

    Both resulting faces span at least min((|V(A)| - 2) / 2, (n - k - 1) / 2)
    vertices and keep x.  When A's arc neighborhood of x is small and B is
    already big enough the embedding is returned unchanged (branch "no-op").
    The antiface count never changes.
    """
    digraph = embedding.digraph
    profile = density_profile(digraph)
    n, k = profile.n, profile.k
    membership = embedding.antiface_index()[1]
    crowded = _crowded_vertex(membership)
    if crowded is not None:
        raise LocalIrreducibilityError(crowded, membership[crowded])
    a = embedding.own_antiface(face_a)
    b = embedding.own_antiface(face_b)
    if a.key == b.key:
        raise HypothesisError("the two antifaces must be distinct")
    if not (a.visits(x) and b.visits(x)):
        raise HypothesisError(f"vertex {x} must lie on both antifaces")
    a_size = len(a.vertex_set())
    if a_size < 5:
        raise HypothesisError(f"face to split spans {a_size} < 5 vertices")
    if n < k + 3:
        raise HypothesisError(f"order {n} below k + 3 = {k + 3}")

    corners = a.corners
    t = len(corners)
    black_positions = [j for j in range(t) if corners[j] == x]

    whites = {}  # arc neighbor of x on A -> corner position at the first joining arc
    for j in range(t):
        c1 = corners[j]
        c2 = corners[(j + 1) % t]
        if c1 == x and c2 != x and c2 not in whites:
            whites[c2] = (j + 1) % t
        elif c2 == x and c1 != x and c1 not in whites:
            whites[c1] = j
    arc_neighbors = set(whites)
    rest = a.vertex_set() - arc_neighbors - {x}
    reds = {}
    for j in range(t):
        c = corners[j]
        if c in rest and c not in reds:
            reds[c] = j

    if len(arc_neighbors) > len(rest):
        branch = "y-majority-split"
        red_positions = sorted(reds.values())
        target = Fraction(a_size - 1, 2)
    else:
        if 2 * len(b.vertex_set()) >= n - k - 1:
            return SurgeryResult(embedding, changed=False, branch="no-op")
        branch = "y-minority-split"
        red_positions = sorted(reds.values())[:len(arc_neighbors) - 1]
        target = Fraction(2 * len(arc_neighbors) - 1, 2)

    # x has at least three arc neighbors on A.  In the majority split they
    # outnumber the rest of the a_size - 1 >= 4 others.  Else the neighbors
    # of x that no arc of A joins are on B, at most |V(B)| - 1 < (n - k - 3)/2
    # of x's n - 1 - k or more, leaving more than (n - k + 1)/2 >= 2.  A
    # corner at x gives at most two, so A passes x at least twice
    white_positions = set(whites.values())
    red_kept = set(red_positions)
    colored = sorted(set(black_positions) | white_positions | red_kept)
    labels = []
    for j in colored:
        if corners[j] == x:
            labels.append(BLACK)
        elif j in white_positions:
            labels.append(WHITE)
        else:
            labels.append(RED)
    found = division_search(labels, 2, target)
    cut1 = colored[found.first]
    cut2 = colored[found.second]

    result = split_swap(embedding, x, a, cut1, cut2, b)
    result.branch = branch
    lower = min(a_size - 2, n - k - 1)
    for f in (result.merged, result.kept):
        if 2 * len(f.vertex_set()) < lower:
            raise EmbeddingError(
                f"blow-up left a face on {len(f.vertex_set())} vertices, "
                f"fewer than half of {lower}"
            )
        if not f.visits(x):
            raise EmbeddingError(f"blow-up left a face off vertex {x}")
    if result.merged.vertex_set() | result.kept.vertex_set() != \
            a.vertex_set() | b.vertex_set():
        raise EmbeddingError("blow-up changed the vertices the two faces cover")
    return result

