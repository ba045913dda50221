"""Vertex types, the touch graph, and interlaced vertex pairs on an antiface.

A vertex's type is the set of antifaces it lies on; in a locally
irreducible embedding that set has one or two members.  ``TypeTable``
reads the types as the edges of the touch graph: a loop at a vertex's one
antiface, or a link between its two.  The searches here locate two vertices
x, y whose occurrences alternate x, y, x, y around one antiface while x and
y each lie on one further antiface, which is exactly what merge_interlaced
consumes.  Searches are deterministic: all scans run in ascending position
or vertex order.
"""

from .digraph import density_profile, underlying_simple_graph
from .errors import EmbeddingError, GraphError, HypothesisError, LocalIrreducibilityError


def _crowded_vertex(membership):
    """Lowest vertex on three or more antifaces, or None."""
    return min((v for v, keys in membership.items() if len(keys) > 2), default=None)


class TypeTable:
    """Vertex types of a locally irreducible embedding, as its touch graph.

    ``faces`` and ``membership`` are the embedding's own, read-only
    ``antiface_index``.  ``nodes`` holds the antiface keys, ascending;
    ``loops`` maps every key, and ``links`` every ascending key pair that
    shares a vertex, to its vertices, ascending.  ``LocalIrreducibilityError``
    names the lowest vertex on three or more antifaces.
    """

    __slots__ = ("faces", "membership", "nodes", "loops", "links", "_neighbors")

    def __init__(self, embedding):
        self.faces, self.membership = embedding.antiface_index()
        crowded = _crowded_vertex(self.membership)
        if crowded is not None:
            raise LocalIrreducibilityError(crowded, self.membership[crowded])
        self.nodes = tuple(sorted(self.faces))
        loops = {key: [] for key in self.nodes}
        links = {}
        for v in sorted(self.membership):
            keys = self.membership[v]
            if len(keys) == 1:
                loops[keys[0]].append(v)
            else:
                links.setdefault(keys, []).append(v)
        self.loops = {key: tuple(vs) for key, vs in loops.items()}
        self.links = {pair: tuple(vs) for pair, vs in links.items()}
        neighbors = {key: [] for key in self.nodes}
        for p, q in self.links:
            neighbors[p].append(q)
            neighbors[q].append(p)
        self._neighbors = {key: tuple(sorted(ns)) for key, ns in neighbors.items()}

    def faces_at(self, v):
        return self.membership.get(v, ())

    def partner(self, v, key):
        """The other antiface at v, or None for a single-face vertex."""
        keys = self.faces_at(v)
        if key not in keys:
            raise EmbeddingError(f"vertex {v} does not lie on the given face")
        others = [k for k in keys if k != key]
        return others[0] if others else None

    def neighbors(self, key):
        return self._neighbors[key]

    def loop_vertices(self, key):
        """Vertices on the given face alone, ascending."""
        return self.loops[key]

    def link_vertices(self, key_a, key_b):
        """Vertices of type exactly {A, B}, ascending."""
        return self.links.get(tuple(sorted((key_a, key_b))), ())

    def two_face_vertices(self, key):
        """Vertices on the given face and exactly one other, ascending."""
        return tuple(sorted(
            v for other in self._neighbors[key] for v in self.link_vertices(key, other)
        ))

    def edge_count(self):
        """One edge per vertex: a loop or a link."""
        return len(self.membership)


class InterlacingCertificate:
    """Witness that x, y alternate on ``face`` with partner faces attached."""

    __slots__ = ("face", "x", "y", "face_x", "face_y")

    def __init__(self, face, x, y, face_x, face_y):
        self.face = face
        self.x = x
        self.y = y
        self.face_x = face_x
        self.face_y = face_y

    def __repr__(self):
        return f"InterlacingCertificate(x={self.x}, y={self.y})"


def find_vertex_on_three_antifaces(embedding):
    """Lowest vertex lying on three or more antifaces, with its three
    lowest-key faces; None when the embedding is locally irreducible."""
    faces, membership = embedding.antiface_index()
    v = _crowded_vertex(membership)
    if v is None:
        return None
    return v, tuple(faces[key] for key in membership[v][:3])


def usg_walk(face):
    """Corner sequence with cyclically consecutive duplicates removed."""
    corners = face.corners
    walk = [corners[j] for j in range(len(corners)) if corners[j] != corners[j - 1]]
    return walk or [corners[0]]


def walk_edge_pairs(vertices):
    """Unordered consecutive pairs of a cyclic vertex walk."""
    length = len(vertices)
    if length < 2:
        return frozenset()
    return frozenset(
        frozenset((vertices[i], vertices[(i + 1) % length])) for i in range(length)
    )


def _certificate(table, face, x, y):
    if face.alternation_positions(x, y) is None:
        raise EmbeddingError(f"vertices {x} and {y} do not interlace on the face")
    face_x = table.faces[table.partner(x, face.key)]
    face_y = table.faces[table.partner(y, face.key)]
    return InterlacingCertificate(face, x, y, face_x, face_y)


def three_neighbor_search(embedding, face, candidates):
    """Interlaced cross-type pair among candidate vertices on one antiface.

    Every candidate must lie on ``face`` plus exactly one other antiface,
    and must have at least three candidate neighbors of a different type in
    the underlying simple graph; violations are reported with a witness.
    The scan walks intervals between repeated candidate occurrences in
    ascending (length, start) order and takes the first interval holding a
    cross-type candidate.

    The scan stops at an interlaced pair.  Cross-type neighbors share only
    ``face``, so they are consecutive in its walk: each candidate occurs
    twice or more, each neighbor inside an interval between two occurrences.
    Were y only inside x's interval, two consecutive y's would enclose one of
    its three neighbors, at most two being just outside them: a shorter
    interval, which the scan takes first.
    """
    table = TypeTable(embedding)
    face = embedding.own_antiface(face)
    chosen = sorted(set(candidates))
    if not chosen:
        raise HypothesisError("candidate set is empty")
    partner = {}
    for v in chosen:
        keys = table.faces_at(v)
        if len(keys) != 2 or face.key not in keys:
            raise HypothesisError(
                f"candidate {v} is not on the face plus exactly one other antiface"
            )
        partner[v] = table.partner(v, face.key)
    adjacency = underlying_simple_graph(embedding.digraph)
    for v in chosen:
        cross = sum(
            1 for u in chosen
            if u != v and u in adjacency[v] and partner[u] != partner[v]
        )
        if cross < 3:
            raise HypothesisError(
                f"candidate {v} has only {cross} cross-type candidate neighbors, needs 3"
            )

    walk = usg_walk(face)
    length = len(walk)
    for gap in range(2, length):
        for start in range(length):
            x = walk[start]
            if x not in partner or walk[(start + gap) % length] != x:
                continue
            for step in range(1, gap):
                y = walk[(start + step) % length]
                if y in partner and partner[y] != partner[x]:
                    return _certificate(table, face, x, y)
    raise EmbeddingError("no repeated candidate vertex encloses a cross-type candidate")


def diamond_search(embedding, face, t, u, v, x):
    """Interlaced pair from a diamond: a path t, u, v sharing one second
    face, plus a witness x adjacent to all three with a different second face.

    The caller, ``check_diamond_corollary``, has established each premise:
    t, u and v are three distinct vertices of type exactly {A, B}, and
    ``face`` is the embedding's own A or B; x lies on ``face`` and on a
    face outside {A, B} and is adjacent to t, u and v; t-u and u-v are
    consecutive pairs of the face's walk.

    Every arc between x and one of t, u, v lies on ``face``, so some
    traversal direction of the face walks x directly into u.  The interval
    from that x to its next occurrence decides the partner: t or v when its
    edge to x stays outside the interval and {t_or_v, u} appears inside,
    otherwise u.
    """
    table = TypeTable(embedding)
    walk = usg_walk(face)
    length = len(walk)
    oriented = None
    for candidate in (walk, walk[::-1]):
        for q in range(length):
            if candidate[q] == x and candidate[(q + 1) % length] == u:
                oriented = (candidate, q)
                break
        if oriented:
            break
    # all x-u arcs lie on this face, so one direction walks x into u
    if oriented is None:
        raise EmbeddingError(f"no arc of the face walk joins {x} and {u}")
    ordered, q = oriented
    span = next(
        d for d in range(1, length + 1) if ordered[(q + d) % length] == x
    )
    interval = [ordered[(q + d) % length] for d in range(span + 1)]
    closing = interval[-2]  # vertex just before the interval's closing x
    t_star = v if closing == t else t
    inside_pairs = {
        frozenset((interval[i], interval[i + 1])) for i in range(len(interval) - 1)
    }
    y = t_star if frozenset((t_star, u)) in inside_pairs else u
    return _certificate(table, face, x, y)


def check_three_neighbor_corollary(embedding, face):
    """Try the margin route: the face's two-face vertices interlace whenever
    each other antiface claims at most all-but-(k + 3) of them.  Returns a
    certificate or None when the margin fails."""
    table = TypeTable(embedding)
    face = embedding.own_antiface(face)
    profile = density_profile(embedding.digraph)
    k = profile.k
    pool = table.two_face_vertices(face.key)
    if not pool:
        return None
    # a pool vertex lies on exactly one other face, so overlaps count partners
    partners = [table.partner(v, face.key) for v in pool]
    if len(pool) - max(map(partners.count, set(partners))) < k + 3:
        return None
    return three_neighbor_search(embedding, face, pool)


def check_big_moderate(embedding, face_a, face_b, face_c):
    """Try the size route: one face spanning almost everything and two
    moderately large partners force an interlaced pair on the big face.
    Returns a certificate or None when a size hypothesis fails."""
    table = TypeTable(embedding)
    a = embedding.own_antiface(face_a)
    b = embedding.own_antiface(face_b)
    c = embedding.own_antiface(face_c)
    if len({a.key, b.key, c.key}) != 3:
        return None
    profile = density_profile(embedding.digraph)
    n, k = profile.n, profile.k
    if len(a.vertex_set()) < n - k:
        return None
    if len(b.vertex_set()) < 2 * k + 3 or len(c.vertex_set()) < 2 * k + 3:
        return None
    # A misses at most k vertices, and a vertex on A and B lies on no third
    # face, so A shares at least 2k + 3 - k = k + 3 vertices with each of B, C
    pool = sorted(set(table.link_vertices(a.key, b.key))
                  | set(table.link_vertices(a.key, c.key)))
    return three_neighbor_search(embedding, a, pool)


def check_diamond_corollary(embedding, face_a, face_b):
    """Try the diamond route on two antifaces sharing many vertices.

    Applicable when |AB| >= 3k + 4 (or just 3 when k = 0) and each face has
    a two-face vertex whose partner is outside {A, B}.  Builds a diamond
    inside the shared vertices adjacent to both witnesses and delegates to
    diamond_search on whichever face carries both path edges.
    """
    table = TypeTable(embedding)
    a = embedding.own_antiface(face_a)
    b = embedding.own_antiface(face_b)
    if a.key == b.key:
        return None
    profile = density_profile(embedding.digraph)
    k = profile.k
    shared = table.link_vertices(a.key, b.key)
    if not ((k == 0 and len(shared) >= 3) or len(shared) >= 3 * k + 4):
        return None

    def witness(key):
        for v in table.two_face_vertices(key):
            other = table.partner(v, key)
            if other != a.key and other != b.key:
                return v
        return None

    x_a = witness(a.key)
    x_b = witness(b.key)
    if x_a is None or x_b is None:
        return None

    # each witness is off the shared vertices and misses at most k vertices,
    # so the pool holds at least |AB| - 2k: three when k = 0, else k + 4
    adjacency = underlying_simple_graph(embedding.digraph)
    pool = [w for w in shared if w in adjacency[x_a] and w in adjacency[x_b]]

    edges_a = walk_edge_pairs(usg_walk(a))
    edges_b = walk_edge_pairs(usg_walk(b))

    def classes(p, q):
        """Which of the two face walks carry an arc between p and q."""
        e = frozenset((p, q))
        found = []
        if e in edges_a:
            found.append("a")
        if e in edges_b:
            found.append("b")
        # shared two-face vertices are joined only by arcs of A or B
        if not found:
            raise EmbeddingError(f"no arc between shared vertices {p} and {q} lies on either face")
        return found

    if k == 0:
        # the underlying simple graph is complete, so s0, s1, s2 are pairwise adjacent
        s0, s1, s2 = pool[:3]
        pairs = (
            ((s0, s1), (s1, s2), s1),
            ((s0, s1), (s0, s2), s0),
            ((s1, s2), (s0, s2), s2),
        )
    else:
        # u0 misses at most k of the other k + 3 or more pool vertices
        u0 = pool[0]
        neighbors = [w for w in pool if w != u0 and w in adjacency[u0]]
        t1, t2, t3 = neighbors[:3]
        pairs = (
            ((u0, t1), (u0, t2), u0),
            ((u0, t1), (u0, t3), u0),
            ((u0, t2), (u0, t3), u0),
        )

    for e1, e2, hub in pairs:
        common = [c for c in classes(*e1) if c in classes(*e2)]
        if not common:
            continue
        side = common[0]
        legs = [w for w in sorted(set(e1) | set(e2)) if w != hub]
        if side == "a":
            return diamond_search(embedding, a, legs[0], hub, legs[1], x_a)
        return diamond_search(embedding, b, legs[0], hub, legs[1], x_b)
    raise EmbeddingError("no two of three edges share a face class")


def extract_dense_subgraph(adjacency, d):
    """Vertices of the (d + 1)-core of a bipartite graph with enough edges.

    ``adjacency`` maps each vertex to its neighbor set.  Requires at least
    2d vertices and strictly more than d * (|V| - d) edges; the complete
    bipartite graph with a part of size d meets the bound exactly and is
    rejected.  Peeling vertices of degree at most d then never empties the
    graph, and the survivors all have degree at least d + 1.
    """
    vertices = sorted(adjacency)
    for v in vertices:
        for w in adjacency[v]:
            if w == v:
                raise GraphError(f"vertex {v} has a self-loop")
            if v not in adjacency.get(w, ()):
                raise GraphError(f"edge {v}-{w} is not symmetric")
    color = {}
    for root in vertices:
        if root in color:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            p = queue.pop()
            for q in adjacency[p]:
                if q not in color:
                    color[q] = 1 - color[p]
                    queue.append(q)
                elif color[q] == color[p]:
                    raise GraphError("graph is not bipartite")
    edge_count = sum(len(adjacency[v]) for v in vertices) // 2
    if len(vertices) < 2 * d:
        raise HypothesisError(f"{len(vertices)} vertices, need at least {2 * d}")
    if edge_count <= d * (len(vertices) - d):
        raise HypothesisError(
            f"{edge_count} edges do not exceed d(|V| - d) = {d * (len(vertices) - d)}"
        )
    degree = {v: len(adjacency[v]) for v in vertices}
    alive = set(vertices)
    queue = [v for v in vertices if degree[v] <= d]
    while queue:
        v = queue.pop()
        if v not in alive:
            continue
        alive.remove(v)
        for w in adjacency[v]:
            if w in alive:
                degree[w] -= 1
                if degree[w] <= d:
                    queue.append(w)
    if not alive or any(degree[v] <= d for v in alive):
        raise GraphError("peeling a graph above the edge bound left no (d + 1)-core")
    return frozenset(alive)
