"""Touch graph: antifaces as nodes, digraph vertices as edges.

A vertex lying on two antifaces is a link between them; a vertex lying on
just one is a loop there.  In a locally irreducible embedding every vertex
is one or the other, so the touch graph has exactly n edges.
"""

from collections import deque

from .digraph import density_profile
from .errors import EmbeddingError
from .interlace import TypeTable


class TouchGraph:
    """Multigraph of antiface adjacency induced by shared vertices; its
    nodes are antiface keys and ``faces`` maps each one to its face."""

    __slots__ = ("faces", "nodes", "loops", "links", "_neighbors")

    def __init__(self, table, n):
        self.faces = table.faces
        self.nodes = tuple(sorted(table.faces))
        loops = {key: [] for key in self.nodes}
        links = {}
        for v in sorted(table.membership):
            keys = table.membership[v]
            if len(keys) == 1:
                loops[keys[0]].append(v)
            else:
                links.setdefault(keys, []).append(v)
        # each vertex is one loop or one link
        if len(table.membership) != n:
            raise EmbeddingError(
                f"touch graph has {len(table.membership)} edges but the digraph has {n} vertices"
            )
        self.loops = {key: tuple(vs) for key, vs in loops.items()}
        self.links = {pair: tuple(vs) for pair, vs in links.items()}
        neighbors = {key: set() for key in self.nodes}
        for p, q in self.links:
            neighbors[p].add(q)
            neighbors[q].add(p)
        self._neighbors = {key: tuple(sorted(ns)) for key, ns in neighbors.items()}

    def neighbors(self, key):
        return self._neighbors[key]

    def link_vertices(self, key_p, key_q):
        return self.links.get(tuple(sorted((key_p, key_q))), ())

    def loop_vertices(self, key):
        return self.loops[key]

    def edge_count(self):
        return sum(len(vs) for vs in self.loops.values()) + \
            sum(len(vs) for vs in self.links.values())

    def is_connected(self):
        if len(self.nodes) <= 1:
            return True
        seen = {self.nodes[0]}
        queue = deque(seen)
        while queue:
            key = queue.popleft()
            for other in self._neighbors[key]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        return len(seen) == len(self.nodes)


def build_touch_graph(embedding, table=None):
    """Touch graph of a locally irreducible embedding; fails loudly with the
    offending vertex otherwise."""
    table = table if table is not None else TypeTable(embedding)
    touch = TouchGraph(table, embedding.digraph.n)
    floor = 1 + density_profile(embedding.digraph).min_degree
    for key, vs in touch.loops.items():
        if not vs:
            continue
        # a private vertex drags all its neighbors onto the same face
        size = len(table.faces[key].vertex_set())
        if size < floor:
            raise EmbeddingError(
                f"antiface with private vertex {vs[0]} visits {size} vertices, "
                f"fewer than {floor}"
            )
    return touch


class TouchClassification:
    """Shape summary steering the reduction case split."""

    __slots__ = ("loop_nodes", "is_star", "star_center", "heaviest_pair", "heaviest_count")

    def __init__(self, loop_nodes, is_star, star_center, heaviest_pair, heaviest_count):
        self.loop_nodes = loop_nodes
        self.is_star = is_star
        self.star_center = star_center
        self.heaviest_pair = heaviest_pair
        self.heaviest_count = heaviest_count

    def __repr__(self):
        return (
            f"TouchClassification(loops={len(self.loop_nodes)}, "
            f"is_star={self.is_star}, heaviest={self.heaviest_count})"
        )


def classify(touch):
    """Loop nodes, star shape, and the pair of faces sharing most vertices.

    Ties on the heaviest pair break toward the lexicographically smallest
    key pair; a single-node touch graph counts as a star centered there.
    """
    loop_nodes = tuple(key for key in touch.nodes if touch.loops[key])
    star_center = None
    if len(touch.nodes) == 1:
        star_center = touch.nodes[0]
    else:
        for candidate in touch.nodes:
            incident = all(not vs or candidate == key
                           for key, vs in touch.loops.items())
            if incident:
                incident = all(candidate in pair for pair in touch.links)
            if incident:
                star_center = candidate
                break
    heaviest_pair = None
    heaviest_count = 0
    for pair in sorted(touch.links):
        count = len(touch.links[pair])
        if count > heaviest_count:
            heaviest_pair = pair
            heaviest_count = count
    return TouchClassification(
        loop_nodes, star_center is not None, star_center, heaviest_pair, heaviest_count
    )


def touch_graph_dot(touch):
    """Deterministic DOT rendering with link multiplicities as labels."""
    index = {key: i for i, key in enumerate(touch.nodes)}
    lines = ["graph touch {"]
    for key in touch.nodes:
        i = index[key]
        lines.append(f'  f{i} [label="face {i} ({len(touch.faces[key])} arcs)"];')
    for key in touch.nodes:
        loops = touch.loops[key]
        if loops:
            i = index[key]
            lines.append(f'  f{i} -- f{i} [label="{len(loops)}"];')
    for pair in sorted(touch.links):
        p, q = pair
        lines.append(
            f'  f{index[p]} -- f{index[q]} [label="{len(touch.links[pair])}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
