"""Checks on the touch graph, its star/loop classification, and DOT export.

The touch graph itself is ``interlace.TypeTable``: antifaces as nodes,
digraph vertices as edges, a vertex on one antiface being a loop there and
a vertex on two a link between them.
"""

from .digraph import density_profile
from .errors import EmbeddingError
from .interlace import TypeTable


def build_touch_graph(embedding):
    """Touch graph of a locally irreducible embedding; fails loudly with the
    offending vertex otherwise."""
    touch = TypeTable(embedding)
    n = embedding.digraph.n
    # each vertex is one loop or one link
    if touch.edge_count() != n:
        raise EmbeddingError(
            f"touch graph has {touch.edge_count()} edges but the digraph has {n} vertices"
        )
    floor = 1 + density_profile(embedding.digraph).min_degree
    for key, vs in touch.loops.items():
        if not vs:
            continue
        # a private vertex drags all its neighbors onto the same face
        size = len(touch.faces[key].vertex_set())
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
