"""Deterministic SVG pictures of embedded digraphs.

Vertices sit on a circle, arcs are bezier curves colored by the proface
carrying them, and each arrowhead is filled by the arc's antiface.  The two
face families draw from disjoint palettes (cool strokes, warm arrowheads)
so they stay distinguishable.  Output depends only on the embedding, so
renders are reproducible byte for byte.
"""

import math
from itertools import groupby

PRO_PALETTE = (
    "#1f77b4", "#2ca02c", "#17becf", "#9467bd", "#393b79", "#637939",
    "#3182bd", "#31a354", "#756bb1", "#74c476", "#6baed6", "#9e9ac8",
)

ANTI_PALETTE = (
    "#d62728", "#ff7f0e", "#8c564b", "#e377c2", "#bd9e39", "#ad494a",
    "#e6550d", "#fd8d3c", "#a55194", "#ce6dbd", "#843c39", "#e7969c",
)

VERTEX_RADIUS = 13.0
LEGEND_LIMIT = 24


def _color(i, palette):
    return palette[i % len(palette)]


def _toward(p, q, dist):
    dx, dy = q[0] - p[0], q[1] - p[1]
    norm = math.hypot(dx, dy) or 1.0
    return p[0] + dx / norm * dist, p[1] + dy / norm * dist


# one format call per arc or vertex; a vertex is a circle and its label
_VERTEX_FORMAT = ('<circle cx="%.2f" cy="%.2f" r="%.2f" fill="#f5f5f5" stroke="#333333" '
                  'stroke-width="1.2"/>\n<text x="%.2f" y="%.2f" text-anchor="middle" '
                  'font-size="12" fill="#111111">%d</text>')
_ARC_FORMAT = ('<path d="M %.2f %.2f Q %.2f %.2f %.2f %.2f" fill="none" stroke="%s" '
               'stroke-width="1.7" marker-end="url(#head%d)"/>')
_LOOP_FORMAT = ('<path d="M %.2f %.2f C %.2f %.2f, %.2f %.2f, %.2f %.2f" fill="none" '
                'stroke="%s" stroke-width="1.7" marker-end="url(#head%d)"/>')


def _arc_points(p, q, bend):
    """Start, control and end of a quadratic bezier from p to q, bowed
    sideways by ``bend`` pixels and trimmed so the ends clear the vertex
    disks."""
    mx, my = (p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0
    dx, dy = q[0] - p[0], q[1] - p[1]
    norm = math.hypot(dx, dy) or 1.0
    ctrl = (mx + dy / norm * bend, my - dx / norm * bend)
    start = _toward(p, ctrl, VERTEX_RADIUS + 2.0)
    end = _toward(q, ctrl, VERTEX_RADIUS + 4.0)
    return (*start, *ctrl, *end)


def _loop_points(p, outward, which):
    """Start, two controls and end of a cubic loop at p pointing away from
    the layout center; ``which`` staggers multiple loops at one vertex."""
    base = math.atan2(outward[1], outward[0])
    reach = 46.0 + 24.0 * which
    a1, a2 = base + 0.55, base - 0.55
    return (p[0] + math.cos(a1) * VERTEX_RADIUS, p[1] + math.sin(a1) * VERTEX_RADIUS,
            p[0] + math.cos(a1) * reach, p[1] + math.sin(a1) * reach,
            p[0] + math.cos(a2) * reach, p[1] + math.sin(a2) * reach,
            p[0] + math.cos(a2) * (VERTEX_RADIUS + 3.0),
            p[1] + math.sin(a2) * (VERTEX_RADIUS + 3.0))


def embedding_svg(embedding):
    """Render an embedding as a standalone SVG document string."""
    digraph = embedding.digraph
    n = digraph.n
    arcs = digraph.arcs
    profaces = embedding.profaces
    antifaces = embedding.antifaces
    pro_of = [0] * digraph.m  # per arc, the index of its proface
    anti_of = [0] * digraph.m
    for face_of, faces in ((pro_of, profaces), (anti_of, antifaces)):
        for i, face in enumerate(faces):
            for h in face.walk:
                face_of[h >> 1] = i

    cx = cy = 240.0
    radius = 175.0
    pos = []
    for v in range(n):
        angle = 2.0 * math.pi * v / n - math.pi / 2.0
        pos.append((cx + radius * math.cos(angle), cy + radius * math.sin(angle)))

    # arcs grouped by their unordered end pair, pairs ascending and arc ids
    # ascending within a pair
    pair = [min(t, h) * n + max(t, h) for t, h in arcs]
    order = sorted(range(digraph.m), key=pair.__getitem__)

    legend_rows = min(len(profaces), LEGEND_LIMIT) + min(len(antifaces), LEGEND_LIMIT)
    legend_rows += (len(profaces) > LEGEND_LIMIT) + (len(antifaces) > LEGEND_LIMIT)
    height = 480 + 26 + 18 * legend_rows
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="480" height="{height}" '
        f'viewBox="0 0 480 {height}" font-family="Helvetica, Arial, sans-serif">',
        '<rect width="100%" height="100%" fill="white"/>',
        "<defs>",
    ]
    for i in range(len(antifaces)):
        out.append(
            f'<marker id="head{i}" markerWidth="9" markerHeight="8" refX="7" refY="3.5" '
            f'orient="auto" markerUnits="userSpaceOnUse">'
            f'<path d="M0,0 L8,3.5 L0,7 z" fill="{_color(i, ANTI_PALETTE)}"/></marker>'
        )
    out.append("</defs>")

    for _, group in groupby(order, pair.__getitem__):
        group = list(group)
        for idx, a in enumerate(group):
            t, h = arcs[a]
            style = (_color(pro_of[a], PRO_PALETTE), anti_of[a])
            if t == h:
                p = pos[t]
                out.append(_LOOP_FORMAT % (*_loop_points(p, (p[0] - cx, p[1] - cy), idx),
                                           *style))
            else:
                bend = (idx - (len(group) - 1) / 2.0) * 17.0
                if t > h:
                    bend = -bend  # keep antiparallel arcs on distinct tracks
                out.append(_ARC_FORMAT % (*_arc_points(pos[t], pos[h], bend), *style))

    for v, (x, y) in enumerate(pos):
        out.append(_VERTEX_FORMAT % (x, y, VERTEX_RADIUS, x, y + 4, v))

    y = 498
    for label, faces, swatch, palette in (
            ("proface", profaces, "line", PRO_PALETTE),
            ("antiface", antifaces, "arrow", ANTI_PALETTE)):
        for i, face in enumerate(faces):
            if i == LEGEND_LIMIT:
                out.append(
                    f'<text x="20" y="{y}" font-size="11" fill="#111111">'
                    f'... {len(faces) - LEGEND_LIMIT} more {label}s</text>'
                )
                y += 18
                break
            color = _color(i, palette)
            if swatch == "line":
                out.append(
                    f'<line x1="20" y1="{y - 4}" x2="44" y2="{y - 4}" '
                    f'stroke="{color}" stroke-width="3"/>'
                )
            else:
                out.append(
                    f'<path d="M20,{y - 8} L34,{y - 4} L20,{y} z" fill="{color}"/>'
                )
            out.append(
                f'<text x="52" y="{y}" font-size="11" fill="#111111">'
                f"{label} {i} ({len(face)} arcs)</text>"
            )
            y += 18
    out.append("</svg>\n")
    return "\n".join(out)
