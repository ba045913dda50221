"""SVG renders: structure, palettes, determinism."""

import hashlib
import random
import xml.etree.ElementTree as ET

import pytest

from eulergenus import (
    CircuitDecomposition,
    Digraph,
    embed_from_decomposition,
    embedding_svg,
    euler_circuit,
    gen_kn_minus_pm,
    gen_sts,
)
from eulergenus.render import ANTI_PALETTE, PRO_PALETTE

from conftest import shuffled_blocks


def _digon_svg():
    digraph = Digraph(2, [(0, 1), (1, 0)])
    decomposition = CircuitDecomposition.from_arc_lists(digraph, [[0, 1]])
    emb = embed_from_decomposition(digraph, decomposition)
    return emb, embedding_svg(emb)


def test_digon_picture_structure():
    emb, svg = _digon_svg()
    assert svg.count("<circle") == 2
    assert svg.count("marker-end") == 2
    assert svg.count("<marker id=") == len(emb.antifaces)
    assert PRO_PALETTE[0] in svg
    assert ANTI_PALETTE[0] in svg


def test_svg_is_well_formed_xml():
    _, svg = _digon_svg()
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_renders_are_byte_deterministic():
    _, first = _digon_svg()
    _, second = _digon_svg()
    assert first == second


def test_matching_removal_picture():
    digraph = gen_kn_minus_pm(12)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    emb = embed_from_decomposition(digraph, decomposition)
    svg = embedding_svg(emb)
    assert svg.count("<circle") == 12
    assert svg.count("marker-end") == 60
    # one proface means a single stroke color across all arc curves
    assert svg.count(f'stroke="{PRO_PALETTE[0]}"') >= 60
    ET.fromstring(svg)


def test_loops_render_as_loops(three_loops):
    digraph, decomposition = three_loops
    emb = embed_from_decomposition(digraph, decomposition)
    svg = embedding_svg(emb)
    assert svg.count("<circle") == 1
    assert svg.count("marker-end") == 3
    ET.fromstring(svg)


def test_legend_folds_beyond_the_limit():
    digraph, decomposition = gen_sts(13)
    emb = embed_from_decomposition(digraph, decomposition)
    assert len(emb.profaces) == 26
    svg = embedding_svg(emb)
    assert "... 2 more profaces" in svg
    ET.fromstring(svg)


def test_legend_lists_small_face_families():
    _, svg = _digon_svg()
    assert "more proface" not in svg
    assert "proface 0" in svg
    assert "antiface 0" in svg


def _mixed_multidigraph():
    """Loops (two at one vertex), parallel and antiparallel arcs, and a
    pair joined both ways by more than one arc."""
    digraph = Digraph(3, [(0, 1), (0, 1), (1, 0), (1, 0), (1, 2), (2, 1), (0, 0),
                          (1, 1), (1, 1), (2, 0), (0, 2)])
    return digraph, CircuitDecomposition(digraph, [euler_circuit(digraph)])


def _golden_embeddings():
    mixed = _mixed_multidigraph()
    sts = gen_sts(13)
    kn = gen_kn_minus_pm(12)
    return {
        "kn12-shuffled": shuffled_blocks(kn, CircuitDecomposition(kn, [euler_circuit(kn)]),
                                         random.Random(2)),
        "mixed-canonical": embed_from_decomposition(*mixed),
        "mixed-shuffled": shuffled_blocks(*mixed, random.Random(3)),
        "sts13-shuffled": shuffled_blocks(*sts, random.Random(1)),
    }


# SHA-256 of each render, fixed when the renderer was first pinned; any
# change to the output bytes must update these on purpose.
SVG_DIGESTS = {
    "kn12-shuffled": "c1e2e52960eb13f6d3d71a839facfbc5cc1542a3b0aead8725cbaaafbf56d122",
    "mixed-canonical": "8add5c0e4ffd0f5834cefc7499e969f89e85ed6214e9b094397d7bfff52e421c",
    "mixed-shuffled": "b3137880da65f3c712e46c8dc222ebb39b2c5c0d2ccc0ab0f8c2e52e6fb61237",
    "sts13-shuffled": "90de3bca500d180493e804452385a760b110fc927f686c4755e134dfa6a01862",
}


@pytest.mark.parametrize("name", sorted(SVG_DIGESTS))
def test_renders_match_their_golden_digests(name):
    svg = embedding_svg(_golden_embeddings()[name])
    assert hashlib.sha256(svg.encode()).hexdigest() == SVG_DIGESTS[name]
