"""The command line front end, driven through main(argv)."""

import io
import json
import runpy
import subprocess
import sys
import warnings

import pytest

from eulergenus import (CircuitDecomposition, Digraph, GraphError,
                        OrientedDirectedEmbedding, TypeTable, embed_from_decomposition,
                        enumerate_relative_embeddings,
                        euler_circuit, gen_kn_minus_pm, gen_rotational_tournament,
                        reduce_to_upper_embedding)
from eulergenus import cli
from eulergenus.cli import main

from conftest import circulant, nth_state


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_three_loops(tmp_path):
    digraph = Digraph(1, [(0, 0)] * 3)
    decomposition = CircuitDecomposition.from_arc_lists(digraph, [[0, 1, 2]])
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    g.write_text(json.dumps(digraph.to_json_dict()))
    c.write_text(json.dumps(decomposition.to_json_dict()))
    return g, c


def test_gen_embed_verify_pipeline(tmp_path, capsys):
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    e = tmp_path / "e.json"
    t = tmp_path / "t.jsonl"

    code, out, err = run(
        ["gen", "tournament", "--n", "7", "--out", str(g), "--circuits", str(c)],
        capsys,
    )
    assert code == 0
    assert "generated tournament: n = 7, arcs = 21" in out

    code, out, err = run(
        ["embed", "--in", str(g), "--circuits", str(c),
         "--out", str(e), "--trace", str(t)],
        capsys,
    )
    assert code == 0
    assert "embedded: profaces = 1, antifaces = 1, genus = 7" in out
    steps = [json.loads(line) for line in t.read_text().splitlines()]
    assert steps and all("case" in s for s in steps)

    code, out, err = run(
        ["verify", "--in", str(g), "--embedding", str(e), "--circuits", str(c)],
        capsys,
    )
    assert code == 0
    assert out.strip() == "ok: 1 profaces, 1 antifaces"


def test_a_rotation_starting_on_an_incoming_half_round_trips_turned(tmp_path, capsys):
    """``embed`` writes each rotation from its first outgoing half; turned
    to start on an incoming half, it still verifies and reads back as
    written, since only the blocks are stored."""
    g, c, e, turned = (tmp_path / f"{name}.json" for name in ("g", "c", "e", "turned"))
    run(["gen", "tournament", "--n", "7", "--out", str(g), "--circuits", str(c)], capsys)
    assert run(["embed", "--in", str(g), "--circuits", str(c), "--out", str(e)],
               capsys)[0] == 0
    written = json.loads(e.read_text())
    turned.write_text(json.dumps(
        {"rotations": [rot[-1:] + rot[:-1] for rot in written["rotations"]]}))
    outputs = []
    for path in (e, turned):
        code, out, err = run(["verify", "--in", str(g), "--embedding", str(path),
                              "--circuits", str(c)], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == "ok: 1 profaces, 1 antifaces\n"
    digraph = Digraph.from_json_dict(json.loads(g.read_text()))
    again = OrientedDirectedEmbedding.from_json_dict(digraph, json.loads(turned.read_text()))
    assert again.to_json_dict() == written


def test_verify_flags_mismatched_circuits(tmp_path, capsys):
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    e = tmp_path / "e.json"
    assert run(["gen", "sts", "--n", "7", "--out", str(g), "--circuits", str(c)],
               capsys)[0] == 0
    assert run(["embed", "--in", str(g), "--circuits", str(c), "--out", str(e)],
               capsys)[0] == 0
    # verifying against the euler-circuit default instead of the triangles
    digraph = Digraph.from_json_dict(json.loads(g.read_text()))
    other = tmp_path / "other.json"
    from eulergenus import euler_circuit
    other.write_text(json.dumps(
        CircuitDecomposition(digraph, [euler_circuit(digraph)]).to_json_dict()
    ))
    code, out, err = run(
        ["verify", "--in", str(g), "--embedding", str(e), "--circuits", str(other)],
        capsys,
    )
    assert code == 1
    assert out.startswith("FAILED")
    assert "profaces-match" in out


def test_oracle_prints_the_distribution(tmp_path, capsys):
    g, c = _write_three_loops(tmp_path)
    code, out, err = run(
        ["oracle", "--in", str(g), "--circuits", str(c)], capsys
    )
    assert code == 0
    assert out == (
        "states = 2\n"
        "antifaces 1: 1 embeddings\n"
        "antifaces 3: 1 embeddings\n"
        "minimum = 1, maximum = 3\n"
    )


def test_oracle_limit_exit_code(tmp_path, capsys):
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    run(["gen", "tournament", "--n", "7", "--out", str(g), "--circuits", str(c)],
        capsys)
    code, out, err = run(
        ["oracle", "--in", str(g), "--circuits", str(c), "--limit", "5"], capsys
    )
    assert code == 2
    assert "exceed the enumeration limit" in err


def test_options_do_not_carry_over_between_main_calls(tmp_path, capsys, monkeypatch):
    """main builds its parser once per process; each call parses afresh."""
    built, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        g, c = _write_three_loops(tmp_path)
        o = tmp_path / "o.json"
        argv = ["oracle", "--in", str(g), "--circuits", str(c)]
        code, out, err = run(argv + ["--limit", "1", "--out", str(o)], capsys)
        assert code == 2
        assert "2 embeddings exceed the enumeration limit of 1" in err
        assert not o.exists()
        code, out, err = run(argv, capsys)
        assert code == 0
        assert out.startswith("states = 2\n")
        assert not o.exists()
        assert built == [1]
    finally:
        cli._parser.cache_clear()


def test_faces_json_and_touch_graph(tmp_path, capsys):
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    e = tmp_path / "e.json"
    run(["gen", "tournament", "--n", "7", "--out", str(g), "--circuits", str(c)],
        capsys)
    run(["embed", "--in", str(g), "--circuits", str(c), "--out", str(e)], capsys)

    f = tmp_path / "faces.json"
    code, out, err = run(
        ["faces", "--in", str(g), "--embedding", str(e), "--out", str(f)], capsys
    )
    assert code == 0
    data = json.loads(f.read_text())
    assert len(data["profaces"]) == 1 and len(data["profaces"][0]) == 21
    assert len(data["antifaces"]) == 1
    assert data["touch"]["links"] == []
    assert list(data["touch"]["loops"]) == ["0"]
    assert data["touch"]["loops"]["0"] == list(range(7))

    code, out, err = run(
        ["faces", "--in", str(g), "--embedding", str(e), "--touch-graph"], capsys
    )
    assert code == 0
    assert out.startswith("graph touch {")
    assert 'f0 -- f0 [label="7"]' in out


def test_faces_lists_each_link_with_its_shared_vertices(tmp_path, capsys):
    # state 91 of K_8 minus a perfect matching is locally irreducible: its
    # antiface 0 shares {1, 2, 3} with one antiface and {4, 5, 6} with another
    digraph = gen_kn_minus_pm(8)
    emb = nth_state(digraph, CircuitDecomposition(digraph, [euler_circuit(digraph)]), 91)
    touch = TypeTable(emb)
    g, e, f = (tmp_path / name for name in ("g.json", "e.json", "f.json"))
    g.write_text(json.dumps(digraph.to_json_dict()))
    e.write_text(json.dumps(emb.to_json_dict()))
    code, out, err = run(
        ["faces", "--in", str(g), "--embedding", str(e), "--out", str(f)], capsys
    )
    assert code == 0
    links = _compact_json(f)["touch"]["links"]
    assert links == [[0, 1, [1, 2, 3]], [0, 2, [4, 5, 6]]]
    assert [(touch.nodes[i], touch.nodes[j]) for i, j, _ in links] == sorted(touch.links)
    for i, j, vertices in links:
        assert vertices == list(touch.link_vertices(touch.nodes[i], touch.nodes[j]))


def test_faces_without_a_touch_graph(tmp_path, capsys):
    # state 0 of the 7-tournament has a vertex on three antifaces: its faces
    # trace and verify, but the touch graph is undefined
    digraph = gen_rotational_tournament(7)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    emb = nth_state(digraph, decomposition, 0)
    assert len(emb.antifaces) == 3
    g, c, e, f = (tmp_path / name for name in ("g.json", "c.json", "e.json", "f.json"))
    g.write_text(json.dumps(digraph.to_json_dict()))
    c.write_text(json.dumps(decomposition.to_json_dict()))
    e.write_text(json.dumps(emb.to_json_dict()))
    code, out, err = run(
        ["verify", "--in", str(g), "--circuits", str(c), "--embedding", str(e)], capsys
    )
    assert code == 0

    code, out, err = run(
        ["faces", "--in", str(g), "--embedding", str(e), "--out", str(f)], capsys
    )
    assert code == 0
    assert _compact_json(f) == {
        "profaces": [list(face.walk) for face in emb.profaces],
        "antifaces": [list(face.walk) for face in emb.antifaces],
        "touch": None,
    }

    code, out, err = run(
        ["faces", "--in", str(g), "--embedding", str(e), "--dot"], capsys
    )
    assert code == 2
    assert out == ""
    assert "error: vertex 0 lies on 3 antifaces" in err


def _compact_json(path):
    """Parsed content of a JSON artifact written as one line."""
    text = path.read_text()
    assert text.endswith("\n") and "\n" not in text[:-1]
    return json.loads(text)


def test_json_artifacts_load_back_exactly(tmp_path, capsys):
    g, c, e, f, o = (tmp_path / name for name in
                     ("g.json", "c.json", "e.json", "f.json", "o.json"))
    run(["gen", "tournament", "--n", "7", "--out", str(g), "--circuits", str(c)],
        capsys)
    digraph = gen_rotational_tournament(7)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    assert _compact_json(g) == digraph.to_json_dict()
    assert _compact_json(c) == decomposition.to_json_dict()

    run(["embed", "--in", str(g), "--circuits", str(c), "--out", str(e)], capsys)
    emb, _ = reduce_to_upper_embedding(digraph, decomposition)
    assert _compact_json(e) == emb.to_json_dict()

    run(["faces", "--in", str(g), "--embedding", str(e), "--out", str(f)], capsys)
    faces = _compact_json(f)
    assert faces["profaces"] == [list(face.walk) for face in emb.profaces]
    assert faces["antifaces"] == [list(face.walk) for face in emb.antifaces]

    g3, c3 = _write_three_loops(tmp_path)
    run(["oracle", "--in", str(g3), "--circuits", str(c3), "--out", str(o)], capsys)
    loops = Digraph(1, [(0, 0)] * 3)
    summary = enumerate_relative_embeddings(
        loops, CircuitDecomposition.from_arc_lists(loops, [[0, 1, 2]]))
    assert _compact_json(o) == summary.to_json_dict()


def test_render_writes_svg(tmp_path, capsys):
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    e = tmp_path / "e.json"
    run(["gen", "tournament", "--n", "7", "--out", str(g), "--circuits", str(c)],
        capsys)
    run(["embed", "--in", str(g), "--circuits", str(c), "--out", str(e)], capsys)
    svg = tmp_path / "pic.svg"
    code, out, err = run(
        ["render", "--in", str(g), "--embedding", str(e), "--out", str(svg)], capsys
    )
    assert code == 0
    assert svg.read_text().startswith("<svg ")


def test_stdout_artifacts_keep_status_on_stderr(capsys):
    code, out, err = run(["gen", "tournament", "--n", "7", "--out", "-"], capsys)
    assert code == 0
    digraph = Digraph.from_json_dict(json.loads(out))
    assert digraph.n == 7
    assert "generated tournament" in err


def test_gen_random_kind(tmp_path, capsys):
    g = tmp_path / "g.json"
    code, out, err = run(
        ["gen", "random", "--n", "12", "--k", "1", "--seed", "3", "--out", str(g)],
        capsys,
    )
    assert code == 0
    digraph = Digraph.from_json_dict(json.loads(g.read_text()))
    assert digraph.n == 12 and digraph.is_eulerian()


def test_gen_kn_minus_pm_kind(tmp_path, capsys):
    g = tmp_path / "g.json"
    code, out, err = run(["gen", "kn-minus-pm", "--n", "8", "--out", str(g)], capsys)
    assert code == 0
    assert "generated kn-minus-pm: n = 8, arcs = 24" in out
    assert json.loads(g.read_text()) == gen_kn_minus_pm(8).to_json_dict()


def test_a_dash_input_reads_the_digraph_from_stdin(tmp_path, capsys, monkeypatch):
    digraph = gen_rotational_tournament(7)
    decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
    e = tmp_path / "e.json"
    e.write_text(json.dumps(embed_from_decomposition(digraph, decomposition).to_json_dict()))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(digraph.to_json_dict())))
    code, out, err = run(["verify", "--in", "-", "--embedding", str(e)], capsys)
    assert code == 0
    assert out.startswith("ok")


def test_missing_file_is_an_io_error(tmp_path, capsys):
    code, out, err = run(
        ["embed", "--in", str(tmp_path / "nope.json"), "--out", "-"], capsys
    )
    assert code == 3
    assert "error:" in err


def test_malformed_json_is_an_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(["embed", "--in", str(bad), "--out", "-"], capsys)
    assert code == 3


def test_invalid_circuits_are_an_input_error(tmp_path, capsys):
    g, _ = _write_three_loops(tmp_path)
    c = tmp_path / "short.json"
    c.write_text(json.dumps({"circuits": [[0, 1]]}))
    code, out, err = run(
        ["oracle", "--in", str(g), "--circuits", str(c)], capsys
    )
    assert code == 1
    assert "error:" in err


def _edit_json(path, where, change):
    data = json.loads(path.read_text())
    container = data
    for key in where[:-1]:
        container = container[key]
    container[where[-1]] = change(container[where[-1]])
    path.write_text(json.dumps(data))


# each edit, read back through int(), would still verify as ok
@pytest.mark.parametrize("name, where, change, message", [
    ("g", ("arcs", 0, 1), lambda t: t + 0.25, "bad digraph JSON"),
    ("g", ("arcs", 0), lambda arc: arc + [arc[1]], "bad digraph JSON"),
    ("c", ("circuits", 0, 0), str, "bad circuits JSON"),
    ("e", ("rotations", 0, 0), lambda h: h + 0.5, "bad embedding JSON"),
    ("e", ("rotations", 0, 0), str, "bad embedding JSON"),
    ("e", ("rotations", 0, 0), lambda h: "x", "bad embedding JSON"),
], ids=["fractional-endpoint", "arc-triple", "quoted-circuit-id",
        "fractional-half-arc", "quoted-half-arc", "non-numeric-half-arc"])
def test_verify_rejects_json_values_that_are_not_integers(
        tmp_path, capsys, name, where, change, message):
    paths = {name: tmp_path / f"{name}.json" for name in "gce"}
    run(["gen", "tournament", "--n", "7", "--out", str(paths["g"]),
         "--circuits", str(paths["c"])], capsys)
    run(["embed", "--in", str(paths["g"]), "--circuits", str(paths["c"]),
         "--out", str(paths["e"])], capsys)
    _edit_json(paths[name], where, change)
    code, out, err = run(
        ["verify", "--in", str(paths["g"]), "--embedding", str(paths["e"]),
         "--circuits", str(paths["c"])], capsys)
    assert code == 1
    assert "ok" not in out
    assert message in err


def test_verify_rejects_a_boolean_vertex_count(tmp_path, capsys):
    g, c = _write_three_loops(tmp_path)
    e = tmp_path / "e.json"
    digraph = Digraph(1, [(0, 0)] * 3)
    decomposition = CircuitDecomposition.from_arc_lists(digraph, [[0, 1, 2]])
    e.write_text(json.dumps(embed_from_decomposition(digraph, decomposition).to_json_dict()))
    code, out, err = run(
        ["verify", "--in", str(g), "--embedding", str(e), "--circuits", str(c)], capsys)
    assert code == 0 and out.startswith("ok")
    # true == 1, so read back through int() it made the same one-vertex digraph
    _edit_json(g, ("n",), lambda n: True)
    code, out, err = run(
        ["verify", "--in", str(g), "--embedding", str(e), "--circuits", str(c)], capsys)
    assert code == 1
    assert "ok" not in out
    assert "bad digraph JSON: True is not an integer" in err


def test_a_rotation_that_does_not_alternate_is_an_input_error(tmp_path, capsys):
    g, c = _write_three_loops(tmp_path)
    e = tmp_path / "e.json"
    # a permutation of the half-arcs with two outgoing halves side by side
    e.write_text(json.dumps({"rotations": [[0, 2, 1, 4, 3, 5]]}))
    paths = ["--in", str(g), "--embedding", str(e)]
    for argv in (["verify", *paths, "--circuits", str(c)],
                 ["faces", *paths],
                 ["render", *paths, "--out", str(tmp_path / "e.svg")]):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert "rotation at vertex 0 does not alternate" in err
    assert not (tmp_path / "e.svg").exists()


def test_more_vertices_than_arcs_are_refused_before_allocating(tmp_path, capsys):
    data = {"n": 300000, "arcs": []}
    with pytest.raises(GraphError, match="300000 vertices but only 0 arcs"):
        Digraph.from_json_dict(data)
    g = tmp_path / "g.json"
    g.write_text(json.dumps(data))
    code, out, err = run(["embed", "--in", str(g), "--out", "-"], capsys)
    assert code == 1
    assert "bad digraph JSON: 300000 vertices but only 0 arcs" in err


def test_a_digraph_with_no_arcs_is_refused_in_both_modes(tmp_path, capsys):
    g = tmp_path / "g.json"
    c = tmp_path / "c.json"
    g.write_text(json.dumps({"n": 1, "arcs": []}))
    c.write_text(json.dumps({"circuits": []}))
    for mode in ([], ["--best-effort"]):
        code, out, err = run(["embed", "--in", str(g), "--circuits", str(c),
                              "--out", "-", *mode], capsys)
        assert (code, out, err) == (1, "", "error: digraph has no arcs\n")


def test_strict_gate_maps_to_exit_code_two(tmp_path, capsys):
    digraph = circulant(11, (1, 2, 3))
    g = tmp_path / "g.json"
    g.write_text(json.dumps(digraph.to_json_dict()))
    code, out, err = run(["embed", "--in", str(g), "--out", "-"], capsys)
    assert code == 2
    assert "strict mode needs order >= 7" in err
    code, out, err = run(
        ["embed", "--in", str(g), "--out", "-", "--best-effort"], capsys
    )
    # best-effort may finish or dead-end, but never hits the strict gate
    assert code in (0, 2)
    assert "strict mode" not in err


def test_embed_has_no_strict_flag(tmp_path, capsys):
    """Strict mode is what runs without --best-effort."""
    g = tmp_path / "g.json"
    g.write_text(json.dumps(gen_rotational_tournament(7).to_json_dict()))
    with pytest.raises(SystemExit) as info:
        main(["embed", "--in", str(g), "--out", "-", "--strict"])
    assert info.value.code == 2
    assert "unrecognized arguments: --strict" in capsys.readouterr().err


def test_running_the_module_exits_with_main_s_code(tmp_path, monkeypatch):
    g = tmp_path / "g.json"
    monkeypatch.setattr(sys, "argv", ["eulergenus", "gen", "tournament", "--n", "5",
                                      "--out", str(g)])
    with warnings.catch_warnings():
        # the module is already imported, which runpy warns about
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as info:
            runpy.run_module("eulergenus.cli", run_name="__main__")
    assert info.value.code == 0
    assert json.loads(g.read_text())["n"] == 5


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eulergenus.cli",
         "gen", "tournament", "--n", "5", "--out", "-"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 5
