"""Command line front end.

Subcommands:

* ``gen``     write a generated digraph and circuit decomposition;
* ``embed``   reduce a decomposition to an embedding with at most two antifaces;
* ``verify``  check an embedding file against its digraph and circuits;
* ``oracle``  enumerate all embeddings with the given profaces (small inputs);
* ``faces``   trace an embedding's faces and touch graph, or emit the touch graph as DOT;
* ``render``  draw an embedding as SVG.

Exit codes: 0 success, 1 invalid input or failed verification, 2 a search or
reduction gave up, 3 I/O or malformed JSON.
"""

import argparse
import json
import sys
from functools import cache

from .digraph import CircuitDecomposition, Digraph, euler_circuit
from .embedding import (OrientedDirectedEmbedding, euler_genus, verify_embedding)
from .errors import (EmbeddingError, GraphError, HypothesisError,
                     LocalIrreducibilityError, NoProgressError, StateSpaceError)
from .generate import (gen_kn_minus_pm, gen_random_dense_eulerian,
                       gen_rotational_tournament, gen_sts)
from .oracle import enumerate_relative_embeddings
from .reduce import BEST_EFFORT, STRICT, reduce_to_upper_embedding
from .render import embedding_svg
from .touch import build_touch_graph, touch_graph_dot


def _read_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def _write_json(path, data):
    # compact output: any indent makes json use its pure-Python encoder
    _write_text(path, json.dumps(data) + "\n")


def _status(args, message):
    # keep stdout clean when the artifact itself goes there
    stream = sys.stderr if getattr(args, "out", None) == "-" else sys.stdout
    print(message, file=stream)


def _load_digraph(path):
    return Digraph.from_json_dict(_read_json(path))


def _load_circuits(path, digraph):
    return CircuitDecomposition.from_json_dict(digraph, _read_json(path))


def _load_embedding(path, digraph):
    return OrientedDirectedEmbedding.from_json_dict(digraph, _read_json(path))


def _decomposition_for(args, digraph):
    if args.circuits:
        return _load_circuits(args.circuits, digraph)
    return CircuitDecomposition(digraph, [euler_circuit(digraph)])


def cmd_gen(args):
    decomposition = None
    if args.kind == "tournament":
        digraph = gen_rotational_tournament(args.n)
    elif args.kind == "kn-minus-pm":
        digraph = gen_kn_minus_pm(args.n)
    elif args.kind == "sts":
        digraph, decomposition = gen_sts(args.n)
    else:
        digraph = gen_random_dense_eulerian(args.n, args.k, args.seed)
    _write_json(args.out, digraph.to_json_dict())
    if args.circuits:
        if decomposition is None:
            decomposition = CircuitDecomposition(digraph, [euler_circuit(digraph)])
        _write_json(args.circuits, decomposition.to_json_dict())
    _status(args, f"generated {args.kind}: n = {digraph.n}, arcs = {digraph.m}")
    return 0


def cmd_embed(args):
    digraph = _load_digraph(args.input)
    decomposition = _decomposition_for(args, digraph)
    mode = BEST_EFFORT if args.best_effort else STRICT
    embedding, trace = reduce_to_upper_embedding(digraph, decomposition, mode)
    report = verify_embedding(embedding, decomposition)
    if not report.ok:
        print(report.summary(), file=sys.stderr)
        return 1
    if args.trace:
        lines = [json.dumps(step) for step in trace.to_dicts()]
        if trace.metadata:
            lines.append(json.dumps({"metadata": trace.metadata}))
        _write_text(args.trace, "\n".join(lines) + ("\n" if lines else ""))
    _write_json(args.out, embedding.to_json_dict())
    _status(
        args,
        f"embedded: profaces = {len(embedding.profaces)}, "
        f"antifaces = {len(embedding.antifaces)}, genus = {euler_genus(embedding)}",
    )
    return 0


def cmd_verify(args):
    digraph = _load_digraph(args.input)
    decomposition = _load_circuits(args.circuits, digraph) if args.circuits else None
    embedding = _load_embedding(args.embedding, digraph)
    report = verify_embedding(embedding, decomposition)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_oracle(args):
    digraph = _load_digraph(args.input)
    decomposition = _decomposition_for(args, digraph)
    summary = enumerate_relative_embeddings(digraph, decomposition, args.limit)
    print(f"states = {summary.states}")
    for count in sorted(summary.distribution):
        print(f"antifaces {count}: {summary.distribution[count]} embeddings")
    print(f"minimum = {summary.min_antifaces}, maximum = {summary.max_antifaces}")
    if args.out:
        _write_json(args.out, summary.to_json_dict())
    return 0


def cmd_faces(args):
    digraph = _load_digraph(args.input)
    embedding = _load_embedding(args.embedding, digraph)
    if args.dot:
        _write_text(args.out, touch_graph_dot(build_touch_graph(embedding)))
        return 0
    try:
        touch = build_touch_graph(embedding)
    except LocalIrreducibilityError:
        touch = None  # a touch graph needs every vertex on at most two antifaces
    data = {
        "profaces": [list(face.walk) for face in embedding.profaces],
        "antifaces": [list(face.walk) for face in embedding.antifaces],
        "touch": None if touch is None else {
            "loops": {str(i): sorted(touch.loop_vertices(key))
                      for i, key in enumerate(touch.nodes)
                      if touch.loop_vertices(key)},
            "links": [
                [touch.nodes.index(a), touch.nodes.index(b),
                 sorted(touch.link_vertices(a, b))]
                for a, b in sorted(touch.links)
            ],
        },
    }
    _write_json(args.out, data)
    _status(
        args,
        f"profaces = {len(embedding.profaces)}, "
        f"antifaces = {len(embedding.antifaces)}",
    )
    return 0


def cmd_render(args):
    digraph = _load_digraph(args.input)
    embedding = _load_embedding(args.embedding, digraph)
    _write_text(args.out, embedding_svg(embedding))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eulergenus",
        description="relative maximum-genus embeddings of eulerian digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("kind", choices=["tournament", "kn-minus-pm", "sts", "random"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=0, help="degeneracy offset (random kind)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="digraph JSON path, - for stdout")
    p.add_argument("--circuits", help="decomposition JSON path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("embed", help="reduce to at most two antifaces")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--circuits", help="default: one euler circuit")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="step log as JSON lines")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true", default=True)
    mode.add_argument("--best-effort", action="store_true")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("verify", help="check an embedding file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--embedding", required=True)
    p.add_argument("--circuits")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="enumerate embeddings with fixed profaces")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--circuits")
    p.add_argument("--limit", type=int, default=10_000_000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("faces", help="trace faces or dump the touch graph")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--embedding", required=True)
    p.add_argument("--dot", "--touch-graph", action="store_true", dest="dot",
                   help="emit the touch graph as DOT")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("render", help="draw an embedding as SVG")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--embedding", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    return parser


@cache
def _parser():
    """The parser of every main call: parsing leaves it as it was built."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, EmbeddingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (HypothesisError, NoProgressError, StateSpaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
