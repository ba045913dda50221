"""Golden reduction traces: strict reduction must replay byte for byte.

The corpus is small and seeded: rotational tournaments on 15 and 21
vertices, the Steiner triple system on 15 points and a random dense
eulerian digraph on 21 vertices, each started from a few seeded random
block orders.  Half of the starts are first pushed to more antifaces by
count-raising 3-cycles, so the reducer takes more than a couple of steps.
For every start the fixture holds ``trace.to_dicts()`` and the final
rotations of ``reduce_embedding(..., STRICT)``.

Regenerate the fixture only when a change of behaviour is intended:

    PYTHONPATH=src python tests/test_reduction_traces.py
"""

import json
import os
import random

from eulergenus import (
    STRICT,
    CircuitDecomposition,
    euler_circuit,
    gen_random_dense_eulerian,
    gen_rotational_tournament,
    gen_sts,
    reduce_embedding,
)

from conftest import raise_antifaces, shuffled_blocks

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "reduction_traces.json")

SEEDS = (1, 2, 3)


def corpus_graphs():
    tournament15 = gen_rotational_tournament(15)
    tournament21 = gen_rotational_tournament(21)
    random21 = gen_random_dense_eulerian(21, 2, seed=5)
    return (
        ("tournament-15", tournament15,
         CircuitDecomposition(tournament15, [euler_circuit(tournament15)])),
        ("tournament-21", tournament21,
         CircuitDecomposition(tournament21, [euler_circuit(tournament21)])),
        ("sts-15",) + gen_sts(15),
        ("random-21-k2", random21,
         CircuitDecomposition(random21, [euler_circuit(random21)])),
    )


def build_traces(validate_steps=False):
    out = []
    for label, digraph, decomposition in corpus_graphs():
        for seed in SEEDS:
            for raised in (False, True):
                rng = random.Random(f"{label}/{seed}")
                start = shuffled_blocks(digraph, decomposition, rng)
                if raised:
                    start = raise_antifaces(start, rng)
                final, trace = reduce_embedding(start, decomposition, STRICT,
                                                validate_steps=validate_steps)
                out.append({
                    "instance": label,
                    "seed": seed,
                    "raised": raised,
                    "start_antifaces": len(start.antifaces),
                    "trace": trace.to_dicts(),
                    "rotations": [list(rot) for rot in final.rotations],
                })
    return out


def render(traces):
    return json.dumps(traces, sort_keys=True, separators=(",", ":")).replace(
        '},{"instance"', '},\n{"instance"'
    ) + "\n"


def test_strict_reduction_traces_are_byte_identical():
    with open(FIXTURE) as fh:
        expected = fh.read()
    assert render(build_traces()) == expected


def test_validated_reduction_traces_are_byte_identical():
    """Building and verifying an embedding after every step changes nothing."""
    with open(FIXTURE) as fh:
        expected = fh.read()
    assert render(build_traces(validate_steps=True)) == expected


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        fh.write(render(build_traces()))
