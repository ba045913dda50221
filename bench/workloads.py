"""The benchmark's three workloads: seeded inputs, one solve per instance,
and the output checks.

Each workload exposes ``build(lib, rng, workdir)``, returning its instance
list, and ``solve(lib, instance, clock, recorder)``, which hands one
instance to the library and returns an ``Outcome``.  ``clock`` stops the instance's timer at
the verified (or certified) result; anything after it is the benchmark's
own checking.  The library is reached only through ``lib.<module>.<name>``
at call time, so traced runs see every call through the wrappers.
"""

import contextlib
import io
import json
import os
from math import gcd

# Stressed starts: the antiface count is pushed into this range with
# count-raising 3-cycles, capped where small digraphs run out of faces that
# revisit a vertex three times.
STRESS_RANGE = (40, 80)
ARCS_PER_STRESSED_FACE = 14
RAISE_ATTEMPTS = 100


class Outcome:
    """What one instance produced: failure text or None, whether the run
    ended at a best-effort dead end, whether its final antiface count is the
    best possible, and the bytes that go into the workload digest."""

    __slots__ = ("failure", "dead_end", "optimal", "digest_bytes")

    def __init__(self, failure=None, dead_end=False, optimal=False, digest_bytes=b""):
        self.failure = failure
        self.dead_end = dead_end
        self.optimal = optimal
        self.digest_bytes = digest_bytes


class Instance:
    __slots__ = ("label", "digraph", "decomposition", "rotations", "start_count", "extra")

    def __init__(self, label, digraph, decomposition, rotations=None,
                 start_count=None, extra=None):
        self.label = label
        self.digraph = digraph
        self.decomposition = decomposition
        self.rotations = rotations
        self.start_count = start_count
        self.extra = extra


# --- flat successor arrays -------------------------------------------------
#
# With the profaces fixed, an embedding is the cyclic order of the blocks
# (fw[h], h) at each vertex, where h runs over incoming half-arcs.  An
# antiface arriving on h leaves on the outgoing half of the next block, so
# the antiface orbit map on incoming halves is
#     h -> fw[order[v][pos(h) + 1]] | 1,
# the same flat form the oracle walks.


class BlockOrder:
    """Per-vertex block orders over flat arrays, with antiface labels."""

    def __init__(self, digraph, fw, rng):
        self.fw = fw
        self.order = []
        self.vertex = {}
        self.pos = {}
        for v in range(digraph.n):
            ins = list(digraph.in_half_arcs(v))
            rng.shuffle(ins)
            self.order.append(ins)
            for i, h in enumerate(ins):
                self.vertex[h] = v
                self.pos[h] = i
        self.face = {}
        self.count = 0
        self._next_id = 0
        for ins in self.order:
            for h in ins:
                if h not in self.face:
                    self._label(h)
                    self.count += 1

    def step(self, h):
        ins = self.order[self.vertex[h]]
        return self.fw[ins[(self.pos[h] + 1) % len(ins)]] | 1

    def _label(self, start):
        fid = self._next_id
        self._next_id += 1
        h = start
        while True:
            self.face[h] = fid
            h = self.step(h)
            if h == start:
                return

    def try_raise(self, rng):
        """One attempt at a count-raising 3-cycle; True when applied.

        Three incoming halves at one vertex on one antiface, at block
        positions a < b < c, split that antiface into three exactly when
        the orbit meets them in the order a, c, b.  The block rewrite is the
        one ``surgery._rewire_three`` performs.
        """
        h = rng.choice(self.all_in)
        v = self.vertex[h]
        fid = self.face[h]
        ins = self.order[v]
        same = [i for i, g in enumerate(ins) if self.face[g] == fid]
        if len(same) < 3:
            return False
        a, b, c = sorted(rng.sample(same, 3))
        ha, hb, hc = ins[a], ins[b], ins[c]
        g = self.step(ha)
        while g != hb and g != hc:
            g = self.step(g)
        if g == hb:
            return False
        new = [ins[a]] + ins[b + 1:c + 1] + ins[a + 1:b + 1] + ins[c + 1:] + ins[:a]
        self.order[v] = new
        for i, g in enumerate(new):
            self.pos[g] = i
        for start in (ha, hb, hc):
            self._label(start)
        self.count += 2
        return True

    def raise_to(self, target, rng, attempts):
        self.all_in = sorted(self.pos)
        for _ in range(attempts):
            if self.count >= target:
                break
            self.try_raise(rng)
        return self.count

    def rotations(self):
        fw = self.fw
        return [[x for h in ins for x in (fw[h], h)] for ins in self.order]


def random_transition_decomposition(lib, digraph, rng):
    """Circuit decomposition from a seeded random in-to-out pairing at each
    vertex: the circuits are the orbits of the resulting arc successor."""
    nxt = {}
    for v in range(digraph.n):
        outs = list(digraph.out_half_arcs(v))
        rng.shuffle(outs)
        for h, g in zip(digraph.in_half_arcs(v), outs):
            nxt[h >> 1] = g >> 1
    seen = set()
    lists = []
    for a in range(digraph.m):
        if a in seen:
            continue
        walk = []
        b = a
        while b not in seen:
            seen.add(b)
            walk.append(b)
            b = nxt[b]
        lists.append(walk)
    return lib.digraph.CircuitDecomposition.from_arc_lists(digraph, lists)


def parity_floor(n, m, circuits):
    """Fewest antifaces Euler's formula allows: 1 or 2 by parity."""
    return 1 if (n + m + circuits) % 2 == 1 else 2


def _digest_bytes(trace_dicts, rotations, tag=""):
    return json.dumps([tag, trace_dicts, rotations], sort_keys=True).encode()


def _count_after(trace, start_count):
    return trace.steps[-1].count_after if trace.steps else start_count


# --- reduce-stressed -------------------------------------------------------


def _euler_decomposition(lib, digraph):
    return lib.digraph.CircuitDecomposition(digraph, [lib.digraph.euler_circuit(digraph)])


class ReduceStressed:
    """About 100 dense instances pushed to 40-80 antifaces, then reduced in
    strict mode and verified.

    Orders, targets and random-graph sizes follow fixed schedules, so a
    seed changes the block orders, the 3-cycles and the removed difference
    classes but not the amount of work.
    """

    name = "reduce-stressed"
    FIXED = (("tournament", 41), ("tournament", 61), ("tournament", 81),
             ("sts", 45), ("sts", 63))
    PER_FIXED = 10
    RANDOM = 51
    RANDOM_K = (2, 4, 8)

    def specs(self, rng):
        """(spec, position in its schedule, schedule length) per instance."""
        specs = [(kind, i, self.PER_FIXED) for kind in self.FIXED
                 for i in range(self.PER_FIXED)]
        per_k = self.RANDOM // len(self.RANDOM_K)
        for k in self.RANDOM_K:
            low = max(41, 5 * k + 7)
            for i in range(per_k):
                n = low + (i * (81 - low)) // (per_k - 1)
                specs.append((("random", n, k, rng.randrange(2 ** 31)), i, per_k))
        return specs

    def build(self, lib, rng, workdir):
        graphs = {}
        instances = []
        for spec, i, length in self.specs(rng):
            if spec not in graphs:
                graphs[spec] = self._graph(lib, spec)
            digraph, decomposition = graphs[spec]
            blocks = BlockOrder(digraph, decomposition.fw, rng)
            low, cap = STRESS_RANGE[0], min(STRESS_RANGE[1], digraph.m // ARCS_PER_STRESSED_FACE)
            target = low + (i * (cap - low)) // (length - 1)
            count = blocks.raise_to(target, rng, attempts=RAISE_ATTEMPTS * target)
            if count < STRESS_RANGE[0]:
                raise RuntimeError(f"{spec}: stressed start stuck at {count} antifaces")
            label = "-".join(str(x) for x in spec[:3])
            instances.append(Instance(label, digraph, decomposition,
                                      blocks.rotations(), count))
        return instances

    @staticmethod
    def _graph(lib, spec):
        kind = spec[0]
        if kind == "tournament":
            digraph = lib.generate.gen_rotational_tournament(spec[1])
            return digraph, _euler_decomposition(lib, digraph)
        if kind == "sts":
            return lib.generate.gen_sts(spec[1])
        _, n, k, seed = spec
        digraph = lib.generate.gen_random_dense_eulerian(n, k, seed)
        return digraph, _euler_decomposition(lib, digraph)

    def solve(self, lib, inst, clock, recorder=None):
        embedding = lib.embedding.OrientedDirectedEmbedding(inst.digraph, inst.rotations)
        final, trace = lib.reduce.reduce_embedding(embedding, inst.decomposition,
                                                   lib.reduce.STRICT)
        report = lib.embedding.verify_embedding(final, inst.decomposition)
        clock()
        if not report.ok:
            return Outcome(f"verify: {report.summary()}")
        count = len(final.antifaces)
        if count > 2:
            return Outcome(f"strict mode stopped at {count} antifaces")
        if trace.steps and trace.steps[0].count_before != inst.start_count:
            return Outcome("trace does not start at the built antiface count")
        problems = trace.validate()
        if problems:
            return Outcome(f"trace: {problems[0]}")
        optimal = count == parity_floor(inst.digraph.n, inst.digraph.m, len(inst.decomposition))
        digest = _digest_bytes(trace.to_dicts(), final.rotations)
        return Outcome(optimal=optimal, digest_bytes=digest)


# --- cli-large -------------------------------------------------------------


class CliLarge:
    """In-process ``eulergenus.cli.main``: gen, embed --trace, verify,
    faces, render, on large canonical starts."""

    name = "cli-large"
    # The last four, smaller instances spread the sizes so that the
    # per-instance median falls in a dense middle range instead of jumping
    # between two far-apart instances.
    SPECS = (("tournament", 151), ("tournament", 201), ("sts", 81),
             ("kn-minus-pm", 100), ("random", 121),
             ("tournament", 101), ("sts", 63), ("kn-minus-pm", 80), ("random", 81))
    RANDOM_K = 4

    def build(self, lib, rng, workdir):
        instances = []
        for kind, n in self.SPECS:
            folder = os.path.join(workdir, f"{kind}-{n}")
            os.makedirs(folder, exist_ok=True)
            path = {key: os.path.join(folder, name) for key, name in (
                ("g", "g.json"), ("c", "c.json"), ("e", "e.json"),
                ("t", "trace.jsonl"), ("f", "faces.json"), ("svg", "picture.svg"))}
            gen = ["gen", kind, "--n", str(n), "--out", path["g"], "--circuits", path["c"]]
            if kind == "random":
                gen += ["--k", str(self.RANDOM_K), "--seed", str(rng.randrange(2 ** 31))]
            commands = (
                ("gen", gen),
                ("embed", ["embed", "--in", path["g"], "--circuits", path["c"],
                           "--out", path["e"], "--trace", path["t"]]),
                ("verify", ["verify", "--in", path["g"], "--circuits", path["c"],
                            "--embedding", path["e"]]),
                ("faces", ["faces", "--in", path["g"], "--embedding", path["e"],
                           "--out", path["f"]]),
                ("render", ["render", "--in", path["g"], "--embedding", path["e"],
                            "--out", path["svg"]]),
            )
            instances.append(Instance(f"{kind}-{n}", None, None, extra=(commands, path)))
        return instances

    def solve(self, lib, inst, clock, recorder=None):
        commands, path = inst.extra
        outputs = {}
        for command, argv in commands:
            span = recorder.open(f"cli.{command}") if recorder else None
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = lib.cli.main(argv)
            finally:
                if span is not None:
                    recorder.close(span)
            if command == "verify":
                clock()
            if code != 0:
                return Outcome(f"{command} exited {code}: {sink.getvalue().strip()[-200:]}")
            outputs[command] = sink.getvalue()
        if not outputs["verify"].startswith("ok:"):
            return Outcome(f"verify printed {outputs['verify'].strip()[:200]}")
        with open(path["c"]) as fh:
            circuits = len(json.load(fh)["circuits"])
        with open(path["g"]) as fh:
            graph = json.load(fh)
        with open(path["f"]) as fh:
            faces = json.load(fh)
        with open(path["e"]) as fh:
            rotations = json.load(fh)["rotations"]
        with open(path["t"]) as fh:
            steps = [json.loads(line) for line in fh if line.strip()]
        with open(path["svg"]) as fh:
            svg = fh.read()
        if len(faces["profaces"]) != circuits:
            return Outcome(f"{len(faces['profaces'])} profaces for {circuits} circuits")
        count = len(faces["antifaces"])
        if count > 2:
            return Outcome(f"strict embed left {count} antifaces")
        if "<svg" not in svg[:300] or not svg.rstrip().endswith("</svg>"):
            return Outcome("render did not write an SVG document")
        optimal = count == parity_floor(graph["n"], len(graph["arcs"]), circuits)
        return Outcome(optimal=optimal, digest_bytes=_digest_bytes(steps, rotations))


# --- small-certify ---------------------------------------------------------


def _circulant(lib, n, jumps):
    arcs = [(i, (i + j) % n) for i in range(n) for j in jumps]
    return lib.digraph.Digraph(n, arcs)


class SmallCertify:
    """About 120 small eulerian digraphs: best-effort reduction from a
    random start, then the exhaustive oracle certifies the result.

    A circulant with three jumps has 2^n states whatever the jumps, so the
    fixed schedule of orders fixes the oracle's work; the seed picks the
    jumps, the circuits and the start.
    """

    name = "small-certify"
    CIRCULANT_N = range(6, 15)
    PER_CIRCULANT_N = 11
    OTHERS = (("tournament", 7), ("kn-minus-pm", 8), ("sts", 7))
    PER_OTHER = 8
    STATE_LIMIT = 10_000_000

    def build(self, lib, rng, workdir):
        specs = []
        for n in (n for n in self.CIRCULANT_N for _ in range(self.PER_CIRCULANT_N)):
            while True:
                jumps = tuple(sorted(rng.sample(range(1, n), 3)))
                if gcd(n, *jumps) == 1:
                    break
            specs.append(("circulant", n, jumps))
        specs += [kind for kind in self.OTHERS for _ in range(self.PER_OTHER)]
        instances = []
        for spec in specs:
            kind = spec[0]
            if kind == "circulant":
                digraph = _circulant(lib, spec[1], spec[2])
            elif kind == "tournament":
                digraph = lib.generate.gen_rotational_tournament(spec[1])
            elif kind == "kn-minus-pm":
                digraph = lib.generate.gen_kn_minus_pm(spec[1])
            else:
                digraph, _ = lib.generate.gen_sts(spec[1])
            states = lib.oracle.state_count(digraph)
            if states > self.STATE_LIMIT:
                raise RuntimeError(
                    f"{spec}: {states} states exceed the oracle limit {self.STATE_LIMIT}")
            decomposition = random_transition_decomposition(lib, digraph, rng)
            blocks = BlockOrder(digraph, decomposition.fw, rng)
            label = "-".join(str(x) for x in spec[:2])
            instances.append(Instance(label, digraph, decomposition,
                                      blocks.rotations(), blocks.count))
        return instances

    def solve(self, lib, inst, clock, recorder=None):
        embedding = lib.embedding.OrientedDirectedEmbedding(inst.digraph, inst.rotations)
        try:
            final, trace = lib.reduce.reduce_embedding(embedding, inst.decomposition,
                                                       lib.reduce.BEST_EFFORT)
        except lib.errors.NoProgressError as exc:
            summary = lib.oracle.enumerate_relative_embeddings(
                inst.digraph, inst.decomposition, self.STATE_LIMIT)
            clock()
            achieved = _count_after(exc.trace, inst.start_count)
            problem = _certified_problem(achieved, summary.min_antifaces)
            if problem:
                return Outcome(f"dead end: {problem}")
            digest = _digest_bytes(exc.trace.to_dicts(), None, "dead-end")
            return Outcome(dead_end=True, optimal=achieved == summary.min_antifaces,
                           digest_bytes=digest)
        report = lib.embedding.verify_embedding(final, inst.decomposition)
        cert = lib.oracle.certify_maximal(final, inst.digraph, inst.decomposition,
                                          self.STATE_LIMIT)
        clock()
        if not report.ok:
            return Outcome(f"verify: {report.summary()}")
        problem = _certified_problem(cert.achieved, cert.minimum)
        if problem:
            return Outcome(problem)
        problems = trace.validate()
        if problems:
            return Outcome(f"trace: {problems[0]}")
        digest = _digest_bytes(trace.to_dicts(), final.rotations)
        return Outcome(optimal=cert.passed, digest_bytes=digest)


def _certified_problem(achieved, minimum):
    if achieved < minimum:
        return f"{achieved} antifaces is below the oracle minimum {minimum}"
    if (achieved - minimum) % 2:
        return f"{achieved} antifaces has the wrong parity against minimum {minimum}"
    return None


WORKLOADS = {w.name: w for w in (ReduceStressed(), CliLarge(), SmallCertify())}
