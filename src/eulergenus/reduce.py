"""Driving an embedding down to at most two antifaces.

The loop inspects the touch graph of the current embedding and dispatches
one of the numbered cases below, each ending in a merge (count - 2) after
at most two count-preserving blow ups:

* 1      a vertex on three antifaces: merge there directly;
* 2.1.x  no loops, touch graph not a star: interlacing via the margin,
         diamond, or bipartite-core route on the heaviest face pair;
* 2.2    no loops, star: margin route on the center, else blow the center
         apart and merge through the loop that appears;
* 3.1    loops on two faces: blow one looped face apart, merge around the
         other;
* 3.2.1  a single looped face with one neighbor: blow the neighbor apart;
* 3.2.2  a single looped face with several neighbors: blow the looped face
         apart, follow the loop that survives, and merge.

Cases 2.2, 3.1, 3.2.1 and 3.2.2 end in ``_Reducer.blow_then_merge``: blow
a face pair apart, merge at a vertex now on three antifaces if there is one
(``blow`` retries case 1), else merge a big face with two moderate ones
(``check_big_moderate``).  ``merge_cert`` fails a case that has no certificate.

The split has no other dead end, by one lemma: in a locally irreducible
embedding of a connected digraph the touch graph is connected.  An antiface
holding arc (u, w) has a corner at w, and one at u, where the arc before it
on the face ends; so if the antifaces split into two classes sharing no
vertex, an arc between the two classes' vertex sets would lie on a face of
each.  With three or more antifaces, then, every face has a neighbor, a
loop-free touch graph has a link, every face of a star is linked to its
center, and each case blows up two linked faces, which share a vertex.

Strict mode demands order at least 7 and the density flag up front and the
guarantees of the case analysis then apply; best-effort mode runs the same
machine on any eulerian connected input and reports dead ends as errors,
among them a step that changes nothing and so would only repeat.

Both entry points end in ``_Reducer.run``, which sends digraphs on one or
two vertices down a short route from the same start: case-1 merges until
no vertex lies on three antifaces, then, on two vertices, one interlaced
merge closes the path configuration that may be left, unless a single arc
each way makes its three faces the minimum.

Cost model.  On dense inputs nearly every step is case 1, and the merged
antiface keeps growing, so the reducer does not re-trace faces for case 1.
A private core holds the current embedding, its orbit count and a
union-find over arc ids whose roots are the antiface orbits' least arcs,
so ``2 * root`` is a face key.  A case-1 step scans in-halves from a
cursor to the first vertex on three orbits (unions never crowd a vertex,
so none below the cursor is), re-pairs the lowest arrivals of its three
least orbits through ``surgery._rewire_three``, whose child replaces that
vertex's halves, shares every other vertex's and is traced only when read,
and unions them.  The child copies one n-tuple of references, and under
the theorem's density bound (deg v >= (4n + 2)/5) that is still O(deg v),
so the step costs O(deg v · α) whatever the faces' lengths.  Every other
step needs the touch graph and the surgeries, so it traces the current
embedding (O(m)), runs on it, and reloads the core from the result.  No
step reads or writes a rotation.  The final embedding is traced once,
and ``validate_steps=True`` verifies the current one after every step.
The first read of each embedding the core holds checks that its antifaces
are exactly the core's orbits.
"""

from .digraph import (CircuitDecomposition, DirectedCircuit, _euler_circuits, _sequence,
                      density_profile, eulerian_orientation, underlying_simple_graph)
from .embedding import embed_from_decomposition, successors, verify_embedding
from .errors import (EmbeddingError, GraphError, HypothesisError,
                     NoProgressError)
from .interlace import (InterlacingCertificate, check_big_moderate,
                        check_diamond_corollary, check_three_neighbor_corollary,
                        extract_dense_subgraph, three_neighbor_search)
from .surgery import _rewire_three, blow_up, merge_interlaced
from .touch import build_touch_graph, classify

STRICT = "strict"
BEST_EFFORT = "best-effort"

MERGE_OPS = ("merge_three_at_vertex", "merge_interlaced")


class ReductionStep:
    """One recorded operation of a reduction run."""

    __slots__ = ("case", "operation", "witness", "count_before", "count_after")

    def __init__(self, case, operation, witness, count_before, count_after):
        self.case = case
        self.operation = operation
        self.witness = dict(witness)
        self.count_before = count_before
        self.count_after = count_after

    def to_dict(self):
        return {
            "case": self.case,
            "operation": self.operation,
            "witness": self.witness,
            "antifaces_before": self.count_before,
            "antifaces_after": self.count_after,
        }

    def __repr__(self):
        return (
            f"ReductionStep({self.case}, {self.operation}, "
            f"{self.count_before}->{self.count_after})"
        )


class ReductionTrace:
    """Ordered step log of a reduction, plus free-form metadata."""

    __slots__ = ("steps", "metadata")

    def __init__(self):
        self.steps = []
        self.metadata = {}

    def record(self, case, operation, witness, count_before, count_after):
        self.steps.append(
            ReductionStep(case, operation, witness, count_before, count_after)
        )

    def validate(self):
        """Structural problems with the step log; empty list when clean.

        Counts must stitch, merges drop the count by two, blow ups keep it,
        and no three consecutive steps may all preserve the count.
        """
        problems = []
        previous_after = None
        preserving_run = 0
        for i, step in enumerate(self.steps):
            delta = step.count_after - step.count_before
            if step.operation == "blow_up":
                expected = 0
            elif step.operation in MERGE_OPS:
                expected = -2
            else:
                problems.append(f"step {i}: unknown operation {step.operation}")
                continue
            if delta != expected:
                problems.append(
                    f"step {i}: {step.operation} changed the count by {delta}"
                )
            if previous_after is not None and step.count_before != previous_after:
                problems.append(f"step {i}: counts do not stitch")
            previous_after = step.count_after
            if delta == 0:
                preserving_run += 1
                if preserving_run >= 3:
                    problems.append(f"step {i}: three consecutive count-preserving steps")
            else:
                preserving_run = 0
        return problems

    def to_dicts(self):
        return [step.to_dict() for step in self.steps]

    def __repr__(self):
        return f"ReductionTrace({len(self.steps)} steps)"


class _AntifaceCore:
    """The reducer's current embedding and its antifaces as a union-find.

    ``current`` is the embedding the reducer stands on, and ``parent`` a
    union-find over arc ids: an arc's orbit is its antiface, and each root
    is its orbit's least arc, so ``2 * root`` is the face key and a union is
    a min.  ``count`` is the number of orbits.  Merges only union orbits, so
    a vertex on fewer than three orbits stays so until the next load: every
    vertex below ``cursor`` is known to be.  A merge replaces ``current`` by
    a ``_rewire_three`` child, whose faces are traced only when read;
    ``checked`` is set once ``embedding()`` has checked it.
    """

    __slots__ = ("digraph", "current", "checked", "parent", "count", "cursor")

    def __init__(self, embedding):
        self.digraph = embedding.digraph
        self.load(embedding)

    def load(self, embedding):
        """Stand on ``embedding`` and read its antiface orbits."""
        m = self.digraph.m
        leave = successors(embedding.halves, m, "anti")
        parent = [-1] * m
        count = 0
        for root in range(m):
            if parent[root] >= 0:
                continue
            count += 1
            a = root
            while parent[a] < 0:
                parent[a] = root
                a = leave[a] >> 1
        self.current = embedding
        self.checked = False
        self.parent = parent
        self.count = count
        self.cursor = 0

    def find(self, a):
        parent = self.parent
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    def merge_lowest(self):
        """Merge at the lowest vertex on three or more antifaces, as
        ``find_vertex_on_three_antifaces`` and ``merge_three_at_vertex``
        would: its three least roots, each arriving on its lowest incoming
        half there, are re-paired by ``_rewire_three`` and their orbits
        become one.  Returns the vertex, or None when there is none."""
        digraph = self.digraph
        find = self.find
        for v in range(self.cursor, digraph.n):
            arrival = {}
            for h in digraph.in_half_arcs(v):
                root = find(h >> 1)
                if root not in arrival:
                    arrival[root] = h
            if len(arrival) > 2:
                break
        else:
            self.cursor = digraph.n
            return None
        self.cursor = v
        low, mid, high = sorted(arrival)[:3]
        self.current = _rewire_three(self.current, v, *map(arrival.get, (low, mid, high)))
        self.checked = False
        # successors 3-cycled over three distinct orbits join them into one
        self.parent[mid] = self.parent[high] = low
        self.count -= 2
        return v

    def embedding(self):
        """The current embedding; its first read checks that its antifaces
        are exactly the core's orbits."""
        embedding = self.current
        if not self.checked:
            keys = [face.key for face in embedding.antifaces]
            orbit_keys = [2 * a for a, up in enumerate(self.parent) if up == a]
            if len(keys) != self.count or keys != orbit_keys:
                raise EmbeddingError(
                    f"the embedding's {len(keys)} antifaces are not the core's "
                    f"{self.count} orbits"
                )
            self.checked = True
        return embedding


class _Reducer:
    def __init__(self, embedding, decomposition, validate_steps):
        self.digraph = embedding.digraph
        self.decomposition = decomposition
        self.profile = density_profile(self.digraph)
        self.validate_steps = validate_steps
        self.trace = ReductionTrace()
        self.core = _AntifaceCore(embedding)

    @property
    def emb(self):
        return self.core.embedding()

    def adopt(self, embedding):
        """Continue from a surgery's result."""
        if embedding is not self.core.current:
            self.core.load(embedding)

    def fail(self, message):
        raise NoProgressError(message, self.trace)

    def record(self, case, operation, witness, count_before):
        self.trace.record(case, operation, witness, count_before, self.core.count)
        if self.validate_steps:
            # verify first: it names the broken property, the core's check
            # only that the core and the embedding disagree
            report = verify_embedding(self.core.current, self.decomposition)
            if not report.ok:
                raise EmbeddingError(report.summary())
            self.core.embedding()

    def merge_cert(self, cert, case, failure):
        """Merge along ``cert``; with none, fail the case with ``failure``."""
        if cert is None:
            self.fail(f"case {case}: {failure}")
        before = self.core.count
        result = merge_interlaced(
            self.emb, cert.face, cert.face_x, cert.face_y, cert.x, cert.y
        )
        self.adopt(result.embedding)
        self.record(case, "merge_interlaced", {"x": cert.x, "y": cert.y}, before)

    def blow(self, split_key, partner_key, case):
        """Blow ``split_key``'s face apart against ``partner_key``'s, a face
        linked to it, and retry case 1: None after a case-1 merge, else the
        two faces left."""
        split = self.emb.antiface(split_key)
        partner = self.emb.antiface(partner_key)
        shared = sorted(split.vertex_set() & partner.vertex_set())
        before = self.core.count
        result = blow_up(self.emb, split, partner, shared[0])
        self.adopt(result.embedding)
        self.record(case, "blow_up", {"x": shared[0], "branch": result.branch}, before)
        if self.merge_reducible_vertex():
            return None
        if result.changed:
            return result.kept, result.merged
        return split, partner

    def blow_then_merge(self, case, split_key, partner_key, big=None, keep=None,
                        failure="size hypotheses fail after the blow up"):
        """Blow up, then merge as case 1 or as a big face with two moderate
        ones: ``big`` with the two blown faces, else the blown face with the
        most loop vertices (ties to the lower key) with ``keep`` and its
        sibling.  With no loop after the blow up the next step decides."""
        blown = self.blow(split_key, partner_key, case)
        if blown is None:
            return
        moderate = blown
        if big is None:
            touch, shape = self.shape_after_blow_up(blown)
            if not shape.loop_nodes:
                return
            big_key = min(shape.loop_nodes, key=lambda key: (-len(touch.loop_vertices(key)), key))
            big = self.emb.antiface(big_key)
            moderate = keep, blown[0] if big_key == blown[1].key else blown[1]
        cert = check_big_moderate(self.emb, big, *moderate)
        self.merge_cert(cert, case, failure)

    def shape_after_blow_up(self, blown):
        """Touch graph and shape after a blow up of ``blown``."""
        touch = build_touch_graph(self.emb)
        shape = classify(touch)
        # blowing up touches only the two faces involved, so new loops are theirs
        if not set(shape.loop_nodes) <= {f.key for f in blown}:
            raise EmbeddingError("a loop appeared on a face the blow up did not touch")
        return touch, shape

    def merge_reducible_vertex(self):
        """Case-1 merge on the core; True when one was available and applied."""
        before = self.core.count
        v = self.core.merge_lowest()
        if v is None:
            return False
        self.record("1", "merge_three_at_vertex", {"vertex": v}, before)
        return True

    def run(self):
        if self.digraph.n <= 2:
            return _small_order(self)
        budget = 8 * max(self.core.count, 1)
        while self.core.count > 2:
            if len(self.trace.steps) >= budget:
                self.fail(f"exceeded the safety bound of {budget} steps")
            start, recorded = self.core.current, len(self.trace.steps)
            try:
                self.step()
            except HypothesisError as exc:
                raise NoProgressError(f"dead end: {exc}", self.trace) from exc
            if self.core.current is start:
                # a step depends only on the embedding, so it would repeat;
                # the operations it recorded changed nothing and are dropped
                case = self.trace.steps[recorded].case
                del self.trace.steps[recorded:]
                self.fail(f"case {case}: the step left the embedding unchanged")
        return self.emb, self.trace

    def step(self):
        if self.merge_reducible_vertex():
            return
        touch = build_touch_graph(self.emb)
        shape = classify(touch)
        if not shape.loop_nodes:
            if not shape.is_star:
                self.case_no_loops_general(touch, shape)
            else:
                self.case_no_loops_star(touch, shape)
        elif len(shape.loop_nodes) >= 2:
            self.case_two_looped(touch, shape)
        else:
            loop_key = shape.loop_nodes[0]
            if len(touch.neighbors(loop_key)) == 1:
                self.case_one_loop_one_neighbor(touch, loop_key)
            else:
                self.case_one_loop_many_neighbors(touch, loop_key)

    def case_no_loops_general(self, touch, shape):
        p, q = shape.heaviest_pair
        first, second = self.emb.antiface(p), self.emb.antiface(q)
        if len(second.vertex_set()) > len(first.vertex_set()):
            first, second = second, first
        overlap = shape.heaviest_count
        k = self.profile.k
        if overlap <= k:
            label = "2.1.1"
            cert = check_three_neighbor_corollary(self.emb, first)
        elif overlap >= 3 * k + 4:
            label = "2.1.2"
            cert = check_diamond_corollary(self.emb, first, second)
        elif overlap == 3 * k + 3:
            label = "2.1.3"
            if k == 0:
                cert = check_diamond_corollary(self.emb, first, second)
            else:
                cert = self.bipartite_core_route(touch, first, second)
        else:
            label = "2.1.4"
            cert = check_three_neighbor_corollary(self.emb, first)
        self.merge_cert(cert, label, "applicability check failed")

    def bipartite_core_route(self, touch, big, partner):
        """Case 2.1.3 with k >= 1: candidates from a dense bipartite core
        between the big face's private vertices and the shared ones."""
        shared = set(touch.link_vertices(big.key, partner.key))
        private = sorted(big.vertex_set() - partner.vertex_set())
        adjacency = underlying_simple_graph(self.digraph)
        graph = {v: set() for v in private}
        for w in shared:
            graph[w] = set()
        for v in private:
            for w in adjacency[v]:
                if w in shared:
                    graph[v].add(w)
                    graph[w].add(v)
        survivors = extract_dense_subgraph(graph, 2)
        return three_neighbor_search(self.emb, big, sorted(survivors))

    def case_no_loops_star(self, touch, shape):
        center_key = shape.star_center
        cert = check_three_neighbor_corollary(self.emb, self.emb.antiface(center_key))
        if cert is not None:
            self.merge_cert(cert, "2.2", None)
            return
        # every link holds the center, so the heaviest pair is the center and
        # its heaviest neighbor, lowest key on ties
        p, q = shape.heaviest_pair
        partner_key = q if p == center_key else p
        third_key = next(
            key for key in touch.nodes if key not in (center_key, partner_key)
        )
        self.blow_then_merge("2.2", center_key, third_key,
                             keep=self.emb.antiface(partner_key))

    def case_two_looped(self, touch, shape):
        triple = None
        for loop_key in shape.loop_nodes:
            for partner_key in touch.neighbors(loop_key):
                others = [
                    key for key in shape.loop_nodes
                    if key not in (loop_key, partner_key)
                ]
                if others:
                    triple = (loop_key, partner_key, others[0])
                    break
            if triple:
                break
        loop_key, partner_key, anchor_key = triple
        self.blow_then_merge("3.1", loop_key, partner_key,
                             big=self.emb.antiface(anchor_key))

    def case_one_loop_one_neighbor(self, touch, loop_key):
        partner_key = touch.neighbors(loop_key)[0]
        candidates = [
            key for key in touch.neighbors(partner_key)
            if key not in (loop_key, partner_key)
        ]
        self.blow_then_merge("3.2.1", partner_key, candidates[0],
                             big=self.emb.antiface(loop_key))

    def case_one_loop_many_neighbors(self, touch, loop_key):
        partner_key = touch.neighbors(loop_key)[0]
        blown = self.blow(loop_key, partner_key, "3.2.2")
        if blown is None:
            return
        touch2, shape2 = self.shape_after_blow_up(blown)
        if len(shape2.loop_nodes) != 1:
            return  # no loops or two loops: an earlier case handles it next
        looped_key = shape2.loop_nodes[0]
        sibling = blown[0] if looped_key == blown[1].key else blown[1]
        neighbors = touch2.neighbors(looped_key)
        if len(neighbors) < 2:
            return  # single-neighbor state: handled next iteration
        # neighbors are distinct keys, so one of the two is not the sibling
        split_partner = next(key for key in neighbors if key != sibling.key)
        self.blow_then_merge("3.2.2", looped_key, split_partner, keep=sibling,
                             failure="size hypotheses fail after the blow ups")


def _check_input(digraph, decomposition, mode):
    """Reject a decomposition of another digraph, a disconnected digraph, a
    digraph with no arcs, an unknown mode, and in strict mode a digraph
    outside the theorem's hypotheses of order at least 7 and density.  A
    decomposition puts every arc on a closed circuit, so the digraph it
    belongs to is balanced."""
    if decomposition.digraph != digraph:
        raise GraphError("decomposition belongs to a different digraph")
    if not digraph.is_connected():
        raise GraphError("digraph is not connected")
    if digraph.m == 0:
        raise GraphError("digraph has no arcs")
    if mode not in (STRICT, BEST_EFFORT):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == STRICT:
        profile = density_profile(digraph)
        if digraph.n < 7 or not profile.dense:
            raise HypothesisError(
                f"strict mode needs order >= 7 and 5 * min_degree >= 4n + 2; "
                f"got n = {profile.n}, min_degree = {profile.min_degree}, "
                f"k = {profile.k}"
            )


def reduce_to_upper_embedding(digraph, decomposition, mode=STRICT,
                              validate_steps=False):
    """Embed the circuits as profaces and merge antifaces down to at most two.

    Returns (embedding, trace).  Strict mode checks order and density up
    front and is then guaranteed to finish; best-effort mode tries the same
    moves on any eulerian connected digraph and raises NoProgressError at a
    dead end.
    """
    _check_input(digraph, decomposition, mode)
    embedding = embed_from_decomposition(digraph, decomposition)
    return _Reducer(embedding, decomposition, validate_steps).run()


def reduce_embedding(embedding, decomposition, mode=BEST_EFFORT,
                     validate_steps=False):
    """Continue reducing an existing embedding whose profaces are already
    the given circuits.  Same contract as reduce_to_upper_embedding."""
    _check_input(embedding.digraph, decomposition, mode)
    if not embedding.profaces_are(decomposition):
        raise EmbeddingError("embedding profaces do not match the decomposition")
    return _Reducer(embedding, decomposition, validate_steps).run()


def _small_order(reducer):
    """Reduce an embedding on one or two vertices from where it stands.

    Case-1 merges run until no vertex lies on three antifaces.  That leaves
    at most two antifaces, or on two vertices the path configuration: one
    face on both vertices and one on each vertex alone.  Nothing else is
    left: a face holding an arc between the two vertices visits both, two
    such faces would fill both vertices, and on one vertex every face visits
    it.  With at least two arcs each way one interlaced merge closes the
    configuration; with one arc each way its three faces are the minimum.
    """
    while reducer.merge_reducible_vertex():
        pass
    emb = reducer.emb
    if len(emb.antifaces) <= 2:
        return emb, reducer.trace
    spanning = [f for f in emb.antifaces if len(f.vertex_set()) == 2]
    single = [f for f in emb.antifaces if len(f.vertex_set()) == 1]
    u, w = (min(face.vertex_set()) for face in single)
    if spanning[0].alternation_positions(u, w) is None:
        # The crossing face is the only face on both vertices, so it holds
        # every arc between them; u and w fail to interlace on it only when
        # there is one arc each way.  No merge is left, and each vertex
        # already sits at its own parity floor, so three is the minimum.
        return emb, reducer.trace
    cert = InterlacingCertificate(spanning[0], u, w, *single)
    reducer.merge_cert(cert, "small-a", None)
    return reducer.emb, reducer.trace


def _completion_circuits(digraph, leftover):
    """One euler circuit per nontrivial weak component of the leftover arcs."""
    balance = [0] * digraph.n
    out = [[] for _ in range(digraph.n)]
    for a in sorted(leftover):
        t, h = digraph.arcs[a]
        balance[t] += 1
        balance[h] -= 1
        out[t].append(2 * a)
    bad = [v for v in range(digraph.n) if balance[v]]
    if bad:
        raise GraphError(f"leftover arcs are unbalanced at vertices {bad[:8]}")
    return _euler_circuits(digraph, out)


def relative_upper_from_partial(digraph, partial, mode=STRICT, validate_steps=False):
    """Extend arc-disjoint circuits to a full decomposition and reduce.

    The leftover arcs are completed with one euler circuit per nontrivial
    weak component, so the proface count is len(partial) plus the number of
    those components.
    """
    circuits = []
    for item in _sequence(partial, "the circuit list", GraphError):
        circuit = item if isinstance(item, DirectedCircuit) else DirectedCircuit(digraph, item)
        if circuit.digraph != digraph:
            raise GraphError("partial circuit belongs to a different digraph")
        circuits.append(circuit)
    used = set()
    for circuit in circuits:
        overlap = used.intersection(circuit.arc_ids)
        if overlap:
            raise GraphError(f"arc {min(overlap)} appears in two partial circuits")
        used.update(circuit.arc_ids)
    leftover = [a for a in range(digraph.m) if a not in used]
    extras = _completion_circuits(digraph, leftover)
    full = CircuitDecomposition(digraph, circuits + extras)
    emb, trace = reduce_to_upper_embedding(digraph, full, mode, validate_steps)
    trace.metadata["completion"] = {"given": len(circuits), "added": len(extras)}
    if not emb.profaces_are(full):
        raise EmbeddingError(
            f"{len(emb.profaces)} profaces, not the {len(circuits) + len(extras)} circuits"
        )
    return emb, trace


def undirected_upper_embedding(graph, walks, mode=STRICT, validate_steps=False):
    """Orient an even undirected graph along the given closed walks, then
    reduce the oriented decomposition; the walks become the profaces."""
    digraph, decomposition = eulerian_orientation(graph, walks)
    return reduce_to_upper_embedding(digraph, decomposition, mode, validate_steps)
