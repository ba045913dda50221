"""Digraphs with half-arc indexing, circuits, and circuit decompositions.

Arc ``a`` owns two half-arcs: ``2a`` (outgoing, at the tail) and ``2a + 1``
(incoming, at the head).  The mate of a half-arc flips the low bit.  All
per-vertex half-arc listings are sorted ascending, which fixes a canonical
order used by every deterministic scan in the package.

A ``Digraph`` is immutable, so it remembers two small facts the first time
they are asked for: the connectivity flag behind ``is_connected()`` and the
``DensityProfile`` that ``density_profile`` returns (an ``UndirectedGraph``
remembers its connectivity likewise).  Each costs a few
machine words, and the embed pipeline otherwise asks for each several times
over.  The loop-free simple adjacency (``underlying_simple_graph``) is not
kept: it holds a set per vertex, O(n + m) words on a dense digraph, which
every live digraph would pay for.  Only ``density_profile`` builds it; the
case machine reads adjacency as steps of the antiface walks it holds, since
an arc lies on the one antiface that visits both its ends.
"""

from collections import deque
from itertools import chain

from .errors import GraphError

# Past 256 every computed int is a new 32-byte object, so each digraph,
# circuit and forward map would hold its own copy of the same ids.  The
# first digraph with larger ids builds one table of the ints below this
# bound, which every later one shares: digraphs of up to 8192 arcs hold a
# pointer per half-arc and arc id.  Smaller ids are shared by the
# interpreter already, and larger digraphs compute their own.
_SHARED_IDS = 1 << 14
_shared_ids = None


def _ids(size):
    """A sequence whose item i is the int i, for i below ``size``."""
    global _shared_ids
    if not 257 <= size <= _SHARED_IDS:
        return range(size)
    if _shared_ids is None:
        _shared_ids = tuple(range(_SHARED_IDS))
    return _shared_ids


# Digraphs on at most 256 vertices share their (tail, head) pairs likewise,
# from one table of at most 65,536, instead of holding one per arc.
_shared_pairs = {}


def check_json_ints(rows):
    """Raise TypeError unless every item of every row is a JSON integer; a
    ``bool`` is refused although it subclasses ``int``.  The readers below
    are its only callers, and each passes every int it reads once."""
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        bad = next(x for x in chain.from_iterable(rows) if type(x) is not int)
        raise TypeError(f"{bad!r} is not an integer")


# Each input type has one reader, which copies, type-checks and validates it
# and is shared by every entry point that takes that input.  A reader raises
# TypeError naming the first item that is not an int, not a sequence or not
# a pair, and each entry point words that one failure: a constructor as
# "... must be integers: ...", a JSON loader as "bad ... JSON: ...".  Any
# other fault raises the library's own error with the constructors' message.


def _sequence(items, what, error=TypeError):
    """``items`` as a tuple; ``error`` names it, as ``what``, if it is not
    iterable."""
    try:
        return tuple(items)
    except TypeError:
        raise error(f"{what} is {items!r}, not a sequence") from None


def _read_pairs(n, pairs, kind):
    """The ``kind`` ("arc" or "edge") pairs of a graph on ``n`` vertices, read
    once: a tuple of (int, int) tuples with both ends in 0..n-1."""
    pairs = _sequence(pairs, f"the {kind} list")
    try:
        read = tuple(map(tuple, pairs))
    except TypeError:
        read = None
    if read is None or set(map(len, read)) - {2}:
        i = next(i for i, pair in enumerate(pairs) if not _is_pair(pair))
        raise TypeError(f"{kind} {i} is {pairs[i]!r}, not a pair")
    if type(n) is not int:
        raise TypeError(f"{n!r} is not an integer")
    check_json_ints(read)
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    for i, (t, h) in enumerate(read):
        if not (0 <= t < n and 0 <= h < n):
            raise GraphError(f"{kind} {i} = ({t}, {h}) has an endpoint outside 0..{n - 1}")
    return read


def _is_pair(item):
    try:
        return len(tuple(item)) == 2
    except TypeError:
        return False


class Digraph:
    """Finite multidigraph on vertices ``0..n-1``, loops and parallels allowed."""

    __slots__ = ("n", "arcs", "_out", "_in", "_connected", "_profile")

    def __init__(self, n, arcs):
        try:
            arcs = _read_pairs(n, arcs, "arc")
        except TypeError as exc:
            raise GraphError(
                f"the vertex count and arc endpoints must be integers: {exc}"
            ) from None
        self._build(n, arcs)

    def _build(self, n, arcs):
        """Fill the slots from ``arcs`` as ``_read_pairs`` returns them."""
        if n <= 256:
            arcs = tuple(map(_shared_pairs.setdefault, arcs, arcs))
        self.n = n
        self.arcs = arcs
        out = [[] for _ in range(n)]
        inc = [[] for _ in range(n)]
        size = 2 * len(arcs)
        ids = _ids(size)
        for (t, h), g, i in zip(arcs, ids[0:size:2], ids[1:size:2]):
            out[t].append(g)
            inc[h].append(i)
        # append order is ascending arc id, so the lists are already sorted
        self._out = tuple(tuple(hs) for hs in out)
        self._in = tuple(tuple(hs) for hs in inc)
        # filled on first use by is_connected() and density_profile()
        self._connected = None
        self._profile = None

    @property
    def m(self):
        return len(self.arcs)

    def tail(self, a):
        return self.arcs[a][0]

    def half_arc_vertex(self, h):
        """Vertex at which half-arc h sits."""
        t, hd = self.arcs[h >> 1]
        return t if (h & 1) == 0 else hd

    def out_half_arcs(self, v):
        return self._out[v]

    def in_half_arcs(self, v):
        return self._in[v]

    def incident_half_arcs(self, v):
        """All half-arcs at v, ascending."""
        merged = sorted(self._out[v] + self._in[v])
        return tuple(merged)

    def outdeg(self, v):
        return len(self._out[v])

    def indeg(self, v):
        return len(self._in[v])

    def is_balanced(self):
        return all(len(self._out[v]) == len(self._in[v]) for v in range(self.n))

    def is_connected(self):
        """Connectivity of the underlying multigraph; isolated vertices disconnect."""
        if self._connected is None:
            self._connected = _spans(self.n, self.arcs)
        return self._connected

    def is_eulerian(self):
        return self.is_balanced() and self.is_connected()

    def to_json_dict(self):
        return {"n": self.n, "arcs": [[t, h] for t, h in self.arcs]}

    @classmethod
    def from_json_dict(cls, data):
        try:
            n = data["n"]
            arcs = _read_pairs(n, data["arcs"], "arc")
        except (KeyError, TypeError) as exc:
            raise GraphError(f"bad digraph JSON: {exc}") from exc
        # a connected eulerian digraph on n >= 2 vertices has at least n
        # arcs; checked before anything is allocated per vertex
        if n > max(1, len(arcs)):
            raise GraphError(f"bad digraph JSON: {n} vertices but only {len(arcs)} arcs")
        digraph = cls.__new__(cls)
        digraph._build(n, arcs)
        return digraph

    def __eq__(self, other):
        return isinstance(other, Digraph) and self.n == other.n and self.arcs == other.arcs

    def __hash__(self):
        return hash((self.n, self.arcs))

    def __repr__(self):
        return f"Digraph(n={self.n}, m={self.m})"


def _spans(n, pairs):
    """True when the vertex pairs ``pairs``, read as edges, join all of
    0..n-1."""
    adj = [set() for _ in range(n)]
    for t, h in pairs:
        adj[t].add(h)
        adj[h].add(t)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        for w in adj[queue.popleft()]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == n


def least_first(walk):
    """A closed walk rotated to start at its least id."""
    i = walk.index(min(walk))
    return walk[i:] + walk[:i]


class DirectedCircuit:
    """Closed directed walk through distinct arcs, stored as arc ids."""

    __slots__ = ("digraph", "arc_ids")

    def __init__(self, digraph, arc_ids):
        try:
            self._read(digraph, arc_ids)
        except TypeError as exc:
            raise GraphError(f"circuit arc ids must be integers: {exc}") from None

    def _read(self, digraph, arc_ids):
        """Fill the slots from ``arc_ids``, read once: copied, checked to be
        ints, and checked to be a closed walk through distinct arcs."""
        arc_ids = _sequence(arc_ids, "the circuit")
        check_json_ints((arc_ids,))
        if not arc_ids:
            raise GraphError("a circuit must contain at least one arc")
        if len(set(arc_ids)) != len(arc_ids):
            raise GraphError("a circuit may not repeat an arc")
        arcs = digraph.arcs
        m = len(arcs)
        for a in arc_ids:
            if not 0 <= a < m:
                raise GraphError(f"circuit references unknown arc {a}")
        for a, b in zip(arc_ids, arc_ids[1:] + arc_ids[:1]):
            if arcs[a][1] != arcs[b][0]:
                raise GraphError(
                    f"circuit not closed: arc {a} ends at {arcs[a][1]} "
                    f"but arc {b} starts at {arcs[b][0]}"
                )
        self.digraph = digraph
        self.arc_ids = tuple(map(_ids(m).__getitem__, arc_ids))

    def __len__(self):
        return len(self.arc_ids)

    def canonical(self):
        """Rotation starting at the minimum arc id; arc ids are distinct."""
        return least_first(self.arc_ids)

    def __repr__(self):
        return f"DirectedCircuit({list(self.arc_ids)})"


class CircuitDecomposition:
    """Partition of a digraph's arcs into directed circuits."""

    __slots__ = ("digraph", "circuits", "fw")

    def __init__(self, digraph, circuits):
        circuits = _sequence(circuits, "the circuit list", GraphError)
        seen = set()
        for i, c in enumerate(circuits):
            if not isinstance(c, DirectedCircuit):
                raise GraphError(f"circuit {i} is {c!r}, not a DirectedCircuit")
            if c.digraph is not digraph and c.digraph != digraph:
                raise GraphError("circuit belongs to a different digraph")
            overlap = seen.intersection(c.arc_ids)
            if overlap:
                raise GraphError(f"arc {min(overlap)} appears in two circuits")
            seen.update(c.arc_ids)
        if len(seen) != digraph.m:
            missing = sorted(set(range(digraph.m)) - seen)
            raise GraphError(f"arcs not covered by any circuit: {missing[:8]}")
        self.digraph = digraph
        self.circuits = circuits
        # forward map by half-arc: slot 2a + 1 holds the outgoing half of the
        # arc after a on its circuit (even slots are None); a per-vertex bijection
        ids = _ids(2 * digraph.m)
        self.fw = fw = [None] * (2 * digraph.m)
        for c in circuits:
            for a, b in zip(c.arc_ids, c.arc_ids[1:] + c.arc_ids[:1]):
                fw[2 * a + 1] = ids[2 * b]

    def __len__(self):
        return len(self.circuits)

    @classmethod
    def from_arc_lists(cls, digraph, lists):
        lists = _sequence(lists, "the circuit list", GraphError)
        return cls(digraph, [DirectedCircuit(digraph, ids) for ids in lists])

    def to_json_dict(self):
        return {"circuits": [list(c.arc_ids) for c in self.circuits]}

    @classmethod
    def from_json_dict(cls, digraph, data):
        circuits = []
        try:
            for arc_ids in _sequence(data["circuits"], "the circuit list"):
                circuit = DirectedCircuit.__new__(DirectedCircuit)
                circuit._read(digraph, arc_ids)
                circuits.append(circuit)
        except (KeyError, TypeError) as exc:
            raise GraphError(f"bad circuits JSON: {exc}") from exc
        return cls(digraph, circuits)

    def __repr__(self):
        return f"CircuitDecomposition({len(self.circuits)} circuits)"


def underlying_simple_graph(digraph):
    """Loop-free simple adjacency: list of neighbor sets, one per vertex."""
    adj = [set() for _ in range(digraph.n)]
    for t, h in digraph.arcs:
        if t != h:
            adj[t].add(h)
            adj[h].add(t)
    return adj


class DensityProfile:
    """Order, minimum simple degree, codegree defect k, and the density flag."""

    __slots__ = ("n", "min_degree", "k", "dense")

    def __init__(self, n, min_degree, k, dense):
        self.n = n
        self.min_degree = min_degree
        self.k = k
        self.dense = dense

    def __repr__(self):
        return (
            f"DensityProfile(n={self.n}, min_degree={self.min_degree}, "
            f"k={self.k}, dense={self.dense})"
        )


def density_profile(digraph):
    """Compute k = n - 1 - min_degree and the density flag
    5 * min_degree >= 4n + 2.

    With min_degree = n - 1 - k the flag reads 5n - 5 - 5k >= 4n + 2, that
    is n >= 5k + 7, the paper's other form of the same bound.

    The profile is computed once per digraph and the same object is
    returned on every later call, so callers must not modify it.
    """
    profile = digraph._profile
    if profile is None:
        n = digraph.n
        adj = underlying_simple_graph(digraph)
        min_degree = min(len(neighbors) for neighbors in adj)
        k = n - 1 - min_degree
        dense = 5 * min_degree >= 4 * n + 2
        profile = digraph._profile = DensityProfile(n, min_degree, k, dense)
    return profile


def euler_circuit(digraph):
    """Directed euler circuit by Hierholzer's algorithm.

    Starts at the lowest vertex with an arc and always leaves along the
    lowest unused outgoing half-arc, so the result is canonical.
    """
    if not digraph.is_balanced():
        bad = [v for v in range(digraph.n) if digraph.indeg(v) != digraph.outdeg(v)]
        raise GraphError(f"digraph is not balanced at vertices {bad[:8]}")
    if not digraph.is_connected():
        raise GraphError("digraph is not connected")
    if digraph.m == 0:
        raise GraphError("digraph has no arcs")
    circuits = _euler_circuits(digraph, digraph._out)
    if len(circuits) != 1:
        raise GraphError("euler circuit does not cover every arc")
    return circuits[0]


def _euler_circuits(digraph, out):
    """One euler circuit per weak component of a balanced set of arcs.

    ``out[v]`` lists the set's outgoing half-arcs at v, ascending.  Each
    circuit starts at the lowest vertex with an unused arc, so the
    circuits come in order of their components' lowest vertices, and
    always leaves along the lowest unused outgoing half-arc.
    """
    arcs = digraph.arcs
    next_free = [0] * digraph.n  # index into out[v] of the first unused half-arc
    circuits = []
    for start in range(digraph.n):
        if next_free[start] == len(out[start]):
            continue
        stack = [(start, None)]  # (vertex, arc traversed to reach it)
        arc_seq = []
        while stack:
            v = stack[-1][0]
            outs = out[v]
            i = next_free[v]
            if i < len(outs):
                a = outs[i] >> 1
                next_free[v] = i + 1
                stack.append((arcs[a][1], a))
            else:
                _, a = stack.pop()
                if a is not None:
                    arc_seq.append(a)
        arc_seq.reverse()
        circuits.append(DirectedCircuit(digraph, arc_seq))
    return circuits


class UndirectedGraph:
    """Simple-input undirected multigraph on vertices ``0..n-1``."""

    __slots__ = ("n", "edges", "_incident", "_connected")

    def __init__(self, n, edges):
        try:
            edges = _read_pairs(n, edges, "edge")
        except TypeError as exc:
            raise GraphError(
                f"the vertex count and edge endpoints must be integers: {exc}"
            ) from None
        for e, (u, v) in enumerate(edges):
            if u == v:
                raise GraphError(f"edge {e} is a loop; orientation input must be loop-free")
        self.n = n
        self.edges = edges
        incident = [[] for _ in range(n)]
        for e, (u, v) in enumerate(edges):
            incident[u].append(e)
            incident[v].append(e)
        self._incident = tuple(tuple(es) for es in incident)
        self._connected = None  # filled on first use by is_connected()

    @property
    def m(self):
        return len(self.edges)

    def incident_edges(self, v):
        return self._incident[v]

    def degree(self, v):
        return len(self._incident[v])

    def other_end(self, e, v):
        u, w = self.edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"edge {e} is not incident with vertex {v}")

    def is_connected(self):
        if self._connected is None:
            self._connected = _spans(self.n, self.edges)
        return self._connected


def undirected_euler_circuit(graph):
    """Closed vertex walk using every edge once; lowest-edge-id greedy."""
    if graph.m == 0:
        raise GraphError("graph has no edges")
    odd = [v for v in range(graph.n) if graph.degree(v) % 2 == 1]
    if odd:
        raise GraphError(f"vertices of odd degree: {odd[:8]}")
    if not graph.is_connected():
        raise GraphError("graph is not connected")
    used = [False] * graph.m
    next_free = [0] * graph.n

    def take(v):
        inc = graph.incident_edges(v)
        while next_free[v] < len(inc) and used[inc[next_free[v]]]:
            next_free[v] += 1
        if next_free[v] == len(inc):
            return None
        e = inc[next_free[v]]
        used[e] = True
        return e

    start = min(v for v in range(graph.n) if graph.degree(v) > 0)
    stack = [start]
    walk = []
    while stack:
        v = stack[-1]
        e = take(v)
        if e is None:
            walk.append(stack.pop())
        else:
            stack.append(graph.other_end(e, v))
    walk.reverse()
    if len(walk) != graph.m + 1:
        raise GraphError("euler circuit does not cover every edge")
    return walk


def eulerian_orientation(graph, walks):
    """Orient an even undirected graph along closed walks covering each edge once.

    ``walks`` is a list of closed vertex walks ``[v0, v1, ..., v0]``.  Each
    consecutive pair consumes the lowest-id unused edge joining it.  Returns
    the oriented Digraph (arc id = edge id, directed as traversed) plus the
    walks as a CircuitDecomposition of it.
    """
    digraph, circuits_arcs = _orient(graph, walks)
    return digraph, CircuitDecomposition.from_arc_lists(digraph, circuits_arcs)


def _orient(graph, walks):
    """``eulerian_orientation``'s digraph, with its circuits as arc lists."""
    unused = {}  # per unordered vertex pair, its edges no walk took yet, lowest first
    for e, (u, v) in enumerate(graph.edges):
        unused.setdefault((u, v) if u < v else (v, u), deque()).append(e)
    direction = [None] * graph.m
    circuits_arcs = []
    for w_index, walk in enumerate(_sequence(walks, "the walk list", GraphError)):
        walk = _sequence(walk, f"walk {w_index}", GraphError)
        try:
            check_json_ints((walk,))
        except TypeError as exc:
            raise GraphError(f"walk {w_index} vertices must be integers: {exc}") from None
        if len(walk) < 2 or walk[0] != walk[-1]:
            raise GraphError(f"walk {w_index} is not closed")
        seq = []
        for u, v in zip(walk, walk[1:]):
            edges = unused.get((u, v) if u < v else (v, u))
            if not edges:
                raise GraphError(
                    f"walk {w_index} needs an unused edge between {u} and {v}, none left"
                )
            e = edges.popleft()
            direction[e] = (u, v)
            seq.append(e)
        circuits_arcs.append(seq)
    if None in direction:
        missing = [e for e in range(graph.m) if direction[e] is None]
        raise GraphError(f"edges not covered by any walk: {missing[:8]}")
    return Digraph(graph.n, direction), circuits_arcs
