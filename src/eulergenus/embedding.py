"""Rotation systems on half-arcs and two-colored face tracing.

A rotation at a vertex is the clockwise cyclic order of its half-arcs.  An
embedding is admissible for face two-coloring when every rotation alternates
outgoing and incoming half-arcs.  Both face colors traverse arcs forward:

* a proface arriving on incoming half ``i`` departs on the half-arc
  clockwise-before ``i``;
* an antiface arriving on ``i`` departs on the half-arc clockwise-after ``i``.

With alternation these departures are outgoing, so each color induces a
permutation of the outgoing half-arcs whose orbits are the faces.

A block is an (outgoing, incoming) pair of consecutive half-arcs.  A
proface departs inside the block of its arrival, the pair that sits
clockwise-before it, so profaces depend only on how half-arcs pair into
blocks.  With the profaces fixed to a circuit decomposition the pairing
is fixed too (``decomposition_blocks``), and an embedding is just the
cyclic order of its blocks at each vertex: all it stores is ``halves``,
the outgoing and the incoming halves of its blocks.  This module alone
knows the rotation format.  ``_blocks`` splits each rotation into halves
once, when an embedding is built from rotations, and ``rotations`` writes
them back through ``flat_rotation``, each from its first outgoing half,
also where the given rotation started on an incoming half.
``embed_from_decomposition`` builds the halves straight from the
circuits, and ``_check_halves`` checks them, then and in
``verify_embedding``.  ``profaces_are`` and ``successors`` (the map a
face follows from arc to arc) read them.

A surgery or an oracle state makes its child with ``_with_halves``,
which checks the new halves at one vertex and shares every other
vertex's; ``with_rotation`` reads the one rotation it replaces and hands
its halves on.  The child is traced like any other embedding, so a
surgery's postconditions are checked against faces that owe nothing to
its parent's.

The full tracer walks ``successors``: one step of a face from outgoing
half h is ``leave[h >> 1]``.  Orbits are marked in a bytearray, and a
traced face holds only its walk.  Its corners and its vertex set are
built from the walk when first asked for: the touch graph reads the
antifaces' vertex sets, while profaces pay for neither.  No face caches
its arcs as a set: a surgery compares the walks it predicts with the
walks traced.
"""

from itertools import chain

from .digraph import _sequence, check_json_ints, least_first
from .errors import EmbeddingError, GraphError


class FaceWalk:
    """Closed face boundary, stored as outgoing half-arc ids in canonical rotation.

    ``corners[j]`` is the vertex the face passes between arriving on arc
    ``walk[j]`` and departing on ``walk[j + 1]``.  The corners and the
    vertex set are built from the walk when first read; the walk is all
    that is stored.
    """

    __slots__ = ("digraph", "walk", "color", "_corners", "_vset")

    def __init__(self, digraph, walk, color):
        self.digraph = digraph
        self.walk = least_first(tuple(walk))
        self.color = color
        self._corners = self._vset = None

    @property
    def key(self):
        """The least outgoing half-arc on the walk, which starts it.

        Antifaces share no arc, so their keys are distinct and order them as
        their walks do.  A key names the same face only while no surgery
        touches it: a merged face keeps the least key of its inputs.
        """
        return self.walk[0]

    def __len__(self):
        return len(self.walk)

    def arcs(self):
        return tuple(h >> 1 for h in self.walk)

    @property
    def corners(self):
        corners = self._corners
        if corners is None:
            arcs = self.digraph.arcs
            corners = self._corners = tuple([arcs[h >> 1][1] for h in self.walk])
        return corners

    def vertex_set(self):
        vset = self._vset
        if vset is None:
            vset = self._vset = frozenset(self.corners)
        return vset

    def visits(self, v):
        return v in self.vertex_set()

    def corner_positions(self, v):
        return tuple(j for j, c in enumerate(self.corners) if c == v)

    def alternation_positions(self, x, y):
        """Four corner positions in cyclic order alternating x, y, x, y.

        Returns None when the occurrences of x and y do not interlace on
        this face.  Runs of equal labels count once; the first position of
        each of four consecutive label blocks is returned, starting at an
        x block.
        """
        labeled = [(j, c) for j, c in enumerate(self.corners) if c == x or c == y]
        if not labeled:
            return None
        blocks = []
        for j, label in labeled:
            if blocks and blocks[-1][0] == label:
                continue
            blocks.append((label, j))
        if len(blocks) > 1 and blocks[0][0] == blocks[-1][0]:
            blocks.pop()  # cyclic wrap merges the end run into the start run
        if len(blocks) < 4:
            return None
        start = next(i for i, (label, _) in enumerate(blocks) if label == x)
        picked = [blocks[(start + t) % len(blocks)][1] for t in range(4)]
        return tuple(picked)

    def __eq__(self, other):
        return (
            isinstance(other, FaceWalk)
            and self.color == other.color
            and self.walk == other.walk
        )

    def __hash__(self):
        return hash((self.color, self.walk))

    def __repr__(self):
        return f"FaceWalk({self.color}, arcs={list(self.arcs())})"


class OrientedDirectedEmbedding:
    """Immutable rotation system over a digraph's half-arcs.

    ``halves[v]`` is the rotation at v read as ``(outgoing, incoming)``:
    block i is ``(outgoing[i], incoming[i])``, counted clockwise from the
    rotation's first outgoing half, and is all that is stored per vertex.
    ``_faces`` is None until ``_trace`` traces the halves on first read.
    """

    __slots__ = ("digraph", "halves", "_faces", "_antiface_index")

    def __init__(self, digraph, rotations):
        try:
            self._read(digraph, rotations)
        except TypeError as exc:
            raise EmbeddingError(f"rotation half-arcs must be integers: {exc}") from None

    def _read(self, digraph, rotations):
        """Fill the slots from ``rotations``, read one rotation at a time by
        ``_blocks``, so no copy of them all is held."""
        rotations = _sequence(rotations, "the rotation list")
        if len(rotations) != digraph.n:
            raise EmbeddingError(
                f"expected {digraph.n} rotations, got {len(rotations)}"
            )
        self._fill(digraph, tuple([_check_halves(digraph, v, *_blocks(digraph, v, rot))
                                   for v, rot in enumerate(rotations)]))

    def _fill(self, digraph, halves):
        """Set the slots to already checked ``halves``, with no face traced."""
        self.digraph = digraph
        self.halves = halves
        self._faces = None
        self._antiface_index = None
        return self

    @property
    def rotations(self):
        """Each rotation, built anew from its blocks on every read."""
        return tuple(flat_rotation(zip(*pair)) for pair in self.halves)

    def next_cw(self, h):
        rot = flat_rotation(self.blocks_at(self.digraph.half_arc_vertex(h)))
        return rot[(rot.index(h) + 1) % len(rot)]

    def prev_cw(self, h):
        rot = flat_rotation(self.blocks_at(self.digraph.half_arc_vertex(h)))
        return rot[rot.index(h) - 1]

    def blocks_at(self, v):
        """Rotation at v as consecutive (outgoing, incoming) pairs, clockwise
        from its first outgoing half."""
        return tuple(zip(*self.halves[v]))

    def _trace(self):
        if self._faces is not None:
            return self._faces
        digraph = self.digraph
        m = digraph.m
        size = 2 * m
        families = []
        for color in ("pro", "anti"):
            leave = successors(self.halves, m, color)
            seen = bytearray(size)
            faces = []
            for h0 in range(0, size, 2):
                if seen[h0]:
                    continue
                orbit = []
                h = h0
                while not seen[h]:
                    seen[h] = 1
                    orbit.append(h)
                    h = leave[h >> 1]
                if h != h0:
                    raise EmbeddingError("face tracing did not close an orbit")
                faces.append(FaceWalk(digraph, orbit, color))
            # each orbit starts at its least arc and orbits are found in
            # ascending order of it, so the faces are already sorted by walk
            families.append(tuple(faces))
        self._faces = tuple(families)
        return self._faces

    @property
    def profaces(self):
        return self._trace()[0]

    @property
    def antifaces(self):
        return self._trace()[1]

    def profaces_are(self, decomposition):
        """True exactly when the profaces are the circuits of ``decomposition``:
        when every incoming half sits in a block with the outgoing half its
        circuit continues to.  O(m) over the halves; no face is traced."""
        if decomposition.digraph != self.digraph:
            return False
        fw = decomposition.fw
        return all(tuple(map(fw.__getitem__, incoming)) == outgoing
                   for outgoing, incoming in self.halves)

    def antiface_index(self):
        """``(faces, membership)``: antiface key to face, and vertex to the
        ascending keys of its antifaces; built once, in one pass."""
        index = self._antiface_index
        if index is None:
            faces = {}
            membership = {}
            for face in self.antifaces:
                key = face.walk[0]
                faces[key] = face
                for v in face.vertex_set():
                    membership.setdefault(v, []).append(key)
            index = self._antiface_index = (
                faces, {v: tuple(keys) for v, keys in membership.items()}
            )
        return index

    def antiface(self, key):
        """The antiface whose least outgoing half-arc is ``key``."""
        face = self.antiface_index()[0].get(key)
        if face is None:
            raise EmbeddingError(f"face with key {key} is not an antiface of this embedding")
        return face

    def own_antiface(self, face):
        """This embedding's antiface equal to ``face``; raises EmbeddingError
        for a proface or a face a surgery has since replaced."""
        found = self.antiface_index()[0].get(face.key)
        if found is not face and found != face:
            raise EmbeddingError(f"face with key {face.key} is not an antiface of this embedding")
        return found

    def antiface_count(self):
        return len(self.antifaces)

    def face_count(self):
        pro, anti = self._trace()
        return len(pro) + len(anti)

    def with_rotation(self, v, new_rotation):
        """This embedding with the rotation at v replaced.

        Only the new rotation is read; every other vertex's halves are
        shared.  The child's faces are traced in full when first read.
        """
        if type(v) is not int or not 0 <= v < self.digraph.n:
            raise EmbeddingError(f"vertex {v!r} is outside 0..{self.digraph.n - 1}")
        try:
            halves = _blocks(self.digraph, v, new_rotation)
        except TypeError as exc:
            raise EmbeddingError(f"rotation half-arcs must be integers: {exc}") from None
        return self._with_halves(v, *halves)

    def _with_halves(self, v, outgoing, incoming):
        """This embedding with the blocks at v replaced by ``outgoing`` and
        ``incoming``, checked by ``_check_halves``; every other vertex's
        halves are shared, and the child's faces are traced when first read."""
        halves = self.halves
        return OrientedDirectedEmbedding.__new__(OrientedDirectedEmbedding)._fill(
            self.digraph,
            halves[:v] + (_check_halves(self.digraph, v, outgoing, incoming),) + halves[v + 1:])

    def to_json_dict(self):
        return {"rotations": [list(rot) for rot in self.rotations]}

    @classmethod
    def from_json_dict(cls, digraph, data):
        embedding = cls.__new__(cls)
        try:
            embedding._read(digraph, data["rotations"])
        except (KeyError, TypeError) as exc:
            raise EmbeddingError(f"bad embedding JSON: {exc}") from exc
        return embedding

    def __eq__(self, other):
        return (
            isinstance(other, OrientedDirectedEmbedding)
            and self.digraph == other.digraph
            and self.halves == other.halves
        )

    def __hash__(self):
        return hash(self.halves)

    def __repr__(self):
        return f"OrientedDirectedEmbedding(n={self.digraph.n}, m={self.digraph.m})"


class _RotationFault(EmbeddingError):
    """A rotation that breaks the rule ``check`` names in a verification."""

    def __init__(self, check, message):
        super().__init__(message)
        self.check = check


def _blocks(digraph, v, rotation):
    """``(outgoing, incoming)``: the halves of the rotation's blocks at v.

    The reader of one rotation: it copies the rotation, checks that its
    items are ints (TypeError naming the first that is not) and splits it.
    Block i is ``(outgoing[i], incoming[i])``, counted clockwise from the
    rotation's first outgoing half; an empty rotation has no blocks.
    Its callers check them with ``_check_halves``.
    """
    try:
        rotation = tuple(rotation)
    except TypeError:
        raise TypeError(f"the rotation at vertex {v} is {rotation!r}, not a sequence") from None
    check_json_ints((rotation,))
    turned = rotation[1:] + rotation[:1] if rotation and rotation[0] & 1 else rotation
    return turned[0::2], turned[1::2]


def _check_halves(digraph, v, outgoing, incoming):
    """``(outgoing, incoming)`` when the blocks at v hold a permutation of
    v's half-arcs that alternates; otherwise raise ``_RotationFault`` for
    the first of those two rules they break."""
    # exactly the alternating permutations hold v's outgoing halves at the
    # even places and its incoming ones at the odd places
    if (len(outgoing) == len(incoming)
            and tuple(sorted(outgoing)) == digraph.out_half_arcs(v)
            and tuple(sorted(incoming)) == digraph.in_half_arcs(v)):
        return outgoing, incoming
    if tuple(sorted(outgoing + incoming)) != digraph.incident_half_arcs(v):
        raise _RotationFault(
            "rotation-structure",
            f"rotation at vertex {v} is not a permutation of its half-arcs",
        )
    raise _RotationFault("alternation", f"rotation at vertex {v} does not alternate")


def successors(halves, m, color):
    """Per arc, the outgoing half-arc on which a face of ``color`` leaves
    the arc's head.

    ``halves`` holds each vertex's blocks as ``(outgoing, incoming)``.  A
    proface leaves on its own block's outgoing half, an antiface on the
    next block's.
    """
    leave = [0] * m
    for outgoing, incoming in halves:
        if color == "anti":
            outgoing = outgoing[1:] + outgoing[:1]
        for h, g in zip(incoming, outgoing):
            leave[h >> 1] = g
    return leave


def flat_rotation(blocks):
    """The rotation laying out (outgoing, incoming) blocks in order."""
    return tuple(chain.from_iterable(blocks))


def decomposition_blocks(digraph, decomposition):
    """Per vertex, the blocks whose pairing the circuits fix: each incoming
    half-arc, ascending, with the outgoing half its circuit continues to."""
    fw = decomposition.fw
    return [[(fw[h], h) for h in digraph.in_half_arcs(v)] for v in range(digraph.n)]


def embed_from_decomposition(digraph, decomposition):
    """Canonical embedding whose profaces are exactly the given circuits.

    At each vertex the incoming half-arcs are taken ascending and each is
    preceded by the outgoing half-arc its circuit continues to, so every
    circuit closes up as one proface.
    """
    if decomposition.digraph != digraph:
        raise GraphError("decomposition belongs to a different digraph")
    fw = decomposition.fw
    halves = []
    for v in range(digraph.n):
        incoming = digraph.in_half_arcs(v)
        halves.append(_check_halves(digraph, v, tuple([fw[h] for h in incoming]), incoming))
    return OrientedDirectedEmbedding.__new__(OrientedDirectedEmbedding)._fill(
        digraph, tuple(halves))


def euler_genus(embedding):
    """Genus of the closed orientable surface induced by the embedding."""
    digraph = embedding.digraph
    if not digraph.is_connected():
        raise GraphError("genus is defined for connected digraphs only")
    chi = digraph.n - digraph.m + embedding.face_count()
    gamma = 2 - chi
    if gamma % 2 != 0:
        raise EmbeddingError(f"euler genus {gamma} is odd; embedding is inconsistent")
    return gamma // 2


class VerificationReport:
    """Itemized result of checking an embedding against its contract."""

    __slots__ = ("failures", "proface_count", "antiface_count")

    def __init__(self, failures, proface_count=None, antiface_count=None):
        self.failures = tuple(failures)
        self.proface_count = proface_count
        self.antiface_count = antiface_count

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        if self.ok:
            return (
                f"ok: {self.proface_count} profaces, "
                f"{self.antiface_count} antifaces"
            )
        lines = [f"{check}: {detail}" for check, detail in self.failures]
        return "FAILED\n" + "\n".join(lines)

    def __repr__(self):
        return f"VerificationReport(ok={self.ok}, failures={len(self.failures)})"


def verify_embedding(embedding, decomposition=None):
    """Check structural validity, face coverage, proface identity, and parity."""
    failures = []
    digraph = embedding.digraph
    if len(embedding.halves) != digraph.n:
        failures.append(("rotation-structure",
                         f"expected {digraph.n} rotations, got {len(embedding.halves)}"))
        return VerificationReport(failures)
    for v, (outgoing, incoming) in enumerate(embedding.halves):
        try:
            _check_halves(digraph, v, outgoing, incoming)
        except _RotationFault as fault:
            failures.append((fault.check, str(fault)))
    if failures:
        return VerificationReport(failures)

    profaces, antifaces = embedding._trace()
    outgoing = set(range(0, 2 * digraph.m, 2))
    for color, faces in (("pro", profaces), ("anti", antifaces)):
        covered = list(chain.from_iterable(f.walk for f in faces))
        # m arcs whose set is every outgoing half: each appears exactly once
        if len(covered) != digraph.m or set(covered) != outgoing:
            failures.append(
                ("arc-coverage", f"{color}faces do not cover each arc exactly once")
            )

    if decomposition is not None and not embedding.profaces_are(decomposition):
        extra = sorted({f.arcs() for f in profaces}
                       - {c.canonical() for c in decomposition.circuits})
        failures.append(
            ("profaces-match", f"profaces differ from the given circuits, e.g. {extra[:2]}")
        )

    # an odd euler genus 2 - (n - m + P + A) is this same parity fault
    expected_parity = (digraph.n + digraph.m + len(profaces)) % 2
    if len(antifaces) % 2 != expected_parity:
        failures.append(
            (
                "parity",
                f"{len(antifaces)} antifaces has wrong parity for "
                f"n={digraph.n}, m={digraph.m}, profaces={len(profaces)}",
            )
        )

    return VerificationReport(failures, len(profaces), len(antifaces))
