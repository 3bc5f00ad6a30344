"""Plane near-triangulations as explicit rotation systems.

A near-triangulation is a connected simple plane graph all of whose inner
faces are triangles.  The embedding is given, not recomputed: each vertex
stores its neighbors in clockwise order, and a distinguished outer cycle
names the unbounded face.  Faces are recovered by dart tracing: the dart
after (u, v) is (v, w) where w follows u in the rotation at v.  Under this
convention the outer cycle, read clockwise as given, is itself one traced
orbit; all other orbits are the inner faces, traversed counterclockwise.

Vertices are dense indices 0..n-1.  All structural queries the extension
arguments need live here: chords, separating short cycles and the block
decomposition.  Separating triangles and 4-cycles are decided from the
rotations alone, by one rule (``separating_cycles``), with no face traced.
The solver does not trace its shrinking sub-regions either: a 2-extension
chord split needs no side at all (the boundary is relinked), a short-cycle
region is read from the rotations of its cycle's vertices, and faces are
traced (``trace_faces``, which also takes a ``{vertex: neighbors}``
sub-rotation) only for the boundary of an interior block.  Traced faces are
not cached: ``validate`` traces the graph once and reads the outer face
from those same faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator, Mapping, Sequence

Dart = tuple[int, int]


class PlaneGraphError(ValueError):
    """Raised for structurally impossible requests (not mere invalidity)."""


@dataclass(frozen=True)
class PlaneNearTriangulation:
    """Rotation system plus outer cycle; immutable and hashable.

    Construction does not validate (``validate`` reports every violation);
    the solver and family builders only ever construct valid instances.
    """

    vertex_count: int
    rotation: tuple[tuple[int, ...], ...]
    outer_cycle: tuple[int, ...]

    @cached_property
    def _adj(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(nb) for nb in self.rotation)

    @cached_property
    def _outer_set(self) -> frozenset[int]:
        return frozenset(self.outer_cycle)

    @classmethod
    def from_lists(
        cls, rotation: Sequence[Sequence[int]], outer_cycle: Sequence[int]
    ) -> PlaneNearTriangulation:
        return cls(
            len(rotation),
            tuple(tuple(nb) for nb in rotation),
            tuple(outer_cycle),
        )

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.rotation[v]

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def adjacency(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.vertex_count):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def edge_count(self) -> int:
        return sum(map(len, self.rotation)) // 2

    def is_outer(self, v: int) -> bool:
        return v in self._outer_set

    def outer_set(self) -> frozenset[int]:
        return self._outer_set

    def interior_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.vertex_count) if v not in self._outer_set)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class Block:
    """One block of the block decomposition (2-connected component,
    bridge, or isolated vertex)."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# Face tracing
# ---------------------------------------------------------------------------


def trace_faces(
    rotation: Sequence[Sequence[int]] | Mapping[int, Sequence[int]]
) -> list[tuple[Dart, ...]]:
    """All dart orbits of the rotation system, each orbit one face.

    ``rotation`` is indexed by vertex: a sequence over 0..n-1, or a
    ``{vertex: neighbors}`` mapping over any labels (a sub-rotation).  Faces
    come in order of their first dart: vertices in index (resp. key) order,
    each vertex's darts in rotation order."""
    vertices = rotation.keys() if isinstance(rotation, Mapping) else range(len(rotation))
    position = {v: {u: i for i, u in enumerate(rotation[v])} for v in vertices}
    seen: set[Dart] = set()
    faces: list[tuple[Dart, ...]] = []
    for v0 in vertices:
        for u0 in rotation[v0]:
            if (v0, u0) in seen:
                continue
            orbit: list[Dart] = []
            dart = (v0, u0)
            while dart not in seen:
                seen.add(dart)
                orbit.append(dart)
                u, v = dart
                nb = rotation[v]
                dart = (v, nb[(position[v][u] + 1) % len(nb)])
            faces.append(tuple(orbit))
    return faces


def faces_of(graph: PlaneNearTriangulation) -> tuple[tuple[Dart, ...], ...]:
    """The graph's traced faces (``trace_faces``), traced on every call."""
    return tuple(trace_faces(graph.rotation))


def face_vertices(face: Sequence[Dart]) -> tuple[int, ...]:
    return tuple(d[0] for d in face)


def linear_from(seq: Sequence[int], start: int) -> list[int]:
    """The cyclic sequence read from ``start`` (rotate-to-start)."""
    i = seq.index(start)
    return [*seq[i:], *seq[:i]]


def _cyclic_equal(a: Sequence[int], b: Sequence[int]) -> bool:
    if len(a) != len(b):
        return False
    if not a:
        return True
    try:
        start = b.index(a[0])
    except ValueError:
        return False
    n = len(a)
    return all(a[i] == b[(start + i) % n] for i in range(n))


def outer_face_index(graph: PlaneNearTriangulation) -> int | None:
    """Index of the first traced orbit that reads the outer cycle (up to
    rotation), or None."""
    return _outer_index(graph, faces_of(graph))


def _outer_index(
    graph: PlaneNearTriangulation, faces: Sequence[Sequence[Dart]]
) -> int | None:
    """``outer_face_index`` among the graph's already traced ``faces``."""
    oc = graph.outer_cycle
    for i, face in enumerate(faces):
        if len(face) == len(oc) and _cyclic_equal(oc, face_vertices(face)):
            return i
    return None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate(graph: PlaneNearTriangulation) -> ValidationReport:
    """Report every violated near-triangulation invariant (empty = valid)."""
    problems: list[str] = []
    n = graph.vertex_count
    if n <= 2:
        return ValidationReport((f"degenerate: {n} vertices, no outer cycle exists",))
    if len(graph.rotation) != n:
        return ValidationReport(
            (f"rotation has {len(graph.rotation)} entries for {n} vertices",)
        )

    for v, nb in enumerate(graph.rotation):
        if any(not 0 <= u < n for u in nb):
            problems.append(f"rotation at {v} mentions an out-of-range vertex")
        if v in nb:
            problems.append(f"loop at {v}")
        if len(set(nb)) != len(nb):
            problems.append(f"repeated neighbor in rotation at {v} (parallel edge)")
    if problems:
        return ValidationReport(tuple(problems))

    for v in range(n):
        for u in graph.rotation[v]:
            if v not in graph._adj[u]:
                problems.append(f"asymmetric adjacency {v}-{u}")
    if problems:
        return ValidationReport(tuple(problems))

    # Connectivity.
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in graph.rotation[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != n:
        problems.append(f"graph is disconnected ({len(seen)} of {n} reachable)")
        return ValidationReport(tuple(problems))

    # Outer cycle sanity.
    oc = graph.outer_cycle
    if len(oc) < 3:
        problems.append("outer cycle shorter than 3")
    elif len(set(oc)) != len(oc):
        problems.append("outer cycle repeats a vertex")
    elif any(not 0 <= v < n for v in oc):
        problems.append("outer cycle mentions an out-of-range vertex")
    else:
        for i, v in enumerate(oc):
            u = oc[(i + 1) % len(oc)]
            if not graph.has_edge(v, u):
                problems.append(f"outer cycle step {v}-{u} is not an edge")
    if problems:
        return ValidationReport(tuple(problems))

    # Euler check: the rotation embeds in the plane iff face tracing yields
    # exactly E - V + 2 orbits.
    faces = faces_of(graph)
    expected = graph.edge_count() - n + 2
    if len(faces) != expected:
        problems.append(
            f"face tracing yields {len(faces)} faces, planarity needs {expected}"
        )
        return ValidationReport(tuple(problems))

    outer_idx = _outer_index(graph, faces)
    if outer_idx is None:
        problems.append("outer cycle does not bound a traced face (clockwise order)")
        return ValidationReport(tuple(problems))

    for i, face in enumerate(faces):
        if i != outer_idx and len(face) != 3:
            verts = face_vertices(face)
            problems.append(f"inner face of length {len(face)}: {verts}")
    return ValidationReport(tuple(problems))


# ---------------------------------------------------------------------------
# Structure queries
# ---------------------------------------------------------------------------


def chords(graph: PlaneNearTriangulation) -> list[tuple[int, int]]:
    """Edges joining two non-consecutive outer-cycle vertices."""
    oc = graph.outer_cycle
    k = len(oc)
    pos = {v: i for i, v in enumerate(oc)}
    out = []
    for u, v in graph.edges():
        if u in pos and v in pos:
            gap = abs(pos[u] - pos[v])
            if gap not in (1, k - 1):
                out.append((u, v))
    return out


def separating_cycles(graph: PlaneNearTriangulation, length: int) -> list[tuple[int, ...]]:
    """All cycles of the given length (3 or 4) with vertices strictly on
    both sides; the outer cycle itself never counts.  Each comes once, from
    its least vertex: a triangle in increasing order, a 4-cycle (a, b, c, d)
    with b < d.

    One rule decides both lengths from the rotations alone.  Walk the cycle
    one way: the faces on its darts all lie on one side, and that side
    holds no vertex exactly when every dart's face turns to a cycle vertex
    (the dart after (a, b) in its face is (b, x), x after a in the rotation
    at b).  If the side is bare, its faces have only cycle vertices, so
    every turn lands on the cycle.  Conversely, each such turn goes on
    along the walk or, on a 4-cycle, across the side on a diagonal, and two
    diagonals on one side would cross.  With no diagonal, consecutive darts
    share their face, so the side is one face.  With one, the turns close a
    triangle on each side of it, since a face passes each vertex once
    (inner faces are triangles and the outer cycle is simple).  So the
    cycle separates when neither walk is bare; the outer cycle bounds the
    outer face, so it never counts."""
    if length not in (3, 4):
        raise PlaneGraphError("only lengths 3 and 4 are supported")
    n, rot, adj = graph.vertex_count, graph.rotation, graph._adj

    def bare(cycle: tuple[int, ...]) -> bool:
        """Every dart's face on this walk turns to a cycle vertex."""
        a = cycle[-1]
        for b in cycle:
            nb = rot[b]
            if nb[(nb.index(a) + 1) % len(nb)] not in cycle:
                return False
            a = b
        return True

    if length == 3:
        cycles = (
            (u, v, w)
            for u in range(n)
            for v in adj[u]
            if v > u
            for w in adj[u]
            if w > v and w in adj[v]
        )
    else:
        cycles = (
            (a, b, c, d)
            for a in range(n)
            for b, d in combinations(sorted(x for x in adj[a] if x > a), 2)
            for c in adj[b]
            if c > a and c != d and c in adj[d]
        )
    return [c for c in cycles if not bare(c) and not bare(c[::-1])]


def blocks(graph) -> list[Block]:
    """Standard block decomposition of any simple graph (adjacency lists or
    a near-triangulation).  Cut vertices appear in multiple blocks; isolated
    vertices form single-vertex blocks.  The lowpoint search emits each block
    after every block hanging below it, so in reverse order each block meets
    the earlier blocks of its component in exactly one vertex (none for the
    first)."""
    if isinstance(graph, PlaneNearTriangulation):
        adj = [list(nb) for nb in graph.rotation]
    else:
        adj = [list(nb) for nb in graph]
    n = len(adj)
    index = [0] * n  # discovery order, 0 = unvisited
    low = [0] * n
    counter = 1
    edge_stack: list[tuple[int, int]] = []
    out: list[Block] = []

    def flush(until: tuple[int, int]) -> None:
        comp: list[tuple[int, int]] = []
        while True:
            e = edge_stack.pop()
            comp.append(e)
            if e == until:
                break
        verts = sorted({v for e in comp for v in e})
        edges = sorted({(min(e), max(e)) for e in comp})
        out.append(Block(tuple(verts), tuple(edges)))

    for root in range(n):
        if index[root]:
            continue
        if not adj[root]:
            out.append(Block((root,), ()))
            index[root] = counter
            counter += 1
            continue
        index[root] = low[root] = counter
        counter += 1
        work: list[tuple[int, int, int]] = [(root, -1, 0)]
        while work:
            v, parent, ptr = work.pop()
            descended = False
            while ptr < len(adj[v]):
                u = adj[v][ptr]
                ptr += 1
                if not index[u]:
                    index[u] = low[u] = counter
                    counter += 1
                    edge_stack.append((v, u))
                    work.append((v, parent, ptr))
                    work.append((u, v, 0))
                    descended = True
                    break
                if u != parent and index[u] < index[v]:
                    edge_stack.append((v, u))
                    low[v] = min(low[v], index[u])
            if descended:
                continue
            if parent != -1:
                low[parent] = min(low[parent], low[v])
                if low[v] >= index[parent]:
                    flush((parent, v))
    return out
