import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _cycle_sides, flipped_near_triangulation
import z5color
from z5color import gcg, plane_graph
from z5color.families import (
    BrokenWheel,
    Wheel,
    build,
    built_family,
    facial_triangle_property,
    principal_path,
)
from z5color.plane_graph import (
    PlaneNearTriangulation,
    ValidationReport,
    blocks,
    chords,
    cycle_side,
    dart_faces,
    face_vertices,
    faces_of,
    outer_face_index,
    separating_cycles,
    trace_faces,
    validate,
)
from z5color.propcheck import random_near_triangulation, random_triangulation
from z5color.solver import _inner_arc


def nx_face_count(graph):
    """Independent face-count oracle via networkx's planar embedding."""
    g = nx.Graph(list(graph.edges()))
    emb = nx.PlanarEmbedding()
    emb.set_data({v: list(reversed(graph.rotation[v])) for v in range(graph.vertex_count)})
    seen = set()
    count = 0
    for u in range(graph.vertex_count):
        for v in graph.rotation[u]:
            if (u, v) not in seen:
                emb.traverse_face(u, v, mark_half_edges=seen)
                count += 1
    assert g.number_of_edges() == graph.edge_count()
    return count


def octahedron():
    g = nx.Graph()
    for a, b in itertools.combinations(range(6), 2):
        if (a, b) not in [(0, 3), (1, 4), (2, 5)]:
            g.add_edge(a, b)
    ok, emb = nx.check_planarity(g)
    assert ok
    rot = [list(emb.neighbors_cw_order(v)) for v in range(6)]
    from z5color.plane_graph import trace_faces

    outer = [d[0] for d in trace_faces(rot)[0]]
    return PlaneNearTriangulation.from_lists(rot, outer)


def stacked_k4():
    # K4 plus a vertex stacked into the inner face on outer edge 0-1.
    g, _ = build(Wheel(3))
    rot = [list(r) for r in g.rotation] + [[1, 3, 0]]

    def wedge(x, p, q, w):
        i = rot[x].index(p)
        assert rot[x][(i + 1) % len(rot[x])] == q
        rot[x].insert(i + 1, w)

    wedge(1, 3, 0, 4)
    wedge(0, 1, 3, 4)
    wedge(3, 0, 1, 4)
    return PlaneNearTriangulation.from_lists(rot, [0, 1, 2])


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_triangle(k3):
    assert validate(k3[0]).ok


def test_validate_square_without_chord_reports_big_face():
    square = PlaneNearTriangulation.from_lists(
        [[1, 3], [2, 0], [3, 1], [0, 2]], [0, 1, 2, 3]
    )
    report = validate(square)
    assert not report.ok
    assert any("inner face of length 4" in v for v in report.violations)


def test_validate_k4_with_triangle_outer_face_count_oracle():
    g, _ = build(Wheel(3))
    assert validate(g).ok
    assert len(faces_of(g)) == nx_face_count(g) == 4


def test_validate_rejects_degenerate_and_malformed():
    assert not validate(PlaneNearTriangulation.from_lists([[1], [0]], [0, 1])).ok
    loop = PlaneNearTriangulation.from_lists([[0, 1], [0, 2], [1, 0]], [0, 1, 2])
    assert any("loop" in v for v in validate(loop).violations)
    dup = PlaneNearTriangulation.from_lists([[1, 1, 2], [0, 2], [0, 1]], [0, 1, 2])
    assert any("parallel" in v for v in validate(dup).violations)
    asym = PlaneNearTriangulation.from_lists([[1, 2], [0], [0, 1]], [0, 1, 2])
    assert any("asymmetric" in v for v in validate(asym).violations)
    disc = PlaneNearTriangulation.from_lists(
        [[1, 2], [2, 0], [0, 1], [4], [3]], [0, 1, 2]
    )
    assert any("disconnected" in v for v in validate(disc).violations)


def test_validate_rejects_bad_outer_cycle(w5):
    g, _ = w5
    not_cycle = PlaneNearTriangulation(g.vertex_count, g.rotation, (0, 2, 4))
    assert any("not an edge" in v for v in validate(not_cycle).violations)
    # A cycle that does not bound the traced outer face: wrong orientation.
    reversed_outer = PlaneNearTriangulation(
        g.vertex_count, g.rotation, tuple(reversed(g.outer_cycle))
    )
    assert any("does not bound" in v for v in validate(reversed_outer).violations)


FUZZ = settings(derandomize=True, max_examples=200, deadline=None)


@FUZZ
@given(
    st.integers(0, 8),
    st.lists(st.lists(st.integers(-1, 8), max_size=6), max_size=9),
    st.lists(st.integers(-1, 8), max_size=6),
)
def test_validate_reports_on_raw_rotations(n, rotation, outer):
    graph = PlaneNearTriangulation(n, tuple(map(tuple, rotation)), tuple(outer))
    assert isinstance(validate(graph), ValidationReport)


@FUZZ
@given(
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(
            st.sampled_from(("swap", "replace", "outer", "reverse", "count")),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
            st.integers(-1, 12),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_validate_reports_on_mutated_rotations(seed, mutations):
    # Valid rotations with entries swapped or replaced, the outer cycle
    # edited or reversed, or the vertex count changed: a report, never a raise.
    n = 3 + seed % 10
    g = random_near_triangulation(n, 3 + seed % (n - 2), seed)
    rotation = [list(r) for r in g.rotation]
    outer, count = list(g.outer_cycle), n
    for op, i, j, x in mutations:
        row = rotation[i % n]
        if op == "swap" and row:
            a, b = i % len(row), j % len(row)
            row[a], row[b] = row[b], row[a]
        elif op == "replace" and row:
            row[j % len(row)] = x
        elif op == "outer":
            outer[j % len(outer)] = x
        elif op == "reverse":
            outer.reverse()
        elif op == "count":
            count = x
    graph = PlaneNearTriangulation(count, tuple(map(tuple, rotation)), tuple(outer))
    assert isinstance(validate(graph), ValidationReport)


@FUZZ
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_validate_rejects_a_dropped_rotation_entry(pick, i, j):
    members = built_family(8)
    g = members[pick % len(members)][1]
    rotation = [list(r) for r in g.rotation]
    row = rotation[i % g.vertex_count]
    del row[j % len(row)]
    assert not validate(PlaneNearTriangulation.from_lists(rotation, g.outer_cycle)).ok


def test_validate_family_members_and_random_triangulations():
    for d, g, _ in built_family(9):
        assert validate(g).ok, d
    for seed in range(20):
        g = random_triangulation(10, seed)
        assert validate(g).ok
        assert len(faces_of(g)) == g.edge_count() - g.vertex_count + 2


def test_trace_faces_of_a_mapping_matches_the_sequence():
    # Same faces in the same order, under the identity labels and under an
    # order-preserving relabeling to sparse keys.
    for seed in range(10):
        g = random_near_triangulation(12, 3 + seed % 6, seed)
        faces = trace_faces(g.rotation)
        assert trace_faces({v: list(nb) for v, nb in enumerate(g.rotation)}) == faces
        label = {v: 3 * v + 7 for v in range(g.vertex_count)}
        sparse = {label[v]: [label[u] for u in nb] for v, nb in enumerate(g.rotation)}
        assert trace_faces(sparse) == [
            tuple((label[u], label[v]) for u, v in face) for face in faces
        ]


# ---------------------------------------------------------------------------
# chords / separating cycles
# ---------------------------------------------------------------------------


def region_cycles(g, boundary, alive):
    """Both sides of every chord of a region's boundary, and every wedge
    between consecutive boundary neighbors of an interior center, as
    (arc, center) pairs: the cycle is the arc, closed by the center if any."""
    k = len(boundary)
    out = []
    for i in range(k):
        for j in range(i + 2, k):
            if (i, j) != (0, k - 1) and g.has_edge(boundary[i], boundary[j]):
                out.append((boundary[i : j + 1], None))
                out.append((boundary[j:] + boundary[: i + 1], None))
    for c in sorted(alive - set(boundary)):
        nbr = [p for p in range(k) if g.has_edge(c, boundary[p])]
        for t, p in enumerate(nbr if len(nbr) >= 2 else []):
            span = (nbr[(t + 1) % len(nbr)] - p) % k
            out.append(([boundary[(p + s) % k] for s in range(span + 1)], c))
    return out


@pytest.mark.parametrize("seed", range(8))
def test_region_local_inside_matches_host_cycle_sides(seed):
    # The solver reads a region's inside from the inner arcs of its cycle
    # vertices (host rotations between their two cycle neighbors); each must
    # hold only vertices inside the cycle or on it, and its entries off the
    # cycle must be exactly the vertex's neighbors inside, by the dual BFS
    # on the host graph.  This holds in the host and in every region that a
    # chord or a wedge cuts off, at the center of a wedge too, also for a
    # wedge over one boundary edge.
    rng = random.Random(seed)
    n = rng.randint(8, 18)
    g = random_near_triangulation(n, rng.randint(4, min(n, 9)), seed)
    host = list(g.outer_cycle)
    regions = [(host, set(range(n)))]
    for arc, c in region_cycles(g, host, set(range(n))):
        cyc = arc if c is None else arc + [c]
        inside, _, enclosed = _cycle_sides(g, cyc)
        alive = set(cyc) | inside
        # A region is what the solver recurses into: no edge among its
        # vertices lies outside it (a wedge cut off by a chord is not one).
        edges = {frozenset(d) for i in enclosed for d in faces_of(g)[i]}
        if all(frozenset((u, v)) in edges for u in alive for v in g.rotation[u] if v in alive):
            regions.append((cyc, alive))
    checked = 0
    for boundary, alive in regions:
        for arc, c in region_cycles(g, boundary, alive):
            cyc = arc if c is None else arc + [c]
            inside = _cycle_sides(g, cyc)[0]
            for i, v in enumerate(cyc):
                entries = set(_inner_arc(g, cyc, i))
                assert entries <= inside | set(cyc)
                assert entries - set(cyc) == g.adjacency(v) & inside
                checked += 1
    assert len(regions) > 1 and checked > 10 * len(regions)


def test_chords_examples(bw4):
    assert chords(build(Wheel(3))[0]) == []
    assert chords(bw4[0]) == [(0, 2)]
    assert chords(build(Wheel(5))[0]) == []


def test_separating_cycles_wheels_empty():
    for k in (3, 4, 5, 6):
        g, _ = build(Wheel(k))
        assert separating_cycles(g, 3) == []
        assert separating_cycles(g, 4) == []


def test_separating_cycles_octahedron():
    g = octahedron()
    assert validate(g).ok
    assert separating_cycles(g, 3) == []
    # Each equatorial 4-cycle leaves one pole inside and one outside; with one
    # face drawn outer there are exactly three of them.
    quads = separating_cycles(g, 4)
    assert len(quads) == 3
    antipodal = [{0, 3}, {1, 4}, {2, 5}]
    for quad in quads:
        others = set(range(6)) - set(quad)
        assert others in antipodal
        # removal-disconnection oracle
        h = nx.Graph(list(g.edges()))
        h.remove_nodes_from(quad)
        assert not nx.is_connected(h)


def test_separating_cycles_stacked_k4():
    g = stacked_k4()
    assert validate(g).ok
    assert separating_cycles(g, 3) == [(0, 1, 3)]


def test_nonseparating_triangles_are_facial():
    # Wherever no separating triangle exists, every triangle bounds a face.
    for g in (build(Wheel(5))[0], build(Wheel(3))[0], octahedron(), build(BrokenWheel(6))[0]):
        assert separating_cycles(g, 3) == []
        facial = {
            tuple(sorted(d[0] for d in f)) for f in faces_of(g) if len(f) == 3
        }
        facial |= {tuple(sorted(g.outer_cycle))} if len(g.outer_cycle) == 3 else set()
        for tri in itertools.combinations(range(g.vertex_count), 3):
            if all(g.has_edge(a, b) for a, b in itertools.combinations(tri, 2)):
                assert tri in facial


def bfs_separating_triangles(g):
    """Oracle: a triangle separates iff the dual BFS from the outer face
    leaves a vertex inside it and one outside it."""
    faces = faces_of(g)
    face_of_dart, outer_idx = dart_faces(faces), outer_face_index(g)
    found = []
    for tri in itertools.combinations(range(g.vertex_count), 3):
        if all(g.has_edge(a, b) for a, b in itertools.combinations(tri, 2)):
            inside, _ = cycle_side(faces, face_of_dart, outer_idx, tri)
            if inside and len(inside) + 3 < g.vertex_count:
                found.append(tri)
    return found


def test_separating_triangles_match_the_dual_bfs_oracle():
    graphs = [g for _, g, _ in built_family(9)]
    graphs += [
        random_near_triangulation(n, k, seed)
        for seed in range(6)
        for k in range(3, 7)
        for n in (k, k + 5, 25)
    ]
    graphs += [random_triangulation(n, seed) for seed in range(6) for n in (5, 12, 30)]
    graphs += [build(BrokenWheel(3))[0], build(Wheel(3))[0], octahedron(), stacked_k4()]
    separating = 0
    for g in graphs:
        expected = bfs_separating_triangles(g)
        assert sorted(separating_cycles(g, 3)) == expected
        separating += len(expected)
    assert len(graphs) > 200 and separating > 100


def traced_separating_triangles(g):
    """Oracle: a triangle separates iff its vertex set is not that of a
    traced 3-face (the outer face included)."""
    facial = {frozenset(face_vertices(f)) for f in faces_of(g) if len(f) == 3}
    return [
        tri
        for tri in itertools.combinations(range(g.vertex_count), 3)
        if all(g.has_edge(a, b) for a, b in itertools.combinations(tri, 2))
        and frozenset(tri) not in facial
    ]


def test_separating_triangles_match_the_traced_faces():
    rng = random.Random(20261019)
    stacked = [random_triangulation(n, seed) for seed in range(8) for n in (4, 9, 16, 30)]
    flipped = [flipped_near_triangulation(g, rng, 3 * g.vertex_count) for g in stacked]
    flipped += [
        flipped_near_triangulation(random_near_triangulation(n, k, seed), rng, 2 * n)
        for seed in range(4)
        for k in (3, 5)
        for n in (k + 4, 20)
    ]
    graphs = stacked + flipped + [g for _, g, _ in built_family(9)]
    separating = 0
    for g in graphs:
        expected = traced_separating_triangles(g)
        assert separating_cycles(g, 3) == expected
        separating += len(expected)
    assert sum(h != g for h, g in zip(flipped, stacked)) > 20
    assert separating > 100


def test_each_face_query_traces_the_graph_once(monkeypatch):
    # Traced faces are not cached: a query that needs them traces once and
    # reads the outer face from those same faces.
    _, g, _ = next(m for m in built_family(8) if separating_cycles(m[1], 4))
    text, path = gcg.write_gcg(g), principal_path(g)
    copy = PlaneNearTriangulation(g.vertex_count, g.rotation, g.outer_cycle)
    assert copy == g and hash(copy) == hash(g)
    assert hash(g) == hash((g.vertex_count, g.rotation, g.outer_cycle))
    traced = []

    def counted(rotation):
        traced.append(rotation)
        return trace_faces(rotation)

    monkeypatch.setattr(plane_graph, "trace_faces", counted)
    queries = {
        "validate": lambda: validate(g).ok,
        "parse_gcg miss": lambda: gcg._graph.cache_clear() or gcg.parse_gcg(text).graph == g,
        "facial_triangle_property": lambda: facial_triangle_property(g, path),
        "separating_cycles(g, 4)": lambda: bool(separating_cycles(g, 4)),
    }
    for name, query in queries.items():
        traced.clear()
        assert query(), name
        assert traced == [g.rotation], name
    traced.clear()
    assert gcg.parse_gcg(text).graph == g and traced == []  # a cache hit traces nothing


def test_separating_triangles_are_found_without_a_dual_bfs(monkeypatch):
    def no_bfs(*args):
        raise AssertionError("cycle_side called for a triangle")

    graphs = [random_triangulation(20, seed) for seed in range(3)] + [stacked_k4()]
    expected = [separating_cycles(g, 3) for g in graphs]
    monkeypatch.setattr(plane_graph, "cycle_side", no_bfs)
    assert [separating_cycles(g, 3) for g in graphs] == expected
    assert all(expected)


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


def test_blocks_path_two_edge_blocks():
    out = blocks([[1], [0, 2], [1]])
    assert sorted(b.vertices for b in out) == [(0, 1), (1, 2)]


def test_blocks_two_connected_graph_is_one_block(bw4):
    g, _ = bw4
    out = blocks(g)
    assert len(out) == 1
    assert out[0].vertices == (0, 1, 2, 3)
    assert len(out[0].edges) == g.edge_count()


def test_blocks_two_triangles_sharing_a_vertex():
    adj = [[1, 2], [0, 2], [0, 1, 3, 4], [2, 4], [2, 3]]
    out = blocks(adj)
    assert sorted(b.vertices for b in out) == [(0, 1, 2), (2, 3, 4)]


def test_blocks_isolated_vertex_and_random_agree_with_networkx(rng):
    out = blocks([[], [2], [1]])
    assert sorted(b.vertices for b in out) == [(0,), (1, 2)]
    for _ in range(50):
        n = rng.randint(2, 9)
        g = nx.gnp_random_graph(n, 0.35, seed=rng.randrange(10**6))
        adj = [sorted(g.neighbors(v)) for v in range(n)]
        for row in adj:
            rng.shuffle(row)
        pieces = blocks(adj)
        mine = sorted(
            b.vertices for b in pieces if len(b.vertices) > 1
        )
        theirs = sorted(
            tuple(sorted(c)) for c in nx.biconnected_components(g)
        )
        assert mine == theirs
        # In reverse emission order each block meets the earlier blocks of
        # its component in exactly one vertex, the first block in none.
        component = {
            v: i for i, comp in enumerate(nx.connected_components(g)) for v in comp
        }
        seen, started = set(), set()
        for b in reversed(pieces):
            comp = component[b.vertices[0]]
            assert len(seen & set(b.vertices)) == (1 if comp in started else 0)
            seen.update(b.vertices)
            started.add(comp)


# ---------------------------------------------------------------------------
# package surface
# ---------------------------------------------------------------------------


def test_package_surface_is_pinned():
    assert all(hasattr(z5color, name) for name in z5color.__all__)
    assert z5color.__all__ == [
        "Block",
        "ColorSystem",
        "Coloring",
        "GroupColorError",
        "PhiAssignment",
        "PlaneGraphError",
        "PlaneNearTriangulation",
        "ValidationReport",
        "blocks",
        "chords",
        "is_proper",
        "normalize_star",
        "separating_cycles",
        "shift_phi",
        "tau",
        "tau_set",
        "triangle_consistent",
        "validate",
    ]
