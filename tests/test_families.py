import dataclasses
import gc
import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cpu_time_limit, embedding_signature, principal_isomorphic
from z5color import families
from z5color.families import (
    BrokenWheel,
    FamilyError,
    Glue,
    InsertWheel,
    PrincipalPath,
    Wheel,
    _members_of_size,
    build,
    build_wheel_string,
    built_family,
    descriptor_size,
    enumerate_family,
    facial_triangle_property,
    family_members,
    is_multi_wheel_descriptor,
    parse_sexpr,
    parse_sexprs,
    recognize_generalized_multi_wheel,
    to_sexpr,
)
from z5color.group_color import ColorSystem, PhiAssignment
from z5color.plane_graph import PlaneNearTriangulation, validate
from z5color.propcheck import replay
from z5color.solver import lemma1_alpha


def icosahedron_minus_vertex():
    """Delete one icosahedron vertex; its link becomes the outer 5-cycle."""
    import networkx as nx

    from z5color.plane_graph import trace_faces

    g = nx.icosahedral_graph()
    g.remove_node(11)
    ok, emb = nx.check_planarity(g)
    assert ok
    rot = [list(emb.neighbors_cw_order(v)) for v in range(11)]
    pentagons = [
        [d[0] for d in f] for f in trace_faces(rot) if len(f) == 5
    ]
    assert len(pentagons) == 1
    return PlaneNearTriangulation.from_lists(rot, pentagons[0])


def test_build_wheel_examples():
    g, p = build(Wheel(5))
    assert g.vertex_count == 6
    hub = 5
    assert all(g.has_edge(hub, v) for v in g.outer_cycle)
    assert validate(g).ok
    assert (p.tail, p.major, p.head) == (4, 0, 1)


def test_build_broken_wheel_examples():
    g, _ = build(BrokenWheel(4))
    assert g.vertex_count == 4
    assert validate(g).ok
    interior_edges = [e for e in g.edges() if e not in
                      {(0, 1), (1, 2), (2, 3), (0, 3)}]
    assert interior_edges == [(0, 2)]


def test_build_insert_wheel_recognizer_oracle():
    d = InsertWheel(Wheel(5), 2, 1)
    g, p = build(d)
    assert g.vertex_count == 8
    assert validate(g).ok
    d2 = recognize_generalized_multi_wheel(g, p)
    assert d2 is not None
    assert principal_isomorphic(g, p, *build(d2))


def test_build_rejects_malformed_descriptors():
    with pytest.raises(FamilyError):
        build(BrokenWheel(2))
    with pytest.raises(FamilyError):
        build(InsertWheel(Wheel(4), 0, 0))  # edge touches the major vertex
    with pytest.raises(FamilyError):
        build(InsertWheel(BrokenWheel(5), 1, 0))  # no interior third vertex
    with pytest.raises(FamilyError):
        build(InsertWheel(Wheel(4), 1, -1))


def test_recognize_round_trip_all_members_to_ten():
    for d, g, p in built_family(10):
        d2 = recognize_generalized_multi_wheel(g, p)
        assert d2 is not None, to_sexpr(d)
        g2, p2 = build(d2)
        assert principal_isomorphic(g, p, g2, p2), to_sexpr(d)


def test_recognize_any_rotation_of_the_outer_cycle():
    # Writing the outer cycle from another vertex changes no descriptor, and
    # the principal-path check of lemma1_alpha accepts such input.
    for d, g, p in built_family(8):
        expected = recognize_generalized_multi_wheel(g, p)
        oc = g.outer_cycle
        for r in range(1, len(oc)):
            rotated = PlaneNearTriangulation(g.vertex_count, g.rotation, oc[r:] + oc[:r])
            assert recognize_generalized_multi_wheel(rotated, p) == expected, (to_sexpr(d), r)
            if is_multi_wheel_descriptor(d) and g.vertex_count <= 7:
                phi = PhiAssignment.zero(g.edges())
                lemma1_alpha(rotated, phi, ColorSystem.free(g.vertex_count), path=p)


def test_recognize_broken_wheels_all_sizes():
    for k in range(3, 9):
        g, p = build(BrokenWheel(k))
        d = recognize_generalized_multi_wheel(g, p)
        assert d is not None
        assert not is_multi_wheel_descriptor(d)


def test_recognize_rejects_icosahedron_minus_vertex():
    g = icosahedron_minus_vertex()
    assert validate(g).ok
    oc = g.outer_cycle
    p = PrincipalPath(oc[-1], oc[0], oc[1])
    assert recognize_generalized_multi_wheel(g, p) is None
    # and it has an all-interior facial triangle, so the member property fails
    assert not facial_triangle_property(g, p)


def test_recognize_rejects_interior_stack():
    # Stack a vertex in a face of the inserted wheel that has no outer edge:
    # the result leaves the class.
    g, p = build(InsertWheel(Wheel(4), 1, 0))
    rot = [list(r) for r in g.rotation]
    # interior face (hub=4, new hub=5, outer 1) -> stack w adjacent to 4,5,1
    import z5color.plane_graph as pg

    faces = [
        [d[0] for d in f]
        for f in pg.faces_of(g)
        if {d[0] for d in f} == {4, 5, 1}
    ]
    a, b, c = faces[0]
    w = 6
    rot.append([a, c, b])
    for x, pq in ((a, (c, b)), (b, (a, c)), (c, (b, a))):
        i = rot[x].index(pq[0])
        assert rot[x][(i + 1) % len(rot[x])] == pq[1]
        rot[x].insert(i + 1, w)
    g2 = PlaneNearTriangulation.from_lists(rot, g.outer_cycle)
    assert validate(g2).ok
    assert recognize_generalized_multi_wheel(g2, p) is None


def stacked_in_each_inner_face(g):
    """``g`` with one new vertex stacked into one inner triangle, for each
    inner triangle in turn."""
    import z5color.plane_graph as pg

    outer = pg.outer_face_index(g)
    w = g.vertex_count
    for i, face in enumerate(pg.faces_of(g)):
        if i == outer:
            continue
        a, b, c = (d[0] for d in face)
        rot = [list(r) for r in g.rotation]
        rot.append([a, c, b])
        for x, (p, q) in ((a, (c, b)), (b, (a, c)), (c, (b, a))):
            at = rot[x].index(p)
            assert rot[x][(at + 1) % len(rot[x])] == q
            rot[x].insert(at + 1, w)
        yield PlaneNearTriangulation.from_lists(rot, g.outer_cycle)


def test_recognizer_answers_are_pinned():
    # The recognizer's exact answer on every member to size 11 and on every
    # valid stacking of a member to size 9, as the recursive recognizer,
    # which re-split each Glue seam and retried later hubs, gave them.
    digest = hashlib.sha256()

    def record(g, p):
        d = recognize_generalized_multi_wheel(g, p)
        digest.update(("None" if d is None else to_sexpr(d)).encode() + b"\n")

    for _, g, p in family_members(11):
        record(g, p)
    for _, g, p in family_members(9):
        for stacked in stacked_in_each_inner_face(g):
            if validate(stacked).ok:
                record(stacked, p)
    assert digest.hexdigest() == (
        "79a2c6164980df8ac456b3fdd5208dbced0639a18264f494a947d4e8193d3c86"
    )


def glue_chain_of_wheels(parts):
    """``Glue(Wheel(4), Glue(Wheel(4), ...))`` with ``parts`` wheels, made
    from graphs, right-nested where the recognizer folds to the left."""
    wheel = families._build_wheel(4)
    chain = wheel
    for _ in range(parts - 1):
        chain = families._glue(wheel, chain)
    return chain


def nested_insertions(steps):
    """``Wheel(3)`` after ``steps`` insertions, each with one subdivider at
    edge 1, the last one into the face of the hub before it."""
    g = families._build_wheel(3)
    for _ in range(steps):
        g = families._insert_wheel(g, 1, 1)
    return g


@pytest.mark.parametrize(
    "make, opening, innermost, closing, shown, depth, rebuilt",
    [
        (lambda: build(BrokenWheel(2000))[0], "(glue ", "(broken 3)", " (broken 3))",
         ("Glue(left=", "BrokenWheel(size=3)", ", right=BrokenWheel(size=3))"), 1997,
         lambda: build(BrokenWheel(1200))[0]),
        (lambda: glue_chain_of_wheels(500), "(glue ", "(wheel 4)", " (wheel 4))",
         ("Glue(left=", "Wheel(size=4)", ", right=Wheel(size=4))"), 499, None),
        (lambda: nested_insertions(1000), "(insert ", "(wheel 3)", " t1 j=1)",
         ("InsertWheel(base=", "Wheel(size=3)", ", edge=1, subdivisions=1)"), 1000, None),
    ],
    ids=["broken-wheel-2000", "glue-chain-500", "insertions-1000"],
)
def test_recognizer_needs_no_recursion_at_scale(
    make, opening, innermost, closing, shown, depth, rebuilt
):
    # Glue parts fold to the left whatever the nesting they were built in,
    # and the hub inserted last is peeled first.
    g = make()
    with cpu_time_limit(2):
        d = recognize_generalized_multi_wheel(g, families.principal_path(g))
        assert to_sexpr(d) == opening * depth + innermost + closing * depth
        assert is_multi_wheel_descriptor(d) == (opening == "(insert ")
        again = parse_sexpr(to_sexpr(d))
        assert again == d and hash(again) == hash(d)
        assert descriptor_size(d) == g.vertex_count
        assert repr(d) == shown[0] * depth + shown[1] + shown[2] * depth
    # ``build`` is still quadratic in the Glue nesting, so the broken wheel
    # is rebuilt at a smaller size.
    if rebuilt is not None:
        g = rebuilt()
        d = recognize_generalized_multi_wheel(g, families.principal_path(g))
    with cpu_time_limit(2):
        assert build(d)[0] == g


def test_descriptor_repr_is_the_dataclass_repr():
    # Glue and InsertWheel print from a stack, as the generated dataclass
    # repr, rebuilt here field by field, prints them.
    def field_repr(d):
        if not dataclasses.is_dataclass(d):
            return repr(d)
        fields = (f"{f.name}={field_repr(getattr(d, f.name))}" for f in dataclasses.fields(d))
        return f"{type(d).__qualname__}({', '.join(fields)})"

    members = built_family(10)
    assert {type(d) for d, _, _ in members} == {BrokenWheel, Wheel, Glue, InsertWheel}
    for d, _, _ in members:
        assert repr(d) == field_repr(d)
    assert repr(Glue(1, "x")) == "Glue(left=1, right='x')"


def test_descriptor_size_needs_no_recursion_at_scale():
    g, p = build(BrokenWheel(5000))
    d = recognize_generalized_multi_wheel(g, p)
    with cpu_time_limit(2):
        assert descriptor_size(d) == 5000


def test_recognize_rejects_chords_off_the_major_vertex():
    # Read from another major vertex, a broken wheel's chords miss it.
    g, _ = build(BrokenWheel(5))
    for major in range(1, 5):
        p = PrincipalPath(major - 1, major, (major + 1) % 5)
        assert recognize_generalized_multi_wheel(g, p) is None


def test_facial_triangle_property_on_members():
    for d, g, p in built_family(10):
        assert facial_triangle_property(g, p), to_sexpr(d)


def test_insertion_closure_nested_and_disjoint():
    nested = InsertWheel(InsertWheel(Wheel(4), 1, 1), 1, 0)
    g, p = build(nested)
    assert validate(g).ok
    assert recognize_generalized_multi_wheel(g, p) is not None
    wide = InsertWheel(InsertWheel(Wheel(6), 1, 0), 4, 2)
    g, p = build(wide)
    assert validate(g).ok
    assert recognize_generalized_multi_wheel(g, p) is not None


def test_enumerate_family_small_counts():
    four = list(enumerate_family(4))
    assert [to_sexpr(d) for d in four] == ["(broken 3)", "(broken 4)", "(wheel 3)"]
    counts = [len(list(enumerate_family(n))) for n in range(3, 10)]
    assert counts == sorted(counts)
    assert all(descriptor_size(d) <= 9 for d in enumerate_family(9))


def test_family_members_stream_the_built_family():
    for n in range(3, 11):
        assert list(family_members(n)) == built_family(n)
    assert [d for d, _, _ in family_members(10)] == list(enumerate_family(10))
    # Sizes are built only when the walk reaches them.
    _members_of_size.cache_clear()
    first = list(itertools.islice(family_members(40), 3))
    assert [to_sexpr(d) for d, _, _ in first] == ["(broken 3)", "(broken 4)", "(wheel 3)"]
    assert _members_of_size.cache_info().currsize == 2


def test_members_are_made_from_their_parts_graphs(monkeypatch):
    # Generation never rebuilds a part from its descriptor: every offer is
    # made from the graphs already stored for its parts.
    def no_build(d):
        raise AssertionError(f"build called for {to_sexpr(d)}")

    _members_of_size.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(families, "build", no_build)
        for size in range(3, 11):
            _members_of_size(size)
    for size in range(3, 11):
        for d, g in _members_of_size(size):
            assert g == build(d)[0]


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


def test_member_counts_are_catalan():
    for size in range(3, 14):
        assert len(_members_of_size(size)) == catalan(size - 2)
    _members_of_size.cache_clear()  # sizes 3-13 hold about 150 MB


def test_enumerate_family_no_duplicates():
    seen = set()
    for d in enumerate_family(11):
        sig = embedding_signature(*build(d))
        assert sig not in seen
        seen.add(sig)


def test_member_order_is_pinned():
    # Every descriptor and its place within its size, as generated when
    # each offer was still checked against the signatures of all before it.
    digest = hashlib.sha256()
    for d, _, _ in family_members(12):
        digest.update(to_sexpr(d).encode() + b"\n")
    assert digest.hexdigest() == (
        "1a130c844cfba62f69a5b74455b87624eb36af13d50f6fc0a7e69bf642550516"
    )


def test_each_member_is_offered_once(monkeypatch):
    # Every graph that generation makes is kept: C(size - 2) of each size.
    made = []

    def counted(make):
        def wrapper(*args):
            made.append(args)
            return make(*args)

        return wrapper

    _members_of_size.cache_clear()
    with monkeypatch.context() as m:
        for name in ("_build_broken_wheel", "_build_wheel", "_glue", "_insert_wheel"):
            m.setattr(families, name, counted(getattr(families, name)))
        for size in range(3, 14):
            before = len(made)
            _members_of_size(size)
            assert len(made) - before == catalan(size - 2), size
    _members_of_size.cache_clear()


def test_generation_computes_no_signature():
    # The signature is the tests' isomorphism oracle, out of generation's
    # reach: duplicates are never made, so none need to be recognized.
    assert not hasattr(families, "embedding_signature")
    _members_of_size.cache_clear()
    for size in range(3, 12):
        assert len(_members_of_size(size)) == catalan(size - 2)


def test_generation_leaves_the_garbage_collector_as_it_found_it():
    for was_on in (True, False):
        (gc.enable if was_on else gc.disable)()
        try:
            _members_of_size.cache_clear()
            assert len(_members_of_size(7)) == catalan(5)
            assert gc.isenabled() == was_on
        finally:
            gc.enable()


def test_sizes_to_thirteen_from_a_cold_cache_are_fast():
    _members_of_size.cache_clear()
    with cpu_time_limit(3):
        for size in range(3, 14):
            _members_of_size(size)
    _members_of_size.cache_clear()


def test_broken_wheel_is_never_a_multi_wheel():
    assert not is_multi_wheel_descriptor(BrokenWheel(4))
    for d, g, p in built_family(8):
        if is_multi_wheel_descriptor(d):
            # multi-wheels come from wheels by insertion only
            assert to_sexpr(d).count("glue") == 0
            assert to_sexpr(d).count("broken") == 0


def test_glue_identifies_major_and_one_neighbor():
    left, right = Wheel(4), BrokenWheel(4)
    g, p = build(Glue(left, right))
    assert g.vertex_count == descriptor_size(left) + descriptor_size(right) - 2
    assert validate(g).ok
    # The seam is a chord at the major vertex.
    from z5color.plane_graph import chords

    assert all(0 in c for c in chords(g))


def test_wheel_string_single_part_cleans(w5):
    s = build_wheel_string([Wheel(5)])
    assert s.cut == ()
    assert len(s.majors) == 1
    assert set(s.clean) == {1, 4}


def test_wheel_string_two_broken_wheels():
    s = build_wheel_string([BrokenWheel(4), BrokenWheel(4)])
    assert s.vertex_count == 7
    assert len(s.cut) == 1
    assert len(s.majors) == 2
    # Cut vertex is in both parts' vertex sets.
    assert all(s.cut[0] in part for part in s.part_vertices)


def test_wheel_string_of_triangles_is_fan_chain():
    parts = [BrokenWheel(3)] * 4
    s = build_wheel_string(parts)
    assert s.vertex_count == 3 * 4 - 3
    for part, d in zip(s.part_vertices, parts):
        assert len(part) == 3
    with pytest.raises(FamilyError):
        build_wheel_string([])


def test_sexpr_round_trip_and_errors():
    for d in [
        BrokenWheel(7),
        Glue(Glue(Wheel(3), BrokenWheel(3)), InsertWheel(Wheel(4), 2, 3)),
    ]:
        assert parse_sexpr(to_sexpr(d)) == d
    for bad in ["wheel 5", "(spin 3)", "(wheel 5", "(wheel 5) extra",
                "(insert (wheel 5) 3 j=1)", "(broken x)", "(wheel)",
                "(insert (wheel 5) t1 j=x)", "(insert (wheel 5) tx j=1)"]:
        with pytest.raises(FamilyError):
            parse_sexpr(bad)
    # The lemma5 packet format carries descriptors as text.
    with pytest.raises(FamilyError):
        replay("lemma5", "parts (broken x)\n")


def test_sexprs_read_descriptors_in_a_row():
    ds = [Wheel(4), Glue(BrokenWheel(3), Wheel(3)), InsertWheel(Wheel(4), 2, 1)]
    assert parse_sexprs(" ".join(map(to_sexpr, ds))) == ds
    assert parse_sexprs(to_sexpr(ds[1])) == ds[1:2]
    for bad, message in [("", "unexpected end"), ("(wheel 4) (wheel", "unexpected end"),
                         ("(wheel 4) 5", "trailing tokens")]:
        with pytest.raises(FamilyError, match=message):
            parse_sexprs(bad)
    with pytest.raises(FamilyError, match="trailing tokens"):
        parse_sexpr("(wheel 4) (wheel 5)")


SEXPR_TOKENS = (
    "(", ")", "broken", "wheel", "glue", "insert", "t0", "t2", "t-1", "t", "tx",
    "j=0", "j=3", "j=", "j=x", "0", "3", "-1", "x", "1.5",
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.integers(0, 10**6),
    st.lists(
        st.tuples(
            st.sampled_from(("replace", "delete", "insert")),
            st.integers(0, 10**6),
            st.sampled_from(SEXPR_TOKENS),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_sexpr_token_mutations_parse_or_raise_family_error(pick, mutations):
    members = list(enumerate_family(8))
    text = to_sexpr(members[pick % len(members)])
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    for op, i, token in mutations:
        if op == "insert":
            tokens.insert(i % (len(tokens) + 1), token)
        elif tokens and op == "replace":
            tokens[i % len(tokens)] = token
        elif tokens:
            del tokens[i % len(tokens)]
    try:
        d = parse_sexpr(" ".join(tokens))
    except FamilyError:
        return
    assert parse_sexpr(to_sexpr(d)) == d
