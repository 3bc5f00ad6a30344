import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import never_queried, random_phi_on
from z5color import gcg
from z5color.gcg import GcgError, parse_gcg, write_gcg
from z5color.group_color import ColorSystem, PhiAssignment
from z5color.propcheck import random_near_triangulation

K3_TEXT = """\
# smallest near-triangulation
n 3
rot 0 1 2
rot 1 2 0
rot 2 0 1
outer 3 0 1 2
edge 0 1 2
forbid 2 0 1
precolor 0 3
"""


def test_parse_round_trip_values():
    doc = parse_gcg(K3_TEXT)
    assert doc.graph.vertex_count == 3
    assert doc.phi.offset(0, 1) == 2
    assert doc.phi.offset(1, 2) == 0  # implied zero edge
    assert doc.colors.forbidden[2] == frozenset({0, 1})
    assert doc.colors.precolor_map() == {0: 3}
    assert doc.descriptor is None


def test_write_then_parse_is_stable(rng, w5):
    g, _ = w5
    phi = random_phi_on(g, rng)
    cs = ColorSystem.free(6).with_forbidden(2, {1, 4}).with_precolor(0, 2)
    text = write_gcg(g, phi, cs, descriptor="(wheel 5)", comment="round trip")
    doc = parse_gcg(text)
    assert doc.graph == g
    assert doc.descriptor == "(wheel 5)"
    assert doc.colors.forbidden[2] == frozenset({1, 4})
    assert doc.colors.precolor_map() == {0: 2}
    for u, v in g.edges():
        assert doc.phi.offset(u, v) == phi.offset(u, v)
    assert parse_gcg(write_gcg(doc.graph, doc.phi, doc.colors)).graph == g


def test_nondefault_group_round_trip(k3):
    g, _ = k3
    phi = PhiAssignment(7, tuple((u, v, 6) for u, v in g.edges()))
    doc = parse_gcg(write_gcg(g, phi))
    assert doc.phi.modulus == 7
    assert doc.colors.modulus == 7


def exactly(message):
    return "^" + re.escape(message) + "$"


@pytest.mark.parametrize(
    "mutation, message",
    [
        ("wobble 1 2", "unknown directive"),
        ("rot 0 1 2", "duplicate rot"),
        ("n 3", "duplicate n"),
        ("outer 3 0 1 2", "duplicate outer"),
        ("edge 0 1 3", "duplicate edge"),
        ("edge 1 0 3", "duplicate edge"),
        ("edge 1 2 9", "out of range"),
        ("forbid 1 9", "out of range"),
        ("forbid 1 0 1 2 3", "1..3 colors"),
        ("precolor 1 7", "out of range"),
        ("descriptor x\ndescriptor y", "duplicate descriptor"),
        ("rot 0 1 x", exactly("line 10: expected integers, got ['0', '1', 'x']")),
        ("rot 3 0 1", exactly("rot lines for out-of-range vertices [3]")),
        ("outer 3 0 2 1", exactly("line 10: duplicate outer directive")),
        # The graph lines are read after the others: the first fault still
        # wins, whichever kind of line it is on.
        ("rot 1 x\nwobble", exactly("line 10: expected integers, got ['1', 'x']")),
        ("wobble\nrot 1 x", exactly("line 10: unknown directive 'wobble'")),
        ("outer 2 0 1\nedge 0 1", exactly("line 10: duplicate outer directive")),
        # A descriptor is opaque text, but there must be some.
        ("descriptor", exactly("line 10: descriptor needs an s-expression")),
        ("descriptor   # none", exactly("line 10: descriptor needs an s-expression")),
    ],
)
def test_strict_parse_errors(mutation, message):
    # The same message whether the document's graph lines and its graph
    # are cached or not (errors never are).
    for cached in (True, False):
        if cached:
            parse_gcg(K3_TEXT)
        else:
            gcg._graph.cache_clear()
        with pytest.raises(GcgError, match=message):
            parse_gcg(K3_TEXT + mutation + "\n")


def test_missing_pieces_are_errors():
    with pytest.raises(GcgError, match="missing n"):
        parse_gcg("rot 0 1\n")
    with pytest.raises(GcgError, match="missing outer"):
        parse_gcg("n 3\nrot 0 1 2\nrot 1 2 0\nrot 2 0 1\n")
    with pytest.raises(GcgError, match="missing rot"):
        parse_gcg("n 3\nrot 0 1 2\nouter 3 0 1 2\n")


def test_rotation_outer_inconsistency_is_an_error():
    # Outer cycle in the wrong orientation never matches a traced face.
    bad = """\
n 4
rot 0 1 2 3
rot 1 2 0
rot 2 3 0 1
rot 3 0 2
outer 4 0 3 2 1
"""
    for _ in range(2):  # an invalid graph is not cached
        with pytest.raises(GcgError, match="invalid near-triangulation"):
            parse_gcg(bad)
    parse_gcg(K3_TEXT)
    with pytest.raises(GcgError, match="not an edge"):
        parse_gcg(
            "n 3\nrot 0 1 2\nrot 1 2 0\nrot 2 0 1\nouter 3 0 1 2\nedge 0 3 1\n"
        )


def test_outer_count_mismatch():
    with pytest.raises(GcgError, match="outer count"):
        parse_gcg("n 3\nrot 0 1 2\nrot 1 2 0\nrot 2 0 1\nouter 2 0 1 2\n")


def test_comments_and_blank_lines_ignored():
    text = "\n# hi\n  \n" + K3_TEXT + "# trailing\n"
    assert parse_gcg(text).graph.vertex_count == 3


def test_huge_vertex_count_names_few_missing_vertices():
    # The error must not list every missing vertex: memory stays bounded
    # whatever n a short document claims.
    with pytest.raises(GcgError, match="missing rot lines for 100000 of 100000") as exc:
        parse_gcg("n 100000\nouter 3 0 1 2\n")
    assert len(str(exc.value)) < 100


def test_documents_with_one_graph_share_one_graph_object(rng, w5):
    g, _ = w5
    docs = [
        parse_gcg(write_gcg(g, random_phi_on(g, rng), cs, descriptor=d))
        for cs, d in (
            (None, None),
            (ColorSystem.free(6).with_forbidden(2, {1, 4}), "(wheel 5)"),
            (ColorSystem.free(6).with_precolor(0, 3), "(wheel 5)"),
        )
    ]
    assert all(doc.graph is docs[0].graph for doc in docs)
    assert docs[0].graph == g
    # Graph lines are cached by their text; the same graph written with
    # comments, other spacing and its lines in another order misses that
    # cache and gets an equal graph.
    lines = write_gcg(g, random_phi_on(g, rng)).splitlines()
    graph_lines = [line for line in lines if line.split()[0] in ("n", "rot", "outer")]
    respaced = ["  " + "   ".join(line.split()) + "  # note" for line in reversed(graph_lines)]
    others = [line for line in lines if line not in graph_lines]
    variant = parse_gcg("# the same graph\n\n" + "\n".join(others + respaced) + "\n")
    assert variant.graph == docs[0].graph
    # Round trips keep the documents and the shared graph.
    for doc in docs:
        again = parse_gcg(write_gcg(doc.graph, doc.phi, doc.colors, doc.descriptor))
        assert again == doc and again.graph is doc.graph
    # The key is the whole graph: the same rotation with the other outer
    # face, or another graph, is a different object.
    k3 = parse_gcg(K3_TEXT).graph
    flipped = parse_gcg(K3_TEXT.replace("outer 3 0 1 2", "outer 3 0 2 1")).graph
    assert flipped.rotation == k3.rotation and flipped != k3
    assert len({id(k3), id(flipped), id(docs[0].graph)}) == 3


# Seeded fuzzing: derandomized, so the suite stays deterministic.
FUZZ = settings(derandomize=True, max_examples=200, deadline=None)


def random_document(seed: int) -> str:
    """A valid gcg document: a random near-triangulation with random labels
    (stored either way round), forbidden sets, precoloring and modulus."""
    rng = random.Random(seed)
    n = rng.randint(3, 12)
    g = random_near_triangulation(n, rng.randint(3, n), seed)
    modulus = rng.choice((5, 5, 3, 7))
    phi = PhiAssignment(
        modulus,
        tuple(
            (u, v, rng.randrange(modulus)) if rng.random() < 0.5
            else (v, u, rng.randrange(modulus))
            for u, v in g.edges()
        ),
    )
    cs = ColorSystem.free(n, modulus)
    for v in rng.sample(range(n), rng.randint(0, n)):
        cs = cs.with_forbidden(v, rng.sample(range(modulus), rng.randint(1, 3)))
    for v in rng.sample(range(n), rng.randint(0, n)):
        cs = cs.with_precolor(v, rng.randrange(modulus))
    descriptor = rng.choice((None, "(wheel 5)", "(glue (wheel 3) (broken-wheel 4))"))
    return write_gcg(g, phi, cs, descriptor=descriptor, comment=f"seed {seed}")


def rewritten(doc) -> str:
    return write_gcg(doc.graph, doc.phi, doc.colors, doc.descriptor)


@FUZZ
@given(st.integers(0, 2**32 - 1))
def test_write_parse_write_is_stable(seed):
    text = random_document(seed)
    assert rewritten(parse_gcg(text)) == text.split("\n", 1)[1]  # less the comment


TOKENS = (
    "-1", "0", "1", "2", "3", "4", "7", "99", "100000000000", "1.5", "x", "#",
    "n", "rot", "outer", "edge", "forbid", "precolor", "group", "descriptor",
)


@FUZZ
@given(
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(
            st.sampled_from(("replace", "delete", "insert", "drop-line", "copy-line")),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
            st.sampled_from(TOKENS),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_token_mutations_parse_or_raise_gcg_error(seed, mutations):
    lines = [line.split() for line in random_document(seed).splitlines()]
    for op, i, j, token in mutations:
        row = lines[i % len(lines)]
        if op == "drop-line" and len(lines) > 1:
            del lines[i % len(lines)]
        elif op == "copy-line":
            lines.insert(j % len(lines), list(row))
        elif op == "insert":
            row.insert(j % (len(row) + 1), token)
        elif row and op == "replace":
            row[j % len(row)] = token
        elif row and op == "delete":
            del row[j % len(row)]
    text = "\n".join(" ".join(row) for row in lines) + "\n"
    try:
        doc = parse_gcg(text)
    except GcgError:
        return
    assert rewritten(parse_gcg(rewritten(doc))) == rewritten(doc)
    # What the parser lets through, the public constructors accept.
    assert_validated(doc)


def assert_validated(doc):
    """The parsed labeling and constraint system equal the objects their
    validating constructors build from the same fields.  The parsed
    labeling builds its edge map on its first query, so it is compared
    before and after that."""
    phi = PhiAssignment(doc.phi.modulus, doc.phi.records)
    colors = ColorSystem(doc.colors.modulus, doc.colors.forbidden, doc.colors.precoloring)
    assert never_queried(doc.phi)
    assert doc.phi == phi and phi == doc.phi and hash(doc.phi) == hash(phi)
    assert doc.colors == colors and hash(doc.colors) == hash(colors)
    n = doc.graph.vertex_count
    for u, v in itertools.permutations(range(n), 2):
        assert doc.phi.has_edge(u, v) == phi.has_edge(u, v) == doc.graph.has_edge(u, v)
        if phi.has_edge(u, v):
            assert doc.phi.offset(u, v) == phi.offset(u, v)


def test_parsed_objects_equal_validated_ones(rng):
    # The parser checks every edge, forbid and precolor line itself and
    # builds its objects without checking them again.
    for seed in range(40):
        text = random_document(seed)
        doc = parse_gcg(text)
        assert_validated(doc)
        g = doc.graph
        written = parse_gcg(write_gcg(g, random_phi_on(g, rng, doc.phi.modulus), doc.colors))
        assert written.colors == doc.colors
        assert_validated(written)


@pytest.mark.parametrize(
    "mutation, message",
    [
        ("edge 1 1 0", "edge line 1-1 is not an edge of the rotation"),
        ("edge 1 2 -1", "edge value -1 out of range mod 5"),
        ("group 3", "precolor 3 out of range mod 3"),
        ("group 2", "edge value 2 out of range mod 2"),
        ("group 1", "line 10: group needs one integer >= 2"),
        ("forbid 3 1", "forbid line for out-of-range vertex 3"),
        ("forbid 1 -1", "forbid colors at 1 out of range mod 5"),
        ("precolor 3 1", "precolor line for out-of-range vertex 3"),
        ("precolor 1 -1", "precolor -1 out of range mod 5"),
        ("precolor 0 1", "line 10: duplicate precolor line for 0"),
    ],
)
def test_checks_behind_the_unchecked_objects_keep_their_messages(mutation, message):
    with pytest.raises(GcgError) as exc:
        parse_gcg(K3_TEXT + mutation + "\n")
    assert str(exc.value) == message
