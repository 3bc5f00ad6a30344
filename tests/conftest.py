import collections
import itertools
import os
import random
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest

import z5color
from z5color.families import build, BrokenWheel, Wheel
from z5color.group_color import ColorSystem, PhiAssignment
from z5color.plane_graph import (
    PlaneNearTriangulation,
    cycle_side,
    dart_faces,
    faces_of,
    linear_from,
    outer_face_index,
    validate,
)


def brute_count(n, phi, colors=None):
    """Independent oracle: literal enumeration of all modulus^n colorings."""
    return brute_marginals(n, phi, colors, ())[()]


def brute_marginals(n, phi, colors, keep):
    """Independent oracle: literal enumeration of all modulus^n colorings,
    tallied by the colors of the ``keep`` vertices (missing tuples: 0)."""
    m = phi.modulus
    tally = collections.Counter()
    for coloring in itertools.product(range(m), repeat=n):
        if colors is not None:
            if any(coloring[v] not in colors.available(v) for v in range(n)):
                continue
        if all((coloring[h] - coloring[t]) % m != x for t, h, x in phi.records):
            tally[tuple(coloring[v] for v in keep)] += 1
    return tally


def _cycle_sides(graph, cycle):
    """Independent oracle: (inside, outside, enclosed face indices) of a
    cycle by a dual BFS over the traced faces, inside being the side away
    from the outer face."""
    outer_idx = outer_face_index(graph)
    assert outer_idx is not None, "graph has no traced outer face"
    for a, b in zip(cycle, [*cycle[1:], cycle[0]]):
        assert graph.has_edge(a, b), f"cycle step {a}-{b} is not an edge"
    faces = faces_of(graph)
    inside, enclosed = cycle_side(faces, dart_faces(faces), outer_idx, cycle)
    outside = set(range(graph.vertex_count)) - set(cycle) - inside
    return frozenset(inside), frozenset(outside), enclosed


def embedding_signature(graph, path):
    """Independent oracle: canonical form of the embedded graph rooted at
    the principal dart.  Two graphs admit an isomorphism that fixes the
    principal path pointwise and preserves rotations iff their signatures
    are equal."""
    label = {path.major: 0, path.head: 1}
    ref = {path.major: path.head, path.head: path.major}
    order = [path.major, path.head]
    rows = []
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        row = []
        for u in linear_from(graph.rotation[v], ref[v]):
            if u not in label:
                label[u] = len(label)
                ref[u] = v
                order.append(u)
            row.append(label[u])
        rows.append(tuple(row))
    assert len(label) == graph.vertex_count, "graph is disconnected"
    return (graph.vertex_count, tuple(rows))


def principal_isomorphic(a, pa, b, pb):
    return embedding_signature(a, pa) == embedding_signature(b, pb)


@contextmanager
def cpu_time_limit(seconds):
    """Raise ``TimeoutError`` inside the block once this process has spent
    ``seconds`` of CPU time in it, so a runaway computation fails fast
    instead of hanging the suite (POSIX only: SIGVTALRM)."""

    def expire(signum, frame):
        raise TimeoutError(f"ran past its {seconds} s CPU-time alarm")

    previous = signal.signal(signal.SIGVTALRM, expire)
    signal.setitimer(signal.ITIMER_VIRTUAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)


def flipped_near_triangulation(g, rng, tries):
    """``g`` after random flips of inner edges (each kept only if the result
    is still a valid near-triangulation), so it is no longer stacked."""
    rot = [list(r) for r in g.rotation]
    outer = list(g.outer_cycle)
    k = len(outer)
    outer_edges = {frozenset((outer[i], outer[(i + 1) % k])) for i in range(k)}
    for _ in range(tries):
        u = rng.randrange(len(rot))
        v = rng.choice(rot[u])
        if frozenset((u, v)) in outer_edges:
            continue
        # The faces on the two sides of uv are (u, v, x) and (v, u, y).
        x = rot[v][(rot[v].index(u) + 1) % len(rot[v])]
        y = rot[u][(rot[u].index(v) + 1) % len(rot[u])]
        if x == y or y in rot[x]:
            continue
        new = [list(r) for r in rot]
        new[u].remove(v)
        new[v].remove(u)
        new[x].insert(new[x].index(v) + 1, y)
        new[y].insert(new[y].index(u) + 1, x)
        if validate(PlaneNearTriangulation.from_lists(new, outer)).ok:
            rot = new
    return PlaneNearTriangulation.from_lists(rot, outer)


def random_phi_on(graph, rng, modulus=5):
    return PhiAssignment(
        modulus, tuple((u, v, rng.randrange(modulus)) for u, v in graph.edges())
    )


@pytest.fixture
def rng():
    return random.Random(20260811)


@pytest.fixture
def k3():
    return build(BrokenWheel(3))


@pytest.fixture
def bw4():
    return build(BrokenWheel(4))


@pytest.fixture
def w5():
    return build(Wheel(5))


@pytest.fixture
def cli_env():
    """Environment for a ``python -m z5color.cli`` child process that
    imports the same package as the tests, however pytest was started."""
    src = str(Path(z5color.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
