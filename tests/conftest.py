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
from z5color.plane_graph import PlaneNearTriangulation, validate


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
