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
