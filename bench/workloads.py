"""The three benchmark workloads, generated from a seed.

Each workload is a list of operations.  An operation is one call into the
public API of ``z5color`` plus a check of its answer and a canonical form of
that answer for the digest.  Calls look functions up on their modules at
call time (``solver.count_colorings``, never a local copy), so the tracer in
``tracing.py`` sees them.

Why each workload exists:

- ``family-packets``: ``propcheck.replay`` on seeded ``lemma1`` and
  ``lemma2`` packets built from ``built_family(10)`` members.  This is the
  lab's dominant traffic (acceptance_6 takes most of the Tier-1 time).  The
  same multi-wheels recur across many labelings with ``keep`` = the
  principal path, so a per-graph plan cache is hit here.  ``lemma2`` calls
  ``count_colorings`` once per deleted edge, on a new edge set each time, so
  cache misses, and a gain for one kind at the other's cost, show.
  ``lemma1`` packets are the majority, so ``op_p50_ms`` tracks them and
  ``op_tail_ms`` tracks ``lemma2``.
- ``sparse-scaling``: ``count_colorings``, ``extend_two`` and
  ``first_coloring`` on a size ladder of ``BrokenWheel(n)``, ``Wheel(n)``
  and ``random_near_triangulation(n, k, seed)`` with phi = 0, so closed
  forms check every count.  Each graph is seen once (every pass, and the
  set-up warm-up, shifts the ladder by its own number of vertices), so plan
  caches cannot help.  Cost comes from elimination ordering and from ``extend_two``'s
  region work, which grow super-linearly.  The top rung (n = 1000) is a size
  at which the seed raises ``RecursionError`` in ``first_coloring`` and
  ``extend_two``, so the known defect shows in ``failed_share``.
- ``extension-mix``: small seeded instances for the constructive
  algorithms (``extend_two``, ``color_short_cycle`` over every precoloring
  of outer cycles of length 3, 4 and 5 including ``Wheel(5)``, and
  ``extend_three`` on colorable and on blocked family-member instances).
  It exercises face and region tracing, family construction and the
  obstruction search, with little elimination.  Colorings are found beside
  certificates, so a change that speeds one path and slows the other shows.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from z5color import families, gcg, group_color, plane_graph, propcheck, solver
from z5color.families import BrokenWheel, PrincipalPath, Wheel
from z5color.group_color import ColorSystem, PhiAssignment
from z5color.solver import ExtensionProblem, HubException, ObstructionCertificate

from spec import COUNT_LADDER, EXTEND_TWO_LADDER, FIRST_LADDER, TOP_RUNG

FIRST_COLORING_LIMIT_S = 1.0

derive_seed = propcheck.derive_seed


@dataclass
class Op:
    """One operation: ``call`` runs it; ``check`` lists what is wrong with
    its answer; ``canon`` gives the answer's canonical form (what was
    decided, never which coloring was returned)."""

    key: str
    kind: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    canon: Callable[[object], str]
    rung: tuple[str, str, int] | None = None  # (function, graph, n)
    # CPU seconds after which the operation fails as timed out, for calls
    # that can run for hours (first_coloring's backtracking).
    limit_s: float | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # Answers checked once after the timed loop: returns (problems, answers).
    extra: Callable[[], tuple[list[str], list[str]]] = lambda: ([], [])
    # Trace-mode comparison with the ROADMAP baseline; see ``baseline_*``.
    baseline: Callable[[dict], tuple[dict, list[str]]] = lambda ctx: ({}, [])
    # The operations of a pass with the given shift, with the same keys as
    # ``ops`` (shift 0) but new inputs; by default every pass repeats ``ops``.
    pass_ops: Callable[[int], list[Op]] | None = None
    # The operations run once before timing; by default the first of each kind.
    warmup: Callable[[], list[Op]] | None = None

    def warmup_ops(self) -> list[Op]:
        if self.warmup is not None:
            return self.warmup()
        seen: dict[str, Op] = {}
        for op in self.ops:
            seen.setdefault(op.kind, op)
        return list(seen.values())


def _proper_coloring_problems(graph, phi, colors, out) -> list[str]:
    if not isinstance(out, tuple):
        return [f"expected a coloring, got {type(out).__name__}"]
    if not group_color.is_proper(graph, phi, out):
        return ["coloring is not proper"]
    bad = [v for v in range(graph.vertex_count) if out[v] not in colors.available(v)]
    return [f"coloring breaks the lists at {bad[:5]}"] if bad else []


def _path_proper_triple(graph, phi, path: PrincipalPath, rng: random.Random) -> tuple[int, int, int]:
    """Random (tail, major, head) colors that are proper on the path edges."""
    tau = group_color.tau
    while True:
        cm = rng.randrange(5)
        ct = rng.choice([c for c in range(5) if c != tau(phi, path.major, cm, path.tail)])
        heads = [c for c in range(5) if c != tau(phi, path.major, cm, path.head)]
        if graph.has_edge(path.tail, path.head):
            heads = [c for c in heads if c != tau(phi, path.tail, ct, path.head)]
        if heads:
            return ct, cm, rng.choice(heads)


def _path_proper(graph, phi, path: PrincipalPath, triple) -> bool:
    """The filter of ``solver.classify_alpha``: is the triple a proper
    precoloring of the principal path?"""
    ct, cm, ch = triple
    tau = group_color.tau
    if ct == tau(phi, path.major, cm, path.tail) or ch == tau(phi, path.major, cm, path.head):
        return False
    return not (graph.has_edge(path.tail, path.head) and ch == tau(phi, path.tail, ct, path.head))


def _middles(graph, path: PrincipalPath) -> list[int]:
    return [v for v in graph.outer_cycle if v not in (path.tail, path.major, path.head)]


def _canonical_path(graph) -> PrincipalPath:
    k = len(graph.outer_cycle)
    return PrincipalPath(graph.outer_cycle[k - 1], graph.outer_cycle[0], graph.outer_cycle[1])


# ---------------------------------------------------------------------------
# family-packets
# ---------------------------------------------------------------------------

# The mix follows the ROADMAP's Tier-1 split: acceptance_7 spends 38 s on
# lemma2 against acceptance_6's 457 s of lemma1 tables, so lemma2 gets
# 38 / 495 of the packet time here.  LEMMA2_PACKETS is the fewest that
# op_tail_ms needs (more than the ten samples beyond the tail), and a 10-vertex
# lemma2 packet costs about LEMMA2_COST_RATIO lemma1 packets (36 ms against
# 7 ms of CPU on a 2-core x86-64 host), which fixes the number of lemma1
# packets: 16 * 5.1 * 457 / 38 = 980.
TIER1_LEMMA1_S = 457
TIER1_LEMMA2_S = 38
LEMMA2_PACKETS = 16
LEMMA2_COST_RATIO = 5.1
LEMMA1_LABELINGS = 4  # labelings per multi-wheel, so graphs recur
LEMMA1_GRAPHS = round(  # multi-wheels drawn from the 625 of built_family(10)
    LEMMA2_PACKETS * LEMMA2_COST_RATIO * TIER1_LEMMA1_S / TIER1_LEMMA2_S / LEMMA1_LABELINGS
)
TABLE_CHECKS = 3  # lemma1 packets whose failure table is rebuilt by enumeration


def _replay_op(key: str, kind: str, payload: str, aux: tuple) -> Op:
    return Op(
        key,
        kind,
        lambda: propcheck.replay(kind, payload, aux),
        lambda out: [] if out is None else [f"property failed: {out}"],
        lambda out: "holds" if out is None else f"fails: {out}",
    )


def family_packets(seed: int) -> Workload:
    members = families.built_family(10)
    rng = random.Random(derive_seed(seed, "family-packets"))

    wheels = [m for m in members if families.is_multi_wheel_descriptor(m[0])]
    lemma1 = []  # (vertex count, payload, op)
    for gi, (d, g, p) in enumerate(rng.sample(wheels, LEMMA1_GRAPHS)):
        for li in range(LEMMA1_LABELINGS):
            index = gi * LEMMA1_LABELINGS + li
            r = random.Random(derive_seed(seed, "lemma1", index))
            phi = propcheck.random_phi(g.edges(), r, "uniform")
            cs = propcheck.random_forbidden(ColorSystem.free(g.vertex_count), _middles(g, p), r, 2)
            payload = gcg.write_gcg(g, phi, cs, descriptor=families.to_sexpr(d))
            aux = (derive_seed(seed, "lemma1-reroll", index),)
            lemma1.append((g.vertex_count, payload, _replay_op(f"lemma1/{index}", "lemma1", payload, aux)))
    rng.shuffle(lemma1)

    # lemma2 packets take their graphs as propcheck's recipe does, members in
    # order without a separating triangle, but only the 10-vertex ones, spread
    # evenly over them; the seed draws the labelings.  The recipe's first 16
    # members have 3 to 8 vertices and cost no more than a lemma1 packet, so
    # op_tail_ms (the 11th costliest operation) would not fall on lemma2; the
    # 10-vertex members cost 10-75 ms.  A fixed spread rather than a seeded
    # draw keeps the tail from moving with the seed.
    candidates = [
        m for m in members
        if m[1].vertex_count == 10 and not plane_graph.separating_cycles(m[1], 3)
    ]
    lemma2 = []
    for index in range(LEMMA2_PACKETS):
        d, g, p = candidates[len(candidates) * index // LEMMA2_PACKETS]
        r = random.Random(derive_seed(seed, "lemma2", index))
        phi = propcheck.random_phi(g.edges(), r, "uniform")
        cs = propcheck.random_forbidden(ColorSystem.free(g.vertex_count), _middles(g, p), r, 2)
        for v, c in zip((p.tail, p.major, p.head), _path_proper_triple(g, phi, p, r)):
            cs = cs.with_precolor(v, c)
        payload = gcg.write_gcg(g, phi, cs, descriptor=families.to_sexpr(d))
        lemma2.append(_replay_op(f"lemma2/{index}", "lemma2", payload, ()))

    # One lemma2 packet after every `every` lemma1 packets.
    ops = []
    rest = iter(lemma2)
    every = len(lemma1) // LEMMA2_PACKETS
    for i, (_, _, op) in enumerate(lemma1, start=1):
        ops.append(op)
        if i % every == 0:
            ops.extend(itertools.islice(rest, 1))
    ops.extend(rest)

    # The smallest graphs, so that enumerating every coloring stays cheap.
    table_checked = {op.key for _, _, op in sorted(lemma1, key=lambda t: (t[0], t[2].key))[:TABLE_CHECKS]}

    def extra() -> tuple[list[str], list[str]]:
        """Alpha of every lemma1 packet for the digest, and a few failure
        tables rebuilt from ``enumerate_colorings``."""
        problems, answers = [], []
        for _, payload, op in lemma1:
            doc = gcg.parse_gcg(payload)
            path = _canonical_path(doc.graph)
            table = solver.lemma1_failure_table(doc.graph, doc.phi, doc.colors, path)
            alpha = solver.classify_alpha(table, doc.graph, doc.phi, path)
            answers.append(f"{op.key} alpha {alpha.kind} {alpha.alpha}")
            if op.key not in table_checked:
                continue
            stripped = doc.phi.remove_edge(path.tail, path.major).remove_edge(path.major, path.head)
            tally: dict[tuple[int, int, int], int] = {}
            for c in solver.enumerate_colorings(doc.graph, stripped, doc.colors):
                t = (c[path.tail], c[path.major], c[path.head])
                tally[t] = tally.get(t, 0) + 1
            if {t: n for t, n in table.items() if n} != tally:
                problems.append(f"{op.key}: failure table differs from enumeration")
            answers.append(f"{op.key} table-total {sum(table.values())}")
        return problems, answers

    return Workload("family-packets", ops, extra, baseline_family)


def baseline_family(ctx: dict) -> tuple[dict, list[str]]:
    """ROADMAP: ``marginal_counts`` with keep = principal path on the
    multi-wheels costs 5-7 ms per call.  Measured as the median traced
    ``marginal_counts`` call made by ``lemma1_failure_table``."""
    spans = ctx["spans"]
    durations = sorted(
        (spans[i][2] - spans[i][1]) * 1e3
        for i in ctx["pass_spans"]
        if spans[i][0] == "solver.marginal_counts" and spans[i][3] >= 0
        and spans[spans[i][3]][0] == "solver.lemma1_failure_table"
    )
    ms = durations[len(durations) // 2] if durations else 0.0
    mismatches = []
    if not 5.0 <= ms <= 7.0:
        mismatches.append(
            f"marginal_counts with keep = principal path: median {ms:.2f} ms per call; "
            "the ROADMAP baseline says 5-7 ms"
        )
    return {"baseline.marginal_counts.path_keep_ms": ms}, mismatches


# ---------------------------------------------------------------------------
# sparse-scaling
# ---------------------------------------------------------------------------

def near_tri_outer(n: int) -> int:
    return max(3, n // 10)


# Closed forms of the number of colorings at phi = 0 (proper 5-colorings).
def broken_wheel_count(n: int) -> int:
    """A hub joined to a path on n - 1 vertices: 5 * 4 * 3^(n-2)."""
    return 20 * 3 ** (n - 2)


def wheel_count(k: int) -> int:
    """The chromatic polynomial of the wheel with k rim vertices at 5."""
    return 5 * (3 ** k + (-1) ** k * 3)


def near_tri_count(n: int, k: int) -> int:
    """A triangulated k-gon (20 * 3^(k-2)) with n - k vertices stacked into
    triangles, each of which leaves 2 colors."""
    return 20 * 3 ** (k - 2) * 2 ** (n - k)


def sparse_graph(name: str, n: int, seed: int):
    """The graph of a ladder rung and its closed-form count at phi = 0."""
    if name == "broken_wheel":
        return families.build(BrokenWheel(n))[0], broken_wheel_count(n)
    if name == "wheel":
        return families.build(Wheel(n))[0], wheel_count(n)
    k = near_tri_outer(n)
    g = propcheck.random_near_triangulation(n, k, derive_seed(seed, "near_tri", n))
    return g, near_tri_count(n, k)


def _count_op(key, name, n, g, phi, expected) -> Op:
    return Op(
        key,
        "count",
        lambda: solver.count_colorings(g, phi),
        lambda out: [] if out == expected else [f"count {out} != closed form {expected}"],
        lambda out: "closed form" if out == expected else f"count {out}",
        ("count_colorings", name, n),
    )


def _extend_two_op(key, name, n, g, phi) -> Op:
    a, b = g.outer_cycle[0], g.outer_cycle[1]
    cs = ColorSystem.free(g.vertex_count).with_precolor(a, 0).with_precolor(b, 1)
    problem = ExtensionProblem(g, phi, cs, (a, b))
    return Op(
        key,
        "extend_two",
        lambda: solver.extend_two(problem),
        lambda out: _proper_coloring_problems(g, phi, cs, out),
        lambda out: "colorable",
        ("extend_two", name, n),
    )


def _first_op(key, name, n, g, phi) -> Op:
    # Every rung takes milliseconds, except that on about one seed in
    # twenty the backtracking on near_tri-1000 runs for hours (seeds 14, 16)
    # instead of raising RecursionError; it then fails as timed out.
    cs = ColorSystem.free(g.vertex_count)
    return Op(
        key,
        "first_coloring",
        lambda: solver.first_coloring(g, phi),
        lambda out: _proper_coloring_problems(g, phi, cs, out),
        lambda out: "colorable" if out is not None else "none",
        limit_s=FIRST_COLORING_LIMIT_S,
    )


# Every pass of a timed loop, and every pass of a traced run, gives the
# rungs its own vertex shift; the set-up warm-up uses this one, which no
# pass uses, so that no graph is seen twice.
WARMUP_SHIFT = -1

LADDERS = (
    ("count", COUNT_LADDER, _count_op),
    ("extend_two", EXTEND_TWO_LADDER, _extend_two_op),
    ("first_coloring", FIRST_LADDER, _first_op),
)


def _rung_op(seed: int, fn: str, make, name: str, n: int, shift: int) -> Op:
    """The operation of rung (fn, name, n), on the graph with ``shift`` more
    vertices.  Its key and canonical answer do not depend on the shift."""
    g, expected = sparse_graph(name, n + shift, seed)
    phi = PhiAssignment.zero(g.edges())
    extra = (expected,) if fn == "count" else ()
    return make(f"{fn}/{name}-{n}", name, n, g, phi, *extra)


def sparse_scaling(seed: int) -> Workload:
    def ladder(shift: int) -> list[Op]:
        """Every rung with ``shift`` more vertices."""
        return [
            _rung_op(seed, fn, make, name, n, shift)
            for fn, ladders, make in LADDERS
            for name, sizes in ladders.items()
            for n in sizes
        ]

    def warmup() -> list[Op]:
        """The smallest rung of each function's first graph, at WARMUP_SHIFT."""
        out = []
        for fn, ladders, make in LADDERS:
            name, sizes = next(iter(ladders.items()))
            out.append(_rung_op(seed, fn, make, name, sizes[0], WARMUP_SHIFT))
        return out

    return Workload("sparse-scaling", ladder(0), baseline=baseline_sparse, pass_ops=ladder, warmup=warmup)


def slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    if len(points) < 2:
        return 0.0
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def first_coloring_raise_n(low: int, high: int) -> int:
    """Smallest n in (low, high] at which ``first_coloring`` raises
    ``RecursionError`` on ``BrokenWheel(n)``; ``first_coloring`` must
    succeed at ``low`` and raise at ``high``."""
    while high - low > 1:
        mid = (low + high) // 2
        g = families.build(BrokenWheel(mid))[0]
        try:
            solver.first_coloring(g, PhiAssignment.zero(g.edges()))
            low = mid
        except RecursionError:
            high = mid
    return high


def baseline_sparse(ctx: dict) -> tuple[dict, list[str]]:
    """ROADMAP: ``count_colorings(BrokenWheel)`` grows with slope near 3;
    ``first_coloring`` and ``extend_two`` raise ``RecursionError`` at
    n of about 1200."""
    metrics, mismatches = {}, []
    count_slope = ctx["metrics"]["solver.count_colorings.broken_wheel.slope"]
    if not 2.5 <= count_slope <= 3.5:
        mismatches.append(
            f"count_colorings(BrokenWheel) slope {count_slope:.2f} over n in "
            f"{COUNT_LADDER['broken_wheel']}; the ROADMAP baseline says near 3"
        )
    outcome = ctx["outcome"]  # op key -> error name or None, untraced pass
    first_ok = [n for n in FIRST_LADDER["broken_wheel"] if outcome[f"first_coloring/broken_wheel-{n}"] is None]
    if outcome[f"first_coloring/broken_wheel-{TOP_RUNG}"] == "RecursionError" and first_ok:
        low = max(first_ok)
        metrics["baseline.first_coloring.raise_n"] = first_coloring_raise_n(low, TOP_RUNG)
        with ctx["traced"]():
            metrics["baseline.first_coloring.raise_n_traced"] = first_coloring_raise_n(low, TOP_RUNG)
    raised = [n for n in EXTEND_TWO_LADDER["broken_wheel"] if outcome[f"extend_two/broken_wheel-{n}"] == "RecursionError"]
    metrics["baseline.extend_two.raise_n"] = min(raised) if raised else 0
    for name in ("first_coloring", "extend_two"):
        n = metrics.get(f"baseline.{name}.raise_n", 0)
        if not 1080 <= n <= 1320:
            mismatches.append(
                f"{name} on BrokenWheel raises RecursionError from n = {n or 'never'} "
                f"(ladder top {TOP_RUNG}); the ROADMAP baseline says n of about 1200"
            )
    return metrics, mismatches


# ---------------------------------------------------------------------------
# extension-mix
# ---------------------------------------------------------------------------

EXTEND_TWO_INSTANCES = 600
SHORT_OUTER = (3, 4, 5)  # one random near-triangulation per outer length, plus Wheel(5)
SHORT_VERTICES = 10  # fixed, so that the cost of a precoloring varies little by seed
EXTEND_THREE_COLORABLE = 300
EXTEND_THREE_BLOCKED = 120


def _extend_two_mix(seed: int, i: int) -> Op:
    r = random.Random(derive_seed(seed, "extend_two", i))
    n = r.randint(4, 10)
    g = propcheck.random_near_triangulation(n, r.randint(3, n), derive_seed(seed, "extend_two-graph", i))
    phi = propcheck.random_phi(g.edges(), r, "uniform")
    a, b = g.outer_cycle[0], g.outer_cycle[1]
    cs = propcheck.random_forbidden(ColorSystem.free(n), g.outer_cycle[2:], r, 2)
    ca = r.randrange(5)
    cb = r.choice([c for c in range(5) if c != group_color.tau(phi, a, ca, b)])
    cs = cs.with_precolor(a, ca).with_precolor(b, cb)
    problem = ExtensionProblem(g, phi, cs, (a, b))
    return Op(
        f"extend_two/{i}",
        "extend_two",
        lambda: solver.extend_two(problem),
        lambda out: _proper_coloring_problems(g, phi, cs, out),
        lambda out: "colorable",
    )


def _short_cycle_ops(label: str, g, phi) -> list[Op]:
    """One operation per proper precoloring of the outer cycle.  The
    oracle is one ``marginal_counts`` table over the outer cycle, shared by
    every precoloring of the graph and built on the first check."""
    oc = g.outer_cycle
    oracle: dict = {}

    def zero(pre) -> bool:
        if not oracle:
            oracle.update(solver.marginal_counts(g, phi, ColorSystem.free(g.vertex_count), keep=oc))
        return oracle[pre] == 0

    def check(pre, cs, out) -> list[str]:
        if isinstance(out, HubException):
            images = {group_color.tau(phi, c, col, out.vertex) for c, col in zip(oc, pre)}
            if not (len(oc) == 5 and all(g.has_edge(out.vertex, c) for c in oc) and len(images) == 5):
                return [f"hub {out.vertex} is not a hub"]
            return [] if zero(pre) else ["hub returned but the oracle counts colorings"]
        if zero(pre):
            return ["coloring returned but the oracle counts none"]
        return _proper_coloring_problems(g, phi, cs, out)

    ops = []
    tau = group_color.tau
    for pre in itertools.product(range(5), repeat=len(oc)):
        color = dict(zip(oc, pre))
        if any(color[v] == tau(phi, u, color[u], v) for u in oc for v in g.adjacency(u) if v in color):
            continue
        cs = ColorSystem(5, ColorSystem.free(g.vertex_count).forbidden, tuple(sorted(color.items())))
        ops.append(Op(
            f"short/{label}/{''.join(map(str, pre))}",
            "short_cycle",
            lambda cs=cs: solver.color_short_cycle(g, phi, cs),
            lambda out, pre=pre, cs=cs: check(pre, cs, out),
            lambda out: f"hub {out.vertex}" if isinstance(out, HubException) else "colorable",
        ))
    return ops


def _extend_three_op(key: str, kind: str, problem: ExtensionProblem, colorable: bool) -> Op:
    g, phi, cs = problem.graph, problem.phi, problem.colors

    def check(out) -> list[str]:
        if isinstance(out, ObstructionCertificate):
            if colorable:
                return ["certificate returned for a colorable instance"]
            return [f"invalid certificate: {p}" for p in solver.validate_obstruction(out)]
        if not colorable:
            return ["coloring returned for a blocked instance"]
        return _proper_coloring_problems(g, phi, cs, out)

    return Op(
        key,
        kind,
        lambda: solver.extend_three(problem),
        check,
        lambda out: "certificate" if isinstance(out, ObstructionCertificate) else "colorable",
    )


def _three_problem(g, phi, cs, path: PrincipalPath, triple) -> ExtensionProblem:
    for v, c in zip((path.tail, path.major, path.head), triple):
        cs = cs.with_precolor(v, c)
    return ExtensionProblem(g, phi, cs, (path.tail, path.major, path.head))


def extension_mix(seed: int) -> Workload:
    rng = random.Random(derive_seed(seed, "extension-mix"))
    ops = [_extend_two_mix(seed, i) for i in range(EXTEND_TWO_INSTANCES)]

    wheel5 = families.build(Wheel(5))[0]
    ops += _short_cycle_ops("wheel5", wheel5, propcheck.random_phi(wheel5.edges(), rng))
    for k in SHORT_OUTER:
        g = propcheck.random_near_triangulation(SHORT_VERTICES, k, derive_seed(seed, "short", k))
        ops += _short_cycle_ops(f"near_tri{k}", g, propcheck.random_phi(g.edges(), rng))

    # Colorable extend_three instances: small random near-triangulations
    # whose precolored path extends (decided by the counting oracle).
    found = 0
    for i in itertools.count():
        if found == EXTEND_THREE_COLORABLE:
            break
        r = random.Random(derive_seed(seed, "extend_three", i))
        n = r.randint(5, 10)
        g = propcheck.random_near_triangulation(n, r.randint(4, min(n, 8)), derive_seed(seed, "extend_three-graph", i))
        phi = propcheck.random_phi(g.edges(), r, "uniform")
        path = _canonical_path(g)
        cs = propcheck.random_forbidden(ColorSystem.free(n), _middles(g, path), r, 2)
        problem = _three_problem(g, phi, cs, path, _path_proper_triple(g, phi, path, r))
        if solver.count_colorings(g, phi, problem.colors):
            ops.append(_extend_three_op(f"extend_three/{i}", "extend_three_colorable", problem, True))
            found += 1

    # Blocked instances: family members with two forbidden colors on every
    # other outer vertex, precolored with a zero entry of the failure table.
    # Members that are not multi-wheels and have outer cycles of length 4 or
    # 5 have such a zero entry for about a quarter of random labelings;
    # multi-wheels and longer outer cycles rarely do.
    members = [
        m for m in families.built_family(10)
        if len(m[1].outer_cycle) in (4, 5) and not families.is_multi_wheel_descriptor(m[0])
    ]
    found = 0
    for i in itertools.count():
        if found == EXTEND_THREE_BLOCKED:
            break
        r = random.Random(derive_seed(seed, "blocked", i))
        d, g, path = members[r.randrange(len(members))]
        phi = propcheck.random_phi(g.edges(), r, "uniform")
        cs = ColorSystem.free(g.vertex_count)
        for v in _middles(g, path):
            cs = cs.with_forbidden(v, r.sample(range(5), 2))
        table = solver.lemma1_failure_table(g, phi, cs, path)
        zeros = [t for t, count in sorted(table.items()) if not count and _path_proper(g, phi, path, t)]
        if zeros:
            problem = _three_problem(g, phi, cs, path, r.choice(zeros))
            ops.append(_extend_three_op(f"blocked/{i}", "extend_three_blocked", problem, False))
            found += 1

    rng.shuffle(ops)
    return Workload("extension-mix", ops)


WORKLOADS = {
    "family-packets": family_packets,
    "sparse-scaling": sparse_scaling,
    "extension-mix": extension_mix,
}
