"""Property harness: randomized/exhaustive checks of the coloring laws.

Every check builds the quantifier structure of one statement literally and
hunts for counterexamples with the exact solvers.  Checks are organized as
streams of self-contained instance packets (text payload plus a few
auxiliary integers), so they can be partitioned across worker processes and
replayed bit-exactly: the same seed always produces the same packets, and a
counterexample's payload re-runs through ``replay`` standalone.  A stream
depends only on the check id and the config's ``n_max``, ``samples``,
``seed`` and ``phi_mode``.  With negative ``samples``, or below its
smallest instance, a check raises ``PropcheckError``; the smallest
``n_max`` is 3 for lemma2, lemma4, lemma5 and corollary2, 4 for calculus,
lemma1 and theorem4, 6 for lemma3a and cor1, and 7 for lemma3b.

Property identifiers:

- ``calculus``: the tau involution, the triangle quantifier collapse, count
  preservation under labeling shifts, and the facial-triangle property of
  the wheel family.
- ``lemma1``: on multi-wheels, all non-extendable boundary precolorings
  share one tail-minus-head color difference, independent of the labels on
  the two principal edges.
- ``lemma2``: a generalized multi-wheel with no separating triangle stays
  colorable after deleting any non-principal edge.
- ``lemma3a``/``lemma3b``: the two-interior-vertex configurations are
  three-extendable.
- ``cor1``: multi-wheels whose interior vertices all see the head neighbor
  (and with no separating triangle) are three-extendable.
- ``lemma4``: in a generalized multi-wheel with the head neighbor
  precolored, some tail color works for every conflict-free major color.
- ``lemma5``: in a wheel string, the clean and cut vertices can be colored
  so that every conflict-free coloring of the major vertices extends.
- ``theorem4``: colorable instances with a precolored outer path have at
  least 2^(n/9 - r/3) colorings (r = vertices with exactly three available
  colors), excluding the known exceptional configuration.
- ``corollary2``: unconstrained instances have at least 2^(n/9) colorings.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass
from itertools import islice

from . import gcg
from .families import (
    FamilyDescriptor,
    PrincipalPath,
    build_wheel_string,
    built_family,
    facial_triangle_property,
    family_members,
    is_multi_wheel_descriptor,
    parse_sexprs,
    principal_path,
    to_sexpr,
)
from .group_color import ColorSystem, PhiAssignment, shift_phi, tau
from .plane_graph import (
    PlaneNearTriangulation,
    face_vertices,
    separating_cycles,
    trace_faces,
)
from .solver import (
    classify_alpha,
    count_colorings,
    is_path_proper,
    lemma1_failure_table,
    marginal_counts,
)


class PropcheckError(ValueError):
    pass


@dataclass(frozen=True)
class RandomInstanceConfig:
    """Sampling knobs shared by all checks.  The same seed always yields
    the same instance stream."""

    n_max: int = 12
    phi_mode: str = "uniform"  # uniform | zero | sparse
    samples: int = 100
    seed: int = 0


@dataclass(frozen=True)
class CheckReport:
    name: str
    seed: int
    instances: int
    counterexamples: tuple[str, ...]
    seconds: float
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def render(self) -> str:
        lines = [
            f"# property: {self.name}",
            f"# seed: {self.seed}",
            f"# instances: {self.instances}",
            f"# seconds: {self.seconds:.3f}",
        ]
        for note in self.notes:
            lines.append(f"# note: {note}")
        for i, ce in enumerate(self.counterexamples, start=1):
            lines.append(f"counterexample {i}:")
            lines.extend("  " + ln for ln in ce.rstrip("\n").splitlines())
        lines.append("PASS" if self.passed else f"FAIL {len(self.counterexamples)}")
        return "\n".join(lines) + "\n"


def derive_seed(seed: int, *parts) -> int:
    text = repr((seed, parts)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


def random_phi(edges, rng: random.Random, mode: str = "uniform", modulus: int = 5) -> PhiAssignment:
    values = {}
    for u, v in edges:
        if mode == "zero":
            x = 0
        elif mode == "sparse":
            x = 0 if rng.random() < 0.75 else rng.randrange(1, modulus)
        elif mode == "uniform":
            x = rng.randrange(modulus)
        else:
            raise PropcheckError(f"unknown phi mode {mode!r}")
        values[(u, v)] = x
    return PhiAssignment.from_values(values, modulus)


def random_forbidden(
    colors: ColorSystem, vertices, rng: random.Random, cap: int
) -> ColorSystem:
    for v in vertices:
        size = rng.randint(0, cap)
        colors = colors.with_forbidden(v, rng.sample(range(colors.modulus), size))
    return colors


def random_triangulation(n: int, seed: int) -> PlaneNearTriangulation:
    """Stacked (Apollonian-type) plane triangulation: start from a triangle
    and repeatedly insert a vertex into a uniformly random inner face."""
    return random_near_triangulation(n, 3, seed)


def random_near_triangulation(n: int, outer: int, seed: int) -> PlaneNearTriangulation:
    """A near-triangulation with the given outer cycle length: triangulate
    a polygon with random ears, then grow by random stacking."""
    if outer < 3:
        raise PropcheckError("outer cycle needs length >= 3")
    if n < outer:
        raise PropcheckError("n must be at least the outer cycle length")
    rng = random.Random(derive_seed(seed, "near-triangulation", n, outer))

    def ears(poly: list[int]) -> list[tuple[int, int, int]]:
        if len(poly) < 3:
            return []
        if len(poly) == 3:
            return [tuple(poly)]
        t = rng.randrange(1, len(poly) - 1)
        out = [(poly[0], poly[t], poly[-1])]
        return out + ears(poly[: t + 1]) + ears(poly[t:])

    triangles = ears(list(range(outer)))
    adjacent = {v: set() for v in range(outer)}
    for i in range(outer):
        adjacent[i].add((i + 1) % outer)
        adjacent[(i + 1) % outer].add(i)
    for a, b, c in triangles:
        for u, v in ((a, b), (b, c), (a, c)):
            adjacent[u].add(v)
            adjacent[v].add(u)
    rotation = [
        [u for t in range(1, outer) if (u := (v + t) % outer) in adjacent[v]]
        for v in range(outer)
    ]

    faces = [list(face_vertices(f)) for f in trace_faces(rotation) if len(f) == 3]
    if outer == 3:
        # both orbits are triangles; the outer one reads 0,1,2 in order
        faces = [f for f in faces if f != [0, 1, 2]] or [[0, 2, 1]]

    for w in range(outer, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        rotation.append([a, c, b])

        def wedge(x: int, p: int, q: int) -> None:
            i = rotation[x].index(p)
            if rotation[x][(i + 1) % len(rotation[x])] != q:
                raise RuntimeError("stacking corner out of order")
            rotation[x].insert(i + 1, w)

        wedge(a, c, b)
        wedge(b, a, c)
        wedge(c, b, a)
        faces += [[a, b, w], [b, c, w], [c, a, w]]
    return PlaneNearTriangulation.from_lists(rotation, range(outer))


def exceptional_theorem4_config(
    graph: PlaneNearTriangulation,
    phi: PhiAssignment,
    colors: ColorSystem,
    path: tuple[int, int, int],
) -> bool:
    """The counting bound's excluded shape: a vertex with exactly four
    available colors joined to all three precolored vertices, only one of
    whose colors survives the three images."""
    pre = colors.precolor_map()
    tail, major, head = path
    for u in range(graph.vertex_count):
        if u in path:
            continue
        if len(colors.available(u)) != 4:
            continue
        if not all(graph.has_edge(u, p) for p in path):
            continue
        images = {
            tau(phi, tail, pre[tail], u),
            tau(phi, major, pre[major], u),
            tau(phi, head, pre[head], u),
        }
        if len(colors.available(u) - images) == 1:
            return True
    return False


# ---------------------------------------------------------------------------
# Packets and evaluators
# ---------------------------------------------------------------------------
#
# A packet is (property_id, index, payload, aux); payload is a gcg document
# (or the string form for lemma5) and aux carries small per-packet integers.
# Evaluators return None on success or a failure note.


def _eval_calculus_obs1(payload: str, aux) -> str | None:
    for orientation in ((0, 1), (1, 0)):
        for value in range(5):
            phi = PhiAssignment(5, ((orientation[0], orientation[1], value),))
            for alpha in range(5):
                if tau(phi, 1, tau(phi, 0, alpha, 1), 0) != alpha:
                    return f"involution failed at value={value} alpha={alpha}"
    return None


def _eval_calculus_prop2(payload: str, aux) -> str | None:
    for a in range(5):
        for b in range(5):
            for c in range(5):
                phi = PhiAssignment(5, ((0, 1, a), (1, 2, b), (2, 0, c)))

                def holds(alpha: int) -> bool:
                    return tau(phi, 1, tau(phi, 0, alpha, 1), 2) == tau(phi, 0, alpha, 2)

                results = [holds(alpha) for alpha in range(5)]
                if any(results) != all(results):
                    return f"quantifier collapse failed at labels {(a, b, c)}"
    return None


def _eval_calculus_prop3(payload: str, aux) -> str | None:
    (n_max,) = aux
    for d, g, p in built_family(n_max):
        if not facial_triangle_property(g, p):
            return f"facial triangle property failed for {to_sexpr(d)}"
    return None


def _eval_calculus_shift(payload: str, aux) -> str | None:
    doc = gcg.parse_gcg(payload)
    v0, alpha = aux
    before = count_colorings(doc.graph, doc.phi, doc.colors)
    after = count_colorings(doc.graph, shift_phi(doc.phi, v0, alpha), doc.colors)
    if before != after:
        return f"count changed under shift at {v0} by {alpha}: {before} != {after}"
    return None


def _z5(payload: str) -> gcg.GcgDocument:
    """The gcg document of a packet for a statement about Z_5; any other
    modulus raises ``PropcheckError``."""
    doc = gcg.parse_gcg(payload)
    if doc.phi.modulus != 5:
        raise PropcheckError(f"packet is mod {doc.phi.modulus}; the check is for Z_5")
    return doc


def _principal_rerolls(
    phi: PhiAssignment, path: PrincipalPath, reroll_seed: int
) -> list[PhiAssignment]:
    """Two labelings of the records among tail, major and head (the tail-head
    edge too, when there is one) with fresh principal-edge labels: two
    draws per reroll, taken in ``phi.records`` order."""
    trio = (path.tail, path.major, path.head)
    principal = ({path.tail, path.major}, {path.major, path.head})
    records = [r for r in phi.records if r[0] in trio and r[1] in trio]
    rng = random.Random(reroll_seed)
    return [
        PhiAssignment(
            5,
            tuple(
                (t, h, rng.randrange(5)) if {t, h} in principal else (t, h, x)
                for t, h, x in records
            ),
        )
        for _ in range(2)
    ]


def _eval_lemma1(payload: str, aux) -> str | None:
    doc = _z5(payload)
    path = principal_path(doc.graph)
    # Rerolling the two principal-edge labels must not move the alpha; the
    # failure table is shared (it does not involve those edges), only the
    # properness filter changes with each reroll.  The filter reads only
    # the zero cells and the labels among tail, major and head, so a table
    # without a zero cell is vacuous under every reroll.
    table = lemma1_failure_table(doc.graph, doc.phi, doc.colors, path)
    zeros = {triple: 0 for triple, count in table.items() if not count}
    if not zeros:
        return None
    res = classify_alpha(zeros, doc.graph, doc.phi, path)
    if res.kind == "none":
        return "lemma1_alpha returned 'none' on a multi-wheel"
    diffs = {res.alpha} if res.kind == "alpha" else set()
    for phi in _principal_rerolls(doc.phi, path, aux[0]):
        rerolled = classify_alpha(zeros, doc.graph, phi, path)
        if rerolled.kind == "none":
            return "lemma1_alpha returned 'none' after a principal-edge reroll"
        if rerolled.kind == "alpha":
            diffs.add(rerolled.alpha)
    if len(diffs) > 1:
        return f"alpha changed under principal-edge rerolls: {sorted(diffs)}"
    return None


def _eval_lemma2(payload: str, aux) -> str | None:
    doc = _z5(payload)
    # Deleting a constraint cannot remove a coloring, so only an instance
    # with none can fail.
    if count_colorings(doc.graph, doc.phi, doc.colors):
        return None
    path = principal_path(doc.graph)
    principal = {
        frozenset((path.tail, path.major)),
        frozenset((path.major, path.head)),
    }
    for u, v in doc.graph.edges():
        if frozenset((u, v)) in principal:
            continue
        if count_colorings(doc.graph, doc.phi.remove_edge(u, v), doc.colors) == 0:
            return f"deleting edge {u}-{v} left no coloring"
    return None


def _eval_three_extendable(payload: str, aux) -> str | None:
    doc = _z5(payload)
    path = principal_path(doc.graph)
    trio = (path.tail, path.major, path.head)
    table = marginal_counts(doc.graph, doc.phi, doc.colors, keep=trio)
    for (ct, cm, ch), count in sorted(table.items()):
        if count == 0 and is_path_proper(doc.graph, doc.phi, path, (ct, cm, ch)):
            return f"precoloring (tail,major,head)=({ct},{cm},{ch}) does not extend"
    return None


def _eval_lemma4(payload: str, aux) -> str | None:
    doc = _z5(payload)
    path = principal_path(doc.graph)
    tail_forbidden = doc.colors.forbidden[path.tail]
    middles_cs = doc.colors.with_forbidden(path.tail, ())
    for c_head in range(5):
        cs = middles_cs.with_precolor(path.head, c_head)
        table = marginal_counts(
            doc.graph, doc.phi, cs, keep=(path.tail, path.major)
        )
        good_tail = None
        for ct in sorted(set(range(5)) - tail_forbidden):
            ok = True
            for cm in range(5):
                if cm == tau(doc.phi, path.head, c_head, path.major):
                    continue
                if cm == tau(doc.phi, path.tail, ct, path.major):
                    continue
                if table[(ct, cm)] == 0:
                    ok = False
                    break
            if ok:
                good_tail = ct
                break
        if good_tail is None:
            return f"no tail color protects every major color at head={c_head}"
    return None


def _parse_string_payload(payload: str):
    parts: list[FamilyDescriptor] = []
    values: dict[tuple[int, int], int] = {}
    forbidden: dict[int, frozenset[int]] = {}
    for raw in payload.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *args = line.split()
        if head == "parts":
            parts += parse_sexprs(" ".join(args))
        elif head == "edge":
            u, v, x = (int(a) for a in args)
            values[(u, v)] = x
        elif head == "forbid":
            v = int(args[0])
            forbidden[v] = frozenset(int(a) for a in args[1:])
        else:
            raise PropcheckError(f"unknown string-instance line {line!r}")
    string = build_wheel_string(parts)
    phi = PhiAssignment.from_values(values)
    fb = [forbidden.get(v, frozenset()) for v in range(string.vertex_count)]
    return string, phi, ColorSystem(5, tuple(fb))


def _string_payload(parts, phi: PhiAssignment, colors: ColorSystem) -> str:
    lines = ["parts " + " ".join(to_sexpr(d) for d in parts)]
    # The payload has no rotation lines, so every edge is written, zeros too.
    for t, h, x in sorted(phi.records, key=lambda r: (min(r[:2]), max(r[:2]))):
        lines.append(f"edge {t} {h} {x}")
    for v, fv in enumerate(colors.forbidden):
        if fv:
            lines.append(f"forbid {v} " + " ".join(str(c) for c in sorted(fv)))
    return "\n".join(lines) + "\n"


def _eval_lemma5(payload: str, aux) -> str | None:
    string, phi, colors = _parse_string_payload(payload)
    anchors = [string.clean[0], *string.cut, string.clean[1]]
    majors = string.majors

    def clashes(v: int, c: int, chosen: dict[int, int]) -> bool:
        """Color c is forbidden at v or clashes with a chosen neighbor."""
        return c in colors.forbidden[v] or any(
            u in chosen and c == tau(phi, u, chosen[u], v) for u in string.adjacency[v]
        )

    def anchor_choices(idx: int, chosen: dict[int, int]):
        if idx == len(anchors):
            yield dict(chosen)
            return
        v = anchors[idx]
        for c in range(5):
            if clashes(v, c, chosen):
                continue
            chosen[v] = c
            yield from anchor_choices(idx + 1, chosen)
            del chosen[v]

    for chosen in anchor_choices(0, {}):
        cs = colors
        for v, c in chosen.items():
            cs = cs.with_precolor(v, c)
        table = marginal_counts(string.vertex_count, phi, cs, keep=majors)
        if all(
            count or any(clashes(v, c, chosen) for v, c in zip(majors, assign))
            for assign, count in table.items()
        ):
            return None
    return "no clean/cut coloring protects every major coloring"


def _eval_theorem4(payload: str, aux) -> str | None:
    doc = _z5(payload)
    (mode,) = aux
    pre = doc.colors.precolor_map()
    if mode == 3:
        p = principal_path(doc.graph)
        trio = (p.tail, p.major, p.head)
        if exceptional_theorem4_config(doc.graph, doc.phi, doc.colors, trio):
            return None  # excluded configuration; never testable
    count = count_colorings(doc.graph, doc.phi, doc.colors)
    if count == 0:
        return None
    free = [v for v in range(doc.graph.vertex_count) if v not in pre]
    r = sum(1 for v in free if len(doc.colors.available(v)) == 3)
    bound = 2 ** (len(free) / 9 - r / 3)
    if count < bound:
        return f"count {count} below bound 2^({len(free)}/9 - {r}/3) = {bound:.4f}"
    return None


def _eval_corollary2(payload: str, aux) -> str | None:
    doc = _z5(payload)
    count = count_colorings(doc.graph, doc.phi, doc.colors)
    n = doc.graph.vertex_count
    bound = 2 ** (n / 9)
    if count < bound:
        return f"count {count} below 2^({n}/9) = {bound:.4f}"
    return None


_EVALUATORS = {
    "calculus/obs1": _eval_calculus_obs1,
    "calculus/prop2": _eval_calculus_prop2,
    "calculus/prop3": _eval_calculus_prop3,
    "calculus/shift": _eval_calculus_shift,
    "lemma1": _eval_lemma1,
    "lemma2": _eval_lemma2,
    "lemma3a": _eval_three_extendable,
    "lemma3b": _eval_three_extendable,
    "cor1": _eval_three_extendable,
    "lemma4": _eval_lemma4,
    "lemma5": _eval_lemma5,
    "theorem4": _eval_theorem4,
    "corollary2": _eval_corollary2,
}


def replay(evaluator_id: str, payload: str, aux=()) -> str | None:
    """Re-run one packet standalone; None means the property holds on it."""
    return _EVALUATORS[evaluator_id](payload, tuple(aux))


def _run_packets(packets, jobs: int) -> list[tuple[int, str, str]]:
    """(index, payload, note) of every failing packet, in packet order;
    ``pool.map`` keeps that order too.  The pool starts all its workers at
    once, so it gets no more than there are packets or CPUs."""
    args = [[p[0] for p in packets], [p[2] for p in packets], [p[3] for p in packets]]
    workers = min(jobs, len(packets), os.cpu_count() or 1)
    if workers <= 1:
        notes = list(map(replay, *args))
    else:
        # Imported here: it loads multiprocessing, which a process that
        # never starts a pool (a bench worker, say) need not pay for.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            notes = list(pool.map(replay, *args, chunksize=4))
    return [
        (index, payload, note)
        for (_, index, payload, _), note in zip(packets, notes)
        if note is not None
    ]


# ---------------------------------------------------------------------------
# Check drivers
# ---------------------------------------------------------------------------


def _need_n_max(cfg: RandomInstanceConfig, prop: str, smallest: int) -> None:
    if cfg.n_max < smallest:
        raise PropcheckError(f"{prop} needs n_max >= {smallest}, got {cfg.n_max}")


def _lemma3_graph(prop: str, k: int, i: int) -> PlaneNearTriangulation:
    """Two interior vertices u, v inside the outer cycle 0..k-1.  In lemma3a
    (3 <= i <= k-1), u sees the boundary from the major round to position i,
    v sees position i round to the major, and u-v is a chordal split between
    the fans.  In lemma3b (4 <= i <= k-1), u sees positions 1..i-1, v sees
    the major, position 1, and positions i-1 round to the tail."""
    u, v = k, k + 1
    if prop == "lemma3a":
        rot = {0: [1, u, v, k - 1], 1: [2, u, 0],
               u: [*range(0, i), v], v: [*range(i - 1, k), 0, u]}
    else:
        rot = {0: [1, v, k - 1], 1: [2, u, v, 0],
               u: [*range(1, i), v], v: [0, 1, u, *range(i - 1, k)]}
    for j in range(2, k):
        fan = [u] if j < i - 1 else [v, u] if j == i - 1 else [v]
        rot[j] = [(j + 1) % k, *fan, j - 1]
    return PlaneNearTriangulation.from_lists([rot[x] for x in range(k + 2)], range(k))


def _forbid_middles(
    graph: PlaneNearTriangulation, path: PrincipalPath, rng: random.Random
) -> ColorSystem:
    """Up to two forbidden colors on every outer vertex off the principal
    path; no other constraint."""
    middles = [v for v in graph.outer_cycle if v not in (path.tail, path.major, path.head)]
    return random_forbidden(ColorSystem.free(graph.vertex_count), middles, rng, 2)


def _precolored_path(
    graph: PlaneNearTriangulation,
    phi: PhiAssignment,
    path: PrincipalPath,
    rng: random.Random,
) -> ColorSystem:
    """``_forbid_middles``, then a random path-proper precoloring of the
    principal path."""
    colors = _forbid_middles(graph, path, rng)
    cm = rng.randrange(5)
    ct = rng.choice([c for c in range(5) if c != tau(phi, path.major, cm, path.tail)])
    # At most two of the five head colors clash (with the major and, over a
    # tail-head edge, with the tail), so the choice is never empty.
    heads = [c for c in range(5) if is_path_proper(graph, phi, path, (ct, cm, c))]
    for v, c in ((path.tail, ct), (path.major, cm), (path.head, rng.choice(heads))):
        colors = colors.with_precolor(v, c)
    return colors


def _member_packets(cfg: RandomInstanceConfig, prop: str, keep, constrain) -> list:
    """Sampled family-member packets for the family lemmas; ``constrain``
    returns each packet's (colors, aux)."""
    # Only the first `samples` members that pass are ever drawn; one is
    # looked for even at samples=0, so that an empty filter still raises.
    passing = (item for item in family_members(cfg.n_max) if keep(*item))
    members = list(islice(passing, max(cfg.samples, 1)))
    if not members:
        raise PropcheckError(f"no members available for {prop} at n_max={cfg.n_max}")
    packets = []
    for index in range(cfg.samples):
        d, g, p = members[index % len(members)]
        sub_rng = random.Random(derive_seed(cfg.seed, prop, index))
        phi = random_phi(g.edges(), sub_rng, cfg.phi_mode)
        cs, aux = constrain(g, p, phi, sub_rng, index)
        payload = gcg.write_gcg(g, phi, cs, descriptor=to_sexpr(d))
        packets.append((prop, index, payload, aux))
    return packets


def _triangulation_packets(
    cfg: RandomInstanceConfig, prop: str, smallest: int, constrain
) -> list:
    """Packets for the counting bounds: one random triangulation per 50
    samples, each under up to 50 labelings; ``constrain`` returns each
    packet's (colors, aux) from its labeling index."""
    _need_n_max(cfg, prop, smallest)
    packets = []
    for gi in range(max(1, cfg.samples // 50)):
        rng_g = random.Random(derive_seed(cfg.seed, f"{prop}-graph", gi))
        n = rng_g.randint(smallest, cfg.n_max)
        g = random_triangulation(n, derive_seed(cfg.seed, prop, gi))
        for pi in range(min(cfg.samples, 50)):
            rng = random.Random(derive_seed(cfg.seed, f"{prop}-phi", gi, pi))
            phi = random_phi(g.edges(), rng, cfg.phi_mode)
            cs, aux = constrain(g, phi, rng, pi)
            packets.append((prop, len(packets), gcg.write_gcg(g, phi, cs), aux))
    return packets


def _calculus_packets(cfg: RandomInstanceConfig) -> list:
    _need_n_max(cfg, "calculus", 4)
    packets = [
        ("calculus/obs1", 0, "", ()),
        ("calculus/prop2", 1, "", ()),
        ("calculus/prop3", 2, "", (min(cfg.n_max, 12),)),
    ]
    for index in range(cfg.samples):
        rng = random.Random(derive_seed(cfg.seed, "calculus", index))
        n = rng.randint(4, min(cfg.n_max, 8))
        g = random_triangulation(n, derive_seed(cfg.seed, "calculus-graph", index))
        phi = random_phi(g.edges(), rng, cfg.phi_mode)
        cs = random_forbidden(ColorSystem.free(n), g.outer_cycle, rng, 2)
        payload = gcg.write_gcg(g, phi, cs)
        # The count bijection re-maps the shifted vertex's color, so that
        # vertex must be free of forbidden colors.
        v0 = rng.choice([v for v in range(n) if not cs.forbidden[v]])
        aux = (v0, rng.randrange(5))
        packets.append(("calculus/shift", index + 3, payload, aux))
    return packets


def _lemma1_packets(cfg: RandomInstanceConfig) -> list:
    def constrain(g, p, phi, rng, index):
        reroll = derive_seed(cfg.seed, "lemma1-reroll", index)
        return _forbid_middles(g, p, rng), (reroll,)

    return _member_packets(
        cfg, "lemma1", lambda d, g, p: is_multi_wheel_descriptor(d), constrain
    )


def _lemma2_packets(cfg: RandomInstanceConfig) -> list:
    return _member_packets(
        cfg,
        "lemma2",
        lambda d, g, p: not separating_cycles(g, 3),
        lambda g, p, phi, rng, index: (_precolored_path(g, phi, p, rng), ()),
    )


def _lemma3_packets(cfg: RandomInstanceConfig, name: str) -> list:
    low = 3 if name == "lemma3a" else 4
    _need_n_max(cfg, name, low + 3)
    packets = []
    for index in range(cfg.samples):
        rng = random.Random(derive_seed(cfg.seed, name, index))
        k = rng.randint(low + 1, min(cfg.n_max - 2, 12))
        g = _lemma3_graph(name, k, rng.randint(low, k - 1))
        phi = random_phi(g.edges(), rng, cfg.phi_mode)
        cs = _forbid_middles(g, principal_path(g), rng)
        packets.append((name, index, gcg.write_gcg(g, phi, cs), ()))
    return packets


def _cor1_packets(cfg: RandomInstanceConfig) -> list:
    def keep(d, g, p):
        interior = g.interior_vertices()
        return (
            is_multi_wheel_descriptor(d)
            and len(interior) >= 2
            and all(g.has_edge(v, p.head) for v in interior)
            and not separating_cycles(g, 3)
        )

    return _member_packets(
        cfg,
        "cor1",
        keep,
        lambda g, p, phi, rng, index: (_forbid_middles(g, p, rng), ()),
    )


def _lemma4_packets(cfg: RandomInstanceConfig) -> list:
    def constrain(g, p, phi, rng, index):
        eligible = [v for v in g.outer_cycle if v not in (p.major, p.head)]
        return random_forbidden(ColorSystem.free(g.vertex_count), eligible, rng, 2), ()

    return _member_packets(cfg, "lemma4", lambda d, g, p: True, constrain)


def _lemma5_packets(cfg: RandomInstanceConfig) -> list:
    # Every member has at least 3 vertices and the members drawn have at
    # most max(3, n_max - 3), so from n_max = 3 one part always fits.
    _need_n_max(cfg, "lemma5", 3)
    members = built_family(max(3, cfg.n_max - 3))
    packets = []
    for index in range(cfg.samples):
        rng = random.Random(derive_seed(cfg.seed, "lemma5", index))
        count = rng.randint(1, 3)
        while True:
            parts = [members[rng.randrange(len(members))][0] for _ in range(count)]
            string = build_wheel_string(parts)
            if string.vertex_count <= cfg.n_max:
                break
            count = max(1, count - 1)
        phi = random_phi(string.edges(), rng, cfg.phi_mode)
        cs = ColorSystem.free(string.vertex_count)
        for v in string.boundary:
            cap = 3 if v in string.clean else 2
            cs = cs.with_forbidden(v, rng.sample(range(5), rng.randint(0, cap)))
        packets.append(("lemma5", index, _string_payload(parts, phi, cs), ()))
    return packets


def _theorem4_packets(cfg: RandomInstanceConfig) -> list:
    def constrain(g, phi, rng, pi):
        if pi % 2:
            return _precolored_path(g, phi, principal_path(g), rng), (3,)
        oc = g.outer_cycle
        cs = random_forbidden(ColorSystem.free(g.vertex_count), oc[2:], rng, 2)
        cm = rng.randrange(5)
        ch = rng.choice([c for c in range(5) if c != tau(phi, oc[0], cm, oc[1])])
        return cs.with_precolor(oc[0], cm).with_precolor(oc[1], ch), (2,)

    return _triangulation_packets(cfg, "theorem4", 4, constrain)


def _corollary2_packets(cfg: RandomInstanceConfig) -> list:
    return _triangulation_packets(
        cfg,
        "corollary2",
        3,
        lambda g, phi, rng, pi: (ColorSystem.free(g.vertex_count), ()),
    )


# One driver per property identifier: it builds the property's seeded packet
# stream, which ``run_check`` evaluates.
CHECKS = {
    "calculus": _calculus_packets,
    "lemma1": _lemma1_packets,
    "lemma2": _lemma2_packets,
    "lemma3a": lambda cfg: _lemma3_packets(cfg, "lemma3a"),
    "lemma3b": lambda cfg: _lemma3_packets(cfg, "lemma3b"),
    "cor1": _cor1_packets,
    "lemma4": _lemma4_packets,
    "lemma5": _lemma5_packets,
    "theorem4": _theorem4_packets,
    "corollary2": _corollary2_packets,
}
CHECK_IDS = tuple(CHECKS)

_NOTES = {
    "lemma5": (
        "clean vertices capped at three forbidden colors, all other "
        "boundary vertices at two, as stated",
    ),
}

# The lemma checks by the paper's numbering.
_LEMMAS = {1: "lemma1", 2: "lemma2", "3a": "lemma3a", "3b": "lemma3b",
           4: "lemma4", 5: "lemma5", "cor1": "cor1"}


def run_check(property_id: str, cfg: RandomInstanceConfig, jobs: int = 1) -> CheckReport:
    if property_id not in CHECKS:
        raise PropcheckError(f"unknown property {property_id!r}")
    if cfg.samples < 0:
        raise PropcheckError("samples must be at least 0")
    start = time.perf_counter()
    packets = CHECKS[property_id](cfg)
    failures = _run_packets(packets, jobs)
    return CheckReport(
        name=property_id,
        seed=cfg.seed,
        instances=len(packets),
        counterexamples=tuple(
            payload + f"# failure: {note}\n# packet: {index}\n"
            for index, payload, note in failures
        ),
        seconds=time.perf_counter() - start,
        notes=_NOTES.get(property_id, ()),
    )


def check_lemma(ident, cfg: RandomInstanceConfig, jobs: int = 1) -> CheckReport:
    """A lemma check by number (1, 2, "3a", "3b", 4, 5, "cor1") or by its
    property identifier."""
    name = _LEMMAS.get(ident, ident)
    if name not in _LEMMAS.values():
        raise PropcheckError(f"unknown lemma identifier {ident!r}")
    return run_check(name, cfg, jobs)


def check_theorem4_bound(cfg: RandomInstanceConfig, jobs: int = 1) -> CheckReport:
    return run_check("theorem4", cfg, jobs)


def check_corollary(cfg: RandomInstanceConfig, jobs: int = 1) -> CheckReport:
    return run_check("corollary2", cfg, jobs)

