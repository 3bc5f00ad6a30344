"""Wheel-family grammar: constructors, recognizer, and enumeration.

The graph classes used by the extendability arguments are generated by a
small grammar over plane near-triangulations carrying a *principal path*
(three consecutive outer vertices; the middle one is the *major* vertex):

- ``BrokenWheel(k)``: outer k-cycle fanned from the major vertex by chords.
- ``Wheel(k)``: outer k-cycle plus a hub joined to all of it.
- ``Glue(left, right)``: identify one principal edge of each part so the
  major vertices coincide; ``right`` ends up on the head side.  Closing
  wheels and broken wheels under Glue gives the generalized wheels.
- ``InsertWheel(base, edge, subdivisions)``: pick a facial triangle x-u-y
  with x, y consecutive outer vertices (neither the major) and u interior;
  replace the outer edge x-y by a path of ``subdivisions`` new vertices and
  add a new hub joined to x, y, u and the path.  Closing wheels (resp.
  generalized wheels) under insertion gives the multi-wheels (resp. the
  generalized multi-wheels).

Canonical numbering of every built graph: outer cycle first, clockwise from
the major vertex, then interior vertices in insertion order.

Recognition inverts the grammar in one pass over one mutable copy: the
Glue seams are read off the major vertex's rotation, then inserted hubs are
peeled in place, lowest-numbered first and never retried (peels commute),
until each part is an empty triangle or a wheel.
"""

from __future__ import annotations

import gc
import re
from bisect import bisect, insort
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, reduce
from heapq import heappop, heappush
from typing import Iterator, Sequence, Union

from .plane_graph import (
    PlaneNearTriangulation,
    faces_of,
    linear_from,
    outer_face_index,
)


class FamilyError(ValueError):
    """Malformed descriptor or impossible construction step."""


@dataclass(frozen=True)
class PrincipalPath:
    """Three consecutive outer vertices in clockwise order; ``major`` is the
    middle one, ``head`` the clockwise-next principal neighbor."""

    tail: int
    major: int
    head: int


@dataclass(frozen=True)
class BrokenWheel:
    size: int  # outer cycle length == vertex count, >= 3


@dataclass(frozen=True)
class Wheel:
    size: int  # outer cycle length; vertex count is size + 1


@dataclass(frozen=True)
class Glue:
    left: "FamilyDescriptor"
    right: "FamilyDescriptor"


@dataclass(frozen=True)
class InsertWheel:
    base: "FamilyDescriptor"
    edge: int  # outer edge from canonical vertex `edge` to `edge + 1` of the base
    subdivisions: int


FamilyDescriptor = Union[BrokenWheel, Wheel, Glue, InsertWheel]


def descriptor_size(d: FamilyDescriptor) -> int:
    """Vertex count of the built graph: a sum over the terms, walked on an
    explicit stack (each Glue shares two vertices between its parts)."""
    total, stack = 0, [d]
    while stack:
        d = stack.pop()
        if isinstance(d, BrokenWheel):
            total += d.size
        elif isinstance(d, Wheel):
            total += d.size + 1
        elif isinstance(d, Glue):
            total -= 2
            stack += (d.left, d.right)
        elif isinstance(d, InsertWheel):
            total += 1 + d.subdivisions
            stack.append(d.base)
        else:
            raise FamilyError(f"not a descriptor: {d!r}")
    return total


def is_multi_wheel_descriptor(d: FamilyDescriptor) -> bool:
    """Multi-wheels are exactly the Wheel/InsertWheel terms (no Glue, no
    broken wheels: a broken wheel is a generalized multi-wheel but never a
    multi-wheel)."""
    while isinstance(d, InsertWheel):
        d = d.base
    return isinstance(d, Wheel)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _build_broken_wheel(k: int) -> PlaneNearTriangulation:
    if k < 3:
        raise FamilyError(f"broken wheel needs size >= 3, got {k}")
    rot: list[list[int]] = [list(range(1, k)), [2, 0]]
    for i in range(2, k - 1):
        rot.append([i + 1, 0, i - 1])
    rot.append([0, k - 2])
    if k == 3:
        rot = [[1, 2], [2, 0], [0, 1]]
    return PlaneNearTriangulation.from_lists(rot, range(k))


def _build_wheel(k: int) -> PlaneNearTriangulation:
    if k < 3:
        raise FamilyError(f"wheel needs size >= 3, got {k}")
    hub = k
    rot = [[(j + 1) % k, hub, (j - 1) % k] for j in range(k)]
    rot.append(list(range(k)))
    return PlaneNearTriangulation.from_lists(rot, range(k))


def _glue(left: PlaneNearTriangulation, right: PlaneNearTriangulation) -> PlaneNearTriangulation:
    nl, kl = left.vertex_count, len(left.outer_cycle)
    nr, kr = right.vertex_count, len(right.outer_cycle)
    # Glued labels, canonical from the start: the shared major, the right
    # part's outer vertices up to its tail (which lands on the left head),
    # the rest of the left outer cycle, then right and left interiors.
    to_r = [*range(kr), *range(kl + kr - 2, kl + nr - 2)].__getitem__
    to_l = [0, kr - 1, *range(kr, kr + kl - 2), *range(nr + kl - 2, nr + nl - 2)].__getitem__
    rr, lr = right.rotation, left.rotation
    rows = [
        # Major: right fan (head..tail) then left fan minus its duplicated head.
        (*map(to_r, linear_from(rr[0], 1)), *map(to_l, linear_from(lr[0], 1)[1:])),
        *[tuple(map(to_r, rr[v])) for v in range(1, kr - 1)],
        # Shared vertex: left side from its outer successor around to the
        # major, then the right side continuing to its outer predecessor.
        (*map(to_l, linear_from(lr[1], 2)), *map(to_r, linear_from(rr[kr - 1], 0)[1:])),
        *[tuple(map(to_l, lr[v])) for v in range(2, kl)],
        *[tuple(map(to_r, rr[v])) for v in range(kr, nr)],
        *[tuple(map(to_l, lr[v])) for v in range(kl, nl)],
    ]
    return PlaneNearTriangulation(nl + nr - 2, tuple(rows), tuple(range(kl + kr - 2)))


def _insert_wheel(
    base: PlaneNearTriangulation, edge: int, subdivisions: int
) -> PlaneNearTriangulation:
    k = len(base.outer_cycle)
    n = base.vertex_count
    j = subdivisions
    if j < 0:
        raise FamilyError("subdivision count must be nonnegative")
    if not 1 <= edge <= k - 2:
        raise FamilyError(
            f"edge index {edge} out of range (must avoid the major vertex)"
        )
    x, y = edge, edge + 1
    nb = base.rotation[x]
    u = nb[(nb.index(y) + 1) % len(nb)]
    if base.is_outer(u):
        raise FamilyError(
            f"outer edge {x}-{y} has no interior facial triangle to insert into"
        )

    # New labels, canonical from the start: the base's vertices up to x,
    # the path of j subdividers, the rest of the base, then the hub.
    to_new = [*range(x + 1), *range(x + 1 + j, n + j)].__getitem__
    rows = [list(map(to_new, r)) for r in base.rotation]  # by base vertex
    rx, ry, ru = rows[x], rows[y], rows[u]
    x, y, u = to_new(x), to_new(y), to_new(u)  # the path is x + 1 .. y - 1
    hub = n + j

    ru.insert(ru.index(x) + 1, hub)
    if j == 0:
        rx.insert(rx.index(y) + 1, hub)
        ry.insert(ry.index(u) + 1, hub)
    else:
        pos = rx.index(y)
        rx[pos : pos + 1] = [x + 1, hub]
        pos = ry.index(x)
        ry[pos : pos + 1] = [hub, y - 1]

    rows[x + 1 : x + 1] = [[w + 1, hub, w - 1] for w in range(x + 1, y)]
    rows.append([*range(x, y + 1), u])
    return PlaneNearTriangulation(n + j + 1, tuple(map(tuple, rows)), tuple(range(k + j)))


def build(d: FamilyDescriptor) -> tuple[PlaneNearTriangulation, PrincipalPath]:
    """Build the described graph with canonical numbering.

    The outer cycle is 0..k-1 clockwise with the major vertex at 0, so the
    principal path is always (k-1, 0, 1).
    """
    if isinstance(d, BrokenWheel):
        g = _build_broken_wheel(d.size)
    elif isinstance(d, Wheel):
        g = _build_wheel(d.size)
    elif isinstance(d, Glue):
        g = _glue(build(d.left)[0], build(d.right)[0])
    elif isinstance(d, InsertWheel):
        g = _insert_wheel(build(d.base)[0], d.edge, d.subdivisions)
    else:
        raise FamilyError(f"not a descriptor: {d!r}")
    return g, principal_path(g)


def principal_path(graph: PlaneNearTriangulation) -> PrincipalPath:
    """The outer cycle's (last, first, second) vertices: the principal path
    of a graph whose outer cycle is written from the major vertex, as every
    canonically numbered member's is."""
    oc = graph.outer_cycle
    return PrincipalPath(oc[-1], oc[0], oc[1])


# ---------------------------------------------------------------------------
# Recognition
# ---------------------------------------------------------------------------


def recognize_generalized_multi_wheel(
    graph: PlaneNearTriangulation, path: PrincipalPath
) -> FamilyDescriptor | None:
    """A descriptor rebuilding a graph isomorphic to this one (principal
    path preserved), or None when the graph is outside the class.

    The major vertex's outer neighbours, read around it from head to tail,
    are the Glue seams.  Hubs are then peeled in place, always the
    lowest-numbered removable one: exactly one interior neighbour u, then
    around it an outer arc x, subdividers, y, clockwise off the major, each
    subdivider of degree 3, u adjacent to x and y, and no edge x-y unless
    the arc is just x, y.  Peeling one hub leaves every other removable
    unless the two are each other's u (the commutation ``_offer_hubs``
    relies on), so no choice is retried; a retry never turned a rejection
    into a member on any member to size 11, any stacking of one to size 9,
    or thousands of random near-triangulations.  After a peel only u is
    looked at again: x-y then bounds the face x-y-u, so no other vertex's
    arc can have changed.  Each part must end as an empty triangle or as a
    wheel whose hub, the fan entry after the part's first seam, sees
    exactly the part's outer cycle.  Its peels nest in reverse, each at
    x's rank on the part's outer path at the time.
    """
    oc = linear_from(graph.outer_cycle, path.major)
    if oc[1] != path.head or oc[-1] != path.tail:
        raise FamilyError("principal path is not consecutive clockwise on the outer cycle")
    k, major = len(oc), oc[0]
    at = {v: i for i, v in enumerate(oc)}
    succ = dict(zip(oc[1:], oc[2:]))  # clockwise along the outer path off the major
    rot = [list(r) for r in graph.rotation]
    adj = [set(r) for r in graph.rotation]
    fan = linear_from(graph.rotation[major], oc[1])
    ends = [i for i, v in enumerate(fan) if v in at]
    seams = [at[fan[i]] for i in ends]
    peeled: list[int] = []  # outer indices of peeled subdividers, sorted

    def removable(w: int) -> tuple[int, list[int]] | None:
        r = rot[w]
        inner = [i for i, v in enumerate(r) if v not in at]
        if len(inner) != 1:
            return None
        i = inner[0]
        u, arc = r[i], r[i + 1 :] + r[:i]
        if len(arc) < 2 or any(succ.get(a) != b for a, b in zip(arc, arc[1:])):
            return None
        if any(adj[s] != {w, a, b} for a, s, b in zip(arc, arc[1:], arc[2:])):
            return None
        x, y = arc[0], arc[-1]
        if x not in adj[u] or y not in adj[u] or (len(arc) > 2 and y in adj[x]):
            return None
        return u, arc

    peels: list[list[tuple[int, int]]] = [[] for _ in seams[1:]]
    heap = [v for v in range(graph.vertex_count) if v not in at]
    while heap:
        w = heappop(heap)
        hit = removable(w)
        if hit is None:
            continue
        u, arc = hit
        x, y, subdividers = arc[0], arc[-1], arc[1:-1]
        t = bisect(seams, at[x]) - 1
        rank = 1 + at[x] - seams[t] - bisect(peeled, at[x]) + bisect(peeled, seams[t])
        peels[t].append((rank, len(subdividers)))
        if subdividers:
            rot[x][rot[x].index(subdividers[0])] = y
            rot[y][rot[y].index(subdividers[-1])] = x
            adj[x] ^= {subdividers[0], y}  # swap the end subdivider for y
            adj[y] ^= {subdividers[-1], x}
            succ[x] = y
            for s in subdividers:
                insort(peeled, at[s])
        for v in (u, x, y):
            rot[v].remove(w)
            adj[v].remove(w)
        rot[w] = []  # so a stale heap entry for w is never removable
        heappush(heap, u)

    parts: list[FamilyDescriptor] = []
    left_over = graph.vertex_count - k - sum(map(len, peels))
    for t, (a, b) in enumerate(zip(seams, seams[1:])):
        ring, v = {major, oc[a]}, oc[a]
        while v != oc[b]:
            v = succ[v]
            ring.add(v)
        hub = fan[ends[t] + 1]
        if hub in at:
            if len(ring) != 3:
                return None  # a chord off the major vertex
            d: FamilyDescriptor = BrokenWheel(3)
        elif adj[hub] == ring:
            d = Wheel(len(ring))
            left_over -= 1
        else:
            return None
        for rank, j in reversed(peels[t]):
            d = InsertWheel(d, rank, j)
        parts.append(d)
    if left_over:
        return None  # an interior vertex neither peeled nor a wheel's hub
    return reduce(Glue, reversed(parts))


def facial_triangle_property(
    graph: PlaneNearTriangulation, path: PrincipalPath
) -> bool:
    """Every inner face has a vertex on the outer cycle other than the
    major vertex (holds throughout the generalized multi-wheel class)."""
    outer_idx = outer_face_index(graph)
    allowed = graph.outer_set() - {path.major}
    for i, face in enumerate(faces_of(graph)):
        if i == outer_idx:
            continue
        if not any(d[0] in allowed for d in face):
            return False
    return True


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


class _Level(tuple):
    """The members of one size as ``(descriptor, graph)`` pairs, plus what
    generating the larger sizes reads from them.

    ``hubs[i]`` lists the hubs of member i whose removal leaves a member,
    the ones its last insertion could have added (none unless it is an
    InsertWheel: a wheel's own hub stays).  A hub with ``j``
    subdividers whose outer arc starts at canonical vertex ``x``, and
    whose removal leaves member ``rest`` of size ``len - 1 - j``, is kept
    as ``(-j, rest, x)``: its place among the offers that make member i.
    ``offers`` maps an insertion ``(base index, site, j)`` that makes a
    graph of this size to the index of its member; it holds every
    insertion made and, as they are asked for, skipped ones."""

    hubs: tuple[tuple[tuple[int, int, int], ...], ...]
    offers: dict[tuple[int, int, int], int]


def _offer_hubs(size: int, base: int, site: int, j: int) -> list[tuple[int, int, int]]:
    """The hubs of the graph that inserting a wheel with ``j`` subdividers
    at ``site`` of member ``base`` (of size ``size - 1 - j``) makes, the new
    hub first, each as ``_Level.hubs`` keeps it.

    A hub of the base stays removable unless the new hub sits on its arc
    (it is then the new hub's third vertex).  Otherwise the two insertions
    commute: removing the base hub leaves the insertion at the same site,
    shifted left by the base hub's subdividers when they lie before it."""
    hubs = [(-j, base, site)]
    for neg_j, rest, x in _members_of_size(size - 1 - j).hubs[base]:
        if x > site:
            hubs.append((neg_j, _offer_member(size + neg_j - 1, rest, site, j), x + j))
        elif x - neg_j < site:
            hubs.append((neg_j, _offer_member(size + neg_j - 1, rest, site + neg_j, j), x))
    return hubs


def _offer_member(size: int, base: int, site: int, j: int) -> int:
    """Index, among the members of ``size``, of the graph that the
    insertion ``(base, site, j)`` makes: that of the first offer removing
    one of its hubs."""
    offers = _members_of_size(size).offers
    found = offers.get((base, site, j))
    if found is None:
        neg_j, rest, x = min(_offer_hubs(size, base, site, j))
        found = offers[(base, site, j)] = offers[(rest, x, -neg_j)]
    return found


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector and restore its state after.

    Generation allocates about a million tuples and objects for sizes
    3-13 and makes no reference cycle, so refcounting frees all its
    garbage; the collector's passes over the young objects took a third of
    its time."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


@lru_cache(maxsize=32)
def _members_of_size(size: int) -> _Level:
    """One ``(descriptor, graph)`` pair per member with ``size`` vertices.

    Members come in the order of their first offer among all offers of
    their parts: the broken wheel, the wheel, then every Glue by ascending
    left size (each left member against each right member), then every
    InsertWheel by ascending base size (each base member at each insertion
    site).  Only first offers are made, so no two members share a graph
    and no embeddings are compared.  An offer is skipped when another
    offer of its graph comes before it:

    - ``Glue(left, right)`` when ``left`` has a chord, that is, it is a
      Glue or a broken wheel of size >= 4.  Glue is associative and a
      broken wheel is a Glue of triangles, so the split at the chord
      nearest the tail, with the smallest left size, comes first.
    - ``Glue(BrokenWheel(3), BrokenWheel(k))``, which is the broken wheel
      of size k + 1.
    - ``InsertWheel`` on a broken wheel (it has no site) or on a Glue: that
      is a Glue with the insertion made in one of its parts.
    - ``InsertWheel(base, site, j)`` when another hub of the result, whose
      removal leaves a member, comes first: one with more subdividers
      (a smaller base), or as many and a base of lower index, or the same
      base and a lower site.  ``_offer_hubs`` finds these hubs from the
      base's own.

    An offer's graph is made from the graphs already stored for its parts,
    which is what ``build`` would rebuild recursively from their
    descriptors."""
    with _collector_paused():
        return _generate(size)


def _generate(size: int) -> _Level:
    found: list[tuple[FamilyDescriptor, PlaneNearTriangulation]] = []
    if size >= 3:
        found.append((BrokenWheel(size), _build_broken_wheel(size)))
    if size >= 4:
        found.append((Wheel(size - 1), _build_wheel(size - 1)))
    triangle = BrokenWheel(3)
    for left_size in range(3, size):
        right = _members_of_size(size + 2 - left_size)
        for dl, gl in _members_of_size(left_size):
            if isinstance(dl, (Glue, BrokenWheel)) and dl != triangle:
                continue
            for dr, gr in right:
                if dl != triangle or not isinstance(dr, BrokenWheel):
                    found.append((Glue(dl, dr), _glue(gl, gr)))
    hubs: list[tuple[tuple[int, int, int], ...]] = [()] * len(found)
    offers: dict[tuple[int, int, int], int] = {}
    for base_size in range(4, size):
        j = size - base_size - 1
        for base, (db, gb) in enumerate(_members_of_size(base_size)):
            if not isinstance(db, (Wheel, InsertWheel)):
                continue
            # With no chord, every outer edge off the major is a site.
            for site in range(1, len(gb.outer_cycle) - 1):
                made = _offer_hubs(size, base, site, j)
                if min(made) == made[0]:
                    offers[(base, site, j)] = len(found)
                    found.append((InsertWheel(db, site, j), _insert_wheel(gb, site, j)))
                    hubs.append(tuple(made))
    level = _Level(found)
    level.hubs = tuple(hubs)
    level.offers = offers
    return level


def enumerate_family(max_n: int) -> Iterator[FamilyDescriptor]:
    """All generalized multi-wheels with at most max_n vertices, exactly one
    descriptor per isomorphism class (principal path fixed), sizes ascending."""
    if max_n < 3:
        raise FamilyError("max_n must be at least 3")
    for d, _, _ in family_members(max_n):
        yield d


def family_members(
    max_n: int,
) -> Iterator[tuple[FamilyDescriptor, PlaneNearTriangulation, PrincipalPath]]:
    """Members with at most max_n vertices with their principal paths,
    sizes ascending.  A size is generated only when the walk reaches it, so
    a caller that stops early never pays for the larger sizes."""
    for size in range(3, max_n + 1):
        for d, g in _members_of_size(size):
            yield d, g, principal_path(g)


def built_family(max_n: int) -> list[tuple[FamilyDescriptor, PlaneNearTriangulation, PrincipalPath]]:
    return list(family_members(max_n))


# ---------------------------------------------------------------------------
# Wheel strings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WheelString:
    """Chain of generalized multi-wheels identified at principal neighbors.

    Consecutive parts share exactly one vertex (head of one part = tail of
    the next); the unshared end neighbors are the clean vertices.  Not a
    near-triangulation (the shared vertices are cut vertices), so only the
    adjacency structure is kept."""

    vertex_count: int
    adjacency: tuple[frozenset[int], ...]
    clean: tuple[int, int]
    cut: tuple[int, ...]
    majors: tuple[int, ...]
    boundary: tuple[int, ...]
    part_vertices: tuple[tuple[int, ...], ...]

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v)
            for u in range(self.vertex_count)
            for v in self.adjacency[u]
            if u < v
        ]


def build_wheel_string(parts: Sequence[FamilyDescriptor]) -> WheelString:
    if not parts:
        raise FamilyError("a wheel string needs at least one part")
    built = [build(d) for d in parts]
    adjacency: list[set[int]] = []
    maps: list[dict[int, int]] = []
    boundary: set[int] = set()
    fresh = 0
    prev_head = None
    for graph, ppath in built:
        local: dict[int, int] = {}
        if prev_head is not None:
            local[ppath.tail] = prev_head
        for v in range(graph.vertex_count):
            if v not in local:
                local[v] = fresh
                fresh += 1
                adjacency.append(set())
        for u, v in graph.edges():
            adjacency[local[u]].add(local[v])
            adjacency[local[v]].add(local[u])
        boundary.update(local[v] for v in graph.outer_cycle)
        maps.append(local)
        prev_head = local[ppath.head]
    clean = (maps[0][built[0][1].tail], maps[-1][built[-1][1].head])
    cut = tuple(maps[t][built[t][1].head] for t in range(len(parts) - 1))
    majors = tuple(maps[t][built[t][1].major] for t in range(len(parts)))
    part_vertices = tuple(
        tuple(maps[t][v] for v in range(built[t][0].vertex_count))
        for t in range(len(parts))
    )
    return WheelString(
        fresh,
        tuple(frozenset(a) for a in adjacency),
        clean,
        cut,
        majors,
        tuple(sorted(boundary)),
        part_vertices,
    )


# ---------------------------------------------------------------------------
# Descriptor serialization
# ---------------------------------------------------------------------------


def to_sexpr(d: FamilyDescriptor) -> str:
    """Written from a stack, as recognized members nest about as deep as
    they are large."""
    out: list[str] = []
    todo: list[str | tuple[FamilyDescriptor]] = [(d,)]  # text, or a term to write
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        (d,) = item
        if isinstance(d, BrokenWheel):
            out.append(f"(broken {d.size})")
        elif isinstance(d, Wheel):
            out.append(f"(wheel {d.size})")
        elif isinstance(d, Glue):
            out.append("(glue ")
            todo += [")", (d.right,), " ", (d.left,)]
        elif isinstance(d, InsertWheel):
            out.append("(insert ")
            todo += [f" t{d.edge} j={d.subdivisions})", (d.base,)]
        else:
            raise FamilyError(f"not a descriptor: {d!r}")
    return "".join(out)


_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def parse_sexprs(text: str) -> list[FamilyDescriptor]:
    """The descriptors written one after another in ``text``: at least one,
    and after each only another descriptor or the end."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise FamilyError("unexpected end of descriptor")
        pos += 1
        return tokens[pos - 1]

    def number(token: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise FamilyError(f"expected an integer, got {token!r}") from None

    def parse() -> FamilyDescriptor:
        if take() != "(":
            raise FamilyError("descriptor must start with '('")
        kind = take()
        if kind in ("broken", "wheel"):
            size = number(take())
            node: FamilyDescriptor = (
                BrokenWheel(size) if kind == "broken" else Wheel(size)
            )
        elif kind == "glue":
            left = parse()
            right = parse()
            node = Glue(left, right)
        elif kind == "insert":
            base = parse()
            edge_tok = take()
            j_tok = take()
            if not edge_tok.startswith("t") or not j_tok.startswith("j="):
                raise FamilyError(f"bad insert arguments {edge_tok!r} {j_tok!r}")
            node = InsertWheel(base, number(edge_tok[1:]), number(j_tok[2:]))
        else:
            raise FamilyError(f"unknown constructor {kind!r}")
        if take() != ")":
            raise FamilyError("missing ')' in descriptor")
        return node

    nodes = [parse()]
    while pos < len(tokens):
        if tokens[pos] != "(":
            raise FamilyError("trailing tokens after descriptor")
        nodes.append(parse())
    return nodes


def parse_sexpr(text: str) -> FamilyDescriptor:
    """The one descriptor written in ``text``."""
    first, *rest = parse_sexprs(text)
    if rest:
        raise FamilyError("trailing tokens after descriptor")
    return first
