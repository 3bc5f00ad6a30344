"""Coloring engines: exact counting, constructive extension, obstructions.

Two independent routes compute with colorings:

- ``enumerate_colorings`` walks the search tree directly (backtracking with
  forward checking, fixed vertex order, its frames kept in flat per-depth
  arrays with one undo log), yielding every proper coloring.
- ``count_colorings`` / ``marginal_counts`` run exact variable elimination
  over the same constraints, in a minimum-degree order kept in a heap: a
  structure phase records, per eliminated vertex, precompiled
  ``itemgetter`` gathers into its joint table, and an execution phase runs
  that structure as it is under the labels and lists of the call,
  multiplying and summing flat lists of Python ints (one axis of length m
  per vertex).  A factor is multiplied into a larger touching one only
  when that host is narrower than the joint table; otherwise both are
  gathered into the joint, so no product is built and then gathered again.
  The structure depends only on the vertex count, the modulus, the set of
  edges and the kept vertices, so once that key recurs it is kept, in a
  cache bounded by the steps it holds, and reused across the many
  labelings and lists a check draws; the keys of a result and the cells
  they read are cached per modulus and kept lists, and a vertex's list
  per modulus and forbidden set.  An edge vu whose far end u no other
  factor of the step covers stays out of the joint table: the sum over v
  of the other factors' product, less that product at the one color of v
  the edge forbids, is the new factor, so the step works on a table m
  times smaller.  Adding one color to every vertex maps proper
  colorings to proper colorings, so a step whose factors come only from
  edges and full lists computes the 1/m slice of its table with first
  color 0 and spreads it to the rest.  Fast enough to serve as the
  brute-force oracle at desk scale.  The two routes are cross-checked in
  the test suite.

``first_coloring`` backtracks up to a fixed number of frames per vertex and
past that decodes a coloring from the elimination plan, so it always
finishes in time linear in the plan.

On top of those sit the constructive algorithms:

- ``extend_two``: two precolored adjacent outer vertices, lists of size at
  least 3 on the rest of the boundary, full lists inside; always succeeds
  on valid input (chord split / boundary-vertex deletion induction in
  linear time: the region boundary is kept as links, chords are looked for
  only at the vertex before the precolored edge, and the other side of a
  split waits on an explicit stack as an O(1) relink record, so no
  recursion limit caps its depth).
- ``color_short_cycle``: fully precolored outer cycle of length at most 5;
  either extends or returns the exceptional hub (a vertex joined to all of
  a 5-cycle whose forbidden-color images cover the whole group).  Regions
  go on an explicit stack as bare cycles, read from the rotations of their
  vertices: a center, an interior vertex that sees three or more cycle
  vertices, splits one into wedges and takes the lowest color that leaves
  no wedge a hub, so no color is undone; where none does, each interior
  block is seeded and colored by the same 2-extension engine, on host labels.
- ``extend_three``: three precolored consecutive outer vertices, forbidden
  sets capped at two colors on the rest of the boundary; either a coloring
  or a validated obstruction certificate, found by anchored search over the
  wheel-family grammar.  The family is walked lazily, smallest members
  first, and the walk stops at the first certificate, so members larger
  than the certificate are never built.

These three and ``lemma1_alpha`` take one kind of instance: a Z_5 labeling
of every edge, a properly precolored outer path (the whole cycle for
``color_short_cycle``; for ``lemma1_alpha`` the principal path, left
uncolored because it enumerates those colors itself), at most two
forbidden colors on the other outer vertices and none inside.  One
function, ``_contract``, checks it for all four, and
``validate_extension_problem`` returns what it finds for a 2- or 3-vertex
path.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, filterfalse, product
from operator import itemgetter, mul, sub
from typing import Iterable, Iterator, Sequence

from .families import (
    FamilyDescriptor,
    PrincipalPath,
    built_family,  # noqa: F401 (bench/test_bench.py patches solver.built_family)
    family_members,
    is_multi_wheel_descriptor,
    principal_path,
    recognize_generalized_multi_wheel,
)
from .group_color import ColorSystem, Coloring, PhiAssignment, is_proper, tau
from .plane_graph import (
    PlaneNearTriangulation,
    blocks,
    face_vertices,
    linear_from,
    trace_faces,
)


class ExtensionError(ValueError):
    """Invalid extension problem (caps or structure violated)."""


class SearchBudgetError(RuntimeError):
    """The obstruction search used up its node budget before it finished."""


@dataclass(frozen=True)
class ExtensionProblem:
    """Graph, labeling, constraint system, and the precolored outer path
    (2 or 3 consecutive outer vertices in clockwise order; their colors
    live in the precoloring of ``colors``)."""

    graph: PlaneNearTriangulation
    phi: PhiAssignment
    colors: ColorSystem
    path: tuple[int, ...]


@dataclass(frozen=True)
class HubException:
    """Marker result of ``color_short_cycle``: an interior vertex joined to
    all of the precolored 5-cycle with every color forbidden."""

    vertex: int


@dataclass(frozen=True)
class AlphaResult:
    """Outcome of ``lemma1_alpha``.  ``kind`` is 'alpha' (every failing
    boundary precoloring shares this tail-minus-head difference), 'vacuous'
    (no failing precoloring exists), or 'none' (distinct differences occur;
    a defect for genuine multi-wheels)."""

    kind: str
    alpha: int | None = None


@dataclass(frozen=True)
class ObstructionCertificate:
    """A wheel-family subgraph witnessing non-extendability.

    ``graph``/``path``/``descriptor`` give the family member in canonical
    labels; ``embedding[member_vertex]`` is the original vertex it uses.
    ``phi``/``colors`` restate the instance on member labels; the member
    instance itself has zero colorings (re-checked by the validator)."""

    descriptor: FamilyDescriptor
    graph: PlaneNearTriangulation
    path: PrincipalPath
    embedding: tuple[int, ...]
    phi: PhiAssignment
    colors: ColorSystem


# ---------------------------------------------------------------------------
# Exact counting (variable elimination over flat tables)
# ---------------------------------------------------------------------------


def _vertex_count(graph) -> int:
    n = graph if isinstance(graph, int) else graph.vertex_count
    if n < 0:
        raise ExtensionError(f"vertex count must be at least 0, got {n}")
    return n


def _labeled_edges(
    n: int, phi: PhiAssignment
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """``(lows, highs, values)``: phi's edges as sorted ``(lower, higher)``
    pairs, edge j carrying the constraint c_high − c_low ≠ ``values[j]``.
    Neither the records' order nor their stored orientations show.  Raises
    ``ExtensionError`` if an edge names a vertex outside 0..n−1 (the least
    lower end and the greatest higher end tell)."""
    m = phi.modulus
    edges = sorted((t, h, x) if t < h else (h, t, -x % m) for t, h, x in phi.records)
    if not edges:
        return (), (), ()
    lows, highs, values = zip(*edges)
    if lows[0] < 0 or max(highs) >= n:
        raise ExtensionError(f"labeling names a vertex outside 0..{n - 1}")
    return lows, highs, values


@lru_cache(maxsize=256)
def _available(m: int, forbidden: frozenset[int]) -> tuple[int, ...]:
    """The colors mod ``m`` outside ``forbidden``, ascending."""
    return tuple(c for c in range(m) if c not in forbidden)


def _avail_lists(
    n: int, phi: PhiAssignment, colors: ColorSystem | None
) -> list[tuple[int, ...]]:
    """Each vertex's available colors, ascending: its precolor alone, or
    the colors outside its forbidden set, read from a small cache keyed by
    the modulus and that set (a check draws a few sets over and over)."""
    modulus = phi.modulus
    if colors is None:
        return [_available(modulus, frozenset())] * n
    if colors.vertex_count != n:
        raise ExtensionError(
            f"constraint system covers {colors.vertex_count} vertices, graph has {n}"
        )
    if colors.modulus != modulus:
        raise ExtensionError(
            f"constraint system is mod {colors.modulus}, labeling is mod {modulus}"
        )
    # One pass over the lists: ``available`` would scan the precoloring
    # once per vertex.
    pre = colors.precolor_map()
    return [
        (pre[v],) if v in pre else _available(modulus, fv)
        for v, fv in enumerate(colors.forbidden)
    ]


@lru_cache(maxsize=256)
def _mask(colors: tuple[int, ...]) -> int:
    """A list as a bitmask: bit c is set for each color c in it.  Cached by
    list, since a check draws a few lists over and over."""
    return sum(1 << c for c in colors)


def _lowest(mask: int) -> int:
    """The lowest color of a nonempty bitmask list."""
    return (mask & -mask).bit_length() - 1


# Gathers, spreads and cut reads of a table with more cells than this are
# built for the call that needs them and dropped after it, and a structure
# with a step that wide is not kept.  Every step of the three bench
# workloads has at most 4 axes (625 cells at m = 5), and a gather of this
# size with its reads holds about 0.5 MB.  The 7 x 7 triangulated grid has
# steps of up to 10 axes: its 87 cached gathers held 1.46 GB after one
# count without this cap, and 87 MB of RSS is left with it.
_CACHED_CELLS = 5**6

# Compiled structures (see ``_compile``) stay in one LRU charged by the
# steps they hold, at least one per structure; a kept structure costs
# 560-820 bytes per step.  One family-packets bench pass (seed 1) uses 261
# edge sets of 1,768 steps in all, which fit with room to spare.  A
# structure with more steps than the budget is used once and not kept.
_PLAN_STEP_BUDGET = 4096


def _capped(cached, cells: int):
    """``cached`` (an ``lru_cache``) for a table of at most
    ``_CACHED_CELLS`` cells, else the function it wraps, so that a wider
    table is built for its call and not kept."""
    return cached if cells <= _CACHED_CELLS else cached.__wrapped__


def _gather(m: int, strides: tuple[int, ...]) -> tuple[int, ...]:
    """For each cell of a joint table with one axis of length ``m`` per
    entry of ``strides`` (last axis fastest), the cell of a factor table
    whose stride on that axis is the entry (0 on axes it does not have)."""
    index = [0]
    for s in strides:
        offsets = range(0, m * s, s) if s else (0,) * m
        index = [i + o for i in index for o in offsets]
    return tuple(index)


def _getter(index: Sequence[int]) -> itemgetter:
    """One ``itemgetter`` call that reads the cells ``index`` of a table and
    always returns a sequence: a run of consecutive cells (a one-cell read
    and an empty one among them) is read as a slice."""
    first = index[0] if index else 0
    if index == tuple(range(first, first + len(index))):
        return itemgetter(slice(first, first + len(index)))
    return itemgetter(*index)


@lru_cache(maxsize=1024)
def _reader(
    m: int, width: int, places: tuple[int, ...]
) -> tuple[tuple[itemgetter, itemgetter], tuple[int, ...]]:
    """``((whole, part), gather)`` for a factor whose axis i is axis
    ``places[i]`` of a table with ``width`` axes: ``gather`` (``_gather``
    of the factor's strides on the table's axes) maps each cell of the
    table to a cell of the factor, ``whole`` reads all of them out of the
    factor in one call and ``part`` those of the table's first 1/m, whose
    first axis is 0."""
    strides = [0] * width
    last = len(places) - 1
    for i, axis in enumerate(places):
        strides[axis] = m ** (last - i)
    gather = _gather(m, strides)
    return (_getter(gather), _getter(gather[: len(gather) // m])), gather


@lru_cache(maxsize=64)
def _spread(m: int, k: int) -> itemgetter:
    """Expands the cells of a shift-free table over ``k`` axes whose first
    coordinate is 0 (the first m^(k−1) cells) to the whole table: cell
    (x0, x1, …, x_{k−1}) reads cell (0, x1 − x0, …, x_{k−1} − x0)."""
    index: list[int] = []
    for x0 in range(m):
        cells = [0]
        for axis in range(1, k):
            stride = m ** (k - 1 - axis)
            offsets = [(x - x0) % m * stride for x in range(m)]
            cells = [i + o for i in cells for o in offsets]
        index += cells
    return _getter(tuple(index))


def _read(
    m: int, scope: tuple[int, ...], axes: tuple[int, ...]
) -> tuple[tuple[itemgetter, itemgetter], tuple[int, ...]]:
    """``((whole, part), gather)`` for a factor over ``scope`` read into a
    table over ``axes`` (a superset): ``gather`` maps each cell of that
    table to a cell of the factor, ``whole`` reads all of them and
    ``part`` the first 1/m (see ``_reader``).  One cached lookup, keyed by
    where the scope's vertices sit among the axes, returns the pair of
    readers a join keeps as it is."""
    width = len(axes)
    return _capped(_reader, m**width)(m, width, tuple(map(axes.index, scope)))


@lru_cache(maxsize=None)
def _edge_tables(m: int) -> tuple[tuple[int, ...], ...]:
    """The flat tables over (lower, higher) vertex of the ``m`` edge
    constraints c_higher − c_lower ≠ y, indexed by y."""
    return tuple(
        tuple(int((b - a) % m != y) for a in range(m) for b in range(m))
        for y in range(m)
    )


@lru_cache(maxsize=1024)
def _cut(m: int, shift: int, length: int) -> tuple[itemgetter, itemgetter]:
    """``(rest, banned)`` for a step that sums the edge vu out by
    subtraction.  Its body table has axes (r, v) and its new factor axes
    (r, u), where r runs over v's other neighbors.  For each of the first
    ``length`` cells (r, c_u) of the new factor, ``rest`` reads cell r of
    the body summed over v, and ``banned`` reads the body's cell (r, c_u +
    ``shift``): v at the one color the edge forbids."""
    rest, banned = [], []
    for cell in range(length):
        r, c = divmod(cell, m)
        rest.append(r)
        banned.append(r * m + (c + shift) % m)
    return _getter(tuple(rest)), _getter(tuple(banned))


@lru_cache(maxsize=256)
def _readout(m: int, lists: tuple[tuple[int, ...], ...]) -> tuple[tuple, itemgetter]:
    """``(keys, take)`` for kept vertices with these lists: the color tuples
    in the order of the product of the lists, and a read of their cells, in
    that order, from the table over every coloring of the kept vertices."""
    cells = [0]
    for colors in lists:
        cells = [i * m + c for i in cells for c in colors]
    return tuple(product(*lists)), _getter(tuple(cells))


# What the counter does on one edge set under any labels and lists; built
# by ``_compile``, which documents the fields, and run by ``_execute``.
_Structure = namedtuple("_Structure", "steps final cells")


def _compile(
    n: int, m: int, lows: tuple[int, ...], highs: tuple[int, ...], keep: tuple[int, ...]
) -> _Structure:
    """Structure phase of the counter: the steps of eliminating every vertex
    outside ``keep`` from the graph on ``n`` vertices whose edges are
    ``(lows[j], highs[j])`` (lower end first, sorted), and the reads of the
    factors left over ``keep``.  It depends on no label and no list;
    ``_execute`` reads those per call.

    Factor ids index the table list of a call: the new factor of step i is
    factor i and edge j is factor S + j (S steps).  A step is ``(v, axes,
    merges, joins, spread, cut, feeds, into)``: ``axes`` is the scope of the
    joint table the joins are gathered into, v's neighbors (less ``cut``'s
    u) and then v; each merge ``(dst, src, take)`` multiplies a factor into
    the smallest touching factor whose scope holds its own, and only when
    that host has fewer axes than the joint table, and each join ``(f,
    takes, gather)`` gathers a factor into the joint table: ``gather`` maps
    each joint cell to a cell of the factor (see ``_read``), ``takes[0]``
    reads every joint cell and ``takes[1]`` only those whose first axis is
    0.  ``spread`` is None unless the new factor's scope is nonempty: then
    the step may run shift-free, and ``spread`` expands the new factor's
    slice to its whole table.  ``feeds`` holds the earlier steps whose new
    factors the step reads.  ``into`` is ``(g, take)`` for a partial list
    on v: ``take`` reads the list over the scope of factor g, the smallest
    touching factor with two or more axes, to be multiplied into it, or,
    with g = -1, over ``axes``, to be joined (``_read`` for the scope
    (v,)).  ``cut`` is None unless the step leaves an edge vu out of the
    joint (see ``marginal_counts``): then it is ``(u, j, low)``, with j the
    edge's index and ``low`` whether v is its lower end, and the new
    factor's scope is ``axes[:-1] + (u,)``; otherwise it is ``axes[:-1]``.
    ``final`` holds ``(f, take)``, each reading a factor into a table over
    ``keep``, and ``cells`` is the size of the widest table.
    """
    kept = [False] * n
    for u in keep:
        kept[u] = True
    size = n - len(keep)  # keep is distinct and inside 0..n-1 (callers check)
    scopes: list[tuple[int, ...]] = [()] * size + list(zip(lows, highs))
    width = [0] * size + [2] * len(lows)  # len(scopes[f])
    factor_ids: list[list[int]] = [[] for _ in range(n)]
    live = [True] * len(scopes)
    nbrs: list[set[int]] = [set() for _ in range(n)]  # the interaction graph
    for f, (a, b) in enumerate(scopes[size:], size):
        factor_ids[a].append(f)
        factor_ids[b].append(f)
        nbrs[a].add(b)
        nbrs[b].add(a)

    # Heap entries are degree * n + vertex: ints order as (degree, vertex).
    heap = [len(nbrs[v]) * n + v for v in range(n) if not kept[v]]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    steps: list[tuple] = []
    eliminated = [False] * n
    widest = len(keep)
    while heap:
        degree, v = divmod(heappop(heap), n)
        if eliminated[v] or degree != len(nbrs[v]):
            continue
        eliminated[v] = True
        i = len(steps)
        touching = [f for f in factor_ids[v] if live[f]]
        for f in touching:
            live[f] = False
        feeds = tuple(filter(size.__gt__, touching))
        # v's neighbors become a clique: the scope of the new factor.
        near = nbrs[v]
        out_scope = tuple(sorted(near))
        for u in out_scope:
            around = nbrs[u]
            before = len(around)
            around.discard(v)
            around.update(near)
            around.discard(u)
            # u's entry stays valid while its degree does.
            if len(around) != before and not kept[u]:
                heappush(heap, len(around) * n + u)
        shift_free = bool(out_scope)
        # The first edge vu whose far end u no other touching factor covers
        # is summed out by subtraction, so no list is merged into it.  The
        # new factor then takes u as its last axis; a shift-free step needs
        # another axis before it, so that the body keeps its 1/m prefix.
        axes, new_scope, cut = out_scope + (v,), out_scope, None
        if len(out_scope) > shift_free:
            # Each touching scope's vertices, so that a vertex's count is the
            # number of touching factors that hold it.
            held: list[int] = []
            for f in touching:
                held += scopes[f]
            for f in touching:
                if f < size:
                    continue
                a, b = scopes[f]
                u = b if v == a else a
                if held.count(u) == 1:
                    touching.remove(f)
                    others = tuple(filter(u.__ne__, out_scope))
                    axes, new_scope = others + (v,), others + (u,)
                    cut = (u, f - size, v == a)
                    break
        # A factor whose scope lies inside a larger touching one is multiplied
        # into it at that smaller size if the host is narrower than the joint;
        # the rest, wider hosts among them, are gathered into the joint.
        touching.sort(key=width.__getitem__)
        k = len(axes)
        merges, joins = [], []
        for j, f in enumerate(touching):
            scope, w = scopes[f], width[f]
            host = -1
            if w + 1 < k:  # else no width lies strictly between w and k
                for g in touching[j + 1 :]:
                    if w < width[g] < k and all(map(scopes[g].__contains__, scope)):
                        host = g
                        break
            if host < 0:
                takes, gather = _read(m, scope, axes)
                joins.append((f, takes, gather))
            else:
                merges.append((host, f, _read(m, scope, scopes[host])[0][0]))
        g = -1
        for f in touching:
            if width[f] > 1:
                g = f
                break
        into = (g, _read(m, (v,), axes if g < 0 else scopes[g])[0][0])
        d = len(out_scope)
        spread = _capped(_spread, m**d)(m, d) if shift_free else None
        steps.append((v, axes, tuple(merges), tuple(joins), spread, cut, feeds, into))
        scopes[i] = new_scope
        width[i] = d
        for u in out_scope:
            factor_ids[u].append(i)
        if k > widest:
            widest = k

    final = tuple(
        [(f, _read(m, scopes[f], keep)[0][0]) for f in compress(range(len(live)), live)]
    )
    return _Structure(tuple(steps), final, m**widest)


PlanCacheInfo = namedtuple("PlanCacheInfo", "compiled reused entries steps budget")


class _PlanCache:
    """Compiled structures by ``(n, m, lows, highs, keep)``, least recently
    used first; each is charged its step count (at least 1) against
    ``budget``.  A structure is kept only when its key was compiled before
    (the hashes of the last ``budget`` compiled keys are remembered), its
    charge fits the budget and its widest table fits ``_CACHED_CELLS``;
    otherwise it is used once.  Keeping the structure of every edge set
    made sparse-scaling's counts, whose edge sets never recur, take 7-11%
    more CPU time, much of it in the garbage collector."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.entries: OrderedDict = OrderedDict()
        self.seen: OrderedDict = OrderedDict()
        self.steps = self.compiled = self.reused = 0

    def structure(self, key: tuple) -> _Structure:
        st = self.entries.get(key)
        if st is not None:
            self.entries.move_to_end(key)
            self.reused += 1
            return st
        st = _compile(*key)
        self.compiled += 1
        charge = max(len(st.steps), 1)
        sighting = hash(key)
        if sighting not in self.seen:
            self.seen[sighting] = None
            if len(self.seen) > self.budget:
                self.seen.popitem(last=False)
        elif charge <= self.budget and st.cells <= _CACHED_CELLS:
            self.entries[key] = st
            self.steps += charge
            while self.steps > self.budget:
                _, old = self.entries.popitem(last=False)
                self.steps -= max(len(old.steps), 1)
        return st


_plans = _PlanCache(_PLAN_STEP_BUDGET)


def plan_cache_info() -> PlanCacheInfo:
    """Counters of the counter's structure cache: structures compiled and
    reused in this process, entries and steps held, and the step budget."""
    c = _plans
    return PlanCacheInfo(c.compiled, c.reused, len(c.entries), c.steps, c.budget)


def _elimination_plan(
    n: int,
    m: int,
    avail: list[tuple[int, ...]],
    edges: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]],
    keep: tuple[int, ...],
) -> tuple[_Structure, list, list, tuple[int, ...]]:
    """The counter's plan for one call on the ``(lows, highs, values)`` of
    ``_labeled_edges``: the structure of the edge set (from the cache, else
    compiled), the table list with the edge tables after the steps' slots,
    each vertex's 0/1 list (None when full) and the edge labels."""
    lows, highs, values = edges
    st = _plans.structure((n, m, lows, highs, keep))
    rows = _edge_tables(m)
    tables: list = [None] * len(st.steps)
    tables += [rows[y] for y in values]
    lists = [None if len(colors) == m else _indicator(m, colors) for colors in avail]
    return st, tables, lists, values


@lru_cache(maxsize=256)
def _indicator(m: int, colors: tuple[int, ...]) -> tuple[int, ...]:
    """The 0/1 list over the colors mod ``m`` of a partial list."""
    return tuple(int(c in colors) for c in range(m))


def _product(columns: list, size: int) -> Iterable[int]:
    """The cells, in order, of the product of ``columns`` (sequences of
    ``size`` cells); lazy, so no product table is built."""
    acc = None
    for column in columns:
        acc = column if acc is None else map(mul, acc, column)
    return [1] * size if acc is None else acc


def _execute(
    st: _Structure,
    tables: list,
    lists: list,
    values: tuple[int, ...],
    m: int,
    decide: bool,
) -> list[bool]:
    """Execution phase: run the structure's steps over flat tables under the
    call's labels and lists, filling step i's new factor into table slot i,
    and return which steps ran shift-free.  Counts sum the ``m`` cells of
    the eliminated vertex's axis; ``decide`` keeps only whether a cell is
    nonzero (every cell 0 or 1).

    A partial list on the step's vertex is merged or joined first.  A step
    runs shift-free when it has a ``spread``, no list, and every step it
    reads from ran shift-free: it computes the slice of its new factor
    whose first axis is 0 and spreads it; the others compute the whole
    table.  Lists on kept vertices are left out: the caller reads only
    colors inside them.  A step with a cut sums its joint table (the body)
    over v and takes away the body's cell at the color of v the cut edge
    forbids, c_u + shift, with the shift read from the edge's label;
    deciding, it then clamps each cell to 0 or 1."""
    combine = any if decide else sum
    free: list[bool] = []
    for out, (v, axes, merges, joins, spread, cut, feeds, into) in enumerate(st.steps):
        listed, columns = lists[v], []
        if listed is not None:
            g, take = into
            if g < 0:
                columns.append(take(listed))
            else:
                tables[g] = list(map(mul, tables[g], take(listed)))
        shift_free = (
            spread is not None and listed is None and all(map(free.__getitem__, feeds))
        )
        free.append(shift_free)
        for dst, src, take in merges:
            tables[dst] = list(map(mul, tables[dst], take(tables[src])))
        size = m ** (len(axes) - shift_free)
        columns += [takes[shift_free](tables[f]) for f, takes, _ in joins]
        cells = _product(columns, size)
        if cut is None:
            table = list(map(combine, zip(*[iter(cells)] * m)))
        else:
            _, j, low = cut
            shift = -values[j] % m if low else values[j]
            rest, banned = _capped(_cut, size)(m, shift, size)
            body = list(cells)
            sums = list(map(sum, zip(*[iter(body)] * m)))
            table = list(map(sub, rest(sums), banned(body)))
            if decide:
                table = list(map(bool, table))
        tables[out] = spread(table) if shift_free else table
    return free


def marginal_counts(
    graph,
    phi: PhiAssignment,
    colors: ColorSystem | None = None,
    keep: Sequence[int] = (),
) -> dict[tuple[int, ...], int]:
    """Exact number of proper colorings for every assignment of ``keep``.

    The result maps color tuples (in ``keep`` order, in the order of the
    product of their lists) to extension counts.  With empty ``keep`` the
    single entry at () is the total count.

    Bucket elimination in two phases.  The structure phase eliminates all
    other vertices in greedy minimum-scope order, ties to the lower vertex:
    a vertex's scope is itself and its neighbors in the interaction graph,
    so the order is kept in a heap of (degree, vertex) entries, stored as
    the ints degree·n + vertex and re-pushed as eliminations change
    degrees (stale entries are skipped).
    Each step records its joint scope and, for each touching factor, a
    gather index list into the joint table with an ``operator.itemgetter``
    that reads those cells in one call (both cached per modulus, joint
    width and the places of the factor's axes among the joint's).  Nothing
    in it depends on the labels or the lists, so it is compiled per vertex
    count, modulus, set of edges and ``keep``, and kept, once that key
    recurs, in a cache bounded by the steps it holds (``plan_cache_info``
    counts it); the records' order and stored orientations do not matter.
    The execution phase runs the structure as it is, under the call's edge
    labels and lists, over flat lists of Python ints, one axis of length m
    per vertex in mixed radix (first axis slowest), a forbidden color
    holding a zero: a step multiplies its gathered factors cell by cell and
    sums each run of m cells along the eliminated vertex's axis.  A factor
    inside a larger touching host is multiplied into it first only when the
    host is narrower than the joint: a host as wide as the joint is
    gathered whole, so a product built in it would be read a second time
    (in full, where a shift-free step reads 1/m of the joint), and its
    guests are gathered beside it instead.  A partial list is merged into
    the smallest factor of two or more axes its vertex's step touches (or
    joined, if none), and that step and every step its new factor feeds do
    not run shift-free (see below).  The factors left over ``keep`` give
    one table over every coloring of the kept vertices; the result's keys
    and the cells they read come from one read-out per modulus and keep
    lists (``_readout``), kept in a bounded cache.

    Cut steps leave one edge out of the joint table.  If an edge vu is the
    only touching factor that covers u, the step gathers the others into a
    body table B over v's other neighbors and v, m times smaller than the
    joint.  The edge forbids exactly one color t(c_u) = c_u + shift of v,
    and Σ_cv B·[cv ≠ t] = Σ_cv B − B(t), so the new factor at (…, c_u) is
    B summed over v less B at (…, t(c_u)): two cached reads (``_cut``,
    keyed by modulus, shift and length) and one subtraction.  Its scope
    puts u last.  Deciding (see ``first_coloring``) clamps those cells to
    0 or 1, and the decoder skips the color t(c_u).

    Shift-free steps do a 1/m share of that work.  c + s is proper exactly
    when c is, for every shift s, so an edge table, a full list and any sum
    of products of such factors is fixed by adding s to all of its
    coordinates.  A step whose touching factors are all shift-free and
    whose new factor has a nonempty scope multiplies only the joint cells
    whose first axis is 0 (a prefix of each gather), sums them into the new
    factor's cells with first coordinate 0, and spreads those to the whole
    table with one cached gather: cell (x0, x1, …) reads cell (0, x1 − x0,
    …).  Stored tables are whole, so the decoder and the final gathers read
    them as before.
    """
    n = _vertex_count(graph)
    m = phi.modulus
    edges = _labeled_edges(n, phi)
    avail = _avail_lists(n, phi, colors)
    keep = tuple(keep)
    if len(set(keep)) != len(keep):
        raise ExtensionError("keep vertices must be distinct")
    if not all(0 <= u < n for u in keep):
        raise ExtensionError(f"keep names a vertex outside 0..{n - 1}")

    st, tables, lists, values = _elimination_plan(n, m, avail, edges, keep)
    _execute(st, tables, lists, values, m, False)
    columns = [take(tables[f]) for f, take in st.final]
    size = m ** len(keep)
    keys, take = _capped(_readout, size)(m, tuple(avail[u] for u in keep))
    return dict(zip(keys, take(list(_product(columns, size)))))


def count_colorings(
    graph, phi: PhiAssignment, colors: ColorSystem | None = None
) -> int:
    """Exact number of proper colorings respecting forbidden sets and any
    precoloring.  Zero is a valid answer."""
    return marginal_counts(graph, phi, colors, ())[()]


def coloring_order(graph) -> list[int]:
    """Fixed search order: outer vertices in cycle order, then interior by
    descending degree (ties by index).  Plain range for bare vertex counts."""
    if isinstance(graph, int):
        return list(range(graph))
    # A reversed sort is stable, so equal degrees keep ascending indices.
    degree = list(map(len, graph.rotation))
    interior = filterfalse(graph.outer_set().__contains__, range(graph.vertex_count))
    return list(graph.outer_cycle) + sorted(interior, key=degree.__getitem__, reverse=True)


@lru_cache(maxsize=16)
def _bits(m: int) -> tuple[int, ...]:
    """The row whose entry s is ``1 << (s % m)``, for every sum s of two
    colors mod ``m`` (so s < 2m)."""
    return tuple(1 << (c % m) for c in range(2 * m))


class _FrameCapReached(Exception):
    """The backtracking search pushed more frames than its cap allows."""


def enumerate_colorings(
    graph,
    phi: PhiAssignment,
    colors: ColorSystem | None = None,
) -> Iterator[Coloring]:
    """Yield every proper coloring, deterministically (colors ascending at
    each vertex of the fixed order), by backtracking with forward checking.

    The search keeps one frame per colored vertex in flat per-depth arrays
    (the next color to try and the length of the undo log when the frame
    was pushed), with one undo log of the lists it narrowed, so its depth
    is bounded by memory, not by the interpreter's recursion limit."""
    return _backtrack(graph, phi, colors, None)


def _backtrack(
    graph,
    phi: PhiAssignment,
    colors: ColorSystem | None,
    frame_cap: int | None,
) -> Iterator[Coloring]:
    """The search of ``enumerate_colorings``; raises ``_FrameCapReached``
    once it has pushed more than ``frame_cap`` frames (None: no cap).

    Everything is indexed by depth in the order.  ``masks[d]`` is the list
    left at depth d, as a bitmask.  Forward checking narrows only the lists
    of later neighbors and logs each narrowed depth with its mask before
    the narrowing on the undo log (two int lists).  A frame that is visited
    again first restores the log down to its mark: what lies above the mark
    is its own last attempt."""
    n = _vertex_count(graph)
    m = phi.modulus
    order = coloring_order(graph)
    depth_of = {v: i for i, v in enumerate(order)}
    # A record naming a vertex outside the graph has no depth.
    later: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    try:
        for tail, head, value in phi.records:
            dt, dh = depth_of[tail], depth_of[head]
            if dh > dt:
                later[dt].append((dh, value))
            else:
                later[dh].append((dt, -value % m))
    except KeyError:
        raise ExtensionError(f"labeling names a vertex outside 0..{n - 1}") from None
    if colors is None:  # every list is full
        masks = [(1 << m) - 1] * n
    else:
        avail = _avail_lists(n, phi, colors)
        masks = list(map(_mask, map(avail.__getitem__, order)))

    if n == 0:
        yield ()
        return
    position = list(map(depth_of.__getitem__, range(n)))
    bits = _bits(m)
    frames_left = frame_cap
    chosen = [0] * n
    next_color = [0] * n
    mark = [0] * n
    undo_at: list[int] = []
    undo_mask: list[int] = []
    depth, last = 0, n - 1
    while True:
        start = mark[depth]
        while len(undo_at) > start:
            masks[undo_at.pop()] = undo_mask.pop()
        mask = masks[depth]
        c = next_color[depth]
        while c < m and not mask >> c & 1:
            c += 1
        if c == m:
            if not depth:
                return
            depth -= 1
            continue
        next_color[depth] = c + 1
        chosen[depth] = c
        for u, offset in later[depth]:
            bit = bits[c + offset]
            mask = masks[u]
            if mask & bit:
                undo_at.append(u)
                undo_mask.append(mask)
                mask ^= bit
                masks[u] = mask
                if not mask:
                    break  # a dead end: the next pass undoes and moves on
        else:
            if depth == last:
                yield tuple(map(chosen.__getitem__, position))
            else:
                if frames_left is not None:
                    frames_left -= 1
                    if frames_left < 0:
                        raise _FrameCapReached
                depth += 1
                next_color[depth] = 0
                mark[depth] = len(undo_at)


# The backtracking in ``first_coloring`` may push this many frames per
# vertex before the decode takes over.  On a search that keeps hitting dead
# ends a pushed frame costs 1.8-2.6 us, undo work included, and the decode
# 18-26 us per vertex (1,011-vertex random near-triangulations; 2-core
# x86-64, Python 3.11), so a capped search costs about six times the
# decode, and a capped call 0.14-0.19 s at 1,000 vertices.  A search
# without dead ends costs about 1 us per vertex.  Of 1,920 random
# near-triangulations with 100 to 1,029 vertices, all but ten were colored
# within 31 frames per vertex (most within one); two needed 180 and 207,
# eight more than 400.
_FRAMES_PER_VERTEX = 64


def first_coloring(
    graph, phi: PhiAssignment, colors: ColorSystem | None = None
) -> Coloring | None:
    """The first coloring ``enumerate_colorings`` yields, or None.

    The backtracking search is capped at ``_FRAMES_PER_VERTEX`` pushed
    frames per vertex; below the cap the answer is the search's.  Past it,
    a coloring is decoded from the elimination plan of ``marginal_counts``
    run deciding instead of counting (so every cell is 0 or 1): the steps
    are walked backwards and each vertex takes the lowest color whose
    product of gathered factors is nonzero and that its step's cut edge, if
    any, allows, given the vertices eliminated after it.  This takes time
    linear in the plan, so the call always finishes."""
    n = _vertex_count(graph)
    search = _backtrack(graph, phi, colors, _FRAMES_PER_VERTEX * n)
    try:
        return next(search, None)
    except _FrameCapReached:
        return _decode_coloring(n, phi, _avail_lists(n, phi, colors))


def _decode_coloring(
    n: int, phi: PhiAssignment, avail: list[tuple[int, ...]]
) -> Coloring | None:
    """A proper coloring inside the lists ``avail``, or None if there is
    none, decoded from the elimination plan (see ``first_coloring``)."""
    m = phi.modulus
    st, tables, lists, values = _elimination_plan(n, m, avail, _labeled_edges(n, phi), ())
    _execute(st, tables, lists, values, m, True)
    if not all(_product([take(tables[f]) for f, take in st.final], 1)):
        return None
    coloring = [0] * n
    for v, axes, _, joins, _, cut, _, _ in reversed(st.steps):
        base = 0
        for u in axes[:-1]:
            base = base * m + coloring[u]
        banned = -1
        if cut is not None:
            u, j, low = cut
            banned = (coloring[u] + (-values[j] if low else values[j])) % m
        listed = lists[v]
        for c in range(m):
            cell = base * m + c
            if (
                c != banned
                and (listed is None or listed[c])
                and all(tables[f][g[cell]] for f, _, g in joins)
            ):
                coloring[v] = c
                break
        else:
            raise RuntimeError("decoding found no color (solver defect)")
    return tuple(coloring)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _contract(
    graph: PlaneNearTriangulation,
    phi: PhiAssignment,
    colors: ColorSystem,
    path: Sequence[int],
    precolored: Iterable[int],
) -> list[str]:
    """Every violated precondition of the instance the extension results
    take, checked in this order: ``colors`` covers the graph; ``path`` is
    consecutive and clockwise on the outer cycle; ``phi`` and ``colors`` are
    mod 5; ``phi`` labels every edge exactly once; exactly ``precolored`` is
    precolored; the precoloring is proper on every edge between two
    precolored vertices (the tail-head edge and a cycle's chords too); and,
    off the precoloring, path and interior vertices forbid no color and the
    other outer vertices at most two.  A wrong size, path or precolored set
    ends the list, and properness is read only under a labeling that
    matches the graph."""
    n = graph.vertex_count
    if colors.vertex_count != n:
        return [f"constraint system covers {colors.vertex_count} vertices, graph has {n}"]
    oc = graph.outer_cycle
    if path[0] not in oc:
        return ["path must lie on the outer cycle"]
    if linear_from(oc, path[0])[: len(path)] != list(path):
        return ["path must be consecutive on the outer cycle, clockwise"]
    issues: list[str] = []
    if phi.modulus != 5 or colors.modulus != 5:
        issues.append("the extension results are specified for modulus 5 only")
    # Records are distinct edges, so as many records as the graph has edges,
    # each on an edge of the graph, label every edge exactly once: one pass
    # over the records reads the adjacency sets.
    labeled = len(phi.records) == graph.edge_count()
    if labeled:
        adjacency = list(map(graph.adjacency, range(n)))
        for t, h, _ in phi.records:
            if not (0 <= t < n and h in adjacency[t]):
                labeled = False
                break
    if not labeled:
        issues.append("labeling edges differ from the graph's edges")
    pre = colors.precolor_map()
    want = set(precolored)
    if pre.keys() != want:
        issues.append(
            f"precolorings must be given on exactly {sorted(want)}, not {sorted(pre)}"
        )
        return issues
    for u, v in combinations(sorted(pre), 2) if labeled else ():
        if graph.has_edge(u, v) and pre[v] == tau(phi, u, pre[u], v):
            issues.append(f"precoloring improper: edge {u}-{v} conflicts with its label")
    for v, fv in enumerate(colors.forbidden):
        if fv and v not in pre:
            where = "path" if v in path else "outer" if graph.is_outer(v) else "interior"
            cap = 2 if where == "outer" else 0
            if len(fv) > cap:
                issues.append(
                    f"forbidden set at {where} vertex {v} has {len(fv)} colors (cap {cap})"
                )
    return issues


def validate_extension_problem(problem: ExtensionProblem) -> list[str]:
    """Every violated precondition of the extension contracts: a path of 2
    or 3 vertices, precolored, in an instance that meets ``_contract``."""
    if len(problem.path) not in (2, 3):
        return ["precolored path must have 2 or 3 vertices"]
    return _contract(
        problem.graph, problem.phi, problem.colors, problem.path, problem.path
    )


# ---------------------------------------------------------------------------
# extend_two
# ---------------------------------------------------------------------------


def extend_two(problem: ExtensionProblem) -> Coloring:
    """Extend two precolored adjacent outer vertices to the whole graph.

    Never fails on valid input; an exhausted search here is a defect, not
    a negative answer, and raises RuntimeError.
    """
    if len(problem.path) != 2:
        raise ExtensionError("extend_two needs a 2-vertex precolored path")
    issues = validate_extension_problem(problem)
    if issues:
        raise ExtensionError("; ".join(issues))
    g, phi, cs = problem.graph, problem.phi, problem.colors
    n = g.vertex_count
    avail = _avail_lists(n, phi, cs)
    assigned = cs.precolor_map()
    lists = list(map(_mask, avail))
    outer = linear_from(g.outer_cycle, problem.path[0])
    _extend_two_rec(g, phi, outer, set(g.interior_vertices()), lists, assigned)

    coloring = tuple(map(assigned.__getitem__, range(n)))
    if not is_proper(g, phi, coloring):
        raise RuntimeError("extension produced an improper coloring (solver defect)")
    if not all(map(tuple.__contains__, avail, coloring)):
        raise RuntimeError("extension violated a forbidden set (solver defect)")
    return coloring


def _extend_two_rec(
    g: PlaneNearTriangulation,
    phi: PhiAssignment,
    outer: list[int],
    interior: set[int],
    lists: list[int] | dict[int, int],
    assigned: dict[int, int],
) -> None:
    # The current region is a cycle kept as links nxt/prv and read from its
    # first vertex f: f and nxt[f] are assigned, nothing else on it is, and
    # boundary lists (bitmasks, see ``_mask``) have >= 3 colors.
    # ``interior`` is shared by all regions and holds the vertices not yet
    # on any boundary, so inside a region it is that region's interior
    # (lists full).  Only the last
    # vertex x = prv[f] is examined, by reading its rotation from f towards
    # prv[x]: that arc lies in the region, so its first vertex not in
    # ``interior`` is prv[x] or the chord end w nearest f.  A chord splits
    # off the side w..prv[x], x as the relink record (x, w, nxt[w], prv[x]),
    # whose region is later read from x once x and w are colored; the side
    # f..w, x stays current, and x has no chord in it.  With no chord x is
    # deleted: two of its colors are reserved, their images leave the lists
    # of its inner fan, and the fan is spliced into the links.  A pick
    # (x, prv[x], (alpha, beta)) sits on the stack below everything pushed
    # after it, so it runs once prv[x] is colored.  Each rotation is read
    # at most twice, so the work is linear; no recursion bounds the depth.
    nxt = dict(zip(outer, outer[1:] + outer[:1]))
    prv = {b: a for a, b in nxt.items()}
    f = outer[0]
    # tau(phi, v, color, u) is (color + offset(v, u)) % m.
    m, offset = phi.modulus, phi.offset
    stack: list[tuple] = []
    while True:
        x = prv[f]
        if x == nxt[f]:  # the region is down to the colored edge f-x
            if not stack:
                return
            item = stack.pop()
            if len(item) == 3:
                vk, vkm1, (alpha, beta) = item
                clash = (assigned[vkm1] + offset(vkm1, vk)) % m
                assigned[vk] = alpha if alpha != clash else beta
            else:
                f, w, nxt_w, prv_f = item
                nxt[f], prv[w], nxt[w], prv[f] = w, f, nxt_w, prv_f
            continue
        y = prv[x]
        rot = g.rotation[x]
        i = rot.index(f)
        fan = []
        for j in range(i + 1 - len(rot), i):  # rot[i + 1:] + rot[:i] by index
            w = rot[j]
            if w not in interior:
                break
            fan.append(w)
        else:
            raise RuntimeError(
                "boundary fan misses the outer predecessor (solver defect)"
            )
        if w != y:
            stack.append((x, w, nxt[w], y))
            nxt[w], prv[x] = x, w
            continue
        options = lists[x] & ~(1 << (assigned[f] + offset(f, x)) % m)
        rest = options & (options - 1)
        if not rest:
            raise RuntimeError(
                "boundary list collapsed below two colors (solver defect)"
            )
        alpha, beta = _lowest(options), _lowest(rest)
        stack.append((x, y, (alpha, beta)))
        last = f
        for u in fan:
            d = offset(x, u)
            lists[u] &= ~(1 << (alpha + d) % m | 1 << (beta + d) % m)
            interior.remove(u)
            nxt[u], prv[last] = last, u
            last = u
        nxt[y], prv[last] = last, y


# ---------------------------------------------------------------------------
# color_short_cycle
# ---------------------------------------------------------------------------


def color_short_cycle(
    graph: PlaneNearTriangulation, phi: PhiAssignment, colors: ColorSystem
) -> Coloring | HubException:
    """Extend a proper precoloring of an outer cycle of length <= 5, or
    return the exceptional hub (the lowest-index one) that blocks it.

    Regions (bare cycles) are colored off one explicit stack.  The
    center, the lowest interior vertex joined to three or more cycle
    vertices, splits a region into wedges and takes the lowest free color
    that leaves no wedge of length 5 with a hub; a region without one is
    colored block by block.  No color is undone: by the short-cycle lemma a
    colored cycle of length <= 5 extends unless it has a hub, and wedges
    share only colored vertices, so the hub tests decide each color.

    Only the inner arcs of the k - 2 least-degree cycle vertices are read:
    an interior component's cycle neighbors, in order round it, form a
    closed walk with no 2-cycle, so each component (and center) touches 3
    of the k.  A wedge's hub lies in its center's inner arc there, and a
    triangle wedge is empty iff that arc is.
    """
    oc = list(graph.outer_cycle)
    if len(oc) > 5:
        raise ExtensionError("outer cycle longer than 5")
    if issues := _contract(graph, phi, colors, oc, oc):
        raise ExtensionError("; ".join(issues))
    pre = colors.precolor_map()

    assigned = dict(pre)
    if (hub := _hub(graph, phi, oc, assigned)) is not None:
        return HubException(hub)
    stack = [oc]
    while stack:
        cycle = stack.pop()
        ring = set(cycle)
        least = sorted((graph.degree(c), i) for i, c in enumerate(cycle))[:-2]
        near = {u for _, i in least for u in _inner_arc(graph, cycle, i)} - ring
        center = min(
            (v for v in near if len(graph.adjacency(v) & ring) >= 3), default=None
        )
        if center is None:
            # Every interior vertex sees at most two colored vertices: list
            # them by a fill from ``near`` and color them block by block.
            interior, todo = set(), list(near)
            while todo:
                u = todo.pop()
                if u not in interior:
                    interior.add(u)
                    todo.extend(w for w in graph.rotation[u] if w not in assigned)
            _color_interior_blocks(graph, phi, interior, assigned)
            continue
        ends = [i for i, c in enumerate(cycle) if c in graph.adjacency(center)]
        pairs = zip(ends, ends[1:] + [ends[0] + len(cycle)])
        wedges = [(cycle * 2)[p : q + 1] + [center] for p, q in pairs]
        taken = {tau(phi, cycle[p], assigned[cycle[p]], center) for p in ends}
        for color in sorted(set(range(5)) - taken):
            assigned[center] = color
            if all(_hub(graph, phi, wedge, assigned) is None for wedge in wedges):
                break
        else:
            raise RuntimeError(
                "short-cycle extension found no center color (solver defect)"
            )
        stack.extend(w for w in reversed(wedges) if len(w) > 3 or _inner_arc(graph, w, -1))

    coloring = tuple(assigned[v] for v in range(graph.vertex_count))
    if not is_proper(graph, phi, coloring):
        raise RuntimeError(
            "short-cycle extension produced an improper coloring (solver defect)"
        )
    return coloring


def _inner_arc(g: PlaneNearTriangulation, cycle: Sequence[int], i: int) -> tuple[int, ...]:
    """Neighbors of ``cycle[i]`` inside the clockwise ``cycle`` (or across a
    chord): its rotation strictly from ``cycle[i + 1]`` to ``cycle[i - 1]``."""
    rot = g.rotation[cycle[i]]
    start, stop = rot.index(cycle[i + 1 - len(cycle)]) + 1, rot.index(cycle[i - 1])
    return rot[start:stop] if start <= stop else rot[start:] + rot[:stop]


def _hub(
    g: PlaneNearTriangulation,
    phi: PhiAssignment,
    cycle: list[int],
    assigned: dict[int, int],
) -> int | None:
    """The lowest hub inside a colored ``cycle``, or None: a vertex joined to
    all of a 5-cycle whose forbidden images cover Z_5 (so it is in the inner
    arc of every cycle vertex)."""
    if len(cycle) != 5:
        return None
    joined = set(_inner_arc(g, cycle, -1)).intersection(*map(g.adjacency, cycle))
    hubs = [v for v in joined if len({tau(phi, c, assigned[c], v) for c in cycle}) == 5]
    return min(hubs, default=None)


def _color_interior_blocks(
    g: PlaneNearTriangulation,
    phi: PhiAssignment,
    interior: set[int],
    assigned: dict[int, int],
) -> None:
    """Color the interior subgraph when each of its vertices sees at most
    two colored cycle vertices: lists stay at size >= 3, so each block is a
    2-extension problem.  Blocks are taken in reverse emission order, where
    each one meets the colored ones in at most one (cut) vertex.  The ring of
    a block (its vertices, or its boundary face) is read from that vertex;
    its first two vertices are seeded and ``_extend_two_rec`` colors the rest
    of the block on host labels."""
    lists = {}
    for v in interior:
        listed = 0b11111
        for c in g.adjacency(v):
            if c in assigned:
                listed &= ~(1 << tau(phi, c, assigned[c], v))
        lists[v] = listed

    index = sorted(interior)
    local = {v: i for i, v in enumerate(index)}
    adj = [[local[u] for u in g.rotation[v] if u in interior] for v in index]
    for piece in reversed(blocks(adj)):
        verts = [index[i] for i in piece.vertices]
        ring = verts if len(verts) < 3 else _block_boundary(g, verts)
        ring = linear_from(ring, next((v for v in verts if v in assigned), ring[0]))
        a = ring[0]
        if a not in assigned:
            assigned[a] = _lowest(lists[a])
        if len(ring) > 1:
            b = ring[1]
            assigned[b] = _lowest(lists[b] & ~(1 << tau(phi, a, assigned[a], b)))
        if len(verts) >= 3:
            _extend_two_rec(g, phi, ring, set(verts) - set(ring), lists, assigned)


def _block_boundary(g: PlaneNearTriangulation, verts: list[int]) -> tuple[int, ...]:
    """The boundary cycle of a 2-connected block of interior vertices: the
    first face of its traced sub-rotation that is not a face of ``g``.  The
    face of ``g`` on a dart between interior vertices is a triangle, so a
    traced triangle is one iff ``g`` turns the same way at its first
    corner.  It is traced in the sense of the outer cycle, so a ring
    vertex's rotation read from its successor runs into the block, also
    for a block that is one triangle of ``g`` (traced both ways)."""
    vset = set(verts)
    for face in trace_faces({v: [u for u in g.rotation[v] if u in vset] for v in verts}):
        (u, v), (_, w) = face[:2]
        rot = g.rotation[v]
        if len(face) > 3 or rot[(rot.index(u) + 1) % len(rot)] != w:
            return face_vertices(face)
    raise RuntimeError("interior block without a boundary face (solver defect)")


# ---------------------------------------------------------------------------
# extend_three
# ---------------------------------------------------------------------------


def extend_three(
    problem: ExtensionProblem, node_budget: int = 500_000
) -> Coloring | ObstructionCertificate:
    """Extend three precolored consecutive outer vertices; on failure find
    a wheel-family obstruction anchored at the path.

    Members are tried smallest first, in ``enumerate_family`` order, and the
    search stops at the first one whose anchored copy has no coloring; the
    larger sizes are never built.  ``node_budget`` caps the embedding nodes
    visited over the whole walk; using it up raises ``SearchBudgetError``.

    Finding neither is impossible for valid input, so exhausting the search
    raises instead of returning a silent negative.
    """
    if len(problem.path) != 3:
        raise ExtensionError("extend_three needs a 3-vertex precolored path")
    issues = validate_extension_problem(problem)
    if issues:
        raise ExtensionError("; ".join(issues))
    coloring = first_coloring(problem.graph, problem.phi, problem.colors)
    if coloring is not None:
        return coloring
    cert = _find_obstruction(problem, node_budget)
    if cert is None:
        raise RuntimeError(
            "no coloring and no wheel-family obstruction found; "
            "this contradicts the extendability dichotomy"
        )
    return cert


def _find_obstruction(
    problem: ExtensionProblem, node_budget: int
) -> ObstructionCertificate | None:
    g, phi, cs = problem.graph, problem.phi, problem.colors
    tail, major, head = problem.path
    pre = cs.precolor_map()
    eligible_outer = {
        v
        for v in g.outer_set()
        if v not in problem.path and len(cs.forbidden[v]) == 2
    }
    free_interior = {
        v
        for v in range(g.vertex_count)
        if v not in problem.path and not cs.forbidden[v]
    }
    budget = [node_budget]

    for descriptor, member, mpath in family_members(g.vertex_count):
        for embed in _anchored_embeddings(
            member, mpath, g, (tail, major, head), eligible_outer, free_interior, budget
        ):
            sub_records = []
            for u, v in member.edges():
                sub_records.append((u, v, phi.offset(embed[u], embed[v])))
            sub_phi = PhiAssignment(5, tuple(sub_records))
            forbidden = [frozenset()] * member.vertex_count
            for v in range(member.vertex_count):
                if member.is_outer(v) and v not in (mpath.tail, mpath.major, mpath.head):
                    forbidden[v] = cs.forbidden[embed[v]]
            sub_cs = ColorSystem(
                5,
                tuple(forbidden),
                tuple(
                    sorted(
                        {
                            mpath.tail: pre[tail],
                            mpath.major: pre[major],
                            mpath.head: pre[head],
                        }.items()
                    )
                ),
            )
            if count_colorings(member, sub_phi, sub_cs) == 0:
                return ObstructionCertificate(
                    descriptor, member, mpath, tuple(embed), sub_phi, sub_cs
                )
    return None


def _anchored_embeddings(
    member: PlaneNearTriangulation,
    mpath: PrincipalPath,
    g: PlaneNearTriangulation,
    anchor: tuple[int, int, int],
    eligible_outer: set[int],
    free_interior: set[int],
    budget: list[int],
) -> Iterator[list[int]]:
    """Injective maps of the member into g: the principal path lands on the
    anchor, other member-outer vertices land on outer vertices with exactly
    two forbidden colors, member-interior vertices land on free vertices,
    and every member edge is a g edge."""
    n = member.vertex_count
    mapping = [-1] * n
    used: set[int] = set()

    def ok(mv: int, gv: int) -> bool:
        if gv in used:
            return False
        if member.is_outer(mv):
            if gv not in eligible_outer:
                return False
        elif gv not in free_interior:
            return False
        if g.degree(gv) < member.degree(mv):
            return False
        for mu in member.adjacency(mv):
            gu = mapping[mu]
            if gu >= 0 and not g.has_edge(gv, gu):
                return False
        return True

    pins = {mpath.tail: anchor[0], mpath.major: anchor[1], mpath.head: anchor[2]}
    order = [mpath.major, mpath.head, mpath.tail]
    seen = set(order)
    qi = 0
    while qi < len(order):
        for u in member.rotation[order[qi]]:
            if u not in seen:
                seen.add(u)
                order.append(u)
        qi += 1
    for mv, gv in pins.items():
        mapping[mv] = gv
        used.add(gv)
    for mu in pins:
        for mw in member.adjacency(mu):
            gu = mapping[mw]
            if gu >= 0 and not g.has_edge(mapping[mu], gu):
                return

    free = [v for v in order if v not in pins]

    def place(idx: int) -> Iterator[list[int]]:
        budget[0] -= 1
        if budget[0] <= 0:
            raise SearchBudgetError("obstruction search exceeded its node budget")
        if idx == len(free):
            yield list(mapping)
            return
        mv = free[idx]
        anchored_nbrs = [u for u in member.adjacency(mv) if mapping[u] >= 0]
        if anchored_nbrs:
            pool = set(g.adjacency(mapping[anchored_nbrs[0]]))
            for u in anchored_nbrs[1:]:
                pool &= g.adjacency(mapping[u])
        else:
            pool = eligible_outer | free_interior
        for gv in sorted(pool):
            if ok(mv, gv):
                mapping[mv] = gv
                used.add(gv)
                yield from place(idx + 1)
                used.remove(gv)
                mapping[mv] = -1

    yield from place(0)


def validate_obstruction(cert: ObstructionCertificate) -> list[str]:
    """Independent re-check of a certificate: the recognizer must accept the
    graph, every non-path outer vertex must have exactly two forbidden
    colors, and the certificate instance itself must have zero colorings.
    The zero is decided by backtracking, not by the elimination counter
    that found the witness."""
    problems: list[str] = []
    if recognize_generalized_multi_wheel(cert.graph, cert.path) is None:
        problems.append("recognizer rejects the certificate graph")
    trio = (cert.path.tail, cert.path.major, cert.path.head)
    for v in range(cert.graph.vertex_count):
        if cert.graph.is_outer(v) and v not in trio:
            if len(cert.colors.forbidden[v]) != 2:
                problems.append(
                    f"outer vertex {v} has {len(cert.colors.forbidden[v])} forbidden "
                    "colors (need exactly 2)"
                )
    pre = cert.colors.precolor_map()
    if set(pre) != set(trio):
        problems.append("certificate must precolor exactly the principal path")
    if len(set(cert.embedding)) != cert.graph.vertex_count:
        problems.append("embedding is not injective")
    if next(enumerate_colorings(cert.graph, cert.phi, cert.colors), None) is not None:
        problems.append("certificate instance is colorable")
    return problems


# ---------------------------------------------------------------------------
# lemma1_alpha
# ---------------------------------------------------------------------------


def lemma1_failure_table(
    graph: PlaneNearTriangulation,
    phi: PhiAssignment,
    colors: ColorSystem,
    path: PrincipalPath,
) -> dict[tuple[int, int, int], int]:
    """Extension counts for every (tail, major, head) color triple, with the
    two principal edges removed.

    Removing them changes nothing for path-proper triples (their constraints
    are already satisfied) and makes the table literally independent of the
    labels on the principal edges, which is the invariance the alpha value
    is supposed to have."""
    stripped = phi.remove_edges((path.tail, path.major), (path.major, path.head))
    return marginal_counts(
        graph, stripped, colors, keep=(path.tail, path.major, path.head)
    )


def is_path_proper(
    graph: PlaneNearTriangulation,
    phi: PhiAssignment,
    path: PrincipalPath,
    triple: tuple[int, int, int],
) -> bool:
    """Whether (tail, major, head) colors are proper on the principal path:
    on its two edges and, when present, on the tail-head edge."""
    ct, cm, ch = triple
    if ct == tau(phi, path.major, cm, path.tail):
        return False
    if ch == tau(phi, path.major, cm, path.head):
        return False
    return not (
        graph.has_edge(path.tail, path.head)
        and ch == tau(phi, path.tail, ct, path.head)
    )


def classify_alpha(
    table: dict[tuple[int, int, int], int],
    graph: PlaneNearTriangulation,
    phi: PhiAssignment,
    path: PrincipalPath,
) -> AlphaResult:
    """Classify a failure table against a concrete labeling (which fixes
    which triples count as proper boundary precolorings)."""
    failures = [
        triple
        for triple, count in table.items()
        if count == 0 and is_path_proper(graph, phi, path, triple)
    ]
    if not failures:
        return AlphaResult("vacuous")
    diffs = {(ct - ch) % phi.modulus for ct, _, ch in failures}
    if len(diffs) == 1:
        return AlphaResult("alpha", diffs.pop())
    return AlphaResult("none")


def lemma1_alpha(
    graph: PlaneNearTriangulation,
    phi: PhiAssignment,
    colors: ColorSystem,
    path: PrincipalPath | None = None,
    require_multi_wheel: bool = True,
) -> AlphaResult:
    """The shared tail-minus-head difference of every non-extendable proper
    precoloring of the principal path of a multi-wheel.

    Enumerates all boundary precolorings (via one marginal-count pass) and
    classifies: 'alpha' when the failures agree on one difference, 'vacuous'
    when nothing fails, 'none' if disagreeing failures exist (which would
    disprove the multi-wheel property; only reachable with the class check
    disabled, e.g. on broken wheels).
    """
    if path is None:
        path = principal_path(graph)
    trio = (path.tail, path.major, path.head)
    if issues := _contract(graph, phi, colors, trio, ()):
        raise ExtensionError("; ".join(issues))
    if require_multi_wheel:
        d = recognize_generalized_multi_wheel(graph, path)
        if d is None or not is_multi_wheel_descriptor(d):
            raise ExtensionError("graph is not a multi-wheel")
    table = lemma1_failure_table(graph, phi, colors, path)
    return classify_alpha(table, graph, phi, path)
