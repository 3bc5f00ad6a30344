"""The "gcg v1" text format: a plane graph plus coloring constraints.

Line-oriented, UTF-8, ``#`` comments.  Directives:

    n <N>                       vertex count; vertices 0..N-1
    rot <v> <u1> <u2> ...       clockwise neighbor order of v (one per vertex)
    outer <k> <v1> ... <vk>     outer cycle
    group <m>                   color modulus (default 5)
    edge <u> <v> <phi>          stored orientation u->v; omitted edges get 0
    forbid <v> <c1> [<c2> [<c3>]]
    precolor <v> <c>
    descriptor <s-expression>   optional family descriptor (certificates)

Parsing is strict: unknown directives, duplicate rot/edge lines, values out
of range, and rotation/outer inconsistency (the graph must validate as a
near-triangulation) are all hard errors.

The graph work is cached per process.  The n, rot and outer lines are only
set aside while the lines are read; one bounded cache, keyed by their text
and line numbers, reads and checks them, builds and validates the graph and
returns it with its edge set and its edges in sorted order, for the 512
most recent texts.  So graph lines seen before cost one lookup and give
the same graph object.  The edge, forbid, precolor and descriptor lines
are checked on every parse; errors are never cached, so an invalid graph
raises on every parse, and a document with several faults raises for the
first of them, as if every line were read in order.  Those checks are all
the labeling and the constraint system get: they are built from the
checked lines without the constructors' second pass over the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable

from .group_color import ColorSystem, PhiAssignment
from .plane_graph import PlaneNearTriangulation, validate


class GcgError(ValueError):
    """Malformed gcg input."""


@dataclass(frozen=True)
class GcgDocument:
    graph: PlaneNearTriangulation
    phi: PhiAssignment
    colors: ColorSystem
    descriptor: str | None = None


def _ints(parts: list[str], line_no: int) -> list[int]:
    try:
        return list(map(int, parts))
    except ValueError:
        raise GcgError(f"line {line_no}: expected integers, got {parts!r}") from None


def _graph_fields(
    lines: Iterable[tuple[int, str]],
) -> tuple[int | None, dict[int, list[int]], list[int] | None]:
    """n, the neighbor list of each rot line by vertex and the outer cycle
    read from the graph lines ``(line_no, text)`` in document order; each
    line is checked as it comes, so the first faulty one raises."""
    n: int | None = None
    rot_lines: dict[int, list[int]] = {}
    outer: list[int] | None = None
    for line_no, line in lines:
        kind, *args = line.partition("#")[0].split()
        if kind == "n":
            if n is not None:
                raise GcgError(f"line {line_no}: duplicate n directive")
            (n,) = _ints(args, line_no) if len(args) == 1 else (None,)
            if n is None or n < 0:
                raise GcgError(f"line {line_no}: n needs one nonnegative integer")
        elif kind == "rot":
            vals = _ints(args, line_no)
            if not vals:
                raise GcgError(f"line {line_no}: rot needs a vertex")
            v, nbrs = vals[0], vals[1:]
            if v in rot_lines:
                raise GcgError(f"line {line_no}: duplicate rot line for vertex {v}")
            rot_lines[v] = nbrs
        else:
            vals = _ints(args, line_no)
            if outer is not None:
                raise GcgError(f"line {line_no}: duplicate outer directive")
            if not vals or len(vals) != vals[0] + 1:
                raise GcgError(f"line {line_no}: outer count does not match vertices")
            outer = vals[1:]
    return n, rot_lines, outer


@lru_cache(maxsize=512)
def _graph(
    lines: tuple[tuple[int, str], ...],
) -> tuple[PlaneNearTriangulation, frozenset[tuple[int, int]], tuple[tuple[int, int], ...]]:
    """The validated graph of the graph lines ``(line_no, text)`` of a
    document, its edge set and its edges in sorted order; the lines are read
    and checked here, once per text.  Raises ``GcgError`` (never cached)."""
    n, rot_lines, outer = _graph_fields(lines)
    if n is None:
        raise GcgError("missing n directive")
    if outer is None:
        raise GcgError("missing outer directive")
    extra = [v for v in rot_lines if not 0 <= v < n]
    missing = n - (len(rot_lines) - len(extra))
    if missing:
        # n may be huge: name the first few missing vertices, not all of them.
        first = list(islice((v for v in range(n) if v not in rot_lines), 5))
        raise GcgError(f"missing rot lines for {missing} of {n} vertices, first {first}")
    if extra:
        raise GcgError(f"rot lines for out-of-range vertices {extra}")
    rotation = tuple(tuple(rot_lines[v]) for v in range(n))
    graph = PlaneNearTriangulation(n, rotation, tuple(outer))
    report = validate(graph)
    if not report.ok:
        raise GcgError("invalid near-triangulation: " + "; ".join(report.violations))
    edges = frozenset(graph.edges())
    return graph, edges, tuple(sorted(edges))


def parse_gcg(text: str) -> GcgDocument:
    """Parse one gcg document, checking every line (see the module
    docstring).  Documents whose graph lines read the same share one graph
    object, held in a per-process cache of 512 texts; parse errors are not
    cached."""
    modulus = 5
    graph_lines: list[tuple[int, str]] = []
    edge_lines: dict[tuple[int, int], tuple[int, int, int]] = {}
    forbid: dict[int, frozenset[int]] = {}
    precolor: dict[int, int] = {}
    descriptor: str | None = None
    fault: GcgError | None = None
    try:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            parts = raw.partition("#")[0].split()
            if not parts:
                continue
            kind = parts[0]
            if kind == "edge":
                try:
                    _, u, v, x = parts
                    u, v, x = int(u), int(v), int(x)
                except ValueError:
                    _ints(parts[1:], line_no)
                    raise GcgError(f"line {line_no}: edge needs u v phi") from None
                key = (u, v) if u < v else (v, u)
                if key in edge_lines:
                    raise GcgError(f"line {line_no}: duplicate edge line for {u}-{v}")
                edge_lines[key] = (u, v, x)
            elif kind == "rot" or kind == "outer" or kind == "n":
                graph_lines.append((line_no, raw))
            elif kind == "forbid":
                vals = _ints(parts[1:], line_no)
                if not 2 <= len(vals) <= 4:
                    raise GcgError(f"line {line_no}: forbid needs a vertex and 1..3 colors")
                if vals[0] in forbid:
                    raise GcgError(f"line {line_no}: duplicate forbid line for {vals[0]}")
                forbid[vals[0]] = frozenset(vals[1:])
            elif kind == "precolor":
                vals = _ints(parts[1:], line_no)
                if len(vals) != 2:
                    raise GcgError(f"line {line_no}: precolor needs vertex and color")
                if vals[0] in precolor:
                    raise GcgError(f"line {line_no}: duplicate precolor line for {vals[0]}")
                precolor[vals[0]] = vals[1]
            elif kind == "descriptor":
                if descriptor is not None:
                    raise GcgError(f"line {line_no}: duplicate descriptor directive")
                if len(parts) == 1:
                    raise GcgError(f"line {line_no}: descriptor needs an s-expression")
                descriptor = " ".join(parts[1:])
            elif kind == "group":
                vals = _ints(parts[1:], line_no)
                if len(vals) != 1 or vals[0] < 2:
                    raise GcgError(f"line {line_no}: group needs one integer >= 2")
                modulus = vals[0]
            else:
                raise GcgError(f"line {line_no}: unknown directive {kind!r}")
    except GcgError as error:
        fault = error
    if fault is not None:
        # Graph lines are read only after the loop: a faulty one above this
        # fault raises instead, so the first fault of the document wins.
        _graph_fields(graph_lines)
        raise fault

    graph, edge_set, edges = _graph(tuple(graph_lines))
    n = graph.vertex_count
    records = []
    for key, (u, v, x) in sorted(edge_lines.items()):
        if key not in edge_set:
            raise GcgError(f"edge line {u}-{v} is not an edge of the rotation")
        if not 0 <= x < modulus:
            raise GcgError(f"edge value {x} out of range mod {modulus}")
        records.append((u, v, x))
    records += [(u, v, 0) for u, v in edges if (u, v) not in edge_lines]
    phi = PhiAssignment._derived(modulus, tuple(records))

    forbidden = [frozenset()] * n
    for v, colors in forbid.items():
        if not 0 <= v < n:
            raise GcgError(f"forbid line for out-of-range vertex {v}")
        if any(not 0 <= c < modulus for c in colors):
            raise GcgError(f"forbid colors at {v} out of range mod {modulus}")
        forbidden[v] = colors
    for v, c in precolor.items():
        if not 0 <= v < n:
            raise GcgError(f"precolor line for out-of-range vertex {v}")
        if not 0 <= c < modulus:
            raise GcgError(f"precolor {c} out of range mod {modulus}")
    precoloring = tuple(sorted(precolor.items()))
    colors = ColorSystem._derived(modulus, tuple(forbidden), precoloring)
    return GcgDocument(graph, phi, colors, descriptor)


def write_gcg(
    graph: PlaneNearTriangulation,
    phi: PhiAssignment | None = None,
    colors: ColorSystem | None = None,
    descriptor: str | None = None,
    comment: str | None = None,
) -> str:
    """The gcg text of a graph with its labeling, constraint system and
    descriptor, each optional.  A descriptor must read back as written, so
    one that is blank, holds a ``#`` or a line break, or has whitespace
    other than single spaces between its words raises ``GcgError``."""
    if descriptor is not None and (
        not descriptor or "#" in descriptor or " ".join(descriptor.split()) != descriptor
    ):
        raise GcgError(f"descriptor {descriptor!r} would not read back as written")
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    modulus = phi.modulus if phi is not None else (colors.modulus if colors else 5)
    lines.append(f"n {graph.vertex_count}")
    if modulus != 5:
        lines.append(f"group {modulus}")
    for v in range(graph.vertex_count):
        lines.append("rot " + " ".join(str(x) for x in (v, *graph.rotation[v])))
    lines.append(
        "outer " + " ".join(str(x) for x in (len(graph.outer_cycle), *graph.outer_cycle))
    )
    if phi is not None:
        for tail, head, value in sorted(phi.records, key=lambda r: (min(r[:2]), max(r[:2]))):
            if value:
                lines.append(f"edge {tail} {head} {value}")
    if colors is not None:
        for v, fv in enumerate(colors.forbidden):
            if fv:
                lines.append(f"forbid {v} " + " ".join(str(c) for c in sorted(fv)))
        for v, c in colors.precoloring:
            lines.append(f"precolor {v} {c}")
    if descriptor is not None:
        lines.append(f"descriptor {descriptor}")
    return "\n".join(lines) + "\n"
