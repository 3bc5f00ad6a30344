"""Modular edge labelings and the tau calculus for group colorings.

Colors are integers mod m (default m = 5).  An edge labeling phi assigns a
group value to each edge together with a stored orientation; a total coloring
c is *proper* when c(head) - c(tail) != value on every edge.  All constraint
logic routes through ``tau``: once a vertex v is colored alpha, exactly one
color is forbidden at each neighbor u, namely ``tau(phi, v, alpha, u)``.
Callers never see the stored orientation.

The labeling can be rewritten without changing the coloring count: shifting
at a vertex v0 adds a constant to every edge pointing at v0 and subtracts it
from every edge leaving v0 (``shift_phi``).  Coloring counts are preserved by
the bijection that adds the same constant to c(v0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

Coloring = tuple[int, ...]
"""Total color assignment, indexed by vertex.  Properness is a predicate,
not an invariant: improper colorings are representable (oracles count them).
"""


class GroupColorError(ValueError):
    """Raised for malformed labelings, constraint systems, or queries."""


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class PhiAssignment:
    """A Z_m value per edge, stored with a fixed arbitrary orientation.

    ``records`` holds one ``(tail, head, value)`` triple per undirected edge;
    the edge is directed towards ``head``.  Reversing a stored record negates
    its value and changes nothing observable.  The map from stored
    orientation to value that ``has_edge`` and ``offset`` read is built by
    the validating constructor, which needs it to find duplicates, and
    otherwise on the first query: a labeling built from checked records
    (``remove_edges``, the gcg parser) may never be queried.
    """

    modulus: int
    records: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise GroupColorError(f"modulus must be >= 2, got {self.modulus}")
        delta: dict[tuple[int, int], int] = {}
        for tail, head, value in self.records:
            if tail == head:
                raise GroupColorError(f"loop edge {tail}")
            if not 0 <= value < self.modulus:
                raise GroupColorError(f"value {value} out of range mod {self.modulus}")
            if (tail, head) in delta or (head, tail) in delta:
                raise GroupColorError(f"duplicate edge record {tail}-{head}")
            # tau(v=tail, alpha, u=head) = alpha + value; only the stored
            # orientation is kept, and ``offset`` negates a reversed query.
            delta[(tail, head)] = value
        object.__setattr__(self, "_delta", delta)

    @cached_property
    def _delta(self) -> dict[tuple[int, int], int]:
        return {(t, h): x for t, h, x in self.records}

    @classmethod
    def _derived(
        cls, modulus: int, records: tuple[tuple[int, int, int], ...]
    ) -> PhiAssignment:
        """A labeling whose records the caller has checked (distinct
        non-loop edges, values in range, ``modulus`` >= 2), so the
        ``__post_init__`` pass is skipped."""
        out = object.__new__(cls)
        object.__setattr__(out, "modulus", modulus)
        object.__setattr__(out, "records", records)
        return out

    @classmethod
    def zero(cls, edges: Iterable[tuple[int, int]], modulus: int = 5) -> PhiAssignment:
        """All-zero labeling on the given edges (canonical min->max orientation)."""
        return cls(modulus, tuple((min(u, v), max(u, v), 0) for u, v in edges))

    @classmethod
    def from_values(
        cls, values: dict[tuple[int, int], int], modulus: int = 5
    ) -> PhiAssignment:
        """Labeling from a dict keyed by (tail, head)."""
        return cls(modulus, tuple((t, h, x % modulus) for (t, h), x in values.items()))

    def edges(self) -> Iterator[tuple[int, int]]:
        for tail, head, _ in self.records:
            yield _edge_key(tail, head)

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._delta or (v, u) in self._delta

    def offset(self, v: int, u: int) -> int:
        """The tau offset from v to u: tau(v, alpha, u) = alpha + offset(v, u)."""
        value = self._delta.get((v, u))
        if value is not None:
            return value
        value = self._delta.get((u, v))
        if value is None:
            raise GroupColorError(f"{v}-{u} is not an edge of this labeling")
        return -value % self.modulus

    def remove_edge(self, u: int, v: int) -> PhiAssignment:
        return self.remove_edges((u, v))

    def remove_edges(self, *edges: tuple[int, int]) -> PhiAssignment:
        """The labeling without the given edges, built in one pass over the
        records that also finds them; what is kept was checked when
        ``self`` was built."""
        gone = {e for u, v in edges for e in ((u, v), (v, u))}
        kept = tuple(r for r in self.records if (r[0], r[1]) not in gone)
        if len(kept) + len(edges) != len(self.records):
            # An edge is missing or named twice: name the first missing one.
            for u, v in edges:
                if not self.has_edge(u, v):
                    raise GroupColorError(f"{u}-{v} is not an edge of this labeling")
        return self._derived(self.modulus, kept)

    def with_flipped(self, u: int, v: int) -> PhiAssignment:
        """Same labeling with the stored record for uv reversed and negated."""
        if not self.has_edge(u, v):
            raise GroupColorError(f"{u}-{v} is not an edge of this labeling")
        out = []
        for tail, head, value in self.records:
            if {tail, head} == {u, v}:
                out.append((head, tail, (-value) % self.modulus))
            else:
                out.append((tail, head, value))
        return PhiAssignment(self.modulus, tuple(out))


def tau(phi: PhiAssignment, v: int, alpha: int, u: int) -> int:
    """The one color forbidden at u when its neighbor v has color alpha."""
    return (alpha + phi.offset(v, u)) % phi.modulus


def tau_set(phi: PhiAssignment, v: int, colors: Iterable[int], u: int) -> frozenset[int]:
    """Image of a color set under tau towards u."""
    d = phi.offset(v, u)
    return frozenset((a + d) % phi.modulus for a in colors)


def is_proper(graph, phi: PhiAssignment, coloring: Sequence[int]) -> bool:
    """True iff no edge record has c(head) - c(tail) equal to its value.

    ``graph`` fixes the expected vertex count; the edge set is phi's.
    """
    n = graph if isinstance(graph, int) else graph.vertex_count
    if len(coloring) != n:
        raise GroupColorError(f"coloring has {len(coloring)} entries, expected {n}")
    m = phi.modulus
    for tail, head, value in phi.records:
        if (coloring[head] - coloring[tail]) % m == value:
            return False
    return True


def shift_phi(phi: PhiAssignment, v0: int, alpha: int) -> PhiAssignment:
    """Add alpha on edges directed towards v0, subtract it on edges leaving v0.

    Coloring counts are preserved: c <-> c with c(v0) replaced by c(v0)+alpha
    is a properness-preserving bijection.
    """
    m = phi.modulus
    out = []
    for tail, head, value in phi.records:
        if head == v0:
            out.append((tail, head, (value + alpha) % m))
        elif tail == v0:
            out.append((tail, head, (value - alpha) % m))
        else:
            out.append((tail, head, value))
    return PhiAssignment(m, tuple(out))


def triangle_consistent(phi: PhiAssignment, u: int, v: int, w: int) -> bool:
    """True iff the oriented label sum around the triangle uvw vanishes mod m.

    Equivalently: relaying a color around the triangle (u to v to w) forbids
    the same color at w as the direct edge does, for one alpha iff for all.
    """
    for a, b in ((u, v), (v, w), (w, u)):
        if not phi.has_edge(a, b):
            raise GroupColorError(f"{u},{v},{w} is not a triangle of this labeling")
    total = phi.offset(u, v) + phi.offset(v, w) + phi.offset(w, u)
    return total % phi.modulus == 0


def normalize_star(phi: PhiAssignment, center: int, targets: Sequence[int]) -> PhiAssignment:
    """Shift at each target so every center-target edge gets value 0.

    Each shift happens at the target, so distinct targets never disturb each
    other's center edge.  Preserves colorability and the coloring count.
    """
    if len(set(targets)) != len(targets):
        raise GroupColorError("targets must be distinct")
    if center in targets:
        raise GroupColorError("center cannot be one of the targets")
    out = phi
    for t in targets:
        if not out.has_edge(center, t):
            raise GroupColorError(f"target {t} is not adjacent to center {center}")
        # Shifting at t adds alpha to offset(center, t) regardless of the
        # stored orientation, so solve offset + alpha = 0.
        alpha = (-out.offset(center, t)) % out.modulus
        out = shift_phi(out, t, alpha)
    return out


@dataclass(frozen=True)
class ColorSystem:
    """Per-vertex forbidden sets plus a partial precoloring.

    A precolored vertex has its forbidden set ignored (the precoloring
    overrides the list).  ``available`` derives the list Z_m minus forbidden.
    """

    modulus: int
    forbidden: tuple[frozenset[int], ...]
    precoloring: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for v, c in self.precoloring:
            self._check_vertex(v)
            if v in seen:
                raise GroupColorError(f"vertex {v} precolored twice")
            seen.add(v)
            if not 0 <= c < self.modulus:
                raise GroupColorError(f"precolor {c} out of range mod {self.modulus}")
        for v, fv in enumerate(self.forbidden):
            if any(not 0 <= c < self.modulus for c in fv):
                raise GroupColorError(f"forbidden colors at {v} out of range")

    @classmethod
    def free(cls, n: int, modulus: int = 5) -> ColorSystem:
        return cls(modulus, (frozenset(),) * n)

    @property
    def vertex_count(self) -> int:
        return len(self.forbidden)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self.forbidden):
            raise GroupColorError(f"vertex {v} outside 0..{len(self.forbidden) - 1}")

    def precolor_map(self) -> dict[int, int]:
        return dict(self.precoloring)

    def available(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        for u, c in self.precoloring:
            if u == v:
                return frozenset((c,))
        return frozenset(range(self.modulus)) - self.forbidden[v]

    @classmethod
    def _derived(
        cls,
        modulus: int,
        forbidden: tuple[frozenset[int], ...],
        precoloring: tuple[tuple[int, int], ...],
    ) -> ColorSystem:
        """A system whose parts the caller has checked (a copy checks only
        what it changes: the rest was checked when it was built), so the
        O(n) ``__post_init__`` pass is skipped."""
        out = object.__new__(cls)
        object.__setattr__(out, "modulus", modulus)
        object.__setattr__(out, "forbidden", forbidden)
        object.__setattr__(out, "precoloring", precoloring)
        return out

    def with_forbidden(self, v: int, colors: Iterable[int]) -> ColorSystem:
        self._check_vertex(v)
        fv = frozenset(colors)
        if any(not 0 <= c < self.modulus for c in fv):
            raise GroupColorError(f"forbidden colors at {v} out of range")
        fb = list(self.forbidden)
        fb[v] = fv
        return self._derived(self.modulus, tuple(fb), self.precoloring)

    def with_precolor(self, v: int, color: int) -> ColorSystem:
        self._check_vertex(v)
        if not 0 <= color < self.modulus:
            raise GroupColorError(f"precolor {color} out of range mod {self.modulus}")
        pre = tuple(sorted((dict(self.precoloring) | {v: color}).items()))
        return self._derived(self.modulus, self.forbidden, pre)

    def without_precolor(self, v: int) -> ColorSystem:
        self._check_vertex(v)
        pre = tuple((u, c) for u, c in self.precoloring if u != v)
        return self._derived(self.modulus, self.forbidden, pre)
