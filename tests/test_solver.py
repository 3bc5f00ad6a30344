import hashlib
import itertools
import math
import random

import pytest

from conftest import (
    _cycle_sides,
    brute_count,
    brute_marginals,
    cpu_time_limit,
    flipped_near_triangulation,
    random_phi_on,
)
from z5color.families import (
    BrokenWheel,
    PrincipalPath,
    Wheel,
    build,
    built_family,
    is_multi_wheel_descriptor,
)
from z5color import solver
from z5color.group_color import (
    ColorSystem,
    GroupColorError,
    PhiAssignment,
    is_proper,
    shift_phi,
    tau,
)
from z5color.plane_graph import (
    PlaneNearTriangulation,
    face_vertices,
    faces_of,
    outer_face_index,
    validate,
)
from z5color.propcheck import (
    derive_seed,
    random_near_triangulation,
    random_phi,
    random_triangulation,
)
from z5color.solver import (
    AlphaResult,
    ExtensionError,
    ExtensionProblem,
    HubException,
    ObstructionCertificate,
    _avail_lists,
    _decode_coloring,
    _elimination_plan,
    _execute,
    _inner_arc,
    _labeled_edges,
    classify_alpha,
    color_short_cycle,
    count_colorings,
    enumerate_colorings,
    extend_three,
    extend_two,
    first_coloring,
    is_path_proper,
    lemma1_alpha,
    lemma1_failure_table,
    marginal_counts,
    plan_cache_info,
    validate_extension_problem,
    validate_obstruction,
)


def wheel_chromatic_value(k, q):
    # Cone over a k-cycle: q * P(C_k, q-1).
    return q * ((q - 2) ** k + (-1) ** k * (q - 2))


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def test_count_triangle_is_sixty(k3):
    g, _ = k3
    assert count_colorings(g, PhiAssignment.zero(g.edges())) == 60


def test_count_single_edge_is_twenty():
    for value in range(5):
        phi = PhiAssignment(5, ((0, 1, value),))
        assert count_colorings(2, phi) == 20


def test_count_wheel5_brute_force_and_chromatic(w5):
    g, _ = w5
    phi = PhiAssignment.zero(g.edges())
    assert count_colorings(g, phi) == 1200
    assert brute_count(6, phi) == 1200
    assert wheel_chromatic_value(5, 5) == 1200


def test_count_agrees_with_literal_enumeration(rng):
    for _ in range(40):
        n = rng.randint(3, 6)
        g = random_triangulation(n, rng.randrange(10**6))
        phi = random_phi_on(g, rng)
        cs = ColorSystem.free(n)
        for v in range(n):
            if rng.random() < 0.4:
                cs = cs.with_forbidden(v, rng.sample(range(5), rng.randint(0, 2)))
        if rng.random() < 0.3:
            cs = cs.with_precolor(rng.randrange(n), rng.randrange(5))
        assert count_colorings(g, phi, cs) == brute_count(n, phi, cs)


def test_enumerate_matches_count_and_is_proper(rng):
    for _ in range(100):
        n = rng.randint(3, 7)
        g = random_triangulation(n, rng.randrange(10**6))
        phi = random_phi_on(g, rng)
        cs = ColorSystem.free(n)
        for v in g.outer_cycle:
            cs = cs.with_forbidden(v, rng.sample(range(5), rng.randint(0, 2)))
        out = list(enumerate_colorings(g, phi, cs))
        assert len(out) == count_colorings(g, phi, cs)
        assert len(set(out)) == len(out)
        for coloring in out[:20]:
            assert is_proper(g, phi, coloring)
            assert all(coloring[v] in cs.available(v) for v in range(n))


def test_enumerate_empty_for_hub_exception_instance(w5):
    g, _ = w5
    phi = PhiAssignment.zero(g.edges())
    cs = ColorSystem.free(6)
    for i in range(5):
        cs = cs.with_precolor(i, i)
    assert list(enumerate_colorings(g, phi, cs)) == []
    assert count_colorings(g, phi, cs) == 0


def test_count_invariances(rng, bw4):
    g, _ = bw4
    for _ in range(20):
        phi = random_phi_on(g, rng)
        cs = ColorSystem.free(4).with_forbidden(1, {0})
        base = count_colorings(g, phi, cs)
        # labeling shift at an unconstrained vertex
        assert base == count_colorings(g, shift_phi(phi, 2, rng.randrange(5)), cs)
        # stored-orientation flips
        flipped = phi
        for u, v in g.edges():
            if rng.random() < 0.5:
                flipped = flipped.with_flipped(u, v)
        assert base == count_colorings(g, flipped, cs)
    # relabeling by the mirror automorphism that fixes the constraint
    phi = PhiAssignment.zero(g.edges())
    cs = ColorSystem.free(4).with_forbidden(2, {1, 3})
    perm = {0: 0, 1: 3, 3: 1, 2: 2}  # reflection of the fan
    phi2 = PhiAssignment(5, tuple((perm[t], perm[h], x) for t, h, x in phi.records))
    assert count_colorings(g, phi, cs) == count_colorings(4, phi2, cs)


def test_marginal_counts_order_and_totals(rng, w5):
    g, _ = w5
    phi = random_phi_on(g, rng)
    marg = marginal_counts(g, phi, None, keep=(4, 0, 1))
    assert sum(marg.values()) == count_colorings(g, phi)
    swapped = marginal_counts(g, phi, None, keep=(1, 0, 4))
    for (a, b, c), value in marg.items():
        assert swapped[(c, b, a)] == value
    # per-entry agreement with explicit precoloring
    for trip in [(0, 1, 2), (3, 3, 3)]:
        cs = (
            ColorSystem.free(6)
            .with_precolor(4, trip[0])
            .with_precolor(0, trip[1])
            .with_precolor(1, trip[2])
        )
        assert marg[trip] == count_colorings(g, phi, cs)


def test_marginal_counts_match_literal_enumeration():
    # Moduli 2, 3, 4, 5 and 7; bare vertex counts; records stored either
    # way round and in any order, some edges left unconstrained; forbidden
    # sets and precolorings; keep of 0-4 vertices in any order.  Many steps
    # sum an edge out by subtraction instead of gathering it into the joint
    # table, and the sweep must run that path.
    rng = random.Random(909)
    cut_steps = 0
    for _ in range(120):
        m = rng.choice((2, 3, 4, 5, 7))
        n = rng.randint(3, {2: 11, 3: 9, 4: 7, 5: 6, 7: 5}[m])
        g = random_near_triangulation(n, rng.randint(3, n), rng.randrange(10**6))
        records = [
            (u, v, rng.randrange(m)) if rng.random() < 0.5 else (v, u, rng.randrange(m))
            for u, v in g.edges()
            if rng.random() < 0.9
        ]
        rng.shuffle(records)
        phi = PhiAssignment(m, tuple(records))
        cs = ColorSystem.free(n, m)
        for v in range(n):
            if rng.random() < 0.4:
                cs = cs.with_forbidden(v, rng.sample(range(m), rng.randint(1, m - 1)))
        for v in rng.sample(range(n), rng.randint(0, 2)):
            cs = cs.with_precolor(v, rng.randrange(m))
        colors = cs if rng.random() < 0.8 else None
        keep = tuple(rng.sample(range(n), rng.randint(0, min(4, n))))
        graph = n if rng.random() < 0.3 else g
        table = marginal_counts(graph, phi, colors, keep)
        avail = _avail_lists(n, phi, colors)
        assert list(table) == list(itertools.product(*(avail[u] for u in keep)))
        assert all(type(value) is int for value in table.values())
        brute = brute_marginals(n, phi, colors, keep)
        assert table == {key: brute[key] for key in table}
        st = _elimination_plan(n, m, avail, _labeled_edges(n, phi), keep)[0]
        cut_steps += sum(cut is not None for _, _, _, _, _, cut, _, _ in st.steps)
    assert cut_steps > 100


def test_counters_reject_a_constraint_system_of_another_modulus(k3):
    # Colors 5 and 6 of a mod-7 system have no meaning under a mod-5
    # labeling; both routes refuse the pair instead of disagreeing.
    g, _ = k3
    phi = PhiAssignment.zero(g.edges())
    cs = ColorSystem.free(3, modulus=7)
    with pytest.raises(ExtensionError):
        count_colorings(g, phi, cs)
    with pytest.raises(ExtensionError):
        next(enumerate_colorings(g, phi, cs))


def test_counters_reject_vertices_outside_the_graph(k3):
    # A keep vertex outside 0..n-1 got a table for a vertex that does not
    # exist, or a bare IndexError; a negative bare vertex count counted 1.
    g, _ = k3
    phi = PhiAssignment.zero(g.edges())
    for bad in ((-1,), (3,), (0, 5)):
        with pytest.raises(ExtensionError):
            marginal_counts(g, phi, None, keep=bad)
    empty = PhiAssignment(5, ())
    with pytest.raises(ExtensionError):
        count_colorings(-1, empty)
    with pytest.raises(ExtensionError):
        next(enumerate_colorings(-1, empty))
    with pytest.raises(ExtensionError):
        first_coloring(-1, empty)
    assert count_colorings(0, empty) == 1


def test_first_coloring_past_the_frame_cap():
    # The backtracking on this near-triangulation runs for far longer than
    # a second; past the frame cap the coloring is decoded from the
    # elimination plan.  A CPU-time alarm makes a runaway search fail fast.
    g = random_near_triangulation(1011, 101, derive_seed(2, "near_tri", 1011))
    phi = PhiAssignment.zero(g.edges())
    with cpu_time_limit(5.0):
        coloring = first_coloring(g, phi)
    assert coloring is not None and is_proper(g, phi, coloring)


def test_decoded_coloring_is_proper_or_none_exactly_without_colorings(rng):
    for _ in range(80):
        n = rng.randint(3, 12)
        g = random_near_triangulation(n, rng.randint(3, n), rng.randrange(10**6))
        phi = random_phi_on(g, rng)
        cs = ColorSystem.free(n)
        for v in range(n):
            cs = cs.with_forbidden(v, rng.sample(range(5), rng.randint(0, 3)))
        for v in rng.sample(range(n), rng.randint(0, 3)):
            cs = cs.with_precolor(v, rng.randrange(5))
        coloring = _decode_coloring(n, phi, _avail_lists(n, phi, cs))
        if count_colorings(g, phi, cs) == 0:
            assert coloring is None
        else:
            assert is_proper(g, phi, coloring)
            assert all(coloring[v] in cs.available(v) for v in range(n))


def test_marginal_tables_are_fixed_by_a_common_shift(rng):
    # c + s is proper exactly when c is, so with no lists every table of
    # marginal counts is fixed by adding s to every kept color, and the
    # total is a multiple of 5.
    for _ in range(40):
        n = rng.randint(3, 14)
        g = random_near_triangulation(n, rng.randint(3, n), rng.randrange(10**6))
        phi = random_phi_on(g, rng)
        keep = tuple(rng.sample(range(n), rng.randint(0, min(3, n))))
        table = marginal_counts(g, phi, None, keep)
        assert len(table) == 5 ** len(keep)
        for colors, value in table.items():
            for s in range(1, 5):
                assert table[tuple((c + s) % 5 for c in colors)] == value
        assert sum(table.values()) % 5 == 0


def test_counts_with_lists_on_some_vertices_match_both_oracles(rng):
    # Lists on a random subset of the vertices leave a plan in which only
    # the steps clear of them are shift-free; the counts must not notice.
    for _ in range(30):
        n = rng.randint(3, 6)
        g = random_near_triangulation(n, rng.randint(3, n), rng.randrange(10**6))
        phi = random_phi_on(g, rng)
        cs = ColorSystem.free(n)
        for v in rng.sample(range(n), rng.randint(1, n - 1)):
            if rng.random() < 0.3:
                cs = cs.with_precolor(v, rng.randrange(5))
            else:
                cs = cs.with_forbidden(v, rng.sample(range(5), rng.randint(1, 3)))
        keep = tuple(rng.sample(range(n), rng.randint(0, 2)))
        table = marginal_counts(g, phi, cs, keep)
        brute = brute_marginals(n, phi, cs, keep)
        assert table == {key: brute[key] for key in table}
        total = sum(1 for _ in enumerate_colorings(g, phi, cs))
        assert count_colorings(g, phi, cs) == brute_count(n, phi, cs) == total


def test_plan_marks_shift_free_steps_on_wheels():
    # Unlisted, every step of a wheel's plan that leaves a factor behind
    # runs shift-free.  A list on one rim vertex clears the flag on exactly
    # the steps that read its factor or a factor built from it.  A cut step
    # leaves its edge's far end u out of the joint's axes, so the new
    # factor's scope is the joint's axes less v, plus u.
    def leaves_a_factor(axes, cut):
        return bool(axes[:-1]) or cut is not None

    for k in (3, 5, 8, 13):
        g, _ = build(Wheel(k))
        n = g.vertex_count
        phi = PhiAssignment.zero(g.edges())
        full = [tuple(range(5))] * n
        st, tables, lists, values = _elimination_plan(n, 5, full, _labeled_edges(n, phi), ())
        free = _execute(st, tables, lists, values, 5, False)
        for (_, axes, _, _, spread, cut, _, _), shift_free in zip(st.steps, free):
            assert (spread is not None) == shift_free == leaves_a_factor(axes, cut)
        for rim in (1, k // 2 + 1):
            avail = list(full)
            avail[rim] = (0, 2, 4)
            st, tables, lists, values = _elimination_plan(n, 5, avail, _labeled_edges(n, phi), ())
            free = _execute(st, tables, lists, values, 5, False)
            # Step i's new factor is factor i; the edge tables follow.
            assert len(tables) == len(st.steps) + len(phi.records)
            descends = set()
            for i, (v, axes, merges, joins, _, cut, _, _) in enumerate(st.steps):
                reads = {f for f, _, _ in joins}
                reads.update(f for dst, src, _ in merges for f in (dst, src))
                if v == rim or reads & descends:
                    descends.add(i)
                    assert not free[i]
                else:
                    assert free[i] == leaves_a_factor(axes, cut)
            assert any(free)
            assert len(descends) > 1
        assert k == 3 or any(cut is not None for _, _, _, _, _, cut, _, _ in st.steps)


def test_merges_go_only_into_hosts_narrower_than_the_joint(rng):
    # A factor is multiplied into a touching host only when that host has
    # fewer axes than the step's joint table; a host as wide as the joint
    # is gathered into it beside its guests.  Step i's new factor has the
    # joint's axes less v (plus u after a cut); edge factors have two.
    def widths(st):
        steps = [len(axes) - (cut is None) for _, axes, _, _, _, cut, _, _ in st.steps]
        return lambda f: steps[f] if f < len(steps) else 2

    instances = []  # (graph, phi, colors, keep)
    for k in (3, 5, 8, 13):
        for g, _ in (build(Wheel(k)), build(BrokenWheel(k + 1))):
            instances.append((g, random_phi_on(g, rng), None, ()))
    for _ in range(40):
        n = rng.randint(3, 14) if len(instances) % 2 else rng.randint(3, 7)
        g = random_near_triangulation(n, rng.randint(3, n), rng.randrange(10**6))
        cs = ColorSystem.free(n)
        for v in rng.sample(range(n), rng.randint(0, n // 2)):
            cs = cs.with_forbidden(v, rng.sample(range(5), rng.randint(1, 3)))
        keep = tuple(rng.sample(range(n), rng.randint(0, min(3, n))))
        instances.append((g, random_phi_on(g, rng), cs, keep))
    wheels = [m for m in built_family(10) if is_multi_wheel_descriptor(m[0])]
    for _, g, p in wheels[:: len(wheels) // 40]:
        cs = ColorSystem.free(g.vertex_count)
        for v in g.outer_cycle:
            if v not in (p.tail, p.major, p.head):
                cs = cs.with_forbidden(v, rng.sample(range(5), 2))
        phi = random_phi_on(g, rng).remove_edges((p.tail, p.major), (p.major, p.head))
        instances.append((g, phi, cs, (p.tail, p.major, p.head)))
    merges = brute_checked = 0
    for g, phi, cs, keep in instances:
        n = g.vertex_count
        avail = _avail_lists(n, phi, cs)
        st = _elimination_plan(n, 5, avail, _labeled_edges(n, phi), keep)[0]
        width = widths(st)
        for _, axes, step_merges, _, _, _, _, _ in st.steps:
            for dst, src, _ in step_merges:
                assert width(src) < width(dst) < len(axes)
                merges += 1
        if n <= 8:
            table = marginal_counts(g, phi, cs, keep)
            brute = brute_marginals(n, phi, cs, keep)
            assert table == {key: brute[key] for key in table}
            brute_checked += 1
    assert merges > 50 and brute_checked > 30


def test_marginal_counts_read_partial_keep_lists_in_product_order(rng):
    # The keys and the cells they read come from one cached read-out per
    # modulus and keep lists; a precolored or a listed keep vertex shrinks
    # its axis, and two keeps with the same lists share one read-out.
    solver._readout.cache_clear()
    for _ in range(30):
        n = rng.randint(4, 7)
        g = random_near_triangulation(n, rng.randint(3, n), rng.randrange(10**6))
        phi = random_phi_on(g, rng)
        keep = tuple(rng.sample(range(n), 3))
        cs = ColorSystem.free(n).with_precolor(keep[0], rng.randrange(5))
        cs = cs.with_forbidden(keep[1], rng.sample(range(5), rng.randint(1, 4)))
        table = marginal_counts(g, phi, cs, keep)
        lists = [sorted(cs.available(u)) for u in keep]
        assert list(table) == list(itertools.product(*lists))
        brute = brute_marginals(n, phi, cs, keep)
        assert table == {key: brute[key] for key in table}
    g, _ = build(Wheel(6))
    phi = random_phi_on(g, rng)
    cs = ColorSystem.free(7).with_precolor(0, 2).with_precolor(3, 2)
    cs = cs.with_forbidden(1, {0, 4}).with_forbidden(4, {0, 4})
    solver._readout.cache_clear()
    first = marginal_counts(g, phi, cs, (0, 1, 2))
    again = marginal_counts(g, phi, cs, (3, 4, 5))
    info = solver._readout.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert list(first) == list(again) == list(itertools.product((2,), (1, 2, 3), range(5)))


def test_decoded_coloring_from_spread_tables(rng, monkeypatch):
    # Decoding reads the whole tables that shift-free steps spread out.
    # With the frame cap at 0, first_coloring decodes at once.
    monkeypatch.setattr("z5color.solver._FRAMES_PER_VERTEX", 0)
    instances = []
    for g, _ in (build(Wheel(300)), build(BrokenWheel(300))):
        instances.append((g, PhiAssignment.zero(g.edges()), None))
        instances.append((g, random_phi_on(g, rng), None))
    for _ in range(30):
        n = rng.randint(20, 60)
        g = random_near_triangulation(n, rng.randint(3, n // 2), rng.randrange(10**6))
        phi = random_phi_on(g, rng)
        cs = ColorSystem.free(n)
        for v in rng.sample(range(n), rng.randint(1, 6)):
            if rng.random() < 0.5:
                cs = cs.with_precolor(v, rng.randrange(5))
            else:
                cs = cs.with_forbidden(v, rng.sample(range(5), rng.randint(1, 3)))
        if rng.random() < 0.3:  # an edge whose precolored ends clash
            t, h, value = rng.choice(phi.records)
            c = rng.randrange(5)
            cs = cs.with_precolor(t, c).with_precolor(h, (c + value) % 5)
        instances.append((g, phi, cs))
    empty = 0
    for g, phi, cs in instances:
        n = g.vertex_count
        decoded = _decode_coloring(n, phi, _avail_lists(n, phi, cs))
        assert first_coloring(g, phi, cs) == decoded
        if count_colorings(g, phi, cs) == 0:
            assert decoded is None
            empty += 1
        else:
            assert is_proper(g, phi, decoded)
            assert cs is None or all(decoded[v] in cs.available(v) for v in range(n))
    assert 0 < empty < len(instances)


def test_decoded_colorings_are_pinned(monkeypatch):
    # sha256 over repr of every decoded coloring of a sweep of listed
    # instances (forbidden sets of one to m - 1 colors on up to half the
    # vertices), computed before steps summed an edge out by subtraction;
    # "lowest color whose gathered factors are nonzero" fixes each decoded
    # coloring, so a change in how a step is computed must keep every one.
    monkeypatch.setattr("z5color.solver._FRAMES_PER_VERTEX", 0)
    digest = hashlib.sha256()
    empty = calls = 0
    for m in (5, 3):
        rng = random.Random(derive_seed(7331, "listed", m))
        for _ in range(150):
            n = rng.randint(3, 40)
            g = random_near_triangulation(n, rng.randint(3, n), rng.randrange(10**6))
            phi = random_phi(g.edges(), rng, "uniform", m)
            cs = ColorSystem.free(n, m)
            for v in rng.sample(range(n), rng.randint(0, n // 2)):
                cs = cs.with_forbidden(v, rng.sample(range(m), rng.randint(1, m - 1)))
            coloring = first_coloring(g, phi, cs)
            assert (coloring is None) == (count_colorings(g, phi, cs) == 0)
            if coloring is not None:
                assert is_proper(g, phi, coloring)
                assert all(coloring[v] in cs.available(v) for v in range(n))
            digest.update(repr(coloring).encode())
            calls += 1
            empty += coloring is None
    assert (calls, empty) == (300, 117)
    assert digest.hexdigest() == (
        "97863e4bcaa18d7a82c5444bef69cc59be300d8fb11de74ff4549dc31ecf5890"
    )


def _cold(fn, *args):
    """``fn(*args)`` with every elimination structure compiled afresh and
    none kept."""
    saved = solver._plans
    solver._plans = solver._PlanCache(0)
    try:
        return fn(*args)
    finally:
        solver._plans = saved


def test_structures_are_reused_across_labelings_and_lists(monkeypatch):
    # One structure per edge set and keep serves every labeling, record
    # order, stored orientation and list pattern.  Each count must match
    # the literal enumeration and a count from a cold cache, and so must
    # each decoded coloring.
    monkeypatch.setattr(solver, "_plans", solver._PlanCache(solver._PLAN_STEP_BUDGET))
    rng = random.Random(2121)
    listed = 0
    for _ in range(60):
        m = rng.choice((2, 3, 4, 5, 7))
        n = rng.randint(3, {2: 10, 3: 8, 4: 7, 5: 6, 7: 5}[m])
        g = random_near_triangulation(n, rng.randint(3, n), rng.randrange(10**6))
        edges = [e for e in g.edges() if rng.random() < 0.85]
        keep = tuple(rng.sample(range(n), rng.randint(0, min(3, n))))
        keeps = (keep, keep[::-1])
        before = plan_cache_info()
        for rep in range(6):
            records = [
                (u, v, rng.randrange(m)) if rng.random() < 0.5 else (v, u, rng.randrange(m))
                for u, v in edges
            ]
            rng.shuffle(records)
            phi = PhiAssignment(m, tuple(records))
            cs = ColorSystem.free(n, m)
            for v in range(n):
                if rng.random() < 0.4:
                    cs = cs.with_forbidden(v, rng.sample(range(m), rng.randint(1, m - 1)))
            for v in rng.sample(range(n), rng.randint(0, 2)):
                cs = cs.with_precolor(v, rng.randrange(m))
            colors = cs if rep % 3 else None
            listed += colors is not None
            keep = keeps[rep % 2]
            table = marginal_counts(g if rep % 2 else n, phi, colors, keep)
            brute = brute_marginals(n, phi, colors, keep)
            assert table == {key: brute[key] for key in table}
            assert _cold(marginal_counts, n, phi, colors, keep) == table
            avail = _avail_lists(n, phi, colors)
            assert _decode_coloring(n, phi, avail) == _cold(_decode_coloring, n, phi, avail)
        after = plan_cache_info()
        # Six counts and six decodes on three keys, (), keep and its
        # reverse, each kept once it comes a second time.
        assert after.compiled - before.compiled <= 6
        assert after.reused - before.reused >= 6
    assert listed == 240


def test_kept_structures_hold_no_per_call_state(monkeypatch):
    # A kept structure is the plan itself: listed and unlisted counts and
    # decodes under many labelings read it and write nothing to it.
    cache = solver._PlanCache(solver._PLAN_STEP_BUDGET)
    monkeypatch.setattr(solver, "_plans", cache)
    rng = random.Random(2222)
    graphs = [build(Wheel(8))[0], random_near_triangulation(11, 5, 2222)]
    for g in graphs:
        n = g.vertex_count
        phi = PhiAssignment.zero(g.edges())
        for keep in ((), (0, n - 1)):
            for _ in range(2):  # a key is kept on its second sighting
                marginal_counts(g, phi, None, keep)
        _decode_coloring(n, phi, _avail_lists(n, phi, None))
    kept = dict(cache.entries)
    assert len(kept) == 4
    saved = {key: (list(st.steps), repr(st)) for key, st in kept.items()}
    for _ in range(6):
        for g in graphs:
            n = g.vertex_count
            phi = random_phi_on(g, rng)
            cs = ColorSystem.free(n)
            for v in rng.sample(range(n), rng.randint(1, n // 2)):
                cs = cs.with_forbidden(v, rng.sample(range(5), rng.randint(1, 3)))
            for colors in (None, cs):
                marginal_counts(g, phi, colors, (0, n - 1))
                count_colorings(g, phi, colors)
                _decode_coloring(n, phi, _avail_lists(n, phi, colors))
    assert cache.entries == kept
    for key, st in kept.items():
        steps, text = saved[key]
        assert cache.entries[key] is st
        assert all(a is b for a, b in zip(st.steps, steps))
        assert list(st.steps) == steps and repr(st) == text


def test_structure_cache_keeps_within_its_step_budget(monkeypatch):
    cache = solver._PlanCache(12)
    monkeypatch.setattr(solver, "_plans", cache)
    for k in range(3, 9):
        g, _ = build(Wheel(k))
        phi = PhiAssignment.zero(g.edges())
        for _ in range(3):
            assert count_colorings(g, phi) == wheel_chromatic_value(k, 5)
        info = plan_cache_info()
        assert info.budget == 12 and info.steps <= 12
        assert info.entries == len(cache.entries)
        assert info.steps == sum(max(len(st.steps), 1) for st in cache.entries.values())
    # A structure is kept when its key comes a second time.  Least recently
    # used goes first: of two entries, the one touched last stays when a
    # third needs room.
    k4, w4 = build(Wheel(3))[0], build(Wheel(4))[0]
    k4, edge, w4 = (
        (k4, PhiAssignment.zero(k4.edges())),
        (4, PhiAssignment(5, ((0, 1, 2),))),
        (w4, PhiAssignment.zero(w4.edges())),
    )
    cache = solver._PlanCache(12)
    monkeypatch.setattr(solver, "_plans", cache)
    count_colorings(*k4)
    assert plan_cache_info()[:4] == (1, 0, 0, 0)
    keys = []
    for graph, phi in (k4, edge, edge, k4, w4, w4):
        count_colorings(graph, phi)
        keys.append(next(reversed(cache.entries)))
    assert plan_cache_info()[:4] == (6, 1, 2, 9)
    assert list(cache.entries) == [keys[0], keys[-1]]
    # A structure with more steps than the budget is used, not kept.
    before = plan_cache_info()
    g, _ = build(Wheel(12))
    for _ in range(3):
        assert count_colorings(g, PhiAssignment.zero(g.edges())) == wheel_chromatic_value(12, 5)
    after = plan_cache_info()
    assert after.compiled == before.compiled + 3 and after.reused == before.reused
    assert (after.entries, after.steps) == (before.entries, before.steps)


def test_tables_wider_than_the_cap_are_not_cached(monkeypatch):
    # Gathers, reads, spreads, cuts and structures over more than
    # _CACHED_CELLS cells are built for their call and dropped after it.
    caches = (solver._reader, solver._spread, solver._cut)
    monkeypatch.setattr(solver, "_plans", solver._PlanCache(solver._PLAN_STEP_BUDGET))
    for cache in caches:
        cache.cache_clear()
    g, _ = build(Wheel(6))
    phi = PhiAssignment.zero(g.edges())
    monkeypatch.setattr(solver, "_CACHED_CELLS", 0)
    assert count_colorings(g, phi) == wheel_chromatic_value(6, 5)
    assert all(cache.cache_info().currsize == 0 for cache in caches)
    assert plan_cache_info().entries == 0
    # With room for two axes a path is cached and kept, a wheel is not.
    monkeypatch.setattr(solver, "_CACHED_CELLS", 25)
    path = PhiAssignment(5, tuple((v, v + 1, v % 5) for v in range(5)))
    for _ in range(2):
        assert count_colorings(6, path) == 5 * 4**5
        assert count_colorings(g, phi) == wheel_chromatic_value(6, 5)
    assert plan_cache_info().entries == 1
    assert solver._reader.cache_info().currsize > 0


# ---------------------------------------------------------------------------
# extend_two
# ---------------------------------------------------------------------------


def test_extend_two_triangle_example(k3):
    g, _ = k3
    phi = PhiAssignment.from_values({(0, 1): 1, (1, 2): 0, (2, 0): 0})
    cs = ColorSystem.free(3).with_precolor(0, 0).with_precolor(1, 0)
    coloring = extend_two(ExtensionProblem(g, phi, cs, (0, 1)))
    assert coloring[0] == 0 and coloring[1] == 0
    assert is_proper(g, phi, coloring)


def test_extend_two_random_problems(rng):
    for trial in range(200):
        n = rng.randint(4, 10)
        k = rng.randint(3, min(n, 7))
        g = random_near_triangulation(n, k, rng.randrange(10**6))
        phi = random_phi_on(g, rng)
        cs = ColorSystem.free(n)
        for v in g.outer_cycle:
            if v in (0, 1):
                continue
            cs = cs.with_forbidden(v, rng.sample(range(5), rng.randint(0, 2)))
        cm = rng.randrange(5)
        ch = rng.choice([c for c in range(5) if c != tau(phi, 0, cm, 1)])
        cs = cs.with_precolor(0, cm).with_precolor(1, ch)
        problem = ExtensionProblem(g, phi, cs, (0, 1))
        coloring = extend_two(problem)
        assert is_proper(g, phi, coloring)
        assert all(coloring[v] in cs.available(v) for v in range(n))
        if n <= 9:
            assert count_colorings(g, phi, cs) > 0


def test_extend_two_large_broken_wheel():
    # Each fan triangle is cut off by its own chord split, so the induction
    # nests about n regions deep; no recursion limit may bound that.
    g, _ = build(BrokenWheel(1000))
    n = g.vertex_count
    phi = PhiAssignment.zero(g.edges())
    a, b = g.outer_cycle[0], g.outer_cycle[1]
    cs = ColorSystem(
        5, tuple(frozenset({v % 5, (v + 2) % 5}) for v in range(n))
    ).with_precolor(a, 0).with_precolor(b, 1)
    coloring = extend_two(ExtensionProblem(g, phi, cs, (a, b)))
    assert is_proper(g, phi, coloring)
    assert all(coloring[v] in cs.available(v) for v in range(n))


def test_count_closed_forms_at_3000_vertices():
    # The elimination order is kept in a heap, so a 2-tree and a wheel of
    # this size are counted in seconds; the closed forms overflow every
    # fixed-width integer.
    g, _ = build(BrokenWheel(3000))
    assert count_colorings(g, PhiAssignment.zero(g.edges())) == 20 * 3**2998
    g, _ = build(Wheel(3000))
    assert count_colorings(g, PhiAssignment.zero(g.edges())) == 5 * (3**3000 + 3)


def test_count_closed_form_on_shifted_labels_at_2000_vertices():
    # A near-triangulation with n vertices and outer length k has
    # 20·3^(k−2)·2^(n−k) colorings under phi = 0, and shift_phi keeps the
    # count, so the labels below (nonzero on the shifted vertices' edges)
    # are checked at a size no brute oracle reaches.
    for seed in (1, 2):
        g = random_near_triangulation(2000, 200, seed)
        rng = random.Random(seed)
        phi = PhiAssignment.zero(g.edges())
        for _ in range(8):
            phi = shift_phi(phi, rng.randrange(2000), rng.randrange(1, 5))
        assert any(value for _, _, value in phi.records)
        assert count_colorings(g, phi) == 20 * 3**198 * 2**1800


def test_extend_two_broken_wheel_3000():
    # A chord split fills only its own side, so a fan of 3000 triangles is
    # colored without re-tracing the remaining region at every split.
    g, _ = build(BrokenWheel(3000))
    n = g.vertex_count
    phi = PhiAssignment.zero(g.edges())
    a, b = g.outer_cycle[0], g.outer_cycle[1]
    cs = ColorSystem(
        5, tuple(frozenset({v % 5, (v + 3) % 5}) for v in range(n))
    ).with_precolor(a, 0).with_precolor(b, 1)
    coloring = extend_two(ExtensionProblem(g, phi, cs, (a, b)))
    assert is_proper(g, phi, coloring)
    assert all(coloring[v] in cs.available(v) for v in range(n))


def test_first_coloring_deeper_than_the_recursion_limit():
    g, _ = build(BrokenWheel(1500))
    phi = PhiAssignment.zero(g.edges())
    coloring = first_coloring(g, phi)
    assert coloring is not None and is_proper(g, phi, coloring)


def test_arc_inside_matches_cycle_sides():
    # Inner arcs against the dual BFS of plane_graph, on stacked and flipped
    # near-triangulations, in the regions color_short_cycle walks: an inner
    # arc holds only vertices inside the cycle or on it, and its entries off
    # the cycle are exactly the vertex's neighbors inside.  The arcs of the
    # k - 2 cycle vertices of least degree reach every interior component
    # and every vertex with three or more cycle neighbors, and a triangle
    # wedge is empty exactly when the center's arc in it is.
    checked = nonempty = flipped = 0
    for seed in range(24):
        rng = random.Random(seed)
        n = rng.randint(8, 40)
        g = random_near_triangulation(n, rng.randint(4, min(n, 12)), seed)
        if seed % 2:
            h = flipped_near_triangulation(g, rng, 4 * n)
            assert validate(h).ok
            flipped += h.rotation != g.rotation
            g = h
        regions = [list(g.outer_cycle)]
        while regions:
            cycle = regions.pop()
            k, ring = len(cycle), set(cycle)
            inside = set(_cycle_sides(g, cycle)[0])
            arcs = [_inner_arc(g, cycle, i) for i in range(k)]
            for c, arc in zip(cycle, arcs):
                assert set(arc) <= inside | ring
                assert set(arc) - ring == g.adjacency(c) & inside
                checked += 1
            least = sorted(range(k), key=lambda i: g.degree(cycle[i]))[: k - 2]
            near = {u for i in least for u in arcs[i]} - ring
            assert {v for v in inside if len(g.adjacency(v) & ring) >= 3} <= near
            unseen = set(inside)
            while unseen:
                component, todo = set(), [unseen.pop()]
                while todo:
                    u = todo.pop()
                    if u in inside and u not in component:
                        component.add(u)
                        todo.extend(g.rotation[u])
                assert component & near
                unseen -= component
            # Every vertex with two or more cycle neighbors closes one wedge
            # per pair of consecutive ones; the nonempty wedges of the least
            # such vertex are the regions checked next.
            split = None
            for c in sorted(inside):
                ends = [p for p in range(k) if g.has_edge(c, cycle[p])]
                if len(ends) < 2:
                    continue
                wedges = []
                for p, q in zip(ends, ends[1:] + [ends[0] + k]):
                    wedge = (cycle * 2)[p : q + 1] + [c]
                    fan = _inner_arc(g, wedge, -1)
                    wedge_inside = set(_cycle_sides(g, wedge)[0])
                    assert set(fan) - set(wedge) == g.adjacency(c) & wedge_inside
                    assert len(wedge) > 3 or bool(fan) == bool(wedge_inside)
                    nonempty += bool(wedge_inside)
                    wedges += [wedge] * bool(wedge_inside)
                split = split or wedges
            regions.extend(split or [])
    assert flipped >= 10 and checked > 300 and nonempty > 100


def test_extend_two_on_flipped_near_triangulations():
    # Flipped graphs are not stacked: their chords sit anywhere on the
    # boundary, and the engine defers each one until an end of it is the
    # vertex before the precolored edge.
    flipped = 0
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(20, 60)
        g = random_near_triangulation(n, rng.randint(4, 16), seed)
        h = flipped_near_triangulation(g, rng, 3 * n)
        flipped += h.rotation != g.rotation
        g = h
        phi = random_phi_on(g, rng)
        oc = g.outer_cycle
        i = rng.randrange(len(oc))
        a, b = oc[i], oc[(i + 1) % len(oc)]
        cs = ColorSystem.free(n)
        for v in oc:
            if v not in (a, b):
                cs = cs.with_forbidden(v, rng.sample(range(5), rng.randint(0, 2)))
        ca = rng.randrange(5)
        cb = rng.choice([c for c in range(5) if c != tau(phi, a, ca, b)])
        cs = cs.with_precolor(a, ca).with_precolor(b, cb)
        coloring = extend_two(ExtensionProblem(g, phi, cs, (a, b)))
        assert is_proper(g, phi, coloring)
        assert all(coloring[v] in cs.available(v) for v in range(n))
    assert flipped >= 55


@pytest.mark.parametrize("family", [Wheel, BrokenWheel])
def test_extend_two_is_linear(family):
    # Chords are looked for only at the vertex before the precolored edge
    # and the boundary is relinked in O(1), so 20000 vertices take well
    # under a second; a quadratic step would blow the alarm on the wheel.
    g, _ = build(family(20000))
    n = g.vertex_count
    phi = PhiAssignment.zero(g.edges())
    a, b = g.outer_cycle[0], g.outer_cycle[1]
    forbidden = [
        frozenset({v % 5, (v + 1) % 5} if g.is_outer(v) else ()) for v in range(n)
    ]
    cs = ColorSystem(5, tuple(forbidden)).with_precolor(a, 0).with_precolor(b, 1)
    with cpu_time_limit(3):
        coloring = extend_two(ExtensionProblem(g, phi, cs, (a, b)))
    assert is_proper(g, phi, coloring)
    assert all(coloring[v] in cs.available(v) for v in range(n))


def test_extend_two_validates_input(bw4):
    g, _ = bw4
    phi = PhiAssignment.zero(g.edges())
    conflict = ColorSystem.free(4).with_precolor(0, 2).with_precolor(1, 2)
    with pytest.raises(ExtensionError, match="conflicts"):
        extend_two(ExtensionProblem(g, phi, conflict, (0, 1)))
    toobig = (
        ColorSystem.free(4)
        .with_precolor(0, 0)
        .with_precolor(1, 1)
        .with_forbidden(2, {0, 1, 2})
    )
    with pytest.raises(ExtensionError, match="cap"):
        extend_two(ExtensionProblem(g, phi, toobig, (0, 1)))
    inner_forbid = build(Wheel(4))[0]
    cs = (
        ColorSystem.free(5)
        .with_precolor(0, 0)
        .with_precolor(1, 1)
        .with_forbidden(4, {3})
    )
    with pytest.raises(ExtensionError, match="interior"):
        extend_two(ExtensionProblem(inner_forbid, phi, cs, (0, 1)))
    with pytest.raises(ExtensionError, match="consecutive"):
        extend_two(
            ExtensionProblem(
                g,
                phi,
                ColorSystem.free(4).with_precolor(0, 0).with_precolor(2, 1),
                (0, 2),
            )
        )


# ---------------------------------------------------------------------------
# color_short_cycle
# ---------------------------------------------------------------------------


def test_short_cycle_wheel_exception(w5):
    g, _ = w5
    phi = PhiAssignment.zero(g.edges())
    cs = ColorSystem.free(6)
    for i in range(5):
        cs = cs.with_precolor(i, i)
    result = color_short_cycle(g, phi, cs)
    assert result == HubException(vertex=5)
    taus = {tau(phi, i, i, 5) for i in range(5)}
    assert taus == set(range(5))


def test_short_cycle_wheel_extension(w5):
    g, _ = w5
    phi = PhiAssignment.zero(g.edges())
    cs = ColorSystem.free(6)
    for i, c in enumerate([0, 1, 0, 1, 2]):
        cs = cs.with_precolor(i, c)
    result = color_short_cycle(g, phi, cs)
    assert isinstance(result, tuple)
    assert result[5] in (3, 4)
    assert is_proper(g, phi, result)


def test_short_cycle_triangle_random(rng):
    for _ in range(30):
        g = random_triangulation(rng.randint(4, 8), rng.randrange(10**6))
        phi = random_phi_on(g, rng)
        table = marginal_counts(g, phi, None, keep=(0, 1, 2))
        proper = [trip for trip, cnt in table.items() if cnt > 0]
        assert proper, "triangle precolorings always extend somewhere"
        trip = proper[rng.randrange(len(proper))]
        cs = ColorSystem.free(g.vertex_count)
        for v, c in zip((0, 1, 2), trip):
            cs = cs.with_precolor(v, c)
        result = color_short_cycle(g, phi, cs)
        assert isinstance(result, tuple)
        assert is_proper(g, phi, result)


def plane_graph_from_points(points, edges, outer):
    """The near-triangulation drawn with straight edges at ``points``:
    each rotation lists the neighbours clockwise by angle."""
    nbrs = [[] for _ in points]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)

    def clockwise(v):
        x, y = points[v]
        return sorted(
            nbrs[v], key=lambda u: -math.atan2(points[u][1] - y, points[u][0] - x)
        )

    g = PlaneNearTriangulation.from_lists(
        [clockwise(v) for v in range(len(points))], outer
    )
    assert validate(g).ok
    return g


def antiprism_with_hub():
    """Outer 5-cycle 0-4, inner 5-cycle 5-9 turned half a step, hub 10:
    the interior is one 6-vertex wheel block."""
    def at(radius, steps):
        a = math.radians(72 * steps)
        return (radius * math.cos(a), radius * math.sin(a))

    points = [at(1, i) for i in range(5)] + [at(0.5, i + 0.5) for i in range(5)]
    edges = []
    for i in range(5):
        j = (i + 1) % 5
        edges += [(i, j), (5 + i, 5 + j), (i, 5 + i), (j, 5 + i), (5 + i, 10)]
    return plane_graph_from_points(points + [(0, 0)], edges, (0, 4, 3, 2, 1))


def bowtie_in_square():
    """Outer square a, b, c, d = 0-3 around the triangles m-p-q and m-r-s
    (4-8): two triangle blocks sharing the cut vertex m."""
    a, b, c, d, m, p, q, r, s = range(9)
    points = [(-2, 2), (2, 2), (2, -2), (-2, -2), (0, 0), (-0.8, 1.3), (0.8, 1.3),
              (0.8, -1.3), (-1.3, -0.8)]
    edges = [(a, b), (b, c), (c, d), (d, a), (m, p), (p, q), (q, m), (m, r),
             (r, s), (s, m), (p, a), (p, b), (q, b), (q, c), (m, a), (m, c),
             (r, c), (r, d), (s, a), (s, d)]
    return plane_graph_from_points(points, edges, (a, b, c, d))


def test_short_cycle_agrees_with_counts(rng):
    # For cycles of length 4 and 5: extension returned iff the count is
    # positive; exception returned iff zero, with the full forbidden image.
    # In the hand-built graphs no interior vertex sees three outer ones, so
    # their interiors are colored block by block.
    hand_built = [antiprism_with_hub(), bowtie_in_square()]
    for g in hand_built:
        assert all(
            len(g.adjacency(v) & g.outer_set()) < 3 for v in g.interior_vertices()
        )
    # (graph, labelings drawn); the oracle takes about 1.5 s per antiprism
    # labeling.
    cases = [(random_near_triangulation(k + 2, k, seed=17 * k), 12) for k in (4, 5)]
    for g, draws in cases + [(g, 3) for g in hand_built]:
        k = len(g.outer_cycle)
        for _ in range(draws):
            phi = random_phi_on(g, rng)
            table = marginal_counts(g, phi, None, keep=tuple(range(k)))
            for trip, cnt in sorted(table.items()):
                cs = ColorSystem.free(g.vertex_count)
                for v, c in enumerate(trip):
                    cs = cs.with_precolor(v, c)
                improper = any(
                    trip[u] == tau(phi, v, trip[v], u)
                    for u in range(k)
                    for v in range(k)
                    if u != v and g.has_edge(u, v)
                )
                if improper:
                    continue
                result = color_short_cycle(g, phi, cs)
                if isinstance(result, HubException):
                    assert cnt == 0
                    images = {
                        tau(phi, c, trip[c], result.vertex) for c in range(k)
                    }
                    assert images == set(range(5))
                else:
                    assert cnt > 0
                    assert is_proper(g, phi, result)


def test_short_cycle_triangle_blocks_at_every_rotation_start(rng):
    # Each triangle block of the bowtie is a face of the graph, so its ring
    # is traced both ways; which orbit comes first follows the start of the
    # cut vertex's rotation.  The ring must run against the face for the
    # 2-extension engine to read the block's inside, at every start.
    g0 = bowtie_in_square()
    m = 4
    for shift in range(g0.degree(m)):
        rotation = [list(r) for r in g0.rotation]
        rotation[m] = rotation[m][shift:] + rotation[m][:shift]
        g = PlaneNearTriangulation.from_lists(rotation, g0.outer_cycle)
        phi = random_phi_on(g, rng)
        table = marginal_counts(g, phi, None, keep=(0, 1, 2, 3))
        for pre, cnt in sorted(table.items()):
            if cnt:
                result = color_short_cycle(g, phi, precolored(9, pre))
                assert is_proper(g, phi, result) and result[:4] == pre


def test_short_cycle_rejects_improper_precoloring(k3):
    g, _ = k3
    phi = PhiAssignment.zero(g.edges())
    cs = ColorSystem.free(3)
    for i, c in enumerate([0, 0, 1]):
        cs = cs.with_precolor(i, c)
    with pytest.raises(ExtensionError, match="improper"):
        color_short_cycle(g, phi, cs)


def center_beside_a_wedge_hub():
    """Outer 5-cycle 0-4, center 5 joined to 0, 1 and 2, and vertex 6
    joined to 2, 3, 4, 0 and 5: a hub candidate of the center's wedge
    2-3-4-0-5, but not of the outer cycle."""
    def at(radius, degrees):
        a = math.radians(degrees)
        return (radius * math.cos(a), radius * math.sin(a))

    points = [at(1, 72 * i) for i in range(5)] + [at(0.45, 72), at(0.25, 252)]
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(5, 0), (5, 1), (5, 2)]
    edges += [(6, v) for v in (2, 3, 4, 0, 5)]
    return plane_graph_from_points(points, edges, (0, 4, 3, 2, 1))


def test_short_cycle_center_color_skips_a_wedge_hub(rng):
    # The outer cycle has no hub, so every proper precoloring extends.  The
    # center's lowest free color is passed over exactly when it would make
    # 6 a hub of the wedge, and some precolorings reach that case.
    g = center_beside_a_wedge_hub()
    steps = [(i, (i + 1) % 5) for i in range(5)]
    skipped = 0
    for _ in range(4):
        phi = random_phi_on(g, rng)
        table = marginal_counts(g, phi, None, keep=tuple(range(5)))
        for pre, cnt in sorted(table.items()):
            if any(pre[j] == tau(phi, i, pre[i], j) for i, j in steps):
                continue
            result = color_short_cycle(g, phi, precolored(7, pre))
            assert cnt > 0 and is_proper(g, phi, result)
            assert result[:5] == pre
            free = set(range(5)) - {tau(phi, c, pre[c], 5) for c in (0, 1, 2)}
            skipped += result[5] > min(free)
    assert skipped > 0


def nested_stacking(n):
    """Outer triangle 0, 2, 1 around the path 2, 3, ..., n - 1, each of
    whose vertices is joined to 0 and 1: every vertex is stacked into the
    newest face on edge 0-1, so the short-cycle regions nest n - 3 deep."""
    rotation = [list(range(2, n)) + [1], [0] + list(range(n - 1, 1, -1))]
    for w in range(2, n):
        rotation.append([w - 1] * (w > 2) + [1] + [w + 1] * (w < n - 1) + [0])
    return PlaneNearTriangulation.from_lists(rotation, (0, 2, 1))


def test_short_cycle_nested_stacking_deeper_than_the_recursion_limit():
    # Linear in n: each level reads the inner arc of its newest vertex, not
    # the rotations of 0 and 1, whose degree is n - 1.
    assert validate(nested_stacking(1500)).ok
    for n in (1500, 20000):
        g = nested_stacking(n)
        phi = random_phi_on(g, random.Random(n))
        c2 = min(set(range(5)) - {tau(phi, 0, 0, 2)})
        c1 = min(set(range(5)) - {tau(phi, 0, 0, 1), tau(phi, 2, c2, 1)})
        cs = ColorSystem.free(n).with_precolor(0, 0).with_precolor(2, c2)
        with cpu_time_limit(5):
            result = color_short_cycle(g, phi, cs.with_precolor(1, c1))
        assert is_proper(g, phi, result)


def chained_triangle_blocks(m):
    """Outer square a, b, c, d = 0-3 around the path v_0 .. v_m (4 .. 4 + m)
    and m triangles v_(i-1) u_i v_i (u_i = 4 + m + i), u_i above the path for
    odd i and below it for even i: a chain of triangle blocks joined at cut
    vertices.  The vertices above the path are joined to a up to one upper
    apex and to b from there on, those below to d and c likewise; every
    interior vertex sees at most two of a, b, c, d."""
    a, b, c, d = range(4)
    v = list(range(4, 5 + m))
    u = [None] + list(range(5 + m, 5 + 2 * m))
    up, low = [v[0]], [v[0]]
    for i in range(1, m + 1):
        (up if i % 2 else low).append(u[i])
        up.append(v[i])
        low.append(v[i])
    top, bottom = up.index(u[2 * (m // 4) + 1]), low.index(u[2 * (m // 4) + 2])
    tops = {x: [a] * (t <= top) + [b] * (t >= top) for t, x in enumerate(up)}
    bottoms = {x: [c] * (t >= bottom) + [d] * (t <= bottom) for t, x in enumerate(low)}
    rotation = [
        [b] + up[top::-1] + [d],
        [a, c] + up[top:][::-1],
        [b, d] + low[bottom:],
        [c, a] + low[: bottom + 1],
    ]
    for i in range(m + 1):
        right = [] if i == m else [u[i + 1], v[i + 1]][:: 1 if i % 2 == 0 else -1]
        left = [] if i == 0 else [v[i - 1], u[i]][:: 1 if i % 2 else -1]
        rotation.append(tops[v[i]] + right + bottoms[v[i]] + left)
    for i in range(1, m + 1):
        if i % 2:
            rotation.append([v[i], v[i - 1]] + tops[u[i]])
        else:
            rotation.append([v[i - 1], v[i]] + bottoms[u[i]])
    return PlaneNearTriangulation.from_lists(rotation, (a, b, c, d))


def test_short_cycle_chained_triangle_blocks_at_16009_vertices():
    # One leaf region with 8002 triangle blocks: each block's boundary must
    # cost what the block costs, not what the whole graph does.
    assert validate(chained_triangle_blocks(33)).ok
    g = chained_triangle_blocks(8002)
    phi = random_phi_on(g, random.Random(8002))
    pre = next(iter(outer_precolorings(g, phi)))
    with cpu_time_limit(5):
        result = color_short_cycle(g, phi, precolored(g.vertex_count, pre))
    assert is_proper(g, phi, result) and result[:4] == pre


def outer_precolorings(g, phi, rng=None):
    """The colorings of the outer vertices 0 .. k - 1 that are proper on the
    edges among them: every one in lexicographic order, or, given ``rng``,
    an endless stream of random ones."""
    k = len(g.outer_cycle)
    steps = [(u, w) for u in range(k) for w in g.rotation[u] if w < k]
    draws = itertools.product(range(5), repeat=k)
    if rng is not None:
        draws = (tuple(rng.choices(range(5), k=k)) for _ in itertools.count())
    for pre in draws:
        if all(pre[w] != tau(phi, u, pre[u], w) for u, w in steps):
            yield pre


def short_cycle_sweep():
    """Seeded (graph, phi, precoloring) instances of color_short_cycle:
    stacked near-triangulations with outer cycles of length 3 to 5 and
    their flips, every proper precoloring of three graphs with hubs (one a
    5-wheel with vertices stacked round its hub), and
    small members of the nested stacking and the chained triangle blocks."""
    rng = random.Random(18)
    for seed in range(60):
        k = 3 + seed % 3
        n = rng.randint(k + 1, 40)
        g = random_near_triangulation(n, k, seed)
        for h in (g, flipped_near_triangulation(g, rng, 4 * n)):
            phi = random_phi_on(h, rng)
            for pre in itertools.islice(outer_precolorings(h, phi, rng), 12):
                yield h, phi, pre
    w5 = build(Wheel(5))[0]
    w5 = _stacked(w5, PhiAssignment.zero(w5.edges()), ColorSystem.free(6), 9, rng)[0]
    # Read from 3, the inner arc of the first outer vertex has the hub last.
    w5 = PlaneNearTriangulation.from_lists(w5.rotation, (3, 4, 0, 1, 2))
    hubs = [w5, antiprism_with_hub(), center_beside_a_wedge_hub()]
    for g in hubs:
        phi = random_phi_on(g, rng)
        for pre in outer_precolorings(g, phi):
            yield g, phi, pre
    guards = [nested_stacking(n) for n in (4, 7, 12, 40, 150)]
    guards += [chained_triangle_blocks(m) for m in (2, 3, 6, 21, 80)]
    for g in guards:
        phi = random_phi_on(g, rng)
        for pre in itertools.islice(outer_precolorings(g, phi, rng), 12):
            yield g, phi, pre


def test_short_cycle_answers_are_pinned():
    # sha256 over repr of every answer of the sweep, computed before regions
    # were read from inner arcs; a rewrite of the region walk must keep
    # every center, color and hub.
    digest = hashlib.sha256()
    hubs = calls = 0
    for g, phi, pre in short_cycle_sweep():
        result = color_short_cycle(g, phi, precolored(g.vertex_count, pre))
        digest.update(repr(result).encode())
        calls += 1
        hubs += isinstance(result, HubException)
    assert (calls, hubs) == (4635, 25)
    assert digest.hexdigest() == (
        "1351edef1d59a9fb186a5c2b10916e5a9b65a717f7b2f60930da6ca86d46e7b5"
    )


def precolored(n, colors):
    """The free system on ``n`` vertices with vertex i precolored colors[i]."""
    cs = ColorSystem.free(n)
    for v, c in enumerate(colors):
        cs = cs.with_precolor(v, c)
    return cs


def test_inconsistent_inputs_raise_extension_error(w5):
    # A constraint system of the wrong size, labelings that miss an edge of
    # the graph, and one that names a vertex the graph does not have.
    g, _ = w5
    phi = PhiAssignment.zero(g.edges())
    for n in (5, 7):
        size = f"covers {n} vertices, graph has 6"
        with pytest.raises(ExtensionError, match=size):
            extend_two(ExtensionProblem(g, phi, precolored(n, [0, 1]), (0, 1)))
        with pytest.raises(ExtensionError, match=size):
            extend_three(ExtensionProblem(g, phi, precolored(n, [0, 1, 0]), (0, 1, 2)))
        with pytest.raises(ExtensionError, match=size):
            color_short_cycle(g, phi, precolored(n, [0, 1, 0, 1, 2]))

    assert not g.has_edge(0, 2)
    moved = PhiAssignment.zero([(0, 2)] + [e for e in g.edges() if e != (2, 3)])
    for labels in (moved, phi.remove_edge(2, 3)):
        with pytest.raises(ExtensionError, match="labeling edges differ"):
            extend_two(ExtensionProblem(g, labels, precolored(6, [0, 1]), (0, 1)))
        with pytest.raises(ExtensionError, match="labeling edges differ"):
            color_short_cycle(g, labels, precolored(6, [0, 1, 0, 1, 2]))

    stray = PhiAssignment(5, phi.records + ((0, 9, 1),))
    with pytest.raises(ExtensionError, match="outside"):
        count_colorings(g, stray)
    with pytest.raises(ExtensionError, match="outside"):
        next(enumerate_colorings(g, stray))
    with pytest.raises(ExtensionError, match="outside"):
        first_coloring(g, stray)


def test_extend_three_rejects_a_tail_head_conflict():
    # On K4 the path (2, 0, 1) is a triangle: tail and head are joined, and
    # colors 1, 0, 1 are proper on the two path edges but not on 2-1.
    g, p = build(Wheel(3))
    assert (p.tail, p.major, p.head) == (2, 0, 1) and g.has_edge(2, 1)
    phi = PhiAssignment.zero(g.edges())
    cs = precolored(4, [0, 1, 1])
    problem = ExtensionProblem(g, phi, cs, (2, 0, 1))
    assert validate_extension_problem(problem) == [
        "precoloring improper: edge 1-2 conflicts with its label"
    ]
    with pytest.raises(ExtensionError, match="edge 1-2 conflicts"):
        extend_three(problem)


# ---------------------------------------------------------------------------
# extend_three
# ---------------------------------------------------------------------------


def bw4_blocked_instance():
    g, p = build(BrokenWheel(4))
    phi = PhiAssignment.zero(g.edges())
    cs = (
        ColorSystem.free(4)
        .with_forbidden(2, {3, 4})
        .with_precolor(3, 0)
        .with_precolor(0, 1)
        .with_precolor(1, 2)
    )
    return g, phi, cs, (3, 0, 1)


def test_extend_three_broken_wheel_certificate():
    g, phi, cs, path = bw4_blocked_instance()
    assert count_colorings(g, phi, cs) == 0
    result = extend_three(ExtensionProblem(g, phi, cs, path))
    assert isinstance(result, ObstructionCertificate)
    assert validate_obstruction(result) == []
    assert result.embedding == (0, 1, 2, 3)


def test_extend_three_returns_coloring_when_possible():
    g, phi, cs, path = bw4_blocked_instance()
    cs = cs.with_forbidden(2, {3})
    result = extend_three(ExtensionProblem(g, phi, cs, path))
    assert isinstance(result, tuple)
    assert is_proper(g, phi, result)


def test_extend_three_even_wheel_witness(rng, w5):
    # A wheel on an even number (>= 6) of vertices admits blocked instances.
    g, p = w5
    found = None
    for _ in range(4000):
        phi = random_phi_on(g, rng)
        cs = ColorSystem.free(6)
        for v in (2, 3):
            cs = cs.with_forbidden(v, rng.sample(range(5), 2))
        table = lemma1_failure_table(g, phi, cs, p)
        blocked = [
            t for t, c in table.items()
            if c == 0
            and t[0] != tau(phi, 0, t[1], 4)
            and t[2] != tau(phi, 0, t[1], 1)
        ]
        if blocked:
            found = (phi, cs, blocked[0])
            break
    assert found is not None
    phi, cs, (ct, cm, ch) = found
    cs = cs.with_precolor(4, ct).with_precolor(0, cm).with_precolor(1, ch)
    result = extend_three(ExtensionProblem(g, phi, cs, (4, 0, 1)))
    assert isinstance(result, ObstructionCertificate)
    assert validate_obstruction(result) == []


def test_extend_three_small_forbidden_sets_always_color(rng):
    # A certificate needs exactly two forbidden colors on its boundary, so
    # instances capped at one color always extend.
    for _ in range(40):
        n = rng.randint(4, 9)
        k = rng.randint(3, min(n, 6))
        g = random_near_triangulation(n, k, rng.randrange(10**6))
        oc = list(g.outer_cycle)
        phi = random_phi_on(g, rng)
        cs = ColorSystem.free(n)
        for v in oc[2:-1]:
            cs = cs.with_forbidden(v, rng.sample(range(5), rng.randint(0, 1)))
        path = (oc[-1], oc[0], oc[1])
        pre = _proper_path_colors(g, phi, path, rng)
        for v, c in pre.items():
            cs = cs.with_precolor(v, c)
        result = extend_three(ExtensionProblem(g, phi, cs, path))
        assert isinstance(result, tuple)


def test_extend_three_trichotomy_random(rng):
    colorings = obstructions = 0
    for _ in range(60):
        n = rng.randint(4, 8)
        k = rng.randint(3, min(n, 6))
        g = random_near_triangulation(n, k, rng.randrange(10**6))
        oc = list(g.outer_cycle)
        phi = random_phi_on(g, rng)
        cs = ColorSystem.free(n)
        for v in oc[2:-1]:
            cs = cs.with_forbidden(v, rng.sample(range(5), 2))
        path = (oc[-1], oc[0], oc[1])
        for v, c in _proper_path_colors(g, phi, path, rng).items():
            cs = cs.with_precolor(v, c)
        problem = ExtensionProblem(g, phi, cs, path)
        result = extend_three(problem)
        if isinstance(result, ObstructionCertificate):
            obstructions += 1
            assert count_colorings(g, phi, cs) == 0
            assert validate_obstruction(result) == []
        else:
            colorings += 1
            assert count_colorings(g, phi, cs) > 0
            assert is_proper(g, phi, result)
            assert all(result[v] in cs.available(v) for v in range(n))
    assert colorings > 0


def _blocked_member_instance(seed):
    """A blocked instance on a 6-vertex member, drawn the way the
    extension-mix bench draws its blocked instances: a non-multi-wheel
    member with an outer cycle of length 4 or 5, two forbidden colors on
    every other outer vertex, precolored with a path-proper zero of its
    failure table."""
    members = [
        m for m in built_family(6)
        if m[1].vertex_count == 6
        and len(m[1].outer_cycle) in (4, 5)
        and not is_multi_wheel_descriptor(m[0])
    ]
    for i in itertools.count():
        r = random.Random(derive_seed(seed, "blocked", i))
        _, g, p = members[r.randrange(len(members))]
        phi = random_phi(g.edges(), r, "uniform")
        cs = ColorSystem.free(g.vertex_count)
        for v in g.outer_cycle:
            if v not in (p.tail, p.major, p.head):
                cs = cs.with_forbidden(v, r.sample(range(5), 2))
        table = lemma1_failure_table(g, phi, cs, p)
        zeros = [t for t, c in sorted(table.items()) if not c and is_path_proper(g, phi, p, t)]
        if zeros:
            for v, c in zip((p.tail, p.major, p.head), r.choice(zeros)):
                cs = cs.with_precolor(v, c)
            return g, phi, cs, (p.tail, p.major, p.head)


def _stacked(g, phi, cs, n, rng):
    """Stack free vertices into inner faces (each into the newest face) up
    to n vertices, with random labels on the new edges.  Adding vertices
    and edges adds no coloring, so a blocked instance stays blocked."""
    rotation = [list(r) for r in g.rotation]
    outer = outer_face_index(g)
    faces = [list(face_vertices(f)) for i, f in enumerate(faces_of(g)) if i != outer]
    records = list(phi.records)
    for w in range(g.vertex_count, n):
        a, b, c = faces.pop()
        rotation.append([a, c, b])
        for x, p, q in ((a, c, b), (b, a, c), (c, b, a)):
            rotation[x].insert(rotation[x].index(p) + 1, w)
        records += [(x, w, rng.randrange(5)) for x in (a, b, c)]
        faces += [[a, b, w], [b, c, w], [c, a, w]]
    big = PlaneNearTriangulation.from_lists(rotation, g.outer_cycle)
    free = (frozenset(),) * (n - g.vertex_count)
    return big, PhiAssignment(5, tuple(records)), ColorSystem(5, cs.forbidden + free, cs.precoloring)


@pytest.mark.parametrize("n", [14, 40])
def test_extend_three_certifies_a_stacked_blocked_instance_fast(n):
    # Building every family member up to n before trying the smallest costs
    # minutes at n = 14, so the search must stop at the small member that
    # blocks (a 4-vertex broken wheel here).
    g, phi, cs, path = _blocked_member_instance(0)
    g, phi, cs = _stacked(g, phi, cs, n, random.Random(n))
    assert validate(g).ok
    with cpu_time_limit(5.0):
        result = extend_three(ExtensionProblem(g, phi, cs, path))
        assert isinstance(result, ObstructionCertificate)
        assert validate_obstruction(result) == []
        assert count_colorings(g, phi, cs) == 0


def _proper_path_colors(g, phi, path, rng):
    tail, major, head = path
    cm = rng.randrange(5)
    ct = rng.choice([c for c in range(5) if c != tau(phi, major, cm, tail)])
    heads = [c for c in range(5) if c != tau(phi, major, cm, head)]
    if g.has_edge(tail, head):
        heads = [c for c in heads if c != tau(phi, tail, ct, head)] or None
        if heads is None:
            return _proper_path_colors(g, phi, path, rng)
    return {tail: ct, major: cm, head: rng.choice(heads)}


def test_validate_obstruction_flags_tampering():
    g, phi, cs, path = bw4_blocked_instance()
    cert = extend_three(ExtensionProblem(g, phi, cs, path))
    weakened = ObstructionCertificate(
        cert.descriptor,
        cert.graph,
        cert.path,
        cert.embedding,
        cert.phi,
        cert.colors.with_forbidden(2, {3}),
    )
    assert any("forbidden" in p or "colorable" in p for p in validate_obstruction(weakened))


def test_validate_obstruction_needs_no_elimination(monkeypatch):
    # The certificate's zero is re-decided by backtracking, not by the
    # elimination counter that found the witness.
    g, phi, cs, path = bw4_blocked_instance()
    cert = extend_three(ExtensionProblem(g, phi, cs, path))
    extendable = ObstructionCertificate(
        cert.descriptor,
        cert.graph,
        cert.path,
        cert.embedding,
        cert.phi,
        cert.colors.with_forbidden(2, {3}),
    )

    def no_elimination(*args):
        raise AssertionError("validate_obstruction ran the elimination counter")

    monkeypatch.setattr(solver, "marginal_counts", no_elimination)
    assert validate_obstruction(cert) == []
    assert "certificate instance is colorable" in validate_obstruction(extendable)


def test_extend_three_budget_error():
    g, phi, cs, path = bw4_blocked_instance()
    with pytest.raises(RuntimeError, match="budget"):
        extend_three(ExtensionProblem(g, phi, cs, path), node_budget=1)


# ---------------------------------------------------------------------------
# lemma1_alpha
# ---------------------------------------------------------------------------


def test_lemma1_wheel_failures_share_alpha(rng, w5):
    g, p = w5
    seen_alpha = 0
    for _ in range(300):
        phi = random_phi_on(g, rng)
        cs = ColorSystem.free(6)
        for v in (2, 3):
            cs = cs.with_forbidden(v, rng.sample(range(5), 2))
        result = lemma1_alpha(g, phi, cs, p)
        assert result.kind in ("alpha", "vacuous")
        if result.kind == "alpha":
            seen_alpha += 1
            # the derivation: every blocked proper triple shares the diff
            table = lemma1_failure_table(g, phi, cs, p)
            diffs = set()
            for (ct, cm, ch), cnt in table.items():
                if cnt:
                    continue
                if ct == tau(phi, 0, cm, 4) or ch == tau(phi, 0, cm, 1):
                    continue
                diffs.add((ct - ch) % 5)
            assert diffs == {result.alpha}
    assert seen_alpha > 0


def test_lemma1_broken_wheel_control_returns_none():
    g, p = build(BrokenWheel(4))
    phi = PhiAssignment.zero(g.edges())
    cs = ColorSystem.free(4).with_forbidden(2, {3, 4})
    result = lemma1_alpha(g, phi, cs, p, require_multi_wheel=False)
    assert result == AlphaResult("none")
    with pytest.raises(ExtensionError, match="multi-wheel"):
        lemma1_alpha(g, phi, cs, p)


def test_lemma1_alpha_invariant_under_principal_rerolls(rng, w5):
    g, p = w5
    for _ in range(100):
        phi = random_phi_on(g, rng)
        cs = ColorSystem.free(6)
        for v in (2, 3):
            cs = cs.with_forbidden(v, rng.sample(range(5), 2))
        base = lemma1_alpha(g, phi, cs, p)
        table = lemma1_failure_table(g, phi, cs, p)
        diffs = {base.alpha} if base.kind == "alpha" else set()
        for _ in range(3):
            rolled = phi
            for a, b in ((4, 0), (0, 1)):
                rolled = PhiAssignment(
                    5,
                    tuple(
                        (t, h, rng.randrange(5)) if {t, h} == {a, b} else (t, h, x)
                        for t, h, x in rolled.records
                    ),
                )
            redone = lemma1_alpha(g, rolled, cs, p)
            assert redone.kind != "none"
            assert lemma1_failure_table(g, rolled, cs, p) == table
            if redone.kind == "alpha":
                diffs.add(redone.alpha)
        assert len(diffs) <= 1


def test_lemma1_failure_table_strips_both_principal_edges(rng, w5):
    g, p = w5
    phi = random_phi_on(g, rng)
    principal = ((p.tail, p.major), (p.major, p.head))
    stripped = phi.remove_edges(*principal)
    assert stripped == phi.remove_edge(*principal[0]).remove_edge(*principal[1])
    cs = ColorSystem.free(6)
    keep = (p.tail, p.major, p.head)
    assert lemma1_failure_table(g, phi, cs, p) == marginal_counts(g, stripped, cs, keep)
    with pytest.raises(GroupColorError, match=f"{p.major}-{p.head} is not an edge"):
        lemma1_failure_table(g, phi.remove_edge(p.head, p.major), cs, p)


def test_lemma1_k4_has_no_failures(rng):
    g, p = build(Wheel(3))
    for _ in range(50):
        phi = random_phi_on(g, rng)
        assert lemma1_alpha(g, phi, ColorSystem.free(4), p).kind == "vacuous"


def test_lemma1_rejects_bad_input(w5):
    g, p = w5
    phi = PhiAssignment.zero(g.edges())
    with pytest.raises(ExtensionError, match="cap"):
        lemma1_alpha(g, phi, ColorSystem.free(6).with_forbidden(0, {1}), p)
    with pytest.raises(ExtensionError, match="precolorings"):
        lemma1_alpha(g, phi, ColorSystem.free(6).with_precolor(2, 1), p)
    with pytest.raises(ExtensionError, match="covers 5 vertices, graph has 6"):
        lemma1_alpha(g, phi, ColorSystem.free(5), p)
    assert not g.has_edge(0, 2)
    moved = PhiAssignment.zero([(0, 2)] + [e for e in g.edges() if e != (2, 3)])
    with pytest.raises(ExtensionError, match="labeling edges differ"):
        lemma1_alpha(g, moved, ColorSystem.free(6), p)


def test_lemma1_rejects_a_path_off_the_outer_cycle(w5):
    # (2, 0, 1) runs against the outer cycle and 5 is the hub: each is
    # refused before the recognizer or the failure table sees it.
    g, _ = w5
    phi = PhiAssignment.zero(g.edges())
    with pytest.raises(ExtensionError, match="consecutive"):
        lemma1_alpha(g, phi, ColorSystem.free(6), PrincipalPath(2, 0, 1))
    with pytest.raises(ExtensionError, match="outer cycle"):
        lemma1_alpha(
            g, phi, ColorSystem.free(6), PrincipalPath(5, 0, 1), require_multi_wheel=False
        )


def test_classify_alpha_reads_differences_mod_the_labeling():
    g, p = build(BrokenWheel(3))
    phi = PhiAssignment.zero(g.edges(), modulus=7)
    assert is_path_proper(g, phi, p, (0, 1, 6))
    assert classify_alpha({(0, 1, 6): 0}, g, phi, p) == AlphaResult("alpha", 1)
