import itertools

import pytest

from conftest import brute_count, cpu_time_limit, never_queried, random_phi_on
from z5color.families import Wheel, build
from z5color.group_color import (
    ColorSystem,
    GroupColorError,
    PhiAssignment,
    is_proper,
    normalize_star,
    shift_phi,
    tau,
    tau_set,
    triangle_consistent,
)
from z5color.propcheck import random_near_triangulation


def test_tau_stored_towards_named_vertex():
    # Edge stored 0->1 with value 3; asking from the head side subtracts.
    phi = PhiAssignment(5, ((0, 1, 3),))
    assert tau(phi, 1, 1, 0) == (1 - 3) % 5 == 3
    assert tau(phi, 0, 1, 1) == 4


def test_tau_zero_offset_is_identity():
    for record in [(0, 1, 0), (1, 0, 0)]:
        phi = PhiAssignment(5, (record,))
        assert tau(phi, 0, 2, 1) == 2
        assert tau(phi, 1, 2, 0) == 2


def test_tau_involution_all_pairs_both_orientations():
    for tail, head in [(0, 1), (1, 0)]:
        for value in range(5):
            phi = PhiAssignment(5, ((tail, head, value),))
            for alpha in range(5):
                assert tau(phi, 0, tau(phi, 1, alpha, 0), 1) == alpha
                assert tau(phi, 1, tau(phi, 0, alpha, 1), 0) == alpha


def test_tau_set_inverse_pairs(rng):
    for _ in range(50):
        value = rng.randrange(5)
        phi = PhiAssignment(5, ((0, 1, value),))
        s1 = frozenset(rng.sample(range(5), rng.randint(0, 5)))
        s2 = tau_set(phi, 0, s1, 1)
        assert tau_set(phi, 1, s2, 0) == s1


def test_tau_requires_an_edge():
    phi = PhiAssignment(5, ((0, 1, 2),))
    with pytest.raises(GroupColorError):
        tau(phi, 0, 1, 2)


def test_is_proper_single_edge_cases():
    phi = PhiAssignment(5, ((0, 1, 0),))
    assert not is_proper(2, phi, (1, 1))
    phi = PhiAssignment(5, ((0, 1, 2),))
    assert not is_proper(2, phi, (0, 2))
    assert is_proper(2, phi, (0, 3))


def test_is_proper_matches_tau_formulation(rng):
    # Dual-implementation oracle: difference test vs forbidden-image test.
    for _ in range(1000):
        n = rng.randint(2, 6)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.6
        ]
        if not edges:
            continue
        records = []
        for u, v in edges:
            if rng.random() < 0.5:
                u, v = v, u
            records.append((u, v, rng.randrange(5)))
        phi = PhiAssignment(5, tuple(records))
        coloring = tuple(rng.randrange(5) for _ in range(n))
        via_tau = all(
            coloring[u] != tau(phi, v, coloring[v], u)
            for u, v in phi.edges()
        )
        assert is_proper(n, phi, coloring) == via_tau


def test_is_proper_orientation_flip_invariant(rng):
    g, _ = build(Wheel(4))
    for _ in range(100):
        phi = random_phi_on(g, rng)
        coloring = tuple(rng.randrange(5) for _ in range(g.vertex_count))
        flipped = phi
        for u, v in g.edges():
            if rng.random() < 0.5:
                flipped = flipped.with_flipped(u, v)
        assert is_proper(g, phi, coloring) == is_proper(g, flipped, coloring)
        v = rng.randrange(g.vertex_count)
        u = rng.choice(g.rotation[v])
        assert tau(phi, v, 2, u) == tau(flipped, v, 2, u)


def test_shift_identity_and_inverse(rng):
    g, _ = build(Wheel(5))
    phi = random_phi_on(g, rng)
    assert shift_phi(phi, 0, 0).records == phi.records
    shifted = shift_phi(phi, 3, 2)
    assert shift_phi(shifted, 3, -2 % 5).records == phi.records


def test_shift_preserves_count_brute_force(rng):
    # Oracle: the bijection adds alpha at the shifted vertex, so literal
    # enumeration must give equal totals.
    for _ in range(20):
        n = rng.randint(3, 5)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.7
        ]
        phi = PhiAssignment(5, tuple((u, v, rng.randrange(5)) for u, v in edges))
        v0 = rng.randrange(n)
        alpha = rng.randrange(5)
        assert brute_count(n, phi) == brute_count(n, shift_phi(phi, v0, alpha))


def test_triangle_consistent_examples(k3):
    g, _ = k3
    phi = PhiAssignment.zero(g.edges())
    assert triangle_consistent(phi, 0, 1, 2)
    phi = PhiAssignment(5, ((0, 1, 1), (1, 2, 1), (2, 0, 3)))
    assert triangle_consistent(phi, 0, 1, 2)
    phi = PhiAssignment(5, ((0, 1, 1), (1, 2, 1), (2, 0, 2)))
    assert not triangle_consistent(phi, 0, 1, 2)


def test_triangle_quantifier_collapse_exhaustive():
    # Consistency of the relayed forbidden color at one alpha holds at one
    # alpha iff at all five, over all 125 label triples.
    for a, b, c in itertools.product(range(5), repeat=3):
        phi = PhiAssignment(5, ((0, 1, a), (1, 2, b), (2, 0, c)))
        hits = [
            tau(phi, 1, tau(phi, 0, alpha, 1), 2) == tau(phi, 0, alpha, 2)
            for alpha in range(5)
        ]
        assert any(hits) == all(hits)
        assert all(hits) == triangle_consistent(phi, 0, 1, 2)


def test_triangle_consistent_requires_triangle(bw4):
    g, _ = bw4
    phi = PhiAssignment.zero(g.edges())
    with pytest.raises(GroupColorError):
        triangle_consistent(phi, 1, 3, 0)  # 1-3 is not an edge


def test_normalize_star_zeroes_hub_edges(rng, w5):
    g, _ = w5
    hub = 5
    targets = [4, 0, 1, 2, 3]
    phi = random_phi_on(g, rng)
    fixed = normalize_star(phi, hub, targets)
    for t in targets:
        assert fixed.offset(hub, t) == 0
    already = normalize_star(fixed, hub, targets)
    assert all(already.offset(hub, t) == 0 for t in targets)


def test_normalize_star_preserves_count(rng):
    g, _ = build(Wheel(4))
    for _ in range(50):
        phi = random_phi_on(g, rng)
        fixed = normalize_star(phi, 4, [0, 1, 2, 3])
        assert brute_count(5, phi) == brute_count(5, fixed)


def test_normalize_star_rejects_bad_targets(w5):
    g, _ = w5
    phi = PhiAssignment.zero(g.edges())
    with pytest.raises(GroupColorError):
        normalize_star(phi, 5, [0, 0])
    with pytest.raises(GroupColorError):
        normalize_star(phi, 0, [2])  # 0-2 is not an edge of the wheel


def test_color_system_precolor_overrides_forbidden():
    cs = ColorSystem.free(3).with_forbidden(1, {0, 1}).with_precolor(1, 0)
    assert cs.available(1) == frozenset({0})
    assert cs.available(0) == frozenset(range(5))
    assert cs.without_precolor(1).available(1) == frozenset({2, 3, 4})
    # The copies equal (and hash like) the directly constructed systems.
    cs = cs.with_precolor(0, 4)
    direct = ColorSystem(5, (frozenset(), frozenset({0, 1}), frozenset()), ((0, 4), (1, 0)))
    assert cs == direct and hash(cs) == hash(direct)
    assert cs.without_precolor(1) == ColorSystem(5, direct.forbidden, ((0, 4),))


def test_color_system_rejects_bad_values():
    with pytest.raises(GroupColorError):
        ColorSystem(5, (frozenset({7}),))
    with pytest.raises(GroupColorError):
        ColorSystem.free(2).with_precolor(0, 9)
    with pytest.raises(GroupColorError):
        ColorSystem(5, (frozenset(),), ((0, 1), (0, 2)))
    # The copy-on-write steps check only what they change, but still check it.
    for bad in (5, -1):
        with pytest.raises(GroupColorError):
            ColorSystem.free(2).with_precolor(1, bad)
        with pytest.raises(GroupColorError):
            ColorSystem.free(2).with_forbidden(1, {0, bad})


def test_color_system_rejects_vertices_outside_it():
    # A precoloring, forbidden set or query at a vertex the system does not
    # have was dropped, or read or edited another vertex (available(-1)
    # read the last list, without_precolor(9) did nothing), or raised a bare
    # IndexError.
    cs = ColorSystem.free(3).with_forbidden(2, {1}).with_precolor(0, 4)
    for bad in (3, 7, -1):
        with pytest.raises(GroupColorError):
            ColorSystem(5, (frozenset(),) * 3, ((bad, 0),))
        with pytest.raises(GroupColorError):
            ColorSystem.free(3).with_precolor(bad, 0)
        with pytest.raises(GroupColorError):
            ColorSystem.free(3).with_forbidden(bad, {0})
        with pytest.raises(GroupColorError, match="outside"):
            cs.available(bad)
        with pytest.raises(GroupColorError, match="outside"):
            cs.without_precolor(bad)
    assert cs.available(2) == frozenset({0, 2, 3, 4})
    assert cs.available(0) == frozenset({4})
    assert cs.without_precolor(1) == cs


def test_color_system_precolor_steps_do_not_rescan_every_vertex():
    # Re-validating all n forbidden sets on every step makes this O(n^2):
    # about 6 s of CPU, against about 0.7 s when only the change is checked.
    n = 3000
    cs = ColorSystem.free(n)
    with cpu_time_limit(3.0):
        for v in range(n):
            cs = cs.with_precolor(v, v % 5)
    assert cs.precolor_map() == {v: v % 5 for v in range(n)}


def test_phi_assignment_rejects_duplicates_and_loops():
    with pytest.raises(GroupColorError):
        PhiAssignment(5, ((0, 0, 1),))
    with pytest.raises(GroupColorError):
        PhiAssignment(5, ((0, 1, 1), (1, 0, 2)))
    with pytest.raises(GroupColorError):
        PhiAssignment(5, ((0, 1, 5),))


def test_phi_assignment_offsets_both_ways_from_one_stored_orientation(rng):
    g, _ = build(Wheel(6))
    phi = random_phi_on(g, rng)
    m = phi.modulus
    for tail, head, value in phi.records:
        assert phi.offset(tail, head) == value
        assert phi.offset(head, tail) == -value % m
        assert phi.has_edge(tail, head) and phi.has_edge(head, tail)
    for u, v in itertools.permutations(range(g.vertex_count), 2):
        assert phi.has_edge(u, v) == g.has_edge(u, v)
        if g.has_edge(u, v):
            assert phi.offset(u, v) == -phi.offset(v, u) % m
        else:
            with pytest.raises(GroupColorError, match="not an edge"):
                phi.offset(u, v)


def test_phi_assignment_rejects_a_reversed_duplicate():
    with pytest.raises(GroupColorError, match="duplicate"):
        PhiAssignment(5, ((2, 3, 0), (0, 1, 4), (3, 2, 1)))
    with pytest.raises(GroupColorError, match="duplicate"):
        PhiAssignment(5, ((2, 3, 0), (2, 3, 0)))


def test_removed_edges_equal_a_validated_labeling(rng):
    # remove_edges does not check the kept records again, nor build the map
    # that queries read; its result must be the labeling the validating
    # constructor builds from them, before and after its first query.
    for _ in range(40):
        modulus = rng.choice((2, 3, 5, 7))
        n = rng.randint(3, 12)
        g = random_near_triangulation(n, rng.randint(3, n), rng.randrange(10**6))
        phi = PhiAssignment(
            modulus,
            tuple(
                (u, v, rng.randrange(modulus)) if rng.random() < 0.5
                else (v, u, rng.randrange(modulus))
                for u, v in g.edges()
            ),
        )
        gone = [e if rng.random() < 0.5 else e[::-1] for e in rng.sample(list(g.edges()), 3)]
        got = phi.remove_edges(*gone)
        kept = tuple(r for r in phi.records if {r[0], r[1]} not in map(set, gone))
        want = PhiAssignment(modulus, kept)
        assert got.records == kept
        assert never_queried(got)
        assert got == want and want == got and hash(got) == hash(want)
        for u, v in itertools.permutations(range(n), 2):
            assert got.has_edge(u, v) == want.has_edge(u, v)
            if want.has_edge(u, v):
                assert got.offset(u, v) == want.offset(u, v)
            else:
                with pytest.raises(GroupColorError, match=f"^{u}-{v} is not an edge"):
                    got.offset(u, v)
        with pytest.raises(GroupColorError, match=f"^{gone[0][0]}-{gone[0][1]} is not an edge"):
            got.remove_edges(gone[0])
        # An absent edge raises on a labeling that was never queried too,
        # naming the first absent edge; an edge named twice is no fault.
        present = [r[:2] for r in kept[:1]]
        for labeling in (got, phi.remove_edges(*gone)):
            (a, b), (c, d) = gone[:2]
            with pytest.raises(GroupColorError) as exc:
                labeling.remove_edges(*present, (b, a), (c, d))
            assert str(exc.value) == f"{b}-{a} is not an edge of this labeling"
        assert phi.remove_edges(gone[0], gone[0][::-1], gone[0]) == phi.remove_edges(gone[0])


def test_public_constructors_keep_their_checks():
    bad = [
        (lambda: PhiAssignment(1, ()), "modulus must be >= 2, got 1"),
        (lambda: PhiAssignment(5, ((0, 0, 1),)), "loop edge 0"),
        (lambda: PhiAssignment(5, ((0, 1, 5),)), "value 5 out of range mod 5"),
        (lambda: PhiAssignment(5, ((0, 1, 1), (1, 0, 2))), "duplicate edge record 1-0"),
        (lambda: ColorSystem(5, (frozenset({7}),)), "forbidden colors at 0 out of range"),
        (lambda: ColorSystem(5, (frozenset(),), ((0, 9),)), "precolor 9 out of range mod 5"),
        (lambda: ColorSystem(5, (frozenset(),), ((0, 1), (0, 2))), "vertex 0 precolored twice"),
        (lambda: ColorSystem(5, (frozenset(),), ((1, 0),)), "vertex 1 outside 0..0"),
    ]
    for make, message in bad:
        with pytest.raises(GroupColorError) as exc:
            make()
        assert str(exc.value) == message


def test_generic_modulus_supported():
    phi = PhiAssignment(6, ((0, 1, 5),))
    assert tau(phi, 0, 3, 1) == 2
    assert brute_count(2, phi) == 30
