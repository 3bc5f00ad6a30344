"""Acceptance suite: one test per criterion, at the stated desk scales.

Each criterion prints a PASS line when it completes (run with ``pytest -s``
or ``-v`` to see them stream).  Everything here is exact: the only
tolerances are the counting bounds' own 2^(n/9 - r/3) thresholds.
"""

import itertools
import random
import subprocess
import sys

import pytest

from z5color.families import (
    BrokenWheel,
    Wheel,
    build,
    built_family,
    is_multi_wheel_descriptor,
)
from z5color.group_color import ColorSystem, PhiAssignment, is_proper, shift_phi, tau
from z5color.propcheck import (
    CHECK_IDS,
    RandomInstanceConfig,
    check_corollary,
    check_lemma,
    check_theorem4_bound,
    derive_seed,
    exceptional_theorem4_config,
    random_near_triangulation,
    random_phi,
    run_check,
)
from z5color.solver import (
    ExtensionError,
    ExtensionProblem,
    HubException,
    ObstructionCertificate,
    classify_alpha,
    color_short_cycle,
    count_colorings,
    extend_three,
    extend_two,
    lemma1_alpha,
    lemma1_failure_table,
    marginal_counts,
    validate_obstruction,
)

SEED = 2026


def done(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS")


def proper_path_precolor(g, phi, path, rng):
    tail, major, head = path
    while True:
        cm = rng.randrange(5)
        ct = rng.choice([c for c in range(5) if c != tau(phi, major, cm, tail)])
        heads = [c for c in range(5) if c != tau(phi, major, cm, head)]
        if g.has_edge(tail, head):
            heads = [c for c in heads if c != tau(phi, tail, ct, head)]
        if heads:
            return {tail: ct, major: cm, head: rng.choice(heads)}


def test_acceptance_1_tau_calculus():
    # Involution over all 25 (value, alpha) pairs per stored orientation.
    for tail, head in ((0, 1), (1, 0)):
        for value in range(5):
            phi = PhiAssignment(5, ((tail, head, value),))
            for alpha in range(5):
                assert tau(phi, 0, tau(phi, 1, alpha, 0), 1) == alpha
                assert tau(phi, 1, tau(phi, 0, alpha, 1), 0) == alpha
    # Quantifier collapse over all 125 label triples on a triangle.
    for a, b, c in itertools.product(range(5), repeat=3):
        phi = PhiAssignment(5, ((0, 1, a), (1, 2, b), (2, 0, c)))
        hits = [
            tau(phi, 1, tau(phi, 0, alpha, 1), 2) == tau(phi, 0, alpha, 2)
            for alpha in range(5)
        ]
        assert any(hits) == all(hits)
    done(1, "tau involution and triangle collapse")


def test_acceptance_2_shift_count_preservation():
    rng = random.Random(derive_seed(SEED, "shift"))
    for index in range(200):
        n = rng.randint(4, 8)
        k = rng.randint(3, min(n, 6))
        g = random_near_triangulation(n, k, derive_seed(SEED, "shift", index))
        phi = random_phi(g.edges(), rng)
        v0 = rng.randrange(n)  # the count bijection re-maps this vertex's color
        cs = ColorSystem.free(n)
        for v in g.outer_cycle:
            if v != v0 and rng.random() < 0.5:
                cs = cs.with_forbidden(v, rng.sample(range(5), rng.randint(1, 2)))
        alpha = rng.randrange(5)
        before = count_colorings(g, phi, cs)
        after = count_colorings(g, shift_phi(phi, v0, alpha), cs)
        assert before == after, (index, before, after)
    done(2, "count preserved under labeling shifts, 200 instances")


def test_acceptance_3_two_extendability():
    rng = random.Random(derive_seed(SEED, "extend2"))
    checked_existence = 0
    for index in range(1000):
        n = rng.randint(4, 10)
        k = rng.randint(3, min(n, 8))
        g = random_near_triangulation(n, k, derive_seed(SEED, "extend2", index))
        phi = random_phi(g.edges(), rng)
        cs = ColorSystem.free(n)
        for v in g.outer_cycle:
            if v in (0, 1):
                continue
            cs = cs.with_forbidden(v, rng.sample(range(5), rng.randint(0, 2)))
        cm = rng.randrange(5)
        ch = rng.choice([c for c in range(5) if c != tau(phi, 0, cm, 1)])
        cs = cs.with_precolor(0, cm).with_precolor(1, ch)
        coloring = extend_two(ExtensionProblem(g, phi, cs, (0, 1)))
        assert is_proper(g, phi, coloring)
        assert all(coloring[v] in cs.available(v) for v in range(n))
        if n <= 9:
            assert count_colorings(g, phi, cs) > 0
            checked_existence += 1
    assert checked_existence > 300
    done(3, "two-extendability on 1000 random problems")


def test_acceptance_4_short_cycle_vs_brute_force():
    rng = random.Random(derive_seed(SEED, "short"))
    wheel5, _ = build(Wheel(5))
    graphs = [random_near_triangulation(k + 2, k, derive_seed(SEED, "short", k))
              for k in (3, 4, 5)]
    graphs.append(wheel5)
    exceptions_seen = 0
    for g in graphs:
        k = len(g.outer_cycle)
        cycle = list(range(k))
        for rep in range(50):
            phi = random_phi(g.edges(), rng)
            table = marginal_counts(g, phi, None, keep=tuple(cycle))
            for trip in itertools.product(range(5), repeat=k):
                cs = ColorSystem.free(g.vertex_count)
                for v, c in zip(cycle, trip):
                    cs = cs.with_precolor(v, c)
                improper = any(
                    trip[u] == tau(phi, v, trip[v], u)
                    for u in cycle
                    for v in cycle
                    if u != v and g.has_edge(u, v)
                )
                if improper:
                    with pytest.raises(ExtensionError):
                        color_short_cycle(g, phi, cs)
                    continue
                result = color_short_cycle(g, phi, cs)
                if isinstance(result, HubException):
                    exceptions_seen += 1
                    assert table[trip] == 0
                    images = {
                        tau(phi, v, trip[v], result.vertex) for v in cycle
                    }
                    assert images == set(range(5))
                else:
                    assert table[trip] > 0
                    assert is_proper(g, phi, result)
    # The named exceptional instance.
    phi0 = PhiAssignment.zero(wheel5.edges())
    cs = ColorSystem.free(6)
    for i in range(5):
        cs = cs.with_precolor(i, i)
    assert color_short_cycle(wheel5, phi0, cs) == HubException(5)
    assert exceptions_seen > 0
    done(4, "short-cycle extension agrees with exhaustive counts")


def test_acceptance_5_three_extendability_dichotomy():
    rng = random.Random(derive_seed(SEED, "extend3"))
    # Random near-triangulations rarely block, so alternate them with family
    # members (the obstruction-prone graphs) under saturated forbidden sets.
    members = [(g, p) for _, g, p in built_family(9)]
    colorings = certificates = 0
    for index in range(150):
        if index % 2 == 0:
            n = rng.randint(4, 9)
            k = rng.randint(3, min(n, 7))
            g = random_near_triangulation(n, k, derive_seed(SEED, "extend3", index))
            oc = list(g.outer_cycle)
            path = (oc[-1], oc[0], oc[1])
        else:
            g, p = members[rng.randrange(len(members))]
            if g.vertex_count < 4:
                g, p = members[-1]
            oc = list(g.outer_cycle)
            path = (p.tail, p.major, p.head)
        n = g.vertex_count
        phi = random_phi(g.edges(), rng)
        cs = ColorSystem.free(n)
        for v in oc:
            if v not in path:
                cs = cs.with_forbidden(v, rng.sample(range(5), 2))
        for v, c in proper_path_precolor(g, phi, path, rng).items():
            cs = cs.with_precolor(v, c)
        result = extend_three(ExtensionProblem(g, phi, cs, path))
        if isinstance(result, ObstructionCertificate):
            certificates += 1
            assert count_colorings(g, phi, cs) == 0
            assert validate_obstruction(result) == []
        else:
            colorings += 1
            assert count_colorings(g, phi, cs) > 0
            assert is_proper(g, phi, result)
            assert all(result[v] in cs.available(v) for v in range(n))
    assert colorings > 0 and certificates > 0

    # Paper-named witnesses: a broken wheel on four vertices, and a wheel on
    # an even number (at least six) of vertices.
    bw4, _ = build(BrokenWheel(4))
    phi0 = PhiAssignment.zero(bw4.edges())
    cs = (
        ColorSystem.free(4)
        .with_forbidden(2, {3, 4})
        .with_precolor(3, 0)
        .with_precolor(0, 1)
        .with_precolor(1, 2)
    )
    cert = extend_three(ExtensionProblem(bw4, phi0, cs, (3, 0, 1)))
    assert isinstance(cert, ObstructionCertificate)
    assert validate_obstruction(cert) == []

    w5, p5 = build(Wheel(5))
    witness = None
    for _ in range(5000):
        phi = random_phi(w5.edges(), rng)
        cs = ColorSystem.free(6)
        for v in (2, 3):
            cs = cs.with_forbidden(v, rng.sample(range(5), 2))
        table = lemma1_failure_table(w5, phi, cs, p5)
        for (ct, cm, ch), cnt in sorted(table.items()):
            if cnt:
                continue
            if ct == tau(phi, 0, cm, 4) or ch == tau(phi, 0, cm, 1):
                continue
            witness = (phi, cs, (ct, cm, ch))
            break
        if witness:
            break
    assert witness is not None
    phi, cs, (ct, cm, ch) = witness
    cs = cs.with_precolor(4, ct).with_precolor(0, cm).with_precolor(1, ch)
    cert = extend_three(ExtensionProblem(w5, phi, cs, (4, 0, 1)))
    assert isinstance(cert, ObstructionCertificate)
    assert validate_obstruction(cert) == []

    # With at most one forbidden color per boundary vertex nothing blocks.
    for index in range(40):
        n = rng.randint(4, 9)
        k = rng.randint(3, min(n, 6))
        g = random_near_triangulation(n, k, derive_seed(SEED, "extend3-f1", index))
        oc = list(g.outer_cycle)
        phi = random_phi(g.edges(), rng)
        cs = ColorSystem.free(n)
        for v in oc[2:-1]:
            cs = cs.with_forbidden(v, rng.sample(range(5), rng.randint(0, 1)))
        path = (oc[-1], oc[0], oc[1])
        for v, c in proper_path_precolor(g, phi, path, rng).items():
            cs = cs.with_precolor(v, c)
        assert isinstance(
            extend_three(ExtensionProblem(g, phi, cs, path)), tuple
        )
    done(5, "three-extendability dichotomy with validated certificates")


def test_acceptance_6_alpha_extraction_multi_wheels():
    rng = random.Random(derive_seed(SEED, "alpha"))
    members = [
        (d, g, p) for d, g, p in built_family(10) if is_multi_wheel_descriptor(d)
    ]
    assert len(members) >= 100
    alphas_seen = 0
    for d, g, p in members:
        middles = [v for v in g.outer_cycle if v not in (p.tail, p.major, p.head)]
        for rep in range(100):
            phi = random_phi(g.edges(), rng)
            cs = ColorSystem.free(g.vertex_count)
            for v in middles:
                cs = cs.with_forbidden(v, rng.sample(range(5), rng.randint(0, 2)))
            table = lemma1_failure_table(g, phi, cs, p)
            result = classify_alpha(table, g, phi, p)
            assert result.kind in ("alpha", "vacuous"), (d, result)
            diffs = {result.alpha} if result.kind == "alpha" else set()
            for _ in range(2):
                rolled = PhiAssignment(
                    5,
                    tuple(
                        (t, h, rng.randrange(5))
                        if {t, h} in ({p.tail, p.major}, {p.major, p.head})
                        else (t, h, x)
                        for t, h, x in phi.records
                    ),
                )
                rerolled = classify_alpha(table, g, rolled, p)
                assert rerolled.kind != "none"
                if rerolled.kind == "alpha":
                    diffs.add(rerolled.alpha)
                if rep % 25 == 0:
                    # the failure table itself ignores the principal labels
                    assert lemma1_failure_table(g, rolled, cs, p) == table
            assert len(diffs) <= 1, (d, diffs)
            alphas_seen += bool(diffs)
    assert alphas_seen > 0

    bw4, p4 = build(BrokenWheel(4))
    control = lemma1_alpha(
        bw4,
        PhiAssignment.zero(bw4.edges()),
        ColorSystem.free(4).with_forbidden(2, {3, 4}),
        p4,
        require_multi_wheel=False,
    )
    assert control.kind == "none"
    done(6, "alpha extraction over all multi-wheels to ten vertices")


def test_acceptance_7_lemma_suite():
    settings = [
        ("lemma2", check_lemma, 2, RandomInstanceConfig(n_max=12, samples=100, seed=SEED)),
        ("lemma3a", check_lemma, "3a", RandomInstanceConfig(n_max=14, samples=100, seed=SEED)),
        ("lemma3b", check_lemma, "3b", RandomInstanceConfig(n_max=14, samples=100, seed=SEED)),
        ("cor1", check_lemma, "cor1", RandomInstanceConfig(n_max=12, samples=100, seed=SEED)),
        ("lemma4", check_lemma, 4, RandomInstanceConfig(n_max=12, samples=100, seed=SEED)),
        ("lemma5", check_lemma, 5, RandomInstanceConfig(n_max=12, samples=100, seed=SEED)),
    ]
    for name, runner, ident, cfg in settings:
        report = runner(ident, cfg)
        assert report.passed, report.render()
        assert report.instances >= 100
    done(7, "lemma and corollary property suite at desk scale")


def test_acceptance_8_counting_bounds():
    cfg = RandomInstanceConfig(n_max=12, samples=5000, seed=SEED)
    bound_report = check_theorem4_bound(cfg)
    assert bound_report.passed, bound_report.render()
    assert bound_report.instances == 5000  # 100 triangulations x 50 labelings
    corollary_report = check_corollary(cfg)
    assert corollary_report.passed, corollary_report.render()
    assert corollary_report.instances == 5000

    # Detector positive/negative hand cases guard the exclusion itself.
    g, _ = build(BrokenWheel(4))
    phi0 = PhiAssignment.zero(g.edges())
    base = (
        ColorSystem.free(4)
        .with_precolor(3, 0)
        .with_precolor(0, 1)
        .with_precolor(1, 2)
    )
    assert exceptional_theorem4_config(g, phi0, base.with_forbidden(2, {3}), (3, 0, 1))
    assert not exceptional_theorem4_config(g, phi0, base.with_forbidden(2, {0}), (3, 0, 1))
    done(8, "counting bounds on 100 stacked triangulations x 50 labelings")


def test_acceptance_9_determinism(cli_env):
    stable = lambda text: [
        l for l in text.splitlines() if not l.startswith("#")
    ]
    for prop in CHECK_IDS:
        cfg = RandomInstanceConfig(n_max=7, samples=6, seed=77)
        first = run_check(prop, cfg).render()
        second = run_check(prop, cfg).render()
        assert stable(first) == stable(second), prop
    cmd = [
        sys.executable, "-m", "z5color.cli", "check", "lemma1",
        "--n-max", "8", "--samples", "8", "--seed", "5",
    ]
    outputs = []
    for jobs in ("1", "4"):
        proc = subprocess.run(
            cmd + ["--jobs", jobs], capture_output=True, text=True, env=cli_env
        )
        assert proc.returncode == 0
        outputs.append(stable(proc.stdout))
    assert outputs[0] == outputs[1]
    done(9, "seeded reruns and worker counts agree byte for byte")
