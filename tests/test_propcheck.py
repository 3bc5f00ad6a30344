import concurrent.futures
import hashlib
import itertools
import random

import pytest

from conftest import cpu_time_limit
from z5color import propcheck
from z5color.families import (
    BrokenWheel,
    Wheel,
    build,
    built_family,
    is_multi_wheel_descriptor,
    principal_path,
)
from z5color.gcg import parse_gcg, write_gcg
from z5color.group_color import ColorSystem, PhiAssignment
from z5color.plane_graph import validate
from z5color.propcheck import (
    CHECK_IDS,
    CHECKS,
    CheckReport,
    PropcheckError,
    RandomInstanceConfig,
    _EVALUATORS,
    _run_packets,
    check_lemma,
    check_theorem4_bound,
    derive_seed,
    exceptional_theorem4_config,
    random_near_triangulation,
    random_phi,
    random_triangulation,
    replay,
    run_check,
)
from z5color.solver import (
    classify_alpha,
    count_colorings,
    is_path_proper,
    lemma1_failure_table,
)


def report_body(report: CheckReport) -> list[str]:
    return [l for l in report.render().splitlines() if not l.startswith("#")]


def test_random_triangulation_smallest_cases():
    g3 = random_triangulation(3, seed=0)
    assert g3.vertex_count == 3 and g3.edge_count() == 3
    g4 = random_triangulation(4, seed=0)
    assert g4.edge_count() == 6  # only one stacking: the tetrahedron
    assert validate(g4).ok
    with pytest.raises(PropcheckError):
        random_triangulation(2, seed=0)


def test_random_triangulation_validity_and_determinism():
    for n in range(3, 13):
        a = random_triangulation(n, seed=n * 7 + 1)
        b = random_triangulation(n, seed=n * 7 + 1)
        c = random_triangulation(n, seed=n * 7 + 2)
        assert validate(a).ok
        assert a == b
        if n > 4:
            assert a != c or a.rotation == c.rotation  # different seeds usually differ


def test_random_near_triangulation_outer_sizes():
    for outer in range(3, 8):
        for n in (outer, outer + 2, outer + 4):
            g = random_near_triangulation(n, outer, seed=outer * 100 + n)
            assert validate(g).ok
            assert len(g.outer_cycle) == outer
            assert g.vertex_count == n


def test_random_phi_modes(rng):
    g = random_triangulation(8, seed=1)
    zero = random_phi(g.edges(), rng, "zero")
    assert all(x == 0 for _, _, x in zero.records)
    uniform = random_phi(g.edges(), rng, "uniform")
    assert any(x != 0 for _, _, x in uniform.records)
    sparse = random_phi(g.edges(), rng, "sparse")
    zeros = sum(1 for _, _, x in sparse.records if x == 0)
    assert zeros >= len(sparse.records) // 3
    with pytest.raises(PropcheckError):
        random_phi(g.edges(), rng, "bogus")


def test_zero_phi_reduces_to_ordinary_coloring():
    # Cross-check against the chromatic polynomial of the wheel.
    g, _ = build(Wheel(5))
    phi = PhiAssignment.zero(g.edges())
    assert count_colorings(g, phi) == 5 * (3**5 - 3)


def test_exceptional_detector_hand_cases():
    g, _ = build(BrokenWheel(4))
    phi = PhiAssignment.zero(g.edges())
    base = (
        ColorSystem.free(4)
        .with_precolor(3, 0)
        .with_precolor(0, 1)
        .with_precolor(1, 2)
    )
    positive = base.with_forbidden(2, {3})
    assert exceptional_theorem4_config(g, phi, positive, (3, 0, 1))
    negative = base.with_forbidden(2, {0})
    assert not exceptional_theorem4_config(g, phi, negative, (3, 0, 1))
    # vertex not joined to all three precolored: wheel(4) middles
    w, _ = build(Wheel(4))
    pre = (
        ColorSystem.free(5)
        .with_precolor(3, 0)
        .with_precolor(0, 1)
        .with_precolor(1, 2)
        .with_forbidden(2, {3})
    )
    assert not exceptional_theorem4_config(w, PhiAssignment.zero(w.edges()), pre, (3, 0, 1))


@pytest.mark.parametrize("prop", CHECK_IDS)
def test_every_check_passes_small(prop):
    cfg = RandomInstanceConfig(n_max=8, samples=12, seed=4)
    report = run_check(prop, cfg)
    assert report.passed, report.render()
    assert report.instances >= 12 or prop == "calculus"
    assert report.render().rstrip().endswith("PASS")


def test_reports_are_bit_identical_for_same_seed():
    cfg = RandomInstanceConfig(n_max=8, samples=10, seed=31)
    first = check_lemma(2, cfg)
    second = check_lemma(2, cfg)
    assert report_body(first) == report_body(second)
    # Everything except wall time is reproducible, header included.
    stable = lambda r: [l for l in r.render().splitlines() if "seconds" not in l]
    assert stable(first) == stable(second)


def test_jobs_do_not_change_results():
    cfg = RandomInstanceConfig(n_max=8, samples=10, seed=13)
    solo = check_theorem4_bound(cfg, jobs=1)
    quad = check_theorem4_bound(cfg, jobs=4)
    assert report_body(solo) == report_body(quad)


def test_jobs_are_capped_at_packets_and_cpus(monkeypatch):
    # A fake pool records its size and maps in this process, so no worker
    # is ever started.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    # ``_run_packets`` imports the pool class when it starts a pool.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setitem(_EVALUATORS, "synthetic", lambda payload, aux: None)
    packets = [("synthetic", i, "", ()) for i in range(5)]
    for cpus, jobs, count, size in [
        (3, 10**9, 5, 3), (8, 10**9, 2, 2), (8, 4, 5, 4), (None, 10**9, 5, None),
        (8, 1, 5, None),
    ]:
        sizes.clear()
        monkeypatch.setattr(propcheck.os, "cpu_count", lambda: cpus)
        assert _run_packets(packets[:count], jobs) == []
        assert sizes == ([size] if size else [])


def test_counterexamples_render_and_replay(monkeypatch):
    # Wire a synthetic always-failing evaluator through the real harness to
    # prove counterexamples are captured, rendered, and replayable.
    def broken(payload, aux):
        doc = parse_gcg(payload)
        return f"synthetic failure on {doc.graph.vertex_count} vertices"

    monkeypatch.setitem(_EVALUATORS, "synthetic", broken)
    g = random_triangulation(5, seed=2)
    payload = write_gcg(g, PhiAssignment.zero(g.edges()), ColorSystem.free(5))
    failures = _run_packets([("synthetic", 0, payload, ())], jobs=1)
    assert len(failures) == 1
    index, text, note = failures[0]
    assert "synthetic failure on 5 vertices" in note
    assert replay("synthetic", text) == note
    report = CheckReport("synthetic", 0, 1, (text + f"# failure: {note}\n",), 0.0)
    rendered = report.render()
    assert rendered.rstrip().endswith("FAIL 1")
    assert "counterexample 1:" in rendered


def test_replay_of_passing_lemma_packet():
    g, _ = build(BrokenWheel(5))
    phi = PhiAssignment.zero(g.edges())
    cs = (
        ColorSystem.free(5)
        .with_precolor(4, 0)
        .with_precolor(0, 1)
        .with_precolor(1, 2)
    )
    payload = write_gcg(g, phi, cs)
    assert replay("lemma2", payload) is None


def test_lemma2_replay_names_an_edge_whose_deletion_leaves_no_coloring():
    # Vertex 2 sees the hub 0 (color 1) and vertex 1 (color 2) and forbids
    # every other color, so the instance has no coloring; deleting the edge
    # 0-2 frees it, deleting 0-3 (the next edge) does not.
    g, _ = build(BrokenWheel(5))
    phi = PhiAssignment.zero(g.edges())
    cs = (
        ColorSystem.free(5)
        .with_precolor(4, 0)
        .with_precolor(0, 1)
        .with_precolor(1, 2)
        .with_forbidden(2, (0, 3, 4))
    )
    assert count_colorings(g, phi, cs) == 0
    assert replay("lemma2", write_gcg(g, phi, cs)) == (
        "deleting edge 0-3 left no coloring"
    )


Z5_CHECKS = ("lemma1", "lemma2", "lemma3a", "lemma3b", "cor1", "lemma4",
             "theorem4", "corollary2")


def test_z5_checks_reject_other_moduli():
    # The 3-vertex-outer multi-wheel of the family, labeled mod 7: each Z_5
    # check refuses it rather than reroll or count it; count preservation
    # holds mod any m, so shift replays.
    d, g, _ = next(
        m for m in built_family(5)
        if is_multi_wheel_descriptor(m[0]) and len(m[1].outer_cycle) == 3
    )
    phi = PhiAssignment(7, tuple((u, v, 6) for u, v in g.edges()))
    payload = write_gcg(g, phi, ColorSystem.free(g.vertex_count, 7))
    aux = {"lemma1": (1,), "theorem4": (3,)}
    for prop in Z5_CHECKS:
        with pytest.raises(PropcheckError, match="mod 7"):
            replay(prop, payload, aux.get(prop, ()))
    assert replay("calculus/shift", payload, (0, 3)) is None


def full_record_rerolls(phi, path, reroll_seed):
    """The reroll recipe that rebuilds every record of the labeling: two
    draws per reroll, in record order, on the principal edges only."""
    principal = ({path.tail, path.major}, {path.major, path.head})
    rng = random.Random(reroll_seed)
    return [
        PhiAssignment(
            5,
            tuple(
                (t, h, rng.randrange(5)) if {t, h} in principal else (t, h, x)
                for t, h, x in phi.records
            ),
        )
        for _ in range(2)
    ]


def lemma1_packets_with_zero_cells():
    """Lemma1-style packets whose failure tables have zero cells: family
    members with outer cycles of 3 to 5 vertices and two forbidden colors
    on every middle outer vertex, as the benchmark's blocked extension
    instances are drawn."""
    members = [m for m in built_family(8) if len(m[1].outer_cycle) <= 5]
    for i in itertools.count():
        rng = random.Random(derive_seed(0, "lemma1-zero-cells", i))
        _, g, path = members[rng.randrange(len(members))]
        cs = ColorSystem.free(g.vertex_count)
        for v in g.outer_cycle:
            if v not in (path.tail, path.major, path.head):
                cs = cs.with_forbidden(v, rng.sample(range(5), 2))
        doc = parse_gcg(write_gcg(g, random_phi(g.edges(), rng), cs))
        table = lemma1_failure_table(doc.graph, doc.phi, doc.colors, path)
        if 0 in table.values():
            yield doc, path, table, rng.getrandbits(64)


def test_lemma1_rerolls_read_the_path_alone():
    # The replay rerolls only the records among tail, major and head and
    # classifies only the zero cells; per labeling, the result must be the
    # one the full-record recipe gives on the whole table.
    non_vacuous = 0
    for doc, path, table, seed in itertools.islice(lemma1_packets_with_zero_cells(), 120):
        zeros = {t: 0 for t, count in table.items() if not count}
        full = [
            classify_alpha(table, doc.graph, phi, path)
            for phi in (doc.phi, *full_record_rerolls(doc.phi, path, seed))
        ]
        short = [
            classify_alpha(zeros, doc.graph, phi, path)
            for phi in (doc.phi, *propcheck._principal_rerolls(doc.phi, path, seed))
        ]
        assert short == full
        non_vacuous += any(res.kind != "vacuous" for res in full)
    assert non_vacuous >= 20


def test_lemma1_replay_reports_its_failures(monkeypatch):
    # A failure table whose failing cells move with the principal-edge
    # labels: one cell is proper only under the packet's own labels, another
    # (with a different tail-head difference) only under a reroll.
    triples = list(itertools.product(range(5), repeat=3))
    for _, _, payload, aux in CHECKS["lemma1"](RandomInstanceConfig(n_max=6, samples=20)):
        doc = parse_gcg(payload)
        path = principal_path(doc.graph)
        labelings = [doc.phi, *full_record_rerolls(doc.phi, path, aux[0])]
        proper = {
            t: [is_path_proper(doc.graph, phi, path, t) for phi in labelings]
            for t in triples
        }
        moved = [
            (a, b) for a in triples for b in triples
            if proper[a][0] and not proper[b][0] and any(proper[b][1:])
            and not any(x and y for x, y in zip(proper[a], proper[b]))
            and (a[0] - a[2]) % 5 != (b[0] - b[2]) % 5
        ]
        if moved:
            break
    a, b = moved[0]
    table = {t: int(t not in (a, b)) for t in triples}
    monkeypatch.setattr(propcheck, "lemma1_failure_table", lambda *args: table)
    diffs = sorted({(a[0] - a[2]) % 5, (b[0] - b[2]) % 5})
    assert replay("lemma1", payload, aux) == (
        f"alpha changed under principal-edge rerolls: {diffs}"
    )
    # Two proper failing cells with different differences under the
    # packet's own labels leave no alpha at all.
    c = next(
        t for t in triples
        if proper[t][0] and (t[0] - t[2]) % 5 != (a[0] - a[2]) % 5
    )
    table = {t: int(t not in (a, c)) for t in triples}
    assert replay("lemma1", payload, aux) == (
        "lemma1_alpha returned 'none' on a multi-wheel"
    )


def test_derive_seed_stability():
    assert derive_seed(1, "x", 2) == derive_seed(1, "x", 2)
    assert derive_seed(1, "x", 2) != derive_seed(1, "x", 3)
    assert derive_seed(2, "x", 2) != derive_seed(1, "x", 2)


def test_check_lemma_rejects_unknown():
    with pytest.raises(PropcheckError):
        check_lemma("nope", RandomInstanceConfig())
    with pytest.raises(PropcheckError):
        run_check("bogus", RandomInstanceConfig())


def test_lemma5_report_notes_cap_reading():
    report = check_lemma(5, RandomInstanceConfig(n_max=8, samples=4, seed=2))
    assert any("three forbidden colors" in n for n in report.notes)
    assert "# note:" in report.render()


def test_packet_streams_are_pinned():
    # sha256 over repr of every packet of every check, in CHECK_IDS order.
    # Refactoring how a check draws its packets, or adding a check id, must
    # leave it unchanged.
    configs = (
        RandomInstanceConfig(n_max=9, samples=60, seed=0, phi_mode="uniform"),
        RandomInstanceConfig(n_max=12, samples=120, seed=2026, phi_mode="sparse"),
        RandomInstanceConfig(n_max=7, samples=6, seed=77, phi_mode="zero"),
    )
    digest = hashlib.sha256()
    for cfg in configs:
        for prop in CHECK_IDS:
            for packet in CHECKS[prop](cfg):
                digest.update(repr(packet).encode())
    assert digest.hexdigest() == (
        "9b0a0cfcdc71dae532ddb8dae5bbca0ceb9478b55fe41f5e82e400d38c52d850"
    )


def test_replay_verdicts_are_pinned():
    # sha256 over repr((id, index, verdict)) of every packet of every check
    # at one config.  Caching the parsed graphs and cutting short the
    # lemma1 rerolls must leave every verdict as it was.
    cfg = RandomInstanceConfig(n_max=9, samples=60, seed=0, phi_mode="uniform")
    digest = hashlib.sha256()
    for prop in CHECK_IDS:
        for kind, index, payload, aux in CHECKS[prop](cfg):
            digest.update(repr((kind, index, replay(kind, payload, aux))).encode())
    assert digest.hexdigest() == (
        "c59c60281f354029bc736298f446bdf932ea4d417b76092f2e83b8c10781f872"
    )


@pytest.mark.parametrize(
    "prop, smallest",
    [("calculus", 4), ("lemma3a", 6), ("lemma3b", 7), ("lemma5", 3),
     ("theorem4", 4), ("corollary2", 3)],
)
def test_checks_reject_n_max_below_their_smallest_instance(prop, smallest):
    # lemma5 used to loop forever below n_max = 3, so every case runs
    # under a CPU-time alarm.
    with cpu_time_limit(10):
        with pytest.raises(PropcheckError, match="n_max"):
            run_check(prop, RandomInstanceConfig(n_max=smallest - 1, samples=3))
        packets = CHECKS[prop](RandomInstanceConfig(n_max=smallest, samples=3))
    assert len(packets) >= 3
    for _, _, payload, _ in packets:
        if payload and prop != "lemma5":
            assert parse_gcg(payload).graph.vertex_count <= smallest
