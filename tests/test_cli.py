import io
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z5color import solver
from z5color.cli import main
from z5color.families import (
    BrokenWheel,
    Wheel,
    build,
    parse_sexpr,
    recognize_generalized_multi_wheel,
)
from z5color.gcg import parse_gcg, write_gcg
from z5color.group_color import ColorSystem, PhiAssignment
from z5color.solver import count_colorings


@pytest.fixture
def k3_file(tmp_path):
    g, _ = build(BrokenWheel(3))
    path = tmp_path / "k3.gcg"
    path.write_text(write_gcg(g, PhiAssignment.zero(g.edges()), ColorSystem.free(3)))
    return str(path)


@pytest.fixture
def blocked_bw4_file(tmp_path):
    g, _ = build(BrokenWheel(4))
    cs = (
        ColorSystem.free(4)
        .with_forbidden(2, {3, 4})
        .with_precolor(3, 0)
        .with_precolor(0, 1)
        .with_precolor(1, 2)
    )
    path = tmp_path / "bw4.gcg"
    path.write_text(write_gcg(g, PhiAssignment.zero(g.edges()), cs))
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_k3(capsys, k3_file):
    code, out, _ = run_cli(capsys, "count", k3_file)
    assert code == 0
    assert out == "colorings: 60\n"


def test_validate_valid_and_invalid(capsys, k3_file, tmp_path):
    code, out, _ = run_cli(capsys, "validate", k3_file)
    assert (code, out) == (0, "valid\n")
    bad = tmp_path / "bad.gcg"
    bad.write_text("n 3\nrot 0 1\nrot 1 0\nrot 2\nouter 3 0 1 2\n")
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "invalid" in out


def test_enumerate_limit(capsys, k3_file):
    code, out, _ = run_cli(capsys, "enumerate", k3_file, "--limit", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "enumerated: 4"
    assert len(lines) == 5
    code, out, _ = run_cli(capsys, "enumerate", k3_file, "--limit", "0")
    assert (code, out) == (0, "enumerated: 0\n")
    code, out, err = run_cli(capsys, "enumerate", k3_file, "--limit", "-2")
    assert (code, out, err) == (1, "", "error: --limit must be at least 0, got -2\n")


def test_extend2(capsys, tmp_path):
    g, _ = build(Wheel(4))
    cs = ColorSystem.free(5).with_precolor(0, 0).with_precolor(1, 2)
    f = tmp_path / "w4.gcg"
    f.write_text(write_gcg(g, PhiAssignment.zero(g.edges()), cs))
    code, out, _ = run_cli(capsys, "extend2", str(f))
    assert code == 0
    values = [int(x) for x in out.split(":")[1].split()]
    assert values[0] == 0 and values[1] == 2


def test_extend3_obstruction_exit_code_and_certificate(capsys, blocked_bw4_file, tmp_path):
    cert_path = tmp_path / "cert.gcg"
    code, out, _ = run_cli(
        capsys, "extend3", blocked_bw4_file, "--emit-certificate", str(cert_path)
    )
    assert code == 2
    assert out.startswith("obstruction: (broken 4)")
    doc = parse_gcg(cert_path.read_text())
    assert doc.descriptor == "(broken 4)"
    assert count_colorings(doc.graph, doc.phi, doc.colors) == 0


def test_extend3_coloring_exit_zero(capsys, tmp_path):
    g, _ = build(BrokenWheel(4))
    cs = (
        ColorSystem.free(4)
        .with_precolor(3, 0)
        .with_precolor(0, 1)
        .with_precolor(1, 2)
    )
    f = tmp_path / "ok.gcg"
    f.write_text(write_gcg(g, PhiAssignment.zero(g.edges()), cs))
    code, out, _ = run_cli(capsys, "extend3", str(f))
    assert code == 0
    assert out.startswith("coloring:")


def test_lemma1_alpha_flags(capsys, tmp_path):
    g, _ = build(BrokenWheel(4))
    cs = ColorSystem.free(4).with_forbidden(2, {3, 4})
    f = tmp_path / "bw4free.gcg"
    f.write_text(write_gcg(g, PhiAssignment.zero(g.edges()), cs))
    code, _, err = run_cli(capsys, "lemma1-alpha", str(f))
    assert code == 1 and "multi-wheel" in err
    code, out, _ = run_cli(capsys, "lemma1-alpha", str(f), "--no-multi-wheel-check")
    assert code == 0
    assert out == "alpha: none\n"


def test_family_gen_and_recognize(capsys, k3_file):
    code, out, _ = run_cli(capsys, "family", "gen", "--max-n", "4")
    assert code == 0
    assert out.splitlines() == ["(broken 3)", "(broken 4)", "(wheel 3)"]
    code, out, _ = run_cli(capsys, "family", "recognize", k3_file)
    assert (code, out) == (0, "(broken 3)\n")


def test_family_recognize_rejects_non_member(capsys, tmp_path):
    # K4 with a vertex stacked deep has a separating triangle off the rim.
    import networkx as nx

    from z5color.plane_graph import trace_faces

    g = nx.icosahedral_graph()
    g.remove_node(11)
    _, emb = nx.check_planarity(g)
    rot = [list(emb.neighbors_cw_order(v)) for v in range(11)]
    outer = [[d[0] for d in f] for f in trace_faces(rot) if len(f) == 5][0]
    from z5color.plane_graph import PlaneNearTriangulation

    pnt = PlaneNearTriangulation.from_lists(rot, outer)
    f = tmp_path / "ico.gcg"
    f.write_text(write_gcg(pnt, PhiAssignment.zero(pnt.edges()), ColorSystem.free(11)))
    code, out, _ = run_cli(capsys, "family", "recognize", str(f))
    assert code == 2
    assert "not a generalized multi-wheel" in out


def test_family_recognize_prints_a_long_glue_chain(capsys, tmp_path):
    g, p = build(BrokenWheel(2000))
    f = tmp_path / "bw2000.gcg"
    f.write_text(write_gcg(g, PhiAssignment.zero(g.edges()), ColorSystem.free(2000)))
    code, out, _ = run_cli(capsys, "family", "recognize", str(f))
    assert code == 0
    assert out == "(glue " * 1997 + "(broken 3)" + " (broken 3))" * 1997 + "\n"
    assert parse_sexpr(out) == recognize_generalized_multi_wheel(g, p)


def test_check_reports_and_exit_codes(capsys, tmp_path):
    report_path = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys,
        "check",
        "lemma2",
        "--n-max",
        "7",
        "--samples",
        "5",
        "--seed",
        "3",
        "--report",
        str(report_path),
    )
    assert code == 0
    assert out.rstrip().endswith("PASS")
    assert "# seed: 3" in out
    assert report_path.read_text() == out


def test_check_deterministic_across_processes(k3_file, tmp_path, cli_env):
    cmd = [
        sys.executable,
        "-m",
        "z5color.cli",
        "check",
        "theorem4",
        "--n-max",
        "8",
        "--samples",
        "6",
        "--seed",
        "11",
    ]
    body = []
    for jobs in ("1", "4"):
        r = subprocess.run(cmd + ["--jobs", jobs], capture_output=True, text=True, env=cli_env)
        assert r.returncode == 0
        body.append([l for l in r.stdout.splitlines() if not l.startswith("#")])
    assert body[0] == body[1]


def test_usage_errors_exit_one(capsys, k3_file):
    assert main(["count", "/nonexistent/file.gcg"]) == 1
    assert main(["check", "not-a-property"]) == 1
    assert main([]) == 1
    assert main(["extend2", k3_file]) == 1  # no precolored pair in file


@pytest.mark.parametrize("prop", ["lemma1", "theorem4"])
def test_check_below_the_smallest_instance_is_an_error(capsys, prop):
    code, out, err = run_cli(capsys, "check", prop, "--n-max", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "n_max" in err


def test_check_with_negative_samples_is_an_error(capsys):
    code, out, err = run_cli(capsys, "check", "lemma1", "--samples", "-3")
    assert (code, out, err) == (1, "", "error: samples must be at least 0\n")
    code, out, _ = run_cli(capsys, "check", "lemma1", "--samples", "0")
    assert code == 0 and "instances: 0" in out


def test_extend3_budget_exhaustion_is_an_error(capsys, blocked_bw4_file):
    code, out, err = run_cli(capsys, "extend3", blocked_bw4_file, "--budget", "1")
    assert (code, out) == (1, "")
    assert err == "error: obstruction search exceeded its node budget\n"


def test_extend3_rejects_a_tail_head_conflict(capsys, tmp_path):
    # The outer triangle 0-1-2 of K4 colored 0, 1, 0 clashes on 0-2, an
    # edge between the path's ends: invalid input, not an obstruction.
    g, _ = build(Wheel(3))
    cs = ColorSystem.free(4).with_precolor(0, 0).with_precolor(1, 1).with_precolor(2, 0)
    f = tmp_path / "k4.gcg"
    f.write_text(write_gcg(g, PhiAssignment.zero(g.edges()), cs))
    code, out, err = run_cli(capsys, "extend3", str(f))
    assert (code, out) == (1, "")
    assert err == "error: precoloring improper: edge 0-2 conflicts with its label\n"


def test_solver_defects_still_propagate(monkeypatch, blocked_bw4_file):
    def defect(problem, node_budget):
        raise RuntimeError("solver defect")

    monkeypatch.setattr(solver, "extend_three", defect)
    with pytest.raises(RuntimeError, match="solver defect"):
        main(["extend3", blocked_bw4_file])


def test_unreadable_paths_are_errors(capsys, tmp_path):
    code, out, err = run_cli(capsys, "count", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read ")
    latin1 = tmp_path / "latin1.gcg"
    latin1.write_bytes("# café\nn 3\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "count", str(latin1))
    assert (code, out) == (1, "")
    assert err == f"error: {latin1}: not UTF-8 text (byte 5)\n"


@pytest.mark.parametrize("target", ["directory", "missing/report.txt"])
def test_unwritable_report_paths_are_errors(capsys, tmp_path, target):
    # The report is printed before it is written, then the write fails.
    (tmp_path / "directory").mkdir()
    path = tmp_path / target
    code, out, err = run_cli(
        capsys, "check", "theorem4", "--n-max", "5", "--samples", "2",
        "--report", str(path),
    )
    assert code == 1 and out.rstrip().endswith("PASS")
    assert err.startswith(f"error: cannot write {path}: ")


def test_unwritable_certificate_path_is_an_error(capsys, blocked_bw4_file, tmp_path):
    path = tmp_path / "missing" / "cert.gcg"
    code, out, err = run_cli(
        capsys, "extend3", blocked_bw4_file, "--emit-certificate", str(path)
    )
    assert code == 1 and out.startswith("obstruction: (broken 4)")
    assert err.startswith(f"error: cannot write {path}: ")


def test_unreadable_path_is_invalid_for_validate(capsys, tmp_path):
    code, out, err = run_cli(capsys, "validate", str(tmp_path))
    assert (code, err) == (1, "")
    assert out.startswith("invalid: cannot read ")


def _pair_document() -> bytes:
    g, _ = build(Wheel(5))
    cs = (
        ColorSystem.free(6)
        .with_forbidden(2, {2, 3})
        .with_precolor(0, 0)
        .with_precolor(1, 1)
    )
    return write_gcg(g, PhiAssignment.zero(g.edges()), cs).encode()


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutant.gcg"


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(("replace", "delete", "insert")),
            st.integers(0, 10**4),
            st.integers(0, 255),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_byte_mutations_exit_with_a_code(fuzz_file, mutations):
    # Any bytes at all, valid UTF-8 or not: each reader command answers
    # with an exit code and raises nothing.
    data = bytearray(_pair_document())
    for op, i, byte in mutations:
        if op == "insert":
            data.insert(i % (len(data) + 1), byte)
        elif data and op == "replace":
            data[i % len(data)] = byte
        elif data:
            del data[i % len(data)]
    fuzz_file.write_bytes(bytes(data))
    for command in ("validate", "count", "extend2"):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main([command, str(fuzz_file)]) in (0, 1, 2)
