"""One fresh benchmark process for one workload.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE

Modes:

- ``setup``: import, generate the inputs from the seed, warm up each
  operation kind once, print ``SETUP_DONE`` with the set-up time (scaled,
  then as measured) and exit.
- ``run``: the same set-up, then whole passes over the operations until
  ``--seconds`` have elapsed (at least one pass); check every answer and
  print a JSON report as the last line.
- ``trace``: set-up under the tracer, then a warm-up pass, one untraced
  pass and one traced pass over the same operations (or, for a workload
  that gives every pass new inputs, the same operation keys); report
  per-layer metrics and check that the traced pass fails and answers
  exactly as the untraced one.

The program under test is imported from ``src/`` of this checkout and from
nowhere else; without it the worker exits non-zero.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_DONE = "SETUP_DONE"
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many samples beyond it
# Times are CPU time of this single-threaded process, which does no I/O:
# on an idle machine that equals wall time, and on a shared one it leaves out
# the time the process waits while other tenants run.  The speed the process
# gets while it runs still changes by up to half over minutes on a shared
# host, so every time is also scaled to a reference speed: multiplied by
# REF_NOMINAL_S over the mean CPU time of ``reference_loop`` in the same
# run, sampled at least every REF_EVERY_S of work (the mean, not the median,
# because the host flips between a fast and a slow speed and the mean follows
# the share of time spent in each).
CLOCK = time.process_time
REF_NOMINAL_S = 1e-3
REF_EVERY_S = 0.25


class OperationTimeout(Exception):
    """An operation used up its CPU time limit."""


def _timeout(signum, frame):
    raise OperationTimeout()


@contextmanager
def time_limit(seconds: float | None):
    """Raise OperationTimeout in the running operation after ``seconds``
    of process CPU time."""
    if seconds is None:
        yield
        return
    previous = signal.signal(signal.SIGPROF, _timeout)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def reference_loop() -> int:
    """Fixed pure-Python dict and tuple traffic, like the solvers' own."""
    table: dict[tuple[int, int], int] = {}
    for i in range(2800):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    return sum(k[0] * v for k, v in table.items())


def reference_time() -> float:
    best = float("inf")
    for _ in range(3):
        t0 = CLOCK()
        reference_loop()
        best = min(best, CLOCK() - t0)
    return best


def import_program() -> None:
    sys.path.insert(0, str(SRC))
    import z5color

    if not Path(z5color.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"z5color was imported from {z5color.__file__}, not from {SRC}")


class Pass:
    """Outcome of whole passes over a workload's operations."""

    def __init__(self, wl, shift: int = 0) -> None:
        """For a workload with ``pass_ops``, pass p runs ``pass_ops(shift +
        p)``, so that Pass objects with shifts far enough apart never run the
        same inputs; shift 0 starts with ``wl.ops``."""
        self.wl = wl
        self.shift = shift
        ops = self.ops = wl.ops if wl.pass_ops is None or shift == 0 else wl.pass_ops(shift)
        self.times: list[float] = []  # scaled to the reference speed
        self.raw_times: list[float] = []  # CPU seconds as measured
        self.errors = 0  # attempts that raised
        self.passes = 0
        self.first_out: list = [None] * len(ops)
        self.first_canon: list[str] = [""] * len(ops)
        # Later attempts: on new inputs, checked as they come; on the first
        # pass's inputs, compared with its canonical answer.
        self.later_wrong = 0
        self.canon_changed = 0
        self.repeats = [0] * len(ops)  # same answer as the first pass

    def run(self, seconds: float | None = None, passes: int | None = None, tracer=None) -> None:
        """Whole passes until ``seconds`` of wall time have elapsed (at
        least one), or exactly ``passes`` passes."""
        refs = [reference_time()]
        since_ref = 0.0
        start = time.perf_counter()
        while True:
            first = self.passes == 0
            new_inputs = not first and self.wl.pass_ops is not None
            ops = self.wl.pass_ops(self.shift + self.passes) if new_inputs else self.ops
            for i, op in enumerate(ops):
                t0 = CLOCK()
                try:
                    span = tracer.span("op." + op.kind) if tracer else nullcontext()
                    with time_limit(op.limit_s), span:
                        out = op.call()
                    err = None
                except Exception as exc:  # a raising operation is a failed one
                    out, err = None, type(exc).__name__
                dt = CLOCK() - t0
                self.raw_times.append(dt)
                since_ref += dt
                if since_ref >= REF_EVERY_S:
                    refs.append(reference_time())
                    since_ref = 0.0
                canon = "raise:" + err if err else op.canon(out)
                if first:
                    self.first_out[i] = (out, err)
                    self.first_canon[i] = canon
                if err:
                    self.errors += 1
                elif first:
                    pass  # checked by ``check`` after the loop
                elif new_inputs:
                    self.later_wrong += bool(op.check(out))
                elif canon != self.first_canon[i]:
                    self.canon_changed += 1
                else:
                    self.repeats[i] += 1
            self.passes += 1
            if passes is not None:
                if self.passes >= passes:
                    break
            elif time.perf_counter() - start >= seconds:
                break
        refs.append(reference_time())
        self.reference_s = statistics.fmean(refs)
        self.times = [dt * REF_NOMINAL_S / self.reference_s for dt in self.raw_times]

    def per_op_times(self, raw: bool = False) -> list[float]:
        """Each operation's median time over the passes.  The percentiles
        are taken over these, one sample per operation, so that they do
        not depend on how many passes fitted into the run."""
        times = self.raw_times if raw else self.times
        n = len(self.ops)
        return [statistics.median(times[i::n]) for i in range(n)]

    def check(self) -> tuple[list[str], int]:
        """Problems with first-pass answers, and the number of failed
        attempts: each that raised, answered wrongly, or gave another
        canonical answer than the first pass on the same inputs."""
        problems = []
        self.verdicts = []
        failed = self.errors + self.later_wrong + self.canon_changed
        for op, (out, err), repeats in zip(self.ops, self.first_out, self.repeats):
            found = [] if err else op.check(out)
            self.verdicts.append("wrong" if found else "checked")
            problems += [f"{op.key}: {p}" for p in found]
            if found:
                failed += 1 + repeats
        return problems, failed

    def digest(self, extra_answers: list[str]) -> str:
        """Hash of the canonical answers and their verdicts (call after
        ``check``), plus the workload's extra answers."""
        lines = sorted(
            f"{op.key}\t{canon}\t{verdict}"
            for op, canon, verdict in zip(self.ops, self.first_canon, self.verdicts)
        ) + sorted(extra_answers)
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def outcome(self) -> dict[str, str | None]:
        return {op.key: err for op, (_, err) in zip(self.ops, self.first_out)}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; the largest sample if there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup(workload: str, seed: int):
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    keys = [op.key for op in wl.ops]
    if len(set(keys)) != len(keys):
        raise SystemExit("operation keys are not unique")
    for op in wl.warmup_ops():
        op.call()
    return wl


def run_mode(wl, seconds: float) -> dict:
    gc.collect()
    measured = Pass(wl)
    measured.run(seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, answers = wl.extra()
    op_problems, failed = measured.check()
    problems = op_problems + problems
    attempted = len(measured.times)
    per_op = measured.per_op_times()
    tail_ms, tail_pct = tail(per_op)
    ok = attempted - failed
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems[:20],
        "answers_digest": measured.digest(answers),
        "passes": measured.passes,
        "ops_per_pass": len(wl.ops),
        "op_tail_percentile": tail_pct,
        "op_tail_samples": len(per_op),
        "unscaled": {
            "reference_loop_ms": measured.reference_s * 1e3,
            "ops_per_s": ok / sum(measured.raw_times),
            "op_p50_ms": statistics.median(measured.per_op_times(raw=True)) * 1e3,
            "op_tail_ms": tail(measured.per_op_times(raw=True))[0] * 1e3,
        },
        "metrics": {
            "ops_per_s": ok / sum(measured.times),
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_tail_ms": tail_ms * 1e3,
            "failed_share": failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        },
    }


def trace_mode(workload: str, seed: int) -> dict:
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("setup"):
        wl = setup(workload, seed)
    setup_end = len(tracer.spans)

    # A warm-up pass, so that both measured passes find warm caches.  Where
    # the workload gives every pass new inputs, each of the three passes gets
    # its own (shifts 1, 2 and 3), so that none of them meets a graph again.
    Pass(wl, shift=1).run(passes=1)
    plain = Pass(wl, shift=2)
    gc.collect()
    plain.run(passes=1)
    traced = Pass(wl, shift=3)
    gc.collect()
    with tracer.installed():
        traced.run(passes=1, tracer=tracer)

    problems, answers = wl.extra()
    _, plain_failed = plain.check()
    traced_problems, traced_failed = traced.check()
    plain_digest, traced_digest = plain.digest(answers), traced.digest(answers)
    matches = plain_failed == traced_failed and plain_digest == traced_digest

    spans = tracer.spans
    pass_spans = range(setup_end, len(spans))
    stats = tracing.layer_stats(spans, lambda i: i >= setup_end)
    setup_stats = tracing.layer_stats(spans, lambda i: i < setup_end)
    metrics = tracing.function_metrics(stats)
    metrics.update(ratio_metrics(spans, setup_end, stats, setup_stats))
    metrics.update(rung_metrics(plain))
    metrics["trace.overhead"] = sum(traced.times) / sum(plain.times)
    metrics["trace.matches_untraced"] = int(matches)

    base, mismatches = wl.baseline({
        "spans": spans,
        "pass_spans": pass_spans,
        "metrics": metrics,
        "outcome": plain.outcome(),
        "traced": tracer.installed,
    })
    metrics.update(base)
    metrics["baseline.mismatches"] = len(mismatches)

    attempted = len(traced.times)
    all_problems = traced_problems + problems
    if not matches:
        all_problems.append(
            f"traced pass differs from untraced: failed {traced_failed} vs {plain_failed}, "
            f"digest {traced_digest[:12]} vs {plain_digest[:12]}"
        )
    write_spans(workload, seed, spans)
    return {
        "attempted": attempted,
        "failed": traced_failed,
        "correct": not all_problems,
        "problems": all_problems[:20],
        "answers_digest": traced_digest,
        "untraced_answers_digest": plain_digest,
        "failed_share": traced_failed / attempted,
        "untraced_failed_share": plain_failed / len(plain.times),
        "baseline_mismatches": mismatches,
        "metrics": metrics,
    }


def ratio_metrics(spans, setup_end, stats, setup_stats) -> dict[str, float]:
    def share(entry, note) -> float:
        return entry["notes"].count(note) / entry["calls"] if entry["calls"] else 0.0

    out = {}
    mc = stats["solver.marginal_counts"]
    entries = sum(n[0] for n in mc["notes"])
    out["solver.marginal_counts.entries"] = entries
    out["solver.marginal_counts.nonzero_share"] = (
        sum(n[1] for n in mc["notes"]) / entries if entries else 0.0
    )
    for name in ("solver.first_coloring", "solver.extend_two"):
        out[f"{name}.raised"] = sum(
            1 for n in stats[name]["notes"] if isinstance(n, str) and n.startswith("raise:")
        )
    out["solver.color_short_cycle.hub_share"] = share(stats["solver.color_short_cycle"], "HubException")
    e3 = stats["solver.extend_three"]
    out["solver.extend_three.certificate_share"] = share(e3, "ObstructionCertificate")
    # Nested count_colorings calls per certificate found: the obstruction
    # search's attempts per useful outcome.
    certs = e3["notes"].count("ObstructionCertificate")
    counts_under_certs = 0
    for name, _, _, parent, _ in spans[setup_end:]:
        if name != "solver.count_colorings":
            continue
        while parent >= 0 and spans[parent][0] != "solver.extend_three":
            parent = spans[parent][3]
        if parent >= 0 and spans[parent][4] == "ObstructionCertificate":
            counts_under_certs += 1
    out["solver.extend_three.counts_per_certificate"] = counts_under_certs / certs if certs else 0.0
    bf_setup = setup_stats["families.built_family"]
    out["families.built_family.members"] = sum(bf_setup["notes"]) + sum(stats["families.built_family"]["notes"])
    out["families.built_family.setup_s"] = sum(bf_setup["durations"])
    return out


def rung_metrics(plain: Pass) -> dict[str, float]:
    """Per-rung seconds of the untraced pass and the log-log slope of each
    (function, graph) ladder over the rungs from SLOPE_MIN_N up that
    succeeded."""
    import workloads
    from spec import SLOPE_MIN_N

    out = {}
    ladders: dict[tuple[str, str], list] = {}
    for op, dt, (_, err) in zip(plain.ops, plain.times, plain.first_out):
        if op.rung is None:
            continue
        fn, graph, n = op.rung
        out[f"solver.{fn}.{graph}-{n}.s"] = dt
        if err is None and n >= SLOPE_MIN_N:
            ladders.setdefault((fn, graph), []).append((n, dt))
    for (fn, graph), points in ladders.items():
        out[f"solver.{fn}.{graph}.slope"] = workloads.slope(points)
    return out


def write_spans(workload: str, seed: int, spans) -> None:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "note"], "spans": spans}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    # Reference samples before and after set-up; their own CPU time is
    # taken out of the set-up time.
    t0 = time.process_time()
    refs = [reference_time() for _ in range(5)]
    sampling_cpu = time.process_time() - t0
    import_program()
    if args.mode == "trace":
        report = trace_mode(args.workload, args.seed)
    else:
        wl = setup(args.workload, args.seed)
        setup_cpu = time.process_time() - sampling_cpu  # since the process started
        refs += [reference_time() for _ in range(5)]
        scaled = setup_cpu * REF_NOMINAL_S / statistics.fmean(refs)
        print(SETUP_DONE, scaled, setup_cpu, flush=True)
        if args.mode == "setup":
            return 0
        report = run_mode(wl, args.seconds)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
