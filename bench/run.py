"""The z5color benchmark: one seeded workload, answers checked, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload is set up ``SETUP_REPEATS`` times, each in
a fresh process (the package's ``lru_cache``s would otherwise hide family
construction), and measured in the last of them; the end-to-end metrics are
printed.  With ``--trace 1`` one fresh process runs the workload untraced
and traced and the per-layer metrics are printed.  Load comes from one
process with one thread at a time.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it is the full report (context, answers digest,
``failed_share``, tail percentile, baseline mismatches), which is also
written to ``.bench_out/``.  Any failure to run exits non-zero without a
result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from spec import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402

SETUP_REPEATS = 3
DEADLINE_S = 170.0  # the whole run, so that it exits within 180 s


class BenchError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> tuple[list[float] | None, dict | None]:
    """Run one worker; return (its SETUP_DONE times, its report)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    setup_s, last = None, None
    try:
        for line in proc.stdout:
            if line.startswith("SETUP_DONE"):
                scaled, cpu = map(float, line.split()[1:])
                setup_s = [scaled, cpu, time.perf_counter() - start]
            elif line.strip():
                last = line
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return setup_s, (json.loads(last) if last else None)


def context(seed: int, seconds: float) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "seconds": seconds,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="z5color benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "z5color").is_dir():
        print(f"no z5color sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        if args.trace:
            _, report = spawn(base + ["--mode", "trace"], deadline)
            names = PER_LAYER
        else:
            setups = [spawn(base + ["--mode", "setup"], deadline)[0] for _ in range(SETUP_REPEATS - 1)]
            setup_s, report = spawn(base + ["--mode", "run"], deadline)
            setups.append(setup_s)
            report["setup_samples"] = {
                key: [sample[i] for sample in setups]
                for i, key in enumerate(("scaled_s", "cpu_s", "wall_s"))
            }
            report["metrics"]["setup_s"] = statistics.median(report["setup_samples"]["scaled_s"])
            names = END_TO_END
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    if report is None:
        print("worker printed no report", file=sys.stderr)
        return 1

    metrics = report["metrics"]
    unknown = set(metrics) - set(names) - {"failed_share"}
    missing = set(names) - set(metrics)
    for name in missing:
        metrics[name] = 0
    if unknown:
        print(f"metrics not in the benchmark spec: {sorted(unknown)}", file=sys.stderr)
        return 1
    report["workload"] = args.workload
    report["trace"] = args.trace
    report["context"] = context(args.seed, args.seconds)
    if "op_tail_percentile" in report:
        report["context"]["op_tail_percentile"] = report["op_tail_percentile"]
        report["context"]["op_tail_samples"] = report["op_tail_samples"]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )
    print(json.dumps(report))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
