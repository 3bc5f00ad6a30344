"""Span tracing of ``z5color`` layers, applied from outside the package.

``Tracer.install`` replaces each traced public function at every module
binding that holds it, including ``from .x import y`` copies such as
``solver.built_family`` or ``propcheck.count_colorings``, so a call is
recorded whichever module it goes through.  ``uninstall`` puts the original
objects back.  Spans (name, start, end, parent, note) are kept in memory;
``layer_stats`` turns them into per-function call counts, self times and
median durations.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from contextlib import contextmanager

# (module, function) pairs, named as ``<module>.<function>`` in the metrics.
# ``first_coloring`` is traced rather than the ``enumerate_colorings``
# generator, whose span would close before any work is done.
TRACED = (
    ("solver", "marginal_counts"),
    ("solver", "count_colorings"),
    ("solver", "first_coloring"),
    ("solver", "extend_two"),
    ("solver", "color_short_cycle"),
    ("solver", "extend_three"),
    ("solver", "lemma1_failure_table"),
    ("families", "built_family"),
    ("gcg", "parse_gcg"),
    ("plane_graph", "validate"),
    ("group_color", "is_proper"),
    ("propcheck", "replay"),
)

TRACED_NAMES = tuple(f"{m}.{f}" for m, f in TRACED)


def _note(name: str, result):
    """Small per-call outcome kept on the span for the ratio metrics."""
    if name == "solver.marginal_counts":
        return (len(result), sum(1 for v in result.values() if v))
    if name == "families.built_family":
        return len(result)
    if name in ("solver.color_short_cycle", "solver.extend_three"):
        return "coloring" if isinstance(result, tuple) else type(result).__name__
    return None


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1, note].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, end: float, note) -> None:
        span = self.spans[idx]
        span[2] = end
        span[4] = note
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (an operation, set-up)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, time.perf_counter(), None)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, time.perf_counter(), "raise:" + type(exc).__name__)
                raise
            end = time.perf_counter()
            self._close(idx, end, _note(name, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = {m: importlib.import_module(f"z5color.{m}") for m, _ in TRACED}
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "z5color" or key.startswith("z5color."))
        ]
        for mod_name, fn_name in TRACED:
            fn = getattr(owners[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()


def layer_stats(spans: list[list], keep) -> dict[str, dict]:
    """Per traced function: calls, self seconds (span minus child spans),
    inclusive durations and notes, over spans whose index passes ``keep``."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    stats = {name: {"calls": 0, "self_s": 0.0, "durations": [], "notes": []}
             for name in TRACED_NAMES}
    for i, (name, start, end, _, note) in enumerate(spans):
        if name not in stats or not keep(i):
            continue
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child[i]
        entry["durations"].append(end - start)
        entry["notes"].append(note)
    return stats


def function_metrics(stats: dict[str, dict]) -> dict[str, float]:
    out = {}
    for name, entry in stats.items():
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
        durations = entry["durations"]
        out[f"{name}.p50_us"] = statistics.median(durations) * 1e6 if durations else 0.0
    return out
