"""Layer spans recorded from outside the program.

Each public function of plainsphere is wrapped where its caller looks
it up (``plainsphere.cli.parse_pd``, ``plainsphere.engine.omega``, ...),
so the program's code is unchanged and an untraced run pays nothing.
Spans stay in memory as (name, start, end, parent, item, extra) and are
written out once the run ends.  A span's self time is its duration minus
the part its child spans cover; calls are nested and single threaded, so
the children's durations add up to that part.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from importlib import import_module
from math import comb
from time import perf_counter


def sets_below(n: int, k: int) -> int:
    """Seed sets of size under k on n strands: sum C(n, j) for j < k."""
    return sum(comb(n, j) for j in range(k))


def _search_sets(args, result) -> int:
    """Plain search space of one omega or rho call, from its diagram and
    answer; computed, not counted by the program."""
    return sets_below(args[0].n, result[0])


def _moves(args, result) -> int:
    return len(args[1].moves)


# (module, name the module looks up, layer span, what to count per call)
WRAPPED = (
    ("cli", "parse_pd", "diagram.parse_pd", None),
    ("cli", "build_dual", "dual.build_dual", None),
    ("cli", "omega", "engine.omega", _search_sets),
    ("cli", "rho", "engine.rho", _search_sets),
    ("cli", "serialize_certificate", "certificate.serialize", None),
    ("cli", "deserialize_certificate", "certificate.deserialize", None),
    ("cli", "verify", "certificate.verify", _moves),
    ("cli", "ingest", "census.ingest", None),
    ("cli", "run_census", "census.run_census", None),
    ("cli", "write_records", "census.write_records", None),
    ("census", "parse_pd", "diagram.parse_pd", None),
    ("census", "build_dual", "dual.build_dual", None),
    ("census", "omega", "engine.omega", _search_sets),
    ("census", "rho", "engine.rho", _search_sets),
    ("engine", "build_dual", "dual.build_dual", None),
    ("engine", "omega", "engine.omega", _search_sets),
    ("engine", "saturate", "engine.saturate", None),
    ("certificate", "build_dual", "dual.build_dual", None),
)


# Layers whose self time, and whose call count, the traced run reports.
SELF_TIMED = ("cli.main", "diagram.parse_pd", "dual.build_dual",
              "engine.omega", "engine.rho", "engine.saturate",
              "certificate.serialize", "certificate.deserialize",
              "certificate.verify", "census.ingest", "census.run_census",
              "census.write_records")
COUNTED = ("diagram.parse_pd", "dual.build_dual", "engine.omega",
           "engine.rho", "engine.saturate", "certificate.verify")
TREFOIL_SUMS = range(1, 7)


class Tracer:
    """Spans of one traced pass; `item` names the request being served."""

    def __init__(self):
        self.spans: list[list] = []
        self.item: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None,
                          stack[-1] if stack else None, self.item, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if count is not None:
                spans[idx][5] = count(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer function in WRAPPED, restoring them on exit."""
        saved = []
        try:
            for module, attr, name, count in WRAPPED:
                mod = import_module(f"plainsphere.{module}")
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), count))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, item, extra in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and counts per layer for this pass."""
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        extra: Counter = Counter()
        for span, own in zip(self.spans, self.self_times()):
            name, item = span[0], span[4]
            self_s[name] += own
            calls[name] += 1
            if span[5] is not None:
                extra[name] += span[5]
            if name in ("engine.omega", "engine.rho") and item.startswith("trefoil-sum-"):
                self_s[f"{name}.self_s.sum{item.rsplit('-', 1)[1]}"] += own
        out: dict[str, float] = {}
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = self_s[name]
        for name in COUNTED:
            out[f"{name}.calls"] = calls[name]
        for name in ("engine.omega", "engine.rho"):
            for k in TREFOIL_SUMS:
                out[f"{name}.self_s.sum{k}"] = self_s[f"{name}.self_s.sum{k}"]
            out[f"{name}.us_per_set"] = (
                1e6 * self_s[name] / extra[name] if extra[name] else 0.0)
        out["engine.search_sets"] = extra["engine.omega"] + extra["engine.rho"]
        out["certificate.verify.moves"] = extra["certificate.verify"]
        out["certificate.verify.us_per_move"] = (
            1e6 * self_s["certificate.verify"] / extra["certificate.verify"]
            if extra["certificate.verify"] else 0.0)
        return out
