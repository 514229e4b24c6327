"""Span tracing for `run.py --trace 1`.

Each layer function is wrapped at the name its caller looks up, from outside
the package: nothing in `src/` records spans. A span is
(name, start, end, parent index, tag) and spans stay in memory until the run
ends. Wrappers return the wrapped result unchanged and draw no random
numbers; the only thing they read from a result is a count or an outcome tag.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

ROOT_SPAN = "experiments.runner"


def _edge_count(g) -> int:
    return sum(g.edge_count(c) for c in range(g.k))


def _component_count(dec) -> int:
    return sum(dec.size_counts.values())


def _table_k(table) -> int:
    return table.k


def _types_k(phat) -> int:
    return len(phat).bit_length() - 1


def _outcome_tag(out):
    # finite samples are tagged with their friend count, so the traced
    # outcomes can be compared with the run record's histogram
    return out.ell if out.kind == "finite" else out.reason


# (owner, attribute, span name, hook). A hook of "count" only counts calls;
# None records a span; (key, read) also records read(result), added to the
# counter `key`, or kept as the span's tag when key is "tag" (the friend
# count or censoring reason of a sample, k for the analytic tables).
TARGETS = (
    ("caperc.experiments", "sample_ecer", "graph.sample_ecer",
     ("graph.edges", _edge_count)),
    ("caperc.cap", "project", "graph.project", None),
    ("caperc.cap", "connected_components", "graph.connected_components", None),
    ("caperc.cap", "color_avoiding_partition",
     "cap.color_avoiding_partition", None),
    ("caperc.cap.CapDecomposition", "from_graph", "cap.from_graph",
     ("cap.components", _component_count)),
    ("caperc.ecbp.FriendCountSampler", "__init__", "ecbp.sampler_init", None),
    ("caperc.ecbp.FriendCountSampler", "sample", "ecbp.sample",
     ("tag", _outcome_tag)),
    ("caperc.ecbp", "extended_type_distribution",
     "analytic.extended_type_distribution", ("tag", _types_k)),
    ("caperc.analytic", "extended_type_distribution",
     "analytic.extended_type_distribution", ("tag", _types_k)),
    ("caperc.analytic", "solve_p_system", "analytic.solve_p_system",
     ("tag", _table_k)),
    ("caperc.analytic", "f_infinity_generating_function",
     "analytic.f_infinity_generating_function", None),
    ("caperc.analytic", "two_color_f_ell", "analytic.two_color_f_ell", None),
    ("caperc.analytic", "near_critical_constant",
     "analytic.near_critical_constant", None),
    ("caperc.analytic", "lambert_w0", "analytic.lambert_w0", "count"),
)

# per-layer metric -> (span name, statistic); statistics are per traced unit
SPAN_METRICS = {
    "graph.sample_ecer.s": ("graph.sample_ecer", "total"),
    "graph.project.s": ("graph.project", "total"),
    "graph.connected_components.s": ("graph.connected_components", "total"),
    "cap.color_avoiding_partition.self_s":
        ("cap.color_avoiding_partition", "self"),
    "cap.from_graph.self_s": ("cap.from_graph", "self"),
    "ecbp.sampler_init.s": ("ecbp.sampler_init", "total"),
    "analytic.solve_p_system.s": ("analytic.solve_p_system", "total"),
    "analytic.solve_p_system.calls": ("analytic.solve_p_system", "calls"),
    "analytic.extended_type_distribution.s":
        ("analytic.extended_type_distribution", "total"),
    "analytic.f_infinity_generating_function.s":
        ("analytic.f_infinity_generating_function", "total"),
    "analytic.two_color_f_ell.s": ("analytic.two_color_f_ell", "total"),
    "analytic.near_critical_constant.s":
        ("analytic.near_critical_constant", "total"),
    "experiments.runner.self_s": (ROOT_SPAN, "self"),
}
COUNT_METRICS = {
    "graph.edges": "graph.edges",
    "cap.components": "cap.components",
    "analytic.lambert_w0.calls": "analytic.lambert_w0",
}
OUTCOMES = ("finite", "depth-cap", "node-cap")

# every per-layer metric a traced run reports, with its unit
PER_LAYER_UNITS = {
    **{name: "count" if name.endswith(".calls") else "s"
       for name in SPAN_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "ecbp.sample.us_p50": "us",
    "ecbp.sample.us_tail": "us",
    **{f"ecbp.outcome.{o}": "count" for o in OUTCOMES},
    **{f"ecbp.time_share.{o}": "frac" for o in OUTCOMES},
    "ecbp.slow_units.time_share": "frac",
    "trace.overhead_frac": "frac",
}
TAIL_PERCENTILES = (99.999, 99.99, 99.9, 99.0, 90.0, 50.0)


def _resolve(path: str):
    """Import the longest module prefix of a dotted path, then getattr."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(path)


def percentile(sorted_vals: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_vals)))
    return sorted_vals[rank - 1]


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


class Tracer:
    """Installs span wrappers on caperc's layers and derives per-layer
    metrics from the recorded spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.units = 0
        self._stack: list[int] = []
        self._patches = []
        for owner_path, attr, name, hook in TARGETS:
            try:
                owner = _resolve(owner_path)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{owner_path}.{attr}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, hook))
            else:
                wrapped = self._wrap(raw, name, hook)
            self._patches.append((owner, attr, raw, wrapped))

    def _wrap(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        if hook == "count":
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                key, read = hook
                if key == "tag":
                    span[4] = read(out)
                else:
                    counts[key] += read(out)
            return out
        return traced

    def install(self) -> None:
        for owner, attr, _raw, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw, _wrapped in self._patches:
            setattr(owner, attr, raw)

    def run_unit(self, fn, *args):
        """Call fn under the root span; returns (result, index of the first
        span of this unit)."""
        first = len(self.spans)
        self.units += 1
        return self._wrap(fn, ROOT_SPAN, None)(*args), first

    def tags_since(self, first: int) -> Counter:
        return Counter(s[4] for s in self.spans[first:] if s[0] == "ecbp.sample")

    def metrics(self) -> dict[str, float]:
        units = max(self.units, 1)
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent, _tag in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _parent, _tag) in enumerate(self.spans):
            self_time[name] += end - start - child[idx]

        out: dict[str, float] = {}
        for metric, (name, stat) in SPAN_METRICS.items():
            value = {"total": total, "self": self_time, "calls": calls}[stat][name]
            out[metric] = value / units
        for metric, key in COUNT_METRICS.items():
            out[metric] = self.counts[key] / units

        samples = [(s[2] - s[1], s[4]) for s in self.spans if s[0] == "ecbp.sample"]
        durations = sorted(d for d, _tag in samples)
        if durations:
            out["ecbp.sample.us_p50"] = percentile(durations, 50.0) * 1e6
            out["ecbp.sample.us_tail"] = percentile(
                durations, tail_percentile(len(durations))) * 1e6
        else:
            out["ecbp.sample.us_p50"] = out["ecbp.sample.us_tail"] = 0.0
        by_outcome: Counter = Counter()
        time_by_outcome: dict[str, float] = defaultdict(float)
        for dur, tag in samples:
            outcome = "finite" if isinstance(tag, int) else tag
            by_outcome[outcome] += 1
            time_by_outcome[outcome] += dur
        sample_time = sum(time_by_outcome.values())
        for outcome in OUTCOMES:
            out[f"ecbp.outcome.{outcome}"] = by_outcome[outcome] / units
            out[f"ecbp.time_share.{outcome}"] = (
                time_by_outcome[outcome] / sample_time if sample_time else 0.0)
        return out

    def by_tag(self, name: str) -> dict:
        """tag -> (calls, mean seconds) over the spans called `name`."""
        acc: dict = defaultdict(lambda: [0, 0.0])
        for span_name, start, end, _parent, tag in self.spans:
            if span_name == name:
                acc[tag][0] += 1
                acc[tag][1] += end - start
        return {tag: (n, total / n) for tag, (n, total) in sorted(acc.items())}

    def sample_count(self) -> int:
        return sum(1 for s in self.spans if s[0] == "ecbp.sample")
