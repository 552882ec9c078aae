"""Per-layer tracing from outside the package.

The tracer replaces each listed public function with a wrapper in every
``dynmono`` module namespace that holds it (``hull``, for one, is bound in
``cascade``, ``cli``, ``constructors`` and ``exact``).  A stack of open
frames gives each call its parent, so self time is the call's duration
minus the time of its traced children.  Every call is aggregated per
(name, parent); calls outside ``HOT`` also leave one span record each.  The
hot leaves, about 0.3M ``hull`` calls per exact-small pass, are aggregated
only.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter

LAYERS = {
    "cli": ("main",),
    "graphs": (
        "parse_graph",
        "serialize_graph",
        "from_edges",
        "connected_components",
        "girth",
        "girth_at_least_five",
        "induced_subgraph",
    ),
    "generators": ("prufer_decode", "random_girth5"),
    "cascade": ("hull", "check_thresholds", "is_monopoly"),
    "constructors": ("greedy_kernel", "girth5_construct", "tree_construct", "abw_construct", "v2_baseline"),
    "exact": ("min_monopoly_exact", "abw_bound"),
    "bench": ("run_bench", "load_config", "write_csv"),
}

HOT = frozenset({"cascade.hull", "cascade.check_thresholds", "cascade.is_monopoly"})


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# The input size of a call: the order of its graph, or the n a generator was asked for.
SIZE_OF = {
    "generators.prufer_decode": lambda a, k: _arg(a, k, 1, "n"),
    "generators.random_girth5": lambda a, k: _arg(a, k, 0, "n"),
    "graphs.girth": lambda a, k: _arg(a, k, 0, "g").n,
    "constructors.tree_construct": lambda a, k: _arg(a, k, 0, "t").n,
    "constructors.greedy_kernel": lambda a, k: _arg(a, k, 0, "g").n,
    "cascade.hull": lambda a, k: _arg(a, k, 0, "g").n,
}


def _girth5_result(counts, ms):
    counts["constructors.girth5.rounds"] += len(ms.trace.rounds)
    counts["constructors.girth5.attempts"] += ms.trace.restarts + 1


def _bench_result(counts, result):
    counts["bench.cells"] += len(result.rows)
    counts["bench.skipped"] += len(result.skipped)


# Counts read off return values.
OBSERVE = {
    "exact.min_monopoly_exact": lambda counts, r: counts.update({"exact.nodes_explored": r.nodes_explored}),
    "constructors.girth5_construct": _girth5_result,
    "bench.run_bench": _bench_result,
}

# Metrics whose value is t(2n)/t(n) of a function's self time.
X2 = (
    "generators.prufer_decode",
    "generators.random_girth5",
    "graphs.girth",
    "constructors.tree_construct",
    "constructors.greedy_kernel",
)

ROOT = "-"


class Tracer:
    """Install with ``install(modules)``, run, read ``metrics``, ``reset`` between passes."""

    def __init__(self):
        self.stack: list[list] = [[ROOT, 0.0, -1]]  # [name, child seconds, span id]
        self.agg: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, total s, self s, size sum]
        self.sized: dict[tuple[str, int], float] = {}  # (name, input size) -> self s
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # (id, name, parent id, start, end, self s)
        self._ids = itertools.count()
        self._saved: list[tuple] = []

    def reset(self) -> None:
        del self.stack[1:]
        self.stack[0][1] = 0.0
        self.agg.clear()
        self.sized.clear()
        self.counts.clear()
        self.spans.clear()

    def _wrap(self, name, fn):
        stack, agg, sized, spans, ids = self.stack, self.agg, self.sized, self.spans, self._ids
        clock = time.perf_counter
        hot = name in HOT
        size_of = SIZE_OF.get(name)
        observe = OBSERVE.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, parent[2] if hot else next(ids)]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                self_s = dt - frame[1]
                key = (name, parent[0])
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += self_s
                if size_of is not None:
                    size = size_of(args, kwargs)
                    rec[3] += size
                    sized[(name, size)] = sized.get((name, size), 0.0) + self_s
                if not hot:
                    spans.append((frame[2], name, parent[2], t0, t0 + dt, self_s))
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every LAYERS function wherever a ``dynmono`` module binds it."""
        for short, names in LAYERS.items():
            for fname in names:
                orig = getattr(modules[short], fname)
                traced = self._wrap(f"{short}.{fname}", orig)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, traced)
                            self._saved.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _sum(self, name, field, parent=None) -> float:
        return sum(r[field] for (n, p), r in self.agg.items() if n == name and (parent is None or p == parent))

    def x2(self, name, pair) -> float:
        """Self time at the larger rung over self time at the smaller; 0 when either is missing."""
        if pair is None:
            return 0.0
        lo, hi = self.sized.get((name, pair[0]), 0.0), self.sized.get((name, pair[1]), 0.0)
        return hi / lo if lo > 0 and hi > 0 else 0.0

    def metrics(self, x2_pair, x2_names) -> dict[str, float]:
        """Per-layer values of the pass just traced; x2 metrics only for ``x2_names``."""
        s, c = self._sum, self.counts
        out: dict[str, float] = {}
        for short, names in LAYERS.items():
            for fname in names:
                out[f"{short}.{fname}.self_s"] = s(f"{short}.{fname}", 2)
        for name in X2:
            out[f"{name}.x2"] = self.x2(name, x2_pair) if name in x2_names else 0.0
        hull_calls = s("cascade.hull", 0)
        out.update(
            {
                "graphs.girth_at_least_five.calls": s("graphs.girth_at_least_five", 0),
                "graphs.induced_subgraph.calls": s("graphs.induced_subgraph", 0),
                "graphs.parse_graph.calls": s("graphs.parse_graph", 0),
                "graphs.connected_components.calls": s("graphs.connected_components", 0),
                "constructors.greedy_kernel.hull_calls": s("cascade.hull", 0, "constructors.greedy_kernel"),
                "constructors.girth5_construct.hull_calls": s("cascade.hull", 0, "constructors.girth5_construct"),
                "constructors.girth5.rounds": c["constructors.girth5.rounds"],
                "constructors.girth5.attempts": c["constructors.girth5.attempts"],
                "cascade.hull.calls": hull_calls,
                "cascade.hull.us_per_call": 1e6 * s("cascade.hull", 1) / hull_calls if hull_calls else 0.0,
                "cascade.hull.vertices": s("cascade.hull", 3),
                "exact.nodes_explored": c["exact.nodes_explored"],
                "exact.hull_calls": s("cascade.hull", 0, "exact.min_monopoly_exact"),
                "bench.cells": c["bench.cells"],
                "bench.skipped": c["bench.skipped"],
                "bench.verify_s": s("cascade.is_monopoly", 1, "bench.run_bench"),
            }
        )
        return out

    def dump(self) -> dict:
        """Spans and aggregates of the pass just traced, as JSON-ready data."""
        return {
            "spans": [
                {"id": i, "name": n, "parent": p, "start": t0, "end": t1, "self_s": st}
                for i, n, p, t0, t1, st in self.spans
            ],
            "aggregates": [
                {"name": n, "parent": p, "calls": r[0], "total_s": r[1], "self_s": r[2], "size_sum": r[3]}
                for (n, p), r in sorted(self.agg.items())
            ],
            "by_size": [
                {"name": n, "size": k, "self_s": v} for (n, k), v in sorted(self.sized.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }
