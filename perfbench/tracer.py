"""Layer tracing from outside the package: spans around its public functions.

Each traced function is replaced, at every module attribute of the package
that holds it, by a wrapper that opens a span. Spans nest through a stack,
so every span knows its parent. When a span closes, its self time (its
duration minus the durations of its direct children) is added to its
name, and its duration to the parent -> child edge. Spans are aggregated as
they close rather than stored, because a traced period walk or trace table
can open millions of them.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# Layer metric name -> (module, attribute) of the function it wraps.
TRACED = {
    "numtheory.factorize": ("numtheory", "factorize"),
    "numtheory.mult_order": ("numtheory", "mult_order"),
    "numtheory.divisors": ("numtheory", "divisors"),
    "numtheory.euler_phi": ("numtheory", "euler_phi"),
    "expansion.expand": ("expansion", "expand"),
    "expansion.factor_out_base": ("expansion", "factor_out_base"),
    "expansion.reduce_coprime": ("expansion", "reduce_coprime"),
    "expansion.period_digits": ("expansion", "period_digits"),
    "expansion.period_digits_reversed": ("expansion", "period_digits_reversed"),
    "digits.to_digit_string": ("digits", "to_digit_string"),
    "graph.census": ("graph", "census"),
    "graph.cycle_length_of": ("graph", "cycle_length_of"),
    "graph.build_graph": ("graph", "build_graph"),
    "export.format_expansion": ("export", "format_expansion"),
    "export.trace_table": ("export", "trace_table"),
    "export.graph_to_dot": ("export", "graph_to_dot"),
    "export.graph_to_json": ("export", "graph_to_json"),
    "export.cycle_table": ("export", "cycle_table"),
}


def _package_modules(package: str) -> list:
    return [m for name, m in list(sys.modules.items()) if name == package or name.startswith(package + ".")]


class Tracer:
    """Span recorder; `enabled` is switched off while outputs are checked."""

    def __init__(self) -> None:
        self.enabled = False
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], float] = defaultdict(float)
        self.max_n = 0
        self.period_digits = 0
        self.vertices = 0
        self.export_bytes = 0
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, child_duration]
        self._saved: list[tuple] = []

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "numtheory.factorize" and args:
            self.max_n = max(self.max_n, args[0])
        elif name == "expansion.period_digits":
            self.period_digits += len(result)
        elif name == "graph.build_graph":
            self.vertices += len(result.successor)
        if name.startswith("export.") and isinstance(result, str):
            self.export_bytes += len(result.encode())

    def wrap(self, name: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                self.edges[(parent[0] if parent else "request", name)] += duration
            self._observe(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "radixgraph") -> None:
        """Wrap every TRACED function wherever the package binds it."""
        modules = _package_modules(package)
        for name, (module, attr) in TRACED.items():
            home = sys.modules.get(f"{package}.{module}")
            original = getattr(home, attr, None) if home else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._saved.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()


class CacheCounter:
    """Hits and misses summed over every lru_cache in one module, counted
    from creation or the last reset().

    clear() banks the counters before emptying the caches, so the totals
    survive the cold starts of census_wide.
    """

    def __init__(self, module) -> None:
        self.caches = [v for v in vars(module).values() if hasattr(v, "cache_info") and hasattr(v, "cache_clear")]
        self._banked = [0, 0]
        self._base = self._live()

    def _live(self) -> tuple[int, int]:
        hits = misses = 0
        for c in self.caches:
            info = c.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    def totals(self) -> tuple[int, int]:
        hits, misses = self._live()
        return self._banked[0] + hits - self._base[0], self._banked[1] + misses - self._base[1]

    def reset(self) -> None:
        """Count from zero from now on, without emptying the caches."""
        self._banked = [0, 0]
        self._base = self._live()

    def clear(self) -> None:
        hits, misses = self.totals()
        for c in self.caches:
            c.cache_clear()
        self._banked = [hits, misses]
        self._base = (0, 0)
