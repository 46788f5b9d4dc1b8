"""Spans and counters around the calls into each primechain module.

Tracing is done from the benchmark's side: ``Tracer.install`` replaces the
public functions named in SPANS and COUNTERS with timing wrappers, so the
library itself carries no instrumentation.

* A span records name, start, end, parent and whether the call raised.
  Spans are kept in memory and written out by ``write``.
* A counter aggregates calls, items and seconds of a hot boundary (the
  factorizations under the tree statistics, the hashing under the walk),
  where a span per call would cost more than the call.

``layer_metrics`` turns both into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    ok: bool = True

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Counter:
    calls: int = 0
    items: int = 0
    seconds: float = 0.0


def _targets():
    from primechain import brw, chains, cli, dickman, pratt, sieve, sifted, singular

    # (owner, attribute, span name); classes are patched on the class so
    # that every caller, the CLI included, goes through the wrapper
    spans = [
        (cli, "main", "cli.main"),
        (sieve.SpfTable, "__init__", "sieve.build"),
        (pratt, "range_stats", "pratt.range_stats"),
        (chains, "n_identity_check", "chains.identity"),
        (chains, "enumerate_from", "chains.enumerate"),
        (brw, "median_bn_detail", "brw.minima"),
        (brw, "estimate_mean_z", "brw.zcount"),
        (brw, "estimate_mean_t_epsilon", "brw.teps"),
        (brw, "rde_iterate", "brw.rde"),
        # no metric of its own; it keeps cli.self_s to the CLI's own work
        (sifted, "chain_count_bound", "sifted.bound"),
        (sifted, "build_matrix", "sifted.build"),
        (sifted, "perron_eigenvalue", "sifted.perron"),
        (singular, "singular_series", "singular.series"),
        (dickman.RhoTable, "__init__", "dickman.table"),
        (dickman, "rho_independent", "dickman.independent"),
    ]
    # brw imports the rng functions by name, so the brw->rng boundary is
    # brw's own binding of them
    counters = [
        (sieve.SpfTable, "factorize", "sieve.factorize"),
        (brw, "stream_draw", "rng.draw"),
        (brw, "mix64", "rng.draw"),
        (brw, "replicate_keys", "rng.draw"),
    ]
    return spans, counters


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = {}
        self.values: dict[str, float] = {}  # results read off return values
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, ok: bool = True) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        span.ok = ok
        self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def _note(self, key: str, value: float, keep=max) -> None:
        self.values[key] = keep(self.values[key], value) if key in self.values else value

    def _observe(self, name: str, args, out) -> None:
        """Read the layer quantities that live in return values."""
        if name == "sieve.build":
            self._note("sieve.table_mb", sum(s.nbytes for s in args[0].segments) / 2**20)
        elif name == "pratt.range_stats":
            self._note("pratt.node_total", out.n_total)
            self._note("pratt.primes", out.prime_count, keep=lambda a, b: a + b)
        elif name == "chains.enumerate":
            self._note("chains.count", out.total)
        elif name == "brw.minima":
            self._note("brw.censor_frac", out.censor_rate)
            self._note("brw.replicates", out.replicates, keep=lambda a, b: a + b)
        elif name == "sifted.build":
            self._note("sifted.matrix_mb", out.entries.nbytes / 2**20)

    def _span_wrapper(self, orig, name):
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                out = orig(*args, **kwargs)
            except BaseException:
                self.close(index, ok=False)
                raise
            self.close(index)
            self._observe(name, args, out)
            return out

        return wrapper

    def _counter_wrapper(self, orig, name, attr):
        counter = self.counters.setdefault(name, Counter())
        draw = attr == "stream_draw"

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = orig(*args, **kwargs)
            counter.seconds += perf_counter() - t0
            counter.calls += 1
            counter.items += getattr(out, "size", 1)
            if draw and self.current() != "brw.rde":
                # _next_generation draws stick t at index 2t+1 and the
                # child keys of the kept sticks at index 2t+2
                key = "brw.stick_draws" if args[1] % 2 else "brw.rows"
                self.values[key] = self.values.get(key, 0) + args[0].size
            return out

        return wrapper

    def install(self) -> None:
        spans, counters = _targets()
        for owner, attr, name in spans:
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name))
        for owner, attr, name in counters:
            self._patch(owner, attr, self._counter_wrapper(getattr(owner, attr), name, attr))

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "ok": s.ok}) + "\n")
            for name, c in sorted(self.counters.items()):
                fh.write(json.dumps({"counter": name, "calls": c.calls, "items": c.items, "seconds": c.seconds}) + "\n")

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Duration of the ``name`` spans minus the time their children cover."""
        total = 0.0
        for i, s in enumerate(self.spans):
            if s.name == name:
                total += s.seconds - sum(c.seconds for c in self.spans if c.parent == i)
        return total

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the two the caller adds
        (``fail_frac`` and ``trace.overhead_s``); 0 where a layer is idle."""
        v = self.values
        fact = self.counters.get("sieve.factorize", Counter())
        draw = self.counters.get("rng.draw", Counter())
        range_s = self.total("pratt.range_stats")
        minima_s = self.total("brw.minima")
        walk_s = minima_s + self.total("brw.zcount") + self.total("brw.teps")
        rows = v.get("brw.rows", 0)

        def rate(n, s):
            return n / s if s > 0 else 0.0

        return {
            "sieve.build_s": self.total("sieve.build"),
            "sieve.table_mb": v.get("sieve.table_mb", 0.0),
            "sieve.factorize_calls": fact.calls,
            "sieve.factorize_s": fact.seconds,
            "pratt.range_stats_s": range_s,
            "pratt.primes_per_s": rate(v.get("pratt.primes", 0), range_s),
            "pratt.mass_s": self.total("pratt.mass"),
            "pratt.node_total": v.get("pratt.node_total", 0),
            "chains.identity_s": self.total("chains.identity"),
            "chains.enumerate_s": self.total("chains.enumerate"),
            "chains.count": v.get("chains.count", 0),
            "brw.minima_s": minima_s,
            "brw.replicates_per_s": rate(v.get("brw.replicates", 0), minima_s),
            "brw.censor_frac": v.get("brw.censor_frac", 0.0),
            "brw.zcount_s": self.total("brw.zcount"),
            "brw.teps_s": self.total("brw.teps"),
            "brw.rde_s": self.total("brw.rde"),
            "brw.rows": rows,
            "brw.stick_draws": v.get("brw.stick_draws", 0),
            "brw.rows_per_s": rate(rows, walk_s),
            "rng.draw_calls": draw.calls,
            "rng.draw_words": draw.items,
            "rng.draw_s": draw.seconds,
            "rng.words_per_s": rate(draw.items, draw.seconds),
            "sifted.build_s": self.total("sifted.build"),
            "sifted.perron_s": self.total("sifted.perron"),
            "sifted.failed": sum(1 for s in self.spans if s.name.startswith("sifted.") and not s.ok),
            "sifted.matrix_mb": v.get("sifted.matrix_mb", 0.0),
            "singular.series_s": self.total("singular.series"),
            "dickman.table_s": self.total("dickman.table"),
            "dickman.independent_s": self.total("dickman.independent"),
            "cli.self_s": self.self_time("cli.main"),
        }
