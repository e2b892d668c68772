"""The metrics registry: counters, gauges, and log2-bucket histograms.

Design rules (see docs/OBSERVABILITY.md):

* **Virtual time only.**  Every duration fed to a histogram is a
  difference of ``engine.now_ns`` values — integers of simulated
  nanoseconds.  No host clock ever leaks in, so a seeded run produces
  the same numbers on any machine, any day.

* **Zero-cost when disabled.**  The registry attaches to the engine as
  ``engine.metrics`` (default ``None``); every instrumentation site is::

      m = engine.metrics
      if m is not None:
          m.count("syscall.count.read")

  — one attribute load and an ``is None`` test, the same price as the
  tracer's ``want_<cat>`` gates (ARCHITECTURE §10).

* **Passive when enabled.**  Hooks read the clock and update dicts; they
  never push events, charge time, or emit trace records.  Enabling
  metrics therefore cannot change virtual-time results or trace digests.

* **Bit-reproducible output.**  Histograms bucket by ``value.bit_length()``
  (fixed log2 boundaries, no float math on the hot path) and keep exact
  integer count/sum/min/max.  Snapshots contain only ints and strings,
  serialized with sorted keys — byte-identical across repeated runs.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.analysis.metrics import percentile_weighted


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-value-wins integer, tracking its high-water mark."""

    __slots__ = ("value", "max")

    def __init__(self):
        self.value = 0
        self.max = 0

    def set(self, v: int) -> None:
        self.value = v
        if v > self.max:
            self.max = v


class Histogram:
    """Fixed log2-bucket histogram over non-negative integers.

    Bucket index is ``value.bit_length()``: bucket 0 holds exactly the
    value 0, bucket b >= 1 covers ``[2**(b-1), 2**b)``.  Buckets are a
    sparse dict, so an idle histogram costs four ints and an empty dict.
    Exact ``count``/``total``/``min``/``max`` ride alongside, so the mean
    is exact even though percentiles are bucket-resolution (reported at
    the bucket's inclusive upper bound ``2**b - 1``).
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max = 0
        self.buckets: dict[int, int] = {}

    def observe(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        b = value.bit_length()
        self.buckets[b] = self.buckets.get(b, 0) + 1

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile at bucket resolution.

        Buckets report at their inclusive upper bound ``2**b - 1``,
        clamped into the exact observed ``[min, max]`` range so the
        summary can never claim a percentile outside the data.
        """
        if not self.count:
            return 0
        est = int(percentile_weighted(
            [((1 << b) - 1 if b else 0, c)
             for b, c in self.buckets.items()], p))
        lo = self.min if self.min is not None else 0
        return max(lo, min(self.max, est))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.min is not None else 0,
            "max": self.max,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "buckets": {str(b): self.buckets[b]
                        for b in sorted(self.buckets)},
        }


class MetricKeys(dict):
    """Metric names of one family, each built once per label.

    ``keys[label]`` is ``build(label)``, computed the first time the label
    is seen and a plain dict hit after that, so an instrumentation site
    that runs on every event indexes a module-level instance instead of
    formatting an f-string per call::

        _ONCPU = MetricKeys("sched.oncpu_ns.{}".format)
        m.observe(_ONCPU[cls], span)

    The names are exactly what the f-string would give.
    """

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, label) -> str:
        key = self[label] = self.build(label)
        return key


class MetricsRegistry:
    """Named counters/gauges/histograms behind dotted hierarchical keys.

    Names are plain dotted strings (``syscall.latency_ns.read``,
    ``sync.mutex.hold_ns.w3.m``); the registry imposes no schema — the
    instrumentation sites in each layer own their namespaces
    (docs/OBSERVABILITY.md catalogues them all).
    """

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------- hot helpers

    def count(self, name: str, n: int = 1) -> None:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter()
        c.value += n

    def observe(self, name: str, value: int) -> None:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram()
        h.observe(value)

    def sample(self, name: str, value: int) -> None:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge()
        g.set(value)

    # --------------------------------------------------------- accessors

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram()
        return h

    # -------------------------------------------------------- attachment

    def attach(self, engine) -> "MetricsRegistry":
        """Install this registry as ``engine.metrics``; returns self."""
        engine.metrics = self
        return self

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    # ----------------------------------------------------------- exports

    def snapshot(self) -> dict:
        """One nested dict of everything, deterministically ordered."""
        return {
            "counters": {k: self.counters[k].value
                         for k in sorted(self.counters)},
            "gauges": {k: {"value": g.value, "max": g.max}
                       for k, g in sorted(self.gauges.items())},
            "histograms": {k: self.histograms[k].snapshot()
                           for k in sorted(self.histograms)},
        }

    def to_json(self) -> str:
        """Byte-reproducible JSON rendering of :meth:`snapshot`."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=2)

    def render_text(self) -> str:
        """Deterministic fixed-format text rendering (procfs-friendly)."""
        lines = []
        for name in sorted(self.counters):
            lines.append(f"counter {name} {self.counters[name].value}")
        for name in sorted(self.gauges):
            g = self.gauges[name]
            lines.append(f"gauge {name} {g.value} max={g.max}")
        for name in sorted(self.histograms):
            h = self.histograms[name]
            mn = h.min if h.min is not None else 0
            lines.append(
                f"histogram {name} count={h.count} total={h.total} "
                f"min={mn} mean={h.mean:.1f} p50={h.percentile(50)} "
                f"p99={h.percentile(99)} max={h.max}")
        return "\n".join(lines) + ("\n" if lines else "")
