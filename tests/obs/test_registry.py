"""Unit tests for the metrics registry primitives."""

from repro.api import Simulator
from repro.hw.isa import Charge
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.runtime import unistd
from repro.sim.clock import usec


class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_tracks_high_water_mark(self):
        g = Gauge()
        g.set(3)
        g.set(7)
        g.set(2)
        assert g.value == 2
        assert g.max == 7


class TestHistogramBuckets:
    def test_zero_lands_in_bucket_zero(self):
        h = Histogram()
        h.observe(0)
        assert h.buckets == {0: 1}

    def test_bucket_b_covers_half_open_power_range(self):
        # bucket b (>= 1) covers [2**(b-1), 2**b): check both edges.
        h = Histogram()
        for v in (1, 2, 3, 4, 7, 8, 1023, 1024):
            h.observe(v)
        assert h.buckets == {1: 1, 2: 2, 3: 2, 4: 1, 10: 1, 11: 1}

    def test_exact_stats_ride_alongside(self):
        h = Histogram()
        for v in (10, 20, 90):
            h.observe(v)
        assert (h.count, h.total, h.min, h.max) == (3, 120, 10, 90)
        assert h.mean == 40.0

    def test_empty_histogram(self):
        h = Histogram()
        assert h.mean == 0.0
        assert h.percentile(50) == 0
        snap = h.snapshot()
        assert snap["count"] == 0 and snap["min"] == 0


class TestHistogramPercentiles:
    def test_percentile_clamped_into_observed_range(self):
        # A single observation of 20000 sits in bucket 15 (upper bound
        # 32767); the summary must still never exceed the true max.
        h = Histogram()
        h.observe(20_000)
        assert h.percentile(50) == 20_000
        assert h.percentile(99) == 20_000

    def test_percentile_clamped_to_min(self):
        h = Histogram()
        h.observe(5)
        h.observe(5)
        assert h.percentile(0) == 5

    def test_percentile_orders_buckets(self):
        h = Histogram()
        for _ in range(99):
            h.observe(1)          # bucket 1, upper bound 1
        h.observe(1_000_000)      # bucket 20
        assert h.percentile(50) == 1
        assert h.percentile(100) == 1_000_000


class TestRegistry:
    def test_hot_helpers_create_on_first_use(self):
        reg = MetricsRegistry()
        reg.count("a.b")
        reg.count("a.b", 2)
        reg.observe("h", 5)
        reg.sample("g", 9)
        assert reg.counters["a.b"].value == 3
        assert reg.histograms["h"].count == 1
        assert reg.gauges["g"].max == 9

    def test_snapshot_is_sorted_and_json_stable(self):
        reg = MetricsRegistry()
        reg.count("z.last")
        reg.count("a.first")
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a.first", "z.last"]
        assert reg.to_json() == reg.to_json()

    def test_render_text_fixed_format(self):
        reg = MetricsRegistry()
        reg.count("c", 2)
        reg.observe("h", 4)
        text = reg.render_text()
        assert "counter c 2" in text
        assert ("histogram h count=1 total=4 min=4 mean=4.0 "
                "p50=4 p99=4 max=4") in text

    def test_attach_installs_on_engine(self):
        sim = Simulator(ncpus=1)
        assert sim.engine.metrics is None
        reg = MetricsRegistry().attach(sim.engine)
        assert sim.engine.metrics is reg

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.count("c")
        reg.observe("h", 1)
        reg.reset()
        assert not reg.counters and not reg.histograms


class TestSimulatorIntegration:
    def test_metrics_true_builds_registry(self):
        sim = Simulator(ncpus=1, metrics=True)
        assert sim.metrics is sim.engine.metrics
        assert isinstance(sim.metrics, MetricsRegistry)

    def test_explicit_registry_accepted(self):
        reg = MetricsRegistry()
        sim = Simulator(ncpus=1, metrics=reg)
        assert sim.metrics is reg

    def test_default_is_disabled(self):
        sim = Simulator(ncpus=1)
        assert sim.metrics is None
        assert sim.engine.metrics is None


def _metered_run(main):
    sim = Simulator(ncpus=1, metrics=True)
    sim.spawn(main)
    sim.run()
    return sim.metrics


def _busy_ns(reg: MetricsRegistry) -> int:
    return sum(c.value for name, c in reg.counters.items()
               if name.startswith("sched.oncpu_ns_by_lwp."))


class TestOnCpuByLwp:
    """``sched.oncpu_ns_by_lwp.*``: per-LWP busy time, recorded live."""

    def test_busy_time_tracks_compute(self):
        def main():
            yield Charge(usec(5_000))

        assert _busy_ns(_metered_run(main)) >= usec(5_000)

    def test_sleep_gap_not_busy(self):
        def main():
            yield Charge(usec(1_000))
            yield from unistd.sleep_usec(50_000)
            yield Charge(usec(1_000))

        # The 50 ms sleep is off-CPU.
        assert _busy_ns(_metered_run(main)) < usec(10_000)


class TestSyscallLatency:
    """``syscall.latency_ns.<name>``: entry-to-return latency."""

    def test_nanosleep_latency_measured(self):
        def main():
            yield from unistd.sleep_usec(20_000)

        h = _metered_run(main).histograms["syscall.latency_ns.nanosleep"]
        assert h.count == 1
        assert h.mean >= usec(20_000)

    def test_trivial_syscall_cheap(self):
        def main():
            yield from unistd.getpid()

        h = _metered_run(main).histograms["syscall.latency_ns.getpid"]
        assert h.mean <= usec(100)
