"""Tests for virtual time conversion (the clock itself is the engine's
``now_ns``: tests/sim/test_engine.py)."""

from repro.sim.clock import NS_PER_US, msec, sec, to_usec, usec


class TestConversions:
    def test_usec_is_exact_integer_ns(self):
        assert usec(1) == 1_000
        assert usec(56) == 56_000

    def test_usec_fractional(self):
        assert usec(0.5) == 500
        assert usec(58.5) == 58_500

    def test_msec_and_sec(self):
        assert msec(1) == 1_000_000
        assert sec(1) == 1_000_000_000

    def test_roundtrip(self):
        assert to_usec(usec(348)) == 348.0

    def test_ns_per_us_constant(self):
        assert NS_PER_US == 1_000
