"""Discrete-event simulation core: clock, events, engine, costs, tracing."""

from repro.sim.clock import (NS_PER_MS, NS_PER_SEC, NS_PER_US, msec, sec,
                             to_usec, usec)
from repro.sim.costs import SPARCSTATION_1PLUS, CostModel, default_cost_model
from repro.sim.engine import Engine
from repro.sim.events import Event, EventQueue
from repro.sim.rng import DeterministicRNG
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "NS_PER_MS", "NS_PER_SEC", "NS_PER_US", "msec", "sec", "to_usec", "usec",
    "SPARCSTATION_1PLUS", "CostModel", "default_cost_model",
    "Engine", "Event", "EventQueue", "DeterministicRNG",
    "TraceRecord", "Tracer",
]
