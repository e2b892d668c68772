"""Kernel scheduling: dispatcher, run queues, pluggable class policies."""

from repro.kernel.sched.dispatcher import Dispatcher
from repro.kernel.sched.policy import (CfsPolicy, GangGroup, GangPolicy,
                                       HrrPolicy, MlfqPolicy,
                                       RealtimePolicy, SchedClassTable,
                                       SchedPolicy, SjfPolicy,
                                       TimesharePolicy)
from repro.kernel.sched.runqueue import RunQueue

__all__ = [
    "GangGroup", "Dispatcher", "RunQueue",
    "SchedPolicy", "SchedClassTable",
    "TimesharePolicy", "RealtimePolicy", "GangPolicy",
    "CfsPolicy", "MlfqPolicy", "SjfPolicy", "HrrPolicy",
]
