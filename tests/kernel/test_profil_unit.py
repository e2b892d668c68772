"""Unit tests for profiling buffers and LWP/stack bookkeeping helpers."""

import pytest

from repro.hw.isa import Charge, GetContext
from repro.kernel.lwp import Lwp, LwpState, SchedClass
from repro.kernel.profil import ProfilingBuffer, ProfilingState
from repro.runtime import unistd
from repro.sim.clock import usec
from repro.threads.stack import DEFAULT_STACK_SIZE, Stack, StackAllocator
from tests.conftest import run_program


class TestProfilingBuffer:
    def test_record_accumulates(self):
        buf = ProfilingBuffer()
        buf.record("hot", 100)
        buf.record("hot", 50)
        buf.record("cold", 10)
        assert buf.samples["hot"] == 150
        assert buf.total_ns == 160

    def test_top_orders_by_heat(self):
        buf = ProfilingBuffer()
        buf.record("a", 10)
        buf.record("b", 99)
        assert buf.top(1) == [("b", 99)]

    def test_top_ties_deterministic(self):
        buf = ProfilingBuffer()
        buf.record("b", 10)
        buf.record("a", 10)
        assert buf.top(2) == [("a", 10), ("b", 10)]


class TestProfilingState:
    def _lwp(self):
        class FakeProc:
            pid = 1
        lwp = Lwp(1, FakeProc(), activity=None)
        return lwp

    def test_disabled_state_records_nothing(self):
        buf = ProfilingBuffer()
        state = ProfilingState(buf)
        state.enabled = False
        state.accumulate(self._lwp(), 100)
        assert buf.total_ns == 0

    def test_inherit_shares_buffer(self):
        state = ProfilingState(ProfilingBuffer())
        child = state.inherit()
        assert child.buffer is state.buffer
        assert child.enabled

    def test_keyed_by_activity_name(self):
        from repro.hw.context import Activity

        def gen():
            yield

        lwp = self._lwp()
        lwp.current_activity = Activity(gen(), name="worker-activity")
        buf = ProfilingBuffer()
        ProfilingState(buf).accumulate(lwp, 77)
        assert buf.samples["worker-activity"] == 77


class TestStackAllocator:
    def test_default_allocation_counts_bytes(self):
        alloc = StackAllocator()
        stack = alloc.allocate()
        assert stack.size == DEFAULT_STACK_SIZE
        assert alloc.allocated_bytes == DEFAULT_STACK_SIZE

    def test_cache_roundtrip(self):
        alloc = StackAllocator()
        stack = alloc.allocate()
        alloc.release(stack)
        assert alloc.cached_count == 1
        again = alloc.allocate()
        assert again is stack
        assert alloc.cache_hits == 1

    def test_custom_size_not_cached(self):
        alloc = StackAllocator()
        big = alloc.allocate(stack_size=1 << 20)
        alloc.release(big)
        assert alloc.cached_count == 0
        assert alloc.allocated_bytes == 0  # returned to the heap

    def test_caller_supplied_never_cached(self):
        alloc = StackAllocator()
        user = alloc.allocate(stack_addr=0x1000, stack_size=4096)
        assert user.caller_supplied
        alloc.release(user)
        assert alloc.cached_count == 0

    def test_caller_stack_requires_size(self):
        with pytest.raises(ValueError):
            StackAllocator().allocate(stack_addr=0x1000)

    def test_cache_limit_respected(self):
        alloc = StackAllocator(cache_limit=2)
        stacks = [alloc.allocate() for _ in range(4)]
        for s in stacks:
            alloc.release(s)
        assert alloc.cached_count == 2


class TestLwpUnit:
    def _lwp(self):
        class FakeProc:
            pid = 9
        return Lwp(3, FakeProc(), activity=None)

    def test_name_and_repr(self):
        lwp = self._lwp()
        assert lwp.name == "lwp-9.3"
        assert "lwp-9.3" in repr(lwp)

    def test_effective_priority_by_class(self):
        lwp = self._lwp()
        lwp.priority = 10
        ts = lwp.effective_priority
        lwp.sched_class = SchedClass.REALTIME
        assert lwp.effective_priority > ts

    def test_accounting_splits_user_system(self):
        """The CPU books a user-mode charge as the LWP's user time and a
        system call (entry, service, exit) as its system time."""
        books = []

        def main():
            ctx = yield GetContext()
            lwp = ctx.lwp
            books.append((lwp.user_ns, lwp.system_ns, lwp.cpu_ns))
            yield Charge(usec(100))
            yield from unistd.getpid()
            books.append((lwp.user_ns, lwp.system_ns, lwp.cpu_ns))

        run_program(main)
        (user0, sys0, cpu0), (user1, sys1, cpu1) = books
        assert user1 - user0 == usec(100)
        assert sys1 - sys0 == usec(15 + 5 + 15)
        assert cpu1 - cpu0 == usec(135)

    def test_indefinite_block_flag(self):
        lwp = self._lwp()
        assert not lwp.is_blocked_indefinitely()
        lwp.state = LwpState.SLEEPING
        lwp.sleep_indefinite = True
        assert lwp.is_blocked_indefinitely()

    def test_preemptible_by_class(self):
        lwp = self._lwp()
        assert lwp.preemptible
        lwp.sched_class = SchedClass.REALTIME
        assert not lwp.preemptible
