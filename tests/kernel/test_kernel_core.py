"""Direct unit tests for the Kernel object's plumbing."""

import pytest

from repro.errors import Errno, SyscallError
from repro.hw.isa import WaitChannel
from repro.hw.machine import Machine
from repro.kernel.kernel import build_kernel
from repro.kernel.process import ProcState


@pytest.fixture
def kernel():
    return build_kernel(Machine(ncpus=1))


class TestProcessTable:
    def test_create_assigns_increasing_pids(self, kernel):
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        assert b.pid == a.pid + 1

    def test_child_inherits_ids(self, kernel):
        parent = kernel.create_process("p")
        parent.ruid = parent.euid = 7
        child = kernel.create_process("c", parent=parent)
        assert child.euid == 7
        assert child in parent.children

    def test_process_by_pid_unknown(self, kernel):
        with pytest.raises(SyscallError) as exc:
            kernel.process_by_pid(404)
        assert exc.value.errno == Errno.ESRCH

    def test_active_processes_filter(self, kernel):
        proc = kernel.create_process("p")
        assert proc in kernel.active_processes()
        proc.state = ProcState.ZOMBIE
        assert proc not in kernel.active_processes()


class TestChannels:
    def test_wakeup_one_empty_returns_none(self, kernel):
        chan = WaitChannel("empty")
        assert kernel.wakeup_one(chan) is None

    def test_wakeup_all_empty_returns_zero(self, kernel):
        assert kernel.wakeup_all(WaitChannel("empty")) == 0

    def test_shared_channel_identity(self, kernel):
        a = kernel.shared_channel(("obj", 0))
        b = kernel.shared_channel(("obj", 0))
        c = kernel.shared_channel(("obj", 8))
        assert a is b
        assert a is not c

    def test_channel_fifo_and_remove(self):
        chan = WaitChannel("x")
        chan.add("L1")
        chan.add("L2")
        assert chan.remove("L1")
        assert not chan.remove("L1")
        assert chan.pop_first() == "L2"
        assert chan.pop_first() is None


class TestReaping:
    def test_reap_accumulates_child_usage(self, kernel):
        parent = kernel.create_process("p")
        child = kernel.create_process("c", parent=parent)
        from repro.hw.context import Activity

        def idle():
            yield

        lwp = kernel.create_lwp(child, Activity(idle()), runnable=False)
        lwp.user_ns = 5_000
        lwp.system_ns = 1_000
        child.state = ProcState.ZOMBIE
        child.exit_status = 9
        pid, status = kernel.reap(parent, child)
        assert (pid, status) == (child.pid, 9)
        assert parent.child_user_ns == 5_000
        assert parent.child_system_ns == 1_000
        assert child not in parent.children

    def test_exit_process_idempotent(self, kernel):
        proc = kernel.create_process("p")
        kernel.exit_process(proc, 1)
        first_status = proc.exit_status
        kernel.exit_process(proc, 2)  # no effect
        assert proc.exit_status == first_status


class TestDiagnostics:
    def test_idle_complaint_names_sleepers(self, kernel):
        from repro.hw.context import Activity
        from repro.kernel.lwp import LwpState

        proc = kernel.create_process("p")

        def idle():
            yield

        lwp = kernel.create_lwp(proc, Activity(idle()), runnable=False)
        lwp.state = LwpState.SLEEPING
        lwp.channel = WaitChannel("somewhere")
        complaint = kernel._idle_complaint()
        assert complaint is not None
        assert "somewhere" in complaint

    def test_no_complaint_when_everything_exited(self, kernel):
        proc = kernel.create_process("p")
        kernel.exit_process(proc, 0)
        assert kernel._idle_complaint() is None

    def test_syscall_counts_accumulate(self, kernel):
        # The trap counts the call before any handler code runs.
        for _ in range(2):
            kernel.trap(None, "read", (3, 1), {})
        kernel.trap(None, "no_such_call", (), {})
        assert kernel.syscall_counts["read"] == 2
        assert kernel.syscall_counts["no_such_call"] == 1


class TestUnparkHelper:
    def test_unpark_sets_permit_for_non_parked(self, kernel):
        from repro.hw.context import Activity

        proc = kernel.create_process("p")

        def idle():
            yield

        lwp = kernel.create_lwp(proc, Activity(idle()), runnable=False)
        assert kernel.unpark_lwp(lwp) is False
        assert lwp.park_permit
