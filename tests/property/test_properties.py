"""Property-based tests (hypothesis) on core invariants.

These exercise the data structures and the full scheduler under random
inputs/schedules, asserting invariants the architecture promises:
mutual exclusion, semaphore conservation, event ordering, sigset algebra,
run-queue priority discipline, and deterministic replay.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernel.signals import (SIG_BLOCK, SIG_SETMASK, SIG_UNBLOCK,
                                  UNBLOCKABLE, Sig, Sigset)
from repro.sim.events import EventQueue

SIGS = st.sampled_from([s for s in Sig])
SIGSETS = st.lists(SIGS, max_size=8).map(Sigset)

# Simulator-heavy property tests reuse one machine shape; silence the
# too-slow health check, these are discrete-event runs, not flaky IO.
SIM_SETTINGS = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


class TestSigsetAlgebra:
    @given(SIGSETS, SIGSETS)
    def test_union_is_superset(self, a, b):
        u = a.union(b)
        for s in Sig:
            assert (s in u) == ((s in a) or (s in b))

    @given(SIGSETS, SIGSETS)
    def test_difference_removes_exactly(self, a, b):
        d = a.difference(b)
        for s in Sig:
            assert (s in d) == ((s in a) and (s not in b))

    @given(SIGSETS, SIGSETS)
    def test_block_then_unblock_restores(self, base, delta):
        masked = base.apply(SIG_BLOCK, delta)
        restored = masked.apply(SIG_UNBLOCK, delta)
        for s in Sig:
            if s in UNBLOCKABLE:
                continue
            if s in base and s not in delta:
                assert s in restored
            if s not in base:
                assert s not in restored

    @given(SIGSETS)
    def test_setmask_never_blocks_kill_stop(self, new):
        result = Sigset().apply(SIG_SETMASK, new)
        assert Sig.SIGKILL not in result
        assert Sig.SIGSTOP not in result

    @given(SIGSETS)
    def test_copy_equal_but_independent(self, a):
        b = a.copy()
        assert a == b
        had = Sig.SIGHUP in a
        b.add(Sig.SIGHUP)
        assert (Sig.SIGHUP in a) == had  # mutating the copy left a alone


class TestEventQueueOrdering:
    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=200))
    def test_pops_sorted_stable(self, times):
        q = EventQueue()
        for i, t in enumerate(times):
            q.push(t, lambda: None, tag=str(i))
        popped = []
        while (ev := q.pop()) is not None:
            popped.append((ev.time_ns, int(ev.tag)))
        assert popped == sorted(popped)

    @given(st.lists(st.tuples(st.integers(0, 1000), st.booleans()),
                    min_size=1, max_size=100))
    def test_cancelled_never_pop(self, entries):
        q = EventQueue()
        events = []
        for t, cancel in entries:
            ev = q.push(t, lambda: None)
            if cancel:
                ev.cancel()
            events.append((ev, cancel))
        popped = set()
        while (ev := q.pop()) is not None:
            popped.add(id(ev))
        for ev, cancelled in events:
            assert (id(ev) in popped) == (not cancelled)


    @given(st.lists(st.one_of(
        st.tuples(st.just("push"), st.integers(0, 50)),
        st.tuples(st.just("cancel"), st.integers(0, 1_000)),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("pop_next"), st.integers(0, 50))),
        max_size=150))
    def test_interleaved_ops_pop_in_time_seq_order(self, ops):
        """Any interleaving of pushes, cancels (of queued or already
        popped events) and pops: every pop yields the least live
        ``(time, seq)``, and len()/bool() count exactly the live ones."""
        q = EventQueue()
        pushed = []
        live = set()
        for op, arg in ops:
            if op == "push":
                ev = q.push(arg, lambda: None)
                pushed.append(ev)
                live.add((ev.time_ns, ev.seq))
            elif op == "cancel":
                if pushed:
                    ev = pushed[arg % len(pushed)]
                    ev.cancel()
                    live.discard((ev.time_ns, ev.seq))
            elif op == "pop":
                ev = q.pop()
                if live:
                    first = min(live)
                    assert (ev.time_ns, ev.seq) == first
                    live.remove(first)
                else:
                    assert ev is None
            else:
                t, ev = q.pop_next(until_ns=arg)
                if not live:
                    assert (t, ev) == (None, None)
                elif min(live)[0] > arg:
                    assert (t, ev) == (min(live)[0], None)
                else:
                    first = min(live)
                    assert (t, ev.time_ns, ev.seq) == (first[0], *first)
                    live.remove(first)
            assert len(q) == len(live)
            assert bool(q) == bool(live)


class TestRunQueueDiscipline:
    @given(st.lists(st.integers(min_value=0, max_value=59),
                    min_size=1, max_size=60))
    def test_always_pops_max_priority(self, prios):
        from repro.kernel.sched.runqueue import RunQueue

        class L:
            def __init__(self, p):
                self.effective_priority = p
                self.bound_cpu = None

        q = RunQueue()
        for p in prios:
            q.insert(L(p))
        out = []
        while True:
            lwp = q.pick(lambda l: True)
            if lwp is None:
                break
            out.append(lwp.effective_priority)
        assert out == sorted(prios, reverse=True)


class TestMutexExclusionProperty:
    @SIM_SETTINGS
    @given(n_threads=st.integers(2, 6), iters=st.integers(1, 4),
           seed=st.integers(0, 10_000), ncpus=st.integers(1, 4))
    def test_never_two_inside(self, n_threads, iters, seed, ncpus):
        from repro.api import Simulator
        from repro.sync import Mutex
        from repro import threads
        from repro.hw.isa import Charge
        from repro.sim.clock import usec

        state = {"inside": 0, "violation": False, "done": 0}

        def worker(m):
            import random
            rng = random.Random(seed)
            for _ in range(iters):
                yield from m.enter()
                state["inside"] += 1
                if state["inside"] > 1:
                    state["violation"] = True
                yield Charge(usec(rng.randint(1, 100)))
                yield from threads.thread_yield()
                state["inside"] -= 1
                yield from m.exit()
            state["done"] += 1

        def main():
            yield from threads.thread_setconcurrency(min(ncpus, 3))
            m = Mutex()
            tids = []
            for _ in range(n_threads):
                tid = yield from threads.thread_create(
                    worker, m, flags=threads.THREAD_WAIT)
                tids.append(tid)
            for tid in tids:
                yield from threads.thread_wait(tid)

        sim = Simulator(ncpus=ncpus, seed=seed)
        sim.spawn(main)
        sim.run()
        assert not state["violation"]
        assert state["done"] == n_threads


class TestSemaphoreConservation:
    @SIM_SETTINGS
    @given(producers=st.integers(1, 3), consumers=st.integers(1, 3),
           items=st.integers(1, 8), ncpus=st.integers(1, 2))
    def test_tokens_conserved(self, producers, consumers, items, ncpus):
        from repro.api import Simulator
        from repro.sync import Semaphore
        from repro import threads

        total = producers * items
        state = {"consumed": 0}

        def producer(s):
            for _ in range(items):
                yield from s.v()
                yield from threads.thread_yield()

        def consumer(args):
            s, quota = args
            for _ in range(quota):
                yield from s.p()
                state["consumed"] += 1

        def main():
            s = Semaphore()
            quotas = [total // consumers] * consumers
            quotas[0] += total - sum(quotas)
            tids = []
            for q in quotas:
                tid = yield from threads.thread_create(
                    consumer, (s, q), flags=threads.THREAD_WAIT)
                tids.append(tid)
            for _ in range(producers):
                tid = yield from threads.thread_create(
                    producer, s, flags=threads.THREAD_WAIT)
                tids.append(tid)
            for tid in tids:
                yield from threads.thread_wait(tid)
            assert s.value == 0

        sim = Simulator(ncpus=ncpus)
        sim.spawn(main)
        sim.run()
        assert state["consumed"] == total


class TestRwlockProperty:
    @SIM_SETTINGS
    @given(readers=st.integers(1, 4), writers=st.integers(1, 3),
           ncpus=st.integers(1, 2), seed=st.integers(0, 1000))
    def test_no_reader_writer_overlap(self, readers, writers, ncpus,
                                      seed):
        from repro.api import Simulator
        from repro.sync import RW_READER, RW_WRITER, RwLock
        from repro import threads

        state = {"r": 0, "w": 0, "bad": False}

        def check():
            if state["w"] > 1 or (state["w"] and state["r"]):
                state["bad"] = True

        def reader(rw):
            for _ in range(3):
                yield from rw.enter(RW_READER)
                state["r"] += 1
                check()
                yield from threads.thread_yield()
                state["r"] -= 1
                yield from rw.exit()

        def writer(rw):
            for _ in range(2):
                yield from rw.enter(RW_WRITER)
                state["w"] += 1
                check()
                yield from threads.thread_yield()
                state["w"] -= 1
                yield from rw.exit()

        def main():
            rw = RwLock()
            tids = []
            for _ in range(readers):
                tid = yield from threads.thread_create(
                    reader, rw, flags=threads.THREAD_WAIT)
                tids.append(tid)
            for _ in range(writers):
                tid = yield from threads.thread_create(
                    writer, rw, flags=threads.THREAD_WAIT)
                tids.append(tid)
            for tid in tids:
                yield from threads.thread_wait(tid)

        sim = Simulator(ncpus=ncpus, seed=seed)
        sim.spawn(main)
        sim.run()
        assert not state["bad"]


class TestDeterministicReplay:
    @SIM_SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_same_seed_same_final_time(self, seed):
        from repro.api import Simulator
        from repro.workloads import database

        def once():
            main, res = database.build(n_records=4, n_processes=2,
                                       n_threads=2, txns_per_thread=3,
                                       seed=seed)
            sim = Simulator(ncpus=2, seed=seed)
            sim.spawn(main)
            sim.run()
            return res["elapsed_usec"], res["committed"]

        assert once() == once()


class TestMemoryCells:
    @given(st.lists(st.tuples(st.integers(0, 500),
                              st.integers(-5, 5)), max_size=50))
    def test_cells_independent(self, writes):
        """Writing one cell never disturbs another."""
        from repro.hw.memory import MemoryObject
        obj = MemoryObject(4096)
        mirror = {}
        for offset, value in writes:
            obj.store_cell(offset, value)
            mirror[offset] = value
        for offset, value in mirror.items():
            assert obj.load_cell(offset) == value
