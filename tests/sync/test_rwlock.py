"""Tests for readers/writer locks: sharing, exclusion, downgrade,
tryupgrade, writer preference.

Every test runs against both variants: each class below builds a private
lock, and its ``...Shared`` subclass at the end of the file reruns it on
a process-shared lock whose cells live in a mapped file.
"""

import pytest

from repro.errors import SyncError
from repro.runtime import mapped
from repro.sync import RW_READER, RW_WRITER, RwLock, THREAD_SYNC_SHARED
from repro import threads
from tests.conftest import run_program


def new_rwlock(shared: bool):
    """Generator: a fresh lock of the chosen variant (the shared one over
    four cells of a mapped file, as in test_shared_sync.py)."""
    if not shared:
        return RwLock()
    region = yield from mapped.map_shared_file("/tmp/rwlock", 4096)
    return RwLock(THREAD_SYNC_SHARED,
                  cells=tuple(region.cell(off) for off in (0, 8, 16, 24)))


class TestBasics:
    shared = False

    def test_multiple_readers_share(self):
        def main():
            rw = yield from new_rwlock(self.shared)
            yield from rw.enter(RW_READER)

            def reader(_):
                ok = yield from rw.tryenter(RW_READER)
                assert ok
                yield from rw.exit()

            tid = yield from threads.thread_create(
                reader, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid)
            yield from rw.exit()

        run_program(main)

    def test_writer_excludes_readers(self):
        def main():
            rw = yield from new_rwlock(self.shared)
            yield from rw.enter(RW_WRITER)

            def reader(_):
                ok = yield from rw.tryenter(RW_READER)
                assert not ok

            tid = yield from threads.thread_create(
                reader, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid)
            yield from rw.exit()

        run_program(main)

    def test_writer_excludes_writers(self):
        def main():
            rw = yield from new_rwlock(self.shared)
            yield from rw.enter(RW_WRITER)

            def other(_):
                ok = yield from rw.tryenter(RW_WRITER)
                assert not ok

            tid = yield from threads.thread_create(
                other, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid)
            yield from rw.exit()

        run_program(main)

    def test_readers_exclude_writer(self):
        def main():
            rw = yield from new_rwlock(self.shared)
            yield from rw.enter(RW_READER)

            def writer(_):
                ok = yield from rw.tryenter(RW_WRITER)
                assert not ok

            tid = yield from threads.thread_create(
                writer, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid)
            yield from rw.exit()

        run_program(main)

    def test_exit_without_hold_raises(self):
        def main():
            rw = yield from new_rwlock(self.shared)
            with pytest.raises(SyncError):
                yield from rw.exit()

        run_program(main)

    def test_blocked_writer_proceeds_after_readers_leave(self):
        order = []

        def writer(rw):
            yield from rw.enter(RW_WRITER)
            order.append("writer-in")
            yield from rw.exit()

        def main():
            rw = yield from new_rwlock(self.shared)
            yield from rw.enter(RW_READER)
            tid = yield from threads.thread_create(
                writer, rw, flags=threads.THREAD_WAIT)
            yield from threads.thread_yield()
            order.append("reader-out")
            yield from rw.exit()
            yield from threads.thread_wait(tid)

        run_program(main)
        assert order == ["reader-out", "writer-in"]


class TestWriterPreference:
    shared = False

    def test_new_readers_queue_behind_waiting_writer(self):
        order = []

        def writer(rw):
            yield from rw.enter(RW_WRITER)
            order.append("writer")
            yield from rw.exit()

        def late_reader(rw):
            yield from rw.enter(RW_READER)
            order.append("late-reader")
            yield from rw.exit()

        def main():
            rw = yield from new_rwlock(self.shared)
            yield from rw.enter(RW_READER)
            w = yield from threads.thread_create(
                writer, rw, flags=threads.THREAD_WAIT)
            yield from threads.thread_yield()      # writer now waits
            r = yield from threads.thread_create(
                late_reader, rw, flags=threads.THREAD_WAIT)
            yield from threads.thread_yield()      # late reader must queue
            yield from rw.exit()
            yield from threads.thread_wait(w)
            yield from threads.thread_wait(r)

        run_program(main)
        assert order == ["writer", "late-reader"]


class TestDowngradeUpgrade:
    shared = False

    def test_downgrade_keeps_read_access(self):
        def main():
            rw = yield from new_rwlock(self.shared)
            yield from rw.enter(RW_WRITER)
            yield from rw.downgrade()
            assert rw.state == "readers:1"

            def reader(_):
                ok = yield from rw.tryenter(RW_READER)
                assert ok
                yield from rw.exit()

            tid = yield from threads.thread_create(
                reader, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid)
            yield from rw.exit()

        run_program(main)

    def test_downgrade_by_non_writer_raises(self):
        def main():
            rw = yield from new_rwlock(self.shared)
            yield from rw.enter(RW_READER)
            with pytest.raises(SyncError):
                yield from rw.downgrade()
            yield from rw.exit()

        run_program(main)

    def test_downgrade_wakes_pending_readers(self):
        """"If there are no waiting writers it wakes up any pending
        readers."""
        got = []

        def reader(rw):
            yield from rw.enter(RW_READER)
            got.append("reader-in")
            yield from rw.exit()

        def main():
            rw = yield from new_rwlock(self.shared)
            yield from rw.enter(RW_WRITER)
            tid = yield from threads.thread_create(
                reader, rw, flags=threads.THREAD_WAIT)
            yield from threads.thread_yield()  # reader blocks
            yield from rw.downgrade()
            yield from threads.thread_wait(tid)
            yield from rw.exit()

        run_program(main)
        assert got == ["reader-in"]

    def test_tryupgrade_sole_reader_succeeds(self):
        def main():
            rw = yield from new_rwlock(self.shared)
            yield from rw.enter(RW_READER)
            ok = yield from rw.tryupgrade()
            assert ok
            assert rw.state == "writer"
            yield from rw.exit()

        run_program(main)

    def test_tryupgrade_fails_with_other_readers(self):
        def main():
            rw = yield from new_rwlock(self.shared)
            yield from rw.enter(RW_READER)

            def second(_):
                yield from rw.enter(RW_READER)
                ok = yield from rw.tryupgrade()
                assert not ok
                yield from rw.exit()

            tid = yield from threads.thread_create(
                second, None, flags=threads.THREAD_WAIT)
            yield from threads.thread_wait(tid)
            yield from rw.exit()

        run_program(main)

    def test_tryupgrade_fails_with_waiting_writer(self):
        def writer(rw):
            yield from rw.enter(RW_WRITER)
            yield from rw.exit()

        def main():
            rw = yield from new_rwlock(self.shared)
            yield from rw.enter(RW_READER)
            tid = yield from threads.thread_create(
                writer, rw, flags=threads.THREAD_WAIT)
            yield from threads.thread_yield()  # writer queues
            ok = yield from rw.tryupgrade()
            assert not ok
            yield from rw.exit()
            yield from threads.thread_wait(tid)

        run_program(main)

    def test_tryupgrade_without_read_lock_raises(self):
        def main():
            rw = yield from new_rwlock(self.shared)
            with pytest.raises(SyncError):
                yield from rw.tryupgrade()

        run_program(main)


class TestSearchHeavyWorkload:
    shared = False

    def test_readers_overlap_writers_serialize(self):
        """A search-mostly object: many readers proceed together; writes
        serialize.  The counters prove both."""
        stats = {"concurrent_readers_max": 0, "readers_now": 0,
                 "writes": 0}

        def reader(rw):
            for _ in range(5):
                yield from rw.enter(RW_READER)
                stats["readers_now"] += 1
                stats["concurrent_readers_max"] = max(
                    stats["concurrent_readers_max"], stats["readers_now"])
                yield from threads.thread_yield()
                stats["readers_now"] -= 1
                yield from rw.exit()

        def writer(rw):
            for _ in range(3):
                yield from rw.enter(RW_WRITER)
                assert stats["readers_now"] == 0
                stats["writes"] += 1
                yield from rw.exit()
                yield from threads.thread_yield()

        def main():
            rw = yield from new_rwlock(self.shared)
            tids = []
            for _ in range(3):
                tid = yield from threads.thread_create(
                    reader, rw, flags=threads.THREAD_WAIT)
                tids.append(tid)
            tid = yield from threads.thread_create(
                writer, rw, flags=threads.THREAD_WAIT)
            tids.append(tid)
            for tid in tids:
                yield from threads.thread_wait(tid)

        run_program(main, ncpus=2)
        assert stats["writes"] == 3
        assert stats["concurrent_readers_max"] >= 2

    def test_acquire_statistics(self):
        def main():
            rw = yield from new_rwlock(self.shared)
            yield from rw.enter(RW_READER)
            yield from rw.exit()
            yield from rw.enter(RW_WRITER)
            yield from rw.exit()
            assert rw.read_acquires == 1
            assert rw.write_acquires == 1

        run_program(main)


class TestBasicsShared(TestBasics):
    shared = True


class TestWriterPreferenceShared(TestWriterPreference):
    shared = True


class TestDowngradeUpgradeShared(TestDowngradeUpgrade):
    shared = True


class TestSearchHeavyWorkloadShared(TestSearchHeavyWorkload):
    shared = True
