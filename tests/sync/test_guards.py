"""Runtime backstop for undriven sync generators (lint rule L101).

With the guard enabled, building ``m.enter()`` and dropping it without
``yield from`` must be noticed at GC time; with it disabled the sync
APIs hand back plain generators with zero wrapping.
"""

import gc
import types
import warnings

import pytest

import repro.sync
from repro.errors import SyncError
from repro.sync import CondVar, Mutex, RW_READER, RwLock, Semaphore
from repro.sync import guards


@pytest.fixture
def guard():
    """The guard on with no violations; the prior state back after, so a
    guarded session's end-of-run check still sees earlier violations."""
    was_enabled, earlier = guards.enabled(), guards.violations()
    guards.enable()
    guards.reset()
    yield guards
    guards.reset()
    guards._violations.extend(earlier)
    if not was_enabled:
        guards.disable()


@pytest.fixture
def unguarded():
    """The guard off, whatever the environment says; restored after."""
    was_enabled = guards.enabled()
    guards.disable()
    yield
    if was_enabled:
        guards.enable()


def _collect():
    gc.collect()


class TestDisabled:
    def test_returns_plain_generator(self, unguarded):
        assert not guards.enabled()
        gen = Mutex(name="m").enter()
        assert isinstance(gen, types.GeneratorType)
        gen.close()

    def test_no_violations_recorded(self, unguarded):
        gen = Mutex(name="m").enter()
        del gen
        _collect()
        assert guards.violations() == []
        guards.check()


class TestEnabled:
    def test_undriven_generator_is_a_violation(self, guard):
        with pytest.warns(RuntimeWarning, match="never[ \n]+driven"):
            gen = Mutex(name="forgotten").enter()
            del gen
            _collect()
        violations = guard.violations()
        assert len(violations) == 1
        assert "Mutex(forgotten).enter" in violations[0]
        with pytest.raises(SyncError, match="yield from"):
            guard.check()

    def test_every_primitive_is_guarded(self, guard):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for build in (Mutex(name="m").enter,
                          Mutex(name="m").exit,
                          CondVar(name="cv").signal,
                          Semaphore(1, name="s").p,
                          RwLock(name="rw").exit):
                gen = build()
                del gen
                _collect()
        labels = "".join(guard.violations())
        for fragment in ("Mutex(m).enter", "Mutex(m).exit",
                         "CondVar(cv).signal", "Semaphore(s).p",
                         "RwLock(rw).exit"):
            assert fragment in labels, labels

    def test_started_generator_is_clean(self, guard):
        m = Mutex(name="ok")
        gen = m.enter()
        # Drive it like the kernel would; enter() yields at least once.
        next(gen)
        gen.close()
        del gen
        _collect()
        assert guard.violations() == []
        guard.check()

    def test_explicit_close_is_acknowledged_discard(self, guard):
        gen = Mutex(name="meant-it").enter()
        gen.close()
        del gen
        _collect()
        assert guard.violations() == []

    def test_check_message_lists_labels(self, guard):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            gen = CondVar(name="cv").broadcast()
            del gen
            _collect()
        with pytest.raises(SyncError) as exc:
            guard.check()
        assert "CondVar(cv).broadcast" in str(exc.value)

    def test_reset_clears(self, guard):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            gen = Mutex(name="m").enter()
            del gen
            _collect()
        assert guard.violations()
        guard.reset()
        assert guard.violations() == []
        guard.check()


#: The generator names of Figure 4's procedural interface (every
#: lower-case export of repro.sync but the *_init constructors).
FIGURE4_GENERATORS = sorted(
    name for name in repro.sync.__all__
    if name.islower() and not name.endswith("_init"))

#: Arguments that build a call of each of them.
FIGURE4_ARGS = {
    "mutex_enter": lambda: (Mutex(name="m"),),
    "mutex_exit": lambda: (Mutex(name="m"),),
    "mutex_tryenter": lambda: (Mutex(name="m"),),
    "cv_wait": lambda: (CondVar(name="cv"), Mutex(name="m")),
    "cv_timedwait": lambda: (CondVar(name="cv"), Mutex(name="m"), 1_000),
    "cv_signal": lambda: (CondVar(name="cv"),),
    "cv_broadcast": lambda: (CondVar(name="cv"),),
    "sema_p": lambda: (Semaphore(1, name="s"),),
    "sema_v": lambda: (Semaphore(1, name="s"),),
    "sema_tryp": lambda: (Semaphore(1, name="s"),),
    "rw_enter": lambda: (RwLock(name="rw"), RW_READER),
    "rw_exit": lambda: (RwLock(name="rw"),),
    "rw_tryenter": lambda: (RwLock(name="rw"), RW_READER),
    "rw_downgrade": lambda: (RwLock(name="rw"),),
    "rw_tryupgrade": lambda: (RwLock(name="rw"),),
}


class TestFigure4Names:
    @pytest.mark.parametrize("name", FIGURE4_GENERATORS)
    def test_undriven_call_is_a_violation(self, guard, name):
        """The C names are the guarded methods, so dropping one undriven
        is caught exactly like dropping ``m.enter()``."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            gen = getattr(repro.sync, name)(*FIGURE4_ARGS[name]())
            del gen
            _collect()
        assert len(guard.violations()) == 1, name

    @pytest.mark.parametrize("name", sorted(
        name for name in repro.sync.__all__ if name.islower()))
    def test_name_is_the_constructor_or_method_it_names(self, name):
        kind, _, op = name.partition("_")
        cls = {"mutex": Mutex, "cv": CondVar, "sema": Semaphore,
               "rw": RwLock}[kind]
        assert getattr(repro.sync, name) is (
            cls if op == "init" else getattr(cls, op))
