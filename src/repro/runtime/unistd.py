"""System call wrappers for simulated programs (the "libc" syscall layer).

Each wrapper is a generator: ``fd = yield from unistd.open("/tmp/x",
O_CREAT | O_RDWR)``.  On failure the kernel's :class:`SyscallError`
propagates *and* the calling thread's ``errno`` (in thread-local storage,
per the paper's canonical TLS example) is set first — so both C-style and
Python-style error handling work.
"""

from __future__ import annotations

import functools

from repro.errors import SyscallError
from repro.hw.isa import GET_CONTEXT, Syscall
from repro.kernel.fs.file import O_CREAT, O_RDWR

__all__ = [
    "syscall", "getpid", "getppid", "fork", "fork1", "exec_image", "exit",
    "waitpid", "open", "close", "read", "write", "lseek", "dup", "dup2",
    "unlink", "mkdir", "mkfifo", "chdir", "stat", "ftruncate", "fsync",
    "pipe", "mmap", "munmap", "brk", "sbrk", "msync", "kill", "sigaction",
    "sigprocmask", "sigsuspend", "pause", "gettimeofday", "nanosleep",
    "sleep_usec", "setitimer", "getitimer", "alarm", "getrusage",
    "setrlimit", "getrlimit", "poll", "select", "sched_yield", "uname",
    "proc_status", "profil", "creat",
    "socket", "bind", "listen", "accept", "connect", "send", "recv",
    "shutdown",
]


def syscall(name: str, *args, **kwargs):
    """Generator: invoke a system call, maintaining errno in TLS."""
    try:
        result = yield Syscall(name, *args, **kwargs)
    except SyscallError as err:
        ctx = yield GET_CONTEXT
        if ctx.thread is not None:
            ctx.thread.tls.errno = int(err.errno)
        raise
    return result


def _wrap(name):
    """The wrapper for ``name``: :func:`syscall` with the name bound.

    A ``partial``, so a call builds the :func:`syscall` generator
    itself, which traps directly: one generator per call, with no
    Python-level wrapper frame around it.
    """
    call = functools.partial(syscall, name)
    call.__name__ = name
    call.__doc__ = f"Generator wrapper for the {name}(2) system call."
    return call


getpid = _wrap("getpid")
pipe = _wrap("pipe")
getppid = _wrap("getppid")
fork = _wrap("fork")
fork1 = _wrap("fork1")
exec_image = _wrap("exec")
exit = _wrap("exit")
waitpid = _wrap("waitpid")
open = _wrap("open")
close = _wrap("close")
read = _wrap("read")
write = _wrap("write")
lseek = _wrap("lseek")
dup = _wrap("dup")
dup2 = _wrap("dup2")
unlink = _wrap("unlink")
mkdir = _wrap("mkdir")
mkfifo = _wrap("mkfifo")
chdir = _wrap("chdir")
stat = _wrap("stat")
ftruncate = _wrap("ftruncate")
fsync = _wrap("fsync")
mmap = _wrap("mmap")
munmap = _wrap("munmap")
brk = _wrap("brk")
sbrk = _wrap("sbrk")
msync = _wrap("msync")
kill = _wrap("kill")
sigaction = _wrap("sigaction")
sigprocmask = _wrap("sigprocmask")
sigsuspend = _wrap("sigsuspend")
pause = _wrap("pause")
gettimeofday = _wrap("gettimeofday")
nanosleep = _wrap("nanosleep")
setitimer = _wrap("setitimer")
getitimer = _wrap("getitimer")
alarm = _wrap("alarm")
getrusage = _wrap("getrusage")
setrlimit = _wrap("setrlimit")
getrlimit = _wrap("getrlimit")
poll = _wrap("poll")
select = _wrap("select")
sched_yield = _wrap("yield")
uname = _wrap("uname")
proc_status = _wrap("proc_status")
profil = _wrap("profil")
socket = _wrap("socket")
bind = _wrap("bind")
listen = _wrap("listen")
accept = _wrap("accept")
connect = _wrap("connect")
send = _wrap("send")
recv = _wrap("recv")
shutdown = _wrap("shutdown")


def creat(path: str):
    """creat(2): open-with-create for read/write."""
    return open(path, O_CREAT | O_RDWR)


def sleep_usec(usec_amount: float):
    """Sleep for ``usec_amount`` microseconds of virtual time (returns
    0, as nanosleep does)."""
    return nanosleep(int(usec_amount * 1000))
