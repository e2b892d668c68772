"""File system calls.

All descriptors are shared by every thread in the process (one fd table
per process), and ``dup``/``fork`` share the open-file object — including
its seek offset — which is why the paper warns about seek/read races
between threads.
"""

from __future__ import annotations

from repro.errors import Errno, SyscallError
from repro.hw.isa import Block, Charge, charge
from repro.kernel.fs.file import (O_APPEND, O_CREAT, O_NONBLOCK, O_RDONLY,
                                  O_RDWR, O_TRUNC, O_WRONLY, SEEK_CUR,
                                  SEEK_END, SEEK_SET, OpenFile)
from repro.kernel.fs.vfs import (Directory, Fifo, NullDevice, ProcNode,
                                 RegularFile, TtyDevice)
from repro.kernel.signals import Sig
from repro.kernel.syscalls import syscall


@syscall("open")
def sys_open(ctx, path: str, flags: int = 0):
    """Open (optionally creating) a file; returns the descriptor."""
    yield charge(ctx.costs.file_op_service)
    vfs = ctx.kernel.vfs
    proc = ctx.process
    if flags & O_CREAT:
        inode = vfs.create_file(path, cwd=proc.cwd)
    else:
        inode = vfs.lookup(path, cwd=proc.cwd)
    if isinstance(inode, Directory) and (flags & 0x3) != 0:
        raise SyscallError(Errno.EISDIR, "open", path)
    if isinstance(inode, RegularFile) and flags & O_TRUNC:
        inode.truncate(0)
    of = OpenFile(inode, flags)
    if isinstance(inode, Fifo):
        if of.readable:
            inode.readers += 1
            inode.total_readers += 1
        if of.writable:
            inode.writers += 1
            inode.total_writers += 1
        ctx.kernel.wakeup_all(inode.open_channel)
        # Classic FIFO open semantics: block until the other end has been
        # opened (skipped for O_RDWR, which opens both ends, and
        # O_NONBLOCK).  The rendezvous condition is monotonic — a writer
        # that opened and already closed still satisfies a reader's open
        # (the read path then sees EOF).
        if not (flags & O_NONBLOCK) and (of.readable != of.writable):
            if of.readable:
                while inode.total_writers == 0:
                    yield Block(inode.open_channel, interruptible=True,
                                indefinite=True)
            else:
                while inode.total_readers == 0:
                    yield Block(inode.open_channel, interruptible=True,
                                indefinite=True)
    fd = proc.fdtable.allocate(of)
    return fd


@syscall("close")
def sys_close(ctx, fd: int):
    """Close a descriptor — for *all* threads in the process at once."""
    yield charge(ctx.costs.file_op_service)
    of = ctx.process.fdtable.close(fd)
    ctx.kernel.release_open_file(of)
    return 0


@syscall("read")
def sys_read(ctx, fd: int, length: int):
    """Read up to ``length`` bytes; returns the bytes (b"" = EOF).

    Blocking reads block *this LWP only*; other LWPs in the process keep
    running — the core kernel service the threads library builds on.
    """
    kernel = ctx.kernel
    of = ctx.process.fdtable.get(fd)
    if not of.readable:
        raise SyscallError(Errno.EBADF, "read", f"fd {fd} not readable")
    inode = of.inode
    yield charge(ctx.costs.file_op_service)

    if isinstance(inode, RegularFile):
        # Fault in pages that have never been touched.
        start_page = of.offset // 4096
        end_page = max(start_page,
                       (min(of.offset + length, inode.size()) - 1) // 4096)
        faulted = any(not inode.mobj.is_resident(p)
                      for p in range(start_page, end_page + 1))
        if faulted:
            yield charge(ctx.costs.disk_latency)
            for p in range(start_page, end_page + 1):
                inode.mobj.make_resident(p)
        data = inode.read_at(of.offset, length)
        of.offset += len(data)
        yield Charge(ctx.costs.io_per_byte * len(data))
        return data

    if isinstance(inode, TtyDevice):
        # "Indefinite, external event": the canonical SIGWAITING wait.
        while not inode.input_buffer:
            if of.flags & O_NONBLOCK:
                raise SyscallError(Errno.EAGAIN, "read")
            yield Block(inode.read_channel, interruptible=True,
                        indefinite=True)
        data = bytes(inode.input_buffer[:length])
        del inode.input_buffer[:length]
        yield Charge(ctx.costs.io_per_byte * len(data))
        return data

    if isinstance(inode, Fifo):
        while not inode.buffer:
            if inode.writers == 0:
                return b""
            if of.flags & O_NONBLOCK:
                raise SyscallError(Errno.EAGAIN, "read")
            yield Block(inode.read_channel, interruptible=True)
        data = bytes(inode.buffer[:length])
        del inode.buffer[:length]
        yield Charge(ctx.costs.io_per_byte * len(data))
        kernel.wakeup_all(inode.write_channel)
        return data

    if isinstance(inode, NullDevice):
        return b""

    if isinstance(inode, ProcNode):
        data = inode.read_at(of.offset, length)
        of.offset += len(data)
        yield Charge(ctx.costs.io_per_byte * len(data))
        return data

    raise SyscallError(Errno.EINVAL, "read", inode.kind)


@syscall("write")
def sys_write(ctx, fd: int, data: bytes):
    """Write bytes; returns the count written."""
    kernel = ctx.kernel
    of = ctx.process.fdtable.get(fd)
    if not of.writable:
        raise SyscallError(Errno.EBADF, "write", f"fd {fd} not writable")
    inode = of.inode
    yield charge(ctx.costs.file_op_service)

    if isinstance(inode, RegularFile):
        limit = ctx.process.rlimits.fsize_bytes
        offset = inode.size() if of.flags & O_APPEND else of.offset
        if limit is not None and offset + len(data) > limit:
            kernel.post_signal(ctx.process, Sig.SIGXFSZ,
                               target_lwp=ctx.lwp)
            raise SyscallError(Errno.ENOSPC, "write", "file size limit")
        n = inode.write_at(offset, data)
        of.offset = offset + n
        yield Charge(ctx.costs.io_per_byte * n)
        return n

    if isinstance(inode, TtyDevice):
        inode.output.extend(data)
        yield Charge(ctx.costs.io_per_byte * len(data))
        return len(data)

    if isinstance(inode, Fifo):
        if inode.readers == 0:
            kernel.post_signal(ctx.process, Sig.SIGPIPE,
                               target_lwp=ctx.lwp)
            raise SyscallError(Errno.EPIPE, "write")
        written = 0
        view = memoryview(bytes(data))
        while written < len(data):
            space = Fifo.CAPACITY - len(inode.buffer)
            if space == 0:
                if of.flags & O_NONBLOCK:
                    if written:
                        return written
                    raise SyscallError(Errno.EAGAIN, "write")
                yield Block(inode.write_channel, interruptible=True)
                continue
            chunk = view[written:written + space]
            inode.buffer.extend(chunk)
            written += len(chunk)
            yield Charge(ctx.costs.io_per_byte * len(chunk))
            kernel.wakeup_all(inode.read_channel)
            inode.mark_readable()
        return written

    if isinstance(inode, NullDevice):
        return len(data)

    raise SyscallError(Errno.EINVAL, "write", inode.kind)


@syscall("pipe")
def sys_pipe(ctx):
    """Create an anonymous pipe; returns (read_fd, write_fd).

    Backed by an unnamed FIFO inode — same buffering, blocking, EOF, and
    EPIPE semantics, but with no name in the file system.
    """
    yield charge(ctx.costs.file_op_service)
    proc = ctx.process
    inode = ctx.kernel.vfs.numbered(Fifo(f"pipe:{proc.pid}"))
    rof = OpenFile(inode, O_RDONLY)
    wof = OpenFile(inode, O_WRONLY)
    inode.readers += 1
    inode.total_readers += 1
    inode.writers += 1
    inode.total_writers += 1
    rfd = proc.fdtable.allocate(rof)
    wfd = proc.fdtable.allocate(wof)
    return rfd, wfd


@syscall("lseek")
def sys_lseek(ctx, fd: int, offset: int, whence: int = SEEK_SET):
    """Reposition the (shared!) file offset."""
    yield charge(ctx.costs.syscall_service_trivial)
    of = ctx.process.fdtable.get(fd)
    if isinstance(of.inode, (Fifo, TtyDevice)):
        raise SyscallError(Errno.ESPIPE, "lseek")
    if whence == SEEK_SET:
        new = offset
    elif whence == SEEK_CUR:
        new = of.offset + offset
    elif whence == SEEK_END:
        new = of.inode.size() + offset
    else:
        raise SyscallError(Errno.EINVAL, "lseek", f"whence {whence}")
    if new < 0:
        raise SyscallError(Errno.EINVAL, "lseek", "negative offset")
    of.offset = new
    return new


@syscall("dup")
def sys_dup(ctx, fd: int):
    yield charge(ctx.costs.syscall_service_trivial)
    return ctx.process.fdtable.dup(fd)


@syscall("dup2")
def sys_dup2(ctx, fd: int, target: int):
    yield charge(ctx.costs.syscall_service_trivial)
    return ctx.process.fdtable.dup(fd, at=target)


@syscall("unlink")
def sys_unlink(ctx, path: str):
    yield charge(ctx.costs.file_op_service)
    ctx.kernel.vfs.unlink(path, cwd=ctx.process.cwd)
    return 0


@syscall("mkdir")
def sys_mkdir(ctx, path: str):
    yield charge(ctx.costs.file_op_service)
    ctx.kernel.vfs.mkdir(path, cwd=ctx.process.cwd)
    return 0


@syscall("mkfifo")
def sys_mkfifo(ctx, path: str):
    yield charge(ctx.costs.file_op_service)
    ctx.kernel.vfs.mkfifo(path, cwd=ctx.process.cwd)
    return 0


@syscall("chdir")
def sys_chdir(ctx, path: str):
    """Change the single per-process working directory.

    "If one thread changes the working directory, it is changed for all
    of them."
    """
    yield charge(ctx.costs.file_op_service)
    node = ctx.kernel.vfs.lookup(path, cwd=ctx.process.cwd)
    if not isinstance(node, Directory):
        raise SyscallError(Errno.ENOTDIR, "chdir", path)
    ctx.process.cwd = node
    return 0


@syscall("stat")
def sys_stat(ctx, path: str):
    """Returns a small dict of file metadata."""
    yield charge(ctx.costs.file_op_service)
    node = ctx.kernel.vfs.lookup(path, cwd=ctx.process.cwd)
    return {
        "ino": node.ino,
        "kind": node.kind,
        "size": node.size(),
        "mode": node.mode,
        "nlink": node.nlink,
    }


@syscall("ftruncate")
def sys_ftruncate(ctx, fd: int, length: int):
    yield charge(ctx.costs.file_op_service)
    of = ctx.process.fdtable.get(fd)
    if not isinstance(of.inode, RegularFile):
        raise SyscallError(Errno.EINVAL, "ftruncate")
    of.inode.truncate(length)
    return 0


@syscall("fsync")
def sys_fsync(ctx, fd: int):
    """Flush: charged as one disk round trip per dirty region."""
    of = ctx.process.fdtable.get(fd)
    if not isinstance(of.inode, RegularFile):
        raise SyscallError(Errno.EINVAL, "fsync")
    yield charge(ctx.costs.disk_latency)
    return 0
