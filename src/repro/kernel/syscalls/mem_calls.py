"""Memory management system calls: mmap, munmap, brk, sbrk.

``mmap`` with ``MAP_SHARED`` is the foundation of the paper's
cross-process synchronization: map a file, place synchronization variables
in it, and threads of any mapping process contend on the *same* variables.
"""

from __future__ import annotations

from repro.errors import Errno, SyscallError
from repro.hw.isa import charge
from repro.kernel.fs.vfs import RegularFile
from repro.kernel.syscalls import syscall
from repro.kernel.vm import MAP_PRIVATE, MAP_SHARED, PROT_READ, PROT_WRITE


@syscall("mmap")
def sys_mmap(ctx, length: int, flags: int = MAP_PRIVATE,
             fd: int = -1, offset: int = 0,
             prot: int = PROT_READ | PROT_WRITE):
    """Map a file or anonymous memory; returns the virtual address.

    Multiple threads may manipulate the shared address space at the same
    time via mmap()/brk()/sbrk(); the kernel serializes them (trivially
    true under the discrete-event executor).
    """
    kernel = ctx.kernel
    proc = ctx.process
    yield charge(ctx.costs.mmap_service)
    shared = bool(flags & MAP_SHARED)
    if fd >= 0:
        of = proc.fdtable.get(fd)
        if not isinstance(of.inode, RegularFile):
            raise SyscallError(Errno.EINVAL, "mmap",
                               f"cannot map a {of.inode.kind}")
        mobj = of.inode.mobj
        if mobj.nbytes < offset + length:
            mobj.grow(offset + length)
        if not shared:
            # MAP_PRIVATE of a file: snapshot copy.
            copy = kernel.machine.memory.allocate(
                length, name=f"{mobj.name}:priv", resident=True)
            copy.data[:] = mobj.data[offset:offset + length].ljust(
                length, b"\x00")
            mobj, offset = copy, 0
    else:
        mobj = kernel.machine.memory.allocate(
            length, name=f"pid{proc.pid}:anon",
            resident=False)
        offset = 0
    mapping = proc.aspace.map_object(mobj, length, shared=shared,
                                     obj_offset=offset, prot=prot)
    return mapping.vaddr


@syscall("munmap")
def sys_munmap(ctx, vaddr: int):
    yield charge(ctx.costs.mmap_service)
    proc = ctx.process
    mapping = proc.aspace.unmap(vaddr)
    return 0


@syscall("brk")
def sys_brk(ctx, new_brk: int):
    yield charge(ctx.costs.brk_service)
    return ctx.process.aspace.set_brk(new_brk)


@syscall("sbrk")
def sys_sbrk(ctx, incr: int):
    """Grow the heap; returns the previous break (the new region base)."""
    yield charge(ctx.costs.brk_service)
    return ctx.process.aspace.sbrk(incr)


@syscall("mprotect")
def sys_mprotect(ctx, vaddr: int, prot: int):
    """Change the protection of the mapping containing ``vaddr``."""
    yield charge(ctx.costs.mmap_service)
    mapping = ctx.process.aspace.find(vaddr)
    if mapping is None:
        raise SyscallError(Errno.EINVAL, "mprotect", hex(vaddr))
    mapping.prot = prot
    return 0


@syscall("msync")
def sys_msync(ctx, vaddr: int):
    """Write back a shared mapping (one disk round trip)."""
    proc = ctx.process
    if proc.aspace.find(vaddr) is None:
        raise SyscallError(Errno.EINVAL, "msync", hex(vaddr))
    yield charge(ctx.costs.disk_latency)
    return 0
