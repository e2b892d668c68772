"""An in-memory virtual file system.

Regular files are backed by :class:`~repro.hw.memory.MemoryObject`, which
is what makes the paper's file-based synchronization story work: a file can
be mapped ``MAP_SHARED`` by several processes, synchronization variables
(cells) placed in it, and — because the object outlives any one process —
"have lifetimes beyond that of the creating process".

The tree also hosts devices (a tty whose reads block indefinitely, the
canonical ``SIGWAITING`` trigger) and FIFOs.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import Errno, SyscallError
from repro.hw.isa import WaitChannel
from repro.hw.memory import MemoryObject, PhysicalMemory


class Inode:
    """Base class for all file system objects.

    ``ino`` stays 0 until the :class:`Vfs` the inode belongs to numbers
    it (:meth:`Vfs.numbered`), so inode numbers count per kernel and a
    simulation sees the same numbers whatever ran before it.
    ``watchers`` are readiness callbacks, ``fn(inode)``.
    """

    def __init__(self, name: str):
        self.ino = 0
        self.name = name
        self.nlink = 1
        self.mode = 0o644
        self.watchers: list = []

    @property
    def kind(self) -> str:
        raise NotImplementedError

    def size(self) -> int:
        return 0

    def readable(self) -> bool:
        """Would a read return at once (data, EOF or an error)?"""
        return True

    def mark_readable(self) -> None:
        """Fire the watchers: this inode may have become readable.

        Called right after the wakeup at every site where that can
        happen, so a watcher fires when a sleeper on the inode's own
        channel wakes.  Watchers run synchronously, over a copy of the
        list so that one may remove itself.
        """
        if self.watchers:
            for fn in list(self.watchers):
                fn(self)


class RegularFile(Inode):
    """A regular file; contents live in a mappable memory object."""

    def __init__(self, name: str, memory: PhysicalMemory):
        super().__init__(name)
        self.mobj: MemoryObject = memory.allocate(
            0, name=f"file:{name}", resident=True)

    @property
    def kind(self) -> str:
        return "file"

    def size(self) -> int:
        return self.mobj.nbytes

    def read_at(self, offset: int, length: int) -> bytes:
        if offset >= self.mobj.nbytes:
            return b""
        return self.mobj.read_bytes(offset,
                                    min(length, self.mobj.nbytes - offset))

    def write_at(self, offset: int, payload: bytes) -> int:
        self.mobj.write_bytes(offset, payload)
        # Newly written pages are resident.
        from repro.hw.memory import page_of
        for page in range(page_of(offset),
                          page_of(max(offset + len(payload) - 1, offset)) + 1):
            self.mobj.make_resident(page)
        return len(payload)

    def truncate(self, length: int) -> None:
        if length < self.mobj.nbytes:
            del self.mobj.data[length:]
            self.mobj.nbytes = length
        else:
            self.mobj.grow(length)


class Directory(Inode):
    """A directory: name -> inode."""

    def __init__(self, name: str):
        super().__init__(name)
        self.entries: dict[str, Inode] = {}
        self.mode = 0o755

    @property
    def kind(self) -> str:
        return "dir"

    def lookup(self, name: str) -> Optional[Inode]:
        return self.entries.get(name)

    def add(self, name: str, inode: Inode) -> None:
        if name in self.entries:
            raise SyscallError(Errno.EEXIST, "create", name)
        self.entries[name] = inode

    def remove(self, name: str) -> Inode:
        if name not in self.entries:
            raise SyscallError(Errno.ENOENT, "unlink", name)
        return self.entries.pop(name)


class TtyDevice(Inode):
    """A terminal-ish device.

    Reads with no buffered input block **indefinitely** — this is the
    paper's example of the wait that triggers ``SIGWAITING`` ("e.g. in
    poll()").  Tests and workloads inject input with :meth:`push_input`.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self.input_buffer = bytearray()
        self.read_channel = WaitChannel(f"tty:{name}")
        self.output = bytearray()
        self.mode = 0o666

    @property
    def kind(self) -> str:
        return "tty"

    def readable(self) -> bool:
        return bool(self.input_buffer)

    def push_input(self, data: bytes) -> None:
        """External world typed something (does not wake by itself; the
        kernel's tty syscall path handles wakeups)."""
        self.input_buffer.extend(data)


class Fifo(Inode):
    """A named pipe with a bounded buffer."""

    CAPACITY = 8192

    def __init__(self, name: str):
        super().__init__(name)
        self.buffer = bytearray()
        self.read_channel = WaitChannel(f"fiforead:{name}")
        self.write_channel = WaitChannel(f"fifowrite:{name}")
        # open(2) on a FIFO blocks until the other end is open (classic
        # semantics; O_RDWR or O_NONBLOCK skip the wait).
        self.open_channel = WaitChannel(f"fifoopen:{name}")
        self.readers = 0
        self.writers = 0
        # Monotonic counters: a blocking open only needs the peer end to
        # have been opened at some point (the rendezvous), not to still
        # be open by the time the sleeper is dispatched.
        self.total_readers = 0
        self.total_writers = 0

    @property
    def kind(self) -> str:
        return "fifo"

    def size(self) -> int:
        return len(self.buffer)

    def readable(self) -> bool:
        return bool(self.buffer) or self.writers == 0  # data, or EOF


class Vfs:
    """The mounted file system tree."""

    def __init__(self, memory: PhysicalMemory):
        self.memory = memory
        self._last_ino = 0
        self.root = self.numbered(Directory("/"))
        dev = self.numbered(Directory("dev"))
        self.root.add("dev", dev)
        self.root.add("tmp", self.numbered(Directory("tmp")))
        dev.add("tty", self.numbered(TtyDevice("tty")))
        dev.add("null", self.numbered(NullDevice("null")))

    def numbered(self, inode: Inode) -> Inode:
        """Give ``inode`` this file system's next inode number (every
        inode the kernel creates, sockets and pipes too); returns it."""
        self._last_ino += 1
        inode.ino = self._last_ino
        return inode

    def mount_proc(self, kernel_ref) -> None:
        """Mount /proc; ``kernel_ref`` is a zero-arg callable -> Kernel."""
        if "proc" not in self.root.entries:
            self.root.add("proc", self.numbered(ProcDirectory(kernel_ref)))

    # ------------------------------------------------------------ lookup

    def lookup(self, path: str, cwd: Optional[Directory] = None) -> Inode:
        """Resolve a path to an inode; raises ENOENT / ENOTDIR."""
        node = self._walk(path, cwd)
        if node is None:
            raise SyscallError(Errno.ENOENT, "lookup", path)
        return node

    def _walk(self, path: str, cwd: Optional[Directory]) -> Optional[Inode]:
        node: Inode = self.root if path.startswith("/") or cwd is None else cwd
        for part in [p for p in path.split("/") if p and p != "."]:
            if part == "..":
                # Flat model: ".." from anywhere returns to root.
                node = self.root
                continue
            if not isinstance(node, Directory):
                raise SyscallError(Errno.ENOTDIR, "lookup", path)
            nxt = node.lookup(part)
            if nxt is None:
                return None
            node = nxt
        return node

    def parent_and_leaf(self, path: str,
                        cwd: Optional[Directory] = None
                        ) -> tuple[Directory, str]:
        """Resolve the directory containing ``path`` plus the final name."""
        path = path.rstrip("/")
        if "/" in path:
            dirpath, leaf = path.rsplit("/", 1)
            parent = self.lookup(dirpath or "/", cwd)
        else:
            parent, leaf = (cwd or self.root), path
        if not isinstance(parent, Directory):
            raise SyscallError(Errno.ENOTDIR, "lookup", path)
        if not leaf:
            raise SyscallError(Errno.EINVAL, "lookup", path)
        return parent, leaf

    # ------------------------------------------------------------ create

    def create_file(self, path: str,
                    cwd: Optional[Directory] = None) -> RegularFile:
        parent, leaf = self.parent_and_leaf(path, cwd)
        existing = parent.lookup(leaf)
        if existing is not None:
            if isinstance(existing, RegularFile):
                return existing
            raise SyscallError(Errno.EEXIST, "creat", path)
        node = self.numbered(RegularFile(leaf, self.memory))
        parent.add(leaf, node)
        return node

    def mkdir(self, path: str, cwd: Optional[Directory] = None) -> Directory:
        parent, leaf = self.parent_and_leaf(path, cwd)
        if parent.lookup(leaf) is not None:
            raise SyscallError(Errno.EEXIST, "mkdir", path)
        node = self.numbered(Directory(leaf))
        parent.add(leaf, node)
        return node

    def mkfifo(self, path: str, cwd: Optional[Directory] = None) -> Fifo:
        parent, leaf = self.parent_and_leaf(path, cwd)
        if parent.lookup(leaf) is not None:
            raise SyscallError(Errno.EEXIST, "mkfifo", path)
        node = self.numbered(Fifo(leaf))
        parent.add(leaf, node)
        return node

    def unlink(self, path: str, cwd: Optional[Directory] = None) -> None:
        parent, leaf = self.parent_and_leaf(path, cwd)
        node = parent.remove(leaf)
        node.nlink -= 1


class NullDevice(Inode):
    """/dev/null: reads return EOF, writes vanish."""

    def __init__(self, name: str):
        super().__init__(name)
        self.mode = 0o666

    @property
    def kind(self) -> str:
        return "null"


class ProcNode(Inode):
    """A synthetic /proc file: content generated from live kernel state.

    ``render`` is a zero-argument callable returning bytes; each open
    snapshots nothing — reads always reflect current state, offset
    semantics apply to the rendering at read time (like real procfs,
    which regenerates per read).
    """

    def __init__(self, name: str, render):
        super().__init__(name)
        self.render = render
        self.mode = 0o444

    @property
    def kind(self) -> str:
        return "proc"

    def size(self) -> int:
        return len(self.render())

    def read_at(self, offset: int, length: int) -> bytes:
        data = self.render()
        return data[offset:offset + length]


class ProcDirectory(Directory):
    """The /proc root: one entry per live process, synthesized on lookup.

    "The /proc file system has been extended to reflect the changes to
    the process model" — each /proc/<pid> exposes the per-LWP status the
    debugger consumes.
    """

    def __init__(self, kernel_ref):
        super().__init__("proc")
        self._kernel_ref = kernel_ref  # zero-arg callable -> Kernel

    def lookup(self, name: str) -> Optional[Inode]:
        kernel = self._kernel_ref()
        if kernel is None:
            return None
        from repro.kernel.fs import procfs

        numbered = kernel.vfs.numbered
        if name == "metrics":
            # Machine-wide metrics registry snapshot (text export);
            # renders a one-line notice when metrics are disabled.
            return numbered(ProcNode(
                "metrics",
                lambda: procfs.metrics_text(kernel).encode()))
        try:
            pid = int(name)
        except ValueError:
            return None
        proc = kernel.processes.get(pid)
        if proc is None:
            return None

        pid_dir = numbered(Directory(name))
        pid_dir.add("status", numbered(ProcNode(
            "status",
            lambda: procfs.status_text(proc).encode())))
        pid_dir.add("stat", numbered(ProcNode(
            "stat",
            lambda: procfs.stat_text(proc).encode())))
        pid_dir.add("lwps", numbered(ProcNode(
            "lwps",
            lambda: "\n".join(
                f"{l.lwp_id} {l.state.value} {l.sched_class.value} "
                f"{l.priority}"
                for l in proc.live_lwps()).encode() + b"\n")))
        return pid_dir

    @property
    def entries_live(self) -> dict:  # pragma: no cover - debug aid
        kernel = self._kernel_ref()
        return {str(p): None for p in (kernel.processes if kernel else ())}
