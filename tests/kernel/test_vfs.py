"""Tests for the in-memory VFS."""

import pytest

from repro.api import Simulator
from repro.errors import Errno, SyscallError
from repro.hw.memory import PhysicalMemory
from repro.kernel.fs.file import O_CREAT, O_RDWR
from repro.kernel.fs.vfs import (Directory, Fifo, NullDevice, RegularFile,
                                 TtyDevice, Vfs)
from repro.runtime import unistd


@pytest.fixture
def vfs():
    return Vfs(PhysicalMemory())


class TestLookup:
    def test_root(self, vfs):
        assert vfs.lookup("/") is vfs.root

    def test_standard_nodes(self, vfs):
        assert isinstance(vfs.lookup("/dev/tty"), TtyDevice)
        assert isinstance(vfs.lookup("/dev/null"), NullDevice)
        assert isinstance(vfs.lookup("/tmp"), Directory)

    def test_missing_raises_enoent(self, vfs):
        with pytest.raises(SyscallError) as exc:
            vfs.lookup("/nope")
        assert exc.value.errno == Errno.ENOENT

    def test_file_as_directory_raises_enotdir(self, vfs):
        vfs.create_file("/tmp/f")
        with pytest.raises(SyscallError) as exc:
            vfs.lookup("/tmp/f/deeper")
        assert exc.value.errno == Errno.ENOTDIR

    def test_relative_lookup_uses_cwd(self, vfs):
        tmp = vfs.lookup("/tmp")
        vfs.create_file("/tmp/rel")
        assert vfs.lookup("rel", cwd=tmp).name == "rel"

    def test_dot_segments_ignored(self, vfs):
        assert vfs.lookup("/./tmp/.") is vfs.lookup("/tmp")


class TestCreate:
    def test_create_file(self, vfs):
        node = vfs.create_file("/tmp/a")
        assert isinstance(node, RegularFile)
        assert vfs.lookup("/tmp/a") is node

    def test_create_existing_file_returns_it(self, vfs):
        a = vfs.create_file("/tmp/a")
        assert vfs.create_file("/tmp/a") is a

    def test_create_over_directory_raises(self, vfs):
        vfs.mkdir("/tmp/d")
        with pytest.raises(SyscallError) as exc:
            vfs.create_file("/tmp/d")
        assert exc.value.errno == Errno.EEXIST

    def test_mkdir_nested(self, vfs):
        vfs.mkdir("/a")
        vfs.mkdir("/a/b")
        assert isinstance(vfs.lookup("/a/b"), Directory)

    def test_mkdir_duplicate_raises(self, vfs):
        vfs.mkdir("/a")
        with pytest.raises(SyscallError):
            vfs.mkdir("/a")

    def test_mkfifo(self, vfs):
        node = vfs.mkfifo("/tmp/pipe")
        assert isinstance(node, Fifo)

    def test_unlink(self, vfs):
        vfs.create_file("/tmp/x")
        vfs.unlink("/tmp/x")
        with pytest.raises(SyscallError):
            vfs.lookup("/tmp/x")

    def test_unlink_missing(self, vfs):
        with pytest.raises(SyscallError):
            vfs.unlink("/tmp/ghost")


class TestRegularFile:
    def test_backed_by_memory_object(self, vfs):
        """Files are mappable memory objects — the basis of sync variables
        in files outliving processes."""
        node = vfs.create_file("/tmp/db")
        node.mobj.store_cell(0, "lock-state")
        again = vfs.lookup("/tmp/db")
        assert again.mobj.load_cell(0) == "lock-state"

    def test_read_write_at(self, vfs):
        node = vfs.create_file("/tmp/f")
        node.write_at(0, b"hello")
        assert node.read_at(0, 5) == b"hello"
        assert node.size() == 5

    def test_read_past_eof_empty(self, vfs):
        node = vfs.create_file("/tmp/f")
        assert node.read_at(100, 10) == b""

    def test_truncate_shrinks_and_grows(self, vfs):
        node = vfs.create_file("/tmp/f")
        node.write_at(0, b"abcdef")
        node.truncate(3)
        assert node.size() == 3
        node.truncate(10)
        assert node.size() == 10
        assert node.read_at(3, 7) == b"\x00" * 7


class TestDevices:
    def test_tty_input_buffering(self, vfs):
        tty = vfs.lookup("/dev/tty")
        tty.push_input(b"hi")
        assert bytes(tty.input_buffer) == b"hi"

    def test_inode_numbers_unique(self, vfs):
        a = vfs.create_file("/tmp/a")
        b = vfs.create_file("/tmp/b")
        assert a.ino != b.ino

    def test_inode_numbers_do_not_depend_on_earlier_simulations(self):
        """Inode numbers count per kernel: a guest that branches on one
        behaves the same in a serial sweep and under ``--jobs``."""
        def ino_of_new_file():
            got = []

            def main():
                yield from unistd.open("/tmp/f", O_CREAT | O_RDWR)
                got.append((yield from unistd.stat("/tmp/f"))["ino"])

            sim = Simulator()
            sim.spawn(main)
            sim.run()
            return got[0]

        inos = [ino_of_new_file() for _ in range(3)]
        assert inos[0] == inos[1] == inos[2]

    def test_kinds(self, vfs):
        assert vfs.lookup("/dev/tty").kind == "tty"
        assert vfs.lookup("/dev/null").kind == "null"
        assert vfs.lookup("/tmp").kind == "dir"
        assert vfs.create_file("/tmp/f").kind == "file"
        assert vfs.mkfifo("/tmp/p").kind == "fifo"
