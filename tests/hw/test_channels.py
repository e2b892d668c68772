"""Wait-channel naming: the ``name`` Block traces and hang reports read,
and the one channel a Block sleeps on."""

from repro.hw.isa import Block, WaitChannel


class TestChannelName:
    def test_single_channel(self):
        assert WaitChannel("mutex-1").name == "mutex-1"


class TestBlockNormalization:
    def test_single_channel_stays_bare(self):
        ch = WaitChannel("solo")
        assert Block(ch).channel is ch
