"""Wait-channel naming: the uniform ``name`` protocol for Block traces.

Single channels, select-style groups, and the raw lists a Block turns
into groups all carry ``.name``, so trace sites and hang reports read it
without isinstance dispatch.
"""

from repro.hw.isa import Block, ChannelSet, WaitChannel


class TestChannelName:
    def test_single_channel(self):
        assert WaitChannel("mutex-1").name == "mutex-1"

    def test_channel_set_joins_members(self):
        cs = ChannelSet([WaitChannel("a"), WaitChannel("b")])
        assert cs.name == "a,b"

    def test_raw_list_fallback(self):
        chans = [WaitChannel("x"), WaitChannel("y")]
        assert Block(chans).channel.name == "x,y"
        assert Block(tuple(chans)).channel.name == "x,y"

    def test_empty_set(self):
        assert ChannelSet([]).name == ""


class TestChannelSet:
    def test_iterates_members_in_order(self):
        a, b = WaitChannel("a"), WaitChannel("b")
        cs = ChannelSet([a, b])
        assert list(cs) == [a, b]
        assert len(cs) == 2

    def test_repr_uses_name(self):
        assert "a,b" in repr(ChannelSet([WaitChannel("a"),
                                         WaitChannel("b")]))


class TestBlockNormalization:
    def test_list_becomes_channel_set(self):
        blk = Block([WaitChannel("p"), WaitChannel("q")])
        assert isinstance(blk.channel, ChannelSet)
        assert blk.channel.name == "p,q"

    def test_single_channel_stays_bare(self):
        ch = WaitChannel("solo")
        assert Block(ch).channel is ch
