"""Regression: a failed ``Channel.get`` must not burn a generation; and
the typed channel errors.

The old ``get()`` advanced ``_next_get`` before a failure check raised, so
a get that failed consumed its generation number anyway — and a later
default-generation get skipped past a value at a lower generation, never
draining it.  :meth:`Channel.reset` is now the only way a pending get
fails, and it rewinds both cursors: however far the failed gets had
reached, the replay starts again at generation 0.
"""

import pytest

from repro.runtime import (Channel, ChannelError, ChannelGenerationError,
                           ChannelReset)


class TestFailedGetDoesNotBurnGeneration:
    def test_replayed_value_drains_after_failed_explicit_get(self):
        ch = Channel(name="halo")
        pending = ch.get(generation=7)
        ch.reset()
        with pytest.raises(ChannelReset):
            pending.get()
        ch.set("a", generation=0)
        # a cursor left at 8 by the failed get would ask for generation 8
        # here and never see the value at generation 0
        assert ch.get().get() == "a"

    def test_default_cursor_rewound_past_failed_get(self):
        ch = Channel(name="halo")
        pending = [ch.get(), ch.get()]   # generations 0 and 1
        ch.reset()
        for fut in pending:
            with pytest.raises(ChannelReset):
                fut.get()
        ch.set("late", generation=1)
        ch.set("first", generation=0)
        assert ch.get().get() == "first"
        assert ch.get().get() == "late"

    def test_repeated_failed_gets_stay_at_same_generation(self):
        ch = Channel(name="halo")
        for _ in range(3):
            pending = ch.get()
            ch.reset()
            with pytest.raises(ChannelReset):
                pending.get()
        ch.set("fresh")  # default set: generation 0
        assert ch.get().get() == "fresh"

    def test_successful_gets_still_advance_in_order(self):
        ch = Channel(name="halo")
        ch.set("a", generation=0)
        ch.set("b", generation=1)
        assert ch.get().get() == "a"
        assert ch.get().get() == "b"
        pending = ch.get()
        ch.reset()
        with pytest.raises(ChannelReset):
            pending.get()


def test_error_hierarchy():
    assert issubclass(ChannelReset, ChannelError)
    assert issubclass(ChannelGenerationError, ChannelError)
    # generic handlers keep working
    assert issubclass(ChannelError, RuntimeError)
    assert issubclass(ChannelGenerationError, ValueError)


@pytest.mark.sanitize_tolerated
def test_double_set_raises_generation_error():
    ch = Channel("halo-y")
    ch.set(1, generation=0)
    with pytest.raises(ChannelGenerationError, match="already set"):
        ch.set(2, generation=0)
    # callers catching ValueError still work
    with pytest.raises(ValueError):
        ch.set(2, generation=0)


def test_reset_delivers_channel_reset_and_reopens_generations():
    ch = Channel("halo-z")
    pending = ch.get(3)
    ch.reset()
    with pytest.raises(ChannelReset):
        pending.get()
    # generation reuse after a reset is sanctioned
    ch.set(9, generation=3)
    assert ch.get(3).get() == 9
