"""Tests for the invalidation multicast bus."""

from __future__ import annotations

import pickle

import pytest

from repro.comm.multicast import InvalidationBus, InvalidationMessage
from repro.db.invalidation import InvalidationTag


class Recorder:
    """A subscriber that records every message it receives."""

    def __init__(self):
        self.messages = []

    def process_invalidation(self, message):
        self.messages.append(message)


def message(ts, *tags):
    return InvalidationMessage(timestamp=ts, tags=tuple(tags))


class TestMessageRecord:
    """A stream message is a named pair, equal and hashable by value."""

    def test_keyword_and_positional_construction_agree(self):
        tag = InvalidationTag.key("users", "id", 1)
        assert InvalidationMessage(3, (tag,)) == InvalidationMessage(timestamp=3, tags=(tag,))
        assert InvalidationMessage(3).tags == ()
        assert InvalidationMessage(3, (tag,)).timestamp == 3
        assert hash(InvalidationMessage(3, (tag,))) == hash(message(3, tag))
        assert InvalidationMessage(3) != InvalidationMessage(4)

    def test_repr_and_pickle_round_trip(self):
        sent = message(7, InvalidationTag.wildcard("items"))
        assert repr(sent) == (
            "InvalidationMessage(timestamp=7, tags=(InvalidationTag(table='items', "
            "column=None, value=None),))"
        )
        copy = pickle.loads(pickle.dumps(sent))
        assert copy == sent and type(copy) is InvalidationMessage
        assert type(copy.tags[0]) is InvalidationTag


class TestSynchronousDelivery:
    def test_single_subscriber_receives_message(self):
        bus = InvalidationBus()
        recorder = Recorder()
        bus.subscribe(recorder)
        bus.publish(message(1, InvalidationTag.key("users", "id", 1)))
        assert len(recorder.messages) == 1
        assert recorder.messages[0].timestamp == 1

    def test_all_subscribers_receive_every_message(self):
        bus = InvalidationBus()
        recorders = [Recorder() for _ in range(3)]
        for recorder in recorders:
            bus.subscribe(recorder)
        bus.publish(message(1))
        bus.publish(message(2))
        assert all(len(r.messages) == 2 for r in recorders)

    def test_messages_delivered_in_order(self):
        bus = InvalidationBus()
        recorder = Recorder()
        bus.subscribe(recorder)
        for ts in (1, 2, 5, 9):
            bus.publish(message(ts))
        assert [m.timestamp for m in recorder.messages] == [1, 2, 5, 9]

    def test_out_of_order_publication_rejected(self):
        bus = InvalidationBus()
        bus.publish(message(5))
        with pytest.raises(ValueError):
            bus.publish(message(5))
        with pytest.raises(ValueError):
            bus.publish(message(3))

    def test_duplicate_subscription_ignored(self):
        bus = InvalidationBus()
        recorder = Recorder()
        bus.subscribe(recorder)
        bus.subscribe(recorder)
        bus.publish(message(1))
        assert len(recorder.messages) == 1

    def test_unsubscribe_stops_delivery(self):
        bus = InvalidationBus()
        recorder = Recorder()
        bus.subscribe(recorder)
        bus.publish(message(1))
        bus.unsubscribe(recorder)
        bus.publish(message(2))
        assert len(recorder.messages) == 1


class TestDeferredDelivery:
    def test_messages_queue_until_delivered(self):
        bus = InvalidationBus(synchronous=False)
        recorder = Recorder()
        bus.subscribe(recorder)
        bus.publish(message(1))
        bus.publish(message(2))
        assert recorder.messages == []
        assert bus.pending_count == 2
        delivered = bus.deliver_pending()
        assert delivered == 2
        assert [m.timestamp for m in recorder.messages] == [1, 2]

    def test_switching_to_synchronous_flushes_queue(self):
        bus = InvalidationBus(synchronous=False)
        recorder = Recorder()
        bus.subscribe(recorder)
        bus.publish(message(1))
        bus.set_synchronous(True)
        assert [m.timestamp for m in recorder.messages] == [1]
        bus.publish(message(2))
        assert [m.timestamp for m in recorder.messages] == [1, 2]

    def test_counters(self):
        bus = InvalidationBus(synchronous=False)
        bus.subscribe(Recorder())
        bus.publish(message(3))
        assert bus.last_published_timestamp == 3
        assert bus.delivered_count == 0
        bus.deliver_pending()
        assert bus.delivered_count == 1
        assert bus.pending_count == 0
