"""Network unit tests: inboxes, waiters, integrity bookkeeping."""

from repro.net.messages import Envelope
from repro.net.network import Network, RecvWaiter
from repro.types import ProcessId

P0, P1 = ProcessId(0), ProcessId(1)


#: stand-ins for kernel tasks: the network only compares them by identity
TASK_A, TASK_B = object(), object()


def _env(src=P0, dst=P1, topic="t", payload="x"):
    return Envelope(src=src, dst=dst, topic=topic, payload=payload, sent_at=0.0)


class TestDelivery:
    def test_delivery_queues_without_waiter(self):
        net = Network(2)
        assert net.deliver(_env()) is None
        assert net.pending_count(P1) == 1

    def test_duplicate_envelope_dropped(self):
        net = Network(2)
        env = _env()
        net.deliver(env)
        assert net.deliver(env) is None
        assert net.dropped == 1
        assert net.pending_count(P1) == 1

    def test_guard_is_per_envelope_not_per_id(self):
        # the network keeps no set of delivered ids: the flag rides the
        # envelope, so a distinct envelope is never taken for a replay
        net = Network(2)
        first = _env()
        net.deliver(first)
        assert first.delivered
        twin = Envelope(P0, P1, "t", "x", 0.0)
        assert not twin.delivered
        net.deliver(twin)
        assert net.dropped == 0
        assert net.pending_count(P1) == 2

    def test_matching_waiter_consumes_directly(self):
        net = Network(2)
        waiter = RecvWaiter(P1, token=1, task=TASK_A, topic="t")
        net.park(waiter)
        returned = net.deliver(_env())
        assert returned is waiter
        assert net.pending_count(P1) == 0  # consumed, not queued

    def test_topic_mismatch_leaves_waiter_parked(self):
        net = Network(2)
        waiter = RecvWaiter(P1, token=1, task=TASK_A, topic="other")
        net.park(waiter)
        assert net.deliver(_env(topic="t")) is None
        assert net.waiters[P1] == [waiter]


class TestConsume:
    def test_try_consume_respects_topic_and_match(self):
        net = Network(2)
        net.deliver(_env(payload=1, topic="a"))
        net.deliver(_env(payload=2, topic="b"))
        net.deliver(_env(payload=3, topic="b"))
        assert net.try_consume(P1, "b", None).payload == 2
        assert net.try_consume(P1, "b", lambda e: e.payload == 3).payload == 3
        assert net.try_consume(P1, "b", None) is None
        assert net.try_consume(P1, "a", None).payload == 1

    def test_unpark_removes_by_token(self):
        net = Network(2)
        net.park(RecvWaiter(P1, token=1, task=TASK_A))
        net.park(RecvWaiter(P1, token=2, task=TASK_A))
        net.unpark(P1, 1, TASK_A)
        assert [w.token for w in net.waiters[P1]] == [2]

    def test_unpark_leaves_another_tasks_waiter_with_the_same_token(self):
        # tokens are per-task counters: two tasks of one process both park
        # on their token 1; the timeout of one must not evict the other
        net = Network(2)
        net.park(RecvWaiter(P1, token=1, task=TASK_A))
        survivor = RecvWaiter(P1, token=1, task=TASK_B)
        net.park(survivor)
        net.unpark(P1, 1, TASK_A)
        assert net.waiters[P1] == [survivor]
        assert net.deliver(_env()) is survivor


class TestCrashHandling:
    def test_drop_process_clears_state(self):
        net = Network(2)
        net.deliver(_env())
        net.park(RecvWaiter(P1, token=9, task=TASK_A))
        net.drop_process(P1)
        assert net.pending_count(P1) == 0
        assert net.waiters[P1] == []


class TestEnvelope:
    def test_repr_mentions_endpoints(self):
        text = repr(_env())
        assert "p1" in text and "p2" in text
