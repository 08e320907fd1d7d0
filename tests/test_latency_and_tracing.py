"""Latency models."""

import random

import pytest

from repro.sim.latency import (
    AdversarialLatency,
    JitteredSynchrony,
    NominalLatency,
    PartialSynchrony,
)


class TestNominal:
    def test_unit_delays(self):
        model = NominalLatency()
        rng = random.Random(0)
        assert model.message_delay(0, 1, 0.0, rng) == 1.0
        assert model.memory_request_delay(0, 0, 0.0, rng) == 1.0
        assert model.memory_response_delay(0, 0, 0.0, rng) == 1.0

    def test_declares_constant_delays(self):
        # The kernel's fast path skips the method calls for these.
        assert NominalLatency.constant_message_delay == 1.0
        assert NominalLatency.constant_request_delay == 1.0
        assert NominalLatency.constant_response_delay == 1.0

    def test_subclass_override_drops_matching_constant(self):
        # A NominalLatency subclass overriding one *_delay method must not
        # inherit the constant for it, or the override would be ignored.
        class SlowLinks(NominalLatency):
            def message_delay(self, src, dst, now, rng):
                return 10.0

        assert SlowLinks.constant_message_delay is None
        assert SlowLinks.constant_request_delay == 1.0
        assert SlowLinks.constant_response_delay == 1.0

    def test_subclass_override_takes_effect_in_kernel(self):
        from tests.conftest import env_of, make_kernel, run_single

        class SlowLinks(NominalLatency):
            def message_delay(self, src, dst, now, rng):
                return 10.0

        kernel = make_kernel(latency=SlowLinks())
        env0, env1 = env_of(kernel, 0), env_of(kernel, 1)

        def sender():
            yield env0.send(1, "ping", topic="t")

        def receiver():
            yield from env1.recv(topic="t")
            return env1.now

        kernel.spawn(0, "s", sender())
        task = run_single(kernel, 1, receiver())
        assert task.result == 10.0


class TestJitter:
    def test_bounds(self):
        model = JitteredSynchrony(jitter=0.3)
        rng = random.Random(1)
        for _ in range(100):
            delay = model.message_delay(0, 1, 0.0, rng)
            assert 1.0 <= delay <= 1.3

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError):
            JitteredSynchrony(jitter=1.5)
        with pytest.raises(ValueError):
            JitteredSynchrony(jitter=-0.1)


class TestPartialSynchrony:
    def test_chaos_before_gst(self):
        model = PartialSynchrony(gst=100.0, bound=2.0, chaos=50.0)
        rng = random.Random(2)
        pre = [model.message_delay(0, 1, 10.0, rng) for _ in range(200)]
        assert max(pre) > 10.0  # genuinely chaotic

    def test_bounded_after_gst(self):
        model = PartialSynchrony(gst=100.0, bound=2.0, chaos=50.0)
        rng = random.Random(2)
        post = [model.message_delay(0, 1, 200.0, rng) for _ in range(200)]
        assert all(1.0 <= d <= 2.0 for d in post)


class TestAdversarial:
    def test_override_applies(self):
        model = AdversarialLatency(
            lambda kind, a, b, now: 99.0 if kind == "msg" else None
        )
        rng = random.Random(0)
        assert model.message_delay(0, 1, 0.0, rng) == 99.0
        assert model.memory_request_delay(0, 0, 0.0, rng) == 1.0

    def test_fallback_base_model(self):
        model = AdversarialLatency(
            lambda kind, a, b, now: None, base=JitteredSynchrony(0.1)
        )
        rng = random.Random(0)
        assert 1.0 <= model.message_delay(0, 1, 0.0, rng) <= 1.1

    def test_memory_leg_overrides(self):
        def override(kind, actor, peer, now):
            if kind == "mem_req" and actor == 1:
                return 50.0
            if kind == "mem_resp" and peer == 2:
                return 60.0
            return None

        model = AdversarialLatency(override)
        rng = random.Random(0)
        assert model.memory_request_delay(1, 0, 0.0, rng) == 50.0
        assert model.memory_request_delay(0, 0, 0.0, rng) == 1.0
        assert model.memory_response_delay(0, 2, 0.0, rng) == 60.0

