"""The regression corpus: seeded bugs must be rediscovered by the
explorer (with a replayable counterexample), and the fixed code must
explore clean — both directions, every bug."""

from __future__ import annotations

import pytest

from repro.check import Budget, explore, make_scenario, replay_trace, save_trace
from repro.check.regressions import known_bugs, seeded_bug
from repro.check.trace import counterexample_to_dict
from repro.net.network import Network
from repro.sim.kernel import Kernel

#: bug -> (scenario, params, divergence depth its fixed run exhausts at)
CORPUS = {
    "unpark-token-collision": ("regression-unpark-collision", {}, 2),
    "stale-wake-token-check": ("regression-stale-wake", {}, 2),
    # single-shot PMP settles through ReplicatedLog.settle (184 schedules
    # at depth 1; depth 2 runs past the budget)
    "nak-settled-as-committed": ("pmp/partition_minority", {"crashes": 0}, 1),
}


def _scenario(bug, seeded=True):
    name, params, _depth = CORPUS[bug]
    return make_scenario(name, {**params, "bug": bug} if seeded else params)


class TestSeededBugFlag:
    def test_corpus_covers_every_known_bug(self):
        assert sorted(CORPUS) == known_bugs()

    def test_patch_is_applied_and_restored(self):
        original = Network.__dict__["unpark"]
        with seeded_bug("unpark-token-collision"):
            assert Network.__dict__["unpark"] is not original
        assert Network.__dict__["unpark"] is original

    def test_patch_restored_on_error(self):
        original = Kernel.__dict__["_ev_wake"]
        with pytest.raises(RuntimeError):
            with seeded_bug("stale-wake-token-check"):
                raise RuntimeError("boom")
        assert Kernel.__dict__["_ev_wake"] is original

    def test_dispatch_table_slot_swapped_and_restored(self):
        from repro.check.regressions import _buggy_ev_wake
        from repro.sim.event_queue import EV_WAKE

        original = Kernel._ev_handlers[EV_WAKE]
        table = Kernel._ev_handlers
        with seeded_bug("stale-wake-token-check"):
            assert Kernel._ev_handlers[EV_WAKE] is _buggy_ev_wake
        assert Kernel._ev_handlers[EV_WAKE] is original
        assert Kernel._ev_handlers is table

    def test_none_is_a_noop(self):
        with seeded_bug(None):
            pass

    def test_unknown_bug_rejected(self):
        with pytest.raises(KeyError):
            with seeded_bug("not-a-bug"):
                pass


@pytest.mark.parametrize("bug", sorted(CORPUS))
class TestCorpus:
    def test_explorer_finds_the_seeded_bug(self, bug, tmp_path):
        report = explore(
            _scenario(bug), Budget(divergences=2, max_runs=500), stop_on_first=True
        )
        assert report.violations >= 1, f"explorer missed seeded bug {bug}"
        cx = report.counterexamples[0]
        assert cx.plan, "a violating schedule must diverge from the default"
        # ...and the counterexample trace replays deterministically
        path = save_trace(cx, str(tmp_path / f"{bug}.json"))
        result = replay_trace(path)
        assert result.matched, result.mismatches
        assert result.reproduced

    def test_default_schedule_is_benign_even_with_the_bug(self, bug):
        # the corpus point: these are schedule bugs — depth 0 (the exact
        # default order) passes even on the buggy kernel
        report = explore(_scenario(bug), Budget(divergences=0))
        assert report.runs == 1
        assert report.violations == 0

    def test_fixed_kernel_explores_clean(self, bug):
        depth = CORPUS[bug][2]
        report = explore(
            _scenario(bug, seeded=False), Budget(divergences=depth, max_runs=500)
        )
        assert report.exhausted
        assert report.violations == 0

    def test_counterexample_stops_reproducing_once_fixed(self, bug):
        report = explore(
            _scenario(bug), Budget(divergences=2, max_runs=500), stop_on_first=True
        )
        data = counterexample_to_dict(report.counterexamples[0])
        data["params"]["bug"] = None
        result = replay_trace(data)
        assert result.matched
        assert not result.reproduced
