"""White-box unit tests for the Fast Paxos node internals."""

import pytest

from repro.consensus.ballots import Ballot
from repro.consensus.base import DirectTransport
from repro.consensus.fast_paxos import FAST_BALLOT, FastPaxosNode
from repro.consensus.messages import FastAccepted, FastPropose, Prepare, Promise
from repro.consensus.paxos import PaxosConfig
from repro.types import ProcessId

from tests.conftest import env_of, make_kernel

B1 = Ballot(1, 0)


def _node(kernel, pid=0, value="v"):
    env = env_of(kernel, pid)
    return FastPaxosNode(env, DirectTransport(env, topic="fp-unit"), value)


def _drive(kernel, gen):
    task = kernel.spawn(0, "drive", gen)
    kernel.run(until=100)
    return task


class TestFastRound:
    def test_first_fast_propose_accepted(self, kernel):
        node = _node(kernel)
        _drive(kernel, node._on_fast_propose(FastPropose("a")))
        assert node.fast_accepted
        assert node.acceptor.accepted_value == "a"
        assert node.acceptor.accepted_ballot == FAST_BALLOT

    def test_second_fast_propose_ignored(self, kernel):
        node = _node(kernel)
        _drive(kernel, node._on_fast_propose(FastPropose("a")))
        _drive(kernel, node._on_fast_propose(FastPropose("b")))
        assert node.acceptor.accepted_value == "a"

    def test_fast_accept_blocked_after_classic_promise(self, kernel):
        node = _node(kernel)
        _drive(kernel, node._on_prepare(ProcessId(1), Prepare(B1)))
        _drive(kernel, node._on_fast_propose(FastPropose("late")))
        assert not node.fast_accepted

    def test_fast_quorum_is_all_n(self, kernel):
        node = _node(kernel)
        node._on_fast_accepted(ProcessId(0), FastAccepted("v"))
        node._on_fast_accepted(ProcessId(1), FastAccepted("v"))
        assert not node.decided  # 2 of 3 is not enough
        node._on_fast_accepted(ProcessId(2), FastAccepted("v"))
        assert node.decided and node.decided_value == "v"

    def test_split_votes_never_fast_decide(self, kernel):
        node = _node(kernel)
        node._on_fast_accepted(ProcessId(0), FastAccepted("a"))
        node._on_fast_accepted(ProcessId(1), FastAccepted("b"))
        node._on_fast_accepted(ProcessId(2), FastAccepted("a"))
        assert not node.decided


class TestRecoveryValueRule:
    def test_unanimous_reports_force_the_value(self, kernel):
        node = _node(kernel, value="own")
        node.promises[B1] = {
            ProcessId(1): Promise(B1, FAST_BALLOT, "fast-v"),
            ProcessId(2): Promise(B1, FAST_BALLOT, "fast-v"),
        }
        assert node._choose_value(B1) == "fast-v"

    def test_empty_reports_free_choice(self, kernel):
        node = _node(kernel, value="own")
        node.promises[B1] = {
            ProcessId(1): Promise(B1, None, None),
            ProcessId(2): Promise(B1, None, None),
        }
        assert node._choose_value(B1) == "own"

    def test_highest_ballot_wins_in_recovery(self, kernel):
        node = _node(kernel, value="own")
        node.promises[B1] = {
            ProcessId(1): Promise(B1, Ballot(0, 0), "fast"),
            ProcessId(2): Promise(B1, Ballot(0, 5), "later-classic"),
        }
        assert node._choose_value(B1) == "later-classic"


class TestConfigs:
    def test_paxos_quorum_default_majority(self):
        assert PaxosConfig().quorum_for(3) == 2
        assert PaxosConfig().quorum_for(5) == 3
        assert PaxosConfig(quorum=4).quorum_for(5) == 4
