"""The regression corpus: real, fixed bugs as explorer targets.

Both kernel bugs found so far were *schedule* bugs — correct under the
default interleaving, wrong under a neighbouring one a random seed had to
stumble into.  This module reintroduces each bug behind a private,
test-only switch (:func:`seeded_bug`) and pairs it with a scenario whose
**default schedule is benign**: running the scenario normally passes even
on the buggy kernel, and only the explorer — by flipping the order of two
same-instant events, or by injecting a fault — exposes the corruption.
The explorer seeds the bug a scenario's ``bug`` param names for each run
(``run_plan``), so a counterexample replays with it.  The corpus pins two
properties at once:

* the explorer *finds* each bug within a small budget (sensitivity), and
* it finds *nothing* on the fixed kernel (specificity) — the schedules it
  enumerates are real schedules, so zero violations is a statement about
  the kernel, not about the harness.

The bugs
--------

``unpark-token-collision`` (PR 5): ``Network.unpark`` removed parked
receive waiters by suspension token alone.  Tokens are per-task counters
(every task counts from 1), so a receive *timeout* on one task evicted an
unrelated task's waiter that happened to share the token number — that
task's message then bypassed the wake path and rotted in the inbox while
the task parked forever.  Only the order "timeout fires before the other
task's delivery, at the same instant" loses the wakeup.

``stale-wake-token-check`` (PR 2 era): timer wakes checked only that the
target task was suspended (*some* token pending), not that it was still
suspended on *the timer's* token.  A task that timed out of one wait and
immediately parked on a different one could be spuriously resumed by the
stale first timer — here, a gate-wait timeout resuming a ``recv`` with
``False`` instead of the message.  Only the order "stale timer fires
before the delivery that should win the race" corrupts the result.

``nak-settled-as-committed`` (never shipped — seeded with the pipelined
commit): ``ReplicatedLog.settle`` treating a posted write whose verdict
carries a NAK as committed, so the leader applies and broadcasts a value
that reached a minority under a grant it no longer holds — a completion
taken for a commit.  Single-shot PMP settles through the same function,
so its explorer cell ``pmp/partition_minority`` (``crashes=0``) breaks
agreement under it once an injected grab by p2 revokes p1's grant before
p1's phase-2 write lands.  The two-slots-in-flight property in
``tests/test_recovery_scenarios.py`` must fail under it too.

``join-landed-quorum-read`` (never shipped — seeded with shared quorum
reads): ``ReplicatedLog.quorum_read`` letting a reader join any read in
flight on its replica, including one whose legs already observed
memory, so the joiner can be answered from views taken before its own
invocation — older than a put that completed in between.  Not a schedule
bug either: the directed test in ``tests/test_read_paths.py`` must fail
under it.

These are **test-only flags**: nothing in the library reads them, the
context manager patches the class and restores it, and the scenarios
registered here exist purely as model-checking targets.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from repro.check.scenarios import Scenario, ScenarioRun, register
from repro.mem.layout import MemoryLayout
from repro.mem.permissions import Permission
from repro.mem.regions import RegionSpec
from repro.net.network import Network
from repro.sim.kernel import Kernel, SimConfig
from repro.smr.log import ReplicatedLog


# ---------------------------------------------------------------------------
# the seeded bugs (private, test-only)
# ---------------------------------------------------------------------------
def _buggy_unpark(self, pid, token, task):
    # PR 5 bug: remove by token only — task identity ignored.
    self.waiters[pid] = [w for w in self.waiters[pid] if w.token != token]


def _buggy_ev_wake(self, task, token, value):
    # PR 2-era bug: "is it suspended?" instead of "is it suspended on
    # *this* token?" — a stale timer can resume a later, different wait.
    # The armed-timer hand-off stays: without it a deferred timer is
    # never pushed, and the stale entry the bug misfires never exists.
    if task.timer_at == self.now:
        self._timer_fired(task)
    if task.pending_token is not None and not task.done:
        self._resume(task, value)


_settle = ReplicatedLog.settle


def _buggy_settle(self, posted):
    # Seeded with the pipelined commit: the verdict's NAKs are ignored.
    posted.state.naked = 0
    committed = yield from _settle(self, posted)
    return committed


def _buggy_joinable_read(self):
    # Seeded with shared quorum reads: join whatever read is in flight,
    # landed legs or not.
    return self._joinable


_BUGS = {
    "unpark-token-collision": (Network, "unpark", _buggy_unpark),
    "stale-wake-token-check": (Kernel, "_ev_wake", _buggy_ev_wake),
    "nak-settled-as-committed": (ReplicatedLog, "settle", _buggy_settle),
}

#: seeded bugs a named property test bites on, not an explorer scenario
#: (so they stay out of :func:`known_bugs`, the explorer corpus)
_PROPERTY_BUGS = {
    "join-landed-quorum-read": (
        ReplicatedLog, "_joinable_read", _buggy_joinable_read
    ),
}


@contextmanager
def seeded_bug(name: Optional[str]):
    """Reintroduce a fixed kernel bug for the context's duration.

    ``None`` is a no-op (the fixed kernel), so corpus code can run the
    same scenario with and without the bug.  Handler tables are class
    attributes that dispatch to plain functions (``Kernel._ev_handlers``
    holds ``_ev_wake`` itself), so the patch swaps the function in every
    such table of the class as well as the class attribute, and restores
    both: a kernel built before the context runs buggy inside it.
    """
    if name is None:
        yield
        return
    seeds = {**_BUGS, **_PROPERTY_BUGS}
    try:
        owner, attr, impl = seeds[name]
    except KeyError:
        raise KeyError(f"unknown seeded bug {name!r}; known: {sorted(seeds)}") from None
    original = owner.__dict__[attr]
    tables = {
        table_name: table
        for table_name, table in vars(owner).items()
        if isinstance(table, tuple) and original in table
    }
    setattr(owner, attr, impl)
    for table_name, table in tables.items():
        setattr(
            owner, table_name,
            tuple(impl if entry is original else entry for entry in table),
        )
    try:
        yield
    finally:
        setattr(owner, attr, original)
        for table_name, table in tables.items():
            setattr(owner, table_name, table)


def known_bugs() -> List[str]:
    return sorted(_BUGS)


# ---------------------------------------------------------------------------
# scenario scaffolding: a bare kernel with hand-written tasks
# ---------------------------------------------------------------------------
def _bare_kernel(n_processes: int, seed: int) -> Kernel:
    region = RegionSpec("r", ("x",), Permission.open(range(n_processes)))
    return Kernel(
        SimConfig(n_processes=n_processes, n_memories=1, seed=seed),
        MemoryLayout([region]),
    )


class _RegressionScenario(Scenario):
    """Common shape: a bare kernel + hand-written tasks, run dry, then a
    check of the recorded task results.  A ``bug`` param seeds that bug
    for the run (the explorer does it, see ``run_plan``)."""

    def __init__(self, seed: int = 0, bug: Optional[str] = None) -> None:
        super().__init__(seed=seed, bug=bug)

    def _spawn(self, kernel: Kernel, results: Dict[str, Any]) -> None:
        raise NotImplementedError

    def _verdict(self, results: Dict[str, Any]) -> List[str]:
        raise NotImplementedError

    def build(self) -> ScenarioRun:
        kernel = _bare_kernel(2, self.params["seed"])
        results: Dict[str, Any] = {}
        self._spawn(kernel, results)
        return ScenarioRun(
            kernel,
            lambda: kernel.run(until=100.0),
            lambda _injections: self._verdict(results),
        )


@register
class UnparkCollision(_RegressionScenario):
    """Two tasks of one process park receives with the same token number;
    a timeout on one must not evict the other's waiter.

    Default schedule: at t=5 the delivery to task B (queued at t=4) fires
    before task A's receive timeout (queued at t=4.5) — benign even on
    the buggy kernel.  The explorer's swap fires the timeout first: the
    buggy unpark evicts B's waiter by token, the delivery then rots in
    the inbox, and B never completes.
    """

    name = "regression-unpark-collision"

    def _spawn(self, kernel: Kernel, results: Dict[str, Any]) -> None:
        from repro.sim.environment import ProcessEnv
        from repro.types import ProcessId

        env0 = ProcessEnv(kernel, ProcessId(0))
        env1 = ProcessEnv(kernel, ProcessId(1))

        def receiver_b():
            # parks immediately: suspension token 1 of task B
            envlp = yield from env0.recv(topic="b")
            results["b"] = None if envlp is None else envlp.payload

        def late_a():
            # parks at t=4.5 with *its own* token 1; times out at t=5
            envlp = yield from env0.recv(topic="a", timeout=0.5)
            results["a"] = None if envlp is None else envlp.payload

        def coordinator():
            yield env0.sleep(4.5)
            yield env0.spawn("late-a", late_a(), daemon=False)

        def sender():
            yield env1.sleep(4.0)
            yield env1.send(0, "for-b", topic="b")  # delivers at t=5

        kernel.spawn(0, "receiver-b", receiver_b())
        kernel.spawn(0, "coordinator", coordinator())
        kernel.spawn(1, "sender", sender())

    def _verdict(self, results: Dict[str, Any]) -> List[str]:
        errors: List[str] = []
        if "b" not in results:
            errors.append(
                "lost wakeup: receiver-b never resumed — its waiter was "
                "evicted and the delivery rotted in the inbox"
            )
        elif results["b"] != "for-b":
            errors.append(f"receiver-b got {results['b']!r}, expected 'for-b'")
        if "a" not in results:
            errors.append("late-a never resumed (timeout lost)")
        return errors


@register
class StaleWake(_RegressionScenario):
    """A gate-wait timeout's timer goes stale when the gate opens; the
    stale timer must not resume the task's *next* wait.

    Default schedule: at t=3 the delivery of "go" (queued at t=2) fires
    before the stale gate timer (queued at t=2.5) — benign on both
    kernels (the winner resumes the receive; the stale timer then finds
    the task done/unsuspended).  The explorer's swap fires the stale
    timer first: the buggy token check resumes the parked receive with
    the timer's ``False`` payload instead of the message.
    """

    name = "regression-stale-wake"

    def _spawn(self, kernel: Kernel, results: Dict[str, Any]) -> None:
        from repro.sim.environment import ProcessEnv
        from repro.types import ProcessId

        env0 = ProcessEnv(kernel, ProcessId(0))
        env1 = ProcessEnv(kernel, ProcessId(1))
        gate = env0.new_gate("g")

        def waiter():
            yield env0.sleep(2.5)
            # Arms a timeout timer for t=3.0.  The signaler opens the
            # gate at the same instant, so the wake wins and the timer
            # entry goes stale.
            opened = yield env0.gate_wait(gate, timeout=0.5)
            envlp = yield from env0.recv(topic="go")
            # getattr, not .payload: the buggy kernel can resume this
            # receive with the stale timer's False — exactly the
            # corruption the verdict below must observe, not crash on
            results["waiter"] = (opened, getattr(envlp, "payload", envlp))

        def signaler():
            yield env0.sleep(2.5)
            env0.signal(gate)

        def sender():
            yield env1.sleep(2.0)
            yield env1.send(0, "go", topic="go")  # delivers at t=3

        kernel.spawn(0, "waiter", waiter())
        kernel.spawn(0, "signaler", signaler())
        kernel.spawn(1, "sender", sender())

    def _verdict(self, results: Dict[str, Any]) -> List[str]:
        got = results.get("waiter")
        if got is None:
            return ["waiter never completed (lost delivery or stranded park)"]
        opened, payload = got
        errors: List[str] = []
        if opened is not True:
            errors.append(f"gate wait returned {opened!r}, expected True")
        if payload != "go":
            errors.append(
                f"recv returned {payload!r}, expected 'go' — a stale timer "
                f"resumed the wrong wait"
            )
        return errors
