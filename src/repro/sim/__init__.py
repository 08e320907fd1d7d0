"""Deterministic discrete-event simulation kernel for the M&M model.

Protocol code is written as Python generators that yield *effects* (send a
message, invoke a memory operation, wait, receive, sleep).  The kernel owns
virtual time: a message costs one delay, a memory operation two (request +
response), and computation is instantaneous — matching the complexity metric
of the paper (Section 3), so measured decision times under the nominal
latency model are exactly the paper's "k-deciding" delay counts.

Everything is deterministic given a seed: the event queue breaks ties by
insertion order and all randomness flows through one ``random.Random``.
:func:`run_hash` digests a finished run, so two replays can be compared.
"""

from repro.sim.effects import (
    GateWaitEffect,
    OpFanoutEffect,
    RecvEffect,
    SendEffect,
    SleepEffect,
    SpawnEffect,
)
from repro.sim.environment import ProcessEnv
from repro.sim.faults import FailureController, LinkFault
from repro.sim.futures import FanoutState, Gate
from repro.sim.kernel import Kernel, SimConfig, Task, run_hash
from repro.sim.latency import (
    AdversarialLatency,
    JitteredSynchrony,
    LatencyModel,
    NominalLatency,
    PartialSynchrony,
)

__all__ = [
    "AdversarialLatency",
    "FailureController",
    "FanoutState",
    "Gate",
    "GateWaitEffect",
    "LinkFault",
    "OpFanoutEffect",
    "JitteredSynchrony",
    "Kernel",
    "LatencyModel",
    "NominalLatency",
    "PartialSynchrony",
    "ProcessEnv",
    "RecvEffect",
    "SendEffect",
    "SimConfig",
    "SleepEffect",
    "SpawnEffect",
    "Task",
    "run_hash",
]
