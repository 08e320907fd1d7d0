"""One-sided read probes for permission-fenced protocols.

The primitives the non-consensus read paths are built from, shared by
Protected Memory Paxos, Aligned Paxos and the replicated-log layer:

* :func:`probe_write_grant` — the **fence check**: a zero-length
  permission probe on every memory, true iff the caller's exclusive
  write grant is still installed at a majority.  A leader whose grant
  probe succeeds at time ``t`` knows no other leader can have committed
  anything it has not seen before ``t`` (committing requires holding the
  grant at a majority, majorities intersect, and a grant moves only
  through the full takeover prepare) — so its local applied state is
  linearizable to serve as of ``t``.
* :func:`watermark_snapshot` — the **watermark read**: snapshot the
  per-writer commit-watermark registers from a majority and take the
  confirmed max (:func:`max_confirmed_watermark`).  Because a writer
  installs watermark ``s`` in the same chain as slot ``s``, right after
  it (and waits for a majority ACK before answering any client), the
  confirmed max over any majority covers every write a client ever saw
  complete.
* :func:`quorum_chain` — the one-round read: per memory, ONE chain
  carrying the watermark snapshot and the floor-filtered entry snapshot
  (see ``ReplicatedLog._quorum_read_fused`` for the adoption rule that
  makes this safe).

Each is one memory round, issued to all memories as the single-completion
fan-out :func:`verdict_fanout` builds
(:class:`~repro.sim.effects.OpFanoutEffect`): the kernel counts ACKs and
NAKs in one shared state and wakes the caller exactly once when the
verdict is in.  The two reads are op builders, not generators: the
replicated log keeps the effect it posts, so a second reader can watch
its legs land (``ReplicatedLog.quorum_read``).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from repro.mem.operations import BatchOp, ProbeOp, ReadSnapshotOp, SnapshotOp
from repro.sim.effects import OpFanoutEffect
from repro.sim.environment import ProcessEnv
from repro.types import RegionId, RegisterKey

#: name component of per-writer watermark registers: ``(region, WM, pid)``
WM = "wm"


def watermark_key(rx_region: RegionId, pid: int) -> tuple:
    """The per-writer commit-watermark register of *pid* in *rx_region*."""
    return (rx_region, WM, int(pid))


def verdict_fanout(
    env: ProcessEnv, op, timeout: Optional[float]
) -> OpFanoutEffect:
    """Fan *op* out to every memory with ACK-counting single completion:
    the task wakes once — at a majority of ACKs, at more than
    ``m - majority`` NAKs (a majority of ACKs became impossible), or at
    the timeout.  The verdict is ``state.acked >= majority``."""
    majority = env.majority_of_memories()
    return env.fanout_to_all(
        op,
        need=majority,
        count_acks=True,
        spare_naks=env.n_memories - majority,
        timeout=timeout,
    )


def probe_write_grant(
    env: ProcessEnv, region: RegionId, timeout: Optional[float] = None
) -> Generator:
    """True iff this process holds the exclusive write grant on *region*
    at a majority of memories right now (the one-sided fence check).

    This is what makes permission-fenced local reads sound (Lemma D.3
    re-used for reads): an ACK majority at probe time ``t`` proves no
    competing leader can have committed a value before ``t`` that this
    process has not adopted — any such commit would have required taking
    the grant at an intersecting memory, and grants return only through
    this process's own prepare.  Meaningful only for an exclusive-writer
    region: on an open one (Aligned Paxos's disk variant) the check is
    True whenever a majority responds, and is no fence.
    """
    state = yield verdict_fanout(env, ProbeOp(region, "write"), timeout)
    return state.acked >= env.majority_of_memories()


def watermark_snapshot(rx_region: RegionId) -> SnapshotOp:
    """One memory's view of every watermark register in *rx_region*; over
    a majority of views, :func:`max_confirmed_watermark` gives the max
    slot index seen and whether it is provably durable."""
    return SnapshotOp(rx_region, (rx_region,))


def max_confirmed_watermark(views, majority: int) -> Tuple[int, bool]:
    """Max watermark over *views* plus the confirmed-majority verdict.

    Confirmation is **per register** (per writer): the max is confirmed
    only when a *single* writer's register carries it at a majority of
    the views.  Counting mixed registers would be unsound because writers
    put the slot write and the watermark publish in one chain: two
    different writers' failed chains can each leave the same watermark at
    a minority, jointly covering a majority, without EITHER writer's slot
    being committed anywhere.  A single writer's register at a majority,
    by contrast, proves that writer completed (or advanced past) the slot
    under the fence — the commit happened.
    """
    watermark = -1
    for view in views:
        for value in view.values():
            if isinstance(value, int) and value > watermark:
                watermark = value
    if watermark < 0:
        return watermark, False
    counts: Dict[Any, int] = {}
    best = 0
    for view in views:
        for key, value in view.items():
            if isinstance(value, int) and value >= watermark:
                tally = counts.get(key, 0) + 1
                counts[key] = tally
                if tally > best:
                    best = tally
    return watermark, best >= majority


def quorum_chain(
    rx_region: RegionId,
    region: RegionId,
    prefix: RegisterKey,
    floor: Any = None,
) -> BatchOp:
    """The fused 1-round quorum read's chain for one memory:
    ``[watermark snapshot, floor-filtered entry snapshot]``.

    Because a chain applies atomically at one memory, each ACKed pair
    ``(wm_view, entry_view)`` is a *consistent cut* of that memory: every
    slot its watermark covers is present in the same entry view (writers
    install the slot and its watermark in one chain too — the same-chain
    property).

    Callers MUST gate on ``env.fifo_memory_ops`` and apply the per-view
    qualification rule (adopt slot ``s`` only from a view whose own
    watermark is ``>= s``) — see ``ReplicatedLog._quorum_read_inner``.
    """
    return BatchOp(
        (watermark_snapshot(rx_region), ReadSnapshotOp(region, prefix, floor))
    )
