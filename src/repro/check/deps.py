"""The dependency relation over frontier entries (DPOR's independence).

Two frontier entries *commute* — executing them in either order reaches
the same state — unless they touch the same piece of state.  The explorer
uses this to prune: if the default run fired entry ``c`` before entry
``d`` and the two commute, the schedule that fires ``d`` first reaches a
state the ``c``-first subtree already covers, so the divergence is skipped
(sleep sets, see :mod:`repro.check.explore`).

The relation is declared per entry kind from what each kernel handler may
touch:

===============  =====================================================
entry kind       footprint
===============  =====================================================
resume / wake /  the target task's **process** — a resumed task may
recv_timeout /   consume from its process inbox, signal gates, send,
fan_resolve      or issue ops (a segmented chain's resolve posts its
                 next work request), so two same-process resumptions
                 never commute (conservative; per-task would over-prune)
deliver          the destination **process** (inbox append / waiter
                 wake)
fan_arrive       the target **(memory, region)** — application order
                 at one region is visible to reads; distinct memories
                 or regions commute.  A fused chain contributes one key
                 per region it touches (the chain's conservative union)
call / fault /   **global** — failure events and ad-hoc callables may
injections       touch anything
===============  =====================================================

Declared independence is an approximation, as in any uninstrumented DPOR:

* the kernel's RNG is a single stream, so two entries that both draw from
  it (random latency models, protocol backoff) technically never commute;
  we ignore this, matching the standard practice of declaring independence
  modulo identifier/clock renaming;
* task-id and queue-seq assignment differ between the two orders; entry
  *identity* (seq) is prefix-stable which is all the explorer needs, but
  downstream default schedules can differ cosmetically.

Both approximations only affect how much is pruned as *equivalent*, never
whether a reachable oracle violation is reported in some explored run of
the bounded search.
"""

from __future__ import annotations

from typing import Tuple

from repro.sim.event_queue import (
    EV_DELIVER,
    EV_FAN_ARRIVE,
    EV_FAN_RESOLVE,
    EV_RECV_TIMEOUT,
    EV_RESUME,
    EV_WAKE,
)
from repro.sim.memops import leg_target

#: Footprint of an entry that may touch anything (call, fault, injection).
GLOBAL: Tuple = (("*",),)

_TASK_KINDS = frozenset((EV_RESUME, EV_WAKE, EV_RECV_TIMEOUT, EV_FAN_RESOLVE))


def _mem_keys(mid, op) -> Tuple:
    """Memory-arrival footprint: one ``("mem", mid, region)`` key per
    region the op may touch.  A fused chain (BatchOp) carries its
    precomputed distinct-region tuple — the conservative union of the
    whole chain's footprint, since the chain applies atomically."""
    regions = getattr(op, "regions", None)
    if regions is not None:
        m = int(mid)
        return tuple(("mem", m, region) for region in regions)
    return (("mem", int(mid), getattr(op, "region", None)),)


def footprint(entry) -> Tuple:
    """The set of state keys a :class:`FrontierEntry` may touch.

    Keys are plain value tuples — ``("proc", pid)``, ``("mem", mid,
    region)`` or the global marker — so footprints compare equal across
    runs that execute the same prefix (sleep sets travel between runs).
    Unknown payload shapes degrade to :data:`GLOBAL`, never to a crash.
    """
    kind = entry.kind
    try:
        if kind in _TASK_KINDS:
            return (("proc", int(entry.a.pid)),)
        if kind == EV_DELIVER:
            return (("proc", int(entry.a.dst)),)
        if kind == EV_FAN_ARRIVE:
            return _mem_keys(*leg_target(entry.c))
    except Exception:
        return GLOBAL
    return GLOBAL  # EV_CALL, EV_FAULT, anything unrecognised


def dependent(fp1: Tuple, fp2: Tuple) -> bool:
    """True when entries with footprints *fp1*, *fp2* may not commute."""
    if fp1 is GLOBAL or fp2 is GLOBAL or ("*",) in fp1 or ("*",) in fp2:
        return True
    for key in fp1:
        if key in fp2:
            return True
    return False


def independent(fp1: Tuple, fp2: Tuple) -> bool:
    """True when entries with footprints *fp1*, *fp2* commute."""
    return not dependent(fp1, fp2)
