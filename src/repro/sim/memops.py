"""The memory-operation path: post, price, land and resolve fan-out legs.

An :class:`~repro.sim.effects.OpFanoutEffect` becomes one *leg* per
target memory, all folding into one shared
:class:`~repro.sim.futures.FanoutState`.  A leg travels the kernel's
event queue as two typed entries:

* ``EV_FAN_ARRIVE`` — the request reached its memory: apply the op there
  and send the response leg back (a crashed memory swallows it);
* ``EV_FAN_RESOLVE`` — the response reached the issuer: fold the result
  into the state and, once the verdict is in, wake the issuer or pulse
  its gate.

Both carry the leg as the entry's ``c`` operand, ``(index, mid, op,
cursor)`` on arrival and ``(index, mid, result, cursor)`` on resolve.
This module alone builds and unpacks that tuple; the scheduler's labels
and the checker's footprints read a leg's target through
:func:`leg_target`.  :func:`post_leg` is the one place a leg's request is
validated, counted, priced and queued.

A chain (``BatchOp``) travels per ``SimConfig.chain_delivery``:
:data:`FUSED` — one request, applied atomically at its arrival, priced
request + k·issue + response; :data:`SEGMENTED` — one signalled round trip
per work request, tracked by a :class:`_ChainCursor`, the next posted
when the previous completes.

Every function takes the kernel first and reads its state directly, like
the kernel's own dispatch-table entries: ``_ev_fan_arrive`` and
``_ev_fan_resolve`` sit in ``Kernel._ev_handlers``, ``_fx_op_fanout`` in
``Kernel._fx_handlers``, and ``Kernel.run`` calls the two event handlers
inline.
"""

from __future__ import annotations

from typing import Any, List

from repro.errors import SimulationError
from repro.mem.operations import OP_BATCH
from repro.sim.effects import PARKED
from repro.sim.event_queue import EV_FAN_ARRIVE, EV_FAN_RESOLVE, EV_RESUME, EV_WAKE
from repro.sim.futures import FanoutState
from repro.types import ChainAbort, OpResult, OpStatus, memory_name

#: ``SimConfig.chain_delivery`` modes: how a BatchOp chain travels
FUSED = "fused"
SEGMENTED = "segmented"


def leg_target(leg):
    """``(mid, op)``: where the leg of an ``EV_FAN_ARRIVE`` entry (its
    ``c`` operand) goes and what it applies there."""
    return leg[1], leg[2]


def post_leg(kernel, task, state, index, mid, op, cursor) -> None:
    """Post leg *index* of fan-out *state*: validate memory *mid*, count
    and price *op*'s request leg, open its span and queue its arrival.
    *op* is the leg's op or fused chain, or the work request *cursor* has
    in flight under segmented delivery."""
    if mid >= len(kernel.memories):
        raise SimulationError(f"no such memory mu{int(mid) + 1}")
    pid = task.pid
    now = kernel.now
    req = kernel._req_delay
    if req is None:
        req = kernel.config.latency.memory_request_delay(pid, mid, now, kernel.rng)
    counter = kernel._mem_op_counter
    if op.kind != OP_BATCH:
        counter[pid, type(op).__name__] += 1
    else:
        # A fused chain is ONE queue entry, but each sub-op is real work:
        # count them under their own names so ledgers stay comparable
        # between fused and segmented runs.  Delay: only the last WR
        # signals, so the chain costs the request leg plus one issue
        # increment per WR (nominal issue cost: zero — see LatencyModel).
        for sub in op.ops:
            counter[pid, type(sub).__name__] += 1
        issue = kernel._issue_delay
        if issue is not None:
            req += issue * len(op.ops)
        else:
            latency = kernel.config.latency
            for _ in op.ops:
                req += latency.memory_issue_delay(pid, mid, now, kernel.rng)
    obs = kernel.obs
    if obs is not None:
        obs.op_started(task, (task.task_id, state.token, index), mid, op, now)
    kernel.queue.push(now + req, EV_FAN_ARRIVE, task, state, (index, mid, op, cursor))


def _fx_op_fanout(kernel, task, effect):
    """Post one op (or chain) per target memory with single-completion
    semantics (see :class:`~repro.sim.effects.OpFanoutEffect`): all
    completions fold into one shared :class:`FanoutState`, and the task
    resumes exactly once when the verdict is in."""
    targets = effect.targets
    need = effect.need
    count_acks = effect.count_acks
    # With no timer, the verdict must be in once every leg completed:
    # ``need`` completions, or (counting ACKs) ``need`` ACKs unless more
    # than ``spare_naks`` NAKs came first.
    reachable = len(targets) - effect.spare_naks if count_acks else len(targets)
    if effect.timeout is None and need > max(reachable, 0):
        wanted = (
            f"{need} ACKs with {effect.spare_naks} spare NAKs" if count_acks
            else f"{need} completions"
        )
        raise SimulationError(
            f"{task.label} posted a fan-out needing {wanted} from "
            f"{len(targets)} targets with no timeout: it could never wake"
        )
    notify = effect.notify
    if notify is not None and effect.timeout is not None:
        raise SimulationError(
            f"{task.label} posted a fan-out with both notify= and a "
            "timeout: the posted form has no task parked to time out"
        )
    token = task.new_token()
    state = FanoutState(len(targets), need, count_acks, effect.spare_naks, token)
    effect.state = state
    if kernel.obs is not None:
        state.ctx = task.ctx
    segmented = kernel.config.chain_delivery != FUSED
    for index, (mid, op) in enumerate(targets):
        cursor = None
        if segmented and op.kind == OP_BATCH:
            cursor = _ChainCursor(op.ops)
            op = op.ops[0]
        post_leg(kernel, task, state, index, mid, op, cursor)
    if notify is not None:
        # Posted form: the token only names the legs' spans — the task
        # is not parked, it runs on with the open state in hand.
        task.pending_token = None
        state.notify = notify
        state.fired = state.satisfied
        return state
    if state.satisfied:
        # Degenerate verdict (need <= 0): resume at this instant; the
        # posted ops still complete into the state later.
        state.fired = True
        kernel.queue.push_ready(EV_RESUME, task, state)
    elif effect.timeout is not None:
        kernel._arm(task, effect.timeout, EV_WAKE, token, state)
    return PARKED


def _ev_fan_arrive(kernel, task, state, leg) -> None:
    index, mid, op, cursor = leg
    memory = kernel.memories[mid]
    if memory.crashed:
        # A crashed memory swallows the request: this leg never completes.
        if kernel.obs is not None:
            kernel.obs.point("mem_drop", mem=memory_name(mid))
        return
    pid = task.pid
    result = memory.apply(pid, op)
    state.landed += 1
    resp = kernel._resp_delay
    if resp is None:
        resp = kernel.config.latency.memory_response_delay(
            pid, mid, kernel.now, kernel.rng
        )
    kernel.queue.push(
        kernel.now + resp, EV_FAN_RESOLVE, task, state, (index, mid, result, cursor)
    )


def _ev_fan_resolve(kernel, task, state, leg) -> None:
    index, mid, result, cursor = leg
    obs = kernel.obs
    if obs is not None:
        obs.op_resolved(
            (task.task_id, state.token, index), kernel.now, result.status.value
        )
    if cursor is not None:
        result = cursor.fold(result)
        if result is None:
            # Mid-chain: the leg counts once, at its last WR.  Post the
            # next WR now, unless the task was killed (its process
            # crashed mid-chain) or has returned.
            if task.done:
                return
            if obs is not None:
                # Posted on the issuing task's behalf: phase-scoped
                # pricing and span parenting must see the context the
                # chain was posted from, as for the first WR (a posted
                # fan-out's issuer has moved on, so it rides the state).
                obs.enter_task(task)
                held = task.ctx
                task.ctx = state.ctx
            post_leg(kernel, task, state, index, mid, cursor.ops[cursor.index], cursor)
            if obs is not None:
                task.ctx = held
                obs.exit_task(task, kernel.now)
            return
    state.results[index] = result
    state.done += 1
    if result.ok:
        state.acked += 1
    else:
        state.naked += 1
    if state.fired:
        return  # late completion: recorded above, never resumes the task
    if state.count_acks:
        verdict = state.acked >= state.need or state.naked > state.spare_naks
    else:
        verdict = state.done >= state.need
    if verdict:
        state.fired = True
        if obs is not None:
            obs.fanout_verdict(task, state, kernel.now)
        notify = state.notify
        if notify is None:
            kernel._wake(task, state.token, state)
        else:
            # Posted fan-out: the completion-queue pulse.  Whoever polls
            # the gate finds ``fired`` set; nobody parked (the waiter
            # died, or is busy) costs no event at all.
            kernel.pulse_gate(notify)


class _ChainCursor:
    """Progress of one chain under segmented delivery: which work request
    is in flight and the values of those that completed."""

    __slots__ = ("ops", "index", "values")

    def __init__(self, ops) -> None:
        self.ops = ops
        self.index = 0
        self.values: List[Any] = []

    def fold(self, result):
        """Account the in-flight WR's *result*.  Returns the chain's final
        :class:`OpResult` — the same ACK tuple / ``ChainAbort`` a fused
        chain resolves to — or None when another WR must be posted."""
        if not result.ok:
            return OpResult(OpStatus.NAK, ChainAbort(self.index, self.values))
        self.values.append(result.value)
        self.index += 1
        if self.index == len(self.ops):
            return OpResult(OpStatus.ACK, tuple(self.values))
        return None
