"""Model-checkable scenarios: the configurations the explorer targets.

A scenario is a *factory plus oracle*: ``build()`` stands up completely
fresh state (kernel, cluster/service, workload) and returns a
:class:`ScenarioRun`; the explorer attaches its scheduler to
``run.kernel``, calls ``run.execute()``, then ``run.check(injections)``
for the invariant verdict.  Scenarios carry their search vocabulary too —
the injection specs and per-run group budgets ("≤ 1 crash + ≤ 1
revocation") the explorer may choose from.

Three target configurations, per the issue:

* :class:`PmpSingle` — 3-process / 3-memory Protected Memory Paxos,
  single instance: small enough to exhaust, rich enough to exercise the
  permission-fence safety argument under injected crashes and
  revocations;
* :class:`QuorumRead` — the PR 5 one-sided quorum-read window on a
  1-shard replicated KV: session staleness and replica consistency under
  leader churn and revocation;
* :class:`EpochCutover` — a live ``MoveLeader`` epoch change with traffic
  in flight: the deposed coordinator must stay fenced and the store must
  keep serving.

``params`` on every scenario is the JSON-serializable constructor-kwargs
dict; together with the registry (:data:`SCENARIOS`) it lets a
counterexample trace name its scenario and be rebuilt for replay.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.check.inject import InjectionSpec, crash, revoke
from repro.types import ProcessId


class ScenarioRun:
    """One fresh, runnable incarnation of a scenario."""

    __slots__ = ("kernel", "execute", "_check", "cleanup")

    def __init__(
        self,
        kernel,
        execute: Callable[[], None],
        check: Callable[[Tuple[str, ...]], List[str]],
        cleanup: Callable[[], None] = lambda: None,
    ) -> None:
        self.kernel = kernel
        self.execute = execute
        self._check = check
        self.cleanup = cleanup

    def check(self, injections_used: Tuple[str, ...] = ()) -> List[str]:
        """Invariant oracles; returns error strings (empty = run passed)."""
        return self._check(injections_used)


class Scenario:
    """Base: a named, parameterized, buildable model-checking target."""

    name = "?"

    def __init__(self, **params: Any) -> None:
        self.params: Dict[str, Any] = dict(params)
        self.injections: Tuple[InjectionSpec, ...] = ()
        self.group_budgets: Dict[str, int] = {}

    def build(self) -> ScenarioRun:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# 1. Protected Memory Paxos, single instance
# ---------------------------------------------------------------------------
class PmpSingle(Scenario):
    """3×3 PMP deciding one value; exhaustible with ≤1 crash + ≤1 revoke.

    Oracles: the ledger's agreement/validity record, a liveness check
    (every non-crashed process decided before the deadline), and the
    protocol-level memory oracle — the decided value must equal the value
    of the maximum accepted proposal across all memories
    (:func:`repro.consensus.protected_memory_paxos.chosen_value`).
    """

    name = "pmp-single"

    def __init__(
        self,
        seed: int = 0,
        deadline: float = 300.0,
        crashes: int = 1,
        revokes: int = 1,
        with_recovery: bool = False,
        obs: bool = False,
        chain_delivery: str = "fused",
    ) -> None:
        super().__init__(
            seed=seed, deadline=deadline, crashes=crashes, revokes=revokes,
            with_recovery=with_recovery, obs=obs, chain_delivery=chain_delivery,
        )
        from repro.consensus.protected_memory_paxos import REGION

        specs: List[InjectionSpec] = []
        if crashes:
            for pid in range(3):
                specs.append(
                    crash(pid, recover_after=5.0 if with_recovery else None)
                )
        if revokes:
            for pid in range(3):
                specs.append(revoke(pid, REGION))
        self.injections = tuple(specs)
        self.group_budgets = {"crash": crashes, "revoke": revokes}

    def build(self) -> ScenarioRun:
        from repro.consensus.omega import crash_aware_omega
        from repro.consensus.protected_memory_paxos import (
            ProtectedMemoryPaxos,
            chosen_value,
        )
        from repro.core.cluster import Cluster, ClusterConfig

        p = self.params
        cluster = Cluster(
            ProtectedMemoryPaxos(),
            ClusterConfig(
                n_processes=3,
                n_memories=3,
                seed=p["seed"],
                strict_safety=False,  # record violations; the oracle reads them
                deadline=p["deadline"],
            ),
        )
        kernel = cluster.kernel
        kernel.config.chain_delivery = p["chain_delivery"]
        kernel.omega = crash_aware_omega(kernel)
        if p["obs"]:
            from repro.obs.runtime import attach

            attach(kernel)
        inputs = ["a", "b", "c"]

        def live_pids() -> List[ProcessId]:
            return [
                ProcessId(pid)
                for pid in range(3)
                if ProcessId(pid) not in kernel.crashed_processes
            ]

        def goal() -> bool:
            decided = kernel.metrics.decisions
            pids = live_pids()
            return bool(pids) and all(pid in decided for pid in pids)

        def execute() -> None:
            cluster.start(inputs)
            kernel.run(until=p["deadline"], stop_when=goal)

        def check(_injections: Tuple[str, ...]) -> List[str]:
            errors = list(kernel.metrics.violations)
            decided = {
                pid: record.value
                for pid, record in kernel.metrics.decisions.items()
            }
            values = set(decided.values())
            if len(values) > 1:
                errors.append(f"agreement: processes decided {decided}")
            if not values <= set(inputs):
                errors.append(f"validity: decided {values - set(inputs)}")
            if not goal():
                undecided = [int(pid) for pid in live_pids() if pid not in decided]
                errors.append(
                    f"liveness: p{[p + 1 for p in undecided]} undecided at "
                    f"t={kernel.now:g} (deadline {p['deadline']:g})"
                )
            chosen = chosen_value(kernel)
            if values and chosen is not None and chosen not in values:
                errors.append(
                    f"memory/decision divergence: max accepted proposal holds "
                    f"{chosen!r} but processes decided {values}"
                )
            return errors

        return ScenarioRun(kernel, execute, check)


# ---------------------------------------------------------------------------
# 2. PR 5 quorum-read window
# ---------------------------------------------------------------------------
class QuorumRead(Scenario):
    """1-shard KV with one-sided quorum reads racing a writer.

    Oracles: workload completion, the ledger's staleness record (session
    guarantees under the watermark rule), and replica slot-for-slot
    consistency (:meth:`repro.shard.service.ShardedKV.replica_divergence`).
    """

    name = "quorum-read"

    def __init__(self, seed: int = 0, deadline: float = 5_000.0,
                 revokes: int = 1, crashes: int = 1) -> None:
        super().__init__(seed=seed, deadline=deadline, revokes=revokes,
                         crashes=crashes)
        from repro.shard.service import shard_region

        specs: List[InjectionSpec] = []
        if crashes:
            # Only p1 (pid 0): it hosts no client task, so crashing it
            # tests leader churn without killing the workload driver.
            specs.append(crash(0, recover_after=30.0))
        if revokes:
            for pid in range(3):
                specs.append(revoke(pid, shard_region(0)))
        self.injections = tuple(specs)
        self.group_budgets = {"crash": crashes, "revoke": revokes}

    def build(self) -> ScenarioRun:
        from repro.shard.router import READ_QUORUM
        from repro.shard.service import ShardConfig, ShardedKV
        from repro.shard.workload import ScriptedClient

        p = self.params
        service = ShardedKV(
            ShardConfig(
                n_shards=1,
                n_processes=3,
                n_memories=3,
                batch_max=2,
                vnodes=8,
                seed=p["seed"],
                deadline=p["deadline"],
                retry_timeout=50.0,
                read_mode=READ_QUORUM,
            )
        )
        clients = [
            ScriptedClient(
                client_id=1,
                script=[
                    ("put", "alpha", "v1"),
                    ("put", "beta", "v1"),
                    ("put", "alpha", "v2"),
                    ("get", "alpha", None),
                ],
                pid=1,
            ),
            # two readers on p3 whose gets issue at the same instants:
            # one posts each quorum read and the other joins it before
            # its legs land; the explorer reorders which one posts
            *(
                ScriptedClient(
                    client_id=client_id,
                    script=[
                        ("get", "alpha", None),
                        ("get", "beta", None),
                        ("get", "alpha", None),
                    ],
                    pid=2,
                )
                for client_id in (2, 3)
            ),
        ]
        state: Dict[str, Any] = {"report": None}

        def execute() -> None:
            state["report"] = service.run_workload(clients)

        def check(_injections: Tuple[str, ...]) -> List[str]:
            errors = list(service.kernel.metrics.violations)
            report = state["report"]
            if report is None or not report.ok:
                errors.append(
                    f"liveness: workload incomplete at t={service.kernel.now:g}"
                )
            stale = service.kernel.metrics.staleness_violations
            if stale:
                errors.append(f"staleness: {stale} session-violating read(s)")
            errors.extend(service.replica_divergence())
            return errors

        return ScenarioRun(service.kernel, execute, check)


# ---------------------------------------------------------------------------
# 3. Epoch cutover with a deposed coordinator
# ---------------------------------------------------------------------------
class EpochCutover(Scenario):
    """A live ``MoveLeader`` while traffic flows; the old leader must stay
    fenced (unless the explorer itself re-granted it via a revoke
    injection) and replicas must agree.

    Not exhaustible at useful depth — this target is for bounded sweeps.
    """

    name = "epoch-cutover"

    def __init__(self, seed: int = 0, deadline: float = 40_000.0,
                 cutover_at: float = 60.0, revokes: int = 1) -> None:
        super().__init__(seed=seed, deadline=deadline, cutover_at=cutover_at,
                         revokes=revokes)
        from repro.shard.service import shard_region

        specs: List[InjectionSpec] = []
        if revokes:
            # the deposed coordinator grabbing its region back, and the
            # new leader being revoked mid-migration
            specs.append(revoke(0, shard_region(0)))
            specs.append(revoke(2, shard_region(0)))
        self.injections = tuple(specs)
        self.group_budgets = {"revoke": revokes}

    def build(self) -> ScenarioRun:
        from repro.reconfig.elastic import (
            ElasticConfig,
            ElasticKV,
            region_fenced_errors,
        )
        from repro.reconfig.epochs import MoveLeader
        from repro.shard.workload import ClosedLoopClient, UniformKeys

        p = self.params
        service = ElasticKV(
            ElasticConfig(
                n_shards=1,
                n_processes=3,
                n_memories=3,
                batch_max=2,
                vnodes=8,
                seed=p["seed"],
                deadline=p["deadline"],
                retry_timeout=25.0,
            )
        )
        service.schedule_reconfig(p["cutover_at"], MoveLeader(0, 2))
        clients = [
            ClosedLoopClient(
                client_id=9,
                n_ops=6,
                keys=UniformKeys(4, prefix="k"),
                think_time=15.0,
                pid=1,
            )
        ]
        state: Dict[str, Any] = {"report": None}

        def execute() -> None:
            state["report"] = service.run_workload(clients)

        def check(injections: Tuple[str, ...]) -> List[str]:
            errors = list(service.kernel.metrics.violations)
            report = state["report"]
            if report is None or not report.ok:
                errors.append(
                    f"liveness: workload incomplete at t={service.kernel.now:g}"
                )
            if service.leader_of(0) != 2:
                errors.append(
                    f"cutover: leader of shard 0 is p{service.leader_of(0) + 1}, "
                    f"expected p3"
                )
            # A revoke injection legitimately rewrites the fence: the new
            # leader re-grabs on its next write, but until then the zombie
            # holds the region — only judge fencing on injection-free runs.
            if not any(name.startswith("revoke-") for name in injections):
                errors.extend(region_fenced_errors(service, 0, 0))
            errors.extend(service.replica_divergence())
            return errors

        return ScenarioRun(service.kernel, execute, check)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
SCENARIOS: Dict[str, type] = {
    PmpSingle.name: PmpSingle,
    QuorumRead.name: QuorumRead,
    EpochCutover.name: EpochCutover,
}


def register(cls: type) -> type:
    """Add a scenario class to the registry (used by the regression
    corpus; also usable by downstream experiments)."""
    SCENARIOS[cls.name] = cls
    return cls


def make_scenario(name: str, params: Optional[Dict[str, Any]] = None) -> Scenario:
    """Instantiate a registered scenario from its trace-serialized form."""
    if name not in SCENARIOS:
        # the regression corpus registers its scenarios on import
        import repro.check.regressions  # noqa: F401
    try:
        cls = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {sorted(SCENARIOS)}"
        ) from None
    return cls(**(params or {}))
