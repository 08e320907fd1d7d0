"""Model-checkable scenarios: the configurations the explorer targets.

A scenario is a *factory plus oracle*: ``build()`` stands up completely
fresh state (kernel, cluster/service, workload) and returns a
:class:`ScenarioRun`; the explorer attaches its scheduler to
``run.kernel``, calls ``run.execute()``, then ``run.check(injections)``
for the invariant verdict.  Scenarios carry their search vocabulary too —
the injection specs and per-run group budgets ("≤ 1 crash + ≤ 1
revocation") the explorer may choose from.

The targets:

* :class:`Canned` — one consensus protocol on one
  :mod:`repro.core.scenarios` cluster, registered per cell of the
  paper's failure landscape: ``pmp/<factory>`` and
  ``disk_paxos/<factory>`` at 3×3 (PMP on ``common_case`` is
  ``pmp-single``), and Theorem 6.1's row ``theorem61/<protocol>`` at
  2×2, where the 2-delay strawman ``naive_fast`` is expected to break;
* :class:`QuorumRead` — one-sided quorum reads on a 1-shard replicated
  KV: session staleness and replica consistency under leader churn and
  revocation;
* :class:`EpochCutover` — a live ``MoveLeader`` epoch change with traffic
  in flight: the deposed coordinator must stay fenced and the store must
  keep serving.

``params`` on every scenario is the JSON-serializable constructor-kwargs
dict; together with the registry (:data:`SCENARIOS`) it lets a
counterexample trace name its scenario and be rebuilt for replay.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.check.inject import InjectionSpec, crash, revoke
from repro.consensus.disk_paxos import DiskPaxos
from repro.consensus.omega import crash_aware_omega
from repro.consensus.protected_memory_paxos import ProtectedMemoryPaxos, chosen_value
from repro.core import scenarios as landscape
from repro.errors import ConfigurationError
from repro.lowerbound.naive_fast import NaiveFastConsensus
from repro.mem.permissions import static_permissions
from repro.sim.faults import FK_RECOVER_PROC
from repro.sim.memops import FUSED, SEGMENTED
from repro.types import process_name


class ScenarioRun:
    """One fresh, runnable incarnation of a scenario."""

    __slots__ = ("kernel", "execute", "_check")

    def __init__(
        self,
        kernel,
        execute: Callable[[], None],
        check: Callable[[Tuple[str, ...]], List[str]],
    ) -> None:
        self.kernel = kernel
        self.execute = execute
        self._check = check

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
# 1. the paper's failure landscape: core.scenarios clusters
# ---------------------------------------------------------------------------
class Canned(Scenario):
    """One protocol on one :mod:`repro.core.scenarios` cluster (``n``
    processes, ``n`` memories), run until every live process decided;
    exhaustible at 3×3 with ≤1 crash + ≤1 revoke of the protocol's region
    (offered only when that region's ``legalChange`` lets a grab through:
    a static region refuses every one, so revoking it changes nothing).

    A process the cluster's fault script crashes and later recovers
    counts as live while its recovery is still ahead, as in
    ``Cluster.run``: the run goes on until it rejoined and decided.  A
    scripted recovery stops being ahead once it ran, counted by the
    process's ``recover_proc`` records in the fault timeline, so an
    injected crash at the instant of a recovery that already fired is
    for good.

    Oracles: the ledger's agreement/validity record, a liveness check
    (every live process decided before the deadline) and, for PMP,
    the protocol-level memory oracle — the decided value must equal the
    value of the maximum accepted proposal across all memories
    (:func:`repro.consensus.protected_memory_paxos.chosen_value`).

    *bug* names a seeded bug of the regression corpus to run under.
    """

    def __init__(self, name: str, factory: Callable[..., Any],
                 protocol: Callable[[], Any], n: int, *, seed: int = 0,
                 deadline: float = 300.0, crashes: int = 1, revokes: int = 1,
                 with_recovery: bool = False, chain_delivery: str = FUSED,
                 bug: Optional[str] = None) -> None:
        if chain_delivery not in (FUSED, SEGMENTED):
            raise ConfigurationError(
                f"unknown chain_delivery {chain_delivery!r}; "
                f"use {FUSED!r} or {SEGMENTED!r}"
            )
        super().__init__(
            seed=seed, deadline=deadline, crashes=crashes, revokes=revokes,
            with_recovery=with_recovery, chain_delivery=chain_delivery, bug=bug,
        )
        self.name = name
        self.cell = (factory, protocol, n)
        region = protocol().regions(n, n)[0]
        revocable = revokes and region.legal_change is not static_permissions
        recover_after = 5.0 if with_recovery else None
        self.injections = tuple(
            [crash(pid, recover_after) for pid in range(n) if crashes]
            + [revoke(pid, region.region_id) for pid in range(n) if revocable]
        )
        self.group_budgets = {"crash": crashes, "revoke": revokes}

    def build(self) -> ScenarioRun:
        factory, protocol, n = self.cell
        p = self.params
        cluster = factory(protocol(), n_processes=n, n_memories=n, seed=p["seed"])
        kernel = cluster.kernel
        kernel.metrics.strict_safety = False  # record violations; oracles read them
        kernel.config.chain_delivery = p["chain_delivery"]
        if kernel.omega.__module__ == type(kernel).__module__:
            # the kernel's own default Ω: the factory installed none
            kernel.omega = crash_aware_omega(kernel)
        is_pmp = isinstance(cluster.protocol, ProtectedMemoryPaxos)
        inputs = ["a", "b", "c"][:n]
        scripted = Counter(
            process_name(event.pid)
            for _at, event in cluster.faults.events
            if event.kind == FK_RECOVER_PROC
        )

        def live(pid: int) -> bool:
            if pid not in kernel.crashed_processes:
                return True
            name = process_name(pid)
            if not scripted[name]:
                return False
            ran = sum(
                1 for record in kernel.metrics.fault_timeline
                if record.kind == "recover_proc" and record.subject == name
            )
            return ran < scripted[name]

        def undecided() -> List[int]:
            decided = kernel.metrics.decisions
            return [pid for pid in range(n) if live(pid) and pid not in decided]

        def goal() -> bool:
            return len(kernel.crashed_processes) < n and not undecided()

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
                errors.append(
                    f"liveness: p{[pid + 1 for pid in undecided()]} undecided at "
                    f"t={kernel.now:g} (deadline {p['deadline']:g})"
                )
            chosen = chosen_value(kernel) if is_pmp else None
            if values and chosen is not None and chosen not in values:
                errors.append(
                    f"memory/decision divergence: max accepted proposal holds "
                    f"{chosen!r} but processes decided {values}"
                )
            return errors

        return ScenarioRun(kernel, execute, check)


def _service_run(service, clients, oracles) -> ScenarioRun:
    """Run *clients* on *service*.  Oracles: the ledger's violations,
    workload completion, then the scenario's own ``oracles(injections)``."""
    reports = []

    def execute() -> None:
        reports.append(service.run_workload(clients))

    def check(injections: Tuple[str, ...]) -> List[str]:
        errors = list(service.kernel.metrics.violations)
        if not reports or not reports[0].ok:
            errors.append(f"liveness: workload incomplete at t={service.kernel.now:g}")
        return errors + oracles(injections)

    return ScenarioRun(service.kernel, execute, check)


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
            # readers on p3: clients 2 and 3 issue their gets at the same
            # instants, so one posts each quorum read and the other joins
            # it before its legs land (the explorer reorders which one
            # posts); client 4, out of phase behind its put, meets shared
            # reads in flight, landed or not
            *(
                ScriptedClient(
                    client_id=client_id,
                    script=lead + [
                        ("get", "alpha", None),
                        ("get", "beta", None),
                        ("get", "alpha", None),
                    ],
                    pid=2,
                )
                for client_id, lead in ((2, []), (3, []), (4, [("put", "gamma", "v1")]))
            ),
        ]

        def oracles(_injections: Tuple[str, ...]) -> List[str]:
            stale = service.kernel.metrics.staleness_violations
            errors = [f"staleness: {stale} session-violating read(s)"] if stale else []
            return errors + service.replica_divergence()

        return _service_run(service, clients, oracles)


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

        def oracles(injections: Tuple[str, ...]) -> List[str]:
            errors = []
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
            return errors + service.replica_divergence()

        return _service_run(service, clients, oracles)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    QuorumRead.name: QuorumRead,
    EpochCutover.name: EpochCutover,
}


def _cells():
    """(name, factory, protocol, n) of every :class:`Canned` target.

    A protocol whose region is statically open refuses every grab, so it
    gets no ``permission_storm`` cell: that storm would change nothing.
    """
    columns = ("common_case", "leader_crash", "memory_minority_crash",
               "partition_minority", "crash_recover_leader", "permission_storm")
    for tag, protocol in (("pmp", ProtectedMemoryPaxos), ("disk_paxos", DiskPaxos)):
        static = protocol().regions(3, 3)[0].legal_change is static_permissions
        for column in columns:
            if static and column == "permission_storm":
                continue
            name = f"{tag}/{column}"
            yield ("pmp-single" if name == "pmp/common_case" else name,
                   getattr(landscape, column), protocol, 3)
    # Theorem 6.1 at 2×2: the 2-delay strawman breaks; PMP and Disk Paxos hold
    for tag, protocol in (("naive_fast", NaiveFastConsensus),
                          ("pmp", ProtectedMemoryPaxos), ("disk_paxos", DiskPaxos)):
        yield f"theorem61/{tag}", landscape.common_case, protocol, 2


SCENARIOS.update((name, partial(Canned, name, *cell)) for name, *cell in _cells())


def register(cls: type) -> type:
    """Add a scenario class to the registry (used by the regression
    corpus; also usable by downstream experiments)."""
    SCENARIOS[cls.name] = cls
    return cls


def make_scenario(name: str, params: Optional[Dict[str, Any]] = None) -> Scenario:
    """Instantiate a registered scenario from its trace-serialized form
    (the regression corpus registers its scenarios when ``repro.check``
    is imported)."""
    try:
        make = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {sorted(SCENARIOS)}"
        ) from None
    return make(**(params or {}))
