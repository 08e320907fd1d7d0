"""Cluster assembly and the one-call experiment runner.

:func:`run_consensus` is the front door used by examples, tests and
benchmarks: build an M&M cluster, install a protocol and a fault script, run
to quiescence or deadline, and return a :class:`RunResult` with decisions,
delay counts and counters.

    from repro import run_consensus, ProtectedMemoryPaxos

    result = run_consensus(
        ProtectedMemoryPaxos(), n_processes=3, n_memories=3,
        inputs=["a", "b", "c"],
    )
    assert result.agreed and result.earliest_decision_delay == 2.0
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Set

from repro.consensus.base import ConsensusProtocol
from repro.errors import ConfigurationError
from repro.failures.script import FaultScript
from repro.mem.layout import MemoryLayout
from repro.mem.regions import RegionSpec
from repro.metrics.ledger import MetricsLedger
from repro.sim.environment import ProcessEnv
from repro.sim.kernel import Kernel, SimConfig, Task
from repro.sim.latency import LatencyModel, NominalLatency
from repro.types import ProcessId


@dataclass
class ClusterConfig:
    """Everything needed to stand up one simulated M&M system."""

    n_processes: int
    n_memories: int = 3
    latency: LatencyModel = field(default_factory=NominalLatency)
    seed: int = 0
    strict_safety: bool = True
    omega: Optional[object] = None  # OmegaFn; default: p1 forever
    deadline: float = 10_000.0


@dataclass
class RunResult:
    """Outcome of one consensus run."""

    kernel: Kernel
    inputs: List[Any]
    all_decided: bool
    final_time: float

    @property
    def metrics(self) -> MetricsLedger:
        return self.kernel.metrics

    @property
    def decisions(self) -> Dict[ProcessId, Any]:
        return {
            pid: record.value for pid, record in self.metrics.decisions.items()
        }

    @property
    def decided_values(self) -> Set[Any]:
        return self.metrics.decided_values()

    @property
    def agreed(self) -> bool:
        """Agreement over correct processes (and at least one decision)."""
        values = self.decided_values
        return len(values) == 1 and not self.metrics.violations

    @property
    def valid(self) -> bool:
        """Weak validity: every decided value was somebody's input."""
        return all(value in self.inputs for value in self.decided_values)

    @property
    def earliest_decision_delay(self) -> Optional[float]:
        return self.metrics.earliest_decision_delay()

    def delay_of(self, pid: int) -> Optional[float]:
        return self.metrics.delays_of(ProcessId(pid))

    @property
    def signatures_used(self) -> int:
        return self.metrics.total_signatures()

    def summary(self) -> str:
        """Human-readable one-screen account of the run."""
        lines = [
            f"run finished at t={self.final_time:g} "
            f"({'all decided' if self.all_decided else 'NOT all decided'})",
            f"  agreement: {'ok' if self.agreed or not self.decided_values else 'VIOLATED'}"
            + (f" ({len(self.metrics.violations)} violations)" if self.metrics.violations else ""),
            f"  validity : {'ok' if self.valid else 'VIOLATED'}",
        ]
        for pid in sorted(self.metrics.decisions):
            record = self.metrics.decisions[pid]
            delay = "?" if record.delays is None else f"{record.delays:g}"
            lines.append(
                f"  p{int(pid)+1}: decided {record.value!r} at t={record.decided_at:g} "
                f"({delay} delays)"
            )
        lines.append(
            f"  totals: {self.metrics.total_messages()} messages, "
            f"{self.metrics.total_mem_ops()} memory ops, "
            f"{self.metrics.total_signatures()} signatures"
        )
        return "\n".join(lines)


class ClusterBase:
    """Shared kernel assembly of both cluster runners.

    Owns everything :class:`Cluster` and :class:`MultiGroupCluster` used to
    duplicate: fault validation (a FaultScript's ``validate``/``install``/
    ``byzantine``/``faulty_processes``), the ``ClusterConfig`` →
    :class:`SimConfig` translation, kernel construction from a region list,
    per-process environment caching, and idempotent fault installation.
    """

    def __init__(
        self,
        config: ClusterConfig,
        regions: Sequence[RegionSpec],
        faults: Optional[Any] = None,
    ) -> None:
        self.config = config
        self.faults = faults if faults is not None else FaultScript()
        self.faults.validate(config.n_processes, config.n_memories)
        sim_config = SimConfig(
            n_processes=config.n_processes,
            n_memories=config.n_memories,
            latency=config.latency,
            seed=config.seed,
            strict_safety=config.strict_safety,
            omega=config.omega,
        )
        self.kernel = Kernel(sim_config, MemoryLayout(regions))
        self.envs: Dict[int, ProcessEnv] = {}
        self._faults_installed = False

    def env_for(self, pid: int) -> ProcessEnv:
        if pid not in self.envs:
            self.envs[pid] = ProcessEnv(self.kernel, ProcessId(pid))
        return self.envs[pid]

    def install_faults(self) -> None:
        """Arm the fault timeline on the kernel (once)."""
        if not self._faults_installed:
            self.faults.install(self.kernel)
            self._faults_installed = True


class Cluster(ClusterBase):
    """A configured kernel plus protocol wiring, ready to run."""

    def __init__(
        self,
        protocol: ConsensusProtocol,
        config: ClusterConfig,
        faults: Optional[Any] = None,
    ) -> None:
        self.protocol = protocol
        super().__init__(
            config,
            protocol.regions(config.n_processes, config.n_memories),
            faults,
        )
        self._inputs: Optional[List[Any]] = None

    def start(self, inputs: Sequence[Any]) -> None:
        """Install faults and spawn every process's tasks."""
        if len(inputs) != self.config.n_processes:
            raise ConfigurationError(
                f"need {self.config.n_processes} inputs, got {len(inputs)}"
            )
        self._inputs = list(inputs)
        self.install_faults()
        self.kernel.failures.on_recover(self._respawn)
        for pid in range(self.config.n_processes):
            env = self.env_for(pid)
            strategy = self.faults.byzantine.get(pid)
            if strategy is not None:
                tasks = strategy.tasks(env, inputs[pid])
            else:
                env.mark_proposed()
                tasks = self.protocol.tasks(env, inputs[pid])
            for name, gen in tasks:
                self.kernel.spawn(pid, name, gen)

    def _respawn(self, pid: ProcessId) -> None:
        """Recovery hook: restart this process's protocol tasks.

        The restarted tasks get the process's original input; everything
        else is rebuilt from the shared memories by the protocol's recovery
        path (``recovery_tasks``), so a recovered leader re-adopts whatever
        was committed while it was down.
        """
        if self._inputs is None:
            return
        pid = int(pid)
        if pid in self.faults.byzantine:
            return  # Byzantine seats have no honest state to recover
        env = self.env_for(pid)
        env.mark_proposed()
        for name, gen in self.protocol.recovery_tasks(env, self._inputs[pid]):
            self.kernel.spawn(pid, name, gen)

    def run(self, inputs: Sequence[Any]) -> RunResult:
        """Start and run until all correct live processes decide (or deadline).

        Processes that crash *and recover* during the run are expected to
        decide too — only never-recovered crashes and Byzantine seats are
        exempt (``faults.faulty_processes`` reports end-of-run state).
        """
        self.start(inputs)
        faulty = self.faults.faulty_processes
        expect: Set[ProcessId] = {
            ProcessId(p) for p in range(self.config.n_processes) if p not in faulty
        }
        done = self.kernel.run_until_decided(expect, deadline=self.config.deadline)
        return RunResult(
            kernel=self.kernel,
            inputs=list(inputs),
            all_decided=done,
            final_time=self.kernel.now,
        )


class MultiGroupCluster(ClusterBase):
    """One kernel hosting several independent protocol groups.

    The single-protocol :class:`Cluster` derives its memory layout from one
    protocol's regions; a sharded service instead lays out the union of
    every group's regions (each namespaced, so groups never interfere) and
    spawns whatever task mix it needs per process — including re-spawning
    it per process on recovery, via hooks the service registers with the
    kernel's failure controller.
    """

    def spawn(self, pid: int, name: str, gen: Generator, daemon: bool = True) -> Task:
        """Register one task of process *pid*; returns the kernel task."""
        return self.kernel.spawn(ProcessId(pid), name, gen, daemon=daemon)

    def run_until(
        self,
        goal: Callable[[], bool],
        deadline: Optional[float] = None,
    ) -> bool:
        """Install faults, run until *goal* (or deadline); True on success."""
        self.install_faults()
        self.kernel.run(
            until=self.config.deadline if deadline is None else deadline,
            stop_when=goal,
        )
        return goal()


def run_consensus(
    protocol: ConsensusProtocol,
    n_processes: int,
    n_memories: int = 3,
    inputs: Optional[Sequence[Any]] = None,
    faults: Optional[FaultScript] = None,
    latency: Optional[LatencyModel] = None,
    seed: int = 0,
    omega: Optional[object] = None,
    deadline: float = 10_000.0,
    strict_safety: bool = True,
) -> RunResult:
    """Run one consensus instance and return its :class:`RunResult`.

    Pass ``omega="crash-aware"`` for the eventually-accurate failure
    detector that skips crashed processes (wired after kernel creation,
    since it needs the kernel's ground truth).
    """
    crash_aware = omega == "crash-aware"
    config = ClusterConfig(
        n_processes=n_processes,
        n_memories=n_memories,
        latency=latency or NominalLatency(),
        seed=seed,
        strict_safety=strict_safety,
        omega=None if crash_aware else omega,
        deadline=deadline,
    )
    cluster = Cluster(protocol, config, faults)
    if crash_aware:
        from repro.consensus.omega import crash_aware_omega

        cluster.kernel.omega = crash_aware_omega(cluster.kernel)
    run_inputs = list(inputs) if inputs is not None else [
        f"value-{p + 1}" for p in range(n_processes)
    ]
    return cluster.run(run_inputs)
