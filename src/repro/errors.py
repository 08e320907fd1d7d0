"""Exception hierarchy for the reproduction library.

All library exceptions derive from :class:`ReproError` so callers can catch
everything from this package with a single clause.  Safety-violation errors
are separate from configuration errors because tests treat them differently:
a :class:`SafetyViolation` raised during a simulation is a *finding* (the
algorithm under test is broken), whereas a :class:`ConfigurationError` is a
caller bug.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A cluster or protocol was configured inconsistently."""


class SimulationError(ReproError):
    """The simulation kernel detected an internal inconsistency."""


class DeadlockError(SimulationError):
    """The event queue drained while tasks were still waiting."""


class LivelockError(SimulationError):
    """A run exceeded its ``max_events`` budget without reaching its goal.

    Raised by ``Kernel.run`` as a *diagnostic*: the message carries a
    queue-depth snapshot (per-kind pending counts, parked tasks) and, when
    an observability runtime is attached, the exception's ``flight_dump``
    holds the dump ``ObsRuntime.trip`` took (newest and open spans).
    """

    def __init__(self, message: str, flight_dump=None) -> None:
        super().__init__(message)
        self.flight_dump = flight_dump


class OutstandingOpError(SimulationError):
    """A task issued a second outstanding operation on the same memory.

    The model (Section 3, "Executions and steps") requires each process to
    have at most one outstanding operation per memory; raised per task by
    the checker-side :class:`repro.check.outstanding.OutstandingObserver`.
    """


class WhatIfDivergence(SimulationError):
    """Two replays of the same what-if experiment produced different traces.

    The causal profiler's entire claim rests on determinism: an override
    must change *delays*, never the schedule's identity, so replaying an
    experiment must hash identically.  Raised by
    ``WhatIfProfiler(check_determinism=True)`` when it does not — which
    means the scenario closure leaks state between runs (shared RNG,
    reused client ids, mutable latency model) or a kernel hook became
    schedule-dependent.
    """


class SafetyViolation(ReproError):
    """An agreement/validity invariant was violated during a run."""


class AgreementViolation(SafetyViolation):
    """Two correct processes decided different values."""


class StalenessViolation(SafetyViolation):
    """A non-consensus read returned state older than its session floor."""


class SignatureError(ReproError):
    """A signature operation was attempted with a key the caller lacks."""
