"""repro.obs — causal tracing, metrics registry, profiling, violation dumps.

Quickstart::

    from repro import obs

    runtime = obs.attach(cluster.kernel)           # before running
    runtime.add_sink(obs.ChromeTraceSink("trace.json"))  # Perfetto-viewable
    ... run the experiment ...
    path = obs.critical_path(runtime, pid=0)
    print(path.summary())      # "= 0 message delays + 2 memory delays + ..."
    dump = runtime.trip("why")   # newest spans + open spans + metrics, as a dict
    runtime.close()

A safety violation trips the runtime by itself (see ``runtime.dumps``).
A run's deterministic identity is :func:`repro.sim.run_hash`.
"""

from repro.obs.critical import (
    CriticalPath,
    Segment,
    critical_path,
    critical_path_between,
)
from repro.obs.diff import (
    TraceDiff,
    critical_delta,
    diff_runs,
    diff_spans,
    format_critical_delta,
    span_identities,
)
from repro.obs.profiler import TaskProfiler
from repro.obs.registry import Gauge, Histogram, MetricsRegistry
from repro.obs.runtime import ObsRuntime, PhaseHandle, attach, detach
from repro.obs.sinks import ChromeTraceSink, JsonlSink
from repro.obs.slo import Objective, SloTracker
from repro.obs.whatif import (
    Experiment,
    LatencyOverride,
    Measurement,
    ScaleIssue,
    ScaleLink,
    ScaleMemory,
    ScalePhase,
    WhatIfProfiler,
    issue_experiment,
    link_experiment,
    measure,
    memory_experiment,
    phase_experiment,
)
from repro.obs.spans import (
    K_MEMOP,
    K_MSG,
    K_PHASE,
    K_POINT,
    K_TASK,
    Span,
    render_tree,
    span_tree,
)

__all__ = [
    "CriticalPath",
    "Segment",
    "critical_path",
    "critical_path_between",
    "TraceDiff",
    "critical_delta",
    "diff_runs",
    "diff_spans",
    "format_critical_delta",
    "span_identities",
    "Objective",
    "SloTracker",
    "Experiment",
    "LatencyOverride",
    "Measurement",
    "ScaleIssue",
    "ScaleLink",
    "ScaleMemory",
    "ScalePhase",
    "WhatIfProfiler",
    "issue_experiment",
    "link_experiment",
    "measure",
    "memory_experiment",
    "phase_experiment",
    "TaskProfiler",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsRuntime",
    "PhaseHandle",
    "attach",
    "detach",
    "ChromeTraceSink",
    "JsonlSink",
    "K_MEMOP",
    "K_MSG",
    "K_PHASE",
    "K_POINT",
    "K_TASK",
    "Span",
    "render_tree",
    "span_tree",
]
