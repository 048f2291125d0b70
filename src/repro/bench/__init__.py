"""Benchmark harness and regression gate for the Omega pipeline.

The paper's central empirical claim (Figures 6/7) is that exact dependence
analysis is fast enough in practice; this package keeps that claim — and
every optimisation layered on top of it — continuously measured:

``repro.bench.suites``
    The workloads: the Figure 6/7 timing corpus, the CHOLSKY kernel, and
    the Section 5 symbolic examples, each runnable with the solver cache
    on or off.
``repro.bench.harness``
    Warmup + repeated trials per suite and leg, median/IQR statistics, a
    machine fingerprint, and the canonical ``BENCH_omega.json`` artifact;
    ``profile_suites`` runs one traced pass for hotspot tables and
    flamegraphs.
``repro.bench.compare``
    The regression gate: compares two artifacts and flags any suite whose
    median regressed past the threshold (CI fails the build at >25%).

Driven by ``python -m repro bench`` — see ``docs/BENCHMARKING.md``.
"""

from .compare import (
    DEFAULT_THRESHOLD,
    Comparison,
    Delta,
    compare,
    load_artifact,
)
from .harness import (
    GUARD_OVERHEAD_THRESHOLD,
    HISTORY_SCHEMA,
    SCHEMA,
    BenchReport,
    LegResult,
    SuiteResult,
    append_history,
    guard_overhead_gate,
    history_entry,
    machine_fingerprint,
    profile_suites,
    render_report,
    run_bench,
)
from .serve import (
    SERVE_BENCH_SCHEMA,
    render_serve_bench,
    run_serve_bench,
)
from .suites import SUITES, Suite, default_suites

__all__ = [
    "SERVE_BENCH_SCHEMA",
    "render_serve_bench",
    "run_serve_bench",
    "GUARD_OVERHEAD_THRESHOLD",
    "HISTORY_SCHEMA",
    "SCHEMA",
    "DEFAULT_THRESHOLD",
    "append_history",
    "history_entry",
    "BenchReport",
    "Comparison",
    "Delta",
    "LegResult",
    "Suite",
    "SuiteResult",
    "SUITES",
    "compare",
    "default_suites",
    "guard_overhead_gate",
    "load_artifact",
    "machine_fingerprint",
    "profile_suites",
    "render_report",
    "run_bench",
]
