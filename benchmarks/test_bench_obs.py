"""E-OBS: overhead of disabled instrumentation.

The observability layer promises to be near-free when nothing collects:
the hot Omega entry points take a single ``obs.off()`` fast-path check
before dispatching to their uninstrumented bodies, ``span(...)`` returns a
shared no-op handle, and ``metrics.inc`` returns immediately.  This
benchmark measures the end-to-end analysis time over the Figure 6 corpus
twice — once as shipped (instrumentation present but disabled) and once
with every hook bypassed entirely (public wrappers rebound to their raw
inner bodies everywhere they were imported) — and asserts the shipped
build stays within 5% of the stripped one.

Min-of-N timing is used on both sides: the minimum is the least noisy
estimator of the true cost on a shared machine.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

from repro.analysis import AnalysisOptions, analyze
from repro.obs import metrics as metrics_mod
from repro.programs import timing_corpus

from .conftest import write_artifact

ROUNDS = 15

#: Modules that imported ``span`` under the ``_span`` alias (the
#: analysis-layer sites have no ``off()`` fast path; their spans are
#: per-dependence, not per-solver-call).
_SPAN_SITES = (
    "repro.analysis.kills",
    "repro.analysis.cover",
    "repro.analysis.refine",
    "repro.analysis.engine",
)


def _raw_entry_points():
    """Uninstrumented versions of the wrapped Omega entry points."""

    import importlib

    # importlib.import_module, because ``repro.omega.__init__`` re-exports
    # functions named like the submodules (``project``, ``gist``) and a
    # plain ``import ... as`` would resolve to those instead.
    eliminate = importlib.import_module("repro.omega.eliminate")
    gist = importlib.import_module("repro.omega.gist")
    project = importlib.import_module("repro.omega.project")
    solve = importlib.import_module("repro.omega.solve")
    GistStats = gist.GistStats

    def is_satisfiable(problem):
        # The shipped entry point solves only what normalization and
        # peeling leave undecided; the baseline must do the same work.
        remainder = solve._predecide(problem)
        if isinstance(remainder, bool):
            return remainder
        return solve._sat(remainder, 0)

    def fourier_motzkin(problem, var, *, want_splinters=True, max_splinters=64):
        return eliminate._fourier_motzkin(
            problem, var, want_splinters, max_splinters
        )

    def eliminate_equalities(problem, protected=frozenset()):
        return eliminate._eliminate_equalities(problem, protected)

    def raw_project(problem, keep):
        return project._project(problem, frozenset(keep))

    def raw_gist(p, q, *, stats=None, stop_if_not_true=False):
        return gist._gist(
            p,
            q,
            stats if stats is not None else GistStats(),
            stop_if_not_true=stop_if_not_true,
        )

    return {
        solve.is_satisfiable: is_satisfiable,
        eliminate.fourier_motzkin: fourier_motzkin,
        eliminate.eliminate_equalities: eliminate_equalities,
        project.project: raw_project,
        gist.gist: raw_gist,
    }


@contextmanager
def _stripped_instrumentation(monkeypatch_cls):
    """Bypass every obs hook, restoring on exit.

    The wrapped entry points are rebound to their raw bodies in every
    ``repro.*`` module that imported them; the remaining ``_span`` /
    ``metrics`` hooks become plain no-ops.
    """

    import importlib

    patch = monkeypatch_cls()
    replacements = _raw_entry_points()
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.") or module is None:
            continue
        for attr in dir(module):
            value = getattr(module, attr, None)
            if not callable(value):
                continue
            raw = replacements.get(value)
            if raw is not None:
                patch.setattr(module, attr, raw)

    class _Raw:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        duration = 0.0

    raw_span = _Raw()

    def no_span(name, **attrs):
        return raw_span

    def no_op(*args, **kwargs):
        return None

    for site in _SPAN_SITES:
        module = importlib.import_module(site)
        patch.setattr(module, "_span", no_span)
    patch.setattr(metrics_mod, "inc", no_op)
    patch.setattr(metrics_mod, "observe", no_op)
    patch.setattr(metrics_mod, "set_gauge", no_op)
    try:
        yield
    finally:
        patch.undo()


def _one_pass(corpus, options_factory) -> float:
    start = time.perf_counter()
    for program in corpus:
        analyze(program, options_factory())
    return time.perf_counter() - start


def test_bench_disabled_instrumentation_overhead(benchmark):
    """The <5% bound holds on the analysis path every run takes.

    The planner's merge loops host the event-bus delivery points and its
    fused tasks carry the lifecycle sinks, so they are inside the timed
    region.
    """

    from pytest import MonkeyPatch

    corpus = timing_corpus()
    options = AnalysisOptions
    # Warm both configurations once (imports, caches) before timing.
    _one_pass(corpus, options)
    with _stripped_instrumentation(MonkeyPatch):
        _one_pass(corpus, options)

    # Interleave the two configurations round by round so slow machine
    # drift (thermal, competing load) hits both sides equally, and swap
    # which one goes first every round so neither always runs right
    # after the other's allocations; min-of-N then discards the noisy
    # rounds.
    def timed_stripped():
        with _stripped_instrumentation(MonkeyPatch):
            return _one_pass(corpus, options)

    instrumented = stripped = float("inf")
    for round_index in range(ROUNDS):
        if round_index % 2:
            stripped = min(stripped, timed_stripped())
            instrumented = min(instrumented, _one_pass(corpus, options))
        else:
            instrumented = min(instrumented, _one_pass(corpus, options))
            stripped = min(stripped, timed_stripped())

    overhead = instrumented / stripped - 1.0
    artifact = (
        "Disabled-instrumentation overhead (Figure 6 corpus, planner path)\n"
        f"  stripped     min-of-{ROUNDS}: {stripped * 1e3:8.2f} ms\n"
        f"  instrumented min-of-{ROUNDS}: {instrumented * 1e3:8.2f} ms\n"
        f"  overhead: {overhead * 100:+.2f}%\n"
    )
    write_artifact("obs_overhead_planner.txt", artifact)
    print()
    print(artifact)

    benchmark.pedantic(
        lambda: [analyze(program, options()) for program in corpus],
        rounds=1,
        iterations=1,
    )

    assert overhead < 0.05, artifact
