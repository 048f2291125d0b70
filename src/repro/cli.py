"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``analyze FILE``
    Parse a mini-language program and print its live/dead flow dependence
    tables (add ``--standard`` for the conservative memory-based analysis,
    ``--assert "n <= m"`` for symbolic assertions, ``--all-kinds`` to list
    anti/output dependences too).  Observability flags: ``--explain``
    prints the per-dependence decision trail, ``--stats`` the metrics
    summary (plus solver-cache counters under ``--store``),
    ``--trace-out`` / ``--metrics-out`` write the Chrome-trace and
    metrics snapshots (defaulting into ``results/`` when given without a
    path),
    ``--events-out`` streams per-pair lifecycle events as JSONL
    (``--event-sample`` keeps a deterministic fraction), ``--prom-out``
    writes a Prometheus text-format exposition and ``--otlp-out`` an
    OTLP-style span JSONL.  The run is uncached; ``--store`` backs it
    with a solver cache over the persistent tier (identical results).

``trace FILE``
    Run the extended analysis under the span tracer and write a
    Chrome-trace / Perfetto-compatible JSON (and optionally JSONL events).

``parallel FILE``
    Loop-by-loop parallelization report (with privatization suggestions).

``queries FILE``
    The symbolic questions (Section 5 dialogue) the program raises.

``cholsky``
    Regenerate the paper's Figures 3 and 4 from the built-in CHOLSKY
    kernel.

``audit [FILE]``
    The precision scoreboard: flow-dependence pairs reported by each
    classical baseline (ZIV, SIV, GCD, Banerjee, combined) vs the Omega
    pipeline, with the false-dependence elimination rate and the
    exact-vs-inexact provenance breakdown.  Without FILE it audits the
    whole corpus and writes ``results/precision_omega.json`` (schema
    ``repro.precision/1``).  ``--gate OLD.json`` fails when precision
    regressed against a committed artifact; ``--diff A B`` compares two
    existing artifacts without running; ``--why SRC DST`` (with FILE)
    prints one pair's provenance trail, degradations included.

``serve``
    Long-lived dependence-analysis daemon: JSON requests over HTTP
    (``--host``/``--port``) and/or an ``AF_UNIX`` socket
    (``--unix-socket``), multiplexed through one shared solver service
    with a crash-safe persistent cache tier (``--store``, sqlite) that
    survives restarts.  Admission control sheds load with 429 +
    Retry-After instead of failing (``--max-inflight``,
    ``--queue-depth``); every request runs under a deadline and
    degrades to sound superset answers rather than erroring
    (``--default-deadline-ms``).  SIGTERM drains gracefully.  See
    ``docs/SERVICE.md``.

``diff OLD NEW``
    Differential regression attribution: compare two run records (ledger
    files or single-record JSON), precision artifacts or trace files and
    print a ranked suspects report — the metric, stage or timing shifts
    most likely responsible for a regression.  ``--kind``
    selects which record kind to compare from a ledger; ``--gate`` exits
    nonzero when any deterministic (configuration-independent) regression
    is among the suspects.

Every ``analyze``/``audit`` invocation appends one ``repro.run/1``
record to the ledger at ``results/runs.jsonl`` (``--ledger PATH``
redirects it, ``--no-ledger`` or ``REPRO_NO_LEDGER=1`` suppresses it) —
the cross-run layer ``diff`` consumes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys
from contextlib import ExitStack
from typing import Sequence

from .analysis import (
    AnalysisOptions,
    SymbolicSession,
    analyze,
    parallelizable_loops,
    parse_assertion,
)
from .guard import BudgetExhausted, injecting, plan_from_env
from .ir import IRError, LexError, ParseError, parse
from .obs import (
    EventBus,
    JsonlSink,
    MetricsRegistry,
    RunContext,
    Tracer,
    append_run,
    collecting,
    new_run_id,
    prometheus_text,
    publishing,
    run_context,
    run_record,
    tracing,
    write_otlp_jsonl,
)
from .obs.telemetry.ledger import DEFAULT_LEDGER
from .reporting import flow_tables

__all__ = ["main", "build_parser"]


def _int_at_least(minimum: int):
    """argparse type: an integer >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {minimum}: {text!r}"
            )
        return value

    return parse


def _float_where(accept, must: str):
    """argparse type: a number ``accept`` admits (nan never is)."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid number: {text!r}")
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {must}: {text!r}")
        return value

    return parse


_positive_float = _float_where(
    lambda value: math.isfinite(value) and value > 0,
    "a positive finite number",
)
_fraction = _float_where(lambda value: 0 <= value <= 1, "a number in [0, 1]")


def build_parser() -> argparse.ArgumentParser:
    """The argparse command-line interface definition."""

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Array dependence analysis with the Omega test "
            "(Pugh & Wonnacott, PLDI 1992)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze_cmd = commands.add_parser(
        "analyze", help="print live/dead flow dependences for a program"
    )
    analyze_cmd.add_argument("file", type=pathlib.Path)
    analyze_cmd.add_argument(
        "--standard",
        action="store_true",
        help="conservative memory-based analysis (no kills/covers/refinement)",
    )
    analyze_cmd.add_argument(
        "--assert",
        dest="assertions",
        action="append",
        default=[],
        metavar="TEXT",
        help='symbolic assertion, e.g. --assert "n <= m" (repeatable)',
    )
    analyze_cmd.add_argument(
        "--all-kinds",
        action="store_true",
        help="also list anti and output dependences",
    )
    analyze_cmd.add_argument(
        "--partial-refine",
        action="store_true",
        help="enable range refinements such as (0:1,1)",
    )
    analyze_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the full analysis as JSON instead of tables",
    )
    analyze_cmd.add_argument(
        "--explain",
        action="store_true",
        help="print the decision trail (why each dependence lived or died)",
    )
    analyze_cmd.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print the metrics summary (and cache counters under --store) "
            "after the tables"
        ),
    )
    analyze_cmd.add_argument(
        "--audit",
        action="store_true",
        help=(
            "record per-dependence provenance (adds omega.precision.* to "
            "--stats and a provenance section to --json)"
        ),
    )
    analyze_cmd.add_argument(
        "--deadline-ms",
        type=_positive_float,
        default=None,
        metavar="MS",
        help=(
            "wall-clock budget for the whole analysis; when it runs out, "
            "remaining Omega queries degrade to sound conservative answers "
            "(the result is a superset of the exact dependences) and the "
            "degradations are reported"
        ),
    )
    analyze_cmd.add_argument(
        "--strict",
        action="store_true",
        help=(
            "raise on budget exhaustion instead of degrading "
            "(with --deadline-ms or REPRO_FAULTS)"
        ),
    )
    analyze_cmd.add_argument(
        "--trace-out",
        type=pathlib.Path,
        nargs="?",
        const=pathlib.Path("results/trace.json"),
        metavar="PATH",
        help=(
            "write a Chrome-trace JSON of the analysis spans "
            "(default PATH: results/trace.json)"
        ),
    )
    analyze_cmd.add_argument(
        "--metrics-out",
        type=pathlib.Path,
        nargs="?",
        const=pathlib.Path("results/metrics.json"),
        metavar="PATH",
        help=(
            "write the metrics registry snapshot as JSON "
            "(default PATH: results/metrics.json)"
        ),
    )
    analyze_cmd.add_argument(
        "--prom-out",
        type=pathlib.Path,
        nargs="?",
        const=pathlib.Path("results/metrics.prom"),
        metavar="PATH",
        help=(
            "write the metrics registry as a Prometheus text-format "
            "exposition (default PATH: results/metrics.prom)"
        ),
    )
    analyze_cmd.add_argument(
        "--otlp-out",
        type=pathlib.Path,
        nargs="?",
        const=pathlib.Path("results/otlp_spans.jsonl"),
        metavar="PATH",
        help=(
            "write the analysis spans as deterministic OTLP-style JSONL "
            "(default PATH: results/otlp_spans.jsonl)"
        ),
    )
    analyze_cmd.add_argument(
        "--events-out",
        type=pathlib.Path,
        nargs="?",
        const=pathlib.Path("results/events.jsonl"),
        metavar="PATH",
        help=(
            "stream per-pair lifecycle events as JSONL "
            "(default PATH: results/events.jsonl)"
        ),
    )
    analyze_cmd.add_argument(
        "--event-sample",
        type=_fraction,
        default=1.0,
        metavar="RATE",
        help=(
            "fraction of per-pair events to keep, chosen deterministically "
            "by content hash (default: 1.0; run-level events always kept)"
        ),
    )
    analyze_cmd.add_argument(
        "--store",
        type=pathlib.Path,
        nargs="?",
        const=pathlib.Path("results/omega_store.db"),
        default=None,
        metavar="PATH",
        help=(
            "run under a solver cache backed by the crash-safe persistent "
            "tier at PATH (default PATH: results/omega_store.db; results are "
            "bit-identical, repeat runs answer from the store)"
        ),
    )
    _add_ledger_flags(analyze_cmd)

    trace_cmd = commands.add_parser(
        "trace", help="run the analysis under the tracer, write Chrome-trace JSON"
    )
    trace_cmd.add_argument("file", type=pathlib.Path)
    trace_cmd.add_argument(
        "-o",
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("results/trace.json"),
        help="Chrome-trace output path (default: results/trace.json)",
    )
    trace_cmd.add_argument(
        "--jsonl",
        type=pathlib.Path,
        metavar="PATH",
        help="also write one JSON span event per line to PATH",
    )
    trace_cmd.add_argument(
        "--standard",
        action="store_true",
        help="trace the conservative memory-based analysis instead",
    )

    parallel_cmd = commands.add_parser(
        "parallel", help="loop parallelization / privatization report"
    )
    parallel_cmd.add_argument("file", type=pathlib.Path)

    queries_cmd = commands.add_parser(
        "queries", help="symbolic questions raised by index arrays etc."
    )
    queries_cmd.add_argument("file", type=pathlib.Path)

    commands.add_parser(
        "cholsky", help="regenerate Figures 3 and 4 from the CHOLSKY kernel"
    )

    audit_cmd = commands.add_parser(
        "audit",
        help="precision scoreboard: baselines vs Omega, with the CI gate",
    )
    audit_cmd.add_argument(
        "file",
        nargs="?",
        type=pathlib.Path,
        help="program to audit (default: the whole paper corpus)",
    )
    audit_cmd.add_argument(
        "-o",
        "--out",
        type=pathlib.Path,
        metavar="PATH",
        help=(
            "artifact output path (default: results/precision_omega.json "
            "for corpus runs; single-file runs write only when given)"
        ),
    )
    audit_cmd.add_argument(
        "--json",
        action="store_true",
        help="print the artifact JSON instead of the scoreboard table",
    )
    audit_cmd.add_argument(
        "--gate",
        type=pathlib.Path,
        metavar="OLD.json",
        help=(
            "gate this run against a committed precision artifact; exit "
            "nonzero when the elimination rate drops or an exact answer "
            "becomes inexact"
        ),
    )
    audit_cmd.add_argument(
        "--diff",
        nargs=2,
        type=pathlib.Path,
        metavar=("A.json", "B.json"),
        help="compare two existing precision artifacts, skip the run",
    )
    audit_cmd.add_argument(
        "--why",
        nargs=2,
        metavar=("SRC", "DST"),
        help=(
            "with FILE: print the provenance trail for one access pair "
            "(accepts access strings or bare statement labels)"
        ),
    )
    audit_cmd.add_argument(
        "--deadline-ms",
        type=_positive_float,
        default=None,
        metavar="MS",
        help=(
            "with --why: run under a wall-clock budget so degraded pairs "
            "show their degradation events in the trail"
        ),
    )
    audit_cmd.add_argument(
        "--strict",
        action="store_true",
        help="with --deadline-ms: raise on budget exhaustion instead",
    )
    _add_ledger_flags(audit_cmd)

    serve_cmd = commands.add_parser(
        "serve",
        help=(
            "run the analysis daemon: JSON over HTTP and/or a unix socket, "
            "shared solver service, persistent cache tier, degrade-don't-die"
        ),
    )
    serve_cmd.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind address (default: 127.0.0.1)",
    )
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=8177,
        help="TCP port (default: 8177; 0 picks a free port)",
    )
    serve_cmd.add_argument(
        "--no-tcp",
        action="store_true",
        help="serve on the unix socket only",
    )
    serve_cmd.add_argument(
        "--unix-socket",
        type=pathlib.Path,
        metavar="PATH",
        help="also listen on an AF_UNIX socket at PATH",
    )
    serve_cmd.add_argument(
        "--store",
        type=pathlib.Path,
        default=pathlib.Path("results/omega_store.db"),
        metavar="PATH",
        help=(
            "persistent solver store path (default: results/omega_store.db)"
        ),
    )
    serve_cmd.add_argument(
        "--no-store",
        action="store_true",
        help="run memory-only (hits no longer survive restarts)",
    )
    serve_cmd.add_argument(
        "--max-inflight",
        type=_int_at_least(1),
        default=4,
        metavar="N",
        help="concurrent requests in execution (default: 4)",
    )
    serve_cmd.add_argument(
        "--queue-depth",
        type=_int_at_least(0),
        default=16,
        metavar="N",
        help="requests allowed to wait for a slot (default: 16)",
    )
    serve_cmd.add_argument(
        "--queue-timeout-s",
        type=_positive_float,
        default=1.0,
        metavar="S",
        help="longest a request may wait before shedding (default: 1.0)",
    )
    serve_cmd.add_argument(
        "--default-deadline-ms",
        type=_positive_float,
        default=None,
        metavar="MS",
        help=(
            "per-request wall-clock budget when the request names none "
            "(default: 10000; past it, answers degrade soundly)"
        ),
    )
    serve_cmd.add_argument(
        "--max-deadline-ms",
        type=_positive_float,
        default=None,
        metavar="MS",
        help="hard cap on any requested deadline_ms",
    )
    _add_ledger_flags(serve_cmd)

    diff_cmd = commands.add_parser(
        "diff",
        help="rank the likely causes of a regression between two runs",
    )
    diff_cmd.add_argument(
        "old",
        type=pathlib.Path,
        help="baseline: run ledger/record, precision artifact or trace",
    )
    diff_cmd.add_argument(
        "new",
        type=pathlib.Path,
        help="candidate of the same input type as OLD",
    )
    diff_cmd.add_argument(
        "--kind",
        choices=("analyze", "audit"),
        help="which record kind to select when the inputs are run ledgers",
    )
    diff_cmd.add_argument(
        "--gate",
        action="store_true",
        help=(
            "exit nonzero when a deterministic (configuration-independent) "
            "regression is among the suspects"
        ),
    )
    diff_cmd.add_argument(
        "-o",
        "--out",
        type=pathlib.Path,
        metavar="PATH",
        help="also write the suspects report to PATH",
    )
    return parser


def _add_ledger_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--ledger",
        type=pathlib.Path,
        nargs="?",
        const=DEFAULT_LEDGER,
        default=None,
        metavar="PATH",
        help=(
            "append this run's record to PATH (default: results/runs.jsonl; "
            "an explicit --ledger overrides REPRO_NO_LEDGER)"
        ),
    )
    cmd.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip the run ledger entirely",
    )


def _ledger_path(args) -> pathlib.Path | None:
    """Where to append this invocation's run record, or None to skip.

    ``--no-ledger`` always wins; an explicit ``--ledger`` force-enables
    (so tests and CI can opt back in under ``REPRO_NO_LEDGER``); the
    environment kill-switch covers everything else; the default is
    ``results/runs.jsonl``.
    """

    if args.no_ledger:
        return None
    if args.ledger is not None:
        return args.ledger
    if os.environ.get("REPRO_NO_LEDGER", "").strip() not in ("", "0"):
        return None
    return DEFAULT_LEDGER


class InputError(Exception):
    """A file named on the command line that cannot be used.

    :func:`main` reports it as ``repro: error: <path>: <reason>`` and
    exits with status 2.
    """


def _load(path: pathlib.Path):
    """Read and parse a program file."""

    try:
        return parse(path.read_text(encoding="utf-8"), path.stem)
    except OSError as failure:
        raise InputError(f"{path}: {failure.strerror or failure}") from None
    except UnicodeDecodeError as failure:
        raise InputError(
            f"{path}: not UTF-8 text ({failure.reason} at byte {failure.start})"
        ) from None
    except (ParseError, LexError, IRError) as failure:
        raise InputError(f"{path}: {failure}") from None


def _load_baseline(path: pathlib.Path) -> dict:
    """Read a precision artifact (``audit --gate``/``--diff``) and check
    its schema."""

    from .reporting import load_precision
    from .reporting.precision import SCHEMA

    try:
        artifact = load_precision(path)
    except OSError as failure:
        raise InputError(f"{path}: {failure.strerror or failure}") from None
    except ValueError as failure:  # JSON and UTF-8 decoding errors
        raise InputError(f"{path}: not a JSON artifact ({failure})") from None
    if not isinstance(artifact, dict) or artifact.get("schema") != SCHEMA:
        raise InputError(f"{path}: not a {SCHEMA} artifact")
    return artifact


def _cmd_analyze(args) -> int:
    program = _load(args.file)
    options = AnalysisOptions(
        extended=not args.standard,
        partial_refine=args.partial_refine,
        assertions=tuple(parse_assertion(text) for text in args.assertions),
        explain=args.explain,
        audit=args.audit,
    )
    if args.deadline_ms is not None:
        options.deadline_ms = args.deadline_ms
    if args.strict:
        options.policy = "raise"
    ledger = _ledger_path(args)
    tracer = Tracer() if (args.trace_out or args.otlp_out) else None
    registry = (
        MetricsRegistry()
        if (args.stats or args.metrics_out or args.prom_out or ledger)
        else None
    )
    bus: EventBus | None = None
    with ExitStack() as stack:
        stack.enter_context(run_context(RunContext(run_id=new_run_id())))
        if tracer is not None:
            stack.enter_context(tracing(tracer))
        if registry is not None:
            stack.enter_context(collecting(registry))
        if args.events_out is not None:
            sink = stack.enter_context(JsonlSink(args.events_out))
            bus = EventBus(sink, sample=args.event_sample)
            stack.enter_context(publishing(bus))
        fault_plan = plan_from_env()
        if fault_plan is not None:
            stack.enter_context(injecting(fault_plan))
        store = None
        if args.store is not None:
            from .omega.cache import SolverCache, caching
            from .omega.store import PersistentStore

            store = PersistentStore(args.store)
            stack.callback(store.close)
            # The run adopts the enclosing scope's cache, which is how
            # the persistent tier reaches the solver.
            stack.enter_context(caching(SolverCache(store=store)))
        try:
            result = analyze(program, options)
        except BudgetExhausted as failure:
            print(f"error: {failure}", file=sys.stderr)
            print(
                "the analysis exceeded its resource budget under --strict; "
                "rerun without --strict for a sound conservative answer",
                file=sys.stderr,
            )
            if ledger is not None:
                append_run(
                    run_record(
                        "analyze",
                        program=program.name,
                        options=options,
                        registry=registry,
                        error=str(failure),
                    ),
                    ledger,
                )
            return 2
        record = run_record(
            "analyze",
            program=program.name,
            options=options,
            registry=registry,
            result=result,
        )
    if args.json:
        from .reporting import result_to_json

        print(result_to_json(result))
    else:
        print(flow_tables(result))
        if args.all_kinds:
            print("Anti dependences")
            for dep in result.anti:
                print(f"  {dep.describe()}")
            print("Output dependences")
            for dep in result.output:
                print(f"  {dep.describe()}")
        if args.explain and result.explain is not None:
            print()
            print(result.explain.render())
        if result.degraded():
            print()
            print(
                "WARNING: resource budget exhausted; the dependences above "
                "are a sound superset of the exact answer."
            )
            print(result.degradations.render())
        if args.stats and registry is not None:
            print()
            print(registry.summary())
            if result.cache_stats is not None:
                stats = result.cache_stats
                print()
                print(
                    "solver cache: "
                    f"{stats['hits']} hits, {stats['misses']} misses "
                    f"({stats['hit_rate']:.0%} hit rate), "
                    f"{stats['evictions']} evictions, "
                    f"{stats['size']}/{stats['maxsize']} entries"
                )
                tier = stats.get("store")
                if tier is not None:
                    print(
                        "persistent store: "
                        f"{tier['hits']} hits, {tier['misses']} misses, "
                        f"{tier['writes']} writes, {tier['errors']} errors "
                        f"({tier['path']})"
                        + (" DISABLED" if tier.get("disabled") else "")
                    )
    if args.trace_out and tracer is not None:
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_chrome_trace(args.trace_out)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    if args.otlp_out and tracer is not None:
        count = write_otlp_jsonl(tracer.events, args.otlp_out)
        print(
            f"{count} OTLP spans written to {args.otlp_out}", file=sys.stderr
        )
    if args.metrics_out and registry is not None:
        args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
        args.metrics_out.write_text(registry.to_json() + "\n")
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    if args.prom_out and registry is not None:
        args.prom_out.parent.mkdir(parents=True, exist_ok=True)
        args.prom_out.write_text(prometheus_text(registry))
        print(f"exposition written to {args.prom_out}", file=sys.stderr)
    if args.events_out is not None and bus is not None:
        print(
            f"{len(bus.events)} events written to {args.events_out}",
            file=sys.stderr,
        )
    if ledger is not None:
        append_run(record, ledger)
        print(f"run recorded in {ledger}", file=sys.stderr)
    return 0


def _cmd_trace(args) -> int:
    program = _load(args.file)
    options = AnalysisOptions(extended=not args.standard)
    tracer = Tracer()
    with tracing(tracer):
        analyze(program, options)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_chrome_trace(args.out)
    if args.jsonl:
        args.jsonl.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(args.jsonl)
    names = tracer.span_names()
    print(f"{len(tracer.events)} spans ({len(names)} sites) written to {args.out}")
    for name in sorted(names):
        print(f"  {name}")
    return 0


def _cmd_parallel(args) -> int:
    program = _load(args.file)
    result = analyze(program)
    for report in parallelizable_loops(result):
        print(report.describe())
    return 0


def _cmd_queries(args) -> int:
    program = _load(args.file)
    session = SymbolicSession(program)
    queries = session.pending_queries()
    if not queries:
        print("no symbolic questions: all access pairs are affine-decidable")
        return 0
    for query in queries:
        print(f"--- {query.kind.value} dependence {query.src} -> {query.dst} ---")
        print(query.render())
    return 0


def _cmd_audit(args) -> int:
    from .obs.audit import ProvenanceRecord
    from .reporting import (
        compare_precision,
        precision_report,
        render_precision,
        why_records,
    )

    if args.diff is not None:
        old_path, new_path = args.diff
        comparison = compare_precision(
            _load_baseline(old_path), _load_baseline(new_path)
        )
        print(comparison.render())
        return 0 if comparison.ok else 1

    if args.why is not None:
        if args.file is None:
            print("--why requires a program FILE", file=sys.stderr)
            return 2
        program = _load(args.file)
        options = AnalysisOptions(audit=True)
        if args.deadline_ms is not None:
            options.deadline_ms = args.deadline_ms
        if args.strict:
            options.policy = "raise"
        try:
            result = analyze(program, options)
        except BudgetExhausted as failure:
            print(f"error: {failure}", file=sys.stderr)
            return 2
        src, dst = args.why
        records = why_records(result, src, dst)
        if not records:
            print(
                f"no provenance for pair {src!r} -> {dst!r} "
                f"(accesses: {', '.join(str(a) for a in program.accesses())})",
                file=sys.stderr,
            )
            return 2
        # Round-trip through JSON: what --why prints is exactly what a
        # serialized artifact (or --json consumer) would reconstruct,
        # degradation events included.
        for index, record in enumerate(records):
            if index:
                print()
            replayed = ProvenanceRecord.from_dict(
                json.loads(json.dumps(record.to_dict()))
            )
            print(replayed.describe())
        return 0

    # Load the baseline before the run, so a bad path costs nothing.
    baseline = None if args.gate is None else _load_baseline(args.gate)
    if args.file is not None:
        programs = [_load(args.file)]
        out = args.out
    else:
        programs = None  # the whole corpus
        out = args.out or pathlib.Path("results/precision_omega.json")
    ledger = _ledger_path(args)
    registry = MetricsRegistry() if ledger is not None else None
    with ExitStack() as stack:
        stack.enter_context(run_context(RunContext(run_id=new_run_id())))
        if registry is not None:
            stack.enter_context(collecting(registry))
        artifact = precision_report(
            programs,
            progress=lambda name: print(f"audit: {name}", file=sys.stderr),
        )
        if ledger is not None:
            append_run(
                run_record("audit", registry=registry, artifact=artifact),
                ledger,
            )
            print(f"run recorded in {ledger}", file=sys.stderr)
    if args.json:
        print(json.dumps(artifact, indent=2))
    else:
        print(render_precision(artifact))
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(artifact, indent=2) + "\n")
        print(f"artifact written to {out}", file=sys.stderr)
    if baseline is not None:
        comparison = compare_precision(baseline, artifact)
        print(comparison.render())
        return 0 if comparison.ok else 1
    return 0


def _cmd_serve(args) -> int:
    from .serve import Daemon, ServeApp

    if args.no_tcp and args.unix_socket is None:
        print("--no-tcp requires --unix-socket PATH", file=sys.stderr)
        return 2
    kwargs: dict = {
        "store_path": None if args.no_store else args.store,
        "ledger_path": _ledger_path(args),
        "max_inflight": args.max_inflight,
        "queue_depth": args.queue_depth,
        "queue_timeout_s": args.queue_timeout_s,
    }
    if args.default_deadline_ms is not None:
        kwargs["default_deadline_ms"] = args.default_deadline_ms
    if args.max_deadline_ms is not None:
        kwargs["max_deadline_ms"] = args.max_deadline_ms
    app = ServeApp(**kwargs)
    daemon = Daemon(
        app,
        host=None if args.no_tcp else args.host,
        port=args.port,
        unix_socket=args.unix_socket,
    )
    # The listeners bind at construction, so the announced port is real
    # even with --port 0; run() starts the serve loops itself.
    if daemon.port is not None:
        print(f"serving on http://{args.host}:{daemon.port}", file=sys.stderr)
    if args.unix_socket is not None:
        print(f"serving on unix:{args.unix_socket}", file=sys.stderr)
    if kwargs["store_path"] is not None:
        print(f"persistent store: {kwargs['store_path']}", file=sys.stderr)
    try:
        daemon.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        daemon.stop()
    return 0


def _cmd_diff(args) -> int:
    from .obs import diff_paths

    try:
        report = diff_paths(args.old, args.new, kind=args.kind)
    except (OSError, ValueError) as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 2
    text = report.render()
    print(text)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
        print(f"report written to {args.out}", file=sys.stderr)
    if args.gate:
        return 0 if report.ok else 1
    return 0


def _cmd_cholsky(_args) -> int:
    from .programs import cholsky

    result = analyze(cholsky())
    print(flow_tables(result))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit status."""

    args = build_parser().parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "trace": _cmd_trace,
        "parallel": _cmd_parallel,
        "queries": _cmd_queries,
        "cholsky": _cmd_cholsky,
        "audit": _cmd_audit,
        "serve": _cmd_serve,
        "diff": _cmd_diff,
    }
    try:
        return handlers[args.command](args)
    except InputError as failure:
        print(f"repro: error: {failure}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
