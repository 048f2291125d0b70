"""Service benchmark: the daemon's latency and persistence story.

Three legs over one shared store file, all driven straight through
:meth:`repro.serve.ServeApp.handle` (the transport adds constant cost;
what this benchmark guards is the service layer):

``cold``
    A fresh app over a fresh store.  Every solver query misses both
    cache tiers and is written through to sqlite.
``warm_restart``
    The app is closed and rebuilt over the *same* store file — a
    simulated daemon restart with empty in-memory tiers.  The
    persistent tier must answer (``store_hits > 0``) and every response
    must be bit-identical to a direct :func:`repro.analysis.analyze`
    run of the same program.
``concurrent``
    N client threads submit the corpus through the shared app at once;
    admission may shed load (429s are counted, not failures) but no
    response may be an error and the app must survive.

``python -m repro serve-bench`` writes the ``repro.servebench/1``
artifact to ``results/serve_bench.json`` and exits nonzero when the
warm leg misses the persistent tier or any answer diverges.
"""

from __future__ import annotations

import pathlib
import statistics
import tempfile
import threading
import time

from ..analysis import AnalysisOptions, analyze
from ..ir import parse
from ..reporting import result_to_dict

__all__ = [
    "SERVE_BENCH_SCHEMA",
    "BENCH_PROGRAMS",
    "render_serve_bench",
    "run_serve_bench",
]

#: Schema tag of the artifact.
SERVE_BENCH_SCHEMA = "repro.servebench/1"

#: The submission corpus: small kernels spanning the analysis shapes
#: (loop-carried recurrence, wavefront, kill/overwrite, symbolic upper
#: bounds).  Sources live here because the service consumes program
#: *text*, not parsed :class:`~repro.ir.ast.Program` objects.
BENCH_PROGRAMS: dict[str, str] = {
    "recurrence": (
        "for i := 1 to n do {\n"
        "  a(i) := a(i-1) + b(i)\n"
        "}\n"
    ),
    "wavefront": (
        "for i := 1 to n do {\n"
        "  for j := 1 to n do {\n"
        "    w(i, j) := w(i-1, j) + w(i, j-1)\n"
        "  }\n"
        "}\n"
    ),
    "overwrite": (
        "for i := 1 to n do {\n"
        "  t(i) := b(i) + 1\n"
        "}\n"
        "for i := 1 to n do {\n"
        "  t(i) := c(i) * 2\n"
        "}\n"
        "for i := 1 to n do {\n"
        "  d(i) := t(i)\n"
        "}\n"
    ),
    "triangular": (
        "for i := 1 to n do {\n"
        "  for j := 1 to i do {\n"
        "    l(i, j) := l(j, j) + x(i)\n"
        "  }\n"
        "}\n"
    ),
}


def _comparable(result_dict: dict) -> dict:
    """The configuration-independent projection of one result dict.

    A direct ungoverned run reports ``degradations: None`` where the
    service's governed (but undisturbed) run reports ``[]``; everything
    else must match bit-for-bit.
    """

    found = dict(result_dict)
    found.pop("degradations", None)
    return found


def _submit(app, name: str, source: str) -> tuple[float, int, dict]:
    """One analyze submission; ``(seconds, http_status, envelope)``."""

    started = time.perf_counter()
    status, envelope = app.handle(
        {"op": "analyze", "name": name, "program": source}
    )
    return time.perf_counter() - started, status, envelope


def _latency_summary(seconds: list[float]) -> dict:
    ordered = sorted(seconds)
    return {
        "count": len(ordered),
        "median_ms": round(statistics.median(ordered) * 1000.0, 3),
        "max_ms": round(ordered[-1] * 1000.0, 3),
        "total_ms": round(sum(ordered) * 1000.0, 3),
    }


def run_serve_bench(
    *,
    trials: int = 3,
    clients: int = 4,
    store_dir=None,
    programs: dict[str, str] | None = None,
    progress=None,
) -> dict:
    """Run all three legs; return the ``repro.servebench/1`` artifact."""

    from ..serve import ServeApp

    def tell(text: str) -> None:
        if progress is not None:
            progress(text)

    if programs is None:
        programs = BENCH_PROGRAMS
    cleanup = None
    if store_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-serve-bench-")
        store_dir = pathlib.Path(cleanup.name)
    else:
        store_dir = pathlib.Path(store_dir)
        store_dir.mkdir(parents=True, exist_ok=True)
    store_path = store_dir / "serve_bench_store.db"
    if store_path.exists():
        store_path.unlink()

    artifact: dict = {
        "schema": SERVE_BENCH_SCHEMA,
        "settings": {
            "trials": trials,
            "clients": clients,
            "programs": sorted(programs),
        },
        "legs": {},
    }

    try:
        # Reference answers: direct in-process analysis, no service, no
        # persistence, default options.  This is the ground truth
        # the restarted service must reproduce from its store.
        reference = {
            name: _comparable(
                result_to_dict(analyze(parse(source, name), AnalysisOptions()))
            )
            for name, source in programs.items()
        }

        tell("cold leg (fresh store)")
        app = ServeApp(store_path=store_path)
        cold_latencies: list[float] = []
        first_pass: list[float] = []
        for trial in range(trials):
            for name, source in programs.items():
                seconds, status, envelope = _submit(app, name, source)
                cold_latencies.append(seconds)
                if trial == 0:
                    first_pass.append(seconds)
                if envelope["status"] not in ("ok", "degraded"):
                    raise RuntimeError(
                        f"cold leg: {name} answered {envelope['status']}"
                    )
        cold_store = app.store.stats()
        artifact["legs"]["cold"] = {
            "latency": _latency_summary(cold_latencies),
            "first_pass": _latency_summary(first_pass),
            "store_hits": cold_store["hits"],
            "store_writes": cold_store["writes"],
            "responses": dict(app.responses),
        }
        app.close()  # the simulated restart: all in-memory tiers die here

        tell("warm leg (restarted app, same store)")
        app = ServeApp(store_path=store_path)
        warm_latencies: list[float] = []
        mismatches: list[str] = []
        for name, source in programs.items():
            seconds, status, envelope = _submit(app, name, source)
            warm_latencies.append(seconds)
            if envelope["status"] not in ("ok", "degraded"):
                mismatches.append(name)
                continue
            if _comparable(envelope["result"]) != reference[name]:
                mismatches.append(name)
        warm_store = app.store.stats()
        artifact["legs"]["warm_restart"] = {
            "latency": _latency_summary(warm_latencies),
            "store_hits": warm_store["hits"],
            "store_writes": warm_store["writes"],
            "responses": dict(app.responses),
        }
        artifact["identical"] = not mismatches
        artifact["mismatches"] = mismatches

        tell(f"concurrent leg ({clients} clients)")
        outcomes: dict[str, int] = {}
        outcome_lock = threading.Lock()

        def client(_index: int) -> None:
            for name, source in programs.items():
                _, _, envelope = _submit(app, name, source)
                with outcome_lock:
                    status = envelope["status"]
                    outcomes[status] = outcomes.get(status, 0) + 1

        threads = [
            threading.Thread(target=client, args=(index,), daemon=True)
            for index in range(clients)
        ]
        concurrent_started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        artifact["legs"]["concurrent"] = {
            "clients": clients,
            "submitted": clients * len(programs),
            "outcomes": dict(sorted(outcomes.items())),
            "wall_ms": round(
                (time.perf_counter() - concurrent_started) * 1000.0, 3
            ),
            "errors": outcomes.get("error", 0),
        }
        app.close()
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    # Later cold trials hit the in-memory result cache, so the honest
    # restart comparison is cold *first pass* (everything misses) vs the
    # warm pass (persistent tier answers).
    cold_median = artifact["legs"]["cold"]["first_pass"]["median_ms"]
    warm_median = artifact["legs"]["warm_restart"]["latency"]["median_ms"]
    if warm_median > 0:
        artifact["restart_speedup"] = round(cold_median / warm_median, 4)
    return artifact


def render_serve_bench(artifact: dict) -> str:
    """The human-readable leg table for one artifact."""

    lines = [
        "serve bench "
        f"({artifact['schema']}, {len(artifact['settings']['programs'])} "
        f"programs, {artifact['settings']['trials']} trials)",
        f"{'leg':<14} {'median ms':>10} {'max ms':>10} "
        f"{'store hits':>11} {'store writes':>13}",
    ]
    for leg in ("cold", "warm_restart"):
        data = artifact["legs"][leg]
        lines.append(
            f"{leg:<14} {data['latency']['median_ms']:>10.3f} "
            f"{data['latency']['max_ms']:>10.3f} "
            f"{data['store_hits']:>11} {data['store_writes']:>13}"
        )
    concurrent = artifact["legs"]["concurrent"]
    outcomes = ", ".join(
        f"{status}={count}"
        for status, count in concurrent["outcomes"].items()
    )
    lines.append(
        f"{'concurrent':<14} clients={concurrent['clients']} "
        f"wall={concurrent['wall_ms']:.1f}ms {outcomes}"
    )
    verdict = "identical" if artifact.get("identical") else (
        "DIVERGED: " + ", ".join(artifact.get("mismatches", []))
    )
    lines.append(
        "warm-restart answers vs direct analyze(): " + verdict
    )
    if "restart_speedup" in artifact:
        lines.append(
            f"restart speedup (cold/warm median): "
            f"{artifact['restart_speedup']:.2f}x"
        )
    return "\n".join(lines)
