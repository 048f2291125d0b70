"""The repository benchmark: one command, three closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_analyze --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` also runs traced passes and reports the per-layer table.
Either way every answer is checked against ground truth from the
concrete interpreter, outside the timed passes.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).

A workload runs in one process, serially, with no sockets; ``all``
runs each workload in a process of its own, one after the other, so
that ``peak_rss_mb`` and ``setup_s`` are each workload's own.  The only
files written are scratch sqlite stores under ``.perfbench_tmp/`` at the
repository root, removed before exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_tmp"

#: How many times the import and the set-up are each repeated;
#: ``setup_s`` is the sum of their medians.
SETUP_REPEATS = 7

#: Fewest timed passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 3

#: Ops run once, untimed, before the first timed pass.
WARMUP_OPS = 3

#: ``op_tail_ms`` is the latency with this many ops beyond it.
TAIL_BEYOND = 10

#: The time of one :func:`reference_kernel` call on an idle 2-vCPU Intel
#: Xeon guest (Python 3.11), wall and CPU alike.  Each op's latency is
#: multiplied by this over the kernel's wall time measured just before
#: and just after the op, and its CPU time by this over the kernel's CPU
#: time, so both read as seconds on that idle host whatever else the
#: real host is running: on a shared host the same work can take 1.8
#: times as long for seconds at a time, and the kernel slows down with it.
REFERENCE_NOMINAL_S = 0.00015

#: The workloads, in the order ``--workload all`` runs them.
WORKLOAD_NAMES = ("paper_analyze", "omega_pairs", "serve_edits")

#: Every end-to-end metric, in report order, with its unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "live_flow_pairs": "count",
}


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like the solver's inner loops (small
    coefficient dicts, gcds, sorted tuples, hashing).  It is part of the
    benchmark, not of the program under test, so no change to the
    program can speed it up."""

    table = {}
    for i in range(150):
        coeffs = {("x", i % 5): i % 7 - 3, ("y", i % 3): i % 11 - 5}
        divisor = 0
        for value in coeffs.values():
            divisor = math.gcd(divisor, value)
        table[tuple(sorted(coeffs.items()))] = divisor
    return len(table)


def host_sample() -> tuple[float, float]:
    """Wall and CPU seconds one :func:`reference_kernel` call takes now
    (mean of two), with the garbage collector paused so that it never
    times a collection of the program's objects."""

    enabled = gc.isenabled()
    gc.disable()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        reference_kernel()
        reference_kernel()
        return (time.perf_counter() - wall) / 2.0, (time.process_time() - cpu) / 2.0
    finally:
        if enabled:
            gc.enable()


def scaled_call(fn) -> float:
    """Seconds ``fn()`` takes, scaled like an op's latency.  A one-off
    call has no other passes to outvote a disturbed host sample, so each
    side takes the best of three."""

    before = min(host_sample()[0] for _ in range(3))
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    after = min(host_sample()[0] for _ in range(3))
    return elapsed * 2.0 * REFERENCE_NOMINAL_S / (before + after)


@dataclass
class Pass:
    """One timed walk over a workload's ops.

    ``latencies`` and ``cpu_times`` are raw readings; ``wall_scales``
    and ``cpu_scales`` hold each op's factors to the nominal host:
    :data:`REFERENCE_NOMINAL_S` over the mean wall (or CPU) time of the
    host samples taken before and after it.
    """

    latencies: list[float] = field(default_factory=list)
    cpu_times: list[float] = field(default_factory=list)
    wall_scales: list[float] = field(default_factory=list)
    cpu_scales: list[float] = field(default_factory=list)
    answers: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    raised: dict[int, str] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    def scaled_latencies(self) -> list[float]:
        return [v * k for v, k in zip(self.latencies, self.wall_scales)]

    def scaled_cpu_times(self) -> list[float]:
        return [v * k for v, k in zip(self.cpu_times, self.cpu_scales)]


def run_pass(workload, *, keep_outputs: bool) -> Pass:
    """Run every op once, timing each; answers are digested untimed."""

    record = Pass()
    workload.begin_pass()
    gc.collect()
    try:
        before = host_sample()
        for index in range(workload.ops_per_pass):
            cpu_start = time.process_time()
            start = time.perf_counter()
            try:
                output = workload.run(index)
            except Exception as failure:  # noqa: BLE001 - counted as failed
                output = None
                record.raised[index] = f"{type(failure).__name__}: {failure}"
            record.latencies.append(time.perf_counter() - start)
            record.cpu_times.append(time.process_time() - cpu_start)
            after = host_sample()
            record.wall_scales.append(2.0 * REFERENCE_NOMINAL_S / (before[0] + after[0]))
            record.cpu_scales.append(2.0 * REFERENCE_NOMINAL_S / (before[1] + after[1]))
            before = after
            record.answers.append(
                None if output is None else workload.answer(index, output)
            )
            if keep_outputs:
                record.outputs.append(output)
    finally:
        workload.end_pass()
    return record


def measure(workload, seconds: float, *, min_passes: int) -> list[Pass]:
    """Whole passes until the next one would end past ``seconds``; the
    first pass keeps its outputs for the ground-truth check."""

    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(workload, keep_outputs=not passes))
        elapsed = time.perf_counter() - started
        if len(passes) >= min_passes and elapsed + passes[-1].wall > seconds:
            return passes


def warm_up(workload) -> None:
    """Run the first few ops untimed, so lazy initialisation is done."""

    workload.begin_pass()
    try:
        for index in range(min(WARMUP_OPS, workload.ops_per_pass)):
            workload.run(index)
    finally:
        workload.end_pass()


def per_op_median(passes: list[Pass], readings) -> list[float]:
    """Each op's median over the passes of ``readings(pass)``, a list of
    scaled latencies or CPU times."""

    return [statistics.median(values) for values in zip(*map(readings, passes))]


def harrell_davis_median(values: list[float]) -> float:
    """The Harrell-Davis estimate of the median of ``values``.

    A weighted mean of every order statistic, with weights from the
    Beta((n+1)/2, (n+1)/2) distribution, so the estimate moves a little
    when an op near the middle gets faster or slower, instead of jumping
    to its neighbour.  On ``serve_edits`` the ops near the middle sit on
    both sides of a gap between small and large programs, and which side
    the middle op falls on depends on the seed: over seeds 11 to 20, on
    a 2-vCPU Xeon guest, the plain median's quartile spread was 0.17 of
    its median and this one's 0.087.
    """

    ordered = sorted(values)
    n = len(ordered)
    a = (n + 1) / 2.0
    log_norm = 2.0 * math.lgamma(a) - math.lgamma(2.0 * a)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1.0) * (math.log(x) + math.log1p(-x)) - log_norm)

    weights = []
    steps = 16  # Simpson's rule over each 1/n slice
    for i in range(n):
        lo, width = i / n, 1.0 / (n * steps)
        area = density(lo) + density(lo + steps * width)
        for k in range(1, steps):
            area += (4 if k % 2 else 2) * density(lo + k * width)
        weights.append(area * width / 3.0)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def count_failures(passes: list[Pass], reference: Pass, bad: set[int]) -> int:
    """Ops that raised, that ground truth rejected, or whose answer
    differs from the verified pass."""

    failed = 0
    for record in passes:
        for index, answer in enumerate(record.answers):
            if (
                index in record.raised
                or index in bad
                or answer != reference.answers[index]
            ):
                failed += 1
    return failed


def stamp() -> dict:
    """Provenance of a result: commit, dirty flag, host and build."""

    from repro.obs.telemetry.ledger import git_sha, machine_fingerprint

    # Never let git discover a repository above the checkout, and never
    # let it write (``git status`` refreshes the index otherwise).
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    os.environ["GIT_OPTIONAL_LOCKS"] = "0"
    previous = os.getcwd()
    os.chdir(ROOT)
    try:
        sha = git_sha()
        dirty = None
        if sha is not None:
            status = subprocess.run(
                ["git", "status", "--porcelain"],
                capture_output=True,
                text=True,
                timeout=30,
            )
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    finally:
        os.chdir(previous)
    return {
        "git_sha": sha,
        "dirty": dirty,
        "nproc": os.cpu_count(),
        "python_build": " ".join(platform.python_build()),
        "python_compiler": platform.python_compiler(),
        "machine": machine_fingerprint(),
    }


def run_workload(workload, seconds: float, trace: bool, import_s: float) -> dict:
    """Set up, measure and check one workload; returns the result line."""

    setups = [scaled_call(workload.setup) for _ in range(SETUP_REPEATS)]
    warm_up(workload)

    if trace:
        from perfbench import layers

        untraced = measure(workload, seconds / 2, min_passes=1)
        start = time.perf_counter()
        traced_passes: list[Pass] = []
        with layers.traced() as (tracer, registry):
            while not traced_passes or (
                time.perf_counter() - start + traced_passes[-1].wall < seconds / 2
            ):
                traced_passes.append(run_pass(workload, keep_outputs=False))
        passes = untraced + traced_passes
    else:
        passes = measure(workload, seconds, min_passes=MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = passes[0]
    verdict = workload.verify(reference.outputs)
    reference.outputs = []
    bad = verdict.bad | set(reference.raised)
    attempted = sum(len(record.answers) for record in passes)
    failed = count_failures(passes, reference, bad)
    notes = verdict.notes + [
        f"op {index}: {message}" for index, message in sorted(reference.raised.items())
    ]

    if trace:
        traced_wall = statistics.fmean(sum(p.scaled_latencies()) for p in traced_passes)
        metrics = layers.layer_table(
            tracer,
            registry,
            len(traced_passes),
            scale=traced_wall / statistics.fmean(p.wall for p in traced_passes),
            traced_wall=traced_wall,
            untraced_wall=statistics.fmean(sum(p.scaled_latencies()) for p in untraced),
        )
        units = layers.LAYER_METRICS
        remarks = {}
    else:
        latencies = per_op_median(passes, Pass.scaled_latencies)
        tail_rank = len(latencies) - TAIL_BEYOND - 1
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "ops_per_s": len(latencies) / sum(latencies),
            "cpu_s": sum(per_op_median(passes, Pass.scaled_cpu_times)),
            "op_p50_ms": harrell_davis_median(latencies) * 1000.0,
            "op_tail_ms": sorted(latencies)[tail_rank] * 1000.0,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
            "live_flow_pairs": verdict.live_flow_pairs,
        }
        units = END_TO_END
        remarks = {
            "op_tail_ms": f"p{100 * (tail_rank + 1) / len(latencies):.4g},"
            f" {TAIL_BEYOND} of {len(latencies)} ops beyond",
        }

    detail = {
        "workload": workload.name,
        "seed": workload.seed,
        "passes": len(passes),
        "pass_wall_s": [round(record.wall, 4) for record in passes],
        "pass_cpu_s": [round(sum(record.cpu_times), 4) for record in passes],
        "ops_per_pass": workload.ops_per_pass,
        "failed_frac": failed / attempted,
        "remarks": remarks,
        "notes": notes[:20],
    }
    print(f"== {workload.name} (seed {workload.seed}, {len(passes)} passes"
          f" of {workload.ops_per_pass} ops{', traced' if trace else ''})")
    for name, value in metrics.items():
        remark = f"  ({remarks[name]})" if name in remarks else ""
        print(f"  {name:<30} {value:>14.6g} {units[name]}{remark}")
    print(f"failed {failed} of {attempted} ops (failed_frac {failed / attempted:.6g})")
    for note in notes[:20]:
        print(f"  ! {note}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def import_program() -> None:
    """Start a fresh interpreter that imports the program under test and
    the benchmark's workloads, and wait for it.  An import happens once
    per process, so ``setup_s`` times it in child processes."""

    subprocess.run(
        [sys.executable, "-c",
         "import repro.analysis, repro.serve, perfbench.workloads"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(ROOT)])},
        check=True,
        timeout=120,
    )


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=(*WORKLOAD_NAMES, "all"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in a child process of its own, one at a time."""

    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        if done.returncode != 0:
            return done.returncode
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # Measure the default configuration whatever the caller's environment.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(ROOT)]

    import_s = statistics.median(
        scaled_call(import_program) for _ in range(SETUP_REPEATS)
    )
    from perfbench import workloads

    WORKDIR.mkdir(exist_ok=True)
    try:
        print(json.dumps({"stamp": stamp()}, sort_keys=True))
        workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
        result = run_workload(workload, args.seconds, bool(args.trace), import_s)
        if threading.active_count() != 1:
            raise RuntimeError("the program under test left threads running")
        print(json.dumps(result))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
