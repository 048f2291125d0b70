"""Sampling profile of one perfbench workload, by frame.

cProfile adds its cost to every Python call and charges a dunder that C
code dispatches (a dataclass ``__hash__`` reached from a dict lookup, say)
to the caller of the dict method; spans see only the layers they wrap.
This sampler interrupts its own process every millisecond of CPU time
(``ITIMER_PROF``) while workload ops run, and prints each frame's share of
the samples as the innermost frame (self) and anywhere on the stack
(cumulative).  From the repository root::

    python3 benchmarks/sample_profile.py --workload paper_analyze --seconds 20
"""

from __future__ import annotations

import argparse
import collections
import pathlib
import signal
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
INTERVAL_S = 0.001


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="paper_analyze")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    labels: dict = {}
    own: collections.Counter = collections.Counter()
    cumulative: collections.Counter = collections.Counter()

    def label(code) -> str:
        name = labels.get(code)
        if name is None:
            base = code.co_filename.rsplit("/", 1)[-1]
            name = labels[code] = f"{base}:{code.co_firstlineno}({code.co_name})"
        return name

    def on_sample(signum, frame) -> None:
        own[label(frame.f_code)] += 1
        seen = set()
        while frame is not None:
            seen.add(label(frame.f_code))
            frame = frame.f_back
        cumulative.update(seen)

    signal.signal(signal.SIGPROF, on_sample)
    with tempfile.TemporaryDirectory() as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, pathlib.Path(workdir))
        workload.setup()
        start = time.process_time()
        while time.process_time() - start < args.seconds:
            workload.begin_pass()
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
            for index in range(workload.ops_per_pass):
                workload.run(index)
            signal.setitimer(signal.ITIMER_PROF, 0)
            workload.end_pass()
    total = sum(own.values())
    print(f"{args.workload}: {total} samples, {INTERVAL_S * 1e3:g} ms CPU apart")
    for title, counts in (("self", own), ("cumulative", cumulative)):
        print(f"\n{'self%':>6} {'cum%':>6}  frame (top {args.top} by {title})")
        for name, _ in counts.most_common(args.top):
            print(
                f"{100 * own[name] / total:6.1f} {100 * cumulative[name] / total:6.1f}"
                f"  {name}"
            )


if __name__ == "__main__":
    main()
