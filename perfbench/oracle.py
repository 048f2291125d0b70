"""Ground truth from the concrete interpreter (``repro.ir.interp``).

The checks here never consult another configuration of the analysis:
the interpreter runs the program at small symbol bindings and records
every access, and the analysis answer must account for what it saw.

* :func:`missed_flows` — every value-based flow instance must be covered
  by a live flow dependence whose direction vector admits its distance
  (the pattern of the corpus differential test).
* :func:`unsat_memory_pairs` — every (write, read) pair with a
  memory-based flow must have a satisfiable dependence problem.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.ir import memory_based_pairs, run_program, value_based_flows

#: Symbol bindings for corpus programs, as the tier-1 corpus tests use
#: them; a symbol not listed here is bound to ``DEFAULT_SYMBOL``.
CORPUS_BINDINGS: tuple[Mapping[str, int], ...] = (
    dict(n=5, m=6, w=2, steps=3, N=3, M=2, NMAT=1, NRHS=1, EPS=1, s=2,
         maxB=3, x=1, y=2, k0=2),
    dict(n=4, m=5, w=1, steps=2, N=3, M=2, NMAT=1, NRHS=1, EPS=1, s=2,
         maxB=2, x=1, y=2, k0=1),
)
DEFAULT_SYMBOL = 3

#: The binding for the generated ``omega_pairs`` nests (symbols n and m).
#: Their upper bounds grow with n and m and their lower bounds do not
#: depend on them, so this one binding holds every iteration, and every
#: flow, of every smaller binding.  Larger ones find a few more flows
#: (2 to 3 more pairs of about 65 at 8) but take six times as long.
NEST_BINDINGS: tuple[Mapping[str, int], ...] = ({"n": 6, "m": 6},)


def bind(program, binding: Mapping[str, int]) -> dict[str, int]:
    """A value for every symbolic constant of ``program``."""

    return {
        name: binding.get(name, DEFAULT_SYMBOL)
        for name in program.symbolic_constants
    }


def missed_flows(
    result, bindings: Iterable[Mapping[str, int]] = CORPUS_BINDINGS
) -> list[str]:
    """Value-based flow instances the analysis result fails to report.

    Empty when every instance, at every binding, is covered by a live
    flow dependence of the same (write, read) pair whose direction
    vectors admit the instance's distance.
    """

    program = result.program
    live: dict[tuple, list] = {}
    for dep in result.live_flow():
        live.setdefault((dep.src, dep.dst), []).append(dep)
    misses = []
    for binding in bindings:
        trace = run_program(program, bind(program, binding))
        for flow in value_based_flows(trace):
            candidates = live.get((flow.source, flow.destination), ())
            if not any(
                not dep.deltas
                or any(vector.admits(flow.distance) for vector in dep.directions)
                for dep in candidates
            ):
                misses.append(
                    f"{program.name}: {flow.source} -> {flow.destination}"
                    f" distance {flow.distance}"
                )
    return misses


def unsat_memory_pairs(
    program,
    satisfiable: Mapping[tuple, bool],
    bindings: Iterable[Mapping[str, int]] = NEST_BINDINGS,
) -> list[tuple]:
    """(write, read) pairs that really flow but were answered unsatisfiable.

    ``satisfiable`` maps each (write access, read access) pair to the
    answer the Omega test gave; a pair missing from it counts as a miss.
    """

    misses = []
    for binding in bindings:
        trace = run_program(program, bind(program, binding))
        for pair in sorted(memory_based_pairs(trace), key=str):
            if not satisfiable.get(pair, False) and pair not in misses:
                misses.append(pair)
    return misses
