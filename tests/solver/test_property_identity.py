"""Property: the SolverService answers exactly like the omega entry points.

The service is a router, not a solver — with or without a canonical
cache, every answer it returns must be bit-identical to calling
``repro.omega.solve``, ``.project`` and ``.gist`` directly.  This test
harvests real dependence problems from the paper examples, CHOLSKY and a
fuzzed corpus, runs the four primitives through services with and
without a canonical cache (scalar calls, and the SAT / PROJECT queries
``submit_batch`` takes), and compares every answer against the direct
call, fingerprinting Problem-valued results by canonical form so
wildcard numbering cannot mask or fake a difference.
"""

import random

import pytest

from repro.analysis.problem import SymbolTable, build_pair_problem
from repro.omega import Problem, SolverCache
from repro.omega.errors import OmegaComplexityError
from repro.omega.gist import gist, implies
from repro.omega.project import Projection, project
from repro.omega.solve import is_satisfiable
from repro.programs import PAPER_EXAMPLES, cholsky
from repro.solver import SolverQuery, SolverService
from tests.analysis.test_cache_determinism import random_program

def config_services():
    yield "cache=True", SolverService(cache=SolverCache())
    yield "cache=False", SolverService()


def fingerprint(value):
    """A comparison key that is stable across wildcard numbering."""

    if isinstance(value, Projection):
        return (
            "projection",
            frozenset(value.kept),
            tuple(piece.canonical() for piece in value.pieces),
            value.real.canonical(),
            value.exact_union,
            value.splintered,
        )
    if isinstance(value, Problem):
        return ("problem", value.canonical())
    return value


def pair_problems(program, limit=6):
    """Dependence problems for the first few same-array pairs."""

    symbols = SymbolTable()
    writes = list(program.writes())
    accesses = writes + list(program.reads())
    pairs = []
    # Self-pairs (write vs itself on another iteration) are legitimate
    # output-dependence problems, so a single-statement program still
    # contributes queries.
    for write in writes:
        for access in accesses:
            if write.array == access.array:
                pairs.append(build_pair_problem(write, access, symbols))
                if len(pairs) >= limit:
                    return pairs
    return pairs


#: Each primitive as the omega entry point the service must agree with.
DIRECT = {
    "sat": is_satisfiable,
    "project": project,
    "implies": implies,
    "gist": gist,
}


def query_suite(pair):
    """One ``(primitive, args)`` of each primitive over a harvested
    dependence problem."""

    full = pair.domain.conjoin(pair.coupling)
    keep = [v for v in full.variables() if v.is_symbolic]
    keep.extend(pair.delta_vars)
    return [
        ("sat", (full,)),
        ("project", (full, keep)),
        ("implies", (full, pair.domain)),
        ("gist", (full, pair.domain)),
    ]


def run_direct(query):
    """The answer of the omega entry point itself."""

    primitive, args = query
    return DIRECT[primitive](*args)


def as_solver_query(query):
    """The SAT / PROJECT query ``submit_batch`` takes, or None."""

    primitive, args = query
    if primitive == "sat":
        return SolverQuery.sat(*args)
    if primitive == "project":
        return SolverQuery.project(*args)
    return None


def settle(compute):
    try:
        return fingerprint(compute())
    except OmegaComplexityError:
        return ("complexity",)


def evaluate_direct(query):
    return settle(lambda: run_direct(query))


def evaluate_scalar(service, query):
    primitive, args = query
    return settle(lambda: getattr(service, primitive)(*args))


def evaluate_batched(service, query):
    return settle(lambda: service.submit_batch([query])[0])


def assert_service_matches_direct(programs):
    queries = [
        query
        for program in programs
        for pair in pair_problems(program)
        for query in query_suite(pair)
    ]
    assert queries, "harvest produced no queries"
    expected = [evaluate_direct(query) for query in queries]
    batchable = [
        (as_solver_query(query), answer)
        for query, answer in zip(queries, expected)
        if as_solver_query(query) is not None
    ]
    for label, service in config_services():
        with service.activate():
            scalar = [evaluate_scalar(service, query) for query in queries]
            batched = [
                evaluate_batched(service, query) for query, _ in batchable
            ]
        assert scalar == expected, f"scalar mismatch at {label}"
        assert batched == [answer for _, answer in batchable], (
            f"batch mismatch at {label}"
        )


@pytest.mark.parametrize(
    "make_program",
    PAPER_EXAMPLES.values(),
    ids=[f"example{number}" for number in PAPER_EXAMPLES],
)
def test_paper_examples(make_program):
    assert_service_matches_direct([make_program()])


def test_cholsky():
    assert_service_matches_direct([cholsky()])


def test_fuzzed_corpus():
    rng = random.Random(19920617)  # PLDI'92; fixed for reproducibility
    programs = [random_program(rng, index) for index in range(40)]
    assert_service_matches_direct(programs)


def test_whole_batch_round_trip():
    """All harvested SAT / PROJECT queries in a single batch, cache on
    and off."""

    program = cholsky()
    queries = [
        query
        for pair in pair_problems(program, limit=8)
        for query in query_suite(pair)
        if as_solver_query(query) is not None
    ]
    expected = [evaluate_direct(query) for query in queries]
    for label, service in config_services():
        with service.activate():
            answers = [
                fingerprint(answer)
                for answer in service.submit_batch(
                    [as_solver_query(query) for query in queries]
                )
            ]
        assert answers == expected, label
