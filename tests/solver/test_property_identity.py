"""Property: the SolverService answers exactly like the omega entry points.

The service is a router, not a solver — whatever combination of canonical
cache and batch de-duplication it uses internally, every answer it returns
must be bit-identical to calling ``repro.omega.solve``, ``.project`` and
``.gist`` directly.  This test harvests real dependence problems from the
paper examples, CHOLSKY and a fuzzed corpus, runs the four primitives
through services with and without a canonical cache (scalar *and*
batched), and compares every answer against the direct call,
fingerprinting Problem-valued results by canonical form so wildcard
numbering cannot mask or fake a difference.
"""

import random

import pytest

from repro.analysis.problem import SymbolTable, build_pair_problem
from repro.omega import Problem, SolverCache
from repro.omega.errors import OmegaComplexityError
from repro.omega.project import Projection
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


def query_suite(pair):
    """One of each primitive over a harvested dependence problem."""

    full = pair.domain.conjoin(pair.coupling)
    keep = [v for v in full.variables() if v.is_symbolic]
    keep.extend(pair.delta_vars)
    return [
        SolverQuery.sat(full),
        SolverQuery.project(full, keep),
        SolverQuery.implies(full, pair.domain),
        SolverQuery.gist(full, pair.domain),
    ]


def evaluate_direct(query):
    try:
        return fingerprint(query.execute())
    except OmegaComplexityError:
        return ("complexity",)


def evaluate_via(service, query, *, batched):
    try:
        if batched:
            (answer,) = service.submit_batch([query])
        else:
            answer = service.run(query)
        return fingerprint(answer)
    except OmegaComplexityError:
        return ("complexity",)


def assert_service_matches_direct(programs):
    queries = [
        query
        for program in programs
        for pair in pair_problems(program)
        for query in query_suite(pair)
    ]
    assert queries, "harvest produced no queries"
    expected = [evaluate_direct(query) for query in queries]
    for label, service in config_services():
        with service.activate():
            scalar = [
                evaluate_via(service, query, batched=False)
                for query in queries
            ]
            batched = [
                evaluate_via(service, query, batched=True)
                for query in queries
            ]
        assert scalar == expected, f"scalar mismatch at {label}"
        assert batched == expected, f"batch mismatch at {label}"


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
    """All harvested queries in a single batch, cache on and off."""

    program = cholsky()
    queries = [
        query
        for pair in pair_problems(program, limit=8)
        for query in query_suite(pair)
    ]
    expected = [evaluate_direct(query) for query in queries]
    for label, service in config_services():
        with service.activate():
            answers = [
                fingerprint(answer)
                for answer in service.submit_batch(queries)
            ]
        assert answers == expected, label
