"""Guard checkpoints per site, pinned for a fixed set of inexact queries.

Fault injection draws once per checkpoint, keyed by site and by the
running count at that site, so a change in how often the Omega core
checkpoints moves every later fault of a seeded chaos run.  These cases
take the inexact paths (dark shadows that fail, real-shadow refutations,
splinters, projection pieces, the dark-only projection fallback) and pin
the count at each site under a plan that never fires.

Elimination breaks ties by variable name and mints wildcards, so each
query restarts the wildcard counter at the same value.
"""

import itertools

import pytest

from repro.guard.faults import FaultPlan, injecting
from repro.omega import Problem, Variable, is_satisfiable, project
from repro.omega import terms as _terms
from repro.omega.constraints import Constraint, Relation
from repro.omega.errors import OmegaComplexityError
from repro.omega.terms import LinearExpr

x, y, z = Variable("x"), Variable("y"), Variable("z")
n = Variable("n", "sym")
GE = Relation.GE

#: Each case is a list of ``(relation, terms, constant)`` constraints.
CASES = {
    "real_refutes": [
        (GE, {x: 3}, -6), (GE, {n: -7, z: -4}, -16),
        (GE, {n: 4, x: -3, z: -3}, -1), (GE, {y: 4, z: 4}, 9),
        (GE, {n: -5}, -11), (GE, {x: 3, z: 5}, -10),
        (GE, {x: -3, z: -5}, 12), (GE, {x: 1}, 4), (GE, {x: -1}, 9),
        (GE, {z: 1}, 5), (GE, {z: -1}, 5),
    ],
    "real_passes": [
        (GE, {x: 1}, -2), (GE, {n: -3, x: 5, y: 2}, 7),
        (GE, {y: -7, z: -9}, -4), (GE, {y: 7, z: 9}, 7), (GE, {x: 1}, 1),
        (GE, {x: -1}, 7), (GE, {y: 1}, 0), (GE, {y: -1}, 11),
    ],
    "many_splinters": [
        (GE, {n: 1, x: -3, y: -7}, 20), (GE, {n: 4, y: 7, z: 4}, -1),
        (GE, {x: 7, z: 2}, 10), (GE, {x: -7, z: -2}, -7), (GE, {z: 1}, 1),
        (GE, {z: -1}, 10),
    ],
    "mixed_tracks": [
        (GE, {n: 2, x: 3, y: -7}, 7), (GE, {n: -6, x: -2, y: 5}, -20),
        (GE, {x: 7, y: 7, z: 3}, 1), (GE, {n: 2, x: 5, z: -2}, -9),
        (GE, {y: 1}, 0), (GE, {y: -1}, 12), (GE, {z: 1}, 4),
        (GE, {z: -1}, 8),
    ],
    "symbolic_band": [
        (GE, {n: -5, y: 7, z: -3}, 3), (GE, {n: 6, x: 4, y: 3}, 13),
        (GE, {n: -4, y: -2, z: 1}, -3), (GE, {n: 2, x: -6, z: 3}, -20),
        (GE, {z: 1}, 1), (GE, {z: -1}, 4),
    ],
    "boxed_band": [
        (GE, {}, 5), (GE, {x: 5, y: 6, z: 3}, 2), (GE, {n: 6, x: 2}, 4),
        (GE, {x: 4, y: 3, z: -6}, 1), (GE, {x: 3, y: -7}, -9),
        (GE, {x: -3, y: 7}, 10), (GE, {x: 1}, 5), (GE, {x: -1}, 6),
        (GE, {y: 1}, 2), (GE, {y: -1}, 2), (GE, {z: 1}, 3),
        (GE, {z: -1}, 3),
    ],
    "unsat_band": [
        (GE, {x: 1, y: -3, z: -7}, 11), (GE, {n: -7, x: -6, y: 5}, -10),
        (GE, {y: 1, z: 6}, -8), (GE, {n: 4, y: -2}, -20),
        (GE, {y: 5, z: 7}, 10), (GE, {y: -5, z: -7}, -7), (GE, {x: 1}, 3),
        (GE, {x: -1}, 3), (GE, {y: 1}, 1), (GE, {y: -1}, 2),
    ],
    # 100x - 97y in [0, 90]: more satisfiable splinters than the budget,
    # so projection falls back to the dark-only walk.
    "splinter_budget": [
        (GE, {x: 100, y: -97}, 0), (GE, {x: -100, y: 97}, 90),
        (GE, {y: 1}, 0), (GE, {y: -1}, 200), (GE, {x: 1}, 0),
        (GE, {n: 1, x: -1}, 0),
    ],
}

#: Recorded before the single-shadow walks were merged, except where
#: marked: satisfiability's real-shadow check used to stop without a
#: checkpoint as soon as its problem became empty.  It now walks like the
#: projection walks, one more equality step and checkpoint, to the end.
SAT_COUNTS = {
    "real_refutes": {"omega.eliminate": 3, "omega.fm": 3, "omega.sat": 3},
    "real_passes": {"omega.eliminate": 9, "omega.fm": 3, "omega.sat": 5},  # +1
    "many_splinters": {"omega.eliminate": 2, "omega.fm": 2, "omega.sat": 2},
    "mixed_tracks": {"omega.eliminate": 4, "omega.fm": 4, "omega.sat": 4},
    "symbolic_band": {"omega.eliminate": 4, "omega.fm": 4, "omega.sat": 4},
    "boxed_band": {"omega.eliminate": 39, "omega.fm": 5, "omega.sat": 9},  # +1
    "unsat_band": {"omega.eliminate": 2, "omega.fm": 2, "omega.sat": 2},
    "splinter_budget": {"omega.eliminate": 1, "omega.fm": 1, "omega.sat": 1},
}

PROJECT_COUNTS = {
    "real_refutes": {
        "omega.eliminate": 21, "omega.fm": 4, "omega.project": 6, "omega.sat": 2,
    },
    "real_passes": {
        "omega.eliminate": 78, "omega.fm": 13, "omega.project": 16, "omega.sat": 9,
    },
    "many_splinters": {
        "omega.eliminate": 476, "omega.fm": 114, "omega.project": 95, "omega.sat": 111,
    },
    "mixed_tracks": {
        "omega.eliminate": 163, "omega.fm": 25, "omega.project": 22, "omega.sat": 25,
    },
    "symbolic_band": {  # +2: two real-shadow checks end empty
        "omega.eliminate": 160, "omega.fm": 24, "omega.project": 21, "omega.sat": 27,
    },
    "boxed_band": {
        "omega.eliminate": 126, "omega.fm": 5, "omega.project": 21, "omega.sat": 5,
    },
    "unsat_band": {"omega.eliminate": 153, "omega.fm": 5, "omega.project": 5},
    "splinter_budget": {
        "omega.eliminate": 4, "omega.fm": 3, "omega.project": 4,
    },
}


def build(name):
    return Problem(
        [
            Constraint(LinearExpr(terms, constant), relation)
            for relation, terms, constant in CASES[name]
        ],
        name,
    )


def checkpoints(run):
    """Checkpoint counts per site while ``run()`` runs.

    A complexity failure ends the query; the counts up to it still count.
    """

    plan = FaultPlan(seed=0, rate=0.0)
    saved = _terms._wildcard_counter
    _terms._wildcard_counter = itertools.count(10**12)
    try:
        with injecting(plan):
            run()
    except OmegaComplexityError:
        pass
    finally:
        _terms._wildcard_counter = saved
    return dict(sorted(plan._counts.items()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_satisfiability_checkpoints(name):
    problem = build(name)
    assert checkpoints(lambda: is_satisfiable(problem)) == SAT_COUNTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_projection_checkpoints(name):
    problem = build(name)
    assert checkpoints(lambda: project(problem, [x, n])) == PROJECT_COUNTS[name]
