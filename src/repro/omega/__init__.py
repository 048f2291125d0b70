"""The Omega test: exact integer programming for dependence analysis.

This package implements Pugh's Omega test — integer programming based on an
extension of Fourier-Motzkin variable elimination — together with the
extensions introduced in the PLDI'92 paper: projection with splintering
(real and dark shadows), gist computation, efficient implication tests, and
a decision layer for the subclass of Presburger formulas that array
dependence analysis requires.  The exact partial elimination the query
planner reuses across probes is built from this package's elimination
steps in :mod:`repro.analysis.plan`.

Quick example::

    from repro.omega import Variable, Problem, is_satisfiable, project

    a, b = Variable("a"), Variable("b")
    p = Problem().add_bounds(0, a, 5).add_le(b + 1, a).add_le(a, 5 * b)
    proj = project(p, [a])            # the paper's example: 2 <= a <= 5
"""

from .cache import SolverCache, cache_enabled, caching, current_cache
from .constraints import (
    CanonicalProblem,
    Constraint,
    JointCanonical,
    NormalizeStatus,
    Problem,
    Relation,
    canonicalize_problems,
    eq,
    ge,
    le,
)
from .eliminate import (
    EqualityEliminationResult,
    FMResult,
    eliminate_equalities,
    fourier_motzkin,
    mod_hat,
    substitute,
)
from .errors import (
    BudgetExhausted,
    NonlinearConstraintError,
    OmegaComplexityError,
    OmegaError,
)
from .gist import GistStats, gist, implies, implies_union
from .presburger import (
    FALSE,
    TRUE,
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    satisfiable,
    to_problems,
    valid,
)
from .project import Projection, project, project_away
from .simplify import find_witness, simplify
from .solve import is_satisfiable
from .terms import LinearExpr, Variable, const, fresh_wildcard, term

__all__ = [
    # terms
    "Variable",
    "LinearExpr",
    "term",
    "const",
    "fresh_wildcard",
    # constraints
    "Constraint",
    "Relation",
    "Problem",
    "NormalizeStatus",
    "CanonicalProblem",
    "JointCanonical",
    "canonicalize_problems",
    "ge",
    "le",
    "eq",
    # solver result cache
    "SolverCache",
    "caching",
    "current_cache",
    "cache_enabled",
    # elimination
    "mod_hat",
    "substitute",
    "eliminate_equalities",
    "EqualityEliminationResult",
    "fourier_motzkin",
    "FMResult",
    # solving
    "is_satisfiable",
    # projection
    "project",
    "project_away",
    "Projection",
    "simplify",
    "find_witness",
    # gist
    "gist",
    "implies",
    "implies_union",
    "GistStats",
    # Presburger formulas
    "Formula",
    "Atom",
    "And",
    "Or",
    "Not",
    "Implies",
    "Exists",
    "Forall",
    "TRUE",
    "FALSE",
    "satisfiable",
    "valid",
    "to_problems",
    # errors
    "OmegaError",
    "OmegaComplexityError",
    "BudgetExhausted",
    "NonlinearConstraintError",
]
