"""Array dependence analysis with the Omega test's extended capabilities."""

from .applications import (
    ParallelizationReport,
    carried_dependences,
    parallelizable_loops,
    privatizable_arrays,
)
from .cover import cover_quick_reject, covers_destination, terminates_source
from .dependences import (
    Dependence,
    DependenceKind,
    DependenceStatus,
    compute_dependences,
)
from .engine import AnalysisOptions, Analyzer, analyze
from .graph import (
    dependence_graph,
    distribution_order,
    recurrences,
    vectorizable_statements,
)
from .kills import KillTester, kill_quick_reject
from .plan import QueryPlan
from .problem import (
    PairProblem,
    SymbolTable,
    build_instance,
    build_pair_problem,
    common_depth,
    syntactically_forward,
)
from .refine import RefinementOutcome, refine_dependence
from .results import AnalysisResult, KillTiming, PairCategory, PairRecord
from .session import SymbolicSession, parse_assertion
from .vectors import (
    MINUS,
    PLUS,
    STAR,
    ZERO,
    ZERO_PLUS,
    DirComponent,
    DirectionVector,
    RestraintVector,
    component_bounds,
    direction_vectors,
    restraint_vectors,
)

__all__ = [
    "carried_dependences",
    "parallelizable_loops",
    "privatizable_arrays",
    "ParallelizationReport",
    "SymbolicSession",
    "parse_assertion",
    "dependence_graph",
    "recurrences",
    "vectorizable_statements",
    "distribution_order",
    "analyze",
    "Analyzer",
    "AnalysisOptions",
    "AnalysisResult",
    "PairRecord",
    "PairCategory",
    "KillTiming",
    "Dependence",
    "DependenceKind",
    "DependenceStatus",
    "compute_dependences",
    "refine_dependence",
    "RefinementOutcome",
    "covers_destination",
    "terminates_source",
    "cover_quick_reject",
    "KillTester",
    "kill_quick_reject",
    "QueryPlan",
    "PairProblem",
    "SymbolTable",
    "build_pair_problem",
    "build_instance",
    "common_depth",
    "syntactically_forward",
    "DirComponent",
    "DirectionVector",
    "RestraintVector",
    "direction_vectors",
    "restraint_vectors",
    "component_bounds",
    "PLUS",
    "MINUS",
    "ZERO",
    "ZERO_PLUS",
    "STAR",
]
