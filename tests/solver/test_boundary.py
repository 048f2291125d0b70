"""The service boundary is load-bearing: analysis code may not call the
Omega core (or its solver cache) directly.

Every satisfiability / projection / gist / implication query must flow
through :mod:`repro.solver`, because that is the seam where batching,
de-duplication and the worker pool live — a direct ``omega.cache`` or
``omega.solve`` import would silently bypass all of it.  This test walks
the AST of every module under ``src/repro/analysis/`` and fails on any
import that punches through the boundary.
"""

import ast
from pathlib import Path

import repro.analysis

ANALYSIS_DIR = Path(repro.analysis.__file__).parent

#: Modules whose direct import is a boundary violation anywhere under
#: ``repro.analysis`` (absolute or relative, whole-module or from-import).
BANNED_MODULES = ("omega.cache", "omega.solve")

#: Solver entry points that must come from ``repro.solver``, never from
#: ``repro.omega`` (the omega package re-exports them for external users,
#: but analysis code importing them there would skip the service).
BANNED_OMEGA_NAMES = {
    "cache",
    "solve",
    "is_satisfiable",
    "project",
    "gist",
    "implies",
    "implies_union",
    "satisfiable_batch",
    "SolverCache",
    "caching",
    "current_cache",
    "cache_enabled",
}


def _is_omega_module(module: str) -> bool:
    """True for ``omega`` itself (``..omega`` renders as ``omega``)."""

    return module == "omega" or module.endswith(".omega")


def _violations_in(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.endswith(BANNED_MODULES):
                    found.append(
                        f"{path.name}:{node.lineno}: import {alias.name}"
                    )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.endswith(BANNED_MODULES):
                found.append(
                    f"{path.name}:{node.lineno}: from {'.' * node.level}"
                    f"{module} import ..."
                )
            elif _is_omega_module(module):
                for alias in node.names:
                    if alias.name in BANNED_OMEGA_NAMES:
                        found.append(
                            f"{path.name}:{node.lineno}: from "
                            f"{'.' * node.level}{module} import {alias.name}"
                        )
    return found


def test_analysis_layer_never_imports_the_omega_solver_directly():
    violations = []
    for path in sorted(ANALYSIS_DIR.glob("*.py")):
        violations.extend(_violations_in(path))
    assert not violations, (
        "analysis code must route Omega queries through repro.solver, "
        "not import the core directly:\n  " + "\n  ".join(violations)
    )


def test_the_scan_actually_detects_violations():
    """Guard the guard: the AST scan flags each banned import shape."""

    import textwrap

    sample = textwrap.dedent(
        """
        import repro.omega.cache
        from ..omega.cache import caching
        from ..omega import is_satisfiable
        from ..omega import Problem
        from ..solver import project
        from ..omega.solve import solve
        """
    )
    scratch = ANALYSIS_DIR / "_boundary_scan_sample.py"
    try:
        scratch.write_text(sample)
        violations = _violations_in(scratch)
    finally:
        scratch.unlink(missing_ok=True)
    # Problem from ..omega and anything from ..solver are fine; the other
    # four imports are each a distinct violation shape.
    assert len(violations) == 4
