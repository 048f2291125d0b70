"""repro.guard — resource governance and graceful degradation.

The paper observes that the Omega test's expensive paths (splintering,
exponential Fourier–Motzkin cascades) are "almost never needed in
practice"; production compilers survive the rare blowup by *conservatively
assuming a dependence*, never by crashing.  This package makes that a
first-class, tested code path:

- :class:`Budget` — per-run resource limits (wall-clock deadline, FM
  elimination steps, splinter count, DNF size), activated with
  :func:`governed` and consulted at cooperative :func:`checkpoint` /
  :func:`spend` sites inside the Omega core.  Exhaustion raises the
  structured :class:`repro.omega.errors.BudgetExhausted`.
- :class:`DegradationLog` / :class:`DegradationEvent` — the provenance
  trail the solver service appends to whenever it substitutes a sound
  conservative answer; surfaces as ``AnalysisResult.degradations``.
- :func:`subject` — tags the dependence currently under analysis so a
  degradation can name *which* dependence it affected.
- :mod:`repro.guard.faults` — a deterministic, seeded fault-injection
  harness (``REPRO_FAULTS``) for chaos tests.

See ``docs/ROBUSTNESS.md`` for the policy and the soundness argument.
"""

from ..omega.errors import BudgetExhausted, OmegaComplexityError
from .budget import (
    Budget,
    DegradationEvent,
    DegradationLog,
    Governor,
    active,
    checkpoint,
    current_subject,
    governed,
    spend,
    subject,
)
from .faults import FaultPlan, injecting, plan_from_env

__all__ = [
    "Budget",
    "BudgetExhausted",
    "DegradationEvent",
    "DegradationLog",
    "FaultPlan",
    "Governor",
    "OmegaComplexityError",
    "active",
    "checkpoint",
    "current_subject",
    "governed",
    "injecting",
    "plan_from_env",
    "spend",
    "subject",
]
