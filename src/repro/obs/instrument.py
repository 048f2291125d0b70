"""Shared instrumentation surface for the analysis and solver layers.

Every analysis module used to open with the same stanza::

    from ..obs import metrics as _metrics
    from ..obs.trace import span as _span

plus, in the engine, the tracer plumbing (``Tracer`` / ``tracing`` /
``active``).  This module is that stanza, once: instrumented layers import
``metrics``, ``span`` (and friends) from here, so the boilerplate lives in
exactly one place and the obs fast paths (:func:`repro.obs.off`) stay the
single source of truth for "is anything collecting?".
"""

from __future__ import annotations

from . import off
from . import metrics
from .trace import Tracer, span, tracing
from .trace import active as tracing_active

__all__ = [
    "off",
    "metrics",
    "span",
    "Tracer",
    "tracing",
    "tracing_active",
]
