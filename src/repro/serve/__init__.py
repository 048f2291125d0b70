"""Dependence analysis as a service: the degrade-don't-die daemon.

``python -m repro serve`` runs a long-lived server that multiplexes
analysis/query requests (JSON over HTTP and/or a unix socket) through
one shared :class:`~repro.solver.SolverService`, with per-request
deadline governance from :mod:`repro.guard`, bounded-queue admission
control, and a crash-safe persistent solver cache tier
(:mod:`repro.omega.store`) shared across clients and restarts.

Layer map: :mod:`.protocol` (envelopes), :mod:`.admission`
(load-shedding), :mod:`.app` (shared state + dispatch), :mod:`.daemon`
(transports + lifecycle), :mod:`.client` (stdlib client).  See
docs/SERVICE.md for the protocol reference and the operational runbook.
"""

from .admission import AdmissionController
from .app import DEFAULT_DEADLINE_MS, ServeApp
from .client import ServeClient, ServeError
from .daemon import Daemon
from .protocol import PROTOCOL, ProtocolError, validate_request

__all__ = [
    "PROTOCOL",
    "DEFAULT_DEADLINE_MS",
    "AdmissionController",
    "Daemon",
    "ProtocolError",
    "ServeApp",
    "ServeClient",
    "ServeError",
    "validate_request",
]
