"""Run identity for benchmark results.

:mod:`repro.obs.telemetry.ledger`
    :func:`git_sha` and :func:`machine_fingerprint`, the commit and host
    a benchmark result was measured on.
"""

from .ledger import git_sha, machine_fingerprint

__all__ = ["git_sha", "machine_fingerprint"]
