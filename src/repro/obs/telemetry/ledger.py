"""Run identity: which machine and which commit produced a measurement.

``perfbench/run.py`` stamps every benchmark result with these two.
"""

from __future__ import annotations

import os
import platform
import subprocess

__all__ = ["git_sha", "machine_fingerprint"]


def machine_fingerprint() -> dict:
    """Enough platform detail to tell two records apart."""

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count() or 1,
    }


def git_sha() -> str | None:
    """The short commit SHA of the working tree, or None outside git."""

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None
