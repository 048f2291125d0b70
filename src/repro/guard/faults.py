"""Deterministic fault injection for chaos testing.

A :class:`FaultPlan` decides — purely from its seed, the checkpoint site
name and a per-site call counter — whether a given checkpoint "fails".
Decisions are derived from SHA-256 draws, never from :mod:`random`'s
global state or ``hash()`` (which is salted per process), so a plan
replays identically across runs, machines and ``PYTHONHASHSEED`` values.

Two solver fault kinds:

``timeout``
    Raise :class:`~repro.omega.errors.BudgetExhausted` with
    ``budget="deadline"`` — what a blown wall-clock deadline looks like.
``budget``
    Raise :class:`~repro.omega.errors.BudgetExhausted` for one of the work
    meters (``fm_steps`` / ``splinters`` / ``dnf_size``), chosen by a
    second deterministic draw.

Plans activate with :func:`injecting` (thread-local) and are typically
built from the ``REPRO_FAULTS`` environment variable via
:func:`plan_from_env`:

    REPRO_FAULTS=42
    REPRO_FAULTS="seed=42,rate=0.1,kinds=timeout|budget,sites=omega.sat"
"""

from __future__ import annotations

import hashlib
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from ..obs.instrument import metrics as _metrics
from ..omega.errors import BudgetExhausted

__all__ = [
    "DEFAULT_RATE",
    "FaultPlan",
    "SERVE_KINDS",
    "current_plan",
    "injecting",
    "plan_from_env",
]

#: Default per-checkpoint failure probability.
DEFAULT_RATE = 0.05

#: Solver-path fault kinds a plan may inject.
KINDS = ("timeout", "budget")

#: Serve-path fault kinds (see :meth:`FaultPlan.maybe_serve`): drop a
#: request at admission, fail a persistent-store I/O, or stall a client
#: response.  These never raise from :meth:`maybe_fail` — the serve
#: layers poll for them at their own checkpoints, because the sound
#: reaction differs per site (shed vs degrade vs slow), unlike the
#: solver faults whose uniform reaction is "raise BudgetExhausted".
SERVE_KINDS = ("request-drop", "store-io-error", "slow-client")

#: Work meters a ``budget`` fault can claim to have exhausted.
_BUDGET_KINDS = ("fm_steps", "splinters", "dnf_size")


def _draw(seed: int, site: str, count: int, salt: str = "") -> float:
    """A deterministic uniform draw in [0, 1)."""

    digest = hashlib.sha256(
        f"{seed}|{site}|{count}|{salt}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass
class FaultPlan:
    """A seeded, deterministic schedule of injected faults."""

    seed: int
    rate: float = DEFAULT_RATE
    kinds: tuple[str, ...] = KINDS
    #: Restrict injection to these sites (None = every site).
    sites: frozenset[str] | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _counts: dict = field(default_factory=dict, repr=False)
    #: Every fault actually raised, as (site, kind, count) — for tests.
    injected: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        for kind in self.kinds:
            if kind not in KINDS and kind not in SERVE_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")

    def _count(self, site: str) -> int:
        with self._lock:
            count = self._counts.get(site, 0) + 1
            self._counts[site] = count
        return count

    def _applies(self, site: str) -> bool:
        return self.sites is None or site in self.sites

    def maybe_fail(self, site: str) -> None:
        """Checkpoint hook: raise a timeout/budget fault, or return."""

        soft = [k for k in self.kinds if k in KINDS]
        if not soft or not self._applies(site):
            return
        count = self._count(site)
        if _draw(self.seed, site, count) >= self.rate:
            return
        kind = soft[int(_draw(self.seed, site, count, "kind") * len(soft))]
        self.injected.append((site, kind, count))
        _metrics.inc("guard.faults_injected")
        if kind == "timeout":
            raise BudgetExhausted(
                "injected deadline fault",
                site=site,
                budget="deadline",
                limit=0.0,
                spent=0.0,
            )
        meter = _BUDGET_KINDS[
            int(_draw(self.seed, site, count, "meter") * len(_BUDGET_KINDS))
        ]
        raise BudgetExhausted(
            "injected budget fault", site=site, budget=meter, limit=0, spent=1
        )

    def maybe_serve(self, site: str, kinds: tuple[str, ...]) -> str | None:
        """Serve-path hook: the drawn fault kind for this call, or None.

        ``kinds`` restricts the draw to the fault kinds the calling site
        knows how to express (a store can suffer ``store-io-error`` but
        not ``slow-client``).  Unlike :meth:`maybe_fail` this *returns*
        the kind instead of raising — the serve layers translate it into
        their own failure mode (a 429, a sqlite error, a stalled write).
        """

        armed = [k for k in self.kinds if k in SERVE_KINDS and k in kinds]
        if not armed or not self._applies(site):
            return None
        count = self._count(site)
        if _draw(self.seed, site, count, "serve") >= self.rate:
            return None
        kind = armed[int(_draw(self.seed, site, count, "servekind") * len(armed))]
        self.injected.append((site, kind, count))
        _metrics.inc("guard.faults_injected")
        return kind


class _ActivePlans(threading.local):
    def __init__(self) -> None:
        self.stack: list[FaultPlan] = []


_active = _ActivePlans()


def current_plan() -> FaultPlan | None:
    """The innermost active fault plan on this thread, or None."""

    stack = _active.stack
    return stack[-1] if stack else None


@contextmanager
def injecting(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the enclosed calls on this thread."""

    _active.stack.append(plan)
    try:
        yield plan
    finally:
        _active.stack.pop()


def plan_from_env(environ=None) -> FaultPlan | None:
    """Build a plan from ``REPRO_FAULTS``, or None when unset/empty.

    Accepts a bare integer seed, or a comma-separated spec of
    ``seed=N``, ``rate=F``, ``kinds=a|b``, ``sites=x|y``.
    """

    raw = (environ if environ is not None else os.environ).get(
        "REPRO_FAULTS", ""
    ).strip()
    if not raw:
        return None
    if raw.lstrip("-").isdigit():
        return FaultPlan(seed=int(raw))
    seed = 0
    rate = DEFAULT_RATE
    kinds: tuple[str, ...] = KINDS
    sites: frozenset[str] | None = None
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        name = name.strip()
        value = value.strip()
        if name == "seed":
            seed = int(value)
        elif name == "rate":
            rate = float(value)
        elif name == "kinds":
            kinds = tuple(k for k in value.split("|") if k)
        elif name == "sites":
            sites = frozenset(s for s in value.split("|") if s)
        else:
            raise ValueError(f"unknown REPRO_FAULTS field {name!r}")
    return FaultPlan(seed=seed, rate=rate, kinds=kinds, sites=sites)
