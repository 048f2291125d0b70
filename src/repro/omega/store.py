"""Crash-safe persistent second tier for the solver cache.

:class:`PersistentStore` backs the in-memory :class:`~repro.omega.cache.
SolverCache` with a sqlite file so canonical-problem answers survive
restarts and are shared across clients of the serve daemon.  The store
holds exactly what the LRU holds — satisfiability booleans, frozen
canonical-space projections/gists, union implications and replayable
complexity failures — keyed by the SHA-256 of the canonical cache key,
so a warm hit is bit-identical to the in-memory hit it replaces.

Durability and failure policy (degrade, never die):

* WAL journal mode with ``synchronous=NORMAL``: a crash mid-write loses
  at most the tail of the WAL, never corrupts committed pages.
* Every row carries a SHA-256 checksum of its encoded value; a checksum
  or codec mismatch on read is treated as a miss and the row deleted.
* The schema/codec version lives in a ``meta`` table.  A mismatch on
  open (old file, new code) is *cold start*: entries are dropped, the
  version rewritten, and the store keeps serving.
* A file sqlite rejects outright (truncated, overwritten, not a
  database) is **quarantined** — renamed to ``<path>.corrupt-<n>`` with
  a logged event — and a fresh store created in its place.
* Operational I/O errors count a strike; after
  :data:`ERROR_DISABLE_THRESHOLD` consecutive strikes the store disables
  itself and the cache silently runs memory-only.  No store failure ever
  propagates to a solver caller.

Writes are buffered (flushed every :data:`FLUSH_EVERY` puts and on
:meth:`close`) — losing the tail of a cache is a cold miss, not an
error, so batching commits is safe and keeps the solver hot path off
the disk.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pathlib
import sqlite3
import threading

from ..obs import metrics as _metrics
from .cache import MISSING, Raised
from .constraints import Constraint, Problem, Relation
from .terms import LinearExpr, Variable

__all__ = [
    "STORE_VERSION",
    "PersistentStore",
    "StoreDisabled",
    "decode_value",
    "default_store_path",
    "encode_value",
    "key_digest",
]

log = logging.getLogger("repro.omega.store")

#: Bump whenever the schema *or* the value codec changes shape; an opened
#: file carrying any other version is treated as cold (entries dropped).
STORE_VERSION = "repro.store/1"

#: Buffered puts between commits.
FLUSH_EVERY = 32

#: Consecutive I/O errors before the store disables itself.
ERROR_DISABLE_THRESHOLD = 8


class StoreDisabled(RuntimeError):
    """Internal signal: the store has latched itself off."""


def default_store_path() -> pathlib.Path:
    """``REPRO_STORE`` or the conventional ``results/omega_store.db``."""

    raw = os.environ.get("REPRO_STORE", "").strip()
    return pathlib.Path(raw) if raw else pathlib.Path("results/omega_store.db")


# ---------------------------------------------------------------------------
# Value codec: tagged JSON, order-preserving, bit-identity-safe
# ---------------------------------------------------------------------------
#
# Cached values are stored in canonical variable space (see
# cache.freeze_problems), so the only variable names that appear are the
# canonical ``v{i}`` / symbolic / reserved ``__w{i}`` slots.  Constraint
# and term order are preserved exactly — thaw_problems translates by
# name, so a round-tripped entry thaws identically to a memory hit.


def _encode_problem(problem: Problem) -> list:
    constraints = []
    for constraint in problem.constraints:
        terms = [
            [var.name, var.kind, coeff]
            for var, coeff in constraint.expr.terms.items()
        ]
        constraints.append(
            [constraint.relation.value, constraint.expr.constant, terms]
        )
    return [problem.name, constraints]


def _decode_problem(payload: list) -> Problem:
    name, constraints = payload
    decoded = []
    for relation, constant, terms in constraints:
        expr = LinearExpr(
            {Variable(n, kind): coeff for n, kind, coeff in terms},
            constant,
        )
        decoded.append(Constraint(expr, Relation(relation)))
    return Problem(decoded, name)


def encode_value(value) -> str | None:
    """A cached value as tagged JSON, or None when not storable."""

    if isinstance(value, bool):
        return json.dumps(["b", value])
    if isinstance(value, Raised):
        return json.dumps(
            [
                "r",
                value.message,
                value.site,
                value.budget,
                value.limit,
                value.spent,
            ]
        )
    if isinstance(value, Problem):
        return json.dumps(["P", _encode_problem(value)])
    if isinstance(value, tuple) and len(value) == 4:
        pieces, real, exact, splintered = value
        if (
            isinstance(pieces, tuple)
            and all(isinstance(p, Problem) for p in pieces)
            and isinstance(real, Problem)
            and isinstance(exact, bool)
            and isinstance(splintered, bool)
        ):
            return json.dumps(
                [
                    "proj",
                    [_encode_problem(p) for p in pieces],
                    _encode_problem(real),
                    exact,
                    splintered,
                ]
            )
    return None


def decode_value(text: str):
    """The value a row encodes (raises on any malformed payload)."""

    payload = json.loads(text)
    tag = payload[0]
    if tag == "b":
        return bool(payload[1])
    if tag == "r":
        _, message, site, budget, limit, spent = payload
        return Raised(message, site=site, budget=budget, limit=limit, spent=spent)
    if tag == "P":
        return _decode_problem(payload[1])
    if tag == "proj":
        _, pieces, real, exact, splintered = payload
        return (
            tuple(_decode_problem(p) for p in pieces),
            _decode_problem(real),
            bool(exact),
            bool(splintered),
        )
    raise ValueError(f"unknown store value tag {tag!r}")


def key_digest(key: tuple) -> str:
    """The stable row key for a cache key tuple.

    Cache keys are tuples of strings, ints and bools (canonical key
    digests included), so ``repr`` is deterministic across processes.
    """

    return hashlib.sha256(repr(key).encode()).hexdigest()


def _checksum(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class PersistentStore:
    """A sqlite-backed second tier for :class:`SolverCache`.

    One instance is safe to share across threads (a single connection
    guarded by a lock — the workload is tiny rows, so lock granularity
    is not the bottleneck).  Multiple *processes* may open the same
    file: WAL mode plus ``busy_timeout`` serializes their commits.
    """

    def __init__(self, path, *, flush_every: int = FLUSH_EVERY):
        self.path = pathlib.Path(path)
        self.flush_every = flush_every
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.errors = 0
        self.quarantines = 0
        self.cold_resets = 0
        self.disabled = False
        self._error_streak = 0
        self._pending: dict[str, tuple[str, str, str]] = {}
        self._lock = threading.RLock()
        self._conn: sqlite3.Connection | None = None
        self._open()

    # -- connection / recovery ------------------------------------------

    def _open(self) -> None:
        try:
            self._connect()
        except sqlite3.DatabaseError:
            self._quarantine("unreadable database file on open")
            try:
                self._connect()
            except sqlite3.DatabaseError:
                self._disable("could not recreate store after quarantine")

    def _connect(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            str(self.path), timeout=5.0, check_same_thread=False
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=5000")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " key TEXT PRIMARY KEY,"
                " kind TEXT NOT NULL,"
                " value TEXT NOT NULL,"
                " checksum TEXT NOT NULL)"
            )
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('version', ?)",
                    (STORE_VERSION,),
                )
            elif row[0] != STORE_VERSION:
                # Old codec: every row is suspect.  Cold start, keep file.
                log.warning(
                    "store %s carries version %s (want %s): cold reset",
                    self.path,
                    row[0],
                    STORE_VERSION,
                )
                conn.execute("DELETE FROM entries")
                conn.execute(
                    "UPDATE meta SET value = ? WHERE key = 'version'",
                    (STORE_VERSION,),
                )
                self.cold_resets += 1
                _metrics.inc("omega.store.cold_resets")
            conn.commit()
        except sqlite3.DatabaseError:
            conn.close()
            raise
        self._conn = conn

    def _quarantine(self, reason: str) -> None:
        """Move the unreadable file aside and log the event."""

        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - close never blocks us
                pass
            self._conn = None
        target = None
        suffix = 0
        while target is None or target.exists():
            target = self.path.with_name(
                f"{self.path.name}.corrupt-{suffix}"
            )
            suffix += 1
        try:
            if self.path.exists():
                os.replace(self.path, target)
            # WAL sidecars belong to the quarantined generation.
            for side in ("-wal", "-shm"):
                sidecar = self.path.with_name(self.path.name + side)
                if sidecar.exists():
                    os.replace(
                        sidecar, target.with_name(target.name + side)
                    )
        except OSError:
            self._disable(f"could not quarantine {self.path}")
            return
        self.quarantines += 1
        _metrics.inc("omega.store.quarantines")
        log.error(
            "quarantined corrupt solver store %s -> %s (%s)",
            self.path,
            target,
            reason,
        )

    def _disable(self, reason: str) -> None:
        if not self.disabled:
            log.error("disabling solver store %s: %s", self.path, reason)
        self.disabled = True
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover
                pass
            self._conn = None

    def _strike(self, exc: Exception, during: str) -> None:
        self.errors += 1
        self._error_streak += 1
        _metrics.inc("omega.store.errors")
        log.warning("solver store %s failed during %s: %s", self.path, during, exc)
        if self._error_streak >= ERROR_DISABLE_THRESHOLD:
            self._disable(
                f"{self._error_streak} consecutive I/O errors (last: {exc})"
            )

    def _maybe_fault(self, site: str) -> None:
        """Chaos hook: a planned ``store-io-error`` surfaces as sqlite
        misbehavior at this site (caught by the caller like the real
        thing)."""

        from ..guard.faults import current_plan

        plan = current_plan()
        if plan is not None and plan.maybe_serve(site, ("store-io-error",)):
            raise sqlite3.OperationalError(f"injected store fault at {site}")

    # -- entry API -------------------------------------------------------

    def get(self, key: tuple):
        """The stored value for a cache key, or ``MISSING``.

        Never raises: corruption quarantines, I/O errors strike, and
        both read as a miss.
        """

        if self.disabled:
            return MISSING
        digest = key_digest(key)
        with self._lock:
            pending = self._pending.get(digest)
            if pending is not None:
                row = (pending[1], pending[2])
            else:
                if self._conn is None:
                    return MISSING
                try:
                    self._maybe_fault("store.get")
                    cursor = self._conn.execute(
                        "SELECT value, checksum FROM entries WHERE key = ?",
                        (digest,),
                    )
                    row = cursor.fetchone()
                except sqlite3.DatabaseError as exc:
                    self._handle_db_error(exc, "get")
                    self.misses += 1
                    _metrics.inc("omega.store.misses")
                    return MISSING
            if row is None:
                self.misses += 1
                _metrics.inc("omega.store.misses")
                return MISSING
            text, checksum = row
            if _checksum(text) != checksum:
                self._drop_row(digest, "checksum mismatch")
                self.misses += 1
                _metrics.inc("omega.store.misses")
                return MISSING
            try:
                value = decode_value(text)
            except (ValueError, TypeError, KeyError, IndexError) as exc:
                self._drop_row(digest, f"undecodable row: {exc}")
                self.misses += 1
                _metrics.inc("omega.store.misses")
                return MISSING
            self._error_streak = 0
            self.hits += 1
            _metrics.inc("omega.store.hits")
            return value

    def put(self, key: tuple, value) -> None:
        """Write-through hook: buffer a row for the next flush."""

        if self.disabled:
            return
        text = encode_value(value)
        if text is None:
            return
        digest = key_digest(key)
        with self._lock:
            self._pending[digest] = (str(key[0]), text, _checksum(text))
            self.writes += 1
            _metrics.inc("omega.store.writes")
            if len(self._pending) >= self.flush_every:
                self._flush_locked()

    def flush(self) -> None:
        """Commit every buffered row (called by serve after each request
        batch and by :meth:`close`)."""

        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if self.disabled:
            self._pending.clear()
            return
        if not self._pending or self._conn is None:
            return
        rows = [
            (digest, kind, text, checksum)
            for digest, (kind, text, checksum) in self._pending.items()
        ]
        try:
            self._maybe_fault("store.put")
            self._conn.executemany(
                "INSERT OR REPLACE INTO entries (key, kind, value, checksum)"
                " VALUES (?, ?, ?, ?)",
                rows,
            )
            self._conn.commit()
            self._pending.clear()
            self._error_streak = 0
        except sqlite3.DatabaseError as exc:
            self._handle_db_error(exc, "flush")

    def _drop_row(self, digest: str, reason: str) -> None:
        log.warning(
            "dropping bad row %s from solver store %s (%s)",
            digest[:12],
            self.path,
            reason,
        )
        _metrics.inc("omega.store.errors")
        self.errors += 1
        if self._conn is None:
            return
        try:
            self._conn.execute("DELETE FROM entries WHERE key = ?", (digest,))
            self._conn.commit()
        except sqlite3.DatabaseError as exc:
            self._handle_db_error(exc, "drop")

    def _handle_db_error(self, exc: sqlite3.DatabaseError, during: str) -> None:
        # Structural corruption sqlite itself reports → quarantine and
        # rebuild; transient operational errors (locked, I/O) → strike.
        message = str(exc).lower()
        structural = isinstance(exc, sqlite3.DatabaseError) and (
            "malformed" in message
            or "not a database" in message
            or "corrupt" in message
        )
        if structural:
            self._quarantine(f"{during}: {exc}")
            try:
                self._connect()
            except sqlite3.DatabaseError:
                self._disable("could not recreate store after quarantine")
            return
        self._strike(exc, during)

    # -- lifecycle / introspection ---------------------------------------

    def __len__(self) -> int:
        with self._lock:
            self._flush_locked()
            if self._conn is None:
                return 0
            try:
                (count,) = self._conn.execute(
                    "SELECT COUNT(*) FROM entries"
                ).fetchone()
            except sqlite3.DatabaseError:
                return 0
            return int(count)

    def close(self) -> None:
        with self._lock:
            self._flush_locked()
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:  # pragma: no cover
                    pass
                self._conn = None

    def __enter__(self) -> "PersistentStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """A plain-dict snapshot of the store counters."""

        return {
            "path": str(self.path),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "errors": self.errors,
            "quarantines": self.quarantines,
            "cold_resets": self.cold_resets,
            "disabled": self.disabled,
        }
