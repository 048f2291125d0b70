"""The persistent store: codec fidelity and every failure-mode contract.

The store's one promise is *degrade, never die*: corruption, version
skew, I/O faults and concurrent writers must all read as cache misses
(or quarantines) while the solver keeps answering.  No test here may
observe an exception from the store API.
"""

import logging
import sqlite3
import threading

import pytest

from repro.guard import FaultPlan, injecting
from repro.omega import Problem, Variable
from repro.omega.cache import MISSING, Raised, SolverCache
from repro.omega.store import (
    ERROR_DISABLE_THRESHOLD,
    STORE_VERSION,
    PersistentStore,
    decode_value,
    encode_value,
    key_digest,
)


def small_problem(name="p"):
    return Problem(name=name).add_bounds(0, Variable("x"), 5)


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "store.db"


# -- codec -----------------------------------------------------------------


def test_bool_round_trips():
    assert decode_value(encode_value(True)) is True
    assert decode_value(encode_value(False)) is False


def test_raised_round_trips_every_field():
    raised = Raised(
        "too many splinters", site="omega.project", budget="splinters",
        limit=16, spent=17,
    )
    replayed = decode_value(encode_value(raised))
    assert isinstance(replayed, Raised)
    assert replayed.message == raised.message
    assert replayed.site == raised.site
    assert replayed.budget == raised.budget
    assert replayed.limit == raised.limit
    assert replayed.spent == raised.spent


def test_problem_round_trip_preserves_constraint_order():
    problem = (
        Problem(name="ordered")
        .add_bounds(0, Variable("x"), 5)
        .add_bounds(1, Variable("y"), 3)
    )
    replayed = decode_value(encode_value(problem))
    assert replayed.name == problem.name
    assert [str(c) for c in replayed.constraints] == [
        str(c) for c in problem.constraints
    ]


def test_projection_tuple_round_trips():
    pieces = (small_problem("a"), small_problem("b"))
    value = (pieces, small_problem("real"), True, False)
    replayed = decode_value(encode_value(value))
    assert isinstance(replayed, tuple) and len(replayed) == 4
    assert [p.name for p in replayed[0]] == ["a", "b"]
    assert replayed[1].name == "real"
    assert replayed[2] is True and replayed[3] is False


def test_unstorable_values_encode_to_none():
    assert encode_value(("not", "a", "projection")) is None
    assert encode_value(None) is None


def test_key_digest_is_stable():
    key = ("sat", "deadbeef", True, 3)
    assert key_digest(key) == key_digest(("sat", "deadbeef", True, 3))
    assert key_digest(key) != key_digest(("sat", "deadbeef", True, 4))


# -- basic persistence -----------------------------------------------------


def test_put_get_and_restart_recovery(store_path):
    key = ("sat", "k1", True)
    with PersistentStore(store_path) as store:
        store.put(key, True)
        assert store.get(key) is True  # served from the write buffer

    reopened = PersistentStore(store_path)
    try:
        assert reopened.get(key) is True
        assert reopened.hits == 1
        assert reopened.get(("sat", "other", True)) is MISSING
        assert reopened.misses == 1
    finally:
        reopened.close()


def test_len_counts_persisted_rows(store_path):
    with PersistentStore(store_path) as store:
        assert len(store) == 0
        store.put(("a",), True)
        store.put(("b",), False)
        assert len(store) == 2  # len flushes the buffer first


def test_concurrent_writers_share_one_file(tmp_path):
    path = tmp_path / "shared.db"
    first = PersistentStore(path)
    second = PersistentStore(path)
    try:
        first.put(("one",), True)
        second.put(("two",), False)
        first.flush()
        second.flush()
        assert first.get(("two",)) is False
        assert second.get(("one",)) is True
    finally:
        first.close()
        second.close()
    third = PersistentStore(path)
    try:
        assert third.get(("one",)) is True
        assert third.get(("two",)) is False
    finally:
        third.close()


def test_many_threads_one_store(store_path):
    store = PersistentStore(store_path, flush_every=4)
    failures = []

    def worker(index):
        try:
            for i in range(20):
                key = ("t", index, i)
                store.put(key, i % 2 == 0)
                assert store.get(key) == (i % 2 == 0)
        except Exception as exc:  # pragma: no cover - the assertion
            failures.append(exc)

    threads = [
        threading.Thread(target=worker, args=(n,)) for n in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    store.close()
    assert not failures
    reopened = PersistentStore(store_path)
    try:
        assert len(reopened) == 8 * 20
    finally:
        reopened.close()


# -- corruption and recovery ----------------------------------------------


def test_garbage_file_is_quarantined_with_logged_event(tmp_path, caplog):
    path = tmp_path / "garbage.db"
    path.write_bytes(b"this is not a sqlite database at all")
    with caplog.at_level(logging.ERROR, logger="repro.omega.store"):
        store = PersistentStore(path)
    try:
        assert store.quarantines == 1
        assert not store.disabled
        assert (tmp_path / "garbage.db.corrupt-0").exists()
        assert any("quarantined" in r.message for r in caplog.records)
        # The rebuilt store serves normally.
        store.put(("fresh",), True)
        assert store.get(("fresh",)) is True
    finally:
        store.close()


def test_checksum_mismatch_reads_as_miss_and_drops_row(store_path):
    key = ("sat", "victim", True)
    with PersistentStore(store_path) as store:
        store.put(key, True)

    conn = sqlite3.connect(store_path)
    conn.execute("UPDATE entries SET value = '[\"b\", false]'")
    conn.commit()
    conn.close()

    store = PersistentStore(store_path)
    try:
        assert store.get(key) is MISSING  # checksum no longer matches
        assert store.errors == 1
        assert store.get(key) is MISSING  # and the row is gone
    finally:
        store.close()


def test_undecodable_row_reads_as_miss(store_path):
    key = ("sat", "weird", True)
    with PersistentStore(store_path) as store:
        store.put(key, True)

    digest = key_digest(key)
    bad = '["unknown-tag", 1]'
    checksum = __import__("hashlib").sha256(bad.encode()).hexdigest()
    conn = sqlite3.connect(store_path)
    conn.execute(
        "UPDATE entries SET value = ?, checksum = ? WHERE key = ?",
        (bad, checksum, digest),
    )
    conn.commit()
    conn.close()

    store = PersistentStore(store_path)
    try:
        assert store.get(key) is MISSING
        assert store.errors == 1
    finally:
        store.close()


def test_version_mismatch_is_cold_start_not_crash(store_path):
    key = ("sat", "old", True)
    with PersistentStore(store_path) as store:
        store.put(key, True)

    conn = sqlite3.connect(store_path)
    conn.execute("UPDATE meta SET value = 'repro.store/0' WHERE key = 'version'")
    conn.commit()
    conn.close()

    store = PersistentStore(store_path)
    try:
        assert store.cold_resets == 1
        assert store.get(key) is MISSING  # entries were dropped
        store.put(key, True)
        store.flush()
    finally:
        store.close()
    # The rewritten version sticks: the next open is warm again.
    reopened = PersistentStore(store_path)
    try:
        assert reopened.cold_resets == 0
        assert reopened.get(key) is True
    finally:
        reopened.close()


def test_error_streak_disables_store_without_raising(store_path):
    store = PersistentStore(store_path)
    store.put(("seed",), True)
    store.flush()
    # Sabotage the connection: every operation now fails operationally.
    store._conn.close()
    for _ in range(ERROR_DISABLE_THRESHOLD):
        assert store.get(("seed",)) is MISSING
    assert store.disabled
    # Disabled store keeps honoring the API as a silent no-op.
    store.put(("after",), True)
    assert store.get(("after",)) is MISSING
    store.flush()
    store.close()
    assert store.stats()["disabled"] is True


def test_injected_store_faults_degrade_to_misses(store_path):
    plan = FaultPlan(seed=7, rate=1.0, kinds=("store-io-error",))
    store = PersistentStore(store_path)
    try:
        with injecting(plan):
            store.put(("k",), True)
            store.flush()  # flush hits the injected fault
            # The unflushed row still answers from the write buffer —
            # an injected commit failure loses durability, not data.
            assert store.get(("k",)) is True
            # A key outside the buffer must consult sqlite and take the
            # injected read fault as a plain miss.
            assert store.get(("absent",)) is MISSING
        assert store.errors >= 2
        assert plan.injected
        # Outside the plan the store recovers (unless the streak hit the
        # disable threshold, which rate=1.0 on two sites cannot reach).
        store.put(("k2",), True)
        assert store.get(("k2",)) is True
    finally:
        store.close()


# -- cache integration -----------------------------------------------------


def test_cache_promotes_store_hits_without_rewriting(store_path):
    store = PersistentStore(store_path)
    cold = SolverCache(store=store)
    key = ("sat", "shared", True)
    cold.put(key, True)
    store.flush()
    writes_after_cold = store.writes

    warm = SolverCache(store=store)  # fresh memory tier, same store
    assert warm.get(key) is True  # answered by the persistent tier
    assert store.hits == 1
    assert warm.get(key) is True  # now promoted into memory
    assert store.hits == 1  # ... so the store is not consulted again
    assert store.writes == writes_after_cold  # promotion does not rewrite
    store.close()


def test_cache_stats_carry_store_snapshot(store_path):
    store = PersistentStore(store_path)
    cache = SolverCache(store=store)
    cache.put(("sat", "x", True), True)
    snapshot = cache.stats()
    assert snapshot["store"]["writes"] == 1
    assert snapshot["store"]["path"] == str(store_path)
    store.close()


def test_cache_without_store_reports_no_store_stats():
    assert "store" not in SolverCache().stats()
