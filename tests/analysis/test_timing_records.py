"""Timing records (``AnalysisOptions(record_timings=True)``).

The Figure 6/7 reproductions read one :class:`PairRecord` per (write,
read) array pair and one :class:`KillTiming` per kill attempt.  These
tests pin their order (read-major, writes in program order within a
read), the link between a kill timing and its pair's record, and every
categorical field over the timing corpus and CHOLSKY, so a change of how
the engine collects them cannot reorder or reclassify them.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

from repro.analysis import AnalysisOptions, analyze
from repro.programs import corpus_programs

#: sha256 of :func:`categorical` over the corpus.
CATEGORICAL_SHA256 = (
    "02bb9a3b2cc2bf44efa1affe2ae82552c73744075d84f2752729b6fc422b38b5"
)


@lru_cache(maxsize=None)
def timed() -> tuple:
    """(program, result) for the corpus (CHOLSKY included)."""

    return tuple(
        (program, analyze(program, AnalysisOptions(record_timings=True)))
        for program in corpus_programs()
    )


def categorical(results) -> str:
    """Every record's categorical fields, as canonical JSON."""

    return json.dumps(
        [
            [
                program.name,
                [
                    [str(r.src), str(r.dst), r.category.value,
                     r.dependence_count]
                    for r in result.pair_records
                ],
                [
                    [str(k.victim_src), str(k.killer_src), str(k.dst),
                     k.used_omega, k.killed]
                    for k in result.kill_timings
                ],
            ]
            for program, result in results
        ]
    )


def test_corpus_includes_cholsky_and_kill_attempts():
    names = {program.name for program, _ in timed()}
    assert "CHOLSKY" in names
    assert any(result.kill_timings for _, result in timed())


def test_pair_records_are_read_major():
    for program, result in timed():
        expected = [
            (write, read)
            for read in program.reads()
            for write in program.writes()
            if write.array == read.array
        ]
        found = [(r.src, r.dst) for r in result.pair_records]
        assert len(found) == len(expected), program.name
        assert all(
            src is write and dst is read
            for (src, dst), (write, read) in zip(found, expected)
        ), program.name


def test_kill_generation_time_is_its_pairs_extended_time():
    for program, result in timed():
        extended = {
            (id(r.src), id(r.dst)): r.extended_time
            for r in result.pair_records
        }
        for timing in result.kill_timings:
            key = (id(timing.victim_src), id(timing.dst))
            assert timing.generation_time == extended[key], program.name


def test_categorical_fields_are_pinned():
    text = categorical(timed())
    assert hashlib.sha256(text.encode()).hexdigest() == CATEGORICAL_SHA256
