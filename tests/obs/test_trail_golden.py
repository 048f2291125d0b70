"""Golden trails: the explain render and the provenance JSON of every
curated program, pinned across commits.

The identity suites elsewhere compare configurations of one commit
against each other (cache on/off, governed or not).  This suite compares
the current code against files recorded from an earlier one, so a
refactor of how the engine records its per-pair decisions is proven
byte-identical, not just self-consistent.

Each (configuration, program) pair is stored as three sha256 digests in
``golden/trail_sha256.json``: the explain render, the provenance JSON,
and the provenance JSON with every record's ``queries`` counts removed.
The third pins every verdict, stage, direction and reason while letting
a change of *how* a question is answered (a solver query or an answer
the plan reads off its core) move only the query counts.  ``example1``
and ``CHOLSKY`` under the default configuration are also stored as full
text, so a failure there shows a readable diff.  Regenerate the files, only when a change is
meant to alter a trail, with::

    PYTHONPATH=src python -m tests.obs.test_trail_golden
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from functools import lru_cache

import pytest

from repro.analysis import AnalysisOptions, analyze
from repro.programs import PAPER_EXAMPLES, corpus_programs

GOLDEN = pathlib.Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "trail_sha256.json"

#: Analysis configurations the trails are pinned under.  ``terminate``
#: is the only one whose trails carry ``terminated`` decisions.
CONFIGS = {
    "default": {},
    "terminate": {"terminate": True},
    "standard": {"extended": False},
}

#: Programs whose default-configuration trails are stored in full.
FULL_TEXT = ("example1", "CHOLSKY")

VIEWS = ("explain", "provenance")

#: Every explain action the engine can take (``repro.obs.explain``).
ACTIONS = {"refined", "covers", "covered", "terminated", "killed", "kept"}


def programs() -> dict:
    """The corpus (CHOLSKY included) and all paper examples, by name."""

    found: dict = {}
    for program in corpus_programs() + [f() for f in PAPER_EXAMPLES.values()]:
        found.setdefault(program.name, program)
    return found


PROGRAMS = programs()


def run(program, config: str, *, explain=True, audit=True):
    """One analysis with the chosen observers on; returns its views.

    A view whose observer is off comes back as None.
    """

    result = analyze(
        program,
        AnalysisOptions(explain=explain, audit=audit, **CONFIGS[config]),
    )
    views = {
        "explain": result.explain.render() if explain else None,
        "provenance": (
            "".join(
                json.dumps(record.to_dict(), sort_keys=True) + "\n"
                for record in result.provenance
            )
            if audit
            else None
        ),
    }
    actions = {d.action for d in result.explain} if explain else set()
    return views, actions


@lru_cache(maxsize=None)
def observed(config: str, name: str):
    return run(PROGRAMS[name], config)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def without_queries(provenance: str) -> str:
    """The provenance JSON lines with each record's ``queries`` dropped."""

    records = (json.loads(line) for line in provenance.splitlines())
    return "".join(
        json.dumps({k: v for k, v in record.items() if k != "queries"},
                   sort_keys=True) + "\n"
        for record in records
    )


def digests(views: dict) -> dict:
    """The stored digests of one (configuration, program) pair."""

    found = {view: digest(views[view]) for view in VIEWS}
    found["provenance_without_queries"] = digest(
        without_queries(views["provenance"])
    )
    return found


def full_text_path(name: str, view: str) -> pathlib.Path:
    suffix = {"explain": "txt", "provenance": "jsonl"}
    return GOLDEN / f"{name}.{view}.{suffix[view]}"


@lru_cache(maxsize=None)
def golden_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def test_golden_covers_every_configuration_and_program():
    stored = golden_digests()
    assert set(stored) == set(CONFIGS)
    for config in CONFIGS:
        assert set(stored[config]) == set(PROGRAMS), config


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_trail_matches_golden(config, name):
    views, _ = observed(config, name)
    expected = golden_digests()[config][name]
    assert digests(views) == expected


@pytest.mark.parametrize("name", FULL_TEXT)
@pytest.mark.parametrize("view", VIEWS)
def test_full_text_matches_golden(name, view):
    views, _ = observed("default", name)
    assert views[view] == full_text_path(name, view).read_text()


def test_golden_set_covers_every_explain_action():
    seen: dict[str, set] = {}
    for config in CONFIGS:
        for name in PROGRAMS:
            _, actions = observed(config, name)
            for action in actions:
                seen.setdefault(action, set()).add(config)
    assert set(seen) == ACTIONS
    assert seen["terminated"] == {"terminate"}


#: Programs whose trails cover kills, covers, refinements, terminators
#: and the step orders a record-ordered render would get wrong.
SOLO_PROGRAMS = (
    "example1",
    "example2",
    "example7",
    "example11",
    "broadcast_shift",
)


@pytest.mark.parametrize("config", ("default", "terminate"))
@pytest.mark.parametrize("name", SOLO_PROGRAMS)
def test_each_view_is_the_same_when_its_observer_runs_alone(config, name):
    together, _ = observed(config, name)
    program = PROGRAMS[name]
    alone = {
        "explain": run(program, config, audit=False)[0],
        "provenance": run(program, config, explain=False)[0],
    }
    for view in VIEWS:
        assert alone[view][view] == together[view], view
        others = set(VIEWS) - {view}
        assert all(alone[view][other] is None for other in others)


def regenerate() -> None:
    """Rewrite every golden file from the current code."""

    GOLDEN.mkdir(exist_ok=True)
    stored: dict = {}
    for config in CONFIGS:
        stored[config] = {}
        for name in sorted(PROGRAMS):
            views, _ = observed(config, name)
            stored[config][name] = digests(views)
            if config == "default" and name in FULL_TEXT:
                for view in VIEWS:
                    full_text_path(name, view).write_text(views[view])
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
