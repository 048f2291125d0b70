"""The planner must be invisible: planned output == per-pair output.

The single-pass query planner regroups *how* dependence questions are
answered — shared iteration-space bases, memoized partial-elimination
prefixes, a fused anti+flow traversal — but every observable output
(dependences, statuses, explain trails, audit provenance, pair ordering)
must stay byte-identical to the legacy per-pair path, across worker
counts and cache settings.  These snapshots are the acceptance bar for
the whole refactor; the fuzzed corpus guards shapes no curated example
happens to cover.
"""

import random

import pytest

from repro.analysis import AnalysisOptions, analyze, default_planner_enabled
from repro.programs import PAPER_EXAMPLES, cholsky, corpus_programs
from repro.reporting import result_to_dict

from .test_cache_determinism import random_program


def snapshot(result):
    data = result_to_dict(result)
    if result.explain is not None:
        data["explain"] = result.explain.render()
    if result.provenance:
        data["provenance_repr"] = [repr(r) for r in result.provenance]
    return data


def run(program, planner, **kwargs):
    return analyze(program, AnalysisOptions(planner=planner, **kwargs))


def fuzzed_programs(count=8):
    rng = random.Random(19920617)
    return [random_program(rng, index) for index in range(count)]


@pytest.mark.parametrize(
    "make_program",
    PAPER_EXAMPLES.values(),
    ids=[f"example{number}" for number in PAPER_EXAMPLES],
)
def test_paper_examples_identical(make_program):
    legacy = run(make_program(), False, explain=True, audit=True)
    planned = run(make_program(), True, explain=True, audit=True)
    assert snapshot(legacy) == snapshot(planned)


@pytest.mark.parametrize(
    "program", corpus_programs(), ids=lambda program: program.name
)
def test_corpus_identical(program):
    assert snapshot(run(program, False)) == snapshot(run(program, True))


@pytest.mark.parametrize(
    "program", fuzzed_programs(), ids=lambda program: program.name
)
def test_fuzzed_programs_identical_with_audit(program):
    legacy = run(program, False, audit=True, input_deps=True)
    planned = run(program, True, audit=True, input_deps=True)
    assert snapshot(legacy) == snapshot(planned)


@pytest.mark.parametrize("cache", (True, False))
def test_cholsky_identical_across_cache_settings(cache):
    options = dict(cache=cache, explain=True, audit=True)
    legacy = run(cholsky(), False, **options)
    planned = run(cholsky(), True, **options)
    assert snapshot(legacy) == snapshot(planned)


def test_planner_emits_the_memoized_graph():
    result = run(cholsky(), True)
    graph = result.graph()
    assert result.graph() is graph  # memoized, built during the traversal
    assert result.graph(live_only=False) is not graph  # kwargs rebuild


def test_governed_run_falls_back_to_the_per_pair_path():
    # Budgeted analyses degrade per-query; the planner's shared cores
    # would make degradation points nondeterministic, so governed runs
    # must take the legacy path (and still produce identical results on
    # an unlimited budget).
    program = cholsky()
    governed = analyze(
        program, AnalysisOptions(planner=True, deadline_ms=1e9)
    )
    ungoverned = analyze(program, AnalysisOptions(planner=False))
    assert result_to_dict(governed)["flow"] == result_to_dict(ungoverned)["flow"]


class TestEscapeHatch:
    def test_env_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLANNER", raising=False)
        assert default_planner_enabled()
        assert AnalysisOptions().planner

    @pytest.mark.parametrize("value", ("0", "false", "no", "off", "OFF"))
    def test_env_disables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_PLANNER", value)
        assert not default_planner_enabled()
        assert not AnalysisOptions().planner

    def test_env_other_values_keep_it_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLANNER", "1")
        assert default_planner_enabled()
