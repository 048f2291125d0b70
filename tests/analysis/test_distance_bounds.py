"""Distance bounds read off a plan state equal the full problem's.

``direction_vectors`` narrows each sign box to the distance bounds its
plan state gives under the box, and the Section 4.4 refinement reads
each level's bounds from its root state under the levels already pinned.
Both ask ``PlanState.bounds``, which reads a separable core's interval
directly and projects any other core conjoined with the extra
constraints onto the one distance.  A core is the pair problem after
exact eliminations only (equality substitution, unit-pair
Fourier-Motzkin), so its integer projection onto the distances is the
full problem's.  These tests pin the consequence on every box and every
refinement level the analysis visits for the timing corpus, CHOLSKY,
the paper examples and fuzzed programs: the interval the search reads,
interval-answered or projected, is the interval of the full problem
conjoined with the same box (or pinned levels), inexact projections
included.  Each population must contain interval-answered reads.

The full-problem side is computed here, independently of the search: the
boxes come from the box merge, each plan state's full problem is its
pair problem conjoined with every constraint its ``extend`` chain added,
and the refinement levels come from a replay of the refinement walk on
the dependence's full problem.  Only undegraded answers are
compared: no fault plan or budget is active for these ``analyze()``
calls, and each population asserts that nothing degraded.
"""

import random

import pytest

from repro.analysis import AnalysisOptions, analyze, dependences
from repro.analysis import plan as plan_mod
from repro.analysis import refine as refine_mod
from repro.analysis import vectors
from repro.analysis.vectors import DirComponent, DirectionVector
from repro.obs import MetricsRegistry, collecting
from repro.omega import Problem, is_satisfiable, project
from repro.programs import PAPER_EXAMPLES, cholsky, timing_corpus
from tests.analysis.test_cache_determinism import random_program


class Population:
    """Checks every distance-bound projection the analysis makes."""

    def __init__(self, monkeypatch):
        self.boxes = 0
        self.levels = 0
        self.inexact = 0
        #: Reads the state answered from its intervals.
        self.interval_reads = 0
        self._registry = None
        self._frames: list[dict] = []
        #: id(state) -> (state, the full problem's constraints).
        self._full: dict[int, tuple] = {}
        self._patch(monkeypatch)

    def full_interval(self, problem, extra, delta):
        """The interval of ``problem ∧ extra`` projected onto ``delta``."""

        projection = project(
            Problem(list(problem.constraints) + list(extra)), [delta]
        )
        # A splintered projection's real shadow over-approximates it, so
        # its interval is where a different elimination path could differ.
        if not projection.single()[1]:
            self.inexact += 1
        return projection.interval(delta)

    def _patch(self, monkeypatch):
        real_bounds = plan_mod.PlanState.bounds
        real_merge = vectors._merge_boxes
        real_vectors = vectors.direction_vectors
        real_refine = refine_mod._refine
        real_base_state = plan_mod.QueryPlan.base_state
        real_extend = plan_mod.PlanState.extend

        def base_state(plan, problem, deltas):
            state = real_base_state(plan, problem, deltas)
            self._full[id(state)] = (state, list(problem.constraints))
            return state

        def extend(state, extra, drop=None):
            extra = list(extra)
            child = real_extend(state, extra, drop)
            parent = self._full.get(id(state))
            if parent is not None:
                self._full[id(child)] = (child, parent[1] + extra)
            return child

        def frame_bounds(state, extra, delta):
            answers = self._registry.counter("solver.plan.interval_answers")
            bounds = real_bounds(state, extra, delta)
            if (
                self._registry.counter("solver.plan.interval_answers")
                > answers
            ):
                self.interval_reads += 1
            self._frames[-1]["read"].append(bounds)
            return bounds

        def frame_boxes(combos, realizable):
            boxes = real_merge(combos, realizable)
            self._frames[-1]["boxes"] = boxes
            return boxes

        def run_framed(run):
            self._frames.append({"read": [], "boxes": []})
            try:
                result = run()
            finally:
                frame = self._frames.pop()
            return result, frame

        def checked_vectors(state, deltas):
            result, frame = run_framed(lambda: real_vectors(state, deltas))
            problem = Problem(self._full[id(state)][1])
            expected = [
                self.full_interval(
                    problem, DirectionVector(box).constraints(deltas), delta
                )
                for box in frame["boxes"]
                for delta in deltas
            ]
            assert frame["read"] == expected, problem
            self.boxes += len(frame["boxes"])
            return result

        def checked_refine(dep, partial):
            outcome, frame = run_framed(lambda: real_refine(dep, partial))
            assert frame["read"] == self.full_levels(dep, partial), dep.problem
            self.levels += len(frame["read"])
            return outcome

        monkeypatch.setattr(plan_mod.QueryPlan, "base_state", base_state)
        monkeypatch.setattr(plan_mod.PlanState, "extend", extend)
        monkeypatch.setattr(plan_mod.PlanState, "bounds", frame_bounds)
        monkeypatch.setattr(vectors, "_merge_boxes", frame_boxes)
        monkeypatch.setattr(dependences, "direction_vectors", checked_vectors)
        monkeypatch.setattr(refine_mod, "direction_vectors", checked_vectors)
        monkeypatch.setattr(refine_mod, "_refine", checked_refine)

    def full_levels(self, dep, partial):
        """Each level's interval in the refinement walk, replayed on the
        full problem (the walk of :func:`repro.analysis.refine._refine`)."""

        keep = refine_mod._lhs_keep(dep)
        lhs = project(dep.problem, keep)
        if not dep.deltas or not lhs.exact_union:
            return []
        fixed: list[DirComponent] = []
        intervals = []
        for delta in dep.deltas:
            pinned = DirectionVector(fixed).constraints(dep.deltas)
            lo, hi = self.full_interval(dep.problem, pinned, delta)
            intervals.append((lo, hi))
            if lo is None:
                break
            if lo == hi:
                fixed.append(DirComponent(lo, hi))
                continue
            top = lo + refine_mod._PARTIAL_WIDTH if partial else lo
            if hi is not None:
                top = min(top, hi)
            accepted = None
            for candidate_hi in range(lo, top + 1):
                candidate = DirComponent(lo, candidate_hi)
                trial = Problem(
                    list(dep.problem.constraints)
                    + pinned
                    + candidate.constraints(delta)
                )
                if is_satisfiable(trial) and refine_mod._implication_holds(
                    lhs.pieces, project(trial, keep).pieces
                ):
                    accepted = candidate
                    break
            if accepted is None:
                break
            fixed.append(accepted)
        return intervals

    def analyze_all(self, programs, options=None):
        self._registry = MetricsRegistry()
        with collecting(self._registry):
            for program in programs:
                analyze(program, options)
                self._full.clear()
        counters = self._registry.to_dict()["counters"]
        assert counters.get("guard.degradations", 0) == 0
        assert self.interval_reads > 0


@pytest.fixture
def population(monkeypatch):
    return Population(monkeypatch)


def fuzzed_programs(seed, count):
    rng = random.Random(seed)
    return [random_program(rng, index) for index in range(count)]


def test_timing_corpus(population):
    population.analyze_all(timing_corpus())
    assert population.boxes > 0
    assert population.levels > 0


def test_cholsky(population):
    population.analyze_all([cholsky()])
    assert population.boxes > 0
    assert population.levels > 0


def test_paper_examples(population):
    population.analyze_all(make() for make in PAPER_EXAMPLES.values())
    assert population.boxes > 0
    assert population.levels > 0


def test_fuzzed_programs(population):
    # The population of test_cache_determinism's fuzz test.
    population.analyze_all(fuzzed_programs(19920617, 220))
    assert population.boxes > 0
    assert population.levels > 0
    assert population.inexact > 0


def test_fuzzed_programs_with_range_refinement(population):
    population.analyze_all(
        fuzzed_programs(7, 300), AnalysisOptions(partial_refine=True)
    )
    assert population.levels > 0
    assert population.inexact > 0
