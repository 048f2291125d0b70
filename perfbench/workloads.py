"""The three closed-loop workloads.

Each workload is one caller that waits for every answer before sending
the next.  A workload owns its inputs (built by :meth:`Workload.setup`
from the seed), runs one op by index (:meth:`Workload.run`), reduces an
op's output to a comparable answer (:meth:`Workload.answer`) and checks
one pass of outputs against ground truth (:meth:`Workload.verify`).

Calls into the program under test go through module attributes
(``_engine.analyze``, ``_solve.is_satisfiable``, ...) so the traced run's
wrappers (:mod:`perfbench.layers`) see them.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import pathlib
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.analysis import analyze, build_pair_problem
from repro.analysis import engine as _engine
from repro.ir import parse
from repro.reporting import result_to_dict
from repro.serve import app as _app

from . import generators, oracle

# ``repro.omega`` re-exports functions named like these modules.
_gist = importlib.import_module("repro.omega.gist")
_project = importlib.import_module("repro.omega.project")
_solve = importlib.import_module("repro.omega.solve")


@dataclass
class Verdict:
    """The ground-truth outcome of one pass."""

    #: Op indices whose answer is wrong (or missing).
    bad: set[int] = field(default_factory=set)
    #: Live flow dependences reported, summed over the workload's programs.
    live_flow_pairs: int = 0
    #: One line per problem found, for the report.
    notes: list[str] = field(default_factory=list)


class Workload:
    """Base class: one named workload over seeded inputs."""

    name = ""

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed
        self.workdir = workdir

    @property
    def ops_per_pass(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        """Build every input from the seed (timed as ``setup_s``)."""

    def begin_pass(self) -> None:
        """Untimed per-pass preparation."""

    def end_pass(self) -> None:
        """Untimed per-pass teardown."""

    def run(self, index: int):
        raise NotImplementedError

    def answer(self, index: int, output):
        """A small, comparable digest of one op's output."""

        raise NotImplementedError

    def verify(self, outputs: list) -> Verdict:
        raise NotImplementedError


def _dependence_digest(result) -> tuple:
    return tuple(
        (
            dep.kind.value,
            str(dep.src),
            str(dep.dst),
            dep.status.value,
            tuple(str(vector) for vector in dep.directions),
        )
        for dep in result.all_dependences()
    )


class PaperAnalyze(Workload):
    """``analyze(program)`` with default options over the timing corpus."""

    name = "paper_analyze"

    def setup(self) -> None:
        self.programs = generators.paper_programs(self.seed)

    @property
    def ops_per_pass(self) -> int:
        return len(self.programs)

    def run(self, index: int):
        return _engine.analyze(self.programs[index])

    def answer(self, index: int, output):
        return _dependence_digest(output)

    def verify(self, outputs: list) -> Verdict:
        verdict = Verdict()
        for index, result in enumerate(outputs):
            if result is None:
                verdict.bad.add(index)
                continue
            misses = oracle.missed_flows(result)
            if misses:
                verdict.bad.add(index)
                verdict.notes.extend(misses)
            verdict.live_flow_pairs += len(result.live_flow())
        return verdict


@dataclass
class _PairInput:
    program: object
    write: object
    read: object
    full: object
    deltas: tuple
    coupling: object
    domain: object


class OmegaPairs(Workload):
    """sat, project and gist on every (write, read) pair of seeded nests.

    No solver cache or service is active: the Omega primitives are
    called directly.
    """

    name = "omega_pairs"

    def setup(self) -> None:
        self.pairs: list[_PairInput] = []
        for name, text in generators.omega_nests(self.seed):
            program = parse(text, name)
            for array in sorted({access.array for access in program.accesses()}):
                accesses = [a for a in program.accesses() if a.array == array]
                writes = [a for a in accesses if a.is_write]
                reads = [a for a in accesses if not a.is_write]
                for write in writes:
                    for read in reads:
                        pair = build_pair_problem(write, read)
                        self.pairs.append(
                            _PairInput(
                                program,
                                write,
                                read,
                                pair.full(),
                                pair.delta_vars,
                                pair.coupling,
                                pair.domain,
                            )
                        )

    @property
    def ops_per_pass(self) -> int:
        return len(self.pairs)

    def run(self, index: int):
        pair = self.pairs[index]
        satisfiable = _solve.is_satisfiable(pair.full)
        projection = _project.project(pair.full, pair.deltas)
        simplified = _gist.gist(pair.coupling, pair.domain)
        return satisfiable, projection, simplified

    def answer(self, index: int, output):
        satisfiable, projection, simplified = output
        return (
            satisfiable,
            len(projection.pieces),
            projection.exact_union,
            len(simplified.constraints),
        )

    def verify(self, outputs: list) -> Verdict:
        """Every pair with a memory-based flow must have been answered
        satisfiable.

        ``live_flow_pairs`` counts the pairs answered satisfiable: the
        flow dependences the Omega test reports before kill analysis (a
        default ``analyze()`` of these nests takes minutes, too long for
        a check).  The test is exact, so at a correct commit the count is
        a fixed property of the nests: a higher count is a lost proof of
        independence, and a lower one is a wrong unsat answer, which the
        interpreter check catches whenever the flow shows at
        :data:`oracle.NEST_BINDINGS`.
        """

        verdict = Verdict()
        by_program: dict[int, dict] = {}
        index_of: dict[tuple, int] = {}
        for index, (pair, output) in enumerate(zip(self.pairs, outputs)):
            answers = by_program.setdefault(id(pair.program), {})
            index_of[(pair.write, pair.read)] = index
            if output is None:
                verdict.bad.add(index)
                continue
            answers[(pair.write, pair.read)] = output[0]
            verdict.live_flow_pairs += bool(output[0])
        programs = {id(pair.program): pair.program for pair in self.pairs}
        for key, program in programs.items():
            for write, read in oracle.unsat_memory_pairs(program, by_program[key]):
                verdict.bad.add(index_of[(write, read)])
                verdict.notes.append(
                    f"{program.name}: {write} -> {read} flows but was unsat"
                )
        return verdict


def _comparable(result_dict: dict) -> dict:
    """A result dict without the field governed and ungoverned runs
    spell differently (an empty degradation log vs none)."""

    return {k: v for k, v in result_dict.items() if k != "degradations"}


class ServeEdits(Workload):
    """One in-process client of ``ServeApp.handle`` over a sqlite store.

    Every pass starts from an empty store in a fresh directory, so all
    passes do the same cold, warm and restart work.
    """

    name = "serve_edits"

    def setup(self) -> None:
        self.ops = generators.serve_stream(self.seed)
        self.payloads = [
            json.dumps(
                {"op": "analyze", "name": op.name, "program": op.text}
            ).encode()
            for op in self.ops
        ]
        # App and store construction belong to set-up as well.
        self.begin_pass()
        self.end_pass()

    @property
    def ops_per_pass(self) -> int:
        return len(self.ops)

    def _open(self) -> None:
        self.app = _app.ServeApp(store_path=self.directory / "solver.db")

    def begin_pass(self) -> None:
        self.directory = pathlib.Path(tempfile.mkdtemp(dir=self.workdir))
        self._open()

    def end_pass(self) -> None:
        self.app.close()
        shutil.rmtree(self.directory)

    def run(self, index: int):
        if self.ops[index].kind == "restart":
            self.app.close()
            self._open()
        _status, envelope = self.app.handle(self.payloads[index])
        return envelope

    def answer(self, index: int, output):
        digest = hashlib.sha256(
            json.dumps(output.get("result"), sort_keys=True).encode()
        ).hexdigest()
        return output["status"], digest

    def verify(self, outputs: list) -> Verdict:
        verdict = Verdict()
        expected: dict[tuple[str, str], dict] = {}
        missed: set[tuple[str, str]] = set()
        counted: set[tuple[str, str]] = set()
        for index, (op, envelope) in enumerate(zip(self.ops, outputs)):
            status = envelope["status"] if envelope is not None else "missing"
            if status not in ("ok", "degraded"):
                verdict.bad.add(index)
                verdict.notes.append(f"op {index} ({op.kind} {op.name}): {status}")
                continue
            key = (op.name, op.text)
            if key not in expected:
                direct = analyze(parse(op.text, op.name))
                expected[key] = _comparable(result_to_dict(direct))
                misses = oracle.missed_flows(direct)
                if misses:
                    missed.add(key)
                    verdict.notes.extend(misses)
            answer = envelope["result"]
            if key in missed or (
                status == "ok" and _comparable(answer) != expected[key]
            ):
                verdict.bad.add(index)
                verdict.notes.append(
                    f"op {index} ({op.kind} {op.name}): wrong answer"
                )
                continue
            if key not in counted:
                counted.add(key)
                verdict.live_flow_pairs += sum(
                    1 for dep in answer["flow"] if dep["status"] == "live"
                )
        return verdict


WORKLOADS = {
    workload.name: workload for workload in (PaperAnalyze, OmegaPairs, ServeEdits)
}
