"""The original ``canonicalize_problems``, kept as a test oracle.

``canonicalize_problems`` builds its fingerprints inline, sorts without a
signature table and builds the ``__c{i}`` renaming only when a caller
reads it.  None of that may change its output: the same keys, kinds,
indices, statuses and renaming.  This module keeps the straightforward
implementation those optimizations replaced, eager renaming included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.omega.constraints import Constraint, NormalizeStatus, Problem
from repro.omega.terms import Variable

_UNSAT_KEY: tuple = ("UNSAT",)


@dataclass
class ReferenceCanonical:
    """What the original joint canonical form carried."""

    keys: tuple[tuple, ...]
    kinds: tuple[str, ...]
    rename: dict[Variable, Variable]
    indices: dict[Variable, int]
    statuses: tuple[NormalizeStatus, ...]

    @property
    def key(self) -> tuple:
        return (self.keys, self.kinds)

    def narrow(self, index: int) -> "ReferenceSingle":
        return ReferenceSingle(
            (self.keys[index], self.kinds),
            self.rename,
            self.indices,
            self.statuses[index],
        )


@dataclass
class ReferenceSingle:
    """What the original single-problem canonical form carried."""

    key: tuple
    rename: dict[Variable, Variable]
    indices: dict[Variable, int]
    status: NormalizeStatus


def _skeleton(constraint: Constraint, tag: int) -> tuple:
    return (
        tag,
        0 if constraint.is_equality else 1,
        constraint.expr.constant,
        tuple(
            sorted(
                (v.kind, coeff) for v, coeff in constraint.expr.terms.items()
            )
        ),
    )


def reference_canonicalize(problems: Sequence[Problem]) -> ReferenceCanonical:
    """Canonicalize ``problems`` exactly as the original implementation did."""

    normalized: list[tuple[list[Constraint], NormalizeStatus]] = []
    for problem in problems:
        norm, status = problem.normalized()
        if status is NormalizeStatus.UNSATISFIABLE:
            normalized.append(([], status))
        else:
            normalized.append((norm.constraints, status))

    occurrences: dict[Variable, list[tuple]] = {}
    for tag, (constraints, _status) in enumerate(normalized):
        for constraint in constraints:
            fingerprint = _skeleton(constraint, tag)
            for var, coeff in constraint.expr.terms.items():
                occurrences.setdefault(var, []).append((fingerprint, coeff))

    signatures = {
        var: (var.kind, tuple(sorted(found)))
        for var, found in occurrences.items()
    }
    ordered = sorted(
        occurrences, key=lambda v: (signatures[v], v.kind, v.name)
    )
    indices = {var: position for position, var in enumerate(ordered)}
    rename = {
        var: Variable(f"__c{position}", var.kind)
        for var, position in indices.items()
    }
    kinds = tuple(var.kind for var in ordered)

    keys: list[tuple] = []
    for constraints, status in normalized:
        if status is NormalizeStatus.UNSATISFIABLE:
            keys.append(_UNSAT_KEY)
            continue
        entries = []
        for constraint in constraints:
            terms = tuple(
                sorted(
                    (indices[v], coeff)
                    for v, coeff in constraint.expr.terms.items()
                )
            )
            entries.append(
                (
                    0 if constraint.is_equality else 1,
                    terms,
                    constraint.expr.constant,
                )
            )
        keys.append(tuple(sorted(entries)))

    return ReferenceCanonical(
        tuple(keys),
        kinds,
        rename,
        indices,
        tuple(status for _constraints, status in normalized),
    )
