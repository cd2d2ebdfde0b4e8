"""Refinement checking: does the compiled test only show behaviours the
source test already allows?

Outcome sets live in different vocabularies (source registers vs machine
registers), so compiled outcomes are translated back through an observable
mapping before comparison.  Any translated outcome missing from the source
set is a witness, and one witness makes the verdict a bug.
"""

from __future__ import annotations

import dataclasses
import enum

from . import execution
from .execution import (
    MODEL_AARCH64,
    MODEL_C11,
    Outcome,
    allowed_outcomes,
    corresponds,
    list_classes,
)
from .litmus import (
    Atom,
    Conj,
    Disj,
    Dialect,
    LitmusError,
    LitmusTest,
    MemoryObservable,
    Neg,
    condition_observables,
    observable_label,
)
from .lowering import Mapping, MappingError


class VerdictStatus(enum.Enum):
    PASS = "pass"
    BUG = "bug"
    ERROR = "error"


@dataclasses.dataclass
class Verdict:
    status: VerdictStatus
    witnesses: tuple[Outcome, ...] = ()
    source_outcomes: int | None = None
    compiled_outcomes: int | None = None
    diagnostic: str | None = None

    @property
    def exit_code(self) -> int:
        if self.status is VerdictStatus.PASS:
            return 0
        if self.status is VerdictStatus.BUG:
            return 1
        return 2

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status.value}
        if self.status is not VerdictStatus.ERROR:
            out["witnesses"] = [w.as_dict() for w in self.witnesses]
            out["source_outcomes"] = self.source_outcomes
            out["compiled_outcomes"] = self.compiled_outcomes
        if self.diagnostic is not None:
            out["diagnostic"] = self.diagnostic
        return out


def translate_outcome(outcome: Outcome, mapping: Mapping) -> Outcome:
    """Rewrite a compiled outcome into source vocabulary."""
    inverted: dict[str, str] = {}
    for source_label, asm_label in mapping.observables.items():
        if asm_label in inverted:
            raise MappingError(
                f"mapping sends both {inverted[asm_label]!r} and "
                f"{source_label!r} to {asm_label!r}")
        inverted[asm_label] = source_label
    items = []
    for asm_label, value in outcome.items:
        if asm_label not in inverted:
            raise MappingError(f"no source observable maps to {asm_label!r}")
        items.append((inverted[asm_label], value))
    return Outcome(tuple(sorted(items)))


def derive_mapping(source: LitmusTest, compiled: LitmusTest) -> Mapping:
    """Read the observable mapping off structurally aligned exists clauses.

    Works whenever the compiled test kept the shape of the source condition,
    which holds for everything this package generates.  Hand-altered
    conditions need an explicit mapping file instead.
    """
    pairs: dict[str, str] = {}

    def walk(a, b):
        if isinstance(a, Atom) and isinstance(b, Atom):
            if a.value != b.value:
                raise MappingError(
                    "final conditions do not align: atom values "
                    f"{a.value} vs {b.value}")
            src_obs, asm_obs = a.observable, b.observable
            if isinstance(src_obs, MemoryObservable) != isinstance(
                    asm_obs, MemoryObservable):
                raise MappingError(
                    "final conditions do not align: register atom paired "
                    "with memory atom")
            src_label = observable_label(src_obs, Dialect.SOURCE)
            asm_label = observable_label(asm_obs, Dialect.ASM)
            if pairs.get(src_label, asm_label) != asm_label:
                raise MappingError(
                    f"{src_label!r} pairs with both {pairs[src_label]!r} "
                    f"and {asm_label!r}")
            pairs[src_label] = asm_label
        elif isinstance(a, Neg) and isinstance(b, Neg):
            walk(a.operand, b.operand)
        elif (isinstance(a, Conj) and isinstance(b, Conj)) or (
                isinstance(a, Disj) and isinstance(b, Disj)):
            walk(a.left, b.left)
            walk(a.right, b.right)
        else:
            raise MappingError("final conditions do not align structurally")

    walk(source.final, compiled.final)
    locations = {}
    for loc in source.locations:
        mapped = pairs.get(loc, loc)
        if mapped in compiled.locations:
            locations[loc] = mapped
    return Mapping(pairs, locations)


def _check_alignment(source: LitmusTest, compiled: LitmusTest,
                     mapping: Mapping) -> None:
    """Every observable of the source condition has an entry, and none is
    paired with an observable of the compiled condition of the other kind,
    register or memory, which ``derive_mapping`` refuses too."""
    kinds = {True: "memory location", False: "register"}
    compiled_memory = {observable_label(obs, Dialect.ASM):
                       isinstance(obs, MemoryObservable)
                       for obs in condition_observables(compiled.final)}
    for obs in condition_observables(source.final):
        label = observable_label(obs, Dialect.SOURCE)
        if label not in mapping.observables:
            raise MappingError(f"mapping has no entry for {label!r}")
        memory = isinstance(obs, MemoryObservable)
        asm_label = mapping.observables[label]
        if compiled_memory.get(asm_label, memory) != memory:
            raise MappingError(
                f"mapping pairs {kinds[memory]} {label!r} with "
                f"{kinds[not memory]} {asm_label!r}")


def check_refinement(
    source: LitmusTest,
    compiled: LitmusTest,
    mapping: Mapping | None = None,
    *,
    max_candidates: int | None = None,
    legacy_zero_register: bool = False,
) -> Verdict:
    """Compare outcome sets; compiled behaviour outside the source set is a
    bug witness.  Infrastructure failures come back as an error verdict
    rather than an exception.  When the two event graphs correspond
    (``corresponds``, as a test and its lowering do), the source graph's
    outcome classes are listed once and both models check the same groups
    of choices, so each choice's rows are built once for both sides;
    otherwise each side is searched on its own."""
    try:
        if source.dialect is not Dialect.SOURCE:
            raise LitmusError("refinement check needs a source test first")
        if compiled.dialect is not Dialect.ASM:
            raise LitmusError("refinement check needs an asm test second")
        if mapping is None:
            mapping = derive_mapping(source, compiled)
        _check_alignment(source, compiled, mapping)
        # build_events is read off its module, where per-layer tracing
        # wraps it, as for the calls allowed_outcomes makes.
        graph, compiled_graph = map(execution.build_events, (source, compiled))
        listing = (list_classes(graph, max_candidates) if corresponds(
            graph, compiled_graph, mapping.observables) else None)
        source_set = allowed_outcomes(source, MODEL_C11,
                                      max_candidates=max_candidates,
                                      events=(graph, listing))
        compiled_set = allowed_outcomes(compiled, MODEL_AARCH64,
                                        max_candidates=max_candidates,
                                        legacy_zero_register=legacy_zero_register,
                                        events=(compiled_graph, listing))
        translated = {translate_outcome(o, mapping)
                      for o in compiled_set.outcomes}
        source_labels = {label for o in source_set.outcomes for label, _ in o.items}
        for o in translated:
            labels = {label for label, _ in o.items}
            if source_set.outcomes and labels != source_labels:
                raise MappingError(
                    "translated outcomes do not range over the source "
                    "observables; check the mapping")
        witnesses = tuple(sorted(translated - source_set.outcomes))
    except LitmusError as exc:
        return Verdict(VerdictStatus.ERROR, diagnostic=str(exc))
    status = VerdictStatus.BUG if witnesses else VerdictStatus.PASS
    return Verdict(status, witnesses,
                   len(source_set.outcomes), len(compiled_set.outcomes))
