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
from .execution import MODEL_AARCH64, MODEL_C11, Outcome, Search, allowed_outcomes
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


def translate_outcome(outcome: Outcome, labels: dict[str, str]) -> Outcome:
    """Rewrite a compiled outcome into source vocabulary through ``labels``,
    the compiled-to-source label map that ``_check_mapping`` returns."""
    return Outcome(tuple(sorted([(labels[label], value)
                                 for label, value in outcome.items])))


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


def _check_mapping(source: LitmusTest, compiled: LitmusTest,
                   mapping: Mapping) -> dict[str, str]:
    """Check ``mapping`` against both exists clauses and return the map from
    each compiled observable's label to the source label it stands for.
    Every source observable has an entry of its own kind, register or
    memory, as ``derive_mapping`` pairs them; no two entries share a
    compiled label; the compiled labels read back as the source ones; and
    each location pair, from ``locations``, from a memory observable's
    entry or by name, joins locations that both tests declare and that
    start from the same value."""
    kinds = {True: "memory location", False: "register"}
    ours, theirs = ({observable_label(obs, test.dialect):
                     isinstance(obs, MemoryObservable)
                     for obs in condition_observables(test.final)}
                    for test in (source, compiled))
    for label, memory in ours.items():
        if label not in mapping.observables:
            raise MappingError(f"mapping has no entry for {label!r}")
        asm_label = mapping.observables[label]
        if theirs.get(asm_label, memory) != memory:
            raise MappingError(
                f"mapping pairs {kinds[memory]} {label!r} with "
                f"{kinds[not memory]} {asm_label!r}")
    inverted: dict[str, str] = {}
    for label, asm_label in mapping.observables.items():
        first = inverted.setdefault(asm_label, label)
        if first != label:
            raise MappingError(f"mapping sends both {first!r} and {label!r} "
                               f"to {asm_label!r}")
    unmapped = sorted(theirs.keys() - inverted.keys())
    if unmapped:
        raise MappingError(f"no source observable maps to {unmapped[0]!r}")
    labels = {asm_label: inverted[asm_label] for asm_label in theirs}
    if set(labels.values()) != ours.keys():
        raise MappingError("translated outcomes do not range over the "
                           "source observables; check the mapping")
    pairs = [*mapping.locations.items()]
    pairs += [(label, mapping.observables[label])
              for label, memory in ours.items() if memory]
    # A source location with no entry in ``locations`` pairs with the
    # compiled location of its name, if there is one, as in derive_mapping.
    pairs += [(loc, loc) for loc in source.locations
              if loc not in mapping.locations and loc in compiled.locations]
    for loc, asm_loc in pairs:
        if loc not in source.locations:
            raise MappingError(f"mapping pairs location {loc!r}, which the "
                               "source test does not declare")
        if asm_loc not in compiled.locations:
            raise MappingError(f"mapping pairs location {loc!r} with "
                               f"{asm_loc!r}, which the compiled test does "
                               "not declare")
        start, asm_start = source.locations[loc], compiled.locations[asm_loc]
        if start != asm_start:
            raise MappingError(
                f"mapping pairs location {loc!r}, initially {start}, with "
                f"{asm_loc!r}, initially {asm_start}")
    return labels


def check_refinement(
    source: LitmusTest,
    compiled: LitmusTest,
    mapping: Mapping | None = None,
    *,
    max_candidates: int | None = None,
    legacy_zero_register: bool = False,
) -> Verdict:
    """Compare outcome sets; compiled behaviour outside the source set is a
    bug witness.  Infrastructure failures, a bad mapping first, come back
    as an error verdict rather than an exception.  The compiled graph's
    search is shared from the source graph's (``Search.share``): where the
    graphs correspond, as a test and its lowering do, the source classes
    are listed once and both models check the same groups of choices, so
    each choice's rows are built once for both sides."""
    try:
        if source.dialect is not Dialect.SOURCE:
            raise LitmusError("refinement check needs a source test first")
        if compiled.dialect is not Dialect.ASM:
            raise LitmusError("refinement check needs an asm test second")
        if mapping is None:
            mapping = derive_mapping(source, compiled)
        labels = _check_mapping(source, compiled, mapping)
        # build_events is read off its module, where per-layer tracing
        # wraps it, as for the calls allowed_outcomes makes.
        search = Search(execution.build_events(source), max_candidates)
        compiled_search = search.share(execution.build_events(compiled),
                                       mapping.observables)
        source_set = allowed_outcomes(source, MODEL_C11, search=search)
        compiled_set = allowed_outcomes(compiled, MODEL_AARCH64,
                                        legacy_zero_register=legacy_zero_register,
                                        search=compiled_search)
        translated = {translate_outcome(o, labels)
                      for o in compiled_set.outcomes}
        witnesses = tuple(sorted(translated - source_set.outcomes))
    except LitmusError as exc:
        return Verdict(VerdictStatus.ERROR, diagnostic=str(exc))
    status = VerdictStatus.BUG if witnesses else VerdictStatus.PASS
    return Verdict(status, witnesses,
                   len(source_set.outcomes), len(compiled_set.outcomes))
