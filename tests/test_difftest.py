"""Refinement verdicts over the golden pipeline and mapping plumbing."""

import dataclasses

import pytest

from litmusdiff.difftest import (
    Verdict,
    VerdictStatus,
    check_refinement,
    derive_mapping,
    translate_outcome,
)
from litmusdiff.execution import Outcome, allowed_outcomes
from litmusdiff.lowering import Mapping, MappingError, lower_test

WEAK = Outcome.from_dict({"P1:r0": 0, "y": 2})


def test_translate_outcome(golden_mapping):
    got = translate_outcome(Outcome.from_dict({"1:W3": 0, "y": 2}),
                            golden_mapping)
    assert got == WEAK


def test_translate_rejects_double_mapping():
    mapping = Mapping({"P1:r0": "1:W3", "P1:r1": "1:W3"}, {})
    with pytest.raises(MappingError, match="sends both"):
        translate_outcome(Outcome.from_dict({"1:W3": 0}), mapping)


def test_translate_rejects_unmapped_label(golden_mapping):
    with pytest.raises(MappingError, match="no source observable"):
        translate_outcome(Outcome.from_dict({"1:W9": 0}), golden_mapping)


def test_derive_mapping_from_goldens(discard_source, compiled_w15):
    mapping = derive_mapping(discard_source, compiled_w15)
    assert mapping.observables == {"P1:r0": "1:W3", "y": "y"}
    assert mapping.locations == {"x": "x", "y": "y"}


def test_derive_mapping_misalignments(discard_source, compiled_w15):
    shifted = lower_test(discard_source)[0]
    shifted.final = compiled_w15.final.left  # drop one conjunct
    with pytest.raises(MappingError, match="structurally"):
        derive_mapping(discard_source, shifted)

    from litmusdiff.litmus import Atom, Conj

    renumbered = lower_test(discard_source)[0]
    left = renumbered.final.left
    renumbered.final = Conj(dataclasses.replace(left, value=5),
                            renumbered.final.right)
    with pytest.raises(MappingError, match="atom values"):
        derive_mapping(discard_source, renumbered)

    from litmusdiff.litmus import MemoryObservable

    crossed = lower_test(discard_source)[0]
    crossed.final = Conj(Atom(MemoryObservable("y"), 0), crossed.final.right)
    with pytest.raises(MappingError, match="register atom paired"):
        derive_mapping(discard_source, crossed)


def test_derive_mapping_through_negations(discard_source, compiled_w15):
    from litmusdiff.litmus import Neg

    negated_source = dataclasses.replace(discard_source,
                                         final=Neg(discard_source.final))
    negated_compiled = dataclasses.replace(compiled_w15,
                                           final=Neg(compiled_w15.final))
    mapping = derive_mapping(negated_source, negated_compiled)
    assert mapping.observables == {"P1:r0": "1:W3", "y": "y"}
    assert mapping.locations == {"x": "x", "y": "y"}
    with pytest.raises(MappingError, match="structurally"):
        derive_mapping(negated_source, compiled_w15)


def test_derive_mapping_conflicting_pairs(discard_source):
    import copy
    from litmusdiff.litmus import Atom, Conj, RegisterObservable

    doubled = copy.deepcopy(discard_source)
    r0 = Atom(RegisterObservable(1, "r0"), 0)
    doubled.final = Conj(r0, r0)
    compiled = lower_test(discard_source)[0]
    compiled.final = Conj(Atom(RegisterObservable(1, "W3"), 0),
                          Atom(RegisterObservable(1, "W4"), 0))
    with pytest.raises(MappingError, match="pairs with both"):
        derive_mapping(doubled, compiled)


def test_refinement_passes_on_fixed_golden(discard_source, compiled_w15,
                                           golden_mapping):
    verdict = check_refinement(discard_source, compiled_w15, golden_mapping)
    assert verdict.status is VerdictStatus.PASS
    assert verdict.exit_code == 0
    assert verdict.witnesses == ()
    assert (verdict.source_outcomes, verdict.compiled_outcomes) == (3, 3)


def test_refinement_flags_buggy_golden(discard_source, compiled_wzr,
                                       golden_mapping):
    verdict = check_refinement(discard_source, compiled_wzr, golden_mapping)
    assert verdict.status is VerdictStatus.BUG
    assert verdict.exit_code == 1
    assert verdict.witnesses == (WEAK,)
    assert (verdict.source_outcomes, verdict.compiled_outcomes) == (3, 4)
    # the witness really is compiled behaviour outside the source set
    source_set = allowed_outcomes(discard_source, "c11").outcomes
    assert WEAK not in source_set


def test_refinement_with_derived_mapping(discard_source, compiled_wzr):
    verdict = check_refinement(discard_source, compiled_wzr)
    assert verdict.status is VerdictStatus.BUG
    assert verdict.witnesses == (WEAK,)


def test_refinement_under_legacy_model(discard_source, compiled_wzr):
    verdict = check_refinement(discard_source, compiled_wzr,
                               legacy_zero_register=True)
    assert verdict.status is VerdictStatus.PASS


def test_self_refinement(discard_source):
    compiled, mapping = lower_test(discard_source)
    assert check_refinement(discard_source, compiled,
                            mapping).status is VerdictStatus.PASS


def test_error_on_swapped_arguments(discard_source, compiled_w15):
    verdict = check_refinement(compiled_w15, discard_source)
    assert verdict.status is VerdictStatus.ERROR
    assert verdict.exit_code == 2
    assert "source test first" in verdict.diagnostic


def test_error_on_candidate_limit(discard_source, compiled_w15):
    verdict = check_refinement(discard_source, compiled_w15,
                               max_candidates=2)
    assert verdict.status is VerdictStatus.ERROR
    assert "limit" in verdict.diagnostic


def test_error_on_incomplete_mapping(discard_source, compiled_w15):
    mapping = Mapping({"y": "y"}, {"x": "x", "y": "y"})
    verdict = check_refinement(discard_source, compiled_w15, mapping)
    assert verdict.status is VerdictStatus.ERROR
    assert "no entry for 'P1:r0'" in verdict.diagnostic


def test_error_on_mapping_to_wrong_labels(discard_source, compiled_w15):
    mapping = Mapping({"P1:r0": "1:W15", "x": "x", "y": "y"},
                      {"x": "x", "y": "y"})
    verdict = check_refinement(discard_source, compiled_w15, mapping)
    assert verdict.status is VerdictStatus.ERROR
    assert "1:W3" in verdict.diagnostic


@pytest.mark.parametrize("observables, pair", [
    ({"P1:r0": "y", "y": "1:W3"}, "register 'P1:r0' with memory location 'y'"),
    ({"P1:r0": "1:W3", "y": "1:W3"},
     "memory location 'y' with register '1:W3'"),
], ids=["register-to-memory", "memory-to-register"])
def test_error_on_mapping_across_registers_and_memory(
        discard_source, compiled_w15, observables, pair):
    # Without the check the first mapping reads as a bug with the witnesses
    # P1:r0=1; y=0; and P1:r0=2; y=1;.  derive_mapping refuses such a
    # pairing, and so does an explicit mapping.
    mapping = Mapping(observables, {"x": "x", "y": "y"})
    verdict = check_refinement(discard_source, compiled_w15, mapping)
    assert verdict.status is VerdictStatus.ERROR
    assert verdict.diagnostic == f"mapping pairs {pair}"


def test_verdict_json_shapes():
    bug = Verdict(VerdictStatus.BUG, (WEAK,), 3, 4)
    assert bug.to_json_dict() == {
        "status": "bug",
        "witnesses": [{"P1:r0": 0, "y": 2}],
        "source_outcomes": 3,
        "compiled_outcomes": 4,
    }
    error = Verdict(VerdictStatus.ERROR, diagnostic="boom")
    assert error.to_json_dict() == {"status": "error", "diagnostic": "boom"}
