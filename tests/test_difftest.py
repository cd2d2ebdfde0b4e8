"""Refinement verdicts over the golden pipeline and mapping plumbing."""

import dataclasses
from pathlib import Path

import pytest

import support
from litmusdiff import cli, golden_path
from litmusdiff.difftest import (
    Verdict,
    VerdictStatus,
    check_refinement,
    derive_mapping,
    translate_outcome,
)
from litmusdiff.execution import Outcome, allowed_outcomes
from litmusdiff.litmus import Atom, Conj, MemoryObservable
from litmusdiff.lowering import Mapping, MappingError, lower_test
from litmusdiff.syntax import parse_litmus

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


LADDER = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "ladder"


def read_golden(name):
    return golden_path(name).read_text()


GOLDEN_PAIRS = [(name, legacy) for name in ("w15", "wzr")
                for legacy in (False, True)]
GOLDEN_IDS = [f"{name}-{'legacy' if legacy else 'arm'}"
              for name, legacy in GOLDEN_PAIRS]


@pytest.mark.parametrize("name, legacy", GOLDEN_PAIRS, ids=GOLDEN_IDS)
def test_golden_pair_shares_one_listing(discard_source, golden_mapping,
                                        name, legacy):
    compiled = parse_litmus(read_golden(f"mp-xchg-discard-compiled-{name}.litmus"))
    assert support.check_shared_search_law(
        discard_source, compiled, golden_mapping, legacy_zero_register=legacy)
    assert support.check_shared_search_law(
        discard_source, compiled, legacy_zero_register=legacy)


@pytest.mark.parametrize("name, legacy", GOLDEN_PAIRS, ids=GOLDEN_IDS)
def test_golden_pair_builds_each_choice_rows_once(discard_source,
                                                  golden_mapping, name, legacy):
    # The source graph has 4 choices over its two locations, and both
    # sides use every one: 4 rows built for both sides, where the two
    # searches build 8.
    compiled = parse_litmus(read_golden(f"mp-xchg-discard-compiled-{name}.litmus"))
    assert support.check_shared_work_law(
        discard_source, compiled, golden_mapping,
        legacy_zero_register=legacy) == (4, 8)


@pytest.mark.parametrize("name, legacy", GOLDEN_PAIRS, ids=GOLDEN_IDS)
@pytest.mark.parametrize("form", ["text", "json"])
def test_golden_diff_prints_the_same_on_either_path(capsys, name, legacy, form):
    golden = golden_path("")
    argv = ["diff", str(golden / "mp-xchg-discard.litmus"),
            str(golden / f"mp-xchg-discard-compiled-{name}.litmus"),
            "--mapping", str(golden / "mp-xchg-discard-compiled.mapping.json"),
            "--format", form]
    if legacy:
        argv.append("--legacy-zero-register")
    printed = []
    for call in (cli.main, lambda argv: support.two_search(cli.main, argv)):
        code = call(argv)
        printed.append((code, *capsys.readouterr()))
    assert printed[0] == printed[1]
    assert printed[0][0] == (1 if (name, legacy) == ("wzr", False) else 0)


W15 = read_golden("mp-xchg-discard-compiled-w15.litmus")
# Compiled files whose event graph does not correspond to the golden
# source's, each with its mapping and the verdict it gives under both
# zero-register readings.  The fence comes last, so only the event count
# tells the graphs apart; renaming x reorders the locations; a different
# init value changes an init write's value source; and a condition on the
# exchange's result in place of the load's maps P1:r0 to a register of
# another value source.
NOT_CORRESPONDING = {
    "extra-dmb": (W15.replace("  LDR W3, [X0]\n", "  LDR W3, [X0]\n  DMB ISH\n"),
                  {"P1:r0": "1:W3", "x": "x", "y": "y"}, {"x": "x", "y": "y"},
                  (3, 3)),
    "renamed-x": (W15.replace("x = 0; y = 0;", "y = 0; z = 0;")
                  .replace("= x;", "= z;"),
                  {"P1:r0": "1:W3", "x": "z", "y": "y"}, {"x": "z", "y": "y"},
                  (3, 3)),
    "init-x": (W15.replace("x = 0; y = 0;", "x = 1; y = 0;"),
               {"P1:r0": "1:W3", "x": "x", "y": "y"}, {"x": "x", "y": "y"},
               (3, 2)),
    "other-register": (W15.replace("exists (1:W3 = 0", "exists (1:W15 = 0"),
                       {"P1:r0": "1:W15", "x": "x", "y": "y"},
                       {"x": "x", "y": "y"}, (3, 2)),
}


@pytest.mark.parametrize("legacy", [False, True], ids=["arm", "legacy"])
@pytest.mark.parametrize("name", NOT_CORRESPONDING)
def test_pairs_that_do_not_correspond_take_two_searches(discard_source, name,
                                                        legacy):
    text, observables, locations, counts = NOT_CORRESPONDING[name]
    compiled, mapping = parse_litmus(text), Mapping(observables, locations)
    assert not support.check_shared_search_law(
        discard_source, compiled, mapping, legacy_zero_register=legacy)
    verdict = check_refinement(discard_source, compiled, mapping,
                               legacy_zero_register=legacy)
    assert verdict == Verdict(VerdictStatus.PASS, (), *counts)


@pytest.mark.parametrize("offset", [0, 1], ids=["at-budget", "one-below"])
def test_limit_reads_the_same_on_either_path(offset):
    source = parse_litmus(
        (LADDER / "mp-relseq-4t.litmus").read_text())
    compiled, mapping = lower_test(source)
    limit = support.budget(source) - offset
    assert support.budget(compiled) == limit + offset
    verdict = check_refinement(source, compiled, mapping,
                               max_candidates=limit)
    assert support.check_shared_search_law(source, compiled, mapping,
                                           max_candidates=limit)
    if offset:
        assert verdict == Verdict(
            VerdictStatus.ERROR,
            diagnostic=f"candidate executions exceed the limit of {limit}")
    else:
        assert verdict.status is VerdictStatus.PASS


def test_mapping_two_labels_to_one_takes_two_searches(discard_source):
    # The source classes split on both x and y, the compiled ones on y
    # alone, so the listing is not the compiled test's; the mapping is
    # refused on either path.
    x, y = Atom(MemoryObservable("x"), 1), Atom(MemoryObservable("y"), 2)
    source = dataclasses.replace(discard_source, final=Conj(x, y))
    compiled = dataclasses.replace(lower_test(discard_source)[0], final=y)
    mapping = Mapping({"x": "y", "y": "y"}, {"x": "x", "y": "y"})
    assert not support.check_shared_search_law(source, compiled, mapping)
    assert check_refinement(source, compiled, mapping) == Verdict(
        VerdictStatus.ERROR, diagnostic="mapping sends both 'x' and 'y' to 'y'")
