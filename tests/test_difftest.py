"""Refinement verdicts over the golden pipeline and mapping plumbing."""

import dataclasses
from pathlib import Path

import pytest

import support
from litmusdiff import cli, difftest, execution, golden_path
from litmusdiff.difftest import (
    Verdict,
    VerdictStatus,
    check_refinement,
    derive_mapping,
)
from litmusdiff.execution import Outcome, allowed_outcomes
from litmusdiff.litmus import Atom, Conj, MemoryObservable
from litmusdiff.lowering import Mapping, MappingError, lower_test
from litmusdiff.syntax import parse_litmus

WEAK = Outcome.from_dict({"P1:r0": 0, "y": 2})


def read_golden(name):
    return golden_path(name).read_text()


W15 = read_golden("mp-xchg-discard-compiled-w15.litmus")
WZR = read_golden("mp-xchg-discard-compiled-wzr.litmus")
GOLDEN = {"P1:r0": "1:W3", "x": "x", "y": "y"}
LOCATIONS = {"x": "x", "y": "y"}
# The w15 file with its condition on the exchange's result, which holds
# the value the SWPL read from y, in place of the load's.
OTHER_REGISTER = W15.replace("exists (1:W3 = 0", "exists (1:W15 = 0")


def test_translate_outcome(discard_source):
    # The compiled witness 1:W3=0; a=2; reads back in source labels as
    # P1:r0=0; y=2;, where the compiled test calls y a.
    renamed = parse_litmus(WZR.replace("y = 0;", "a = 0;")
                           .replace("= y;", "= a;").replace("y = 2)", "a = 2)"))
    mapping = Mapping({"P1:r0": "1:W3", "y": "a"}, {"x": "x", "y": "a"})
    assert check_refinement(discard_source, renamed, mapping) == Verdict(
        VerdictStatus.BUG, (WEAK,), 3, 4)


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


GOLDEN_PAIRS = [(name, legacy) for name in ("w15", "wzr")
                for legacy in (False, True)]
GOLDEN_IDS = [f"{name}-{'legacy' if legacy else 'arm'}"
              for name, legacy in GOLDEN_PAIRS]


@pytest.mark.parametrize("name, legacy", GOLDEN_PAIRS, ids=GOLDEN_IDS)
def test_golden_pair_shares_one_listing(discard_source, golden_mapping,
                                        name, legacy):
    compiled = parse_litmus(read_golden(f"mp-xchg-discard-compiled-{name}.litmus"))
    support.check_mapping_law(discard_source, compiled, golden_mapping)
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


# Compiled files whose event graph does not correspond to the golden
# source's, each with its mapping and the verdict it gives under both
# zero-register readings.  The fence comes last, so only the event count
# tells the graphs apart; renaming x reorders the locations.
NOT_CORRESPONDING = {
    "extra-dmb": (W15.replace("  LDR W3, [X0]\n", "  LDR W3, [X0]\n  DMB ISH\n"),
                  GOLDEN, LOCATIONS, (3, 3)),
    "renamed-x": (W15.replace("x = 0; y = 0;", "y = 0; z = 0;")
                  .replace("= x;", "= z;"),
                  {"P1:r0": "1:W3", "x": "z", "y": "y"}, {"x": "z", "y": "y"},
                  (3, 3)),
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


INIT_X = W15.replace("x = 0; y = 0;", "x = 1; y = 0;")
INIT_A = W15.replace("x = 0; y = 0;", "x = 0; a = 1;").replace(
    "= y;", "= a;").replace("y = 2)", "a = 2)")
# Every diagnostic of the mapping check, each with the compiled file, the
# observables (None: a derived mapping) and, where they are not LOCATIONS,
# the locations that draw it.  Without the kind check the
# register-to-memory mapping reads as a bug with the witnesses P1:r0=1;
# y=0; and P1:r0=2; y=1;.
MAPPING_ERRORS = {
    "no-entry": (W15, {"y": "y"}, "mapping has no entry for 'P1:r0'"),
    "register-to-memory": (
        W15, {"P1:r0": "y", "y": "1:W3"},
        "mapping pairs register 'P1:r0' with memory location 'y'"),
    "memory-to-register": (
        W15, {"P1:r0": "1:W3", "y": "1:W3"},
        "mapping pairs memory location 'y' with register '1:W3'"),
    "double-mapping": (W15, {"P1:r0": "1:W3", "P1:r1": "1:W3", "y": "y"},
                       "mapping sends both 'P1:r0' and 'P1:r1' to '1:W3'"),
    "wrong-labels": (W15, {"P1:r0": "1:W15", "x": "x", "y": "y"},
                     "no source observable maps to '1:W3'"),
    "unmapped-label": (OTHER_REGISTER, GOLDEN,
                       "no source observable maps to '1:W15'"),
    "lost-label": (W15, {"P1:r0": "1:W3", "x": "y", "y": "z"},
                   "translated outcomes do not range over the source "
                   "observables; check the mapping"),
    "initial-value": (INIT_X, GOLDEN,
                      "mapping pairs location 'x', initially 0, with 'x', "
                      "initially 1"),
    "initial-value-derived": (INIT_X, None,
                              "mapping pairs location 'x', initially 0, "
                              "with 'x', initially 1"),
    # A mapping pairs locations by every entry of its locations, by every
    # memory observable's entry, and a source location with no entry with
    # the compiled location of its name.  Each pair must join two declared
    # locations that start from the same value.  INIT_A renames y to a,
    # which starts from 1, so only the observable's entry pairs y.
    "omitted-location": (
        INIT_X, GOLDEN,
        "mapping pairs location 'x', initially 0, with 'x', initially 1", {}),
    "undeclared-compiled-location": (
        W15, GOLDEN, "mapping pairs location 'x' with 'q', which the "
        "compiled test does not declare", {"x": "q", "nope": "y"}),
    "undeclared-source-location": (
        W15, GOLDEN, "mapping pairs location 'nope', which the source test "
        "does not declare", {"nope": "y"}),
    "observed-location": (
        INIT_A, {"P1:r0": "1:W3", "y": "a"},
        "mapping pairs location 'y', initially 0, with 'a', initially 1", {}),
}


@pytest.mark.parametrize("name", MAPPING_ERRORS)
def test_mapping_errors_come_before_the_event_graphs(discard_source, name):
    # No graph is built, so no search runs, and a mapping error wins over
    # the candidate limit, which the graphs are needed to charge.
    text, observables, diagnostic, locations = (*MAPPING_ERRORS[name],
                                                LOCATIONS)[:4]
    mapping = None if observables is None else Mapping(observables, locations)

    def build_events(test):
        raise AssertionError(f"build_events({test.name})")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(execution, "build_events", build_events)
        for limit in (None, 1):
            verdict = check_refinement(discard_source, parse_litmus(text),
                                       mapping, max_candidates=limit)
            assert verdict == Verdict(VerdictStatus.ERROR,
                                      diagnostic=diagnostic)


@pytest.mark.parametrize("legacy", [False, True], ids=["arm", "legacy"])
def test_an_omitted_location_pairs_by_name(discard_source, legacy):
    # With no locations at all, x and y pair by name: the golden pairs
    # give the sidecar's verdicts.  Where the compiled test has no
    # location of the name, the source location pairs with none, as a
    # derived mapping leaves it.
    for name in ("w15", "wzr"):
        compiled = parse_litmus(
            read_golden(f"mp-xchg-discard-compiled-{name}.litmus"))
        assert check_refinement(discard_source, compiled,
                                Mapping(GOLDEN, {}),
                                legacy_zero_register=legacy) \
            == check_refinement(discard_source, compiled,
                                Mapping(GOLDEN, LOCATIONS),
                                legacy_zero_register=legacy)
    renamed, observables, locations, counts = NOT_CORRESPONDING["renamed-x"]
    compiled = parse_litmus(renamed)
    assert derive_mapping(discard_source, compiled).locations == {"y": "y"}
    assert check_refinement(discard_source, compiled,
                            Mapping(observables, {}),
                            legacy_zero_register=legacy) \
        == Verdict(VerdictStatus.PASS, (), *counts)


@pytest.mark.parametrize("derived", [False, True], ids=["sidecar", "derived"])
def test_error_on_a_register_of_another_event(discard_source, derived):
    # The graphs agree on every table the search reads, but P1:r0 holds
    # the load of x and 1:W15 the exchange's read of y: an error verdict,
    # before any listing is made and so before the candidate limit too.
    mapping = None if derived else Mapping(
        {**GOLDEN, "P1:r0": "1:W15"}, LOCATIONS)

    def search(*args, **kwargs):
        raise AssertionError("searched")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(execution.Search, "listing", property(search))
        patch.setattr(difftest, "allowed_outcomes", search)
        for limit in (None, 1):
            verdict = check_refinement(discard_source,
                                       parse_litmus(OTHER_REGISTER), mapping,
                                       max_candidates=limit)
            assert verdict == Verdict(
                VerdictStatus.ERROR,
                diagnostic="mapping pairs 'P1:r0' with '1:W15', which takes "
                "its final value from another event")


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


def test_mapping_two_labels_to_one_is_refused_on_either_path(discard_source):
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
