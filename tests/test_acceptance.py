"""Acceptance gate.

Eight checks, one test each, run with ``pytest -v tests/test_acceptance.py``
for a pass/fail line per criterion.  Timing bounds are asserted directly;
they are generous for the fixed workloads involved.
"""

import time

import naive_oracle
import support
from interleaving_oracle import interleaving_outcomes
from litmusdiff import golden_path
from litmusdiff.cli import main
from litmusdiff.execution import (
    Outcome,
    allowed_outcomes,
    build_events,
)
from litmusdiff.lowering import lower_test
from litmusdiff.model_c11 import c11_consistent
from litmusdiff.syntax import render_litmus
from litmusdiff.testgen import GenParams, Variant, generate_mp_family

SOURCE_PATH = str(golden_path("mp-xchg-discard.litmus"))

WEAK_SOURCE = Outcome.from_dict({"P1:r0": 0, "y": 2})
WEAK_ASM = Outcome.from_dict({"1:W3": 0, "y": 2})


def test_source_model_pins_exact_outcome_set(discard_source):
    started = time.perf_counter()
    got = allowed_outcomes(discard_source, "c11").outcomes
    elapsed = time.perf_counter() - started
    assert WEAK_SOURCE not in got
    assert got == {
        Outcome.from_dict({"P1:r0": 0, "y": 1}),
        Outcome.from_dict({"P1:r0": 1, "y": 1}),
        Outcome.from_dict({"P1:r0": 1, "y": 2}),
    }
    assert got == naive_oracle.naive_final_states(discard_source,
                                                  c11_consistent)
    assert elapsed < 1.0


def test_buggy_compilation_admits_stale_read(compiled_wzr):
    started = time.perf_counter()
    got = allowed_outcomes(compiled_wzr, "aarch64").outcomes
    elapsed = time.perf_counter() - started
    assert WEAK_ASM in got
    assert elapsed < 1.0


def test_fixed_compilation_excludes_stale_read(compiled_w15, compiled_wzr):
    started = time.perf_counter()
    fixed = allowed_outcomes(compiled_w15, "aarch64").outcomes
    buggy = allowed_outcomes(compiled_wzr, "aarch64").outcomes
    elapsed = time.perf_counter() - started
    assert WEAK_ASM not in fixed
    assert buggy == fixed | {WEAK_ASM}
    assert elapsed < 1.0


def test_diff_pipeline_flags_dead_register_bug(capsys):
    code = main(["diff", SOURCE_PATH, "--auto-compile", "--dead-register"])
    out = capsys.readouterr().out
    assert code == 1
    witnesses = [l for l in out.splitlines() if l.startswith("Witness:")]
    assert witnesses == ["Witness: P1:r0=0; y=2;"]

    assert main(["diff", SOURCE_PATH, "--auto-compile"]) == 0
    capsys.readouterr()


def test_observe_variant_passes_identical_pipeline(capsys, tmp_path):
    (observe, _), = generate_mp_family(GenParams((Variant.OBSERVE,)))
    path = tmp_path / f"{observe.name}.litmus"
    path.write_text(render_litmus(observe))
    code = main(["diff", str(path), "--auto-compile", "--dead-register"])
    assert code == 0
    capsys.readouterr()


def test_legacy_model_masks_the_bug(capsys):
    code = main(["diff", SOURCE_PATH, "--auto-compile", "--dead-register",
                 "--legacy-zero-register"])
    assert code == 0
    capsys.readouterr()


def test_corpus_diffs_clean_against_unoptimized_lowering(capsys, tmp_path,
                                                         corpus):
    assert len(corpus) >= 100
    started = time.perf_counter()
    failures = []
    for test in corpus:
        path = tmp_path / f"{test.name}.litmus"
        path.write_text(render_litmus(test))
        if main(["diff", str(path), "--auto-compile"]) != 0:
            failures.append(test.name)
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert failures == []
    assert elapsed < 60.0


def test_model_laws_hold_across_corpus(corpus):
    assert len(corpus) >= 100
    for test in corpus:
        sc = interleaving_outcomes(test)
        source = support.source_outcomes(test)
        assert sc <= source, test.name
        assert sc <= support.lowered_outcomes(test), test.name
        assert support.source_outcomes(support.strengthen(test)) <= source, \
            test.name
        assert support.lowered_outcomes(test) \
            <= support.lowered_outcomes(test, dead=True), test.name

        for subject in (test, lower_test(test)[0]):
            assert len(build_events(subject).po) <= 8, subject.name
            support.check_class_law(subject)
        support.assert_outcomes_match_brute_force(test)
