"""The reader and ``validate_test`` against their references in
``tests/reference_reader.py``; the random tests of
``tests/test_properties.py`` take the reader law in its round-trip law."""

from pathlib import Path

import pytest

import support
from litmusdiff import golden_path
from litmusdiff.lowering import dead_register_pass, lower_test
from litmusdiff.syntax import parse_litmus, render_litmus

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"

# Valid input: the goldens, the 18 benchmark inputs, and the corpus with
# its lowerings and rewrites.  Malformed input: every text one edit away
# from a golden, an input or a sampled corpus text: 92,422 texts (44,963
# from the 21 files), of which 87,023 are refused.  Programmatic tests:
# each statement of the same texts with one field set to None, out of range,
# to a bad name or to a value of the wrong type: 34,297.
READER_FILES = [*sorted(golden_path("").glob("*.litmus")),
                *sorted(INPUTS.glob("*/*.litmus"))]


def printed_corpus(corpus, step=1):
    """Every ``step``-th corpus test, its lowering and its dead-register
    rewrite, printed."""
    for test in corpus[::step]:
        compiled, _ = lower_test(test)
        for subject in (test, compiled, dead_register_pass(compiled)):
            yield render_litmus(subject)


@pytest.mark.parametrize("path", READER_FILES, ids=lambda path: path.name)
def test_reader_equals_the_reference(path):
    support.check_reader_law(path.read_text())


def test_reader_equals_the_reference_across_corpus(corpus):
    for text in printed_corpus(corpus):
        support.check_reader_law(text)


@pytest.mark.parametrize("path", READER_FILES, ids=lambda path: path.name)
def test_malformed_input_fails_as_in_the_reference(path):
    read, refused = support.check_malformed_reader_law(path.read_text())
    assert 0 < refused < read


def test_malformed_corpus_input_fails_as_in_the_reference(corpus):
    for text in printed_corpus(corpus, step=27):
        read, refused = support.check_malformed_reader_law(text)
        assert 0 < refused < read


@pytest.mark.parametrize("path", READER_FILES, ids=lambda path: path.name)
def test_validation_equals_the_reference_on_statement_mutants(path):
    assert support.check_validation_law(parse_litmus(path.read_text())) > 0


def test_validation_equals_the_reference_on_corpus_mutants(corpus):
    for text in printed_corpus(corpus, step=27):
        support.check_validation_law(parse_litmus(text))


@pytest.mark.parametrize("path", READER_FILES, ids=lambda path: path.name)
def test_malformed_statements_fail_cleanly(path):
    checked, accepted = support.check_malformed_statement_law(
        parse_litmus(path.read_text()))
    assert 0 < accepted < checked




# ``\d`` takes any Unicode decimal digit, so these names are registers in
# the reader as in the reference (the exists clause reads none of them).
def test_registers_with_non_ascii_digits_read_as_in_the_reference():
    source = golden_path("mp-xchg-discard.litmus").read_text()
    asm = golden_path("mp-xchg-discard-compiled-w15.litmus").read_text()
    extra_load = "  int r\u0661 = atomic_load_explicit(y, memory_order_relaxed);\n"
    for text, name in (
            (source.replace("  int r0", extra_load + "  int r0"), "r\u0661"),
            (asm.replace("W15", "W1\u0665"), "W1\u0665"),
            (asm.replace("X0", "X\u0660"), "X\u0660")):
        support.check_reader_law(text)
        assert name in render_litmus(parse_litmus(text))
