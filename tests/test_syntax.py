"""Parser and printer behavior for both dialects."""

from pathlib import Path

import pytest

from litmusdiff import golden_path
from litmusdiff.litmus import (
    Atom,
    Conj,
    Dialect,
    Disj,
    DmbDomain,
    MemoryObservable,
    MemoryOrder,
    Mnemonic,
    Neg,
    ParseError,
    RegisterObservable,
    SourceStmt,
    StmtKind,
    UnsupportedConstructError,
    ValidationError,
)
from litmusdiff.syntax import (
    MAX_CONDITION_DEPTH,
    parse_litmus,
    render_condition,
    render_litmus,
)

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
FILES = [golden_path(name) for name in (
    "mp-xchg-discard.litmus",
    "mp-xchg-discard-compiled-w15.litmus",
    "mp-xchg-discard-compiled-wzr.litmus",
)] + sorted(INPUTS.glob("*/*.litmus"))


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_golden_files_round_trip_byte_identical(path):
    text = path.read_text()
    test = parse_litmus(text)
    # three benchmark inputs spell DMB ISH by its alias SY
    assert render_litmus(test) == text.replace("DMB SY\n", "DMB ISH\n")
    assert parse_litmus(render_litmus(test)) == test


def test_canonical_reader_thread_shape(discard_source):
    stmts = discard_source.thread(1).stmts
    assert stmts == (
        SourceStmt(StmtKind.EXCHANGE, MemoryOrder.RELEASE, location="y",
                   value=2, dest=None),
        SourceStmt(StmtKind.FENCE, MemoryOrder.ACQUIRE),
        SourceStmt(StmtKind.LOAD, MemoryOrder.RELAXED, location="x",
                   dest="r0"),
    )
    assert discard_source.locations == {"x": 0, "y": 0}
    assert discard_source.final == Conj(
        Atom(RegisterObservable(1, "r0"), 0), Atom(MemoryObservable("y"), 2))


def src(body, *, init="{ x = 0; }", exists="exists (P0:r0 = 0)",
        header="P0 (atomic_int* x) {"):
    lines = ["C t", "", init, "", header]
    lines += [f"  {line}" for line in body]
    lines += ["}", "", exists, ""]
    return "\n".join(lines)


LOAD_LINE = "int r0 = atomic_load_explicit(x, memory_order_relaxed);"


def test_source_thread_header_without_params():
    test = parse_litmus(src([LOAD_LINE], header="P0 {"))
    assert test.thread(0).stmts[0].dest == "r0"


def test_threads_sorted_by_id():
    text = "\n".join([
        "C t", "",
        "{ x = 0; }", "",
        "P1 {",
        "  atomic_store_explicit(x, 1, memory_order_release);",
        "}", "",
        "P0 {",
        f"  {LOAD_LINE}",
        "}", "",
        "exists (P0:r0 = 1)", "",
    ])
    test = parse_litmus(text)
    assert [t.tid for t in test.threads] == [0, 1]


def test_exchange_forms():
    kept = parse_litmus(src(
        ["int r0 = atomic_exchange_explicit(x, 3, memory_order_acq_rel);"]))
    assert kept.thread(0).stmts[0] == SourceStmt(
        StmtKind.EXCHANGE, MemoryOrder.ACQ_REL, location="x", value=3,
        dest="r0")
    dropped = parse_litmus(src(
        ["atomic_exchange_explicit(x, 3, memory_order_seq_cst);"],
        exists="exists (x = 3)"))
    assert dropped.thread(0).stmts[0].dest is None


def test_relaxed_fence_rejected():
    with pytest.raises(ParseError, match="relaxed fence") as err:
        parse_litmus(src(["atomic_thread_fence(memory_order_relaxed);",
                          LOAD_LINE]))
    assert err.value.line == 6
    assert err.value.column == 23


def test_consume_is_unsupported():
    with pytest.raises(UnsupportedConstructError, match="consume"):
        parse_litmus(src(
            ["int r0 = atomic_load_explicit(x, memory_order_consume);"]))


def test_branches_are_unsupported():
    with pytest.raises(UnsupportedConstructError, match="branches") as err:
        parse_litmus(src(["for (int i = 0; i < 2; i++) {}", LOAD_LINE]))
    assert err.value.line == 6


def test_unknown_atomic_operation():
    with pytest.raises(UnsupportedConstructError, match="atomic_fetch_add"):
        parse_litmus(src(
            ["atomic_fetch_add(x, 1, memory_order_relaxed);", LOAD_LINE]))


def test_malformed_known_call():
    with pytest.raises(ParseError,
                       match="malformed atomic_store_explicit call"):
        parse_litmus(src(["atomic_store_explicit(x, memory_order_relaxed);",
                          LOAD_LINE]))


def test_unknown_memory_order():
    with pytest.raises(ParseError, match="unknown memory order"):
        parse_litmus(src(
            ["int r0 = atomic_load_explicit(x, memory_order_total);"]))


def test_statement_without_semicolon():
    # a known call without its semicolon gets the sharper malformed-call error
    with pytest.raises(ParseError, match="malformed atomic_load_explicit"):
        parse_litmus(src(["int r0 = atomic_load_explicit(x, memory_order_relaxed)"]))


def test_unrecognized_statement():
    with pytest.raises(ParseError, match="cannot parse statement"):
        parse_litmus(src(["r0 += 1;"]))


def test_illegal_source_order_flows_to_validation():
    with pytest.raises(ValidationError, match="load cannot use order"):
        parse_litmus(src(
            ["int r0 = atomic_load_explicit(x, memory_order_release);"]))


def test_duplicate_init_rejected():
    with pytest.raises(ParseError, match="initialized twice"):
        parse_litmus(src([LOAD_LINE], init="{ x = 0; x = 1; }"))


def test_multiline_init_block():
    text = src([LOAD_LINE], init="{\n  x = 0;\n}")
    assert parse_litmus(text).locations == {"x": 0}


def test_text_after_init_brace():
    with pytest.raises(ParseError, match="after '}'"):
        parse_litmus(src([LOAD_LINE], init="{ x = 0; } junk"))


def test_negative_init_value_flows_to_validation():
    with pytest.raises(ValidationError, match="initial value"):
        parse_litmus(src([LOAD_LINE], init="{ x = -2; }"))


def test_undeclared_parameter():
    with pytest.raises(ParseError, match="undeclared location 'y'"):
        parse_litmus(src([LOAD_LINE], header="P0 (atomic_int* y) {"))


def test_missing_exists():
    text = "C t\n\n{ x = 0; }\n\nP0 {\n  %s\n}\n" % LOAD_LINE
    with pytest.raises(ParseError, match="expected exists clause"):
        parse_litmus(text)


@pytest.mark.parametrize("path", FILES[:2], ids=lambda path: path.name)
def test_leading_byte_order_mark_is_skipped(path):
    text = path.read_text(encoding="utf-8")
    assert parse_litmus("\ufeff" + text) == parse_litmus(text)
    assert parse_litmus("\ufeff" + text.replace("\n", "\r\n")) \
        == parse_litmus(text)
    # only one: a second mark is part of the header
    with pytest.raises(ParseError, match=r"line 1, col 1: .* got '\\ufeff"):
        parse_litmus("\ufeff\ufeff" + text)


def test_header_dispatch():
    with pytest.raises(ParseError, match="empty input"):
        parse_litmus("")
    with pytest.raises(ParseError, match="'C' or 'AArch64' header"):
        parse_litmus("Foo bar\n")
    with pytest.raises(ParseError, match="expected 'C <name>' header"):
        parse_litmus("C\n")


# -- exists grammar ---------------------------------------------------------

def exists_of(text):
    return parse_litmus(src([LOAD_LINE], init="{ x = 0; y = 0; z = 0; }",
                            exists=text)).final


def test_condition_precedence():
    cond = exists_of("exists (x = 1 /\\ y = 2 \\/ z = 3)")
    assert isinstance(cond, Disj)
    assert isinstance(cond.left, Conj)
    cond = exists_of("exists ((x = 1 \\/ y = 2) /\\ z = 3)")
    assert isinstance(cond, Conj)
    assert isinstance(cond.left, Disj)


def test_condition_negation():
    cond = exists_of("exists (~x = 1 /\\ y = 2)")
    assert cond == Conj(Neg(Atom(MemoryObservable("x"), 1)),
                        Atom(MemoryObservable("y"), 2))
    nested = exists_of("exists (~(x = 1 \\/ y = 2))")
    assert isinstance(nested, Neg)
    assert isinstance(nested.operand, Disj)


def test_condition_render_parenthesizes_by_precedence():
    cond = exists_of("exists ((x = 1 \\/ y = 2) /\\ z = 3)")
    assert render_condition(cond, Dialect.SOURCE) == \
        "(x = 1 \\/ y = 2) /\\ z = 3"
    flat = exists_of("exists (x = 1 /\\ y = 2 \\/ z = 3)")
    assert render_condition(flat, Dialect.SOURCE) == \
        "x = 1 /\\ y = 2 \\/ z = 3"


@pytest.mark.parametrize("clause,fragment", [
    ("exists x = 1", "parenthesized"),
    ("exists (x = 1) extra", "parenthesized"),
    ("exists (P:r0 = 0)", "bad observable"),
    ("exists (x = y)", "expected an integer value"),
    ("exists (x = 1 y = 2)", "unexpected token"),
    ("exists (x = )", "unexpected end of condition"),
    ("exists ()", "unexpected end of condition"),
    ("exists (x = 1 /\\)", "unexpected end of condition"),
])
def test_condition_errors(clause, fragment):
    with pytest.raises(ParseError, match=fragment):
        exists_of(clause)


LIMIT = MAX_CONDITION_DEPTH


@pytest.mark.parametrize("deepest, too_deep", [
    ("~" * LIMIT + "x = 1", "~" * (LIMIT + 1) + "x = 1"),
    (" /\\ ".join(["x = 1"] * (LIMIT + 1)),
     " /\\ ".join(["x = 1"] * (LIMIT + 2))),
    (" \\/ ".join(["x = 1"] * (LIMIT + 1)),
     " \\/ ".join(["x = 1"] * (LIMIT + 2))),
    ("~(x = 1 /\\ " * (LIMIT // 2) + "x = 1" + ")" * (LIMIT // 2),
     "~(x = 1 /\\ " * (LIMIT // 2) + "~x = 1" + ")" * (LIMIT // 2)),
    ("(" * 2 * LIMIT + "x = 1" + ")" * 2 * LIMIT,
     "(" * (2 * LIMIT + 1) + "x = 1" + ")" * (2 * LIMIT + 1)),
])
def test_condition_depth_limit(deepest, too_deep):
    cond = exists_of(f"exists ({deepest})")
    # what the printer writes for the deepest condition parses back
    printed = render_condition(cond, Dialect.SOURCE)
    assert exists_of(f"exists ({printed})") == cond
    with pytest.raises(ParseError, match="condition nested too deeply"):
        exists_of(f"exists ({too_deep})")


def test_trailing_input_after_exists():
    with pytest.raises(ParseError, match="after exists clause"):
        parse_litmus(src([LOAD_LINE]) + "stray\n")


def test_asm_register_observable_spelling():
    with pytest.raises(ParseError, match="bad observable"):
        # asm spells registers '1:W3'; the source form is rejected there
        parse_litmus(asm(["LDR W2, [X0]"], exists="exists (P0:W2 = 0)"))


# -- asm dialect ------------------------------------------------------------

def asm(body, *, init="{\n  x = 0;\n  0:X0 = x;\n}",
        exists="exists (0:W2 = 0)"):
    lines = ["AArch64 t", "", init, "", "P0:"]
    lines += [f"  {line}" for line in body]
    lines += ["", exists, ""]
    return "\n".join(lines)


def test_asm_minimal():
    test = parse_litmus(asm(["LDR W2, [X0]"]))
    assert test.dialect is Dialect.ASM
    assert test.thread(0).bindings == (("X0", "x"),)
    instr = test.thread(0).stmts[0]
    assert instr.mnemonic is Mnemonic.LDR
    assert (instr.dst, instr.addr) == ("W2", "X0")


@pytest.mark.parametrize("line,mnemonic", [
    ("SWP W2, W3, [X0]", Mnemonic.SWP),
    ("SWPA W2, W3, [X0]", Mnemonic.SWPA),
    ("SWPL W2, W3, [X0]", Mnemonic.SWPL),
    ("SWPAL W2, W3, [X0]", Mnemonic.SWPAL),
])
def test_swp_spellings(line, mnemonic):
    test = parse_litmus(asm(["MOV W2, #1", line], exists="exists (0:W3 = 0)"))
    assert test.thread(0).stmts[1].mnemonic is mnemonic


@pytest.mark.parametrize("token,domain", [
    ("ISH", DmbDomain.SY), ("SY", DmbDomain.SY),
    ("ISHLD", DmbDomain.LD), ("LD", DmbDomain.LD),
    ("ISHST", DmbDomain.ST), ("ST", DmbDomain.ST),
])
def test_dmb_domains(token, domain):
    test = parse_litmus(asm([f"DMB {token}", "LDR W2, [X0]"]))
    assert test.thread(0).stmts[0].domain is domain


def test_dmb_canonical_render():
    test = parse_litmus(asm(["DMB SY", "DMB LD", "DMB ST", "LDR W2, [X0]"]))
    rendered = render_litmus(test)
    assert "DMB ISH\n" in rendered
    assert "DMB ISHLD" in rendered
    assert "DMB ISHST" in rendered


def test_store_from_zero_register():
    test = parse_litmus(asm(["STR WZR, [X0]", "LDR W2, [X0]"]))
    assert test.thread(0).stmts[0].src == "WZR"


def test_swp_discarding_into_zero_register():
    test = parse_litmus(asm(["MOV W2, #1", "SWPL W2, WZR, [X0]"],
                            exists="exists (x = 1)"))
    assert test.thread(0).stmts[1].dst == "WZR"


@pytest.mark.parametrize("line,fragment", [
    ("MOV WZR, #1", "MOV to the zero register"),
    ("LDR WZR, [X0]", "LDR to the zero register"),
    ("LDAR WZR, [X0]", "LDAR to the zero register"),
    ("LDXR W2, [X0]", "unknown mnemonic"),
    ("LDR W31, [X0]", "bad register"),
    ("LDR W030, [X0]", "bad register 'W030'"),
    ("MOV W02, #1", "bad register 'W02'"),
    ("LDR W2, [X00]", "bad address register 'X00'"),
    ("STR W2, [X31]", "bad address register 'X31'"),
    ("SWP W2, W3, [W0]", "bad address register 'W0'"),
    ("LDR W2", "cannot parse LDR operands"),
    ("DMB OSH", "unknown barrier domain"),
])
def test_asm_instruction_errors(line, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_litmus(asm([line], exists="exists (x = 0)"))


def test_asm_init_errors():
    with pytest.raises(ParseError, match="bad address register"):
        parse_litmus(asm(["LDR W2, [X0]"],
                         init="{\n  x = 0;\n  0:W0 = x;\n}"))
    # X0 and X00 would be two names for one register
    with pytest.raises(ParseError, match="bad address register 'X00'"):
        parse_litmus(asm(["LDR W2, [X0]"],
                         init="{\n  x = 0; y = 0;\n  0:X0 = x; 0:X00 = y;\n}"))
    with pytest.raises(ParseError, match="bound twice"):
        parse_litmus(asm(["LDR W2, [X0]"],
                         init="{\n  x = 0;\n  0:X0 = x; 0:X0 = x;\n}"))
    # reported at the line of the thread's first binding
    with pytest.raises(ParseError) as err:
        parse_litmus(asm(["LDR W2, [X0]"],
                         init="{\n  x = 0;\n  0:X0 = x;\n  2:X0 = x; 2:X1 = x;\n}"))
    assert str(err.value) == "line 6, col 1: bindings given for missing thread P2"
    with pytest.raises(ParseError, match="cannot parse initial state entry"):
        parse_litmus(asm(["LDR W2, [X0]"],
                         init="{\n  x = 0;\n  what even;\n}"))


ASM_LOAD = "LDR W2, [X0]"


# Exact message and position of each reader error, in both dialects where
# they share the path.
@pytest.mark.parametrize("text,line,column,message", [
    ("C t\n", 1, 1,
     "unexpected end of input, expected an initial state block in braces"),
    ("AArch64 t\n", 1, 1,
     "unexpected end of input, expected an initial state block in braces"),
    ("C t\n\n{ x = 0;\n", 3, 1,
     "unexpected end of input, expected '}' closing the initial state"),
    ("C t\n\n{ x = 0; }\n\nP0 {\n  %s\n" % LOAD_LINE, 6, 1,
     "unexpected end of input, expected '}' closing the thread body"),
    (src([LOAD_LINE], init="  x = 0;"), 3, 3,
     "expected '{' opening the initial state"),
    (asm([ASM_LOAD], init="  x = 0;"), 3, 3,
     "expected '{' opening the initial state"),
    (src([LOAD_LINE], init="{ x = 0; 0:X0 = x; }"), 3, 1,
     "cannot parse initial state entry '0:X0 = x'"),
    (asm([ASM_LOAD], init="{\n  x = 0;\n  x 0;\n}"), 5, 1,
     "cannot parse initial state entry 'x 0'"),
    (src([LOAD_LINE], init="{ x = 0;\n  x = 1; }"), 4, 1,
     "location 'x' initialized twice"),
    (asm([ASM_LOAD], init="{\n  x = 0; x = 1;\n  0:X0 = x;\n}"), 4, 1,
     "location 'x' initialized twice"),
    (src([LOAD_LINE], header="P0 (atomic_int* x)"), 5, 1,
     "expected 'Pn (...) {' or 'exists (...)'"),
    (src([LOAD_LINE], header="  P0 (int x) {"), 5, 3,
     "cannot parse parameter 'int x'"),
    ("AArch64 t\n\n{ x = 0; 0:X0 = x; }\n\n Thread0:\n  %s\n" % ASM_LOAD,
     5, 2, "expected 'Pn:' or 'exists (...)'"),
    (src([LOAD_LINE], exists=""), 9, 1,
     "unexpected end of input, expected exists clause"),
    (asm([ASM_LOAD], exists=""), 11, 1,
     "unexpected end of input, expected exists clause"),
    (src([LOAD_LINE], exists="exists (P0:r0 = 0 & x = 1)"), 9, 18,
     "cannot tokenize condition"),
    (asm([ASM_LOAD], exists="exists (0:W2 = 0 & x = 1)"), 11, 17,
     "cannot tokenize condition"),
    (src([LOAD_LINE], exists="exists (5 = 1)"), 9, 11,
     "bad observable '5'"),
    (asm([ASM_LOAD], exists="exists (5 = 1)"), 11, 11,
     "bad observable '5'"),
    ("C t\n\n{ x = 0; }\n\nP0 {\n  %s\n}\n\n  P0 {\n}\n\nexists (x = 0)\n"
     % LOAD_LINE, 9, 3, "thread P0 given twice"),
    ("AArch64 t\n\n{ x = 0; 0:X0 = x; }\n\nP0:\n  %s\n\n  P0:\n\n"
     "exists (x = 0)\n" % ASM_LOAD, 8, 3, "thread P0 given twice"),
    # a gap in thread ids: at the lowest-numbered thread above it
    ("C t\n\n{ x = 0; }\n\nP0 {\n  %s\n}\n\n  P2 {\n}\n\nexists (x = 0)\n"
     % LOAD_LINE, 9, 3, "thread P1 missing"),
    ("C t\n\n{ x = 0; }\n\nP3 {\n}\n\n  P2 {\n}\n\nP0 {\n  %s\n}\n\n"
     "exists (x = 0)\n" % LOAD_LINE, 8, 3, "thread P1 missing"),
    ("C t\n\n{ x = 0; }\n\nP1 {\n  %s\n}\n\nexists (x = 0)\n"
     % LOAD_LINE, 5, 1, "thread P0 missing"),
    ("AArch64 t\n\n{ x = 0; 0:X0 = x; }\n\nP0:\n  %s\n\n  P2:\n\n"
     "exists (x = 0)\n" % ASM_LOAD, 8, 3, "thread P1 missing"),
    ("AArch64 t\n\n{ x = 0; 1:X0 = x; }\n\n P1:\n  %s\n\n"
     "exists (x = 0)\n" % ASM_LOAD, 5, 2, "thread P0 missing"),
])
def test_reader_error_positions(text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse_litmus(text)
    assert type(err.value) is ParseError
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, col {column}: {message}"


# A condition names registers as statements spell them, any Unicode
# decimal digit included; the name checks are validate_test's.
@pytest.mark.parametrize("name, old, new, observable", [
    ("mp-xchg-discard.litmus", "r0", "r\u0661",
     RegisterObservable(1, "r\u0661")),
    ("mp-xchg-discard-compiled-w15.litmus", "W3", "W\u0661",
     RegisterObservable(1, "W\u0661")),
], ids=["source", "asm"])
def test_unicode_digit_registers_round_trip(name, old, new, observable):
    text = golden_path(name).read_text().replace(old, new)
    test = parse_litmus(text)
    assert test.final.left == Atom(observable, 0)
    assert render_litmus(test) == text
    assert parse_litmus(render_litmus(test)) == test


def test_empty_asm_thread_round_trips():
    text = "\n".join([
        "AArch64 t", "", "{", "  x = 0;", "  0:X0 = x;", "}", "",
        "P0:", "  LDR W2, [X0]", "", "P1:", "",
        "exists (0:W2 = 0)", "",
    ])
    test = parse_litmus(text)
    assert test.thread(1).stmts == ()
    assert parse_litmus(render_litmus(test)) == test


def test_empty_source_thread_round_trips():
    text = src([], exists="exists (x = 0)")
    test = parse_litmus(text)
    assert test.thread(0).stmts == ()
    assert parse_litmus(render_litmus(test)) == test


def test_source_render_layout():
    test = parse_litmus(src([LOAD_LINE]))
    assert render_litmus(test) == (
        "C t\n"
        "\n"
        "{ x = 0; }\n"
        "\n"
        "P0 (atomic_int* x) {\n"
        "  int r0 = atomic_load_explicit(x, memory_order_relaxed);\n"
        "}\n"
        "\n"
        "exists (P0:r0 = 0)\n"
    )
