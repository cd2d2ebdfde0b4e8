"""Structural checks on the shared litmus AST and its validator."""

import dataclasses
import re

import pytest

from litmusdiff.execution import build_events
from litmusdiff.litmus import (
    ASM_FORMS,
    Atom,
    AsmInstr,
    Conj,
    Dialect,
    Disj,
    DmbDomain,
    FENCE_ORDERS,
    LOAD_ORDERS,
    LitmusTest,
    MAX_INSTRUCTIONS_PER_THREAD,
    MAX_STATEMENTS_PER_THREAD,
    MemoryObservable,
    MemoryOrder,
    Mnemonic,
    Neg,
    RegisterObservable,
    STORE_ORDERS,
    SourceStmt,
    StmtKind,
    Thread,
    ValidationError,
    ZERO_REGISTER,
    condition_atoms,
    condition_observables,
    evaluate_condition,
    is_w_register,
    is_x_register,
    map_condition_observables,
    observable_label,
    validate_test,
)
from litmusdiff.syntax import parse_litmus, render_litmus


def store(loc, value, order=MemoryOrder.RELAXED):
    return SourceStmt(StmtKind.STORE, order, location=loc, value=value)


def load(loc, dest, order=MemoryOrder.RELAXED):
    return SourceStmt(StmtKind.LOAD, order, location=loc, dest=dest)


def source_test(**overrides):
    base = dict(
        name="t",
        dialect=Dialect.SOURCE,
        locations={"x": 0},
        threads=(Thread(0, (load("x", "r0"),)),),
        final=Atom(RegisterObservable(0, "r0"), 0),
    )
    base.update(overrides)
    return LitmusTest(**base)


def asm_test(**overrides):
    base = dict(
        name="t",
        dialect=Dialect.ASM,
        locations={"x": 0},
        threads=(
            Thread(0, (AsmInstr(Mnemonic.LDR, dst="W2", addr="X0"),),
                   bindings=(("X0", "x"),)),
        ),
        final=Atom(RegisterObservable(0, "W2"), 0),
    )
    base.update(overrides)
    return LitmusTest(**base)


def test_baselines_validate():
    validate_test(source_test())
    validate_test(asm_test())


def test_defined_register_source():
    assert load("x", "r0").defined_register() == "r0"
    assert store("x", 1).defined_register() is None
    xchg = SourceStmt(StmtKind.EXCHANGE, MemoryOrder.SEQ_CST, location="x",
                      value=1, dest="r2")
    assert xchg.defined_register() == "r2"
    assert dataclasses.replace(xchg, dest=None).defined_register() is None


def test_defined_register_asm():
    assert AsmInstr(Mnemonic.MOV, dst="W2", imm=1).defined_register() == "W2"
    assert AsmInstr(Mnemonic.LDAR, dst="W3", addr="X0").defined_register() == "W3"
    swp = AsmInstr(Mnemonic.SWPL, src="W2", dst="W4", addr="X0")
    assert swp.defined_register() == "W4"
    # the zero register swallows the old value without becoming readable
    assert dataclasses.replace(swp, dst=ZERO_REGISTER).defined_register() is None
    assert AsmInstr(Mnemonic.STR, src="W2", addr="X0").defined_register() is None


def test_read_registers():
    assert AsmInstr(Mnemonic.STR, src="W2", addr="X0").read_registers() == ("W2",)
    assert AsmInstr(Mnemonic.SWPA, src="W2", dst="W3",
                    addr="X0").read_registers() == ("W2",)
    assert AsmInstr(Mnemonic.LDR, dst="W2", addr="X0").read_registers() == ()
    assert AsmInstr(Mnemonic.DMB, domain=DmbDomain.SY).read_registers() == ()


def test_thread_defined_registers_dedupe():
    t = Thread(0, (load("x", "r0"), load("x", "r1"), load("x", "r0")))
    assert t.defined_registers() == ["r0", "r1"]


@pytest.mark.parametrize("obs,dialect,label", [
    (RegisterObservable(1, "r0"), Dialect.SOURCE, "P1:r0"),
    (RegisterObservable(1, "W3"), Dialect.ASM, "1:W3"),
    (MemoryObservable("y"), Dialect.SOURCE, "y"),
    (MemoryObservable("y"), Dialect.ASM, "y"),
])
def test_observable_label(obs, dialect, label):
    assert observable_label(obs, dialect) == label


def test_condition_helpers():
    a = Atom(RegisterObservable(0, "r0"), 1)
    b = Atom(MemoryObservable("y"), 2)
    c = Atom(RegisterObservable(0, "r0"), 0)  # same observable as a
    cond = Disj(Conj(a, b), Neg(c))
    assert list(condition_atoms(cond)) == [a, b, c]
    assert condition_observables(cond) == [a.observable, b.observable]


def test_evaluate_condition():
    cond = Conj(Atom(RegisterObservable(1, "r0"), 0),
                Neg(Atom(MemoryObservable("y"), 1)))
    assert evaluate_condition(cond, Dialect.SOURCE, {"P1:r0": 0, "y": 2})
    assert not evaluate_condition(cond, Dialect.SOURCE, {"P1:r0": 0, "y": 1})
    assert not evaluate_condition(cond, Dialect.SOURCE, {"P1:r0": 1, "y": 2})
    disj = Disj(Atom(MemoryObservable("y"), 1), Atom(MemoryObservable("y"), 2))
    assert evaluate_condition(disj, Dialect.SOURCE, {"y": 2})
    assert not evaluate_condition(disj, Dialect.SOURCE, {"y": 3})


def test_map_condition_observables_keeps_shape():
    cond = Neg(Conj(Atom(RegisterObservable(1, "r0"), 0),
                    Atom(MemoryObservable("y"), 2)))
    swapped = map_condition_observables(
        cond, lambda obs: MemoryObservable("z") if isinstance(
            obs, RegisterObservable) else obs)
    assert isinstance(swapped, Neg)
    assert swapped.operand.left == Atom(MemoryObservable("z"), 0)
    assert swapped.operand.right == cond.operand.right


def test_test_lookup():
    t = source_test()
    assert t.thread(0).tid == 0
    with pytest.raises(KeyError):
        t.thread(3)
    assert source_test(locations={"y": 0, "x": 0},
                       final=Atom(MemoryObservable("y"), 0),
                       threads=(Thread(0, (load("x", "r0"),)),)
                       ).sorted_locations() == ["x", "y"]


# -- validator rejections ---------------------------------------------------

def too_many_stmts(n):
    stmts = tuple(store("x", 1) for _ in range(n))
    return (Thread(0, stmts),)


@pytest.mark.parametrize("build,fragment", [
    (lambda: source_test(name="0bad"), "bad test name"),
    (lambda: source_test(locations={}), "at least one location"),
    (lambda: source_test(locations={c: 0 for c in "abcdx"}), "locations"),
    (lambda: source_test(locations={"X": 0}), "bad location name"),
    (lambda: source_test(locations={"x": 9}), "initial value"),
    (lambda: source_test(threads=()), "at least one thread"),
    (lambda: source_test(threads=tuple(
        Thread(t, (load("x", "r0"),)) for t in range(5)),
        final=Atom(RegisterObservable(0, "r0"), 0)), "threads"),
    (lambda: source_test(threads=(Thread(1, (load("x", "r0"),)),),
                         final=Atom(RegisterObservable(1, "r0"), 0)),
     "without gaps"),
    (lambda: source_test(
        threads=too_many_stmts(MAX_STATEMENTS_PER_THREAD + 1),
        final=Atom(MemoryObservable("x"), 0)), "more than"),
    (lambda: source_test(threads=(
        Thread(0, (load("x", "r0"),), bindings=(("X0", "x"),)),)),
     "no address bindings"),
    (lambda: source_test(threads=(Thread(0, (
        SourceStmt(StmtKind.FENCE, MemoryOrder.RELAXED),
        load("x", "r0"))),)), "fence cannot use order"),
    (lambda: source_test(threads=(Thread(0, (
        SourceStmt(StmtKind.FENCE, MemoryOrder.ACQUIRE, location="x"),
        load("x", "r0"))),)), "fence takes no"),
    (lambda: source_test(threads=(Thread(0, (
        load("x", "r0", MemoryOrder.RELEASE),)),)), "load cannot use order"),
    (lambda: source_test(threads=(Thread(0, (
        SourceStmt(StmtKind.LOAD, MemoryOrder.RELAXED, location="x"),)),
    ), final=Atom(MemoryObservable("x"), 0)), "destination register"),
    (lambda: source_test(threads=(Thread(0, (
        store("x", 1, MemoryOrder.ACQUIRE),)),
    ), final=Atom(MemoryObservable("x"), 0)), "store cannot use order"),
    (lambda: source_test(threads=(Thread(0, (
        SourceStmt(StmtKind.STORE, MemoryOrder.RELAXED, location="x"),)),
    ), final=Atom(MemoryObservable("x"), 0)), "store needs a value"),
    (lambda: source_test(threads=(Thread(0, (store("x", 8),)),),
                         final=Atom(MemoryObservable("x"), 0)),
     "stored value"),
    (lambda: source_test(threads=(Thread(0, (store("y", 1),)),),
                         final=Atom(MemoryObservable("x"), 0)),
     "undeclared location"),
    (lambda: source_test(threads=(Thread(0, (
        SourceStmt(StmtKind.EXCHANGE, MemoryOrder.RELAXED, location="x"),)),
    ), final=Atom(MemoryObservable("x"), 0)), "exchange needs a value"),
    (lambda: source_test(threads=(Thread(0, (
        SourceStmt(StmtKind.LOAD, MemoryOrder.RELAXED, location="x",
                   dest="x0"),)),
    ), final=Atom(MemoryObservable("x"), 0)), "bad source register"),
    (lambda: source_test(threads=(Thread(0, (
        load("x", "r0"), load("x", "r0"))),)), "defined twice"),
    (lambda: source_test(final=Atom(MemoryObservable("q"), 0)),
     "undeclared location"),
    (lambda: source_test(final=Atom(RegisterObservable(2, "r0"), 0)),
     "unknown thread"),
    (lambda: source_test(final=Atom(RegisterObservable(0, "r9"), 0)),
     "never written"),
    (lambda: source_test(final=Atom(RegisterObservable(0, "r0"), 8)),
     "final condition value"),
    (lambda: source_test(threads=(Thread(0, (
        SourceStmt(None, MemoryOrder.RELAXED, location="x", value=1,
                   dest="r0"),)),)), "unknown statement kind None"),
    (lambda: source_test(threads=(Thread(0, (
        SourceStmt(StmtKind.FENCE, None), load("x", "r0"))),)),
     "unknown memory order None"),
    (lambda: source_test(threads=(Thread(0, (
        SourceStmt(StmtKind.EXCHANGE, "relaxed", location="x", value=1,
                   dest="r0"),)),)), "unknown memory order 'relaxed'"),
])
def test_source_validation_rejects(build, fragment):
    with pytest.raises(ValidationError, match=fragment):
        validate_test(build())


def asm_thread(*instrs, bindings=(("X0", "x"),)):
    return (Thread(0, tuple(instrs), bindings=bindings),)


@pytest.mark.parametrize("build,fragment", [
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.DMB))), "DMB needs a domain"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(None, dst="W2", imm=1))), "unknown mnemonic None"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.MOV, dst="W2", imm=1),
        AsmInstr(Mnemonic.DMB, src="W2", domain=DmbDomain.SY))),
     "DMB takes no src operand"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.MOV, dst="W3", imm=1),
        AsmInstr(Mnemonic.LDR, dst="W2", src="W3", addr="X0"))),
     "LDR takes no src operand"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.STR, dst="W2", src=ZERO_REGISTER, addr="X0")),
        final=Atom(MemoryObservable("x"), 0)), "STR takes no dst operand"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.MOV, dst="W2", addr="X0", imm=1)),
        final=Atom(MemoryObservable("x"), 0)), "MOV takes no addr operand"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.SWPA, dst="W2", src=ZERO_REGISTER, addr="X0",
                 domain=DmbDomain.LD))), "SWPA takes no domain operand"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.MOV, dst=ZERO_REGISTER, imm=1)),
        final=Atom(MemoryObservable("x"), 0)), "zero register"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.LDR, dst=ZERO_REGISTER, addr="X0")),
        final=Atom(MemoryObservable("x"), 0)), "zero register"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.MOV, dst="W2")),
        final=Atom(MemoryObservable("x"), 0)), "immediate"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.MOV, dst="W2", imm=8)),
        final=Atom(MemoryObservable("x"), 0)), "immediate"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.LDR, dst="W2", addr="W0"))), "bad address register"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.LDR, dst="W2", addr="X5"))), "bound to no location"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.LDR, dst="W2", addr="X31"),
        bindings=(("X31", "x"),))), "bad address register 'X31'"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.LDR, dst="W2", addr="X0"),
        bindings=(("X0", "x"), ("X00", "x")))), "bad address register 'X00'"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.LDR, dst="W2", addr="X0"),
        bindings=(("X0", "q"),))), "undeclared"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.STR, src="W2", addr="X0")),
        final=Atom(MemoryObservable("x"), 0)), "read before any definition"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.MOV, dst="W2", imm=1),
        AsmInstr(Mnemonic.STR, src="V2", addr="X0")),
        final=Atom(MemoryObservable("x"), 0)), "bad register name"),
    (lambda: asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.SWP, src="W2", addr="X0")),
        final=Atom(MemoryObservable("x"), 0)), "two registers"),
    (lambda: asm_test(threads=asm_thread(*(
        [AsmInstr(Mnemonic.MOV, dst="W2", imm=1)] +
        [AsmInstr(Mnemonic.STR, src="W2", addr="X0")]
        * MAX_INSTRUCTIONS_PER_THREAD)),
        final=Atom(MemoryObservable("x"), 0)), "more than"),
    (lambda: asm_test(threads=(Thread(0, (load("x", "r0"),),
                               bindings=(("X0", "x"),)),)),
     "source statement in an asm test"),
    (lambda: source_test(threads=(Thread(0, (
        AsmInstr(Mnemonic.LDR, dst="W2", addr="X0"),)),)),
     "asm instruction in a source test"),
])
def test_asm_validation_rejects(build, fragment):
    with pytest.raises(ValidationError, match=fragment):
        validate_test(build())


def test_asm_instruction_budget_is_twice_source():
    assert MAX_INSTRUCTIONS_PER_THREAD == 2 * MAX_STATEMENTS_PER_THREAD
    instrs = [AsmInstr(Mnemonic.MOV, dst="W2", imm=1)]
    instrs += [AsmInstr(Mnemonic.STR, src="W2", addr="X0")] * 15
    validate_test(asm_test(threads=asm_thread(*instrs),
                           final=Atom(MemoryObservable("x"), 0)))


def test_registers_end_at_w30(compiled_w15):
    # the reader takes W0 to W30, so a validated test always parses back
    def swpl_into(dst):
        p0, p1 = compiled_w15.threads
        swpl = dataclasses.replace(p1.stmts[1], dst=dst)
        stmts = (p1.stmts[0], swpl, *p1.stmts[2:])
        return dataclasses.replace(
            compiled_w15, threads=(p0, dataclasses.replace(p1, stmts=stmts)))

    w30 = swpl_into("W30")
    validate_test(w30)
    assert parse_litmus(render_litmus(w30)) == w30
    with pytest.raises(ValidationError, match="bad register name 'W31'"):
        validate_test(swpl_into("W31"))
    # a register is written without leading zeros, so W030 names no W30
    with pytest.raises(ValidationError, match="bad register name 'W030'"):
        validate_test(swpl_into("W030"))


def test_register_names_match_in_full():
    assert is_w_register("W1") and is_x_register("X0")
    assert not is_w_register("W1\n")
    assert not is_x_register("X0\n")


# ``\d`` takes any Unicode decimal digit: W and X names with such a digit
# pass, as source register names do, and the leading-zero rule holds.
def test_register_names_take_any_decimal_digit(discard_source, compiled_w15):
    assert is_w_register("W\u0661") and is_x_register("X\u0660")
    assert is_w_register("W2\u0669") and not is_w_register("W\u0660\u0661")
    assert not is_w_register("W\u0661\n")
    validate_test(replace_stmt(compiled_w15, 1, 1, dst="W1\u0665"))
    validate_test(dataclasses.replace(compiled_w15, threads=(
        dataclasses.replace(compiled_w15.threads[0], bindings=(
            ("X0", "x"), ("X1", "y"), ("X\u0660", "x"))),
        compiled_w15.threads[1])))
    validate_test(dataclasses.replace(
        replace_stmt(discard_source, 1, 2, dest="r\u0661"),
        final=Atom(RegisterObservable(1, "r\u0661"), 0)))


def replace_stmt(test, tid, index, **changes):
    thread = test.threads[tid]
    stmts = list(thread.stmts)
    stmts[index] = dataclasses.replace(stmts[index], **changes)
    threads = list(test.threads)
    threads[tid] = dataclasses.replace(thread, stmts=tuple(stmts))
    return dataclasses.replace(test, threads=tuple(threads))


# '$' also matches before a final newline, so names like these once passed,
# and a test named 'MP\n' printed as 'C MP' and a blank line, which reads
# back as another test.
@pytest.mark.parametrize("change,fragment", [
    (lambda t: dataclasses.replace(t, name="MP\n"), r"bad test name 'MP\\n'"),
    (lambda t: dataclasses.replace(t, locations={"x\n": 0, "y": 0}),
     r"bad location name 'x\\n'"),
    (lambda t: replace_stmt(t, 1, 2, dest="r0\n"),
     r"bad source register name 'r0\\n'"),
])
def test_source_names_ending_in_a_newline_are_rejected(discard_source, change,
                                                       fragment):
    with pytest.raises(ValidationError, match=fragment):
        validate_test(change(discard_source))


@pytest.mark.parametrize("change,fragment", [
    (lambda t: dataclasses.replace(t, name="MP\n"), r"bad test name 'MP\\n'"),
    (lambda t: dataclasses.replace(t, threads=(dataclasses.replace(
        t.threads[0], bindings=(("X0\n", "x"), ("X1", "y"))), t.threads[1])),
     r"bad address register 'X0\\n'"),
    (lambda t: replace_stmt(t, 1, 0, dst="W2\n"), r"bad register name 'W2\\n'"),
])
def test_asm_names_ending_in_a_newline_are_rejected(compiled_w15, change,
                                                    fragment):
    with pytest.raises(ValidationError, match=fragment):
        validate_test(change(compiled_w15))


# A field of the wrong type fails validation: a DMB domain given as the
# string 'ISHLD' would act as ISHST in the model, and a store of True would
# print as a call that does not read back.
@pytest.mark.parametrize("tid,index,changes,fragment", [
    (1, 2, dict(domain="ISHLD"), "unknown barrier domain 'ISHLD'"),
    (1, 2, dict(domain="ISH"), "unknown barrier domain 'ISH'"),
    (1, 0, dict(imm=True), "immediate True is not an integer"),
    (1, 0, dict(imm="2"), "immediate '2' is not an integer"),
    (1, 1, dict(dst=15), "bad register name 15"),
    (1, 1, dict(src=b"W2"), "bad register name b'W2'"),
    (0, 1, dict(addr=1), "bad address register 1"),
    (0, 1, dict(addr=["X0"]), "bad address register ['X0']"),
])
def test_asm_fields_of_the_wrong_type_are_rejected(compiled_w15, tid, index,
                                                   changes, fragment):
    with pytest.raises(ValidationError, match=re.escape(fragment)):
        validate_test(replace_stmt(compiled_w15, tid, index, **changes))


@pytest.mark.parametrize("tid,index,changes,fragment", [
    (0, 0, dict(value=True), "stored value True is not an integer"),
    (0, 0, dict(value=1.0), "stored value 1.0 is not an integer"),
    (0, 0, dict(value="1"), "stored value '1' is not an integer"),
    (0, 0, dict(location=b"x"), "undeclared location b'x'"),
    (1, 2, dict(location=["x"]), "undeclared location ['x']"),
    (1, 2, dict(dest=0), "bad source register name 0"),
])
def test_source_fields_of_the_wrong_type_are_rejected(discard_source, tid,
                                                      index, changes, fragment):
    with pytest.raises(ValidationError, match=re.escape(fragment)):
        validate_test(replace_stmt(discard_source, tid, index, **changes))


def test_wzr_read_is_allowed():
    validate_test(asm_test(
        threads=asm_thread(AsmInstr(Mnemonic.STR, src=ZERO_REGISTER, addr="X0")),
        final=Atom(MemoryObservable("x"), 0)))


# -- the instruction table -------------------------------------------------

# Operand values that make a valid instruction of each kind; W0 holds a
# MOV's value before any instruction reads it.
KIND_OPERANDS = {
    None: dict(dst="W1", imm=1),
    StmtKind.LOAD: dict(dst="W1", addr="X0"),
    StmtKind.STORE: dict(src="W0", addr="X0"),
    StmtKind.EXCHANGE: dict(src="W0", dst="W1", addr="X0"),
    StmtKind.FENCE: dict(domain=DmbDomain.SY),
}
# Events an instruction of each kind makes: an exchange a read and a write.
KIND_EVENTS = {None: 0, StmtKind.LOAD: 1, StmtKind.STORE: 1,
               StmtKind.EXCHANGE: 2, StmtKind.FENCE: 1}


def test_every_mnemonic_has_one_form():
    assert list(ASM_FORMS) == list(Mnemonic)
    for kind, acquire, release in ASM_FORMS.values():
        assert kind is None or isinstance(kind, StmtKind)
        assert isinstance(acquire, bool) and isinstance(release, bool)


# The line each mnemonic prints with its kind's operands above.
PRINTED_LINE = {
    Mnemonic.MOV: "MOV W1, #1",
    Mnemonic.LDR: "LDR W1, [X0]",
    Mnemonic.LDAR: "LDAR W1, [X0]",
    Mnemonic.STR: "STR W0, [X0]",
    Mnemonic.STLR: "STLR W0, [X0]",
    Mnemonic.SWP: "SWP W0, W1, [X0]",
    Mnemonic.SWPA: "SWPA W0, W1, [X0]",
    Mnemonic.SWPL: "SWPL W0, W1, [X0]",
    Mnemonic.SWPAL: "SWPAL W0, W1, [X0]",
    Mnemonic.DMB: "DMB ISH",
}


@pytest.mark.parametrize("mnemonic", list(Mnemonic), ids=lambda m: m.value)
def test_each_mnemonic_round_trips_and_builds(mnemonic):
    kind = ASM_FORMS[mnemonic][0]
    instr = AsmInstr(mnemonic, **KIND_OPERANDS[kind])
    assert instr.kind is kind
    test = asm_test(threads=asm_thread(
        AsmInstr(Mnemonic.MOV, dst="W0", imm=1), instr),
        final=Atom(MemoryObservable("x"), 0))
    validate_test(test)
    text = render_litmus(test)
    assert f"\nP0:\n  MOV W0, #1\n  {PRINTED_LINE[mnemonic]}\n\n" in text
    assert parse_litmus(text) == test
    graph = build_events(test)
    assert len(graph.po) == 1 + KIND_EVENTS[kind]
    _, acquire, release = ASM_FORMS[mnemonic]
    assert bool(graph.masks["acquire"]) == acquire
    assert bool(graph.masks["release"]) == release


# The line each source statement prints, for every kind and legal order,
# with and without a destination where the call may bind one.
ORDER_TOKEN = {
    MemoryOrder.RELAXED: "memory_order_relaxed",
    MemoryOrder.ACQUIRE: "memory_order_acquire",
    MemoryOrder.RELEASE: "memory_order_release",
    MemoryOrder.ACQ_REL: "memory_order_acq_rel",
    MemoryOrder.SEQ_CST: "memory_order_seq_cst",
}
SOURCE_LINES = [
    *[(SourceStmt(StmtKind.STORE, order, "x", 1),
       f"atomic_store_explicit(x, 1, {token});")
      for order, token in ORDER_TOKEN.items() if order in STORE_ORDERS],
    *[(SourceStmt(StmtKind.LOAD, order, "x", dest="r0"),
       f"int r0 = atomic_load_explicit(x, {token});")
      for order, token in ORDER_TOKEN.items() if order in LOAD_ORDERS],
    *[(SourceStmt(StmtKind.EXCHANGE, order, "x", 1),
       f"atomic_exchange_explicit(x, 1, {token});")
      for order, token in ORDER_TOKEN.items()],
    *[(SourceStmt(StmtKind.EXCHANGE, order, "x", 1, "r0"),
       f"int r0 = atomic_exchange_explicit(x, 1, {token});")
      for order, token in ORDER_TOKEN.items()],
    *[(SourceStmt(StmtKind.FENCE, order), f"atomic_thread_fence({token});")
      for order, token in ORDER_TOKEN.items() if order in FENCE_ORDERS],
]


@pytest.mark.parametrize("stmt,line", SOURCE_LINES,
                         ids=[line for _, line in SOURCE_LINES])
def test_each_source_statement_prints_its_line(stmt, line):
    test = source_test(threads=(Thread(0, (stmt,)),),
                       final=Atom(MemoryObservable("x"), 0))
    validate_test(test)
    text = render_litmus(test)
    assert f"\nP0 (atomic_int* x) {{\n  {line}\n}}\n" in text
    assert parse_litmus(text) == test
