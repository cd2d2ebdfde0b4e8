"""Translation to asm, register allocation, and the dead destination pass."""

import json

import pytest

from conftest import read_golden
from litmusdiff.litmus import (
    AsmInstr,
    Atom,
    Dialect,
    DmbDomain,
    LitmusTest,
    MemoryObservable,
    MemoryOrder,
    Mnemonic,
    RegisterObservable,
    SourceStmt,
    StmtKind,
    Thread,
    ZERO_REGISTER,
    validate_test,
)
from litmusdiff.lowering import (
    LoweringError,
    Mapping,
    MappingError,
    dead_register_pass,
    lower_test,
)
from litmusdiff.syntax import parse_litmus


def one_stmt_test(stmt, final=Atom(MemoryObservable("x"), 0)):
    test = LitmusTest("t", Dialect.SOURCE, {"x": 0},
                      (Thread(0, (stmt,)),), final)
    validate_test(test)
    return test


@pytest.mark.parametrize("order,mnemonic", [
    (MemoryOrder.RELAXED, Mnemonic.LDR),
    (MemoryOrder.ACQUIRE, Mnemonic.LDAR),
    (MemoryOrder.SEQ_CST, Mnemonic.LDAR),
])
def test_load_selection(order, mnemonic):
    stmt = SourceStmt(StmtKind.LOAD, order, location="x", dest="r0")
    compiled, _ = lower_test(one_stmt_test(
        stmt, final=Atom(RegisterObservable(0, "r0"), 0)))
    assert compiled.thread(0).stmts == (
        AsmInstr(mnemonic, dst="W1", addr="X0"),)


@pytest.mark.parametrize("order,mnemonic", [
    (MemoryOrder.RELAXED, Mnemonic.STR),
    (MemoryOrder.RELEASE, Mnemonic.STLR),
    (MemoryOrder.SEQ_CST, Mnemonic.STLR),
])
def test_store_selection(order, mnemonic):
    stmt = SourceStmt(StmtKind.STORE, order, location="x", value=3)
    compiled, _ = lower_test(one_stmt_test(stmt))
    assert compiled.thread(0).stmts == (
        AsmInstr(Mnemonic.MOV, dst="W1", imm=3),
        AsmInstr(mnemonic, src="W1", addr="X0"),
    )


@pytest.mark.parametrize("order,mnemonic", [
    (MemoryOrder.RELAXED, Mnemonic.SWP),
    (MemoryOrder.ACQUIRE, Mnemonic.SWPA),
    (MemoryOrder.RELEASE, Mnemonic.SWPL),
    (MemoryOrder.ACQ_REL, Mnemonic.SWPAL),
    (MemoryOrder.SEQ_CST, Mnemonic.SWPAL),
])
def test_exchange_selection(order, mnemonic):
    stmt = SourceStmt(StmtKind.EXCHANGE, order, location="x", value=3,
                      dest="r0")
    compiled, _ = lower_test(one_stmt_test(
        stmt, final=Atom(RegisterObservable(0, "r0"), 0)))
    assert compiled.thread(0).stmts == (
        AsmInstr(Mnemonic.MOV, dst="W1", imm=3),
        AsmInstr(mnemonic, src="W1", dst="W2", addr="X0"),
    )


@pytest.mark.parametrize("order,domain", [
    (MemoryOrder.ACQUIRE, DmbDomain.LD),
    (MemoryOrder.RELEASE, DmbDomain.SY),
    (MemoryOrder.ACQ_REL, DmbDomain.SY),
    (MemoryOrder.SEQ_CST, DmbDomain.SY),
])
def test_fence_selection(order, domain):
    compiled, _ = lower_test(one_stmt_test(SourceStmt(StmtKind.FENCE, order)))
    assert compiled.thread(0).stmts == (
        AsmInstr(Mnemonic.DMB, domain=domain),)


def test_discarded_exchange_uses_scratch_register():
    stmt = SourceStmt(StmtKind.EXCHANGE, MemoryOrder.RELEASE, location="x",
                      value=2)
    compiled, _ = lower_test(one_stmt_test(stmt))
    assert compiled.thread(0).stmts[1].dst == "W15"
    # the scratch range starts at W15 and counts up, past the value registers
    test = LitmusTest("t", Dialect.SOURCE, {"x": 0},
                      (Thread(0, (stmt,) * 8),), Atom(MemoryObservable("x"), 0))
    validate_test(test)
    compiled, _ = lower_test(test)
    assert [i.dst for i in compiled.thread(0).stmts[1::2]] == \
        [f"W{n}" for n in range(15, 23)]


def test_canonical_lowering_matches_golden(discard_source, compiled_w15):
    compiled, mapping = lower_test(discard_source)
    assert compiled.name == "mp-xchg-discard-compiled"
    assert compiled.threads == compiled_w15.threads
    assert compiled.final == compiled_w15.final
    assert compiled.locations == compiled_w15.locations
    sidecar = json.loads(read_golden("mp-xchg-discard-compiled.mapping.json"))
    assert mapping.to_json_dict() == sidecar


def test_dead_pass_produces_buggy_golden(discard_source, compiled_wzr):
    compiled, _ = lower_test(discard_source)
    assert dead_register_pass(compiled).threads == compiled_wzr.threads


def test_bindings_cover_all_locations(discard_source):
    compiled, _ = lower_test(discard_source)
    for thread in compiled.threads:
        assert thread.bindings == (("X0", "x"), ("X1", "y"))


def test_value_register_budget():
    # eight kept exchanges need sixteen value registers, W1 up; W14 is the
    # last below the scratch range
    stmts = tuple(SourceStmt(StmtKind.EXCHANGE, MemoryOrder.RELAXED,
                             location="x", value=1, dest=f"r{i}")
                  for i in range(8))
    test = LitmusTest("t", Dialect.SOURCE, {"x": 0}, (Thread(0, stmts),),
                      Atom(RegisterObservable(0, "r0"), 0))
    validate_test(test)
    with pytest.raises(LoweringError, match="more than W14"):
        lower_test(test)


def test_lowering_refuses_asm(compiled_w15):
    with pytest.raises(LoweringError, match="only source tests"):
        lower_test(compiled_w15)


def test_unmaterialized_observable():
    # an exists clause over a register no statement defines never survives
    # validation, so the translator's own guard is reached by hand assembly
    test = LitmusTest(
        "t", Dialect.SOURCE, {"x": 0},
        (Thread(0, (SourceStmt(StmtKind.STORE, MemoryOrder.RELAXED,
                               location="x", value=1),)),),
        Atom(RegisterObservable(0, "r9"), 0))
    with pytest.raises(LoweringError, match="never materializes"):
        lower_test(test)


def asm_lines(lines, exists):
    return parse_litmus("\n".join(
        ["AArch64 t", "", "{", "  x = 0;", "  0:X0 = x;", "}", "", "P0:"]
        + [f"  {line}" for line in lines] + ["", f"exists ({exists})", ""]))


def test_dead_pass_rewrites_unused_destination():
    test = asm_lines(["MOV W1, #1", "SWP W1, W2, [X0]"], "x = 1")
    out = dead_register_pass(test)
    assert out.thread(0).stmts[1] == AsmInstr(
        Mnemonic.SWP, src="W1", dst=ZERO_REGISTER, addr="X0")
    # everything else is untouched
    assert out.thread(0).stmts[0] == test.thread(0).stmts[0]
    assert out.final == test.final and out.locations == test.locations


def test_dead_pass_keeps_observed_destination():
    test = asm_lines(["MOV W1, #1", "SWP W1, W2, [X0]"], "0:W2 = 0")
    assert dead_register_pass(test).threads == test.threads


def test_dead_pass_keeps_destination_read_later():
    test = asm_lines(
        ["MOV W1, #1", "SWP W1, W2, [X0]", "STR W2, [X0]"], "x = 1")
    assert dead_register_pass(test).threads == test.threads


def test_dead_pass_liveness_ignores_redefinition():
    # W2 is redefined before the later read, but the pass deliberately
    # treats any later appearance as keeping the swap's destination alive
    test = asm_lines(
        ["MOV W1, #1", "SWP W1, W2, [X0]", "MOV W2, #1", "STR W2, [X0]"],
        "x = 1")
    assert dead_register_pass(test).threads == test.threads


def test_dead_pass_leaves_plain_loads_alone():
    test = asm_lines(["LDR W2, [X0]"], "x = 0")
    assert dead_register_pass(test).threads == test.threads


def test_dead_pass_idempotent(compiled_w15):
    once = dead_register_pass(compiled_w15)
    assert dead_register_pass(once) == once


def test_dead_pass_refuses_source(discard_source):
    with pytest.raises(LoweringError, match="asm tests"):
        dead_register_pass(discard_source)


def test_mapping_json_round_trip():
    mapping = Mapping({"P1:r0": "1:W3", "y": "y"}, {"y": "y"})
    payload = mapping.to_json_dict()
    assert Mapping.from_json_dict(payload) == mapping
    assert list(payload["observables"]) == ["P1:r0", "y"]


@pytest.mark.parametrize("payload", [
    [],
    {"observables": {}},
    {"observables": [], "locations": {}},
    {"observables": {"a": 3}, "locations": {}},
    {"observables": {3: "a"}, "locations": {}},
])
def test_mapping_rejects_malformed_json(payload):
    with pytest.raises(MappingError):
        Mapping.from_json_dict(payload)


def test_observe_variant_register_numbering():
    # a live exchange destination takes the next value register, pushing the
    # data load one up
    text = "\n".join([
        "C mp-observe", "", "{ x = 0; y = 0; }", "",
        "P0 {",
        "  atomic_store_explicit(x, 1, memory_order_relaxed);",
        "  atomic_store_explicit(y, 1, memory_order_release);",
        "}", "",
        "P1 {",
        "  int r1 = atomic_exchange_explicit(y, 2, memory_order_release);",
        "  atomic_thread_fence(memory_order_acquire);",
        "  int r0 = atomic_load_explicit(x, memory_order_relaxed);",
        "}", "",
        "exists (P1:r0 = 0 /\\ y = 2 /\\ P1:r1 = 1)", "",
    ])
    compiled, mapping = lower_test(parse_litmus(text))
    assert mapping.observables == {
        "P1:r0": "1:W4", "P1:r1": "1:W3", "x": "x", "y": "y"}
    assert mapping.locations == {"x": "x", "y": "y"}
    swp = compiled.thread(1).stmts[1]
    assert swp.mnemonic is Mnemonic.SWPL and swp.dst == "W3"
