"""Source-to-asm translation and the dead destination rewrite.

The translation is deliberately plain: constants are materialized with MOV,
one fresh register per use, and each atomic maps to a single instruction.
Address registers X0, X1, ... are handed out over the sorted locations and
every thread gets the full set of bindings.  Value registers count up from
W<number of locations> within each thread, which leaves the low registers
for addresses in the printed form.  A discarded exchange result still needs
a destination register; those come from a scratch range starting at W15.
Each scratch register follows a fresh one from below W15, so the range
never runs past W28.
"""

from __future__ import annotations

import dataclasses

from .litmus import (
    AsmInstr,
    Dialect,
    DmbDomain,
    LitmusError,
    LitmusTest,
    MemoryObservable,
    MemoryOrder,
    Mnemonic,
    RegisterObservable,
    SourceStmt,
    StmtKind,
    SWP_FAMILY,
    Thread,
    ZERO_REGISTER,
    condition_observables,
    map_condition_observables,
    observable_label,
    validate_test,
)

SCRATCH_BASE = 15


class LoweringError(LitmusError):
    pass


class MappingError(LitmusError):
    pass


LOAD_MNEMONIC = {
    MemoryOrder.RELAXED: Mnemonic.LDR,
    MemoryOrder.ACQUIRE: Mnemonic.LDAR,
    MemoryOrder.SEQ_CST: Mnemonic.LDAR,
}
STORE_MNEMONIC = {
    MemoryOrder.RELAXED: Mnemonic.STR,
    MemoryOrder.RELEASE: Mnemonic.STLR,
    MemoryOrder.SEQ_CST: Mnemonic.STLR,
}
EXCHANGE_MNEMONIC = {
    MemoryOrder.RELAXED: Mnemonic.SWP,
    MemoryOrder.ACQUIRE: Mnemonic.SWPA,
    MemoryOrder.RELEASE: Mnemonic.SWPL,
    MemoryOrder.ACQ_REL: Mnemonic.SWPAL,
    MemoryOrder.SEQ_CST: Mnemonic.SWPAL,
}
FENCE_DOMAIN = {
    MemoryOrder.ACQUIRE: DmbDomain.LD,
    MemoryOrder.RELEASE: DmbDomain.SY,
    MemoryOrder.ACQ_REL: DmbDomain.SY,
    MemoryOrder.SEQ_CST: DmbDomain.SY,
}


@dataclasses.dataclass(frozen=True)
class Mapping:
    """How source observables read off a compiled test.

    ``observables`` maps printed source labels (``P1:r0``, ``y``) to printed
    asm labels; ``locations`` maps source locations to asm locations.
    """

    observables: dict[str, str]
    locations: dict[str, str]

    def to_json_dict(self) -> dict:
        return {
            "observables": dict(sorted(self.observables.items())),
            "locations": dict(sorted(self.locations.items())),
        }

    @staticmethod
    def from_json_dict(data) -> "Mapping":
        if not isinstance(data, dict):
            raise MappingError("mapping must be a JSON object")
        for key in ("observables", "locations"):
            if key not in data or not isinstance(data[key], dict):
                raise MappingError(f"mapping needs an object under {key!r}")
            for name, target in data[key].items():
                if not isinstance(name, str) or not isinstance(target, str):
                    raise MappingError(f"bad entry {name!r} under {key!r}")
        return Mapping(dict(data["observables"]), dict(data["locations"]))


class _RegisterAllocator:
    def __init__(self, floor: int):
        self.next_value = floor
        self.next_scratch = SCRATCH_BASE

    def fresh(self) -> str:
        if self.next_value >= SCRATCH_BASE:
            raise LoweringError(
                f"register budget exhausted: thread needs more than "
                f"W{SCRATCH_BASE - 1}")
        reg = f"W{self.next_value}"
        self.next_value += 1
        return reg

    def scratch(self) -> str:
        reg = f"W{self.next_scratch}"
        self.next_scratch += 1
        return reg


def _lower_thread(
    thread: Thread, addr_regs: dict[str, str]
) -> tuple[Thread, dict[str, str]]:
    alloc = _RegisterAllocator(len(addr_regs))
    instrs: list[AsmInstr] = []
    reg_map: dict[str, str] = {}
    for stmt in thread.stmts:
        assert isinstance(stmt, SourceStmt)
        if stmt.kind is StmtKind.STORE:
            tmp = alloc.fresh()
            instrs.append(AsmInstr(Mnemonic.MOV, dst=tmp, imm=stmt.value))
            instrs.append(AsmInstr(STORE_MNEMONIC[stmt.order], src=tmp,
                                   addr=addr_regs[stmt.location]))
        elif stmt.kind is StmtKind.LOAD:
            dst = alloc.fresh()
            instrs.append(AsmInstr(LOAD_MNEMONIC[stmt.order], dst=dst,
                                   addr=addr_regs[stmt.location]))
            reg_map[stmt.dest] = dst
        elif stmt.kind is StmtKind.EXCHANGE:
            tmp = alloc.fresh()
            instrs.append(AsmInstr(Mnemonic.MOV, dst=tmp, imm=stmt.value))
            dst = alloc.fresh() if stmt.dest is not None else alloc.scratch()
            instrs.append(AsmInstr(EXCHANGE_MNEMONIC[stmt.order], src=tmp,
                                   dst=dst, addr=addr_regs[stmt.location]))
            if stmt.dest is not None:
                reg_map[stmt.dest] = dst
        else:
            instrs.append(AsmInstr(Mnemonic.DMB, domain=FENCE_DOMAIN[stmt.order]))
    bindings = tuple(sorted(addr_regs.items(), key=lambda kv: kv[1]))
    bindings = tuple((reg, loc) for loc, reg in bindings)
    return Thread(thread.tid, tuple(instrs), bindings), reg_map


def lower_test(test: LitmusTest) -> tuple[LitmusTest, Mapping]:
    """Translate a source test to asm, returning the compiled test and the
    observable mapping for reading source outcomes off it."""
    if test.dialect is not Dialect.SOURCE:
        raise LoweringError("only source tests can be lowered")
    locations = test.sorted_locations()
    addr_regs = {loc: f"X{i}" for i, loc in enumerate(locations)}

    threads = []
    register_targets: dict[tuple[int, str], str] = {}
    for thread in test.threads:
        lowered, reg_map = _lower_thread(thread, addr_regs)
        threads.append(lowered)
        for src_reg, asm_reg in reg_map.items():
            register_targets[(thread.tid, src_reg)] = asm_reg

    observables: dict[str, str] = {}
    for (tid, src_reg), asm_reg in register_targets.items():
        source_label = observable_label(RegisterObservable(tid, src_reg),
                                        Dialect.SOURCE)
        asm_label = observable_label(RegisterObservable(tid, asm_reg), Dialect.ASM)
        observables[source_label] = asm_label
    for loc in locations:
        observables[loc] = loc
    mapping = Mapping(observables, {loc: loc for loc in locations})

    def translate(obs):
        if isinstance(obs, MemoryObservable):
            return obs
        try:
            return RegisterObservable(obs.thread,
                                      register_targets[(obs.thread, obs.register)])
        except KeyError:
            raise LoweringError(
                f"final condition reads P{obs.thread}:{obs.register}, which the "
                f"translation never materializes") from None

    final = map_condition_observables(test.final, translate)
    compiled = LitmusTest(f"{test.name}-compiled", Dialect.ASM,
                          dict(test.locations), tuple(threads), final)
    validate_test(compiled)
    return compiled, mapping


def _destination_live(thread: Thread, index: int, reg: str,
                      observed: set[tuple[int, str]]) -> bool:
    # Deliberately coarse: any later appearance as a source operand keeps
    # the register alive, redefinitions notwithstanding.
    for later in thread.stmts[index + 1:]:
        if reg in later.read_registers():
            return True
    return (thread.tid, reg) in observed


def dead_register_pass(test: LitmusTest) -> LitmusTest:
    """Rewrite the destination of an exchange to the zero register when the
    old value is never read and never observed.  Mirrors a compiler cleanup
    that treats architectural registers as thread-local state."""
    if test.dialect is not Dialect.ASM:
        raise LoweringError("the dead register pass runs on asm tests")
    observed = {
        (obs.thread, obs.register)
        for obs in _register_observables(test)
    }
    threads = []
    for thread in test.threads:
        instrs = list(thread.stmts)
        for i, instr in enumerate(instrs):
            if instr.mnemonic not in SWP_FAMILY or instr.dst == ZERO_REGISTER:
                continue
            if not _destination_live(thread, i, instr.dst, observed):
                instrs[i] = dataclasses.replace(instr, dst=ZERO_REGISTER)
        threads.append(Thread(thread.tid, tuple(instrs), thread.bindings))
    rewritten = LitmusTest(test.name, test.dialect, dict(test.locations),
                           tuple(threads), test.final)
    validate_test(rewritten)
    return rewritten


def _register_observables(test: LitmusTest):
    return [obs for obs in condition_observables(test.final)
            if isinstance(obs, RegisterObservable)]
