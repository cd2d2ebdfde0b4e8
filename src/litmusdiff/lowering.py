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
    register_label,
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


def _lower_thread(
    thread: Thread, addr_regs: dict[str, str],
    bindings: tuple[tuple[str, str], ...],
) -> tuple[Thread, dict[str, str]]:
    """A source thread's instructions, and where each of its registers
    went.  Values take W<locations> up to W14, one fresh register per
    use, and discarded exchange results take W15 upwards."""
    next_value, next_scratch = len(addr_regs), SCRATCH_BASE

    def fresh() -> str:
        nonlocal next_value
        if next_value >= SCRATCH_BASE:
            raise LoweringError(
                f"register budget exhausted: thread needs more than "
                f"W{SCRATCH_BASE - 1}")
        next_value += 1
        return f"W{next_value - 1}"

    instrs: list[AsmInstr] = []
    reg_map: dict[str, str] = {}
    for stmt in thread.stmts:
        assert isinstance(stmt, SourceStmt)
        kind = stmt.kind
        if kind is StmtKind.STORE:
            tmp = fresh()
            instrs.append(AsmInstr(Mnemonic.MOV, tmp, None, None, stmt.value))
            instrs.append(AsmInstr(STORE_MNEMONIC[stmt.order], None, tmp,
                                   addr_regs[stmt.location]))
        elif kind is StmtKind.LOAD:
            dst = fresh()
            instrs.append(AsmInstr(LOAD_MNEMONIC[stmt.order], dst, None,
                                   addr_regs[stmt.location]))
            reg_map[stmt.dest] = dst
        elif kind is StmtKind.EXCHANGE:
            tmp = fresh()
            instrs.append(AsmInstr(Mnemonic.MOV, tmp, None, None, stmt.value))
            if stmt.dest is not None:
                dst = reg_map[stmt.dest] = fresh()
            else:
                dst, next_scratch = f"W{next_scratch}", next_scratch + 1
            instrs.append(AsmInstr(EXCHANGE_MNEMONIC[stmt.order], dst, tmp,
                                   addr_regs[stmt.location]))
        else:
            instrs.append(AsmInstr(Mnemonic.DMB, domain=FENCE_DOMAIN[stmt.order]))
    return Thread(thread.tid, tuple(instrs), bindings), reg_map


def lower_test(test: LitmusTest) -> tuple[LitmusTest, Mapping]:
    """Translate a source test to asm, returning the compiled test and the
    observable mapping for reading source outcomes off it."""
    if test.dialect is not Dialect.SOURCE:
        raise LoweringError("only source tests can be lowered")
    locations = test.sorted_locations()
    addr_regs = {loc: f"X{i}" for i, loc in enumerate(locations)}
    # Every thread binds every address register, in register order.
    bindings = tuple((reg, loc) for loc, reg in
                     sorted(addr_regs.items(), key=lambda kv: kv[1]))

    threads = []
    observables: dict[str, str] = {}
    register_targets: dict[tuple[int, str], str] = {}
    for thread in test.threads:
        lowered, reg_map = _lower_thread(thread, addr_regs, bindings)
        threads.append(lowered)
        for src_reg, asm_reg in reg_map.items():
            register_targets[(thread.tid, src_reg)] = asm_reg
            observables[register_label(thread.tid, src_reg, Dialect.SOURCE)] = \
                register_label(thread.tid, asm_reg, Dialect.ASM)
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


def dead_register_pass(test: LitmusTest) -> LitmusTest:
    """Rewrite the destination of an exchange to the zero register when the
    old value is never read and never observed.  Mirrors a compiler cleanup
    that treats architectural registers as thread-local state.

    Deliberately coarse: any later appearance as a source operand keeps the
    register alive, redefinitions notwithstanding.  Each thread is walked
    once from the end, gathering the registers read after each exchange."""
    if test.dialect is not Dialect.ASM:
        raise LoweringError("the dead register pass runs on asm tests")
    observed = {
        (obs.thread, obs.register)
        for obs in condition_observables(test.final)
        if isinstance(obs, RegisterObservable)
    }
    threads = []
    for thread in test.threads:
        stmts = instrs = thread.stmts
        read_later: set[str] = set()
        scanned = len(stmts)  # stmts[scanned:] are in read_later
        for i in range(len(stmts) - 1, -1, -1):
            instr = stmts[i]
            if instr.mnemonic not in SWP_FAMILY or instr.dst == ZERO_REGISTER:
                continue
            for later in stmts[i + 1:scanned]:
                read_later.update(later.read_registers())
            scanned = i + 1
            if instr.dst in read_later or (thread.tid, instr.dst) in observed:
                continue
            if instrs is stmts:
                instrs = list(stmts)
            instrs[i] = AsmInstr(instr.mnemonic, ZERO_REGISTER, instr.src,
                                 instr.addr, instr.imm, instr.domain)
        threads.append(Thread(thread.tid, tuple(instrs), thread.bindings))
    rewritten = LitmusTest(test.name, test.dialect, dict(test.locations),
                           tuple(threads), test.final)
    validate_test(rewritten)
    return rewritten
