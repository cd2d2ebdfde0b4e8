"""Sequentially consistent outcomes by interleaving whole statements.

The reference that ``allowed_outcomes(test, "sc")`` is checked against.
Independent on purpose: no events and no candidates, only a memoized
depth-first search over (program counters, memory, registers) states,
which runs every thread's statements in every interleaving.  An exchange
is one step, so it is atomic; fences do nothing.  Outcomes are projected
onto the exists clause with the ``litmus`` helpers alone.
"""

from litmusdiff.execution import Outcome
from litmusdiff.litmus import (
    MemoryObservable,
    Mnemonic,
    SourceStmt,
    StmtKind,
    SWP_FAMILY,
    ZERO_REGISTER,
    condition_observables,
    observable_label,
)


def _step(thread, stmt, mem, regs):
    """Apply one statement in place."""
    if isinstance(stmt, SourceStmt):
        if stmt.kind is StmtKind.STORE:
            mem[stmt.location] = stmt.value
        elif stmt.kind is StmtKind.LOAD:
            regs[(thread.tid, stmt.dest)] = mem[stmt.location]
        elif stmt.kind is StmtKind.EXCHANGE:
            old = mem[stmt.location]
            mem[stmt.location] = stmt.value
            if stmt.dest is not None:
                regs[(thread.tid, stmt.dest)] = old
        return
    bindings = thread.binding_map()

    def reg_value(reg):
        if reg == ZERO_REGISTER:
            return 0
        return regs[(thread.tid, reg)]

    m = stmt.mnemonic
    if m is Mnemonic.MOV:
        regs[(thread.tid, stmt.dst)] = stmt.imm
    elif m in (Mnemonic.LDR, Mnemonic.LDAR):
        regs[(thread.tid, stmt.dst)] = mem[bindings[stmt.addr]]
    elif m in (Mnemonic.STR, Mnemonic.STLR):
        mem[bindings[stmt.addr]] = reg_value(stmt.src)
    elif m in SWP_FAMILY:
        loc = bindings[stmt.addr]
        old = mem[loc]
        mem[loc] = reg_value(stmt.src)
        if stmt.dst != ZERO_REGISTER:
            regs[(thread.tid, stmt.dst)] = old


def _project(test, mem, regs):
    return Outcome.from_dict({
        observable_label(obs, test.dialect):
            mem[obs.location] if isinstance(obs, MemoryObservable)
            else regs[(obs.thread, obs.register)]
        for obs in condition_observables(test.final)})


def interleaving_outcomes(test):
    """The set of ``Outcome``s that some interleaving of the test's
    statements ends in."""
    locs = sorted(test.locations)
    outcomes = set()
    seen = set()

    def explore(pcs, mem, regs):
        state = (pcs, tuple(mem[loc] for loc in locs),
                 tuple(sorted(regs.items())))
        if state in seen:
            return
        seen.add(state)
        terminal = True
        for i, thread in enumerate(test.threads):
            if pcs[i] >= len(thread.stmts):
                continue
            terminal = False
            next_mem = dict(mem)
            next_regs = dict(regs)
            _step(thread, thread.stmts[pcs[i]], next_mem, next_regs)
            explore(pcs[:i] + (pcs[i] + 1,) + pcs[i + 1:], next_mem, next_regs)
        if terminal:
            outcomes.add(_project(test, mem, regs))

    explore(tuple(0 for _ in test.threads), dict(test.locations), {})
    return frozenset(outcomes)
