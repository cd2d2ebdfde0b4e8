"""Core litmus test representation shared by both input dialects.

A litmus test is an initial state, a handful of straight-line threads, and
an ``exists`` clause over final register and memory values.  The same
:class:`LitmusTest` container is used for the source dialect (C-like atomic
calls) and the asm dialect (AArch64 instructions); ``dialect`` says which
kind of statement the threads hold.
"""

from __future__ import annotations

import dataclasses
import enum
import re
from typing import Iterator, Mapping

MAX_LOCATIONS = 4
MAX_THREADS = 4
MAX_STATEMENTS_PER_THREAD = 8
# Translation emits at most two instructions per source statement, so asm
# threads get twice the headroom.
MAX_INSTRUCTIONS_PER_THREAD = 16
MIN_VALUE = 0
MAX_VALUE = 7

ZERO_REGISTER = "WZR"


class LitmusError(Exception):
    """Base class for everything this package raises on purpose."""


class ParseError(LitmusError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class UnsupportedConstructError(ParseError):
    """Input is recognizable but outside the supported fragment."""


class ValidationError(LitmusError):
    pass


class Dialect(enum.Enum):
    SOURCE = "source"
    ASM = "asm"


class MemoryOrder(enum.Enum):
    RELAXED = "relaxed"
    ACQUIRE = "acquire"
    RELEASE = "release"
    ACQ_REL = "acq_rel"
    SEQ_CST = "seq_cst"


LOAD_ORDERS = frozenset({MemoryOrder.RELAXED, MemoryOrder.ACQUIRE, MemoryOrder.SEQ_CST})
STORE_ORDERS = frozenset({MemoryOrder.RELAXED, MemoryOrder.RELEASE, MemoryOrder.SEQ_CST})
FENCE_ORDERS = frozenset(
    {MemoryOrder.ACQUIRE, MemoryOrder.RELEASE, MemoryOrder.ACQ_REL, MemoryOrder.SEQ_CST}
)


class StmtKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    EXCHANGE = "exchange"
    FENCE = "fence"


@dataclasses.dataclass(frozen=True)
class SourceStmt:
    """One atomic operation in the source dialect.

    ``dest`` is the register receiving a loaded value; for an exchange it is
    optional (the returned old value may be discarded).  Stored values are
    always small integer constants.
    """

    kind: StmtKind
    order: MemoryOrder
    location: str | None = None
    value: int | None = None
    dest: str | None = None

    def defined_register(self) -> str | None:
        if self.kind in (StmtKind.LOAD, StmtKind.EXCHANGE):
            return self.dest
        return None


class Mnemonic(enum.Enum):
    MOV = "MOV"
    LDR = "LDR"
    LDAR = "LDAR"
    STR = "STR"
    STLR = "STLR"
    SWP = "SWP"
    SWPA = "SWPA"
    SWPL = "SWPL"
    SWPAL = "SWPAL"
    DMB = "DMB"


# What each instruction is: (the statement kind it acts as, whether it
# acquires, whether it releases).  MOV's kind is None: it makes no event,
# only register state.  No instruction is seq_cst.
ASM_FORMS = {
    Mnemonic.MOV: (None, False, False),
    Mnemonic.LDR: (StmtKind.LOAD, False, False),
    Mnemonic.LDAR: (StmtKind.LOAD, True, False),
    Mnemonic.STR: (StmtKind.STORE, False, False),
    Mnemonic.STLR: (StmtKind.STORE, False, True),
    Mnemonic.SWP: (StmtKind.EXCHANGE, False, False),
    Mnemonic.SWPA: (StmtKind.EXCHANGE, True, False),
    Mnemonic.SWPL: (StmtKind.EXCHANGE, False, True),
    Mnemonic.SWPAL: (StmtKind.EXCHANGE, True, True),
    Mnemonic.DMB: (StmtKind.FENCE, False, False),
}
# The operand fields an instruction of each kind takes, those it does not
# take, and how an error names the former when one is missing.
_ASM_FIELDS = ("dst", "src", "addr", "imm", "domain")
ASM_OPERANDS = {
    kind: (fields, tuple(f for f in _ASM_FIELDS if f not in fields), needs)
    for kind, fields, needs in [
        (None, ("dst", "imm"), "a register and an immediate"),
        (StmtKind.LOAD, ("dst", "addr"), "a register and an address"),
        (StmtKind.STORE, ("src", "addr"), "a register and an address"),
        (StmtKind.EXCHANGE, ("src", "dst", "addr"), "two registers and an address"),
        (StmtKind.FENCE, ("domain",), "a domain"),
    ]
}
SWP_FAMILY = frozenset(
    m for m, (kind, _, _) in ASM_FORMS.items() if kind is StmtKind.EXCHANGE)
SWP_ACQUIRE = frozenset({Mnemonic.SWPA, Mnemonic.SWPAL})
SWP_RELEASE = frozenset({Mnemonic.SWPL, Mnemonic.SWPAL})


class DmbDomain(enum.Enum):
    LD = "ISHLD"
    ST = "ISHST"
    SY = "ISH"


@dataclasses.dataclass(frozen=True)
class AsmInstr:
    """One AArch64 instruction.  Its mnemonic's row of ``ASM_FORMS`` gives
    its kind, and ``ASM_OPERANDS`` the fields that kind takes."""

    mnemonic: Mnemonic
    dst: str | None = None
    src: str | None = None
    addr: str | None = None
    imm: int | None = None
    domain: DmbDomain | None = None

    @property
    def kind(self) -> StmtKind | None:
        """The statement kind the instruction acts as; None for MOV."""
        return ASM_FORMS[self.mnemonic][0]

    def defined_register(self) -> str | None:
        # WZR is a value sink, not a definition.
        kind = self.kind
        if kind is None or kind is StmtKind.LOAD or (
                kind is StmtKind.EXCHANGE and self.dst != ZERO_REGISTER):
            return self.dst
        return None

    def read_registers(self) -> tuple[str, ...]:
        if self.kind in (StmtKind.STORE, StmtKind.EXCHANGE):
            assert self.src is not None
            return (self.src,)
        return ()


Stmt = SourceStmt | AsmInstr


@dataclasses.dataclass(frozen=True)
class Thread:
    tid: int
    stmts: tuple[Stmt, ...]
    # asm only: address register name -> location it points at
    bindings: tuple[tuple[str, str], ...] = ()

    def binding_map(self) -> dict[str, str]:
        return dict(self.bindings)

    def defined_registers(self) -> list[str]:
        regs = []
        for stmt in self.stmts:
            reg = stmt.defined_register()
            if reg is not None and reg not in regs:
                regs.append(reg)
        return regs


@dataclasses.dataclass(frozen=True)
class RegisterObservable:
    thread: int
    register: str


@dataclasses.dataclass(frozen=True)
class MemoryObservable:
    location: str


Observable = RegisterObservable | MemoryObservable


def observable_label(obs: Observable, dialect: Dialect) -> str:
    """Render an observable the way the dialect's exists clause spells it."""
    if isinstance(obs, MemoryObservable):
        return obs.location
    return register_label(obs.thread, obs.register, dialect)


def register_label(tid: int, register: str, dialect: Dialect) -> str:
    """How the dialect's exists clause spells thread ``tid``'s register."""
    if dialect is Dialect.SOURCE:
        return f"P{tid}:{register}"
    return f"{tid}:{register}"


@dataclasses.dataclass(frozen=True)
class Atom:
    observable: Observable
    value: int


@dataclasses.dataclass(frozen=True)
class Conj:
    left: "FinalCondition"
    right: "FinalCondition"


@dataclasses.dataclass(frozen=True)
class Disj:
    left: "FinalCondition"
    right: "FinalCondition"


@dataclasses.dataclass(frozen=True)
class Neg:
    operand: "FinalCondition"


FinalCondition = Atom | Conj | Disj | Neg


def condition_atoms(cond: FinalCondition) -> Iterator[Atom]:
    """The condition's atoms, left to right."""
    stack = [cond]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            yield node
        elif isinstance(node, Neg):
            stack.append(node.operand)
        else:
            left = node.left
            stack.append(node.right)
            stack.append(left)


def condition_observables(cond: FinalCondition) -> list[Observable]:
    """Observables mentioned by the condition, first occurrence order."""
    seen: list[Observable] = []
    for atom in condition_atoms(cond):
        if atom.observable not in seen:
            seen.append(atom.observable)
    return seen


def evaluate_condition(
    cond: FinalCondition, dialect: Dialect, values: Mapping[str, int]
) -> bool:
    """Evaluate against a label -> value map (one final state)."""
    if isinstance(cond, Atom):
        return values[observable_label(cond.observable, dialect)] == cond.value
    if isinstance(cond, Neg):
        return not evaluate_condition(cond.operand, dialect, values)
    if isinstance(cond, Conj):
        return evaluate_condition(cond.left, dialect, values) and evaluate_condition(
            cond.right, dialect, values
        )
    return evaluate_condition(cond.left, dialect, values) or evaluate_condition(
        cond.right, dialect, values
    )


def map_condition_observables(cond: FinalCondition, fn) -> FinalCondition:
    if isinstance(cond, Atom):
        return Atom(fn(cond.observable), cond.value)
    if isinstance(cond, Neg):
        return Neg(map_condition_observables(cond.operand, fn))
    ctor = Conj if isinstance(cond, Conj) else Disj
    return ctor(
        map_condition_observables(cond.left, fn),
        map_condition_observables(cond.right, fn),
    )


@dataclasses.dataclass
class LitmusTest:
    name: str
    dialect: Dialect
    locations: dict[str, int]
    threads: tuple[Thread, ...]
    final: FinalCondition

    def thread(self, tid: int) -> Thread:
        for t in self.threads:
            if t.tid == tid:
                return t
        raise KeyError(tid)

    def sorted_locations(self) -> list[str]:
        return sorted(self.locations)


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_.+-]*")
_LOC_RE = re.compile(r"[a-z][A-Za-z0-9_]*")
# W0 to W30 and X0 to X30, written without leading zeros (W030 is no name
# for W30); WZR is not among them.  The sets hold the ASCII spellings; the
# patterns, whose ``\d`` takes any Unicode decimal digit as a source
# register's digits do, answer for every other string.
W_REGISTERS = frozenset(f"W{i}" for i in range(31))
X_REGISTERS = frozenset(f"X{i}" for i in range(31))
_ASM_W_RE = re.compile(r"W(?:[12]?\d|30)")
_ASM_X_RE = re.compile(r"X(?:[12]?\d|30)")


def is_w_register(reg: str) -> bool:
    """Whether ``reg`` names one of W0 to W30."""
    try:
        return reg in W_REGISTERS or _ASM_W_RE.fullmatch(reg) is not None
    except TypeError:  # reg is no string
        return False


def is_x_register(reg: str) -> bool:
    """Whether ``reg`` names one of the address registers X0 to X30."""
    try:
        return reg in X_REGISTERS or _ASM_X_RE.fullmatch(reg) is not None
    except TypeError:  # reg is no string
        return False


def _is_source_register(reg: str) -> bool:
    """Whether ``reg`` is ``r`` and one or more decimal digits (``r7``)."""
    return isinstance(reg, str) and reg[:1] == "r" and reg[1:].isdecimal()


def _check_value(value: int, what: str) -> None:
    if type(value) is not int:  # a bool is no value either
        raise ValidationError(f"{what} {value!r} is not an integer")
    if not (MIN_VALUE <= value <= MAX_VALUE):
        raise ValidationError(
            f"{what} {value} outside supported range {MIN_VALUE}..{MAX_VALUE}"
        )


def _validate_source_stmt(stmt: SourceStmt, declared: set[str], defined: set[str]) -> None:
    if not isinstance(stmt.kind, StmtKind):
        raise ValidationError(f"unknown statement kind {stmt.kind!r}")
    if not isinstance(stmt.order, MemoryOrder):
        raise ValidationError(f"unknown memory order {stmt.order!r}")
    if stmt.kind is StmtKind.FENCE:
        if stmt.order not in FENCE_ORDERS:
            raise ValidationError(f"fence cannot use order {stmt.order.value}")
        if stmt.location is not None or stmt.dest is not None or stmt.value is not None:
            raise ValidationError("fence takes no location, value, or register")
        return
    if stmt.location is None:
        raise ValidationError(f"{stmt.kind.value} needs a location")
    if not isinstance(stmt.location, str) or stmt.location not in declared:
        raise ValidationError(f"undeclared location {stmt.location!r}")
    if stmt.kind is StmtKind.LOAD:
        if stmt.order not in LOAD_ORDERS:
            raise ValidationError(f"load cannot use order {stmt.order.value}")
        if stmt.dest is None:
            raise ValidationError("load needs a destination register")
        if stmt.value is not None:
            raise ValidationError("load takes no stored value")
    elif stmt.kind is StmtKind.STORE:
        if stmt.order not in STORE_ORDERS:
            raise ValidationError(f"store cannot use order {stmt.order.value}")
        if stmt.value is None:
            raise ValidationError("store needs a value")
        if stmt.dest is not None:
            raise ValidationError("store defines no register")
        _check_value(stmt.value, "stored value")
    else:  # exchange accepts every order
        if stmt.value is None:
            raise ValidationError("exchange needs a value")
        _check_value(stmt.value, "stored value")
    dest = stmt.defined_register()
    if dest is not None:
        if not _is_source_register(dest):
            raise ValidationError(f"bad source register name {dest!r}")
        if dest in defined:
            raise ValidationError(f"register {dest} defined twice")
        defined.add(dest)


def _validate_asm_instr(
    instr: AsmInstr, bindings: dict[str, str], defined: set[str]
) -> None:
    m = instr.mnemonic
    if not isinstance(m, Mnemonic):
        raise ValidationError(f"unknown mnemonic {m!r}")
    kind = instr.kind
    if (kind is None or kind is StmtKind.LOAD) and instr.dst == ZERO_REGISTER:
        raise ValidationError(f"{m.value} to the zero register is not supported")
    operands, untaken, needs = ASM_OPERANDS[kind]
    for field in operands:
        if getattr(instr, field) is None:
            raise ValidationError(f"{m.value} needs {needs}")
    for field in untaken:
        if getattr(instr, field) is not None:
            raise ValidationError(f"{m.value} takes no {field} operand")
    if kind is StmtKind.FENCE:  # no address, no registers
        if not isinstance(instr.domain, DmbDomain):
            raise ValidationError(f"unknown barrier domain {instr.domain!r}")
        return
    if kind is None:
        _check_value(instr.imm, "immediate")
    if instr.addr is not None:
        if not is_x_register(instr.addr):
            raise ValidationError(f"bad address register {instr.addr!r}")
        if instr.addr not in bindings:
            raise ValidationError(f"address register {instr.addr} bound to no location")
    for reg in instr.read_registers():
        if reg == ZERO_REGISTER:
            continue
        if not is_w_register(reg):
            raise ValidationError(f"bad register name {reg!r}")
        if reg not in defined:
            raise ValidationError(f"register {reg} read before any definition")
    dest = instr.defined_register()
    if dest is not None:
        if not is_w_register(dest):
            raise ValidationError(f"bad register name {dest!r}")
        defined.add(dest)


def validate_test(test: LitmusTest) -> None:
    """Check the structural invariants; raise ValidationError on the first hole.

    It runs as the last step of every parse, lowering and dead-register
    rewrite and on every generated test, and stands behind programmatic
    construction too.  W and X names are looked up in the name sets
    above before any pattern is tried, and the final condition's registers
    are checked against the definitions that the statement loop collects.
    """
    if not _NAME_RE.fullmatch(test.name):
        raise ValidationError(f"bad test name {test.name!r}")
    if not test.locations:
        raise ValidationError("a test needs at least one location")
    if len(test.locations) > MAX_LOCATIONS:
        raise ValidationError(f"more than {MAX_LOCATIONS} locations")
    for loc, init in test.locations.items():
        if not _LOC_RE.fullmatch(loc):
            raise ValidationError(f"bad location name {loc!r}")
        _check_value(init, f"initial value of {loc}")
    if not test.threads:
        raise ValidationError("a test needs at least one thread")
    if len(test.threads) > MAX_THREADS:
        raise ValidationError(f"more than {MAX_THREADS} threads")
    if [t.tid for t in test.threads] != list(range(len(test.threads))):
        raise ValidationError("thread ids must be P0, P1, ... without gaps")
    declared = test.locations
    source = test.dialect is Dialect.SOURCE
    stmt_limit = MAX_STATEMENTS_PER_THREAD if source else MAX_INSTRUCTIONS_PER_THREAD
    defined_by_thread: dict[int, set[str]] = {}
    for thread in test.threads:
        if len(thread.stmts) > stmt_limit:
            raise ValidationError(
                f"P{thread.tid} has more than {stmt_limit} statements"
            )
        if source and thread.bindings:
            raise ValidationError("source threads carry no address bindings")
        bindings = dict(thread.bindings)
        for reg, loc in bindings.items():
            if not is_x_register(reg):
                raise ValidationError(f"bad address register {reg!r}")
            if loc not in declared:
                raise ValidationError(f"address register {reg} bound to undeclared {loc!r}")
        defined_by_thread[thread.tid] = defined = set()
        for stmt in thread.stmts:
            if source:
                if not isinstance(stmt, SourceStmt):
                    raise ValidationError("asm instruction in a source test")
                _validate_source_stmt(stmt, declared, defined)
            else:
                if not isinstance(stmt, AsmInstr):
                    raise ValidationError("source statement in an asm test")
                _validate_asm_instr(stmt, bindings, defined)
    for atom in condition_atoms(test.final):
        _check_value(atom.value, "final condition value")
        obs = atom.observable
        if isinstance(obs, MemoryObservable):
            if obs.location not in declared:
                raise ValidationError(
                    f"final condition uses undeclared location {obs.location!r}")
            continue
        defined = defined_by_thread.get(obs.thread)
        if defined is None:
            raise ValidationError(f"final condition names unknown thread P{obs.thread}")
        if obs.register not in defined:
            raise ValidationError(
                f"final condition reads register {obs.register} never written by P{obs.thread}"
            )
