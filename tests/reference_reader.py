"""The reader and validator that ``litmusdiff.syntax`` and
``litmusdiff.litmus.validate_test`` replaced, kept as the reference their
laws compare against (``tests/test_properties.py``).

The reader tries each statement pattern in turn and strips lines again as
it peeks; the validator checks names by regex, and each atom of the final
condition against a fresh list of its thread's definitions.  The
intended differences from the code they came from: the five name patterns
must match in full, where ``$`` also let a name end in a newline, and the
validator refuses a field of the wrong type (a name that is no string, a
value that is no integer or is a bool, a domain that is no ``DmbDomain``),
which that code let through or crashed on.
"""

from __future__ import annotations

import re
from typing import Iterator

from litmusdiff.litmus import (
    AsmInstr,
    Atom,
    Conj,
    Dialect,
    Disj,
    DmbDomain,
    FENCE_ORDERS,
    FinalCondition,
    LOAD_ORDERS,
    LitmusTest,
    MAX_INSTRUCTIONS_PER_THREAD,
    MAX_LOCATIONS,
    MAX_STATEMENTS_PER_THREAD,
    MAX_THREADS,
    MAX_VALUE,
    MIN_VALUE,
    MemoryObservable,
    MemoryOrder,
    Mnemonic,
    Neg,
    Observable,
    ParseError,
    RegisterObservable,
    STORE_ORDERS,
    SourceStmt,
    StmtKind,
    Thread,
    UnsupportedConstructError,
    ValidationError,
    ZERO_REGISTER,
)


_ORDER_BY_TOKEN = {f"memory_order_{o.value}": o for o in MemoryOrder}

_BRANCH_KEYWORD_RE = re.compile(r"(for|while|if|do|switch|goto)\b")
_ATOMIC_CALL_RE = re.compile(r"(?:int\s+r\d+\s*=\s*)?(atomic_\w+)\s*\(")

_STORE_RE = re.compile(
    r"atomic_store_explicit\s*\(\s*(\w+)\s*,\s*(-?\d+)\s*,\s*(\w+)\s*\)\s*;$"
)
_LOAD_RE = re.compile(
    r"int\s+(\w+)\s*=\s*atomic_load_explicit\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)\s*;$"
)
_XCHG_RE = re.compile(
    r"(?:int\s+(\w+)\s*=\s*)?atomic_exchange_explicit"
    r"\s*\(\s*(\w+)\s*,\s*(-?\d+)\s*,\s*(\w+)\s*\)\s*;$"
)
_FENCE_RE = re.compile(r"atomic_thread_fence\s*\(\s*(\w+)\s*\)\s*;$")

# The parameter list is optional; P0 { ... } is accepted too.
_SRC_THREAD_RE = re.compile(r"P(\d+)\s*(?:\(([^)]*)\))?\s*\{$")
_PARAM_RE = re.compile(r"atomic_int\s*\*\s*(\w+)$")

_ASM_THREAD_RE = re.compile(r"P(\d+):$")
_MOV_RE = re.compile(r"MOV\s+(\w+)\s*,\s*#(-?\d+)$")
_LDX_RE = re.compile(r"(LDAR|LDR)\s+(\w+)\s*,\s*\[\s*(\w+)\s*\]$")
_STX_RE = re.compile(r"(STLR|STR)\s+(\w+)\s*,\s*\[\s*(\w+)\s*\]$")
_SWP_RE = re.compile(r"(SWPAL|SWPA|SWPL|SWP)\s+(\w+)\s*,\s*(\w+)\s*,\s*\[\s*(\w+)\s*\]$")
_DMB_RE = re.compile(r"DMB\s+(\w+)$")

_INIT_LOC_RE = re.compile(r"(\w+)\s*=\s*(-?\d+)$")
_INIT_BIND_RE = re.compile(r"(\d+)\s*:\s*(\w+)\s*=\s*(\w+)$")

_KNOWN_MNEMONICS = {m.value for m in Mnemonic}

_DMB_DOMAINS = {
    "ISH": DmbDomain.SY,
    "SY": DmbDomain.SY,
    "ISHLD": DmbDomain.LD,
    "LD": DmbDomain.LD,
    "ISHST": DmbDomain.ST,
    "ST": DmbDomain.ST,
}


def _column(raw_line: str) -> int:
    stripped = raw_line.lstrip()
    return len(raw_line) - len(stripped) + 1


def _integer(token: str, line_no: int, col: int = 1) -> int:
    """The value of an integer token; ``int`` refuses one that is too long."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"integer of {len(token.lstrip('-'))} digits is too "
                         "long", line_no, col) from None


class _Cursor:
    """Walks the input line by line, remembering positions for errors."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.index = 0

    def eof(self) -> bool:
        return self.index >= len(self.lines)

    def peek(self) -> str | None:
        """Next non-blank line, without consuming it."""
        while self.index < len(self.lines) and not self.lines[self.index].strip():
            self.index += 1
        if self.eof():
            return None
        return self.lines[self.index]

    def take(self, expectation: str) -> tuple[str, int]:
        line = self.peek()
        if line is None:
            raise ParseError(f"unexpected end of input, expected {expectation}",
                             len(self.lines) or 1)
        self.index += 1
        return line, self.index


_HEADER_DIALECTS = {"C": Dialect.SOURCE, "AArch64": Dialect.ASM}


def parse_litmus(text: str) -> LitmusTest:
    """Parse either dialect, picking by the header keyword.  One leading
    byte-order mark (U+FEFF), as some editors write, is skipped."""
    cursor = _Cursor(text.removeprefix("\ufeff"))
    if cursor.peek() is None:
        raise ParseError("empty input", 1)
    line, line_no = cursor.take("a header")
    parts = line.split()
    dialect = _HEADER_DIALECTS.get(parts[0])
    if dialect is None:
        raise ParseError(f"expected a 'C' or 'AArch64' header, got {parts[0]!r}",
                         line_no, _column(line))
    if len(parts) != 2:
        raise ParseError(f"expected '{parts[0]} <name>' header", line_no, _column(line))

    locations: dict[str, int] = {}
    bindings: dict[int, dict[str, str]] = {}
    bound_at: dict[int, int] = {}  # thread id -> line of its first binding
    for entry, entry_no in _parse_init_entries(cursor):
        m = dialect is Dialect.ASM and _INIT_BIND_RE.match(entry)
        if m:
            tid, reg = _integer(m.group(1), entry_no), m.group(2)
            if not is_x_register(reg):
                raise ParseError(f"bad address register {reg!r}", entry_no)
            bound_at.setdefault(tid, entry_no)
            thread_bindings = bindings.setdefault(tid, {})
            if reg in thread_bindings:
                raise ParseError(f"address register {tid}:{reg} bound twice", entry_no)
            thread_bindings[reg] = m.group(3)
            continue
        m = _INIT_LOC_RE.match(entry)
        if not m:
            raise ParseError(f"cannot parse initial state entry {entry!r}", entry_no)
        loc = m.group(1)
        if loc in locations:
            raise ParseError(f"location {loc!r} initialized twice", entry_no)
        locations[loc] = _integer(m.group(2), entry_no)

    threads = []
    headers: dict[int, tuple[int, int]] = {}  # thread id -> line, column
    while True:
        line, line_no = cursor.take("exists clause")
        if line.strip().startswith("exists"):
            break
        if dialect is Dialect.SOURCE:
            tid, stmts = _parse_source_thread(cursor, line, line_no, locations)
        else:
            tid, stmts = _parse_asm_thread(cursor, line, line_no)
        if tid in headers:
            raise ParseError(f"thread P{tid} given twice", line_no, _column(line))
        headers[tid] = line_no, _column(line)
        threads.append(Thread(tid, stmts, tuple(bindings.get(tid, {}).items())))
    threads.sort(key=lambda t: t.tid)
    for tid in bindings:
        if tid not in headers:
            raise ParseError(f"bindings given for missing thread P{tid}",
                             bound_at[tid])
    for expected, thread in enumerate(threads):
        if thread.tid != expected:
            raise ParseError(f"thread P{expected} missing", *headers[thread.tid])

    final = _parse_exists(cursor, line, line_no, dialect)
    test = LitmusTest(parts[1], dialect, locations, tuple(threads), final)
    validate_test(test)
    return test


def _parse_order(token: str, line_no: int, col: int) -> MemoryOrder:
    if token == "memory_order_consume":
        raise UnsupportedConstructError(
            "memory_order_consume is outside the supported fragment", line_no, col
        )
    try:
        return _ORDER_BY_TOKEN[token]
    except KeyError:
        raise ParseError(f"unknown memory order {token!r}", line_no, col) from None


def _parse_init_entries(cursor: _Cursor) -> list[tuple[str, int]]:
    """Collect ``entry ;`` items between braces; each comes with its line."""
    line, line_no = cursor.take("an initial state block in braces")
    stripped = line.strip()
    if not stripped.startswith("{"):
        raise ParseError("expected '{' opening the initial state", line_no, _column(line))
    body_parts = [(stripped[1:], line_no)]
    while "}" not in body_parts[-1][0]:
        line, line_no = cursor.take("'}' closing the initial state")
        body_parts.append((line.strip(), line_no))
    last, last_no = body_parts[-1]
    closing = last.index("}")
    if last[closing + 1:].strip():
        raise ParseError("unexpected text after '}'", last_no, _column(line))
    body_parts[-1] = (last[:closing], last_no)

    entries = []
    for chunk, chunk_line in body_parts:
        for piece in chunk.split(";"):
            piece = piece.strip()
            if piece:
                entries.append((piece, chunk_line))
    return entries


def _parse_source_stmt(raw: str, line_no: int) -> SourceStmt:
    text = raw.strip()
    col = _column(raw)
    if _BRANCH_KEYWORD_RE.match(text):
        raise UnsupportedConstructError(
            "loops and branches are outside the supported fragment", line_no, col
        )

    m = _STORE_RE.match(text)
    if m:
        order = _parse_order(m.group(3), line_no, col + m.start(3))
        value = _integer(m.group(2), line_no, col + m.start(2))
        return SourceStmt(StmtKind.STORE, order, location=m.group(1), value=value)
    m = _LOAD_RE.match(text)
    if m:
        order = _parse_order(m.group(3), line_no, col + m.start(3))
        return SourceStmt(StmtKind.LOAD, order, location=m.group(2), dest=m.group(1))
    m = _XCHG_RE.match(text)
    if m:
        order = _parse_order(m.group(4), line_no, col + m.start(4))
        return SourceStmt(
            StmtKind.EXCHANGE, order, location=m.group(2),
            value=_integer(m.group(3), line_no, col + m.start(3)),
            dest=m.group(1),
        )
    m = _FENCE_RE.match(text)
    if m:
        order = _parse_order(m.group(1), line_no, col + m.start(1))
        if order is MemoryOrder.RELAXED:
            raise ParseError("a relaxed fence has no effect", line_no,
                             col + m.start(1))
        return SourceStmt(StmtKind.FENCE, order)

    m = _ATOMIC_CALL_RE.match(text)
    if m:
        name = m.group(1)
        if name in ("atomic_store_explicit", "atomic_load_explicit",
                    "atomic_exchange_explicit", "atomic_thread_fence"):
            raise ParseError(f"malformed {name} call", line_no, col)
        raise UnsupportedConstructError(f"unsupported operation {name}", line_no, col)
    raise ParseError("cannot parse statement", line_no, col)


def _parse_source_thread(
    cursor: _Cursor, header: str, line_no: int, locations: dict[str, int]
) -> tuple[int, tuple[SourceStmt, ...]]:
    m = _SRC_THREAD_RE.match(header.strip())
    if not m:
        raise ParseError("expected 'Pn (...) {' or 'exists (...)'",
                         line_no, _column(header))
    tid = _integer(m.group(1), line_no, _column(header) + m.start(1))
    params = (m.group(2) or "").strip()
    if params:
        for param in params.split(","):
            pm = _PARAM_RE.match(param.strip())
            if not pm:
                raise ParseError(f"cannot parse parameter {param.strip()!r}",
                                 line_no, _column(header))
            if pm.group(1) not in locations:
                raise ParseError(f"undeclared location {pm.group(1)!r} in parameters",
                                 line_no, _column(header))
    stmts = []
    while True:
        body, body_no = cursor.take("'}' closing the thread body")
        if body.strip() == "}":
            return tid, tuple(stmts)
        stmts.append(_parse_source_stmt(body, body_no))


def _parse_w_reg(token: str, line_no: int, col: int, writer: str = "") -> str:
    """Check a W register operand.  ``writer`` names the mnemonic when the
    operand is a destination that the zero register cannot be."""
    if token == ZERO_REGISTER:
        if writer:
            raise ParseError(f"{writer} to the zero register is not supported",
                             line_no, col)
    elif not is_w_register(token):
        raise ParseError(f"bad register {token!r}", line_no, col)
    return token


def _parse_x_reg(token: str, line_no: int, col: int) -> str:
    """Check an address register operand."""
    if not is_x_register(token):
        raise ParseError(f"bad address register {token!r}", line_no, col)
    return token


def _parse_asm_instr(raw: str, line_no: int) -> AsmInstr:
    text = raw.strip()
    col = _column(raw)
    head = text.split(None, 1)[0].rstrip(",")
    if head not in _KNOWN_MNEMONICS:
        raise ParseError(f"unknown mnemonic {head!r}", line_no, col)

    m = _MOV_RE.match(text)
    if m:
        dst = _parse_w_reg(m.group(1), line_no, col + m.start(1), "MOV")
        imm = _integer(m.group(2), line_no, col + m.start(2))
        return AsmInstr(Mnemonic.MOV, dst=dst, imm=imm)
    m = _LDX_RE.match(text)
    if m:
        dst = _parse_w_reg(m.group(2), line_no, col + m.start(2), m.group(1))
        addr = _parse_x_reg(m.group(3), line_no, col + m.start(3))
        return AsmInstr(Mnemonic[m.group(1)], dst=dst, addr=addr)
    m = _STX_RE.match(text)
    if m:
        src = _parse_w_reg(m.group(2), line_no, col + m.start(2))
        addr = _parse_x_reg(m.group(3), line_no, col + m.start(3))
        return AsmInstr(Mnemonic[m.group(1)], src=src, addr=addr)
    m = _SWP_RE.match(text)
    if m:
        src = _parse_w_reg(m.group(2), line_no, col + m.start(2))
        dst = _parse_w_reg(m.group(3), line_no, col + m.start(3))
        addr = _parse_x_reg(m.group(4), line_no, col + m.start(4))
        return AsmInstr(Mnemonic[m.group(1)], src=src, dst=dst, addr=addr)
    m = _DMB_RE.match(text)
    if m:
        domain = _DMB_DOMAINS.get(m.group(1))
        if domain is None:
            raise ParseError(f"unknown barrier domain {m.group(1)!r}",
                             line_no, col + m.start(1))
        return AsmInstr(Mnemonic.DMB, domain=domain)
    raise ParseError(f"cannot parse {head} operands", line_no, col)


def _parse_asm_thread(
    cursor: _Cursor, header: str, line_no: int
) -> tuple[int, tuple[AsmInstr, ...]]:
    m = _ASM_THREAD_RE.match(header.strip())
    if not m:
        raise ParseError("expected 'Pn:' or 'exists (...)'", line_no, _column(header))
    tid = _integer(m.group(1), line_no, _column(header) + m.start(1))
    stmts = []
    while True:
        nxt = cursor.peek()
        if (nxt is None or nxt.strip().startswith("exists")
                or _ASM_THREAD_RE.match(nxt.strip())):
            return tid, tuple(stmts)
        body, body_no = cursor.take("an instruction")
        stmts.append(_parse_asm_instr(body, body_no))


# Final condition expressions.  Tokens: ( ) /\ \/ ~ and atoms 'obs = int'
# where obs is 'P1:r0', '1:W3', or a bare location.

# Deepest condition accepted: at most this many '~', '/\' and '\/' above
# any atom, inside at most twice as many '(' and '~' (as many as printing
# such a condition writes).  Parsing, printing and evaluating all recurse
# over conditions, so the bound keeps them far from the recursion limit.
MAX_CONDITION_DEPTH = 64

_COND_TOKEN_RE = re.compile(
    r"\s*(/\\|\\/|~|\(|\)|=|\w+:\w+|[A-Za-z_]\w*|\d+)"
)


class _CondParser:
    def __init__(self, text: str, line_no: int, offset: int, dialect: Dialect):
        self.text = text
        self.line_no = line_no
        self.offset = offset
        self.dialect = dialect
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _COND_TOKEN_RE.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ParseError("cannot tokenize condition", line_no,
                                     offset + pos + 1)
                break
            self.tokens.append((m.group(1), offset + m.start(1) + 1))
            pos = m.end()
        self.pos = 0
        self.open = 0  # '(' and '~' enclosing the current token

    def _error(self, message: str) -> ParseError:
        col = self.tokens[self.pos][1] if self.pos < len(self.tokens) else (
            self.offset + len(self.text) + 1)
        return ParseError(message, self.line_no, col)

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def eat(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise self._error(f"expected {expected!r}" if expected else
                              "unexpected end of condition")
        self.pos += 1
        return tok

    def parse(self) -> FinalCondition:
        cond, _ = self.disjunction()
        if self.peek() is not None:
            raise self._error(f"unexpected token {self.peek()!r}")
        return cond

    # Each rule returns its node and the node's depth in operators.  The
    # '(' and '~' around the current token are counted on the way in, since
    # the parser's own recursion follows them.

    def _level(self, depth: int, limit: int = MAX_CONDITION_DEPTH) -> int:
        if depth > limit:
            raise self._error(f"condition nested too deeply (more than "
                              f"{MAX_CONDITION_DEPTH} operators)")
        return depth

    def disjunction(self) -> tuple[FinalCondition, int]:
        node, depth = self.conjunction()
        while self.peek() == "\\/":
            self.eat()
            right, right_depth = self.conjunction()
            node = Disj(node, right)
            depth = self._level(max(depth, right_depth) + 1)
        return node, depth

    def conjunction(self) -> tuple[FinalCondition, int]:
        node, depth = self.unary()
        while self.peek() == "/\\":
            self.eat()
            right, right_depth = self.unary()
            node = Conj(node, right)
            depth = self._level(max(depth, right_depth) + 1)
        return node, depth

    def unary(self) -> tuple[FinalCondition, int]:
        tok = self.peek()
        if tok not in ("~", "("):
            return self.atom(), 0
        self.eat()
        self.open = self._level(self.open + 1, 2 * MAX_CONDITION_DEPTH)
        if tok == "~":
            node, depth = self.unary()
            node, depth = Neg(node), self._level(depth + 1)
        else:
            node, depth = self.disjunction()
            self.eat(")")
        self.open -= 1
        return node, depth

    def atom(self) -> Atom:
        tok = self.peek()
        if tok is None:
            raise self._error("unexpected end of condition")
        obs = self._observable(self.eat())
        self.eat("=")
        value_tok = self.eat()
        col = self.tokens[self.pos - 1][1]
        if not value_tok.isdigit():
            raise ParseError("expected an integer value", self.line_no, col)
        return Atom(obs, _integer(value_tok, self.line_no, col))

    def _observable(self, tok: str) -> Observable:
        if ":" in tok:
            left, reg = tok.split(":", 1)
            if self.dialect is Dialect.SOURCE:
                m = re.match(r"P(\d+)$", left)
                if not m:
                    raise self._error(f"bad observable {tok!r}")
            else:
                m = re.match(r"(\d+)$", left)
                if not m:
                    raise self._error(f"bad observable {tok!r}")
            tid = _integer(m.group(1), self.line_no,
                           self.tokens[self.pos - 1][1] + m.start(1))
            return RegisterObservable(tid, reg)
        if not re.match(r"[A-Za-z_]\w*$", tok):
            raise self._error(f"bad observable {tok!r}")
        return MemoryObservable(tok)


def _parse_exists(
    cursor: _Cursor, line: str, line_no: int, dialect: Dialect
) -> FinalCondition:
    """Parse the exists clause on ``line``, which must end the input."""
    rest = line.strip()[len("exists"):].strip()
    if not (rest.startswith("(") and rest.endswith(")")):
        raise ParseError("exists clause must be parenthesized", line_no, _column(line))
    inner_offset = line.index("(") + 1
    parser = _CondParser(rest[1:-1], line_no, inner_offset, dialect)
    cond = parser.parse()
    trailing = cursor.peek()
    if trailing is not None:
        raise ParseError("unexpected input after exists clause",
                         cursor.index + 1, _column(trailing))
    return cond


def condition_atoms(cond: FinalCondition) -> Iterator[Atom]:
    if isinstance(cond, Atom):
        yield cond
    elif isinstance(cond, Neg):
        yield from condition_atoms(cond.operand)
    else:
        yield from condition_atoms(cond.left)
        yield from condition_atoms(cond.right)


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_.+-]*")
_LOC_RE = re.compile(r"[a-z][A-Za-z0-9_]*")
_SRC_REG_RE = re.compile(r"r\d+")
_ASM_W_RE = re.compile(r"W(?:[12]?\d|30)")
_ASM_X_RE = re.compile(r"X(?:[12]?\d|30)")


def is_w_register(reg: str) -> bool:
    """Whether ``reg`` names one of W0 to W30, written without leading
    zeros (W030 is no name for W30); WZR is not among them."""
    return isinstance(reg, str) and _ASM_W_RE.fullmatch(reg) is not None


def is_x_register(reg: str) -> bool:
    """Whether ``reg`` names one of the address registers X0 to X30,
    written without leading zeros (X00 is no name for X0)."""
    return isinstance(reg, str) and _ASM_X_RE.fullmatch(reg) is not None


def _check_value(value: int, what: str) -> None:
    if type(value) is not int:  # a bool is no value either
        raise ValidationError(f"{what} {value!r} is not an integer")
    if not (MIN_VALUE <= value <= MAX_VALUE):
        raise ValidationError(
            f"{what} {value} outside supported range {MIN_VALUE}..{MAX_VALUE}"
        )


def _validate_source_stmt(stmt: SourceStmt, declared: set[str], defined: set[str]) -> None:
    if stmt.kind not in list(StmtKind):
        raise ValidationError(f"unknown statement kind {stmt.kind!r}")
    if stmt.order not in list(MemoryOrder):
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
        if not (isinstance(dest, str) and _SRC_REG_RE.fullmatch(dest)):
            raise ValidationError(f"bad source register name {dest!r}")
        if dest in defined:
            raise ValidationError(f"register {dest} defined twice")
        defined.add(dest)


def _check_unused(instr: AsmInstr, *fields: str) -> None:
    """Refuse an operand field, of those given in field order, that the
    instruction's mnemonic does not take."""
    for field in fields:
        if getattr(instr, field) is not None:
            raise ValidationError(f"{instr.mnemonic.value} takes no {field} operand")


def _validate_asm_instr(
    instr: AsmInstr, bindings: dict[str, str], defined: set[str]
) -> None:
    m = instr.mnemonic
    if m not in list(Mnemonic):
        raise ValidationError(f"unknown mnemonic {m!r}")
    if m is Mnemonic.DMB:
        if instr.domain is None:
            raise ValidationError("DMB needs a domain")
        _check_unused(instr, "dst", "src", "addr", "imm")
        if not isinstance(instr.domain, DmbDomain):
            raise ValidationError(f"unknown barrier domain {instr.domain!r}")
        return
    if m is Mnemonic.MOV:
        if instr.dst == ZERO_REGISTER:
            raise ValidationError("MOV to the zero register is not supported")
        if instr.dst is None or instr.imm is None:
            raise ValidationError("MOV needs a register and an immediate")
        _check_unused(instr, "src", "addr", "domain")
        _check_value(instr.imm, "immediate")
    elif m in (Mnemonic.LDR, Mnemonic.LDAR):
        if instr.dst == ZERO_REGISTER:
            raise ValidationError(f"{m.value} to the zero register is not supported")
        if instr.dst is None or instr.addr is None:
            raise ValidationError(f"{m.value} needs a register and an address")
        _check_unused(instr, "src", "imm", "domain")
    elif m in (Mnemonic.STR, Mnemonic.STLR):
        if instr.src is None or instr.addr is None:
            raise ValidationError(f"{m.value} needs a register and an address")
        _check_unused(instr, "dst", "imm", "domain")
    else:  # SWP family
        if instr.src is None or instr.dst is None or instr.addr is None:
            raise ValidationError(f"{m.value} needs two registers and an address")
        _check_unused(instr, "imm", "domain")
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


def _validate_observable(obs: Observable, test: LitmusTest) -> None:
    if isinstance(obs, MemoryObservable):
        if obs.location not in test.locations:
            raise ValidationError(f"final condition uses undeclared location {obs.location!r}")
        return
    try:
        thread = test.thread(obs.thread)
    except KeyError:
        raise ValidationError(f"final condition names unknown thread P{obs.thread}") from None
    if obs.register not in thread.defined_registers():
        raise ValidationError(
            f"final condition reads register {obs.register} never written by P{obs.thread}"
        )


def validate_test(test: LitmusTest) -> None:
    """Check the structural invariants; raise ValidationError on the first hole.

    Meant both as the last step of parsing and as a sanity net behind
    programmatic construction (generators, lowering).
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
    declared = set(test.locations)
    stmt_limit = (MAX_STATEMENTS_PER_THREAD if test.dialect is Dialect.SOURCE
                  else MAX_INSTRUCTIONS_PER_THREAD)
    for thread in test.threads:
        if len(thread.stmts) > stmt_limit:
            raise ValidationError(
                f"P{thread.tid} has more than {stmt_limit} statements"
            )
        if test.dialect is Dialect.SOURCE and thread.bindings:
            raise ValidationError("source threads carry no address bindings")
        bindings = thread.binding_map()
        for reg, loc in bindings.items():
            if not is_x_register(reg):
                raise ValidationError(f"bad address register {reg!r}")
            if loc not in declared:
                raise ValidationError(f"address register {reg} bound to undeclared {loc!r}")
        defined: set[str] = set()
        for stmt in thread.stmts:
            if test.dialect is Dialect.SOURCE:
                if not isinstance(stmt, SourceStmt):
                    raise ValidationError("asm instruction in a source test")
                _validate_source_stmt(stmt, declared, defined)
            else:
                if not isinstance(stmt, AsmInstr):
                    raise ValidationError("source statement in an asm test")
                _validate_asm_instr(stmt, bindings, defined)
    for atom in condition_atoms(test.final):
        _check_value(atom.value, "final condition value")
        _validate_observable(atom.observable, test)
