"""Parsing and printing for the two litmus dialects.

One reader takes both.  It is line oriented: header, init block in braces,
one block per thread, then a single ``exists`` line.  Each line is stripped
once, when the input is split, and kept with its line number and the column
of its first character; blank lines are dropped there.  A statement line
goes to the one pattern of its form: an asm line to that of the mnemonic it
starts with, a source line to that of its ``atomic_*`` call.  Those patterns
and the printer's templates, built once at import, come from one table per
dialect: ``_SOURCE_CALLS`` spells each source call, and ``_OPERAND_FIELDS``
each asm operand, which an instruction writes in its kind's
``ASM_OPERANDS`` order.  Errors carry 1-based line and column numbers.
``render_litmus`` prints a canonical layout; parsing its output gives back
a structurally equal test.
"""

from __future__ import annotations

import functools
import operator
import re

from .litmus import (
    ASM_FORMS,
    ASM_OPERANDS,
    AsmInstr,
    Atom,
    Conj,
    Dialect,
    Disj,
    DmbDomain,
    FinalCondition,
    is_w_register,
    is_x_register,
    LitmusTest,
    MemoryObservable,
    MemoryOrder,
    Mnemonic,
    Neg,
    Observable,
    observable_label,
    ParseError,
    RegisterObservable,
    SourceStmt,
    StmtKind,
    Thread,
    UnsupportedConstructError,
    ZERO_REGISTER,
    validate_test,
)

_ORDER_BY_TOKEN = {f"memory_order_{o.value}": o for o in MemoryOrder}

_BRANCH_KEYWORD_RE = re.compile(r"(for|while|if|do|switch|goto)\b")
_ATOMIC_CALL_RE = re.compile(r"(?:int\s+r\d+\s*=\s*)?(atomic_\w+)\s*\(")

# The parameter list is optional; P0 { ... } is accepted too.
_SRC_THREAD_RE = re.compile(r"P(\d+)\s*(?:\(([^)]*)\))?\s*\{$")
_PARAM_RE = re.compile(r"atomic_int\s*\*\s*(\w+)$")

_ASM_THREAD_RE = re.compile(r"P(\d+):$")

_INIT_LOC_RE = re.compile(r"(\w+)\s*=\s*(-?\d+)$")
_INIT_BIND_RE = re.compile(r"(\d+)\s*:\s*(\w+)\s*=\s*(\w+)$")

# A barrier domain is written as printed (ISH) or by its alias (SY).
_DMB_DOMAINS = {spelling: d for d in DmbDomain for spelling in (d.value, d.name)}


def _integer(token: str, line_no: int, col: int = 1) -> int:
    """The value of an integer token; ``int`` refuses one that is too long."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"integer of {len(token.lstrip('-'))} digits is too "
                         "long", line_no, col) from None


class _Cursor:
    """Walks the non-blank lines of the input, each stripped and kept as
    ``(text, line number, column of its first character)``."""

    def __init__(self, text: str):
        lines = text.splitlines()
        self.count = len(lines)
        self.lines = [(stripped, line_no, len(raw) - len(raw.lstrip()) + 1)
                      for line_no, raw in enumerate(lines, 1)
                      if (stripped := raw.strip())]
        self.index = 0

    def peek(self) -> tuple[str, int, int] | None:
        """Next line, without consuming it."""
        if self.index < len(self.lines):
            return self.lines[self.index]
        return None

    def take(self, expectation: str) -> tuple[str, int, int]:
        if self.index >= len(self.lines):
            raise ParseError(f"unexpected end of input, expected {expectation}",
                             self.count or 1)
        self.index += 1
        return self.lines[self.index - 1]


_HEADER_DIALECTS = {"C": Dialect.SOURCE, "AArch64": Dialect.ASM}


def parse_litmus(text: str) -> LitmusTest:
    """Parse either dialect, picking by the header keyword.  One leading
    byte-order mark (U+FEFF), as some editors write, is skipped."""
    cursor = _Cursor(text.removeprefix("\ufeff"))
    if cursor.peek() is None:
        raise ParseError("empty input", 1)
    line, line_no, col = cursor.take("a header")
    parts = line.split()
    dialect = _HEADER_DIALECTS.get(parts[0])
    if dialect is None:
        raise ParseError(f"expected a 'C' or 'AArch64' header, got {parts[0]!r}",
                         line_no, col)
    if len(parts) != 2:
        raise ParseError(f"expected '{parts[0]} <name>' header", line_no, col)

    locations: dict[str, int] = {}
    bindings: dict[int, dict[str, str]] = {}
    bound_at: dict[int, int] = {}  # thread id -> line of its first binding
    asm = dialect is Dialect.ASM
    for entry, entry_no in _parse_init_entries(cursor):
        m = asm and _INIT_BIND_RE.match(entry)
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
        line, line_no, col = cursor.take("exists clause")
        if line.startswith("exists"):
            break
        if asm:
            tid, stmts = _parse_asm_thread(cursor, line, line_no, col)
        else:
            tid, stmts = _parse_source_thread(cursor, line, line_no, col, locations)
        if tid in headers:
            raise ParseError(f"thread P{tid} given twice", line_no, col)
        headers[tid] = line_no, col
        threads.append(Thread(tid, stmts, tuple(bindings.get(tid, {}).items())))
    threads.sort(key=lambda t: t.tid)
    for tid in bindings:
        if tid not in headers:
            raise ParseError(f"bindings given for missing thread P{tid}",
                             bound_at[tid])
    for expected, thread in enumerate(threads):
        if thread.tid != expected:
            raise ParseError(f"thread P{expected} missing", *headers[thread.tid])

    final = _parse_exists(cursor, line, line_no, col, dialect)
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
    line, line_no, col = cursor.take("an initial state block in braces")
    if not line.startswith("{"):
        raise ParseError("expected '{' opening the initial state", line_no, col)
    body_parts = [(line[1:], line_no)]
    while "}" not in body_parts[-1][0]:
        line, line_no, col = cursor.take("'}' closing the initial state")
        body_parts.append((line, line_no))
    last, last_no = body_parts[-1]
    closing = last.index("}")
    if last[closing + 1:].strip():
        raise ParseError("unexpected text after '}'", last_no, col)
    body_parts[-1] = (last[:closing], last_no)

    entries = []
    for chunk, chunk_line in body_parts:
        for piece in chunk.split(";"):
            piece = piece.strip()
            if piece:
                entries.append((piece, chunk_line))
    return entries


# Each source statement is one call, written
# '[int <dest> =] <name>(<arguments>, <memory order>);'.  Statement kind ->
# the call's name, whether the call binds a register, and the fields of its
# arguments before the memory order, which always comes last.
_SOURCE_CALLS = {
    StmtKind.STORE: ("atomic_store_explicit", "never", ("location", "value")),
    StmtKind.LOAD: ("atomic_load_explicit", "always", ("location",)),
    StmtKind.EXCHANGE: ("atomic_exchange_explicit", "optionally", ("location", "value")),
    StmtKind.FENCE: ("atomic_thread_fence", "never", ()),
}
_BIND = r"int\s+(?P<dest>\w+)\s*=\s*"
_BINDS = {"always": _BIND, "optionally": f"(?:{_BIND})?", "never": ""}
_ARGUMENTS = {"location": r"\w+", "value": r"-?\d+", "order": r"\w+"}


def _call_pattern(name: str, binds: str, args: tuple[str, ...]) -> re.Pattern:
    """The pattern of a statement line that is one call of ``name``."""
    arguments = r"\s*,\s*".join(f"(?P<{field}>{_ARGUMENTS[field]})"
                                 for field in (*args, "order"))
    return re.compile(rf"{_BINDS[binds]}{name}\s*\(\s*{arguments}\s*\)\s*;$")


# Call name -> the statement kind it makes and the pattern of its line.
_SOURCE_FORMS = {name: (kind, _call_pattern(name, binds, args))
                 for kind, (name, binds, args) in _SOURCE_CALLS.items()}
# Statement kind -> the %-template of its call and the reader of the
# statement fields it prints.  A reader of one field (a fence's, and a
# DMB's below) returns that field alone, a string, which ``%`` takes as
# the template's one argument.
_SOURCE_TEMPLATES = {
    kind: (name + "(" + "%s, " * len(args) + "memory_order_%s);",
           operator.attrgetter(*args, "order.value"))
    for kind, (name, _, args) in _SOURCE_CALLS.items()}


def _parse_source_stmt(text: str, line_no: int, col: int) -> SourceStmt:
    # Every form is '[int r =] name(...);', so the name is what stands
    # between the last '=' and the first '('.  A line that no form takes
    # is sorted out by the two patterns below.  The memory order is read
    # before the value.
    form = _SOURCE_FORMS.get(text.partition("(")[0].rpartition("=")[2].strip())
    m = form[1].match(text) if form else None
    if m:
        kind, at = form[0], col + m.start("order")
        order = _parse_order(m["order"], line_no, at)
        if order is MemoryOrder.RELAXED and kind is StmtKind.FENCE:
            raise ParseError("a relaxed fence has no effect", line_no, at)
        fields = m.groupdict()
        value = fields.get("value")
        if value is not None:
            value = _integer(value, line_no, col + m.start("value"))
        return SourceStmt(kind, order, fields.get("location"), value,
                          fields.get("dest"))
    if _BRANCH_KEYWORD_RE.match(text):
        raise UnsupportedConstructError(
            "loops and branches are outside the supported fragment", line_no, col
        )
    m = _ATOMIC_CALL_RE.match(text)
    if m:
        name = m.group(1)
        if name in _SOURCE_FORMS:
            raise ParseError(f"malformed {name} call", line_no, col)
        raise UnsupportedConstructError(f"unsupported operation {name}", line_no, col)
    raise ParseError("cannot parse statement", line_no, col)


def _parse_source_thread(
    cursor: _Cursor, header: str, line_no: int, col: int, locations: dict[str, int]
) -> tuple[int, tuple[SourceStmt, ...]]:
    m = _SRC_THREAD_RE.match(header)
    if not m:
        raise ParseError("expected 'Pn (...) {' or 'exists (...)'", line_no, col)
    tid = _integer(m.group(1), line_no, col + m.start(1))
    params = (m.group(2) or "").strip()
    if params:
        for param in params.split(","):
            pm = _PARAM_RE.match(param.strip())
            if not pm:
                raise ParseError(f"cannot parse parameter {param.strip()!r}",
                                 line_no, col)
            if pm.group(1) not in locations:
                raise ParseError(f"undeclared location {pm.group(1)!r} in parameters",
                                 line_no, col)
    stmts = []
    while True:
        body, body_no, body_col = cursor.take("'}' closing the thread body")
        if body == "}":
            return tid, tuple(stmts)
        stmts.append(_parse_source_stmt(body, body_no, body_col))


def _parse_w_reg(token: str, line_no: int, col: int,
                 writer: Mnemonic | None = None) -> str:
    """Check a W register operand.  ``writer`` is the mnemonic when the
    operand is a destination that the zero register cannot be."""
    if token == ZERO_REGISTER:
        if writer is not None:
            raise ParseError(f"{writer.value} to the zero register is not supported",
                             line_no, col)
    elif not is_w_register(token):
        raise ParseError(f"bad register {token!r}", line_no, col)
    return token


def _parse_x_reg(token: str, line_no: int, col: int) -> str:
    """Check an address register operand."""
    if not is_x_register(token):
        raise ParseError(f"bad address register {token!r}", line_no, col)
    return token


def _parse_domain(token: str, line_no: int, col: int) -> DmbDomain:
    """Check a barrier domain operand, which may be spelled by its alias."""
    domain = _DMB_DOMAINS.get(token)
    if domain is None:
        raise ParseError(f"unknown barrier domain {token!r}", line_no, col)
    return domain


# Each instruction is written '<mnemonic> <operand>, <operand>, ...', its
# operands in its kind's ``ASM_OPERANDS`` order.  Operand field -> the
# pattern of the operand, its printed form (a %-template) with what it
# prints of the field, and the check that reads it.
_OPERAND_FIELDS = {
    "dst": (r"(?P<dst>\w+)", ("%s", ""), _parse_w_reg),
    "src": (r"(?P<src>\w+)", ("%s", ""), _parse_w_reg),
    "addr": (r"\[\s*(?P<addr>\w+)\s*\]", ("[%s]", ""), _parse_x_reg),
    "imm": (r"#(?P<imm>-?\d+)", ("#%s", ""), _integer),
    "domain": (r"(?P<domain>\w+)", ("%s", ".value"), _parse_domain),
}


def _mnemonic_form(mnemonic: Mnemonic) -> tuple:
    """The member, the operand pattern (matched from the end of the
    mnemonic), the operand fields of ``mnemonic``, each field with its
    check, and the %-template of its line with the reader of the
    instruction fields it prints.  Only an exchange may write the zero
    register, which discards the value it reads."""
    kind = ASM_FORMS[mnemonic][0]
    fields = ASM_OPERANDS[kind][0]
    pattern = r"\s*,\s*".join(_OPERAND_FIELDS[field][0] for field in fields)
    checks = tuple(
        (field, functools.partial(_parse_w_reg, writer=mnemonic)
         if field == "dst" and kind is not StmtKind.EXCHANGE
         else _OPERAND_FIELDS[field][2])
        for field in fields)
    printed = [_OPERAND_FIELDS[field][1] for field in fields]
    template = f"{mnemonic.value} " + ", ".join(form for form, _ in printed)
    read = operator.attrgetter(*[field + suffix for field, (_, suffix)
                                 in zip(fields, printed)])
    return mnemonic, re.compile(rf"\s+{pattern}$"), checks, template, read


# Mnemonic as written -> its member, operand pattern, checked fields, and
# printed template and fields.
_MNEMONICS = {m.value: _mnemonic_form(m) for m in Mnemonic}


def _parse_asm_thread(
    cursor: _Cursor, header: str, line_no: int, col: int
) -> tuple[int, tuple[AsmInstr, ...]]:
    m = _ASM_THREAD_RE.match(header)
    if not m:
        raise ParseError("expected 'Pn:' or 'exists (...)'", line_no, col)
    tid = _integer(m.group(1), line_no, col + m.start(1))
    stmts = []
    while (nxt := cursor.peek()) is not None:
        head = nxt[0].split(None, 1)[0].rstrip(",")
        form = _MNEMONICS.get(head)
        if form is None:
            # A line that is no instruction ends the thread if it starts
            # the next thread or the exists clause.
            if nxt[0].startswith("exists") or _ASM_THREAD_RE.match(nxt[0]):
                break
            raise ParseError(f"unknown mnemonic {head!r}", *nxt[1:])
        text, body_no, body_col = cursor.take("an instruction")
        mnemonic, pattern, checks, *_ = form
        m = pattern.match(text, len(head))
        if not m:
            raise ParseError(f"cannot parse {head} operands", body_no, body_col)
        operands = {}
        for field, check in checks:
            operands[field] = check(m[field], body_no, body_col + m.start(field))
        stmts.append(AsmInstr(mnemonic, **operands))
    return tid, tuple(stmts)


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
_SOURCE_THREAD_LABEL_RE = re.compile(r"P(\d+)$")
_ASM_THREAD_LABEL_RE = re.compile(r"(\d+)$")
_LOCATION_LABEL_RE = re.compile(r"[A-Za-z_]\w*$")


class _CondParser:
    def __init__(self, text: str, line_no: int, offset: int, dialect: Dialect):
        self.line_no = line_no
        self.thread_label_re = (_SOURCE_THREAD_LABEL_RE if dialect is Dialect.SOURCE
                                else _ASM_THREAD_LABEL_RE)
        self.tokens: list[tuple[str | None, int]] = []
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
        # The end of the condition, which errors past the last token name.
        self.tokens.append((None, offset + len(text) + 1))
        self.pos = 0
        self.open = 0  # '(' and '~' enclosing the current token

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self.line_no, self.tokens[self.pos][1])

    def eat(self, expected: str | None = None) -> str:
        tok = self.tokens[self.pos][0]
        if tok is None or (expected is not None and tok != expected):
            raise self._error(f"expected {expected!r}" if expected else
                              "unexpected end of condition")
        self.pos += 1
        return tok

    def parse(self) -> FinalCondition:
        cond, _ = self.disjunction()
        tok = self.tokens[self.pos][0]
        if tok is not None:
            raise self._error(f"unexpected token {tok!r}")
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
        while self.tokens[self.pos][0] == "\\/":
            self.pos += 1
            right, right_depth = self.conjunction()
            node = Disj(node, right)
            depth = self._level(max(depth, right_depth) + 1)
        return node, depth

    def conjunction(self) -> tuple[FinalCondition, int]:
        node, depth = self.unary()
        while self.tokens[self.pos][0] == "/\\":
            self.pos += 1
            right, right_depth = self.unary()
            node = Conj(node, right)
            depth = self._level(max(depth, right_depth) + 1)
        return node, depth

    def unary(self) -> tuple[FinalCondition, int]:
        tok = self.tokens[self.pos][0]
        if tok != "~" and tok != "(":
            return self.atom(), 0
        self.pos += 1
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
            m = self.thread_label_re.match(left)
            if not m:
                raise self._error(f"bad observable {tok!r}")
            tid = _integer(m.group(1), self.line_no,
                           self.tokens[self.pos - 1][1] + m.start(1))
            return RegisterObservable(tid, reg)
        if not _LOCATION_LABEL_RE.match(tok):
            raise self._error(f"bad observable {tok!r}")
        return MemoryObservable(tok)


def _parse_exists(
    cursor: _Cursor, line: str, line_no: int, col: int, dialect: Dialect
) -> FinalCondition:
    """Parse the exists clause on ``line``, which must end the input."""
    rest = line[len("exists"):].strip()
    if not (rest.startswith("(") and rest.endswith(")")):
        raise ParseError("exists clause must be parenthesized", line_no, col)
    parser = _CondParser(rest[1:-1], line_no, col + line.index("("), dialect)
    cond = parser.parse()
    trailing = cursor.peek()
    if trailing is not None:
        raise ParseError("unexpected input after exists clause", *trailing[1:])
    return cond


# Rendering.  The layout below is what every tool in this package emits.

_PREC_OR = 0
_PREC_AND = 1
_PREC_UNARY = 2


def render_condition(cond: FinalCondition, dialect: Dialect, _prec: int = _PREC_OR) -> str:
    if isinstance(cond, Atom):
        return f"{observable_label(cond.observable, dialect)} = {cond.value}"
    if isinstance(cond, Neg):
        return f"~({render_condition(cond.operand, dialect, _PREC_OR)})"
    if isinstance(cond, Conj):
        text = (f"{render_condition(cond.left, dialect, _PREC_AND)}"
                f" /\\ {render_condition(cond.right, dialect, _PREC_UNARY)}")
        needs_parens = _prec > _PREC_AND
    else:
        text = (f"{render_condition(cond.left, dialect, _PREC_OR)}"
                f" \\/ {render_condition(cond.right, dialect, _PREC_AND)}")
        needs_parens = _prec > _PREC_OR
    return f"({text})" if needs_parens else text


def _render_source_stmt(stmt: SourceStmt) -> str:
    template, read = _SOURCE_TEMPLATES[stmt.kind]
    call = template % read(stmt)
    return call if stmt.dest is None else f"int {stmt.dest} = {call}"


def _render_asm_instr(instr: AsmInstr) -> str:
    *_, template, read = _MNEMONICS[instr.mnemonic.value]
    return template % read(instr)


def _reg_index(reg: str) -> int:
    return int(re.sub(r"\D", "", reg) or 0)


def render_litmus(test: LitmusTest) -> str:
    if test.dialect is Dialect.SOURCE:
        lines = [f"C {test.name}", ""]
        init = " ".join(f"{loc} = {val};" for loc, val in sorted(test.locations.items()))
        lines.append("{ " + init + " }")
        params = ", ".join(f"atomic_int* {loc}" for loc in test.sorted_locations())
        for thread in test.threads:
            lines.append("")
            lines.append(f"P{thread.tid} ({params}) {{")
            for stmt in thread.stmts:
                lines.append(f"  {_render_source_stmt(stmt)}")
            lines.append("}")
    else:
        lines = [f"AArch64 {test.name}", "", "{"]
        lines.append("  " + " ".join(
            f"{loc} = {val};" for loc, val in sorted(test.locations.items())))
        for thread in test.threads:
            if thread.bindings:
                ordered = sorted(thread.bindings, key=lambda b: _reg_index(b[0]))
                lines.append("  " + " ".join(
                    f"{thread.tid}:{reg} = {loc};" for reg, loc in ordered))
        lines.append("}")
        for thread in test.threads:
            lines.append("")
            lines.append(f"P{thread.tid}:")
            for instr in thread.stmts:
                lines.append(f"  {_render_asm_instr(instr)}")
    lines.append("")
    lines.append(f"exists ({render_condition(test.final, test.dialect)})")
    return "\n".join(lines) + "\n"
