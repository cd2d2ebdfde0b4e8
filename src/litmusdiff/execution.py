"""Candidate executions and outcome sets.

A test's threads are turned into memory events (reads, writes, fences), and
its coherent candidates are enumerated: each location's coherence orders
and reads-from choices are searched on their own, only those that keep
per-location program order, rf, co and fr acyclic are made, and they are
combined across locations.  Every model demands this per-location
coherence, so the candidates are exactly the coherent brute-force ones.
The candidate limit is checked before any search, against a budget from
the graph's shape, not the number of choices made.  A memory model module
decides which candidates are consistent; the final states of the
survivors form the test's outcome set.

Value flow is static: every write's value is a program constant or a copy
of what an earlier read of its thread returned.  So a candidate's final
state, and whether its values settle at all, follow from a few terms of its
location choices: the value source of each observed location's co-last
write and of the rf source of each read that an observed register or a
copying write draws on.  Choices are grouped by those terms, their
signature, and a product is one group per location.  Every product is
read off its signatures and grouped by outcome before the first outcome is
yielded; where writes copy, their sources are resolved first, and products
whose values never settle (a read feeding its own rf source through a cycle
of copies) are dropped.  A product's candidates, its groups' choices
crossed, are built lazily, the first directly.  A candidate carries only
the ``com`` and ``eco_before`` rows the models read, the unions of its
choices' rows, and its class's resolved sources; rf, co and values follow
on demand.  A choice's rows take one walk up and one walk down its
coherence order, and are built at most once per listing of the classes.
Two graphs that agree on everything the listing reads (``corresponds``),
such as a source test and its lowering, share one listing: each labels its
classes and checks its groups under its own model.

The models are antitone in ``(com, eco_before)``: removing edges never
turns a consistent execution inconsistent.  A product's ``meet`` has, per
location, the AND of the rows of every choice in the product; locations
touch disjoint events, so it is exactly the intersection of the product's
candidates, and when it is rejected so is every candidate, which
``allowed_outcomes`` then skips.  A group sits in many products, so its
AND is taken once and shared, and a meet only unions its groups' ANDs.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from functools import cached_property, partial
from typing import Iterator

from .litmus import (
    ASM_FORMS,
    Dialect,
    LitmusError,
    LitmusTest,
    MemoryObservable,
    MemoryOrder,
    StmtKind,
    ZERO_REGISTER,
    condition_atoms,
    observable_label,
)
from .relations import Rows, bits

MODEL_C11 = "c11"
MODEL_AARCH64 = "aarch64"
MODEL_SC = "sc"
KNOWN_MODELS = (MODEL_C11, MODEL_AARCH64, MODEL_SC)

DEFAULT_MAX_CANDIDATES = 1_000_000


class ResourceLimitError(LitmusError):
    pass


class DialectMismatchError(LitmusError):
    pass


# Enum members read through their class cost about 0.1 us each (Python
# 3.11), so the statement loop reads these instead.
_STORE_STMT, _EXCHANGE_STMT, _FENCE_STMT = (
    StmtKind.STORE, StmtKind.EXCHANGE, StmtKind.FENCE)
# (acquire, release, seq_cst) of a source statement of each memory order.
_ORDER_FLAGS = {
    MemoryOrder.RELAXED: (False, False, False),
    MemoryOrder.ACQUIRE: (True, False, False),
    MemoryOrder.RELEASE: (False, True, False),
    MemoryOrder.ACQ_REL: (True, True, False),
    MemoryOrder.SEQ_CST: (True, True, True),
}
_ZERO = ("const", 0)


class EventGraph:
    """A test's events, each kept only as an id: bits in the graph's masks
    and entries in its tables.  The final register environment
    (``final_defs``, ``(tid, register) -> value source``) and every table
    no rf or co choice can change are made in one pass over the test's
    statements.  A value source is ``("const", k)``, or ``("read", r)``:
    a copy of what the read ``r`` returned.

    - ``masks`` of each kind (``R``, ``W``, ``F``), of the init writes and
      of each flag: ``acquire``, ``release``, ``seq_cst`` and
      ``zero_dest`` (an exchange read whose destination is WZR);
    - ``shapes``: per location, in program order, its init write, a write
      chain per thread, and runs ``[a, b, reads]``: a thread's plain
      (non-exchange) reads between its writes ``a`` (or init) and ``b`` (or
      None); its ``exchanges``, (read, write) pairs, all in ``rmw_pairs``;
      and each write's value source in ``value_srcs``;
    - ``domains``: each fence's barrier domain, None for a source fence;
    - rows: ``same_thread``, and ``po`` and ``po_loc``, program order and
      its restriction to a thread's own accesses to one location.  Ids
      follow program order; init writes precede every event and have no
      po-loc, since they precede everything in coherence;
    - ``final_observables``: the exists clause's observables with their
      printed labels, sorted by label.

    Init writes come first, one per location in sorted order; then each
    thread's statements in order.  An exchange is a read then a write of its
    value at consecutive ids, the pair in ``rmw_pairs``, and binds its
    destination, unless none or WZR, to the read's result; MOV produces no
    event, only register state.

    ``memo`` holds per-graph results of the model modules, each under keys
    its own module owns; only what no rf or co choice can change belongs
    there."""

    def __init__(self, test: LitmusTest):
        rmw_pairs, domains = [], {}
        shapes, exchanges, value_srcs, at, defs = {}, {}, {}, {}, {}
        for eid, loc in enumerate(test.sorted_locations()):
            value_srcs[eid] = ("const", test.locations[loc])
            shapes[loc], exchanges[loc], at[loc] = (eid, {}, []), [], 1 << eid
        eid = inits = len(shapes)
        init_mask = written = (1 << inits) - 1
        same_thread = [init_mask] * inits
        read = fenced = acquire = release = seq_cst = zero_dest = 0
        source = test.dialect is Dialect.SOURCE
        for thread in test.threads:
            tid, start = thread.tid, eid
            bindings, open_runs = thread.binding_map(), {}
            for stmt in thread.stmts:
                if source:
                    kind = stmt.kind
                    acq, rel, sc = _ORDER_FLAGS[stmt.order]
                    loc, dest, domain = stmt.location, stmt.dest, None
                    value = ("const", stmt.value)
                else:
                    kind, acq, rel = ASM_FORMS[stmt.mnemonic]
                    dest, reg, sc = stmt.dst, stmt.src, False
                    if kind is None:
                        defs[tid, dest] = ("const", stmt.imm)
                        continue
                    loc, domain = bindings.get(stmt.addr), stmt.domain
                    value = (None if reg is None else _ZERO
                             if reg == ZERO_REGISTER else defs[tid, reg])
                seq_cst |= sc << eid
                if kind is _FENCE_STMT:
                    domains[eid] = domain
                    fenced |= 1 << eid
                    acquire |= acq << eid
                    release |= rel << eid
                    eid += 1
                    continue
                if kind is not _STORE_STMT:
                    exchange = kind is _EXCHANGE_STMT
                    zero = exchange and dest == ZERO_REGISTER
                    read |= 1 << eid
                    acquire |= acq << eid
                    zero_dest |= zero << eid
                    at[loc] |= 1 << eid
                    if dest is not None and not zero:
                        defs[tid, dest] = ("read", eid)
                    if not exchange:
                        run = open_runs.get(loc)
                        if run is None:
                            init, chains, runs = shapes[loc]
                            chain = chains.get(tid)
                            run = open_runs[loc] = [
                                chain[-1] if chain else init, None, []]
                            runs.append(run)
                        run[2].append(eid)
                        eid += 1
                        continue
                    pair = eid, eid + 1
                    exchanges[loc].append(pair)
                    rmw_pairs.append(pair)
                    eid += 1
                    seq_cst |= sc << eid
                written |= 1 << eid
                release |= rel << eid
                at[loc] |= 1 << eid
                value_srcs[eid] = value
                shapes[loc][1].setdefault(tid, []).append(eid)
                run = open_runs.pop(loc, None)
                if run is not None:
                    run[1] = eid
                eid += 1
            same_thread += [(1 << eid) - (1 << start)] * (eid - start)
        everything = (1 << eid) - 1
        self.po = po = [(everything if e < inits else row) & -(2 << e)
                        for e, row in enumerate(same_thread)]
        self.po_loc = po_loc = [0] * eid
        for mask in at.values():
            for e in bits(mask & ~init_mask):
                po_loc[e] = po[e] & mask
        self.test, self.final_defs, self.same_thread = test, defs, same_thread
        self.rmw_pairs, self.domains = tuple(rmw_pairs), domains
        self.shapes, self.exchanges, self.value_srcs, self.memo = \
            shapes, exchanges, value_srcs, {}
        self.masks = {"R": read, "W": written, "F": fenced, "init": init_mask,
                      "acquire": acquire, "release": release,
                      "seq_cst": seq_cst, "zero_dest": zero_dest}
        self.final_observables = sorted({
            observable_label(atom.observable, test.dialect): atom.observable
            for atom in condition_atoms(test.final)}.items())

    @property
    def examined_choices(self) -> int:
        """A budget worked out from the shape, not the number of choices
        the search makes: per location, the interleavings of its threads'
        write chains times one of its writes (init included) per plain
        read."""
        total = 0
        for _, chains, runs in self.shapes.values():
            orders, placed = 1, 0
            for chain in chains.values():
                placed += len(chain)
                orders *= math.comb(placed, len(chain))
            total += orders * (1 + placed) ** sum([len(r[2]) for r in runs])
        return total


def build_events(test: LitmusTest) -> EventGraph:
    """Turn the program into events and the graph's tables
    (``EventGraph``)."""
    return EventGraph(test)


class Execution:
    """One candidate: a coherence order per location, a reads-from map, the
    values they induce, and the ``com`` (``rf | co | fr``) and ``eco_before``
    rows the models read.  A product's candidates carry the rows, their
    choices and their class's resolved ``sources``, and derive the rest on
    first read; a product's meet (``of_rows``) has the rows alone."""

    def __init__(self, graph: EventGraph, rf, co, values, registers):
        self.graph, self.rf, self.co = graph, rf, co
        self.values, self.registers = values, registers
        self.com, self.eco_before = _union([_location_rows(
            order, rf.items(), len(graph.po)) for order in co.values()])

    @classmethod
    def of_rows(cls, graph: EventGraph, rows) -> Execution:
        """An execution with only the ``com`` and ``eco_before`` rows, the
        unions of the given ``(com, eco_before)`` pairs of rows."""
        execution = cls.__new__(cls)
        execution.graph = graph
        execution.com, execution.eco_before = _union(rows)
        return execution

    @cached_property
    def rf(self) -> dict[int, int]:
        return {r: w for _, sources in self.choices for r, w in sources}

    @cached_property
    def co(self) -> dict[str, tuple[int, ...]]:
        return {loc: order for loc, (order, _) in
                zip(self.graph.test.sorted_locations(), self.choices)}

    @cached_property
    def values(self) -> dict[int, int]:
        """Every write's value, a copy's from its class's resolved sources,
        and every read's from its rf source."""
        writes = {w: self.sources[key][1] if kind == "read" else key
                  for w, (kind, key) in self.graph.value_srcs.items()}
        return {**writes, **{r: writes[w] for r, w in self.rf.items()}}

    @cached_property
    def registers(self) -> dict[tuple[int, str], int]:
        return {key: src[1] if src[0] == "const" else self.values[src[1]]
                for key, src in self.graph.final_defs.items()}

    def final_memory(self) -> dict[str, int]:
        return {loc: self.values[order[-1]] for loc, order in self.co.items()}


def eco_respected(execution: Execution, rows: Rows) -> bool:
    """No edge of ``rows`` returns to its source or runs against eco.  Over
    hb this is c11's coherence, ``hb ; eco?`` irreflexive; over po-loc it
    is aarch64's internal axiom, ``po-loc | com`` acyclic."""
    before = execution.eco_before
    for a, row in enumerate(rows):
        if row & (1 << a | before[a]):
            return False
    return True


def atomicity_holds(execution: Execution) -> bool:
    """No write lies in coherence order between an exchange's rf source and
    its own write: ``rmw & (fr; co)`` is empty.  From a read, ``com`` runs
    to exactly the writes co-after its rf source, and a write's
    ``eco_before`` holds the writes co-before it."""
    com, before = execution.com, execution.eco_before
    return not any(com[r] & before[w] for r, w in execution.graph.rmw_pairs)


def _union(rows) -> tuple[Rows, Rows]:
    """The unions of ``(com, eco_before)`` pairs of rows."""
    rows = iter(rows)
    com, before = next(rows)
    for more_com, more_before in rows:
        com = list(map(operator.or_, com, more_com))
        before = list(map(operator.or_, before, more_before))
    return com, before


def _fold(op, parts: list[Rows]) -> Rows:
    rows, *rest = parts
    for more in rest:
        rows = list(map(op, rows, more))
    return rows


def _location_rows(co, rf, size: int) -> tuple[Rows, Rows]:
    """``com`` and ``eco_before`` rows of a location's events, given by its
    ``co`` and the pairs of ``rf`` whose source is in it.  Since ``rf;co``,
    ``rf;rf``, ``co;fr`` and ``fr;fr`` are empty, ``rf;fr`` is in ``co`` and
    ``fr;co`` in ``fr``, so ``eco = rf | (co | fr);rf?`` orders the events
    by coherence key, twice the co position for a write and one more than
    its rf source's for a read, for any co and rf.  One walk up ``co``
    gathers each write's ``eco_before``: the writes co-before it and their
    readers, and for a reader of the write the write too.  One walk down
    gathers ``com``: the writes co-after a write, and for the write alone
    its own readers."""
    readers: dict[int, list[int]] = {}
    for r, w in rf:
        readers.setdefault(w, []).append(r)
    com = [0] * size
    before = [0] * size
    below = 0
    for w in co:
        before[w] = below
        below |= 1 << w
        own = below
        for r in readers.get(w, ()):
            before[r] = own
            below |= 1 << r
    above = 0
    for w in reversed(co):
        row = above
        for r in readers.get(w, ()):
            com[r] = above
            row |= 1 << r
        com[w] = row
        above |= 1 << w
    return com, before


def _merges(chains: list[list[int]]) -> list[tuple[int, ...]]:
    """Every interleaving of the chains that keeps each chain's own order:
    the first chain takes any set of slots, a merge of the rest the others."""
    if len(chains) <= 1:
        return [tuple(chains[0]) if chains else ()]
    first, size, merges = chains[0], sum(map(len, chains)), []
    for tail in _merges(chains[1:]):
        for slots in itertools.combinations(range(size), len(first)):
            merged = list(tail)
            for slot, w in zip(slots, first):
                merged.insert(slot, w)
            merges.append(tuple(merged))
    return merges


def _location_choices(graph: EventGraph, loc: str, drawn) -> dict:
    """The coherent ``(co, rf)`` choices on one location, grouped by
    signature.  A coherence order is init, then a merge of the threads'
    write chains (CoWW); an exchange read reads the write just before its
    own (atomicity).  Coherence binds only a thread's own accesses: a run of
    its plain reads between its writes ``a`` and ``b`` (``EventGraph.shapes``)
    reads from ``co[pos(a):pos(b)]``, from init without ``a`` and to the end
    without ``b`` (CoWR, CoRW), and never below an earlier read's source
    (CoRR).  So its sources are the ``combinations_with_replacement`` of
    that window, and the rf choices the product of the runs'.  Exchanges
    add no bound beyond their write: a read po-before one reads below its
    write, one po-after at or above it, and the write directly follows the
    exchange read.  Runs list the plain reads in id order and windows are in
    co order, so the choices come in the order of
    ``itertools.product(co, repeat=len(plain))``, filtered.  A signature is
    all the outcome can read of a choice: the co-last write's value source
    if the location is in ``drawn``, then each read in ``drawn`` with its
    rf source's."""
    init, chains, runs = graph.shapes[loc]
    exchanges, value_src = graph.exchanges[loc], graph.value_srcs
    rf_reads = [r for run in runs for r in run[2]]
    if exchanges:
        rf_reads += [r for r, _ in exchanges]
    signed = [(i, r) for i, r in enumerate(rf_reads) if r in drawn]
    groups: dict[tuple, list] = {}
    for tail in _merges([*chains.values()]):
        co = (init, *tail)
        last = ((loc, value_src[co[-1]]),) if loc in drawn else ()
        fixed = (tuple([co[co.index(w) - 1] for _, w in exchanges])
                 if exchanges else ())
        windows = [itertools.combinations_with_replacement(
            co[co.index(a):len(co) if b is None else co.index(b)], len(reads))
            for a, b, reads in runs] if runs else ()
        for picked in itertools.product(*windows):
            sources = sum(picked, ()) + fixed
            signature = last
            for i, r in signed:
                signature += ((r, value_src[sources[i]]),)
            groups.setdefault(signature, []).append(
                (co, tuple(zip(rf_reads, sources))))
    return groups


def _settled(sources: dict) -> bool:
    """Resolve a combination's signature entries in place to constants;
    False when the drawn reads' values copy themselves through rf and never
    settle.  Every read on such a copy cycle is drawn, so only then does
    some candidate's value go unsettled."""
    for key, src in sources.items():
        hops = 0
        while src[0] == "read":
            hops += 1
            if hops > len(sources):
                return False
            src = sources[src[1]]
        sources[key] = src
    return True


class _Group:
    """One location's ``(co, rf)`` choices of one signature.  A group sits
    in every product that crosses it with the other locations' groups, so
    it holds what those products share: each choice's ``_location_rows``
    and the group's meet, the AND of those rows, each built when first
    used and at most once."""

    def __init__(self, choices: list, size: int):
        self.choices, self.size, self.slots = choices, size, {}

    def rows(self, i: int) -> tuple[Rows, Rows]:
        rows = self.slots.get(i)
        if rows is None:
            rows = self.slots[i] = _location_rows(*self.choices[i], self.size)
        return rows

    @cached_property
    def meet(self) -> tuple[Rows, Rows]:
        return tuple(_fold(operator.and_, rows) for rows in
                     zip(*map(self.rows, range(len(self.choices)))))


class Product:
    """One member of an outcome class: a group of ``(co, rf)`` choices per
    sorted location, all of one signature, crossed.  Its candidates share
    the class's outcome and its resolved value sources."""

    def __init__(self, graph: EventGraph, groups: tuple[_Group, ...], sources):
        self.graph, self.groups, self.sources = graph, groups, sources

    def __len__(self) -> int:
        return math.prod([len(group.choices) for group in self.groups])

    def __iter__(self) -> Iterator[Execution]:
        graph, groups, sources = self.graph, self.groups, self.sources
        for picked in itertools.product(
                *[range(len(group.choices)) for group in groups]):
            execution = Execution.of_rows(graph, map(_Group.rows, groups, picked))
            execution.sources = sources
            execution.choices = [g.choices[i] for g, i in zip(groups, picked)]
            yield execution

    def first(self) -> Execution:
        """The first candidate, each group's first choice, built directly."""
        groups = self.groups
        execution = Execution.of_rows(
            self.graph, [group.rows(0) for group in groups])
        execution.sources = self.sources
        execution.choices = [group.choices[0] for group in groups]
        return execution

    def meet(self) -> Execution:
        """The intersection of the candidates: per location, the AND of the
        rows of every choice in its group."""
        return Execution.of_rows(self.graph,
                                 [group.meet for group in self.groups])


def _charge(examined: int, limit: int) -> None:
    if examined > limit:
        raise ResourceLimitError(
            f"candidate executions exceed the limit of {limit}")


def _terms(graph: EventGraph) -> list[tuple[str, tuple]]:
    """Where each label's final value comes from: a register's value source,
    or ("read", location) for the value of the location's co-last write."""
    return [(label, ("read", obs.location) if isinstance(obs, MemoryObservable)
             else graph.final_defs[(obs.thread, obs.register)])
            for label, obs in graph.final_observables]


def list_classes(graph: EventGraph,
                 max_candidates: int | None = None) -> tuple[list, dict]:
    """The label-free half of ``enumerate_candidates``: the distinct value
    sources of the graph's observables, and the classes of the coherent,
    value-consistent candidates, keyed by the tuple of those sources' final
    values, each the list of its products' ``(groups, sources)``.  The
    classes come in the order of ``itertools.product`` over the locations'
    groups of ``_location_choices``, each with its products in that order.
    Every combination of groups is grouped before the listing returns;
    where writes copy, each is resolved first (``_settled``) and those with
    value cycles are dropped.

    Raises ResourceLimitError once the budget exceeds ``max_candidates``:
    the shape's ``EventGraph.examined_choices``, checked before any search,
    plus the combinations of the coherent choices, added once they are
    grouped.
    """
    limit = DEFAULT_MAX_CANDIDATES if max_candidates is None else max_candidates
    examined = graph.examined_choices
    _charge(examined, limit)
    keys = list(dict.fromkeys([src for _, src in _terms(graph)]))
    # The reads whose rf source the outcome or a copying write draws on.
    drawn = {key for kind, key in keys if kind == "read"}
    copies = [key for kind, key in graph.value_srcs.values() if kind == "read"]
    drawn.update(copies)
    size = len(graph.po)
    # Per location, its choices by signature, and a group of each; a product
    # over the former yields signatures, over the latter their groups.
    signatures, groups = [], []
    for loc in graph.shapes:
        choices = _location_choices(graph, loc, drawn)
        signatures.append(choices)
        groups.append([_Group(group, size) for group in choices.values()])
    _charge(examined + math.prod(
        [sum(map(len, choices.values())) for choices in signatures]), limit)
    classes: dict[tuple, list] = {}
    for combo, members in zip(itertools.product(*signatures),
                              itertools.product(*groups)):
        sources = dict(itertools.chain.from_iterable(combo))
        if copies and not _settled(sources):
            continue
        values = tuple([sources[key][1] if kind == "read" else key
                        for kind, key in keys])
        classes.setdefault(values, []).append((members, sources))
    return keys, classes


def corresponds(graph: EventGraph, other: EventGraph,
                observables: dict[str, str]) -> bool:
    """Whether ``graph``'s listing (``list_classes``) lists ``other``'s
    classes too: the graphs have as many events and equal ``shapes``,
    ``exchanges``, ``value_srcs`` and ``rmw_pairs``, and ``observables``
    pairs the labels of ``graph``'s exists clause one to one with
    ``other``'s, each with the same value source.  Then both searches make
    the same choices, groups and combinations, and each class's outcome
    under ``other``'s labels is read off the same values."""
    if (len(graph.po) != len(other.po) or graph.shapes != other.shapes
            or graph.exchanges != other.exchanges
            or graph.value_srcs != other.value_srcs
            or graph.rmw_pairs != other.rmw_pairs):
        return False
    terms = _terms(graph)
    paired = {observables.get(label): src for label, src in terms}
    return len(paired) == len(terms) and paired == dict(_terms(other))


def enumerate_candidates(
    graph: EventGraph, max_candidates: int | None = None, *, listing=None
) -> Iterator[tuple[Outcome, list[Product]]]:
    """Yield each outcome of the coherent, value-consistent candidate
    executions once, with its products, in the order of ``list_classes``;
    ``listing``, when given, is a listing of a graph that ``corresponds``
    to this one, and its classes are labelled and rebound to this graph
    without a search of its own.  A choice's ``_location_rows`` are built
    when a candidate or a meet first uses them, and a group's AND when a
    meet holding it is first checked; both at most once per listing.

    Raises ResourceLimitError, before the first class, as ``list_classes``
    does.
    """
    keys, classes = (list_classes(graph, max_candidates) if listing is None
                     else listing)
    at = [(label, keys.index(src)) for label, src in _terms(graph)]
    for values, members in classes.items():
        yield (Outcome(tuple([(label, values[i]) for label, i in at])),
               [Product(graph, *member) for member in members])


@dataclasses.dataclass(frozen=True, order=True, slots=True)
class Outcome:
    """Final values of the observables named by the exists clause, keyed by
    their printed labels and sorted lexicographically."""

    items: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.items)

    @staticmethod
    def from_dict(values: dict[str, int]) -> "Outcome":
        return Outcome(tuple(sorted(values.items())))


@dataclasses.dataclass(frozen=True)
class OutcomeSet:
    test: str
    model: str
    outcomes: frozenset[Outcome]

    def sorted_outcomes(self) -> list[Outcome]:
        return sorted(self.outcomes)

    def to_json_dict(self) -> dict:
        return {
            "test": self.test,
            "model": self.model,
            "outcomes": [o.as_dict() for o in self.sorted_outcomes()],
        }


def final_state(execution: Execution) -> Outcome:
    """Project a candidate onto the observables of its test's exists
    clause."""
    memory, registers = execution.final_memory(), execution.registers
    return Outcome(tuple(
        (label, memory[obs.location] if isinstance(obs, MemoryObservable)
         else registers[(obs.thread, obs.register)])
        for label, obs in execution.graph.final_observables))


def allowed_outcomes(
    test: LitmusTest,
    model: str,
    *,
    max_candidates: int | None = None,
    legacy_zero_register: bool = False,
    events: tuple[EventGraph, tuple | None] | None = None,
) -> OutcomeSet:
    """Outcome set of a test under one of the axiomatic models: ``c11`` for
    source tests, ``aarch64`` for asm tests and ``sc`` for either.  An
    outcome is allowed when some candidate of its class is consistent.  The
    class's products are taken in order, and each product's candidates are
    built and checked only up to the first consistent one.  When a product
    holds more than one candidate and its first is rejected, its meet is
    checked next; since the models are antitone, a rejected meet rejects
    the whole product.  ``max_candidates`` bounds the choices examined, as
    in ``enumerate_candidates``, under every model; ``legacy_zero_register``
    applies to the aarch64 model only, and under another is an error.
    ``events``, which only ``check_refinement`` passes, is ``test``'s event
    graph, already built, and a listing (``list_classes``) of a graph that
    ``corresponds`` to it, which the outcome set is then read off, or None
    to list the graph's own classes."""
    if model == MODEL_C11:
        if test.dialect is not Dialect.SOURCE:
            raise DialectMismatchError("the c11 model applies to source tests only")
        from .model_c11 import c11_consistent as consistent
    elif model == MODEL_AARCH64:
        if test.dialect is not Dialect.ASM:
            raise DialectMismatchError("the aarch64 model applies to asm tests only")
        from .model_aarch64 import aarch64_consistent
        consistent = partial(
            aarch64_consistent, legacy_zero_register=legacy_zero_register)
    elif model == MODEL_SC:
        from .model_sc import sc_consistent as consistent
    else:
        raise LitmusError(f"unknown model {model!r}")
    if legacy_zero_register and model != MODEL_AARCH64:
        raise LitmusError(
            f"legacy_zero_register applies to the {MODEL_AARCH64} model only")

    def allows(product: Product) -> bool:
        if consistent(product.first()):
            return True
        return (len(product) > 1 and consistent(product.meet())
                and any(map(consistent, itertools.islice(product, 1, None))))

    graph, listing = (build_events(test), None) if events is None else events
    classes = enumerate_candidates(graph, max_candidates, listing=listing)
    return OutcomeSet(test.name, model, frozenset(
        outcome for outcome, products in classes
        if any(map(allows, products))))
