"""Event construction, candidate enumeration, and the SC model."""

import itertools
import math
import re
import time
from pathlib import Path

import pytest

import support
from interleaving_oracle import interleaving_outcomes
from litmusdiff import (
    execution,
    golden_path,
    model_aarch64,
    model_c11,
    model_sc,
)
from litmusdiff.execution import (
    DialectMismatchError,
    Outcome,
    OutcomeSet,
    ResourceLimitError,
    allowed_outcomes,
    build_events,
    final_state,
)
from litmusdiff.litmus import DmbDomain, LitmusError
from litmusdiff.lowering import lower_test
from litmusdiff.relations import bits
from litmusdiff.syntax import parse_litmus
from support import candidates, pairs


def outcome_set(items):
    return {Outcome.from_dict(dict(i)) for i in items}


def masked(graph):
    """Each of the graph's masks as the list of its ids."""
    return {name: list(bits(mask)) for name, mask in graph.masks.items()}


def test_event_layout_canonical_source(discard_source):
    graph = build_events(discard_source)
    masks = masked(graph)
    assert (masks["init"], masks["W"], masks["R"], masks["F"]) \
        == ([0, 1], [0, 1, 2, 3, 5], [4, 7], [6])
    # init, then P0's two stores, then P1's exchange, fence and load
    assert graph.same_thread == [0b11] * 2 + [0b1100] * 2 + [0b11110000] * 4
    assert graph.shapes == {"x": (0, {0: [2]}, [[0, None, [7]]]),
                            "y": (1, {0: [3], 1: [5]}, [])}
    assert graph.exchanges == {"x": [], "y": [(4, 5)]}
    assert graph.rmw_pairs == ((4, 5),)
    # a release exchange orders only its write
    assert (masks["acquire"], masks["release"]) == ([6], [3, 5])
    assert graph.domains == {6: None}
    assert graph.final_defs == {(1, "r0"): ("read", 7)}


def test_program_order(discard_source):
    graph = build_events(discard_source)
    po = pairs(graph.po)
    assert (0, 1) in po            # init writes are ordered among themselves
    assert (0, 2) in po and (1, 7) in po
    assert (4, 5) in po and (4, 7) in po
    assert (2, 4) not in po        # no cross-thread order
    assert (5, 4) not in po
    # same-location accesses only: the exchange's read and write on y
    assert pairs(graph.po_loc) == {(4, 5)}


def test_mov_produces_no_event(compiled_w15):
    graph = build_events(compiled_w15)
    assert len(graph.po) == 8
    masks = masked(graph)
    assert (masks["W"], masks["R"], masks["F"]) \
        == ([0, 1, 2, 3, 5], [4, 7], [6])
    # ids skip nothing: MOV only touched register state
    assert list(bits(graph.same_thread[2])) == [2, 3]
    assert graph.final_defs[(1, "W15")] == ("read", 4)
    assert masks["zero_dest"] == []
    assert graph.value_srcs[2] == ("const", 1)
    assert graph.domains == {6: DmbDomain.LD}


def test_zero_destination_flag(compiled_wzr):
    graph = build_events(compiled_wzr)
    assert masked(graph)["zero_dest"] == [4]
    assert (1, "W15") not in graph.final_defs


def test_exchange_stores_its_source_before_binding_its_destination():
    test = parse_litmus("\n".join([
        "AArch64 swp-self", "", "{", "  x = 0;", "  0:X0 = x;", "}", "",
        "P0:", "  MOV W2, #1", "  SWP W2, W2, [X0]", "",
        "exists (0:W2 = 0 /\\ x = 1)", "",
    ]))
    graph = build_events(test)
    assert graph.rmw_pairs == ((1, 2),)
    assert graph.value_srcs[2] == ("const", 1)   # the old W2, not the read
    assert graph.final_defs == {(0, "W2"): ("read", 1)}
    assert allowed_outcomes(test, "aarch64").outcomes \
        == outcome_set([[("0:W2", 0), ("x", 1)]])


def test_store_of_zero_register_is_constant():
    test = parse_litmus("\n".join([
        "AArch64 t", "", "{", "  x = 0;", "  0:X0 = x;", "}", "",
        "P0:", "  STR WZR, [X0]", "", "exists (x = 0)", "",
    ]))
    graph = build_events(test)
    assert graph.value_srcs[1] == ("const", 0)


def test_candidate_count_canonical(discard_source):
    graph = build_events(discard_source)
    found = candidates(graph)
    # co(y) has two non-init permutations, the data read has two sources;
    # the exchange read is forced, so 2 x 2 total
    assert len(found) == 4
    for ex in found:
        assert ex.co["x"][0] == 0 and ex.co["y"][0] == 1
        assert ex.rf[4] == ex.co["y"][ex.co["y"].index(5) - 1]


CYCLIC_COPY = "\n".join([
    "AArch64 swapchain", "",
    "{", "  x = 0;", "  y = 0;",
    "  0:X0 = x; 0:X1 = y;", "  1:X0 = x; 1:X1 = y;", "}", "",
    "P0:", "  LDR W2, [X0]", "  STR W2, [X1]", "",
    "P1:", "  LDR W2, [X1]", "  STR W2, [X0]", "",
    "exists (0:W2 = 0)", "",
])


def test_value_cycle_candidates_dropped():
    graph = build_events(parse_litmus(CYCLIC_COPY))
    found = candidates(graph)
    # of the four rf combinations, the one where each load reads the other
    # thread's copy never grounds in a constant
    assert len(found) == 3
    for ex in found:
        assert not (ex.rf[2] == 5 and ex.rf[4] == 3)
        assert all(v == 0 for v in ex.values.values())


def test_candidate_limit(discard_source):
    graph = build_events(discard_source)
    with pytest.raises(ResourceLimitError, match="limit of 2"):
        candidates(graph, 2)
    with pytest.raises(ResourceLimitError):
        allowed_outcomes(discard_source, "c11", max_candidates=2)


MP_RELSEQ_4T = (Path(__file__).resolve().parent.parent / "perfbench" / "inputs"
                / "ladder" / "mp-relseq-4t.litmus")


@pytest.mark.parametrize("module, name, model, lowered", [
    (model_c11, "c11_consistent", "c11", False),
    (model_aarch64, "aarch64_consistent", "aarch64", True),
    (model_sc, "sc_consistent", "sc", False),
    (model_sc, "sc_consistent", "sc", True),
], ids=["c11", "aarch64", "sc", "sc-lowered"])
def test_candidate_limit_is_exact(monkeypatch, module, name, model, lowered):
    # mp-relseq-4t examines 1,770 choices, its lowering too: each location's
    # (co, rf) choices and every combination of them, whether its candidates
    # are built or not, under every model.  A limit of exactly that
    # succeeds; one less raises before the model is ever called.
    test = parse_litmus(MP_RELSEQ_4T.read_text())
    if lowered:
        test = lower_test(test)[0]
    expected = allowed_outcomes(test, model).outcomes
    check = getattr(module, name)
    calls = []

    def counted(ex, **flags):
        calls.append(ex)
        return check(ex, **flags)

    monkeypatch.setattr(module, name, counted)
    assert allowed_outcomes(test, model, max_candidates=1770).outcomes \
        == expected
    assert calls
    calls.clear()
    with pytest.raises(ResourceLimitError, match="limit of 1769$"):
        allowed_outcomes(test, model, max_candidates=1769)
    assert calls == []


def _one_location_writes(threads, per_thread):
    bodies = []
    for tid in range(threads):
        stores = "\n".join(
            f"  atomic_store_explicit(x, {k + 1}, memory_order_relaxed);"
            for k in range(per_thread))
        bodies.append(f"P{tid} {{\n{stores}\n}}\n")
    return parse_litmus("\n".join(
        ["C writes", "", "{ x = 0; }", "", *bodies, "exists (x = 1)", ""]))


@pytest.mark.parametrize("per_thread", [2, 4])
def test_candidate_limit_bounds_per_location_search(per_thread):
    # 8 or 16 writes to x across four threads: 2,520 or about 6.3e7 orders
    # that respect program order, out of 8! or 16! permutations.  The
    # orders are counted from the test's shape, so the limit fires before
    # any of them is listed.
    graph = build_events(_one_location_writes(4, per_thread))
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="limit of 1000"):
        candidates(graph, 1000)
    assert time.perf_counter() - started < 1.0


def test_default_limit_fails_fast():
    # 4 threads x 4 relaxed stores to x: 63,063,000 coherence orders, over
    # the default limit of a million.  A count charged while the orders are
    # walked would take tens of seconds to reach the limit.
    graph = build_events(_one_location_writes(4, 4))
    assert graph.examined_choices == 63_063_000
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="limit of 1000000$"):
        candidates(graph)
    assert time.perf_counter() - started < 1.0


def test_search_makes_only_the_coherent_read_choices():
    # P0 stores 1..7 to x and P1 loads x eight times: the shape counts
    # 8 ** 8 = 16,777,216 rf tuples, but CoRR lets P1's sources only climb
    # the one coherence order, which leaves C(15, 8) = 6,435.  A search
    # that forms every tuple and filters it takes tens of seconds.
    stores = [f"  atomic_store_explicit(x, {v}, memory_order_relaxed);"
              for v in range(1, 8)]
    loads = [f"  int r{i} = atomic_load_explicit(x, memory_order_relaxed);"
             for i in range(8)]
    test = parse_litmus("\n".join([
        "C wide", "", "{ x = 0; }", "", "P0 {", *stores, "}", "",
        "P1 {", *loads, "}", "", "exists (P1:r0 = 7 /\\ P1:r7 = 0)", ""]))
    assert build_events(test).examined_choices == 8 ** 8
    started = time.perf_counter()
    outcomes = allowed_outcomes(test, "c11", max_candidates=10**8).outcomes
    assert time.perf_counter() - started < 1.0
    assert len(outcomes) == 36 == len(interleaving_outcomes(test))
    assert outcomes == interleaving_outcomes(test)
    compiled = lower_test(test)[0]
    assert len(allowed_outcomes(compiled, "aarch64",
                                max_candidates=10**8).outcomes) == 36


@pytest.mark.parametrize("path", sorted(MP_RELSEQ_4T.parent.parent.rglob(
    "*.litmus")), ids=lambda path: path.stem)
def test_limit_below_the_choices_stops_before_any_search(monkeypatch, path):
    # A limit below the per-location choices raises without searching a
    # location; a limit of exactly that many searches every location.
    graph = build_events(parse_litmus(path.read_text()))
    searched = []
    choices = execution._location_choices

    def counted(graph, loc, drawn):
        searched.append(loc)
        return choices(graph, loc, drawn)

    monkeypatch.setattr(execution, "_location_choices", counted)
    with pytest.raises(ResourceLimitError):
        candidates(graph, graph.examined_choices - 1)
    assert searched == []
    with pytest.raises(ResourceLimitError):
        candidates(graph, graph.examined_choices)
    assert searched == graph.test.sorted_locations()


def test_incoherent_choices_never_yielded():
    # P0's writes fix co to init, 1, 2 (CoWW).  Of the 9 rf choices of
    # P1's two reads, CoRR keeps the 6 where the second read sees the same
    # write as the first or a later one.
    test = parse_litmus("\n".join([
        "C corr", "", "{ x = 0; }", "",
        "P0 {", "  atomic_store_explicit(x, 1, memory_order_relaxed);",
        "  atomic_store_explicit(x, 2, memory_order_relaxed);", "}", "",
        "P1 {",
        "  int r0 = atomic_load_explicit(x, memory_order_relaxed);",
        "  int r1 = atomic_load_explicit(x, memory_order_relaxed);", "}", "",
        "exists (P1:r0 = 2 /\\ P1:r1 = 1)", "",
    ]))
    found = candidates(build_events(test))
    assert len(found) == 6
    for ex in found:
        assert ex.co["x"] == (0, 1, 2)
        assert ex.values[ex.rf[3]] <= ex.values[ex.rf[4]]


def _merge_key(merged, chains):
    # _merges' order: by the merge of the other chains, then by the slots
    # the first chain takes, each in ascending order
    if len(chains) <= 1:
        return ()
    rest = set(itertools.chain(*chains[1:]))
    return (_merge_key([w for w in merged if w in rest], chains[1:]),
            [i for i, w in enumerate(merged) if w not in rest])


@pytest.mark.parametrize("sizes", [(), (3,), (2, 2), (1, 3), (3, 3, 2),
                                   (2, 2, 2, 2)], ids=str)
def test_merges_are_the_order_preserving_permutations(sizes):
    # Ids dealt in descending order, so that every chain of two or more
    # runs against the ids' order.
    ids = list(range(sum(sizes)))[::-1]
    chains, start = [], 0
    for size in sizes:
        chains.append(ids[start:start + size])
        start += size
    merged = list(execution._merges(chains))
    kept = [p for p in itertools.permutations(ids)
            if all([w for w in p if w in chain] == chain for chain in chains)]
    assert merged == sorted(kept, key=lambda p: _merge_key(p, chains))
    assert len(set(merged)) == len(merged)
    assert len(merged) == math.factorial(sum(sizes)) // math.prod(
        map(math.factorial, sizes))


def test_relation_helpers(discard_source):
    graph = build_events(discard_source)
    picked = None
    for ex in candidates(graph):
        if ex.co["y"] == (1, 5, 3) and ex.rf[7] == 0:
            picked = ex
            break
    assert picked is not None, "expected candidate missing"
    assert picked.rf[4] == 1               # exchange read forced onto init
    rf = {(1, 4), (0, 7)}
    co = {(1, 5), (5, 3), (1, 3), (0, 2)}
    fr = {(4, 5), (4, 3), (7, 2)}
    assert pairs(picked.com) == rf | co | fr
    # eco is the closure of com; here every composition (rf;fr, fr;co,
    # co;co) is already in com
    assert {(b, a) for a, b in pairs(picked.eco_before)} == rf | co | fr
    assert picked.final_memory() == {"x": 1, "y": 1}
    assert picked.registers[(1, "r0")] == 0


def test_row_laws_hold_on_goldens(discard_source, compiled_w15, compiled_wzr):
    for test in (discard_source, compiled_w15, compiled_wzr):
        incoherent, torn = support.check_row_laws(test)
        assert incoherent > 0 and torn > 0, test.name


def test_final_state_projection(discard_source):
    graph = build_events(discard_source)
    for ex in candidates(graph):
        assert final_state(ex).as_dict() == {
            "P1:r0": ex.registers[(1, "r0")], "y": ex.final_memory()["y"]}


LAW_CASES = pytest.mark.parametrize("model, golden, exists", [
    ("c11", "mp-xchg-discard.litmus", None),
    ("aarch64", "mp-xchg-discard-compiled-wzr.litmus", None),
    ("c11", "mp-xchg-discard.litmus", "P1:r0 = 0"),
    ("aarch64", "mp-xchg-discard-compiled-wzr.litmus", "1:W3 = 0"),
], ids=["c11", "aarch64", "c11-one-register", "aarch64-one-register"])


def law_subject(golden, exists):
    text = golden_path(golden).read_text()
    if exists is not None:
        text = re.sub(r"exists \(.*\)", f"exists ({exists})", text)
    return parse_litmus(text)


@LAW_CASES
def test_classes_partition_the_coherent_candidates(model, golden, exists):
    test = law_subject(golden, exists)
    classes, members = support.check_class_law(test)
    if exists is None:
        assert classes == members  # no golden outcome repeats
    else:
        assert classes < members


@LAW_CASES
def test_model_sees_each_class_up_to_its_first_consistent_candidate(
        model, golden, exists):
    # Observing one register makes outcomes repeat, so some classes hold
    # candidates that are never built.  Under c11 the first candidate with
    # P1:r0 = 0 is rejected, so its product's meet is checked next.
    test = law_subject(golden, exists)
    seen, meets = support.check_model_call_law(test, model)
    built = len(candidates(build_events(test)))
    assert seen > 1
    if exists is None:
        assert (seen, meets) == (built, 0)
    else:
        assert seen < built
        assert meets == (model == "c11")


@LAW_CASES
def test_a_rejected_meet_rejects_its_product(model, golden, exists):
    meets, _ = support.check_meet_law(law_subject(golden, exists))
    if exists is None:
        assert meets == 0  # every golden class is a single candidate
    else:
        assert meets > 0


def test_outcome_value_semantics(discard_source):
    # Outcomes the enumerator makes and outcomes made by hand behave as one
    # value type: frozen, equal and hashed alike exactly when their items
    # are, never equal to a bare tuple, and ordered by their items.
    compiled, _ = lower_test(discard_source)
    made = [outcome for test in (discard_source, compiled)
            for outcome, _ in execution.enumerate_candidates(
                execution.Search(build_events(test)))]
    outcomes = made + [Outcome(tuple(o.items)) for o in made] + [
        Outcome.from_dict({"P1:r0": 0, "y": 2}), Outcome(())]
    for outcome in outcomes:
        with pytest.raises(AttributeError):
            outcome.items = ()
        assert outcome != outcome.items and outcome != (outcome.items,)
    for a, b in itertools.product(outcomes, repeat=2):
        assert (a == b) == (a.items == b.items)
        assert (a != b) == (a.items != b.items)
        assert (a < b) == (a.items < b.items)
        if a == b:
            assert hash(a) == hash(b)
    assert len(set(outcomes)) == len({o.items for o in outcomes})


def test_outcome_json_round_trip():
    o = Outcome.from_dict({"y": 2, "P1:r0": 0})
    assert o.items == (("P1:r0", 0), ("y", 2))
    assert Outcome.from_dict(o.as_dict()) == o
    s = OutcomeSet("t", "c11", frozenset({o, Outcome.from_dict({"y": 1, "P1:r0": 0})}))
    payload = s.to_json_dict()
    assert payload["test"] == "t" and payload["model"] == "c11"
    assert payload["outcomes"] == [{"P1:r0": 0, "y": 1}, {"P1:r0": 0, "y": 2}]


def test_dialect_guards(discard_source, compiled_w15):
    with pytest.raises(DialectMismatchError):
        allowed_outcomes(discard_source, "aarch64")
    with pytest.raises(DialectMismatchError):
        allowed_outcomes(compiled_w15, "c11")
    with pytest.raises(LitmusError, match="unknown model"):
        allowed_outcomes(discard_source, "tso")


@pytest.mark.parametrize("model, subject", [
    ("c11", "discard_source"), ("sc", "discard_source"),
    ("sc", "compiled_wzr")])
def test_legacy_zero_register_needs_aarch64(request, monkeypatch, model,
                                            subject):
    test = request.getfixturevalue(subject)
    monkeypatch.setattr(execution, "build_events", None)  # a search fails
    with pytest.raises(LitmusError, match="^legacy_zero_register applies to "
                                          "the aarch64 model only$"):
        allowed_outcomes(test, model, legacy_zero_register=True)


def sc_outcomes(test):
    """The sc model's outcome set, which the interleaving oracle gives
    too."""
    got = allowed_outcomes(test, "sc")
    assert got.model == "sc" and got.test == test.name
    assert got.outcomes == interleaving_outcomes(test)
    return set(got.outcomes)


def test_sc_model_canonical(discard_source):
    assert sc_outcomes(discard_source) == outcome_set([
        [("P1:r0", 0), ("y", 1)],
        [("P1:r0", 1), ("y", 1)],
        [("P1:r0", 1), ("y", 2)],
    ])


def test_sc_model_on_asm(compiled_wzr):
    # whole-instruction interleaving never shows the weak-memory outcome
    assert sc_outcomes(compiled_wzr) == outcome_set([
        [("1:W3", 0), ("y", 1)],
        [("1:W3", 1), ("y", 1)],
        [("1:W3", 1), ("y", 2)],
    ])


def test_sc_model_zero_store_and_kept_exchange():
    test = parse_litmus("\n".join([
        "AArch64 wzr+swp", "", "{", "  x = 1;", "  0:X0 = x;", "  1:X0 = x;",
        "}", "",
        "P0:", "  STR WZR, [X0]", "",
        "P1:", "  MOV W2, #3", "  SWP W2, W3, [X0]", "",
        "exists (1:W3 = 0 /\\ x = 3)", "",
    ]))
    # the exchange reads 0 after the zero store, or 1 before it
    assert sc_outcomes(test) == outcome_set([
        [("1:W3", 0), ("x", 3)],
        [("1:W3", 1), ("x", 0)],
    ])


def test_sc_model_store_buffering():
    sb = parse_litmus("\n".join([
        "C sb", "", "{ x = 0; y = 0; }", "",
        "P0 {",
        "  atomic_store_explicit(x, 1, memory_order_relaxed);",
        "  int r0 = atomic_load_explicit(y, memory_order_relaxed);",
        "}", "",
        "P1 {",
        "  atomic_store_explicit(y, 1, memory_order_relaxed);",
        "  int r1 = atomic_load_explicit(x, memory_order_relaxed);",
        "}", "",
        "exists (P0:r0 = 0 /\\ P1:r1 = 0)", "",
    ]))
    got = sc_outcomes(sb)
    assert Outcome.from_dict({"P0:r0": 0, "P1:r1": 0}) not in got
    assert len(got) == 3


def test_sc_model_routes_to_oracle(discard_source, compiled_wzr):
    for test in (discard_source, compiled_wzr):
        assert allowed_outcomes(test, "sc").outcomes \
            == interleaving_outcomes(test)
    with pytest.raises(ResourceLimitError,
                       match="^candidate executions exceed the limit of 2$"):
        allowed_outcomes(discard_source, "sc", max_candidates=2)
