"""Model-level laws, checked over the generated corpus and random tests.

Five families: interleaving outcomes are always allowed, strengthening
memory orders never adds behaviour, the dead-register rewrite never removes
behaviour, the candidate enumerator agrees with a brute-force oracle (its
candidates are exactly the oracle's coherent ones, and its outcome sets
are exactly those of the models applied to every oracle candidate), and
the sc model gives the interleaving oracle's outcomes and accepts no
candidate that the dialect's model rejects.  Each is checked on the
corpus, on random tests and on the benchmark's larger inputs.  The
relation rows every candidate carries match their set-of-pairs reading,
and the choices the candidate limit counts match a brute-force count.
Both models are antitone in those rows, so a product whose meet is
rejected has no consistent candidate, and the model calls that this
saves are pinned on the larger inputs.
"""

import dataclasses
import functools
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import naive_oracle
import support
from interleaving_oracle import interleaving_outcomes
from litmusdiff import golden_path
from litmusdiff.execution import (
    Search,
    allowed_outcomes,
    build_events,
    enumerate_candidates,
)
from litmusdiff.litmus import (
    AsmInstr,
    Atom,
    Conj,
    Dialect,
    DmbDomain,
    FENCE_ORDERS,
    LOAD_ORDERS,
    LitmusTest,
    MemoryObservable,
    MemoryOrder,
    Mnemonic,
    RegisterObservable,
    SourceStmt,
    StmtKind,
    STORE_ORDERS,
    SWP_FAMILY,
    Thread,
    ZERO_REGISTER,
    validate_test,
)
from litmusdiff.lowering import dead_register_pass, lower_test
from litmusdiff.model_aarch64 import aarch64_consistent
from litmusdiff.model_c11 import c11_consistent
from litmusdiff.model_sc import sc_consistent
from litmusdiff.syntax import parse_litmus, render_litmus
from litmusdiff.testgen import generate_mp_family

CORPUS = support.make_corpus()
IDS = [t.name for t in CORPUS]


@pytest.mark.parametrize("test", CORPUS, ids=IDS)
def test_interleavings_allowed_by_source_model(test):
    sc = interleaving_outcomes(test)
    assert sc <= support.source_outcomes(test)


@pytest.mark.parametrize("test", CORPUS, ids=IDS)
def test_interleavings_allowed_by_lowered_test(test):
    sc = interleaving_outcomes(test)
    assert sc <= support.lowered_outcomes(test)


@pytest.mark.parametrize("test", CORPUS, ids=IDS)
def test_sc_model_matches_both_oracles(test):
    for subject in (test, lower_test(test)[0]):
        support.check_sc_law(subject)
        accepted, _ = support.check_sc_inclusion_law(subject)
        assert accepted > 0


@pytest.mark.parametrize("test", CORPUS, ids=IDS)
def test_strengthening_never_enlarges(test):
    weak = support.source_outcomes(test)
    strong = support.source_outcomes(support.strengthen(test))
    assert strong <= weak


@pytest.mark.parametrize("test", CORPUS, ids=IDS)
def test_dead_register_rewrite_never_shrinks(test):
    plain = support.lowered_outcomes(test)
    rewritten = support.lowered_outcomes(test, dead=True)
    assert plain <= rewritten


@pytest.mark.parametrize("test", CORPUS, ids=IDS)
def test_enumeration_matches_brute_force(test):
    support.check_class_law(test)
    support.check_class_law(lower_test(test)[0])


@pytest.mark.parametrize("test", CORPUS, ids=IDS)
def test_location_choices_equal_the_filtered_reference_across_corpus(test):
    support.check_location_choices_law(test)
    support.check_location_choices_law(lower_test(test)[0])


@pytest.mark.parametrize("test", CORPUS, ids=IDS)
def test_outcomes_match_brute_force(test):
    support.assert_outcomes_match_brute_force(test)


INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def large_subjects():
    """c11 on each ladder source and aarch64 on its lowering, and aarch64 on
    the asm inputs.  These have the most candidates per outcome, so
    outcome-first checking skips the most model calls on them."""
    for name in ("3w-2r", "mp-relseq-4t", "2+2w-x4"):
        test = parse_litmus((INPUTS / "ladder" / f"{name}.litmus").read_text())
        yield pytest.param(test, "c11", c11_consistent, id=f"{name}-c11")
        yield pytest.param(lower_test(test)[0], "aarch64", aarch64_consistent,
                           id=f"{name}-aarch64")
    for name in ("mp-dmb-st-ld+swp-wzr", "2+2w-dmb-st+swp-wzr"):
        test = parse_litmus((INPUTS / "asm" / f"{name}.litmus").read_text())
        yield pytest.param(test, "aarch64", aarch64_consistent, id=name)


def read_inputs(directory):
    return [parse_litmus(path.read_text())
            for path in sorted((INPUTS / directory).glob("*.litmus"))]


LADDER = read_inputs("ladder")
ASM_INPUTS = read_inputs("asm")
# Every 7th test of the 2,025-test exchange family.
FAMILY_SAMPLE = [test for test, _ in
                 generate_mp_family(support.EXCHANGE_FAMILY)][::7]


# hb paths that chain two sw edges through program order, which only the
# closure over sw sources finds: write-to-read causality, and load
# buffering whose chain returns to its first thread.
SW_CHAINS = [parse_litmus(text) for text in ("""C WRC+rel+acqs

{ x = 0; y = 0; }

P0 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_release);
}

P1 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_acquire);
  atomic_store_explicit(y, 1, memory_order_release);
}

P2 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_acquire);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}

exists (P1:r0 = 1 /\\ P2:r0 = 1 /\\ P2:r1 = 0)
""", """C LB+acq+rel

{ x = 0; y = 0; }

P0 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_acquire);
  atomic_store_explicit(x, 1, memory_order_release);
}

P1 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_acquire);
  atomic_store_explicit(y, 1, memory_order_release);
}

exists (P0:r0 = 1 /\\ P1:r0 = 1)
""")]


@pytest.mark.parametrize("test", FAMILY_SAMPLE + LADDER + SW_CHAINS,
                         ids=lambda test: test.name)
def test_hb_is_the_closure_of_po_and_sw(test):
    support.check_hb_law(test)


def test_hb_law_meets_synchronisation():
    assert sum(map(support.check_hb_law, FAMILY_SAMPLE)) > 0
    assert sum(map(support.check_hb_law, LADDER)) > 0
    assert all(map(support.check_hb_law, SW_CHAINS))


@pytest.mark.parametrize(
    "test", [*LADDER, *(lower_test(test)[0] for test in LADDER), *ASM_INPUTS],
    ids=lambda test: test.name)
def test_both_construction_paths_agree(test):
    assert support.check_construction_law(test) > 0


@pytest.mark.parametrize("test, model, consistent", large_subjects())
def test_outcomes_match_brute_force_on_large_inputs(test, model, consistent):
    assert allowed_outcomes(test, model).outcomes \
        == naive_oracle.naive_final_states(test, consistent)


@pytest.mark.parametrize("test, model, consistent", large_subjects())
def test_classes_partition_the_candidates_on_large_inputs(test, model,
                                                          consistent):
    classes, members = support.check_class_law(test)
    assert classes < members


# Per large subject: the model calls of ``allowed_outcomes``, candidates
# and meets together; the products of more than one candidate; and the
# (meet, predicate) pairs where the meet is rejected, under both
# zero-register readings for aarch64.  A rejected meet ends its product, so
# a forbidden class costs at most two calls per product, not one per
# candidate: mp-relseq-4t and the two asm inputs are mostly forbidden
# classes, 3w-2r and 2+2w-x4 allowed ones.
COSTS = {
    "3w-2r-c11": (8, 8, 0), "3w-2r-aarch64": (8, 8, 0),
    "mp-relseq-4t-c11": (60, 48, 12), "mp-relseq-4t-aarch64": (60, 48, 24),
    "2+2w-x4-c11": (4, 4, 0), "2+2w-x4-aarch64": (4, 4, 0),
    "mp-dmb-st-ld+swp-wzr": (14, 9, 2), "2+2w-dmb-st+swp-wzr": (5, 4, 2),
}


@pytest.mark.parametrize("test, model, consistent", large_subjects())
def test_model_calls_follow_the_law_on_large_inputs(
        request, test, model, consistent):
    calls, *_ = COSTS[request.node.callspec.id]
    assert sum(support.check_model_call_law(test, model)) == calls


@pytest.mark.parametrize("test, model, consistent", large_subjects())
def test_a_rejected_meet_rejects_its_product_on_large_inputs(
        request, test, model, consistent):
    _, *meets = COSTS[request.node.callspec.id]
    assert list(support.check_meet_law(test)) == meets


# Per large subject, one ``allowed_outcomes`` call: the choices whose
# ``_location_rows`` are built, and the ANDs taken, two (``com`` and
# ``eco_before``) per group whose meet is checked.  A group sits in many
# products: mp-relseq-4t's 12 meets, of one group per location each, share
# 13 groups, so 26 ANDs are taken where one per meet and group would be 48.
ROW_WORK = {
    "3w-2r-c11": (9, 0), "3w-2r-aarch64": (9, 0),
    "mp-relseq-4t-c11": (51, 26), "mp-relseq-4t-aarch64": (51, 26),
    "2+2w-x4-c11": (4, 0), "2+2w-x4-aarch64": (4, 0),
    "mp-dmb-st-ld+swp-wzr": (48, 6), "2+2w-dmb-st+swp-wzr": (56, 4),
}


@pytest.mark.parametrize("test, model, consistent", large_subjects())
def test_rows_and_group_meets_are_built_once_on_large_inputs(
        request, test, model, consistent):
    assert support.check_row_work_law(test, model) \
        == ROW_WORK[request.node.callspec.id]


# The same pins under the sc model, which applies to every subject: model
# calls, products of more than one candidate and rejected meets.  A ladder
# source and its lowering have the same events and sc reads no memory
# order, so the two cost the same.  On mp-relseq-4t sc rejects the first
# candidate of 38 of the 48 products where c11 rejects 12; 26 of those
# meets are accepted, and their products are searched candidate by
# candidate up to an sc one.
SC_COSTS = {
    "3w-2r-c11": (22, 8, 0), "3w-2r-aarch64": (22, 8, 0),
    "mp-relseq-4t-c11": (274, 48, 12), "mp-relseq-4t-aarch64": (274, 48, 12),
    "2+2w-x4-c11": (5, 4, 1), "2+2w-x4-aarch64": (5, 4, 1),
    "mp-dmb-st-ld+swp-wzr": (51, 9, 1), "2+2w-dmb-st+swp-wzr": (5, 4, 1),
}


@pytest.mark.parametrize("test, model, consistent", large_subjects())
def test_sc_model_call_and_meet_laws_on_large_inputs(
        request, test, model, consistent):
    calls, *meets = SC_COSTS[request.node.callspec.id]
    assert sum(support.check_model_call_law(test, "sc")) == calls
    assert list(support.check_meet_law(test, [sc_consistent])) == meets
    support.check_row_work_law(test, "sc")


def test_events_correspond_across_lowering():
    # The whole exchange family, the ladder sources and the golden source:
    # a compiled event is the source event of the same id.
    family = [test for test, _ in generate_mp_family(support.EXCHANGE_FAMILY)]
    golden = parse_litmus(golden_path("mp-xchg-discard.litmus").read_text())
    subjects = [*family, *LADDER, golden]
    assert len(family) == 2025
    assert sum(map(support.check_event_correspondence_law, subjects)) \
        > len(subjects)


def test_mp_family_products_hold_one_candidate():
    # So the MP family, which the mp-corpus benchmark samples, never has a
    # meet to check: its model calls stay one per candidate.
    for test in FAMILY_SAMPLE:
        compiled, _ = lower_test(test)
        for subject in (test, compiled, dead_register_pass(compiled)):
            assert all(len(product) == 1 for _, products
                       in enumerate_candidates(Search(build_events(subject)))
                       for product in products), subject.name


# asm tests whose writes copy what a read returned (data dependencies):
# the outcome and the value cycles of a candidate follow from the rf
# sources of the copied reads, which the enumerator resolves per group of
# location choices before building any candidate.
COPY_TESTS = {
    # the thin-air shape: each load reading the other thread's copy never
    # grounds in a constant
    "lb-datas": """AArch64 LB+datas
{
  x = 1; y = 2;
  0:X0 = x; 0:X1 = y;
  1:X0 = x; 1:X1 = y;
}
P0:
  LDR W2, [X0]
  STR W2, [X1]
P1:
  LDR W2, [X1]
  STR W2, [X0]
exists (0:W2 = 2 /\\ 1:W2 = 1 /\\ x = 1 /\\ y = 2)
""",
    "wrc-data": """AArch64 WRC+data
{
  x = 0; y = 0;
  0:X0 = x; 0:X1 = y;
  1:X0 = x; 1:X1 = y;
  2:X0 = x; 2:X1 = y;
}
P0:
  MOV W2, #1
  STR W2, [X0]
P1:
  LDR W2, [X0]
  STR W2, [X1]
P2:
  LDR W2, [X1]
  LDR W3, [X0]
exists (1:W2 = 1 /\\ 2:W2 = 1 /\\ 2:W3 = 0)
""",
    # x -> y -> z -> x: P3's exchange stores what it read from z back into
    # x, so copies can cycle through all three locations
    "copy-chain": """AArch64 copy-chain
{
  x = 0; y = 0; z = 0;
  0:X0 = x;
  1:X0 = x; 1:X1 = y;
  2:X1 = y; 2:X2 = z;
  3:X0 = x; 3:X2 = z;
}
P0:
  MOV W1, #1
  STR W1, [X0]
P1:
  LDR W3, [X0]
  STR W3, [X1]
P2:
  LDR W4, [X1]
  STR W4, [X2]
P3:
  LDR W5, [X2]
  SWP W5, W6, [X0]
exists (1:W3 = 1 /\\ 2:W4 = 1 /\\ 3:W6 = 0 /\\ x = 1 /\\ z = 1)
""",
}


def assert_asm_outcomes_match_brute_force(test):
    """aarch64 outcome sets equal the model applied to every brute-force
    candidate, under both zero-register readings."""
    for legacy in (False, True):
        assert allowed_outcomes(
            test, "aarch64", legacy_zero_register=legacy).outcomes \
            == naive_oracle.naive_final_states(
                test, lambda ex: aarch64_consistent(
                    ex, legacy_zero_register=legacy)), test.name


@pytest.mark.parametrize("name", sorted(COPY_TESTS))
def test_outcomes_match_brute_force_on_copying_asm(name):
    test = parse_litmus(COPY_TESTS[name])
    support.check_class_law(test)
    assert_asm_outcomes_match_brute_force(test)
    for legacy in (False, True):
        support.check_model_call_law(test, "aarch64",
                                     legacy_zero_register=legacy)
    support.check_meet_law(test)
    support.check_sc_law(test)
    support.check_sc_inclusion_law(test)
    support.check_model_call_law(test, "sc")
    support.check_meet_law(test, [sc_consistent])


@pytest.mark.parametrize(
    "test", [*LADDER, *(lower_test(test)[0] for test in LADDER), *ASM_INPUTS,
             *map(parse_litmus, COPY_TESTS.values())],
    ids=lambda test: test.name)
def test_first_candidate_is_the_products_first_member(test):
    # Product.first() builds the first member without the product's
    # iterator: the same choices, class sources and rows, and no meet.
    products = [product for _, products in
                enumerate_candidates(Search(build_events(test)))
                for product in products]
    for product in products:
        first, member = product.first(), next(iter(product))
        assert not support.is_meet(first), test.name
        assert first.choices == member.choices, test.name
        assert first.sources is member.sources, test.name
        assert support.rows_of(first) == support.rows_of(member), test.name
        assert support.fingerprint(first) == support.fingerprint(member)
    assert products


@pytest.mark.parametrize(
    "test", [*LADDER, *(lower_test(test)[0] for test in LADDER), *ASM_INPUTS],
    ids=lambda test: test.name)
def test_dropping_edges_keeps_candidates_consistent(test):
    assert support.check_antitone_law(test, test.name) > 0
    assert support.check_antitone_law(test, test.name,
                                      predicates=[sc_consistent]) > 0


@pytest.mark.parametrize(
    "test", [*LADDER, *(lower_test(test)[0] for test in LADDER), *ASM_INPUTS],
    ids=lambda test: test.name)
def test_sc_model_matches_both_oracles_on_inputs(test):
    support.check_sc_law(test)
    accepted, members = support.check_sc_inclusion_law(test)
    assert 0 < accepted <= members


@pytest.mark.parametrize("legacy", [False, True])
@pytest.mark.parametrize(
    "test", [*(lower_test(test)[0] for test in LADDER), *ASM_INPUTS],
    ids=lambda test: test.name)
def test_interleavings_allowed_by_aarch64_on_inputs(test, legacy):
    assert interleaving_outcomes(test) <= allowed_outcomes(
        test, "aarch64", legacy_zero_register=legacy).outcomes


GOLDEN = [parse_litmus(golden_path(name).read_text()) for name in (
    "mp-xchg-discard.litmus", "mp-xchg-discard-compiled-w15.litmus",
    "mp-xchg-discard-compiled-wzr.litmus")]


@pytest.mark.parametrize(
    "test", [*LADDER, *(lower_test(test)[0] for test in LADDER), *ASM_INPUTS,
             *GOLDEN],
    ids=lambda test: test.name)
def test_location_rows_equal_the_pairwise_reference(test):
    assert support.check_location_rows_law(test) > 0


@pytest.mark.parametrize(
    "test", [*LADDER, *(lower_test(test)[0] for test in LADDER), *ASM_INPUTS,
             *GOLDEN],
    ids=lambda test: test.name)
def test_location_choices_equal_the_filtered_reference(test):
    support.check_location_choices_law(test)


@pytest.mark.parametrize(
    "test", [*LADDER, *(lower_test(test)[0] for test in LADDER), *ASM_INPUTS,
             *GOLDEN],
    ids=lambda test: test.name)
def test_graph_tables_equal_the_reference(test):
    support.check_tables_law(test)


# ``build_events`` keeps no per-event record; the reference builds one per
# event, and every field of it must be read back off the graph's tables.
@pytest.mark.parametrize(
    "test", [*LADDER, *(lower_test(test)[0] for test in LADDER), *ASM_INPUTS,
             *GOLDEN],
    ids=lambda test: test.name)
def test_events_equal_the_reference_builder(test):
    support.check_build_events_law(test)


# No input above defines an asm register twice; here W2 is bound by a MOV, a
# load and an exchange, and ``final_defs`` keeps its first place.
REDEFINED = parse_litmus("\n".join([
    "AArch64 redefine", "", "{", "  x = 0;", "  0:X0 = x;", "}", "",
    "P0:", "  MOV W2, #1", "  MOV W3, #2", "  MOV W4, #3",
    "  STR W2, [X0]", "  MOV W2, #4", "  LDR W2, [X0]", "  MOV W3, #5",
    "  SWP W4, W2, [X0]", "", "exists (0:W2 = 0 /\\ 0:W3 = 5)", ""]))


def test_graph_tables_equal_the_reference_on_redefined_registers():
    support.check_tables_law(REDEFINED)


def test_events_equal_the_reference_builder_on_redefined_registers():
    support.check_build_events_law(REDEFINED)


def test_location_search_makes_fewer_choices_than_the_budget():
    # The shape's budget counts every rf tuple of every coherence order;
    # the search makes only the coherent ones.
    subjects = [*LADDER, *(lower_test(test)[0] for test in LADDER),
                *ASM_INPUTS]
    counts = {test.name: support.check_location_choices_law(test)
              for test in subjects}
    assert len(counts) == 26
    assert tuple(map(sum, zip(*counts.values()))) == (604, 1270)
    # 3w-2r, mp-dmb-st-ld+swp-wzr and 2+2w-dmb-st+swp-wzr
    assert counts["ThreeW+2R"] == counts["ThreeW+2R-compiled"] == (44, 192)
    assert counts["MP+dmb.st+dmb.ld+swp-wzr"] == (81, 216)
    assert counts["TwoTwoW+dmb.st+swp-wzr"] == (108, 216)


# ``--max-candidates`` counts a budget of per-location choices, worked out
# from the event graph's shape before any search; the reference lists every
# write order and filters it.
@pytest.mark.parametrize(
    "test", [*LADDER, *(lower_test(test)[0] for test in LADDER), *ASM_INPUTS,
             *GOLDEN],
    ids=lambda test: test.name)
def test_examined_choices_equal_the_brute_force_count(test):
    assert build_events(test).examined_choices \
        == support.naive_examined_choices(test)


@pytest.mark.parametrize("test", CORPUS, ids=IDS)
def test_examined_choices_equal_the_brute_force_count_across_corpus(test):
    for subject in (test, lower_test(test)[0]):
        assert build_events(subject).examined_choices \
            == support.naive_examined_choices(subject)


@pytest.mark.parametrize("test", CORPUS, ids=IDS)
def test_graph_tables_equal_the_reference_across_corpus(test):
    compiled = lower_test(test)[0]
    for subject in (test, compiled, dead_register_pass(compiled)):
        support.check_tables_law(subject)


@pytest.mark.parametrize("test", CORPUS, ids=IDS)
def test_events_equal_the_reference_builder_across_corpus(test):
    compiled = lower_test(test)[0]
    for subject in (test, compiled, dead_register_pass(compiled)):
        support.check_build_events_law(subject)


@pytest.mark.parametrize("test", CORPUS, ids=IDS)
def test_row_laws_hold_across_corpus(test):
    for subject in (test, lower_test(test)[0]):
        incoherent, _ = support.check_row_laws(subject)
        assert incoherent > 0


# random source tests, kept small enough to enumerate instantly

_VALUES = st.integers(0, 7)
_STORE_CHOICES = tuple(o for o in MemoryOrder if o in STORE_ORDERS)
_LOAD_CHOICES = tuple(o for o in MemoryOrder if o in LOAD_ORDERS)
_FENCE_CHOICES = tuple(o for o in MemoryOrder if o in FENCE_ORDERS)


@st.composite
def _threads(draw, tid, locations, max_stmts):
    n = draw(st.integers(1, max_stmts))
    stmts = []
    regs = 0
    for _ in range(n):
        kind = draw(st.sampled_from(list(StmtKind)))
        if kind is StmtKind.STORE:
            stmts.append(SourceStmt(
                kind, draw(st.sampled_from(_STORE_CHOICES)),
                location=draw(st.sampled_from(locations)),
                value=draw(_VALUES)))
        elif kind is StmtKind.LOAD:
            stmts.append(SourceStmt(
                kind, draw(st.sampled_from(_LOAD_CHOICES)),
                location=draw(st.sampled_from(locations)),
                dest=f"r{regs}"))
            regs += 1
        elif kind is StmtKind.EXCHANGE:
            dest = draw(st.sampled_from((None, f"r{regs}")))
            if dest is not None:
                regs += 1
            stmts.append(SourceStmt(
                kind, draw(st.sampled_from(tuple(MemoryOrder))),
                location=draw(st.sampled_from(locations)),
                value=draw(_VALUES), dest=dest))
        else:
            stmts.append(SourceStmt(
                kind, draw(st.sampled_from(_FENCE_CHOICES))))
    return Thread(tid, tuple(stmts))


@st.composite
def small_source_tests(draw, max_locations=2, max_stmts=3, max_threads=2):
    names = ("x", "y")[:draw(st.integers(1, max_locations))]
    locations = {name: draw(_VALUES) for name in names}
    threads = tuple(
        draw(_threads(tid, names, max_stmts))
        for tid in range(draw(st.integers(1, max_threads)))
    )
    final = Atom(MemoryObservable(draw(st.sampled_from(names))),
                 draw(_VALUES))
    test = LitmusTest("gen", Dialect.SOURCE, locations, threads, final)
    validate_test(test)
    return test


@st.composite
def release_acquire_chains(draw):
    """Three links, one per thread: a load, then a store of the thread's
    number plus one, each with a random memory order.  Link i stores the
    location that link i+1 loads, so a release store read by an acquire
    load chains sw edges through program order into hb paths of two and
    three sw edges.  The first load and the last store each pick x or y,
    so the chain may close into a ring or end in a write that coherence
    orders against the first link's.  The exists clause observes a random
    non-empty set of registers and locations; the rf choices of the loads
    it leaves out make products of more than one candidate."""
    loads = (draw(st.sampled_from(("x", "y"))), "x", "y")
    stores = ("x", "y", draw(st.sampled_from(("x", "y"))))
    threads = tuple(Thread(tid, (
        SourceStmt(StmtKind.LOAD, draw(st.sampled_from(_LOAD_CHOICES)),
                   location=loads[tid], dest="r0"),
        SourceStmt(StmtKind.STORE, draw(st.sampled_from(_STORE_CHOICES)),
                   location=stores[tid], value=tid + 1),
    )) for tid in range(3))
    observables = [*(RegisterObservable(tid, "r0") for tid in range(3)),
                   MemoryObservable("x"), MemoryObservable("y")]
    observed = draw(st.lists(st.sampled_from(observables), min_size=1,
                             max_size=3, unique=True))
    final = functools.reduce(Conj, [Atom(obs, draw(st.integers(0, 3)))
                                     for obs in observed])
    test = LitmusTest("chain", Dialect.SOURCE, {"x": 0, "y": 0}, threads,
                      final)
    validate_test(test)
    return test


_W_REGISTERS = tuple(f"W{i}" for i in range(31))
_ADDRESSES = ("X0", "X1")
_LOADS = (Mnemonic.LDR, Mnemonic.LDAR)
_STORES = (Mnemonic.STR, Mnemonic.STLR)
_SWAPS = tuple(m for m in Mnemonic if m in SWP_FAMILY)
_DOMAINS = tuple(DmbDomain)


@st.composite
def _asm_thread(draw, tid, names):
    """One to three memory instructions, each on a random location.  A
    stored register holds a MOV'd constant, a loaded value (a data copy) or
    is WZR; an exchange's destination is WZR or fresh, as is every other
    register written."""
    fresh = iter(draw(st.permutations(_W_REGISTERS)))
    loaded = []
    instrs = []

    def stored():
        kind = draw(st.sampled_from(("const", "zero", "copy") if loaded
                                    else ("const", "zero")))
        if kind == "zero":
            return ZERO_REGISTER
        if kind == "copy":
            return draw(st.sampled_from(loaded))
        reg = next(fresh)
        instrs.append(AsmInstr(Mnemonic.MOV, dst=reg, imm=draw(_VALUES)))
        return reg

    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("load", "store", "swap", "barrier")))
        if kind == "barrier":
            instrs.append(AsmInstr(Mnemonic.DMB,
                                   domain=draw(st.sampled_from(_DOMAINS))))
            continue
        addr = draw(st.sampled_from(_ADDRESSES[:len(names)]))
        if kind == "load":
            loaded.append(next(fresh))
            instrs.append(AsmInstr(draw(st.sampled_from(_LOADS)),
                                   dst=loaded[-1], addr=addr))
        elif kind == "store":
            src = stored()
            instrs.append(AsmInstr(draw(st.sampled_from(_STORES)), src=src,
                                   addr=addr))
        else:
            src = stored()
            dst = draw(st.sampled_from((ZERO_REGISTER, next(fresh))))
            if dst != ZERO_REGISTER:
                loaded.append(dst)
            instrs.append(AsmInstr(draw(st.sampled_from(_SWAPS)), src=src,
                                   dst=dst, addr=addr))
    return Thread(tid, tuple(instrs), tuple(zip(_ADDRESSES, names)))


@st.composite
def small_asm_tests(draw):
    """Two threads over one or two locations.  The exists clause names a
    location and up to two registers that the threads define.  With three
    threads the brute-force oracle takes minutes per test."""
    names = ("x", "y")[:draw(st.integers(1, 2))]
    locations = {name: draw(_VALUES) for name in names}
    threads = tuple(draw(_asm_thread(tid, names)) for tid in range(2))
    registers = [RegisterObservable(thread.tid, reg) for thread in threads
                 for reg in thread.defined_registers()]
    observed = [MemoryObservable(draw(st.sampled_from(names))),
                *draw(st.lists(st.sampled_from(registers), max_size=2,
                               unique=True) if registers else st.just([]))]
    final = functools.reduce(Conj, [Atom(obs, draw(_VALUES))
                                     for obs in observed])
    test = LitmusTest("gen", Dialect.ASM, locations, threads, final)
    validate_test(test)
    return test


@settings(max_examples=90, deadline=None)
@given(st.one_of(small_source_tests(), small_asm_tests()))
def test_render_parse_round_trip(test):
    subjects = [test]
    if test.dialect is Dialect.SOURCE:
        compiled, _ = lower_test(test)
        subjects += [compiled, dead_register_pass(compiled)]
    for subject in subjects:
        text = render_litmus(subject)
        assert parse_litmus(text) == subject
        support.check_reader_law(text)


# The brute-force oracle walks every coherence order and rf choice: 84
# million for six exchanges on one location, minutes of work.  Random asm
# tests past this many choices are left to the laws below.
NAIVE_CHOICES = 10**6


@settings(max_examples=150, deadline=None)
@given(small_asm_tests())
def test_enumeration_and_outcomes_match_brute_force_on_random_asm(test):
    assume(support.naive_choices(test) <= NAIVE_CHOICES)
    support.check_class_law(test)
    assert_asm_outcomes_match_brute_force(test)
    support.check_sc_law(test)
    support.check_sc_inclusion_law(test)


@settings(max_examples=100, deadline=None)
@given(small_asm_tests())
def test_interleavings_allowed_by_aarch64_on_random_asm(test):
    sc = interleaving_outcomes(test)
    for legacy in (False, True):
        assert sc <= allowed_outcomes(
            test, "aarch64", legacy_zero_register=legacy).outcomes


def test_one_listing_serves_both_sides_across_lowering():
    # The subjects of test_events_correspond_across_lowering, each lowered
    # plain and with the dead-register rewrite: the mapping check accepts
    # the lowering's mapping, every pair shares the source graph's listing,
    # and its verdict is the two searches' one.
    family = [test for test, _ in generate_mp_family(support.EXCHANGE_FAMILY)]
    golden = parse_litmus(golden_path("mp-xchg-discard.litmus").read_text())
    pairs = 0
    for test in [*family, *LADDER, golden]:
        compiled, mapping = lower_test(test)
        for subject in (compiled, dead_register_pass(compiled)):
            support.check_mapping_law(test, subject, mapping)
            assert support.check_shared_search_law(test, subject, mapping), \
                test.name
            pairs += 1
    assert pairs == 2 * (2025 + len(LADDER) + 1)


def test_one_listing_serves_many_lowerings():
    # A seeded sample of 200 exchange-family tests, each with its four
    # lowered variants: plain and dead-register, under both zero-register
    # readings.
    sample = generate_mp_family(dataclasses.replace(
        support.EXCHANGE_FAMILY, limit=200, seed=31))
    assert sum(support.check_one_listing_law(test)
               for test, _ in sample) == 800


@settings(max_examples=100, deadline=None)
@given(small_source_tests(max_threads=3))
def test_one_listing_serves_both_sides_on_random_tests(test):
    compiled, mapping = lower_test(test)
    for subject in (compiled, dead_register_pass(compiled)):
        support.check_mapping_law(test, subject, mapping)
        assert support.check_shared_search_law(test, subject, mapping)
        assert support.check_shared_search_law(test, subject)


@settings(max_examples=60, deadline=None)
@given(small_asm_tests(), st.integers(0, 2**32 - 1))
def test_dropping_edges_keeps_candidates_consistent_on_random_asm(test,
                                                                 seed):
    support.check_antitone_law(test, seed)
    support.check_antitone_law(test, seed, predicates=[sc_consistent])


@settings(max_examples=60, deadline=None)
@given(small_source_tests(max_locations=1))
def test_single_location_model_collapses_to_interleavings(test):
    # with one location, coherence plus atomicity admit exactly the
    # interleaving outcomes
    assert allowed_outcomes(test, "c11").outcomes \
        == interleaving_outcomes(test)


@settings(max_examples=100, deadline=None)
@given(small_source_tests(max_threads=3))
def test_events_correspond_across_lowering_on_random_tests(test):
    support.check_event_correspondence_law(test)


@settings(max_examples=40, deadline=None)
@given(small_source_tests(max_stmts=2))
def test_enumeration_matches_brute_force_on_random_tests(test):
    support.check_class_law(test)
    support.check_class_law(lower_test(test)[0])


@settings(max_examples=40, deadline=None)
@given(small_source_tests(max_stmts=2))
def test_model_sees_each_class_up_to_its_first_consistent_on_random_tests(
        test):
    support.check_model_call_law(test, "c11")
    support.check_model_call_law(lower_test(test)[0], "aarch64")
    support.check_model_call_law(test, "sc")
    support.check_model_call_law(lower_test(test)[0], "sc")


@settings(max_examples=40, deadline=None)
@given(small_source_tests(max_stmts=2))
def test_outcomes_match_brute_force_on_random_tests(test):
    support.assert_outcomes_match_brute_force(test)
    for subject in (test, lower_test(test)[0]):
        support.check_sc_law(subject)
        support.check_sc_inclusion_law(subject)


@settings(max_examples=60, deadline=None)
@given(small_source_tests(max_stmts=2, max_threads=3))
def test_hb_is_the_closure_of_po_and_sw_on_random_tests(test):
    support.check_hb_law(test)


@settings(max_examples=60, deadline=None)
@given(release_acquire_chains())
def test_hb_is_the_closure_of_po_and_sw_on_random_chains(test):
    support.check_hb_law(test)


@settings(max_examples=60, deadline=None)
@given(release_acquire_chains())
def test_meet_and_model_call_laws_hold_on_random_chains(test):
    support.check_meet_law(test)
    support.check_meet_law(lower_test(test)[0])
    support.check_model_call_law(test, "c11")
    support.check_model_call_law(lower_test(test)[0], "aarch64")
    for subject in (test, lower_test(test)[0]):
        support.check_meet_law(subject, [sc_consistent])
        support.check_model_call_law(subject, "sc")


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_source_tests(max_stmts=2), release_acquire_chains()),
       st.integers(0, 2**32 - 1))
def test_dropping_edges_keeps_candidates_consistent_on_random_tests(test,
                                                                   seed):
    for subject in (test, lower_test(test)[0]):
        support.check_antitone_law(subject, seed)
        support.check_antitone_law(subject, seed, predicates=[sc_consistent])


@settings(max_examples=40, deadline=None)
@given(small_source_tests(max_stmts=2))
def test_row_laws_hold_on_random_tests(test):
    support.check_row_laws(test)
    support.check_row_laws(lower_test(test)[0])


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_source_tests(max_stmts=2, max_threads=3),
                 small_asm_tests(), release_acquire_chains()))
def test_examined_choices_equal_the_brute_force_count_on_random_tests(test):
    assert build_events(test).examined_choices \
        == support.naive_examined_choices(test)
    if test.dialect is Dialect.SOURCE:
        compiled = lower_test(test)[0]
        assert build_events(compiled).examined_choices \
            == support.naive_examined_choices(compiled)


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_source_tests(max_stmts=2, max_threads=3),
                 release_acquire_chains()))
def test_location_rows_equal_the_pairwise_reference_on_random_tests(test):
    assert support.check_location_rows_law(test) > 0
    assert support.check_location_rows_law(lower_test(test)[0]) > 0


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_source_tests(max_stmts=3, max_threads=3),
                 small_asm_tests(), release_acquire_chains()))
def test_location_choices_equal_the_filtered_reference_on_random_tests(test):
    support.check_location_choices_law(test)
    if test.dialect is Dialect.SOURCE:
        support.check_location_choices_law(lower_test(test)[0])


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_source_tests(max_stmts=3, max_threads=3),
                 small_asm_tests(), release_acquire_chains()))
def test_graph_tables_equal_the_reference_on_random_tests(test):
    support.check_tables_law(test)
    if test.dialect is Dialect.SOURCE:
        compiled = lower_test(test)[0]
        support.check_tables_law(compiled)
        support.check_tables_law(dead_register_pass(compiled))


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_source_tests(max_stmts=3, max_threads=3),
                 small_asm_tests(), release_acquire_chains()))
def test_events_equal_the_reference_builder_on_random_tests(test):
    support.check_build_events_law(test)
    if test.dialect is Dialect.SOURCE:
        compiled = lower_test(test)[0]
        support.check_build_events_law(compiled)
        support.check_build_events_law(dead_register_pass(compiled))
