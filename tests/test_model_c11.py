"""Consistency judgments of the source-dialect model."""

import pytest

from interleaving_oracle import interleaving_outcomes
from naive_oracle import naive_final_states
from litmusdiff import model_c11
from litmusdiff.execution import (
    Outcome,
    allowed_outcomes,
    atomicity_holds,
    build_events,
)
from litmusdiff.model_c11 import (
    _synchronizes_with,
    c11_consistent,
    happens_before,
)
from litmusdiff.syntax import parse_litmus
from support import candidates, hand_execution, pairs


def mp(reader_block, exists):
    return parse_litmus("\n".join([
        "C mp", "", "{ x = 0; y = 0; }", "",
        "P0 {",
        "  atomic_store_explicit(x, 1, memory_order_relaxed);",
        "  atomic_store_explicit(y, 1, memory_order_release);",
        "}", "",
        "P1 {",
    ] + [f"  {line}" for line in reader_block] + [
        "}", "", f"exists ({exists})", "",
    ]))


def test_canonical_outcome_set(discard_source):
    got = allowed_outcomes(discard_source, "c11")
    want = {
        Outcome.from_dict({"P1:r0": 0, "y": 1}),
        Outcome.from_dict({"P1:r0": 1, "y": 1}),
        Outcome.from_dict({"P1:r0": 1, "y": 2}),
    }
    assert set(got.outcomes) == want
    assert Outcome.from_dict({"P1:r0": 0, "y": 2}) not in got.outcomes


def test_canonical_set_matches_naive_route(discard_source):
    assert naive_final_states(discard_source, c11_consistent) == \
        set(allowed_outcomes(discard_source, "c11").outcomes)


def test_acquire_exchange_synchronizes():
    forbidden = Outcome.from_dict({"P1:r1": 1, "P1:r0": 0})
    strong = mp([
        "int r1 = atomic_exchange_explicit(y, 2, memory_order_acq_rel);",
        "int r0 = atomic_load_explicit(x, memory_order_relaxed);",
    ], "P1:r1 = 1 /\\ P1:r0 = 0")
    assert forbidden not in allowed_outcomes(strong, "c11").outcomes

    weak = mp([
        "int r1 = atomic_exchange_explicit(y, 2, memory_order_relaxed);",
        "int r0 = atomic_load_explicit(x, memory_order_relaxed);",
    ], "P1:r1 = 1 /\\ P1:r0 = 0")
    assert forbidden in allowed_outcomes(weak, "c11").outcomes


def test_acquire_fence_after_relaxed_read():
    forbidden = Outcome.from_dict({"P1:r1": 1, "P1:r0": 0})
    fenced = mp([
        "int r1 = atomic_load_explicit(y, memory_order_relaxed);",
        "atomic_thread_fence(memory_order_acquire);",
        "int r0 = atomic_load_explicit(x, memory_order_relaxed);",
    ], "P1:r1 = 1 /\\ P1:r0 = 0")
    assert forbidden not in allowed_outcomes(fenced, "c11").outcomes

    unfenced = mp([
        "int r1 = atomic_load_explicit(y, memory_order_relaxed);",
        "int r0 = atomic_load_explicit(x, memory_order_relaxed);",
    ], "P1:r1 = 1 /\\ P1:r0 = 0")
    assert forbidden in allowed_outcomes(unfenced, "c11").outcomes


def test_release_fence_before_relaxed_write():
    text = "\n".join([
        "C mp-fence", "", "{ x = 0; y = 0; }", "",
        "P0 {",
        "  atomic_store_explicit(x, 1, memory_order_relaxed);",
        "  atomic_thread_fence(memory_order_release);",
        "  atomic_store_explicit(y, 1, memory_order_relaxed);",
        "}", "",
        "P1 {",
        "  int r1 = atomic_load_explicit(y, memory_order_acquire);",
        "  int r0 = atomic_load_explicit(x, memory_order_relaxed);",
        "}", "",
        "exists (P1:r1 = 1 /\\ P1:r0 = 0)", "",
    ])
    got = allowed_outcomes(parse_litmus(text), "c11")
    assert Outcome.from_dict({"P1:r1": 1, "P1:r0": 0}) not in got.outcomes


RSEQ_TEMPLATE = [
    "C rseq", "", "{ x = 0; y = 0; }", "",
    "P0 {",
    "  atomic_store_explicit(x, 1, memory_order_relaxed);",
    "  atomic_store_explicit(y, 1, memory_order_release);",
    "}", "",
    "P1 {",
    "  {middle}",
    "}", "",
    "P2 {",
    "  int r2 = atomic_load_explicit(y, memory_order_acquire);",
    "  int r0 = atomic_load_explicit(x, memory_order_relaxed);",
    "}", "",
    "exists (P2:r2 = 2 /\\ P2:r0 = 0 /\\ y = 2)", "",
]


def rseq_test(middle):
    return parse_litmus(
        "\n".join(RSEQ_TEMPLATE).replace("{middle}", middle))


def test_release_sequence_through_exchange():
    stale = Outcome.from_dict({"P2:r2": 2, "P2:r0": 0, "y": 2})
    chained = rseq_test(
        "atomic_exchange_explicit(y, 2, memory_order_relaxed);")
    # reading the exchange's write still picks up the release store's order
    assert stale not in allowed_outcomes(chained, "c11").outcomes

    broken = rseq_test(
        "atomic_store_explicit(y, 2, memory_order_relaxed);")
    assert stale in allowed_outcomes(broken, "c11").outcomes


def sb(order):
    return parse_litmus("\n".join([
        "C sb", "", "{ x = 0; y = 0; }", "",
        "P0 {",
        f"  atomic_store_explicit(x, 1, memory_order_{order});",
        f"  int r0 = atomic_load_explicit(y, memory_order_{order});",
        "}", "",
        "P1 {",
        f"  atomic_store_explicit(y, 1, memory_order_{order});",
        f"  int r1 = atomic_load_explicit(x, memory_order_{order});",
        "}", "",
        "exists (P0:r0 = 0 /\\ P1:r1 = 0)", "",
    ]))


def test_seq_cst_forbids_store_buffering():
    both_zero = Outcome.from_dict({"P0:r0": 0, "P1:r1": 0})
    assert both_zero not in allowed_outcomes(sb("seq_cst"), "c11").outcomes
    assert both_zero in allowed_outcomes(sb("relaxed"), "c11").outcomes


def test_single_location_matches_interleaving():
    race = parse_litmus("\n".join([
        "C race", "", "{ x = 0; }", "",
        "P0 {",
        "  int r0 = atomic_exchange_explicit(x, 1, memory_order_relaxed);",
        "}", "",
        "P1 {",
        "  int r1 = atomic_exchange_explicit(x, 2, memory_order_relaxed);",
        "}", "",
        "exists (P0:r0 = 0 /\\ P1:r1 = 0)", "",
    ]))
    weak = set(allowed_outcomes(race, "c11").outcomes)
    assert weak == interleaving_outcomes(race)
    # both exchanges observing the initial value would break atomicity
    assert Outcome.from_dict({"P0:r0": 0, "P1:r1": 0}) not in weak


def test_atomicity_check_rejects_displaced_exchange(discard_source):
    # coherence puts another write between the exchange's source and its own
    # write: (init y, data-thread store, exchange write)
    ex = hand_execution(discard_source,
                        rf={4: 1, 7: 2}, co={"x": (0, 2), "y": (1, 3, 5)})
    assert not atomicity_holds(ex)
    assert not c11_consistent(ex)

    adjacent = hand_execution(discard_source,
                              rf={4: 3, 7: 2}, co={"x": (0, 2), "y": (1, 3, 5)})
    assert atomicity_holds(adjacent)
    assert c11_consistent(adjacent)


def test_sync_sets_built_once_per_graph(monkeypatch, discard_source):
    calls = []
    build = model_c11._sync_sets

    def counted(graph):
        calls.append(graph)
        return build(graph)

    monkeypatch.setattr(model_c11, "_sync_sets", counted)
    allowed_outcomes(discard_source, "c11")
    assert len(calls) == 1
    assert len(candidates(calls[0])) > 1


def test_hb_relations_on_forced_candidate(discard_source):
    graph = build_events(discard_source)
    for ex in candidates(graph):
        if ex.co["y"] == (1, 3, 5) and ex.rf[7] == 0:
            # exchange read picked up the release store; the acquire fence
            # then synchronizes and makes the stale data read inconsistent
            assert (3, 6) in pairs(_synchronizes_with(ex))
            assert (2, 7) in pairs(happens_before(ex))
            assert (2, 7) in pairs(ex.eco_before)  # 7 is eco-before 2
            assert not c11_consistent(ex)
            break
    else:
        pytest.fail("expected candidate missing")


def test_hb_refuses_asm(compiled_w15):
    graph = build_events(compiled_w15)
    ex = candidates(graph)[0]
    with pytest.raises(ValueError, match="source tests"):
        happens_before(ex)
