"""Consistency judgments of the asm-dialect model, zero register included."""

import pytest

import support
from litmusdiff import model_aarch64
from litmusdiff.execution import (
    Outcome,
    allowed_outcomes,
    atomicity_holds,
    build_events,
    eco_respected,
)
from litmusdiff.model_aarch64 import aarch64_consistent, barrier_order
from litmusdiff.syntax import parse_litmus
from support import candidates, hand_execution, pairs


def asm(lines, *, init=("x = 0;", "0:X0 = x;"), exists="exists (x = 0)"):
    text = ["AArch64 t", "", "{"] + [f"  {e}" for e in init] + ["}", "", "P0:"]
    text += [f"  {line}" for line in lines]
    text += ["", exists, ""]
    return parse_litmus("\n".join(text))


def bob(test, legacy=False):
    return pairs(barrier_order(build_events(test), legacy))


def test_barrier_order_of_goldens(compiled_w15, compiled_wzr):
    # releases 3 and 5 order what precedes them; DMB ISHLD (6) orders the
    # swap's read (4) before the load (7) only while it reads a register
    assert bob(compiled_w15) == {(2, 3), (4, 5), (4, 7)}
    assert bob(compiled_wzr) == {(2, 3), (4, 5)}
    assert bob(compiled_wzr, legacy=True) == {(2, 3), (4, 5), (4, 7)}


def test_barrier_order_acquire_swap_to_zero_register():
    test = asm(["MOV W2, #1", "SWPA W2, WZR, [X0]"])
    assert bob(test) == set()
    assert bob(test, legacy=True) == {(1, 2)}


def two_loc(lines, exists="exists (x = 0)"):
    return asm(lines, init=("x = 0;", "y = 0;", "0:X0 = x; 0:X1 = y;"),
               exists=exists)


def test_full_barrier_orders_everything():
    test = two_loc(["MOV W2, #1", "STR W2, [X0]", "DMB SY", "LDR W3, [X1]"])
    assert (2, 4) in bob(test)


def test_load_barrier_orders_only_after_reads():
    test = two_loc(["LDR W2, [X0]", "DMB ISHLD", "MOV W3, #1", "STR W3, [X1]"])
    assert (2, 4) in bob(test)

    # a write before the barrier picks up no edge
    test = two_loc(["MOV W2, #1", "STR W2, [X0]", "DMB ISHLD", "LDR W3, [X1]"])
    assert bob(test) == set()


def test_store_barrier_ignores_reads():
    test = two_loc(["MOV W2, #1", "LDR W4, [X1]", "STR W2, [X0]",
                    "DMB ISHST", "STR W2, [X1]"])
    assert bob(test) == {(3, 5)}


def test_acquire_load_orders_everything_after():
    test = two_loc(["LDAR W2, [X0]", "MOV W3, #1", "STR W3, [X1]",
                    "LDR W4, [X0]"])
    assert {(2, 3), (2, 4)} <= bob(test)
    assert (3, 4) not in bob(test)


def test_release_store_orders_everything_before():
    test = two_loc(["MOV W2, #1", "LDR W3, [X1]", "STLR W2, [X0]"])
    assert bob(test) == {(2, 3)}


def test_zero_destination_swap_loses_load_barrier():
    # events: two init writes, then the swap's read (2) and write (3), the
    # barrier, and the load (5)
    live = two_loc(["MOV W2, #1", "SWP W2, W3, [X0]", "DMB ISHLD",
                    "LDR W4, [X1]"])
    assert (2, 5) in bob(live)

    dead = two_loc(["MOV W2, #1", "SWP W2, WZR, [X0]", "DMB ISHLD",
                    "LDR W4, [X1]"])
    graph = build_events(dead)   # one graph, so one memo, for both readings
    assert (2, 5) not in pairs(barrier_order(graph))
    assert (2, 5) in pairs(barrier_order(graph, legacy_zero_register=True))


def test_obs_keeps_only_cross_thread_communication():
    test = asm(["MOV W2, #1", "STR W2, [X0]", "LDR W3, [X0]"])
    graph = build_events(test)
    for ex in candidates(graph):
        if ex.rf[2] == 1:  # load reads the same thread's store
            obs = pairs([c & ~t for c, t in zip(ex.com, graph.same_thread)])
            assert (1, 2) in pairs(ex.com)
            assert (1, 2) not in obs
            assert (0, 1) in obs  # init write is external to all
            assert eco_respected(ex, graph.po_loc)
            break
    else:
        pytest.fail("expected candidate missing")


def test_same_thread_stale_read_is_internally_inconsistent():
    test = asm(["MOV W2, #1", "STR W2, [X0]", "LDR W3, [X0]"],
               exists="exists (0:W3 = 0)")
    got = allowed_outcomes(test, "aarch64")
    assert set(got.outcomes) == {Outcome.from_dict({"0:W3": 1})}


def test_atomicity_rejects_every_intervening_write(compiled_w15):
    displaced = hand_execution(
        compiled_w15, rf={4: 1, 7: 2}, co={"x": (0, 2), "y": (1, 3, 5)})
    # P0's flag store sits between the swap's source and its write
    assert not atomicity_holds(displaced)
    assert not aarch64_consistent(displaced)

    own = asm(["MOV W2, #1", "SWP W2, W3, [X0]", "SWP W2, W4, [X0]"],
              exists="exists (0:W3 = 0)")
    # the second swap's write squeezes between the first swap's source (init)
    # and its write, all inside one thread
    twisted = hand_execution(own, rf={1: 0, 3: 2},
                             co={"x": (0, 4, 2)})
    assert not atomicity_holds(twisted)
    assert not aarch64_consistent(twisted)     # internal order rejects it too


@pytest.mark.parametrize("other", [
    ["MOV W5, #3", "STR W5, [X0]"],
    ["LDR W5, [X0]", "MOV W6, #4", "SWP W6, W7, [X0]"],
])
def test_strict_atomicity_agrees_with_lenient_on_coherent_executions(other):
    # an own-thread write between an exchange's source and its write is
    # po-before the read (a po-loc;fr cycle) or po-after the write (po-loc;co)
    test = parse_litmus("\n".join([
        "AArch64 two-swaps", "", "{", "  x = 0;", "  0:X0 = x; 1:X0 = x;",
        "}", "", "P0:", "  MOV W2, #1", "  SWP W2, W3, [X0]",
        "  SWP W2, W4, [X0]", "", "P1:", *(f"  {line}" for line in other),
        "", "exists (x = 0)", ""]))
    assert support.check_atomicity_law(test) > 0


def test_barrier_order_built_once_per_graph_and_flag(monkeypatch,
                                                     compiled_wzr):
    calls = []
    build = model_aarch64._barrier_ordered

    def counted(graph, legacy_zero_register):
        calls.append(legacy_zero_register)
        return build(graph, legacy_zero_register)

    monkeypatch.setattr(model_aarch64, "_barrier_ordered", counted)
    allowed_outcomes(compiled_wzr, "aarch64")
    assert calls == [False]

    calls.clear()
    found = candidates(build_events(compiled_wzr))
    assert len(found) > 1
    for ex in found:
        for legacy in (False, True):
            aarch64_consistent(ex, legacy_zero_register=legacy)
    assert calls == [False, True]


def test_buggy_golden_admits_stale_read(compiled_wzr, compiled_w15):
    weak = Outcome.from_dict({"1:W3": 0, "y": 2})
    buggy = set(allowed_outcomes(compiled_wzr, "aarch64").outcomes)
    fixed = set(allowed_outcomes(compiled_w15, "aarch64").outcomes)
    assert weak in buggy
    assert weak not in fixed
    assert buggy == fixed | {weak}


def test_legacy_flag_restores_old_reading(compiled_wzr, compiled_w15):
    legacy = allowed_outcomes(compiled_wzr, "aarch64",
                              legacy_zero_register=True)
    assert set(legacy.outcomes) == \
        set(allowed_outcomes(compiled_w15, "aarch64").outcomes)


def test_ob_refuses_source(discard_source):
    with pytest.raises(ValueError, match="asm tests"):
        barrier_order(build_events(discard_source))
