"""Message-passing family generator."""

import dataclasses
import random

import pytest

import support
from litmusdiff import testgen
from litmusdiff.litmus import LOAD_ORDERS, MemoryOrder, validate_test
from litmusdiff.syntax import render_litmus
from litmusdiff.testgen import (
    FlagMechanism,
    GenParams,
    GenerationError,
    Variant,
    generate_mp_family,
)

RLX = MemoryOrder.RELAXED
ACQ = MemoryOrder.ACQUIRE
REL = MemoryOrder.RELEASE
AR = MemoryOrder.ACQ_REL
SC = MemoryOrder.SEQ_CST


# The 2,025-test exchange family (the one perfbench samples its mp-corpus
# from) and the 405-test plain-store family: every legal order in every slot.
EXCHANGE_FAMILY = support.EXCHANGE_FAMILY
PLAIN_STORE_FAMILY = dataclasses.replace(
    EXCHANGE_FAMILY,
    variants=(Variant.HISTORIC,),
    flag_op_orders=support.legal(LOAD_ORDERS),
    flag_mechanism=FlagMechanism.PLAIN_STORE,
)


def comparable(family):
    return [(test.name, tag, render_litmus(test)) for test, tag in family]


def only(params):
    out = generate_mp_family(params)
    assert len(out) == 1
    return out[0]


def test_canonical_discard_matches_golden(discard_source):
    test, tag = only(GenParams(variants=(Variant.DISCARD,)))
    assert test.name == "mp-discard-rel-xchgrel-fenceacq-rlx"
    assert test.locations == discard_source.locations
    assert test.threads == discard_source.threads
    assert test.final == discard_source.final
    assert tag.variant is Variant.DISCARD
    assert tag.mechanism is FlagMechanism.EXCHANGE
    assert tag.orders == {
        "data_store": "relaxed",
        "flag_store": "release",
        "flag_op": "release",
        "fence": "acquire",
        "data_load": "relaxed",
    }


@pytest.mark.parametrize("params, name", [
    (GenParams((Variant.HISTORIC,)), "mp-historic-rel-xchgrel-fenceacq-rlx"),
    (GenParams((Variant.OBSERVE,), data_store_orders=(REL,)),
     "mp-observe-rel-rel-xchgrel-fenceacq-rlx"),
    (GenParams((Variant.DISCARD,), fence_orders=(None,), data_load_orders=(ACQ,)),
     "mp-discard-rel-xchgrel-nofence-acq"),
    (GenParams((Variant.HISTORIC,), flag_op_orders=(ACQ,),
               flag_mechanism=FlagMechanism.PLAIN_STORE),
     "mp-historic-rel-ldacq-fenceacq-rlx"),
    (GenParams((Variant.DISCARD,), flag_store_orders=(SC,), flag_op_orders=(AR,)),
     "mp-discard-sc-xchgar-fenceacq-rlx"),
])
def test_naming_scheme(params, name):
    test, _ = only(params)
    assert test.name == name


def test_variant_shapes():
    historic, _ = only(GenParams((Variant.HISTORIC,)))
    discard, _ = only(GenParams((Variant.DISCARD,)))
    observe, _ = only(GenParams((Variant.OBSERVE,)))
    assert historic.thread(1).stmts[0].dest == "r1"
    assert discard.thread(1).stmts[0].dest is None
    assert observe.thread(1).stmts[0].dest == "r1"
    # observe pins the exchanged flag value and the old value
    from litmusdiff.litmus import Dialect, condition_observables, observable_label
    labels = [observable_label(o, Dialect.SOURCE)
              for o in condition_observables(observe.final)]
    assert labels == ["P1:r0", "y", "P1:r1"]


def test_plain_store_mechanism_uses_load():
    test, tag = only(GenParams((Variant.HISTORIC,), flag_op_orders=(ACQ,),
                               flag_mechanism=FlagMechanism.PLAIN_STORE))
    from litmusdiff.litmus import StmtKind
    assert test.thread(1).stmts[0].kind is StmtKind.LOAD
    assert tag.mechanism is FlagMechanism.PLAIN_STORE


def test_corpus_size_and_uniqueness(corpus):
    assert support.CORPUS_PARAMS.combination_count() == 216
    assert len(corpus) == 216
    names = [t.name for t in corpus]
    assert len(set(names)) == len(names)
    for test in corpus:
        validate_test(test)


def test_generation_is_deterministic():
    a = generate_mp_family(support.CORPUS_PARAMS)
    b = generate_mp_family(support.CORPUS_PARAMS)
    assert [t.name for t, _ in a] == [t.name for t, _ in b]
    assert [tag.orders for _, tag in a] == [tag.orders for _, tag in b]


def test_variant_grouping():
    out = generate_mp_family(GenParams(
        variants=(Variant.OBSERVE, Variant.HISTORIC),
        fence_orders=(ACQ, None)))
    variants = [tag.variant for _, tag in out]
    assert variants == [Variant.HISTORIC, Variant.HISTORIC,
                        Variant.OBSERVE, Variant.OBSERVE]


def test_duplicate_choices_collapse():
    params = GenParams((Variant.DISCARD, Variant.DISCARD),
                       data_load_orders=(RLX, RLX, ACQ))
    assert params.variants == (Variant.DISCARD,)
    assert params.data_load_orders == (RLX, ACQ)
    assert params.combination_count() == 2


def test_limit_samples_in_order(monkeypatch):
    full = [t.name for t, _ in generate_mp_family(support.CORPUS_PARAMS)]
    params = dataclasses.replace(support.CORPUS_PARAMS, limit=40)
    sample = [t.name for t, _ in generate_mp_family(params)]
    assert len(sample) == 40
    positions = [full.index(n) for n in sample]
    assert positions == sorted(positions)

    again = [t.name for t, _ in generate_mp_family(params)]
    assert again == sample
    other = dataclasses.replace(support.CORPUS_PARAMS, limit=40, seed=7)
    assert [t.name for t, _ in generate_mp_family(other)] != sample

    # The exact law: a limited run keeps the seeded sample of positions in
    # the unlimited sequence, and builds only the tests it keeps.
    built = []
    build = testgen._build_test
    monkeypatch.setattr(testgen, "_build_test",
                        lambda *args: built.append(args) or build(*args))
    for family in (support.CORPUS_PARAMS, EXCHANGE_FAMILY):
        full = comparable(generate_mp_family(family))
        count = family.combination_count()
        assert len(full) == count
        for seed in (0, 1, 7):
            for limit in (1, 40, 216, count - 1, count, count + 1):
                built.clear()
                limited = generate_mp_family(
                    dataclasses.replace(family, limit=limit, seed=seed))
                if limit > count:
                    keep = range(count)
                else:
                    keep = sorted(random.Random(seed).sample(range(count), limit))
                assert comparable(limited) == [full[i] for i in keep]
                assert len(built) == min(limit, count)


@pytest.mark.parametrize("family", [EXCHANGE_FAMILY, PLAIN_STORE_FAMILY],
                         ids=["exchange", "plain-store"])
def test_every_combination_validates(family):
    # Limited runs build only what they keep, so this is where every
    # combination of the full families is shown to be a valid test.
    out = generate_mp_family(family)
    assert len(out) == family.combination_count()
    for test, _ in out:
        validate_test(test)


def test_limit_above_total_is_noop():
    params = GenParams((Variant.DISCARD,), limit=50)
    assert len(generate_mp_family(params)) == 1


@pytest.mark.parametrize("kwargs, message", [
    ({"variants": ()}, "empty variant set"),
    ({"variants": (Variant.DISCARD,), "fence_orders": ()},
     "empty choice set for fence_orders"),
    ({"variants": (Variant.DISCARD,), "data_store_orders": (ACQ,)},
     "data store orders must be store-capable"),
    ({"variants": (Variant.DISCARD,), "flag_store_orders": (ACQ,)},
     "flag store orders must be store-capable"),
    ({"variants": (Variant.DISCARD,), "data_load_orders": (REL,)},
     "data load orders must be load-capable"),
    ({"variants": (Variant.DISCARD,), "fence_orders": (RLX,)},
     "relaxed is not a fence order"),
    ({"variants": (Variant.HISTORIC,), "flag_op_orders": (REL,),
      "flag_mechanism": FlagMechanism.PLAIN_STORE},
     "load-capable under the plain-store"),
    ({"variants": (Variant.HISTORIC, Variant.DISCARD, Variant.OBSERVE),
      "flag_op_orders": (ACQ,), "flag_mechanism": FlagMechanism.PLAIN_STORE},
     "discard, observe need the exchange mechanism"),
    ({"variants": (Variant.DISCARD,), "limit": 0}, "limit must be positive"),
])
def test_rejected_parameters(kwargs, message):
    with pytest.raises(GenerationError, match=message):
        GenParams(**kwargs)
