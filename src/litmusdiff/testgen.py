"""Generator for the message passing family.

Every test has P0 write data then a flag, and P1 pick the flag up one of a
few ways before loading the data.  The interesting axes are the memory
orders on all five slots, whether P1 consumes the flag with a plain load or
an exchange, and what happens to the exchange's old value: kept and checked
(observe), kept but only register-checked (historic), or discarded.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import random

from .litmus import (
    Atom,
    Conj,
    Dialect,
    FENCE_ORDERS,
    LOAD_ORDERS,
    LitmusError,
    LitmusTest,
    MemoryObservable,
    MemoryOrder,
    RegisterObservable,
    STORE_ORDERS,
    SourceStmt,
    StmtKind,
    Thread,
    validate_test,
)

DATA_LOCATION = "x"
FLAG_LOCATION = "y"
DATA_VALUE = 1
FLAG_STORE_VALUE = 1
FLAG_EXCHANGE_VALUE = 2


class GenerationError(LitmusError):
    pass


class Variant(enum.Enum):
    HISTORIC = "historic"
    DISCARD = "discard"
    OBSERVE = "observe"


class FlagMechanism(enum.Enum):
    EXCHANGE = "exchange"
    PLAIN_STORE = "plain-store"


ORDER_TOKEN = {
    MemoryOrder.RELAXED: "rlx",
    MemoryOrder.ACQUIRE: "acq",
    MemoryOrder.RELEASE: "rel",
    MemoryOrder.ACQ_REL: "ar",
    MemoryOrder.SEQ_CST: "sc",
}


def _dedupe(items):
    seen = []
    for item in items:
        if item not in seen:
            seen.append(item)
    return tuple(seen)


@dataclasses.dataclass(frozen=True)
class GenParams:
    """Choice sets for each slot of the family.

    ``fence_orders`` may contain None for the no-fence shape.  ``limit``
    caps the corpus size via seeded sampling; without it every combination
    is emitted exactly once.
    """

    variants: tuple[Variant, ...]
    data_store_orders: tuple[MemoryOrder, ...] = (MemoryOrder.RELAXED,)
    flag_store_orders: tuple[MemoryOrder, ...] = (MemoryOrder.RELEASE,)
    flag_op_orders: tuple[MemoryOrder, ...] = (MemoryOrder.RELEASE,)
    fence_orders: tuple[MemoryOrder | None, ...] = (MemoryOrder.ACQUIRE,)
    data_load_orders: tuple[MemoryOrder, ...] = (MemoryOrder.RELAXED,)
    flag_mechanism: FlagMechanism = FlagMechanism.EXCHANGE
    limit: int | None = None
    seed: int = 0

    def __post_init__(self):
        for field in ("variants", "data_store_orders", "flag_store_orders",
                      "flag_op_orders", "fence_orders", "data_load_orders"):
            object.__setattr__(self, field, _dedupe(getattr(self, field)))
        if not self.variants:
            raise GenerationError("empty variant set")
        for slot in ("data_store_orders", "flag_store_orders", "flag_op_orders",
                     "fence_orders", "data_load_orders"):
            if not getattr(self, slot):
                raise GenerationError(f"empty choice set for {slot}")
        if not set(self.data_store_orders) <= STORE_ORDERS:
            raise GenerationError("data store orders must be store-capable")
        if not set(self.flag_store_orders) <= STORE_ORDERS:
            raise GenerationError("flag store orders must be store-capable")
        if not set(self.data_load_orders) <= LOAD_ORDERS:
            raise GenerationError("data load orders must be load-capable")
        for order in self.fence_orders:
            if order is not None and order not in FENCE_ORDERS:
                raise GenerationError(f"{order.value} is not a fence order")
        if self.flag_mechanism is FlagMechanism.PLAIN_STORE:
            if not set(self.flag_op_orders) <= LOAD_ORDERS:
                raise GenerationError(
                    "flag op orders must be load-capable under the "
                    "plain-store mechanism")
            forbidden = {Variant.DISCARD, Variant.OBSERVE} & set(self.variants)
            if forbidden:
                names = ", ".join(sorted(v.value for v in forbidden))
                raise GenerationError(
                    f"variant(s) {names} need the exchange mechanism")
        if self.limit is not None and self.limit < 1:
            raise GenerationError("limit must be positive")

    def combination_count(self) -> int:
        per_variant = (len(self.data_store_orders) * len(self.flag_store_orders)
                       * len(self.flag_op_orders) * len(self.fence_orders)
                       * len(self.data_load_orders))
        return len(self.variants) * per_variant


@dataclasses.dataclass
class VariantTag:
    variant: Variant
    mechanism: FlagMechanism
    orders: dict[str, str | None]


def _test_name(variant, mechanism, ds, fs, fo, fence, dl) -> str:
    # The data-store token is omitted in the common Relaxed case; names stay
    # unambiguous because the token count differs.
    parts = [f"mp-{variant.value}"]
    if ds is not MemoryOrder.RELAXED:
        parts.append(ORDER_TOKEN[ds])
    parts.append(ORDER_TOKEN[fs])
    flag_tok = "xchg" if mechanism is FlagMechanism.EXCHANGE else "ld"
    parts.append(flag_tok + ORDER_TOKEN[fo])
    parts.append("nofence" if fence is None else f"fence{ORDER_TOKEN[fence]}")
    parts.append(ORDER_TOKEN[dl])
    return "-".join(parts)


def _final_condition(variant: Variant):
    r0_zero = Atom(RegisterObservable(1, "r0"), 0)
    r1_one = Atom(RegisterObservable(1, "r1"), FLAG_STORE_VALUE)
    flag_exchanged = Atom(MemoryObservable(FLAG_LOCATION), FLAG_EXCHANGE_VALUE)
    if variant is Variant.HISTORIC:
        return Conj(r1_one, r0_zero)
    if variant is Variant.DISCARD:
        return Conj(r0_zero, flag_exchanged)
    return Conj(Conj(r0_zero, flag_exchanged), r1_one)


def _build_test(variant, mechanism, ds, fs, fo, fence, dl) -> LitmusTest:
    writer = Thread(0, (
        SourceStmt(StmtKind.STORE, ds, location=DATA_LOCATION, value=DATA_VALUE),
        SourceStmt(StmtKind.STORE, fs, location=FLAG_LOCATION,
                   value=FLAG_STORE_VALUE),
    ))
    if mechanism is FlagMechanism.EXCHANGE:
        dest = None if variant is Variant.DISCARD else "r1"
        flag_op = SourceStmt(StmtKind.EXCHANGE, fo, location=FLAG_LOCATION,
                             value=FLAG_EXCHANGE_VALUE, dest=dest)
    else:
        flag_op = SourceStmt(StmtKind.LOAD, fo, location=FLAG_LOCATION, dest="r1")
    reader_stmts = [flag_op]
    if fence is not None:
        reader_stmts.append(SourceStmt(StmtKind.FENCE, fence))
    reader_stmts.append(
        SourceStmt(StmtKind.LOAD, dl, location=DATA_LOCATION, dest="r0"))
    reader = Thread(1, tuple(reader_stmts))

    test = LitmusTest(
        _test_name(variant, mechanism, ds, fs, fo, fence, dl),
        Dialect.SOURCE,
        {DATA_LOCATION: 0, FLAG_LOCATION: 0},
        (writer, reader),
        _final_condition(variant),
    )
    validate_test(test)
    return test


def generate_mp_family(params: GenParams) -> list[tuple[LitmusTest, VariantTag]]:
    """All requested combinations, in a deterministic order.

    Tests come out grouped by variant (historic, discard, observe), then in
    the declaration order of each choice set.  With ``limit`` below
    ``combination_count()``, a seeded sample of positions in that sequence
    is drawn first, original order preserved, and only those tests are
    built and validated; ``seed`` matters only then.
    """
    ordered_variants = [v for v in Variant if v in params.variants]
    combos = list(itertools.product(
        ordered_variants, params.data_store_orders, params.flag_store_orders,
        params.flag_op_orders, params.fence_orders, params.data_load_orders))
    if params.limit is not None and params.limit < len(combos):
        rng = random.Random(params.seed)
        keep = sorted(rng.sample(range(len(combos)), params.limit))
        combos = [combos[i] for i in keep]
    out: list[tuple[LitmusTest, VariantTag]] = []
    for variant, ds, fs, fo, fence, dl in combos:
        test = _build_test(variant, params.flag_mechanism, ds, fs, fo, fence, dl)
        tag = VariantTag(variant, params.flag_mechanism, {
            "data_store": ds.value,
            "flag_store": fs.value,
            "flag_op": fo.value,
            "fence": None if fence is None else fence.value,
            "data_load": dl.value,
        })
        out.append((test, tag))
    return out
