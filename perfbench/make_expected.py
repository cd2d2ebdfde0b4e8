"""Regenerate the pinned results under perfbench/expected/.

    python3 perfbench/make_expected.py

Run it only when outcome sets or verdicts change on purpose, and review
the diff.  It pins, from the program at hand:

* mp-corpus: the verdict of every test of the full 2,025-test MP family,
  plain and with --dead-register, so that any seed's draw can be checked;
* ladder and asm-sim: the verdict and outcome sets of each input.

Every pinned outcome set is cross-checked against the brute-force oracle in
tests/naive_oracle.py.  Each pinned answer is compared with the
hand-written literature answer in inputs/*.json; a disagreement must be
documented there as a "gap", and a documented gap must still disagree.
The MP family's known shape is checked too: every plain lowering passes,
and exactly 144 discard tests are bugs with --dead-register, each with the
paper's witness.  Exits with 1 when any of these checks fails.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import litmusdiff  # noqa: E402
import litmusdiff.cli  # noqa: E402
import naive_oracle  # noqa: E402
from litmusdiff import (  # noqa: E402
    GenParams,
    Variant,
    allowed_outcomes,
    check_refinement,
    dead_register_pass,
    generate_mp_family,
    lower_test,
    parse_litmus,
)
from litmusdiff.litmus import evaluate_condition  # noqa: E402
from litmusdiff.model_aarch64 import aarch64_consistent  # noqa: E402
from litmusdiff.model_c11 import c11_consistent  # noqa: E402
from litmusdiff.testgen import ORDER_TOKEN  # noqa: E402

from workloads import (  # noqa: E402
    EXPECTED,
    INPUTS,
    MP_FAMILY_ARGS,
    encode_verdict,
    format_state,
    ladder_call,
    outcome_lists,
    read_input,
)

LIB = SimpleNamespace(pkg=litmusdiff, cli=litmusdiff.cli)
PAPER_WITNESS = "P1:r0=0; y=2;"
DISCARD_BUGS = 144


def mp_family_params() -> GenParams:
    """GenParams equal to the generate flags in MP_FAMILY_ARGS."""
    by_token = {token: order for order, token in ORDER_TOKEN.items()}
    by_token["none"] = None
    flags = dict(zip(MP_FAMILY_ARGS[::2], MP_FAMILY_ARGS[1::2]))

    def choices(flag):
        return tuple(by_token[token] for token in flags[flag].split(","))

    return GenParams(
        variants=tuple(Variant(v) for v in flags["--variants"].split(",")),
        data_store_orders=choices("--data-store-orders"),
        flag_store_orders=choices("--flag-store-orders"),
        flag_op_orders=choices("--flag-op-orders"),
        fence_orders=choices("--fence-orders"),
        data_load_orders=choices("--data-load-orders"),
    )


def pin_mp_corpus(errors: list[str]) -> dict:
    pinned = {}
    shape = Counter()
    for test, tag in generate_mp_family(mp_family_params()):
        compiled, mapping = lower_test(test)
        plain = check_refinement(test, compiled, mapping)
        dead = check_refinement(test, dead_register_pass(compiled), mapping)
        pinned[test.name] = [encode_verdict(plain.to_json_dict()),
                             encode_verdict(dead.to_json_dict())]
        shape[(tag.variant.value, plain.status.value, dead.status.value,
               tuple(format_state(w.as_dict()) for w in dead.witnesses))] += 1
    for (variant, plain, dead, witnesses), count in sorted(shape.items()):
        print(f"mp-corpus: {variant} plain={plain} dead={dead} {witnesses}: {count}")
        if plain != "pass" or (dead != "pass" and variant != "discard"):
            errors.append(f"mp-corpus: {count} {variant} tests give {plain}/{dead}")
        if dead == "bug" and witnesses != (PAPER_WITNESS,):
            errors.append(f"mp-corpus: discard bug witnesses {witnesses}")
    bugs = sum(count for key, count in shape.items() if key[2] == "bug")
    if len(pinned) != 2025 or bugs != DISCARD_BUGS:
        errors.append(f"mp-corpus: {len(pinned)} tests and {bugs} bugs, "
                      f"expected 2025 and {DISCARD_BUGS}")
    return pinned


def oracle_checked(test, legacy, errors, where) -> list[dict]:
    """The test's pinned outcome list, after checking it against the
    brute-force oracle."""
    if test.dialect is litmusdiff.Dialect.SOURCE:
        model, consistent = "c11", c11_consistent
    else:
        model = "aarch64"

        def consistent(execution):
            return aarch64_consistent(execution, legacy_zero_register=legacy)
    outcomes = allowed_outcomes(test, model, legacy_zero_register=legacy)
    if naive_oracle.naive_final_states(test, consistent) != set(outcomes.outcomes):
        errors.append(f"{where}: {test.name} differs from the naive oracle")
    return outcome_lists([outcomes])[0]


def exists_answer(test, outcomes: list[dict]) -> str:
    hit = any(evaluate_condition(test.final, test.dialect, o) for o in outcomes)
    return "allowed" if hit else "forbidden"


def check_literature(spec, disagreements: list[str], errors: list[str], where):
    if disagreements and "gap" not in spec:
        errors.append(f"{where}: {spec['name']} disagrees with the literature "
                      f"({'; '.join(disagreements)}) and documents no gap")
    if "gap" in spec and not disagreements:
        errors.append(f"{where}: {spec['name']} documents a gap that is gone")
    for text in disagreements:
        print(f"{where}: known gap {spec['name']}: {text}")


def pin_ladder(errors: list[str]) -> dict:
    pinned = {}
    for spec in json.loads((INPUTS / "ladder.json").read_text(encoding="utf-8")):
        legacy = spec.get("legacy_zero_register", False)
        verdict = ladder_call(LIB, spec)().to_json_dict()
        source = parse_litmus(read_input(LIB, spec["source"]))
        compiled = (parse_litmus(read_input(LIB, spec["compiled"]))
                    if "compiled" in spec else lower_test(source)[0])
        sets = [oracle_checked(source, False, errors, "ladder"),
                oracle_checked(compiled, legacy, errors, "ladder")]
        answers = {"source_exists": exists_answer(source, sets[0]),
                   "compiled_exists": exists_answer(compiled, sets[1]),
                   "verdict": verdict["status"]}
        check_literature(spec, [
            f"{key} is {got}, literature {spec['literature'][key]}"
            for key, got in answers.items() if got != spec["literature"][key]
        ], errors, "ladder")
        pinned[spec["name"]] = {"verdict": verdict, "outcome_sets": sets}
    return pinned


def pin_asm_sim(errors: list[str]) -> dict:
    pinned = {}
    for spec in json.loads((INPUTS / "asm-sim.json").read_text(encoding="utf-8")):
        test = parse_litmus((INPUTS / spec["file"]).read_text(encoding="utf-8"))
        outcomes = oracle_checked(
            test, spec.get("legacy_zero_register", False), errors, "asm-sim")
        answer = exists_answer(test, outcomes)
        check_literature(spec, [
            f"exists is {answer}, literature {spec['literature']['exists']}"
        ] if answer != spec["literature"]["exists"] else [], errors, "asm-sim")
        pinned[spec["name"]] = {
            "exists": "Ok" if answer == "allowed" else "No",
            "outcome_sets": [outcomes],
        }
    return pinned


def _write(name: str, pinned: dict) -> None:
    """One entry per line, so that a changed verdict is a one-line diff."""
    body = ",\n".join(f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                      for key, value in sorted(pinned.items()))
    (EXPECTED / f"{name}.json").write_text("{\n" + body + "\n}\n",
                                           encoding="utf-8")


def main() -> int:
    errors: list[str] = []
    pinned = {"mp-corpus": pin_mp_corpus(errors),
              "ladder": pin_ladder(errors),
              "asm-sim": pin_asm_sim(errors)}
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    if errors:
        return 1
    EXPECTED.mkdir(exist_ok=True)
    for name, entries in pinned.items():
        _write(name, entries)
    print(f"wrote {', '.join(pinned)} under {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
