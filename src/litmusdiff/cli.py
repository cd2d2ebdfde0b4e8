"""Command-line front end.

Four subcommands: ``simulate`` prints a test's outcome set under a model,
``compile`` lowers a source test to asm, ``diff`` compares a source test
against a compiled one, and ``generate`` writes a message-passing corpus.
All output is deterministic for fixed inputs: identical invocations give
byte-identical stdout.

``main`` builds one parser per call.  When the first argument names a
subcommand, that subcommand's own parser reads the rest; anything it leaves
over, and every other argument list, goes to the full parser, so help and
errors read exactly as the full parser's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .difftest import check_refinement
from .execution import (
    DEFAULT_MAX_CANDIDATES,
    KNOWN_MODELS,
    MODEL_AARCH64,
    MODEL_C11,
    OutcomeSet,
    allowed_outcomes,
)
from .litmus import Dialect, FinalCondition, LitmusError, evaluate_condition
from .lowering import Mapping, MappingError, dead_register_pass, lower_test
from .syntax import parse_litmus, render_litmus
from .testgen import (
    ORDER_TOKEN,
    FlagMechanism,
    GenParams,
    Variant,
    generate_mp_family,
)

MAX_CANDIDATES_ENV = "LITMUSDIFF_MAX_CANDIDATES"

_ORDER_FROM_TOKEN = {token: order for order, token in ORDER_TOKEN.items()}


def format_outcome_table(
    outcomes: OutcomeSet, final: FinalCondition, dialect: Dialect
) -> str:
    """Herd-style table: one state per line, starred when it satisfies the
    exists clause, with an Ok/No trailer."""
    lines = [f"Test {outcomes.test} {outcomes.model}"]
    satisfied = False
    for outcome in outcomes.sorted_outcomes():
        row = _format_state(outcome)
        if evaluate_condition(final, dialect, outcome.as_dict()):
            satisfied = True
            row += " *"
        lines.append(row)
    lines.append("Ok" if satisfied else "No")
    return "\n".join(lines) + "\n"


def _format_state(outcome) -> str:
    return " ".join(f"{label}={value};" for label, value in outcome.items)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LitmusError(f"{path} is not UTF-8 text: {exc}") from None


def _load_test(path: str):
    return parse_litmus(_read_text(path))


def _resolve_max_candidates(args) -> int:
    if args.max_candidates is not None:
        limit, source = args.max_candidates, "--max-candidates"
    else:
        raw = os.environ.get(MAX_CANDIDATES_ENV)
        if raw is None:
            return DEFAULT_MAX_CANDIDATES
        try:
            limit, source = int(raw), MAX_CANDIDATES_ENV
        except ValueError:
            raise LitmusError(
                f"{MAX_CANDIDATES_ENV} must be an integer, got {raw!r}") from None
    if limit < 1:
        raise LitmusError(f"{source} must be positive, got {limit}")
    return limit


def _orders_arg(text: str, *, allow_none: bool = False):
    choices = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if allow_none and piece == "none":
            choices.append(None)
        elif piece in _ORDER_FROM_TOKEN:
            choices.append(_ORDER_FROM_TOKEN[piece])
        else:
            valid = ", ".join(sorted(_ORDER_FROM_TOKEN))
            extra = ", none" if allow_none else ""
            raise argparse.ArgumentTypeError(
                f"unknown order {piece!r} (expected one of {valid}{extra})")
    if not choices:
        raise argparse.ArgumentTypeError("empty order list")
    return tuple(choices)


def _fence_orders_arg(text: str):
    return _orders_arg(text, allow_none=True)


def _variants_arg(text: str):
    by_name = {v.value: v for v in Variant}
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if piece not in by_name:
            raise argparse.ArgumentTypeError(
                f"unknown variant {piece!r} (expected "
                f"{', '.join(v.value for v in Variant)})")
        out.append(by_name[piece])
    return frozenset(out)


def _cmd_simulate(args) -> int:
    test = _load_test(args.file)
    model = args.model
    if model is None:
        model = MODEL_C11 if test.dialect is Dialect.SOURCE else MODEL_AARCH64
    if args.legacy_zero_register and model != MODEL_AARCH64:
        raise LitmusError(
            f"--legacy-zero-register applies to the {MODEL_AARCH64} model only")
    outcomes = allowed_outcomes(
        test, model,
        max_candidates=_resolve_max_candidates(args),
        legacy_zero_register=args.legacy_zero_register,
    )
    if args.format == "json":
        sys.stdout.write(_json_text(outcomes.to_json_dict()))
    else:
        sys.stdout.write(format_outcome_table(outcomes, test.final, test.dialect))
    return 0


def _mapping_sidecar(out: Path) -> Path:
    return out.with_suffix(".mapping.json")


def _cmd_compile(args) -> int:
    test = _load_test(args.file)
    compiled, mapping = lower_test(test)
    if args.dead_register:
        compiled = dead_register_pass(compiled)
    text = render_litmus(compiled)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    out = Path(args.out)
    out.write_text(text, encoding="utf-8")
    _mapping_sidecar(out).write_text(
        _json_text(mapping.to_json_dict()), encoding="utf-8")
    return 0


def _cmd_diff(args) -> int:
    if args.auto_compile:
        if args.compiled is not None:
            raise LitmusError("--auto-compile takes no compiled file")
        if args.mapping is not None:
            raise LitmusError(
                "--mapping cannot be combined with --auto-compile; the "
                "mapping is produced internally")
    else:
        if args.compiled is None:
            raise LitmusError("diff needs a compiled file or --auto-compile")
        if args.dead_register:
            raise LitmusError("--dead-register only applies to --auto-compile")

    source = _load_test(args.source)
    if args.auto_compile:
        compiled, mapping = lower_test(source)
        if args.dead_register:
            compiled = dead_register_pass(compiled)
    else:
        compiled = _load_test(args.compiled)
        mapping = None
        if args.mapping is not None:
            try:
                # One leading byte-order mark is skipped, as for litmus files.
                raw = json.loads(_read_text(args.mapping).removeprefix("\ufeff"))
            except (ValueError, RecursionError) as exc:
                # malformed JSON, or an integer too long for ``int``
                raise MappingError(
                    f"{args.mapping} is not a JSON mapping: {exc}") from None
            mapping = Mapping.from_json_dict(raw)

    verdict = check_refinement(
        source, compiled, mapping,
        max_candidates=_resolve_max_candidates(args),
        legacy_zero_register=args.legacy_zero_register,
    )
    if args.format == "json":
        sys.stdout.write(_json_text(verdict.to_json_dict()))
    elif verdict.diagnostic is not None:
        print(f"error: {verdict.diagnostic}", file=sys.stderr)
    else:
        lines = [
            f"Verdict: {verdict.status.value}",
            f"Source outcomes: {verdict.source_outcomes}",
            f"Compiled outcomes: {verdict.compiled_outcomes}",
        ]
        lines.extend(f"Witness: {_format_state(w)}" for w in verdict.witnesses)
        sys.stdout.write("\n".join(lines) + "\n")
    return verdict.exit_code


def _cmd_generate(args) -> int:
    overrides = {
        name: getattr(args, name)
        for name in ("data_store_orders", "flag_store_orders",
                     "flag_op_orders", "fence_orders", "data_load_orders")
        if getattr(args, name) is not None
    }
    params = GenParams(
        variants=args.variants,
        flag_mechanism=FlagMechanism(args.flag_mechanism),
        limit=args.limit,
        seed=args.seed,
        **overrides,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for test, tag in generate_mp_family(params):
        file_name = f"{test.name}.litmus"
        (out_dir / file_name).write_text(render_litmus(test), encoding="utf-8")
        manifest.append({
            "file": file_name,
            "name": test.name,
            "variant": tag.variant.value,
            "mechanism": tag.mechanism.value,
            "orders": tag.orders,
        })
    (out_dir / "manifest.json").write_text(_json_text(manifest), encoding="utf-8")
    print(f"wrote {len(manifest)} tests to {out_dir}")
    return 0


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-candidates", type=int, default=None, metavar="N",
        help="fail before any search when the budget worked out from the "
             "test's shape (per location, the interleavings of its writes "
             "times a source for each non-exchange read), plus the "
             "combinations of the coherent choices, exceeds N; the same "
             "count under every model "
             f"(default {DEFAULT_MAX_CANDIDATES}, or ${MAX_CANDIDATES_ENV})")
    parser.add_argument(
        "--legacy-zero-register", action="store_true",
        help="treat zero-register destinations as ordinary reads, the way "
             "models did before the zero-register clarification; applies "
             f"to the {MODEL_AARCH64} model only, which in diff is the "
             "compiled side")


def _simulate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="litmus file in either dialect")
    p.add_argument("--model", choices=KNOWN_MODELS, default=None,
                   help="memory model (defaults to the dialect's own; sc, "
                        "sequential consistency, applies to either dialect)")
    p.add_argument("--format", choices=("table", "json"), default="table")
    _add_model_flags(p)


def _compile_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="source-dialect litmus file")
    p.add_argument("--dead-register", action="store_true",
                   help="run the dead destination-register rewrite")
    p.add_argument("-o", "--out", default=None, metavar="FILE",
                   help="write the asm test here plus a .mapping.json sidecar "
                        "(default: print the test to stdout)")


def _diff_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("source", help="source-dialect litmus file")
    p.add_argument("compiled", nargs="?", default=None,
                   help="asm-dialect litmus file")
    p.add_argument("--auto-compile", action="store_true",
                   help="lower the source internally instead of reading a "
                        "compiled file")
    p.add_argument("--dead-register", action="store_true",
                   help="with --auto-compile, run the dead-register rewrite")
    p.add_argument("--mapping", default=None, metavar="FILE",
                   help="observable mapping sidecar (default: derive it from "
                        "the two exists clauses)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_model_flags(p)


def _generate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.add_argument("--variants", type=_variants_arg,
                   default=frozenset(Variant),
                   help="comma list of historic,discard,observe (default all)")
    p.add_argument("--data-store-orders", type=_orders_arg, default=None,
                   metavar="ORDERS", help="comma list of rlx,rel,sc")
    p.add_argument("--flag-store-orders", type=_orders_arg, default=None,
                   metavar="ORDERS", help="comma list of rlx,rel,sc")
    p.add_argument("--flag-op-orders", type=_orders_arg, default=None,
                   metavar="ORDERS",
                   help="orders for P1's flag exchange or load")
    p.add_argument("--fence-orders", type=_fence_orders_arg, default=None,
                   metavar="ORDERS",
                   help="comma list of acq,rel,ar,sc,none")
    p.add_argument("--data-load-orders", type=_orders_arg, default=None,
                   metavar="ORDERS", help="comma list of rlx,acq,sc")
    p.add_argument("--flag-mechanism",
                   choices=[m.value for m in FlagMechanism],
                   default=FlagMechanism.EXCHANGE.value)
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="sample down to N tests, deterministically")
    p.add_argument("--seed", type=int, default=0)


# name -> (help, adds the subcommand's arguments, runs it)
_COMMANDS = {
    "simulate": ("print a test's allowed outcomes",
                 _simulate_arguments, _cmd_simulate),
    "compile": ("lower a source test to asm",
                _compile_arguments, _cmd_compile),
    "diff": ("check a compiled test against its source",
             _diff_arguments, _cmd_diff),
    "generate": ("write a message-passing test corpus",
                 _generate_arguments, _cmd_generate),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or with a ``command`` that subcommand's own parser,
    the one the full parser's ``add_parser`` makes for it."""
    if command is None:
        parser = argparse.ArgumentParser(
            prog="litmusdiff",
            description="Simulate, lower, and differentially test litmus tests.")
        sub = parser.add_subparsers(dest="command", required=True)
        parsers = {name: sub.add_parser(name, help=help_text)
                   for name, (help_text, _, _) in _COMMANDS.items()}
    else:
        parser = argparse.ArgumentParser(prog=f"litmusdiff {command}")
        parsers = {command: parser}
    for name, p in parsers.items():
        _, add_arguments, run = _COMMANDS[name]
        add_arguments(p)
        p.set_defaults(func=run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        if command is not None:
            args, leftover = build_parser(command).parse_known_args(argv[1:])
        if command is None or leftover:
            # leftovers fail here, with the top-level usage
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (LitmusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
