"""End-to-end command line behaviour, run in process."""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import pytest

from conftest import read_golden
from litmusdiff import cli, golden_path
from litmusdiff.cli import MAX_CANDIDATES_ENV, build_parser, main
from litmusdiff.litmus import LitmusError
from litmusdiff.syntax import parse_litmus

SOURCE = str(golden_path("mp-xchg-discard.litmus"))
FIXED = str(golden_path("mp-xchg-discard-compiled-w15.litmus"))
BUGGY = str(golden_path("mp-xchg-discard-compiled-wzr.litmus"))
MAPPING = str(golden_path("mp-xchg-discard-compiled.mapping.json"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_source_table(capsys):
    code, out, err = run(capsys, "simulate", SOURCE)
    assert code == 0 and err == ""
    assert out == (
        "Test mp-xchg-discard c11\n"
        "P1:r0=0; y=1;\n"
        "P1:r0=1; y=1;\n"
        "P1:r0=1; y=2;\n"
        "No\n"
    )


def test_simulate_buggy_asm_table(capsys):
    code, out, err = run(capsys, "simulate", BUGGY)
    assert code == 0
    assert out == (
        "Test mp-xchg-discard-compiled-wzr aarch64\n"
        "1:W3=0; y=1;\n"
        "1:W3=0; y=2; *\n"
        "1:W3=1; y=1;\n"
        "1:W3=1; y=2;\n"
        "Ok\n"
    )


def test_simulate_fixed_asm_table(capsys):
    code, out, _ = run(capsys, "simulate", FIXED)
    assert code == 0
    assert "1:W3=0; y=2" not in out
    assert out.endswith("No\n")


def test_simulate_legacy_zero_register(capsys):
    code, out, _ = run(capsys, "simulate", BUGGY, "--legacy-zero-register")
    assert code == 0
    assert "1:W3=0; y=2" not in out
    assert out.endswith("No\n")


@pytest.mark.parametrize("argv", [
    (SOURCE, "--legacy-zero-register"),
    (BUGGY, "--model", "sc", "--legacy-zero-register"),
], ids=["c11", "sc"])
def test_simulate_legacy_zero_register_needs_aarch64(capsys, argv):
    # the flag changes only the aarch64 model; elsewhere it would be ignored
    code, out, err = run(capsys, "simulate", *argv)
    assert (code, out) == (2, "")
    assert err == ("error: --legacy-zero-register applies to the aarch64 "
                   "model only\n")


@pytest.mark.parametrize("command", ["simulate", "diff"])
def test_legacy_zero_register_help_names_its_model(capsys, command):
    # one help text serves both subcommands, so it names diff's side too
    code, out, _ = run(capsys, command, "-h")
    assert code == 0
    assert ("--legacy-zero-register treat zero-register destinations as "
            "ordinary reads, the way models did before the zero-register "
            "clarification; applies to the aarch64 model only, which in "
            "diff is the compiled side") in " ".join(out.split())


@pytest.mark.parametrize("command", ["simulate", "diff"])
def test_max_candidates_help_names_the_budget(capsys, command):
    code, out, _ = run(capsys, command, "-h")
    assert code == 0
    assert ("--max-candidates N fail before any search when the budget worked "
            "out from the test's shape (per location, the interleavings of its "
            "writes times a source for each non-exchange read), plus the "
            "combinations of the coherent choices, exceeds N"
            ) in " ".join(out.split())


def test_simulate_json(capsys):
    code, out, _ = run(capsys, "simulate", SOURCE, "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "test": "mp-xchg-discard",
        "model": "c11",
        "outcomes": [
            {"P1:r0": 0, "y": 1},
            {"P1:r0": 1, "y": 1},
            {"P1:r0": 1, "y": 2},
        ],
    }
    assert out.endswith("\n")


def test_simulate_json_agrees_with_table(capsys):
    code, table, _ = run(capsys, "simulate", BUGGY)
    code, blob, _ = run(capsys, "simulate", BUGGY, "--format", "json")
    rows = {line.rstrip(" *") for line in table.splitlines()[1:-1]}
    from_json = {
        " ".join(f"{k}={v};" for k, v in sorted(state.items()))
        for state in json.loads(blob)["outcomes"]
    }
    assert rows == from_json


def test_simulate_model_mismatch(capsys):
    code, out, err = run(capsys, "simulate", BUGGY, "--model", "c11")
    assert code == 2
    assert err.startswith("error:") and "source tests only" in err


@pytest.mark.parametrize("path", [SOURCE, BUGGY], ids=["source", "asm"])
def test_simulate_sc_model(capsys, path):
    code, table, err = run(capsys, "simulate", path, "--model", "sc")
    assert code == 0 and err == ""
    assert table.splitlines()[0].endswith(" sc")
    code, blob, _ = run(capsys, "simulate", path, "--model", "sc",
                        "--format", "json")
    assert code == 0
    sc = json.loads(blob)
    assert sc["model"] == "sc"
    rows = {line.rstrip(" *") for line in table.splitlines()[1:-1]}
    assert rows == {
        " ".join(f"{k}={v};" for k, v in sorted(state.items()))
        for state in sc["outcomes"]
    }
    # the sc outcomes are among the dialect model's own
    _, blob, _ = run(capsys, "simulate", path, "--format", "json")
    native = json.loads(blob)["outcomes"]
    assert sc["outcomes"] and all(state in native for state in sc["outcomes"])


def test_simulate_sc_model_weak_outcome_absent(capsys):
    # the WZR miscompilation's stale read needs a weak model to show up
    code, out, _ = run(capsys, "simulate", BUGGY, "--model", "sc")
    assert code == 0
    assert "1:W3=0; y=2" not in out and out.endswith("No\n")


def test_simulate_unknown_model_flag(capsys):
    code, _, err = run(capsys, "simulate", SOURCE, "--model", "x86")
    assert code == 2


def test_compile_to_stdout(capsys):
    code, out, err = run(capsys, "compile", SOURCE)
    assert code == 0 and err == ""
    golden = read_golden("mp-xchg-discard-compiled-w15.litmus")
    assert out.splitlines()[0] == "AArch64 mp-xchg-discard-compiled"
    assert out.splitlines()[1:] == golden.splitlines()[1:]


def test_compile_dead_register_to_stdout(capsys):
    code, out, _ = run(capsys, "compile", SOURCE, "--dead-register")
    golden = read_golden("mp-xchg-discard-compiled-wzr.litmus")
    assert code == 0
    assert out.splitlines()[1:] == golden.splitlines()[1:]
    assert "SWPL W2, WZR, [X1]" in out


def test_compile_writes_file_and_sidecar(capsys, tmp_path):
    target = tmp_path / "mp.litmus"
    code, out, _ = run(capsys, "compile", SOURCE, "-o", str(target))
    assert code == 0 and out == ""
    compiled = parse_litmus(target.read_text())
    assert compiled.name == "mp-xchg-discard-compiled"
    sidecar = tmp_path / "mp.mapping.json"
    assert json.loads(sidecar.read_text()) == json.loads(
        read_golden("mp-xchg-discard-compiled.mapping.json"))


def test_diff_auto_compile_clean(capsys):
    code, out, _ = run(capsys, "diff", SOURCE, "--auto-compile")
    assert code == 0
    assert out == (
        "Verdict: pass\n"
        "Source outcomes: 3\n"
        "Compiled outcomes: 3\n"
    )


def test_diff_auto_compile_dead_register(capsys):
    code, out, _ = run(capsys, "diff", SOURCE, "--auto-compile",
                       "--dead-register")
    assert code == 1
    assert out == (
        "Verdict: bug\n"
        "Source outcomes: 3\n"
        "Compiled outcomes: 4\n"
        "Witness: P1:r0=0; y=2;\n"
    )


def test_diff_legacy_zero_register(capsys):
    code, out, _ = run(capsys, "diff", SOURCE, "--auto-compile",
                       "--dead-register", "--legacy-zero-register")
    assert code == 0
    assert out.startswith("Verdict: pass\n")


def test_diff_explicit_files_with_mapping(capsys):
    code, out, _ = run(capsys, "diff", SOURCE, BUGGY, "--mapping", MAPPING)
    assert code == 1
    assert "Witness: P1:r0=0; y=2;" in out


def test_diff_reads_a_mapping_file_with_a_byte_order_mark(capsys, tmp_path):
    marked = tmp_path / "marked.mapping.json"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(MAPPING).read_bytes())
    code, out, err = run(capsys, "diff", SOURCE, BUGGY, "--mapping", str(marked))
    assert (code, err) == (1, "")
    assert "Witness: P1:r0=0; y=2;" in out
    # Only one mark is skipped.
    marked.write_bytes(b"\xef\xbb\xbf" * 2 + Path(MAPPING).read_bytes())
    code, out, err = run(capsys, "diff", SOURCE, BUGGY, "--mapping", str(marked))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {marked} is not a JSON mapping:")


def test_diff_explicit_files_derived_mapping(capsys):
    code, out, _ = run(capsys, "diff", SOURCE, BUGGY)
    assert code == 1
    code, out, _ = run(capsys, "diff", SOURCE, FIXED)
    assert code == 0


def test_diff_json(capsys):
    code, out, _ = run(capsys, "diff", SOURCE, "--auto-compile",
                       "--dead-register", "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "status": "bug",
        "witnesses": [{"P1:r0": 0, "y": 2}],
        "source_outcomes": 3,
        "compiled_outcomes": 4,
    }


@pytest.mark.parametrize("argv, fragment", [
    (("diff", SOURCE, FIXED, "--auto-compile"), "takes no compiled file"),
    (("diff", SOURCE, "--auto-compile", "--mapping", MAPPING),
     "produced internally"),
    (("diff", SOURCE, FIXED, "--dead-register"),
     "only applies to --auto-compile"),
    (("diff", SOURCE), "needs a compiled file"),
])
def test_diff_flag_conflicts(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and fragment in err


def test_diff_dialect_error_goes_to_stderr(capsys):
    code, out, err = run(capsys, "diff", FIXED, SOURCE)
    assert code == 2
    assert out == ""
    assert "error:" in err and "source test first" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "simulate", str(tmp_path / "nope.litmus"))
    assert code == 2
    assert err.startswith("error:")


def test_unparseable_file(capsys, tmp_path):
    bad = tmp_path / "bad.litmus"
    bad.write_text("MIPS mp { }\n")
    code, _, err = run(capsys, "simulate", str(bad))
    assert code == 2
    assert err.startswith("error:")


def test_non_utf8_file(capsys, tmp_path):
    bad = tmp_path / "bad.litmus"
    bad.write_bytes(b"\xff" + golden_path("mp-xchg-discard.litmus").read_bytes())
    code, out, err = run(capsys, "simulate", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad} is not UTF-8 text:")
    assert err.count("\n") == 1


def test_files_with_byte_order_mark(capsys, tmp_path):
    """Every command reads a file that starts with a UTF-8 byte-order mark
    as it reads the same file without one, in either dialect."""
    marked = {}
    for path in (SOURCE, BUGGY):
        marked[path] = str(tmp_path / Path(path).name)
        Path(marked[path]).write_bytes(
            b"\xef\xbb\xbf" + Path(path).read_bytes())
    for argv in (["simulate", SOURCE], ["simulate", BUGGY],
                 ["compile", SOURCE],
                 ["diff", SOURCE, "--auto-compile", "--dead-register"],
                 ["diff", SOURCE, BUGGY, "--mapping", MAPPING]):
        want = run(capsys, *argv)
        assert want[0] in (0, 1), argv
        assert run(capsys, *[marked.get(a, a) for a in argv]) == want, argv


@pytest.mark.parametrize("text", ["{not json", "[" * 100_000 + "]" * 100_000,
                                  '{"observables": ' + "9" * 5000 + "}"])
def test_malformed_mapping_file(capsys, tmp_path, text):
    bad = tmp_path / "bad.mapping.json"
    bad.write_text(text)
    code, out, err = run(capsys, "diff", SOURCE, FIXED, "--mapping", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad} is not a JSON mapping:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("condition", ["(" * 5000 + "y = 1" + ")" * 5000,
                                       "~" * 5000 + "y = 1",
                                       " /\\ ".join(["y = 1"] * 5000)])
def test_deeply_nested_exists_clause(capsys, tmp_path, condition):
    text = golden_path("mp-xchg-discard.litmus").read_text()
    deep = tmp_path / "deep.litmus"
    deep.write_text(text.replace("exists (P1:r0 = 0 /\\ y = 2)",
                                 f"exists ({condition})"))
    code, out, err = run(capsys, "simulate", str(deep))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 16, col ")
    assert err.endswith("condition nested too deeply (more than 64 "
                        "operators)\n")


def test_candidate_env_var(capsys, monkeypatch):
    monkeypatch.setenv(MAX_CANDIDATES_ENV, "abc")
    code, _, err = run(capsys, "simulate", SOURCE)
    assert code == 2 and "must be an integer" in err

    monkeypatch.setenv(MAX_CANDIDATES_ENV, "2")
    code, _, err = run(capsys, "simulate", SOURCE)
    assert code == 2 and "limit of 2" in err

    # an explicit flag beats the environment
    code, _, err = run(capsys, "simulate", SOURCE, "--max-candidates", "100")
    assert code == 0


def test_sc_model_limit_counts_candidates(capsys):
    # the dialect models' count and message, not interleaving states
    code, out, err = run(capsys, "simulate", SOURCE, "--model", "sc",
                         "--max-candidates", "2")
    assert (code, out) == (2, "")
    assert err == "error: candidate executions exceed the limit of 2\n"


@pytest.mark.parametrize("command", [("simulate", SOURCE),
                                     ("diff", SOURCE, "--auto-compile")])
@pytest.mark.parametrize("limit", ["0", "-1"])
def test_candidate_limit_below_one_rejected(capsys, monkeypatch, command,
                                            limit):
    code, out, err = run(capsys, *command, "--max-candidates", limit)
    assert (code, out) == (2, "")
    assert err == f"error: --max-candidates must be positive, got {limit}\n"

    monkeypatch.setenv(MAX_CANDIDATES_ENV, limit)
    code, out, err = run(capsys, *command)
    assert (code, out) == (2, "")
    assert err == (f"error: {MAX_CANDIDATES_ENV} must be positive, "
                   f"got {limit}\n")


def test_generate_corpus(capsys, tmp_path):
    out_dir = tmp_path / "corpus"
    argv = ("generate", "--out-dir", str(out_dir),
            "--variants", "discard",
            "--fence-orders", "acq,none",
            "--data-load-orders", "rlx,acq")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == f"wrote 4 tests to {out_dir}\n"

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest) == 4
    for entry in manifest:
        assert entry["variant"] == "discard"
        assert entry["mechanism"] == "exchange"
        text = (out_dir / entry["file"]).read_text()
        assert parse_litmus(text).name == entry["name"]

    before = {p.name: p.read_text() for p in out_dir.iterdir()}
    code, _, _ = run(capsys, *argv)
    assert code == 0
    after = {p.name: p.read_text() for p in out_dir.iterdir()}
    assert after == before


# perfbench's MP_FAMILY_ARGS: every legal order in every slot, 2,025 tests.
MP_FAMILY_ARGS = (
    "--variants", "historic,discard,observe",
    "--data-store-orders", "rlx,rel,sc",
    "--flag-store-orders", "rlx,rel,sc",
    "--flag-op-orders", "rlx,acq,rel,ar,sc",
    "--fence-orders", "acq,rel,ar,sc,none",
    "--data-load-orders", "rlx,acq,sc",
)


def test_generate_sample_bytes_are_pinned(capsys, tmp_path):
    # The mp-corpus sample, pinned from the generator that built all 2,025
    # tests before drawing 216: drawing first must not change a byte.
    code, out, _ = run(capsys, "generate", "--out-dir", str(tmp_path),
                       *MP_FAMILY_ARGS, "--limit", "216", "--seed", "1")
    assert code == 0
    assert out == f"wrote 216 tests to {tmp_path}\n"
    manifest = (tmp_path / "manifest.json").read_bytes()
    litmus = b"".join(p.read_bytes() for p in sorted(tmp_path.glob("*.litmus")))
    assert hashlib.sha256(manifest).hexdigest() == (
        "ae008d391c4b520d4db294ee653d11fbd17943e1528d6598e9099c7b3927040a")
    assert hashlib.sha256(litmus).hexdigest() == (
        "0660eddeebfef78067c88ff9b2c92b96786981075ad0d416124fa3f6cfffd98b")


def test_generate_rejects_bad_order(capsys, tmp_path):
    code, _, err = run(capsys, "generate", "--out-dir", str(tmp_path),
                       "--fence-orders", "weird")
    assert code == 2


def test_generate_skips_empty_list_pieces(capsys, tmp_path):
    # "rlx,,sc" is "rlx,sc", and "discard,,observe" is "discard,observe"
    def corpus(out_dir, orders, variants):
        code, out, err = run(capsys, "generate", "--out-dir", str(out_dir),
                             "--data-store-orders", orders,
                             "--variants", variants)
        assert (code, err) == (0, "")
        assert out == f"wrote 4 tests to {out_dir}\n"
        return {p.name: p.read_bytes() for p in out_dir.iterdir()}

    assert corpus(tmp_path / "gaps", "rlx,,sc", "discard,,observe") \
        == corpus(tmp_path / "plain", "rlx,sc", "discard,observe")


@pytest.mark.parametrize("flag, text, message", [
    ("--data-store-orders", ",", "empty order list"),
    ("--fence-orders", " , ", "empty order list"),
    ("--variants", "discard,weird",
     "unknown variant 'weird' (expected historic, discard, observe)"),
])
def test_generate_rejects_bad_lists(capsys, tmp_path, flag, text, message):
    code, out, err = run(capsys, "generate", "--out-dir", str(tmp_path),
                         flag, text)
    assert (code, out) == (2, "")
    assert err.endswith(f"generate: error: argument {flag}: {message}\n")
    assert not any(tmp_path.iterdir())


def test_diff_rejects_a_source_test_in_the_compiled_slot(capsys):
    code, out, err = run(capsys, "diff", SOURCE, SOURCE)
    assert (code, out) == (2, "")
    assert err == "error: refinement check needs an asm test second\n"


def test_diff_rejects_a_mapping_that_loses_a_source_observable(
        capsys, tmp_path):
    # y is sent to z, which the compiled outcomes never name, and x to y,
    # so the compiled y comes back as x and the source's y is lost
    mapping = tmp_path / "lossy.mapping.json"
    mapping.write_text(json.dumps({
        "observables": {"P1:r0": "1:W3", "x": "y", "y": "z"},
        "locations": {"x": "x", "y": "y"}}))
    code, out, err = run(capsys, "diff", SOURCE, FIXED, "--mapping",
                         str(mapping))
    assert (code, out) == (2, "")
    assert err == ("error: translated outcomes do not range over the source "
                   "observables; check the mapping\n")


def test_diff_rejects_a_mapping_that_pairs_a_register_with_memory(
        capsys, tmp_path):
    mapping = tmp_path / "crossed.mapping.json"
    mapping.write_text(json.dumps({
        "observables": {"P1:r0": "y", "y": "1:W3"},
        "locations": {"x": "x", "y": "y"}}))
    code, out, err = run(capsys, "diff", SOURCE, FIXED, "--mapping",
                         str(mapping))
    assert (code, out) == (2, "")
    assert err == ("error: mapping pairs register 'P1:r0' with memory "
                   "location 'y'\n")


COMMANDS = ["simulate", "compile", "diff", "generate"]

# Help, usage errors, the dash tokens argparse reads before a subcommand,
# and what follows a subcommand that its own parser leaves over or reads
# differently; "{src}" stands for the golden source test and "{out}" for an
# empty directory of the test's own.
PARSER_CASES = [
    [], ["-h"], ["--help"],
    *([command, "-h"] for command in COMMANDS),
    ["-h", "simulate"],
    ["frobnicate", "{src}"], ["sim", "{src}"],
    ["-1", "diff"], ["-", "diff"], ["--", "diff", "{src}", "--auto-compile"],
    ["-x", "simulate", "{src}"], ["simulate", "{src}", "-x"],
    *([command] for command in COMMANDS),
    ["diff", "--auto-compile"],
    ["simulate", "{src}", "--model", "x86"],
    ["simulate", "{src}", "--format", "text"],
    ["diff", "{src}", "--auto-compile", "--format", "table"],
    ["generate", "--out-dir", "{out}", "--flag-mechanism", "cas"],
    ["generate", "--out-dir", "{out}", "--variants", "discard,weird"],
    ["generate", "--out-dir", "{out}", "--fence-orders", "weird"],
    ["generate", "--out-dir", "{out}", "--data-store-orders", ","],
    ["simulate", "{src}", "--max-candidates", "ten"],
    ["diff", "{src}", "--auto-compile", "--max-candidates", "1.5"],
    ["generate", "--out-dir", "{out}", "--limit", "x"],
    ["simulate", "{src}"], ["compile", "{src}"],
    ["diff", "{src}", "--auto-compile", "--dead-register"],
    ["generate", "--out-dir", "{out}", "--variants", "discard", "--limit", "2"],
    ["diff", "{src}", "a", "b", "--auto-compile"],
    ["simulate", "{src}", "diff"], ["simulate", "{src}", "--bogus"],
    ["diff", "--", "{src}", "--auto-compile"],
    ["diff", "{src}", "--auto-compile", "--", "x"],
    ["diff", "{src}", "--auto"],
    ["diff", "{src}", "--auto-compile", "--m", "1"],
    ["simulate", "{src}", "-h"], ["diff", "{src}", "--auto-compile", "--help"],
]


def _placed(argv, tmp_path):
    return [arg.replace("{src}", SOURCE).replace("{out}", str(tmp_path / "out"))
            for arg in argv]


def _argv_id(argv):
    return " ".join(argv) or "(no arguments)"


def _full_parser_main(argv):
    # main as it would be with the full parser alone
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (LitmusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@pytest.mark.parametrize("argv", PARSER_CASES, ids=_argv_id)
def test_main_matches_the_full_parser(capsys, tmp_path, argv):
    argv = _placed(argv, tmp_path)
    got = run(capsys, *argv)
    assert got[1] or got[2]
    code = _full_parser_main(argv)
    captured = capsys.readouterr()
    assert got == (code, captured.out, captured.err)


def _subparsers(parser):
    [action] = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _action_shape(action):
    return (type(action), action.dest, action.option_strings, action.nargs,
            action.default, action.choices, action.required)


@pytest.mark.parametrize("command", COMMANDS)
def test_build_parser_of_a_command_is_its_full_subparser(command):
    full = _subparsers(build_parser())
    assert list(full) == COMMANDS
    want, got = full[command], build_parser(command)
    assert got.prog == want.prog == f"litmusdiff {command}"
    assert got.format_usage() == want.format_usage()
    assert got.format_help() == want.format_help()
    assert ([_action_shape(a) for a in got._actions]
            == [_action_shape(a) for a in want._actions])
    assert got.get_default("func") is want.get_default("func") is not None


BUILT = [
    (["diff", "{src}", "--auto-compile"], ["diff"]),
    (["simulate", "{src}", "-x"], ["simulate", None]),
    (["-x", "simulate", "{src}"], [None]),
    (["-h"], [None]),
    ([], [None]),
]


@pytest.mark.parametrize("argv, built", BUILT,
                         ids=[_argv_id(argv) for argv, _ in BUILT])
def test_main_builds_the_invoked_commands_parser(capsys, monkeypatch,
                                                 tmp_path, argv, built):
    calls = []
    full = cli.build_parser

    def spy(command=None):
        calls.append(command)
        return full(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    run(capsys, *_placed(argv, tmp_path))
    assert calls == built


@pytest.mark.parametrize("argv", [["-h"], ["simulate"], ["simulate", "{src}"],
                                  ["diff", "{src}", "--auto-compile"]],
                         ids=_argv_id)
def test_main_reads_sys_argv_by_default(capsys, monkeypatch, tmp_path, argv):
    argv = _placed(argv, tmp_path)
    want = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["litmusdiff", *argv])
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == want
    assert main(tuple(argv)) == want[0]
    capsys.readouterr()
