"""Exit codes and streams of ``python -m litmusdiff.cli``, run as a process,
so that the ``sys.exit(main())`` path is covered too."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import litmusdiff
from litmusdiff import golden_path

PACKAGE_ROOT = str(pathlib.Path(litmusdiff.__file__).resolve().parent.parent)
SOURCE = str(golden_path("mp-xchg-discard.litmus"))
FIXED = str(golden_path("mp-xchg-discard-compiled-w15.litmus"))
MAPPING = str(golden_path("mp-xchg-discard-compiled.mapping.json"))


def run_python(*argv, **env):
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=60)


def run_cli(*argv):
    return run_python("-m", "litmusdiff.cli", *argv)


def test_dead_register_bug_exits_1_with_a_witness():
    done = run_cli("diff", SOURCE, "--auto-compile", "--dead-register")
    assert done.returncode == 1, done.stderr
    assert "Witness: P1:r0=0; y=2;" in done.stdout.splitlines()
    assert done.stderr == ""


def test_correct_lowering_exits_0():
    done = run_cli("diff", SOURCE, FIXED, "--mapping", MAPPING)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("Verdict: pass\n")
    assert done.stderr == ""


def test_missing_file_exits_2_with_one_error_line(tmp_path):
    done = run_cli("simulate", str(tmp_path / "missing.litmus"))
    assert done.returncode == 2
    assert done.stdout == ""
    [line] = done.stderr.splitlines()
    assert line.startswith("error: ") and "missing.litmus" in line
    assert "Traceback" not in done.stderr


# 5,000 digits: more than ``int`` reads from a string by default.
LONG = "9" * 5000
TOO_LONG = "integer of 5000 digits is too long"

# Each integer the reader converts, in the golden source or compiled test,
# made too long to read, with the position and message of its error; then
# a W and an X register number just as long, one of each written with a
# leading zero, and X31, which is no address register.
UNREADABLE = {
    "init-value": (SOURCE, "x = 0;", f"x = {LONG};", 3, 1, TOO_LONG),
    "binding-thread": (FIXED, "1:X0", f"{LONG}:X0", 6, 1, TOO_LONG),
    "store-value": (SOURCE, "(x, 1,", f"(x, {LONG},", 6, 28, TOO_LONG),
    "exchange-value": (SOURCE, "(y, 2,", f"(y, {LONG},", 11, 31, TOO_LONG),
    "source-thread": (SOURCE, "P1 (", f"P{LONG} (", 10, 2, TOO_LONG),
    "immediate": (FIXED, "#2", f"#{LONG}", 16, 12, TOO_LONG),
    "asm-thread": (FIXED, "P1:", f"P{LONG}:", 15, 2, TOO_LONG),
    "source-value": (SOURCE, "r0 = 0 ", f"r0 = {LONG} ", 16, 17, TOO_LONG),
    "asm-value": (FIXED, "W3 = 0", f"W3 = {LONG}", 21, 16, TOO_LONG),
    "source-observable": (SOURCE, "(P1:", f"(P{LONG}:", 16, 10, TOO_LONG),
    "asm-observable": (FIXED, "(1:", f"({LONG}:", 21, 9, TOO_LONG),
    "register": (FIXED, "SWPL W2,", f"SWPL W{LONG},", 17, 8,
                 f"bad register 'W{LONG}'"),
    "leading-zero": (FIXED, "SWPL W2, W15", "SWPL W2, W015", 17, 12,
                     "bad register 'W015'"),
    "address-register": (FIXED, "1:X1 =", f"1:X{LONG} =", 6, 1,
                         f"bad address register 'X{LONG}'"),
    "address-leading-zero": (FIXED, "1:X0 =", "1:X00 =", 6, 1,
                             "bad address register 'X00'"),
    "address-31": (FIXED, "W15, [X1]", "W15, [X31]", 17, 18,
                   "bad address register 'X31'"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_number_exits_2_with_one_error_line(tmp_path, case):
    golden, old, new, line, column, message = UNREADABLE[case]
    text = pathlib.Path(golden).read_text()
    assert text.count(old) == 1
    path = tmp_path / "long.litmus"
    path.write_text(text.replace(old, new))
    done = run_cli("simulate", str(path))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: line {line}, col {column}: {message}\n"


@pytest.mark.parametrize("golden, header, line", [
    (SOURCE, "P1 (", 10), (FIXED, "P1:", 15)], ids=["source", "asm"])
def test_repeated_thread_exits_2_with_one_error_line(tmp_path, golden,
                                                     header, line):
    text = pathlib.Path(golden).read_text()
    assert text.count(header) == 1
    path = tmp_path / "twice.litmus"
    path.write_text(text.replace(header, header.replace("1", "0")))
    done = run_cli("simulate", str(path))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: line {line}, col 1: thread P0 given twice\n"


@pytest.mark.parametrize("golden, renames, message", [
    (SOURCE, [("P1 (", "P2 (")], "line 10, col 1: thread P1 missing"),
    (FIXED, [("P1:", "P2:"), ("1:X0 = x; 1:X1", "2:X0 = x; 2:X1")],
     "line 15, col 1: thread P1 missing"),
    (FIXED, [("P1:", "P2:")],
     "line 6, col 1: bindings given for missing thread P1"),
], ids=["source", "asm", "asm-bindings"])
def test_missing_thread_exits_2_with_one_error_line(tmp_path, golden, renames,
                                                    message):
    text = pathlib.Path(golden).read_text()
    for old, new in renames:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / "gap.litmus"
    path.write_text(text)
    done = run_cli("simulate", str(path))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {message}\n"


# Runs each argv list of its JSON argument through ``cli.main`` in one
# process and prints the exit code and output of each, as JSON.
RUN_MAIN = """
import contextlib, io, json, sys
from litmusdiff.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""

INPUTS = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
          / "inputs")


def test_output_does_not_depend_on_the_hash_seed():
    # Strings hash differently in every process unless PYTHONHASHSEED is
    # set, and the enumerator keeps sets and dicts keyed by labels and
    # locations; identical invocations must still print identical bytes.
    sources = [SOURCE, *(str(INPUTS / "ladder" / f"{name}.litmus")
                         for name in ("mp-relseq-4t", "iriw-sc"))]
    asm = [FIXED, str(golden_path("mp-xchg-discard-compiled-wzr.litmus")),
           str(INPUTS / "asm" / "wrc-data-dmb-ish.litmus")]
    invocations = [["simulate", path, "--format", "json"]
                   for path in sources + asm]
    for path in sources:
        invocations.append(["diff", path, "--auto-compile",
                            "--dead-register", "--format", "json"])
        invocations.append(["compile", path])
    outputs = []
    for seed in ("0", "1"):
        done = run_python("-c", RUN_MAIN, json.dumps(invocations),
                          PYTHONHASHSEED=seed)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    results = json.loads(outputs[0])
    # the golden source's dead-register lowering is the one bug
    assert [code for code, _, _ in results] == [0] * 6 + [1] + [0] * 5
    assert all(out and not err for _, out, err in results)
