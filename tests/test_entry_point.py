"""Exit codes and streams of ``python -m litmusdiff.cli``, run as a process,
so that the ``sys.exit(main())`` path is covered too."""

import os
import pathlib
import subprocess
import sys

import litmusdiff
from litmusdiff import golden_path

PACKAGE_ROOT = str(pathlib.Path(litmusdiff.__file__).resolve().parent.parent)
SOURCE = str(golden_path("mp-xchg-discard.litmus"))
FIXED = str(golden_path("mp-xchg-discard-compiled-w15.litmus"))
MAPPING = str(golden_path("mp-xchg-discard-compiled.mapping.json"))


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "litmusdiff.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)


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
