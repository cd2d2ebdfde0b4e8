"""The benchmark's workloads: their inputs, the timed operation and the
check of each result against the files under ``expected/``.

Every workload drives litmusdiff only through public entry points, looked
up on the package or ``litmusdiff.cli`` module at call time, so that the
tracer's wrappers take effect.  ``setup`` is the part timed as set-up:
input generation and file writing.  An ``Op`` is one distinct input; its
``call`` is the timed operation and returns the raw result, which its
``canonical`` turns into a comparable string outside the timed region.

A result that differs from its pinned entry is a failure.  A result that
matches its pinned entry, where that entry disagrees with the hand-written
answer from the literature in ``inputs/*.json``, is a known model gap: it
is named in the output and lowers ``agree_share`` (see NOTES.md).
"""

from __future__ import annotations

import dataclasses
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"

# The full exchange MP family: all three variants crossed with every legal
# order in each of the five slots, 2,025 tests.
MP_FAMILY_ARGS = (
    "--variants", "historic,discard,observe",
    "--data-store-orders", "rlx,rel,sc",
    "--flag-store-orders", "rlx,rel,sc",
    "--flag-op-orders", "rlx,acq,rel,ar,sc",
    "--fence-orders", "acq,rel,ar,sc,none",
    "--data-load-orders", "rlx,acq,sc",
)
MP_CORPUS_SIZE = 216
MP_MODES = (("plain", ()), ("dead", ("--dead-register",)))


@dataclasses.dataclass
class Op:
    name: str
    call: Callable[[], object]
    canonical: Callable[[object], str]


def cli_call(lib, argv: list[str]) -> Callable[[], tuple]:
    """``cli.main(argv)`` in-process with stdout and stderr captured."""
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = lib.cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return call


def cli_canonical(raw) -> str:
    code, out, err = raw
    return json.dumps({"code": code, "stdout": out, "stderr": err},
                      sort_keys=True)


def verdict_canonical(verdict) -> str:
    return json.dumps(verdict.to_json_dict(), sort_keys=True)


def format_state(state: dict) -> str:
    """An outcome as the CLI prints it: ``label=value;`` in label order."""
    return " ".join(f"{label}={value};" for label, value in sorted(state.items()))


def encode_verdict(verdict: dict) -> str:
    """One line per verdict: status, outcome counts, then each witness."""
    parts = [verdict["status"], str(verdict.get("source_outcomes")),
             str(verdict.get("compiled_outcomes"))]
    parts += [f"| {format_state(w)}" for w in verdict.get("witnesses", ())]
    if "diagnostic" in verdict:
        parts.append(f"! {verdict['diagnostic']}")
    return " ".join(parts)


def outcome_lists(outcome_sets) -> list[list[dict]]:
    return [[o.as_dict() for o in s.sorted_outcomes()] for s in outcome_sets]


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class Workload:
    name = ""
    def __init__(self):
        self.expected = _load_json(EXPECTED / f"{self.name}.json")

    def setup(self, lib, seed: int, workdir: Path) -> list[Op]:
        raise NotImplementedError

    def check(self, op_name: str, result: str) -> str | None:
        """None when the result matches its pinned entry, else why not."""
        raise NotImplementedError

    def gap(self, op_name: str) -> str | None:
        """The known model gap a matching result shows, if any."""
        return None

    def pinned_outcome_sets(self, op_name: str) -> list | None:
        return None


class MpCorpus(Workload):
    name = "mp-corpus"

    def setup(self, lib, seed, workdir):
        out_dir = workdir / "corpus"
        code, _, err = cli_call(lib, [
            "generate", "--out-dir", str(out_dir), *MP_FAMILY_ARGS,
            "--limit", str(MP_CORPUS_SIZE), "--seed", str(seed)])()
        if code != 0:
            raise RuntimeError(f"litmusdiff generate failed: {err.strip()}")
        manifest = _load_json(out_dir / "manifest.json")
        ops = []
        for entry in manifest:
            path = str(out_dir / entry["file"])
            for mode, flags in MP_MODES:
                argv = ["diff", path, "--auto-compile", "--format", "json",
                        *flags]
                ops.append(Op(f"{entry['name']}:{mode}", cli_call(lib, argv),
                              cli_canonical))
        return ops

    def check(self, op_name, result):
        test, mode = op_name.rsplit(":", 1)
        if test not in self.expected:
            return f"{test} is not in the pinned MP family"
        want = self.expected[test][[m for m, _ in MP_MODES].index(mode)]
        raw = json.loads(result)
        try:
            got = encode_verdict(json.loads(raw["stdout"]))
        except (ValueError, KeyError):
            return f"unreadable output {raw['stdout'][:80]!r} {raw['stderr'][:80]!r}"
        if got != want:
            return f"verdict {got!r}, pinned {want!r}"
        exit_code = {"pass": 0, "bug": 1}.get(got.split()[0], 2)
        if raw["code"] != exit_code:
            return f"exit code {raw['code']} for a {got.split()[0]} verdict"
        return None


class _FixedSet(Workload):
    """The hand-written inputs listed in inputs/<name>.json: one part of
    ladder-asm, and a workload of its own in the self-tests."""

    def __init__(self):
        super().__init__()
        self.specs = _load_json(INPUTS / f"{self.name}.json")
        self.by_name = {spec["name"]: spec for spec in self.specs}

    def pinned_outcome_sets(self, op_name):
        return self.expected[op_name]["outcome_sets"]

    def gap(self, op_name):
        spec = self.by_name[op_name]
        if self.pinned_answer(op_name) == self.literature_answer(spec):
            return None
        return spec.get("gap", "pinned result disagrees with the literature")

    def pinned_answer(self, op_name) -> str:
        raise NotImplementedError

    def literature_answer(self, spec) -> str:
        raise NotImplementedError


def read_input(lib, ref: str) -> str:
    """Text of an input file: ``golden:<name>`` is one of the package's
    reference files, anything else a path under inputs/."""
    if ref.startswith("golden:"):
        return lib.pkg.golden_path(ref[len("golden:"):]).read_text(
            encoding="utf-8")
    return (INPUTS / ref).read_text(encoding="utf-8")


def ladder_call(lib, spec) -> Callable[[], object]:
    """Parse the source, pair it with the given compiled file or with its
    lowering, and check refinement."""
    source_text = read_input(lib, spec["source"])
    compiled_text = (read_input(lib, spec["compiled"])
                     if "compiled" in spec else None)
    mapping = (lib.pkg.Mapping.from_json_dict(
        json.loads(read_input(lib, spec["mapping"])))
        if "mapping" in spec else None)
    legacy = spec.get("legacy_zero_register", False)

    def call():
        pkg = lib.pkg
        source = pkg.parse_litmus(source_text)
        if compiled_text is None:
            compiled, lowered_mapping = pkg.lower_test(source)
        else:
            compiled, lowered_mapping = pkg.parse_litmus(compiled_text), mapping
        return pkg.check_refinement(source, compiled, lowered_mapping,
                                    legacy_zero_register=legacy)
    return call


class Ladder(_FixedSet):
    name = "ladder"

    def setup(self, lib, seed, workdir):
        return [Op(spec["name"], ladder_call(lib, spec), verdict_canonical)
                for spec in self.specs]

    def check(self, op_name, result):
        got = encode_verdict(json.loads(result))
        want = encode_verdict(self.expected[op_name]["verdict"])
        return None if got == want else f"verdict {got!r}, pinned {want!r}"

    def pinned_answer(self, op_name):
        return self.expected[op_name]["verdict"]["status"]

    def literature_answer(self, spec):
        return spec["literature"]["verdict"]


def simulate_argv(path: Path, spec) -> list[str]:
    argv = ["simulate", str(path)]
    if spec.get("legacy_zero_register"):
        argv.append("--legacy-zero-register")
    return argv


def read_table(stdout: str) -> tuple[set[str], str]:
    """States and the Ok/No trailer of ``simulate``'s table output."""
    lines = stdout.splitlines()
    states = {line.removesuffix(" *") for line in lines[1:-1]}
    return states, lines[-1] if lines else ""


class AsmSim(_FixedSet):
    name = "asm-sim"

    def setup(self, lib, seed, workdir):
        return [Op(spec["name"],
                   cli_call(lib, simulate_argv(INPUTS / spec["file"], spec)),
                   cli_canonical)
                for spec in self.specs]

    def check(self, op_name, result):
        raw = json.loads(result)
        if raw["code"] != 0:
            return f"exit code {raw['code']}: {raw['stderr'].strip()[:120]}"
        states, trailer = read_table(raw["stdout"])
        pinned = self.expected[op_name]
        want = {format_state(s) for s in pinned["outcome_sets"][0]}
        if states != want:
            return (f"outcomes {sorted(states - want)} not pinned, pinned "
                    f"{sorted(want - states)} missing")
        if trailer != pinned["exists"]:
            return f"exists answer {trailer!r}, pinned {pinned['exists']!r}"
        return None

    def pinned_answer(self, op_name):
        return {"Ok": "allowed", "No": "forbidden"}[self.expected[op_name]["exists"]]

    def literature_answer(self, spec):
        return spec["literature"]["exists"]


class LadderAsm(Workload):
    """The ladder and the asm-sim set run as one workload, each input
    checked by the set it comes from.  One workload instead of two leaves
    time for 40 s runs within the benchmark's time budget (NOTES.md)."""

    name = "ladder-asm"

    def __init__(self):
        self.parts = (Ladder(), AsmSim())
        self.owner = {spec["name"]: part
                      for part in self.parts for spec in part.specs}

    def setup(self, lib, seed, workdir):
        return [op for part in self.parts
                for op in part.setup(lib, seed, workdir)]

    def check(self, op_name, result):
        return self.owner[op_name].check(op_name, result)

    def gap(self, op_name):
        return self.owner[op_name].gap(op_name)

    def pinned_outcome_sets(self, op_name):
        return self.owner[op_name].pinned_outcome_sets(op_name)


WORKLOADS = {w.name: w for w in (MpCorpus, LadderAsm)}
