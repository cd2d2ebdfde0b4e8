"""Self-tests of the benchmark code.

    python3 -m pytest perfbench/test_perfbench.py

They run shortened workloads in-process (a few inputs, a fraction of a
second of measuring) and take about ten seconds.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
import unittest.mock
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import AsmSim, Ladder, LadderAsm, MpCorpus  # noqa: E402

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL_ASM = ("mp-dmb-sy", "mp-swpl-wzr", "mp-swpl-wzr-legacy", "corr",
             "wrc-data-dmb-ish")
SMALL_LADDER = ("golden-w15", "golden-wzr", "golden-wzr-legacy", "sb-rlx",
                "sb-sc")


def small(workload, names):
    workload.specs = [s for s in workload.specs if s["name"] in names]
    return workload


class SmallMp(MpCorpus):
    """Four ops of the seeded draw; with ``corrupt`` the pinned plain
    verdict of the first test is wrong."""

    corrupt = False

    def setup(self, lib, seed, workdir):
        ops = super().setup(lib, seed, workdir)[:4]
        if self.corrupt:
            test = ops[0].name.rsplit(":", 1)[0]
            self.expected[test] = ["bug 9 9", self.expected[test][1]]
        return ops


class AcceptAll:
    """A workload whose every result matches its pinned entry."""

    def check(self, op_name, result):
        return None

    def gap(self, op_name):
        return None


class BenchmarkTest(unittest.TestCase):
    def run_workload(self, workload, trace=0, seconds=0.05):
        run.WORK_ROOT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=run.WORK_ROOT))
        try:
            return run.run(workload, 7, seconds, trace, workdir)
        finally:
            shutil.rmtree(workdir)
            with contextlib.suppress(OSError):
                run.WORK_ROOT.rmdir()

    def assert_fails_named(self, workload, op_name):
        lines, summary = self.run_workload(workload)
        self.assertFalse(summary["correct"])
        self.assertGreaterEqual(summary["failed"], 1)
        self.assertTrue(any(line.startswith(f"FAILED {op_name}:")
                            for line in lines), lines)
        self.assertLess(summary["metrics"]["agree_share"]["value"], 1)

    def test_corrupted_asm_entry_fails_and_is_named(self):
        workload = small(AsmSim(), SMALL_ASM)
        workload.expected["corr"]["exists"] = "Ok"
        self.assert_fails_named(workload, "corr")

    def test_corrupted_ladder_entry_fails_and_is_named(self):
        workload = small(Ladder(), SMALL_LADDER)
        workload.expected["sb-rlx"]["verdict"]["compiled_outcomes"] = 3
        self.assert_fails_named(workload, "sb-rlx")

    def test_corrupted_outcome_set_fails_in_warm_up(self):
        workload = small(Ladder(), SMALL_LADDER)
        workload.expected["golden-w15"]["outcome_sets"][0].pop()
        self.assert_fails_named(workload, "golden-w15")

    def test_corrupted_mp_entry_fails_and_is_named(self):
        workload = SmallMp()
        workload.corrupt = True
        lines, summary = self.run_workload(workload)
        self.assertFalse(summary["correct"])
        failed = [line for line in lines if line.startswith("FAILED ")]
        self.assertEqual(len(failed), 1)
        self.assertRegex(failed[0], r"^FAILED mp-\S+:plain: verdict .*, "
                                    r"pinned 'bug 9 9'$")

    def test_known_gaps_are_named_and_not_failures(self):
        lines, summary = self.run_workload(small(Ladder(), SMALL_LADDER))
        self.assertTrue(summary["correct"])
        self.assertTrue(any(line.startswith("known gap sb-sc:") for line in lines))
        self.assertAlmostEqual(
            summary["metrics"]["agree_share"]["value"], 4 / 5)

    def test_only_the_two_documented_gaps_disagree_with_the_literature(self):
        workload = LadderAsm()
        self.assertEqual(len(workload.owner), 22)
        self.assertEqual([name for name in workload.owner if workload.gap(name)],
                         ["sb-sc", "wrc-data-dmb-ish"])

    def test_pinned_mp_family(self):
        verdicts = MpCorpus().expected
        self.assertEqual(len(verdicts), 2025)
        self.assertTrue(all(plain.startswith("pass ")
                            for plain, _ in verdicts.values()))
        bugs = [name for name, (_, dead) in verdicts.items()
                if not dead.startswith("pass ")]
        self.assertEqual(len(bugs), 144)
        self.assertTrue(all(name.startswith("mp-discard-") for name in bugs))
        self.assertTrue(all(verdicts[name][1].endswith("| P1:r0=0; y=2;")
                            for name in bugs))

    def test_traced_results_equal_untraced(self):
        # One checker sees the untraced passes first, so any traced result
        # that differs fails as "differs from an earlier run".
        for workload in (small(AsmSim(), SMALL_ASM),
                         small(Ladder(), SMALL_LADDER), SmallMp()):
            lines, summary = self.run_workload(workload, trace=1, seconds=0.1)
            self.assertTrue(summary["correct"], lines)
            self.assertEqual(summary["failed"], 0)

    def test_changed_result_between_runs_fails(self):
        checker = run.Checker(AcceptAll())
        checker.record("corr", "one result", None)
        self.assertEqual(checker.failed, 0)
        checker.record("corr", "another result", None)
        self.assertEqual(checker.failed, 1)
        self.assertIn("differs from an earlier run", checker.failures["corr"])

    def test_times_are_scaled_by_the_reference_loop_around_them(self):
        ref = run.calibrate.REFERENCE_S
        with unittest.mock.patch.object(run.calibrate, "loop_seconds",
                                        lambda: 2 * ref):
            scale = run.SpeedScale()
            # (end, seconds) of each loop run and (key, start, end) of each
            # op, in perf_counter seconds; scaled() adds a last loop run.
            scale.loops = [(0.0, 2 * ref), (0.5, 2 * ref), (5.0, 4 * ref),
                           (5.5, 4 * ref)]
            scale.times = [("a", 0.1, 0.4), ("b", 5.1, 5.3), ("c", 10.0, 10.2)]
            scaled = scale.scaled()
        # a and b: the loop runs within a second; c: none is, so the runs
        # just before (4 * ref) and just after (2 * ref).
        self.assertAlmostEqual(scaled["a"][0], 0.3 / 2)
        self.assertAlmostEqual(scaled["b"][0], 0.2 / 4)
        self.assertAlmostEqual(scaled["c"][0], 0.2 / 3)

    def test_printed_metrics_are_listed_in_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            listed = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            lines, summary = self.run_workload(SmallMp(), trace=trace)
            printed = {name: metric["unit"]
                       for name, metric in summary["metrics"].items()}
            self.assertEqual(printed, listed)
            for name, unit in printed.items():
                self.assertTrue(any(line.startswith(f"{name} = ")
                                    and line.endswith(f" {unit}")
                                    for line in lines), name)

    def test_exact_counts_are_integers(self):
        _, summary = self.run_workload(small(AsmSim(), SMALL_ASM), trace=1)
        for name in ("execution.candidates", "execution.outcomes"):
            self.assertIsInstance(summary["metrics"][name]["value"], int)

    def test_without_the_program_it_exits_nonzero_without_a_result(self):
        run.WORK_ROOT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=run.WORK_ROOT))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ladder",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
            with contextlib.suppress(OSError):
                run.WORK_ROOT.rmdir()
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
