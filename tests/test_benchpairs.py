"""tools/benchpairs.py, the alternating-pairs runner: its summary's rules
and the runs it refuses. The benchmark itself is not run; subprocess.run is
replaced by a fake harness."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "benchpairs.py"


@pytest.fixture(scope="module")
def benchpairs():
    # tools/ is not a package: load the module from its path
    spec = importlib.util.spec_from_file_location("benchpairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [{"name": "call_s", "better": "lower", "bound": 0.25},
           {"name": "reps_per_s", "better": "higher", "bound": 0.25}]


def run(pair, commit, call_s, reps_per_s=1.0, attempted=10, failed=0):
    return {"pair": pair, "commit": commit, "attempted": attempted,
            "failed": failed, "setup_samples": [],
            "metrics": {"call_s": call_s, "reps_per_s": reps_per_s}}


def runs_of(base_values, head_values, **head_fields):
    runs = []
    for k, (b, h) in enumerate(zip(base_values, head_values)):
        runs += [run(k, "base", b), run(k, "head", h, **head_fields)]
    return runs


class TestSummarize:
    def test_ties_count_for_neither_side(self, benchpairs):
        runs = runs_of([1.0] * 10, [1.0] * 5 + [0.5] * 5)
        summary, _ = benchpairs.summarize(runs, "base", "head", METRICS)
        assert summary["call_s"]["head_wins"] == 5
        # equal reps_per_s everywhere: no pair won, no gain
        assert summary["reps_per_s"]["head_wins"] == 0
        assert not summary["reps_per_s"]["gain_shown"]

    def test_nine_in_ten_pairs(self, benchpairs):
        # a large median gain over a tight base, won in 9 and then 8 pairs
        base = [1.0] * 10
        nine = [0.5] * 9 + [1.5]
        summary, _ = benchpairs.summarize(runs_of(base, nine), "base", "head", METRICS)
        assert summary["call_s"]["head_wins"] == 9
        assert summary["call_s"]["gain_shown"]
        eight = [0.5] * 8 + [1.5] * 2
        summary, _ = benchpairs.summarize(runs_of(base, eight), "base", "head", METRICS)
        assert summary["call_s"]["head_wins"] == 8
        assert not summary["call_s"]["gain_shown"]

    def test_median_gain_beyond_the_base_iqr(self, benchpairs):
        # the head wins every pair by 0.05, but the base's quartiles lie
        # 0.5 apart, and then 0.01 apart
        wide = [1.0, 1.5] * 5
        summary, _ = benchpairs.summarize(
            runs_of(wide, [x - 0.05 for x in wide]), "base", "head", METRICS)
        s = summary["call_s"]
        assert s["head_wins"] == 10
        assert s["base"]["q3"] - s["base"]["q1"] == pytest.approx(0.5)
        assert not s["gain_shown"]
        tight = [1.0, 1.01] * 5
        summary, _ = benchpairs.summarize(
            runs_of(tight, [x - 0.05 for x in tight]), "base", "head", METRICS)
        assert summary["call_s"]["gain_shown"]

    def test_unfinished_pair_is_ignored(self, benchpairs):
        runs = runs_of([1.0] * 10, [0.5] * 10) + [run(10, "base", 9.0)]
        summary, _ = benchpairs.summarize(runs, "base", "head", METRICS)
        s = summary["call_s"]
        assert s["pairs"] == 10 and len(s["base"]["samples"]) == 10
        assert s["base"]["median"] == 1.0 and s["gain_shown"]
        assert benchpairs.summarize([run(0, "base", 1.0)], "base", "head",
                                    METRICS)[0] == {}

    def test_operations_and_a_larger_failed_share(self, benchpairs):
        # the head wins every pair clearly, but fails 1 of its 100
        # operations where the base failed none
        runs = runs_of([1.0] * 10, [0.5] * 10)
        runs[-1]["failed"] = 1
        summary, _ = benchpairs.summarize(runs, "base", "head", METRICS)
        s = summary["call_s"]
        assert (s["base"]["attempted"], s["base"]["failed"]) == (100, 0)
        assert (s["head"]["attempted"], s["head"]["failed"]) == (100, 1)
        assert s["head_wins"] == 10 and not s["gain_shown"]
        # an equal share does not block the gain
        runs[-2]["failed"] = 1
        summary, _ = benchpairs.summarize(runs, "base", "head", METRICS)
        assert summary["call_s"]["gain_shown"]


class TestVerdict:
    """The no-regression verdict: the bound is a share of the base's
    median, and a base spread wider than it leaves the metric unresolved
    unless every head run beats every base run."""

    def verdicts(self, benchpairs, base, head, reps=None):
        runs = runs_of(base, head)
        for r in runs if reps else ():
            r["metrics"]["reps_per_s"] = reps[r["commit"]][r["pair"]]
        summary, _ = benchpairs.summarize(runs, "base", "head", METRICS)
        return summary["call_s"]["verdict"], summary["reps_per_s"]["verdict"]

    def test_worse_than_bound(self, benchpairs):
        # call_s 30 % slower, then reps_per_s 30 % lower, over tight bases
        assert self.verdicts(benchpairs, [1.0] * 10, [1.3] * 10) \
            == ("worse than bound", "within bound")
        reps = {"base": [1.0] * 10, "head": [0.7] * 10}
        assert self.verdicts(benchpairs, [1.0] * 10, [1.0] * 10, reps) \
            == ("within bound", "worse than bound")

    def test_within_bound(self, benchpairs):
        # 20 % slower or a little faster, with quartiles 0.01 apart
        tight = [1.0, 1.01] * 5
        assert self.verdicts(benchpairs, tight, [x + 0.2 for x in tight])[0] \
            == "within bound"
        assert self.verdicts(benchpairs, tight, [x - 0.01 for x in tight])[0] \
            == "within bound"

    def test_unresolved_unless_every_run_is_better(self, benchpairs):
        # the base's quartiles lie 1.0 apart around a median of 1.5, more
        # than its bound of 0.375: a head 0.01 slower, or faster in every
        # pair but not in every run, is unresolved; one whose every run
        # beats every base run is within the bound
        wide = [1.0, 2.0] * 5
        for head in ([x + 0.01 for x in wide], [x - 0.05 for x in wide]):
            assert self.verdicts(benchpairs, wide, head)[0] == "unresolved"
        assert self.verdicts(benchpairs, wide, [0.9] * 10)[0] == "within bound"
        reps = {"base": [1.0, 2.0] * 5, "head": [2.5] * 10}
        assert self.verdicts(benchpairs, [1.0] * 10, [1.0] * 10, reps)[1] \
            == "within bound"
        reps["head"] = [2.5] * 9 + [1.5]
        assert self.verdicts(benchpairs, [1.0] * 10, [1.0] * 10, reps)[1] \
            == "unresolved"


class TestRunOnce:
    RESULT = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"call_s": {"value": 0.25}}}

    def fake_harness(self, benchpairs, monkeypatch, returncode, stdout):
        def fake_run(args, **kwargs):
            assert args[1:3] == ["perfbench/run.py", "--workload"]
            return subprocess.CompletedProcess(args, returncode, stdout,
                                               "the harness's stderr")
        monkeypatch.setattr(benchpairs.subprocess, "run", fake_run)

    def test_accepts_a_correct_run(self, benchpairs, monkeypatch, tmp_path):
        stdout = "setup_s samples: 0.2500 0.3000\n" + json.dumps(self.RESULT) + "\n"
        self.fake_harness(benchpairs, monkeypatch, 0, stdout)
        got = benchpairs.run_once(tmp_path, "estimate_n2000", 1.0, 7)
        assert got["metrics"] == {"call_s": 0.25} and got["correct"]
        assert (got["attempted"], got["failed"]) == (4, 0)
        assert got["setup_samples"] == [0.25, 0.3]

    @pytest.mark.parametrize("returncode, stdout, verdict", [
        (1, json.dumps({**RESULT, "correct": False}), "exited 1, correct: False"),
        (0, json.dumps({**RESULT, "correct": False}), "exited 0, correct: False"),
        (1, json.dumps(RESULT), "exited 1, correct: True"),
        (0, "", "exited 0, no result line"),
        (2, "Traceback (most recent call last):", "exited 2, no result line"),
    ], ids=["gate-failed", "not-correct", "non-zero", "silent", "not-json"])
    def test_refuses(self, benchpairs, monkeypatch, tmp_path, returncode, stdout,
                     verdict):
        self.fake_harness(benchpairs, monkeypatch, returncode, stdout)
        with pytest.raises(SystemExit) as info:
            benchpairs.run_once(tmp_path, "estimate_n2000", 1.0, 7)
        assert verdict in str(info.value)
        assert "the harness's stderr" in str(info.value)
