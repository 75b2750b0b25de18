import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import mwwdr
from mwwdr import parallel, ugee
from mwwdr.cli import main
from mwwdr.simstudy import synthetic_confounded_trial, write_dataset_csv

FIXTURES = Path(__file__).parent / "fixtures"


def run(args):
    return main([str(a) for a in args])


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestEstimate:
    def test_mww_on_four_row_fixture(self, capsys):
        code = run(["estimate", "--input", FIXTURES / "four_row.csv",
                    "--z-col", "z", "--y-col", "y", "--estimator", "mww"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["estimates"]["mww"]["delta"] == 0.75

    def test_single_arm_exit_code(self, capsys):
        code = run(["estimate", "--input", FIXTURES / "single_arm.csv",
                    "--z-col", "z", "--y-col", "y", "--estimator", "mww"])
        assert code == 3
        assert "estimability" in capsys.readouterr().err

    def test_unidentified_outcome_model_exit_code(self, tmp_path, capsys):
        # one treated subject: the outcome model's slope is not identified
        path = tmp_path / "one_treated.csv"
        path.write_text("z,y,w\n1,0.3,0.5\n0,-1,1.2\n0,1,-0.7\n0,-2,0.1\n"
                        "0,2,2.0\n0,0.5,-1.1\n")
        code = run(["estimate", "--input", path, "--z-col", "z", "--y-col", "y",
                    "--w-cols", "w", "--estimator", "msi"])
        assert code == 3
        assert "the treated arm's covariates" in capsys.readouterr().err

    def test_bad_z_exit_code(self, capsys):
        code = run(["estimate", "--input", FIXTURES / "bad_z.csv",
                    "--z-col", "z", "--y-col", "y"])
        assert code == 2
        assert "row 3" in capsys.readouterr().err

    def test_alpha_validated_for_mww(self, capsys):
        code = run(["estimate", "--input", FIXTURES / "four_row.csv",
                    "--z-col", "z", "--y-col", "y", "--estimator", "mww",
                    "--alpha", "2"])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["2", "-1"])
    def test_alpha_validated_before_any_fit(self, alpha, tmp_path, capsys):
        # with one treated subject mww has no standard error, so no Wald
        # test would ever read alpha
        path = tmp_path / "one_treated.csv"
        path.write_text("z,y\n1,1\n0,2\n0,3\n")
        code = run(["estimate", "--input", path, "--z-col", "z",
                    "--y-col", "y", "--estimator", "mww", "--alpha", alpha])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        code = run(["estimate", "--input", FIXTURES / "nope.csv",
                    "--z-col", "z", "--y-col", "y"])
        assert code == 5

    def test_all_estimators_on_simulated_data(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["estimate", "--input", FIXTURES / "simulated_n120.csv",
                    "--z-col", "z", "--y-col", "y", "--w-cols", "w1",
                    "--estimator", "all", "--hajek", "--output", out])
        assert code == 0
        rep = json.loads(out.read_text())
        assert set(rep["estimates"]) == {"mww", "ipw", "msi", "dr"}
        dr = rep["estimates"]["dr"]
        assert "covariance" in dr["fit"]
        assert len(dr["fit"]["covariance"]) == 6
        assert "delta_plain" in dr
        assert "delta_hajek" in rep["estimates"]["ipw"]
        # estimate checks every fit's derivatives, not once per call
        for name in ("ipw", "msi", "dr"):
            assert rep["estimates"][name]["fit"]["diagnostics"]["fd_check_max_err"] < 1e-5

    def test_a_probit_estimate_imports_no_scipy(self, tmp_path):
        # numpy is the one runtime dependency; scipy.special alone added
        # about 20 MB and 0.2 s to every process
        script = (
            "import sys\n"
            "from mwwdr.cli import main\n"
            f"code = main(['estimate', '--input', {str(FIXTURES / 'simulated_n120.csv')!r},\n"
            "             '--z-col', 'z', '--y-col', 'y', '--w-cols', 'w1',\n"
            "             '--estimator', 'all', '--link', 'probit',\n"
            f"             '--output', {str(tmp_path / 'report.json')!r}])\n"
            "print(code, sorted(m for m in sys.modules\n"
            "                   if m.partition('.')[0] == 'scipy'))\n")
        src = str(Path(mwwdr.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split("\n")[-2] == "0 []"
        assert set(json.loads((tmp_path / "report.json").read_text())
                   ["estimates"]) == {"mww", "ipw", "msi", "dr"}

    def test_mww_p_value_not_floored(self, tmp_path, capsys):
        # treated outcomes sit far below control outcomes (z about 13): the
        # report's p is 2 Phi(-|z|), not a floor at 2e-12
        rng = np.random.default_rng(5)
        y = np.r_[rng.normal(0, 1, 60), rng.normal(1.5, 1, 60)]
        path = tmp_path / "separated.csv"
        path.write_text("z,y\n" + "".join(f"{int(k < 60)},{v!r}\n"
                                          for k, v in enumerate(y.tolist())))
        code = run(["estimate", "--input", path, "--z-col", "z",
                    "--y-col", "y", "--estimator", "mww"])
        assert code == 0
        mww = json.loads(capsys.readouterr().out)["estimates"]["mww"]
        z = (mww["delta"] - 0.5) / mww["se"]
        assert z > 10
        expected = math.erfc(z / math.sqrt(2.0))
        assert abs(mww["p_value"] - expected) <= 1e-12 * expected

    def test_input_never_mutated(self, capsys):
        before = digest(FIXTURES / "simulated_n120.csv")
        run(["estimate", "--input", FIXTURES / "simulated_n120.csv",
             "--z-col", "z", "--y-col", "y", "--w-cols", "w1"])
        capsys.readouterr()
        assert digest(FIXTURES / "simulated_n120.csv") == before

    def test_table_format(self, capsys):
        code = run(["estimate", "--input", FIXTURES / "four_row.csv",
                    "--z-col", "z", "--y-col", "y", "--estimator", "mww",
                    "--format", "table"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MWW" in out and "0.75" in out

    def test_ties_flag(self, capsys):
        code = run(["estimate", "--input", FIXTURES / "four_row.csv",
                    "--z-col", "z", "--y-col", "y", "--estimator", "mww",
                    "--ties", "on"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["estimates"]["mww"]["notes"]["ties"] is True


    def test_hajek_uses_the_propensity_mle(self, tmp_path):
        from mwwdr.data import CsvSchema, load_csv
        from mwwdr.estimators import ipw_estimate
        from mwwdr.propensity import fit_propensity

        out = tmp_path / "report.json"
        code = run(["estimate", "--input", FIXTURES / "simulated_n120.csv",
                    "--z-col", "z", "--y-col", "y", "--w-cols", "w1",
                    "--estimator", "ipw", "--hajek", "--output", out])
        assert code == 0
        ds = load_csv(FIXTURES / "simulated_n120.csv", CsvSchema("z", "y", ("w1",)))
        expected = ipw_estimate(ds, fit_propensity(ds), hajek=True).delta_hat
        assert json.loads(out.read_text())["estimates"]["ipw"]["delta_hajek"] \
            == expected

    def test_all_reports_the_first_failing_block(self, tmp_path, capsys):
        # every treated outcome lies below every control outcome: the ipw fit
        # succeeds, and the outcome model that msi fits next must fail with
        # its separation message
        rng = np.random.default_rng(8)
        w = rng.normal(0, 1, 40)
        z = (rng.random(40) < 1 / (1 + np.exp(-w))).astype(int)
        y = np.where(z == 1, rng.uniform(0, 1, 40), rng.uniform(2, 3, 40))
        path = tmp_path / "separated.csv"
        path.write_text("z,y,w1\n" + "".join(
            f"{a},{b!r},{c!r}\n" for a, b, c in zip(z, y.tolist(), w.tolist())))
        code = run(["estimate", "--input", path, "--z-col", "z",
                    "--y-col", "y", "--w-cols", "w1", "--estimator", "all"])
        assert code == 4
        err = capsys.readouterr().err
        assert "all observed pair indicators equal 1" in err

    def test_out_of_memory_is_an_estimability_error(self, monkeypatch, capsys):
        # stubbed: a fit too large for memory is never really attempted
        import mwwdr.cli as cli

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "solve_families", exhausted)
        code = run(["estimate", "--input", FIXTURES / "simulated_n120.csv",
                    "--z-col", "z", "--y-col", "y", "--w-cols", "w1"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error (estimability):") and "n = 120" in err

    def test_out_of_memory_on_a_tile_thread(self, monkeypatch, capsys, tmp_path):
        # n = 600 has six pair tiles; in the first map that runs on
        # threads, the third item raises MemoryError on a tile thread, while
        # the caller waits for the first results
        path = tmp_path / "trial.csv"
        write_dataset_csv(synthetic_confounded_trial(n=600, seed=7), path,
                          ("age", "bmi", "chol", "health"))
        monkeypatch.setattr(parallel, "_tile_workers", lambda: 2)
        real_map = ugee.tile_map
        where = []

        def third_tile_exhausted(fn, items):
            if len(items) < 2:  # a map on the caller's thread alone
                return real_map(fn, items)
            items = list(items)

            def tile(item):
                if item is items[2]:
                    where.append(threading.current_thread() is threading.main_thread())
                    raise MemoryError
                return fn(item)

            return real_map(tile, items)

        monkeypatch.setattr(ugee, "tile_map", third_tile_exhausted)
        before = threading.active_count()
        code = run(["estimate", "--input", path, "--z-col", "z", "--y-col", "y",
                    "--w-cols", "age,bmi,chol,health"])
        assert code == 3 and where == [False]
        assert threading.active_count() == before
        err = capsys.readouterr().err
        assert err.startswith("error (estimability):") and "n = 600" in err


class TestSimulate:
    def test_seed_required(self, capsys):
        code = run(["simulate", "--preset", "table2", "--n", "40", "--reps", "2"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_zero_reps_rejected(self, capsys):
        code = run(["simulate", "--preset", "table2", "--n", "40",
                    "--reps", "0", "--seed", "1"])
        assert code == 2

    def test_zero_threads_rejected(self, capsys):
        code = run(["simulate", "--preset", "table2", "--n", "40",
                    "--reps", "2", "--seed", "1", "--threads", "0"])
        assert code == 2
        assert "--threads" in capsys.readouterr().err

    def test_preset_runs_and_repeats_identically(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", "--preset", "table2", "--n", "40", "--reps", "4",
                "--seed", "7", "--threads", "1", "--output"]
        assert run(args + [a]) == 0
        assert run(args + [b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_thread_invariance_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["simulate", "--preset", "table2", "--n", "40", "--reps", "4",
                "--seed", "7"]
        assert run(base + ["--threads", "1", "--output", a]) == 0
        assert run(base + ["--threads", "2", "--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scenario_file(self, capsys, tmp_path):
        code = run(["simulate", "--scenario", FIXTURES / "scenario_small.json",
                    "--seed", "3", "--threads", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["config"]["seed"] == 3
        assert payload["scenario"]["n_reps_used"] == 6
        # the same file saved with a byte-order mark
        marked = tmp_path / "scenario.json"
        marked.write_bytes(b"\xef\xbb\xbf"
                           + (FIXTURES / "scenario_small.json").read_bytes())
        assert run(["simulate", "--scenario", marked, "--seed", "3",
                    "--threads", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == payload

    def test_invalid_scenario_field_named(self, tmp_path, capsys):
        # each malformed file exits 2 with a message naming what is wrong
        cases = [({"n": 40, "reps": 2, "bogus_field": 1}, "bogus_field"),
                 ([{"n": 40, "reps": 2}], "JSON object"),
                 ({"n": 40, "reps": 2, "beta": 5}, "beta must be a list"),
                 ({"n": 40, "reps": 2, "eta_true": 1.0}, "eta_true must be a list"),
                 ({"n": 40, "reps": 2, "estimators": "dr"},
                  "estimators must be a list"),
                 ({"n": 20.5, "reps": 2}, "n must be an integer"),
                 ({"n": True, "reps": 2}, "n must be an integer"),
                 ({"n": 40, "reps": 2.0}, "reps must be an integer"),
                 ({"n": 40, "reps": False}, "reps must be an integer"),
                 ({"n": 40, "reps": 2, "link": "Probit"}, "link must be one of"),
                 ({"n": 30, "reps": 3, "fd_check_pairs": 2.5},
                  "fd_check_pairs must be an integer"),
                 ({"n": 30, "reps": 3, "fd_check_pairs": -2},
                  "fd_check_pairs must not be negative"),
                 # each of these used to run every replication: a string
                 # switch ran the misspecified study, and a bad number
                 # failed every replication (exit 4 after all of them)
                 ({"n": 20, "reps": 3, "misspecify_outcome": "no"},
                  "misspecify_outcome must be true or false"),
                 ({"n": 20, "reps": 3, "misspecify_propensity": 1},
                  "misspecify_propensity must be true or false"),
                 ({"n": 20, "reps": 3, "beta": ["a", 1, 1]},
                  "every entry of beta must be a finite number"),
                 ({"n": 20, "reps": 3, "beta": [0, True, 1]},
                  "every entry of beta must be a finite number"),
                 ({"n": 20, "reps": 3, "eta_true": [1, None]},
                  "every entry of eta_true must be a finite number"),
                 ({"n": 20, "reps": 3, "mu_w": "x"}, "mu_w must be a finite number"),
                 ({"n": 20, "reps": 3, "sigma2": float("nan")},
                  "sigma2 must be a finite number"),
                 ({"n": 20, "reps": 3, "sigma2_w": float("inf")},
                  "sigma2_w must be a finite number"),
                 ({"n": 20, "reps": 3, "alpha": "0.05"},
                  "alpha must be a finite number")]
        bad = tmp_path / "bad.json"
        for content, named in cases:
            bad.write_text(json.dumps(content))
            code = run(["simulate", "--scenario", bad, "--seed", "1"])
            assert code == 2, content
            assert named in capsys.readouterr().err, content

    @pytest.mark.parametrize("flag", [["--n", "40"], ["--reps", "2"]])
    def test_scenario_rejects_preset_sizes(self, flag, capsys):
        # a scenario file sets its own n and reps; --n or --reps beside it
        # would otherwise be ignored without a word
        code = run(["simulate", "--scenario", FIXTURES / "scenario_small.json",
                    "--seed", "3", "--threads", "1"] + flag)
        assert code == 2
        assert "--n and --reps apply to presets" in capsys.readouterr().err

    def test_missing_scenario_file(self, capsys):
        code = run(["simulate", "--scenario", "missing.json", "--seed", "1"])
        assert code == 5

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("preset", ["table2", "table5"])
    def test_bad_seed_refused_before_any_replication(self, preset, threads,
                                                      monkeypatch, capsys):
        import mwwdr.cli as cli

        def no_study(*args, **kwargs):
            raise AssertionError("a study ran")

        monkeypatch.setattr(cli, "run_studies", no_study)
        code = run(["simulate", "--preset", preset, "--n", "50", "--reps", "5",
                    "--seed", "-1", "--threads", threads])
        assert code == 2
        assert "seed must be an unsigned 64-bit integer" in capsys.readouterr().err

    def test_default_threads_are_the_usable_cpus(self, monkeypatch, capsys):
        # one CPU allowed on a machine with more: one worker, not one per CPU
        import mwwdr.cli as cli

        seen, real_studies = [], cli.run_studies

        def spy(configs, threads):
            seen.append(threads)
            return real_studies(configs, threads=threads)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(cli, "run_studies", spy)
        assert run(["simulate", "--preset", "table2", "--n", "20", "--reps", "2",
                    "--seed", "1"]) == 0
        assert seen == [1]

    def test_table_output(self, capsys):
        code = run(["simulate", "--preset", "table5", "--n", "40", "--reps", "3",
                    "--seed", "5", "--threads", "1", "--format", "table"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[power]" in out and "DR" in out

    def test_preset_table3_bundle(self, capsys):
        code = run(["simulate", "--preset", "table3", "--n", "40", "--reps", "3",
                    "--seed", "5", "--threads", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"misspecified_propensity", "misspecified_outcome"}


def test_fixture_csv_matches_generator(tmp_path):
    from mwwdr.data import CsvSchema, load_csv
    from mwwdr.simstudy import synthetic_confounded_trial, write_dataset_csv

    import numpy as np

    regen = tmp_path / "regen.csv"
    write_dataset_csv(synthetic_confounded_trial(), regen,
                      ["age", "bmi", "chol", "health"])
    assert regen.read_bytes() == (FIXTURES / "confounded_rct.csv").read_bytes()
    ds = load_csv(str(FIXTURES / "confounded_rct.csv"),
                  CsvSchema("z", "y", ("age", "bmi", "chol", "health")))
    assert ds.n == 333
