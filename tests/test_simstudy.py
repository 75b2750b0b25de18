import json
import multiprocessing
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mwwdr.simstudy as sim
from mwwdr import cli, ugee
from mwwdr.data import CsvSchema, Dataset, load_csv
from mwwdr.errors import (ConvergenceError, DerivativeCheckError, MwwdrError,
                          ValidationError)
from mwwdr.simstudy import (ScenarioConfig, StudySummary, generate_dataset,
                            render_table, run_studies, run_study, true_delta,
                            true_gamma)

FIXTURES = Path(__file__).parent / "fixtures"
# a test that patches the library reaches the workers only if they are forked
forked = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                            reason="worker processes are not forked")


class TestScenarioConfig:
    def test_validation_messages(self):
        with pytest.raises(ValidationError, match="sigma2"):
            ScenarioConfig(sigma2=0.0)
        with pytest.raises(ValidationError, match="reps"):
            ScenarioConfig(reps=0)
        with pytest.raises(ValidationError, match="alpha"):
            ScenarioConfig(alpha=1.5)
        with pytest.raises(ValidationError, match="estimator"):
            ScenarioConfig(estimators=("bogus",))

    def test_json_roundtrip(self):
        cfg = ScenarioConfig(n=77, reps=3, seed=5, beta=(0.0, 1.0, 1.0))
        back = ScenarioConfig.from_json_dict(cfg.to_json_dict())
        assert back == cfg

    def test_unknown_field_named(self):
        with pytest.raises(ValidationError, match="wrong_name"):
            ScenarioConfig.from_json_dict({"wrong_name": 1})


class TestGenerate:
    def test_observed_consistency(self):
        cfg = ScenarioConfig(n=200, reps=1, seed=1)
        pot, ds = generate_dataset(cfg, 0)
        assert np.array_equal(ds.y, np.where(pot.z == 1, pot.y1, pot.y0))
        assert ds.n1 + ds.n0 == 200

    def test_deterministic_per_rep(self):
        cfg = ScenarioConfig(n=50, reps=1, seed=2)
        _, a = generate_dataset(cfg, 3)
        _, b = generate_dataset(cfg, 3)
        _, c = generate_dataset(cfg, 4)
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)

    def test_attempt_moves_stream(self):
        cfg = ScenarioConfig(n=50, reps=1, seed=2)
        _, a = generate_dataset(cfg, 3)
        _, b = generate_dataset(cfg, 3, attempt=1)
        assert not np.array_equal(a.y, b.y)

    def test_marginal_treated_fraction(self):
        # integral of expit(1 - w) against N(1, 0.25) is 1/2 by symmetry
        cfg = ScenarioConfig(n=1_000_000, reps=1, seed=3)
        _, ds = generate_dataset(cfg, 0)
        assert abs(ds.z.mean() - 0.5) < 0.01

    def test_moments_of_pieces(self):
        cfg = ScenarioConfig(n=400_000, reps=1, seed=4)
        pot, _ = generate_dataset(cfg, 0)
        w = pot.w[:, 0]
        assert abs(w.mean() - 1.0) < 0.01
        assert abs(w.var() - 0.25) < 0.01
        assert abs(pot.b.mean()) < 0.01
        assert abs(pot.b.var() - 1.0) < 0.02
        # y1 - y0 = beta1 + eps1 - eps0 has mean beta1
        assert abs((pot.y1 - pot.y0).mean() - cfg.beta[1]) < 0.01


class TestTrueValues:
    def test_true_gamma_null(self):
        assert np.allclose(true_gamma(ScenarioConfig()), (0.0, -0.5, 0.5))

    def test_true_gamma_effect(self):
        cfg = ScenarioConfig(beta=(0.0, 1.0, 1.0))
        assert abs(true_gamma(cfg)[0] + 0.5) < 1e-12

    def test_true_gamma_no_covariate_effect(self):
        cfg = ScenarioConfig(beta=(0.3, 2.0, 0.0))
        g0, g11, g10 = true_gamma(cfg)
        assert g11 == 0.0 and g10 == 0.0
        assert abs(g0 + 1.0) < 1e-12

    def test_true_delta_null_exact(self):
        assert true_delta(ScenarioConfig()) == 0.5

    def test_true_delta_oracle_reproducible(self):
        cfg = ScenarioConfig(beta=(0.0, 1.0, 1.0), seed=9)
        a = true_delta(cfg, n_pairs=200_000)
        b = true_delta(cfg, n_pairs=200_000)
        assert a == b

    def test_true_delta_oracle_pinned(self):
        # the oracle's draws, their order and its sums are fixed: hits over
        # the default 10^7 pairs at two seeds
        assert true_delta(sim.preset_power(50, 200, 7)) == 0.2758941
        assert true_delta(sim.preset_power(50, 200, 11)) == 0.2758956

    @pytest.mark.parametrize("config, n_pairs, pinned", [
        # less than one block
        (sim.preset_power(50, 200, 7), 40_000, "0x1.1a8c154c985f0p-2"),
        # three whole chunks
        (sim.preset_power(50, 200, 7), 3_000_000, "0x1.1aa8eb463497bp-2"),
        # a ragged last chunk and a ragged last block
        (ScenarioConfig(beta=(0.3, -0.7, 2.0), sigma2=2.0, seed=3, n=50, reps=2),
         2_345_678, "0x1.3b228c1ab0ff0p-1"),
    ])
    def test_true_delta_bits_pinned(self, config, n_pairs, pinned):
        assert true_delta(config, n_pairs=n_pairs).hex() == pinned

    @pytest.mark.parametrize("block", [1000, 1 << 14, 1 << 20])
    def test_true_delta_does_not_depend_on_the_block(self, monkeypatch, block):
        cfg = ScenarioConfig(beta=(0.3, -0.7, 2.0), sigma2=2.0, seed=3)
        monkeypatch.setattr(sim, "_ORACLE_CHUNK", 50_000)
        expected = true_delta(cfg, n_pairs=123_457)
        monkeypatch.setattr(sim, "_ORACLE_BLOCK", block)
        assert true_delta(cfg, n_pairs=123_457) == expected

    def test_true_delta_holds_two_chunk_rows_and_one_block(self):
        # two rows of _ORACLE_CHUNK doubles (16 MB) and a block of normals
        # (0.5 MB); three rows and a boolean row traced 25.0 MB
        tracemalloc.start()
        try:
            true_delta(sim.preset_power(50, 200, 7), n_pairs=3_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17e6

    def test_true_delta_against_independent_mc(self):
        # fresh numpy-based pair simulation, different generator family
        cfg = ScenarioConfig(beta=(0.0, 1.0, 1.0), seed=9)
        ours = true_delta(cfg, n_pairs=2_000_000)
        rng = np.random.default_rng(123456)
        m = 2_000_000
        wi = rng.normal(1, 0.5, m)
        wj = rng.normal(1, 0.5, m)
        noise = lambda: (rng.standard_normal(m) ** 2 - 1.0) / np.sqrt(2.0)
        y1 = 1.0 + wi + noise() + noise()
        y0 = wj + noise() + noise()
        ref = (y1 <= y0).mean()
        assert abs(ours - ref) < 0.002


class TestRunStudy:
    def test_small_study_fields(self):
        cfg = ScenarioConfig(n=40, reps=6, seed=17)
        s = run_study(cfg, threads=1)
        assert s.n_reps_used == 6 and s.n_failed == 0
        for name in ("mww", "ipw", "msi", "dr"):
            blk = s.estimators[name]
            assert 0.0 <= blk["rejection_rate"] <= 1.0
            assert blk["ese"] >= 0.0
        assert "plain_mean" in s.estimators["dr"]
        assert s.true_delta == 0.5

    def test_thread_count_invariance(self):
        # the power config's oracle runs in the pool beside the
        # replications when there are workers, and after them when not; at
        # n = 520 a fit has six pair tiles, on two threads in-process and
        # on one in a worker
        for cfg in (ScenarioConfig(n=40, reps=8, seed=18),
                    ScenarioConfig(n=520, reps=2, seed=18),
                    sim.preset_power(40, 8, 18)):
            a = run_study(cfg, threads=1).to_json()
            b = run_study(cfg, threads=2).to_json()
            assert a == b
        assert json.loads(b)["true_delta"] != 0.5

    def test_regeneration_counted_and_deterministic(self):
        cfg = ScenarioConfig(n=8, reps=30, seed=19, eta_true=(4.0, 0.0),
                             estimators=("mww",))
        s1 = run_study(cfg, threads=1)
        s2 = run_study(cfg, threads=2)
        assert s1.n_regenerated > 0
        assert s1.to_json() == s2.to_json()

    def test_degenerate_error_policy(self):
        cfg = ScenarioConfig(n=8, reps=40, seed=19, eta_true=(4.0, 0.0),
                             estimators=("mww",), on_degenerate="error")
        with pytest.raises(MwwdrError):
            run_study(cfg, threads=1)

    def test_failure_budget(self, monkeypatch):
        calls = {"k": 0}
        real = sim._run_replication

        def flaky(config, rep):
            if rep % 3 == 0:
                raise RuntimeError("boom")
            return real(config, rep)

        monkeypatch.setattr(sim, "_run_replication", flaky)
        cfg = ScenarioConfig(n=40, reps=9, seed=20, estimators=("mww",))
        with pytest.raises(MwwdrError, match="replications failed"):
            run_study(cfg, threads=1)

    def test_one_derivative_check_per_study(self, monkeypatch):
        # replication 0 alone is checked, once per fitted family, on the
        # dataset it fitted
        checked = []
        real = ugee.check_residual_derivatives

        def counting(dataset, theta, spec, n_pairs=100, seed=0):
            checked.append((dataset.y.copy(), spec.family, n_pairs))
            return real(dataset, theta, spec, n_pairs, seed)

        monkeypatch.setattr(ugee, "check_residual_derivatives", counting)
        cfg = ScenarioConfig(n=40, reps=5, seed=23, fd_check_pairs=3)
        assert run_study(cfg, threads=1).n_failed == 0
        assert [(family, pairs) for _, family, pairs in checked] == \
            [("ipw", 3), ("msi", 3), ("dr", 3)]
        _, rep0 = generate_dataset(cfg, 0)
        assert all(np.array_equal(y, rep0.y) for y, _, _ in checked)

    def test_failed_derivative_check_fails_the_study(self, monkeypatch, capsys):
        monkeypatch.setattr(ugee, "check_residual_derivatives",
                            lambda *args, **kwargs: 1.0)
        with pytest.raises(DerivativeCheckError, match="finite-difference"):
            run_study(ScenarioConfig(n=40, reps=5, seed=23), threads=1)
        code = cli.main(["simulate", "--preset", "table5", "--n", "40",
                         "--reps", "5", "--seed", "23", "--threads", "1"])
        assert code == 4
        assert "finite-difference check" in capsys.readouterr().err

    def test_misspecification_switches_apply(self):
        cfg = ScenarioConfig(n=60, reps=2, seed=21, misspecify_propensity=True,
                             estimators=("ipw", "dr"))
        s = run_study(cfg, threads=1)
        comps = s.estimators["dr"]["components"]
        assert "eta0" in comps and "eta1" not in comps

    def test_render_table_layout(self):
        cfg = ScenarioConfig(n=40, reps=4, seed=22)
        s = run_study(cfg, threads=1)
        text = render_table(s)
        assert "MWW" in text and "DR" in text and "delta" in text
        assert "(" in text  # the mean (ASE/ESE) cells


class TestRunStudies:
    """One pool of worker processes runs every scenario of a command."""

    BUNDLES = {
        "table3": [cfg for _, cfg in sim.PRESETS["table3"](40, 4, 31)],
        "table4": [cfg for _, cfg in sim.PRESETS["table4"](60, 3, 31)],
        # two true deltas (about 0.276, and 1/2), each of which must reach its
        # own scenario
        "power_and_null": [sim.preset_power(40, 3, 31), sim.preset_null(40, 2, 32)],
    }

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", BUNDLES)
    def test_bundle_equals_single_studies(self, name, threads):
        bundle = self.BUNDLES[name]
        together = run_studies(bundle, threads=threads)
        assert len(together) == len(bundle)
        for cfg, summary in zip(bundle, together):
            assert summary.config == cfg
            assert summary.to_json() == run_study(cfg, threads=1).to_json()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_scenario_file_equals_single_study(self, threads, capsys):
        code = cli.main(["simulate", "--scenario",
                         str(FIXTURES / "scenario_small.json"), "--seed", "8",
                         "--threads", threads])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        raw = json.loads((FIXTURES / "scenario_small.json").read_text())
        cfg = replace(ScenarioConfig.from_json_dict(raw), seed=8)
        assert payload == {"scenario": run_study(cfg, threads=1).to_json_dict()}

    @forked
    def test_failed_check_in_the_second_scenario(self, monkeypatch, capsys):
        # the check fails in misspecified_outcome, the second scenario of
        # table3, after the pool has run the first one's replications
        real = ugee.check_residual_derivatives

        def fails_constant_model(dataset, theta, spec, **kwargs):
            if spec.constant_only_gpi:
                return 1.0
            return real(dataset, theta, spec, **kwargs)

        monkeypatch.setattr(ugee, "check_residual_derivatives",
                            fails_constant_model)
        errors = []
        for threads in ("1", "2"):
            code = cli.main(["simulate", "--preset", "table3", "--n", "40",
                             "--reps", "6", "--seed", "23", "--threads", threads])
            assert code == 4
            errors.append(capsys.readouterr().err)
            assert multiprocessing.active_children() == []
        assert "finite-difference check" in errors[0]
        assert errors[0] == errors[1]

    def test_no_worker_left_after_success(self, capsys):
        code = cli.main(["simulate", "--preset", "table3", "--n", "40",
                         "--reps", "3", "--seed", "23", "--threads", "2"])
        assert code == 0
        assert multiprocessing.active_children() == []

    @forked
    def test_failure_budget_of_a_pooled_scenario(self, monkeypatch):
        # every replication of the first scenario fails: the study stops
        # there, with the message run_study gives, and leaves no worker
        real = sim.solve_families

        def fails_intercept_only(dataset, spec, families):
            if spec.intercept_only_propensity:
                raise ConvergenceError("no root")
            return real(dataset, spec, families)

        monkeypatch.setattr(sim, "solve_families", fails_intercept_only)
        bundle = [cfg for _, cfg in sim.PRESETS["table3"](40, 4, 5)]
        messages = []
        for threads in (1, 2):
            with pytest.raises(MwwdrError) as info:
                run_studies(bundle, threads=threads)
            messages.append(str(info.value))
            assert multiprocessing.active_children() == []
        assert messages[0] == messages[1] == \
            "4 of 4 replications failed; first: rep 0: ConvergenceError: no root"


class TestConfoundedFixture:
    def test_deterministic(self):
        a = sim.synthetic_confounded_trial()
        b = sim.synthetic_confounded_trial()
        assert np.array_equal(a.y, b.y) and np.array_equal(a.z, b.z)
        assert a.n == 333 and a.p == 4

    def test_has_outliers(self):
        ds = sim.synthetic_confounded_trial()
        y = np.sort(ds.y)
        iqr = np.quantile(y, 0.75) - np.quantile(y, 0.25)
        assert y[-1] > np.quantile(y, 0.75) + 3 * iqr

    def test_csv_round_trip_quotes_ids(self, tmp_path):
        # a comma, a double quote and a newline in an id stay in their own
        # field, and shift no value of their row
        ds = Dataset([1, 0, 1, 0], [0.5, -1.25, 2.0, 3.0], [[0.1], [0.2], [0.3], [0.4]],
                     ids=["a,1", "b", 'c"q', "d\ne"])
        path = tmp_path / "d.csv"
        sim.write_dataset_csv(ds, path)
        back = load_csv(path, CsvSchema("z", "y", ("w1",)))
        assert back.ids == ds.ids
        assert np.array_equal(back.z, ds.z) and np.array_equal(back.y, ds.y)
        assert np.array_equal(back.w, ds.w)

    def test_plain_csv_rows_are_unquoted(self, tmp_path):
        ds = sim.synthetic_confounded_trial(n=3, seed=1)
        path = tmp_path / "d.csv"
        sim.write_dataset_csv(ds, path)
        rows = [",".join([ds.ids[k], str(int(ds.z[k])), repr(float(ds.y[k])),
                          *(repr(float(v)) for v in ds.w[k])]) for k in range(3)]
        assert path.read_bytes().decode() == "\n".join(
            ["id,z,y,w1,w2,w3,w4", *rows, ""])
