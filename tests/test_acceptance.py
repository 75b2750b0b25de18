"""Acceptance criteria, run at full scale (1000 replications per study).

Each criterion prints one `ACCEPTANCE <id>: ok|FAIL - detail` line (visible
with `pytest -s`) and asserts its pinned tolerance. Reference values come
from an external benchmark table this build is checked against; the handful
of benchmark cells that are unattainable under the stated data-generating
process (see the xfail reasons, which carry the measured values) are
asserted verbatim and marked xfail(strict=True) so a change in behavior
cannot pass silently.

Studies are cached per module; the whole file took 59 s on a 2 vCPU VM
(Python 3.11, numpy 2.4 with OpenBLAS), nearly all of it in the
1000-replication studies.
"""

import json
import os

import numpy as np
import pytest

from mwwdr.cli import main
from mwwdr.data import Dataset
from mwwdr.estimators import ipw_estimate, mww_estimate
from mwwdr.simstudy import (preset_misspecified_outcome,
                            preset_misspecified_propensity, preset_null,
                            preset_power, run_study, synthetic_confounded_trial,
                            true_delta)
from mwwdr.special import std_normal_cdf
from mwwdr import ugee
from mwwdr.ugee import (FrmSpec, ThetaLayout, check_residual_derivatives,
                        solve_ugee, stacked_residual, wald_test)

from conftest import plugin_delta, random_dataset
from oracles import (_g_of, _pi_of, brute_dr, brute_ipw, brute_msi, brute_mww,
                     brute_ugee_residual)

pytestmark = pytest.mark.acceptance

REPS = 1000
WORKERS = max(1, min(8, os.cpu_count() or 1))

_CACHE = {}


def study(key, config):
    if key not in _CACHE:
        _CACHE[key] = run_study(config, threads=WORKERS)
    return _CACHE[key]


def null_study(n):
    return study(f"null{n}", preset_null(n, REPS, {50: 101, 200: 102, 400: 103}[n]))


def miss_prop_study():
    return study("missprop", preset_misspecified_propensity(400, REPS, 104))


def miss_out_study():
    return study("missout", preset_misspecified_outcome(400, REPS, 105))


def power_study(n):
    return study(f"power{n}", preset_power(n, REPS, {50: 106, 200: 107, 400: 108}[n]))


def check(cid, cond, detail):
    print(f"ACCEPTANCE {cid}: {'ok' if cond else 'FAIL'} - {detail}")
    assert cond, f"{cid}: {detail}"


TOL_GUARD = 1e-9  # absorbs float noise exactly at a band edge


# ---------------------------------------------------------------------------
# criterion 1: null-scenario calibration at n in {50, 200, 400}


class TestCriterion1:
    DR_MEANS = {50: 0.493, 200: 0.497, 400: 0.499}
    MWW_MEANS = {50: 0.562, 200: 0.558, 400: 0.559}
    DR_TYPE1 = {50: 0.059, 200: 0.049, 400: 0.050}

    @pytest.mark.parametrize("n", [50, 200, 400])
    def test_dr_mean(self, n):
        mean = null_study(n).estimators["dr"]["mean"]
        check(f"1/dr-mean-n{n}", abs(mean - self.DR_MEANS[n]) <= 0.01 + TOL_GUARD,
              f"mean dr delta {mean:.4f} vs {self.DR_MEANS[n]} +-0.01")

    @pytest.mark.parametrize("n", [50, 200, 400])
    def test_mww_mean(self, n):
        mean = null_study(n).estimators["mww"]["mean"]
        check(f"1/mww-mean-n{n}", abs(mean - self.MWW_MEANS[n]) <= 0.012 + TOL_GUARD,
              f"mean mww delta {mean:.4f} vs {self.MWW_MEANS[n]} +-0.012")

    @pytest.mark.parametrize("n", [50, 200, 400])
    def test_dr_type1(self, n):
        rate = null_study(n).estimators["dr"]["rejection_rate"]
        check(f"1/dr-type1-n{n}", abs(rate - self.DR_TYPE1[n]) <= 0.016 + TOL_GUARD,
              f"type-I {rate:.3f} vs {self.DR_TYPE1[n]} +-0.016")

    def test_mww_rejection_floor_n400(self):
        rate = null_study(400).estimators["mww"]["rejection_rate"]
        check("1/mww-reject-n400", rate >= 0.12,
              f"mww rejection {rate:.3f} >= 0.12")

    @pytest.mark.parametrize("n", [200, 400])
    def test_dr_ase_ese_ratio(self, n):
        blk = null_study(n).estimators["dr"]
        ratio = blk["ase"] / blk["ese"]
        check(f"1/dr-ase-ese-n{n}", 0.85 <= ratio <= 1.15,
              f"ASE/ESE {ratio:.3f} in [0.85, 1.15]")

    def test_eta_means_n400(self):
        comps = null_study(400).estimators["dr"]["components"]
        e0, e1 = comps["eta0"]["mean"], comps["eta1"]["mean"]
        ok = abs(e0 - 1.004) <= 0.03 and abs(e1 - (-1.007)) <= 0.03
        check("1/eta-means-n400", ok,
              f"mean eta ({e0:.4f}, {e1:.4f}) vs (1.004, -1.007) +-0.03")

    @pytest.mark.parametrize("n", [50, 200, 400])
    def test_dr_null_mean_within_monte_carlo_bound(self, n):
        blk = null_study(n).estimators["dr"]
        bound = 3.0 * blk["ese"] / np.sqrt(REPS)
        check(f"1/dr-null-mc-bound-n{n}",
              abs(blk["mean"] - 0.5) <= bound,
              f"|mean - 1/2| = {abs(blk['mean'] - 0.5):.5f} <= 3*ESE/sqrt(reps) "
              f"= {bound:.5f}")

    @pytest.mark.xfail(
        strict=True,
        reason="Unattainable under the stated generator: with centered "
        "chi-square noise the pairwise probit model is misspecified and its "
        "pseudo-true slopes are about (-0.69, +0.69); measured means at "
        "n=400 over 1000 replications are (0.000, -0.691, +0.692) against "
        "the pinned (0.041, -0.496, 0.505). The pinned values match a "
        "normal-noise generator instead.")
    def test_gamma_means_n400(self):
        comps = null_study(400).estimators["dr"]["components"]
        got = np.array([comps["gamma0"]["mean"], comps["gamma11"]["mean"],
                        comps["gamma10"]["mean"]])
        want = np.array([0.041, -0.496, 0.505])
        check("1/gamma-means-n400", np.max(np.abs(got - want)) <= 0.03,
              f"mean gamma {np.round(got, 4)} vs {want} +-0.03")


# ---------------------------------------------------------------------------
# criterion 2: double robustness under single-model misspecification (n=400)


class TestCriterion2:
    def test_dr_with_only_propensity_correct(self):
        mean = miss_out_study().estimators["dr"]["mean"]
        check("2/dr-ipw-correct", abs(mean - 0.501) <= 0.01 + TOL_GUARD,
              f"mean dr delta {mean:.4f} vs 0.501 +-0.01 (outcome model constant)")

    def test_dr_with_only_outcome_correct(self):
        mean = miss_prop_study().estimators["dr"]["mean"]
        check("2/dr-msi-correct", abs(mean - 0.497) <= 0.01 + TOL_GUARD,
              f"mean dr delta {mean:.4f} vs 0.497 +-0.01 (propensity intercept-only)")

    def test_ipw_alone_biased_under_misspecification(self):
        mean = miss_prop_study().estimators["ipw"]["mean"]
        check("2/ipw-misspec-bias", mean >= 0.55,
              f"mean ipw delta {mean:.4f} >= 0.55")

    def test_msi_alone_biased_under_misspecification(self):
        mean = miss_out_study().estimators["msi"]["mean"]
        check("2/msi-misspec-bias", mean >= 0.55,
              f"mean msi delta {mean:.4f} >= 0.55")

    def test_percent_bias_table_n400(self):
        want = {"dr": -0.2, "ipw": 0.2, "msi": -0.6,
                "dr_ipw_correct": 0.2, "dr_msi_correct": -0.6, "mww": 11.8}
        got = {
            "dr": null_study(400).estimators["dr"]["pct_bias"],
            "ipw": null_study(400).estimators["ipw"]["pct_bias"],
            "msi": null_study(400).estimators["msi"]["pct_bias"],
            "dr_ipw_correct": miss_out_study().estimators["dr"]["pct_bias"],
            "dr_msi_correct": miss_prop_study().estimators["dr"]["pct_bias"],
            "mww": null_study(400).estimators["mww"]["pct_bias"],
        }
        worst = max(abs(got[k] - want[k]) for k in want)
        detail = ", ".join(f"{k}: {got[k]:.2f}% vs {want[k]}%" for k in want)
        check("2/pct-bias-n400", worst <= 1.2 + TOL_GUARD, detail)

    def test_bias_ordering_n400(self):
        # the naive rank comparison stays ~11-12% biased while every
        # adjusted estimator is within 1%
        mww = null_study(400).estimators["mww"]["pct_bias"]
        causal = [abs(null_study(400).estimators[k]["pct_bias"])
                  for k in ("ipw", "msi", "dr")]
        ok = 11.0 <= mww <= 12.0 and max(causal) <= 1.0
        check("2/bias-ordering", ok,
              f"mww {mww:.2f}% vs causal max {max(causal):.2f}%")


# ---------------------------------------------------------------------------
# criterion 3: power under a real treatment effect (beta1 = 1)


POWER_XFAIL_REASON = (
    "Unattainable: the pinned power values imply an effect-size/standard-"
    "error balance that the stated generator does not produce. With the "
    "true effect delta = 0.2756 (independent-pair oracle) and root-n "
    "standard errors (about 0.033 at n=200 and 0.024 at n=400), the Wald "
    "z-statistic is 6+ and measured power is 1.000 for every adjusted "
    "estimator at n in {200, 400} (and 0.998+ for the naive rank test); "
    "measured n=50 powers: dr 0.851, mww 0.621. The pinned values "
    "(0.94-ish at n=400, 0.618/0.725 at n=50) are also mutually "
    "inconsistent across n under root-n scaling.")


class TestCriterion3:
    @pytest.mark.xfail(strict=True, reason=POWER_XFAIL_REASON)
    def test_power_n200(self):
        got = power_study(200).estimators
        want = {"dr": 0.939, "msi": 0.936, "ipw": 0.937, "mww": 0.853}
        worst = max(abs(got[k]["rejection_rate"] - v) for k, v in want.items())
        detail = ", ".join(f"{k}: {got[k]['rejection_rate']:.3f} vs {v}"
                           for k, v in want.items())
        check("3/power-n200", worst <= 0.03 + TOL_GUARD, detail)

    @pytest.mark.xfail(strict=True, reason=POWER_XFAIL_REASON)
    def test_power_n400(self):
        got = power_study(400).estimators
        want = {"dr": 0.948, "msi": 0.943, "ipw": 0.945, "mww": 0.891}
        worst = max(abs(got[k]["rejection_rate"] - v) for k, v in want.items())
        detail = ", ".join(f"{k}: {got[k]['rejection_rate']:.3f} vs {v}"
                           for k, v in want.items())
        check("3/power-n400", worst <= 0.03 + TOL_GUARD, detail)

    @pytest.mark.xfail(strict=True, reason=POWER_XFAIL_REASON)
    def test_power_n50(self):
        got = power_study(50).estimators
        ok = (abs(got["dr"]["rejection_rate"] - 0.618) <= 0.04 + TOL_GUARD
              and abs(got["mww"]["rejection_rate"] - 0.725) <= 0.04 + TOL_GUARD)
        check("3/power-n50", ok,
              f"dr {got['dr']['rejection_rate']:.3f} vs 0.618 +-0.04, "
              f"mww {got['mww']['rejection_rate']:.3f} vs 0.725 +-0.04")

    @pytest.mark.xfail(
        strict=True,
        reason="Unattainable: the independent-pair Monte Carlo oracle for "
        "P(y_treated <= y_control) across distinct subjects gives 0.2756 "
        "(10^7 pairs; cross-checked by a semi-analytic Laplace identity "
        "giving 0.27572). The pinned 0.217 matches a within-subject "
        "quantity (shared covariate and random effect), which is a "
        "different estimand.")
    def test_true_delta_oracle(self):
        val = true_delta(preset_power(400, 1, 108), n_pairs=10_000_000)
        check("3/true-delta-oracle", abs(val - 0.217) <= 0.002,
              f"oracle {val:.4f} vs 0.217 +-0.002")

    def test_power_monotone_in_n(self):
        rates = {name: [power_study(n).estimators[name]["rejection_rate"]
                        for n in (50, 200, 400)]
                 for name in ("mww", "ipw", "msi", "dr")}
        ok = all(r[0] <= r[1] + TOL_GUARD and r[1] <= r[2] + TOL_GUARD
                 for r in rates.values())
        check("3/power-monotone", ok, f"power by n: {rates}")

    def test_estimators_track_oracle_under_alternative(self):
        oracle = true_delta(preset_power(400, 1, 108), n_pairs=10_000_000)
        got = power_study(400).estimators
        devs = {k: abs(got[k]["mean"] - oracle) for k in ("ipw", "msi", "dr")}
        check("3/oracle-consistency", max(devs.values()) <= 0.012,
              f"|mean - oracle {oracle:.4f}|: " +
              ", ".join(f"{k}: {v:.4f}" for k, v in devs.items()))


# ---------------------------------------------------------------------------
# criterion 4: exact identities (no Monte Carlo tolerance games)


class TestCriterion4:
    def test_ipw_hajek_collapses_to_mww(self):
        rng = np.random.default_rng(401)
        worst = 0.0
        for _ in range(200):
            ds = random_dataset(rng, n=int(rng.integers(4, 13)))
            p = float(rng.uniform(0.1, 0.9))
            diff = abs(ipw_estimate(ds, p, hajek=True).delta_hat
                       - mww_estimate(ds).delta_hat)
            worst = max(worst, diff)
        check("4/ipw-identity", worst <= 1e-12,
              f"max |ipw_hajek - mww| = {worst:.2e} over 200 datasets")

    def test_brute_force_estimator_equivalence(self):
        # msi and dr: the plug-in estimate at random (eta, gamma), read off
        # the stacked residual
        rng = np.random.default_rng(402)
        worst = 0.0
        for _ in range(40):
            ds = random_dataset(rng, p=1, count=bool(rng.integers(2)))
            eta = rng.normal(0, 0.5, 2)
            gamma = rng.normal(0, 0.7, 3)
            w = [list(r) for r in ds.w]
            pi = [_pi_of(eta, r, False) for r in w]
            gf = lambda i, j: _g_of(gamma, w[i], w[j], "probit", False)[0]
            z, y = list(ds.z), list(ds.y)
            worst = max(
                worst,
                abs(mww_estimate(ds).delta_hat - brute_mww(z, y, ds.ties)),
                abs(ipw_estimate(ds, np.array(pi)).delta_hat
                    - brute_ipw(z, y, pi, ds.ties)),
                abs(plugin_delta(ds, "msi", gamma=gamma)
                    - brute_msi(z, y, gf, ds.ties)),
                abs(plugin_delta(ds, "dr", eta, gamma)
                    - brute_dr(z, y, pi, gf, ds.ties)),
            )
        check("4/brute-estimators", worst <= 1e-12,
              f"max |vectorized - loop oracle| = {worst:.2e} (n <= 6)")

    def test_brute_force_ugee_residual_equivalence(self):
        rng = np.random.default_rng(403)
        worst = 0.0
        for _ in range(15):
            ds = random_dataset(rng, p=1)
            for fam in ("dr", "ipw", "msi"):
                spec = FrmSpec(family=fam, fd_check_pairs=0)
                layout = ThetaLayout(ds.p, spec)
                theta = rng.normal(0, 0.5, layout.q)
                theta[-1] = rng.uniform(0.2, 0.8)
                ours = stacked_residual(ds, theta, spec)
                brute = np.asarray(brute_ugee_residual(
                    list(ds.z), list(ds.y), [list(r) for r in ds.w],
                    list(theta), family=fam))
                worst = max(worst, float(np.max(np.abs(ours - brute))))
        check("4/brute-ugee", worst <= 1e-12,
              f"max residual-vector discrepancy = {worst:.2e}")

    def test_working_variance_spot_values(self):
        ds = Dataset([1, 0], [1.0, 2.0], [[0.0], [0.0]])
        theta = np.zeros(6)
        theta[-1] = 0.5
        ws, _, _, _ = ugee._at(ds, FrmSpec(), theta)
        # the treatment block's Jacobian of this one pair is -0.25^2 / V1,
        # and the dr delta row weighs it by 1 / V3, read off the tile kernel
        # over the whole dataset
        V1 = -0.25 ** 2 / ws.eta_jac[0, 0]
        V3 = 1.0 / ws.tile().weights()[0, 1]
        ok = abs(V1 - 0.125) < 1e-12 and abs(V3 - 0.5) < 1e-12
        check("4/variance-spot", ok, f"V1={V1}, V3={V3} vs (0.125, 0.5)")

    def test_analytic_gradients_vs_finite_differences(self):
        from mwwdr.simstudy import ScenarioConfig, generate_dataset

        worst = 0.0
        for seed in (41, 42):
            _, ds = generate_dataset(ScenarioConfig(n=70, reps=1, seed=seed), 0)
            for fam in ("dr", "ipw", "msi"):
                fit = solve_ugee(ds, FrmSpec(family=fam, fd_check_pairs=0))
                worst = max(worst, check_residual_derivatives(
                    ds, fit.theta, FrmSpec(family=fam), n_pairs=100, seed=seed))
        check("4/gradient-fd", worst <= 1e-5,
              f"max scaled analytic-vs-FD error = {worst:.2e} (100 pairs/fit)")

    def test_covariance_psd_every_fit(self):
        from mwwdr.simstudy import ScenarioConfig, generate_dataset

        ok, worst = True, 0.0
        for seed in range(6):
            _, ds = generate_dataset(ScenarioConfig(n=60, reps=1, seed=seed), 0)
            for fam in ("dr", "ipw", "msi"):
                fit = solve_ugee(ds, FrmSpec(family=fam))
                S = fit.Sigma_theta
                sym = float(np.max(np.abs(S - S.T)))
                lam = float(np.linalg.eigvalsh(S).min())
                worst = min(worst, lam)
                ok = ok and sym < 1e-10 and lam >= -1e-8 * max(1.0, S.max())
        check("4/psd", ok, f"min eigenvalue across fits = {worst:.2e}")

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(404)
        ok = True
        for _ in range(30):
            ds = random_dataset(rng, n=10)
            base = mww_estimate(ds).delta_hat
            for f in (np.exp, np.arctan, lambda v: v ** 3 + 2 * v):
                ok = ok and mww_estimate(Dataset(ds.z, f(ds.y), ds.w)).delta_hat == base
        check("4/monotone-invariance", ok, "mww invariant under monotone maps")

    def test_tie_kernel_half(self):
        from mwwdr.data import outcome_kernel

        half = outcome_kernel(np.array([3.0]), np.array([3.0]), True)[0, 0]
        check("4/tie-kernel", half == 0.5, "kernel(3, 3, ties) = 0.5")


# ---------------------------------------------------------------------------
# criterion 5: byte-identical reports across worker counts


class TestCriterion5:
    def test_simulate_bytes_across_thread_counts(self, tmp_path):
        outs = []
        for threads in (1, 4, 8):
            out = tmp_path / f"t{threads}.json"
            code = main(["simulate", "--preset", "table2", "--n", "60",
                         "--reps", "60", "--seed", "31",
                         "--threads", str(threads), "--output", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        ok = outs[0] == outs[1] == outs[2]
        # and a repeated identical invocation
        again = tmp_path / "again.json"
        main(["simulate", "--preset", "table2", "--n", "60", "--reps", "60",
              "--seed", "31", "--threads", "4", "--output", str(again)])
        ok = ok and again.read_bytes() == outs[0]
        check("5/determinism", ok,
              "identical bytes for threads in {1, 4, 8} and repeat run")


# ---------------------------------------------------------------------------
# confounded-trial fixture: naive test rejects, adjusted test does not


class TestConfoundedFixture:
    def test_naive_rejects_dr_retains(self):
        ds = synthetic_confounded_trial()
        est = mww_estimate(ds)
        z = (est.delta_hat - 0.5) / est.se
        p_naive = 2.0 * (1.0 - std_normal_cdf(abs(z)))
        fit = solve_ugee(ds, FrmSpec(family="dr", link="logit"))
        p_dr = wald_test(fit).p_value
        ok = p_naive < 0.05 and p_dr > 0.5
        check("6/confounded-fixture", ok,
              f"naive p = {p_naive:.2e} (< 0.05), adjusted delta = "
              f"{fit.delta:.3f}, p = {p_dr:.3f} (> 0.5)")
