"""Scenario generation, replicated studies, and summary tables.

The data-generating process: for subject i,
    w_i ~ N(mu_w, sigma2_w)
    z_i ~ Bernoulli(expit(eta0 + eta1 w_i))
    b_i, eps_i1, eps_i0 ~ centered scaled chi-square(1) with variances
        sigma2_b, sigma2, sigma2
    y_i1 = beta0 + beta1 + beta2 w_i + b_i + eps_i1
    y_i0 = beta0 +         beta2 w_i + b_i + eps_i0
and the observed outcome is the potential outcome selected by z_i.
"""

import csv
import itertools
import json
import math
import sys
from concurrent.futures import Future
from dataclasses import asdict, dataclass, field
from typing import Tuple

import numpy as np

from .data import Dataset, PotentialDataset
from .errors import DerivativeCheckError, MwwdrError, ValidationError
from .estimators import mww_estimate
from .gpi import LINKS
from .parallel import one_blas_thread, single_threaded
from .special import expit
from .streams import RngStream
from .ugee import FrmSpec, solve_families, wald, wald_test

ESTIMATOR_NAMES = ("mww", "ipw", "msi", "dr")
_ORACLE_STREAM = 1 << 48
_ORACLE_CHUNK = 1_000_000  # pairs per draw of the true-delta oracle
_ORACLE_BLOCK = 1 << 16  # normals per noise draw inside a chunk (0.5 MB)
_MAX_REGEN_ATTEMPTS = 1000


def _finite_real(value):
    """Whether value is an int or a float (numpy's too), not a bool, and
    finite as a float. abs(value) is compared with the largest float, since
    math.isfinite overflows on an int beyond it."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario."""

    beta: Tuple[float, float, float] = (0.0, 0.0, 1.0)
    eta_true: Tuple[float, float] = (1.0, -1.0)
    sigma2: float = 1.0
    sigma2_b: float = 1.0
    mu_w: float = 1.0
    sigma2_w: float = 0.25
    n: int = 200
    reps: int = 1000
    seed: int = 0
    alpha: float = 0.05
    misspecify_propensity: bool = False
    misspecify_outcome: bool = False
    estimators: Tuple[str, ...] = ESTIMATOR_NAMES
    link: str = "probit"
    on_degenerate: str = "regenerate"
    fd_check_pairs: int = 4

    def __post_init__(self):
        for name in ("misspecify_propensity", "misspecify_outcome"):
            if not isinstance(getattr(self, name), bool):
                raise ValidationError(f"{name} must be true or false")
        for name in ("sigma2", "sigma2_b", "sigma2_w", "mu_w", "alpha"):
            if not _finite_real(getattr(self, name)):
                raise ValidationError(f"{name} must be a finite number")
        for name in ("sigma2", "sigma2_b", "sigma2_w"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        for name in ("n", "reps", "fd_check_pairs"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer")
        if self.n < 4:
            raise ValidationError("n must be at least 4")
        if self.reps < 1:
            raise ValidationError("reps must be at least 1")
        if self.fd_check_pairs < 0:
            raise ValidationError("fd_check_pairs must not be negative")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must lie in (0, 1)")
        if len(self.beta) != 3 or len(self.eta_true) != 2:
            raise ValidationError("beta must have 3 entries and eta_true 2")
        for name in ("beta", "eta_true"):
            if not all(map(_finite_real, getattr(self, name))):
                raise ValidationError(f"every entry of {name} must be a finite number")
        bad = [e for e in self.estimators if e not in ESTIMATOR_NAMES]
        if bad:
            raise ValidationError(f"unknown estimator(s): {bad}")
        if self.link not in LINKS:
            raise ValidationError(f"link must be one of {LINKS}")
        if self.on_degenerate not in ("regenerate", "error"):
            raise ValidationError("on_degenerate must be 'regenerate' or 'error'")
        RngStream(self.seed)  # raises if the seed cannot key a stream

    def to_json_dict(self):
        d = asdict(self)
        d["beta"] = list(self.beta)
        d["eta_true"] = list(self.eta_true)
        d["estimators"] = list(self.estimators)
        return d

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict):
            raise ValidationError("a scenario must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValidationError(f"unknown scenario field(s): {sorted(unknown)}")
        d = dict(d)
        for key in ("beta", "eta_true", "estimators"):
            if key in d:
                if not isinstance(d[key], list):
                    raise ValidationError(f"{key} must be a list")
                d[key] = tuple(d[key])
        try:
            return cls(**d)
        except TypeError as exc:
            raise ValidationError(f"invalid scenario: {exc}") from None


def generate_dataset(config, rep_index, attempt=0):
    """One replication's potential and observed data.

    The random stream is keyed by (seed, rep_index); regeneration attempts
    move to a disjoint sub-stream of the same replication.
    """
    stream = RngStream(config.seed, rep_index)
    if attempt:
        stream = stream.child(attempt)
    gen = stream.generator()
    n = config.n
    b0, b1, b2 = config.beta
    w = gen.normal(config.mu_w, math.sqrt(config.sigma2_w), n)
    pi = expit(config.eta_true[0] + config.eta_true[1] * w)
    z = (gen.random(n) < pi).astype(np.int8)
    b = (gen.standard_normal(n) ** 2 - 1.0) * math.sqrt(config.sigma2_b / 2.0)
    e1 = (gen.standard_normal(n) ** 2 - 1.0) * math.sqrt(config.sigma2 / 2.0)
    e0 = (gen.standard_normal(n) ** 2 - 1.0) * math.sqrt(config.sigma2 / 2.0)
    y1 = b0 + b1 + b2 * w + b + e1
    y0 = b0 + b2 * w + b + e0
    pot = PotentialDataset(y1, y0, z, w[:, None], b)
    return pot, pot.observed()


def true_gamma(config):
    """Closed-form outcome-model coefficients implied by the generator's
    probit approximation."""
    scale = 1.0 / math.sqrt(2.0 * (config.sigma2 + config.sigma2_b))
    b1, b2 = config.beta[1], config.beta[2]
    return (-scale * b1, -scale * b2, scale * b2)


def true_delta(config, n_pairs=10_000_000):
    """Monte Carlo oracle for P(treated potential <= control potential)
    across independent subjects. Exact 1/2 when beta1 = 0 (the two potential
    outcomes are exchangeable across subjects).

    The draws are fixed: chunks of _ORACLE_CHUNK pairs (the last one
    ragged), and within a chunk of m pairs m normals for w_i, m for w_j,
    then m for each noise row u1, ..., u4 of
        y1 = b1 + b2 w_i + (u1^2 - 1) sb + (u2^2 - 1) se
        y0 =      b2 w_j + (u3^2 - 1) sb + (u4^2 - 1) se,
    summed left to right. It holds the chunk's two outcome rows and one
    block of _ORACLE_BLOCK normals: each noise row is drawn into the block
    one block at a time and added into its outcome row in place, and the
    hits are counted block by block. The block size changes no value."""
    if config.beta[1] == 0.0:
        return 0.5
    gen = RngStream(config.seed, _ORACLE_STREAM).generator()
    b0, b1, b2 = config.beta
    sw = math.sqrt(config.sigma2_w)
    sb = math.sqrt(config.sigma2_b / 2.0)
    se = math.sqrt(config.sigma2 / 2.0)
    rows = np.empty((2, min(_ORACLE_CHUNK, n_pairs)))
    block = np.empty(min(_ORACLE_BLOCK, n_pairs))
    hits, total = 0, 0
    while total < n_pairs:
        m = min(_ORACLE_CHUNK, n_pairs - total)
        starts = range(0, m, _ORACLE_BLOCK)
        y1, y0 = rows[:, :m]
        for w in (y1, y0):
            gen.standard_normal(out=w)
            w *= sw
            w += config.mu_w
        y1 *= b2
        y1 += b1
        y0 *= b2
        for y in (y1, y0):
            for scale in (sb, se):
                for start in starts:
                    part = y[start:start + _ORACLE_BLOCK]
                    u = block[:part.size]
                    gen.standard_normal(out=u)
                    np.square(u, out=u)
                    u -= 1.0
                    u *= scale
                    part += u
        for start in starts:
            stop = start + _ORACLE_BLOCK
            hits += int(np.count_nonzero(y1[start:stop] <= y0[start:stop]))
        total += m
    return hits / total


def _frm_spec(config, rep_index):
    # the study's one finite-difference check runs on replication 0, so it
    # is the same check for any worker count
    return FrmSpec(link=config.link,
                   intercept_only_propensity=config.misspecify_propensity,
                   constant_only_gpi=config.misspecify_outcome,
                   fd_check_pairs=config.fd_check_pairs if rep_index == 0 else 0)


def _run_replication(config, rep_index):
    attempt = 0
    while True:
        _, ds = generate_dataset(config, rep_index, attempt)
        if 0 < ds.n1 < ds.n:
            break
        if config.on_degenerate == "error":
            raise MwwdrError(f"replication {rep_index} drew a single-arm sample")
        attempt += 1
        if attempt > _MAX_REGEN_ATTEMPTS:
            raise MwwdrError(f"replication {rep_index} kept drawing single-arm samples")

    rec = {"regenerated": attempt}
    fits = solve_families(ds, _frm_spec(config, rep_index),
                          [name for name in config.estimators if name != "mww"])
    for name in config.estimators:
        if name == "mww":
            est = mww_estimate(ds)
            if est.se is None or est.se == 0.0:
                rec["mww"] = {"delta": est.delta_hat, "se": float("nan"),
                              "reject": False}
            else:
                rec["mww"] = {"delta": est.delta_hat, "se": est.se,
                              "reject": wald(est.delta_hat, est.se, 0.5,
                                             config.alpha).reject}
        else:
            fit = next(fits)
            wt = wald_test(fit, "delta", 0.5, config.alpha)
            entry = {"delta": fit.delta, "se": wt.se, "reject": wt.reject,
                     "components": {nm: (float(v), float(s))
                                    for nm, v, s in zip(fit.names, fit.theta, fit.se)}}
            if name == "dr":
                entry["delta_plain"] = fit.delta_plain
            rec[name] = entry
    return rec


def _worker(args):
    config, rep = args
    try:
        return rep, _run_replication(config, rep), None
    except DerivativeCheckError:
        raise  # a wrong derivative fails the study, not one replication
    except Exception as exc:  # surfaced and counted by run_studies
        return rep, None, f"{type(exc).__name__}: {exc}"


@dataclass
class StudySummary:
    """Monte Carlo aggregates across replications."""

    config: ScenarioConfig
    true_delta: float
    estimators: dict
    n_reps_used: int
    n_failed: int
    n_regenerated: int
    failures: list = field(default_factory=list)

    def to_json_dict(self):
        return {**asdict(self), "config": self.config.to_json_dict()}

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def _aggregate(config, records, true_d):
    out = {}
    for name in config.estimators:
        entries = [r[name] for r in records]
        deltas = np.array([e["delta"] for e in entries])
        ses = np.array([e["se"] for e in entries])
        rej = np.array([e["reject"] for e in entries])
        block = {
            "mean": float(deltas.mean()),
            "ase": float(np.nanmean(ses)) if np.any(np.isfinite(ses)) else float("nan"),
            "ese": float(deltas.std(ddof=1)) if len(deltas) > 1 else 0.0,
            "rejection_rate": float(rej.mean()),
            "pct_bias": float((deltas.mean() - true_d) / true_d * 100.0),
        }
        if name != "mww":
            comp_names = entries[0]["components"].keys()
            comps = {}
            for cn in comp_names:
                vals = np.array([e["components"][cn][0] for e in entries])
                cses = np.array([e["components"][cn][1] for e in entries])
                comps[cn] = {"mean": float(vals.mean()),
                             "ase": float(cses.mean()),
                             "ese": float(vals.std(ddof=1)) if len(vals) > 1 else 0.0}
            block["components"] = comps
        if name == "dr":
            plain = np.array([e["delta_plain"] for e in entries])
            block["plain_mean"] = float(plain.mean())
            block["plain_ese"] = float(plain.std(ddof=1)) if len(plain) > 1 else 0.0
        out[name] = block
    return out


def run_study(config, threads=1) -> StudySummary:
    """Run all replications and aggregate: run_studies of one scenario."""
    return run_studies([config], threads)[0]


def run_studies(configs, threads=1):
    """run_study of each scenario in the sequence configs, on one pool of
    threads worker processes: a list of StudySummary. The pool takes each
    scenario's oracle first, so that it runs beside the replications, then
    every replication, scenario by scenario. A summary is identical for any
    worker count: a replication's result depends only on (config,
    rep_index), and a scenario aggregates in replication order. Every fit
    runs OpenBLAS and its pair tiles on one thread, as in a worker.
    Replication 0 of a scenario alone runs the finite-difference check,
    with config.fd_check_pairs pairs; if it fails, DerivativeCheckError
    fails the study."""
    jobs = [(config, rep) for config in configs for rep in range(config.reps)]
    if not threads or threads < 2:
        with one_blas_thread():
            results, oracles = map(_worker, jobs), map(true_delta, configs)
            return [_summarize(config, results, oracles) for config in configs]
    # imported here, not with the module: it imports multiprocessing,
    # which a process that opens no pool should not pay for
    from concurrent.futures import ProcessPoolExecutor
    import numpy.random  # noqa: F401 -- once, before the fork, not in each worker
    pool = ProcessPoolExecutor(max_workers=threads, initializer=single_threaded)
    try:
        oracles = map(Future.result, [pool.submit(true_delta, c) for c in configs])
        results = pool.map(_worker, jobs, chunksize=max(1, len(jobs) // (8 * threads)))
        return [_summarize(config, results, oracles) for config in configs]
    finally:
        pool.shutdown(cancel_futures=True)  # a failed study drops unstarted jobs


def _summarize(config, results, oracles):
    """config's summary from its config.reps next results and next oracle."""
    results = list(itertools.islice(results, config.reps))
    records = [r for _, r, err in results if err is None]
    failures = [(rep, err) for rep, _, err in results if err is not None]
    if len(failures) > 0.01 * config.reps:
        raise MwwdrError(f"{len(failures)} of {config.reps} replications failed; "
                         f"first: rep {failures[0][0]}: {failures[0][1]}")
    true_d = next(oracles)
    return StudySummary(
        config=config,
        true_delta=float(true_d),
        estimators=_aggregate(config, records, true_d),
        n_reps_used=len(records),
        n_failed=len(failures),
        n_regenerated=int(sum(r["regenerated"] for r in records)),
        failures=[f"rep {rep}: {err}" for rep, err in failures[:20]],
    )


# ---------------------------------------------------------------------------
# preset scenarios mirroring the simulation-study parameter block


def preset_null(n, reps, seed, **overrides):
    """Both models correctly specified, no treatment effect."""
    return ScenarioConfig(n=n, reps=reps, seed=seed, **overrides)


def preset_misspecified_propensity(n, reps, seed):
    """Propensity forced intercept-only; outcome model correct."""
    return ScenarioConfig(n=n, reps=reps, seed=seed, misspecify_propensity=True,
                          estimators=("mww", "ipw", "dr"))


def preset_misspecified_outcome(n, reps, seed):
    """Outcome model forced constant; propensity correct."""
    return ScenarioConfig(n=n, reps=reps, seed=seed, misspecify_outcome=True,
                          estimators=("mww", "msi", "dr"))


def preset_power(n, reps, seed):
    """Treatment effect beta1 = 1; both models as specified."""
    return ScenarioConfig(beta=(0.0, 1.0, 1.0), n=n, reps=reps, seed=seed)


PRESETS = {
    "table2": lambda n, reps, seed: [("null", preset_null(n, reps, seed))],
    "table3": lambda n, reps, seed: [
        ("misspecified_propensity", preset_misspecified_propensity(n, reps, seed)),
        ("misspecified_outcome", preset_misspecified_outcome(n, reps, seed)),
    ],
    "table4": lambda n, reps, seed: [
        ("null", preset_null(n, reps, seed)),
        ("misspecified_propensity", preset_misspecified_propensity(n, reps, seed)),
        ("misspecified_outcome", preset_misspecified_outcome(n, reps, seed)),
    ],
    "table5": lambda n, reps, seed: [("power", preset_power(n, reps, seed))],
}


def render_table(summary: StudySummary) -> str:
    """Aligned-text summary: one row per estimator, coefficient blocks as
    'mean (ASE/ESE)' and delta with rejection rate."""
    cfg = summary.config
    lines = [f"n = {cfg.n}, reps = {summary.n_reps_used}, "
             f"true delta = {summary.true_delta:.3f}, alpha = {cfg.alpha}"]
    comp_order = []
    for name in cfg.estimators:
        blk = summary.estimators[name]
        for cn in blk.get("components", {}):
            if cn not in comp_order and cn != "delta":
                comp_order.append(cn)
    header = ["estimator"] + comp_order + ["delta", "reject"]
    rows = [header]
    for name in cfg.estimators:
        blk = summary.estimators[name]
        row = [name.upper()]
        comps = blk.get("components", {})
        for cn in comp_order:
            if cn in comps:
                c = comps[cn]
                row.append(f"{c['mean']:.3f} ({c['ase']:.3f}/{c['ese']:.3f})")
            else:
                row.append("-")
        row.append(f"{blk['mean']:.3f} ({blk['ase']:.3f}/{blk['ese']:.3f})")
        row.append(f"{blk['rejection_rate']:.3f}")
        rows.append(row)
    widths = [max(len(r[k]) for r in rows) for k in range(len(header))]
    out = []
    for r in rows:
        out.append("  ".join(s.ljust(w) for s, w in zip(r, widths)).rstrip())
    return "\n".join(lines + out)


# ---------------------------------------------------------------------------
# synthetic confounded trial fixture (negative-control workflow)


def synthetic_confounded_trial(n=333, seed=2024) -> Dataset:
    """Deterministic fixture: a null-effect two-arm study whose assignment is
    strongly driven by four health covariates, with heavy-tailed outcomes.

    A naive rank-sum comparison sees a large group difference; adjusting for
    the covariates removes it.
    """
    gen = RngStream(seed, 0).generator()
    age = gen.normal(60.0, 6.5, n)
    bmi = gen.normal(29.5, 4.5, n)
    health = np.clip(gen.normal(70.0, 17.0, n), 0.0, 100.0)
    chol = (gen.random(n) < expit(0.03 * (age - 60.0) + 0.15 * (bmi - 29.5))).astype(float)
    index = (-0.4 * (age - 60.0) / 6.5 - 0.5 * (bmi - 29.5) / 4.5
             + 0.9 * (health - 70.0) / 17.0 - 0.4 * (chol - 0.5))
    z = (gen.random(n) < expit(1.1 * index)).astype(np.int8)
    base = 3.0e6 + 3.0e5 * index + 2.5e5 * gen.standard_normal(n)
    outliers = np.exp(gen.normal(11.0, 1.3, n))
    y = base + outliers
    w = np.column_stack([age, bmi, chol, health])
    return Dataset(z, y, w, outcome_kind="continuous")


def write_dataset_csv(dataset, path, w_names=None):
    """Write a dataset in the canonical CSV layout (id, z, y, covariates)."""
    w_names = list(w_names or [f"w{k}" for k in range(1, dataset.p + 1)])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")  # quotes only what needs it
        out.writerow(["id", "z", "y", *w_names])
        for k in range(dataset.n):
            out.writerow([dataset.ids[k], int(dataset.z[k]), repr(float(dataset.y[k])),
                          *(repr(float(v)) for v in dataset.w[k])])
