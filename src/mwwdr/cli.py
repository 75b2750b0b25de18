"""Batch command-line front end.

Subcommands:
  estimate  -- fit the requested estimators on a CSV file and report
               estimates, standard errors, and Wald tests of delta = 1/2.
  simulate  -- run a scenario file or a named preset bundle and report
               Monte Carlo summaries.

Exit codes: 0 success, 2 validation, 3 estimability (including data too
large for the memory available), 4 convergence/fitting, 5 I/O.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

from .data import CsvSchema, load_csv
from .errors import (ConvergenceError, EstimabilityError, MwwdrError,
                     SeparationError, SingularDesignError, ValidationError)
from .estimators import ipw_estimate, mww_estimate
from .gpi import LINKS
from .parallel import one_blas_thread, usable_cpus
from .simstudy import (ESTIMATOR_NAMES, PRESETS, ScenarioConfig, render_table,
                       run_studies)
from .ugee import FrmSpec, solve_families, wald, wald_test

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ESTIMABILITY = 3
EXIT_CONVERGENCE = 4
EXIT_IO = 5


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mwwdr",
        description="Doubly robust rank-based causal effect estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate delta from a CSV file")
    est.add_argument("--input", required=True, help="input CSV path")
    est.add_argument("--z-col", required=True, help="treatment column (0/1)")
    est.add_argument("--y-col", required=True, help="outcome column")
    est.add_argument("--w-cols", default="",
                     help="comma-separated covariate columns")
    est.add_argument("--estimator", default="all",
                     choices=(*ESTIMATOR_NAMES, "all"))
    est.add_argument("--link", default="probit", choices=LINKS)
    est.add_argument("--ties", default="auto", choices=("auto", "on", "off"),
                     help="half-tie kernel: on scores tied outcomes 1/2 (count "
                     "data); auto and off score them 1, as for continuous data")
    est.add_argument("--alpha", type=float, default=0.05)
    est.add_argument("--clip-eps", type=float, default=1e-6)
    est.add_argument("--hajek", action="store_true",
                     help="also report the weight-normalized IPW estimate")
    est.add_argument("--output", default=None, help="write report here instead of stdout")
    est.add_argument("--format", default="json", choices=("json", "table"))

    sim = sub.add_parser("simulate", help="run a simulation scenario")
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", help="scenario JSON file")
    src.add_argument("--preset", choices=sorted(PRESETS),
                     help="named scenario bundle")
    sim.add_argument("--n", type=int, default=None, help="sample size (presets)")
    sim.add_argument("--reps", type=int, default=None,
                     help="replications per scenario (presets; default 1000)")
    sim.add_argument("--seed", type=int, default=None,
                     help="required; all randomness flows from it")
    sim.add_argument("--threads", type=int, default=None,
                     help="worker processes (default: the CPUs this "
                     "process may use)")
    sim.add_argument("--output", default=None)
    sim.add_argument("--format", default="json", choices=("json", "table"))
    return parser


def _emit(text, path):
    if path is None:
        sys.stdout.write(text + "\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _estimates(ds, args, wanted):
    """The report entry of each wanted estimator, in order."""
    estimates = {}
    fits = solve_families(ds, FrmSpec(link=args.link, clip_eps=args.clip_eps),
                          [name for name in wanted if name != "mww"])
    for name in wanted:
        if name == "mww":
            est = mww_estimate(ds)
            p = wald(est.delta_hat, est.se, 0.5, args.alpha).p_value \
                if est.se else None
            estimates["mww"] = {
                "delta": est.delta_hat, "se": est.se, "p_value": p,
                "notes": est.notes}
            continue
        fit = next(fits)
        wt = wald_test(fit, "delta", 0.5, args.alpha)
        entry = {"delta": fit.delta, "se": wt.se, "z": wt.z,
                 "p_value": wt.p_value, "ci": [wt.ci_lo, wt.ci_hi],
                 "reject": wt.reject, "fit": fit.to_report()}
        if name == "dr":
            entry["delta_plain"] = fit.delta_plain
        if name == "ipw" and args.hajek:
            entry["delta_hajek"] = ipw_estimate(ds, fit.plugin,
                                                hajek=True).delta_hat
        estimates[name] = entry
    return estimates


def cmd_estimate(args) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise ValidationError("--alpha must lie in (0, 1)")
    if not os.path.exists(args.input):
        raise FileNotFoundError(f"input file not found: {args.input}")
    w_cols = tuple(c for c in (s.strip() for s in args.w_cols.split(",")) if c)
    outcome_kind = "count" if args.ties == "on" else "continuous"
    ds = load_csv(args.input, CsvSchema(args.z_col, args.y_col, w_cols),
                  outcome_kind=outcome_kind)

    wanted = ESTIMATOR_NAMES if args.estimator == "all" else (args.estimator,)
    report = {"input": args.input,
              "data": {"n": ds.n, "n1": ds.n1, "n0": ds.n0, "p": ds.p,
                       "rejected_rows": ds.n_rejected_rows},
              "alpha": args.alpha}
    try:
        report["estimates"] = _estimates(ds, args, wanted)
    except MemoryError:
        raise EstimabilityError(
            f"not enough memory to fit n = {ds.n} subjects") from None

    if args.format == "json":
        _emit(json.dumps(report, sort_keys=True, indent=2), args.output)
    else:
        lines = [f"n={ds.n} (treated {ds.n1}, control {ds.n0})"]
        for name, entry in report["estimates"].items():
            se = entry.get("se")
            se_s = f"{se:.4f}" if se is not None else "-"
            pv = entry.get("p_value")
            pv_s = f"{pv:.4f}" if pv is not None else "-"
            lines.append(f"{name.upper():>4}  delta={entry['delta']:.4f}  "
                         f"se={se_s}  p={pv_s}")
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.seed is None:
        raise ValidationError("--seed is required for simulate "
                              "(no silent nondeterminism)")
    if args.reps is not None and args.reps < 1:
        raise ValidationError("--reps must be at least 1")
    if args.threads is not None and args.threads < 1:
        raise ValidationError("--threads must be at least 1")
    if args.scenario:
        if args.n is not None or args.reps is not None:
            raise ValidationError("--n and --reps apply to presets; a scenario "
                                  "file sets its own n and reps")
        if not os.path.exists(args.scenario):
            raise FileNotFoundError(f"scenario file not found: {args.scenario}")
        with open(args.scenario, encoding="utf-8-sig") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"scenario file is not valid JSON: {exc}") from None
        bundle = [("scenario", replace(ScenarioConfig.from_json_dict(raw),
                                       seed=args.seed))]
    else:
        if args.n is None:
            raise ValidationError("--n is required with --preset")
        bundle = PRESETS[args.preset](
            args.n, 1000 if args.reps is None else args.reps, args.seed)

    threads = args.threads if args.threads is not None else usable_cpus()
    names, configs = zip(*bundle)
    summaries = dict(zip(names, run_studies(configs, threads=threads)))

    if args.format == "json":
        payload = {name: s.to_json_dict() for name, s in summaries.items()}
        _emit(json.dumps(payload, sort_keys=True, indent=2), args.output)
    else:
        blocks = []
        for name, s in summaries.items():
            blocks.append(f"[{name}]")
            blocks.append(render_table(s))
        _emit("\n".join(blocks), args.output)
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command; OpenBLAS runs on one thread until it returns, so
    that reports do not depend on the BLAS setting."""
    with one_blas_thread():
        return _main(argv)


def _main(argv):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "estimate":
            return cmd_estimate(args)
        return cmd_simulate(args)
    except OSError as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"error (validation): {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EstimabilityError as exc:
        print(f"error (estimability): {exc}", file=sys.stderr)
        return EXIT_ESTIMABILITY
    except (ConvergenceError, SeparationError, SingularDesignError) as exc:
        print(f"error (convergence): {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except MwwdrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
