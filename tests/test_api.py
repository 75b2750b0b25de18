import dataclasses

import mwwdr


def test_all_names_resolve():
    assert [name for name in mwwdr.__all__ if not hasattr(mwwdr, name)] == []


def test_public_names_pinned():
    # the public surface is what the command line, the benchmark and
    # library users call; a new public name needs a deliberate edit here
    assert sorted(mwwdr.__all__) == sorted([
        "CsvSchema", "Dataset", "PotentialDataset", "load_csv",
        "MwwdrError", "ValidationError", "IngestionError", "EstimabilityError",
        "SingularDesignError", "SeparationError", "ConvergenceError",
        "EstimateResult", "mww_estimate", "ipw_estimate",
        "GpiModel", "fit_gpi",
        "PropensityModel", "fit_propensity",
        "ScenarioConfig", "StudySummary", "generate_dataset", "true_gamma",
        "true_delta", "run_study", "synthetic_confounded_trial",
        "expit", "std_normal_cdf",
        "RngStream",
        "FrmSpec", "UgeeFit", "WaldResult", "solve_ugee", "solve_families",
        "sandwich_covariance", "wald_test",
        "__version__",
    ])


def test_frmspec_fields_are_the_ones_callers_vary():
    # ties follow Dataset.ties, and the treatment block's tolerance and step
    # limit are ugee.TOL and ugee.MAX_ITER, so none of them is a field
    assert [f.name for f in dataclasses.fields(mwwdr.FrmSpec)] == [
        "family", "link", "intercept_only_propensity", "constant_only_gpi",
        "clip_eps", "weighted_delta", "fd_check_pairs"]
