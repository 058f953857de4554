"""Release gate: the eight headline checks, one PASS/FAIL line each.

The lines are printed with capture suspended so they show up in any
pytest run; each check also asserts, so a FAIL fails the suite.
"""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mf_readout import (
    ConfusionCounts,
    FilterModel,
    ModelSet,
    RunConfig,
    count_complexity,
    cross_fidelity,
    default_config,
    extract_array_features,
    extract_site_features,
    fidelity,
    fit_ridge,
    fit_rls,
    generate_dataset,
    infidelity_reduction,
    locate_sites,
    mean_image,
    neighbor_sites,
    run_pipeline,
    train_all_sites,
)


@pytest.fixture
def criterion(capfd):
    def check(number: int, passed: bool, summary: str):
        verdict = "PASS" if passed else "FAIL"
        with capfd.disabled():
            print(f"{verdict} criterion {number}: {summary}", flush=True)
        assert passed, f"criterion {number}: {summary}"

    return check


def test_criterion_1_ridge_matches_svd_oracle(criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for i in range(20):
        d = int(rng.integers(2, 51))
        m = int(rng.integers(5, 201))
        alpha = (0.0, 0.1, 10.0)[i % 3]
        X = rng.normal(size=(d, m))
        y = rng.normal(size=m)
        oracle = np.linalg.pinv(X @ X.T + alpha * np.eye(d)) @ (X @ y)
        worst = max(worst, float(np.abs(fit_ridge(X, y, alpha) - oracle).max()))
    elapsed = time.perf_counter() - t0
    criterion(
        1,
        worst < 1e-8 and elapsed < 5.0,
        f"ridge vs SVD pseudo-inverse, 20 systems, max |diff| {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_recursive_equals_batch(criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    worst = 0.0
    for i in range(10):
        d = int(rng.integers(2, 31))
        X = rng.normal(size=(d, 500))
        y = rng.normal(size=500)
        alpha0 = (0.01, 0.1, 1.0)[i % 3]
        batch = fit_ridge(X, y, alpha0)
        stream = fit_rls(zip(X.T, y), alpha0)
        worst = max(worst, float(np.abs(stream - batch).max()))
    elapsed = time.perf_counter() - t0
    criterion(
        2,
        worst < 1e-6 and elapsed < 5.0,
        f"recursive vs batch weights, 10 streams of 500, max |diff| {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_3_metric_formulas(criterion):
    t0 = time.perf_counter()
    checks = []
    checks.append(abs(fidelity(ConfusionCounts(100, 100, 4, 2)) - 0.97) < 1e-12)
    checks.append(fidelity(ConfusionCounts(50, 50, 0, 0)) == 1.0)
    checks.append(fidelity(ConfusionCounts(50, 50, 50, 50)) == 0.0)

    a = np.array([0, 1, 1, 0, 1, 0, 0, 1])
    checks.append(abs(cross_fidelity(a, a) - 1.0) < 1e-12)
    checks.append(abs(cross_fidelity(1 - a, a) + 1.0) < 1e-12)
    rng = np.random.default_rng(300)
    independent = abs(
        cross_fidelity(rng.integers(0, 2, 100_000), rng.integers(0, 2, 100_000))
    )
    checks.append(independent < 0.01)

    expected_eta = (0.0196 - 0.0149) / 0.0196
    checks.append(abs(infidelity_reduction(0.9804, 0.9851) - expected_eta) < 1e-12)
    checks.append(infidelity_reduction(0.9, 0.9) == 0.0)
    checks.append(infidelity_reduction(0.9, 1.0) == 1.0)
    elapsed = time.perf_counter() - t0
    criterion(
        3,
        all(checks) and elapsed < 5.0,
        f"fidelity/cross-fidelity/eta hand values, independence |F_CF| {independent:.4f}, {elapsed:.2f} s",
    )


def test_criterion_4_complexity_accounting(criterion):
    centers = np.array(
        [(8.0 + 6.0 * r, 8.0 + 6.0 * c) for r in range(3) for c in range(3)]
    )
    grid = SimpleNamespace(rows=3, cols=3, n_sites=9)

    def build(kind, **kw):
        models = {}
        for site in range(9):
            extra = dict(kw)
            if kind == "mf-site":
                extra["weights"] = np.ones(10 * 10 + 1)
            elif kind == "mf-array":
                neighbors = neighbor_sites(grid, site)
                extra.update(
                    weights=np.ones(7 * 7 + len(neighbors) + 1),
                    neighbors=neighbors,
                    all_centers=centers,
                )
            models[site] = FilterModel(
                kind=kind, site=site, center=tuple(centers[site]),
                s={"mf-site": 10, "mf-array": 7, "square": 6, "gaussian": 0}[kind],
                theta=0.5, image_shape=(28, 28), **extra,
            )
        return count_complexity(ModelSet(kind=kind, models=models))

    mf_site = build("mf-site")
    mf_array = build("mf-array")
    gauss = build("gaussian", sigma=1.8)
    square = build("square")
    counts_ok = (
        mf_site["n_trainable"] == 909
        and mf_site["n_multiplications"] == 909
        and mf_array["n_trainable"] == 522
        and mf_array["n_multiplications"] == 522
        and gauss["n_trainable"] == 18
        and square["n_trainable"] == 0
        and square["n_multiplications"] == 0
        and all(c["n_nonlinear"] == 0 for c in (mf_site, mf_array, gauss, square))
    )
    criterion(
        4,
        counts_ok,
        "complexity counts mf-site 909/909, mf-array 522/522, gaussian 18, square 0, nonlinear 0",
    )


def test_criterion_5_method_ordering_under_crosstalk(criterion, crosstalk_study):
    t0 = time.perf_counter()
    infid = {
        kind: float(np.mean([1.0 - r.mean_fidelity for r in reps]))
        for kind, reps in crosstalk_study.reports.items()
    }
    eta = infidelity_reduction(1.0 - infid["gaussian"], 1.0 - infid["mf-array"])
    ordered = (
        infid["square"] > infid["gaussian"] > infid["mf-site"] >= infid["mf-array"]
    )
    in_band = 0.005 <= infid["gaussian"] <= 0.05
    elapsed = crosstalk_study.elapsed + (time.perf_counter() - t0)
    criterion(
        5,
        ordered and in_band and eta >= 0.15 and elapsed < 600.0,
        "mean infidelity square {square:.4f} > gaussian {gaussian:.4f} > "
        "mf-site {mf-site:.4f} >= mf-array {mf-array:.4f}, eta {eta:.3f}, {t:.0f} s".format(
            eta=eta, t=elapsed, **infid
        ),
    )


def test_criterion_6_crosstalk_suppression(criterion, crosstalk_holdout):
    gauss = crosstalk_holdout.reports["gaussian"].cnn_mean_abs
    array = crosstalk_holdout.reports["mf-array"].cnn_mean_abs
    suppressed = array <= 0.5 * gauss
    criterion(
        6,
        suppressed
        and crosstalk_holdout.n_frames == 40_000
        and crosstalk_holdout.elapsed < 600.0,
        f"center-site mean |F_CF| over nearest neighbors: mf-array {array:.5f} vs "
        f"gaussian {gauss:.5f} on 40,000 held-out frames, {crosstalk_holdout.elapsed:.0f} s",
    )


def test_criterion_7_monotone_sweep_with_stable_artifacts(criterion, tmp_path):
    run = RunConfig(
        sim=default_config(n_images=3000, seed=0),
        output_dir=str(tmp_path / "sweep"),
        exposure_sweep_ms=(10.0, 14.0, 20.0, 28.0, 40.0),
        n_shuffles=10,
        label_source="truth",
        seed=0,
    )
    report = run_pipeline(run)

    violations = []
    inversions = 0
    for kind in report.kinds():
        rows = sorted(
            (r for r in report.rows if r.kind == kind), key=lambda r: r.exposure_ms
        )
        for a, b in zip(rows, rows[1:]):
            rise = b.mean_infidelity - a.mean_infidelity
            if rise <= 0:
                continue
            if rise <= 2.0 * max(a.stderr, b.stderr):
                inversions += 1
            else:
                violations.append((kind, a.exposure_ms, b.exposure_ms, rise))

    out = tmp_path / "sweep"
    first = ((out / "sweep.csv").read_bytes(), (out / "sweep.svg").read_bytes())
    run_pipeline(run)
    second = ((out / "sweep.csv").read_bytes(), (out / "sweep.svg").read_bytes())
    stable = first == second

    criterion(
        7,
        not violations and inversions <= 1 and stable,
        f"5-exposure sweep, {inversions} tolerated inversion(s), "
        f"{len(violations)} violation(s), artifacts byte-stable: {stable}",
    )


def test_criterion_8_localization_accuracy(criterion):
    config = replace(default_config(n_images=260), attenuation=1.0)
    sigma_ref = config.geometry.psf_sigma_px
    worst_center, worst_sigma = 0.0, 0.0
    for seed in range(5):
        stack = generate_dataset(replace(config, seed=seed))
        geometry = locate_sites(mean_image(stack.images), 9)
        true_centers = np.asarray(stack.config.geometry.site_centers(), dtype=float)
        worst_center = max(
            worst_center, float(np.abs(geometry.centers - true_centers).max())
        )
        worst_sigma = max(
            worst_sigma, float(np.abs(geometry.sigmas / sigma_ref - 1.0).max())
        )
    criterion(
        8,
        worst_center < 0.1 and worst_sigma < 0.05,
        f"9 centers within {worst_center:.3f} px and sigma within "
        f"{worst_sigma:.2%} over 5 seeds at label-path light level",
    )


@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_trained_weights_are_the_pseudoinverse_solution(preset_training, assert_minimum_norm, alpha):
    """Criteria 1 and 2 pin fit_ridge and fit_rls; training never calls
    fit_ridge, it solves from the train-frame moments, by fit_ridge's
    rule where the nested solve does not hold, which no site here needs.
    This ties every site's trained mf-site and mf-array weights, at its
    chosen window, to the pseudo-inverse of its feature matrix on both
    presets. At alpha > 0
    the ridge weights are the least-squares solution of the features
    stacked over sqrt(alpha) I against the labels and zeros."""
    for data in preset_training.values():
        centers = data.geometry.centers
        for kind in ("mf-site", "mf-array"):
            model_set = train_all_sites(replace(data), kind, alpha=alpha)
            assert not model_set.failures
            for site, model in model_set.models.items():
                if kind == "mf-site":
                    x = extract_site_features(data.train_images, centers[site], model.s)
                else:
                    x = extract_array_features(data.train_images, centers, site, model.s, model.neighbors)
                y = data.train_labels[:, site].astype(float)
                if alpha > 0:
                    x = np.hstack([x, np.sqrt(alpha) * np.eye(x.shape[0])])
                    y = np.concatenate([y, np.zeros(x.shape[0])])
                assert_minimum_norm(model.weights, x, y)
