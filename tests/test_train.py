from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import numpy as np
import pytest

from mf_readout import (
    ConfigError,
    DataError,
    ModelSet,
    NumericalError,
    SiteGeometry,
    TrainingData,
    count_complexity,
    extract_array_features,
    extract_site_features,
    fit_rls,
    fit_ridge,
    gaussian_weight_map,
    load_models,
    neighbor_sites,
    split_dataset,
    square_boundary_default,
    theta_grid_default,
    train_all_sites,
    tune,
)
from mf_readout.filters import FilterModel, window_fits
from mf_readout.locate import grid_shape
from mf_readout.train import S_GRID, _fidelity_curve


# -------------------------------------------------------------- split

def test_split_sizes_and_coverage():
    split = split_dataset(6002, seed=0)
    assert split.train_idx.size == 3602
    assert split.test_idx.size == 1200
    assert split.val_idx.size == 1200
    merged = np.concatenate([split.train_idx, split.test_idx, split.val_idx])
    assert np.array_equal(np.sort(merged), np.arange(6002))


def test_split_is_seeded():
    a = split_dataset(500, seed=7)
    b = split_dataset(500, seed=7)
    c = split_dataset(500, seed=8)
    assert np.array_equal(a.train_idx, b.train_idx)
    assert not np.array_equal(a.train_idx, c.train_idx)


def test_split_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        split_dataset(100, fractions=(0.5, 0.3, 0.1))
    with pytest.raises(DataError):
        split_dataset(3, fractions=(0.98, 0.01, 0.01))


# -------------------------------------------------------------- ridge

def test_ridge_one_feature_by_hand():
    # gram = 1 + 4 = 5, rhs = 1 + 4 = 5, so w = 1 exactly
    w = fit_ridge(np.array([[1.0, 2.0]]), np.array([1.0, 2.0]))
    assert w.shape == (1,)
    assert w[0] == pytest.approx(1.0)


def test_ridge_matches_svd_pseudoinverse():
    rng = np.random.default_rng(10)
    for alpha in (0.0, 0.1, 10.0):
        X = rng.normal(size=(12, 40))
        y = rng.normal(size=40)
        d = X.shape[0]
        expected = np.linalg.pinv(X @ X.T + alpha * np.eye(d)) @ X @ y
        assert np.allclose(fit_ridge(X, y, alpha), expected, atol=1e-10)


def test_ridge_minimum_norm_when_underdetermined():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(10, 4))  # more features than samples
    y = rng.normal(size=4)
    w = fit_ridge(X, y, 0.0)
    assert np.allclose(X.T @ w, y, atol=1e-9)  # interpolates
    assert np.allclose(w, np.linalg.pinv(X.T) @ y, atol=1e-9)


def test_ridge_minimum_norm_when_features_are_collinear():
    # the fourth feature is a combination of two others, so the Gram is
    # singular; on many of these seeds rounding still lets Cholesky factor
    # it, with a pivot near eps, and only the pivot test keeps solve away
    for seed in range(20):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(3, 40))
        X = np.vstack([f, 3.0 * f[:1] + f[1:2]])
        y = rng.normal(size=40)
        expected = np.linalg.pinv(X.T) @ y
        assert np.abs(fit_ridge(X, y) - expected).max() <= 1e-9 * np.abs(expected).max()


def test_ridge_shrinks_with_alpha():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(6, 50))
    y = rng.normal(size=50)
    norms = [np.linalg.norm(fit_ridge(X, y, a)) for a in (0.0, 0.1, 1.0, 10.0)]
    assert norms == sorted(norms, reverse=True)


def test_ridge_input_validation():
    with pytest.raises(DataError):
        fit_ridge(np.ones(4), np.ones(4))
    with pytest.raises(DataError):
        fit_ridge(np.ones((2, 4)), np.ones(3))
    with pytest.raises(ConfigError):
        fit_ridge(np.ones((2, 4)), np.ones(4), alpha=-0.5)
    with pytest.raises(NumericalError):
        fit_ridge(np.array([[1.0, np.nan]]), np.ones(2))


# ---------------------------------------------------------- recursive

def test_rls_equals_batch_ridge():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(8, 60))
    y = rng.normal(size=60)
    alpha0 = 0.05
    batch = fit_ridge(X, y, alpha0)
    stream = fit_rls(((X[:, m], y[m]) for m in range(60)), alpha0)
    assert np.allclose(stream, batch, atol=1e-9)


def test_rls_is_order_independent():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(6, 80))
    y = rng.normal(size=80)
    order = rng.permutation(80)
    a = fit_rls(((X[:, m], y[m]) for m in range(80)), 0.1)
    b = fit_rls(((X[:, m], y[m]) for m in order), 0.1)
    assert np.allclose(a, b, atol=1e-8)


def test_rls_rejects_degenerate_inputs():
    with pytest.raises(DataError):
        fit_rls(iter(()), 0.1)
    with pytest.raises(ConfigError):
        fit_rls([(np.ones(2), 1.0)], 0.0)


# -------------------------------------------------------------- grids

def test_theta_grid_default_has_99_values():
    grid = theta_grid_default()
    assert len(grid) == 99
    assert grid[0] == 0.01
    assert grid[-1] == 0.99
    assert theta_grid_default(0.2, 0.6, 0.2) == (0.2, 0.4, 0.6)
    with pytest.raises(ConfigError):
        theta_grid_default(0.5, 0.4, 0.1)


def test_square_boundary_default_is_lattice_pitch():
    centers = [(8.0 + 6.0 * r, 8.0 + 6.0 * c) for r in range(3) for c in range(3)]
    assert square_boundary_default(SimpleNamespace(centers=np.array(centers))) == 6
    with pytest.raises(ConfigError):
        square_boundary_default(SimpleNamespace(centers=np.array([(5.0, 5.0)])))


# --------------------------------------------------------------- tune

def _separable_data(n_train=24, n_val=24, seed=20):
    """One site whose window's top-left pixel simply stores the label."""
    rng = np.random.default_rng(seed)
    geometry = SiteGeometry(
        centers=np.array([[4.0, 4.0]]), sigmas=np.array([1.5]), amplitudes=np.array([1.0])
    )

    def make(n):
        labels = (np.arange(n) % 2).astype(np.uint8)[:, None]
        images = rng.normal(0.0, 1e-4, size=(n, 9, 9))
        images[:, 3, 3] = labels[:, 0]
        return images, labels

    ti, tl = make(n_train)
    vi, vl = make(n_val)
    return TrainingData(ti, tl, vi, vl, geometry)


def test_tune_prefers_smallest_window_and_threshold():
    data = _separable_data()
    result = tune(data, 0, "mf-site", s_grid=(3, 4, 5), theta_grid=(0.2, 0.5, 0.8))
    # every cell separates perfectly, so the first candidate wins outright
    assert result.best_s == 3
    assert result.best_theta == 0.2
    assert result.val_fidelity == pytest.approx(1.0)
    assert len(result.search_trace) == 3 * 3


def test_tune_gaussian_is_a_single_candidate():
    data = _separable_data()
    result = tune(data, 0, "gaussian")
    assert result.best_s == 0
    assert result.weights is None
    assert len(result.search_trace) == 1


def test_tune_square_searches_windows_only():
    data = _separable_data()
    result = tune(data, 0, "square", s_grid=(3, 4))
    assert result.best_s in (3, 4)
    assert len(result.search_trace) == 2  # one threshold per window, not a grid


def test_tune_rejects_bad_requests():
    data = _separable_data()
    with pytest.raises(ConfigError):
        tune(data, 0, "mf-site", s_grid=())
    with pytest.raises(ConfigError):
        tune(data, 0, "nearest-centroid")
    with pytest.raises(ConfigError):
        tune(data, 0, "mf-site", s_grid=(25,))  # wider than the frame


def test_tune_skips_windows_that_do_not_fit():
    data = _separable_data()
    result = tune(data, 0, "mf-site", s_grid=(3, 25), theta_grid=(0.5,))
    assert result.best_s == 3
    assert all(s == 3 for s, _, _ in result.search_trace)


def test_training_data_is_frozen():
    data = _separable_data()
    with pytest.raises(FrozenInstanceError):
        data.train_images = data.val_images


# --------------------------------------------- moments vs feature path

def _feature_path_tune(data, site, kind, s_grid=S_GRID, theta_grid=None, alpha=0.0):
    """Reference tuner: fit_ridge on extract_*_features of the train frames,
    validation scored through extract_*_features, ties to the first cell.
    Returns (fidelity, s, theta, weights) of the best cell."""
    theta_grid = theta_grid_default() if theta_grid is None else theta_grid
    centers = data.geometry.centers
    neighbors = ()
    if kind == "mf-array":
        rows, cols, _, _ = grid_shape(centers)
        neighbors = neighbor_sites(SimpleNamespace(rows=rows, cols=cols, n_sites=rows * cols), site)
    best = None
    for s in s_grid:
        if not all(window_fits(centers[k], s, data.image_shape) for k in (site, *neighbors)):
            continue
        if kind == "mf-site":
            x_train, x_val = (extract_site_features(im, centers[site], s)
                              for im in (data.train_images, data.val_images))
        else:
            x_train, x_val = (extract_array_features(im, centers, site, s, neighbors)
                              for im in (data.train_images, data.val_images))
        w = fit_ridge(x_train, data.train_labels[:, site], alpha)
        fids = _fidelity_curve(w @ x_val, data.val_labels[:, site], theta_grid)
        for theta, fid in zip(theta_grid, fids):
            if best is None or fid > best[0]:
                best = (float(fid), s, theta, w)
    return best


def _assert_same_choice(result, reference, rel_tol=1e-9):
    fid, s, theta, w = reference
    assert (result.best_s, result.best_theta, result.val_fidelity) == (s, theta, fid)
    assert np.abs(result.weights - w).max() <= rel_tol * np.abs(w).max()


@pytest.mark.parametrize("kind", ["mf-site", "mf-array"])
def test_moment_path_matches_feature_path(small_training, kind):
    data = small_training.data
    for site in range(data.geometry.n_sites):
        _assert_same_choice(tune(data, site, kind), _feature_path_tune(data, site, kind))


def test_moment_path_matches_feature_path_with_ridge():
    data = _separable_data()
    grids = dict(s_grid=(3, 4, 5), theta_grid=(0.2, 0.5, 0.8), alpha=0.1)
    _assert_same_choice(tune(data, 0, "mf-site", **grids), _feature_path_tune(data, 0, "mf-site", **grids))


def test_moment_path_is_minimum_norm_when_rank_deficient():
    data = _separable_data()  # 24 train frames, 26 features at s = 5
    result = tune(data, 0, "mf-site", s_grid=(5,), theta_grid=(0.5,))
    x = extract_site_features(data.train_images, data.geometry.centers[0], 5)
    y = data.train_labels[:, 0].astype(float)
    expected = np.linalg.pinv(x.T) @ y
    # solving the Gram system squares cond(X) (about 4e5 here), so a Gram
    # solve is exact to about eps * cond^2 of max |w|; any null-space
    # component, the failure this guards against, is off by order one
    sv = np.linalg.svd(x, compute_uv=False)
    tol = np.finfo(float).eps * (sv[0] / sv[-1]) ** 2 * np.abs(expected).max()
    assert np.abs(result.weights - expected).max() <= tol
    assert np.abs(result.weights - fit_ridge(x, y)).max() <= tol


# ------------------------------------------------------ whole lattice

def test_train_all_sites_square_uses_pitch_by_default(small_training):
    model_set = train_all_sites(small_training.data, "square")
    assert not model_set.failures
    assert sorted(model_set.models) == list(range(9))
    assert all(m.s == 6 for m in model_set.ordered())
    assert all(m.weights is None for m in model_set.ordered())


def test_train_all_sites_square_honors_explicit_grid(small_training):
    model_set = train_all_sites(small_training.data, "square", s_grid=(4,))
    assert all(m.s == 4 for m in model_set.ordered())


def test_train_all_sites_gaussian_copies_fitted_widths(small_training):
    model_set = train_all_sites(small_training.data, "gaussian")
    assert not model_set.failures
    for site, model in model_set.models.items():
        assert model.sigma == pytest.approx(float(small_training.data.geometry.sigmas[site]))
        assert model.image_shape == (28, 28)


def test_train_all_sites_learned_kinds(small_training):
    for kind, extra in (("mf-site", 0), ("mf-array", 8)):
        model_set = train_all_sites(small_training.data, kind, s_grid=(3, 4), theta_grid=(0.3, 0.5, 0.7))
        assert not model_set.failures
        for model in model_set.ordered():
            assert model.weights.size == model.s**2 + extra + 1
            assert 0.3 <= model.theta <= 0.7
        if kind == "mf-array":
            assert all(len(m.neighbors) == 8 for m in model_set.ordered())


def test_train_all_sites_collects_per_site_failures(small_training):
    # a window wider than the frame fails every site the same way
    with pytest.raises(DataError, match="every site"):
        train_all_sites(small_training.data, "mf-site", s_grid=(40,))


def test_model_set_round_trips_through_directory(tmp_path, small_training):
    trained = train_all_sites(small_training.data, "square")
    paths = trained.save(tmp_path)
    assert [p.name for p in paths] == [f"square_site{i}.json" for i in range(1, 10)]
    loaded = load_models(tmp_path)
    assert set(loaded) == {"square"}
    again = loaded["square"]
    assert sorted(again.models) == sorted(trained.models)
    for site in trained.models:
        assert again.models[site].theta == pytest.approx(trained.models[site].theta)
        assert again.models[site].s == trained.models[site].s


def test_load_models_requires_files(tmp_path):
    with pytest.raises(DataError):
        load_models(tmp_path)


def test_ordered_refuses_partial_sets():
    model = FilterModel(kind="square", site=0, center=(4.0, 4.0), s=3, theta=1.0)
    broken = ModelSet(kind="square", models={0: model}, failures={1: "no fit"})
    assert broken.n_sites == 2
    with pytest.raises(DataError, match="square model set has failed sites: site 2: no fit"):
        broken.ordered()


# --------------------------------------------------------- complexity

def test_count_complexity_small_oracle():
    sites = [(6.0, 6.0), (6.0, 12.0)]
    square = ModelSet(kind="square", models={
        i: FilterModel(kind="square", site=i, center=c, s=5, theta=1.0)
        for i, c in enumerate(sites)
    })
    assert count_complexity(square) == {
        "kind": "square", "n_trainable": 0, "n_multiplications": 0, "n_nonlinear": 0,
    }

    weights = np.array([1.0, 0.0, 2.0, 0.0, 3.0])
    mf = ModelSet(kind="mf-site", models={
        i: FilterModel(kind="mf-site", site=i, center=c, s=2, theta=0.5, weights=weights)
        for i, c in enumerate(sites)
    })
    counts = count_complexity(mf)
    assert counts["n_trainable"] == 10
    assert counts["n_multiplications"] == 6  # zero weights cost nothing per frame
    assert counts["n_nonlinear"] == 0

    gauss = ModelSet(kind="gaussian", models={
        i: FilterModel(kind="gaussian", site=i, center=c, s=0, theta=1.0,
                       sigma=1.2, image_shape=(18, 18))
        for i, c in enumerate(sites)
    })
    counts = count_complexity(gauss)
    assert counts["n_trainable"] == 4
    expected = sum(
        int(np.count_nonzero(gaussian_weight_map(c, 1.2, (18, 18)))) for c in sites
    )
    assert counts["n_multiplications"] == expected
