from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    gaussian_score,
    gaussian_weight_map,
    load_models,
    neighbor_sites,
    split_dataset,
    square_boundary_default,
    square_score,
    theta_grid_default,
    train_all_sites,
    tune,
    unsupervised_threshold,
)
from mf_readout import train
from mf_readout.filters import FilterModel, window_fits, window_index, window_slice
from mf_readout.locate import grid_shape
from mf_readout.train import LEARNED_KINDS, S_GRID, _fidelity_curve


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


def test_fit_ridge_is_minimum_norm_on_rank_deficient_and_empty_systems(assert_minimum_norm):
    # fewer samples than features (rank 4 of 6) fails the Cholesky rank
    # test, and a system with no data at all does not factor: both take
    # lstsq, the minimum-norm least-squares solution
    rng = np.random.default_rng(15)
    x, y = rng.normal(size=(6, 4)), rng.normal(size=4)
    assert_minimum_norm(fit_ridge(x, y), x, y)
    assert np.array_equal(fit_ridge(np.zeros((6, 3)), np.zeros(3)), np.zeros(6))


def test_fit_ridge_with_ridge_matches_pseudoinverse():
    # alpha > 0 makes every system positive definite, also the one with
    # fewer samples than features
    rng = np.random.default_rng(16)
    alpha = 0.1
    for m in (30, 3, 12):
        x, y = rng.normal(size=(5, m)), rng.normal(size=m)
        expected = np.linalg.pinv(x @ x.T + alpha * np.eye(5)) @ x @ y
        assert np.allclose(fit_ridge(x, y, alpha), expected, atol=1e-10)


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


def test_theta_grid_default_stops_at_hi_and_stays_inside_zero_one():
    # a step that does not divide hi - lo ends below hi, never past it
    assert theta_grid_default(0.01, 0.99, 0.05) == tuple(round(0.01 + 0.05 * i, 10) for i in range(20))
    grid = theta_grid_default(0.01, 0.99, 0.03)
    assert (len(grid), grid[-1]) == (33, 0.97)
    # a learned model's threshold lies in (0, 1), so a grid that reaches
    # 0 or 1 fails before any tuning
    for bad in ((0.0, 0.5, 0.1), (-0.2, 0.5, 0.1), (0.5, 1.0, 0.1), (0.5, 1.2, 0.25)):
        with pytest.raises(ConfigError, match=r"outside \(0, 1\)"):
            theta_grid_default(*bad)
    assert theta_grid_default(0.3, 1.0, 0.3) == (0.3, 0.6, 0.9)  # hi itself is never reached


def test_square_boundary_default_is_lattice_pitch():
    centers = [(8.0 + 6.0 * r, 8.0 + 6.0 * c) for r in range(3) for c in range(3)]
    assert square_boundary_default(SimpleNamespace(centers=np.array(centers))) == 6
    with pytest.raises(ConfigError):
        square_boundary_default(SimpleNamespace(centers=np.array([(5.0, 5.0)])))


# ----------------------------------------------------------- fidelity

def _reference_fidelity_curve(scores, labels, thetas):
    """Fidelity by comparing every score with every theta."""
    labels = np.asarray(labels).astype(bool)
    n_bright = int(labels.sum())
    n_dark = labels.size - n_bright
    if n_bright == 0 or n_dark == 0:
        raise DataError("validation labels contain a single class")
    preds = scores[None, :] >= np.asarray(thetas, dtype=np.float64)[:, None]
    false_bright = (preds & ~labels[None, :]).sum(axis=1)
    false_dark = (~preds & labels[None, :]).sum(axis=1)
    return 1.0 - 0.5 * (false_bright / n_dark + false_dark / n_bright)


# a few values drawn often, so scores repeat and thresholds land on them
_LEVELS = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 0.5 + 2**-52, 1.0])
_FINITE = st.floats(-4.0, 4.0, allow_nan=False)


@given(
    st.lists(st.tuples(st.one_of(_LEVELS, _FINITE), st.booleans()), min_size=1, max_size=60),
    st.lists(st.one_of(_LEVELS, _FINITE), min_size=1, max_size=30),
)
def test_sorted_fidelity_equals_elementwise_counts(frames, thetas):
    scores = np.array([score for score, _ in frames])
    labels = np.array([bright for _, bright in frames], dtype=np.uint8)
    thetas = thetas + [float(scores[0])]  # one threshold exactly at a score
    if labels.min() == labels.max():
        for curve in (_fidelity_curve, _reference_fidelity_curve):
            with pytest.raises(DataError, match="single class"):
                curve(scores, labels, thetas)
        return
    assert np.array_equal(
        _fidelity_curve(scores, labels, thetas), _reference_fidelity_curve(scores, labels, thetas)
    )


def test_sorted_fidelity_reads_a_tie_as_bright():
    scores = np.array([0.5, 0.5, 0.2, 0.9])
    labels = np.array([1, 0, 0, 1])
    # theta 0.5: both 0.5 scores read bright, so one dark frame is wrong
    assert _fidelity_curve(scores, labels, [0.9, 0.5, 0.1]).tolist() == [0.75, 0.75, 0.5]


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


def test_training_data_rejects_validation_labels_of_another_width(small_training):
    # caught where the data is built, not at val_labels[:, site] in tuning
    data = small_training.data
    with pytest.raises(DataError, match=r"validation labels of shape \(52, 8\)"):
        replace(data, val_labels=data.val_labels[:, :8])


def test_training_data_rejects_validation_frames_of_another_size(small_training):
    # caught where the data is built, not in _tune_all's validation product
    data = small_training.data
    with pytest.raises(DataError, match=r"validation frames are \(27, 28\) pixels, train frames \(28, 28\)"):
        replace(data, val_images=data.val_images[:, 1:, :])


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
        fids = _reference_fidelity_curve(w @ x_val, data.val_labels[:, site], theta_grid)
        for theta, fid in zip(theta_grid, fids):
            if best is None or fid > best[0]:
                best = (float(fid), s, theta, w)
    return best


def _assert_same_choice(result, reference, rel_tol=1e-9):
    fid, s, theta, w = reference
    assert (result.best_s, result.best_theta, result.val_fidelity) == (s, theta, fid)
    assert np.abs(result.weights - w).max() <= rel_tol * np.abs(w).max()


def _count_fallback_fits(monkeypatch):
    """Spy on train._fallback_weights, the fit of every (site, window) the
    nested solves do not solve; returns the list of feature counts its
    calls append to. It sees no other solve, so a reference fit_ridge
    call in a test is not counted."""
    calls = []
    fit = train._fallback_weights

    def spy(data, products, site, pix, nbr, alpha):
        calls.append(len(pix) + len(nbr))
        return fit(data, products, site, pix, nbr, alpha)

    monkeypatch.setattr(train, "_fallback_weights", spy)
    return calls


# The small stack's 156 train frames cannot determine a 14 x 14 window's
# 197 features, and a site whose largest system is singular is fit by
# the fallback at every size; up to 12 x 12 (at most 153 features) the
# moments solve every candidate.
MOMENT_GRID = tuple(range(2, 13))


@pytest.mark.parametrize("kind", ["mf-site", "mf-array"])
def test_moment_path_matches_feature_path(small_training, monkeypatch, kind):
    # every site is checked through train_all_sites below; tune makes the
    # same all-sites pass, so one site (the center, with 8 neighbors) is enough
    data = replace(small_training.data)
    fits = _count_fallback_fits(monkeypatch)
    result = tune(data, 4, kind, MOMENT_GRID)
    assert fits == []
    _assert_same_choice(result, _feature_path_tune(data, 4, kind, MOMENT_GRID))


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


def test_equal_window_grids_give_equal_model_sets(small_training):
    # the grid's value decides, not the object passed: the library grid
    # handed in as a tuple is searched like any other explicit grid, and
    # only s_grid None gives square its lattice pitch
    data = small_training.data

    def square_models(s_grid):
        return [m.to_dict() for m in train_all_sites(data, "square", s_grid).ordered()]

    assert square_models(S_GRID) == square_models(tuple(range(2, 15)))
    assert square_models(None) == square_models((square_boundary_default(data.geometry),))
    assert square_models(None) != square_models(S_GRID)


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


@pytest.mark.parametrize("kind", ["mf-site", "mf-array"])
def test_batch_matches_feature_path(small_training, monkeypatch, kind):
    data = replace(small_training.data)
    fits = _count_fallback_fits(monkeypatch)
    model_set = train_all_sites(data, kind, MOMENT_GRID)
    assert not model_set.failures
    assert fits == []
    for site in range(data.geometry.n_sites):
        _assert_same_choice(model_set.tune_results[site], _feature_path_tune(data, site, kind, MOMENT_GRID))


def _assert_same_result(batched, alone):
    assert (batched.best_s, batched.best_theta, batched.val_fidelity) == (
        alone.best_s, alone.best_theta, alone.val_fidelity,
    )
    assert np.array_equal(batched.weights, alone.weights)
    assert batched.search_trace == alone.search_trace


def _with_broken_sites(data):
    """Site 1's center on the frame corner, so no window fits it, and
    site 5 with dark-only validation labels."""
    centers = data.geometry.centers.copy()
    centers[0] = (0.0, 0.0)
    geometry = SiteGeometry(centers, data.geometry.sigmas, data.geometry.amplitudes)
    val_labels = data.val_labels.copy()
    val_labels[:, 4] = 0
    return TrainingData(data.train_images, data.train_labels, data.val_images, val_labels, geometry)


def test_batch_failures_stay_per_site(small_training, monkeypatch):
    data = _with_broken_sites(small_training.data)
    grids = dict(s_grid=(3, 4, 5), theta_grid=(0.3, 0.5, 0.7))
    learned_weights = train._learned_weights

    def non_finite_weights(data, s, sites, nbr, alpha):
        # site 3 at every window; site 5, which its validation labels fail
        # at the first window already, only at the last
        weights = learned_weights(data, s, sites, nbr, alpha)
        weights[(sites == 2) | ((sites == 4) & (s == 5))] = np.nan
        return weights

    monkeypatch.setattr(train, "_learned_weights", non_finite_weights)
    model_set = train_all_sites(data, "mf-site", **grids)
    monkeypatch.undo()
    assert model_set.failures == {
        0: f"no window size in (3, 4, 5) fits site 0 at {tuple(data.geometry.centers[0])}",
        2: "ridge solve produced non-finite weights",
        4: "validation labels contain a single class",
    }
    with pytest.raises(ConfigError, match="no window size"):
        tune(data, 0, "mf-site", **grids)
    with pytest.raises(DataError, match="single class"):
        tune(data, 4, "mf-site", **grids)
    _assert_same_result(model_set.tune_results[1], tune(data, 1, "mf-site", **grids))


def test_batch_single_class_site_fails_alone_in_the_array(small_training):
    base = small_training.data
    val_labels = base.val_labels.copy()
    val_labels[:, 4] = 1
    data = TrainingData(base.train_images, base.train_labels, base.val_images, val_labels, base.geometry)
    grids = dict(s_grid=(3, 4, 5), theta_grid=(0.3, 0.5, 0.7))
    model_set = train_all_sites(data, "mf-array", **grids)
    assert model_set.failures == {4: "validation labels contain a single class"}
    _assert_same_result(model_set.tune_results[3], tune(data, 3, "mf-array", **grids))


# --------------------------------------- shared solves, block elimination

def _all_neighbors(n_sites):
    """Neighbor columns of every site on a lattice of at most 3 x 3, where
    every other site is a neighbor and every window fits."""
    return np.array([[j for j in range(n_sites) if j != k] for k in range(n_sites)], dtype=np.intp)


def _no_neighbors(n_sites):
    return np.empty((n_sites, 0), dtype=np.intp)


@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_block_elimination_matches_the_full_system(small_training, monkeypatch, alpha):
    data = replace(small_training.data)
    centers = data.geometry.centers
    sites, nbr = np.arange(9), _all_neighbors(9)
    train._fill_solves(data, (3, 5, 8), alpha)
    fits = _count_fallback_fits(monkeypatch)
    for s in (3, 5, 8):
        assert data._products[s].fits == tuple(range(9))
        got = train._learned_weights(data, s, sites, nbr, alpha)
        for k in sites:
            x = extract_array_features(data.train_images, centers, k, s, tuple(nbr[k]))
            expected = fit_ridge(x, data.train_labels[:, k], alpha)
            # both are backward-stable solves of the same system, so they
            # agree to about eps * cond of max |w| (measured at most 0.12 of it)
            cond = np.linalg.cond(x @ x.T + alpha * np.eye(x.shape[0]))
            tol = np.finfo(float).eps * cond * np.abs(expected).max()
            assert np.abs(got[k] - expected).max() <= 10 * tol
    assert fits == []  # no site fell back: every weight came from the elimination


def _lattice_data(n_train=60, n_val=40, seed=30, constant=True):
    """A 3 x 3 lattice of pitch 6 on 21 x 21 frames of noise with random
    labels. With constant, in the train frames site 9's 3 x 3 window
    holds a constant, so at s = 3 its own system A is rank 1, and its
    window mean is the bias times a constant in every other site's
    mf-array system, so A passes the rank test there and the Schur
    complement fails it."""
    rng = np.random.default_rng(seed)
    centers = np.array([(4.0 + 6 * r, 4.0 + 6 * c) for r in range(3) for c in range(3)])
    geometry = SiteGeometry(centers, np.full(9, 1.5), np.ones(9))
    train_images = rng.normal(size=(n_train, 21, 21))
    if constant:
        train_images[:, 15:18, 15:18] = 0.5
    return TrainingData(
        train_images, rng.integers(0, 2, size=(n_train, 9)).astype(np.uint8),
        rng.normal(size=(n_val, 21, 21)), rng.integers(0, 2, size=(n_val, 9)).astype(np.uint8),
        geometry,
    )


def test_block_elimination_falls_back_when_a_or_the_schur_complement_fails(monkeypatch, assert_minimum_norm):
    data = _lattice_data()
    s, sites, nbr = 3, np.arange(9), _all_neighbors(9)
    train._fill_solves(data, (s,), 0.0)
    assert train._full_rank(data._solves[(s, 0.0)].pivots).tolist() == [True] * 8 + [False]
    fits = _count_fallback_fits(monkeypatch)
    weights = train._learned_weights(data, s, sites, nbr, 0.0)
    # site 9 for its A, every other site for its Schur complement
    assert fits == [s * s + 8 + 1] * 9
    site_weights = train._learned_weights(data, s, sites, _no_neighbors(9), 0.0)
    assert len(fits) == 10  # mf-site: site 9 alone
    centers = data.geometry.centers
    for k in sites:
        y = data.train_labels[:, k].astype(float)
        x = extract_array_features(data.train_images, centers, k, s, tuple(nbr[k]))
        assert_minimum_norm(weights[k], x, y)
        assert_minimum_norm(site_weights[k], extract_site_features(data.train_images, centers[k], s), y)


def test_mf_array_alone_equals_mf_array_after_mf_site(small_training):
    grids = dict(s_grid=(3, 4, 5, 6), theta_grid=(0.3, 0.5, 0.7))
    alone = train_all_sites(replace(small_training.data), "mf-array", **grids)
    data = replace(small_training.data)
    train_all_sites(data, "mf-site", **grids)
    after = train_all_sites(data, "mf-array", **grids)
    assert sorted(after.tune_results) == sorted(alone.tune_results) == list(range(9))
    for site in range(9):
        _assert_same_result(after.tune_results[site], alone.tune_results[site])
    # another alpha solves afresh: equal to a cold start, unlike alpha = 0
    ridge = train_all_sites(data, "mf-array", alpha=0.1, **grids)
    ridge_alone = train_all_sites(replace(small_training.data), "mf-array", alpha=0.1, **grids)
    for site in range(9):
        _assert_same_result(ridge.tune_results[site], ridge_alone.tune_results[site])
    assert not any(
        np.array_equal(ridge.tune_results[site].weights, after.tune_results[site].weights) for site in range(9)
    )
    assert sorted(data._solves) == [(s, a) for s in grids["s_grid"] for a in (0.0, 0.1)]


@pytest.mark.parametrize("kind", ["mf-site", "mf-array"])
@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_learned_kinds_skip_window_sizes_that_fit_no_site(small_training, kind, alpha):
    # s = 1 fits no site by rule, s = 30 leaves the frame
    grids = dict(theta_grid=(0.3, 0.5, 0.7), alpha=alpha)
    got = train_all_sites(replace(small_training.data), kind, s_grid=(1, 3, 30), **grids)
    expected = train_all_sites(replace(small_training.data), kind, s_grid=(3,), **grids)
    assert sorted(got.tune_results) == sorted(expected.tune_results) == list(range(9))
    for site in range(9):
        _assert_same_result(got.tune_results[site], expected.tune_results[site])


# ------------------------------------------------------ nested solves

def test_nesting_order_puts_every_smaller_window_first():
    shape = (40, 40)
    for center in ((19.4, 20.6), (20.5, 19.5), (20.0, 20.0)):
        for top in range(1, 16):
            nested = window_index(center, top, shape)[train._nesting_order(top)]
            for s in range(1, top + 1):
                assert sorted(nested[: s * s]) == sorted(window_index(center, s, shape))


def test_one_product_gives_every_window_size_its_products(small_training):
    data = replace(small_training.data)
    gram, cross = data._moments
    p = gram.shape[0] - 1
    train._fill_products(data, S_GRID)
    for s in S_GRID:
        products = data._products[s]
        ga = gram[:, :p] @ products.a_s
        assert products.fits == tuple(range(9))
        assert np.abs(products.ga - ga).max() <= 1e-13 * np.abs(ga).max()
        assert np.allclose(products.aga, products.a_s.T @ ga[:p], rtol=1e-13, atol=0)
        assert np.array_equal(products.ar, products.a_s.T @ cross[:p])


def _per_size_systems(data, s, alpha):
    """Reference for one window size: every fitting site's mf-site system
    over its row-major window pixels and the bias, with alpha on its
    diagonal, and its right-hand sides. Returns (pix, systems, rhs)."""
    gram, cross = data._moments
    products = data._products[s]
    sites = np.array(products.fits, dtype=np.intp)
    p = gram.shape[0] - 1
    pix = np.array([np.append(window_index(data.geometry.centers[k], s, data.image_shape), p) for k in sites])
    rhs = np.concatenate([cross[pix, sites[:, None]][..., None], products.ga[pix]], axis=2)
    return pix, gram[pix[:, :, None], pix[:, None, :]] + alpha * np.eye(pix.shape[1]), rhs


def _assert_nested_solves_match(data, s_grid, alpha):
    """The nested solves of s_grid against each size's row-major systems:
    the same pixels; at alpha = 0 a solve holds only where the system's
    own Cholesky pivots pass the rank test too (it does not hold anywhere
    when the site's largest system is not positive definite), at
    alpha > 0 every site factored; and every solve that holds within
    10 eps cond(A) of its max |x| of a direct solve (both are
    backward-stable solves of one system; measured at most 1.7 of it on
    the lattice and both presets)."""
    train._fill_solves(data, s_grid, alpha)
    for s in s_grid:
        got = data._solves[(s, alpha)]
        pix, systems, rhs = _per_size_systems(data, s, alpha)
        assert np.array_equal(got.pix, pix)
        held = train._solved(got.pivots, alpha)
        if alpha > 0:
            assert held.all()
        else:
            assert not np.any(held & ~train._full_rank(train._cholesky_pivots(systems)))
        x = np.linalg.solve(systems[held], rhs[held])
        cond = np.linalg.cond(systems[held])
        tol = np.finfo(float).eps * cond[:, None, None] * np.abs(x).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(got.x[held] - x) <= 10 * tol)


@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_nested_solves_match_the_per_size_stack(small_training, preset_training, alpha):
    for data in (small_training.data, *preset_training.values()):
        _assert_nested_solves_match(replace(data), S_GRID, alpha)


@pytest.mark.parametrize("jitter", [0.0, 1e-6])
def test_nested_solves_fall_back_for_a_site_whose_largest_system_fails(monkeypatch, assert_minimum_norm, jitter):
    # without jitter site 9's largest system is not positive definite; with
    # it, it factors but its pivots fail the rank test at every size
    data = _lattice_data()
    noise = np.random.default_rng(31).normal(size=data.train_images.shape)
    data = replace(data, train_images=data.train_images + jitter * noise * (data.train_images == 0.5))
    s_grid, sites, centers = (2, 3, 4, 5), np.arange(9), data.geometry.centers
    train._fill_solves(data, s_grid, 0.0)
    fits = _count_fallback_fits(monkeypatch)
    for s in s_grid:
        assert train._full_rank(data._solves[(s, 0.0)].pivots).tolist() == [True] * 8 + [False]
        for nbr in (_no_neighbors(9), _all_neighbors(9)):
            weights = train._learned_weights(data, s, sites, nbr, 0.0)
            for k in sites:
                y = data.train_labels[:, k].astype(float)
                x = extract_array_features(data.train_images, centers, k, s, tuple(nbr[k]))
                assert_minimum_norm(weights[k], x, y)
        # mf-site fits site 9 alone by the fallback, mf-array at least it
        assert fits.count(s * s + 1) == 1 and fits.count(s * s + 9) >= 1
        fits.clear()
    monkeypatch.undo()
    _assert_nested_solves_match(replace(data), s_grid, 0.0)


@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_nested_solves_when_the_largest_window_leaves_edge_sites_out(alpha):
    data = _lattice_data(n_train=400, constant=False)
    s_grid = tuple(range(3, 13))
    train._fill_products(data, s_grid)
    fits = {s: data._products[s].fits for s in s_grid}
    # three stacks: largest window 9 at the top and left edges, 10 at the
    # bottom and right ones, 12 at the center
    assert fits[9] == tuple(range(9))
    assert fits[10] == (4, 5, 7, 8)
    assert fits[11] == fits[12] == (4,)
    _assert_nested_solves_match(data, s_grid, alpha)


def test_fallback_matches_the_feature_path_on_every_site(small_training, monkeypatch):
    # the small stack's 156 train frames leave every site's 14 x 14 system
    # singular, so all 117 candidates of each learned kind fall back, and
    # the fallback's system, read from the moments, is the one fit_ridge
    # builds from extract_*_features (measured at most 1.6e-14 of max |w|)
    data = replace(small_training.data)
    fits = _count_fallback_fits(monkeypatch)
    for kind in LEARNED_KINDS:
        model_set = train_all_sites(data, kind)
        assert not model_set.failures
        assert len(fits) == 117
        fits.clear()
        for site in range(data.geometry.n_sites):
            _assert_same_choice(model_set.tune_results[site], _feature_path_tune(data, site, kind), rel_tol=1e-12)


def test_released_training_data_trains_the_learned_kinds_alone(small_training):
    data = replace(small_training.data)
    shape = data.image_shape
    data.release_train_block()
    assert data.train_images is None
    assert data.image_shape == shape
    for kind in ("square", "gaussian"):
        with pytest.raises(DataError, match="released"):
            train_all_sites(data, kind)
    with pytest.raises(DataError, match="released"):
        replace(data)
    # the learned kinds, their fallback included, read the moments alone
    for kind in LEARNED_KINDS:
        released = train_all_sites(data, kind)
        held = train_all_sites(replace(small_training.data), kind)
        for site in range(data.geometry.n_sites):
            _assert_same_result(released.tune_results[site], held.tune_results[site])


def test_preset_training_never_fits_from_features(preset_training, monkeypatch):
    # on both presets' acceptance stacks every (site, window) of both
    # learned kinds is solved by the nested factor and the elimination
    fits = _count_fallback_fits(monkeypatch)
    for data in preset_training.values():
        data = replace(data)
        for alpha in (0.0, 0.1):
            for kind in LEARNED_KINDS:
                assert not train_all_sites(data, kind, alpha=alpha).failures
    assert fits == []


# ------------------------------------------------------- fixed kinds

def _reference_fixed_tune(data, site, kind, s_grid):
    """Reference for the fixed kinds, site by site: the square_score /
    gaussian_score sums, unsupervised_threshold on the train scores and
    the elementwise fidelity on validation. Returns [(s, theta, fidelity)]
    per window, or raises what fails the site."""
    center = tuple(data.geometry.centers[site])
    shape = data.image_shape
    y_train = data.train_labels[:, site].astype(bool)
    y_val = data.val_labels[:, site]

    def cell(train_scores, val_scores):
        theta = unsupervised_threshold(train_scores[~y_train], train_scores[y_train])
        return theta, float(_reference_fidelity_curve(val_scores, y_val, [theta])[0])

    if kind == "gaussian":
        wmap = gaussian_weight_map(center, float(data.geometry.sigmas[site]), shape)
        return [(0, *cell(gaussian_score(data.train_images, wmap), gaussian_score(data.val_images, wmap)))]
    cells = [
        (s, *cell(square_score(data.train_images, center, s), square_score(data.val_images, center, s)))
        for s in s_grid
        if s >= 2 and window_fits(center, s, shape)
    ]
    if not cells:
        raise ConfigError(f"no window size in {tuple(s_grid)} fits site {site} at {center}")
    return cells


@pytest.mark.parametrize("kind, s_grid", [("square", (1, 3, 4, 6, 30)), ("gaussian", S_GRID)])
def test_fixed_pass_matches_the_per_site_scores(small_training, kind, s_grid):
    # site 1 has no window, site 5 dark-only validation labels, site 7
    # bright-only train labels; site 8's 3 x 3 window is constant in the
    # train frames and its validation labels are bright-only, so the
    # first failure, not the last, must name a square site's fault
    data = _with_broken_sites(small_training.data)
    train_images = data.train_images.copy()
    train_images[(slice(None), *window_slice(data.geometry.centers[7], 3, data.image_shape))] = 0.5
    train_labels = data.train_labels.copy()
    train_labels[:, 6] = 1
    val_labels = data.val_labels.copy()
    val_labels[:, 7] = 1
    data = replace(data, train_images=train_images, train_labels=train_labels, val_labels=val_labels)
    model_set = train_all_sites(data, kind, s_grid=s_grid)
    expected_failures = {
        4: "validation labels contain a single class",
        6: "both classes need at least two scores",
        7: "validation labels contain a single class",
    }
    if kind == "square":
        expected_failures[0] = f"no window size in {s_grid} fits site 0 at {tuple(data.geometry.centers[0])}"
        expected_failures[7] = "zero-variance score class, threshold undefined"
    assert model_set.failures == expected_failures
    for site in range(9):
        try:
            reference = _reference_fixed_tune(data, site, kind, s_grid)
        except (ConfigError, DataError) as exc:
            assert model_set.failures[site] == str(exc)
            continue
        result = model_set.tune_results[site]
        assert [(s, f) for s, _, f in result.search_trace] == [(s, f) for s, _, f in reference]
        # the sums add the same pixels in another order
        for (_, theta, _), (_, ref_theta, _) in zip(result.search_trace, reference):
            assert theta == pytest.approx(ref_theta, rel=1e-12, abs=1e-12)
    _assert_same_result(tune(data, 1, kind, s_grid=s_grid), model_set.tune_results[1])


@pytest.mark.parametrize("bad", [
    dict(kind="nearest-centroid"),
    dict(s_grid=()),
    dict(theta_grid=()),
    dict(alpha=-1.0),
])
def test_train_all_sites_rejects_a_bad_request_before_tuning(small_training, monkeypatch, bad):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a site was tuned")

    monkeypatch.setattr(train, "tune", must_not_run)
    monkeypatch.setattr(train, "_tune_all", must_not_run)
    request = dict(kind="mf-site") | bad
    with pytest.raises(ConfigError):
        train_all_sites(small_training.data, **request)


@pytest.mark.parametrize("kind", ["square", "gaussian"])
def test_fixed_kinds_never_build_the_moments(small_training, kind):
    # the 785 x 785 Gram serves only the learned kinds
    data = replace(small_training.data)
    train_all_sites(data, kind)
    assert "_moments" not in data.__dict__


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
