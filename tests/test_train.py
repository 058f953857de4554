import json
import threading
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
    apply_stats,
    classify_stack,
    count_complexity,
    default_config,
    extract_array_features,
    extract_site_features,
    fit_rls,
    fit_ridge,
    fit_stats,
    generate_dataset,
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
from mf_readout import pipeline, train
from mf_readout.filters import FilterModel, window_fits, window_index, window_slice
from mf_readout.locate import grid_shape, label_sums
from mf_readout.metrics import confusion, fidelity
from mf_readout.train import KIND_TOKENS, LEARNED_KINDS, S_GRID, _fidelity_curve


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
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        split_dataset(100, seed=-1)


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
    for bad in ((0.1, float("nan"), 0.1), (float("-inf"), 0.9, 0.1), (0.1, 0.9, float("inf"))):
        with pytest.raises(ConfigError, match="theta grid must be finite"):
            theta_grid_default(*bad)


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


def _cells(result):
    """Every (s, theta, fidelity) cell a TuneResult scored, window by window."""
    return [
        (int(s), t, f)
        for s, ts, fs in zip(result.windows, result.thetas.tolist(), result.fidelities.tolist())
        for t, f in zip(ts, fs)
    ]


def test_tune_prefers_smallest_window_and_threshold():
    data = _separable_data()
    result = tune(data, 0, "mf-site", s_grid=(3, 4, 5), theta_grid=(0.2, 0.5, 0.8))
    # every cell separates perfectly, so the first candidate wins outright
    assert result.best_s == 3
    assert result.best_theta == 0.2
    assert result.val_fidelity == pytest.approx(1.0)
    assert len(_cells(result)) == 3 * 3


def test_tune_gaussian_is_a_single_candidate():
    data = _separable_data()
    result = tune(data, 0, "gaussian")
    assert result.best_s == 0
    assert result.weights is None
    assert len(_cells(result)) == 1


def test_tune_square_searches_windows_only():
    data = _separable_data()
    result = tune(data, 0, "square", s_grid=(3, 4))
    assert result.best_s in (3, 4)
    assert len(_cells(result)) == 2  # one threshold per window, not a grid


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
    assert all(s == 3 for s, _, _ in _cells(result))


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
        neighbors = neighbor_sites(rows, cols, site)
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

    def spy(data, window, site, pix, nbr, alpha):
        calls.append(len(pix) + len(nbr))
        return fit(data, window, site, pix, nbr, alpha)

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


# ------------------------------------------------------- array shapes

SHAPE_GRID = (2, 3, 5, 8, 11, 12)


# Every window of the grid fits every site at origin (8, 8). At (5.4, 6.6)
# window 12 leaves the frame above the top row, whose largest window is
# 11; at (10.6, 9.4) windows 11 and 12 leave it below the bottom row,
# whose largest is 8. Each largest window is one stack of nested solves.
# The frame grows by one pitch per row and column, so at every whole
# pitch the edge sites keep these margins.
SHAPES = [
    (1, 1, (8.0, 8.0), {12}), (1, 3, (8.0, 8.0), {12}), (2, 2, (8.0, 8.0), {12}),
    (2, 4, (5.4, 6.6), {11, 12}), (3, 2, (10.6, 9.4), {8, 12}), (4, 4, (5.4, 6.6), {11, 12}),
]
PITCHES = (6, 5, 7)


def _shape_params(with_largest):
    """SHAPES at every pitch, the 6 px cases under their plain ids."""
    params = []
    for pitch in PITCHES:
        for i, (rows, cols, origin, largest) in enumerate(SHAPES):
            values, tag = (rows, cols, origin), f"{rows}-{cols}-origin{i}"
            if with_largest:
                values, tag = (*values, largest), f"{tag}-largest{i}"
            params.append(pytest.param(*values, pitch, id=tag if pitch == 6 else f"{tag}-pitch{pitch}"))
    return params


def _shape_training(rows, cols, origin, pitch):
    """TrainingData and normalized test frames of a rows x cols array at
    the given pitch on frames of (16 + pitch(rows - 1)) x (16 + pitch(cols
    - 1)): 600 frames, true-state labels and the true centers, so only
    training is tested."""
    geometry = replace(default_config().geometry, rows=rows, cols=cols, spacing_px=pitch, origin_px=origin)
    config = default_config(
        n_images=600, seed=3, geometry=geometry,
        image_height=16 + pitch * (rows - 1), image_width=16 + pitch * (cols - 1),
    )
    stack = generate_dataset(config)
    split = split_dataset(600, seed=0)
    norm = apply_stats(stack.images, fit_stats(stack.images[split.train_idx]))
    data = TrainingData(
        norm[split.train_idx], stack.truth[split.train_idx], norm[split.val_idx], stack.truth[split.val_idx],
        SiteGeometry(geometry.site_centers(), np.full(rows * cols, geometry.psf_sigma_px), np.ones(rows * cols)),
    )
    return data, norm[split.test_idx]


@pytest.mark.parametrize("rows, cols, origin, largest, pitch", _shape_params(with_largest=True))
def test_learned_kinds_match_the_feature_path_across_array_shapes(rows, cols, origin, largest, pitch):
    data, test = _shape_training(rows, cols, origin, pitch)
    centers = data.geometry.centers
    shape = data.image_shape
    assert {max(s for s in SHAPE_GRID if window_fits(c, s, shape)) for c in centers} == largest
    for kind in LEARNED_KINDS:
        model_set = train_all_sites(data, kind, SHAPE_GRID)
        assert not model_set.failures
        for site in range(rows * cols):
            reference = _feature_path_tune(data, site, kind, SHAPE_GRID)
            _assert_same_choice(model_set.tune_results[site], reference, rel_tol=1e-12)
        models = model_set.ordered()
        single = np.vstack([classify_stack(models, frame) for frame in test])
        assert np.array_equal(single, classify_stack(models, test)), kind
        for model in models:
            alone = np.concatenate([model.scores(frame) for frame in test])
            assert alone.tobytes() == model.scores(test).tobytes(), (kind, model.site)


@pytest.mark.parametrize("rows, cols, origin, pitch", _shape_params(with_largest=False))
def test_the_helpers_gram_completes_to_the_lazy_moments_across_array_shapes(rows, cols, origin, pitch):
    # the moments release_train_block completes from the frames and their
    # label sums, as the pipeline's shuffle does, against the moments
    # TrainingData builds on first use
    lazy = _shape_training(rows, cols, origin, pitch)[0]
    released = replace(lazy)
    x = released.train_images
    released.release_train_block(label_sums(x, released.train_labels))
    assert released.train_images is None
    for got, want in zip(released._moments, lazy._moments):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
    assert _cells(batched) == _cells(alone)


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

    def non_finite_weights(data, window, sites, nbr, alpha):
        # site 3 at every window; site 5, which its validation labels fail
        # at the first window already, only at the last (1 + 5 * 5 pixels
        # and bias)
        weights = learned_weights(data, window, sites, nbr, alpha)
        weights[(sites == 2) | ((sites == 4) & (window.pix.shape[1] == 1 + 5 * 5))] = np.nan
        return weights

    monkeypatch.setattr(train, "_learned_weights", non_finite_weights)
    model_set = train_all_sites(data, "mf-site", **grids)
    monkeypatch.undo()
    assert model_set.failures == {
        0: "no window size in (3, 4, 5) fits site 0 at (0.0, 0.0)",
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
    systems = train._window_systems(data, (3, 5, 8), alpha)
    fits = _count_fallback_fits(monkeypatch)
    for s in (3, 5, 8):
        assert systems[s].fits == tuple(range(9))
        got = train._learned_weights(data, systems[s], sites, nbr, alpha)
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
    window = train._window_systems(data, (s,), 0.0)[s]
    assert train._full_rank(window.pivots).tolist() == [True] * 8 + [False]
    fits = _count_fallback_fits(monkeypatch)
    weights = train._learned_weights(data, window, sites, nbr, 0.0)
    # site 9 for its A, every other site for its Schur complement
    assert fits == [s * s + 8 + 1] * 9
    site_weights = train._learned_weights(data, window, sites, _no_neighbors(9), 0.0)
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
    assert sorted(data._systems) == [(grids["s_grid"], a) for a in (0.0, 0.1)]


@pytest.mark.parametrize("first", [dict(s_grid=(2, 3, 4, 5)), dict(alpha=0.1)])
def test_an_earlier_request_does_not_change_a_later_ones_bits(small_training, first):
    # with the grid (2, 3, 4, 5), window 5's factor solves sizes 2-5 of
    # every site; the library grid's window 14 is singular on this stack,
    # so a fresh build fits those sizes by the fallback instead
    data = replace(small_training.data)
    train_all_sites(data, "mf-site", **first)
    after = train_all_sites(data, "mf-array")
    alone = train_all_sites(replace(small_training.data), "mf-array")
    assert sorted(after.tune_results) == sorted(alone.tune_results) == list(range(9))
    for site in range(9):
        _assert_same_result(after.tune_results[site], alone.tune_results[site])
        assert after.models[site].weights.tobytes() == alone.models[site].weights.tobytes()


@pytest.mark.parametrize("kind", ["mf-site", "mf-array"])
@pytest.mark.parametrize("alpha", [0.0, 0.1])
def test_learned_kinds_skip_window_sizes_that_fit_no_site(small_training, kind, alpha):
    # s = 30 leaves the frame
    grids = dict(theta_grid=(0.3, 0.5, 0.7), alpha=alpha)
    got = train_all_sites(replace(small_training.data), kind, s_grid=(3, 30), **grids)
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
    systems = train._window_systems(data, S_GRID, 0.0)
    for s in S_GRID:
        products = systems[s]
        ga = gram[:, :p] @ products.a_s
        assert products.fits == tuple(range(9))
        assert np.abs(products.ga - ga).max() <= 1e-13 * np.abs(ga).max()
        assert np.allclose(products.aga, products.a_s.T @ ga[:p], rtol=1e-13, atol=0)
        assert np.array_equal(products.ar, products.a_s.T @ cross[:p])


def _per_size_systems(data, window, s, alpha):
    """Reference for one window size: every fitting site's mf-site system
    over its row-major window pixels and the bias, with alpha on its
    diagonal, and its right-hand sides, against the window's products.
    Returns (pix, systems, rhs)."""
    gram, cross = data._moments
    sites = np.array(window.fits, dtype=np.intp)
    p = gram.shape[0] - 1
    pix = np.array([np.append(window_index(data.geometry.centers[k], s, data.image_shape), p) for k in sites])
    rhs = np.concatenate([cross[pix, sites[:, None]][..., None], window.ga[pix]], axis=2)
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
    windows = train._window_systems(data, s_grid, alpha)
    for s in s_grid:
        got = windows[s]
        pix, systems, rhs = _per_size_systems(data, got, s, alpha)
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
    systems = train._window_systems(data, s_grid, 0.0)
    fits = _count_fallback_fits(monkeypatch)
    for s in s_grid:
        assert train._full_rank(systems[s].pivots).tolist() == [True] * 8 + [False]
        for nbr in (_no_neighbors(9), _all_neighbors(9)):
            weights = train._learned_weights(data, systems[s], sites, nbr, 0.0)
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
    fits = {s: window.fits for s, window in train._window_systems(data, s_grid, alpha).items()}
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
    x = data.train_images
    data.release_train_block(label_sums(x, data.train_labels))
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
        if window_fits(center, s, shape)
    ]
    if not cells:
        raise ConfigError(f"no window size in {tuple(s_grid)} fits site {site} at {tuple(map(float, center))}")
    return cells


@pytest.mark.parametrize("kind, s_grid", [("square", (3, 4, 6, 30)), ("gaussian", S_GRID)])
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
        expected_failures[0] = f"no window size in {s_grid} fits site 0 at (0.0, 0.0)"
        expected_failures[7] = "zero-variance score class, threshold undefined"
    assert model_set.failures == expected_failures
    for site in range(9):
        try:
            reference = _reference_fixed_tune(data, site, kind, s_grid)
        except (ConfigError, DataError) as exc:
            assert model_set.failures[site] == str(exc)
            continue
        result = model_set.tune_results[site]
        assert [(s, f) for s, _, f in _cells(result)] == [(s, f) for s, _, f in reference]
        # the sums add the same pixels in another order
        for (_, theta, _), (_, ref_theta, _) in zip(_cells(result), reference):
            assert theta == pytest.approx(ref_theta, rel=1e-12, abs=1e-12)
    _assert_same_result(tune(data, 1, kind, s_grid=s_grid), model_set.tune_results[1])


@pytest.mark.parametrize("bad", [
    dict(kind="nearest-centroid"),
    dict(s_grid=()),
    dict(theta_grid=()),
    dict(alpha=-1.0),
    dict(alpha=float("nan")),
    dict(alpha=float("inf")),
    dict(s_grid=(1, 3)),
    dict(kind="square", s_grid=(1,)),
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


@pytest.mark.parametrize("preset", ["default", "crosstalk"])
def test_a_fixed_model_carries_the_threshold_of_its_own_train_scores(preset_training_3000, preset):
    # tuning scores a fixed candidate with the saved model's span kernel,
    # so theta is the intersection of model.scores(train) bit for bit
    data = preset_training_3000[preset]
    for kind in ("square", "gaussian"):
        for site, model in train_all_sites(data, kind).models.items():
            scores = model.scores(data.train_images)
            bright = data.train_labels[:, site].astype(bool)
            assert model.theta == unsupervised_threshold(scores[~bright], scores[bright]), (kind, site)


@pytest.mark.parametrize("preset", ["default", "crosstalk"])
def test_tuned_validation_fidelity_is_the_saved_models_readout(preset_training_3000, preset):
    # the learned kinds' validation product flips no decision of the
    # saved model's kernel, and the fixed kinds score with that kernel
    data = preset_training_3000[preset]
    for kind in KIND_TOKENS:
        model_set = train_all_sites(data, kind)
        for site, model in model_set.models.items():
            counts = confusion(model.predict(data.val_images), data.val_labels[:, site])
            assert model_set.tune_results[site].val_fidelity == fidelity(counts), (kind, site)


def test_the_moments_take_a_one_class_train_site(small_training):
    # only the difference images need both classes of a site's labels; the
    # moments of a bright-only train site are its column sums
    labels = small_training.data.train_labels.copy()
    labels[:, 6] = 1
    data = replace(small_training.data, train_labels=labels)
    cross = data._moments[1]
    np.testing.assert_allclose(cross[:-1, 6], data.train_images.reshape(len(labels), -1).sum(axis=0), rtol=1e-12)
    assert cross[-1, 6] == len(labels)


def test_a_square_only_shuffle_starts_no_helper_and_builds_no_moments(small_training, monkeypatch):
    # the moments serve only the learned kinds, and no shuffle starts a
    # thread
    def must_not_run(*args, **kwargs):
        raise AssertionError("the moments were built")

    stack, started = small_training.stack, []
    before = set(threading.enumerate())
    locate_sites = pipeline.locate_sites

    def located(*args):
        started.append(set(threading.enumerate()) - before)
        return locate_sites(*args)

    monkeypatch.setattr(pipeline, "locate_sites", located)
    monkeypatch.setattr(train.TrainingData, "_complete_moments", must_not_run)
    run = pipeline.RunConfig(
        sim=stack.config, output_dir="unused", exposure_sweep_ms=(stack.config.exposure_ms,),
        kinds=("square",), label_source="truth",
    )
    _, _, _, sets, _ = pipeline._one_shuffle(run, stack.images, stack.truth, 0)
    assert list(sets) == ["square"]
    assert started == [set()]


@pytest.mark.parametrize("s_grid, message", [
    ((3, 3), r"window size\(s\) 3 repeated in \(3, 3\)"),
    ((5, 3, 4, 3, 5), r"window size\(s\) 3, 5 repeated in \(5, 3, 4, 3, 5\)"),
    ((), "empty window grid"),
])
def test_train_all_sites_rejects_a_grid_that_repeats_or_lacks_a_size(small_training, s_grid, message):
    # a repeated size would be scored again as another candidate
    for kind in KIND_TOKENS:
        with pytest.raises(ConfigError, match=message):
            train_all_sites(small_training.data, kind, s_grid=s_grid)


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


def test_load_models_refuses_two_files_for_one_kind_and_site(tmp_path):
    model = FilterModel(kind="square", site=0, center=(4.0, 4.0), s=3, theta=3.0, image_shape=(8, 8))
    (tmp_path / "square_site1.json").write_text(json.dumps(model.to_dict()))
    (tmp_path / "square_site1 copy.json").write_text(json.dumps({**model.to_dict(), "theta": 9.0}))
    with pytest.raises(DataError, match=r"square_site1 copy\.json and .*square_site1\.json both hold the square model of site 1"):
        load_models(tmp_path)


def test_ordered_refuses_partial_sets():
    model = FilterModel(kind="square", site=0, center=(4.0, 4.0), s=3, theta=1.0, image_shape=(8, 8))
    broken = ModelSet(kind="square", models={0: model}, failures={1: "no fit"})
    assert broken.n_sites == 2
    with pytest.raises(DataError, match="square model set has failed sites: site 2: no fit"):
        broken.ordered()


# --------------------------------------------------------- complexity

def test_count_complexity_small_oracle():
    sites = [(6.0, 6.0), (6.0, 12.0)]
    square = ModelSet(kind="square", models={
        i: FilterModel(kind="square", site=i, center=c, s=5, theta=1.0, image_shape=(18, 18))
        for i, c in enumerate(sites)
    })
    assert count_complexity(square) == {
        "kind": "square", "n_trainable": 0, "n_multiplications": 0, "n_nonlinear": 0,
    }

    weights = np.array([1.0, 0.0, 2.0, 0.0, 3.0])
    mf = ModelSet(kind="mf-site", models={
        i: FilterModel(kind="mf-site", site=i, center=c, s=2, theta=0.5, weights=weights, image_shape=(18, 18))
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
