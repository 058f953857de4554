import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mf_readout import (
    ConfigError,
    DataError,
    KINDS,
    FilterModel,
    apply_stats,
    classify_stack,
    extract_array_features,
    extract_site_features,
    gaussian_score,
    gaussian_weight_map,
    generate_dataset,
    neighbor_sites,
    square_score,
    train_all_sites,
    unsupervised_threshold,
)
from mf_readout.filters import BLOCK_FRAMES, window_fits, window_origin, window_slice
from mf_readout.util import round_half_up


# ------------------------------------------------------------ windows

def test_window_origin_rounds_half_up():
    assert window_origin((5.4, 7.6), 3) == (4, 7)
    assert window_origin((5.4, 7.6), 2) == (4, 7)
    # exact .5 centers round up before the window is laid out
    assert window_origin((5.5, 7.5), 2) == (5, 7)
    assert window_origin((5.5, 7.5), 3) == (5, 7)


def test_window_slice_and_fits():
    rs, cs = window_slice((5.0, 5.0), 4, (12, 12))
    assert (rs.start, rs.stop, cs.start, cs.stop) == (3, 7, 3, 7)
    assert window_fits((1.0, 5.0), 3, (12, 12))
    assert not window_fits((0.4, 5.0), 3, (12, 12))
    with pytest.raises(ConfigError):
        window_slice((0.4, 5.0), 3, (12, 12))
    with pytest.raises(ConfigError):
        window_origin((5.0, 5.0), 0)


# ------------------------------------------------------------- scores

def test_square_score_sums_window():
    img = np.arange(64, dtype=float).reshape(8, 8)
    # rows 3..4, cols 3..4 for s=2 at center (3.9, 3.7)
    expected = img[3:5, 3:5].sum()
    assert square_score(img, (3.9, 3.7), 2) == expected
    stack = np.stack([img, 2.0 * img])
    assert np.allclose(square_score(stack, (3.9, 3.7), 2), [expected, 2 * expected])


def test_square_score_is_scale_covariant():
    rng = np.random.default_rng(1)
    imgs = rng.normal(size=(5, 10, 10))
    a = square_score(imgs, (4.5, 4.5), 3)
    b = square_score(3.0 * imgs, (4.5, 4.5), 3)
    assert np.allclose(b, 3.0 * a)


def test_gaussian_weight_map_matches_formula():
    sigma, cutoff = 1.8, 1e-3
    w = gaussian_weight_map((14.0, 14.0), sigma, (28, 28), cutoff)
    rr = np.arange(28, dtype=float)[:, None] - 14.0
    cc = np.arange(28, dtype=float)[None, :] - 14.0
    analytic = np.exp(-(rr**2 + cc**2) / (2 * sigma**2))
    keep = analytic > cutoff
    assert np.array_equal(w > 0, keep)
    assert np.allclose(w[keep], analytic[keep])
    assert w[14, 14] == 1.0
    # reach at this sigma: 6 px along the axes, nothing at 7
    assert w[14, 20] > 0 and w[14, 21] == 0.0
    d_cut = sigma * math.sqrt(2.0 * math.log(1.0 / cutoff))
    assert 6.0 < d_cut < 7.0


def test_gaussian_weight_map_keeps_subpixel_center():
    w = gaussian_weight_map((13.35, 12.6), 2.0, (28, 28))
    r, c = np.unravel_index(np.argmax(w), w.shape)
    assert (r, c) == (13, 13)
    assert w.max() < 1.0  # unit amplitude only exactly on the center


@given(st.floats(min_value=1e-6, max_value=0.5), st.floats(min_value=1e-6, max_value=0.5))
def test_gaussian_weight_map_cutoff_monotone(c1, c2):
    lo, hi = sorted((c1, c2))
    w_lo = gaussian_weight_map((9.0, 9.0), 2.2, (19, 19), lo)
    w_hi = gaussian_weight_map((9.0, 9.0), 2.2, (19, 19), hi)
    assert np.all((w_hi > 0) <= (w_lo > 0))


def test_gaussian_score_is_weighted_sum():
    rng = np.random.default_rng(2)
    imgs = rng.normal(size=(4, 12, 12))
    w = gaussian_weight_map((6.0, 6.0), 1.5, (12, 12))
    scores = gaussian_score(imgs, w)
    assert np.allclose(scores, [(im * w).sum() for im in imgs])
    with pytest.raises(DataError):
        gaussian_score(imgs, np.ones((5, 5)))


# ---------------------------------------------------------- threshold

def test_unsupervised_threshold_equal_variance_is_midpoint_root():
    # sample moments are exactly (0, 1) and (4, 1): the densities cross at 2
    theta = unsupervised_threshold([-1.0, 1.0], [3.0, 5.0])
    assert theta == pytest.approx(2.0)


def test_unsupervised_threshold_on_sampled_gaussians():
    rng = np.random.default_rng(3)
    theta = unsupervised_threshold(rng.normal(0, 1, 4000), rng.normal(4, 1, 4000))
    assert abs(theta - 2.0) < 0.1


def test_unsupervised_threshold_unequal_variance_density_equality():
    dark = np.array([-1.0, 1.0])          # mean 0, std 1
    bright = np.array([4.0, 8.0])         # mean 6, std 2
    theta = unsupervised_threshold(dark, bright)
    assert 0.0 < theta < 6.0

    def density(x, m, s):
        return math.exp(-((x - m) ** 2) / (2 * s * s)) / (s * math.sqrt(2 * math.pi))

    assert density(theta, 0.0, 1.0) == pytest.approx(density(theta, 6.0, 2.0), abs=1e-6)


def test_unsupervised_threshold_degenerate_inputs():
    with pytest.raises(DataError):
        unsupervised_threshold([0.0], [1.0, 2.0])
    with pytest.raises(DataError):
        unsupervised_threshold([1.0, 1.0], [2.0, 3.0])
    # identical populations: fall back to the midpoint of the means
    assert unsupervised_threshold([0.0, 2.0], [0.0, 2.0]) == pytest.approx(1.0)


# ---------------------------------------------------------- neighbors

def test_neighbor_sites_small_array_uses_everyone():
    assert neighbor_sites(3, 3, 4) == (0, 1, 2, 3, 5, 6, 7, 8)
    assert neighbor_sites(3, 3, 0) == (1, 2, 3, 4, 5, 6, 7, 8)


def test_neighbor_sites_large_array_uses_adjacent_ring():
    assert neighbor_sites(4, 4, 0) == (1, 4, 5)
    assert neighbor_sites(4, 4, 5) == (0, 1, 2, 4, 6, 8, 9, 10)
    with pytest.raises(ConfigError):
        neighbor_sites(4, 4, 16)


# ----------------------------------------------------------- features

def test_site_feature_layout():
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    feats = extract_site_features(img[None], (0.5, 0.5), 2)
    assert feats.shape == (5, 1)
    assert feats[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0, 1.0]  # pixels row-major, bias last


def test_array_feature_layout():
    img = np.zeros((1, 8, 16))
    img[0, 3:5, 3:5] = [[1.0, 2.0], [3.0, 4.0]]
    img[0, 3:5, 11:13] = 6.0
    centers = np.array([[3.9, 3.9], [3.9, 11.9]])
    feats = extract_array_features(img, centers, 0, 2, neighbors=(1,))
    assert feats.shape == (6, 1)
    assert feats[:4, 0].tolist() == [1.0, 2.0, 3.0, 4.0]
    assert feats[4, 0] == pytest.approx(6.0)  # neighbor window mean
    assert feats[5, 0] == 1.0


def test_feature_count_scales_with_neighbors():
    imgs = np.zeros((3, 30, 30))
    centers = np.array([[8.0, 8.0], [8.0, 14.0], [8.0, 20.0]])
    feats = extract_array_features(imgs, centers, 1, 3, neighbors=(0, 2))
    assert feats.shape == (3 * 3 + 2 + 1, 3)


# ------------------------------------------------------------- models

def _cross(n=40, seed=4):
    rng = np.random.default_rng(seed)
    return rng.normal(1.0, 0.3, size=(n, 20, 20))


def test_square_model_scores_and_predictions():
    imgs = _cross()
    model = FilterModel(kind="square", site=0, center=(9.6, 10.2), s=4, theta=16.0, image_shape=(20, 20))
    scores = model.scores(imgs)
    assert np.allclose(scores, square_score(imgs, (9.6, 10.2), 4))
    assert np.array_equal(model.predict(imgs), (scores >= 16.0).astype(np.uint8))


def test_gaussian_model_matches_weight_map():
    imgs = _cross()
    model = FilterModel(
        kind="gaussian", site=0, center=(9.5, 9.5), s=0, theta=1.0, sigma=1.7,
        image_shape=(20, 20),
    )
    w = gaussian_weight_map((9.5, 9.5), 1.7, (20, 20))
    assert np.allclose(model.scores(imgs), gaussian_score(imgs, w))


def test_mf_site_model_is_linear_in_features():
    imgs = _cross()
    rng = np.random.default_rng(5)
    weights = rng.normal(size=10)
    model = FilterModel(
        kind="mf-site", site=0, center=(9.0, 9.0), s=3, theta=0.5, weights=weights, image_shape=(20, 20)
    )
    feats = extract_site_features(imgs, (9.0, 9.0), 3)
    assert np.allclose(model.scores(imgs), weights @ feats)


@st.composite
def _linear_cases(draw):
    """A model of any kind, frames of either dtype, and its reference scores.

    Window origins are drawn with the image edges as likely as any other
    position, and one neighbor window is drawn on top of the site window.
    """
    kind = draw(st.sampled_from(KINDS))
    h, w = draw(st.integers(6, 14)), draw(st.integers(6, 14))
    s = draw(st.integers(1, min(h, w, 5)))

    def center(r0=None, c0=None):
        if r0 is None:
            r0 = draw(st.one_of(st.just(0), st.just(h - s), st.integers(0, h - s)))
            c0 = draw(st.one_of(st.just(0), st.just(w - s), st.integers(0, w - s)))
        r, c = r0 + s // 2, c0 + s // 2
        # the largest float below 0.5 still rounds r + frac up to r + 0.5,
        # which the half-up rule puts in the next pixel; keep the center in
        # the pixel whose window was drawn
        frac = st.floats(-0.5, 0.5, exclude_max=True)
        return (
            r + draw(frac.filter(lambda f: round_half_up(r + f) == r)),
            c + draw(frac.filter(lambda f: round_half_up(c + f) == c)),
        )

    site_center = center()
    r0, c0 = window_origin(site_center, s)
    over = center(min(max(r0 + draw(st.integers(-1, 1)), 0), h - s),
                  min(max(c0 + draw(st.integers(-1, 1)), 0), w - s))
    all_centers = np.array([site_center, over] + [center() for _ in range(draw(st.integers(0, 2)))])
    neighbors = tuple(range(1, len(all_centers)))

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    m = draw(st.sampled_from([None, 1, 7]))
    images = rng.normal(1.0, 2.0, size=(h, w) if m is None else (m, h, w)).astype(dtype)
    c = draw(st.sampled_from([1.0, 0.5, 3.0]))

    fields = dict(kind=kind, site=0, center=site_center, s=s, image_shape=(h, w))
    if kind == "square":
        ref = square_score(images, site_center, s)
    elif kind == "gaussian":
        sigma = draw(st.floats(0.5, 3.0))
        fields.update(s=0, sigma=sigma)
        ref = gaussian_score(images, gaussian_weight_map(site_center, sigma, (h, w)))
    else:
        weights = rng.normal(size=s * s + (len(neighbors) if kind == "mf-array" else 0) + 1)
        if kind == "mf-site":
            feats = extract_site_features(images, site_center, s, c)
        else:
            feats = extract_array_features(images, all_centers, 0, s, neighbors, c)
            fields.update(neighbors=neighbors, all_centers=all_centers)
        # move the median score onto theta = 0.5, so both outcomes occur
        weights[-1] -= (np.median(weights @ feats) - 0.5) / c
        fields.update(weights=weights, bias_c=c)
        ref = weights @ feats
    ref = np.atleast_1d(np.asarray(ref, dtype=np.float64))
    theta = 0.5 if kind.startswith("mf") else float(np.median(ref))
    return FilterModel(theta=theta, **fields), images, ref


@given(_linear_cases())
def test_full_frame_map_scores_equal_the_reference_paths(case):
    model, images, ref = case
    tol = 1e-9 * max(float(np.abs(ref).max()), 1e-300)
    scores = model.scores(images)
    assert scores.shape == ref.shape
    assert np.abs(scores - ref).max() <= tol
    clear = np.abs(ref - model.theta) > tol
    assert np.array_equal(model.predict(images)[clear], (ref >= model.theta)[clear])


def _full_map_scores(model, images):
    """The full-frame product the span replaces: frame.ravel() @ w + b."""
    rows = np.asarray(images, dtype=np.float64).reshape(-1, np.prod(images.shape[-2:]))
    w, b = model.linear_map()
    return rows @ w + b


def _assert_scores_like_the_full_map(model, images):
    full = _full_map_scores(model, images)
    tol = 1e-12 * max(float(np.abs(full).max()), 1e-300)
    scores = model.scores(images)
    assert scores.dtype == np.float64 and scores.shape == full.shape
    assert np.abs(scores - full).max() <= tol
    clear = np.abs(full - model.theta) > tol
    assert np.array_equal(model.predict(images)[clear], (full >= model.theta)[clear])


@given(_linear_cases())
def test_span_holds_every_nonzero_weight(case):
    model, images, _ = case
    w, b = model.linear_map()
    lo, hi, w_span, b_span = model.span
    assert w.size == np.prod(images.shape[-2:])
    assert 0 <= lo < hi <= w.size
    assert not w[:lo].any() and not w[hi:].any()
    assert w[lo] != 0.0 and w[hi - 1] != 0.0
    assert np.array_equal(w_span, w[lo:hi]) and b_span == b
    # the span is a view of the map, both built once with the model
    assert np.shares_memory(w_span, w) and model.linear_map()[0] is w


@given(_linear_cases())
def test_span_scores_equal_the_full_map_product(case):
    model, images, _ = case
    _assert_scores_like_the_full_map(model, images)


@pytest.mark.parametrize("kind", KINDS)
def test_span_scores_take_float32_single_and_strided_frames(kind):
    rng = np.random.default_rng(8)
    base = rng.normal(1.0, 0.3, size=(9, 20, 40))
    centers = np.array([[6.0, 6.0], [6.0, 12.0], [13.0, 9.0]])
    fields = dict(kind=kind, site=0, center=(6.0, 6.0), s=4, theta=0.5, image_shape=(20, 20))
    if kind == "gaussian":
        fields.update(s=0, sigma=1.8, theta=4.0)
    elif kind == "square":
        fields.update(theta=16.0)
    else:
        weights = rng.normal(size=16 + (2 if kind == "mf-array" else 0) + 1)
        fields.update(weights=weights)
        if kind == "mf-array":
            fields.update(neighbors=(1, 2), all_centers=centers)
    model = FilterModel(**fields)
    strided = base[:, :, ::2]
    assert not strided.flags.c_contiguous
    for images in (
        strided,
        base[::2, :, :20],
        np.ascontiguousarray(strided).astype(np.float32),
        strided[3],
        strided[3].astype(np.float32),
    ):
        _assert_scores_like_the_full_map(model, images)
    assert model.scores(strided[3]).shape == (1,)


def test_all_zero_map_has_an_empty_span_and_scores_its_bias():
    weights = np.zeros(10)
    weights[-1] = 0.3
    model = FilterModel(
        kind="mf-site", site=0, center=(6.0, 6.0), s=3, theta=0.5, weights=weights, bias_c=2.0,
        image_shape=(20, 20),
    )
    lo, hi, w_span, b = model.span
    assert (lo, hi, w_span.size, b) == (0, 0, 0, 0.6)
    imgs = _cross(5)
    for images in (imgs, imgs.astype(np.float32), imgs[0]):
        scores = model.scores(images)
        assert scores.dtype == np.float64
        assert np.array_equal(scores, np.full(scores.shape, 0.6))
        assert np.array_equal(model.predict(images), np.ones(scores.shape, np.uint8))


def test_filter_model_is_frozen():
    centers = np.array([[6.0, 6.0], [6.0, 12.0]])
    model = FilterModel(
        kind="mf-array", site=0, center=(6.0, 6.0), s=3, theta=0.5,
        weights=np.arange(11.0), neighbors=(1,), all_centers=centers, image_shape=(20, 20),
    )
    for f in dataclasses.fields(model):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, f.name, getattr(model, f.name))
    # the arrays behind the map cannot change under it either
    w, _ = model.linear_map()
    for arr in (model.weights, model.all_centers, w):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # the model holds its own copies of what it was built from
    centers[0, 0] = 9.0
    assert model.all_centers[0, 0] == 6.0


def test_model_round_trip_all_kinds():
    centers = np.array([[6.0, 6.0], [6.0, 12.0]])
    models = [
        FilterModel(kind="square", site=0, center=(6.0, 6.0), s=6, theta=3.0, image_shape=(20, 20)),
        FilterModel(
            kind="gaussian", site=1, center=(6.0, 12.0), s=0, theta=1.5, sigma=2.1,
            image_shape=(20, 20),
        ),
        FilterModel(
            kind="mf-site", site=0, center=(6.0, 6.0), s=3, theta=0.4,
            weights=np.arange(10.0), image_shape=(20, 20),
        ),
        FilterModel(
            kind="mf-array", site=1, center=(6.0, 12.0), s=3, theta=0.6,
            weights=np.arange(11.0), neighbors=(0,), all_centers=centers,
            image_shape=(20, 20),
        ),
    ]
    for model in models:
        back = FilterModel.from_dict(model.to_dict())
        assert back.kind == model.kind
        assert back.site == model.site
        assert back.s == model.s
        assert back.theta == model.theta
        assert back.image_shape == model.image_shape == (20, 20)
        imgs = _cross(10)
        assert np.allclose(back.scores(imgs), model.scores(imgs))


def test_model_dict_uses_one_based_site():
    model = FilterModel(kind="square", site=3, center=(6.0, 6.0), s=4, theta=1.0, image_shape=(20, 20))
    assert model.to_dict()["site"] == 4


def test_model_dict_with_a_key_it_does_not_write_is_rejected():
    d = FilterModel(kind="square", site=0, center=(6.0, 6.0), s=4, theta=1.0, image_shape=(20, 20)).to_dict()
    d["image_shap"] = d.pop("image_shape")
    with pytest.raises(DataError, match="unknown filter model key.*'image_shap'"):
        FilterModel.from_dict(d)


def test_a_model_reads_only_frames_of_the_shape_it_was_trained_on():
    model = FilterModel(kind="square", site=0, center=(13.0, 13.0), s=4, theta=1.0, image_shape=(28, 28))
    fits = dataclasses.replace(model, image_shape=(40, 40))
    # scores, one-frame and multi-frame predict, and classify_stack on one
    # frame and in blocks, also behind a model that reads these frames
    readers = (
        model.scores, model.predict,
        lambda x: classify_stack([model], x), lambda x: classify_stack([fits, model], x),
    )
    for frames in (np.ones((300, 40, 40)), np.ones((2, 40, 40)), np.ones((1, 40, 40)), np.ones((40, 40))):
        for read in readers:
            with pytest.raises(DataError, match=r"trained on \(28, 28\) frames, got \(40, 40\)"):
                read(frames)
    assert model.scores(np.ones((2, 28, 28))).tolist() == [16.0, 16.0]
    assert fits.scores(np.ones((2, 40, 40))).tolist() == [16.0, 16.0]
    # every model records its shape, and a model dict without one is damaged
    with pytest.raises(ConfigError, match="image shape"):
        dataclasses.replace(model, image_shape=None)
    d = model.to_dict()
    assert d["image_shape"] == [28, 28]
    del d["image_shape"]
    with pytest.raises(DataError, match="lacks the key 'image_shape'"):
        FilterModel.from_dict(d)


def test_classify_stack_column_order():
    imgs = _cross(12)
    models = [
        FilterModel(kind="square", site=0, center=(6.0, 6.0), s=3, theta=8.0, image_shape=(20, 20)),
        FilterModel(kind="square", site=1, center=(12.0, 12.0), s=3, theta=9.5, image_shape=(20, 20)),
    ]
    for stack in (imgs, imgs.astype(np.float32)):
        preds = classify_stack(models, stack)
        assert preds.shape == (12, 2)
        for j, model in enumerate(models):
            assert np.array_equal(preds[:, j], model.predict(stack))


@pytest.fixture(scope="module")
def preset_readouts(truth_training, crosstalk_study):
    """(model sets, normalized frames) of both presets' trained filters:
    every frame of the default truth_training stack, and 1000 fresh
    crosstalk frames read with the crosstalk study's shuffle-0 filters."""
    default_sets = {kind: train_all_sites(truth_training.data, kind) for kind in KINDS}
    fresh = generate_dataset(dataclasses.replace(crosstalk_study.config, n_images=1000, seed=903))
    return [
        (default_sets, truth_training.norm),
        (crosstalk_study.sets0, apply_stats(fresh.images, crosstalk_study.stats0)),
    ]


def test_one_frame_readout_equals_the_batched_readout(preset_readouts):
    # the readout benchmark's rule: classify_stack on one frame gives, bit
    # for bit, the row the batched call gives for the same frame, and each
    # model's predict on that frame gives its entry of the row
    for sets, norm in preset_readouts:
        for kind in KINDS:
            models = sets[kind].ordered()
            batched = classify_stack(models, norm)
            single = np.vstack([classify_stack(models, frame) for frame in norm])
            assert single.dtype == batched.dtype == np.uint8
            assert np.array_equal(single, batched), kind
            for j, model in enumerate(models):
                alone = np.concatenate([model.predict(frame) for frame in norm[::7]])
                assert alone.dtype == np.uint8
                assert np.array_equal(alone, batched[::7, j]), (kind, model.site)
                assert np.array_equal(model.predict(norm), batched[:, j]), (kind, model.site)


def test_one_frame_and_batched_readouts_agree_with_theta_on_a_score(preset_readouts):
    # theta on a frame's batched score, or one ulp either side, flips the
    # readout of any path whose score differs from the batched one in its
    # last bits
    for sets, norm in preset_readouts:
        for kind in KINDS:
            probes = 0
            for model in sets[kind].ordered():
                scores = model.scores(norm)
                for i in range(0, len(norm), 97):
                    for theta in (np.nextafter(scores[i], -np.inf), scores[i], np.nextafter(scores[i], np.inf)):
                        try:
                            probe = dataclasses.replace(model, theta=float(theta))
                        except ConfigError:  # a matched filter's theta lies in (0, 1)
                            continue
                        probes += 1
                        batched = classify_stack([probe], norm)[i, 0]
                        assert batched == (scores[i] >= theta), (kind, model.site, i)
                        assert classify_stack([probe], norm[i])[0, 0] == batched, (kind, model.site, i)
                        assert probe.predict(norm[i])[0] == batched, (kind, model.site, i)
            assert probes > 0, kind


@pytest.mark.parametrize("n_frames", [1, 2, 255, 256, 257, 513])
def test_classify_stack_blocks_read_like_the_whole_stack(preset_readouts, n_frames, monkeypatch):
    sets, norm = preset_readouts[1]
    stack = norm[:n_frames]
    predict, span_scores = FilterModel.predict, FilterModel._span_scores
    seen = []

    def recording_predict(self, images):
        seen.append(len(images))
        return predict(self, images)

    def recording_span_scores(self, rows):
        seen.append(len(rows))
        return span_scores(self, rows)

    for kind in KINDS:
        models = sets[kind].ordered()
        monkeypatch.setattr(FilterModel, "predict", recording_predict)
        monkeypatch.setattr(FilterModel, "_span_scores", recording_span_scores)
        preds = classify_stack(models, stack)
        monkeypatch.undo()
        whole = np.column_stack([m.scores(stack) >= m.theta for m in models])
        assert np.array_equal(preds, whole), kind
    # every model reads every block, at most BLOCK_FRAMES frames each, and
    # only a one-frame stack makes a one-frame call
    assert sum(seen) == len(KINDS) * len(models) * n_frames
    assert max(seen) <= BLOCK_FRAMES
    assert (min(seen) == 1) == (n_frames == 1)
