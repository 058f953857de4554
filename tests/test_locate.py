import tracemalloc
import warnings

import numpy as np
import pytest

from mf_readout import (
    ConfigError,
    DataError,
    SiteGeometry,
    apply_stats,
    crop,
    crosstalk_config,
    default_config,
    find_peaks,
    fit_gaussian_2d,
    fit_stats,
    generate_dataset,
    locate_sites,
    mean_image,
    split_dataset,
)
from mf_readout.filters import BLOCK_FRAMES
from mf_readout.locate import (
    GaussianFit,
    _fit_lattice,
    _fit_windows,
    _joint_refine,
    _median_spacing,
    _usable_centers,
    axis_clusters,
    gather_frames,
    grid_shape,
)

# any numeric warning in localization is a defect: a flung fit must be
# rejected by the finite checks, not announced on stderr
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PRESETS = {"default": default_config, "crosstalk": crosstalk_config}


def gaussian_image(shape, center, sigma, amplitude, offset=0.0):
    rr, cc = np.mgrid[0 : shape[0], 0 : shape[1]]
    d2 = (rr - center[0]) ** 2 + (cc - center[1]) ** 2
    return amplitude * np.exp(-d2 / (2.0 * sigma**2)) + offset


# ---------------------------------------------------------------- crop

def test_crop_identity(small_stack):
    same = crop(small_stack, 0, 0, 28, 28)
    assert np.array_equal(same.images, small_stack.images)
    assert same.config == small_stack.config


def test_crop_composes(small_stack):
    once = crop(small_stack, 2, 1, 24, 26)
    twice = crop(once, 3, 4, 18, 20)
    direct = crop(small_stack, 5, 5, 18, 20)
    assert np.array_equal(twice.images, direct.images)
    assert twice.config == direct.config


def test_crop_rejects_cutting_off_sites(small_stack):
    with pytest.raises(ConfigError):
        crop(small_stack, 0, 0, 10, 12)


def test_crop_keeps_labels_and_shifts_origin(small_stack):
    out = crop(small_stack, 4, 6, 20, 20)
    assert out.images.shape == (small_stack.n_images, 20, 20)
    assert np.array_equal(out.truth, small_stack.truth)
    r0, c0 = small_stack.config.geometry.origin_px
    assert out.config.geometry.origin_px == (r0 - 4, c0 - 6)


def test_crop_rejects_out_of_bounds(small_stack):
    with pytest.raises(ConfigError):
        crop(small_stack, 0, 0, 29, 28)
    with pytest.raises(ConfigError):
        crop(small_stack, -1, 0, 10, 10)


# ------------------------------------------------------- normalization

def test_fit_stats_hand_example():
    images = np.array([[[-0.75, 1.25], [0.25, 0.25]]])
    stats = fit_stats(images)
    assert stats.train_mean == pytest.approx(0.25)
    assert stats.train_range == pytest.approx(2.0)
    norm = apply_stats(images, stats)
    assert norm[0, 0, 1] == pytest.approx(0.5)


def test_fit_stats_rejects_degenerate_input():
    with pytest.raises(DataError):
        fit_stats(np.zeros((0, 4, 4)))
    with pytest.raises(DataError):
        fit_stats(np.ones((3, 4, 4)))


def test_apply_stats_uses_train_statistics_only(small_training):
    t = small_training
    train_norm = t.norm[t.split.train_idx]
    # z-scale in [min, min+range] by construction on the training block
    assert train_norm.min() == pytest.approx(
        (t.stack.images[t.split.train_idx].min() - t.stats.train_mean) / t.stats.train_range
    )
    assert t.norm.shape == t.stack.images.shape


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_apply_stats_is_the_float64_formula_in_a_new_array(dtype):
    x = np.random.default_rng(3).normal(300.0, 40.0, size=(6, 5, 7)).astype(dtype)
    before = x.copy()
    stats = fit_stats(x[:4])
    out = apply_stats(x, stats)
    ref = (np.asarray(x, np.float64) - stats.train_mean) / stats.train_range
    assert out.dtype == np.float64
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
    assert np.array_equal(x, before)
    assert not np.shares_memory(out, x)


def _bits(array):
    return array.dtype, array.shape, array.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("count", [1, BLOCK_FRAMES + 37, 2 * BLOCK_FRAMES + 1])
def test_gathered_split_blocks_have_the_bits_of_apply_stats(dtype, count):
    # unsorted indices, one frame, and counts that are not a multiple of
    # the gather block
    rng = np.random.default_rng(count)
    images = rng.normal(300.0, 40.0, size=(700, 6, 5)).astype(dtype)
    before = images.copy()
    idx = rng.permutation(700)[:count]
    stats = fit_stats(images)
    want = apply_stats(images[idx], stats)

    block = gather_frames(images, idx)
    assert _bits(block) == _bits(np.asarray(images[idx], dtype=np.float64))
    assert apply_stats(block, stats, out=block) is block
    assert _bits(block) == _bits(want)
    assert np.array_equal(images, before)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gather_frames_makes_no_copy_of_the_split_in_its_own_dtype(dtype):
    # a float32 split cut as images[idx] and then cast also holds that
    # copy, half the block; the gather holds one gather block of the
    # frames in their own dtype at a time
    images = np.random.default_rng(5).normal(size=(3000, 28, 28)).astype(dtype)
    idx = np.random.default_rng(6).permutation(3000)[:1800]
    tracemalloc.start()
    try:
        block = gather_frames(images, idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.dtype == np.float64
    assert peak <= block.nbytes + BLOCK_FRAMES * 28 * 28 * 8


def test_mean_image_shape_and_value():
    imgs = np.stack([np.zeros((4, 4)), np.full((4, 4), 2.0)])
    assert np.array_equal(mean_image(imgs), np.ones((4, 4)))
    with pytest.raises(DataError):
        mean_image(np.zeros((0, 4, 4)))


# ------------------------------------------------------------ peaks

def test_find_peaks_recovers_separated_maxima():
    img = (
        gaussian_image((30, 30), (7, 8), 1.5, 5.0)
        + gaussian_image((30, 30), (7, 21), 1.5, 4.0)
        + gaussian_image((30, 30), (22, 14), 1.5, 3.0)
    )
    assert find_peaks(img, 4.0, 3) == [(7, 8), (7, 21), (22, 14)]


def test_find_peaks_enforces_exclusion_radius():
    img = gaussian_image((20, 20), (9, 9), 1.2, 5.0) + gaussian_image((20, 20), (9, 14), 1.2, 4.0)
    # the weaker bump sits inside the exclusion disk of the stronger one
    assert find_peaks(img, 6.0, 1) == [(9, 9)]
    with pytest.raises(DataError):
        find_peaks(img, 6.0, 2)
    assert find_peaks(img, 4.0, 2) == [(9, 9), (9, 14)]


def test_find_peaks_input_validation():
    with pytest.raises(DataError):
        find_peaks(np.zeros(9), 2.0, 1)
    with pytest.raises(ConfigError):
        find_peaks(np.zeros((5, 5)), 2.0, 0)


# --------------------------------------------------------- gaussian fit

def test_fit_gaussian_2d_noiseless_oracle():
    img = gaussian_image((28, 28), (13.4, 14.2), 1.8, 5.0, offset=0.3)
    fit = fit_gaussian_2d(img, (13, 14))
    assert fit.ok
    assert fit.center[0] == pytest.approx(13.4, abs=1e-3)
    assert fit.center[1] == pytest.approx(14.2, abs=1e-3)
    assert fit.sigma == pytest.approx(1.8, abs=1e-3)
    assert fit.amplitude == pytest.approx(5.0, rel=1e-3)
    assert fit.offset == pytest.approx(0.3, abs=1e-3)


def test_fit_gaussian_2d_respects_sigma_bounds():
    img = gaussian_image((28, 28), (14.0, 14.0), 2.5, 4.0)
    fit = fit_gaussian_2d(img, (14, 14), init=(4.0, 1.5, 0.0), sigma_bounds=(1.0, 2.0))
    assert fit.sigma <= 2.0 + 1e-9


def test_fit_gaussian_2d_flat_window_falls_back():
    fit = fit_gaussian_2d(np.zeros((20, 20)), (10, 10))
    assert not fit.ok
    # the flat window's centroid fallback is the window center, width 1
    assert fit.center == (10.0, 10.0)
    assert (fit.sigma, fit.amplitude, fit.offset) == (1.0, 0.0, 0.0)
    assert fit == _reference_fit(np.zeros((20, 20)), (10, 10))


def test_fit_gaussian_2d_nonpositive_amplitude_falls_back_at_once():
    img = gaussian_image((20, 20), (10.3, 9.8), 1.6, 3.0, offset=0.2)
    for a0 in (0.0, -1.0):
        fit = fit_gaussian_2d(img, (10, 10), init=(a0, 1.6, 0.2))
        assert not fit.ok
        assert fit.n_iter == 0 and fit.residuals == ()
        assert fit == _reference_fit(img, (10, 10), init=(a0, 1.6, 0.2))


def test_fit_gaussian_2d_band_rejecting_every_step_falls_back():
    img = gaussian_image((20, 20), (10.3, 9.8), 1.6, 3.0, offset=0.2)
    # a zero-width band rejects any step that moves sigma at all
    fit = fit_gaussian_2d(img, (10, 10), init=(3.0, 1.2, 0.2), sigma_bounds=(1.2, 1.2))
    assert not fit.ok
    assert fit.n_iter == 1 and len(fit.residuals) == 1
    ref = _reference_fit(img, (10, 10), init=(3.0, 1.2, 0.2), sigma_bounds=(1.2, 1.2))
    assert fit == ref


def test_fit_gaussian_2d_window_leaving_the_image_raises():
    img = gaussian_image((20, 20), (10.0, 10.0), 1.6, 3.0)
    for center in ((2.4, 10.0), (10.0, 16.6), (-0.2, 3.0)):
        with pytest.raises(ConfigError):
            fit_gaussian_2d(img, center)
    # a window touching the image edge is still inside
    fit_gaussian_2d(img, (3.0, 16.49))


def _assert_same_fit(fit, ref):
    assert (fit.ok, fit.n_iter, len(fit.residuals)) == (ref.ok, ref.n_iter, len(ref.residuals))
    assert np.allclose(fit.center, ref.center, rtol=0, atol=1e-9)
    assert np.allclose(
        [fit.sigma, fit.amplitude, fit.offset], [ref.sigma, ref.amplitude, ref.offset],
        rtol=1e-9, atol=1e-12,
    )
    assert np.allclose(fit.residuals, ref.residuals, rtol=1e-9, atol=1e-12)


def test_fit_gaussian_2d_matches_reference_on_noisy_windows():
    rng = np.random.default_rng(5)
    for shift, scale in [(0.6, 1.0)] * 40 + [(5.0, 1.0)] * 40 + [(0.6, 1e-4)] * 20:
        # shift 5 puts many bumps outside the window, so some fits walk
        # out of it and must fall back; on faint bumps the center columns
        # of the Jacobian are tiny, so the damping floor shows
        center = rng.uniform(8.0, 12.0, size=2)
        img = gaussian_image((20, 20), center, rng.uniform(0.8, 2.5), scale * rng.uniform(0.2, 4.0))
        img += rng.normal(0.0, 0.1 * scale, size=img.shape)
        start = tuple(np.round(center + rng.uniform(-shift, shift, size=2), 1))
        band = (rng.uniform(0.3, 1.0), rng.uniform(1.5, 3.0))
        _assert_same_fit(
            fit_gaussian_2d(img, start, sigma_bounds=band),
            _reference_fit(img, start, sigma_bounds=band),
        )


def test_fit_gaussian_2d_matches_reference_in_narrow_sigma_bands():
    # the narrower the band, the more damping a step needs to stay in it,
    # so these widths walk the accepted try through all twelve
    img = gaussian_image((20, 20), (10.3, 9.8), 1.6, 3.0, offset=0.2)
    img += np.random.default_rng(6).normal(0.0, 0.05, size=img.shape)
    for width in np.logspace(-12, -1, 45):
        band = (1.3 - width, 1.3 + width)
        _assert_same_fit(
            fit_gaussian_2d(img, (10, 10), init=(2.5, 1.3, 0.2), sigma_bounds=band),
            _reference_fit(img, (10, 10), init=(2.5, 1.3, 0.2), sigma_bounds=band),
        )


def test_batched_fits_are_isolated_from_a_failing_window():
    rng = np.random.default_rng(9)
    good = [
        gaussian_image((7, 7), (3.0 + dr, 3.0 + dc), s, a, offset=0.1)
        + rng.normal(0.0, 0.05, size=(7, 7))
        for dr, dc, s, a in ((0.3, -0.2, 1.4, 2.0), (-0.4, 0.1, 1.9, 1.0), (0.1, 0.4, 1.1, 3.0))
    ]
    starts = [[2.0, 3.0, 3.0, 1.5, 0.1], [1.0, 3.0, 3.0, 1.5, 0.1], [3.0, 3.0, 3.0, 1.5, 0.1]]
    bands = [[0.3, 4.0]] * 3
    alone = [_fit_windows(p[None], [s], [b]) for p, s, b in zip(good, starts, bands)]
    assert all(f.ok[0] for f in alone)
    failing = [
        (np.zeros((7, 7)), [0.0, 3.0, 3.0, 1.5, 0.0], [0.3, 4.0]),  # falls back at once
        (good[0], [2.0, 3.0, 3.0, 1.2, 0.1], [1.2, 1.2]),  # every step rejected
    ]
    for patch, start, band in failing:
        for at in range(4):
            patches = good[:at] + [patch] + good[at:]
            batch = _fit_windows(
                np.stack(patches),
                starts[:at] + [start] + starts[at:],
                bands[:at] + [band] + bands[at:],
            )
            assert not batch.ok[at]
            others = [i for i in range(4) if i != at]
            for i, one in zip(others, alone):
                assert batch.ok[i] and batch.n_iter[i] == one.n_iter[0]
                assert batch.n_norms[i] == one.n_norms[0]
                assert np.allclose(batch.params[i], one.params[0], rtol=1e-12, atol=1e-12)


# ------------------------------------------------------------ lattice

def test_axis_clusters_groups_near_values():
    labels, n = axis_clusters(np.array([8.0, 8.1, 14.0, 14.2, 20.0]))
    assert n == 3
    assert labels.tolist() == [0, 0, 1, 1, 2]


def test_grid_shape_on_default_geometry():
    centers = default_config().geometry.site_centers()
    rows, cols, _, _ = grid_shape(centers)
    assert (rows, cols) == (3, 3)


# --------------------------------------------------------- locate_sites

def test_locate_sites_on_simulated_mean(small_training):
    geo = small_training.geometry
    truth = small_training.stack.config.geometry.site_centers()
    assert geo.n_sites == 9
    # row-major ordering puts fitted centers in the same order as the truth grid
    err = np.linalg.norm(geo.centers - truth, axis=1)
    assert err.max() < 0.5
    assert np.all(np.abs(geo.sigmas - 1.8) / 1.8 < 0.15)
    assert np.all(geo.amplitudes > 0)
    assert len(geo.fallbacks) == 9


def test_locate_sites_single_site():
    config = default_config(n_images=120, seed=8)
    geo_cfg = config.geometry
    single = default_config(
        n_images=120,
        seed=8,
        geometry=type(geo_cfg)(
            rows=1, cols=1, spacing_px=6.0, origin_px=(13.6, 14.3), psf_sigma_px=1.8
        ),
    )
    stack = generate_dataset(single)
    geo = locate_sites(mean_image(stack.images), 1)
    assert np.linalg.norm(geo.centers[0] - np.array([13.6, 14.3])) < 0.3


def test_locate_sites_flags_sites_whose_window_leaves_the_image():
    # the top row sits at row 2.4, so its 7x7 windows start at row -1:
    # those sites are never refitted and come back as fallbacks
    rng = np.random.default_rng(3)
    img = sum(
        gaussian_image((28, 28), (2.4 + 6 * r, 8.0 + 6 * c), 1.8, 1.0)
        for r in range(3)
        for c in range(3)
    )
    img = img + rng.normal(0.0, 0.02, size=img.shape)
    geo = locate_sites(img, 9)
    ref = _reference_locate_sites(img, 9)
    assert geo.fallbacks == ref.fallbacks == (True,) * 3 + (False,) * 6
    assert np.allclose(geo.centers, ref.centers, rtol=0, atol=1e-6)
    assert np.abs(geo.centers[:3, 0] - 2.4).max() < 0.1


def test_locate_sites_rejects_pure_noise():
    rng = np.random.default_rng(0)
    noise = rng.normal(0.0, 1.0, size=(28, 28))
    with pytest.raises(DataError):
        locate_sites(noise, 9)


# ------------------------------------------------------- SiteGeometry

def test_geometry_round_trip(tmp_path, small_training):
    geo = small_training.geometry
    path = tmp_path / "geometry.json"
    geo.save(path)
    back = SiteGeometry.load(path)
    assert np.allclose(back.centers, geo.centers)
    assert np.allclose(back.sigmas, geo.sigmas)
    assert np.allclose(back.amplitudes, geo.amplitudes)


def test_geometry_artifact_uses_one_based_sites(tmp_path, small_training):
    entries = small_training.geometry.to_json_list()
    assert [e["site"] for e in entries] == list(range(1, 10))


def test_geometry_validation():
    with pytest.raises(DataError):
        SiteGeometry(centers=[[5.0, 5.0]], sigmas=[0.0], amplitudes=[1.0])
    with pytest.raises(DataError):
        SiteGeometry(
            centers=[[5.0, 5.0], [5.5, 5.5]], sigmas=[1.0, 1.0], amplitudes=[1.0, 1.0]
        )
    with pytest.raises(DataError):
        SiteGeometry.load("/nonexistent/geometry.json")


# --------------------------------------------- independent oracles

def test_gaussian_fit_agrees_with_curve_fit():
    from scipy.optimize import curve_fit

    rng = np.random.default_rng(77)
    true = dict(center=(10.32, 11.78), sigma=1.95, amplitude=4.2, offset=0.4)
    img = gaussian_image((21, 21), **true) + rng.normal(0, 0.02, size=(21, 21))

    fit = fit_gaussian_2d(img, (10, 12), window_px=15)
    assert fit.ok

    rs, cs = np.mgrid[3:18, 5:20]  # same window the fitter uses
    patch = img[3:18, 5:20]

    def model(_, r0, c0, sigma, amp, off):
        return (amp * np.exp(-((rs - r0) ** 2 + (cs - c0) ** 2) / (2 * sigma**2)) + off).ravel()

    popt, _ = curve_fit(
        model, None, patch.ravel(), p0=(10.0, 12.0, 1.5, patch.max(), 0.0)
    )
    assert fit.center[0] == pytest.approx(popt[0], abs=1e-4)
    assert fit.center[1] == pytest.approx(popt[1], abs=1e-4)
    assert fit.sigma == pytest.approx(abs(popt[2]), abs=1e-4)
    assert fit.amplitude == pytest.approx(popt[3], rel=1e-3)
    assert fit.offset == pytest.approx(popt[4], abs=1e-3)


def test_find_peaks_agrees_with_maximum_filter():
    from scipy.ndimage import maximum_filter

    rng = np.random.default_rng(78)
    img = np.zeros((30, 30))
    for center in ((6.0, 7.0), (6.0, 21.0), (22.0, 9.0), (21.0, 23.0)):
        img += gaussian_image((30, 30), center, 1.6, rng.uniform(2.0, 5.0))
    img += rng.normal(0, 0.01, size=img.shape)

    ours = find_peaks(img, min_distance_px=5.0, n_expected=4)
    is_max = img == maximum_filter(img, size=3, mode="constant", cval=-np.inf)
    oracle = sorted(
        map(tuple, np.argwhere(is_max)), key=lambda rc: -img[rc[0], rc[1]]
    )[:4]
    assert sorted(ours) == sorted(oracle)


# ------------------------------------------- reference: one window at a time
#
# Localization fits all windows of a refit round as one batch. These are
# the per-window fitter and the locate_sites it served, kept as the
# reference the batched path must match.


def _reference_centroid_fallback(patch, r_lo, c_lo, n_iter, residuals):
    w = patch - patch.min()
    total = w.sum()
    rr, cc = np.mgrid[0 : patch.shape[0], 0 : patch.shape[1]]
    if total <= 0:
        r0, c0 = (patch.shape[0] - 1) / 2.0, (patch.shape[1] - 1) / 2.0
        sigma = 1.0
    else:
        r0 = float((w * rr).sum() / total)
        c0 = float((w * cc).sum() / total)
        var = float((w * ((rr - r0) ** 2 + (cc - c0) ** 2)).sum() / total)
        sigma = float(np.sqrt(max(var / 2.0, 0.25)))
    return GaussianFit(
        center=(r_lo + r0, c_lo + c0),
        sigma=sigma,
        amplitude=float(patch.max() - patch.min()),
        offset=float(patch.min()),
        ok=False,
        n_iter=n_iter,
        residuals=tuple(residuals),
    )


def _reference_fit(image, initial_center, window_px=7, *, init=None, sigma_bounds=None):
    img = np.asarray(image, dtype=np.float64)
    r_pk = int(np.floor(initial_center[0] + 0.5))
    c_pk = int(np.floor(initial_center[1] + 0.5))
    half = window_px // 2
    r_lo, c_lo = r_pk - half, c_pk - half
    if r_lo < 0 or c_lo < 0 or r_lo + window_px > img.shape[0] or c_lo + window_px > img.shape[1]:
        raise ConfigError(f"{window_px}x{window_px} window at {initial_center} leaves the image")
    patch = img[r_lo : r_lo + window_px, c_lo : c_lo + window_px]
    rr, cc = np.mgrid[0:window_px, 0:window_px].astype(np.float64)
    sig_lo, sig_hi = sigma_bounds if sigma_bounds is not None else (0.0, np.inf)
    if init is not None:
        a0, s0, b0 = (float(v) for v in init)
    else:
        b0 = float(patch.min())
        a0 = float(patch.max()) - b0
        s0 = max(window_px / 4.0, 1.0)
    if a0 <= 0:
        return _reference_centroid_fallback(patch, r_lo, c_lo, 0, [])
    s0 = float(np.clip(s0, sig_lo if sig_lo > 0 else s0, sig_hi))
    p = np.array([a0, initial_center[0] - r_lo, initial_center[1] - c_lo, s0, b0])

    def residual(params):
        amp, r0, c0, sig, off = params
        g = np.exp(-((rr - r0) ** 2 + (cc - c0) ** 2) / (2.0 * sig**2))
        return (amp * g + off - patch).ravel(), g

    lam = 1e-3
    res, g = residual(p)
    norms = [float(np.linalg.norm(res))]
    n_iter = 0
    for n_iter in range(1, 101):
        amp, r0, c0, sig, _ = p
        dr, dc = rr - r0, cc - c0
        jac = np.stack(
            [
                g.ravel(),
                (amp * g * dr / sig**2).ravel(),
                (amp * g * dc / sig**2).ravel(),
                (amp * g * (dr**2 + dc**2) / sig**3).ravel(),
                np.ones(patch.size),
            ],
            axis=1,
        )
        gram = jac.T @ jac
        grad = jac.T @ res
        step = None
        for _ in range(12):
            try:
                cand = np.linalg.solve(gram + lam * np.eye(5), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = p + cand
            if trial[3] <= 0 or not sig_lo <= trial[3] <= sig_hi or not np.all(np.isfinite(trial)):
                lam *= 10.0
                continue
            trial_res, trial_g = residual(trial)
            trial_norm = float(np.linalg.norm(trial_res))
            if trial_norm <= norms[-1]:
                step = cand
                p, res, g = trial, trial_res, trial_g
                norms.append(trial_norm)
                lam = max(lam / 10.0, 1e-12)
                break
            lam *= 10.0
        if step is None:
            return _reference_centroid_fallback(patch, r_lo, c_lo, n_iter, norms)
        if float(np.linalg.norm(step)) < 1e-6:
            break

    amp, r0, c0, sig, off = (float(v) for v in p)
    in_window = -1.0 <= r0 <= window_px and -1.0 <= c0 <= window_px
    if sig <= 0 or not np.all(np.isfinite(p)) or not in_window:
        return _reference_centroid_fallback(patch, r_lo, c_lo, n_iter, norms)
    return GaussianFit(
        center=(r_lo + r0, c_lo + c0), sigma=sig, amplitude=amp, offset=off, ok=True,
        n_iter=n_iter, residuals=tuple(norms),
    )


def _reference_bump(fit, shape):
    rr = np.arange(shape[0], dtype=np.float64)[:, None] - fit.center[0]
    cc = np.arange(shape[1], dtype=np.float64)[None, :] - fit.center[1]
    return fit.amplitude * np.exp(-(rr**2 + cc**2) / (2.0 * fit.sigma**2))


def _reference_subtraction_refits(img, anchors, fits, window_px, sigma_band, guard, passes):
    fits = list(fits)
    for _ in range(max(passes, 1)):
        bumps = [_reference_bump(f, img.shape) for f in fits]
        total = np.sum(bumps, axis=0)
        for i, (f, anchor) in enumerate(zip(fits, anchors)):
            try:
                trial = _reference_fit(
                    img - (total - bumps[i]),
                    f.center,
                    window_px,
                    init=(f.amplitude, f.sigma, f.offset),
                    sigma_bounds=sigma_band,
                )
            except ConfigError:
                continue
            drift = np.hypot(trial.center[0] - anchor[0], trial.center[1] - anchor[1])
            if trial.ok and drift <= guard:
                fits[i] = trial
    return fits


def _reference_locate_sites(mean_img, n_sites, min_distance_px=3.0, window_px=7, refine_passes=4):
    img = np.asarray(mean_img, dtype=np.float64)
    med = float(np.median(img))
    h, w = img.shape

    def stage1(peaks):
        d_min = _median_spacing(np.asarray(peaks, dtype=np.float64))
        band = (max(0.3, 0.1 * d_min), 0.75 * d_min)
        guard = max(0.5 * min_distance_px, 0.3 * d_min)
        fits = [
            GaussianFit(
                (float(r), float(c)), 0.4 * d_min, max(float(img[r, c]) - med, 1e-12), med,
                False, 0, (),
            )
            for r, c in peaks
        ]
        return _reference_subtraction_refits(
            img, peaks, fits, window_px, band, guard, refine_passes
        )

    # the first radius whose joint fit gives usable centers wins
    for scale in (1.0, 1.5, 2.0, 3.0):
        try:
            peaks = find_peaks(img, min_distance_px * scale, n_sites)
        except DataError:
            continue
        anchors = [f.center for f in stage1(peaks)]
        lattice = _fit_lattice(anchors)
        if lattice is not None:
            anchors = [tuple(p) for p in lattice[0]]
        spacing = _median_spacing(anchors)
        centers, sig_shared, amps, off = _joint_refine(
            img, anchors, 0.35 * spacing, (0.3, 0.8 * spacing)
        )
        if _usable_centers(centers, (h, w)):
            break
    else:
        raise DataError("sites could not be located in the mean image")

    row_ids, _ = axis_clusters(centers[:, 0])
    order = np.lexsort((centers[:, 1], row_ids))
    centers, amps = centers[order], amps[order]
    amplitudes = np.maximum(amps, 1e-12)
    bump_stack = [
        _reference_bump(GaussianFit(tuple(c), sig_shared, float(a), off, True, 0, ()), img.shape)
        for c, a in zip(centers, amplitudes)
    ]
    total = np.sum(bump_stack, axis=0)
    fallbacks = []
    for i in range(n_sites):
        confirmed = False
        try:
            trial = _reference_fit(
                img - (total - bump_stack[i]),
                tuple(centers[i]),
                window_px,
                init=(float(amplitudes[i]), sig_shared, off),
                sigma_bounds=(0.8 * sig_shared, 1.25 * sig_shared),
            )
            drift = np.hypot(trial.center[0] - centers[i][0], trial.center[1] - centers[i][1])
            confirmed = trial.ok and drift <= 0.75
        except ConfigError:
            pass
        fallbacks.append(not confirmed)
    return SiteGeometry(
        centers=centers,
        sigmas=np.full(n_sites, sig_shared),
        amplitudes=amplitudes,
        fallbacks=tuple(fallbacks),
    )


# -------------------------------------------- localization on rendered stacks


@pytest.fixture(scope="module")
def train_means():
    """Normalized train-split mean (split seed 0) of a rendered stack, plus
    its true centers and PSF width; memoized per (preset, frames, seed)."""
    cache = {}

    def get(preset, n_images, seed):
        key = (preset, n_images, seed)
        if key not in cache:
            stack = generate_dataset(PRESETS[preset](n_images=n_images, seed=seed))
            train = stack.images[split_dataset(n_images, seed=0).train_idx]
            geo = stack.config.geometry
            cache[key] = (
                mean_image(apply_stats(train, fit_stats(train))),
                geo.site_centers(),
                geo.psf_sigma_px,
            )
        return cache[key]

    return get


@pytest.mark.parametrize("n_images", [600, 1200, 3000, 6000])
@pytest.mark.parametrize("preset", ["default", "crosstalk"])
def test_locate_sites_matches_the_per_window_reference(train_means, preset, n_images):
    for seed in range(4):
        img, _, _ = train_means(preset, n_images, seed)
        try:
            ref = _reference_locate_sites(img, 9)
        except DataError:
            with pytest.raises(DataError):
                locate_sites(img, 9)
            continue
        geo = locate_sites(img, 9)
        assert np.allclose(geo.centers, ref.centers, rtol=0, atol=1e-6), seed
        assert np.allclose(geo.sigmas, ref.sigmas, rtol=1e-6, atol=0), seed
        assert np.allclose(geo.amplitudes, ref.amplitudes, rtol=1e-6, atol=0), seed
        assert geo.fallbacks == ref.fallbacks, seed


@pytest.mark.parametrize(
    "preset, n_images",
    [("crosstalk", 600), ("crosstalk", 1200), ("crosstalk", 3000), ("default", 600)],
)
def test_locate_sites_raises_or_is_right(train_means, preset, n_images):
    # every seed locates, and none is silently wrong
    for seed in range(8):
        img, truth, sigma = train_means(preset, n_images, seed)
        geo = locate_sites(img, 9)
        err = np.linalg.norm(geo.centers - truth, axis=1)
        assert err.max() < 0.75, (seed, err.max())
        assert np.all(np.abs(geo.sigmas - sigma) < 0.1 * sigma), (seed, geo.sigmas)


def test_damped_joint_fit_locates_without_numeric_warnings(train_means):
    # with plain Marquardt scaling a joint fit at this seed flings a center
    # to ~1e88 px and every radius is rejected; the damping floor keeps it
    img, truth, sigma = train_means("crosstalk", 1200, 208)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        geo = locate_sites(img, 9)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert np.linalg.norm(geo.centers - truth, axis=1).max() < 0.75
    assert np.all(np.abs(geo.sigmas - sigma) < 0.1 * sigma), geo.sigmas
