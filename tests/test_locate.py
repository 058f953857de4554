import json
import tracemalloc
import warnings
from dataclasses import replace

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
    difference_images,
    fit_stats,
    generate_dataset,
    locate_sites,
    mean_image,
    split_dataset,
)
from mf_readout.filters import BLOCK_FRAMES, centers_inside, window_fits
from mf_readout.locate import (
    FIT_WINDOW,
    PreprocessStats,
    _fit_bumps,
    _median_spacing,
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


def test_stats_dict_round_trips_and_rejects_unknown_keys():
    stats = PreprocessStats(train_mean=0.25, train_range=2.0)
    assert PreprocessStats.from_dict(stats.to_dict()) == stats
    with pytest.raises(DataError, match="unknown PreprocessStats key.*'train_max'"):
        PreprocessStats.from_dict(stats.to_dict() | {"train_max": 1.0})
    for bad in [{"train_mean": 0.25}, {"train_mean": 0.25, "train_range": "abc"}, [0.25, 2.0]]:
        with pytest.raises(DataError):
            PreprocessStats.from_dict(bad)
    # NaN and Infinity, which Python's JSON reader accepts
    for field, bad in [("train_mean", {"train_mean": float("nan"), "train_range": 2.0}),
                       ("train_range", {"train_mean": 0.25, "train_range": float("inf")})]:
        with pytest.raises(DataError, match=f"{field} must be finite"):
            PreprocessStats.from_dict(bad)


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


# --------------------------------------------------------- gaussian fit


def _one_bump(patch, center, sigma0, band):
    """_fit_bumps on one patch with one bump: (center, sigma, amplitude,
    offset) as floats."""
    centers, sigma, amps, offset = _fit_bumps(patch, [center], sigma0, band)
    return tuple(centers[0]), sigma, float(amps[0]), offset


def test_fit_bumps_noiseless_oracle():
    patch = gaussian_image((7, 7), (3.4, 2.8), 1.8, 5.0, offset=0.3)
    center, sigma, amplitude, offset = _one_bump(patch, (3.0, 3.0), 1.5, (0.3, 4.0))
    assert center == pytest.approx((3.4, 2.8), abs=1e-6)
    assert sigma == pytest.approx(1.8, abs=1e-6)
    assert amplitude == pytest.approx(5.0, rel=1e-6)
    assert offset == pytest.approx(0.3, abs=1e-6)


def test_fit_bumps_keeps_sigma_inside_its_band():
    rng = np.random.default_rng(8)
    patch = gaussian_image((9, 9), (4.2, 3.9), 2.5, 4.0) + rng.normal(0.0, 0.05, size=(9, 9))
    free = _one_bump(patch, (4.0, 4.0), 2.0, (0.3, 6.0))[1]
    assert free == pytest.approx(2.5, abs=0.1)
    for sigma0, band in [(1.5, (1.0, 2.0)), (3.5, (3.0, 4.0)), (0.5, (1.0, 2.0)), (9.0, (3.0, 4.0))]:
        sigma = _one_bump(patch, (4.0, 4.0), sigma0, band)[1]
        assert band[0] <= sigma <= band[1], (sigma0, band, sigma)
    # the band nearest the free width pins the fit to that edge
    assert _one_bump(patch, (4.0, 4.0), 1.5, (1.0, 2.0))[1] == 2.0
    assert _one_bump(patch, (4.0, 4.0), 3.5, (3.0, 4.0))[1] == 3.0


def test_a_flat_patch_fits_and_a_zero_width_band_pins_sigma():
    # a flat patch leaves the bump's center and width unconstrained, so its
    # systems may be singular: those tries are rejected, not raised
    center, sigma, amplitude, offset = _one_bump(np.zeros((7, 7)), (3.0, 3.0), 1.5, (0.3, 4.0))
    assert np.isfinite([*center, sigma, amplitude, offset]).all()
    patch = gaussian_image((7, 7), (3.3, 2.8), 1.4, 2.0, offset=0.1)
    patch += np.random.default_rng(9).normal(0.0, 0.05, size=(7, 7))
    assert _one_bump(patch, (3.0, 3.0), 1.2, (1.2, 1.2))[1] == 1.2


def test_fit_bumps_fits_several_bumps_of_one_width():
    shape = (16, 18)
    truth = [((4.3, 5.1), 2.0), ((4.8, 11.6), 1.2), ((11.2, 8.4), 3.0)]
    img = sum(gaussian_image(shape, c, 1.7, a) for c, a in truth) + 0.25
    centers, sigma, amps, offset = _fit_bumps(img, [(4, 5), (5, 12), (11, 8)], 2.0, (0.3, 4.0))
    assert np.abs(centers - [c for c, _ in truth]).max() < 1e-6
    assert sigma == pytest.approx(1.7, abs=1e-7)
    assert amps == pytest.approx([a for _, a in truth], rel=1e-6)
    assert offset == pytest.approx(0.25, abs=1e-7)


# ------------------------------------------------------------ grid

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
    geo = locate_sites(mean_image(stack.images), difference_images(stack.images, stack.truth))
    assert np.linalg.norm(geo.centers[0] - np.array([13.6, 14.3])) < 0.3


def test_locate_sites_flags_sites_whose_window_leaves_the_image():
    # the top row sits at row 2.4, so its 7x7 windows start at row -1:
    # those sites are never refitted and come back as fallbacks
    rng = np.random.default_rng(3)
    bumps = np.stack([
        gaussian_image((28, 28), (2.4 + 6 * r, 8.0 + 6 * c), 1.8, 1.0)
        for r in range(3)
        for c in range(3)
    ])
    img = bumps.sum(axis=0) + rng.normal(0.0, 0.02, size=(28, 28))
    geo = locate_sites(img, bumps)
    ref = _reference_locate_sites(img, bumps)
    assert geo.fallbacks == ref.fallbacks == (True,) * 3 + (False,) * 6
    assert np.allclose(geo.centers, ref.centers, rtol=0, atol=1e-6)
    assert np.abs(geo.centers[:3, 0] - 2.4).max() < 0.1


def test_locate_sites_rejects_pure_noise():
    # frames of noise alone, with labels that say nothing about them
    rng = np.random.default_rng(0)
    noise = rng.normal(0.0, 1.0, size=(600, 28, 28))
    labels = rng.integers(0, 2, size=(600, 9), dtype=np.uint8)
    with pytest.raises(DataError):
        locate_sites(mean_image(noise), difference_images(noise, labels))


def test_locate_sites_takes_each_site_from_its_own_difference_image():
    # the sites come back in the order of their difference images, and a
    # site's image decides which bump of the mean image it fits
    bumps = np.stack([gaussian_image((28, 28), (8.0 + 6 * r, 8.0 + 6 * c), 1.8, 1.0) for r in range(3) for c in range(3)])
    img = bumps.sum(axis=0)
    order = np.random.default_rng(4).permutation(9)
    geo = locate_sites(img, bumps[order])
    assert np.abs(geo.centers - default_config().geometry.site_centers()[order]).max() < 1e-6
    with pytest.raises(DataError, match="difference image"):
        locate_sites(img, bumps[:, :20])
    with pytest.raises(DataError, match="within 2 px"):
        locate_sites(img, bumps[[0, 0, 1]])


def test_difference_images_match_the_masked_means():
    rng = np.random.default_rng(11)
    frames = rng.normal(0.0, 1.0, size=(300, 12, 10)).astype(np.float32)
    labels = rng.integers(0, 2, size=(300, 4), dtype=np.uint8)
    diffs = difference_images(frames, labels)
    assert diffs.shape == (4, 12, 10) and diffs.dtype == np.float64
    x = frames.astype(np.float64)
    for k in range(4):
        want = x[labels[:, k] == 1].mean(axis=0) - x[labels[:, k] == 0].mean(axis=0)
        assert np.abs(diffs[k] - want).max() <= 1e-12


def test_difference_images_reject_a_one_class_site_and_mismatched_shapes():
    frames = np.random.default_rng(12).normal(size=(50, 6, 6))
    labels = np.random.default_rng(13).integers(0, 2, size=(50, 3), dtype=np.uint8)
    for value in (0, 1):
        one_class = labels.copy()
        one_class[:, 1] = value
        with pytest.raises(DataError, match=r"site\(s\) 2: the labels hold one class"):
            difference_images(frames, one_class)
    with pytest.raises(DataError):
        difference_images(frames, labels[:49])
    with pytest.raises(DataError):
        difference_images(frames[0], labels)


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


@pytest.mark.parametrize("sites", [[1] * 9, [1, 2, 3, 4, 5, 6, 7, 8, 10]])
def test_geometry_load_takes_only_the_sites_one_to_n(tmp_path, small_training, sites):
    entries = small_training.geometry.to_json_list()
    for entry, site in zip(entries, sites):
        entry["site"] = site
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps(entries))
    with pytest.raises(DataError, match="geometry.json"):
        SiteGeometry.load(path)


# --------------------------------------------- independent oracles

def test_gaussian_fit_agrees_with_curve_fit():
    from scipy.optimize import curve_fit

    rng = np.random.default_rng(77)
    true = dict(center=(10.32, 11.78), sigma=1.95, amplitude=4.2, offset=0.4)
    img = gaussian_image((21, 21), **true) + rng.normal(0, 0.02, size=(21, 21))

    rs, cs = np.mgrid[3:18, 5:20]  # a 15 x 15 window
    patch = img[3:18, 5:20]
    center, sigma, amplitude, offset = _one_bump(patch, (7.0, 7.0), 1.5, (0.3, 7.0))

    def model(_, r0, c0, sigma, amp, off):
        return (amp * np.exp(-((rs - r0) ** 2 + (cs - c0) ** 2) / (2 * sigma**2)) + off).ravel()

    popt, _ = curve_fit(
        model, None, patch.ravel(), p0=(10.0, 12.0, 1.5, patch.max(), 0.0)
    )
    assert 3 + center[0] == pytest.approx(popt[0], abs=1e-4)
    assert 5 + center[1] == pytest.approx(popt[1], abs=1e-4)
    assert sigma == pytest.approx(abs(popt[2]), abs=1e-4)
    assert amplitude == pytest.approx(popt[3], rel=1e-3)
    assert offset == pytest.approx(popt[4], abs=1e-3)


# ------------------------------------------------- reference: scipy fits
#
# Localization fits the joint model with one Levenberg-Marquardt fitter.
# These are scipy's fit of the same model and a locate_sites built on it,
# kept as the reference the fitter must match.


def _reference_joint_fit(img, anchors, sigma0, sigma_band):
    """The joint fit of every site bump (free centers and amplitudes, one
    shared width inside sigma_band, one offset) by scipy's bounded
    least_squares from the anchors, with the amplitudes and offset
    started at their linear least-squares values. Returns (centers,
    sigma, amplitudes, offset)."""
    from scipy.optimize import least_squares

    rr, cc = np.indices(img.shape, dtype=np.float64).reshape(2, -1)
    y = img.ravel()
    n = len(anchors)
    lo, hi = sigma_band

    def unpack(x):
        return x[:n], x[n : 2 * n], x[2 * n], x[2 * n + 1 : 3 * n + 1], x[3 * n + 1]

    def bumps(rs, cs, sig):
        d2 = (rr[:, None] - rs) ** 2 + (cc[:, None] - cs) ** 2
        return np.exp(-d2 / (2.0 * sig * sig)), d2

    def residuals(x):
        rs, cs, sig, amps, off = unpack(x)
        return bumps(rs, cs, sig)[0] @ amps + off - y

    def jacobian(x):
        rs, cs, sig, amps, off = unpack(x)
        g, d2 = bumps(rs, cs, sig)
        ag = g * amps
        return np.column_stack([
            ag * (rr[:, None] - rs) / sig**2, ag * (cc[:, None] - cs) / sig**2,
            (ag * d2).sum(axis=1) / sig**3, g, np.ones(y.size),
        ])

    rs, cs = np.asarray(anchors, dtype=np.float64).T
    sig = min(max(sigma0, lo), hi)
    g = bumps(rs, cs, sig)[0]
    linear = np.linalg.lstsq(np.column_stack([g, np.ones(y.size)]), y, rcond=None)[0]
    x0 = np.concatenate([rs, cs, [sig], linear])
    lower, upper = np.full(x0.size, -np.inf), np.full(x0.size, np.inf)
    lower[2 * n], upper[2 * n] = sigma_band  # only the width is bounded
    fit = least_squares(
        residuals, x0, jac=jacobian, bounds=(lower, upper), x_scale="jac", ftol=1e-15, xtol=1e-15, gtol=1e-15,
    )
    rs, cs, sig, amps, off = unpack(fit.x)
    return np.column_stack([rs, cs]), float(sig), amps, float(off)


def _reference_locate_sites(mean_img, diff_imgs, window_px=7):
    """locate_sites with scipy's joint fit (_reference_joint_fit) and its
    own window and anchor checks, so no production fit or confirmation
    rule is on either side of a comparison with locate_sites."""
    img = np.asarray(mean_img, dtype=np.float64)
    n_sites = len(diff_imgs)
    anchors = np.array([np.unravel_index(np.argmax(d), img.shape) for d in diff_imgs], dtype=np.float64)
    spacing = _median_spacing(anchors)
    centers, sig_shared, amps, _ = _reference_joint_fit(
        img, anchors, 0.35 * spacing, (0.3, 0.8 * spacing)
    )
    if not centers_inside(centers, img.shape):
        raise DataError("sites could not be located in the mean image")

    fallbacks = []
    for center, anchor in zip(centers, anchors):
        r_lo, c_lo = (int(np.floor(v + 0.5)) - window_px // 2 for v in center)
        inside = r_lo >= 0 and c_lo >= 0 and r_lo + window_px <= img.shape[0] and c_lo + window_px <= img.shape[1]
        fallbacks.append(not (inside and np.hypot(*(center - anchor)) <= spacing / 2))
    return SiteGeometry(
        centers=centers,
        sigmas=np.full(n_sites, sig_shared),
        amplitudes=np.maximum(amps, 1e-12),
        fallbacks=tuple(fallbacks),
    )


# -------------------------------------------- localization on rendered stacks


@pytest.fixture(scope="module")
def train_means():
    """Normalized train-split mean and truth-label difference images (split
    seed 0) of a rendered stack, plus its true centers and PSF width;
    memoized per (preset, frames, seed)."""
    cache = {}

    def get(preset, n_images, seed):
        key = (preset, n_images, seed)
        if key not in cache:
            stack = generate_dataset(PRESETS[preset](n_images=n_images, seed=seed))
            train_idx = split_dataset(n_images, seed=0).train_idx
            train = apply_stats(stack.images[train_idx], fit_stats(stack.images[train_idx]))
            geo = stack.config.geometry
            cache[key] = (
                mean_image(train),
                difference_images(train, stack.truth[train_idx]),
                geo.site_centers(),
                geo.psf_sigma_px,
            )
        return cache[key]

    return get


@pytest.mark.parametrize("n_images", [600, 1200, 3000, 6000])
@pytest.mark.parametrize("preset", ["default", "crosstalk"])
def test_locate_sites_matches_the_per_window_reference(train_means, preset, n_images):
    for seed in range(4):
        img, diffs, _, _ = train_means(preset, n_images, seed)
        try:
            ref = _reference_locate_sites(img, diffs)
        except DataError:
            with pytest.raises(DataError):
                locate_sites(img, diffs)
            continue
        geo = locate_sites(img, diffs)
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
        img, diffs, truth, sigma = train_means(preset, n_images, seed)
        geo = locate_sites(img, diffs)
        err = np.linalg.norm(geo.centers - truth, axis=1)
        assert err.max() < 0.75, (seed, err.max())
        assert np.all(np.abs(geo.sigmas - sigma) < 0.1 * sigma), (seed, geo.sigmas)


def test_locate_sites_recovers_from_a_stray_peak_beside_a_missing_site(train_means):
    # this mean image holds a stray peak beside one site and none at
    # another; seeding from the difference images puts every site right
    img, diffs, truth, _ = train_means("crosstalk", 3000, 10)
    geo = locate_sites(img, diffs)
    assert np.linalg.norm(geo.centers - truth, axis=1).max() < 0.25


@pytest.mark.parametrize("preset", ["default", "crosstalk"])
def test_locate_sites_across_array_shapes(preset):
    # both presets have a 6 px pitch; site 1 at (8, 8) keeps every 7 x 7
    # confirmation window inside the frame, at (2.4, 2.4) or (12.6, 12.6)
    # the edge sites' windows leave it, so those sites fall back, and a
    # site whose spot the edge cuts locates a little worse
    for origin, bound in [((8.0, 8.0), 0.3), ((2.4, 2.4), 0.35), ((12.6, 12.6), 0.35)]:
        for rows, cols in [(1, 1), (1, 3), (2, 2), (2, 4), (3, 2), (4, 4)]:
            geometry = replace(PRESETS[preset]().geometry, rows=rows, cols=cols, origin_px=origin)
            config = PRESETS[preset](
                n_images=1500, seed=0, geometry=geometry,
                image_height=16 + 6 * (rows - 1), image_width=16 + 6 * (cols - 1),
            )
            stack = generate_dataset(config)
            train_idx = split_dataset(1500, seed=0).train_idx
            train = apply_stats(stack.images[train_idx], fit_stats(stack.images[train_idx]))
            geo = locate_sites(mean_image(train), difference_images(train, stack.truth[train_idx]))
            err = np.linalg.norm(geo.centers - geometry.site_centers(), axis=1)
            assert err.max() < bound, (origin, rows, cols, err.max())
            leaves = [not window_fits(c, FIT_WINDOW, train.shape[1:]) for c in geo.centers]
            assert any(leaves) == (origin != (8.0, 8.0)), (origin, rows, cols)
            assert all(geo.fallbacks[k] for k in np.flatnonzero(leaves)), (origin, rows, cols)


def test_damped_joint_fit_locates_without_numeric_warnings(train_means):
    # from this stack's mean-image peaks, a joint fit with plain Marquardt
    # scaling once flung a center to ~1e88 px
    img, diffs, truth, sigma = train_means("crosstalk", 1200, 208)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        geo = locate_sites(img, diffs)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert np.linalg.norm(geo.centers - truth, axis=1).max() < 0.75
    assert np.all(np.abs(geo.sigmas - sigma) < 0.1 * sigma), geo.sigmas


def test_joint_fit_damping_keeps_a_dark_sites_center_near_the_frame():
    # a site with no light leaves its center's Jacobian columns near zero:
    # plain Marquardt scaling then leaves that center undamped and flings it
    # up to ~1e129 px on these seeds, the damping floor keeps it near
    centers = default_config().geometry.site_centers()
    for seed in range(30):
        rng = np.random.default_rng(seed)
        img = sum(gaussian_image((28, 28), c, 1.8, float(i != 4)) for i, c in enumerate(centers))
        img = img + rng.normal(0.0, 0.05, size=img.shape)
        anchors = centers + rng.integers(-1, 2, size=centers.shape)
        fitted, *_ = _fit_bumps(img, anchors, 2.1, (0.3, 4.8))
        assert np.abs(fitted - centers).max() < 28.0, seed


def test_a_site_parked_on_a_neighbours_bump_is_flagged():
    # seed 19 of the damping test: the joint fit parks dark site 5 on site
    # 2's bump and pushes site 2 aside; both windows lie inside the frame,
    # but each center ends far from the peak of its own difference image
    centers = default_config().geometry.site_centers()
    rng = np.random.default_rng(19)
    img = sum(gaussian_image((28, 28), c, 1.8, float(i != 4)) for i, c in enumerate(centers))
    img = img + rng.normal(0.0, 0.05, size=img.shape)
    anchors = centers + rng.integers(-1, 2, size=centers.shape)
    diffs = np.stack([gaussian_image((28, 28), a, 1.8, 1.0) for a in anchors])
    geo = locate_sites(img, diffs)
    assert np.flatnonzero(geo.fallbacks).tolist() == [1, 4]
    assert np.hypot(*(geo.centers[4] - centers[1])) < 0.5
