import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mf_readout import (
    ArrayGeometry,
    ConfigError,
    DataError,
    SimConfig,
    crosstalk_config,
    default_config,
    generate_dataset,
    generate_label_path,
    render_image,
    sample_states,
)
from mf_readout.filters import gaussian_score, gaussian_weight_map
from mf_readout.sim import _class_threshold, _label_scores
from mf_readout.util import stream


def single_site_config(**overrides):
    geo = ArrayGeometry(rows=1, cols=1, spacing_px=6.0, origin_px=(14.0, 14.0), psf_sigma_px=1.8)
    base = dict(
        geometry=geo,
        image_height=28,
        image_width=28,
        exposure_ms=20.0,
        bright_photon_rate=20.0,
        attenuation=1.0,
        dark_count_rate=0.0,
        read_noise_sigma=0.0,
        p_bright=1.0,
        seed=0,
        n_images=1,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_default_config_shape_contract():
    config = default_config()
    assert config.n_images == 6002
    assert (config.image_height, config.image_width) == (28, 28)
    assert config.geometry.n_sites == 9


def test_generated_shapes_and_dtypes():
    stack = generate_dataset(default_config(n_images=7, seed=1))
    assert stack.images.shape == (7, 28, 28)
    assert stack.images.dtype == np.float32
    assert stack.truth.shape == (7, 9)
    assert set(np.unique(stack.truth)) <= {0, 1}


def test_empty_stack():
    stack = generate_dataset(default_config(n_images=0))
    assert stack.images.shape == (0, 28, 28)
    assert stack.truth.shape == (0, 9)


def test_sample_states_degenerate():
    rng = stream(0, "states")
    assert not sample_states(50, 4, 0.0, rng).any()
    assert sample_states(50, 4, 1.0, rng).all()


def test_sample_states_balanced_fraction():
    frac = sample_states(10_000, 1, 0.5, stream(3, "states")).mean()
    assert abs(frac - 0.5) < 0.02


def test_zero_image_without_light_or_noise():
    config = single_site_config(bright_photon_rate=0.0)
    img = render_image(np.array([1], np.uint8), config, stream(0, "r"))
    assert img.shape == (28, 28)
    assert not img.any()


def test_bright_site_centroid():
    # ~1e6 collected photons, no background: the photon centroid pins the center
    config = single_site_config(bright_photon_rate=50_000.0)
    img = render_image(np.array([1], np.uint8), config, stream(1, "r")).astype(np.float64)
    total = img.sum()
    assert total > 9e5
    rows = np.arange(28)
    r_bar = (img.sum(axis=1) * rows).sum() / total
    c_bar = (img.sum(axis=0) * rows).sum() / total
    assert abs(r_bar - 14.0) < 0.02
    assert abs(c_bar - 14.0) < 0.02


def test_background_is_poisson():
    config = single_site_config(
        image_height=9, image_width=9,
        geometry=ArrayGeometry(rows=1, cols=1, spacing_px=6.0, origin_px=(4.0, 4.0), psf_sigma_px=1.8),
        p_bright=0.0, dark_count_rate=0.2, n_images=600, seed=5,
    )
    stack = generate_dataset(config)
    vals = stack.images.astype(np.float64).ravel()
    expected = 0.2 * 20.0
    assert abs(vals.mean() - expected) < 0.05
    assert abs(vals.var() / vals.mean() - 1.0) < 0.05


def test_generation_is_deterministic_and_seeded():
    config = default_config(n_images=40, seed=9)
    a = generate_dataset(config)
    b = generate_dataset(config)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.truth, b.truth)
    c = generate_dataset(replace(config, seed=10))
    assert not np.array_equal(a.images, c.images)


def test_frame_depends_only_on_its_own_stream():
    # the property that makes frame k cacheable and renderable on its own
    config = crosstalk_config(n_images=40, seed=2, decay_prob_per_ms=0.05)
    stack = generate_dataset(config)
    for k in (0, 1, 17, 39):
        alone = render_image(stack.truth[k], config, stream(config.seed, "frame", k))
        assert np.array_equal(alone.astype(np.float32), stack.images[k])


def test_decay_reduces_collected_light():
    base = default_config(n_images=60, seed=4, p_bright=1.0)
    with_decay = replace(base, decay_prob_per_ms=0.05)
    bright = generate_dataset(base).images.sum()
    decayed = generate_dataset(with_decay).images.sum()
    assert decayed < bright


def test_label_path_matches_truth_at_high_snr():
    config = default_config(n_images=800, seed=6)
    stack = generate_dataset(config)
    labels = generate_label_path(config, stack.truth)
    assert labels.shape == stack.truth.shape
    disagreement = (labels != stack.truth).mean()
    assert disagreement < 0.005
    # deterministic relabeling
    assert np.array_equal(labels, generate_label_path(config, stack.truth))


def test_label_path_rejects_misshaped_truth():
    config = default_config(n_images=10)
    with pytest.raises(DataError):
        generate_label_path(config, np.zeros((9, 9), np.uint8))


def test_config_validation():
    with pytest.raises(ConfigError):
        default_config(exposure_ms=0.0)
    with pytest.raises(ConfigError):
        default_config(p_bright=1.5)
    with pytest.raises(ConfigError):
        default_config(attenuation=0.0)
    with pytest.raises(ConfigError):
        default_config(read_noise_sigma=-1.0)
    geo = ArrayGeometry(rows=3, cols=3, spacing_px=13.0, origin_px=(2.0, 2.0), psf_sigma_px=1.8)
    with pytest.raises(ConfigError):
        default_config(geometry=geo)  # centers leave the 28x28 frame


def test_config_round_trip():
    config = crosstalk_config(seed=21)
    assert SimConfig.from_dict(config.to_dict()) == config


def test_crosstalk_config_regime():
    config = crosstalk_config()
    geo = config.geometry
    assert geo.psf_sigma_px == pytest.approx(geo.spacing_px * 0.4)
    assert config.n_images == 6000


# ------------------------------------------- reference: the per-site loop
#
# The simulator bins all of a frame's photons at once and scores the label
# path in blocks. These are the per-site, per-frame versions it replaced,
# kept as the reference it must reproduce.


def _reference_bin(rows, cols, height, width):
    ri = np.floor(rows + 0.5).astype(np.int64)
    ci = np.floor(cols + 0.5).astype(np.int64)
    ok = (ri >= 0) & (ri < height) & (ci >= 0) & (ci < width)
    counts = np.bincount(ri[ok] * width + ci[ok], minlength=height * width)
    return counts.reshape(height, width).astype(np.float64)


def _reference_render(states_row, config, rng):
    geometry = config.geometry
    h, w = config.image_height, config.image_width
    image = np.zeros((h, w), dtype=np.float64)
    centers = geometry.site_centers()
    mean_rate = config.bright_photon_rate * config.attenuation
    for site in range(geometry.n_sites):
        if not states_row[site]:
            continue
        emit_ms = config.exposure_ms
        if config.decay_prob_per_ms > 0:
            emit_ms = min(emit_ms, rng.exponential(1.0 / config.decay_prob_per_ms))
        n_photons = rng.poisson(mean_rate * emit_ms)
        if n_photons == 0:
            continue
        offsets = rng.standard_normal((n_photons, 2)) * geometry.psf_sigma_px
        image += _reference_bin(
            centers[site, 0] + offsets[:, 0], centers[site, 1] + offsets[:, 1], h, w
        )
    if config.dark_count_rate > 0:
        image += rng.poisson(config.dark_count_rate * config.exposure_ms, size=(h, w))
    if config.read_noise_sigma > 0:
        image += rng.standard_normal((h, w)) * config.read_noise_sigma
    return image


def _reference_images(config, truth):
    images = np.zeros((config.n_images, config.image_height, config.image_width), np.float32)
    for k in range(config.n_images):
        images[k] = _reference_render(truth[k], config, stream(config.seed, "frame", k))
    return images


def _reference_label_path(config, truth):
    label_config = replace(config, attenuation=1.0)
    centers = config.geometry.site_centers()
    shape = (config.image_height, config.image_width)
    maps = [gaussian_weight_map(tuple(c), config.geometry.psf_sigma_px, shape) for c in centers]
    scores = np.array(
        [
            [gaussian_score(frame, m) for m in maps]
            for frame in (
                _reference_render(truth[k], label_config, stream(config.seed, "label", k))
                for k in range(config.n_images)
            )
        ],
        dtype=float,
    ).reshape(config.n_images, len(centers))
    labels = np.zeros_like(truth, dtype=np.uint8)
    for s in range(len(centers)):
        col = scores[:, s]
        theta = _class_threshold(col[truth[:, s] == 0], col[truth[:, s] == 1])
        labels[:, s] = (col >= theta).astype(np.uint8)
    return scores, labels


@pytest.mark.parametrize(
    "dark, bright, expected",
    [
        ([], [], 0.0),  # both classes empty
        ([], [3.0, 5.0], 3.0),  # no dark scores: 1 below the bright mean
        ([1.0, 3.0], [], 3.0),  # no bright scores: 1 above the dark mean
        ([1.0], [4.0, 6.0], 3.0),  # a single score: midpoint of the means
        ([0.0, 2.0], [7.0], 4.0),
        ([2.0, 2.0], [4.0, 8.0], 4.0),  # zero variance: midpoint of the means
        ([0.0, 4.0], [6.0, 6.0], 4.0),
    ],
)
def test_class_threshold_degenerate_cases(dark, bright, expected):
    assert _class_threshold(dark, bright) == expected


@given(
    preset=st.sampled_from([default_config, crosstalk_config]),
    n_images=st.integers(0, 24),
    seed=st.integers(0, 2**32 - 1),
    decay=st.sampled_from([0.0, 0.05]),
    dark=st.sampled_from([0.0, 0.04]),
    read_noise=st.sampled_from([0.0, 1.0]),
    p_bright=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_fast_simulator_matches_the_per_site_loop(
    preset, n_images, seed, decay, dark, read_noise, p_bright
):
    config = preset(
        n_images=n_images, seed=seed, decay_prob_per_ms=decay, dark_count_rate=dark,
        read_noise_sigma=read_noise, p_bright=p_bright,
    )
    stack = generate_dataset(config)
    assert stack.images.tobytes() == _reference_images(config, stack.truth).tobytes()

    ref_scores, ref_labels = _reference_label_path(config, stack.truth)
    scores = _label_scores(config, stack.truth)
    # a block matrix product sums in another order than per-frame tensordot
    scale = max(1.0, float(np.abs(ref_scores).max(initial=0.0)))
    assert np.abs(scores - ref_scores).max(initial=0.0) <= 1e-12 * scale
    assert np.array_equal(generate_label_path(config, stack.truth), ref_labels)


def test_label_scores_span_several_blocks():
    # more frames than one label block, so block edges are exercised
    config = default_config(n_images=600, seed=8, read_noise_sigma=0.0)
    stack = generate_dataset(config)
    ref_scores, ref_labels = _reference_label_path(config, stack.truth)
    scores = _label_scores(config, stack.truth)
    assert np.abs(scores - ref_scores).max() <= 1e-12 * np.abs(ref_scores).max()
    assert np.array_equal(generate_label_path(config, stack.truth), ref_labels)


# Digests of the generator's output, recorded before the renderer was
# vectorized. dataset_cache_key hashes the SimConfig alone, so any change
# to these bytes must also version that key, or caches written by the old
# generator are served as if they were new.
PINNED_DIGESTS = {
    "default": (
        default_config(n_images=24, seed=11),
        "8d626ad9abdc7d5e2be819ff14826a7e2d52535600a22c77798753174c292e1e",
        "7f3c17fc680c93119624a6c5a15297214117fde4a6faa209daef21f7ca2b7f3e",
    ),
    "crosstalk-decay": (
        crosstalk_config(n_images=24, seed=12, decay_prob_per_ms=0.05),
        "821be071ef5e4b0eb9cf3f260de6a66bca22347734cdb8ce89c4ed8184afccd0",
        "08c36ab941f6246f4206695998c3c083050b1bfeff7272f38d892376d73f1046",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_generator_bytes_are_pinned(name):
    config, stack_digest, label_digest = PINNED_DIGESTS[name]
    stack = generate_dataset(config)
    got = hashlib.sha256(stack.images.tobytes() + stack.truth.tobytes()).hexdigest()
    assert got == stack_digest
    labels = generate_label_path(config, stack.truth)
    assert hashlib.sha256(labels.tobytes()).hexdigest() == label_digest
