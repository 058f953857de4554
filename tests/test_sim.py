import hashlib
import json
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr

from mf_readout import (
    ArrayGeometry,
    ConfigError,
    DataError,
    SimConfig,
    crosstalk_config,
    default_config,
    generate_dataset,
    generate_label_path,
    sample_states,
)
from mf_readout.filters import gaussian_score, gaussian_weight_map
from mf_readout.sim import (
    _BLOCK,
    GENERATOR_VERSION,
    _class_threshold,
    _label_scores,
    _pixel_masses,
    _render_block,
    _render_blocks,
)
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
    img = generate_dataset(replace(config, n_images=1)).images[0]
    assert img.shape == (28, 28)
    assert not img.any()


def test_bright_site_centroid():
    # ~1e6 collected photons, no background: the photon centroid pins the center
    config = single_site_config(bright_photon_rate=50_000.0)
    img = generate_dataset(replace(config, n_images=1)).images[0].astype(np.float64)
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
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        default_config(seed=-1)
    geo = ArrayGeometry(rows=3, cols=3, spacing_px=13.0, origin_px=(2.0, 2.0), psf_sigma_px=1.8)
    with pytest.raises(ConfigError):
        default_config(geometry=geo)  # centers leave the 28x28 frame
    # a NaN or infinite number is named, not passed on to numpy
    for field in ("exposure_ms", "bright_photon_rate", "dark_count_rate", "read_noise_sigma", "decay_prob_per_ms"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=f"{field} must be finite"):
                default_config(**{field: value})
    for field, value in [("psf_sigma_px", float("nan")), ("spacing_px", float("inf")), ("origin_px", (8.0, float("nan")))]:
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            replace(default_config().geometry, **{field: value})


def test_config_round_trip():
    config = crosstalk_config(seed=21)
    assert SimConfig.from_dict(config.to_dict()) == config


def test_config_from_dict_rejects_unknown_keys_and_casts_values():
    d = default_config().to_dict()
    with pytest.raises(ConfigError, match="unknown SimConfig key.*'n_image'"):
        SimConfig.from_dict(d | {"n_image": 5})
    with pytest.raises(ConfigError, match="unknown ArrayGeometry key.*'spacing'"):
        SimConfig.from_dict(d | {"geometry": d["geometry"] | {"spacing": 6.0}})
    with pytest.raises(ConfigError, match="p_bright"):
        SimConfig.from_dict({k: v for k, v in d.items() if k != "p_bright"})
    # JSON spells 20.0 as 20 and a pair as a list; both read as the config
    spelled = d | {"exposure_ms": 20, "geometry": d["geometry"] | {"origin_px": [8, 8]}}
    for config in [SimConfig.from_dict(spelled), default_config(exposure_ms=20, n_images=6002.0)]:
        assert json.dumps(config.to_dict(), sort_keys=True) == json.dumps(d, sort_keys=True)


def test_crosstalk_config_regime():
    config = crosstalk_config()
    geo = config.geometry
    assert geo.psf_sigma_px == pytest.approx(geo.spacing_px * 0.4)
    assert config.n_images == 6000


# ------------------------------------------ reference: one photon at a time
#
# The simulator draws one Poisson count per pixel from the frame's mean
# image. This is the per-photon renderer it replaced, which drew and binned
# every photon, kept as the reference its law must match.


def _per_photon_render_into(out, states_row, config, centers, rng):
    h, w = config.image_height, config.image_width
    mean_rate = config.bright_photon_rate * config.attenuation
    offsets, sites, n_list = [], [], []
    for site in states_row.nonzero()[0]:
        emit_ms = config.exposure_ms
        if config.decay_prob_per_ms > 0:
            emit_ms = min(emit_ms, rng.exponential(1.0 / config.decay_prob_per_ms))
        n_photons = rng.poisson(mean_rate * emit_ms)
        if n_photons == 0:
            continue
        offsets.append(rng.standard_normal((n_photons, 2)))
        sites.append(site)
        n_list.append(n_photons)

    if offsets:
        # photon at center + sigma * offset lands in pixel floor(pos + 0.5)
        pos = np.concatenate(offsets)
        pos *= config.geometry.psf_sigma_px
        for axis in (0, 1):
            pos[:, axis] += np.repeat(centers[sites, axis], n_list)
        pos += 0.5
        pix = np.floor(pos, out=pos).astype(np.int64)
        ri, ci = pix[:, 0], pix[:, 1]
        on = (ri >= 0) & (ri < h) & (ci >= 0) & (ci < w)
        counts = np.bincount((ri * w + ci)[on], minlength=h * w)
    else:
        counts = np.zeros(h * w, dtype=np.int64)

    if config.dark_count_rate > 0:
        counts += rng.poisson(config.dark_count_rate * config.exposure_ms, size=h * w)
    if config.read_noise_sigma > 0:
        noise = rng.standard_normal(h * w)
        noise *= config.read_noise_sigma
        np.add(noise, counts, out=out)
    else:
        out[:] = counts


def _per_photon_frames(config, truth):
    """(n, H*W) float64 frames, frame k from its own (seed, "reference", k) stream."""
    rows = np.empty((len(truth), config.image_height * config.image_width))
    centers = config.geometry.site_centers()
    for k, states_row in enumerate(truth):
        _per_photon_render_into(rows[k], states_row, config, centers, stream(config.seed, "reference", k))
    return rows


def _closed_form_means(config, truth):
    """(n, H*W) expected frames: rate * attenuation * E[emit] * PSF pixel mass + dark."""
    geo = config.geometry
    centers = geo.site_centers()

    def axis_masses(n, axis):
        edges = np.arange(n + 1) - 0.5
        return np.diff(ndtr((edges[None] - centers[:, axis, None]) / geo.psf_sigma_px), axis=1)

    rows = axis_masses(config.image_height, 0)
    cols = axis_masses(config.image_width, 1)
    masses = (rows[:, :, None] * cols[:, None, :]).reshape(geo.n_sites, -1)
    emit = config.exposure_ms
    if config.decay_prob_per_ms > 0:  # E[min(T, Exp(rate))] = (1 - exp(-rate T)) / rate
        rate = config.decay_prob_per_ms
        emit = -np.expm1(-rate * config.exposure_ms) / rate
    photons = config.bright_photon_rate * config.attenuation * emit
    return photons * truth.astype(float) @ masses + config.dark_count_rate * config.exposure_ms


def _z_scores(samples):
    """Per-pixel z-score of the mean of samples (n, pixels) against zero."""
    return samples.mean(axis=0) / (samples.std(axis=0, ddof=1) / np.sqrt(len(samples)))


def _assert_standard_normal(z):
    rms = float(np.sqrt(np.mean(z**2)))
    assert 0.8 <= rms <= 1.2, rms
    assert np.abs(z).max() < 5.0, np.abs(z).max()


def _label_frames(config, truth):
    """(n, H*W) second-path frames as the label path renders them."""
    frames = np.empty((len(truth), config.image_height * config.image_width))

    def sink(start, block):
        frames[start : start + len(block)] = block

    _render_blocks(replace(config, attenuation=1.0), truth, "label", sink)
    return frames


def _reference_label_path(config, truth):
    """Per-frame gaussian_score of the label frames, thresholded per site."""
    centers = config.geometry.site_centers()
    shape = (config.image_height, config.image_width)
    maps = [gaussian_weight_map(tuple(c), config.geometry.psf_sigma_px, shape) for c in centers]
    frames = _label_frames(config, truth).reshape(len(truth), *shape)
    scores = np.array(
        [[gaussian_score(frame, m) for m in maps] for frame in frames], dtype=float
    ).reshape(len(truth), len(centers))
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


@pytest.mark.parametrize(
    "preset, decay", [(default_config, 0.0), (crosstalk_config, 0.05)], ids=["default", "crosstalk-decay"]
)
def test_block_renderer_has_the_per_photon_law(preset, decay):
    # same truth for both renderers, so frame k of each has the same law and
    # the paired differences give exact per-pixel z-scores
    config = preset(n_images=10_000, seed=7, decay_prob_per_ms=decay)
    stack = generate_dataset(config)
    n = config.n_images
    new = stack.images.reshape(n, -1).astype(np.float64)
    ref = _per_photon_frames(config, stack.truth)
    _assert_standard_normal(_z_scores(new - ref))
    _assert_standard_normal(
        _z_scores((new - new.mean(axis=0)) ** 2 - (ref - ref.mean(axis=0)) ** 2)
    )
    means = _closed_form_means(config, stack.truth)
    _assert_standard_normal(_z_scores(new - means))
    _assert_standard_normal(_z_scores(ref - means))


def test_stack_prefix_does_not_depend_on_its_length():
    # the property that makes frame k cacheable: more frames never change it
    config = crosstalk_config(n_images=3 * _BLOCK + 5, seed=2, decay_prob_per_ms=0.05)
    full = generate_dataset(config)
    full_label_frames = _label_frames(config, full.truth)
    full_scores = _label_scores(config, full.truth)
    for m in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 3 * _BLOCK + 2):
        part_config = replace(config, n_images=m)
        part = generate_dataset(part_config)
        assert np.array_equal(part.truth, full.truth[:m])
        assert part.images.tobytes() == full.images[:m].tobytes()
        assert _label_frames(part_config, part.truth).tobytes() == full_label_frames[:m].tobytes()
        # a shorter matrix product may sum in another order
        scores = _label_scores(part_config, part.truth)
        assert np.abs(scores - full_scores[:m]).max() <= 1e-12 * np.abs(full_scores).max()
    # each block draws from streams of its own: equal states, other frames
    lit = generate_dataset(replace(config, n_images=2 * _BLOCK, p_bright=1.0))
    assert not np.array_equal(lit.images[:_BLOCK], lit.images[_BLOCK:])


# ------------------------------------------------------- the render pool
#
# Blocks render concurrently, one worker per usable CPU. The serial loop
# the pool replaced, which built every stream of a block and rendered the
# blocks one after another into one buffer, is kept here as the reference
# whose bytes the pool must reproduce at every worker count.


def _serial_reference(config, truth):
    """float32 frames and float64 label scores from the serial block loop."""
    shape = (config.image_height, config.image_width)
    centers = config.geometry.site_centers()
    maps = np.stack(
        [gaussian_weight_map(tuple(c), config.geometry.psf_sigma_px, shape) for c in centers]
    ).reshape(len(centers), -1)
    images = np.empty((len(truth), shape[0] * shape[1]), dtype=np.float32)
    scores = np.empty((len(truth), len(centers)))
    for name, cfg in (("frame", config), ("label", replace(config, attenuation=1.0))):
        masses = _pixel_masses(cfg)
        buf = np.empty((_BLOCK, masses.shape[1]))
        for b, start in enumerate(range(0, len(truth), _BLOCK)):
            stop = min(start + _BLOCK, len(truth))
            rngs = (stream(cfg.seed, name, part, b) for part in ("decay", "photons", "noise"))
            _render_block(buf, truth[start:stop], cfg, masses, *rngs)
            if name == "frame":
                images[start:stop] = buf[: stop - start]
            else:
                np.matmul(buf[: stop - start], maps.T, out=scores[start:stop])
    return images.reshape(len(truth), *shape), scores


@pytest.mark.parametrize("workers", [1, 2, 3, 8])  # 8 is more than the 4 blocks of 3 * 64 + 5
@pytest.mark.parametrize("preset", [default_config, crosstalk_config], ids=["default", "crosstalk"])
def test_render_pool_bytes_do_not_depend_on_the_worker_count(monkeypatch, preset, workers):
    monkeypatch.setattr("mf_readout.sim._usable_cpus", lambda: workers)
    for decay in (0.0, 0.05):
        for n in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5):
            config = preset(n_images=n, seed=3, decay_prob_per_ms=decay)
            stack = generate_dataset(config)
            truth = sample_states(n, config.geometry.n_sites, config.p_bright, stream(3, "states"))
            assert stack.truth.tobytes() == truth.tobytes()
            images, scores = _serial_reference(config, truth)
            assert stack.images.tobytes() == images.tobytes()
            # tolerance 0: each block is still one (m, H*W) @ (H*W, sites) product
            assert _label_scores(config, truth).tobytes() == scores.tobytes()


def test_render_pool_keeps_its_bytes_under_a_short_switch_interval(monkeypatch):
    # more workers than cores, switching threads as often as the interpreter
    # allows: a block written to the wrong rows or through another worker's
    # buffer would change the bytes
    monkeypatch.setattr("mf_readout.sim._usable_cpus", lambda: 8)
    config = crosstalk_config(n_images=16 * _BLOCK + 3, seed=4, decay_prob_per_ms=0.05)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stack = generate_dataset(config)
        scores = _label_scores(config, stack.truth)
    finally:
        sys.setswitchinterval(interval)
    images, ref_scores = _serial_reference(config, stack.truth)
    assert stack.images.tobytes() == images.tobytes()
    assert scores.tobytes() == ref_scores.tobytes()


def test_render_pool_runs_on_at_most_one_worker_per_usable_cpu(monkeypatch):
    monkeypatch.setattr("mf_readout.sim._usable_cpus", lambda: 3)
    config = default_config(n_images=10 * _BLOCK, seed=1)
    seen = set()
    _render_blocks(config, np.ones((config.n_images, 9), np.uint8), "frame",
                   lambda start, frames: seen.add(threading.current_thread()))
    assert 1 <= len(seen) <= 3 and threading.main_thread() not in seen
    seen.clear()
    _render_blocks(config, np.ones((_BLOCK, 9), np.uint8), "frame",
                   lambda start, frames: seen.add(threading.current_thread()))
    assert len(seen) == 1  # capped at the block count


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_render_pool_raises_a_block_error_and_stops_its_workers(monkeypatch, error):
    monkeypatch.setattr("mf_readout.sim._usable_cpus", lambda: 2)
    config = default_config(n_images=40 * _BLOCK, seed=1)
    sunk = []

    def sink(start, frames):
        if start == _BLOCK:
            raise error("block 1 failed")
        time.sleep(0.01)
        sunk.append(start)

    before = threading.active_count()
    with pytest.raises(error, match="block 1 failed"):
        _render_blocks(config, np.ones((config.n_images, 9), np.uint8), "frame", sink)
    assert threading.active_count() == before
    # the blocks still queued when block 1 failed are cancelled, not rendered
    assert len(sunk) < 39


def test_label_scores_equal_per_frame_gaussian_scores():
    # more frames than several blocks, so block edges are exercised
    config = default_config(n_images=600, seed=8)
    truth = generate_dataset(config).truth
    ref_scores, ref_labels = _reference_label_path(config, truth)
    scores = _label_scores(config, truth)
    assert np.abs(scores - ref_scores).max() <= 1e-12 * np.abs(ref_scores).max()
    assert np.array_equal(generate_label_path(config, truth), ref_labels)


@given(
    preset=st.sampled_from([default_config, crosstalk_config]),
    n_images=st.integers(0, 2 * _BLOCK + 1),
    seed=st.integers(0, 2**32 - 1),
    decay=st.sampled_from([0.0, 0.05]),
    dark=st.sampled_from([0.0, 0.04]),
    read_noise=st.sampled_from([0.0, 1.0]),
    p_bright=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_block_renderer_edge_cases(preset, n_images, seed, decay, dark, read_noise, p_bright):
    config = preset(
        n_images=n_images, seed=seed, decay_prob_per_ms=decay, dark_count_rate=dark,
        read_noise_sigma=read_noise, p_bright=p_bright,
    )
    stack = generate_dataset(config)
    assert stack.images.shape == (n_images, config.image_height, config.image_width)
    if p_bright != 0.5:
        assert np.all(stack.truth == int(p_bright))
    if read_noise == 0.0:
        # pure counts: non-negative integers, and none without any light
        assert np.all(stack.images >= 0) and np.all(stack.images == np.round(stack.images))
        if dark == 0.0 and p_bright == 0.0:
            assert not stack.images.any()
    m = n_images // 2
    assert generate_dataset(replace(config, n_images=m)).images.tobytes() == stack.images[:m].tobytes()

    ref_scores, ref_labels = _reference_label_path(config, stack.truth)
    scores = _label_scores(config, stack.truth)
    scale = max(1.0, float(np.abs(ref_scores).max(initial=0.0)))
    assert np.abs(scores - ref_scores).max(initial=0.0) <= 1e-12 * scale
    assert np.array_equal(generate_label_path(config, stack.truth), ref_labels)


def test_pixel_masses_are_the_psf_mass_on_the_sensor():
    # a site far from every edge keeps all its mass; one near an edge loses
    # the part that misses the sensor
    config = default_config(n_images=0)
    masses = _pixel_masses(config)
    assert masses.shape == (9, 28 * 28)
    assert np.all(masses >= 0)
    assert masses[4].sum() == pytest.approx(1.0, abs=1e-12)  # the central site
    edge = single_site_config(
        geometry=ArrayGeometry(rows=1, cols=1, spacing_px=6.0, origin_px=(1.0, 14.0), psf_sigma_px=1.8)
    )
    lost = 1.0 - _pixel_masses(edge).sum()
    assert lost == pytest.approx(ndtr(-1.5 / 1.8), rel=1e-9)
    # erf here, ndtr in the closed form: one site lit per row of states
    one_photon = replace(config, dark_count_rate=0.0, bright_photon_rate=1.0, attenuation=1.0)
    expected = _closed_form_means(one_photon, np.eye(9, dtype=np.uint8)) / config.exposure_ms
    assert np.abs(masses - expected).max() <= 1e-14


# Digests of the generator's output at GENERATOR_VERSION 2, the block
# renderer. dataset_cache_key hashes the SimConfig with that version, so
# any change to these bytes must bump it together with the digests, or
# caches written by the old generator are served as if they were new.
PINNED_VERSION = 2
PINNED_DIGESTS = {
    "default": (
        default_config(n_images=24, seed=11),
        "2b42b3131454f5a315756b4f149aac8df639c28a5c22e2199f5d5b976fe614e9",
        "7f3c17fc680c93119624a6c5a15297214117fde4a6faa209daef21f7ca2b7f3e",
    ),
    "crosstalk-decay": (
        crosstalk_config(n_images=24, seed=12, decay_prob_per_ms=0.05),
        "21c3ce45a68e0593c6f099bf353232e4ffeae75480cacc9fab96c7a2cb34913f",
        "3ce594eac0423b491b91939c0dbf0fbc541942d0ebe92debe48efc0f4a73886b",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_generator_bytes_are_pinned(name):
    assert GENERATOR_VERSION == PINNED_VERSION
    config, stack_digest, label_digest = PINNED_DIGESTS[name]
    stack = generate_dataset(config)
    got = hashlib.sha256(stack.images.tobytes() + stack.truth.tobytes()).hexdigest()
    assert got == stack_digest
    labels = generate_label_path(config, stack.truth)
    assert hashlib.sha256(labels.tobytes()).hexdigest() == label_digest
