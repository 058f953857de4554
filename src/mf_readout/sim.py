"""Synthetic fluorescence-image generator for a square array of trapped atoms.

Bright atoms emit a Poisson number of photons, and each photon lands in a
pixel with the probability mass the isotropic Gaussian point-spread
function puts there (photons that miss the sensor are lost). By Poisson
splitting, the count in a pixel is then Poisson with mean summed over the
bright sites, independent across pixels, so a frame is rendered as one
Poisson draw per pixel from its mean image plus the background counts,
with additive Gaussian read noise on top. Frames are rendered a block at
a time, and each block draws from its own named counter-style streams
derived from the dataset seed: (seed, "frame"|"label", "decay"|"photons"|
"noise", block). So a stack's first m frames do not depend on how many
follow, and the blocks render concurrently on the usable CPUs with the
same bytes whatever the number of worker threads. Dataset caches are
keyed by the SimConfig together with GENERATOR_VERSION, which must be
bumped with any change to the drawn bytes; a digest test pins them.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError, MFReadoutError
from .filters import gaussian_weight_map, unsupervised_threshold
from .util import stream

# Frames per rendered block, the unit of work of the render pool: enough
# that the per-block stream set-up is small against the draws, few enough
# that each worker's float64 block buffer stays small and a stack splits
# into enough blocks to keep every worker busy.
_BLOCK = 64

# Version of the drawn bytes, hashed into the dataset cache key. Bump it
# with any change to what the generator draws for a given SimConfig.
GENERATOR_VERSION = 2


@dataclass(frozen=True)
class ArrayGeometry:
    """Site layout of the trap array, in pixel units.

    Sites are numbered 1..rows*cols in row-major order. origin_px is the
    subpixel (row, col) position of site 1; spacing_px the site-to-site
    pitch along both axes.
    """

    rows: int
    cols: int
    spacing_px: float
    origin_px: tuple[float, float]
    psf_sigma_px: float

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigError("array must have at least one row and one column")
        if self.spacing_px <= 0:
            raise ConfigError("spacing_px must be positive")
        if self.psf_sigma_px <= 0:
            raise ConfigError("psf_sigma_px must be positive")

    @property
    def n_sites(self) -> int:
        return self.rows * self.cols

    def site_centers(self) -> np.ndarray:
        """(n_sites, 2) array of (row, col) centers, row-major site order."""
        r0, c0 = self.origin_px
        rr, cc = np.meshgrid(np.arange(self.rows), np.arange(self.cols), indexing="ij")
        centers = np.stack(
            [r0 + rr.ravel() * self.spacing_px, c0 + cc.ravel() * self.spacing_px], axis=1
        )
        return centers.astype(float)

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "spacing_px": self.spacing_px,
            "origin_px": list(self.origin_px),
            "psf_sigma_px": self.psf_sigma_px,
        }

    @staticmethod
    def from_dict(d: dict) -> "ArrayGeometry":
        try:
            return ArrayGeometry(
                rows=int(d["rows"]),
                cols=int(d["cols"]),
                spacing_px=float(d["spacing_px"]),
                origin_px=(float(d["origin_px"][0]), float(d["origin_px"][1])),
                psf_sigma_px=float(d["psf_sigma_px"]),
            )
        except MFReadoutError:
            raise
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ConfigError(f"bad geometry dict: {exc}") from exc


@dataclass(frozen=True)
class SimConfig:
    """Full parametrization of one synthetic dataset.

    bright_photon_rate is the photon emission rate per bright atom before
    attenuation; the measured path collects rate * attenuation * exposure
    photons on average. dark_count_rate is background photons per pixel
    per ms. decay_prob_per_ms > 0 lets bright atoms go dark mid-exposure.
    """

    geometry: ArrayGeometry
    image_height: int
    image_width: int
    exposure_ms: float
    bright_photon_rate: float
    attenuation: float
    dark_count_rate: float
    read_noise_sigma: float
    p_bright: float
    seed: int
    n_images: int
    decay_prob_per_ms: float = 0.0

    def __post_init__(self):
        if self.exposure_ms <= 0:
            raise ConfigError("exposure_ms must be positive")
        if not 0.0 <= self.p_bright <= 1.0:
            raise ConfigError("p_bright must lie in [0, 1]")
        if not 0.0 < self.attenuation <= 1.0:
            raise ConfigError("attenuation must lie in (0, 1]")
        if self.bright_photon_rate < 0 or self.dark_count_rate < 0:
            raise ConfigError("photon rates must be non-negative")
        if self.read_noise_sigma < 0 or self.decay_prob_per_ms < 0:
            raise ConfigError("noise parameters must be non-negative")
        if self.n_images < 0:
            raise ConfigError("n_images must be non-negative")
        self.validate_bounds()

    def validate_bounds(self):
        """All nominal site centers must lie strictly inside the image."""
        centers = self.geometry.site_centers()
        h, w = self.image_height, self.image_width
        if (
            np.any(centers[:, 0] <= 0)
            or np.any(centers[:, 0] >= h - 1)
            or np.any(centers[:, 1] <= 0)
            or np.any(centers[:, 1] >= w - 1)
        ):
            raise ConfigError(
                f"site centers exceed the {h}x{w} image bounds: {centers.tolist()}"
            )

    def to_dict(self) -> dict:
        return {
            "geometry": self.geometry.to_dict(),
            "image_height": self.image_height,
            "image_width": self.image_width,
            "exposure_ms": self.exposure_ms,
            "bright_photon_rate": self.bright_photon_rate,
            "attenuation": self.attenuation,
            "dark_count_rate": self.dark_count_rate,
            "read_noise_sigma": self.read_noise_sigma,
            "p_bright": self.p_bright,
            "decay_prob_per_ms": self.decay_prob_per_ms,
            "seed": self.seed,
            "n_images": self.n_images,
        }

    @staticmethod
    def from_dict(d: dict) -> "SimConfig":
        try:
            return SimConfig(
                geometry=ArrayGeometry.from_dict(d["geometry"]),
                image_height=int(d["image_height"]),
                image_width=int(d["image_width"]),
                exposure_ms=float(d["exposure_ms"]),
                bright_photon_rate=float(d["bright_photon_rate"]),
                attenuation=float(d["attenuation"]),
                dark_count_rate=float(d["dark_count_rate"]),
                read_noise_sigma=float(d["read_noise_sigma"]),
                p_bright=float(d["p_bright"]),
                decay_prob_per_ms=float(d.get("decay_prob_per_ms", 0.0)),
                seed=int(d["seed"]),
                n_images=int(d["n_images"]),
            )
        except MFReadoutError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad sim config dict: {exc}") from exc


@dataclass
class LabeledImageStack:
    """A stack of rendered frames with the ground-truth state of each site."""

    images: np.ndarray  # (n, H, W) float32
    truth: np.ndarray  # (n, n_sites) uint8, 1 = bright
    config: SimConfig

    def __post_init__(self):
        if self.images.shape[0] != self.truth.shape[0]:
            raise DataError(
                f"image count {self.images.shape[0]} != label count {self.truth.shape[0]}"
            )

    @property
    def n_images(self) -> int:
        return self.images.shape[0]

    @property
    def n_sites(self) -> int:
        return self.truth.shape[1]


def default_geometry() -> ArrayGeometry:
    """3x3 array, 6 px pitch, 1.8 px PSF width, sized for a 28x28 frame."""
    return ArrayGeometry(rows=3, cols=3, spacing_px=6.0, origin_px=(8.0, 8.0), psf_sigma_px=1.8)


def default_config(**overrides) -> SimConfig:
    """Default dataset parameters.

    Photon rate, background, and read noise are chosen so the Gaussian
    filter lands near 1e-2 infidelity at the default exposure, which is the
    regime where the classifier comparison is interesting.
    """
    base = dict(
        geometry=default_geometry(),
        image_height=28,
        image_width=28,
        exposure_ms=20.0,
        bright_photon_rate=20.0,
        attenuation=0.1,
        dark_count_rate=0.04,
        read_noise_sigma=1.0,
        p_bright=0.5,
        seed=0,
        n_images=6002,
    )
    base.update(overrides)
    return SimConfig(**base)


def crosstalk_config(**overrides) -> SimConfig:
    """Dataset parameters for a crosstalk-dominated array.

    The PSF width is 40% of the site pitch, so every filter collects a
    sizeable fraction of its neighbors' light. Exposure and read noise
    put the Gaussian filter just under 5e-2 infidelity, the regime where
    its noise weighting still beats the plain box sum while the matched
    filters show a large margin from crosstalk cancellation.
    """
    base = dict(
        geometry=ArrayGeometry(
            rows=3, cols=3, spacing_px=6.0, origin_px=(8.0, 8.0), psf_sigma_px=2.4
        ),
        image_height=28,
        image_width=28,
        exposure_ms=47.0,
        bright_photon_rate=20.0,
        attenuation=0.1,
        dark_count_rate=0.04,
        read_noise_sigma=2.0,
        p_bright=0.5,
        seed=0,
        n_images=6000,
    )
    base.update(overrides)
    return SimConfig(**base)


def sample_states(n_images: int, n_sites: int, p_bright: float, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. Bernoulli(p_bright) bright/dark states, shape (n_images, n_sites)."""
    if n_images < 0 or n_sites < 1:
        raise ConfigError("need n_images >= 0 and n_sites >= 1")
    return (rng.random((n_images, n_sites)) < p_bright).astype(np.uint8)


def _pixel_masses(config: SimConfig) -> np.ndarray:
    """(n_sites, H*W) point-spread mass of each site in each pixel.

    Pixel r covers [r - 0.5, r + 0.5) along each axis, so its mass per axis
    is a difference of erf at those edges. Mass off the sensor is dropped,
    so a row sums to less than one.
    """
    geometry = config.geometry
    scale = 1.0 / (geometry.psf_sigma_px * math.sqrt(2.0))

    def axis_masses(n, centers):
        edges = np.arange(n + 1) - 0.5
        cdf = np.array([[math.erf((e - c) * scale) for e in edges] for c in centers])
        return 0.5 * np.diff(cdf, axis=1)

    centers = geometry.site_centers()
    rows = axis_masses(config.image_height, centers[:, 0])
    cols = axis_masses(config.image_width, centers[:, 1])
    return (rows[:, :, None] * cols[:, None, :]).reshape(geometry.n_sites, -1)


def _render_block(out, states, config: SimConfig, masses, decay_rng, photon_rng, noise_rng) -> None:
    """Render the m frames of states (m, n_sites) into out[:m], float64 rows.

    A site's photons land in pixel j with probability masses[site, j], so
    by Poisson splitting a frame is one Poisson draw per pixel from the
    mean (rate * attenuation * emit time) @ masses plus the dark counts.
    Every row of out gets a mean, the rows past m from zero emit times, so
    the product has the same shape for a full and a partial block and a
    frame's mean does not depend on how many frames follow it. Draw order:
    the decay times, then the pixel counts, then the read noise, each
    frame by frame.
    """
    m = states.shape[0]
    emit = np.zeros((out.shape[0], masses.shape[0]))
    emit[:m][states != 0] = config.exposure_ms
    if config.decay_prob_per_ms > 0:
        decay = decay_rng.exponential(1.0 / config.decay_prob_per_ms, size=states.shape)
        np.minimum(emit[:m], decay, out=emit[:m])
    emit *= config.bright_photon_rate * config.attenuation
    np.matmul(emit, masses, out=out)
    frames = out[:m]
    frames += config.dark_count_rate * config.exposure_ms
    counts = photon_rng.poisson(frames)
    if config.read_noise_sigma > 0:
        noise_rng.standard_normal(out=frames)
        frames *= config.read_noise_sigma
        frames += counts
    else:
        frames[:] = counts


def _usable_cpus() -> int:
    """CPUs this process may run on, the render pool's size before the cap."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _render_blocks(config: SimConfig, states, name: str, sink) -> None:
    """Render the frames of states _BLOCK at a time and call sink(start, frames).

    frames is a float64 (m, H*W) view of the calling worker's block buffer,
    valid only during the call, so sink must copy out what it keeps; it
    should write only rows start..start+m of its output, as blocks arrive
    in any order and from several threads. Block b draws from the (seed,
    name, "decay"|"photons"|"noise", b) streams, so the first m frames of a
    stack do not depend on how many follow nor on the number of workers,
    one per usable CPU up to the block count. An error or interrupt in any
    block cancels the blocks not yet started and is raised here once the
    running ones have stopped; no worker outlives the call.
    """
    masses = _pixel_masses(config)
    n = states.shape[0]
    starts = range(0, n, _BLOCK)
    if not starts:
        return
    buffers = threading.local()

    def render(b, start):
        buf = getattr(buffers, "buf", None)
        if buf is None:
            buf = buffers.buf = np.empty((_BLOCK, masses.shape[1]), dtype=np.float64)
        stop = min(start + _BLOCK, n)
        # the decay stream is drawn from only when decay is on
        decay_rng = stream(config.seed, name, "decay", b) if config.decay_prob_per_ms > 0 else None
        rngs = (stream(config.seed, name, part, b) for part in ("photons", "noise"))
        _render_block(buf, states[start:stop], config, masses, decay_rng, *rngs)
        sink(start, buf[: stop - start])

    pool = ThreadPoolExecutor(min(_usable_cpus(), len(starts)), thread_name_prefix="render")
    try:
        for future in [pool.submit(render, b, start) for b, start in enumerate(starts)]:
            future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def render_image(states_row, config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Render one float64 frame for the given per-site bright/dark states.

    The one-frame case of the block renderer, with every draw taken from
    rng in the block order (decay times, pixel counts, read noise), so a
    frame is a pure function of the generator state.
    """
    states_row = np.asarray(states_row)
    geometry = config.geometry
    if states_row.shape[0] != geometry.n_sites:
        raise DataError(
            f"states row has {states_row.shape[0]} entries for {geometry.n_sites} sites"
        )
    image = np.empty((1, config.image_height * config.image_width), dtype=np.float64)
    _render_block(image, states_row[None], config, _pixel_masses(config), rng, rng, rng)
    return image.reshape(config.image_height, config.image_width)


def generate_dataset(config: SimConfig) -> LabeledImageStack:
    """Generate the full labeled stack described by config.

    States come from the "states" stream and frames from the per-block
    "frame" streams, so the first m frames and states of an n-frame stack
    equal those of an m-frame stack.
    """
    truth = sample_states(
        config.n_images, config.geometry.n_sites, config.p_bright, stream(config.seed, "states")
    )
    h, w = config.image_height, config.image_width
    images = np.empty((config.n_images, h, w), dtype=np.float32)
    rows = images.reshape(config.n_images, h * w)

    def sink(start, frames):
        rows[start : start + len(frames)] = frames

    _render_blocks(config, truth, "frame", sink)
    return LabeledImageStack(images=images, truth=truth, config=config)


def _class_threshold(dark_scores, bright_scores):
    """Score threshold between two labeled score populations.

    The Gaussian-intersection rule where it is defined, else (a class
    with fewer than two scores or zero variance) the midpoint of the class
    means; 0 with both classes empty, 1 past the other class's mean with
    one empty. So label generation never aborts.
    """
    dark_scores = np.asarray(dark_scores, dtype=float)
    bright_scores = np.asarray(bright_scores, dtype=float)
    if dark_scores.size == 0 and bright_scores.size == 0:
        return 0.0
    if dark_scores.size == 0:
        return float(bright_scores.mean()) - 1.0
    if bright_scores.size == 0:
        return float(dark_scores.mean()) + 1.0
    try:
        return unsupervised_threshold(dark_scores, bright_scores)
    except DataError:
        return 0.5 * (float(dark_scores.mean()) + float(bright_scores.mean()))


def _label_scores(config: SimConfig, truth: np.ndarray) -> np.ndarray:
    """(n_images, n_sites) Gaussian-filter scores of the second-path frames.

    Each float64 block of frames is scored with one matrix product, so no
    copy of the whole stack is held.
    """
    label_config = replace(config, attenuation=1.0)
    centers = config.geometry.site_centers()
    shape = (config.image_height, config.image_width)
    maps = np.stack(
        [gaussian_weight_map(tuple(c), config.geometry.psf_sigma_px, shape) for c in centers]
    ).reshape(len(centers), -1)

    scores = np.empty((config.n_images, len(centers)), dtype=np.float64)

    def sink(start, frames):
        np.matmul(frames, maps.T, out=scores[start : start + len(frames)])

    _render_blocks(label_config, truth, "label", sink)
    return scores


def generate_label_path(config: SimConfig, truth: np.ndarray) -> np.ndarray:
    """Near-perfect labels from a second, unattenuated imaging path.

    Renders every frame again at attenuation 1, scores each site with the
    fixed Gaussian filter built from the true geometry, and thresholds at
    the per-site score-histogram intersection. The result mimics
    experimentally derived ground truth: essentially exact at high SNR
    but not guaranteed to equal the true states.
    """
    truth = np.asarray(truth)
    if truth.shape != (config.n_images, config.geometry.n_sites):
        raise DataError(
            f"truth shape {truth.shape} does not match config "
            f"({config.n_images}, {config.geometry.n_sites})"
        )
    scores = _label_scores(config, truth)
    labels = np.zeros_like(truth, dtype=np.uint8)
    for s in range(config.geometry.n_sites):
        col = scores[:, s]
        theta = _class_threshold(col[truth[:, s] == 0], col[truth[:, s] == 1])
        labels[:, s] = (col >= theta).astype(np.uint8)
    return labels
