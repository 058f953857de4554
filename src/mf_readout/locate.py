"""Stack preprocessing and site localization.

The localization chain is: average the training images, take each site's
anchor from its label-conditioned difference image (difference_images),
and fit every site's bump on the mean image at once from those anchors.
The difference images are built from the train block's column sums and
its product X^T Y with the labels (label_sums); the pipeline forms those
once per shuffle, and the training moments take their bias row and R
from the same sums. The joint fit of every site's bump on the whole
image is one Levenberg-Marquardt fit (_fit_bumps), and each site is
confirmed against its own anchor: the fit must leave its center near
the peak of its difference image, and its fit window, placed and
checked by the filters' window rule (window_fits), inside the image. The
located centers must pass the same in-frame check as the simulated ones
(centers_inside). Normalization statistics always come from the
training split alone and are then applied unchanged to every split.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, MFReadoutError
from .filters import centers_inside, frame_blocks, window_fits
from .sim import LabeledImageStack, SimConfig
from .util import cast_fields, finite_fields, read_dataclass, read_json, require_finite

FIT_WINDOW = 7


def crop_config(config: SimConfig, top: int, left: int, height: int, width: int) -> SimConfig:
    """config for its frames cropped to the rectangle: the image size and
    the site origin move with it.

    ConfigError when the rectangle leaves the frame or cuts off a site,
    so a run with a bad crop is stopped before it renders anything.
    """
    h, w = config.image_height, config.image_width
    if top < 0 or left < 0 or height < 1 or width < 1 or top + height > h or left + width > w:
        raise ConfigError(
            f"crop rectangle ({top},{left},{height},{width}) leaves the {h}x{w} frame"
        )
    geo = config.geometry
    return replace(
        config,
        image_height=height,
        image_width=width,
        geometry=replace(geo, origin_px=(geo.origin_px[0] - top, geo.origin_px[1] - left)),
    )


def crop(stack: LabeledImageStack, top: int, left: int, height: int, width: int) -> LabeledImageStack:
    """Crop every frame to the rectangle; labels are untouched.

    The attached config is rewritten by crop_config so the cropped stack
    stays self-consistent for downstream windows.
    """
    cfg = crop_config(stack.config, top, left, height, width)
    images = np.ascontiguousarray(stack.images[:, top : top + height, left : left + width])
    return LabeledImageStack(images=images, truth=stack.truth, config=cfg)


@dataclass(frozen=True)
class PreprocessStats:
    """Centering and scaling constants taken from the training images."""

    train_mean: float
    train_range: float

    def __post_init__(self):
        cast_fields(self, float, "train_mean", "train_range")
        finite_fields(self, "train_mean", "train_range", error=DataError)
        if not self.train_range > 0:
            raise DataError(f"train_range must be positive, got {self.train_range}")

    to_dict = asdict

    @staticmethod
    def from_dict(d: dict) -> "PreprocessStats":
        return read_dataclass(PreprocessStats, d, DataError)


def fit_stats(train_images) -> PreprocessStats:
    """Mean and max-min range over all pixels of the training images only."""
    arr = np.asarray(train_images, dtype=np.float64)
    if arr.size == 0:
        raise DataError("cannot fit stats on an empty stack")
    rng = float(arr.max() - arr.min())
    if rng == 0.0:
        raise DataError("constant image stack, normalization range is zero")
    return PreprocessStats(train_mean=float(arr.mean()), train_range=rng)


def apply_stats(images, stats: PreprocessStats, out=None) -> np.ndarray:
    """(x - train_mean) / train_range, elementwise, on any split.

    One float64 array, divided in place: bit-equal to casting to float64
    and then subtracting and dividing into fresh arrays. out, a float64
    array of the images' shape (the images themselves, to normalize a
    float64 block in place), receives the result instead of a new array.
    """
    out = np.subtract(images, stats.train_mean, out=out, dtype=np.float64)
    out /= stats.train_range
    return out


def gather_frames(images, idx) -> np.ndarray:
    """images[idx] as one new float64 (len(idx), H, W) array.

    The frames are copied in frame_blocks of idx, so no more than one
    block of them is held in the stack's own dtype on the way, and the
    result has the bits of np.asarray(images[idx], dtype=np.float64): the
    cast is exact. apply_stats(block, stats, out=block) then gives the
    bits of apply_stats(images[idx], stats).
    """
    out = np.empty((len(idx), *images.shape[1:]))
    for lo, hi in frame_blocks(len(idx)):
        out[lo:hi] = images[idx[lo:hi]]
    return out


def mean_image(images) -> np.ndarray:
    """Pixelwise mean over the stack."""
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] < 1:
        raise DataError(f"need a non-empty (n, H, W) stack, got shape {arr.shape}")
    return arr.mean(axis=0)


class LabelSums(NamedTuple):
    """Sums over a block of frames X (one row per frame, pixels row-major)
    and its (n, n_sites) 0/1 labels Y, from label_sums: columns = X^T 1,
    bright = X^T Y and n_bright = Y^T 1. shape is the frames' (n, H, W).
    The difference images and the train moments are both built from them.
    """

    columns: np.ndarray  # (H * W,) float64
    bright: np.ndarray  # (H * W, n_sites) float64
    n_bright: np.ndarray  # (n_sites,) integer
    shape: tuple[int, int, int]

    def difference_images(self) -> np.ndarray:
        """The frames' difference_images; DataError when a site's labels
        hold one class."""
        n = self.shape[0]
        one_class = np.flatnonzero((self.n_bright == 0) | (self.n_bright == n)) + 1
        if one_class.size:
            raise DataError(f"site(s) {', '.join(map(str, one_class))}: the labels hold one class, so no difference image")
        dark = self.columns[:, None] - self.bright
        diffs = self.bright / self.n_bright - dark / (n - self.n_bright)
        return diffs.T.reshape(len(self.n_bright), *self.shape[1:])


def label_sums(frames, labels) -> LabelSums:
    """The column and label sums of a frame block, in float64; DataError
    when frames and labels disagree in shape."""
    x = np.asarray(frames, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 3 or y.ndim != 2 or len(x) != len(y):
        raise DataError(f"need (n, H, W) frames and (n, n_sites) labels, got {x.shape} and {y.shape}")
    flat = x.reshape(len(x), -1)
    return LabelSums(flat.sum(axis=0), flat.T @ y.astype(np.float64), y.sum(axis=0), x.shape)


def difference_images(frames, labels) -> np.ndarray:
    """(n_sites, H, W) float64: per site, the mean frame where its label is
    bright minus the mean frame where it is dark, which holds that site's
    bump alone, as the other sites' states are independent of its own.
    DataError when frames and labels disagree in shape, or when a site's
    labels hold one class.
    """
    return label_sums(frames, labels).difference_images()


def _fit_bumps(patch, anchors, sigma0, sigma_band):
    """Levenberg-Marquardt fit of a sum of Gaussian bumps to one patch.

    patch is an (h, w) image and anchors an (n, 2) array of start centers
    in patch coordinates. The patch is modelled as n bumps
    A_j exp(-d_j^2 / 2 sigma^2) plus one offset: every bump has a free
    center and amplitude, and they share one width, which starts at
    sigma0 and stays clipped into sigma_band = (low, high), low > 0.
    The amplitudes and offset start at their linear least-squares values.
    Each parameter is damped by its own curvature, floored at 1e-3 of the
    largest: plain Marquardt scaling leaves a center undamped once its
    amplitude nears zero, and such a center can be flung far away. An
    iteration tries up to 12 steps and takes the first that is finite and
    does not raise the squared residual (a singular system is a rejected
    try; lambda / 3 on accept, floored at 1e-10, x 10 on reject). The fit
    stops after an iteration that takes no step or moves no center and
    the width by 1e-6 or more, or after 80. Returns (centers (n, 2),
    sigma, amplitudes (n,), offset).
    """
    h, w = np.shape(patch)
    # the arrays keep a leading axis of one problem: the 2-D forms of the
    # products and the solve may round otherwise, and the localization
    # parity checks hold these bits
    y = np.asarray(patch, dtype=np.float64).reshape(1, h * w)
    anchors = np.asarray(anchors, dtype=np.float64)
    n = len(anchors)
    s = 2 * n  # the width's column; the amplitudes follow it, the offset is last
    lo, hi = sigma_band
    grid_r, grid_c = np.indices((h, w), dtype=np.float64).reshape(2, -1, 1)

    def bumps(p):
        dr = grid_r - p[:, None, :n]
        dc = grid_c - p[:, None, n:s]
        d2 = dr * dr + dc * dc
        return np.exp(-d2 / (2.0 * p[:, s] * p[:, s])[:, None, None]), dr, dc, d2

    def residual(p, g):
        amps = np.ascontiguousarray(p[:, s + 1 : -1, None])
        r = y - ((g @ amps)[:, :, 0] + p[:, -1:])
        return (r[:, None, :] @ r[:, :, None])[0, 0, 0], r

    p = np.empty((1, 3 * n + 2))
    p[0, :n], p[0, n:s] = anchors.T
    p[0, s] = np.clip(sigma0, lo, hi)
    g, dr, dc, d2 = bumps(p)
    p[0, s + 1 :] = np.linalg.lstsq(np.column_stack([g[0], np.ones(h * w)]), y[0], rcond=None)[0]
    sse, res = residual(p, g)
    lam = 1e-3
    diag = np.arange(3 * n + 2)
    ones = np.ones((1, h * w, 1))
    # a step may fling a center far away; the finite checks reject it, so
    # let the overflow on the way pass
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(80):
            # Python powers: numpy's power rounds some cubes otherwise
            sig = float(p[0, s])
            sig2, sig3 = sig**2, sig**3
            ag = g * p[:, None, s + 1 : -1]
            sig_col = (ag * d2).sum(axis=2, keepdims=True) / sig3
            jac = np.concatenate([ag * dr / sig2, ag * dc / sig2, sig_col, g, ones], axis=2)
            jac_t = jac.transpose(0, 2, 1)
            jtj = jac_t @ jac
            jtr = jac_t @ res[:, :, None]
            curv = jtj[:, diag, diag]
            damping = np.zeros_like(jtj)
            damping[:, diag, diag] = np.maximum(curv, 1e-3 * curv.max(axis=1, keepdims=True))
            step = 0.0  # stays 0 when no try is taken
            for _ in range(12):
                try:
                    delta = np.linalg.solve(jtj + lam * damping, jtr)[:, :, 0]
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                trial = p + delta
                trial[0, s] = np.clip(trial[0, s], lo, hi)
                t_bumps = bumps(trial)
                t_sse, t_res = residual(trial, t_bumps[0])
                if np.isfinite(delta).all() and np.isfinite(t_sse) and t_sse <= sse:
                    step = max(np.abs(delta[0, :s]).max(), abs(trial[0, s] - p[0, s]))
                    p, sse, res, (g, dr, dc, d2) = trial, t_sse, t_res, t_bumps
                    lam = max(lam / 3.0, 1e-10)
                    break
                lam *= 10.0
            if step < 1e-6:
                break
    return np.column_stack([p[0, :n], p[0, n:s]]), float(p[0, s]), p[0, s + 1 : -1], float(p[0, -1])


@dataclass
class SiteGeometry:
    """Fitted site positions and widths, sites numbered row-major from 1.

    fallbacks[i] is True for a site that locate_sites could not confirm:
    its 7 x 7 window leaves the image, or its joint-fit center lies more
    than half the anchors' median spacing from its anchor, the peak of
    its own difference image. Such a site still holds its joint-fit
    center. A geometry built without flags, or read from a file, has
    every flag False.
    """

    centers: np.ndarray  # (n_sites, 2) subpixel (row, col)
    sigmas: np.ndarray  # (n_sites,)
    amplitudes: np.ndarray  # (n_sites,)
    fallbacks: tuple[bool, ...] = ()

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64).reshape(-1, 2)
        self.sigmas = np.asarray(self.sigmas, dtype=np.float64)
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.float64)
        n = self.centers.shape[0]
        if self.sigmas.shape != (n,) or self.amplitudes.shape != (n,):
            raise DataError("geometry arrays disagree on the number of sites")
        if not self.fallbacks:
            self.fallbacks = (False,) * n
        for name, value in (("center", self.centers), ("sigma", self.sigmas), ("amplitude", self.amplitudes)):
            require_finite(f"every site's {name}", value, DataError)
        if np.any(self.sigmas <= 0):
            raise DataError("fitted sigma must be positive for every site")
        if n > 1 and (nearest := _nearest_distances(self.centers).min()) < 2.0:
            raise DataError(f"site centers closer than 2 px: min distance {nearest:.3f}")

    @property
    def n_sites(self) -> int:
        return self.centers.shape[0]

    def to_json_list(self) -> list[dict]:
        return [
            {
                "site": i + 1,
                "center": [float(self.centers[i, 0]), float(self.centers[i, 1])],
                "sigma": float(self.sigmas[i]),
                "amplitude": float(self.amplitudes[i]),
            }
            for i in range(self.n_sites)
        ]

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_list(), f, indent=1, sort_keys=True)
            f.write("\n")

    @staticmethod
    def load(path) -> "SiteGeometry":
        entries = read_json(path)
        if not isinstance(entries, list) or not entries:
            raise DataError(f"{path}: expected a non-empty list of sites")
        try:
            unknown = sorted(set().union(*entries) - {"site", "center", "sigma", "amplitude"})
            if unknown:
                raise DataError(f"unknown site key(s): {', '.join(map(repr, unknown))}")
            entries = sorted(entries, key=lambda e: e["site"])
            if [e["site"] for e in entries] != list(range(1, len(entries) + 1)):
                raise DataError(f"site numbers must be 1..{len(entries)}, each once")
            return SiteGeometry(
                centers=[e["center"] for e in entries],
                sigmas=[e["sigma"] for e in entries],
                amplitudes=[e["amplitude"] for e in entries],
            )
        except MFReadoutError as exc:
            raise DataError(f"{path}: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad site entry: {exc}") from exc


def axis_clusters(vals, tol: float = 2.0) -> tuple[np.ndarray, int]:
    """Group 1D positions into clusters separated by gaps larger than tol.

    Returns (cluster index per value, number of clusters), clusters
    numbered in ascending position.
    """
    vals = np.asarray(vals, dtype=np.float64)
    order = np.argsort(vals, kind="stable")
    ids = np.empty(vals.size, dtype=int)
    cid = 0
    last = None
    for i in order:
        v = float(vals[i])
        if last is not None and v - last > tol:
            cid += 1
        ids[i] = cid
        last = v
    return ids, cid + 1


def grid_shape(centers) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Rows/cols of the site lattice plus each center's grid indices.

    Errors unless the centers fill a complete rows x cols grid.
    """
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    row_ids, rows = axis_clusters(centers[:, 0])
    col_ids, cols = axis_clusters(centers[:, 1])
    cells = {(r, c) for r, c in zip(row_ids, col_ids)}
    if rows * cols != centers.shape[0] or len(cells) != centers.shape[0]:
        raise DataError(
            f"{centers.shape[0]} centers do not fill a {rows}x{cols} grid"
        )
    return rows, cols, row_ids, col_ids


def _nearest_distances(centers) -> np.ndarray:
    """Distance from each center to its nearest other center; inf for a
    lone center."""
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    dist[np.diag_indices(centers.shape[0])] = np.inf
    return dist.min(axis=1)


def _median_spacing(centers) -> float:
    return float(np.median(_nearest_distances(centers)))


def locate_sites(mean_img, diff_imgs) -> SiteGeometry:
    """Full localization: one anchor per site from its difference image,
    then one joint fit of every site on the mean image.

    diff_imgs holds one image per site (difference_images), and its
    brightest pixel is the site's anchor. The anchors' median spacing
    sets the start and band of the shared width, and the joint fit of all
    sites with that width (_fit_bumps on the whole image) gives every
    center, the width and the amplitudes. The sites share one width as
    they share one optical system, and fitting the whole frame in one
    model removes the neighbor-leakage bias that per-window fits suffer
    on blended arrays. Centers that leave the frame (or, in SiteGeometry,
    come within 2 px of each other) raise DataError. A site is a fallback
    unless its 7 x 7 window lies inside the image and its joint center
    lies within half the anchors' median spacing of its own anchor (any
    distance for a lone site), so a site the fit parked on a neighbor's
    bump is flagged; every site keeps its joint center and amplitude and
    the shared sigma.

    Sites come back in the order of diff_imgs: the label order, which is
    row-major for simulated data.
    """
    img = np.asarray(mean_img, dtype=np.float64)
    diffs = np.asarray(diff_imgs, dtype=np.float64)
    if diffs.ndim != 3 or not len(diffs) or diffs.shape[1:] != img.shape:
        raise DataError(f"need one {img.shape} difference image per site, got shape {diffs.shape}")
    n_sites = len(diffs)
    peaks = diffs.reshape(n_sites, -1).argmax(axis=1)
    anchors = np.column_stack(np.unravel_index(peaks, img.shape)).astype(np.float64)
    spacing = _median_spacing(anchors)  # inf for a lone site
    if n_sites > 1:
        if _nearest_distances(anchors).min() < 2.0:
            raise DataError("two sites' difference images peak within 2 px of each other")
        sig0, band = 0.35 * spacing, (0.3, 0.8 * spacing)
    else:
        sig0, band = 0.3 * FIT_WINDOW, (0.3, 0.9 * FIT_WINDOW)
    centers, sig, amps, _ = _fit_bumps(img, anchors, sig0, band)
    if not centers_inside(centers, img.shape):
        raise DataError("sites could not be located in the mean image")
    near_anchor = np.hypot(*(centers - anchors).T) <= 0.5 * spacing
    confirmed = near_anchor & [window_fits(c, FIT_WINDOW, img.shape) for c in centers]

    return SiteGeometry(
        centers=centers,
        sigmas=np.full(n_sites, sig),
        amplitudes=np.maximum(amps, 1e-12),
        fallbacks=tuple(bool(b) for b in ~confirmed),
    )
