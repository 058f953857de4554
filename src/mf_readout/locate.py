"""Stack preprocessing and site localization.

The localization chain is: average the training images, take each site's
anchor from its label-conditioned difference image (difference_images),
and fit every site's bump on the mean image at once from those anchors.
The difference images are built from the train block's column sums and
its product X^T Y with the labels (label_sums); the pipeline forms those
once per shuffle, and the training moments take their bias row and R
from the same sums. Every bump fit goes through one batched
Levenberg-Marquardt fitter, _fit_bumps, which fits k independent
problems by the same rules: the joint fit is one problem of every site's
bump on the whole image, and the confirmation of the sites is one
problem per site, a bump on its window. A fit window is placed and
checked by the filters' window rule (window_origin, window_fits), and
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
from .filters import centers_inside, frame_blocks, window_fits, window_origin
from .sim import LabeledImageStack, SimConfig
from .util import cast_fields, read_dataclass, read_json

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


def _solve_each(a, b):
    """Solve each system of the stack; a singular one gets a row of NaN
    and does not sink the rest."""
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        x = np.full_like(b, np.nan)
        for i in range(len(a)):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return x


def _fit_bumps(patches, anchors, sigma0, sigma_bands):
    """Levenberg-Marquardt fit of k independent sums of Gaussian bumps.

    patches is a (k, h, w) stack and anchors a (k, n, 2) array of start
    centers in patch coordinates. Problem i models its patch as n bumps
    A_j exp(-d_j^2 / 2 sigma^2) plus one offset: every bump has a free
    center and amplitude, and they share one width, which starts at
    sigma0 and stays clipped into the problem's band (sigma0 and
    sigma_bands broadcast to k values and k (low, high) pairs, low > 0).
    The amplitudes and offset start at their linear least-squares values.
    Each parameter is damped by its own curvature, floored at 1e-3 of the
    largest: plain Marquardt scaling leaves a center undamped once its
    amplitude nears zero, and such a center can be flung far away. An
    iteration tries up to 12 steps and takes the first that is finite and
    does not raise the squared residual (lambda / 3 on accept, floored at
    1e-10, x 10 on reject). A problem stops after an iteration that takes
    no step or moves no center and the width by 1e-6 or more, or after
    80; each keeps its own lambda and leaves the batch when it stops, so
    its fit has the bits of fitting it alone. Returns (centers (k, n, 2),
    sigmas (k,), amplitudes (k, n), offsets (k,)).
    """
    y = np.asarray(patches, dtype=np.float64)
    k, h, w = y.shape
    y = y.reshape(k, h * w)
    anchors = np.asarray(anchors, dtype=np.float64)
    n = anchors.shape[1]
    s = 2 * n  # the width's column; the amplitudes follow it, the offset is last
    lo, hi = np.broadcast_to(np.asarray(sigma_bands, dtype=np.float64), (k, 2)).T
    grid_r, grid_c = np.indices((h, w), dtype=np.float64).reshape(2, -1, 1)

    def bumps(p):
        dr = grid_r - p[:, None, :n]
        dc = grid_c - p[:, None, n:s]
        d2 = dr * dr + dc * dc
        return np.exp(-d2 / (2.0 * p[:, s] * p[:, s])[:, None, None]), dr, dc, d2

    def residual(p, g, y):
        amps = np.ascontiguousarray(p[:, s + 1 : -1, None])
        r = y - ((g @ amps)[:, :, 0] + p[:, -1:])
        return (r[:, None, :] @ r[:, :, None])[:, 0, 0], r

    p = np.empty((k, 3 * n + 2))
    p[:, :n], p[:, n:s] = anchors[:, :, 0], anchors[:, :, 1]
    p[:, s] = np.clip(np.broadcast_to(sigma0, k), lo, hi)
    g, dr, dc, d2 = bumps(p)
    for i in range(k):
        design = np.column_stack([g[i], np.ones(h * w)])
        p[i, s + 1 :] = np.linalg.lstsq(design, y[i], rcond=None)[0]
    out = np.empty_like(p)
    sse, res = residual(p, g, y)
    lam = np.full(k, 1e-3)
    act = np.arange(k)  # the problem of each row of the running state
    diag = np.arange(3 * n + 2)
    ones = np.ones((k, h * w, 1))
    # a step may fling a center far away; the finite checks reject it, so
    # let the overflow on the way pass
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(80):
            if not act.size:
                break
            m = act.size
            # Python powers: numpy's array power rounds some cubes otherwise
            sig2, sig3 = np.array([(v**2, v**3) for v in p[:, s].tolist()]).T[:, :, None, None]
            ag = g * p[:, None, s + 1 : -1]
            sig_col = (ag * d2).sum(axis=2, keepdims=True) / sig3
            jac = np.concatenate([ag * dr / sig2, ag * dc / sig2, sig_col, g, ones[:m]], axis=2)
            jac_t = jac.transpose(0, 2, 1)
            jtj = jac_t @ jac
            jtr = (jac_t @ res[:, :, None])[:, :, 0]
            curv = jtj[:, diag, diag]
            damping = np.zeros_like(jtj)
            damping[:, diag, diag] = np.maximum(curv, 1e-3 * curv.max(axis=1, keepdims=True))
            step = np.zeros(m)  # stays 0 for a row that takes no step
            pending = np.arange(m)
            for _ in range(12):
                rows = pending if pending.size < m else slice(None)  # no gather on a first try
                delta = _solve_each(jtj[rows] + lam[rows, None, None] * damping[rows], jtr[rows])
                trial = p[rows] + delta
                trial[:, s] = np.clip(trial[:, s], lo[rows], hi[rows])
                t_bumps = bumps(trial)
                t_sse, t_res = residual(trial, t_bumps[0], y[rows])
                better = np.isfinite(delta).all(axis=1) & np.isfinite(t_sse) & (t_sse <= sse[rows])
                take = pending[better]
                step[take] = np.maximum(
                    np.abs(delta[better, :s]).max(axis=1), np.abs(trial[better, s] - p[take, s])
                )
                if take.size == m:  # every row took its first try
                    p, sse, res, (g, dr, dc, d2) = trial, t_sse, t_res, t_bumps
                else:
                    p[take], sse[take], res[take] = trial[better], t_sse[better], t_res[better]
                    for kept, new in zip((g, dr, dc, d2), t_bumps):
                        kept[take] = new[better]
                lam[take] = np.maximum(lam[take] / 3.0, 1e-10)
                pending = pending[~better]
                lam[pending] *= 10.0
                if not pending.size:
                    break
            done = step < 1e-6
            if done.any():
                out[act[done]] = p[done]
                live = ~done
                act, p, sse, res, lam, y, lo, hi = (a[live] for a in (act, p, sse, res, lam, y, lo, hi))
                g, dr, dc, d2 = g[live], dr[live], dc[live], d2[live]
    out[act] = p
    return np.stack([out[:, :n], out[:, n:s]], axis=2), out[:, s], out[:, s + 1 : -1], out[:, -1]


@dataclass
class SiteGeometry:
    """Fitted site positions and widths, sites numbered row-major from 1.

    fallbacks[i] is True for a site that locate_sites could not confirm:
    its 7 x 7 window leaves the image, or the refit of its bump alone on
    that window leaves the window or moves the center more than 0.75 px.
    Such a site still holds its joint-fit center. A geometry built
    without flags, or read from a file, has every flag False.
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
                raise DataError(f"{path}: unknown site key(s): {', '.join(map(repr, unknown))}")
            entries = sorted(entries, key=lambda e: e["site"])
            if [e["site"] for e in entries] != list(range(1, len(entries) + 1)):
                raise DataError(f"{path}: site numbers must be 1..{len(entries)}, each once")
            return SiteGeometry(
                centers=[e["center"] for e in entries],
                sigmas=[e["sigma"] for e in entries],
                amplitudes=[e["amplitude"] for e in entries],
            )
        except MFReadoutError:
            raise
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
    come within 2 px of each other) raise DataError. The same fitter then
    refits each site alone, all in one batch, on its 7 x 7 window of the
    mean image minus the other sites' joint bumps, its width banded to
    0.8-1.25 times the shared one. A site is a fallback unless its window
    lies inside the image and its refit center stays within 1 px of the
    window and within 0.75 px of the joint center; every site keeps its
    joint center and amplitude and the shared sigma.

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
    if n_sites > 1:
        if _nearest_distances(anchors).min() < 2.0:
            raise DataError("two sites' difference images peak within 2 px of each other")
        spacing = _median_spacing(anchors)
        sig0, band = 0.35 * spacing, (0.3, 0.8 * spacing)
    else:
        sig0, band = 0.3 * FIT_WINDOW, (0.3, 0.9 * FIT_WINDOW)
    (centers,), (sig,), (amps,), _ = _fit_bumps(img[None], anchors[None], sig0, band)
    if not centers_inside(centers, img.shape):
        raise DataError("sites could not be located in the mean image")
    sig = float(sig)

    amplitudes = np.maximum(amps, 1e-12)
    # confirmation only: a truncated-window fit at low contrast drifts to
    # its sigma bound, so the shared-width joint estimates always win; the
    # per-site refit just has to land close to flag the site as trusted
    rr = np.arange(img.shape[0], dtype=np.float64)[:, None] - centers[:, 0, None, None]
    cc = np.arange(img.shape[1], dtype=np.float64)[None, :] - centers[:, 1, None, None]
    bumps = amplitudes[:, None, None] * np.exp(-(rr**2 + cc**2) / (2.0 * sig**2))
    alone = img - (bumps.sum(axis=0) - bumps)
    sel = np.flatnonzero([window_fits(c, FIT_WINDOW, img.shape) for c in centers])
    origin = np.array([window_origin(c, FIT_WINDOW) for c in centers[sel]], dtype=np.int64).reshape(-1, 2)
    span = np.arange(FIT_WINDOW)
    windows = alone[sel[:, None, None], origin[:, :1, None] + span[:, None], origin[:, 1:, None] + span]
    refit = _fit_bumps(windows, (centers[sel] - origin)[:, None], sig, (0.8 * sig, 1.25 * sig))[0][:, 0]
    # False for a non-finite center too
    in_window = ((-1.0 <= refit) & (refit <= FIT_WINDOW)).all(axis=1)
    drift = np.hypot(*(refit + origin - centers[sel]).T)
    confirmed = np.zeros(n_sites, dtype=bool)
    confirmed[sel] = in_window & (drift <= 0.75)

    return SiteGeometry(
        centers=centers,
        sigmas=np.full(n_sites, sig),
        amplitudes=amplitudes,
        fallbacks=tuple(bool(b) for b in ~confirmed),
    )
