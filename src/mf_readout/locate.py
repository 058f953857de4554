"""Stack preprocessing and site localization.

The localization chain is: average the training images, take each site's
anchor from its label-conditioned difference image (difference_images),
and fit every site's bump on the mean image at once from those anchors
(_joint_refine). The difference images are built from the train block's
column sums and its product X^T Y with the labels (label_sums); the
pipeline forms those once per shuffle, and the training moments take
their bias row and R from the same sums. Every window fit goes through
one batched Levenberg-Marquardt fitter, _fit_windows, which runs each
fit by its own rules on a (k, w, w) stack of windows. A fit window is
placed and checked by the filters' window rule (window_origin,
window_fits), and located centers must pass the same in-frame check as
the simulated ones (centers_inside). Normalization statistics always
come from the training split alone and are then applied unchanged to
every split.
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


class _WindowFits(NamedTuple):
    """Batched fit results, one row per window.

    params holds (amplitude, row, col, sigma, offset) with the center in
    window coordinates; a failed fit (ok False) holds its centroid
    fallback. norms[i, :n_norms[i]] are fit i's accepted residual norms.
    """

    params: np.ndarray
    ok: np.ndarray
    n_iter: np.ndarray
    norms: np.ndarray
    n_norms: np.ndarray


def _row_norms(x) -> np.ndarray:
    """Euclidean norm of each row, one BLAS dot per row."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _solve_each(a, b):
    """Solve each system of the stack; a singular one does not sink the rest."""
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0], np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        solved = np.zeros(len(a), dtype=bool)
        for i in range(len(a)):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
                solved[i] = True
            except np.linalg.LinAlgError:
                pass
        return x, solved


def _centroid_fallbacks(patches) -> np.ndarray:
    """Intensity-centroid (amplitude, row, col, sigma, offset) per window."""
    wp = patches.shape[1]
    rr, cc = np.mgrid[0:wp, 0:wp]
    lo = patches.min(axis=(1, 2))
    w = patches - lo[:, None, None]
    total = w.sum(axis=(1, 2))
    flat = total <= 0
    denom = np.where(flat, 1.0, total)
    r0 = (w * rr).sum(axis=(1, 2)) / denom
    c0 = (w * cc).sum(axis=(1, 2)) / denom
    d2 = (rr - r0[:, None, None]) ** 2 + (cc - c0[:, None, None]) ** 2
    var = (w * d2).sum(axis=(1, 2)) / denom
    sigma = np.sqrt(np.maximum(var / 2.0, 0.25))
    mid = (wp - 1) / 2.0
    return np.stack(
        [
            patches.max(axis=(1, 2)) - lo,
            np.where(flat, mid, r0),
            np.where(flat, mid, c0),
            np.where(flat, 1.0, sigma),
            lo,
        ],
        axis=1,
    )


def _fit_windows(patches, start, sigma_bands) -> _WindowFits:
    """Levenberg-Marquardt fit of A exp(-d^2 / 2 sigma^2) + b on each window.

    patches is a (k, w, w) stack; start holds each fit's initial
    (amplitude, row, col, sigma, offset) with the center in window
    coordinates, sigma_bands each fit's (low, high) sigma bounds. Every fit
    follows its own rules, exactly as if fitted alone: a start amplitude
    <= 0 falls back at once; the start sigma is clipped into the band; each
    iteration tries up to 12 damped steps, accepting the first that stays
    finite, keeps sigma positive and inside the band, and does not raise
    the residual norm (lambda / 10 on accept, floored at 1e-12, x 10 on
    reject); no accepted step means the centroid fallback; a step below
    1e-6 stops the fit, as do 100 iterations. A stopped fit is kept
    only if its parameters are finite, sigma is positive and the center
    lies within one pixel of the window. Fits that stop or fall back
    leave the active set, so the others run on unchanged.
    """
    patches = np.asarray(patches, dtype=np.float64)
    k, wp = patches.shape[0], patches.shape[1]
    rr, cc = np.mgrid[0:wp, 0:wp].astype(np.float64)
    params = np.array(start, dtype=np.float64).reshape(k, 5)
    bands = np.asarray(sigma_bands, dtype=np.float64).reshape(k, 2)
    lo_all, hi_all = bands[:, 0], bands[:, 1]
    s0 = params[:, 3]
    params[:, 3] = np.clip(s0, np.where(lo_all > 0, lo_all, s0), hi_all)
    stopped = np.zeros(k, dtype=bool)
    n_iter = np.zeros(k, dtype=np.int64)
    norms = np.full((k, 101), np.nan)
    n_norms = np.zeros(k, dtype=np.int64)

    def residual(p, patch):
        amp, r0, c0, sig, off = (p[:, j, None, None] for j in range(5))
        g = np.exp(-((rr - r0) ** 2 + (cc - c0) ** 2) / (2.0 * sig**2))
        return (amp * g + off - patch).reshape(len(p), wp * wp), g

    # state of the active fits; act maps each row back to its window
    act = np.flatnonzero(~(params[:, 0] <= 0))
    p, patch = params[act], patches[act]
    lo, hi = lo_all[act], hi_all[act]
    res, g = residual(p, patch)
    last = _row_norms(res)
    norms[act, 0] = last
    n_norms[act] = 1
    lam = np.full(act.size, 1e-3)
    eye = np.eye(5)
    for it in range(1, 101):
        if not act.size:
            break
        m = act.size
        n_iter[act] = it
        amp, r0, c0, sig = (p[:, j, None, None] for j in range(4))
        dr, dc = rr - r0, cc - c0
        ag = amp * g
        sig2 = sig**2
        jac = np.stack(
            [g, ag * dr / sig2, ag * dc / sig2, ag * (dr**2 + dc**2) / sig**3, np.ones_like(g)],
            axis=-1,
        ).reshape(m, wp * wp, 5)
        jac_t = jac.transpose(0, 2, 1)
        gram = jac_t @ jac
        grad = (jac_t @ res[:, :, None])[:, :, 0]
        moved = np.zeros(m, dtype=bool)
        step = np.zeros((m, 5))
        pending = np.arange(m)
        for _ in range(12):
            cand, solved = _solve_each(
                gram[pending] + lam[pending, None, None] * eye, -grad[pending]
            )
            trial = p[pending] + cand
            t_sig = trial[:, 3]
            valid = (
                solved
                & (t_sig > 0)
                & (lo[pending] <= t_sig)
                & (t_sig <= hi[pending])
                & np.isfinite(trial).all(axis=1)
            )
            tried = pending[valid]
            t_res, t_g = residual(trial[valid], patch[tried])
            t_norm = _row_norms(t_res)
            keep = t_norm <= last[tried]
            better = np.zeros(pending.size, dtype=bool)
            better[valid] = keep
            take = tried[keep]
            p[take], step[take] = trial[better], cand[better]
            res[take], g[take], last[take] = t_res[keep], t_g[keep], t_norm[keep]
            rows = act[take]
            norms[rows, n_norms[rows]] = t_norm[keep]
            n_norms[rows] += 1
            moved[take] = True
            lam[pending] = np.where(
                better, np.maximum(lam[pending] / 10.0, 1e-12), lam[pending] * 10.0
            )
            pending = pending[~better]
            if not pending.size:
                break
        converged = moved & (_row_norms(step) < 1e-6)
        done = ~moved | converged
        if done.any():
            params[act[converged]] = p[converged]
            stopped[act[converged]] = True
            live = ~done
            act, p, patch, lo, hi = act[live], p[live], patch[live], lo[live], hi[live]
            res, g, last, lam = res[live], g[live], last[live], lam[live]
    params[act] = p
    stopped[act] = True

    r0, c0, sig = params[:, 1], params[:, 2], params[:, 3]
    in_window = (-1.0 <= r0) & (r0 <= wp) & (-1.0 <= c0) & (c0 <= wp)
    ok = stopped & (sig > 0) & np.isfinite(params).all(axis=1) & in_window
    if not ok.all():
        params[~ok] = _centroid_fallbacks(patches[~ok])
    return _WindowFits(params, ok, n_iter, norms, n_norms)


@dataclass
class SiteGeometry:
    """Fitted site positions and widths, sites numbered row-major from 1."""

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


def _refit_without_neighbors(img, fits, sigma_band):
    """Refit every site on the image minus every other site's fitted bump.

    fits is an (n_sites, 5) array of (amplitude, row, col, sigma, offset)
    in image coordinates. All windows go to the fitter as one batch: each
    is cut from img - (total - bump_i), total being the sum of all bumps.
    Returns (refits in image coordinates, ok): ok is False for a fit that
    fell back or whose window leaves the image.
    """
    amp, r, c, sig = (fits[:, j, None, None] for j in range(4))
    rr = np.arange(img.shape[0], dtype=np.float64)[:, None] - r
    cc = np.arange(img.shape[1], dtype=np.float64)[None, :] - c
    bumps = amp * np.exp(-(rr**2 + cc**2) / (2.0 * sig**2))
    resid = img - (bumps.sum(axis=0) - bumps)
    sel = [k for k in range(len(fits)) if window_fits(fits[k, 1:3], FIT_WINDOW, img.shape)]
    origin = np.array([window_origin(fits[k, 1:3], FIT_WINDOW) for k in sel], dtype=np.int64).reshape(-1, 2)
    sel = np.array(sel, dtype=np.intp)
    span = np.arange(FIT_WINDOW)
    rows = origin[:, 0, None, None] + span[:, None]
    cols = origin[:, 1, None, None] + span[None, :]
    start = fits[sel].copy()
    start[:, 1:3] -= origin
    bands = np.broadcast_to(sigma_band, (sel.size, 2))
    fit = _fit_windows(resid[sel[:, None, None], rows, cols], start, bands)

    out = fits.copy()
    out[sel] = fit.params
    out[sel, 1:3] += origin
    ok = np.zeros(len(fits), dtype=bool)
    ok[sel] = fit.ok
    return out, ok


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


def _joint_refine(img, anchors, sigma0: float, sigma_band):
    """Levenberg-damped Gauss-Newton fit of every site bump at once.

    All sites share one width (they share one optical system), each has a
    free center and amplitude, and there is one global offset. Fitting
    the whole frame in one model removes the neighbor-leakage bias that
    per-window fits suffer on blended arrays. Each parameter is damped by
    its own curvature, floored at 1e-3 of the largest: plain Marquardt
    scaling leaves a center undamped once its amplitude nears zero, and
    such a center can be flung far off the frame. Returns (centers, sigma,
    amplitudes, offset).
    """
    img = np.asarray(img, dtype=np.float64)
    grid_r, grid_c = np.indices(img.shape, dtype=np.float64).reshape(2, -1)
    y = img.ravel()
    n = len(anchors)
    rs, cs = np.array(anchors, dtype=np.float64).T
    lo, hi = sigma_band
    sig = float(np.clip(sigma0, lo, hi))

    def bumps(rs, cs, sig):
        # trial steps may fling a center far away; the non-finite guards
        # below reject those, so let the intermediate overflow pass
        with np.errstate(over="ignore", invalid="ignore"):
            dr = grid_r[:, None] - rs[None, :]
            dc = grid_c[:, None] - cs[None, :]
            d2 = dr * dr + dc * dc
            return np.exp(-d2 / (2.0 * sig * sig)), dr, dc, d2

    g, _, _, _ = bumps(rs, cs, sig)
    design = np.concatenate([g, np.ones((y.size, 1))], axis=1)
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    amps, off = coef[:n], float(coef[n])

    def objective(rs, cs, sig, amps, off):
        g, _, _, _ = bumps(rs, cs, sig)
        r = y - (g @ amps + off)
        return float(r @ r), r

    sse, resid = objective(rs, cs, sig, amps, off)
    lam = 1e-3
    for _ in range(80):
        g, dr, dc, d2 = bumps(rs, cs, sig)
        # the last accepted step may have flung a center far away; the
        # non-finite checks below reject the steps its Jacobian gives
        with np.errstate(over="ignore", invalid="ignore"):
            ag = g * amps[None, :]
            jac = np.concatenate(
                [
                    ag * dr / sig**2,
                    ag * dc / sig**2,
                    (ag * d2).sum(axis=1, keepdims=True) / sig**3,
                    g,
                    np.ones((y.size, 1)),
                ],
                axis=1,
            )
            jtj = jac.T @ jac
            jtr = jac.T @ resid
            curv = np.diag(jtj)
            damping = np.diag(np.maximum(curv, 1e-3 * curv.max()))
        moved = False
        for _ in range(12):
            try:
                delta = np.linalg.solve(jtj + lam * damping, jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if not np.all(np.isfinite(delta)):
                lam *= 10.0
                continue
            t_rs = rs + delta[:n]
            t_cs = cs + delta[n : 2 * n]
            t_sig = float(np.clip(sig + delta[2 * n], lo, hi))
            t_amps = amps + delta[2 * n + 1 : 3 * n + 1]
            t_off = off + float(delta[3 * n + 1])
            t_sse, t_resid = objective(t_rs, t_cs, t_sig, t_amps, t_off)
            if np.isfinite(t_sse) and t_sse <= sse:
                step = max(float(np.abs(delta[: 2 * n]).max()), abs(float(delta[2 * n])))
                rs, cs, sig, amps, off = t_rs, t_cs, t_sig, t_amps, t_off
                sse, resid = t_sse, t_resid
                lam = max(lam / 3.0, 1e-10)
                moved = True
                break
            lam *= 10.0
        if not moved or step < 1e-6:
            break
    return np.stack([rs, cs], axis=1), sig, amps, off


def locate_sites(mean_img, diff_imgs) -> SiteGeometry:
    """Full localization: one anchor per site from its difference image,
    then one joint fit of every site on the mean image.

    diff_imgs holds one image per site (difference_images), and its
    brightest pixel is the site's anchor. The anchors' median spacing
    sets the start and band of the shared width, and the joint fit of all
    sites with that width (_joint_refine) gives every center, the width
    and the amplitudes; centers that leave the frame (or, in SiteGeometry,
    come within 2 px of each other) raise DataError. A per-site confirmation refit of all
    sites in one batch (width banded around the shared fit) then flags
    each site whose refit fails or drifts more than 0.75 px as a
    fallback; every site keeps the joint model's shared sigma and its
    amplitude.

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
    centers, sig_shared, amps, off = _joint_refine(img, anchors, sig0, band)
    if not centers_inside(centers, img.shape):
        raise DataError("sites could not be located in the mean image")

    amplitudes = np.maximum(amps, 1e-12)
    # confirmation only: a truncated-window fit at low contrast drifts to
    # its sigma bound, so the shared-width joint estimates always win; the
    # per-site refit just has to land close to flag the site as trusted
    joint = np.column_stack(
        [amplitudes, centers, np.full(n_sites, sig_shared), np.full(n_sites, off)]
    )
    trial, ok = _refit_without_neighbors(img, joint, (0.8 * sig_shared, 1.25 * sig_shared))
    drift = np.hypot(trial[:, 1] - centers[:, 0], trial[:, 2] - centers[:, 1])
    confirmed = ok & (drift <= 0.75)

    return SiteGeometry(
        centers=centers,
        sigmas=np.full(n_sites, sig_shared),
        amplitudes=amplitudes,
        fallbacks=tuple(bool(b) for b in ~confirmed),
    )
