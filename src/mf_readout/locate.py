"""Stack preprocessing and site localization.

The localization chain is: average the training images, find one peak per
site, then refine each peak with a subpixel 2D Gaussian fit. Every window
fit goes through one batched Levenberg-Marquardt fitter, _fit_windows,
which runs each fit by its own rules on a (k, w, w) stack of windows;
fit_gaussian_2d is its one-window case. Normalization statistics always
come from the training split alone and are then applied unchanged to every
split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, MFReadoutError
from .sim import LabeledImageStack

PEAK_MIN_DISTANCE = 3.0
PEAK_SCALES = (1.0, 1.5, 2.0, 3.0)
FIT_WINDOW = 7
REFINE_PASSES = 4


def crop(stack: LabeledImageStack, top: int, left: int, height: int, width: int) -> LabeledImageStack:
    """Crop every frame to the rectangle; labels are untouched.

    The attached config is rewritten (image size and site origin) so the
    cropped stack stays self-consistent for downstream windows.
    """
    h, w = stack.images.shape[1:]
    if top < 0 or left < 0 or height < 1 or width < 1 or top + height > h or left + width > w:
        raise ConfigError(
            f"crop rectangle ({top},{left},{height},{width}) leaves the {h}x{w} frame"
        )
    geo = stack.config.geometry
    cfg = replace(
        stack.config,
        image_height=height,
        image_width=width,
        geometry=replace(geo, origin_px=(geo.origin_px[0] - top, geo.origin_px[1] - left)),
    )
    images = np.ascontiguousarray(stack.images[:, top : top + height, left : left + width])
    return LabeledImageStack(images=images, truth=stack.truth, config=cfg)


@dataclass(frozen=True)
class PreprocessStats:
    """Centering and scaling constants taken from the training images."""

    train_mean: float
    train_range: float

    def __post_init__(self):
        if not self.train_range > 0:
            raise DataError(f"train_range must be positive, got {self.train_range}")

    def to_dict(self) -> dict:
        return {"train_mean": self.train_mean, "train_range": self.train_range}

    @staticmethod
    def from_dict(d: dict) -> "PreprocessStats":
        try:
            return PreprocessStats(float(d["train_mean"]), float(d["train_range"]))
        except MFReadoutError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad stats dict: {exc}") from exc


def fit_stats(train_images) -> PreprocessStats:
    """Mean and max-min range over all pixels of the training images only."""
    arr = np.asarray(train_images, dtype=np.float64)
    if arr.size == 0:
        raise DataError("cannot fit stats on an empty stack")
    rng = float(arr.max() - arr.min())
    if rng == 0.0:
        raise DataError("constant image stack, normalization range is zero")
    return PreprocessStats(train_mean=float(arr.mean()), train_range=rng)


def apply_stats(images, stats: PreprocessStats) -> np.ndarray:
    """(x - train_mean) / train_range, elementwise, on any split.

    One float64 array, divided in place: bit-equal to casting to float64
    and then subtracting and dividing into fresh arrays.
    """
    out = np.subtract(images, stats.train_mean, dtype=np.float64)
    out /= stats.train_range
    return out


def mean_image(images) -> np.ndarray:
    """Pixelwise mean over the stack."""
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] < 1:
        raise DataError(f"need a non-empty (n, H, W) stack, got shape {arr.shape}")
    return arr.mean(axis=0)


def find_peaks(image, min_distance_px: float, n_expected: int) -> list[tuple[int, int]]:
    """Brightest n_expected local maxima, at least min_distance_px apart.

    A pixel is a candidate when no 8-neighbor exceeds it. Candidates are
    taken in descending intensity (ties by row then column), each claiming
    an exclusion disk of radius min_distance_px. Output is sorted
    row-major, not by brightness.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise DataError(f"expected a 2D image, got shape {img.shape}")
    if n_expected < 1:
        raise ConfigError("n_expected must be >= 1")

    padded = np.full((img.shape[0] + 2, img.shape[1] + 2), -np.inf)
    padded[1:-1, 1:-1] = img
    is_max = np.ones_like(img, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            is_max &= img >= padded[1 + dr : padded.shape[0] - 1 + dr, 1 + dc : padded.shape[1] - 1 + dc]

    rows, cols = np.nonzero(is_max)
    order = sorted(range(rows.size), key=lambda i: (-img[rows[i], cols[i]], rows[i], cols[i]))
    chosen: list[tuple[int, int]] = []
    for i in order:
        r, c = int(rows[i]), int(cols[i])
        if all((r - pr) ** 2 + (c - pc) ** 2 >= min_distance_px**2 for pr, pc in chosen):
            chosen.append((r, c))
            if len(chosen) == n_expected:
                return sorted(chosen)
    raise DataError(
        f"found only {len(chosen)} peaks with spacing {min_distance_px}, expected {n_expected}"
    )


@dataclass
class GaussianFit:
    """Result of one subpixel fit. ok=False means the centroid fallback."""

    center: tuple[float, float]
    sigma: float
    amplitude: float
    offset: float
    ok: bool
    n_iter: int
    residuals: tuple[float, ...]


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


def _window_origins(centers, window_px: int, shape) -> tuple[np.ndarray, np.ndarray]:
    """Top-left pixel of the window_px window around each rounded center,
    and whether that window lies inside an image of the given shape."""
    rounded = np.floor(np.asarray(centers, dtype=np.float64) + 0.5).astype(np.int64)
    origin = rounded - window_px // 2
    inside = (
        (origin >= 0).all(axis=-1)
        & (origin[..., 0] + window_px <= shape[0])
        & (origin[..., 1] + window_px <= shape[1])
    )
    return origin, inside


def fit_gaussian_2d(
    image,
    initial_center,
    window_px: int = FIT_WINDOW,
    *,
    init=None,
    sigma_bounds=None,
) -> GaussianFit:
    """Least-squares circular Gaussian plus constant offset on a window.

    Minimizes ||A exp(-d^2 / 2 sigma^2) + b - patch|| by Gauss-Newton with
    a Levenberg damping term; a step is only accepted when it lowers the
    residual norm. Stops when the parameter step drops below 1e-6 or after
    100 iterations; failures return the intensity centroid with ok=False.

    init optionally seeds (amplitude, sigma, offset); sigma_bounds
    optionally confines sigma, rejecting steps that leave the band. This
    is the one-window case of the batched fitter localization uses.
    """
    img = np.asarray(image, dtype=np.float64)
    origin, inside = _window_origins(initial_center, window_px, img.shape)
    if not inside:
        raise ConfigError(
            f"{window_px}x{window_px} fit window at {initial_center} leaves the image"
        )
    r_lo, c_lo = int(origin[0]), int(origin[1])
    patch = img[r_lo : r_lo + window_px, c_lo : c_lo + window_px]
    if init is not None:
        a0, s0, b0 = (float(v) for v in init)
    else:
        b0 = float(patch.min())
        a0 = float(patch.max()) - b0
        s0 = max(window_px / 4.0, 1.0)
    band = sigma_bounds if sigma_bounds is not None else (0.0, np.inf)
    start = [a0, initial_center[0] - r_lo, initial_center[1] - c_lo, s0, b0]
    fit = _fit_windows(patch[None], [start], [band])
    amp, r0, c0, sig, off = (float(v) for v in fit.params[0])
    return GaussianFit(
        center=(r_lo + r0, c_lo + c0),
        sigma=sig,
        amplitude=amp,
        offset=off,
        ok=bool(fit.ok[0]),
        n_iter=int(fit.n_iter[0]),
        residuals=tuple(float(v) for v in fit.norms[0, : fit.n_norms[0]]),
    )


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
        try:
            with open(path) as f:
                entries = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read geometry {path}: {exc}") from exc
        if not isinstance(entries, list) or not entries:
            raise DataError(f"{path}: expected a non-empty list of sites")
        try:
            entries = sorted(entries, key=lambda e: e["site"])
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
    origin, inside = _window_origins(fits[:, 1:3], FIT_WINDOW, img.shape)
    sel = np.flatnonzero(inside)
    span = np.arange(FIT_WINDOW)
    rows = origin[sel, 0, None, None] + span[:, None]
    cols = origin[sel, 1, None, None] + span[None, :]
    start = fits[sel].copy()
    start[:, 1:3] -= origin[sel]
    bands = np.broadcast_to(sigma_band, (sel.size, 2))
    fit = _fit_windows(resid[sel[:, None, None], rows, cols], start, bands)

    out = fits.copy()
    out[sel] = fit.params
    out[sel, 1:3] += origin[sel]
    ok = np.zeros(len(fits), dtype=bool)
    ok[sel] = fit.ok
    return out, ok


def _refine_peaks(img, peaks):
    """Anchors from one peak set: REFINE_PASSES rounds of per-site fits on
    the image minus every other fitted bump.

    Each round refits every site from the fits it starts with. A refit is
    only accepted while its center stays within a guard of its peak and
    its sigma inside a band set by the peak spacing; rejected sites keep
    their previous fit.
    """
    peaks = np.asarray(peaks, dtype=np.float64)
    n = len(peaks)
    d_min = _median_spacing(peaks) if n > 1 else 2.0 * FIT_WINDOW
    band = (max(0.3, 0.1 * d_min), 0.75 * d_min)
    # wide enough to walk off a blend-shifted peak, tight enough that
    # two drifting centers stay clearly apart
    guard = max(0.5 * PEAK_MIN_DISTANCE, 0.3 * d_min)
    med = float(np.median(img))
    rows, cols = peaks[:, 0].astype(int), peaks[:, 1].astype(int)
    fits = np.column_stack(
        [
            np.maximum(img[rows, cols] - med, 1e-12),
            peaks,
            np.full(n, 0.4 * d_min),
            np.full(n, med),
        ]
    )
    for _ in range(REFINE_PASSES):
        trial, ok = _refit_without_neighbors(img, fits, band)
        drift = np.hypot(trial[:, 1] - peaks[:, 0], trial[:, 2] - peaks[:, 1])
        accept = ok & (drift <= guard)
        fits[accept] = trial[accept]
    return fits[:, 1:3]


def _fit_lattice(centers):
    """Affine lattice through grid-like centers, tolerating stray points.

    Centers are indexed by rounding offsets from a well-placed anchor to
    integer grid steps; points that do not round cleanly are dropped, as
    long as the remainder still pins down a complete rows x cols grid
    covering all n sites. The affine fit then predicts every cell, so a
    dropped (or badly fitted) site comes back at its grid position.
    Returns (predicted row-major centers, rows, cols) or None.
    """
    centers = np.asarray(centers, dtype=np.float64)
    n = centers.shape[0]
    nn = _nearest_distances(centers)
    s0 = float(np.median(nn))
    if not np.isfinite(s0) or s0 <= 0:
        return None
    # a stray point close to a real one drags the median spacing down;
    # re-estimate from the unexceptional neighbor distances
    typical = nn[(nn >= 0.6 * s0) & (nn <= 1.7 * s0)]
    spacings = {round(s0, 9)}
    if typical.size:
        spacings.add(round(float(np.median(typical)), 9))

    # choose the anchor and spacing whose relative offsets land closest
    # to integers
    centroid = centers.mean(axis=0)
    best = None
    for s_est in sorted(spacings):
        for a in range(n):
            rel = (centers - centers[a]) / s_est
            frac = np.abs(rel - np.round(rel)).max(axis=1)
            score = (int((frac < 0.25).sum()), -float(np.hypot(*(centers[a] - centroid))))
            if best is None or score > best[0]:
                best = (score, a, s_est)
    rel_f = (centers - centers[best[1]]) / best[2]
    frac = np.abs(rel_f - np.round(rel_f)).max(axis=1)
    keep = frac < 0.25
    if int(keep.sum()) < max(4, (6 * n + 9) // 10):
        return None
    rel = np.round(rel_f[keep]).astype(int)
    rel -= rel.min(axis=0)
    rows, cols = int(rel[:, 0].max()) + 1, int(rel[:, 1].max()) + 1
    cells = {(int(i), int(j)) for i, j in rel}
    if rows < 2 or cols < 2 or rows * cols != n or len(cells) != len(rel):
        return None
    kept_centers = centers[keep]

    def solve(mask):
        a = np.zeros((2 * int(mask.sum()), 6))
        b = np.zeros(2 * int(mask.sum()))
        for k, idx in enumerate(np.nonzero(mask)[0]):
            i, j = rel[idx]
            a[2 * k] = [1, 0, i, 0, j, 0]
            a[2 * k + 1] = [0, 1, 0, i, 0, j]
            b[2 * k], b[2 * k + 1] = kept_centers[idx]
        return np.linalg.lstsq(a, b, rcond=None)[0]

    mask = np.ones(len(rel), dtype=bool)
    params = solve(mask)

    def predict(params, idx):
        o = params[:2]
        u = params[2:4]
        v = params[4:6]
        return o + idx[:, :1] * u + idx[:, 1:] * v

    resid = np.sqrt(((predict(params, rel) - kept_centers) ** 2).sum(axis=1))
    cut = max(1.0, 2.0 * float(np.median(resid)))
    inliers = resid <= cut
    if inliers.sum() >= 4 and inliers.sum() < len(rel):
        params = solve(inliers)
    full = np.array([[i, j] for i in range(rows) for j in range(cols)], dtype=np.float64)
    return predict(params, full), rows, cols


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


def _usable_centers(centers, shape) -> bool:
    centers = np.asarray(centers, dtype=np.float64)
    if not np.all(np.isfinite(centers)):
        return False
    h, w = shape
    if (
        np.any(centers[:, 0] <= 0)
        or np.any(centers[:, 0] >= h - 1)
        or np.any(centers[:, 1] <= 0)
        or np.any(centers[:, 1] >= w - 1)
    ):
        return False
    if centers.shape[0] > 1 and _nearest_distances(centers).min() < 2.0:
        return False
    return True


def locate_sites(mean_img, n_sites: int) -> SiteGeometry:
    """Full localization: peaks in the mean image, then model fits.

    One chain per peak exclusion radius, taken in order (on a heavily
    blended array a small radius picks noise bumps on the merged mound);
    a radius that finds the same peaks as an earlier one is skipped. The
    peaks are refined by per-window fits with every other site's bump
    subtracted, snapped to a robust affine lattice when one fits, and
    seed a joint fit of all sites with a shared width. The first radius
    whose joint centers are usable wins. A per-site confirmation refit of
    all sites in one batch (width banded around the shared fit) then
    flags each site whose refit fails or drifts more than 0.75 px as a
    fallback; every site keeps the joint model's shared sigma and its
    amplitude.

    Sites come back row-major by fitted position.
    """
    img = np.asarray(mean_img, dtype=np.float64)
    tried = []
    for scale in PEAK_SCALES:
        try:
            peaks = find_peaks(img, PEAK_MIN_DISTANCE * scale, n_sites)
        except DataError:
            continue
        if peaks in tried:
            continue
        tried.append(peaks)
        anchors = _refine_peaks(img, peaks)
        lattice = _fit_lattice(anchors)
        if lattice is not None:
            anchors = lattice[0]
        if n_sites > 1:
            spacing = _median_spacing(anchors)
            sig0, band = 0.35 * spacing, (0.3, 0.8 * spacing)
        else:
            sig0, band = 0.3 * FIT_WINDOW, (0.3, 0.9 * FIT_WINDOW)
        centers, sig_shared, amps, off = _joint_refine(img, anchors, sig0, band)
        if _usable_centers(centers, img.shape):
            break
    else:
        raise DataError("sites could not be located in the mean image")

    if n_sites > 1:
        row_ids, _ = axis_clusters(centers[:, 0])
        order = np.lexsort((centers[:, 1], row_ids))
        centers, amps = centers[order], amps[order]

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
