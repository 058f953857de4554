"""Stack preprocessing and site localization.

The localization chain is: average the training images, find one peak per
site, then refine each peak with a subpixel 2D Gaussian fit. Normalization
statistics always come from the training split alone and are then applied
unchanged to every split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .sim import LabeledImageStack

PEAK_MIN_DISTANCE = 3.0
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
        except (KeyError, TypeError) as exc:
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
    """(x - train_mean) / train_range, elementwise, on any split."""
    return (np.asarray(images, dtype=np.float64) - stats.train_mean) / stats.train_range


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


def _centroid_fallback(patch, r_lo, c_lo, n_iter, residuals) -> GaussianFit:
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
    optionally confines sigma, rejecting steps that leave the band.
    """
    img = np.asarray(image, dtype=np.float64)
    r_pk = int(np.floor(initial_center[0] + 0.5))
    c_pk = int(np.floor(initial_center[1] + 0.5))
    half = window_px // 2
    r_lo, c_lo = r_pk - half, c_pk - half
    if r_lo < 0 or c_lo < 0 or r_lo + window_px > img.shape[0] or c_lo + window_px > img.shape[1]:
        raise ConfigError(
            f"{window_px}x{window_px} fit window at {initial_center} leaves the image"
        )
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
        return _centroid_fallback(patch, r_lo, c_lo, 0, [])
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
            return _centroid_fallback(patch, r_lo, c_lo, n_iter, norms)
        if float(np.linalg.norm(step)) < 1e-6:
            break

    amp, r0, c0, sig, off = (float(v) for v in p)
    center = (r_lo + r0, c_lo + c0)
    in_window = -1.0 <= r0 <= window_px and -1.0 <= c0 <= window_px
    if sig <= 0 or not np.all(np.isfinite(p)) or not in_window:
        return _centroid_fallback(patch, r_lo, c_lo, n_iter, norms)
    return GaussianFit(
        center=center, sigma=sig, amplitude=amp, offset=off, ok=True,
        n_iter=n_iter, residuals=tuple(norms),
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
        entries = sorted(entries, key=lambda e: e["site"])
        try:
            centers = [e["center"] for e in entries]
            sigmas = [e["sigma"] for e in entries]
            amps = [e["amplitude"] for e in entries]
        except (KeyError, TypeError) as exc:
            raise DataError(f"{path}: bad site entry: {exc}") from exc
        return SiteGeometry(centers=centers, sigmas=sigmas, amplitudes=amps)


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


def _render_peak(fit: GaussianFit, shape) -> np.ndarray:
    """The fitted Gaussian bump (offset excluded) over a full frame."""
    rr = np.arange(shape[0], dtype=np.float64)[:, None] - fit.center[0]
    cc = np.arange(shape[1], dtype=np.float64)[None, :] - fit.center[1]
    return fit.amplitude * np.exp(-(rr**2 + cc**2) / (2.0 * fit.sigma**2))


def _bootstrap_fit(img, pos, sigma, med) -> GaussianFit:
    r, c = int(round(pos[0])), int(round(pos[1]))
    r = min(max(r, 0), img.shape[0] - 1)
    c = min(max(c, 0), img.shape[1] - 1)
    return GaussianFit(
        center=(float(pos[0]), float(pos[1])),
        sigma=sigma,
        amplitude=max(float(img[r, c]) - med, 1e-12),
        offset=med,
        ok=False,
        n_iter=0,
        residuals=(),
    )


def _subtraction_refits(img, anchors, fits, window_px, sigma_band, guard, passes):
    """Iterate per-site fits on the image minus every other fitted bump.

    A refit is only accepted while its center stays within guard of its
    anchor and its sigma inside sigma_band; rejected sites keep their
    previous fit. Returns new fits plus a per-site acceptance count.
    """
    fits = list(fits)
    accepted = [0] * len(fits)
    for _ in range(max(passes, 1)):
        bumps = [_render_peak(f, img.shape) for f in fits]
        total = np.sum(bumps, axis=0)
        for i, (f, anchor) in enumerate(zip(fits, anchors)):
            try:
                trial = fit_gaussian_2d(
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
                accepted[i] += 1
    return fits, accepted


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


def _joint_refine(img, anchors, sigma0: float, sigma_band, max_iter: int = 80):
    """Levenberg-damped Gauss-Newton fit of every site bump at once.

    All sites share one width (they share one optical system), each has a
    free center and amplitude, and there is one global offset. Fitting
    the whole frame in one model removes the neighbor-leakage bias that
    per-window fits suffer on blended arrays. Returns (centers, sigma,
    amplitudes, offset, sse).
    """
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    grid_r = np.repeat(np.arange(h, dtype=np.float64), w)
    grid_c = np.tile(np.arange(w, dtype=np.float64), h)
    y = img.ravel()
    n = len(anchors)
    rs = np.array([a[0] for a in anchors], dtype=np.float64)
    cs = np.array([a[1] for a in anchors], dtype=np.float64)
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
    for _ in range(max_iter):
        g, dr, dc, d2 = bumps(rs, cs, sig)
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
        moved = False
        step = np.inf
        for _ in range(12):
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), jtr)
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
    return np.stack([rs, cs], axis=1), sig, amps, off, sse


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


def locate_sites(
    mean_img,
    n_sites: int,
    min_distance_px: float = PEAK_MIN_DISTANCE,
    window_px: int = FIT_WINDOW,
    refine_passes: int = REFINE_PASSES,
    snap: bool = True,
) -> SiteGeometry:
    """Full localization: peaks in the mean image, then model fits.

    Three stages. First, candidate anchors: peaks at several exclusion
    radii (on a heavily blended array a small radius picks noise bumps on
    the merged mound), each set refined by per-window fits with every
    other site's bump subtracted, then snapped to a robust affine lattice
    when one fits. Second, each anchor set seeds a joint Gauss-Newton fit
    of all sites with a shared width, and the candidate with the lowest
    whole-frame residual wins; a lattice through the winning centers
    seeds one more joint fit in case a stray anchor survived. Third, a
    per-site polish refit (width banded around the shared fit) supplies
    per-site sigma and amplitude; sites whose polish is rejected keep the
    joint model values and are flagged as fallbacks.

    Sites come back row-major by fitted position.
    """
    img = np.asarray(mean_img, dtype=np.float64)
    med = float(np.median(img))
    h, w = img.shape

    def stage1(peaks):
        if n_sites > 1:
            d_min = _median_spacing(np.asarray(peaks, dtype=np.float64))
        else:
            d_min = 2.0 * window_px
        band = (max(0.3, 0.1 * d_min), 0.75 * d_min)
        # wide enough to walk off a blend-shifted peak, tight enough that
        # two drifting centers stay clearly apart
        guard = max(0.5 * min_distance_px, 0.3 * d_min)
        fits = [_bootstrap_fit(img, p, 0.4 * d_min, med) for p in peaks]
        fits, _ = _subtraction_refits(img, peaks, fits, window_px, band, guard, refine_passes)
        return fits

    def joint_from(anchors):
        if n_sites > 1:
            spacing = _median_spacing(anchors)
            band = (0.3, 0.8 * spacing)
            sig0 = 0.35 * spacing
        else:
            band = (0.3, 0.9 * window_px)
            sig0 = 0.3 * window_px
        result = _joint_refine(img, anchors, sig0, band)
        return result if _usable_centers(result[0], (h, w)) else None

    best = None
    scales = (1.0, 1.5, 2.0, 3.0) if snap else (1.0,)
    for scale in scales:
        try:
            peaks = find_peaks(img, min_distance_px * scale, n_sites)
        except DataError:
            continue
        anchors = [f.center for f in stage1(peaks)]
        if snap and n_sites >= 4:
            lattice = _fit_lattice(anchors)
            if lattice is not None:
                anchors = [tuple(p) for p in lattice[0]]
        cand = joint_from(anchors)
        if cand is not None and (best is None or cand[4] < best[4]):
            best = cand
    if best is None:
        raise DataError("sites could not be located in the mean image")

    # a stray anchor can survive scale selection; a lattice through the
    # winning centers gives one more chance to correct it
    if snap and n_sites >= 4:
        lattice = _fit_lattice([tuple(c) for c in best[0]])
        if lattice is not None:
            cand = joint_from([tuple(p) for p in lattice[0]])
            if cand is not None and cand[4] < best[4]:
                best = cand

    centers, sig_shared, amps, off, _ = best
    order = None
    if n_sites > 1:
        row_ids, _ = axis_clusters(centers[:, 0])
        order = np.lexsort((centers[:, 1], row_ids))
        centers, amps = centers[order], amps[order]

    sigmas = np.full(n_sites, sig_shared)
    amplitudes = np.maximum(amps, 1e-12)
    fallbacks = []
    bump_stack = [
        _render_peak(
            GaussianFit(tuple(c), sig_shared, float(a), off, True, 0, ()), img.shape
        )
        for c, a in zip(centers, amplitudes)
    ]
    total = np.sum(bump_stack, axis=0)
    # confirmation only: a truncated-window fit at low contrast drifts to
    # its sigma bound, so the shared-width joint estimates always win; the
    # per-site refit just has to land close to flag the site as trusted
    for i in range(n_sites):
        confirmed = False
        try:
            trial = fit_gaussian_2d(
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
        sigmas=sigmas,
        amplitudes=amplitudes,
        fallbacks=tuple(fallbacks),
    )
