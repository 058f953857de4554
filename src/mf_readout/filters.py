"""Per-site image filters and the linear classifier built on them.

Every classifier here is a linear functional of the frame plus a bias,
followed by a threshold: score = frame . w + b, and score >= theta reads
out bright, with the tie going to bright. The kinds differ only in how
the full-frame weight map w and the bias b are built:

    square    unweighted sum over an s x s window
    gaussian  fixed Gaussian-weighted sum matched to the point spread
    mf-site   learned weights over the s x s window plus a bias
    mf-array  mf-site features plus the mean intensity of each
              neighboring site's window, to cancel crosstalk

Windows are anchored by rounding the site center to the nearest pixel and
going s // 2 pixels up and left, so an odd s is centered and an even s
leans down-right. Learned feature vectors end with a constant bias slot
(c = 1 by default); the trained bias weight absorbs any scale. The
feature extractors and the square / gaussian score helpers describe the
same scores feature by feature; FilterModel scores through the map,
applied over its nonzero span: the contiguous run of flat pixels from
the first to the last nonzero weight, so pixels outside it are never
multiplied.

Every (frame, site) score is one BLAS dot of the frame's span pixels
with the span weights, then + b: np.vecdot over the rows of a stack,
ndarray.dot on a lone frame. Both call the same kernel on the same row,
so a frame's score, and hence its readout, has the same bits whether it
is read alone or in a batch of any size. classify_stack reads a stack in
blocks of at most BLOCK_FRAMES frames, every model reading a block while
it is still in cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, MFReadoutError
from .util import round_half_up

KINDS = ("square", "gaussian", "mf-site", "mf-array")

GAUSSIAN_CUTOFF = 1e-3
BIAS_C = 1.0
# most frames in a classify_stack block: 256 frames of 28 x 28 float64
# pixels are 1.6 MB, which stays in a core's L2 cache while every model
# reads it (batched readout is memory-bound)
BLOCK_FRAMES = 256

# the two one-frame readouts, shared and read-only
_DARK, _BRIGHT = np.zeros(1, dtype=np.uint8), np.ones(1, dtype=np.uint8)
_DARK.setflags(write=False)
_BRIGHT.setflags(write=False)


def window_origin(center, s: int) -> tuple[int, int]:
    """Top-left pixel of the s x s window for a (possibly subpixel) center."""
    if s < 1:
        raise ConfigError(f"window size must be >= 1, got {s}")
    return (round_half_up(center[0]) - s // 2, round_half_up(center[1]) - s // 2)


def window_slice(center, s: int, shape) -> tuple[slice, slice]:
    """Row/col slices of the window; errors if it crosses the image edge."""
    if not window_fits(center, s, shape):
        h, w = shape
        raise ConfigError(f"{s}x{s} window at center {tuple(center)} leaves the {h}x{w} image")
    r0, c0 = window_origin(center, s)
    return slice(r0, r0 + s), slice(c0, c0 + s)


def window_fits(center, s: int, shape) -> bool:
    r0, c0 = window_origin(center, s)
    return r0 >= 0 and c0 >= 0 and r0 + s <= shape[0] and c0 + s <= shape[1]


def _as_stack(images) -> np.ndarray:
    images = np.asarray(images)
    if images.ndim == 2:
        return images[None, :, :]
    if images.ndim != 3:
        raise DataError(f"expected an image or image stack, got shape {images.shape}")
    return images


def square_score(images, center, s: int):
    """Sum of the s x s window, per frame. Scalar for a single image."""
    stack = _as_stack(images)
    rs, cs = window_slice(center, s, stack.shape[1:])
    out = stack[:, rs, cs].sum(axis=(1, 2), dtype=np.float64)
    return float(out[0]) if np.asarray(images).ndim == 2 else out


def gaussian_weight_map(center, sigma: float, shape, cutoff: float = GAUSSIAN_CUTOFF) -> np.ndarray:
    """Full-frame weight image exp(-d^2 / 2 sigma^2), zeroed at or below cutoff.

    The cutoff is relative to the unit analytic peak, so for sigma = 1.8
    and the default 1e-3 everything beyond 7 px of the center drops out.
    """
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    if not 0.0 < cutoff < 1.0:
        raise ConfigError("cutoff must lie in (0, 1)")
    rr = np.arange(shape[0], dtype=float)[:, None] - center[0]
    cc = np.arange(shape[1], dtype=float)[None, :] - center[1]
    w = np.exp(-(rr**2 + cc**2) / (2.0 * sigma**2))
    w[w <= cutoff] = 0.0
    return w


def gaussian_score(images, weight_map):
    """Weighted pixel sum per frame. Scalar for a single image."""
    stack = _as_stack(images)
    if stack.shape[1:] != weight_map.shape:
        raise DataError(
            f"weight map {weight_map.shape} does not match images {stack.shape[1:]}"
        )
    out = np.tensordot(stack.astype(np.float64), weight_map, axes=([1, 2], [0, 1]))
    return float(out[0]) if np.asarray(images).ndim == 2 else out


def unsupervised_threshold(scores_dark, scores_bright) -> float:
    """Decision boundary between two score populations.

    Fits a 1D Gaussian to each class and returns the density intersection
    lying between the class means. With no such intersection (including
    the identical-distribution case) the midpoint of the means is used.
    """
    sd = np.asarray(scores_dark, dtype=float)
    sb = np.asarray(scores_bright, dtype=float)
    if sd.size < 2 or sb.size < 2:
        raise DataError("both classes need at least two scores")
    m0, s0 = float(sd.mean()), float(sd.std())
    m1, s1 = float(sb.mean()), float(sb.std())
    if s0 == 0.0 or s1 == 0.0:
        raise DataError("zero-variance score class, threshold undefined")

    lo, hi = min(m0, m1), max(m0, m1)
    mid = 0.5 * (m0 + m1)
    # density equality as a quadratic in the score
    a = 1.0 / (2.0 * s1**2) - 1.0 / (2.0 * s0**2)
    b = m0 / s0**2 - m1 / s1**2
    c = m1**2 / (2.0 * s1**2) - m0**2 / (2.0 * s0**2) + np.log(s1 / s0)
    if a == 0.0:
        roots = [] if b == 0.0 else [-c / b]
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0:
            roots = []
        else:
            sq = float(np.sqrt(disc))
            roots = [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)]
    between = [r for r in roots if lo < r < hi]
    if not between:
        return mid
    return float(min(between, key=lambda r: abs(r - mid)))


def neighbor_sites(geometry, site: int) -> tuple[int, ...]:
    """Sites whose crosstalk the array filter models, ascending order.

    On arrays up to 3x3 every other site counts as a neighbor; on larger
    arrays only the 8-connected ring does, keeping the feature count flat
    as the array grows.
    """
    n = geometry.n_sites
    if site < 0 or site >= n:
        raise ConfigError(f"site {site} out of range for {n} sites")
    if geometry.rows <= 3 and geometry.cols <= 3:
        return tuple(k for k in range(n) if k != site)
    r, c = divmod(site, geometry.cols)
    out = []
    for rr in (r - 1, r, r + 1):
        for cc in (c - 1, c, c + 1):
            if (rr, cc) != (r, c) and 0 <= rr < geometry.rows and 0 <= cc < geometry.cols:
                out.append(rr * geometry.cols + cc)
    return tuple(sorted(out))


def extract_site_features(images, center, s: int, c: float = BIAS_C) -> np.ndarray:
    """Design matrix for mf-site, (s*s + 1, M): window pixels row-major,
    then the bias c; extract_array_features without neighbors."""
    return extract_array_features(images, [center], 0, s, (), c)


def extract_array_features(
    images, centers, site: int, s: int, neighbors, c: float = BIAS_C
) -> np.ndarray:
    """Design matrix for mf-array: window pixels, neighbor window means, c.

    Neighbor windows use the same size s as the target site and contribute
    one feature each (their mean intensity), in the order given. Shape
    (s*s + len(neighbors) + 1, M).
    """
    stack = _as_stack(images)
    m = stack.shape[0]
    rs, cs = window_slice(centers[site], s, stack.shape[1:])
    pix = stack[:, rs, cs].reshape(m, s * s).T.astype(np.float64)
    rows = [pix]
    for k in neighbors:
        nrs, ncs = window_slice(centers[k], s, stack.shape[1:])
        rows.append(stack[:, nrs, ncs].mean(axis=(1, 2), dtype=np.float64)[None, :])
    rows.append(np.full((1, m), c))
    return np.vstack(rows)


def window_index(center, s: int, shape) -> np.ndarray:
    """Flat row-major pixel indices of the s x s window, in feature order."""
    rs, cs = window_slice(center, s, shape)
    return (np.arange(rs.start, rs.stop)[:, None] * shape[1] + np.arange(cs.start, cs.stop)).ravel()


def neighbor_means(centers, neighbors, s: int, shape) -> np.ndarray:
    """(H*W, len(neighbors)) maps; column j averages neighbor j's window."""
    avg = np.zeros((shape[0] * shape[1], len(neighbors)))
    for j, k in enumerate(neighbors):
        avg[window_index(centers[k], s, shape), j] = 1.0 / (s * s)
    return avg


def learned_weight_map(weights, idx, avg) -> np.ndarray:
    """Full-frame map of weights in extract_*_features order (pixels idx,
    one per column of avg, then the bias, which is left out); overlapping
    windows add, so frame @ map + c * weights[-1] == weights @ features."""
    wmap = avg @ weights[idx.size : -1]
    wmap[idx] += weights[: idx.size]
    return wmap


@dataclass(frozen=True)
class FilterModel:
    """One trained (or fixed) per-site classifier.

    Every kind scores frame . w + b; the kind only decides how the
    full-frame map w and the bias b are built (see linear_map). scores
    applies w over its nonzero span [lo, hi) of flat pixels, outside which
    every weight is 0, derived once per image shape beside the map. weights is
    the learned coefficient vector for mf-site / mf-array with the bias
    weight last, and None for the fixed kinds. site and neighbors are
    zero-based in memory; serialization uses one-based site numbers to
    match the row-major site labels on reports. Frozen, with read-only
    arrays, so a map cached per image shape always matches the fields.
    """

    kind: str
    site: int
    center: tuple[float, float]
    s: int
    theta: float
    sigma: float | None = None
    weights: np.ndarray | None = None
    neighbors: tuple[int, ...] = ()
    all_centers: np.ndarray | None = None
    bias_c: float = BIAS_C
    image_shape: tuple[int, int] | None = None
    _maps: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _spans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown filter kind {self.kind!r}")
        if self.kind == "gaussian" and (self.sigma is None or self.sigma <= 0):
            raise ConfigError("gaussian filter needs a positive sigma")
        if self.neighbors and self.kind != "mf-array":
            raise ConfigError(f"{self.kind} filter takes no neighbors")
        if self.kind == "mf-array" and self.all_centers is None:
            raise ConfigError("mf-array filter needs the full center list")
        for name in ("weights", "all_centers"):
            if getattr(self, name) is not None:
                value = np.array(getattr(self, name), dtype=np.float64)
                value.setflags(write=False)
                object.__setattr__(self, name, value)
        if self.kind in ("mf-site", "mf-array"):
            d = self.s * self.s + len(self.neighbors) + 1
            if self.weights is None or self.weights.size != d:
                raise ConfigError(f"{self.kind} filter needs s^2 + neighbors + 1 = {d} weights")
            if not 0.0 < self.theta < 1.0:
                raise ConfigError(f"threshold for {self.kind} must lie in (0, 1), got {self.theta}")

    def linear_map(self, shape) -> tuple[np.ndarray, float]:
        """(w, b), score = frame.ravel() @ w + b, built once per image shape."""
        shape = (int(shape[0]), int(shape[1]))
        if shape not in self._maps:
            b = 0.0
            if self.kind == "square":
                w = np.zeros(shape[0] * shape[1])
                w[window_index(self.center, self.s, shape)] = 1.0
            elif self.kind == "gaussian":
                w = gaussian_weight_map(self.center, self.sigma, shape).ravel()
            else:
                avg = neighbor_means(self.all_centers, self.neighbors, self.s, shape)
                w = learned_weight_map(self.weights, window_index(self.center, self.s, shape), avg)
                b = self.bias_c * float(self.weights[-1])
            w.setflags(write=False)
            nonzero = np.flatnonzero(w)
            lo, hi = (int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (0, 0)
            self._maps[shape] = (w, b)
            self._spans[shape] = (lo, hi, w[lo:hi], float(b))
        return self._maps[shape]

    def span(self, shape) -> tuple[int, int, np.ndarray, float]:
        """(lo, hi, w[lo:hi], b): the flat pixel span holding every nonzero
        weight of linear_map(shape), empty (0, 0) for an all-zero map, and
        the bias."""
        shape = (int(shape[0]), int(shape[1]))
        if shape not in self._spans:
            self.linear_map(shape)
        return self._spans[shape]

    def scores(self, images) -> np.ndarray:
        """Linear score per frame, shape (M,).

        Each frame's score is one dot of its span pixels with the span
        weights, np.vecdot running the same BLAS dot kernel row by row, so
        a frame scores the same bits in a stack of any size. Only the
        span's columns of the flattened frames are read, through a strided
        view.
        """
        stack = _as_stack(images)
        lo, hi, w, b = self._spans.get(stack.shape[1:]) or self.span(stack.shape[1:])
        return np.vecdot(stack.reshape(len(stack), -1)[:, lo:hi], w) + b

    def predict(self, images) -> np.ndarray:
        """0/1 readout per frame, uint8 of shape (M,); a score exactly at
        theta reads bright.

        A one-frame stack skips the array plumbing: the dot of its span
        pixels with the span weights, the kernel scores uses per row,
        then the bias and the compare as Python floats, the same two
        double operations. It returns one of two shared read-only
        1-element arrays, with the bits of the batched readout.
        """
        stack = _as_stack(images)
        if len(stack) != 1:
            return (self.scores(stack) >= self.theta).view(np.uint8)
        lo, hi, w, b = self._spans.get(stack.shape[1:]) or self.span(stack.shape[1:])
        return _BRIGHT if float(stack.reshape(-1)[lo:hi].dot(w)) + b >= self.theta else _DARK

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "site": self.site + 1,
            "center": [float(self.center[0]), float(self.center[1])],
            "s": int(self.s),
            "c": float(self.bias_c),
            "theta": float(self.theta),
            "weights": [] if self.weights is None else [float(v) for v in self.weights],
        }
        if self.sigma is not None:
            d["sigma"] = float(self.sigma)
        if self.image_shape is not None:
            d["image_shape"] = [int(self.image_shape[0]), int(self.image_shape[1])]
        if self.kind == "mf-array":
            d["neighbors"] = [int(k) + 1 for k in self.neighbors]
            d["all_centers"] = [[float(r), float(c)] for r, c in self.all_centers]
        return d

    @staticmethod
    def from_dict(d: dict) -> "FilterModel":
        try:
            weights = np.asarray(d["weights"], dtype=float) if d["weights"] else None
            return FilterModel(
                kind=d["kind"],
                site=int(d["site"]) - 1,
                center=(float(d["center"][0]), float(d["center"][1])),
                s=int(d["s"]),
                theta=float(d["theta"]),
                sigma=float(d["sigma"]) if d.get("sigma") is not None else None,
                weights=weights,
                neighbors=tuple(int(k) - 1 for k in d.get("neighbors", ())),
                all_centers=np.asarray(d["all_centers"], float)
                if d.get("all_centers") is not None
                else None,
                bias_c=float(d.get("c", BIAS_C)),
                image_shape=tuple(int(v) for v in d["image_shape"])
                if d.get("image_shape") is not None
                else None,
            )
        except MFReadoutError:
            raise
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise DataError(f"bad filter model dict: {exc}") from exc


def frame_blocks(n_frames: int) -> list[tuple[int, int]]:
    """[lo, hi) bounds of ceil(n_frames / BLOCK_FRAMES) near-equal blocks.

    A stack of more than one frame has no one-frame block: each block
    holds at least half of BLOCK_FRAMES, or the whole stack.
    """
    k = -(-n_frames // BLOCK_FRAMES)
    return [(n_frames * i // k, n_frames * (i + 1) // k) for i in range(k)]


def classify_stack(models, images) -> np.ndarray:
    """Predictions for every frame and model, shape (M, len(models)).

    The stack is read in frame_blocks: each block is cast to float64 once
    and every model predicts on it while it is in cache. Each frame reads
    out the same bits whatever block it falls in (see FilterModel.scores).
    """
    stack = _as_stack(images)
    out = np.empty((stack.shape[0], len(models)), dtype=np.uint8)
    for lo, hi in frame_blocks(len(stack)):
        block = np.asarray(stack[lo:hi], dtype=np.float64)
        out[lo:hi] = np.array([model.predict(block) for model in models]).T
    return out
