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
same scores feature by feature; a FilterModel builds its map once, for
the frame shape it records and reads only frames of that shape, and
scores through the map's nonzero span: the contiguous run of flat pixels
from the first to the last nonzero weight, so pixels outside it are
never multiplied.

Every (frame, site) score is one BLAS dot of the frame's span pixels
with the span weights, then + b: np.vecdot over the rows of a stack,
ndarray.dot on a lone frame. Both call the same kernel on the same row,
so a frame's score, and hence its readout, has the same bits whether it
is read alone or in a batch of any size. classify_stack reads a stack in
blocks of at most BLOCK_FRAMES frames, every model reading a block while
it is still in cache, and a lone frame with each model's
FilterModel.predict, the one-frame kernel: one dot and no block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .util import read_json, require_finite, round_half_up

KINDS = ("square", "gaussian", "mf-site", "mf-array")

GAUSSIAN_CUTOFF = 1e-3
BIAS_C = 1.0
# every key FilterModel.to_dict writes
MODEL_KEYS = frozenset(
    ("kind", "site", "center", "s", "c", "theta", "weights", "sigma", "image_shape", "neighbors", "all_centers")
)
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


def centers_inside(centers, shape) -> bool:
    """Whether every (row, col) center lies strictly inside an image of
    the given shape, 0 < row < h - 1 and 0 < col < w - 1; False for a
    non-finite center."""
    r, c = np.asarray(centers, dtype=np.float64).reshape(-1, 2).T
    return bool(np.all((0 < r) & (r < shape[0] - 1) & (0 < c) & (c < shape[1] - 1)))


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


def neighbor_sites(rows: int, cols: int, site: int) -> tuple[int, ...]:
    """Sites whose crosstalk the array filter models on a rows x cols
    array numbered row-major, ascending order.

    On arrays up to 3x3 every other site counts as a neighbor; on larger
    arrays only the 8-connected ring does, keeping the feature count flat
    as the array grows.
    """
    n = rows * cols
    if site < 0 or site >= n:
        raise ConfigError(f"site {site} out of range for {n} sites")
    if rows <= 3 and cols <= 3:
        return tuple(k for k in range(n) if k != site)
    r, c = divmod(site, cols)
    out = []
    for rr in (r - 1, r, r + 1):
        for cc in (c - 1, c, c + 1):
            if (rr, cc) != (r, c) and 0 <= rr < rows and 0 <= cc < cols:
                out.append(rr * cols + cc)
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
    """One trained (or fixed) per-site classifier for frames of image_shape.

    Every kind scores frame . w + b; the kind only decides how the
    full-frame map w and the bias b are built (see linear_map). The map
    and its nonzero span, the run [lo, hi) of flat pixels outside which
    every weight is 0, are built once, when the model is made, for the
    image_shape it records; every scoring entry point raises DataError
    for frames of another shape. weights is the learned coefficient
    vector for mf-site / mf-array with the bias weight last, and None for
    the fixed kinds. site and neighbors are zero-based in memory;
    serialization uses one-based site numbers to match the row-major site
    labels on reports. Frozen, with read-only arrays, so the map always
    matches the fields.
    """

    kind: str
    site: int
    center: tuple[float, float]
    s: int
    theta: float
    image_shape: tuple[int, int]
    sigma: float | None = None
    weights: np.ndarray | None = None
    neighbors: tuple[int, ...] = ()
    all_centers: np.ndarray | None = None
    bias_c: float = BIAS_C
    # (lo, hi, w[lo:hi], b): the flat pixel span holding every nonzero
    # weight of the map, empty (0, 0) for an all-zero map, and the bias
    span: tuple[int, int, np.ndarray, float] = field(init=False, repr=False, compare=False)
    _map: tuple[np.ndarray, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown filter kind {self.kind!r}")
        for name in ("center", "theta", "sigma", "weights", "all_centers"):
            if getattr(self, name) is not None:
                require_finite(name, getattr(self, name))
        if self.kind == "gaussian" and (self.sigma is None or self.sigma <= 0):
            raise ConfigError("gaussian filter needs a positive sigma")
        if self.neighbors and self.kind != "mf-array":
            raise ConfigError(f"{self.kind} filter takes no neighbors")
        if self.kind == "mf-array" and self.all_centers is None:
            raise ConfigError("mf-array filter needs the full center list")
        shape = () if self.image_shape is None else tuple(map(int, self.image_shape))
        if len(shape) != 2 or min(shape) < 1:
            raise ConfigError(f"filter needs an image shape of two positive sizes, got {self.image_shape}")
        object.__setattr__(self, "image_shape", shape)
        for name in ("weights", "all_centers"):
            if getattr(self, name) is not None:
                value = np.array(getattr(self, name), dtype=np.float64)
                value.setflags(write=False)
                object.__setattr__(self, name, value)
        n_sites = None if self.all_centers is None else len(self.all_centers)
        if self.site < 0 or (n_sites is not None and self.site >= n_sites):
            raise ConfigError(f"site index {self.site} is not a site of the array")
        for k in self.neighbors:
            if k == self.site or not 0 <= k < n_sites:
                raise ConfigError(f"neighbor {k} of site {self.site} is not another of the {n_sites} sites")
        if self.kind in ("mf-site", "mf-array"):
            d = self.s * self.s + len(self.neighbors) + 1
            if self.weights is None or self.weights.size != d:
                raise ConfigError(f"{self.kind} filter needs s^2 + neighbors + 1 = {d} weights")
            if not 0.0 < self.theta < 1.0:
                raise ConfigError(f"threshold for {self.kind} must lie in (0, 1), got {self.theta}")
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
        object.__setattr__(self, "_map", (w, b))
        object.__setattr__(self, "span", (lo, hi, w[lo:hi], float(b)))

    def linear_map(self) -> tuple[np.ndarray, float]:
        """(w, b), score = frame.ravel() @ w + b for a frame of image_shape."""
        return self._map

    def _check_shape(self, shape) -> None:
        if shape != self.image_shape:
            raise DataError(f"{self.kind} model of site {self.site + 1} was trained on {self.image_shape} frames, got {shape}")

    def scores(self, images) -> np.ndarray:
        """Linear score per frame, shape (M,).

        Each frame's score is one dot of its span pixels with the span
        weights, np.vecdot running the same BLAS dot kernel row by row, so
        a frame scores the same bits in a stack of any size. Only the
        span's columns of the flattened frames are read, through a strided
        view.
        """
        stack = _as_stack(images)
        self._check_shape(stack.shape[1:])
        return self._span_scores(stack.reshape(len(stack), -1))

    def _span_scores(self, rows) -> np.ndarray:
        """Score per row of rows, flattened frames of image_shape: one
        np.vecdot of the rows' span columns with the span weights, + b in
        place."""
        lo, hi, w, b = self.span
        score = np.vecdot(rows[:, lo:hi], w)
        score += b
        return score

    def predict(self, images) -> np.ndarray:
        """0/1 readout per frame, uint8 of shape (M,); a score exactly at
        theta reads bright.

        A one-frame stack is read by the one-frame kernel, the one
        classify_stack reads a lone frame with: the dot of its span
        pixels with the span weights (cast to float64 by the dot), the
        kernel scores uses per row, then the bias and the compare as
        Python floats, the same two double operations. It returns one of
        two shared read-only 1-element arrays. A longer stack reads as
        this model's column of classify_stack.
        """
        stack = _as_stack(images)
        if len(stack) != 1:
            return classify_stack((self,), stack)[:, 0]
        self._check_shape(stack.shape[1:])
        lo, hi, w, b = self.span
        return _BRIGHT if float(stack.ravel()[lo:hi].dot(w)) + b >= self.theta else _DARK

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "site": self.site + 1,
            "center": [float(self.center[0]), float(self.center[1])],
            "s": int(self.s),
            "c": float(self.bias_c),
            "theta": float(self.theta),
            "weights": [] if self.weights is None else [float(v) for v in self.weights],
            "image_shape": list(self.image_shape),
        }
        if self.sigma is not None:
            d["sigma"] = float(self.sigma)
        if self.kind == "mf-array":
            d["neighbors"] = [int(k) + 1 for k in self.neighbors]
            d["all_centers"] = [[float(r), float(c)] for r, c in self.all_centers]
        return d

    @staticmethod
    def load(path) -> "FilterModel":
        """The model in the JSON file at path; DataError naming the path."""
        d = read_json(path)
        try:
            return FilterModel.from_dict(d)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc

    @staticmethod
    def from_dict(d: dict) -> "FilterModel":
        """The model of a to_dict dict; DataError for a key to_dict does not
        write, a missing key, or fields the constructor rejects."""
        try:
            unknown = sorted(set(d) - MODEL_KEYS)
            if unknown:
                raise DataError(f"unknown filter model key(s): {', '.join(map(repr, unknown))}")
            weights = np.asarray(d["weights"], dtype=float) if d["weights"] else None
            return FilterModel(
                kind=d["kind"],
                site=int(d["site"]) - 1,
                center=(float(d["center"][0]), float(d["center"][1])),
                s=int(d["s"]),
                theta=float(d["theta"]),
                image_shape=d["image_shape"],
                sigma=float(d["sigma"]) if d.get("sigma") is not None else None,
                weights=weights,
                neighbors=tuple(int(k) - 1 for k in d.get("neighbors", ())),
                all_centers=np.asarray(d["all_centers"], float)
                if d.get("all_centers") is not None
                else None,
                bias_c=float(d.get("c", BIAS_C)),
            )
        except DataError:
            raise
        except KeyError as exc:
            raise DataError(f"filter model dict lacks the key {exc}") from exc
        except (TypeError, IndexError, ValueError) as exc:
            # ConfigError, a field the constructor rejects, is a ValueError
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

    A one-frame stack is read by each model's predict, the one-frame
    kernel. A longer stack is checked against every model's image_shape
    once, then read in frame_blocks: each block is cast to float64 once
    and every model reads it while it is in cache, its span scores
    compared in place into the bool view of the model's column. Each
    frame reads out the same bits alone or in any block (see
    FilterModel.scores).
    """
    stack = _as_stack(images)
    if len(stack) == 1:
        return np.array([[model.predict(stack)[0] for model in models]], dtype=np.uint8)
    for model in models:
        model._check_shape(stack.shape[1:])
    out = np.empty((len(stack), len(models)), dtype=np.uint8)
    bright = out.view(bool)
    for lo, hi in frame_blocks(len(stack)):
        rows = np.asarray(stack[lo:hi], dtype=np.float64).reshape(hi - lo, -1)
        for j, model in enumerate(models):
            np.greater_equal(model._span_scores(rows), model.theta, out=bright[lo:hi, j])
    return out
