"""Dataset splitting, closed-form and recursive least-squares weight
fitting, and metaparameter search over window size and threshold.

The matched filters are tuned from moments of the train frames, computed
once per TrainingData: the pixel Gram matrix with a bias row and column,
[X, c]^T [X, c], and its products with every site's labels. The window
means A_s of every window size s (one column per site) meet the moments
in one product, and every site's mf-site system A, over its window
pixels and the bias, is a slice of G. A site's windows are nested, so in
nesting order the system of each window is a leading block of the
system of the site's largest window: that one system is
Cholesky-factored and its factor inverted once per alpha, and every
window size reads its solve, against the site's labels and
G[pix, :p] A_s together, from the leading blocks, all sites as stacks.
The solves are cached on the TrainingData and serve both learned kinds.
mf-site reads its weights from them. mf-array's system, ordered
[pixels, bias | neighbor means], holds A as its leading block, so its
weights follow by block elimination through a small Schur complement
over the neighbor means. Cholesky pivots decide where that holds: at
alpha = 0 the nested pivots (for mf-array with the Schur complement's)
must pass the rank test, at alpha > 0 the largest system must factor.
Every (site, window) where it does not is solved whole, its system read
from the same moments, by fit_ridge's rule (_solve_gram): the
minimum-norm weights of a rank-deficient system. So every learned system
is built from the moments alone, and they are the learned kinds' only
read of the train frames, which can be dropped once they are cached
(release_train_block). The fixed kinds never touch the moments.
Every kind is tuned by one pass over all sites (_tune_all): each
candidate is a full-frame map column and a bias, the map FilterModel
scores with, so one product scores the validation frames of them all,
and the fidelity of every threshold is counted from the sorted scores.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .filters import (
    BIAS_C,
    FilterModel,
    extract_array_features,  # noqa: F401  kept in this namespace: the traced benchmark rebinds it by name
    extract_site_features,  # noqa: F401  kept for the same reason
    gaussian_score,  # noqa: F401  kept for the same reason: the traced benchmark
    gaussian_weight_map,
    learned_weight_map,
    neighbor_means,
    neighbor_sites,
    square_score,  # noqa: F401  rebinds train.square_score and train.gaussian_score
    unsupervised_threshold,
    window_fits,
    window_index,
)
from .locate import SiteGeometry, _median_spacing, grid_shape
from .util import round_half_up

S_GRID = tuple(range(2, 15))

KIND_TOKENS = {"square": "square", "gaussian": "gaussian", "mf-site": "mfsite", "mf-array": "mfarray"}
TOKEN_KINDS = {v: k for k, v in KIND_TOKENS.items()}

_Grid = namedtuple("_Grid", ["rows", "cols", "n_sites"])


def theta_grid_default(lo: float = 0.01, hi: float = 0.99, step: float = 0.01) -> tuple[float, ...]:
    """Threshold candidates lo, lo + step, ... up to hi inclusive, rounded
    to clean decimals; the last is the largest that does not pass hi. A
    learned model's threshold lies in (0, 1), so a grid that reaches 0 or
    1 is rejected before any tuning."""
    if step <= 0 or hi < lo:
        raise ConfigError(f"theta grid ({lo}, {hi}, {step}) needs step > 0 and hi >= lo")
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    grid = tuple(min(round(lo + i * step, 10), hi) for i in range(count))
    if grid[0] <= 0 or grid[-1] >= 1:
        raise ConfigError(f"theta grid ({lo}, {hi}, {step}) runs from {grid[0]} to {grid[-1]}, outside (0, 1)")
    return grid


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint frame indices covering the whole stack."""

    train_idx: np.ndarray
    test_idx: np.ndarray
    val_idx: np.ndarray
    shuffle_seed: int

    def __post_init__(self):
        n = self.train_idx.size + self.test_idx.size + self.val_idx.size
        merged = np.concatenate([self.train_idx, self.test_idx, self.val_idx])
        if np.unique(merged).size != n:
            raise DataError("split indices overlap or repeat")

    def to_dict(self) -> dict:
        return {
            "shuffle_seed": self.shuffle_seed,
            "train_idx": self.train_idx.tolist(),
            "test_idx": self.test_idx.tolist(),
            "val_idx": self.val_idx.tolist(),
        }


def split_dataset(n_frames: int, fractions=(0.6, 0.2, 0.2), seed: int = 0) -> DatasetSplit:
    """Shuffle frames, then cut contiguously into train / test / validation.

    Test and validation sizes are floors of their fractions; the remainder
    goes to training, so 6002 frames at (0.6, 0.2, 0.2) give 3602/1200/1200.
    """
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must be three values summing to 1, got {fractions}")
    n_test = int(np.floor(n_frames * fractions[1]))
    n_val = int(np.floor(n_frames * fractions[2]))
    n_train = n_frames - n_test - n_val
    if n_train < 1 or n_test < 1 or n_val < 1:
        raise DataError(f"split of {n_frames} frames leaves an empty part")
    perm = np.random.default_rng(seed).permutation(n_frames)
    return DatasetSplit(
        train_idx=perm[:n_train],
        test_idx=perm[n_train : n_train + n_test],
        val_idx=perm[n_train + n_test :],
        shuffle_seed=seed,
    )


_NON_FINITE = "ridge solve produced non-finite weights"


def _cholesky(grams) -> np.ndarray:
    """Lower Cholesky factors (k, d, d) of a (k, d, d) stack, a matrix of
    zeros for a matrix that is not positive definite. One factorization
    serves the whole stack; only when it fails is each matrix factored on
    its own."""
    try:
        return np.linalg.cholesky(grams)
    except np.linalg.LinAlgError:
        if len(grams) == 1:
            return np.zeros(grams.shape)
        return np.concatenate([_cholesky(g[None]) for g in grams])


def _cholesky_pivots(grams) -> np.ndarray:
    """Squared Cholesky pivots (k, d) of each matrix of a (k, d, d) stack,
    a row of zeros for a matrix that is not positive definite."""
    return np.diagonal(_cholesky(grams), axis1=-2, axis2=-1) ** 2


def _invert_lower(factors) -> None:
    """Overwrite each matrix of a (k, d, d) stack of nonsingular
    lower-triangular matrices with its inverse, by block recursion:
    [[L11, 0], [L21, L22]]^{-1} is [[L11^{-1}, 0], [-L22^{-1} L21 L11^{-1},
    L22^{-1}]], so all but the diagonal blocks of at most 32 rows are
    matmuls. The upper triangle stays exactly zero, so each leading block
    of the result inverts the same leading block of the input."""
    d = factors.shape[-1]
    if d <= 32:
        factors[...] = np.tril(np.linalg.inv(factors))
        return
    h = d // 2
    _invert_lower(factors[:, :h, :h])
    _invert_lower(factors[:, h:, h:])
    factors[:, h:, :h] = -factors[:, h:, h:] @ (factors[:, h:, :h] @ factors[:, :h, :h])


def _full_rank(pivots) -> np.ndarray:
    """The rank test on squared pivots (k, d): the smallest above sqrt(eps)
    times the largest, and never for a row of zeros."""
    return pivots.min(axis=-1) > np.sqrt(np.finfo(np.float64).eps) * pivots.max(axis=-1)


def _solve_gram(gram, rhs, alpha: float) -> np.ndarray:
    """Weights of the Gram system gram w = rhs, alpha on its diagonal.

    At alpha = 0 its Cholesky pivots decide its rank: a full-rank system
    is solved directly (numpy has no triangular solver, so the factor
    serves only as the test), a rank-deficient one gets the minimum-norm
    least-squares solution from lstsq, so the weights are always well
    defined. They may still be non-finite; the caller checks.
    """
    if alpha > 0:
        return np.linalg.solve(gram + alpha * np.eye(len(gram)), rhs)
    if _full_rank(_cholesky_pivots(gram[None]))[0]:
        return np.linalg.solve(gram, rhs)
    return np.linalg.lstsq(gram, rhs, rcond=None)[0]


def fit_ridge(X, Y, alpha: float = 0.0) -> np.ndarray:
    """Ridge weights W = Y X^T (X X^T + alpha I)^{-1}, returned as (d,).

    Accumulates the d x d Gram system and solves it rather than inverting
    (_solve_gram), so at alpha = 0 a rank-deficient system gets its
    minimum-norm least-squares weights. Training builds the same systems
    from the moments of the train frames and solves them by the same
    rule; it never calls this.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(Y, dtype=np.float64).ravel()
    if X.ndim != 2:
        raise DataError(f"X must be 2D (features x samples), got shape {X.shape}")
    m = X.shape[1]
    if y.size != m:
        raise DataError(f"X has {m} columns but Y has {y.size} entries")
    if m < 1:
        raise DataError("need at least one sample")
    if alpha < 0:
        raise ConfigError("alpha must be non-negative")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise NumericalError("non-finite values in the design matrices")
    w = _solve_gram(X @ X.T, X @ y, alpha)
    if not np.all(np.isfinite(w)):
        raise NumericalError(_NON_FINITE)
    return w


def fit_rls(feature_stream, alpha0: float) -> np.ndarray:
    """Recursive least squares over a stream of (x, y) pairs.

    Keeps P = (X X^T + alpha0 I)^{-1} current through rank-1 updates, so
    after M samples the weights equal the batch ridge fit at alpha0.
    """
    if alpha0 <= 0:
        raise ConfigError("alpha0 must be positive")
    w = None
    p = None
    for x, y in feature_stream:
        x = np.asarray(x, dtype=np.float64).ravel()
        if w is None:
            w = np.zeros(x.size)
            p = np.eye(x.size) / alpha0
        px = p @ x
        gain = px / (1.0 + x @ px)
        w = w + gain * (float(y) - x @ w)
        p = p - np.outer(gain, px)
        p = 0.5 * (p + p.T)
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(p))):
            raise NumericalError("recursive update produced non-finite values")
    if w is None:
        raise DataError("empty feature stream")
    return w


def _frame_rows(images) -> np.ndarray:
    """A frame stack as float64 rows, one per frame, pixels row-major."""
    return np.asarray(images, dtype=np.float64).reshape(images.shape[0], -1)


@dataclass(frozen=True)
class TrainingData:
    """Train and validation material for tuning; test frames stay outside.

    Labels are (n_frames, n_sites) 0/1 arrays aligned with the images.
    Frozen, so the moments, window products and solves cached on first
    use always describe the frames the instance holds. The moments are
    the learned kinds' only read of the train frames, so once they are
    cached the frames can be dropped (release_train_block). The solves
    are keyed by (s, alpha), so a call with another alpha never reads
    them. The first request whose grid holds s solves it and later
    requests reuse it. That grid's largest window decides the last bits
    of the solve, and a site whose system at that window is singular is
    fit from its moments alone at every size.
    """

    train_images: np.ndarray
    train_labels: np.ndarray
    val_images: np.ndarray
    val_labels: np.ndarray
    geometry: SiteGeometry

    def __post_init__(self):
        n_sites = self.geometry.n_sites
        if self.train_block().shape[0] != self.train_labels.shape[0]:
            raise DataError("train image/label counts differ")
        if self.val_images.shape[0] != self.val_labels.shape[0]:
            raise DataError("validation image/label counts differ")
        if self.train_labels.shape[1] != n_sites:
            raise DataError("label width does not match the number of sites")
        if self.val_labels.shape[1:] != (n_sites,):
            raise DataError(f"validation labels of shape {self.val_labels.shape} do not hold one column per site ({n_sites})")
        if self.val_images.shape[1:] != self.image_shape:
            raise DataError(f"validation frames are {self.val_images.shape[1:]} pixels, train frames {self.image_shape}")

    @cached_property
    def image_shape(self) -> tuple[int, int]:
        return self.train_images.shape[1:]

    def train_block(self) -> np.ndarray:
        """The train frames, or DataError once they were released."""
        if self.train_images is None:
            raise DataError("the train frames were released after the moments were cached (release_train_block)")
        return self.train_images

    def release_train_block(self) -> None:
        """Compute the moments, the learned kinds' only read of the train
        frames, then drop the frames: nothing that trains the learned
        kinds reads them again, and the fixed kinds, which do, must train
        before this."""
        self._moments  # computed and cached for the solves
        object.__setattr__(self, "train_images", None)

    @cached_property
    def _moments(self) -> tuple[np.ndarray, np.ndarray]:
        """(G, R): G = [X, c]^T [X, c] and R = [X, c]^T Y over the train
        frames X (one row per frame, pixels row-major) with the bias slot
        last, both float64.

        The bias row and column of G come from column sums, so the train
        stack is never copied with a bias column appended.
        """
        x = _frame_rows(self.train_block())
        y = np.asarray(self.train_labels, dtype=np.float64)
        p = x.shape[1]
        gram = np.empty((p + 1, p + 1))
        np.matmul(x.T, x, out=gram[:p, :p])
        gram[p, :p] = gram[:p, p] = BIAS_C * x.sum(axis=0)
        gram[p, p] = BIAS_C * BIAS_C * x.shape[0]
        cross = np.empty((p + 1, y.shape[1]))
        np.matmul(x.T, y, out=cross[:p])
        cross[p] = BIAS_C * y.sum(axis=0)
        if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(cross))):
            raise NumericalError("non-finite values in the training frames")
        return gram, cross

    @cached_property
    def _products(self) -> dict:
        """Window size s -> _Products, filled by _fill_products."""
        return {}

    @cached_property
    def _solves(self) -> dict:
        """(s, alpha) -> _Solves, filled by _fill_solves."""
        return {}


LEARNED_KINDS = ("mf-site", "mf-array")


@dataclass(eq=False)
class TuneResult:
    """The chosen cell of one site's search and the table it came from.

    windows lists the window sizes scored (0 for gaussian, which has
    none), thetas and fidelities are (len(windows), n_theta) arrays, one
    row per window (square and gaussian score one threshold per window).
    """

    best_s: int
    best_theta: float
    weights: np.ndarray | None
    val_fidelity: float
    windows: tuple[int, ...]
    thetas: np.ndarray
    fidelities: np.ndarray

    @cached_property
    def search_trace(self) -> list[tuple[int, float, float]]:
        """Every (s, theta, fidelity) cell scored, window by window."""
        return [
            (int(s), t, f)
            for s, ts, fs in zip(self.windows, self.thetas.tolist(), self.fidelities.tolist())
            for t, f in zip(ts, fs)
        ]


def _best_cell(cells) -> TuneResult:
    """The first maximum of one site's fidelity table, from its cells
    (s, thresholds, fidelities, weights) in window order, thresholds in
    grid order: ties go to the earlier window, then the earlier
    threshold."""
    windows, thetas, fidelities, weights = zip(*cells)
    thetas, fidelities = np.array(thetas), np.array(fidelities)
    i, j = np.unravel_index(np.argmax(fidelities), fidelities.shape)
    return TuneResult(
        best_s=int(windows[i]),
        best_theta=float(thetas[i, j]),
        weights=weights[i],
        val_fidelity=float(fidelities[i, j]),
        windows=tuple(int(s) for s in windows),
        thetas=thetas,
        fidelities=fidelities,
    )


def _fidelity_curve(scores, labels, thetas) -> np.ndarray:
    """Fidelity of (scores >= theta) against labels, for every theta.

    The false counts come from each class's sorted finite scores: the
    dark frames at or above theta and the bright frames below it are
    found by searchsorted, so they are the same integers an elementwise
    comparison gives and the fidelities are exact.
    """
    labels = np.asarray(labels).astype(bool)
    n_bright = int(labels.sum())
    n_dark = labels.size - n_bright
    if n_bright == 0 or n_dark == 0:
        raise DataError("validation labels contain a single class")
    scores = np.asarray(scores, dtype=np.float64)
    thetas = np.asarray(thetas, dtype=np.float64)
    false_bright = n_dark - np.searchsorted(np.sort(scores[~labels]), thetas, side="left")
    false_dark = np.searchsorted(np.sort(scores[labels]), thetas, side="left")
    return 1.0 - 0.5 * (false_bright / n_dark + false_dark / n_bright)


def _array_neighbors(geometry, site: int) -> tuple[int, ...]:
    """Neighbor sites of the mf-array filter on the located grid."""
    rows, cols, row_ids, col_ids = grid_shape(geometry.centers)
    if any(r * cols + c != i for i, (r, c) in enumerate(zip(row_ids, col_ids))):
        raise DataError("site ordering is not row-major; relocalize first")
    return neighbor_sites(_Grid(rows, cols, rows * cols), site)


def _check_request(data: TrainingData, kind: str, s_grid, theta_grid, alpha: float) -> tuple[tuple, tuple]:
    """Reject a bad tuning request before any site is touched; returns
    the window and threshold grids with the defaults filled in. The
    library window grid is S_GRID, except for square on a lattice of two
    or more sites: one window, the lattice pitch (square_boundary_default),
    so the baseline stays untrained."""
    if kind not in KIND_TOKENS:
        raise ConfigError(f"unknown filter kind {kind!r}")
    if s_grid is None:
        pitch = kind == "square" and data.geometry.n_sites > 1
        s_grid = (square_boundary_default(data.geometry),) if pitch else S_GRID
    if theta_grid is None:
        theta_grid = theta_grid_default()
    if len(s_grid) == 0 or len(theta_grid) == 0:
        raise ConfigError("empty search grid")
    if alpha < 0:
        raise ConfigError("alpha must be non-negative")
    return s_grid, theta_grid


def _no_window(s_grid, site: int, center) -> ConfigError:
    return ConfigError(f"no window size in {tuple(s_grid)} fits site {site} at {center}")


_Products = namedtuple("_Products", ["fits", "a_s", "ga", "aga", "ar"])
_Solves = namedtuple("_Solves", ["pix", "x", "pivots"])


def _fill_products(data: TrainingData, s_grid) -> None:
    """Cache on data the window products both learned kinds share, for
    every size of s_grid not cached yet, with one product for them all.

    Per size s, fits lists the sites whose s x s window fits the frame,
    a_s their window means (one column each, in that order), and the
    moments meet a_s once: ga = G[:, :p] A_s, aga = A_s^T G[:p, :p] A_s
    and ar = A_s^T R[:p]. The ga of every size are column blocks of
    G[:, :p] [A_s1 | A_s2 | ...].
    """
    sizes = sorted({s for s in s_grid if s not in data._products})
    if not sizes:
        return
    gram, cross = data._moments
    p = gram.shape[0] - 1
    centers, shape = data.geometry.centers, data.image_shape
    fits = [tuple(k for k, c in enumerate(centers) if s >= 2 and window_fits(c, s, shape)) for s in sizes]
    means = [neighbor_means(centers, f, s, shape) for s, f in zip(sizes, fits)]
    ga_all = gram[:, :p] @ np.concatenate(means, axis=1)
    ends = np.cumsum([a_s.shape[1] for a_s in means])
    for s, f, a_s, end in zip(sizes, fits, means, ends):
        ga = ga_all[:, end - a_s.shape[1] : end]
        data._products[s] = _Products(f, a_s, ga, a_s.T @ ga[:p], a_s.T @ cross[:p])


def _nesting_order(size: int) -> np.ndarray:
    """Row-major positions in a size x size window, ordered so that every
    smaller window about the same center is a prefix of the order.

    Windows grow from round(center) - s // 2, so a pixel at offset d from
    the rounded center, along one axis, lies in every window of size
    1 (d = 0), 2|d| (d < 0) or 2d + 1 (d > 0) and up; it joins at the
    larger of its two axes' sizes. Ties keep row-major order.
    """
    d = np.arange(size) - size // 2
    joins = np.where(d < 0, -2 * d, 2 * d + 1)
    return np.argsort(np.maximum(joins[:, None], joins[None, :]).ravel(), kind="stable")


def _fill_solves(data: TrainingData, s_grid, alpha: float) -> None:
    """Solve every fitting site's mf-site system for every size of s_grid
    not cached yet at this alpha, once for both learned kinds, and cache
    the _Solves on data per (s, alpha).

    A site's window-s mf-site system A = G[pix, pix] covers its window
    pixels and the bias slot. It is solved against [b | G[pix, :p] A_s],
    b = R[pix, site], so x[:, :, 0] holds the mf-site weights and
    x[:, :, 1:] holds A^{-1} B for every window mean, the columns
    mf-array eliminates with. Rows of pix, x and pivots follow
    data._products[s].fits; pix lists the window pixels
    row-major, then the bias slot p, and x follows pix.

    A site's windows are nested, so with the features in nesting order
    (the bias, then the pixels of window 1, then the pixels each larger
    window adds; see _nesting_order) the window-s system is the leading
    1 + s^2 block of the system of the site's largest window among the
    sizes, and so are its Cholesky factor L, the inverse of that factor
    and its squared pivots. Each site's largest system is factored and
    inverted once (sites with the same largest window as one stack), and
    every size reads x = L^{-T} L^{-1} [b | G[pix, :p] A_s] from the
    leading blocks. pivots are those leading squared pivots, in nesting
    order, a row of zeros where the largest system is not positive
    definite. A row whose pivots fail (_solved) holds no usable x, and
    _learned_weights solves that site's system whole instead
    (_fallback_weights).
    """
    sizes = sorted({s for s in s_grid if (s, alpha) not in data._solves})
    if not sizes:
        return
    _fill_products(data, sizes)
    gram, cross = data._moments
    p = gram.shape[0] - 1
    centers, shape = data.geometry.centers, data.image_shape
    for s in sizes:
        n, d = len(data._products[s].fits), 1 + s * s
        data._solves[(s, alpha)] = _Solves(np.empty((n, d), dtype=np.intp), np.empty((n, d, 1 + n)), np.empty((n, d)))
    largest = {k: s for s in sizes for k in data._products[s].fits}
    for top in sorted(set(largest.values())):
        sites = np.array([k for k in sorted(largest) if largest[k] == top], dtype=np.intp)
        order = _nesting_order(top)
        nest = np.array([np.append(p, window_index(centers[k], top, shape)[order]) for k in sites])
        a = gram[nest[:, :, None], nest[:, None, :]]
        if alpha > 0:
            a += alpha * np.eye(a.shape[-1])
        inverses = _cholesky(a)
        del a  # the largest arrays here; one at a time keeps the peak down
        pivots = np.diagonal(inverses, axis1=-2, axis2=-1) ** 2
        inverses[pivots[:, 0] == 0] = np.eye(inverses.shape[-1])  # stands in for a failed factor; no size reads it
        _invert_lower(inverses)
        for s in sizes[: sizes.index(top) + 1]:
            products, out = data._products[s], data._solves[(s, alpha)]
            if not products.fits:  # s < 2, or a size no site fits
                continue
            d = 1 + s * s
            back = np.append(1 + np.argsort(order[: s * s]), 0)  # nesting order -> pix order
            rhs = np.concatenate([cross[nest[:, :d], sites[:, None]][..., None], products.ga[nest[:, :d]]], axis=2)
            inv = inverses[:, :d, :d]
            rows = np.searchsorted(products.fits, sites)
            out.pix[rows] = nest[:, back]
            out.x[rows] = (inv.transpose(0, 2, 1) @ (inv @ rhs))[:, back]
            out.pivots[rows] = pivots[:, :d]


def _solved(pivots, alpha: float) -> np.ndarray:
    """Which rows of nested pivots (k, d) hold a solve: at alpha = 0 those
    that pass the rank test, at alpha > 0, where every system is positive
    definite in exact arithmetic, those whose system was factored."""
    return pivots[:, 0] > 0 if alpha > 0 else _full_rank(pivots)


def _learned_weights(data: TrainingData, s: int, sites, nbr, alpha: float) -> np.ndarray:
    """Weights (k, d), in extract_*_features order, of the window-s
    candidate of each site in sites; nbr gives each site's neighbors as
    columns of A_s, the same number for every site (none for mf-site).
    It reads the window-s products and solves _fill_solves cached on data.

    Without neighbors the weights are the shared solves' first column.
    With them the system, ordered [pixels, bias | neighbor means], is
    [[A, B], [B^T, C]] with A the mf-site system. The neighbor weights u
    solve the Schur complement S u = r - B^T A^{-1} b, with
    S = C - B^T A^{-1} B (alpha added to the diagonals of A and C), and
    the rest are A^{-1} b - A^{-1} B u. A site takes these weights when
    its solve holds (_solved); at alpha = 0 mf-array's rank test reads A's
    pivots with chol(S)'s, which are the pivots of the whole system in
    that order. Every other site is fit from the same system whole
    (_fallback_weights), the minimum-norm weights where it is
    rank-deficient; weights that fit cannot give stay non-finite, which
    fails that site alone.
    """
    solves, products = data._solves[(s, alpha)], data._products[s]
    rows = np.searchsorted(products.fits, sites)
    pix = solves.pix[rows]
    full = _solved(solves.pivots[rows], alpha)
    if nbr.shape[1] == 0:
        weights = solves.x[rows, :, 0]
    else:
        x = solves.x[rows]
        ga, aga, ar = products.ga, products.aga, products.ar
        x0 = x[:, :, 0]
        a_inv_b = np.take_along_axis(x, 1 + nbr[:, None, :], axis=2)
        b_t = ga[pix[:, None, :], nbr[:, :, None]]
        schur = aga[nbr[:, :, None], nbr[:, None, :]] - b_t @ a_inv_b
        rhs = ar[nbr, sites[:, None]] - (b_t @ x0[..., None])[..., 0]
        if alpha > 0:
            schur += alpha * np.eye(nbr.shape[1])
        else:
            full = _full_rank(np.concatenate([solves.pivots[rows], _cholesky_pivots(schur)], axis=1))
        weights = np.empty((len(sites), pix.shape[1] + nbr.shape[1]))
        if full.any():
            u = np.linalg.solve(schur[full], rhs[full, :, None])
            v = x0[full] - (a_inv_b[full] @ u)[..., 0]
            weights[full] = np.concatenate([v[:, :-1], u[..., 0], v[:, -1:]], axis=1)
    for i in np.flatnonzero(~full):
        weights[i] = _fallback_weights(data, products, int(sites[i]), pix[i], nbr[i], alpha)
    return weights


def _fallback_weights(data: TrainingData, products: _Products, site: int, pix, nbr, alpha: float) -> np.ndarray:
    """One site's weights, [pixels, neighbor means, bias], from its whole
    system [[G[pix, pix], ga[pix, nbr]], [ga[pix, nbr]^T, aga[nbr, nbr]]]
    against [R[pix, site], ar[nbr, site]], read from the moments and the
    window products, pix being the window pixels row-major, then the bias
    slot. It is solved by fit_ridge's rule (_solve_gram), so a
    rank-deficient system gets its minimum-norm weights; weights that
    rule cannot give stay non-finite, for _tune_all to fail the site.
    """
    gram, cross = data._moments
    b = products.ga[pix[:, None], nbr[None, :]]
    system = np.block([[gram[pix[:, None], pix[None, :]], b], [b.T, products.aga[nbr[:, None], nbr[None, :]]]])
    w = _solve_gram(system, np.concatenate([cross[pix, site], products.ar[nbr, site]]), alpha)
    bias = len(pix) - 1
    return np.concatenate([w[:bias], w[bias + 1 :], w[bias : bias + 1]])


def _learned_candidates(data: TrainingData, kind: str, s_grid, alpha: float) -> tuple[list, dict]:
    """(candidates, failed) of a learned kind. The candidates (site, s,
    map column, bias, weights) run s-major, then grouped by neighbor
    count: every window size at which a site and all its neighbors fit.
    The products and solves both learned kinds share are filled for the
    whole window grid at once and cached on data (_fill_products,
    _fill_solves); the sites of one size with the same number of
    neighbors get their weights as one stack (_learned_weights), and each
    candidate's weights are spread into the full-frame map FilterModel
    scores with. failed holds the exception of each site whose neighbors
    cannot be found, and of every site when the train frames are not
    finite.
    """
    geometry = data.geometry
    failed: dict[int, Exception] = {}
    neighbors: dict[int, tuple[int, ...]] = {}
    for site in range(geometry.n_sites):
        try:
            neighbors[site] = _array_neighbors(geometry, site) if kind == "mf-array" else ()
        except DataError as exc:
            failed[site] = exc
    try:
        _fill_solves(data, s_grid, alpha)
    except NumericalError as exc:
        return [], {site: failed.get(site, exc) for site in range(geometry.n_sites)}
    out = []
    for s in s_grid:
        products = data._products[s]
        column = {j: c for c, j in enumerate(products.fits)}
        live = [k for k in neighbors if all(j in column for j in (k, *neighbors[k]))]
        pix = data._solves[(s, alpha)].pix
        for n_nbr in sorted({len(neighbors[k]) for k in live}):
            group = np.array([k for k in live if len(neighbors[k]) == n_nbr])
            nbr = np.array([[column[j] for j in neighbors[k]] for k in group], dtype=np.intp)
            weights = _learned_weights(data, s, group, nbr, alpha)
            for j, site in enumerate(group.tolist()):
                w = weights[j]
                column_map = learned_weight_map(w, pix[column[site], :-1], products.a_s[:, nbr[j]])
                out.append((site, s, column_map, BIAS_C * w[-1], w))
    return out, failed


def _fixed_candidates(data: TrainingData, kind: str, s_grid) -> tuple[list, dict]:
    """(candidates, failed) of a fixed kind. The candidates (site, s, map
    column, 0, None) run site-major: the indicator of each window that
    fits (square, one per s) or the point-spread map (gaussian, one,
    s = 0). failed holds the exception of each site whose sigma is not
    positive.
    """
    geometry, shape = data.geometry, data.image_shape
    failed: dict[int, Exception] = {}
    out = []
    for site in range(geometry.n_sites):
        center = tuple(geometry.centers[site])
        if kind == "gaussian":
            try:
                column = gaussian_weight_map(center, float(geometry.sigmas[site]), shape).ravel()
            except ConfigError as exc:
                failed[site] = exc
            else:
                out.append((site, 0, column, 0.0, None))
            continue
        for s in s_grid:
            if s >= 2 and window_fits(center, s, shape):
                column = np.zeros(shape[0] * shape[1])
                column[window_index(center, s, shape)] = 1.0
                out.append((site, s, column, 0.0, None))
    return out, failed


def _tune_all(data: TrainingData, kind: str, s_grid, theta_grid, alpha: float) -> dict:
    """Tune one kind for every site at once: {site: TuneResult, or the
    exception that failed the site}, in site order.

    Each kind family supplies its candidates (_learned_candidates,
    _fixed_candidates); one product then scores the validation frames of
    every candidate through its map and bias. The learned kinds count the
    fidelity of every theta of the grid. The fixed kinds, whose scores
    are raw sums not trained toward 0/1, take one threshold each, the
    intersection of the candidate's train-score classes, from one product
    over the train frames. A site fails alone, at its first failing
    candidate in window order: its neighbors cannot be found, its sigma
    is not positive, its weights are not finite, a train class is too
    small or has no spread, or its validation labels hold one class; a
    site with no candidate fails because no window fits it.
    """
    learned = kind in LEARNED_KINDS
    if learned:
        candidates, failed = _learned_candidates(data, kind, s_grid, alpha)
    else:
        candidates, failed = _fixed_candidates(data, kind, s_grid)
    if candidates:
        _, _, columns, biases, _ = zip(*candidates)
        maps, biases = np.stack(columns, axis=1), np.array(biases)
        val_scores = _frame_rows(data.val_images) @ maps + biases
        if not learned:
            train_scores = _frame_rows(data.train_block()) @ maps + biases
    grid = np.asarray(theta_grid, dtype=np.float64)
    cells: dict[int, list] = {k: [] for k in range(data.geometry.n_sites)}  # (s, thetas, curve, weights)
    for j, (site, s, _, _, weights) in enumerate(candidates):
        if site in failed:
            continue
        try:
            if not learned:
                bright = data.train_labels[:, site].astype(bool)
                thetas = np.array([unsupervised_threshold(train_scores[~bright, j], train_scores[bright, j])])
            elif np.all(np.isfinite(weights)):
                thetas = grid
            else:
                raise NumericalError(_NON_FINITE)
            curve = _fidelity_curve(val_scores[:, j], data.val_labels[:, site], thetas)
        except (DataError, NumericalError) as exc:
            failed[site] = exc
            continue
        cells[site].append((s, thetas, curve, weights))
    out = {}
    for site, found in cells.items():
        if site in failed:
            out[site] = failed[site]
        elif not found:
            out[site] = _no_window(s_grid, site, tuple(data.geometry.centers[site]))
        else:
            out[site] = _best_cell(found)
    return out


def tune(
    data: TrainingData,
    site: int,
    kind: str,
    s_grid=None,
    theta_grid=None,
    alpha: float = 0.0,
) -> TuneResult:
    """Pick the window size and threshold maximizing validation fidelity.

    For the learned kinds every (s, theta) cell is scored and ties go to
    the smaller s, then the smaller theta (the earlier one in each grid).
    The fixed kinds take their threshold from the training-score
    intersection instead of the theta grid (their scores are raw sums,
    not trained toward 0/1), so for them the search runs over s only
    (square, whose library grid, s_grid None, is the lattice pitch alone
    so the baseline stays untrained) or is a single candidate (gaussian,
    whose footprint is set by the fitted sigma).

    This is one site's entry to the pass train_all_sites makes over all
    sites (_tune_all), and it raises the exception that failed the site.
    Every call makes that whole pass; only the learned kinds' moments and
    solves are cached on data. To tune every site, call train_all_sites.
    """
    s_grid, theta_grid = _check_request(data, kind, s_grid, theta_grid, alpha)
    outcome = _tune_all(data, kind, s_grid, theta_grid, alpha)[site]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@dataclass
class ModelSet:
    """Tuned models for one filter kind, keyed by zero-based site index."""

    kind: str
    models: dict[int, FilterModel]
    tune_results: dict[int, TuneResult] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)

    @property
    def n_sites(self) -> int:
        return len(self.models) + len(self.failures)

    def ordered(self) -> list[FilterModel]:
        if self.failures:
            failed = "; ".join(f"site {k + 1}: {self.failures[k]}" for k in sorted(self.failures))
            raise DataError(f"{self.kind} model set has failed sites: {failed}")
        return [self.models[k] for k in sorted(self.models)]

    def save(self, out_dir) -> list[Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for site in sorted(self.models):
            path = out_dir / f"{KIND_TOKENS[self.kind]}_site{site + 1}.json"
            path.write_text(json.dumps(self.models[site].to_dict(), sort_keys=True) + "\n")
            paths.append(path)
        return paths


def load_models(model_dir) -> dict[str, ModelSet]:
    """Read every model JSON in a directory, grouped by kind."""
    model_dir = Path(model_dir)
    sets: dict[str, dict[int, FilterModel]] = {}
    for path in sorted(model_dir.glob("*.json")):
        try:
            with open(path) as f:
                model = FilterModel.from_dict(json.load(f))
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read model {path}: {exc}") from exc
        sets.setdefault(model.kind, {})[model.site] = model
    if not sets:
        raise DataError(f"no model files found in {model_dir}")
    return {kind: ModelSet(kind=kind, models=models) for kind, models in sets.items()}


def square_boundary_default(geometry) -> int:
    """Fixed boundary width for the square filter: the lattice pitch.

    The square filter is the untrained baseline, so its window is not
    searched; it gets the box a person would draw, one lattice cell. With
    a single site there is no pitch and the caller should tune instead.
    """
    centers = np.asarray(geometry.centers, dtype=np.float64).reshape(-1, 2)
    if centers.shape[0] < 2:
        raise ConfigError("square boundary default needs at least two sites")
    return max(int(round_half_up(_median_spacing(centers))), 2)


def train_all_sites(
    data: TrainingData,
    kind: str,
    s_grid=None,
    theta_grid=None,
    alpha: float = 0.0,
) -> ModelSet:
    """Tune one model per site; per-site failures are collected, not fatal.

    s_grid and theta_grid None mean the library grids (see tune). A bad
    request (unknown kind, empty grid, negative alpha) raises
    ConfigError before any site is tuned. Every kind tunes all sites in
    one pass (_tune_all), whose outcome for a site is what tune returns
    or raises for it.
    """
    s_grid, theta_grid = _check_request(data, kind, s_grid, theta_grid, alpha)
    geometry = data.geometry
    outcomes = _tune_all(data, kind, s_grid, theta_grid, alpha)
    models: dict[int, FilterModel] = {}
    tune_results: dict[int, TuneResult] = {}
    failures: dict[int, str] = {}
    array = kind == "mf-array"
    for site, result in outcomes.items():
        if isinstance(result, Exception):
            failures[site] = str(result)
            continue
        try:
            models[site] = FilterModel(
                kind=kind, site=site, center=tuple(geometry.centers[site]), s=result.best_s,
                theta=result.best_theta,
                sigma=float(geometry.sigmas[site]) if kind == "gaussian" else None,
                weights=result.weights,
                neighbors=_array_neighbors(geometry, site) if array else (),
                all_centers=geometry.centers if array else None,
                image_shape=data.image_shape,
            )
            tune_results[site] = result
        except (ConfigError, DataError, NumericalError) as exc:
            failures[site] = str(exc)
    if not models:
        raise DataError(f"training failed for every site: {failures}")
    return ModelSet(kind=kind, models=models, tune_results=tune_results, failures=failures)


def count_complexity(model_set: ModelSet) -> dict:
    """Parameter and per-frame operation counts for one model kind.

    Trainable parameters count learned weight entries (thresholds are
    excluded; the gaussian's sigma and amplitude count as 2 per site).
    Multiplications count nonzero weights per frame: the gaussian's map,
    the learned weights (one per neighbor mean, not per neighbor pixel),
    none for the square sum. No kind evaluates a nonlinear function.
    """
    models = model_set.ordered()
    kind = model_set.kind
    if kind == "square":
        trainable = mults = 0
    elif kind == "gaussian":
        trainable = 2 * len(models)
        if any(m.image_shape is None for m in models):
            raise DataError("gaussian model lacks an image shape for its weight map")
        mults = sum(int(np.count_nonzero(m.linear_map(m.image_shape)[0])) for m in models)
    else:
        trainable = sum(m.weights.size for m in models)
        mults = sum(int(np.count_nonzero(m.weights)) for m in models)
    return {
        "kind": kind,
        "n_trainable": int(trainable),
        "n_multiplications": int(mults),
        "n_nonlinear": 0,
    }
