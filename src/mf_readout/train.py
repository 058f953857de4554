"""Dataset splitting, closed-form and recursive least-squares weight
fitting, and metaparameter search over window size and threshold.

The matched filters are tuned from moments of the train frames, computed
once per TrainingData: the pixel Gram matrix with a bias row and column,
[X, c]^T [X, c], and its products with every site's labels. They are the
learned kinds' only read of the train frames, which can be dropped once
the moments are complete (release_train_block). The bias row and column
and the label products come from the frames' column and label sums
(locate.label_sums), which the pipeline forms once for localization and
the moments, so the pixel Gram X^T X is the moments' only read of the
frames (_complete_moments). The fixed kinds never touch the moments.
Each training request, a window grid and an alpha, builds its window
systems once (_window_systems), and both learned kinds read them. The
window means A_s of every size meet the moments in one product. A site's
windows are nested, so in nesting order each window's mf-site system is
a leading block of the system of the site's largest window: that one is
Cholesky-factored and its factor inverted, and every size reads its
solve from the leading blocks, all sites as stacks. mf-site reads its
weights from these solves; mf-array's follow by block elimination
through a small Schur complement over the neighbor means. Every
(site, window) whose Cholesky pivots fail is solved whole, its system
read from the same moments, by fit_ridge's rule (_solve_gram).
Every kind is tuned by one pass over all sites (_tune_all). A learned
candidate is a full-frame map column and a bias, so one product scores
the validation frames of them all at every threshold of the grid; a
fixed candidate is its own FilterModel, whose span kernel scores the
train frames for its threshold and the validation frames for its
fidelity. train.py builds no map of its own.
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
    gaussian_score,  # noqa: F401  kept for the same reason
    gaussian_weight_map,  # noqa: F401  kept for the same reason
    learned_weight_map,
    neighbor_means,
    neighbor_sites,
    square_score,  # noqa: F401  kept for the same reason
    unsupervised_threshold,
    window_fits,
    window_index,
)
from .locate import LabelSums, SiteGeometry, _median_spacing, grid_shape, label_sums
from .util import require_finite, round_half_up

S_GRID = tuple(range(2, 15))

KIND_TOKENS = {"square": "square", "gaussian": "gaussian", "mf-site": "mfsite", "mf-array": "mfarray"}
TOKEN_KINDS = {v: k for k, v in KIND_TOKENS.items()}


def theta_grid_default(lo: float = 0.01, hi: float = 0.99, step: float = 0.01) -> tuple[float, ...]:
    """Threshold candidates lo, lo + step, ... up to hi inclusive, rounded
    to clean decimals; the last is the largest that does not pass hi. A
    learned model's threshold lies in (0, 1), so a grid that reaches 0 or
    1 is rejected before any tuning."""
    require_finite("theta grid", (lo, hi, step))
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
    A negative seed is a ConfigError.
    """
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must be three values summing to 1, got {fractions}")
    if seed < 0:
        raise ConfigError(f"split seed must be non-negative, got {seed}")
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
    Frozen, so the moments and window systems cached on first use always
    describe the frames the instance holds. The moments are the learned
    kinds' only read of the train frames, so once they are complete the
    frames can be dropped (release_train_block).
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

    def release_train_block(self, sums: LabelSums) -> None:
        """Complete the moments from the train frames and sums, their
        label_sums with the train labels, then drop the frames: nothing
        that trains the learned kinds reads them again, and the fixed
        kinds, which do, must train before this. The pipeline forms sums
        once for localization and the moments alike.
        """
        self.__dict__["_moments"] = self._complete_moments(self.train_block(), sums)
        object.__setattr__(self, "train_images", None)

    @cached_property
    def _moments(self) -> tuple[np.ndarray, np.ndarray]:
        """(G, R) of the train frames: see _complete_moments."""
        x = self.train_block()
        return self._complete_moments(x, label_sums(x, self.train_labels))

    def _complete_moments(self, images, sums: LabelSums) -> tuple[np.ndarray, np.ndarray]:
        """(G, R): G = [X, c]^T [X, c] and R = [X, c]^T Y over the train
        frames X (one row per frame, pixels row-major) with the bias slot
        last, both float64, from the frames and sums, their label_sums
        with the train labels Y.

        BLAS writes X^T X in place into G's leading block, so with
        float64 frames nothing else is allocated. The bias row and column
        of G are the column sums and R's pixel rows are X^T Y, so the
        stack is read once and never copied with a bias column appended.
        """
        x = _frame_rows(images)
        p = x.shape[1]
        gram = np.empty((p + 1, p + 1))
        np.matmul(x.T, x, out=gram[:p, :p])
        gram[p, :p] = gram[:p, p] = BIAS_C * sums.columns
        gram[p, p] = BIAS_C * BIAS_C * sums.shape[0]
        cross = np.empty((p + 1, sums.bright.shape[1]))
        cross[:p] = sums.bright
        cross[p] = BIAS_C * sums.n_bright
        if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(cross))):
            raise NumericalError("non-finite values in the training frames")
        return gram, cross

    @cached_property
    def _systems(self) -> dict:
        """(sorted sizes, alpha) -> {s: _Window}, filled by
        _window_systems."""
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
    return neighbor_sites(rows, cols, site)


def check_window_grid(s_grid) -> tuple:
    """s_grid as a tuple; ConfigError unless it holds window sizes of at
    least 2, each once. RunConfig and every training request apply it."""
    s_grid = tuple(s_grid)
    if not s_grid:
        raise ConfigError("empty window grid")
    if min(s_grid) < 2:
        raise ConfigError(f"window sizes must be at least 2, got {s_grid}")
    repeated = sorted({s for s in s_grid if s_grid.count(s) > 1})
    if repeated:
        raise ConfigError(f"window size(s) {', '.join(map(str, repeated))} repeated in {s_grid}")
    return s_grid


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
    if len(theta_grid) == 0:
        raise ConfigError("empty search grid")
    s_grid = check_window_grid(s_grid)
    require_finite("alpha", alpha)
    if alpha < 0:
        raise ConfigError("alpha must be non-negative")
    return s_grid, theta_grid


def _no_window(s_grid, site: int, center) -> ConfigError:
    center = tuple(float(v) for v in center)
    return ConfigError(f"no window size in {tuple(s_grid)} fits site {site} at {center}")


_Window = namedtuple("_Window", ["fits", "a_s", "ga", "aga", "ar", "pix", "x", "pivots"])


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


def _window_systems(data: TrainingData, s_grid, alpha: float) -> dict:
    """{s: _Window} for every size of s_grid: the window products and the
    mf-site solves both learned kinds read, built once per request (the
    sorted sizes, alpha) and cached on data.

    Per size s, fits lists the sites whose s x s window fits the frame,
    a_s their window means (one column each, in that order), and the
    moments meet a_s once: ga = G[:, :p] A_s, aga = A_s^T G[:p, :p] A_s
    and ar = A_s^T R[:p]. The ga of every size are column blocks of
    G[:, :p] [A_s1 | A_s2 | ...].

    A site's window-s mf-site system A = G[pix, pix] covers its window
    pixels and the bias slot. It is solved against [b | G[pix, :p] A_s],
    b = R[pix, site], so x[:, :, 0] holds the mf-site weights and
    x[:, :, 1:] holds A^{-1} B for every window mean, the columns
    mf-array eliminates with. Rows of pix, x and pivots follow fits; pix
    lists the window pixels row-major, then the bias slot p, and x
    follows pix.

    A site's windows are nested, so with the features in nesting order
    (the bias, then the pixels of window 1, then the pixels each larger
    window adds; see _nesting_order) the window-s system is the leading
    1 + s^2 block of the system of the site's largest window in the
    grid, and so are its Cholesky factor L, the inverse of that factor
    and its squared pivots. Each site's largest system is factored and
    inverted once (sites with the same largest window as one stack), and
    every size reads x = L^{-T} L^{-1} [b | G[pix, :p] A_s] from the
    leading blocks. pivots are those leading squared pivots, in nesting
    order, a row of zeros where the largest system is not positive
    definite. A row whose pivots fail (_solved) holds no usable x, and
    _learned_weights solves that site's system whole instead
    (_fallback_weights).
    """
    sizes = sorted(s_grid)
    key = (tuple(sizes), alpha)
    if key in data._systems:
        return data._systems[key]
    gram, cross = data._moments
    p = gram.shape[0] - 1
    centers, shape = data.geometry.centers, data.image_shape
    fits = [tuple(k for k, c in enumerate(centers) if window_fits(c, s, shape)) for s in sizes]
    means = [neighbor_means(centers, f, s, shape) for s, f in zip(sizes, fits)]
    ga_all = gram[:, :p] @ np.concatenate(means, axis=1)
    ends = np.cumsum([len(f) for f in fits])
    systems = {}
    for s, f, a_s, end in zip(sizes, fits, means, ends):
        n, d = len(f), 1 + s * s
        ga = ga_all[:, end - n : end]
        solves = np.empty((n, d), dtype=np.intp), np.empty((n, d, 1 + n)), np.empty((n, d))
        systems[s] = _Window(f, a_s, ga, a_s.T @ ga[:p], a_s.T @ cross[:p], *solves)
    largest = {k: s for s in sizes for k in systems[s].fits}
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
            window, d = systems[s], 1 + s * s
            back = np.append(1 + np.argsort(order[: s * s]), 0)  # nesting order -> pix order
            rhs = np.concatenate([cross[nest[:, :d], sites[:, None]][..., None], window.ga[nest[:, :d]]], axis=2)
            inv = inverses[:, :d, :d]
            rows = np.searchsorted(window.fits, sites)
            window.pix[rows] = nest[:, back]
            window.x[rows] = (inv.transpose(0, 2, 1) @ (inv @ rhs))[:, back]
            window.pivots[rows] = pivots[:, :d]
    data._systems[key] = systems
    return systems


def _solved(pivots, alpha: float) -> np.ndarray:
    """Which rows of nested pivots (k, d) hold a solve: at alpha = 0 those
    that pass the rank test, at alpha > 0, where every system is positive
    definite in exact arithmetic, those whose system was factored."""
    return pivots[:, 0] > 0 if alpha > 0 else _full_rank(pivots)


def _learned_weights(data: TrainingData, window: _Window, sites, nbr, alpha: float) -> np.ndarray:
    """Weights (k, d), in extract_*_features order, of the candidate of
    each site in sites at one window size, read from that size's _Window;
    nbr gives each site's neighbors as columns of A_s, the same number for
    every site (none for mf-site).

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
    rows = np.searchsorted(window.fits, sites)
    pix = window.pix[rows]
    full = _solved(window.pivots[rows], alpha)
    if nbr.shape[1] == 0:
        weights = window.x[rows, :, 0]
    else:
        x = window.x[rows]
        x0 = x[:, :, 0]
        a_inv_b = np.take_along_axis(x, 1 + nbr[:, None, :], axis=2)
        b_t = window.ga[pix[:, None, :], nbr[:, :, None]]
        schur = window.aga[nbr[:, :, None], nbr[:, None, :]] - b_t @ a_inv_b
        rhs = window.ar[nbr, sites[:, None]] - (b_t @ x0[..., None])[..., 0]
        if alpha > 0:
            schur += alpha * np.eye(nbr.shape[1])
        else:
            full = _full_rank(np.concatenate([window.pivots[rows], _cholesky_pivots(schur)], axis=1))
        weights = np.empty((len(sites), pix.shape[1] + nbr.shape[1]))
        if full.any():
            u = np.linalg.solve(schur[full], rhs[full, :, None])
            v = x0[full] - (a_inv_b[full] @ u)[..., 0]
            weights[full] = np.concatenate([v[:, :-1], u[..., 0], v[:, -1:]], axis=1)
    for i in np.flatnonzero(~full):
        weights[i] = _fallback_weights(data, window, int(sites[i]), pix[i], nbr[i], alpha)
    return weights


def _fallback_weights(data: TrainingData, window: _Window, site: int, pix, nbr, alpha: float) -> np.ndarray:
    """One site's weights, [pixels, neighbor means, bias], from its whole
    system [[G[pix, pix], ga[pix, nbr]], [ga[pix, nbr]^T, aga[nbr, nbr]]]
    against [R[pix, site], ar[nbr, site]], read from the moments and the
    window's products, pix being the window pixels row-major, then the
    bias slot. It is solved by fit_ridge's rule (_solve_gram), so a
    rank-deficient system gets its minimum-norm weights; weights that
    rule cannot give stay non-finite, for _tune_all to fail the site.
    """
    gram, cross = data._moments
    b = window.ga[pix[:, None], nbr[None, :]]
    system = np.block([[gram[pix[:, None], pix[None, :]], b], [b.T, window.aga[nbr[:, None], nbr[None, :]]]])
    w = _solve_gram(system, np.concatenate([cross[pix, site], window.ar[nbr, site]]), alpha)
    bias = len(pix) - 1
    return np.concatenate([w[:bias], w[bias + 1 :], w[bias : bias + 1]])


def _learned_candidates(data: TrainingData, kind: str, s_grid, alpha: float) -> tuple[list, dict]:
    """(candidates, failed) of a learned kind. The candidates (site, s,
    map column, bias, weights) run s-major, then grouped by neighbor
    count: every window size at which a site and all its neighbors fit.
    They read the window systems of the request (_window_systems); the
    sites of one size with the same number of neighbors get their weights
    as one stack (_learned_weights), and each candidate's weights are
    spread into the full-frame map FilterModel scores with. failed holds
    the exception of each site whose neighbors cannot be found, and of
    every site when the train frames are not finite.
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
        systems = _window_systems(data, s_grid, alpha)
    except NumericalError as exc:
        return [], {site: failed.get(site, exc) for site in range(geometry.n_sites)}
    out = []
    for s in s_grid:
        window = systems[s]
        column = {j: c for c, j in enumerate(window.fits)}
        live = [k for k in neighbors if all(j in column for j in (k, *neighbors[k]))]
        for n_nbr in sorted({len(neighbors[k]) for k in live}):
            group = np.array([k for k in live if len(neighbors[k]) == n_nbr])
            nbr = np.array([[column[j] for j in neighbors[k]] for k in group], dtype=np.intp)
            weights = _learned_weights(data, window, group, nbr, alpha)
            for j, site in enumerate(group.tolist()):
                w = weights[j]
                column_map = learned_weight_map(w, window.pix[column[site], :-1], window.a_s[:, nbr[j]])
                out.append((site, s, column_map, BIAS_C * w[-1], w))
    return out, failed


def _learned_cells(data: TrainingData, kind: str, s_grid, theta_grid, alpha: float) -> tuple[dict, dict]:
    """(cells, failed): each site's cells (s, thetas, fidelities, weights)
    in window order and the exception of each failed site. One product
    scores the validation frames of every _learned_candidates map."""
    candidates, failed = _learned_candidates(data, kind, s_grid, alpha)
    cells = {k: [] for k in range(data.geometry.n_sites)}
    if candidates:
        _, _, columns, biases, _ = zip(*candidates)
        val_scores = _frame_rows(data.val_images) @ np.stack(columns, axis=1) + np.array(biases)
    grid = np.asarray(theta_grid, dtype=np.float64)
    for j, (site, s, _, _, weights) in enumerate(candidates):
        if site in failed:
            continue
        try:
            if not np.all(np.isfinite(weights)):
                raise NumericalError(_NON_FINITE)
            curve = _fidelity_curve(val_scores[:, j], data.val_labels[:, site], grid)
        except (DataError, NumericalError) as exc:
            failed[site] = exc
            continue
        cells[site].append((s, grid, curve, weights))
    return cells, failed


def _fixed_cells(data: TrainingData, kind: str, s_grid) -> tuple[dict, dict]:
    """(cells, failed) as _learned_cells gives them. A site's candidates
    are the FilterModel of each window that fits (square, one per s) or
    of its point spread (gaussian, one, s = 0); each one's span kernel
    scores the train frames, whose class intersection is its one theta,
    and the validation frames."""
    geometry, shape = data.geometry, data.image_shape
    train, val = _frame_rows(data.train_block()), _frame_rows(data.val_images)
    cells, failed = {k: [] for k in range(geometry.n_sites)}, {}
    for site in range(geometry.n_sites):
        center = tuple(geometry.centers[site])
        sigma = float(geometry.sigmas[site]) if kind == "gaussian" else None
        bright = data.train_labels[:, site].astype(bool)
        windows = (0,) if kind == "gaussian" else [s for s in s_grid if window_fits(center, s, shape)]
        try:
            for s in windows:
                model = FilterModel(kind=kind, site=site, center=center, s=s, theta=0.0, sigma=sigma, image_shape=shape)
                scores = model._span_scores(train)
                theta = np.array([unsupervised_threshold(scores[~bright], scores[bright])])
                curve = _fidelity_curve(model._span_scores(val), data.val_labels[:, site], theta)
                cells[site].append((s, theta, curve, None))
        except (ConfigError, DataError) as exc:
            failed[site] = exc
    return cells, failed


def _tune_all(data: TrainingData, kind: str, s_grid, theta_grid, alpha: float) -> dict:
    """Tune one kind for every site at once: {site: TuneResult, or the
    exception that failed the site}, in site order.

    The learned kinds score every (s, theta) cell of the grids
    (_learned_cells); the fixed kinds take one threshold per window from
    their own models' train scores (_fixed_cells). A site fails alone, at
    its first failing candidate in window order: its neighbors cannot be
    found, its sigma is not positive, its weights are not finite, a train
    class is too small or has no spread, or its validation labels hold
    one class; a site with no candidate fails because no window fits it.
    """
    if kind in LEARNED_KINDS:
        cells, failed = _learned_cells(data, kind, s_grid, theta_grid, alpha)
    else:
        cells, failed = _fixed_cells(data, kind, s_grid)
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

    The learned kinds score every (s, theta) cell, from one product of
    the validation frames with every candidate's map; ties go to the
    smaller s, then the smaller theta (the earlier one in each grid). The
    fixed kinds score through their own FilterModel and take its threshold
    from the intersection of its train-score classes, not the theta grid
    (their scores are raw sums, not trained toward 0/1), so for them the
    search runs over s only (square, whose library grid, s_grid None, is
    the lattice pitch alone so the baseline stays untrained) or is a
    single candidate (gaussian, whose footprint is set by the fitted
    sigma).

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
    """Read every model JSON in a directory, grouped by kind; DataError
    for two files holding the same kind and site."""
    model_dir = Path(model_dir)
    sets: dict[str, dict[int, FilterModel]] = {}
    paths: dict[tuple[str, int], Path] = {}
    for path in sorted(model_dir.glob("*.json")):
        model = FilterModel.load(path)
        first = paths.setdefault((model.kind, model.site), path)
        if first != path:
            raise DataError(f"{first} and {path} both hold the {model.kind} model of site {model.site + 1}")
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
        mults = sum(int(np.count_nonzero(m.linear_map()[0])) for m in models)
    else:
        trainable = sum(m.weights.size for m in models)
        mults = sum(int(np.count_nonzero(m.weights)) for m in models)
    return {
        "kind": kind,
        "n_trainable": int(trainable),
        "n_multiplications": int(mults),
        "n_nonlinear": 0,
    }
