"""Dataset splitting, closed-form and recursive least-squares weight
fitting, and metaparameter search over window size and threshold.

The matched filters are tuned from moments of the train frames, computed
once per TrainingData: the pixel Gram matrix with a bias row and column,
[X, c]^T [X, c], and its products with every site's labels. Each
candidate's normal equations are then a sub-block of these moments (plus
one averaged row and column per neighbor for mf-array), so no feature
matrix is built while tuning. Every ridge system is solved by one helper:
Cholesky decides whether an unregularized system has full rank, and a
rank-deficient one gets the minimum-norm least-squares weights.
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
    extract_array_features,  # noqa: F401  kept in this namespace: the traced benchmark
    extract_site_features,  # noqa: F401  rebinds train.extract_*_features by name
    gaussian_score,
    gaussian_weight_map,
    learned_weight_map,
    neighbor_means,
    neighbor_sites,
    square_score,
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
    """Threshold candidates lo..hi inclusive, rounded to clean decimals."""
    if step <= 0 or hi < lo:
        raise ConfigError("need step > 0 and hi >= lo")
    count = int(round((hi - lo) / step)) + 1
    return tuple(round(lo + i * step, 10) for i in range(count))


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


def _full_rank(gram) -> bool:
    """Cholesky test: positive definite, with the smallest squared pivot
    above sqrt(eps) times the largest."""
    try:
        pivots = np.diag(np.linalg.cholesky(gram)) ** 2
    except np.linalg.LinAlgError:
        return False
    return bool(pivots.min() > np.sqrt(np.finfo(np.float64).eps) * pivots.max())


def _solve_normal(gram, rhs, alpha: float) -> np.ndarray:
    """Weights w with (gram + alpha I) w = rhs.

    alpha > 0 makes the system positive definite and it is solved
    directly. At alpha = 0 the Cholesky test decides: a full-rank system
    is solved directly (numpy has no triangular solver, so the factor
    serves only as the test), any other gets the minimum-norm
    least-squares solution from lstsq.
    """
    if alpha > 0:
        w = np.linalg.solve(gram + alpha * np.eye(gram.shape[0]), rhs)
    elif _full_rank(gram):
        w = np.linalg.solve(gram, rhs)
    else:
        w = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    if not np.all(np.isfinite(w)):
        raise NumericalError("ridge solve produced non-finite weights")
    return w


def fit_ridge(X, Y, alpha: float = 0.0) -> np.ndarray:
    """Ridge weights W = Y X^T (X X^T + alpha I)^{-1}, returned as (d,).

    Accumulates the d x d Gram system and solves it rather than inverting.
    At alpha = 0 a rank-deficient system falls back to the minimum-norm
    least-squares solution, so the default is always well defined.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(Y, dtype=np.float64).ravel()
    if X.ndim != 2:
        raise DataError(f"X must be 2D (features x samples), got shape {X.shape}")
    d, m = X.shape
    if y.size != m:
        raise DataError(f"X has {m} columns but Y has {y.size} entries")
    if m < 1:
        raise DataError("need at least one sample")
    if alpha < 0:
        raise ConfigError("alpha must be non-negative")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise NumericalError("non-finite values in the design matrices")
    return _solve_normal(X @ X.T, X @ y, alpha)


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


@dataclass(frozen=True)
class TrainingData:
    """Train and validation material for tuning; test frames stay outside.

    Labels are (n_frames, n_sites) 0/1 arrays aligned with the images.
    Frozen, so the moments cached on first use always describe the
    arrays the instance holds.
    """

    train_images: np.ndarray
    train_labels: np.ndarray
    val_images: np.ndarray
    val_labels: np.ndarray
    geometry: SiteGeometry

    def __post_init__(self):
        if self.train_images.shape[0] != self.train_labels.shape[0]:
            raise DataError("train image/label counts differ")
        if self.val_images.shape[0] != self.val_labels.shape[0]:
            raise DataError("validation image/label counts differ")
        if self.train_labels.shape[1] != self.geometry.n_sites:
            raise DataError("label width does not match the number of sites")

    @property
    def image_shape(self) -> tuple[int, int]:
        return self.train_images.shape[1:]

    @cached_property
    def _moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(G, R, V): G = [X, c]^T [X, c] and R = [X, c]^T Y over the train
        frames X (one row per frame, pixels row-major) with the bias slot
        last, and V the validation frames as rows, all float64.

        The bias row and column of G come from column sums, so the train
        stack is never copied with a bias column appended.
        """
        m = self.train_images.shape[0]
        x = np.asarray(self.train_images, dtype=np.float64).reshape(m, -1)
        y = np.asarray(self.train_labels, dtype=np.float64)
        p = x.shape[1]
        gram = np.empty((p + 1, p + 1))
        np.matmul(x.T, x, out=gram[:p, :p])
        gram[p, :p] = gram[:p, p] = BIAS_C * x.sum(axis=0)
        gram[p, p] = BIAS_C * BIAS_C * m
        cross = np.empty((p + 1, y.shape[1]))
        np.matmul(x.T, y, out=cross[:p])
        cross[p] = BIAS_C * y.sum(axis=0)
        if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(cross))):
            raise NumericalError("non-finite values in the training frames")
        val = np.asarray(self.val_images, dtype=np.float64).reshape(self.val_images.shape[0], -1)
        return gram, cross, val


@dataclass
class TuneResult:
    best_s: int
    best_theta: float
    weights: np.ndarray | None
    val_fidelity: float
    search_trace: list[tuple[int, float, float]] = field(default_factory=list)


def _fidelity_curve(scores, labels, thetas) -> np.ndarray:
    """Fidelity of (scores >= theta) against labels, for every theta."""
    labels = np.asarray(labels).astype(bool)
    n_bright = int(labels.sum())
    n_dark = labels.size - n_bright
    if n_bright == 0 or n_dark == 0:
        raise DataError("validation labels contain a single class")
    preds = scores[None, :] >= np.asarray(thetas, dtype=np.float64)[:, None]
    false_bright = (preds & ~labels[None, :]).sum(axis=1)
    false_dark = (~preds & labels[None, :]).sum(axis=1)
    return 1.0 - 0.5 * (false_bright / n_dark + false_dark / n_bright)


def _candidate_system(gram, rhs, idx, avg) -> tuple[np.ndarray, np.ndarray]:
    """Normal equations A^T G A w = A^T r of one candidate, from moments.

    The features are the pixels idx, then one weighted pixel sum per
    column of avg (a neighbor's window mean), then the bias slot: the
    order extract_site_features and extract_array_features use. gram and
    rhs carry the bias slot last.
    """
    p = gram.shape[0] - 1
    g_cols = np.concatenate([gram[:, idx], gram[:, :p] @ avg, gram[:, p:]], axis=1)
    a = np.concatenate([g_cols[idx], avg.T @ g_cols[:p], g_cols[p:]])
    b = np.concatenate([rhs[idx], avg.T @ rhs[:p], rhs[p:]])
    return a, b


def _array_neighbors(geometry, site: int) -> tuple[int, ...]:
    """Neighbor sites of the mf-array filter on the located grid."""
    rows, cols, row_ids, col_ids = grid_shape(geometry.centers)
    if any(r * cols + c != i for i, (r, c) in enumerate(zip(row_ids, col_ids))):
        raise DataError("site ordering is not row-major; relocalize first")
    return neighbor_sites(_Grid(rows, cols, rows * cols), site)


def _threshold_fidelity(train_scores, train_labels, val_scores, val_labels):
    """Unsupervised threshold from training scores, fidelity on validation."""
    mask = np.asarray(train_labels).astype(bool)
    theta = unsupervised_threshold(train_scores[~mask], train_scores[mask])
    fid = float(_fidelity_curve(val_scores, val_labels, [theta])[0])
    return theta, fid


def tune(
    data: TrainingData,
    site: int,
    kind: str,
    s_grid=S_GRID,
    theta_grid=None,
    alpha: float = 0.0,
) -> TuneResult:
    """Pick the window size and threshold maximizing validation fidelity.

    For the learned kinds every (s, theta) cell is scored and ties go to
    the smaller s, then the smaller theta. The fixed kinds take their
    threshold from the training-score intersection instead of the theta
    grid (their scores are raw sums, not trained toward 0/1), so for them
    the search runs over s only (square; train_all_sites collapses its
    default grid to the lattice pitch so the baseline stays untrained) or
    is a single candidate (gaussian, whose footprint is set by the fitted
    sigma).

    The learned kinds never build feature matrices: each candidate's
    normal equations are taken from the train-frame moments cached on
    data (see TrainingData._moments) and solved like fit_ridge solves
    them, and its weights are spread into a full-frame map by
    filters.learned_weight_map, the map FilterModel scores with, so one
    matrix-vector product scores every validation frame.
    """
    if theta_grid is None:
        theta_grid = theta_grid_default()
    if kind not in KIND_TOKENS:
        raise ConfigError(f"unknown filter kind {kind!r}")
    if not s_grid or not theta_grid:
        raise ConfigError("empty search grid")
    center = tuple(data.geometry.centers[site])
    shape = data.image_shape
    y_train = data.train_labels[:, site]
    y_val = data.val_labels[:, site]

    best: tuple[float, int, float] | None = None  # (fidelity, s, theta)
    best_weights = None
    trace: list[tuple[int, float, float]] = []

    def consider(fid, s, theta, weights=None):
        nonlocal best, best_weights
        if best is None or fid > best[0]:
            best = (float(fid), int(s), float(theta))
            best_weights = weights

    if kind == "gaussian":
        wmap = gaussian_weight_map(center, float(data.geometry.sigmas[site]), shape)
        theta, fid = _threshold_fidelity(
            gaussian_score(data.train_images, wmap), y_train,
            gaussian_score(data.val_images, wmap), y_val,
        )
        return TuneResult(0, theta, None, fid, [(0, theta, fid)])

    neighbors = _array_neighbors(data.geometry, site) if kind == "mf-array" else ()
    if kind in ("mf-site", "mf-array"):
        if alpha < 0:
            raise ConfigError("alpha must be non-negative")
        gram, cross, val = data._moments

    for s in s_grid:
        if s < 2:
            continue
        if not all(window_fits(data.geometry.centers[k], s, shape) for k in (site, *neighbors)):
            continue
        if kind == "square":
            theta, fid = _threshold_fidelity(
                square_score(data.train_images, center, s), y_train,
                square_score(data.val_images, center, s), y_val,
            )
            trace.append((s, theta, fid))
            consider(fid, s, theta)
            continue
        idx = window_index(center, s, shape)
        avg = neighbor_means(data.geometry.centers, neighbors, s, shape)
        weights = _solve_normal(*_candidate_system(gram, cross[:, site], idx, avg), alpha)
        wmap = learned_weight_map(weights, idx, avg)
        fids = _fidelity_curve(val @ wmap + BIAS_C * weights[-1], y_val, theta_grid)
        for theta, fid in zip(theta_grid, fids):
            trace.append((s, theta, float(fid)))
            consider(fid, s, theta, weights)

    if best is None:
        raise ConfigError(f"no window size in {tuple(s_grid)} fits site {site} at {center}")
    return TuneResult(best[1], best[2], best_weights, best[0], trace)


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
            with open(path, "w") as f:
                json.dump(self.models[site].to_dict(), f, sort_keys=True)
                f.write("\n")
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
    s_grid=S_GRID,
    theta_grid=None,
    alpha: float = 0.0,
) -> ModelSet:
    """Tune one model per site; per-site failures are collected, not fatal."""
    geometry = data.geometry
    if kind == "square" and s_grid is S_GRID and geometry.n_sites > 1:
        s_grid = (square_boundary_default(geometry),)
    models: dict[int, FilterModel] = {}
    tune_results: dict[int, TuneResult] = {}
    failures: dict[int, str] = {}
    for site in range(geometry.n_sites):
        try:
            result = tune(data, site, kind, s_grid, theta_grid, alpha)
            array = kind == "mf-array"
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
