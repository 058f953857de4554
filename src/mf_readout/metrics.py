"""Readout quality metrics: fidelity, cross-fidelity between site pairs,
infidelity reduction against a baseline, and the standard error over
shuffles.

All metrics are exact rational functions of integer counts, so
recomputing them on the same predictions is bitwise stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .filters import classify_stack
from .locate import grid_shape


@dataclass(frozen=True)
class ConfusionCounts:
    """Tallies behind the fidelity formula; false-X = predicted X wrongly."""

    n_bright_true: int
    n_dark_true: int
    n_false_bright: int
    n_false_dark: int

    def __post_init__(self):
        if min(self.n_bright_true, self.n_dark_true, self.n_false_bright, self.n_false_dark) < 0:
            raise DataError("negative confusion count")
        if self.n_false_bright > self.n_dark_true or self.n_false_dark > self.n_bright_true:
            raise DataError("false counts exceed their class totals")


def confusion(preds, labels) -> ConfusionCounts:
    preds = np.asarray(preds).reshape(-1)  # a view, also of a strided column
    labels = np.asarray(labels).reshape(-1)
    if preds.size != labels.size:
        raise DataError(f"{preds.size} predictions vs {labels.size} labels")
    if not (((preds == 0) | (preds == 1)).all() and ((labels == 0) | (labels == 1)).all()):
        raise DataError("predictions and labels must be 0/1")
    n_bright = int(np.count_nonzero(labels))
    return ConfusionCounts(
        n_bright_true=n_bright,
        n_dark_true=labels.size - n_bright,
        n_false_bright=int(np.count_nonzero(preds > labels)),
        n_false_dark=int(np.count_nonzero(preds < labels)),
    )


def fidelity(counts: ConfusionCounts) -> float:
    """F = 1 - [P(bright_pred | dark) + P(dark_pred | bright)] / 2."""
    if counts.n_bright_true == 0 or counts.n_dark_true == 0:
        raise DataError("fidelity undefined with an empty true class")
    p_fb = counts.n_false_bright / counts.n_dark_true
    p_fd = counts.n_false_dark / counts.n_bright_true
    return 1.0 - 0.5 * (p_fb + p_fd)


def cross_fidelity(preds_k, preds_l) -> float:
    """F_CF = 1 - P(dark_k | bright_l) - P(bright_k | dark_l).

    1 means site k's prediction copies site l's, -1 means it mirrors it,
    0 means no predicted-state coupling. Conditions on site l, so site l
    must show both outcomes.
    """
    pk = np.asarray(preds_k).reshape(-1)
    pl = np.asarray(preds_l).reshape(-1)
    if pk.size != pl.size:
        raise DataError(f"{pk.size} vs {pl.size} predictions")
    if pk.size == 0:
        raise DataError("empty prediction vectors")
    bright_l = pl == 1
    n_bright = int(np.count_nonzero(bright_l))
    n_dark = pk.size - n_bright
    if n_bright == 0 or n_dark == 0:
        raise DataError("site l predictions are single-class, conditionals undefined")
    p_dark_k_given_bright_l = np.count_nonzero(bright_l & (pk == 0)) / n_bright
    p_bright_k_given_dark_l = np.count_nonzero(~bright_l & (pk == 1)) / n_dark
    return 1.0 - p_dark_k_given_bright_l - p_bright_k_given_dark_l


def infidelity_reduction(f_sigma: float, f_mf: float) -> float:
    """Fractional drop of (1 - F) relative to the baseline filter."""
    if f_sigma >= 1.0:
        raise DataError("baseline fidelity of 1 leaves nothing to reduce")
    return ((1.0 - f_sigma) - (1.0 - f_mf)) / (1.0 - f_sigma)


def standard_error(values) -> float:
    """Population std over shuffles divided by sqrt(n)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        raise ConfigError("need at least two values for a standard error")
    return float(arr.std() / np.sqrt(arr.size))


def center_site(rows: int, cols: int) -> int | None:
    """Index of the central site, or None when the array has no single center."""
    if rows % 2 == 1 and cols % 2 == 1:
        return (rows // 2) * cols + cols // 2
    return None


def cnn_pairs(rows: int, cols: int) -> list[tuple[int, int]]:
    """Center-to-nearest-neighbor pairs (k, l) = (center, neighbor)."""
    c = center_site(rows, cols)
    if c is None:
        return []
    r, col = divmod(c, cols)
    out = []
    for rr, cc in ((r - 1, col), (r, col - 1), (r, col + 1), (r + 1, col)):
        if 0 <= rr < rows and 0 <= cc < cols:
            out.append((c, rr * cols + cc))
    return out


def edge_pairs(rows: int, cols: int) -> list[tuple[int, int]]:
    """Corner-site pairs: top, bottom, left, right, then both diagonals."""
    tl, tr = 0, cols - 1
    bl, br = (rows - 1) * cols, rows * cols - 1
    raw = [(tl, tr), (bl, br), (tl, bl), (tr, br), (tl, br), (tr, bl)]
    seen = set()
    out = []
    for k, l in raw:
        if k != l and (k, l) not in seen:
            seen.add((k, l))
            out.append((k, l))
    return out


@dataclass
class MetricsReport:
    """Evaluation of one model kind on one labeled stack.

    cross_values entries are None where the conditional was undefined
    (single-class site), as is eta for sites whose baseline is already
    perfect. Mean-of-|F_CF| summaries skip the undefined entries.
    """

    kind: str
    fidelities: np.ndarray
    cross_pairs: list[tuple[int, int]] = field(default_factory=list)
    cross_values: list[float | None] = field(default_factory=list)
    cnn_mean_abs: float | None = None
    ee_mean_abs: float | None = None
    eta_vs_baseline: list[float | None] | None = None
    baseline_kind: str | None = None

    @property
    def mean_fidelity(self) -> float:
        return float(np.mean(self.fidelities))


def evaluate(model_set, images, labels, baseline: MetricsReport | None = None) -> MetricsReport:
    """Per-site fidelity, cross-fidelities for the standard pair families, and eta.

    labels must align with the frames. baseline, if given, is the report
    of the baseline set (conventionally the gaussian filter) on the same
    frames and labels; eta compares each site's fidelity with its, so the
    baseline set is classified once however many sets it serves.
    """
    return evaluate_predictions(model_set, classify_stack(model_set.ordered(), images), labels, baseline)


def evaluate_predictions(model_set, preds, labels, baseline: MetricsReport | None = None) -> MetricsReport:
    """evaluate's report from the set's (M, n_sites) predictions, as
    classify_stack gives them, so a caller can classify a stack in parts.
    labels must have the predictions' shape."""
    models = model_set.ordered()
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.ndim != 2 or preds.shape[1] != len(models) or labels.shape != preds.shape:
        raise DataError(
            f"predictions {preds.shape} and labels {labels.shape} must both be frames x {len(models)} sites"
        )
    fids = np.array([fidelity(confusion(preds[:, s], labels[:, s])) for s in range(len(models))])

    centers = np.array([m.center for m in models])
    rows, cols, _, _ = grid_shape(centers)
    pairs_c = cnn_pairs(rows, cols)
    pairs_e = edge_pairs(rows, cols)
    cross_values: list[float | None] = []
    for k, l in pairs_c + pairs_e:
        try:
            cross_values.append(cross_fidelity(preds[:, k], preds[:, l]))
        except DataError:
            cross_values.append(None)

    def mean_abs(section):
        vals = [abs(v) for v in section if v is not None]
        return float(np.mean(vals)) if vals else None

    eta = None
    if baseline is not None:
        if baseline.fidelities.shape != fids.shape:
            raise DataError(f"baseline has {baseline.fidelities.size} sites, {model_set.kind} has {fids.size}")
        eta = []
        for f_base, f in zip(baseline.fidelities.tolist(), fids.tolist()):
            try:
                eta.append(infidelity_reduction(f_base, f))
            except DataError:
                eta.append(None)

    return MetricsReport(
        kind=model_set.kind,
        fidelities=fids,
        cross_pairs=pairs_c + pairs_e,
        cross_values=cross_values,
        cnn_mean_abs=mean_abs(cross_values[: len(pairs_c)]),
        ee_mean_abs=mean_abs(cross_values[len(pairs_c) :]),
        eta_vs_baseline=eta,
        baseline_kind=None if baseline is None else baseline.kind,
    )
