import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mf_readout import (
    ConfigError,
    ConfusionCounts,
    DataError,
    MetricsReport,
    center_site,
    classify_stack,
    cnn_pairs,
    confusion,
    cross_fidelity,
    edge_pairs,
    evaluate,
    fidelity,
    infidelity_reduction,
    standard_error,
    train_all_sites,
)


# ----------------------------------------------------------- counting

def test_confusion_against_brute_force():
    rng = np.random.default_rng(30)
    labels = rng.integers(0, 2, size=200)
    preds = rng.integers(0, 2, size=200)
    counts = confusion(preds, labels)
    assert counts.n_bright_true == sum(labels)
    assert counts.n_dark_true == sum(1 - labels)
    assert counts.n_false_bright == sum(int(p == 1 and l == 0) for p, l in zip(preds, labels))
    assert counts.n_false_dark == sum(int(p == 0 and l == 1) for p, l in zip(preds, labels))


def test_confusion_rejects_bad_vectors():
    with pytest.raises(DataError):
        confusion([0, 1], [0, 1, 1])
    with pytest.raises(DataError):
        confusion([0, 2], [0, 1])
    for bad in (0.5, -1, np.nan):
        with pytest.raises(DataError):
            confusion([0, bad], [0, 1])
        with pytest.raises(DataError):
            confusion([0, 1], [bad, 1])
    with pytest.raises(DataError):
        ConfusionCounts(2, 2, 3, 0)


# ----------------------------------------------------------- fidelity

def test_fidelity_known_values():
    assert fidelity(ConfusionCounts(50, 50, 0, 0)) == 1.0
    # all-bright prediction: every dark frame is a false bright
    assert fidelity(ConfusionCounts(50, 50, 50, 0)) == 0.5
    assert fidelity(ConfusionCounts(100, 100, 4, 2)) == pytest.approx(0.97)


def test_fidelity_needs_both_classes():
    with pytest.raises(DataError):
        fidelity(ConfusionCounts(10, 0, 0, 0))
    with pytest.raises(DataError):
        fidelity(ConfusionCounts(0, 10, 0, 0))


@given(st.permutations(list(range(30))))
def test_fidelity_is_order_invariant(order):
    rng = np.random.default_rng(31)
    labels = rng.integers(0, 2, size=30)
    preds = rng.integers(0, 2, size=30)
    if labels.sum() in (0, 30):
        labels[0] = 1 - labels[0]
    order = np.asarray(order)
    assert fidelity(confusion(preds, labels)) == fidelity(
        confusion(preds[order], labels[order])
    )


# ----------------------------------------------------- cross-fidelity

def test_cross_fidelity_limits():
    a = np.array([0, 1, 0, 1, 1, 0])
    assert cross_fidelity(a, a) == pytest.approx(1.0)
    assert cross_fidelity(1 - a, a) == pytest.approx(-1.0)


def test_cross_fidelity_definitional_identity():
    rng = np.random.default_rng(32)
    pk = rng.integers(0, 2, size=500)
    pl = rng.integers(0, 2, size=500)
    bright = pl == 1
    expected = (
        1.0
        - (pk[bright] == 0).mean()
        - (pk[~bright] == 1).mean()
    )
    assert cross_fidelity(pk, pl) == pytest.approx(expected)


def test_cross_fidelity_of_independent_predictions_is_zero():
    rng = np.random.default_rng(33)
    n = 100_000
    pk = rng.integers(0, 2, size=n)
    pl = rng.integers(0, 2, size=n)
    assert abs(cross_fidelity(pk, pl)) < 0.01


def test_cross_fidelity_single_class_conditioning():
    with pytest.raises(DataError):
        cross_fidelity([0, 1, 0], [1, 1, 1])
    with pytest.raises(DataError):
        cross_fidelity([], [])
    with pytest.raises(DataError):
        cross_fidelity([0, 1], [0, 1, 1])


# ---------------------------------------------------------- reduction

def test_infidelity_reduction_values():
    assert infidelity_reduction(0.9, 0.9) == pytest.approx(0.0)
    assert infidelity_reduction(0.9, 1.0) == pytest.approx(1.0)
    assert infidelity_reduction(0.9804, 0.9851) == pytest.approx(
        (0.0196 - 0.0149) / 0.0196
    )
    with pytest.raises(DataError):
        infidelity_reduction(1.0, 0.99)


def test_infidelity_reduction_is_monotone_in_the_improved_fidelity():
    etas = [infidelity_reduction(0.95, f) for f in (0.95, 0.96, 0.97, 0.99)]
    assert etas == sorted(etas)


# --------------------------------------------------------- statistics

def test_standard_error_by_hand():
    # population std of {0.98, 0.99} is 0.005
    assert standard_error([0.98, 0.99]) == pytest.approx(0.005 / np.sqrt(2))
    assert standard_error([0.5, 0.5, 0.5]) == 0.0
    with pytest.raises(ConfigError):
        standard_error([1.0])


# ----------------------------------------------------------- geometry

def test_center_and_pair_selection_for_3x3():
    assert center_site(3, 3) == 4
    assert center_site(2, 3) is None
    assert cnn_pairs(3, 3) == [(4, 1), (4, 3), (4, 5), (4, 7)]
    assert cnn_pairs(2, 2) == []
    pairs = edge_pairs(3, 3)
    assert len(pairs) == 6
    assert set(pairs) == {(0, 2), (6, 8), (0, 6), (2, 8), (0, 8), (2, 6)}


def test_edge_pairs_collapse_for_degenerate_arrays():
    # pairs are ordered (k conditioned on l), so only exact repeats drop
    assert edge_pairs(1, 2) == [(0, 1), (1, 0)]


# ----------------------------------------------------------- evaluate

def test_evaluate_perfect_models_on_truth(truth_training):
    # 240 test frames: every site's fidelity estimate is tight enough that
    # the 0.9 bound tests the models, not the sampling of a few frames
    data = truth_training.data
    sets = {kind: train_all_sites(data, kind) for kind in ("gaussian", "mf-site")}
    norm = truth_training.norm
    split = truth_training.split
    labels = truth_training.stack.truth
    base = evaluate(sets["gaussian"], norm[split.test_idx], labels[split.test_idx])
    report = evaluate(sets["mf-site"], norm[split.test_idx], labels[split.test_idx], base)
    assert isinstance(report, MetricsReport)
    assert report.kind == "mf-site"
    assert report.fidelities.shape == (9,)
    assert np.all(report.fidelities > 0.9)
    assert report.cross_pairs[:4] == [(4, 1), (4, 3), (4, 5), (4, 7)]
    assert len(report.cross_pairs) == 10
    assert len(report.cross_values) == 10
    assert report.baseline_kind == "gaussian"
    assert len(report.eta_vs_baseline) == 9

    # the fidelities are exactly those of the models' own predictions
    preds = classify_stack(sets["mf-site"].ordered(), norm[split.test_idx])
    test_labels = labels[split.test_idx]
    for s in range(9):
        pred, label = preds[:, s], test_labels[:, s]
        false_bright = np.mean(pred[label == 0] == 1)
        false_dark = np.mean(pred[label == 1] == 0)
        assert report.fidelities[s] == 1.0 - 0.5 * (false_bright + false_dark)

    # eta compares with the baseline set's own predictions
    base_preds = classify_stack(sets["gaussian"].ordered(), norm[split.test_idx])
    for s in range(9):
        f_base = fidelity(confusion(base_preds[:, s], test_labels[:, s]))
        try:
            expected = infidelity_reduction(f_base, float(report.fidelities[s]))
        except DataError:
            expected = None
        assert report.eta_vs_baseline[s] == expected

    # a model set is never worse than itself, classified a second time
    again = evaluate(sets["gaussian"], norm[split.test_idx], labels[split.test_idx])
    self_report = evaluate(sets["gaussian"], norm[split.test_idx], labels[split.test_idx], again)
    for eta in self_report.eta_vs_baseline:
        if eta is not None:
            assert eta == pytest.approx(0.0)


def test_evaluate_rejects_misaligned_labels(small_training):
    data = small_training.data
    model_set = train_all_sites(data, "square")
    norm = small_training.norm
    with pytest.raises(DataError):
        evaluate(model_set, norm[:10], small_training.stack.truth[:9])


def test_evaluate_without_baseline_has_no_eta(small_training):
    data = small_training.data
    model_set = train_all_sites(data, "square")
    split = small_training.split
    report = evaluate(
        model_set,
        small_training.norm[split.test_idx],
        small_training.stack.truth[split.test_idx],
    )
    assert report.eta_vs_baseline is None
    assert report.baseline_kind is None
    assert report.mean_fidelity == pytest.approx(float(report.fidelities.mean()))


def test_evaluate_rejects_a_baseline_of_other_sites(small_training):
    model_set = train_all_sites(small_training.data, "square")
    split = small_training.split
    base = MetricsReport(kind="gaussian", fidelities=np.full(4, 0.9))
    with pytest.raises(DataError, match="baseline has 4 sites"):
        evaluate(
            model_set,
            small_training.norm[split.test_idx],
            small_training.stack.truth[split.test_idx],
            base,
        )
