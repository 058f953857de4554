"""Shared fixtures.

The crosstalk study fixtures are session-scoped because they carry the
expensive work (6000-frame training pass, 40,000-frame held-out stack);
the acceptance checks share one build.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported (below, through
# mf_readout), so the suite's wall time does not depend on what else the
# host runs.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import time  # noqa: E402
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from mf_readout import (
    KINDS,
    TrainingData,
    apply_stats,
    crosstalk_config,
    default_config,
    evaluate,
    fit_stats,
    generate_dataset,
    generate_label_path,
    locate_sites,
    mean_image,
    split_dataset,
    theta_grid_default,
    train_all_sites,
)
from mf_readout.pipeline import _evaluate_sets

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")


def build_training(stack, labels, split_seed: int):
    """One shuffle's pipeline stages: split, normalize, locate, package."""
    split = split_dataset(stack.n_images, seed=split_seed)
    stats = fit_stats(stack.images[split.train_idx])
    norm = apply_stats(stack.images, stats)
    geometry = locate_sites(mean_image(norm[split.train_idx]), stack.n_sites)
    data = TrainingData(
        train_images=norm[split.train_idx],
        train_labels=labels[split.train_idx],
        val_images=norm[split.val_idx],
        val_labels=labels[split.val_idx],
        geometry=geometry,
    )
    return split, stats, norm, geometry, data


@pytest.fixture(scope="session")
def whole_stack_shuffle():
    """The whole-stack reference of pipeline._one_shuffle: normalize every
    frame, then index the split blocks out of the normalized stack.

    Returns _one_shuffle's (split, stats, geometry, sets, reports) and the
    normalized (train, validation, test) blocks.
    """

    def shuffle(run, images, labels, split_seed: int, n_sites: int):
        frames = SimpleNamespace(n_images=images.shape[0], images=images, n_sites=n_sites)
        split, stats, norm, geometry, data = build_training(frames, labels, split_seed)
        theta_grid = theta_grid_default(*run.theta_grid)
        sets = {kind: train_all_sites(data, kind, run.s_grid, theta_grid, run.alpha) for kind in run.kinds}
        test = norm[split.test_idx]
        reports = _evaluate_sets(sets, test, labels[split.test_idx])
        return split, stats, geometry, sets, reports, (data.train_images, data.val_images, test)

    return shuffle


@pytest.fixture(scope="session")
def assert_minimum_norm():
    """Check that w is the minimum-norm least-squares solution of
    x^T w = y, exact to d * eps * cond^2 of max |w| for d features (a Gram
    solve squares cond(x); d covers a rank-1 system, whose cond is 1),
    cond taken over the singular values above the numerical-rank cutoff."""

    def check(w, x, y):
        expected = np.linalg.pinv(x.T) @ y
        sv = np.linalg.svd(x, compute_uv=False)
        sv = sv[sv > sv[0] * np.finfo(float).eps * max(x.shape)]
        tol = x.shape[0] * np.finfo(float).eps * (sv[0] / sv[-1]) ** 2 * np.abs(expected).max()
        assert np.abs(w - expected).max() <= tol

    return check


@pytest.fixture(scope="session")
def small_stack():
    return generate_dataset(default_config(n_images=260, seed=11))


@pytest.fixture(scope="session")
def small_training(small_stack):
    split, stats, norm, geometry, data = build_training(small_stack, small_stack.truth, 0)
    return SimpleNamespace(
        stack=small_stack, split=split, stats=stats, norm=norm, geometry=geometry, data=data
    )


@pytest.fixture(scope="session")
def truth_training():
    """1200-frame default stack with true-state labels: 240 test frames."""
    stack = generate_dataset(default_config(n_images=1200, seed=11))
    split, stats, norm, geometry, data = build_training(stack, stack.truth, 0)
    return SimpleNamespace(
        stack=stack, split=split, stats=stats, norm=norm, geometry=geometry, data=data
    )


@pytest.fixture(scope="session")
def preset_training():
    """Split-seed-0 TrainingData of full-size stacks of both presets, with
    true-state labels: default at 3000 frames, crosstalk at 6000."""
    out = {}
    for name, config in (
        ("default", default_config(n_images=3000, seed=5)),
        ("crosstalk", crosstalk_config(n_images=6000, seed=5)),
    ):
        stack = generate_dataset(config)
        out[name] = build_training(stack, stack.truth, 0)[-1]
    return out


@pytest.fixture(scope="session")
def crosstalk_study():
    """Ten-shuffle training pass on the crosstalk-dominated dataset.

    Labels come from the second imaging path; every kind is tuned per
    shuffle and evaluated on that shuffle's test block.
    """
    t0 = time.perf_counter()
    config = crosstalk_config(seed=17)
    stack = generate_dataset(config)
    labels = generate_label_path(config, stack.truth)
    reports = {kind: [] for kind in KINDS}
    stats0 = sets0 = None
    for shuffle in range(10):
        split, stats, norm, geometry, data = build_training(stack, labels, shuffle)
        sets = {kind: train_all_sites(data, kind) for kind in KINDS}
        test_images, test_labels = norm[split.test_idx], labels[split.test_idx]
        base = evaluate(sets["gaussian"], test_images, test_labels)
        for kind in KINDS:
            reports[kind].append(
                base if kind == "gaussian" else evaluate(sets[kind], test_images, test_labels, base)
            )
        if shuffle == 0:
            stats0, sets0 = stats, sets
    return SimpleNamespace(
        config=config,
        truth=stack.truth,
        labels=labels,
        reports=reports,
        stats0=stats0,
        sets0=sets0,
        elapsed=time.perf_counter() - t0,
    )


@pytest.fixture(scope="session")
def crosstalk_holdout(crosstalk_study):
    """Fresh 40,000-frame stack scored with the shuffle-0 models."""
    t0 = time.perf_counter()
    sim = replace(crosstalk_study.config, n_images=40000, seed=901)
    stack = generate_dataset(sim)
    norm = apply_stats(stack.images, crosstalk_study.stats0)
    reports = {
        kind: evaluate(crosstalk_study.sets0[kind], norm, stack.truth)
        for kind in ("gaussian", "mf-array")
    }
    return SimpleNamespace(
        reports=reports, n_frames=stack.n_images, elapsed=time.perf_counter() - t0
    )
