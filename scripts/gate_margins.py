"""How much room acceptance criteria 5, 6 and 8 have, seed by seed.

    python3 scripts/gate_margins.py
    python3 scripts/gate_margins.py --seeds 17 0 1

Run it from the root of a checkout; it imports mf_readout from ./src.
It reruns the three gates the way tests/test_acceptance.py does, on
other dataset seeds as well as the gate's own, and prints each gate's
margin: the distance from the measured value to the bound, positive when
the gate passes.

- Criteria 5 and 6 (crosstalk preset, label-path labels, 10 shuffles of
  every kind; the gate uses dataset seed 17). Criterion 5 requires
  square > gaussian > mf-site >= mf-array in mean infidelity, the
  gaussian's infidelity within [0.005, 0.05] and eta >= 0.15; its
  margins are the three gaps of the ordering, the distance to the nearer
  end of the band and eta - 0.15. Criterion 6 scores a fresh
  40,000-frame stack (seed 901, as at the gate) with the shuffle-0
  models and requires mf-array's center-site mean |F_CF| to be at most
  half the gaussian's; its margin is 0.5 * gaussian - mf-array.
- Criterion 8 (default preset at label-path light level, 260 frames,
  the stack's mean image and its truth labels' difference images; the
  gate takes the worst over dataset seeds 0-4). Here each seed is one
  stack, with margins 0.1 px - worst center error and 5 % - worst
  relative sigma error.

A seed on which a gate fails is a finding about the gate's room, not a
reason to move the gate's seed. One BLAS thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mf_readout import (  # noqa: E402
    KINDS,
    MFReadoutError,
    TrainingData,
    apply_stats,
    crosstalk_config,
    default_config,
    difference_images,
    evaluate,
    fit_stats,
    generate_dataset,
    generate_label_path,
    infidelity_reduction,
    locate_sites,
    mean_image,
    split_dataset,
    train_all_sites,
)

CROSSTALK_SEEDS = (17, 0, 1, 2, 3, 4, 5, 6, 7, 8)
LOCATE_SEEDS = tuple(range(10))


def crosstalk_gates(seed: int) -> str:
    """Criteria 5 and 6 on one crosstalk dataset seed, as one line."""
    config = crosstalk_config(seed=seed)
    stack = generate_dataset(config)
    labels = generate_label_path(config, stack.truth)
    infid = {kind: [] for kind in KINDS}
    for shuffle in range(10):
        split = split_dataset(stack.n_images, seed=shuffle)
        stats = fit_stats(stack.images[split.train_idx])
        norm = apply_stats(stack.images, stats)
        data = TrainingData(
            train_images=norm[split.train_idx],
            train_labels=labels[split.train_idx],
            val_images=norm[split.val_idx],
            val_labels=labels[split.val_idx],
            geometry=locate_sites(
                mean_image(norm[split.train_idx]),
                difference_images(norm[split.train_idx], labels[split.train_idx]),
            ),
        )
        sets = {kind: train_all_sites(data, kind) for kind in KINDS}
        test_images, test_labels = norm[split.test_idx], labels[split.test_idx]
        base = evaluate(sets["gaussian"], test_images, test_labels)
        for kind in KINDS:
            report = base if kind == "gaussian" else evaluate(sets[kind], test_images, test_labels, base)
            infid[kind].append(1.0 - report.mean_fidelity)
        if shuffle == 0:
            stats0, sets0 = stats, sets
    mean = {kind: float(np.mean(v)) for kind, v in infid.items()}
    eta = infidelity_reduction(1.0 - mean["gaussian"], 1.0 - mean["mf-array"])
    gaps = (
        mean["square"] - mean["gaussian"],
        mean["gaussian"] - mean["mf-site"],
        mean["mf-site"] - mean["mf-array"],
    )
    band = min(mean["gaussian"] - 0.005, 0.05 - mean["gaussian"])

    held = generate_dataset(replace(config, n_images=40000, seed=901))
    norm = apply_stats(held.images, stats0)
    cnn = {kind: evaluate(sets0[kind], norm, held.truth).cnn_mean_abs for kind in ("gaussian", "mf-array")}
    c6 = 0.5 * cnn["gaussian"] - cnn["mf-array"]
    c5_ok = min(gaps[:2]) > 0 and gaps[2] >= 0 and band >= 0 and eta >= 0.15
    return (
        f"c5 {'pass' if c5_ok else 'FAIL'}  gaps {gaps[0]:+.4f} {gaps[1]:+.4f} {gaps[2]:+.4f}"
        f"  band {band:+.4f}  eta-0.15 {eta - 0.15:+.3f} (eta {eta:.3f})"
        f"  |  c6 {'pass' if c6 >= 0 else 'FAIL'}  0.5*gaussian-mf-array {c6:+.5f}"
        f" ({cnn['mf-array']:.5f} vs {cnn['gaussian']:.5f})"
    )


def locate_gate(seed: int) -> str:
    """Criterion 8 on one default-preset stack, as one line."""
    config = replace(default_config(n_images=260, seed=seed), attenuation=1.0)
    stack = generate_dataset(config)
    geometry = locate_sites(mean_image(stack.images), difference_images(stack.images, stack.truth))
    true_centers = np.asarray(stack.config.geometry.site_centers(), dtype=float)
    center = float(np.abs(geometry.centers - true_centers).max())
    sigma = float(np.abs(geometry.sigmas / config.geometry.psf_sigma_px - 1.0).max())
    ok = center < 0.1 and sigma < 0.05
    return (
        f"c8 {'pass' if ok else 'FAIL'}  0.1-center {0.1 - center:+.3f} px"
        f"  5%-sigma {100 * (0.05 - sigma):+.2f} %"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="*", help="crosstalk dataset seeds for criteria 5 and 6")
    ap.add_argument("--locate-seeds", type=int, nargs="*", help="default dataset seeds for criterion 8")
    args = ap.parse_args(argv)
    for seed in args.seeds if args.seeds is not None else CROSSTALK_SEEDS:
        try:
            line = crosstalk_gates(seed)
        except MFReadoutError as exc:
            line = f"raises {type(exc).__name__}: {exc}"
        print(f"crosstalk seed {seed:3d}  {line}", flush=True)
    for seed in args.locate_seeds if args.locate_seeds is not None else LOCATE_SEEDS:
        try:
            line = locate_gate(seed)
        except MFReadoutError as exc:
            line = f"raises {type(exc).__name__}: {exc}"
        print(f"default   seed {seed:3d}  {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
