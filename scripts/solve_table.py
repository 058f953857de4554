"""Timing and outcome table of the shared matched-filter solves.

    python3 scripts/solve_table.py
    python3 scripts/solve_table.py --out learned.json
    python3 scripts/solve_table.py --against learned.json

Run it from the root of a checkout; it imports mf_readout from ./src.
For the default preset at 3000 frames and the crosstalk preset at 6000,
each dataset seed 0-9 with true-state labels, it builds split seed 0's
TrainingData as the pipeline does. Per preset and alpha (0 and 0.1) it
prints the median milliseconds per shuffle of one build of the window
systems (train._window_systems: the window products and the shared
mf-site solves) over the default window grid, and, over both matched
filters, how many (site, window) weights came from the nested
factorization and its Schur elimination and how many fell back to
solving the site's whole system from the moments.

--out also writes every site's learned (s, theta) and weights for both
matched filters, per preset, seed and alpha, as JSON. --against reads
such a file, from this or another checkout, prints how many choices
differ and the worst weight difference relative to each site's max |w|,
and exits 1 when any site's (s, theta) differs, the site fits on one
side and fails on the other, or the file lacks it, and 0 otherwise. One
BLAS thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mf_readout import (  # noqa: E402
    TrainingData,
    apply_stats,
    crosstalk_config,
    default_config,
    difference_images,
    fit_stats,
    generate_dataset,
    locate_sites,
    mean_image,
    split_dataset,
    train,
    train_all_sites,
)

PRESETS = {"default": (default_config, 3000), "crosstalk": (crosstalk_config, 6000)}
SEEDS = range(10)
ALPHAS = (0.0, 0.1)
REPEATS = 3


def training_data(preset: str, seed: int) -> TrainingData:
    config, n_images = PRESETS[preset]
    stack = generate_dataset(config(n_images=n_images, seed=seed))
    split = split_dataset(n_images, seed=0)
    norm = apply_stats(stack.images, fit_stats(stack.images[split.train_idx]))
    return TrainingData(
        train_images=norm[split.train_idx],
        train_labels=stack.truth[split.train_idx],
        val_images=norm[split.val_idx],
        val_labels=stack.truth[split.val_idx],
        geometry=locate_sites(
            mean_image(norm[split.train_idx]),
            difference_images(norm[split.train_idx], stack.truth[split.train_idx]),
        ),
    )


def fresh(data: TrainingData) -> TrainingData:
    """A copy with no window systems cached and data's moments."""
    copy = replace(data)
    copy.__dict__["_moments"] = data._moments
    return copy


def time_systems(data: TrainingData, alpha: float) -> float:
    """Milliseconds of one build of a shuffle's window systems."""
    copy = fresh(data)
    t0 = time.perf_counter()
    train._window_systems(copy, train.S_GRID, alpha)
    return 1e3 * (time.perf_counter() - t0)


def count_paths(data: TrainingData, alpha: float) -> tuple[int, int]:
    """(nested, fallback) (site, window) weights of both matched filters
    over one shuffle's grid."""
    copy = fresh(data)
    fits = []
    fallback = train._fallback_weights

    def counted(data, window, site, pix, nbr, alpha):
        fits.append(len(pix) + len(nbr))
        return fallback(data, window, site, pix, nbr, alpha)

    train._fallback_weights = counted
    try:
        total = sum(
            len(train._learned_candidates(copy, kind, train.S_GRID, alpha)[0]) for kind in train.LEARNED_KINDS
        )
    finally:
        train._fallback_weights = fallback
    return total - len(fits), len(fits)


def learned(data: TrainingData, alpha: float) -> dict:
    out = {}
    copy = fresh(data)
    for kind in train.LEARNED_KINDS:
        model_set = train_all_sites(copy, kind, alpha=alpha)
        out[kind] = {
            str(site): {"s": m.s, "theta": m.theta, "weights": m.weights.tolist()}
            for site, m in sorted(model_set.models.items())
        }
        out[kind].update({str(site): {"error": msg} for site, msg in sorted(model_set.failures.items())})
    return out


def compare(rows: dict, saved: dict) -> tuple[str, int]:
    """The --against line and how many site models differ: in (s, theta),
    by fitting on one side and failing on the other, or by missing from
    saved. The line also gives the worst |dw| / max |w|."""
    differ, worst, n = 0, 0.0, 0
    for key, kinds in rows.items():
        for kind, sites in kinds.items():
            for site, got in sites.items():
                ref = saved.get(key, {}).get(kind, {}).get(site)
                n += 1
                if ref is None:
                    differ += 1
                elif "error" in got or "error" in ref:
                    differ += ("error" in got) != ("error" in ref)
                elif (got["s"], got["theta"]) != (ref["s"], ref["theta"]):
                    differ += 1
                else:
                    w, w_ref = np.array(got["weights"]), np.array(ref["weights"])
                    worst = max(worst, float(np.abs(w - w_ref).max() / np.abs(w_ref).max()))
    return f"{n} site models compared: {differ} differ in (s, theta) or fit, worst |dw| / max |w| {worst:.2e}", differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, help="write every site's learned (s, theta) and weights to this JSON file")
    ap.add_argument("--against", type=Path, help="compare the learned models with this JSON file")
    args = ap.parse_args(argv)

    rows = {}
    for preset in PRESETS:
        datasets = [training_data(preset, seed) for seed in SEEDS]
        for alpha in ALPHAS:
            systems = np.median([time_systems(data, alpha) for _ in range(REPEATS) for data in datasets])
            nested, fallback = np.sum([count_paths(data, alpha) for data in datasets], axis=0)
            print(
                f"{preset:9s} alpha {alpha:<3g}  window systems {systems:5.1f} ms"
                f"  per shuffle  (site, window) weights: {nested} nested, {fallback} fallback",
                flush=True,
            )
            if args.out is not None or args.against is not None:
                for seed, data in zip(SEEDS, datasets):
                    rows[f"{preset} seed {seed} alpha {alpha:g}"] = learned(data, alpha)
    if args.out is not None:
        args.out.write_text(json.dumps(rows) + "\n")
    if args.against is not None:
        text, differ = compare(rows, json.loads(args.against.read_text()))
        print(text)
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
