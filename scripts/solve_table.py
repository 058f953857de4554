"""Timing and outcome table of the shared matched-filter solves.

    python3 scripts/solve_table.py
    python3 scripts/solve_table.py --out learned.json
    python3 scripts/solve_table.py --against learned.json

Run it from the root of a checkout; it imports mf_readout from ./src.
For the default preset at 3000 frames and the crosstalk preset at 6000,
each dataset seed 0-9 with true-state labels, it builds split seed 0's
TrainingData as the pipeline does. Per preset and alpha (0 and 0.1) it
prints the median milliseconds per shuffle of the window products and
of the shared mf-site solves over the default window grid, and how many
(site, window) solves came from the nested factorization and how many
went through the per-size stacked solver (_solve_stack).

--out also writes every site's learned (s, theta) and weights for both
matched filters, per preset, seed and alpha, as JSON. --against reads
such a file, from this or another checkout, and prints how many choices
differ and the worst weight difference relative to each site's max |w|.
One BLAS thread.
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
        geometry=locate_sites(mean_image(norm[split.train_idx]), stack.n_sites),
    )


def fresh(data: TrainingData) -> TrainingData:
    """A copy with empty product and solve caches and data's moments."""
    copy = replace(data)
    copy.__dict__["_moments"] = data._moments
    return copy


def time_solves(data: TrainingData, alpha: float) -> tuple[float, float]:
    """(products ms, solves ms) of one shuffle's window grid."""
    copy = fresh(data)
    t0 = time.perf_counter()
    train._fill_products(copy, train.S_GRID)
    t1 = time.perf_counter()
    train._fill_solves(copy, train.S_GRID, alpha)
    t2 = time.perf_counter()
    return 1e3 * (t1 - t0), 1e3 * (t2 - t1)


def count_paths(data: TrainingData, alpha: float) -> tuple[int, int]:
    """(nested, per-size) (site, window) solves of one shuffle's grid."""
    copy = fresh(data)
    per_size = []
    solve_stack = train._solve_stack

    def counted(grams, rhs, alpha):
        per_size.append(len(grams))
        return solve_stack(grams, rhs, alpha)

    train._solve_stack = counted
    try:
        train._fill_solves(copy, train.S_GRID, alpha)
    finally:
        train._solve_stack = solve_stack
    total = sum(len(copy._products[s].fits) for s in train.S_GRID)
    return total - sum(per_size), sum(per_size)


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


def compare(rows: dict, saved: dict) -> str:
    """Choices that differ and the worst |dw| / max |w| over shared keys."""
    differ, worst, n = 0, 0.0, 0
    for key, kinds in rows.items():
        for kind, sites in kinds.items():
            for site, got in sites.items():
                ref = saved.get(key, {}).get(kind, {}).get(site)
                if ref is None:
                    continue
                n += 1
                if "error" in got or "error" in ref or (got["s"], got["theta"]) != (ref["s"], ref["theta"]):
                    differ += 1
                    continue
                w, w_ref = np.array(got["weights"]), np.array(ref["weights"])
                worst = max(worst, float(np.abs(w - w_ref).max() / np.abs(w_ref).max()))
    return f"{n} site models compared: {differ} differ in (s, theta), worst |dw| / max |w| {worst:.2e}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, help="write every site's learned (s, theta) and weights to this JSON file")
    ap.add_argument("--against", type=Path, help="compare the learned models with this JSON file")
    args = ap.parse_args(argv)

    rows = {}
    for preset in PRESETS:
        datasets = [training_data(preset, seed) for seed in SEEDS]
        for alpha in ALPHAS:
            times = np.array([time_solves(data, alpha) for _ in range(REPEATS) for data in datasets])
            nested, per_size = np.sum([count_paths(data, alpha) for data in datasets], axis=0)
            products, solves = np.median(times, axis=0)
            print(
                f"{preset:9s} alpha {alpha:<3g}  products {products:5.1f} ms  solves {solves:5.1f} ms"
                f"  per shuffle  (site, window) solves: {nested} nested, {per_size} per-size",
                flush=True,
            )
            if args.out is not None or args.against is not None:
                for seed, data in zip(SEEDS, datasets):
                    rows[f"{preset} seed {seed} alpha {alpha:g}"] = learned(data, alpha)
    if args.out is not None:
        args.out.write_text(json.dumps(rows) + "\n")
    if args.against is not None:
        print(compare(rows, json.loads(args.against.read_text())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
