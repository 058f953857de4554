"""Localization outcome table over presets, stack sizes and seeds.

    python3 scripts/locate_table.py
    python3 scripts/locate_table.py --out centers.json
    python3 scripts/locate_table.py --against centers.json

Run it from the root of a checkout; it imports mf_readout from ./src.
For the default and crosstalk presets at 600 / 1200 / 3000 / 6000 frames
and each dataset seed 0-19, it renders the stack, takes the normalized
train split (split seed 0) and its truth labels, as the pipeline does,
and calls locate_sites on their mean image and difference images. Per
preset and size it prints how many seeds raise DataError, the worst and
median center error (each stack scored by its worst site, in px), the
worst relative sigma error, the total number of fallback sites and the
median wall time per call, difference images included. --out also writes every
stack's outcome (centers, sigmas, fallbacks or the error) as JSON.
--against reads such a file, written by another checkout, and prints per
preset and size how many stacks kept bit-identical centers and sigmas, the
largest center and sigma difference over the stacks both sides located,
and every stack whose raise or fallback outcome changed; it exits 1 when
any stack's centers or sigmas differ or its raise or fallback outcome
changed, and 0 otherwise. One BLAS thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mf_readout import (  # noqa: E402
    DataError,
    apply_stats,
    crosstalk_config,
    default_config,
    difference_images,
    fit_stats,
    generate_dataset,
    locate_sites,
    mean_image,
    split_dataset,
)

PRESETS = {"default": default_config, "crosstalk": crosstalk_config}
FRAMES = (600, 1200, 3000, 6000)
SEEDS = range(20)


def locate_one(preset: str, n_images: int, seed: int) -> dict:
    stack = generate_dataset(PRESETS[preset](n_images=n_images, seed=seed))
    train_idx = split_dataset(n_images, seed=0).train_idx
    train = apply_stats(stack.images[train_idx], fit_stats(stack.images[train_idx]))
    geo = stack.config.geometry
    row = {"preset": preset, "frames": n_images, "seed": seed}
    t0 = time.perf_counter()
    try:
        found = locate_sites(mean_image(train), difference_images(train, stack.truth[train_idx]))
    except DataError as exc:
        row.update(ms=1e3 * (time.perf_counter() - t0), error=str(exc))
        return row
    row["ms"] = 1e3 * (time.perf_counter() - t0)
    row.update(
        centers=found.centers.tolist(),
        sigmas=found.sigmas.tolist(),
        fallbacks=list(found.fallbacks),
        center_err=float(np.linalg.norm(found.centers - geo.site_centers(), axis=1).max()),
        sigma_err=float(np.abs(found.sigmas / geo.psf_sigma_px - 1.0).max()),
    )
    return row


def summary(rows: list[dict]) -> str:
    ok = [r for r in rows if "error" not in r]
    raised = [r["seed"] for r in rows if "error" in r]
    if ok:
        errs = [r["center_err"] for r in ok]
        located = (
            f"center err worst {max(errs):.3f} median {np.median(errs):.3f} px  "
            f"sigma err worst {100 * max(r['sigma_err'] for r in ok):4.1f} %  "
            f"fallbacks {sum(sum(r['fallbacks']) for r in ok):3d}"
        )
    else:
        located = "no stack located"
    ms = np.median([r["ms"] for r in rows])
    seeds = f" (seeds {', '.join(map(str, raised))})" if raised else ""
    return f"raise {len(raised):2d}/{len(rows)}  {located}  {ms:6.1f} ms/call{seeds}"


def comparison(rows: list[dict], prev: dict) -> tuple[str, bool]:
    """The --against lines of one block of rows, and whether every row
    matches its previous outcome bit for bit."""
    same, d_center, d_sigma, changed = 0, 0.0, 0.0, []
    for r in rows:
        p = prev[r["preset"], r["frames"], r["seed"]]
        if "error" in r or "error" in p:
            if ("error" in r) != ("error" in p):
                changed.append(f"seed {r['seed']} {'now raises' if 'error' in r else 'now located'}")
            continue
        dc = np.abs(np.subtract(r["centers"], p["centers"])).max()
        ds = np.abs(np.subtract(r["sigmas"], p["sigmas"])).max()
        if dc == 0.0 and ds == 0.0:
            same += 1
        else:
            changed.append(f"seed {r['seed']} centers or sigmas differ")
        d_center, d_sigma = max(d_center, dc), max(d_sigma, ds)
        if r["fallbacks"] != p["fallbacks"]:
            changed.append(f"seed {r['seed']} fallbacks {p['fallbacks']} -> {r['fallbacks']}")
    text = (
        f"  against: bit-identical {same:2d}/{len(rows)}  max center diff {d_center:.1e} px  "
        f"max sigma diff {d_sigma:.1e} px" + "".join(f"\n    {c}" for c in changed)
    )
    return text, not changed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, help="write every stack's outcome to this JSON file")
    ap.add_argument("--against", type=Path, help="compare every stack with this --out file")
    args = ap.parse_args(argv)
    prev = None
    if args.against is not None:
        prev = {(r["preset"], r["frames"], r["seed"]): r for r in json.loads(args.against.read_text())}

    rows, matched = [], True
    for preset in PRESETS:
        for n_images in FRAMES:
            block = [locate_one(preset, n_images, seed) for seed in SEEDS]
            print(f"{preset:9s} {n_images:5d}  {summary(block)}", flush=True)
            if prev is not None:
                text, same = comparison(block, prev)
                print(text, flush=True)
                matched &= same
            rows.extend(block)
    if args.out is not None:
        args.out.write_text(json.dumps(rows, indent=1) + "\n")
    return 0 if matched else 1


if __name__ == "__main__":
    sys.exit(main())
