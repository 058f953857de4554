"""One-frame and batched readout cost per kind, and whether the two agree.

    python3 scripts/readout_table.py
    python3 scripts/readout_table.py --frames 2000 --runs 3

Run it from the root of a checkout; it imports mf_readout from ./src and
uses only its public API. It trains all four kinds on a 6000-frame
crosstalk stack (dataset seed 0, split seed 0) and reads out a fresh
crosstalk stack (10,000 frames by default, seed 1) normalized with the
training statistics. It first prints, as the median of the runs (5 by
default), the milliseconds and MB/s of read_stack on the fresh stack
written to a temporary directory, the sidecar's bytes included. Per kind
it then prints, also as medians:

  one-frame   microseconds per classify_stack call on a single frame
  batched     microseconds per frame of classify_stack on the whole stack

It then counts the (frame, site) scores whose bits differ between
FilterModel.scores on the frame alone and on the whole stack, and the
probe models whose one-frame readout, by FilterModel.predict or by
classify_stack, differs from the batched one when theta sits on a
frame's batched score or one ulp either side (the batch is every 50th
frame; thresholds a matched filter cannot take are skipped). It exits 1
if either count is not 0. One BLAS thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mf_readout as mf  # noqa: E402

PROBE_STRIDE = 50


def trained_sets():
    """All four kinds trained on split seed 0 of a 6000-frame crosstalk stack."""
    stack = mf.generate_dataset(mf.crosstalk_config(n_images=6000, seed=0))
    split = mf.split_dataset(stack.n_images, seed=0)
    stats = mf.fit_stats(stack.images[split.train_idx])
    norm = mf.apply_stats(stack.images, stats)
    data = mf.TrainingData(
        train_images=norm[split.train_idx],
        train_labels=stack.truth[split.train_idx],
        val_images=norm[split.val_idx],
        val_labels=stack.truth[split.val_idx],
        geometry=mf.locate_sites(
            mf.mean_image(norm[split.train_idx]),
            mf.difference_images(norm[split.train_idx], stack.truth[split.train_idx]),
        ),
    )
    return {kind: mf.train_all_sites(data, kind).ordered() for kind in mf.KINDS}, stats


def read_stack_ms(path) -> float:
    t0 = time.perf_counter()
    mf.read_stack(path)
    return 1e3 * (time.perf_counter() - t0)


def one_frame_us(models, norm) -> float:
    t0 = time.perf_counter()
    for frame in norm:
        mf.classify_stack(models, frame)
    return 1e6 * (time.perf_counter() - t0) / len(norm)


def batched_us(models, norm) -> float:
    t0 = time.perf_counter()
    mf.classify_stack(models, norm)
    return 1e6 * (time.perf_counter() - t0) / len(norm)


def score_bit_differences(models, norm) -> int:
    n = 0
    for model in models:
        batched = model.scores(norm)
        single = np.concatenate([model.scores(frame) for frame in norm])
        n += int(np.count_nonzero(batched.view(np.int64) != single.view(np.int64)))
    return n


def probe_disagreements(models, norm) -> tuple[int, int]:
    """(probe models whose one-frame and batched readouts differ, probes).

    The batched readout is of the stack of probed frames; a probe differs
    when predict or classify_stack on the frame alone disagrees with it."""
    frames = norm[::PROBE_STRIDE]
    differ = probes = 0
    for model in models:
        for i, score in enumerate(model.scores(frames)):
            for theta in (np.nextafter(score, -np.inf), score, np.nextafter(score, np.inf)):
                try:
                    probe = dataclasses.replace(model, theta=float(theta))
                except mf.ConfigError:
                    continue
                probes += 1
                batched = probe.predict(frames)[i]
                alone = (probe.predict(frames[i])[0], mf.classify_stack([probe], frames[i])[0, 0])
                differ += int(any(a != batched for a in alone))
    return differ, probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=10000)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)

    sets, stats = trained_sets()
    fresh = mf.generate_dataset(mf.crosstalk_config(n_images=args.frames, seed=1))
    norm = mf.apply_stats(fresh.images, stats)
    n_sites = len(sets[mf.KINDS[0]])
    print(f"crosstalk preset, {args.frames} frames x {n_sites} sites, median of {args.runs} runs")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fresh.qimg"
        mf.write_stack(path, fresh)
        size = path.stat().st_size + path.with_suffix(".json").stat().st_size
        ms = statistics.median(read_stack_ms(path) for _ in range(args.runs))
    print(f"read_stack: {ms:.2f} ms, {1e-3 * size / ms:.0f} MB/s ({size} bytes with the sidecar)")
    print(f"{'kind':<10} {'one-frame us/call':>18} {'batched us/frame':>17}")
    for kind, models in sets.items():
        single = [one_frame_us(models, norm) for _ in range(args.runs)]
        batched = [batched_us(models, norm) for _ in range(args.runs)]
        print(f"{kind:<10} {statistics.median(single):>18.2f} {statistics.median(batched):>17.3f}")

    bits = sum(score_bit_differences(models, norm) for models in sets.values())
    differ = probes = 0
    for models in sets.values():
        d, p = probe_disagreements(models, norm)
        differ, probes = differ + d, probes + p
    print(f"score bit differences, one-frame vs batched: {bits} of {args.frames * n_sites * len(sets)}")
    print(f"theta probes whose one-frame and batched readouts differ: {differ} of {probes}")
    return 0 if bits == differ == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
