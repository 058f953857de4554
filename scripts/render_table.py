"""Render cost per frame at one worker and at the render pool's default size.

    python3 scripts/render_table.py
    python3 scripts/render_table.py --frames 2000 --runs 3

Run it from the root of a checkout; it imports mf_readout from ./src.
For the default and crosstalk presets (dataset seed 0, 6000 frames by
default) it times generate_dataset and generate_label_path with the
render pool at one worker and at its default size, one worker per usable
CPU up to the block count, and prints the median of the runs (5 by
default) in microseconds per frame. The two worker counts take turns run
by run, so a change in the host's speed hits both. It exits 1 if the
frames, the truth or the labels differ in any byte between the two
worker counts. One BLAS thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mf_readout import sim  # noqa: E402

PRESETS = {"default": sim.default_config, "crosstalk": sim.crosstalk_config}


def timed_render(config, workers: int):
    """(render s, label s, bytes) of one stack and its label path at a worker count."""
    with mock.patch.object(sim, "_usable_cpus", lambda: workers):
        t0 = time.perf_counter()
        stack = sim.generate_dataset(config)
        t1 = time.perf_counter()
        labels = sim.generate_label_path(config, stack.truth)
        t2 = time.perf_counter()
    return t1 - t0, t2 - t1, stack.images.tobytes() + stack.truth.tobytes() + labels.tobytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=6000)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)

    default_workers = sim._usable_cpus()
    counts = sorted({1, default_workers})
    print(f"usable CPUs: {default_workers}; {args.frames} frames, median of {args.runs} runs")
    print(f"{'preset':<10} {'workers':>7} {'render us/frame':>16} {'label us/frame':>15}")
    same = True
    for preset, make in PRESETS.items():
        config = make(n_images=args.frames, seed=0)
        times = {w: ([], []) for w in counts}
        outputs = {}
        for _ in range(args.runs):
            for w in counts:
                render_s, label_s, outputs[w] = timed_render(config, w)
                times[w][0].append(render_s)
                times[w][1].append(label_s)
        for w in counts:
            render_us, label_us = (1e6 * statistics.median(t) / args.frames for t in times[w])
            print(f"{preset:<10} {w:>7} {render_us:>16.1f} {label_us:>15.1f}")
        if len(set(outputs.values())) != 1:
            print(f"{preset}: the bytes differ between {counts[0]} and {counts[-1]} workers")
            same = False
    print("bytes equal at every worker count" if same else "BYTES DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
